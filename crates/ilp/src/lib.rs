//! Exact 0-1 integer-linear-programming for the CR&P selection models.
//!
//! The paper solves two ILP shapes with CPLEX:
//!
//! - the **legalizer** (Eq. 11): place each window cell at exactly one
//!   (site, row) slot, no two placements overlapping, minimizing weighted
//!   displacement;
//! - the **candidate selection** (Eq. 12): pick exactly one placement
//!   candidate per critical cell, spatially incompatible candidates being
//!   mutually exclusive, minimizing estimated routing cost.
//!
//! Both are *partitioned selection problems*: binary variables partition
//! into groups with an exactly-one constraint per group, plus pairwise
//! conflicts. [`Model`] expresses exactly that, and [`Model::solve`] runs a
//! depth-first branch-and-bound with conflict propagation and a
//! sum-of-group-minima lower bound. Instances are small by construction
//! (the paper uses 3-cell windows of 20 × 5 slots), so the exact optimum is
//! found quickly; a node limit turns the solver into an anytime heuristic
//! and reproduces the scalability cliff of the median-move baseline. A
//! conflict component the limit cuts off keeps its best assignment, or,
//! when it has none, the per-group fallbacks the caller named with
//! [`Model::set_fallback`].
//!
//! # Examples
//!
//! ```
//! use crp_ilp::{Model, SolveLimits};
//!
//! let mut m = Model::new();
//! let a0 = m.add_var(1.0); // group A, cheap
//! let a1 = m.add_var(5.0);
//! let b0 = m.add_var(2.0); // group B, cheap but conflicts with a0
//! let b1 = m.add_var(3.0);
//! m.add_exactly_one([a0, a1]);
//! m.add_exactly_one([b0, b1]);
//! m.add_conflict(a0, b0);
//! let sol = m.solve(SolveLimits::default())?;
//! assert_eq!(sol.objective, 4.0); // a0 + b1
//! assert!(sol.proven_optimal);
//! # Ok::<(), crp_ilp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use crp_geom::sum_ordered;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A binary decision variable handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub u32);

impl VarId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A partitioned 0-1 selection model: minimize Σ cost·x subject to one
/// exactly-one constraint per group and pairwise conflicts.
#[derive(Debug, Clone, Default)]
pub struct Model {
    costs: Vec<f64>,
    group_of: Vec<Option<u32>>,
    groups: Vec<Vec<VarId>>,
    /// Per group, the variable a component cut off by the node limit
    /// with no incumbent takes instead.
    fallback: Vec<Option<VarId>>,
    conflicts: Vec<Vec<VarId>>,
}

/// Limits applied to a [`Model::solve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveLimits {
    /// Maximum branch-and-bound nodes to explore before giving up.
    pub max_nodes: u64,
}

impl Default for SolveLimits {
    fn default() -> SolveLimits {
        SolveLimits {
            max_nodes: 10_000_000,
        }
    }
}

/// The outcome of a successful solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// The selected variable of each group, in group order.
    pub chosen: Vec<VarId>,
    /// Objective value of the selection.
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Whether the solution is a proven optimum (node limit not hit).
    pub proven_optimal: bool,
    /// Conflict components the node limit cut off before they found any
    /// assignment, which took their groups' fallbacks.
    pub fallback_components: usize,
}

impl Solution {
    /// Whether `var` is selected.
    #[must_use]
    pub fn is_chosen(&self, var: VarId) -> bool {
        self.chosen.contains(&var)
    }
}

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveError {
    /// The constraints admit no assignment.
    Infeasible,
    /// The node limit cut off a conflict component before it found any
    /// feasible assignment, and its groups name no conflict-free
    /// fallbacks.
    NodeLimit {
        /// Nodes explored before aborting.
        nodes: u64,
    },
    /// A variable does not belong to any exactly-one group.
    UngroupedVariable {
        /// The offending variable.
        var: VarId,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("model is infeasible"),
            SolveError::NodeLimit { nodes } => {
                write!(
                    f,
                    "node limit reached after {nodes} nodes with no incumbent"
                )
            }
            SolveError::UngroupedVariable { var } => {
                write!(f, "variable {} belongs to no exactly-one group", var.0)
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl Model {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Model {
        Model::default()
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of exactly-one groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Adds a binary variable with objective coefficient `cost`.
    pub fn add_var(&mut self, cost: f64) -> VarId {
        // crp-lint: allow(no-panic-paths, documented capacity contract: one
        // variable per candidate, far below u32::MAX; overflow is a caller bug)
        let id = VarId(u32::try_from(self.costs.len()).expect("too many variables"));
        self.costs.push(cost);
        self.group_of.push(None);
        self.conflicts.push(Vec::new());
        id
    }

    /// Constrains `vars` so exactly one of them is selected.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or any variable is already in a group.
    pub fn add_exactly_one(&mut self, vars: impl IntoIterator<Item = VarId>) {
        let vars: Vec<VarId> = vars.into_iter().collect();
        assert!(!vars.is_empty(), "exactly-one group cannot be empty");
        // crp-lint: allow(no-panic-paths, documented capacity contract: one
        // group per cell, far below u32::MAX; overflow is a caller bug)
        let gid = u32::try_from(self.groups.len()).expect("too many groups");
        for &v in &vars {
            assert!(
                self.group_of[v.index()].is_none(),
                "variable {} already grouped",
                v.0
            );
            self.group_of[v.index()] = Some(gid);
        }
        self.groups.push(vars);
        self.fallback.push(None);
    }

    /// Names `var` as its group's fallback: the variable the group takes
    /// when the node limit cuts off its conflict component before the
    /// search finds any assignment. A component falls back only when
    /// every one of its groups has a fallback and no two of them
    /// conflict; otherwise [`solve`](Model::solve) reports
    /// [`SolveError::NodeLimit`].
    ///
    /// # Panics
    ///
    /// Panics if `var` belongs to no group.
    pub fn set_fallback(&mut self, var: VarId) {
        // crp-lint: allow(no-panic-paths, documented API contract: a
        // fallback names a variable of an existing group)
        let g = self.group_of[var.index()].expect("fallback variable belongs to no group");
        self.fallback[g as usize] = Some(var);
    }

    /// Forbids selecting both `a` and `b`.
    pub fn add_conflict(&mut self, a: VarId, b: VarId) {
        if a == b {
            return;
        }
        if !self.conflicts[a.index()].contains(&b) {
            self.conflicts[a.index()].push(b);
            self.conflicts[b.index()].push(a);
        }
    }

    /// The objective coefficient of `var`.
    #[must_use]
    pub fn cost(&self, var: VarId) -> f64 {
        self.costs[var.index()]
    }

    /// Solves the model to optimality, or under the node limit to the best
    /// incumbent of each conflict component.
    ///
    /// The components share one node budget, in order of their lowest
    /// group. A component the limit cuts off keeps its incumbent; one
    /// with no incumbent takes its groups' fallbacks (see
    /// [`set_fallback`](Model::set_fallback)) and is counted in
    /// [`Solution::fallback_components`].
    ///
    /// # Errors
    ///
    /// - [`SolveError::UngroupedVariable`] if any variable is in no group;
    /// - [`SolveError::Infeasible`] if the conflicts admit no assignment;
    /// - [`SolveError::NodeLimit`] if the limit cuts off a component with
    ///   no incumbent and no conflict-free fallbacks.
    pub fn solve(&self, limits: SolveLimits) -> Result<Solution, SolveError> {
        for (i, g) in self.group_of.iter().enumerate() {
            if g.is_none() {
                return Err(SolveError::UngroupedVariable {
                    // crp-lint: allow(cast-truncation, i indexes the variable
                    // list, whose length add_var capped to u32)
                    var: VarId(i as u32),
                });
            }
        }
        if self.groups.is_empty() {
            return Ok(Solution {
                chosen: Vec::new(),
                objective: 0.0,
                nodes: 0,
                proven_optimal: true,
                fallback_components: 0,
            });
        }

        // --- presolve: decompose into connected components -----------------
        // Two groups interact only through conflicts between their
        // variables; independent groups (no conflicts at all) reduce to
        // "pick the cheapest", and each conflict-connected component can be
        // solved separately. This is what keeps the legalizer and
        // selection ILPs exact at design scale.
        let num_groups = self.groups.len();
        let mut comp: Vec<usize> = (0..num_groups).collect();
        fn find(comp: &mut [usize], mut i: usize) -> usize {
            while comp[i] != i {
                comp[i] = comp[comp[i]];
                i = comp[i];
            }
            i
        }
        for (v, confs) in self.conflicts.iter().enumerate() {
            // crp-lint: allow(no-panic-paths, the loop at the top of solve
            // already returned UngroupedVariable if any entry were None)
            let gv = self.group_of[v].expect("validated") as usize;
            for c in confs {
                // crp-lint: allow(no-panic-paths, same validation as above)
                let gc = self.group_of[c.index()].expect("validated") as usize;
                let (rv, rc) = (find(&mut comp, gv), find(&mut comp, gc));
                if rv != rc {
                    comp[rv] = rc;
                }
            }
        }
        let mut components: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for g in 0..num_groups {
            components.entry(find(&mut comp, g)).or_default().push(g);
        }
        let mut component_list: Vec<Vec<usize>> = components.into_values().collect();
        component_list.sort_by_key(|c| c[0]);

        let mut chosen = vec![VarId(0); num_groups];
        let mut objective = 0.0;
        let mut total_nodes = 0u64;
        let mut proven = true;
        let mut fallback_components = 0;

        for component in component_list {
            if component.len() == 1 && {
                let g = component[0];
                self.groups[g]
                    .iter()
                    .all(|v| self.conflicts[v.index()].is_empty())
            } {
                // Conflict-free singleton: pick the cheapest variable.
                let g = component[0];
                let best = self.groups[g]
                    .iter()
                    .copied()
                    .min_by(|a, b| {
                        self.costs[a.index()]
                            .total_cmp(&self.costs[b.index()])
                            .then(a.cmp(b))
                    })
                    // crp-lint: allow(no-panic-paths, add_exactly_one
                    // rejects empty groups, so min_by always sees one var)
                    .expect("groups are non-empty");
                chosen[g] = best;
                objective += self.costs[best.index()];
                continue;
            }

            // Branch-and-bound over this component's groups: cost-sorted
            // candidates, dynamic fail-first branching, and a matching-
            // strengthened lower bound (see [`Search`]).
            let sorted_groups: Vec<Vec<VarId>> = component
                .iter()
                .map(|&g| {
                    let mut vars = self.groups[g].clone();
                    vars.sort_by(|&a, &b| self.costs[a.index()].total_cmp(&self.costs[b.index()]));
                    vars
                })
                .collect();
            // Local group index of every variable in this component.
            let mut local_of = vec![usize::MAX; self.num_vars()];
            for (local, vars) in sorted_groups.iter().enumerate() {
                for v in vars {
                    local_of[v.index()] = local;
                }
            }
            let budget = limits.max_nodes.saturating_sub(total_nodes);
            let k = sorted_groups.len();
            let mut search = Search {
                model: self,
                sorted_groups: &sorted_groups,
                local_of: &local_of,
                forbidden: vec![0u32; self.num_vars()],
                done: vec![false; k],
                assigned: vec![VarId(0); k],
                best: None,
                best_cost: f64::INFINITY,
                nodes: 0,
                max_nodes: budget,
                aborted: false,
            };
            search.dfs(0, 0.0);
            total_nodes += search.nodes;
            match search.best {
                Some(component_chosen) => {
                    for (local, &var) in component_chosen.iter().enumerate() {
                        chosen[component[local]] = var;
                    }
                    objective += search.best_cost;
                    if search.aborted {
                        proven = false;
                    }
                }
                None if search.aborted => {
                    let fallback = self
                        .fallbacks(&component)
                        .ok_or(SolveError::NodeLimit { nodes: total_nodes })?;
                    for (&g, var) in component.iter().zip(fallback) {
                        chosen[g] = var;
                        objective += self.costs[var.index()];
                    }
                    proven = false;
                    fallback_components += 1;
                }
                None => return Err(SolveError::Infeasible),
            }
        }

        Ok(Solution {
            chosen,
            objective,
            nodes: total_nodes,
            proven_optimal: proven,
            fallback_components,
        })
    }

    /// The fallback of every group in `component`, if each has one and
    /// no two of them conflict.
    fn fallbacks(&self, component: &[usize]) -> Option<Vec<VarId>> {
        let vars: Vec<VarId> = component
            .iter()
            .map(|&g| self.fallback[g])
            .collect::<Option<_>>()?;
        let mut taken = vec![false; self.num_vars()];
        for v in &vars {
            taken[v.index()] = true;
        }
        let conflict_free = vars
            .iter()
            .all(|v| self.conflicts[v.index()].iter().all(|c| !taken[c.index()]));
        conflict_free.then_some(vars)
    }

    /// Brute-force enumeration over all group combinations — exponential;
    /// exposed for differential testing only.
    #[doc(hidden)]
    pub fn solve_exhaustive(&self) -> Result<Solution, SolveError> {
        for (i, g) in self.group_of.iter().enumerate() {
            if g.is_none() {
                return Err(SolveError::UngroupedVariable {
                    // crp-lint: allow(cast-truncation, i indexes the variable
                    // list, whose length add_var capped to u32)
                    var: VarId(i as u32),
                });
            }
        }
        let mut best: Option<(Vec<VarId>, f64)> = None;
        let mut stack = vec![0usize; self.groups.len()];
        let k = self.groups.len();
        if k == 0 {
            return Ok(Solution {
                chosen: vec![],
                objective: 0.0,
                nodes: 0,
                proven_optimal: true,
                fallback_components: 0,
            });
        }
        'outer: loop {
            // Evaluate current combination.
            let chosen: Vec<VarId> = (0..k).map(|g| self.groups[g][stack[g]]).collect();
            let mut ok = true;
            'conf: for i in 0..k {
                for j in (i + 1)..k {
                    if self.conflicts[chosen[i].index()].contains(&chosen[j]) {
                        ok = false;
                        break 'conf;
                    }
                }
            }
            if ok {
                let cost: f64 = sum_ordered(chosen.iter().map(|v| self.costs[v.index()]));
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    best = Some((chosen, cost));
                }
            }
            // Advance odometer.
            for g in (0..k).rev() {
                stack[g] += 1;
                if stack[g] < self.groups[g].len() {
                    continue 'outer;
                }
                stack[g] = 0;
                if g == 0 {
                    break 'outer;
                }
            }
        }
        match best {
            Some((chosen, objective)) => Ok(Solution {
                chosen,
                objective,
                nodes: 0,
                proven_optimal: true,
                fallback_components: 0,
            }),
            None => Err(SolveError::Infeasible),
        }
    }
}

/// Per-component branch-and-bound.
///
/// Three devices keep the search polynomial on the sparse instances the
/// CR&P flow produces and merely *slow* (instead of wrong) on dense ones:
///
/// 1. **cost-sorted candidates** — the first selectable variable of a
///    group is its cheapest, so per-group minima are O(scan);
/// 2. **fail-first dynamic branching** — the group with the fewest
///    selectable variables is branched next;
/// 3. **matching-strengthened bound** — beyond the classic sum of group
///    minima, every disjoint pair of groups whose *minima conflict* must
///    pay at least the smaller of the two groups' regrets (second-best
///    minus best); a greedy matching over such pairs is a valid additive
///    lower bound and prunes the equal-cost plateaus that blow up the
///    naive bound.
struct Search<'a> {
    model: &'a Model,
    sorted_groups: &'a [Vec<VarId>],
    /// Local (component) group index per variable, `usize::MAX` outside.
    local_of: &'a [usize],
    /// Count of chosen conflicting variables per var (0 = selectable).
    forbidden: Vec<u32>,
    done: Vec<bool>,
    assigned: Vec<VarId>,
    best: Option<Vec<VarId>>,
    best_cost: f64,
    nodes: u64,
    max_nodes: u64,
    aborted: bool,
}

struct GroupState {
    group: usize,
    min_var: VarId,
    min_cost: f64,
    /// Second-cheapest selectable cost (`f64::INFINITY` if none).
    regret: f64,
    selectable: usize,
}

impl Search<'_> {
    /// Scans the remaining groups: per-group minima, regrets, and
    /// selectable counts. `None` when some group has no selectable var.
    fn scan(&self) -> Option<Vec<GroupState>> {
        let mut states = Vec::new();
        for (g, vars) in self.sorted_groups.iter().enumerate() {
            if self.done[g] {
                continue;
            }
            let mut min: Option<(VarId, f64)> = None;
            let mut second = f64::INFINITY;
            let mut selectable = 0;
            for v in vars {
                if self.forbidden[v.index()] > 0 {
                    continue;
                }
                selectable += 1;
                let c = self.model.costs[v.index()];
                if min.is_none() {
                    min = Some((*v, c));
                } else if second.is_infinite() {
                    second = c;
                }
            }
            let (min_var, min_cost) = min?;
            states.push(GroupState {
                group: g,
                min_var,
                min_cost,
                regret: second - min_cost,
                selectable,
            });
        }
        Some(states)
    }

    /// The matching-strengthened lower bound over `states` (see type
    /// docs). Returns `None` when two single-option groups conflict — a
    /// guaranteed dead end.
    fn bound_extra(&self, states: &[GroupState]) -> Option<f64> {
        // Map group -> position in `states` for minima-conflict lookups.
        let mut pos_of = vec![usize::MAX; self.sorted_groups.len()];
        for (i, s) in states.iter().enumerate() {
            pos_of[s.group] = i;
        }
        // Candidate pairs: minima that conflict.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for (i, s) in states.iter().enumerate() {
            for c in &self.model.conflicts[s.min_var.index()] {
                let lg = self.local_of[c.index()];
                if lg == usize::MAX {
                    continue;
                }
                let j = pos_of[lg];
                if j == usize::MAX || j <= i {
                    continue;
                }
                if states[j].min_var != *c {
                    continue;
                }
                let w = states[i].regret.min(states[j].regret);
                if w.is_infinite() {
                    return None; // two forced minima conflict: dead end
                }
                if w > 0.0 {
                    pairs.push((w, i, j));
                }
            }
        }
        // Greedy matching, heaviest pairs first.
        pairs.sort_by(|a, b| b.0.total_cmp(&a.0).then((a.1, a.2).cmp(&(b.1, b.2))));
        let mut used = vec![false; states.len()];
        let mut extra = 0.0;
        for (w, i, j) in pairs {
            if !used[i] && !used[j] {
                used[i] = true;
                used[j] = true;
                extra += w;
            }
        }
        Some(extra)
    }

    fn dfs(&mut self, depth: usize, cost_so_far: f64) {
        if self.aborted {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.aborted = true;
            return;
        }
        if depth == self.sorted_groups.len() {
            if cost_so_far < self.best_cost {
                self.best_cost = cost_so_far;
                self.best = Some(self.assigned.clone());
            }
            return;
        }
        let Some(states) = self.scan() else { return };
        let base: f64 = sum_ordered(states.iter().map(|s| s.min_cost));
        if cost_so_far + base >= self.best_cost {
            return;
        }
        let Some(extra) = self.bound_extra(&states) else {
            return;
        };
        if cost_so_far + base + extra >= self.best_cost {
            return;
        }

        // Fail-first: fewest selectable vars; tie-break on largest regret,
        // then lowest group index for determinism.
        let pick = states
            .iter()
            .min_by(|a, b| {
                a.selectable
                    .cmp(&b.selectable)
                    .then(b.regret.total_cmp(&a.regret))
                    .then(a.group.cmp(&b.group))
            })
            // crp-lint: allow(no-panic-paths, branch() is only called while
            // an undone group remains, so the state list is non-empty)
            .expect("states non-empty");
        let g = pick.group;
        let vars = &self.sorted_groups[g];

        self.done[g] = true;
        for &var in vars.iter() {
            if self.forbidden[var.index()] > 0 {
                continue;
            }
            let cost = cost_so_far + self.model.costs[var.index()];
            if cost + (base - pick.min_cost) >= self.best_cost {
                // Candidates are cost-sorted: everything after is no better.
                break;
            }
            for &c in &self.model.conflicts[var.index()] {
                self.forbidden[c.index()] += 1;
            }
            self.assigned[g] = var;
            self.dfs(depth + 1, cost);
            for &c in &self.model.conflicts[var.index()] {
                self.forbidden[c.index()] -= 1;
            }
            if self.aborted {
                break;
            }
        }
        self.done[g] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_model_trivially_optimal() {
        let m = Model::new();
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.proven_optimal);
    }

    #[test]
    fn single_group_picks_cheapest() {
        let mut m = Model::new();
        let v: Vec<VarId> = [4.0, 1.0, 3.0].iter().map(|&c| m.add_var(c)).collect();
        m.add_exactly_one(v.clone());
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.chosen, vec![v[1]]);
        assert_eq!(s.objective, 1.0);
    }

    #[test]
    fn conflict_forces_second_best() {
        let mut m = Model::new();
        let a0 = m.add_var(0.0);
        let a1 = m.add_var(10.0);
        let b0 = m.add_var(0.0);
        let b1 = m.add_var(1.0);
        m.add_exactly_one([a0, a1]);
        m.add_exactly_one([b0, b1]);
        m.add_conflict(a0, b0);
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.objective, 1.0);
        assert!(s.is_chosen(a0) && s.is_chosen(b1));
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let a = m.add_var(1.0);
        let b = m.add_var(1.0);
        m.add_exactly_one([a]);
        m.add_exactly_one([b]);
        m.add_conflict(a, b);
        assert_eq!(m.solve(SolveLimits::default()), Err(SolveError::Infeasible));
    }

    #[test]
    fn ungrouped_variable_rejected() {
        let mut m = Model::new();
        let a = m.add_var(1.0);
        let _loose = m.add_var(2.0);
        m.add_exactly_one([a]);
        assert!(matches!(
            m.solve(SolveLimits::default()),
            Err(SolveError::UngroupedVariable { .. })
        ));
    }

    #[test]
    fn node_limit_reported() {
        // A chain of conflicting groups forces backtracking; limit of 1
        // node cannot find any solution.
        let mut m = Model::new();
        let mut prev: Option<(VarId, VarId)> = None;
        for _ in 0..8 {
            let x = m.add_var(1.0);
            let y = m.add_var(2.0);
            m.add_exactly_one([x, y]);
            if let Some((px, _)) = prev {
                m.add_conflict(px, x);
            }
            prev = Some((x, y));
        }
        match m.solve(SolveLimits { max_nodes: 1 }) {
            Err(SolveError::NodeLimit { nodes }) => assert!(nodes >= 1),
            other => panic!("expected node limit, got {other:?}"),
        }
    }

    /// A chain of `len` two-option groups whose cheap options conflict
    /// pairwise along the chain; returns the `(cheap, dear)` pairs.
    fn chain(m: &mut Model, len: usize) -> Vec<(VarId, VarId)> {
        let mut out: Vec<(VarId, VarId)> = Vec::new();
        for _ in 0..len {
            let x = m.add_var(1.0);
            let y = m.add_var(2.0);
            m.add_exactly_one([x, y]);
            if let Some(&(px, _)) = out.last() {
                m.add_conflict(px, x);
            }
            out.push((x, y));
        }
        out
    }

    #[test]
    fn exhausted_budget_keeps_incumbents_and_falls_back_per_component() {
        // Two independent chains. The budget runs out inside the first,
        // which keeps its incumbent; the second gets no nodes at all and
        // takes its fallbacks.
        let mut m = Model::new();
        let first = chain(&mut m, 12);
        let second = chain(&mut m, 3);
        for &(_, dear) in first.iter().chain(&second) {
            m.set_fallback(dear);
        }
        let full = m.solve(SolveLimits::default()).unwrap();
        assert!(full.proven_optimal);
        assert_eq!(full.fallback_components, 0);
        // 14 nodes reach a first leaf of the 12-chain but cannot prove it.
        let mut solo = Model::new();
        let _ = chain(&mut solo, 12);
        let cut = solo.solve(SolveLimits { max_nodes: 14 }).unwrap();
        assert!(!cut.proven_optimal && cut.fallback_components == 0);

        let s = m.solve(SolveLimits { max_nodes: 14 }).unwrap();
        assert!(!s.proven_optimal);
        assert_eq!(s.fallback_components, 1);
        // The first chain's incumbent is a real search result: some cheap
        // option survives, unlike the all-fallback assignment.
        assert!(first.iter().any(|&(cheap, _)| s.is_chosen(cheap)));
        for &(cheap, dear) in &second {
            assert!(s.is_chosen(dear) && !s.is_chosen(cheap));
        }
        let expect = sum_ordered(s.chosen.iter().map(|&v| m.cost(v)));
        assert!((s.objective - expect).abs() < 1e-9);

        // Without fallbacks the same cut reports the node limit.
        let mut bare = Model::new();
        let _ = chain(&mut bare, 12);
        let _ = chain(&mut bare, 3);
        assert!(matches!(
            bare.solve(SolveLimits { max_nodes: 14 }),
            Err(SolveError::NodeLimit { .. })
        ));
    }

    #[test]
    fn conflicting_fallbacks_are_not_taken() {
        let mut m = Model::new();
        let pairs = chain(&mut m, 8);
        for &(cheap, _) in &pairs {
            m.set_fallback(cheap);
        }
        assert!(matches!(
            m.solve(SolveLimits { max_nodes: 0 }),
            Err(SolveError::NodeLimit { .. })
        ));
    }

    #[test]
    fn negative_costs_supported() {
        let mut m = Model::new();
        let a = m.add_var(-5.0);
        let b = m.add_var(-1.0);
        m.add_exactly_one([a, b]);
        let s = m.solve(SolveLimits::default()).unwrap();
        assert_eq!(s.objective, -5.0);
    }

    #[test]
    fn error_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
        assert!(SolveError::NodeLimit { nodes: 7 }.to_string().contains('7'));
    }

    fn random_model(rng: &mut StdRng, groups: usize, vars_per: usize, conflicts: usize) -> Model {
        let mut m = Model::new();
        let mut all = Vec::new();
        for _ in 0..groups {
            let vs: Vec<VarId> = (0..vars_per)
                .map(|_| m.add_var(rng.gen_range(0..100) as f64))
                .collect();
            all.extend(vs.iter().copied());
            m.add_exactly_one(vs);
        }
        for _ in 0..conflicts {
            let a = all[rng.gen_range(0..all.len())];
            let b = all[rng.gen_range(0..all.len())];
            m.add_conflict(a, b);
        }
        m
    }

    #[test]
    fn matches_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for trial in 0..200 {
            let m = random_model(&mut rng, 4, 4, 6);
            let bb = m.solve(SolveLimits::default());
            let ex = m.solve_exhaustive();
            match (bb, ex) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.objective, b.objective,
                        "trial {trial}: objective mismatch"
                    );
                    assert!(a.proven_optimal);
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (a, b) => panic!("trial {trial}: disagreement {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn chain_of_conflicting_minima_solves_in_bounded_nodes() {
        // A 60-group chain where every group's cheapest var conflicts with
        // the neighbours' cheapest vars: the naive sum-of-minima bound
        // explores an exponential plateau; the matching bound keeps this
        // polynomial.
        let mut m = Model::new();
        let mut prev_min: Option<VarId> = None;
        for g in 0..60 {
            let a = m.add_var(f64::from(g % 3)); // cheap
            let b = m.add_var(f64::from(g % 3) + 2.0); // regret 2
            m.add_exactly_one([a, b]);
            if let Some(p) = prev_min {
                m.add_conflict(p, a);
            }
            prev_min = Some(a);
        }
        let s = m.solve(SolveLimits { max_nodes: 200_000 }).unwrap();
        assert!(s.proven_optimal, "explored {} nodes without proof", s.nodes);
        // Alternating chain: half the groups pay the +2 regret.
        assert!(s.objective > 0.0);
    }

    #[test]
    fn grid_of_conflicts_matches_exhaustive() {
        // 3x3 grid of groups with conflicts between 4-neighbours' minima.
        let mut m = Model::new();
        let mut mins = Vec::new();
        for g in 0..9 {
            let a = m.add_var(1.0 + f64::from(g) * 0.1);
            let b = m.add_var(3.0);
            m.add_exactly_one([a, b]);
            mins.push(a);
        }
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    m.add_conflict(mins[i], mins[i + 1]);
                }
                if r + 1 < 3 {
                    m.add_conflict(mins[i], mins[i + 3]);
                }
            }
        }
        let bb = m.solve(SolveLimits::default()).unwrap();
        let ex = m.solve_exhaustive().unwrap();
        assert_eq!(bb.objective, ex.objective);
        assert!(bb.proven_optimal);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn branch_and_bound_equals_exhaustive(
            seed in 0u64..10_000,
            groups in 1usize..5,
            vars_per in 1usize..4,
            conflicts in 0usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_model(&mut rng, groups, vars_per, conflicts);
            match (m.solve(SolveLimits::default()), m.solve_exhaustive()) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a.objective, b.objective),
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (a, b) => prop_assert!(false, "disagreement {:?} vs {:?}", a, b),
            }
        }

        #[test]
        fn chosen_selection_is_conflict_free(
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = random_model(&mut rng, 5, 3, 5);
            if let Ok(s) = m.solve(SolveLimits::default()) {
                prop_assert_eq!(s.chosen.len(), m.num_groups());
                for i in 0..s.chosen.len() {
                    for j in (i + 1)..s.chosen.len() {
                        let a = s.chosen[i];
                        let b = s.chosen[j];
                        prop_assert!(!m.conflicts[a.index()].contains(&b),
                            "conflicting pair chosen");
                    }
                }
            }
        }
    }
}
