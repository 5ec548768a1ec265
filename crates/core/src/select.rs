//! Eq. 12: selecting the best candidate per critical cell with an ILP.

use crate::candidate::Candidate;
use crate::config::CrpConfig;
use crp_geom::{Dbu, Point, Rect};
use crp_ilp::{Model, SolveLimits, VarId};
use crp_netlist::{CellId, Design};

/// Reusable buffers of the conflict search. The [`Crp`](crate::Crp)
/// engine keeps one for its whole run, so select allocates them once
/// rather than once per iteration; nothing in them outlives a call.
#[derive(Debug, Default)]
pub(crate) struct SelectScratch {
    /// Position of each group's critical cell.
    anchors: Vec<Point>,
    /// Group of every variable.
    group_of: Vec<usize>,
    /// `(moved cell, var)` for every cell a candidate moves.
    by_cell: Vec<(CellId, VarId)>,
    /// Every non-empty claimed footprint with its variable.
    rects: Vec<(Rect, VarId)>,
    /// The conflicting pairs found, `(va, vb)` with `va < vb`.
    pairs: Vec<(VarId, VarId)>,
}

/// Selects one candidate per critical cell, minimizing the summed
/// Algorithm-3 routing cost (Eq. 12), subject to spatial compatibility:
///
/// - two candidates that move the same cell are mutually exclusive;
/// - two candidates whose claimed footprints overlap are mutually
///   exclusive.
///
/// Returns the chosen index into each cell's candidate list. The solve
/// splits the model into conflict components that share
/// [`CrpConfig::ilp_node_limit`]. A component the limit cuts off keeps the
/// best selection its search found; one cut off before it found any
/// leaves its cells where they are, picking each cell's stay candidate.
/// Should the solve still fail, because a cell has no stay candidate or
/// two stay candidates conflict (an illegal placement), every cell stays.
///
/// # Panics
///
/// Panics if any candidate list is empty.
#[must_use]
pub fn select_candidates(
    design: &Design,
    per_cell: &[Vec<Candidate>],
    config: &CrpConfig,
) -> Vec<usize> {
    select_with(design, per_cell, config, &mut SelectScratch::default())
}

/// [`select_candidates`] with caller-provided search buffers.
pub(crate) fn select_with(
    design: &Design,
    per_cell: &[Vec<Candidate>],
    config: &CrpConfig,
    scratch: &mut SelectScratch,
) -> Vec<usize> {
    assert!(
        per_cell.iter().all(|c| !c.is_empty()),
        "every cell needs >= 1 candidate"
    );
    if per_cell.is_empty() {
        return Vec::new();
    }
    let mut model = Model::new();
    let groups = add_vars(&mut model, per_cell);
    find_conflicts(design, per_cell, &groups, config, scratch);
    for &(va, vb) in &scratch.pairs {
        model.add_conflict(va, vb);
    }
    solve(model, &groups, design, per_cell, config)
}

/// One variable per candidate, numbered group by group in list order.
fn add_vars(model: &mut Model, per_cell: &[Vec<Candidate>]) -> Vec<Vec<VarId>> {
    per_cell
        .iter()
        .map(|cands| {
            cands
                .iter()
                .map(|c| model.add_var(c.routing_cost))
                .collect()
        })
        .collect()
}

/// Adds the exactly-one rows with each cell's stay candidate as its
/// fallback and solves; falls back to all-stay when the solve fails.
fn solve(
    mut model: Model,
    groups: &[Vec<VarId>],
    design: &Design,
    per_cell: &[Vec<Candidate>],
    config: &CrpConfig,
) -> Vec<usize> {
    let stays: Vec<Option<usize>> = per_cell
        .iter()
        .map(|cands| cands.iter().position(|c| c.is_stay(design)))
        .collect();
    for (vars, stay) in groups.iter().zip(&stays) {
        model.add_exactly_one(vars.iter().copied());
        if let Some(i) = *stay {
            model.set_fallback(vars[i]);
        }
    }
    match model.solve(SolveLimits {
        max_nodes: config.ilp_node_limit,
    }) {
        // `chosen` lists one variable per group, in group order, and each
        // group's variables are consecutive.
        Ok(solution) => solution
            .chosen
            .iter()
            .zip(groups)
            .map(|(v, vars)| (v.0 - vars[0].0) as usize)
            .collect(),
        Err(_) => stays.iter().map(|stay| stay.unwrap_or(0)).collect(),
    }
}

/// How far apart two critical cells may lie for their candidates to
/// conflict: twice the legalizer window's half-perimeter.
fn window_reach(design: &Design, config: &CrpConfig) -> Dbu {
    2 * (config.n_site * design.site.width + config.n_row * design.site.height)
}

/// Fills `s.pairs` with every pair of candidates from different groups
/// that cannot both be applied, ascending by `(va, vb)` and without
/// duplicates. Conflicts exist only between candidates that move the
/// same cell, found through a cell → candidates index, and between
/// footprints whose interiors overlap, found by a sweep over footprints
/// sorted by their left edge. Pairs of groups whose critical cells lie
/// farther apart than `window_reach` are skipped, as they always were.
///
/// The order matters: [`Model::add_conflict`] appends to both
/// variables' adjacency lists, and ascending pairs give every list in
/// ascending order, the order a loop over all candidate pairs of every
/// two groups produces. The branch-and-bound search, and with it the
/// selection, depends on that model exactly.
fn find_conflicts(
    design: &Design,
    per_cell: &[Vec<Candidate>],
    groups: &[Vec<VarId>],
    config: &CrpConfig,
    s: &mut SelectScratch,
) {
    let window_reach = window_reach(design, config);
    let SelectScratch {
        anchors,
        group_of,
        by_cell,
        rects,
        pairs,
    } = s;
    anchors.clear();
    group_of.clear();
    by_cell.clear();
    rects.clear();
    pairs.clear();
    for (g, (cands, vars)) in per_cell.iter().zip(groups).enumerate() {
        anchors.push(design.cell(cands[0].cell).pos);
        for (cand, &v) in cands.iter().zip(vars) {
            group_of.push(g);
            by_cell.extend(cand.moved_cells().map(|c| (c, v)));
            rects.extend(
                cand.claims(design)
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(_, r)| (r, v)),
            );
        }
    }
    let group = |v: VarId| group_of[v.0 as usize];
    let near = |ga: usize, gb: usize| anchors[ga].manhattan(anchors[gb]) <= window_reach;

    // Same cell moved by both. Within one cell's run the variables
    // ascend, so each group's entries form one block; pair every block
    // with the blocks after it.
    by_cell.sort_unstable();
    for run in by_cell.chunk_by(|a, b| a.0 == b.0) {
        let mut start = 0;
        while start < run.len() {
            let g = group(run[start].1);
            let end = start + run[start..].partition_point(|&(_, v)| group(v) == g);
            for &(_, va) in &run[start..end] {
                for &(_, vb) in &run[end..] {
                    if near(g, group(vb)) {
                        pairs.push((va, vb));
                    }
                }
            }
            start = end;
        }
    }

    pairs.sort_unstable();
    pairs.dedup();
    let shared = pairs.len();

    // Overlapping claimed footprints. Sorted by left edge, a footprint
    // can only overlap those that start before its right edge. Pairs
    // that also share a cell are common; skipping them keeps the list,
    // and select's peak memory, small.
    rects.sort_unstable_by_key(|&(r, v)| (r.lo.x, v));
    for (i, &(ra, va)) in rects.iter().enumerate() {
        for &(rb, vb) in &rects[i + 1..] {
            if rb.lo.x >= ra.hi.x {
                break;
            }
            let (ga, gb) = (group(va), group(vb));
            let pair = (va.min(vb), va.max(vb));
            if ga != gb
                && ra.intersects(&rb)
                && near(ga, gb)
                && pairs[..shared].binary_search(&pair).is_err()
            {
                pairs.push(pair);
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netlist::{DesignBuilder, MacroCell};

    /// The reference conflict search: every candidate pair of every two
    /// groups within reach, in loop order.
    fn all_pairs_conflicts(
        design: &Design,
        per_cell: &[Vec<Candidate>],
        groups: &[Vec<VarId>],
        config: &CrpConfig,
    ) -> Vec<(VarId, VarId)> {
        let window_reach = window_reach(design, config);
        let rects: Vec<Vec<Vec<(CellId, Rect)>>> = per_cell
            .iter()
            .map(|cands| cands.iter().map(|c| c.claimed_rects(design)).collect())
            .collect();
        let mut out = Vec::new();
        for ga in 0..per_cell.len() {
            let pa = design.cell(per_cell[ga][0].cell).pos;
            for gb in (ga + 1)..per_cell.len() {
                let pb = design.cell(per_cell[gb][0].cell).pos;
                if pa.manhattan(pb) > window_reach {
                    continue;
                }
                for (ia, &va) in groups[ga].iter().enumerate() {
                    for (ib, &vb) in groups[gb].iter().enumerate() {
                        if conflicts(
                            &per_cell[ga][ia],
                            &per_cell[gb][ib],
                            &rects[ga][ia],
                            &rects[gb][ib],
                        ) {
                            out.push((va, vb));
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether two candidates from different groups cannot both be applied.
    fn conflicts(
        a: &Candidate,
        b: &Candidate,
        rects_a: &[(CellId, Rect)],
        rects_b: &[(CellId, Rect)],
    ) -> bool {
        a.moved_cells().any(|ca| b.moved_cells().any(|cb| cb == ca))
            || rects_a
                .iter()
                .any(|(_, ra)| rects_b.iter().any(|(_, rb)| ra.intersects(rb)))
    }

    /// The model of `per_cell` with `pairs` added as conflicts, in order.
    fn model_with(
        per_cell: &[Vec<Candidate>],
        pairs: &[(VarId, VarId)],
    ) -> (Model, Vec<Vec<VarId>>) {
        let mut model = Model::new();
        let groups = add_vars(&mut model, per_cell);
        for &(va, vb) in pairs {
            model.add_conflict(va, vb);
        }
        (model, groups)
    }

    /// The conflict pairs [`find_conflicts`] reports for `per_cell`.
    fn swept_pairs(design: &Design, per_cell: &[Vec<Candidate>]) -> Vec<(VarId, VarId)> {
        let groups = add_vars(&mut Model::new(), per_cell);
        let mut scratch = SelectScratch::default();
        find_conflicts(
            design,
            per_cell,
            &groups,
            &CrpConfig::default(),
            &mut scratch,
        );
        scratch.pairs
    }

    fn design() -> (Design, Vec<CellId>) {
        let mut b = DesignBuilder::new("sel", 1000);
        b.site(200, 2000);
        let m = b.add_macro(MacroCell::new("M", 400, 2000));
        b.add_rows(4, 60, Point::new(0, 0));
        let cells = vec![
            b.add_cell("u0", m, Point::new(0, 0)),
            b.add_cell("u1", m, Point::new(4000, 0)),
        ];
        (b.build(), cells)
    }

    fn cand(design: &Design, cell: CellId, pos: Point, cost: f64) -> Candidate {
        let mut c = Candidate::stay(design, cell);
        c.pos = pos;
        c.routing_cost = cost;
        c
    }

    #[test]
    fn picks_cheapest_per_group_when_independent() {
        let (d, cells) = design();
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 10.0;
        let mut stay1 = Candidate::stay(&d, cells[1]);
        stay1.routing_cost = 10.0;
        let per_cell = vec![
            vec![stay0, cand(&d, cells[0], Point::new(800, 0), 3.0)],
            vec![stay1, cand(&d, cells[1], Point::new(4800, 0), 4.0)],
        ];
        let chosen = select_candidates(&d, &per_cell, &CrpConfig::default());
        assert_eq!(chosen, vec![1, 1]);
    }

    #[test]
    fn overlapping_candidates_not_both_selected() {
        let (d, cells) = design();
        let same_spot = Point::new(2000, 0);
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 10.0;
        let mut stay1 = Candidate::stay(&d, cells[1]);
        stay1.routing_cost = 10.0;
        let per_cell = vec![
            vec![stay0, cand(&d, cells[0], same_spot, 1.0)],
            vec![stay1, cand(&d, cells[1], same_spot, 2.0)],
        ];
        let chosen = select_candidates(&d, &per_cell, &CrpConfig::default());
        // Best feasible: u0 to the spot (1.0), u1 stays (10.0) = 11 vs 12.
        assert_eq!(chosen, vec![1, 0]);
    }

    #[test]
    fn same_cell_moved_by_two_groups_is_exclusive() {
        let (d, cells) = design();
        let mut a = cand(&d, cells[0], Point::new(800, 0), 1.0);
        a.moves
            .push((cells[1], Point::new(8000, 0), crp_geom::Orientation::N));
        let mut b = cand(&d, cells[1], Point::new(4800, 0), 1.0);
        let mut stay0 = Candidate::stay(&d, cells[0]);
        stay0.routing_cost = 2.0;
        let mut stay1 = Candidate::stay(&d, cells[1]);
        stay1.routing_cost = 2.0;
        b.routing_cost = 1.0;
        let per_cell = vec![vec![stay0, a], vec![stay1, b]];
        let chosen = select_candidates(&d, &per_cell, &CrpConfig::default());
        // Candidate a moves u1, candidate b IS u1 moving: both moving u1 is
        // forbidden, so at most one non-stay is selected.
        assert!(chosen != vec![1, 1]);
    }

    #[test]
    fn all_stay_fallback_on_node_limit() {
        let (d, cells) = design();
        // Node limit 0 forces the fallback immediately.
        let cfg = CrpConfig {
            ilp_node_limit: 0,
            ..CrpConfig::default()
        };
        let stay0 = Candidate::stay(&d, cells[0]);
        let per_cell = vec![vec![cand(&d, cells[0], Point::new(800, 0), 1.0), stay0]];
        let chosen = select_candidates(&d, &per_cell, &cfg);
        assert_eq!(chosen, vec![1], "must fall back to the stay candidate");
    }

    #[test]
    fn cut_off_components_fall_back_alone() {
        // Two far-apart pairs of cells, each pair competing for one spot:
        // two conflict components. The node budget lets the first finish
        // and leaves the second none, so only the second falls back to
        // its stay candidates.
        let mut b = DesignBuilder::new("sel2", 1000);
        b.site(200, 2000);
        let m = b.add_macro(MacroCell::new("M", 400, 2000));
        b.add_rows(4, 400, Point::new(0, 0));
        let cells: Vec<CellId> = [0, 4000, 60_000, 64_000]
            .iter()
            .enumerate()
            .map(|(i, &x)| b.add_cell(format!("u{i}"), m, Point::new(x, 0)))
            .collect();
        let d = b.build();
        let per_cell: Vec<Vec<Candidate>> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let mut stay = Candidate::stay(&d, c);
                stay.routing_cost = 10.0;
                let spot = Point::new(if i < 2 { 2000 } else { 62_000 }, 0);
                vec![stay, cand(&d, c, spot, 1.0 + i as f64)]
            })
            .collect();
        let unlimited = select_candidates(&d, &per_cell, &CrpConfig::default());
        assert_eq!(unlimited, vec![1, 0, 1, 0]);
        // The first component's search takes a handful of nodes, and
        // all of them are spent before the second starts.
        let mut probe = Model::new();
        let groups = add_vars(&mut probe, &per_cell[..2]);
        for vars in &groups {
            probe.add_exactly_one(vars.iter().copied());
        }
        probe.add_conflict(groups[0][1], groups[1][1]);
        let first = probe.solve(SolveLimits::default()).unwrap().nodes;
        let cfg = CrpConfig {
            ilp_node_limit: first,
            ..CrpConfig::default()
        };
        assert_eq!(select_candidates(&d, &per_cell, &cfg), vec![1, 0, 0, 0]);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let (d, _) = design();
        assert!(select_candidates(&d, &[], &CrpConfig::default()).is_empty());
    }

    #[test]
    fn abutting_footprints_do_not_conflict() {
        let (d, cells) = design();
        // u0 claims [1600, 2000), u1 claims [2000, 2400): they share an edge.
        let per_cell = vec![
            vec![cand(&d, cells[0], Point::new(1600, 0), 1.0)],
            vec![cand(&d, cells[1], Point::new(2000, 0), 1.0)],
        ];
        assert!(swept_pairs(&d, &per_cell).is_empty());
        let overlapping = vec![
            per_cell[0].clone(),
            vec![cand(&d, cells[1], Point::new(1800, 0), 1.0)],
        ];
        assert_eq!(swept_pairs(&d, &overlapping), vec![(VarId(0), VarId(1))]);
    }

    #[test]
    fn groups_beyond_window_reach_are_never_paired() {
        let mut b = DesignBuilder::new("far", 1000);
        b.site(200, 2000);
        let m = b.add_macro(MacroCell::new("M", 400, 2000));
        b.add_rows(4, 400, Point::new(0, 0));
        let near = b.add_cell("near", m, Point::new(0, 0));
        let far = b.add_cell("far", m, Point::new(60_000, 0));
        let d = b.build();
        // Both candidates claim the same spot, but the critical cells lie
        // farther apart than the window reach (28 000 DBU by default).
        let per_cell = vec![
            vec![cand(&d, near, Point::new(800, 0), 1.0)],
            vec![cand(&d, far, Point::new(800, 0), 1.0)],
        ];
        assert!(swept_pairs(&d, &per_cell).is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Six cells near the origin and six beyond the window reach, with
        /// one- and two-row macros alternating so footprints also overlap
        /// across rows.
        fn clusters() -> (Design, Vec<CellId>) {
            let mut b = DesignBuilder::new("sweep", 1000);
            b.site(200, 2000);
            let one = b.add_macro(MacroCell::new("ONE", 400, 2000));
            let two = b.add_macro(MacroCell::new("TWO", 400, 4000));
            b.add_rows(8, 400, Point::new(0, 0));
            let cells = (0..12i64)
                .map(|i| {
                    let base = if i < 6 { 0 } else { 60_000 };
                    let m = if i % 2 == 0 { one } else { two };
                    b.add_cell(format!("u{i}"), m, Point::new(base + (i % 6) * 800, 0))
                })
                .collect();
            (b.build(), cells)
        }

        /// A site-aligned spot in cluster `c`: x on a 200-DBU grid, so
        /// 400-wide footprints both abut and overlap.
        fn spot(c: u8, x: i64, row: i64) -> Point {
            Point::new(i64::from(c) * 60_000 + x * 200, row * 2000)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            // The cell index and footprint sweep find exactly the pairs
            // of the all-pairs loop, give the model the same adjacency
            // lists, and so the same selection.
            #[test]
            fn sweep_finds_the_all_pairs_conflicts(
                groups in proptest::collection::vec(
                    (
                        0usize..12,
                        proptest::collection::vec(
                            (
                                (0u8..2, 0i64..16, 0i64..4),
                                0i64..100,
                                proptest::option::of((0usize..12, (0u8..2, 0i64..16, 0i64..4))),
                            ),
                            0..6,
                        ),
                    ),
                    1..8,
                )
            ) {
                let (d, cells) = clusters();
                let mut per_cell: Vec<Vec<Candidate>> = Vec::new();
                let mut critical: Vec<CellId> = Vec::new();
                for (who, moves) in &groups {
                    let cell = cells[*who];
                    if critical.contains(&cell) {
                        continue;
                    }
                    critical.push(cell);
                    let mut stay = Candidate::stay(&d, cell);
                    stay.routing_cost = 50.0;
                    let mut list = vec![stay];
                    for &((c, x, row), cost, joint) in moves {
                        #[allow(clippy::cast_precision_loss)]
                        let mut m = cand(&d, cell, spot(c, x, row), cost as f64);
                        if let Some((other, (oc, ox, orow))) = joint {
                            if cells[other] != cell {
                                m.moves.push((cells[other], spot(oc, ox, orow), crp_geom::Orientation::N));
                            }
                        }
                        list.push(m);
                    }
                    per_cell.push(list);
                }
                let cfg = CrpConfig::default();

                let swept = swept_pairs(&d, &per_cell);
                let groups_ref = add_vars(&mut Model::new(), &per_cell);
                let reference = all_pairs_conflicts(&d, &per_cell, &groups_ref, &cfg);
                let mut sorted = reference.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), reference.len(), "all-pairs loop repeated a pair");
                prop_assert_eq!(&swept, &sorted);

                let (old_model, old_groups) = model_with(&per_cell, &reference);
                let (new_model, new_groups) = model_with(&per_cell, &swept);
                prop_assert_eq!(format!("{old_model:?}"), format!("{new_model:?}"));
                let old_pick = solve(old_model, &old_groups, &d, &per_cell, &cfg);
                let new_pick = solve(new_model, &new_groups, &d, &per_cell, &cfg);
                prop_assert_eq!(&old_pick, &new_pick);
                prop_assert_eq!(select_candidates(&d, &per_cell, &cfg), new_pick);
            }
        }
    }
}
