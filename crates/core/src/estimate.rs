//! Algorithm 3: candidate-cost estimation via 3D pattern routing.

use crate::candidate::Candidate;
use crate::config::CrpConfig;
use crate::parallel::run_indexed;
use crate::price_cache::{PriceCache, PriceRegion};
use crp_check::CheckViolation;
use crp_grid::{Edge, Gcell, RouteGrid};
use crp_netlist::{Design, NetId};
use crp_router::{pattern_route_tree, NetRoute, Routing};
use std::ops::Range;

/// Reusable per-worker buffers for candidate pricing.
///
/// Pricing one candidate needs a handful of short-lived collections (net
/// list, pin nodes, each net's self-usage discount). On the hot path —
/// thousands of candidates per iteration — those allocations dominate
/// the cheap nets. Each pricing worker owns one scratch and reuses its
/// buffers across every candidate it claims.
#[derive(Debug, Default)]
pub struct PriceScratch {
    nets: Vec<NetId>,
    pins: Vec<Gcell>,
    discounts: Discounts,
}

impl PriceScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> PriceScratch {
        PriceScratch::default()
    }
}

/// The self-usage discounts of the nets priced within one call that
/// holds the grid and routing borrowed, so none outlives a change to
/// either. A net's discount depends only on the grid and its own current
/// route, so every candidate of a list that reprices the net can share
/// it.
///
/// The router reads a discount as a dense slice: one demand delta per
/// edge, indexed by [`RouteGrid::edge_index`], and 0.0 on every edge the
/// net's route leaves alone. One such slice holds one net's deltas at a
/// time. Each net keeps its `(index, delta)` list, so switching nets
/// resets the entries the last one set and scatters the next one's.
#[derive(Debug, Default)]
struct Discounts {
    /// Every net discounted so far, with the range of its entries.
    nets: Vec<(NetId, Range<usize>)>,
    /// Each net's `(edge index, demand delta)` pairs, one per edge, back
    /// to back.
    entries: Vec<(usize, f64)>,
    /// The deltas of the net at `nets[shown]`, 0.0 everywhere else.
    dense: Vec<f64>,
    shown: Option<usize>,
    /// Via endpoints the route being discounted has per slot, 0.0
    /// everywhere else between builds.
    own: Vec<f64>,
    /// The gcells with an entry in `own`.
    own_at: Vec<Gcell>,
}

impl Discounts {
    fn clear(&mut self) {
        self.hide();
        self.nets.clear();
        self.entries.clear();
    }

    /// Resets the entries of the net `dense` holds.
    fn hide(&mut self) {
        if let Some(k) = self.shown.take() {
            for &(i, _) in &self.entries[self.nets[k].1.clone()] {
                self.dense[i] = 0.0;
            }
        }
    }

    /// `net`'s discount, computed on its first request since the last
    /// [`clear`](Discounts::clear); empty when its route is.
    fn of(&mut self, grid: &RouteGrid, routing: &Routing, net: NetId) -> &[f64] {
        if self.dense.len() != 2 * grid.num_slots() {
            self.clear();
            self.dense.clear();
            self.dense.resize(2 * grid.num_slots(), 0.0);
            self.own.clear();
            self.own.resize(grid.num_slots(), 0.0);
        }
        let k = match self.nets.iter().position(|(n, _)| *n == net) {
            Some(k) => k,
            None => {
                self.hide();
                let start = self.entries.len();
                self.scatter(grid, routing.route(net));
                self.nets.push((net, start..self.entries.len()));
                self.shown = Some(self.nets.len() - 1);
                self.nets.len() - 1
            }
        };
        if self.shown != Some(k) {
            self.hide();
            for &(i, delta) in &self.entries[self.nets[k].1.clone()] {
                self.dense[i] = delta;
            }
            self.shown = Some(k);
        }
        if self.nets[k].1.is_empty() {
            &[]
        } else {
            &self.dense
        }
    }

    /// Adds to the all-zero `dense` the demand deltas that remove `route`
    /// from the grid, and appends them to `entries`: −1 on every wire and
    /// via edge it occupies (once per occurrence), plus the (nonlinear)
    /// via-estimate correction `β·δ_e` on planar edges whose endpoint
    /// gcells host the route's vias. Each entry is summed as a map entry
    /// would be (`0.0`, then −1 per occurrence, then the correction), since
    /// prices must not depend on how the discount is stored. An entry is
    /// 0.0 until its edge is first touched, and never again after: −1s
    /// and corrections are all negative.
    fn scatter(&mut self, grid: &RouteGrid, route: &NetRoute) {
        let Discounts {
            entries,
            dense,
            own,
            own_at,
            ..
        } = self;
        let start = entries.len();
        let mut add = |i: usize, delta: f64| {
            if dense[i] == 0.0 {
                entries.push((i, 0.0));
            }
            dense[i] += delta;
        };
        for e in route.edges() {
            add(grid.edge_index(e), -1.0);
        }

        for v in &route.vias {
            for l in v.lo..v.hi {
                for end in [Gcell::new(v.x, v.y, l), Gcell::new(v.x, v.y, l + 1)] {
                    let s = grid.slot(end.layer, end.x, end.y);
                    if own[s] == 0.0 {
                        own_at.push(end);
                    }
                    own[s] += 1.0;
                }
            }
        }
        let beta = grid.config().beta;
        let own_of = |g: Gcell| own[grid.slot(g.layer, g.x, g.y)];
        for &Gcell { x, y, layer: l } in own_at.iter() {
            if !grid.is_routable(l) {
                continue;
            }
            // The planar edges with an endpoint here: the one leaving
            // the gcell, and the one entering it unless its source hosts
            // vias too, whose turn covers that edge.
            let entering = match grid.axis(l) {
                crp_geom::Axis::X if x > 0 => Some(Gcell::new(x - 1, y, l)),
                crp_geom::Axis::Y if y > 0 => Some(Gcell::new(x, y - 1, l)),
                _ => None,
            };
            let entering = entering.filter(|&p| own_of(p) == 0.0);
            let leaving = Some(Gcell::new(x, y, l));
            for src in [leaving, entering].into_iter().flatten() {
                let e = Edge::planar(l, src.x, src.y);
                if !grid.edge_exists(e) {
                    continue;
                }
                let (a, b) = e.endpoints(|l| grid.axis(l));
                let va = grid.via_count(a.layer, a.x, a.y);
                let vb = grid.via_count(b.layer, b.x, b.y);
                let va2 = (va - own_of(a)).max(0.0);
                let vb2 = (vb - own_of(b)).max(0.0);
                let delta = beta * (((va2 + vb2) / 2.0).sqrt() - ((va + vb) / 2.0).sqrt());
                if delta != 0.0 {
                    add(grid.edge_index(e), delta);
                }
            }
        }
        for g in own_at.drain(..) {
            own[grid.slot(g.layer, g.x, g.y)] = 0.0;
        }
        for (i, delta) in &mut entries[start..] {
            *delta = dense[*i];
        }
    }
}

/// Prices one candidate: every net incident to a moved cell is rebuilt as
/// a Steiner topology at the hypothetical positions and 3D-pattern-routed;
/// the candidate's cost is the summed route cost.
///
/// Each net is priced with its **own current usage discounted** from the
/// grid demand (the net is conceptually ripped up before re-pricing), so
/// the stay candidate and the move candidates see the same unbiased
/// congestion picture — without the discount, a net's own demand inflates
/// the price of staying put and the flow churns.
///
/// With `congestion_aware` (the CR&P cost model) each edge is priced by
/// Eq. 10; without it (the \[18\]-style ablation) the price is the pure
/// route *length* — the reference's cost model has no via or congestion
/// term ("only modeled by the length and a number of detours").
#[must_use]
pub fn price_cell_nets(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    candidate: &Candidate,
    congestion_aware: bool,
) -> f64 {
    let mut scratch = PriceScratch::new();
    price_cell_nets_with(
        design,
        grid,
        routing,
        candidate,
        congestion_aware,
        None,
        &mut scratch,
    )
}

/// [`price_cell_nets`] with caller-provided scratch buffers and an
/// optional epoch-invalidated price cache. The cache is a pure memo:
/// results are bit-identical with or without it (see [`PriceCache`]).
/// Every call computes its discounts afresh, so one scratch may serve
/// across changes to the grid and routing.
#[must_use]
pub fn price_cell_nets_with(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    candidate: &Candidate,
    congestion_aware: bool,
    cache: Option<&PriceCache>,
    scratch: &mut PriceScratch,
) -> f64 {
    scratch.discounts.clear();
    price_candidate(
        design,
        grid,
        routing,
        candidate,
        congestion_aware,
        cache,
        scratch,
    )
}

/// Prices every candidate of one list (see [`price_cell_nets`]),
/// computing each net's self-usage discount once for the whole list
/// rather than once per candidate. The next call drops the discounts.
pub(crate) fn price_list(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    candidates: &[Candidate],
    congestion_aware: bool,
    cache: Option<&PriceCache>,
    scratch: &mut PriceScratch,
) -> Vec<f64> {
    scratch.discounts.clear();
    candidates
        .iter()
        .map(|cand| {
            price_candidate(
                design,
                grid,
                routing,
                cand,
                congestion_aware,
                cache,
                scratch,
            )
        })
        .collect()
}

/// Prices one candidate against the discounts already in `scratch`.
fn price_candidate(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    candidate: &Candidate,
    congestion_aware: bool,
    cache: Option<&PriceCache>,
    scratch: &mut PriceScratch,
) -> f64 {
    // Nets touched by the joint move, deduplicated.
    scratch.nets.clear();
    for cell in candidate.moved_cells() {
        for n in design.nets_of_cell(cell) {
            if !scratch.nets.contains(&n) {
                scratch.nets.push(n);
            }
        }
    }
    let nets = std::mem::take(&mut scratch.nets);

    // Staying keeps each net's existing committed route; moving triggers a
    // rip-up and a fresh pattern reroute. Price each case as what the
    // update step will actually do, or the comparison is biased.
    let keeps_current_routes = candidate.is_stay(design);

    let mut total = 0.0;
    for &net in &nets {
        total += price_one_net(
            design,
            grid,
            routing,
            candidate,
            net,
            keeps_current_routes,
            congestion_aware,
            cache,
            scratch,
        );
    }
    scratch.nets = nets;
    total
}

/// Prices a single net of a candidate, consulting (and feeding) the cache.
#[allow(clippy::too_many_arguments)]
fn price_one_net(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    candidate: &Candidate,
    net: NetId,
    stay: bool,
    congestion_aware: bool,
    cache: Option<&PriceCache>,
    scratch: &mut PriceScratch,
) -> f64 {
    // Pin nodes at (possibly) overridden positions; the stay price does
    // not depend on them (it reads the committed route), so skip the work.
    if stay {
        scratch.pins.clear();
    } else {
        scratch.pins.clear();
        scratch.pins.extend(design.net(net).pins.iter().map(|&p| {
            let pos = design.pin_position_overridden(p, |c| candidate.position_of(c));
            let (x, y) = grid.gcell_of(pos);
            // crp-lint: allow(no-panic-paths, layer counts are validated to
            // fit u16 when the grid is built from the same design)
            let layer = u16::try_from(design.pin_layer(p)).expect("layer fits u16");
            Gcell::new(x, y, layer)
        }));
        scratch.pins.sort_unstable();
        scratch.pins.dedup();
    }

    if let Some(cache) = cache {
        if let Some(price) = cache.lookup(grid, net, stay, &scratch.pins) {
            return price;
        }
    }

    let discount = scratch.discounts.of(grid, routing, net);
    let current = routing.route(net);

    let (price, routed) = if stay {
        let p = if congestion_aware {
            // Term order is the route's own edge order: fixed.
            current.cost(grid, discount)
        } else {
            // Length-only pricing ([18]'s model: route length and
            // detours; no via or congestion term).
            current.wirelength() as f64
        };
        (p, None)
    } else {
        let route = pattern_route_tree(grid, &scratch.pins, &[], 0.0, discount);
        let p = if congestion_aware {
            route.cost(grid, discount)
        } else {
            route.wirelength() as f64
        };
        (p, Some(route))
    };

    if let Some(cache) = cache {
        // The price depends on the grid only inside the bbox of the pins,
        // the current route (the discount source), and the hypothetical
        // route — all pattern exploration stays inside bbox(pins), and the
        // cache adds the one-gcell margin for boundary-edge endpoints.
        let mut region = PriceRegion::empty();
        for p in &scratch.pins {
            region.cover(p.x, p.y);
        }
        cover_route(&mut region, current);
        if let Some(route) = &routed {
            cover_route(&mut region, route);
        }
        cache.store(grid, net, stay, &scratch.pins, region, price);
    }
    price
}

fn cover_route(region: &mut PriceRegion, route: &NetRoute) {
    for s in &route.segs {
        region.cover(s.from.0, s.from.1);
        region.cover(s.to.0, s.to.1);
    }
    for v in &route.vias {
        region.cover(v.x, v.y);
    }
}

/// Fills `routing_cost` on every candidate (line 11–13 of Algorithm 2,
/// "run parallel"). `per_cell` holds the candidate list of each critical
/// cell; lists are dispatched to [`CrpConfig::effective_threads`] workers
/// through a shared work-stealing cursor, and costs are written back by
/// list index — results are bit-identical for every thread count.
/// Non-stay candidates receive an additional [`CrpConfig::move_margin`]
/// so that moves need a real improvement to win over staying.
pub fn estimate_candidates(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    per_cell: &mut [Vec<Candidate>],
    config: &CrpConfig,
) {
    estimate_candidates_cached(design, grid, routing, per_cell, config, None);
}

/// [`estimate_candidates`] with an optional persistent [`PriceCache`]
/// (the [`Crp`](crate::Crp) engine passes its own, so prices survive
/// across iterations until the congestion under them changes).
pub fn estimate_candidates_cached(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    per_cell: &mut [Vec<Candidate>],
    config: &CrpConfig,
    cache: Option<&PriceCache>,
) {
    let threads = config.effective_threads().max(1);
    let lists: &[Vec<Candidate>] = per_cell;
    let costs: Vec<Vec<f64>> =
        run_indexed(lists.len(), threads, PriceScratch::new, |scratch, i| {
            let prices = price_list(
                design,
                grid,
                routing,
                &lists[i],
                config.congestion_aware,
                cache,
                scratch,
            );
            prices
                .into_iter()
                .zip(&lists[i])
                .map(|(cost, cand)| {
                    if cand.is_stay(design) {
                        cost
                    } else {
                        cost + config.move_margin
                    }
                })
                .collect()
        });
    for (cands, cs) in per_cell.iter_mut().zip(costs) {
        for (cand, c) in cands.iter_mut().zip(cs) {
            cand.routing_cost = c;
        }
    }
}

/// Audits cost consistency — the Eq. 10 price cache as a pure memo: the
/// `routing_cost` the estimate phase recorded on each candidate (cached
/// or not) must equal a from-scratch, cache-free recomputation **bit for
/// bit**. Any divergence means a stale cache entry survived epoch
/// invalidation.
///
/// `sample` bounds how many **candidates** are audited in total, taken
/// as a prefix across the lists in order (`None` = all); the cheap check
/// tier audits a fixed budget, the full tier everything. Re-pricing a
/// candidate costs a discounted pattern route per incident net, so the
/// budget — not the list count — is what keeps the cheap tier cheap.
#[must_use]
pub fn check_price_consistency(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    per_cell: &[Vec<Candidate>],
    config: &CrpConfig,
    sample: Option<usize>,
) -> Vec<CheckViolation> {
    let mut budget = sample.unwrap_or(usize::MAX);
    let mut scratch = PriceScratch::new();
    let mut out = Vec::new();
    'lists: for cands in per_cell {
        for (i, cand) in cands.iter().enumerate() {
            if budget == 0 {
                break 'lists;
            }
            budget -= 1;
            let mut fresh = price_cell_nets_with(
                design,
                grid,
                routing,
                cand,
                config.congestion_aware,
                None,
                &mut scratch,
            );
            if !cand.is_stay(design) {
                fresh += config.move_margin;
            }
            if fresh != cand.routing_cost {
                out.push(CheckViolation::PriceMismatch {
                    cell: cand.cell,
                    candidate: i,
                    cached: cand.routing_cost,
                    fresh,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_grid::GridConfig;
    use crp_netlist::{CellId, DesignBuilder, MacroCell};
    use crp_router::{GlobalRouter, RouterConfig};

    fn flow() -> (Design, RouteGrid, Routing, Vec<CellId>) {
        let mut b = DesignBuilder::new("est", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(10, 120, Point::new(0, 0));
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(20_000, 16_000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u1, "A");
        let d = b.build();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let routing = GlobalRouter::new(RouterConfig::default()).route_all(&d, &mut grid);
        (d, grid, routing, vec![u0, u1])
    }

    #[test]
    fn moving_toward_partner_prices_cheaper() {
        let (d, grid, routing, cells) = flow();
        let stay = Candidate::stay(&d, cells[0]);
        let mut toward = stay.clone();
        toward.pos = Point::new(10_000, 8_000);
        let p_stay = price_cell_nets(&d, &grid, &routing, &stay, true);
        let p_toward = price_cell_nets(&d, &grid, &routing, &toward, true);
        assert!(
            p_toward < p_stay,
            "moving closer must be cheaper: {p_toward} vs {p_stay}"
        );
    }

    #[test]
    fn stay_price_is_current_route_cost_without_self_demand() {
        // The stay candidate keeps the current route, so its price must be
        // that route's Eq. 10 cost evaluated as if the net's own usage were
        // ripped up (self-discount) — exactly the cost on a grid where the
        // net is uncommitted.
        let (d, grid, routing, cells) = flow();
        let stay = Candidate::stay(&d, cells[0]);
        let priced = price_cell_nets(&d, &grid, &routing, &stay, true);

        let mut clean = grid.clone();
        let route = routing.route(crp_netlist::NetId(0));
        route.uncommit(&mut clean);
        let reference = route.cost(&clean, &[]);
        assert!(
            (priced - reference).abs() < 1e-6,
            "discounted stay price {priced} vs uncommitted-route cost {reference}"
        );
    }

    #[test]
    fn estimate_fills_all_candidates_deterministically() {
        let (d, grid, routing, cells) = flow();
        let cfg = CrpConfig::default();
        let make = || {
            vec![
                vec![Candidate::stay(&d, cells[0]), {
                    let mut c = Candidate::stay(&d, cells[0]);
                    c.pos = Point::new(4_000, 2_000);
                    c
                }],
                vec![Candidate::stay(&d, cells[1])],
            ]
        };
        let mut a = make();
        estimate_candidates(&d, &grid, &routing, &mut a, &cfg);
        let mut b = make();
        let mut cfg1 = cfg;
        cfg1.threads = 1;
        estimate_candidates(&d, &grid, &routing, &mut b, &cfg1);
        for (ca, cb) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!(ca.routing_cost > 0.0);
            assert_eq!(
                ca.routing_cost, cb.routing_cost,
                "thread count changed results"
            );
        }
    }

    #[test]
    fn cached_estimate_matches_uncached_bitwise() {
        let (d, grid, routing, cells) = flow();
        let cfg = CrpConfig::default();
        let make = || {
            vec![
                vec![Candidate::stay(&d, cells[0]), {
                    let mut c = Candidate::stay(&d, cells[0]);
                    c.pos = Point::new(4_000, 2_000);
                    c
                }],
                vec![Candidate::stay(&d, cells[1])],
            ]
        };
        let mut fresh = make();
        estimate_candidates(&d, &grid, &routing, &mut fresh, &cfg);

        let cache = PriceCache::new();
        // Two passes: the second must be all-hits and bit-identical.
        for pass in 0..2 {
            let mut cached = make();
            estimate_candidates_cached(&d, &grid, &routing, &mut cached, &cfg, Some(&cache));
            for (ca, cb) in fresh.iter().flatten().zip(cached.iter().flatten()) {
                assert_eq!(
                    ca.routing_cost, cb.routing_cost,
                    "cache changed a price on pass {pass}"
                );
            }
        }
        assert!(cache.hits() > 0, "second pass must hit");
    }

    #[test]
    fn price_consistency_audit_passes_clean_and_catches_poisoned_cache() {
        let (d, grid, routing, cells) = flow();
        let cfg = CrpConfig::default();
        let mut lists = vec![
            vec![Candidate::stay(&d, cells[0])],
            vec![Candidate::stay(&d, cells[1])],
        ];
        let cache = PriceCache::new();
        estimate_candidates_cached(&d, &grid, &routing, &mut lists, &cfg, Some(&cache));
        assert!(check_price_consistency(&d, &grid, &routing, &lists, &cfg, None).is_empty());

        // Poison the stay entry of the shared net and re-estimate: the
        // bogus price comes back as a cache hit, and the audit's fresh
        // recomputation must expose it.
        let mut region = PriceRegion::empty();
        region.cover(0, 0);
        cache.store(&grid, NetId(0), true, &[], region, 1e9);
        estimate_candidates_cached(&d, &grid, &routing, &mut lists, &cfg, Some(&cache));
        let v = check_price_consistency(&d, &grid, &routing, &lists, &cfg, None);
        assert!(
            v.iter()
                .any(|x| matches!(x, CheckViolation::PriceMismatch { .. })),
            "poisoned cache not detected: {v:?}"
        );
        // The sampled form with a zero budget must stay silent.
        assert!(check_price_consistency(&d, &grid, &routing, &lists, &cfg, Some(0)).is_empty());
    }

    #[test]
    fn list_pricing_matches_pricing_each_candidate_alone() {
        // Every candidate reprices the one shared net, so all but the
        // first reuse its discount.
        let (d, grid, routing, cells) = flow();
        let stay = Candidate::stay(&d, cells[0]);
        let mut near = stay.clone();
        near.pos = Point::new(10_000, 8_000);
        let mut joint = stay.clone();
        joint
            .moves
            .push((cells[1], Point::new(0, 2_000), crp_geom::Orientation::FS));
        let list = [stay, near, joint];
        let mut scratch = PriceScratch::new();
        for aware in [true, false] {
            let prices = price_list(&d, &grid, &routing, &list, aware, None, &mut scratch);
            let alone: Vec<f64> = list
                .iter()
                .map(|c| price_cell_nets(&d, &grid, &routing, c, aware))
                .collect();
            assert_eq!(prices, alone);
        }
    }

    #[test]
    fn discount_covers_the_route() {
        let (_, grid, routing, _) = flow();
        let route = routing.route(NetId(0));
        let mut discounts = Discounts::default();
        let discount = discounts.of(&grid, &routing, NetId(0));
        assert_eq!(discount.len(), 2 * grid.num_slots());
        for e in route.edges() {
            assert!(discount[grid.edge_index(e)] <= -1.0, "{e:?} not discounted");
        }
    }

    /// The self-usage discount as an edge-sorted `(Edge, f64)` slice, the
    /// form it had before it became dense: the reference
    /// [`Discounts::scatter`] must reproduce entry by entry.
    fn sorted_discount(grid: &RouteGrid, route: &NetRoute) -> Vec<(Edge, f64)> {
        fn tally<K: Copy + Eq>(sorted: &[K], step: f64, out: &mut Vec<(K, f64)>) {
            for run in sorted.chunk_by(|a, b| a == b) {
                let mut sum = 0.0;
                for _ in run {
                    sum += step;
                }
                out.push((run[0], sum));
            }
        }
        let mut entries = Vec::new();
        let mut wires: Vec<Edge> = route.edges().collect();
        wires.sort_unstable();
        tally(&wires, -1.0, &mut entries);
        let wired = entries.len();
        let mut ends = Vec::new();
        for v in &route.vias {
            for l in v.lo..v.hi {
                ends.push(Gcell::new(v.x, v.y, l));
                ends.push(Gcell::new(v.x, v.y, l + 1));
            }
        }
        if ends.is_empty() {
            return entries;
        }
        ends.sort_unstable();
        let mut own = Vec::new();
        tally(&ends, 1.0, &mut own);
        let own_at = |k: Gcell| match own.binary_search_by_key(&k, |&(o, _)| o) {
            Ok(i) => own[i].1,
            Err(_) => 0.0,
        };
        let beta = grid.config().beta;
        let mut affected = Vec::new();
        for &(Gcell { x, y, layer: l }, _) in &own {
            if !grid.is_routable(l) {
                continue;
            }
            affected.push(Edge::planar(l, x, y));
            match grid.axis(l) {
                crp_geom::Axis::X if x > 0 => affected.push(Edge::planar(l, x - 1, y)),
                crp_geom::Axis::Y if y > 0 => affected.push(Edge::planar(l, x, y - 1)),
                _ => {}
            }
        }
        affected.sort_unstable();
        affected.dedup();
        for e in affected {
            if !grid.edge_exists(e) {
                continue;
            }
            let (a, b) = e.endpoints(|l| grid.axis(l));
            let va = grid.via_count(a.layer, a.x, a.y);
            let vb = grid.via_count(b.layer, b.x, b.y);
            let va2 = (va - own_at(a)).max(0.0);
            let vb2 = (vb - own_at(b)).max(0.0);
            let delta = beta * (((va2 + vb2) / 2.0).sqrt() - ((va + vb) / 2.0).sqrt());
            if delta == 0.0 {
                continue;
            }
            match entries[..wired].binary_search_by_key(&e, |&(w, _)| w) {
                Ok(i) => entries[i].1 += delta,
                Err(_) => entries.push((e, delta)),
            }
        }
        entries.sort_unstable_by_key(|&(e, _)| e);
        entries
    }

    /// Checks every net's dense discount against [`sorted_discount`] by
    /// bits, through one `Discounts` that revisits nets out of order.
    /// Returns how many planar entries carried a via correction.
    fn assert_dense_matches_sorted(grid: &RouteGrid, routing: &Routing) -> usize {
        let mut discounts = Discounts::default();
        let nets: Vec<NetId> = (0..routing.routes.len()).map(NetId::from_index).collect();
        let mut corrected = 0;
        for &net in nets.iter().chain(nets.iter().rev().step_by(3)) {
            let sorted = sorted_discount(grid, routing.route(net));
            let mut want = vec![0.0f64; 2 * grid.num_slots()];
            for &(e, delta) in &sorted {
                want[grid.edge_index(e)] = delta;
                if let Edge::Planar { .. } = e {
                    corrected += usize::from(delta.fract() != 0.0);
                }
            }
            let dense = discounts.of(grid, routing, net);
            if sorted.is_empty() {
                assert!(dense.is_empty(), "{net}: empty route, non-empty discount");
                continue;
            }
            assert_eq!(dense.len(), want.len());
            for (i, (got, want)) in dense.iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{net}: entry {i}");
            }
        }
        corrected
    }

    #[test]
    fn dense_discount_equals_the_sorted_slice_on_pattern_and_maze_routes() {
        let profile = crp_workload::ispd18_profiles()
            .into_iter()
            .find(|p| p.name == "ispd18_test7")
            .unwrap()
            .scaled(900.0);
        let d = profile.generate();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let mut routing = router.route_all(&d, &mut grid);
        let vias = routing.total_vias();
        assert!(vias > 0);
        assert!(assert_dense_matches_sorted(&grid, &routing) > 0);
        // Maze routes: every third net rerouted terminal by terminal.
        for n in (0..routing.routes.len()).step_by(3) {
            router.reroute_with_maze(&d, &mut grid, &mut routing, NetId::from_index(n));
        }
        assert!(assert_dense_matches_sorted(&grid, &routing) > 0);
    }

    #[test]
    fn move_margin_penalizes_non_stay() {
        let (d, grid, routing, cells) = flow();
        let cfg = CrpConfig {
            move_margin: 1000.0,
            ..CrpConfig::default()
        };
        let mut lists = vec![vec![Candidate::stay(&d, cells[0]), {
            let mut c = Candidate::stay(&d, cells[0]);
            c.pos = Point::new(400, 0); // trivial sideways move
            c
        }]];
        estimate_candidates(&d, &grid, &routing, &mut lists, &cfg);
        assert!(
            lists[0][1].routing_cost > lists[0][0].routing_cost,
            "margin must make near-equivalent moves lose"
        );
    }

    #[test]
    fn joint_move_prices_conflict_cell_nets_too() {
        let (d, grid, routing, cells) = flow();
        let mut joint = Candidate::stay(&d, cells[0]);
        joint
            .moves
            .push((cells[1], Point::new(0, 2_000), crp_geom::Orientation::FS));
        let p_joint = price_cell_nets(&d, &grid, &routing, &joint, true);
        let p_stay = price_cell_nets(&d, &grid, &routing, &Candidate::stay(&d, cells[0]), true);
        // Bringing u1 next to u0 shrinks the shared net drastically.
        assert!(p_joint < p_stay);
    }

    mod properties {
        use super::*;
        use crp_router::{GlobalRouter, RouterConfig};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            // The cache is a pure memo: after arbitrary cell moves and
            // reroutes (which mutate the grid and the routing), pricing
            // through a cache that saw every intermediate state still
            // equals a fresh `price_cell_nets` computation, bit for bit.
            // So does pricing through one scratch reused across every
            // step: no self-usage discount outlives a grid change.
            #[test]
            fn cache_is_never_stale_under_moves_and_reroutes(
                steps in proptest::collection::vec((0u16..2, 0u16..25, 0u16..8), 1..6)
            ) {
                let (mut d, mut grid, mut routing, cells) = flow();
                let mut router = GlobalRouter::new(RouterConfig::default());
                let cache = PriceCache::new();
                let cfg = CrpConfig::default();
                let mut scratch = PriceScratch::new();

                for &(who, sx, sy) in &steps {
                    // Warm the cache against the current state.
                    let mut lists: Vec<Vec<Candidate>> =
                        cells.iter().map(|&c| vec![Candidate::stay(&d, c)]).collect();
                    estimate_candidates_cached(&d, &grid, &routing, &mut lists, &cfg, Some(&cache));

                    // Mutate: move a cell to a (site-aligned) position and
                    // reroute its nets — exactly what the update step does.
                    let cell = cells[usize::from(who)];
                    let pos = Point::new(i64::from(sx) * 400, i64::from(sy) * 2000);
                    d.move_cell(cell, pos, crp_geom::Orientation::N);
                    for n in d.nets_of_cell(cell) {
                        router.reroute_net(&d, &mut grid, &mut routing, n);
                    }

                    // Cached pricing after mutation must equal fresh pricing,
                    // for staying and for moving toward the other cell.
                    for (&c, &other) in cells.iter().zip(cells.iter().rev()) {
                        let stay = Candidate::stay(&d, c);
                        let mut toward = stay.clone();
                        toward.pos = d.cell(other).pos;
                        for cand in [stay, toward] {
                            let fresh = price_cell_nets(&d, &grid, &routing, &cand, true);
                            let cached = price_cell_nets_with(
                                &d, &grid, &routing, &cand, true, Some(&cache), &mut scratch,
                            );
                            prop_assert_eq!(fresh, cached, "stale cache after move/reroute");
                            let reused = price_cell_nets_with(
                                &d, &grid, &routing, &cand, true, None, &mut scratch,
                            );
                            prop_assert_eq!(fresh, reused, "stale discount after move/reroute");
                        }
                    }
                }
            }
        }
    }
}
