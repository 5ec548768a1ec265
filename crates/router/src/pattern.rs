//! L/Z pattern routing with greedy layer assignment.
//!
//! This is the "fast 3D pattern route" of Algorithm 3: it turns a Steiner
//! topology into concrete wire segments and via stacks without a search,
//! pricing every choice with the congestion-aware Eq. 10 edge cost.
//! [`pattern_route_tree`] is the one entry point, and it serves two
//! callers:
//!
//! - the global router's routing passes, which may add the RRR history,
//!   and
//! - the CR&P candidate pricer, which routes a hypothetical pin placement
//!   under the net's self-usage discount without touching the grid and
//!   prices the result with [`NetRoute::cost`].
//!
//! [`CostCtx`] is the one Eq. 10 edge pricer of the crate: the pattern
//! router, layer assignment, the layer DP, the maze and route pricing all
//! read edge costs through it.

use crate::route::{NetRoute, RouteSeg, ViaStack};
use crp_geom::{sum_ordered, Axis, Point};
use crp_grid::{Edge, Gcell, RouteGrid};
use crp_rsmt::rsmt;
use std::collections::BTreeMap;

/// Tiny per-layer bias so that equal-cost ties prefer lower layers.
const LAYER_BIAS: f64 = 1e-6;

/// Prices grid edges: the Eq. 10 cost, with each edge's demand shifted by
/// its entry in an optional discount, plus an optional PathFinder-style
/// history penalty. An empty slice means none of either.
pub(crate) struct CostCtx<'a> {
    pub(crate) grid: &'a RouteGrid,
    /// One value per planar edge, indexed by [`RouteGrid::slot`].
    history: &'a [f64],
    hist_weight: f64,
    /// Per-edge demand deltas (CR&P's self-usage discount): sorted by
    /// edge, one entry per edge.
    discount: &'a [(Edge, f64)],
}

impl<'a> CostCtx<'a> {
    /// A pricer over `grid`. A zero `hist_weight` drops the history, which
    /// could only add zeros.
    ///
    /// # Panics
    ///
    /// Panics if `history` is neither empty nor [`RouteGrid::num_slots`]
    /// long.
    pub(crate) fn new(
        grid: &'a RouteGrid,
        history: &'a [f64],
        hist_weight: f64,
        discount: &'a [(Edge, f64)],
    ) -> CostCtx<'a> {
        assert!(
            history.is_empty() || history.len() == grid.num_slots(),
            "history does not match the grid"
        );
        CostCtx {
            grid,
            history: if hist_weight == 0.0 { &[] } else { history },
            hist_weight,
            discount,
        }
    }

    /// The cost of `e`: one table load, plus a discount lookup or a
    /// history add where one was given. Always inlined, so that a caller
    /// whose pricer has no discount, such as the maze, keeps neither the
    /// lookup nor its call.
    #[inline(always)]
    pub(crate) fn edge_cost(&self, e: Edge) -> f64 {
        let mut c = if self.discount.is_empty() {
            self.grid.cost(e)
        } else {
            self.shifted_cost(e)
        };
        if let (false, Edge::Planar { layer, x, y }) = (self.history.is_empty(), e) {
            c += self.hist_weight * self.history[self.grid.slot(layer, x, y)];
        }
        c
    }

    /// The Eq. 10 cost of `e` with its demand shifted by its entry in the
    /// discount, or its plain cost when it has none.
    fn shifted_cost(&self, e: Edge) -> f64 {
        match self.discount.binary_search_by_key(&e, |&(d, _)| d) {
            Ok(i) => self.grid.cost_adjusted(e, self.discount[i].1),
            Err(_) => self.grid.cost(e),
        }
    }

    /// Cheapest cost of crossing one gcell boundary along `axis` at the
    /// boundary identified by `(x, y)` (planar-edge convention), over all
    /// routable layers of that axis.
    fn cross_cost(&self, axis: Axis, x: u16, y: u16) -> f64 {
        let (_, _, nl) = self.grid.dims();
        let mut best = f64::INFINITY;
        for l in 0..nl {
            if !self.grid.is_routable(l) || self.grid.axis(l) != axis {
                continue;
            }
            let c = self.edge_cost(Edge::planar(l, x, y)) + LAYER_BIAS * f64::from(l);
            if c < best {
                best = c;
            }
        }
        best
    }

    /// Cost of a horizontal 2D run at row `y` from `x0` to `x1` (inclusive
    /// gcells).
    fn run_cost_h(&self, y: u16, x0: u16, x1: u16) -> f64 {
        let (lo, hi) = (x0.min(x1), x0.max(x1));
        sum_ordered((lo..hi).map(|x| self.cross_cost(Axis::X, x, y)))
    }

    /// Cost of a vertical 2D run at column `x` from `y0` to `y1`.
    fn run_cost_v(&self, x: u16, y0: u16, y1: u16) -> f64 {
        let (lo, hi) = (y0.min(y1), y0.max(y1));
        sum_ordered((lo..hi).map(|y| self.cross_cost(Axis::Y, x, y)))
    }
}

/// A 2D (layer-free) straight run between two gcells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg2 {
    a: (u16, u16),
    b: (u16, u16),
}

impl Seg2 {
    fn horizontal(&self) -> bool {
        self.a.1 == self.b.1
    }

    fn is_empty(&self) -> bool {
        self.a == self.b
    }
}

/// Routes one tree edge in 2D, choosing among straight, two L, and up to
/// two Z patterns by total crossing cost. Returns the chosen runs.
fn pattern_route_edge(ctx: &CostCtx<'_>, a: (u16, u16), b: (u16, u16)) -> Vec<Seg2> {
    if a == b {
        return Vec::new();
    }
    if a.0 == b.0 || a.1 == b.1 {
        return vec![Seg2 { a, b }];
    }

    let mut candidates: Vec<(f64, Vec<Seg2>)> = Vec::with_capacity(4);

    // L via corner (b.x, a.y): horizontal first.
    let c1 = (b.0, a.1);
    candidates.push((
        ctx.run_cost_h(a.1, a.0, b.0) + ctx.run_cost_v(b.0, a.1, b.1),
        vec![Seg2 { a, b: c1 }, Seg2 { a: c1, b }],
    ));
    // L via corner (a.x, b.y): vertical first.
    let c2 = (a.0, b.1);
    candidates.push((
        ctx.run_cost_v(a.0, a.1, b.1) + ctx.run_cost_h(b.1, a.0, b.0),
        vec![Seg2 { a, b: c2 }, Seg2 { a: c2, b }],
    ));
    // Z with a vertical middle leg at the midpoint column.
    let xm = (a.0 + b.0) / 2;
    if xm != a.0 && xm != b.0 {
        let m1 = (xm, a.1);
        let m2 = (xm, b.1);
        candidates.push((
            ctx.run_cost_h(a.1, a.0, xm)
                + ctx.run_cost_v(xm, a.1, b.1)
                + ctx.run_cost_h(b.1, xm, b.0),
            vec![Seg2 { a, b: m1 }, Seg2 { a: m1, b: m2 }, Seg2 { a: m2, b }],
        ));
    }
    // Z with a horizontal middle leg at the midpoint row.
    let ym = (a.1 + b.1) / 2;
    if ym != a.1 && ym != b.1 {
        let m1 = (a.0, ym);
        let m2 = (b.0, ym);
        candidates.push((
            ctx.run_cost_v(a.0, a.1, ym)
                + ctx.run_cost_h(ym, a.0, b.0)
                + ctx.run_cost_v(b.0, ym, b.1),
            vec![Seg2 { a, b: m1 }, Seg2 { a: m1, b: m2 }, Seg2 { a: m2, b }],
        ));
    }

    candidates
        .into_iter()
        .min_by(|(ca, _), (cb, _)| ca.total_cmp(cb))
        .map(|(_, segs)| segs.into_iter().filter(|s| !s.is_empty()).collect())
        .unwrap_or_default()
}

/// Assigns a 2D run to the cheapest routable layer of matching axis.
fn assign_layer(ctx: &CostCtx<'_>, seg: Seg2) -> RouteSeg {
    let axis = if seg.horizontal() { Axis::X } else { Axis::Y };
    let (_, _, nl) = ctx.grid.dims();
    let mut best_layer = None;
    let mut best_cost = f64::INFINITY;
    for l in 0..nl {
        if !ctx.grid.is_routable(l) || ctx.grid.axis(l) != axis {
            continue;
        }
        let proto = RouteSeg::new(l, seg.a, seg.b);
        let cost: f64 = sum_ordered(proto.edges().map(|e| ctx.edge_cost(e)))
            + LAYER_BIAS * f64::from(l) * f64::from(proto.len().max(1));
        if cost < best_cost {
            best_cost = cost;
            best_layer = Some(l);
        }
    }
    // crp-lint: allow(no-panic-paths, RouteGrid construction guarantees at
    // least one routable layer per axis, so the loop always finds a layer)
    let layer = best_layer.expect("no routable layer matches segment axis");
    RouteSeg::new(layer, seg.a, seg.b)
}

/// Builds via stacks that connect all segment endpoints (and pin layers)
/// at each junction gcell.
pub(crate) fn build_via_stacks(segs: &[RouteSeg], pins: &[Gcell]) -> Vec<ViaStack> {
    let mut layers_at: BTreeMap<(u16, u16), (u16, u16)> = BTreeMap::new();
    let mut note = |x: u16, y: u16, l: u16| {
        let e = layers_at.entry((x, y)).or_insert((l, l));
        e.0 = e.0.min(l);
        e.1 = e.1.max(l);
    };
    for s in segs {
        note(s.from.0, s.from.1, s.layer);
        note(s.to.0, s.to.1, s.layer);
    }
    for p in pins {
        note(p.x, p.y, p.layer);
    }
    layers_at
        .into_iter()
        .filter(|&(_, (lo, hi))| hi > lo)
        .map(|((x, y), (lo, hi))| ViaStack { x, y, lo, hi })
        .collect()
}

/// Routes a whole net with Steiner topology + pattern routing + layer
/// assignment, without committing anything to the grid. Followed by
/// [`NetRoute::cost`], this is `getFlute` + `getPatternRoute3D` +
/// `getCost()` of Algorithm 3.
///
/// Every choice is priced by the Eq. 10 edge cost with two optional
/// terms, each off when its slice is empty:
///
/// - `history` adds PathFinder-style penalties, weighted by
///   `hist_weight`, on edges the global router has learned to avoid: one
///   value per planar edge, indexed by [`RouteGrid::slot`];
/// - `discount` shifts the demand of the edges it lists: `(edge, demand
///   delta)` pairs sorted by edge, one entry per edge. CR&P passes the
///   negated self-usage of the net's current route, so a candidate is
///   priced as if the net were ripped up.
///
/// # Panics
///
/// Panics if `history` is neither empty nor [`RouteGrid::num_slots`] long.
///
/// # Examples
///
/// ```
/// # use crp_router::pattern_route_tree;
/// # use crp_grid::{Gcell, GridConfig, RouteGrid};
/// # use crp_netlist::DesignBuilder;
/// # use crp_geom::Point;
/// # let mut b = DesignBuilder::new("d", 1000);
/// # b.site(200, 2000);
/// # b.add_rows(15, 150, Point::new(0, 0));
/// # let design = b.build();
/// let grid = RouteGrid::new(&design, GridConfig::default());
/// let price = |pins: &[Gcell]| pattern_route_tree(&grid, pins, &[], 0.0, &[]).cost(&grid, &[]);
/// let near = price(&[Gcell::new(0, 0, 0), Gcell::new(1, 0, 0)]);
/// let far = price(&[Gcell::new(0, 0, 0), Gcell::new(9, 9, 0)]);
/// assert!(far > near);
/// ```
#[must_use]
pub fn pattern_route_tree(
    grid: &RouteGrid,
    pins: &[Gcell],
    history: &[f64],
    hist_weight: f64,
    discount: &[(Edge, f64)],
) -> NetRoute {
    let ctx = CostCtx::new(grid, history, hist_weight, discount);
    if pins.len() <= 1 {
        // Single-terminal (or empty) nets need no wiring.
        return NetRoute::empty();
    }

    // Steiner topology over the distinct pin gcells.
    let terminals: Vec<Point> = pins
        .iter()
        .map(|p| Point::new(i64::from(p.x), i64::from(p.y)))
        .collect();
    let tree = rsmt(&terminals);

    // crp-lint: allow(cast-truncation, tree points lie on the Hanan grid of
    // the terminals, whose coordinates started as u16 two lines up)
    let as_gcell = |p: Point| -> (u16, u16) { (p.x as u16, p.y as u16) };

    let mut segs: Vec<RouteSeg> = Vec::new();
    for (pa, pb) in tree.segments() {
        for s2 in pattern_route_edge(&ctx, as_gcell(pa), as_gcell(pb)) {
            segs.push(assign_layer(&ctx, s2));
        }
    }

    let vias = build_via_stacks(&segs, pins);
    let mut route = NetRoute { segs, vias };
    route.normalize();
    route
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_grid::GridConfig;
    use crp_netlist::{DesignBuilder, MacroCell};

    fn grid() -> RouteGrid {
        let mut b = DesignBuilder::new("g", 1000);
        b.site(200, 2000);
        let _ = b.add_macro(MacroCell::new("M", 200, 2000));
        b.add_rows(20, 200, Point::new(0, 0)); // 40_000² -> 14x14 gcells
        RouteGrid::new(&b.build(), GridConfig::default())
    }

    /// Algorithm 3's price of a pin set: the Eq. 10 cost of its fresh
    /// pattern route.
    fn price(g: &RouteGrid, pins: &[Gcell]) -> f64 {
        pattern_route_tree(g, pins, &[], 0.0, &[]).cost(g, &[])
    }

    #[test]
    fn straight_connection_is_single_segment() {
        let g = grid();
        let pins = [Gcell::new(2, 3, 0), Gcell::new(8, 3, 0)];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        assert_eq!(r.segs.len(), 1);
        assert!(r.segs[0].is_horizontal());
        assert_eq!(r.wirelength(), 6);
        assert!(r.connects(&pins));
    }

    #[test]
    fn l_connection_connects_and_uses_two_segments() {
        let g = grid();
        let pins = [Gcell::new(1, 1, 0), Gcell::new(6, 9, 0)];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        assert!(r.connects(&pins));
        assert_eq!(r.wirelength(), 5 + 8);
        assert!(r.via_count() >= 2, "pins must via up from M1");
    }

    #[test]
    fn multi_pin_net_connects_all_pins() {
        let g = grid();
        let pins = [
            Gcell::new(0, 0, 0),
            Gcell::new(10, 2, 0),
            Gcell::new(5, 9, 0),
            Gcell::new(12, 12, 0),
        ];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        assert!(r.connects(&pins));
    }

    #[test]
    fn same_gcell_pins_need_no_wiring() {
        let g = grid();
        let pins = [Gcell::new(4, 4, 0), Gcell::new(4, 4, 0)];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn pins_on_different_layers_same_gcell_get_stack() {
        let g = grid();
        let pins = [Gcell::new(4, 4, 0), Gcell::new(4, 4, 3)];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        assert!(r.segs.is_empty());
        assert_eq!(r.via_count(), 3);
        assert!(r.connects(&pins));
    }

    #[test]
    fn congestion_steers_pattern_choice() {
        let mut g = grid();
        // Congest the horizontal-first L path of (1,1)->(8,8): row 1.
        let (_, _, nl) = g.dims();
        for x in 1..8 {
            for l in 0..nl {
                if g.is_routable(l) && g.axis(l) == Axis::X {
                    let cap = g.capacity(Edge::planar(l, x, 1));
                    for _ in 0..(cap as usize + 8) {
                        g.add_wire(Edge::planar(l, x, 1));
                    }
                }
            }
        }
        let pins = [Gcell::new(1, 1, 0), Gcell::new(8, 8, 0)];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        // The chosen route must avoid row 1 horizontals.
        for s in &r.segs {
            if s.is_horizontal() {
                assert_ne!(s.from.1, 1, "router chose the congested row: {r:?}");
            }
        }
        assert!(r.connects(&pins));
    }

    #[test]
    fn congestion_steers_layer_assignment() {
        let mut g = grid();
        // Congest M2 (layer 1, X axis) along row 5 heavily.
        for x in 0..13 {
            let e = Edge::planar(1, x, 5);
            let cap = g.capacity(e);
            for _ in 0..(cap as usize + 10) {
                g.add_wire(e);
            }
        }
        let pins = [Gcell::new(0, 5, 0), Gcell::new(12, 5, 0)];
        let r = pattern_route_tree(&g, &pins, &[], 0.0, &[]);
        assert_eq!(r.segs.len(), 1);
        assert_ne!(
            r.segs[0].layer, 1,
            "expected a higher layer than congested M2"
        );
    }

    #[test]
    fn history_penalty_steers_route() {
        let g = grid();
        let mut hist = vec![0.0; g.num_slots()];
        // Penalize the direct row between the pins.
        for x in 2..8 {
            for l in 0..9u16 {
                hist[g.slot(l, x, 3)] = 100.0;
            }
        }
        let pins = [Gcell::new(2, 3, 0), Gcell::new(8, 3, 0)];
        let r = pattern_route_tree(&g, &pins, &hist, 1.0, &[]);
        // Straight is the only pattern for aligned pins, but layer
        // assignment cannot escape (all layers penalized); the route is
        // still produced and connected.
        assert!(r.connects(&pins));
    }

    #[test]
    fn price_is_positive_and_monotone_in_distance() {
        let g = grid();
        let p0 = price(&g, &[Gcell::new(0, 0, 0), Gcell::new(2, 0, 0)]);
        let p1 = price(&g, &[Gcell::new(0, 0, 0), Gcell::new(9, 0, 0)]);
        assert!(p0 > 0.0);
        assert!(p1 > p0);
    }

    #[test]
    fn price_rises_with_congestion() {
        let mut g = grid();
        let pins = [Gcell::new(0, 5, 0), Gcell::new(10, 5, 0)];
        let before = price(&g, &pins);
        // Congest every X layer along the row so no escape stays cheap.
        let (_, _, nl) = g.dims();
        for x in 0..13 {
            for y in 4..=6 {
                for l in 0..nl {
                    if g.is_routable(l) && g.axis(l) == Axis::X {
                        let e = Edge::planar(l, x, y);
                        let cap = g.capacity(e);
                        for _ in 0..(cap as usize + 4) {
                            g.add_wire(e);
                        }
                    }
                }
            }
        }
        let after = price(&g, &pins);
        assert!(
            after > before,
            "congestion must raise the price: {before} -> {after}"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn any_pin_set_routes_connected(
                pins in proptest::collection::vec((0u16..13, 0u16..13, 0u16..3), 1..7)
            ) {
                let g = grid();
                let nodes: Vec<Gcell> =
                    pins.iter().map(|&(x, y, l)| Gcell::new(x, y, l)).collect();
                let r = pattern_route_tree(&g, &nodes, &[], 0.0, &[]);
                let mut want = nodes.clone();
                want.sort_unstable();
                want.dedup();
                prop_assert!(r.connects(&want), "disconnected route {:?} for {:?}", r, want);
            }

            #[test]
            fn route_commit_uncommit_is_exact(
                pins in proptest::collection::vec((0u16..13, 0u16..13, 0u16..2), 2..5)
            ) {
                let mut g = grid();
                let nodes: Vec<Gcell> =
                    pins.iter().map(|&(x, y, l)| Gcell::new(x, y, l)).collect();
                let r = pattern_route_tree(&g, &nodes, &[], 0.0, &[]);
                let wire_before = g.total_wire_usage();
                let via_before = g.total_via_endpoints();
                r.commit(&mut g);
                r.uncommit(&mut g);
                prop_assert!((g.total_wire_usage() - wire_before).abs() < 1e-9);
                prop_assert!((g.total_via_endpoints() - via_before).abs() < 1e-9);
            }

            #[test]
            fn price_equals_fresh_route_cost(
                pins in proptest::collection::vec((0u16..13, 0u16..13, 0u16..2), 2..5)
            ) {
                let g = grid();
                let nodes: Vec<Gcell> =
                    pins.iter().map(|&(x, y, l)| Gcell::new(x, y, l)).collect();
                let r = pattern_route_tree(&g, &nodes, &[], 0.0, &[]);
                let p = price(&g, &nodes);
                prop_assert!((p - r.cost(&g, &[])).abs() < 1e-9);
                // Routed and priced with a zero delta listed on every edge
                // of the route, the net prices as with no discount at all.
                let mut edges: Vec<Edge> = r.edges().collect();
                edges.sort_unstable();
                edges.dedup();
                let zero: Vec<(Edge, f64)> = edges.into_iter().map(|e| (e, 0.0)).collect();
                let z = pattern_route_tree(&g, &nodes, &[], 0.0, &zero).cost(&g, &zero);
                prop_assert_eq!(z.to_bits(), p.to_bits());
            }
        }
    }

    #[test]
    fn empty_and_single_pin_price_zero() {
        let g = grid();
        assert_eq!(price(&g, &[]), 0.0);
        assert_eq!(price(&g, &[Gcell::new(3, 3, 0)]), 0.0);
    }
}
