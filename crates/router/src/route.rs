//! Route representation: segments, via stacks, and the routing state.

use crate::pattern::CostCtx;
use crp_geom::sum_ordered;
use crp_grid::{Edge, Gcell, RouteGrid};
use crp_netlist::{Design, NetId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An axis-aligned straight wire on one layer, spanning whole gcells.
///
/// Endpoints are inclusive gcell coordinates with `from <= to`
/// component-wise; exactly one coordinate varies (or none, for a degenerate
/// zero-length segment, which is dropped during normalization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouteSeg {
    /// Layer the segment is assigned to.
    pub layer: u16,
    /// Lower endpoint (inclusive).
    pub from: (u16, u16),
    /// Upper endpoint (inclusive).
    pub to: (u16, u16),
}

impl RouteSeg {
    /// Creates a segment, normalizing endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are not axis-aligned.
    #[must_use]
    pub fn new(layer: u16, a: (u16, u16), b: (u16, u16)) -> RouteSeg {
        assert!(
            a.0 == b.0 || a.1 == b.1,
            "segment must be axis-aligned: {a:?}..{b:?}"
        );
        let from = (a.0.min(b.0), a.1.min(b.1));
        let to = (a.0.max(b.0), a.1.max(b.1));
        RouteSeg { layer, from, to }
    }

    /// Length in gcell steps (0 when both endpoints coincide).
    #[must_use]
    pub fn len(&self) -> u32 {
        u32::from(self.to.0 - self.from.0) + u32::from(self.to.1 - self.from.1)
    }

    /// Whether the segment covers no planar edge.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the segment runs along x.
    #[must_use]
    pub fn is_horizontal(&self) -> bool {
        self.from.1 == self.to.1 && self.from.0 != self.to.0
    }

    /// The planar grid edges the segment occupies.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let layer = self.layer;
        let horiz = self.from.1 == self.to.1;
        let (lo, hi, fixed) = if horiz {
            (self.from.0, self.to.0, self.from.1)
        } else {
            (self.from.1, self.to.1, self.from.0)
        };
        (lo..hi).map(move |c| {
            if horiz {
                Edge::planar(layer, c, fixed)
            } else {
                Edge::planar(layer, fixed, c)
            }
        })
    }

    /// The gcells the segment passes through, inclusive of both endpoints.
    pub fn gcells(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        let horiz = self.from.1 == self.to.1;
        let (lo, hi) = if horiz {
            (self.from.0, self.to.0)
        } else {
            (self.from.1, self.to.1)
        };
        let fixed = if horiz { self.from.1 } else { self.from.0 };
        (lo..=hi).map(move |c| if horiz { (c, fixed) } else { (fixed, c) })
    }
}

/// A stack of vias at one gcell connecting layers `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ViaStack {
    /// Gcell column.
    pub x: u16,
    /// Gcell row.
    pub y: u16,
    /// Lowest connected layer.
    pub lo: u16,
    /// Highest connected layer.
    pub hi: u16,
}

impl ViaStack {
    /// Number of vias in the stack.
    #[must_use]
    pub fn count(&self) -> u32 {
        u32::from(self.hi - self.lo)
    }

    /// The via edges of the stack.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        let (x, y) = (self.x, self.y);
        (self.lo..self.hi).map(move |l| Edge::via(x, y, l))
    }
}

/// The global route of one net.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetRoute {
    /// Wire segments.
    pub segs: Vec<RouteSeg>,
    /// Via stacks.
    pub vias: Vec<ViaStack>,
}

impl NetRoute {
    /// An empty (unrouted or trivially local) route.
    #[must_use]
    pub fn empty() -> NetRoute {
        NetRoute::default()
    }

    /// Whether the route has no wiring at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty() && self.vias.is_empty()
    }

    /// Total wirelength in gcell units.
    #[must_use]
    pub fn wirelength(&self) -> u64 {
        self.segs.iter().map(|s| u64::from(s.len())).sum()
    }

    /// Total via count.
    #[must_use]
    pub fn via_count(&self) -> u64 {
        self.vias.iter().map(|v| u64::from(v.count())).sum()
    }

    /// All grid edges of the route: each segment's planar edges, then each
    /// stack's via edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.segs
            .iter()
            .flat_map(RouteSeg::edges)
            .chain(self.vias.iter().flat_map(ViaStack::edges))
    }

    /// The route cost `cost_n^r`: the Eq. 10 costs of its edges, summed in
    /// [`edges`](NetRoute::edges) order. Each edge's demand is shifted by
    /// its entry in `discount`, one delta per edge indexed by
    /// [`RouteGrid::edge_index`]; pass an empty slice for the plain cost
    /// (see [`pattern_route_tree`](crate::pattern_route_tree)).
    ///
    /// # Panics
    ///
    /// Panics if `discount` is neither empty nor `2 · num_slots` long.
    #[must_use]
    pub fn cost(&self, grid: &RouteGrid, discount: &[f64]) -> f64 {
        let ctx = CostCtx::new(grid, &[], 0.0, discount);
        sum_ordered(self.edges().map(|e| ctx.edge_cost(e)))
    }

    /// Commits the route's usage to the grid.
    pub fn commit(&self, grid: &mut RouteGrid) {
        for seg in &self.segs {
            for e in seg.edges() {
                grid.add_wire(e);
            }
        }
        for v in &self.vias {
            grid.add_via_stack(v.x, v.y, v.lo, v.hi);
        }
    }

    /// Removes the route's usage from the grid (exact inverse of
    /// [`commit`](NetRoute::commit)).
    pub fn uncommit(&self, grid: &mut RouteGrid) {
        for seg in &self.segs {
            for e in seg.edges() {
                grid.remove_wire(e);
            }
        }
        for v in &self.vias {
            grid.remove_via_stack(v.x, v.y, v.lo, v.hi);
        }
    }

    /// Whether the route's 3D node graph connects all `pins`.
    ///
    /// Each segment joins its consecutive gcells on its layer, and each
    /// stack its consecutive layers. An empty route is connected iff all
    /// pins share one node. Used by tests and the evaluator's open-net
    /// check (Eq. 2: every net must have a route).
    #[must_use]
    pub fn connects(&self, pins: &[Gcell]) -> bool {
        if pins.len() <= 1 {
            return true;
        }
        // Every node a pin or the route touches, numbered by rank.
        let mut nodes: Vec<Gcell> = pins.to_vec();
        for s in &self.segs {
            nodes.extend(s.gcells().map(|(x, y)| Gcell::new(x, y, s.layer)));
        }
        for v in &self.vias {
            nodes.extend((v.lo..=v.hi).map(|l| Gcell::new(v.x, v.y, l)));
        }
        nodes.sort_unstable();
        nodes.dedup();
        let rank = |g: Gcell| nodes.binary_search(&g).unwrap_or_else(|i| i);

        let mut parent: Vec<usize> = (0..nodes.len()).collect();
        let mut join = |a: Gcell, b: Gcell| {
            let ra = root(&mut parent, rank(a));
            let rb = root(&mut parent, rank(b));
            parent[ra] = rb;
        };
        for s in &self.segs {
            for ((x0, y0), (x1, y1)) in s.gcells().zip(s.gcells().skip(1)) {
                join(Gcell::new(x0, y0, s.layer), Gcell::new(x1, y1, s.layer));
            }
        }
        for v in &self.vias {
            for l in v.lo..v.hi {
                join(Gcell::new(v.x, v.y, l), Gcell::new(v.x, v.y, l + 1));
            }
        }
        let first = root(&mut parent, rank(pins[0]));
        pins.iter().all(|&p| root(&mut parent, rank(p)) == first)
    }

    /// Normalizes the route: drops empty segments and stacks, deduplicates,
    /// and merges via stacks at the same gcell.
    pub fn normalize(&mut self) {
        self.segs.retain(|s| !s.is_empty());
        self.segs.sort_unstable();
        self.segs.dedup();
        let mut stacks: BTreeMap<(u16, u16), (u16, u16)> = BTreeMap::new();
        for v in &self.vias {
            if v.hi > v.lo {
                let e = stacks.entry((v.x, v.y)).or_insert((v.lo, v.hi));
                e.0 = e.0.min(v.lo);
                e.1 = e.1.max(v.hi);
            }
        }
        self.vias = stacks
            .into_iter()
            .map(|((x, y), (lo, hi))| ViaStack { x, y, lo, hi })
            .collect();
        self.vias.sort_unstable();
    }
}

/// The routing state of a whole design: one [`NetRoute`] per net.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Routing {
    /// Routes, indexed by [`NetId`].
    pub routes: Vec<NetRoute>,
}

impl Routing {
    /// An all-empty routing for `num_nets` nets.
    #[must_use]
    pub fn with_nets(num_nets: usize) -> Routing {
        Routing {
            routes: vec![NetRoute::empty(); num_nets],
        }
    }

    /// The route of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn route(&self, net: NetId) -> &NetRoute {
        &self.routes[net.index()]
    }

    /// Total wirelength over all nets, in gcell units.
    #[must_use]
    pub fn total_wirelength(&self) -> u64 {
        self.routes.iter().map(NetRoute::wirelength).sum()
    }

    /// Total via count over all nets.
    #[must_use]
    pub fn total_vias(&self) -> u64 {
        self.routes.iter().map(NetRoute::via_count).sum()
    }

    /// Total Eq. 1 objective: Σ cost of all routes under the current grid.
    #[must_use]
    pub fn total_cost(&self, grid: &RouteGrid) -> f64 {
        sum_ordered(self.routes.iter().map(|r| r.cost(grid, &[])))
    }

    /// Whether every multi-pin net's route connects its pins.
    #[must_use]
    pub fn is_fully_connected(&self, design: &Design, grid: &RouteGrid) -> bool {
        design.net_ids().all(|n| {
            let pins = net_pin_nodes(design, grid, n);
            self.routes[n.index()].connects(&pins)
        })
    }
}

/// The root of `i` in the union-find forest `parent`, halving the path
/// on the way.
fn root(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// The gcell nodes of a net's pins, sorted and deduplicated.
#[must_use]
pub fn net_pin_nodes(design: &Design, grid: &RouteGrid, net: NetId) -> Vec<Gcell> {
    let mut out: Vec<Gcell> = design
        .net(net)
        .pins
        .iter()
        .map(|&p| {
            let (x, y) = grid.gcell_of(design.pin_position(p));
            // crp-lint: allow(no-panic-paths, layer counts are validated to
            // fit u16 when the grid is built from the same design)
            let layer = u16::try_from(design.pin_layer(p)).expect("layer out of range");
            Gcell::new(x, y, layer)
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_grid::GridConfig;
    use crp_netlist::DesignBuilder;

    fn grid() -> RouteGrid {
        let mut b = DesignBuilder::new("g", 1000);
        b.site(200, 2000);
        b.add_rows(15, 150, Point::new(0, 0)); // 30_000 x 30_000 -> 10x10
        RouteGrid::new(&b.build(), GridConfig::default())
    }

    #[test]
    fn seg_edges_horizontal() {
        let s = RouteSeg::new(1, (2, 3), (5, 3));
        let edges: Vec<Edge> = s.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges[0], Edge::planar(1, 2, 3));
        assert_eq!(edges[2], Edge::planar(1, 4, 3));
        assert!(s.is_horizontal());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn seg_edges_vertical_and_normalized() {
        let s = RouteSeg::new(2, (4, 7), (4, 2));
        assert_eq!(s.from, (4, 2));
        assert_eq!(s.to, (4, 7));
        assert_eq!(s.edges().count(), 5);
        assert!(!s.is_horizontal());
    }

    #[test]
    #[should_panic(expected = "axis-aligned")]
    fn diagonal_segment_panics() {
        let _ = RouteSeg::new(1, (0, 0), (1, 1));
    }

    #[test]
    fn via_stack_edges() {
        let v = ViaStack {
            x: 1,
            y: 2,
            lo: 0,
            hi: 3,
        };
        assert_eq!(v.count(), 3);
        let edges: Vec<Edge> = v.edges().collect();
        assert_eq!(
            edges,
            vec![Edge::via(1, 2, 0), Edge::via(1, 2, 1), Edge::via(1, 2, 2)]
        );
    }

    #[test]
    fn commit_uncommit_roundtrip() {
        let mut g = grid();
        let route = NetRoute {
            segs: vec![
                RouteSeg::new(1, (0, 0), (3, 0)),
                RouteSeg::new(2, (3, 0), (3, 2)),
            ],
            vias: vec![ViaStack {
                x: 3,
                y: 0,
                lo: 1,
                hi: 2,
            }],
        };
        let before: Vec<f64> = route.edges().map(|e| g.demand(e)).collect();
        route.commit(&mut g);
        let during: Vec<f64> = route.edges().map(|e| g.demand(e)).collect();
        assert!(during.iter().zip(&before).any(|(d, b)| d > b));
        route.uncommit(&mut g);
        let after: Vec<f64> = route.edges().map(|e| g.demand(e)).collect();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_sums_edge_costs() {
        let g = grid();
        let route = NetRoute {
            segs: vec![RouteSeg::new(1, (0, 0), (1, 0))],
            vias: vec![ViaStack {
                x: 0,
                y: 0,
                lo: 1,
                hi: 2,
            }],
        };
        let edges = [Edge::planar(1, 0, 0), Edge::via(0, 0, 1)];
        assert_eq!(route.edges().collect::<Vec<_>>(), edges);
        let sum = route.cost(&g, &[]);
        assert!((sum - (g.cost(edges[0]) + g.cost(edges[1]))).abs() < 1e-12);
        // A discount shifts only the demand of the edges it lists.
        let mut discount = vec![0.0; 2 * g.num_slots()];
        discount[g.edge_index(edges[1])] = -0.5;
        let discounted = route.cost(&g, &discount);
        let want = g.cost(edges[0]) + g.cost_adjusted(edges[1], -0.5);
        assert!((discounted - want).abs() < 1e-12);
    }

    #[test]
    fn connects_l_shape_with_via() {
        let route = NetRoute {
            segs: vec![
                RouteSeg::new(1, (0, 0), (3, 0)),
                RouteSeg::new(2, (3, 0), (3, 2)),
            ],
            vias: vec![
                ViaStack {
                    x: 0,
                    y: 0,
                    lo: 0,
                    hi: 1,
                },
                ViaStack {
                    x: 3,
                    y: 0,
                    lo: 1,
                    hi: 2,
                },
                ViaStack {
                    x: 3,
                    y: 2,
                    lo: 0,
                    hi: 2,
                },
            ],
        };
        assert!(route.connects(&[Gcell::new(0, 0, 0), Gcell::new(3, 2, 0)]));
        // A pin off the route is not connected.
        assert!(!route.connects(&[Gcell::new(0, 0, 0), Gcell::new(5, 5, 0)]));
    }

    #[test]
    fn missing_pin_via_breaks_connectivity() {
        let route = NetRoute {
            segs: vec![RouteSeg::new(1, (0, 0), (3, 0))],
            vias: vec![ViaStack {
                x: 0,
                y: 0,
                lo: 0,
                hi: 1,
            }],
        };
        // Pin at (3,0,0) has no via down from layer 1.
        assert!(!route.connects(&[Gcell::new(0, 0, 0), Gcell::new(3, 0, 0)]));
    }

    #[test]
    fn single_pin_net_trivially_connected() {
        assert!(NetRoute::empty().connects(&[Gcell::new(4, 4, 0)]));
        assert!(NetRoute::empty().connects(&[]));
    }

    #[test]
    fn normalize_merges_stacks_and_drops_empties() {
        let mut r = NetRoute {
            segs: vec![
                RouteSeg::new(1, (0, 0), (0, 0)),
                RouteSeg::new(1, (0, 0), (2, 0)),
                RouteSeg::new(1, (0, 0), (2, 0)),
            ],
            vias: vec![
                ViaStack {
                    x: 0,
                    y: 0,
                    lo: 0,
                    hi: 1,
                },
                ViaStack {
                    x: 0,
                    y: 0,
                    lo: 1,
                    hi: 3,
                },
                ViaStack {
                    x: 1,
                    y: 1,
                    lo: 2,
                    hi: 2,
                },
            ],
        };
        r.normalize();
        assert_eq!(r.segs.len(), 1);
        assert_eq!(
            r.vias,
            vec![ViaStack {
                x: 0,
                y: 0,
                lo: 0,
                hi: 3
            }]
        );
    }

    #[test]
    fn routing_totals() {
        let mut routing = Routing::with_nets(2);
        routing.routes[0] = NetRoute {
            segs: vec![RouteSeg::new(1, (0, 0), (4, 0))],
            vias: vec![ViaStack {
                x: 0,
                y: 0,
                lo: 0,
                hi: 1,
            }],
        };
        assert_eq!(routing.total_wirelength(), 4);
        assert_eq!(routing.total_vias(), 1);
    }

    mod properties {
        use super::*;
        use crate::maze::{maze_route, path_to_route};
        use crate::pattern::pattern_route_tree;
        use proptest::prelude::*;
        use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

        /// Connectivity as it was decided over the route's edge set: each
        /// planar edge's direction is guessed from a segment that covers
        /// it, then a BFS runs from the first pin. The reference
        /// `NetRoute::connects` must agree with.
        fn connects_by_edges(route: &NetRoute, pins: &[Gcell]) -> bool {
            if pins.len() <= 1 {
                return true;
            }
            let mut edge_set: BTreeSet<Edge> = BTreeSet::new();
            for seg in &route.segs {
                edge_set.extend(seg.edges());
            }
            for v in &route.vias {
                edge_set.extend(v.edges());
            }
            let mut adj: HashMap<Gcell, Vec<Gcell>> = HashMap::new();
            for &e in &edge_set {
                let (a, b) = match e {
                    Edge::Planar { layer, x, y } => {
                        let h = route.segs.iter().any(|s| {
                            s.layer == layer && s.edges().any(|se| se == e) && s.from.1 == s.to.1
                        });
                        if h {
                            (Gcell::new(x, y, layer), Gcell::new(x + 1, y, layer))
                        } else {
                            (Gcell::new(x, y, layer), Gcell::new(x, y + 1, layer))
                        }
                    }
                    Edge::Via { x, y, lower } => {
                        (Gcell::new(x, y, lower), Gcell::new(x, y, lower + 1))
                    }
                };
                adj.entry(a).or_default().push(b);
                adj.entry(b).or_default().push(a);
            }
            let mut seen = HashSet::new();
            let mut queue = VecDeque::new();
            seen.insert(pins[0]);
            queue.push_back(pins[0]);
            while let Some(n) = queue.pop_front() {
                if let Some(next) = adj.get(&n) {
                    for &m in next {
                        if seen.insert(m) {
                            queue.push_back(m);
                        }
                    }
                }
            }
            pins.iter().all(|p| seen.contains(p))
        }

        /// A maze route over `pins`: one maze path from the first pin to
        /// each other pin.
        fn maze_net(g: &RouteGrid, pins: &[Gcell]) -> NetRoute {
            let mut route = NetRoute::empty();
            for &p in &pins[1..] {
                if let Some(path) = maze_route(g, &pins[..1], &[p], &[], 0.0) {
                    let part = path_to_route(&path);
                    route.segs.extend(part.segs);
                    route.vias.extend(part.vias);
                }
            }
            route.normalize();
            route
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn connects_matches_the_edge_set_reference(
                pins in proptest::collection::vec((0u16..10, 0u16..10, 0u16..3), 1..6),
                maze in 0u8..2,
            ) {
                let g = grid();
                let mut nodes: Vec<Gcell> =
                    pins.iter().map(|&(x, y, l)| Gcell::new(x, y, l)).collect();
                nodes.sort_unstable();
                nodes.dedup();
                let route = if maze == 1 {
                    maze_net(&g, &nodes)
                } else {
                    pattern_route_tree(&g, &nodes, &[], 0.0, &[])
                };
                prop_assert!(route.connects(&nodes));
                prop_assert_eq!(route.connects(&nodes), connects_by_edges(&route, &nodes));
                for i in 0..route.segs.len() {
                    let mut cut = route.clone();
                    cut.segs.remove(i);
                    prop_assert_eq!(cut.connects(&nodes), connects_by_edges(&cut, &nodes));
                }
                for i in 0..route.vias.len() {
                    let mut cut = route.clone();
                    cut.vias.remove(i);
                    prop_assert_eq!(cut.connects(&nodes), connects_by_edges(&cut, &nodes));
                }
            }
        }
    }
}
