//! 3D maze (Dijkstra) routing over the GCell graph.
//!
//! Used as the escape hatch when pattern routes overflow: rip-up-and-reroute
//! rounds send victim nets through this router, whose per-edge cost is the
//! Eq. 10 cost plus a PathFinder-style history penalty that grows on
//! persistently overflowed edges.

use crate::route::{NetRoute, RouteSeg, ViaStack};
use crp_geom::Axis;
use crp_grid::{Edge, RouteGrid};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A search node: `(x, y, layer)`.
type Node = (u16, u16, u16);

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f64,
    node: Node,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance (reverse order), tie-break on node for
        // determinism.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs a multi-source Dijkstra from `sources` to the nearest of `targets`
/// and returns the node path (source → target), or `None` when unreachable.
///
/// `history` and `hist_weight` add per-edge penalties on top of the grid's
/// Eq. 10 cost: `history` holds one value per planar edge, indexed by
/// [`RouteGrid::slot`] (empty for none). The search spans all layers;
/// planar moves on non-routable layers are skipped, via moves are always
/// allowed (pins live on M1).
///
/// # Panics
///
/// Panics if `history` is neither empty nor [`RouteGrid::num_slots`] long.
#[must_use]
pub fn maze_route(
    grid: &RouteGrid,
    sources: &[Node],
    targets: &[Node],
    history: &[f64],
    hist_weight: f64,
) -> Option<Vec<Node>> {
    assert!(
        history.is_empty() || history.len() == grid.num_slots(),
        "history does not match the grid"
    );
    if sources.is_empty() || targets.is_empty() {
        return None;
    }
    let (nx, ny, nl) = grid.dims();
    let n = grid.num_slots();
    let idx = |(x, y, l): Node| grid.slot(l, x, y);

    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<Node>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    let mut is_target = vec![false; n];
    for &t in targets {
        is_target[idx(t)] = true;
    }
    for &s in sources {
        dist[idx(s)] = 0.0;
        heap.push(HeapItem { dist: 0.0, node: s });
    }

    let use_history = hist_weight != 0.0 && !history.is_empty();
    let edge_cost = |e: Edge| -> f64 {
        let mut c = grid.cost(e);
        if let (true, Edge::Planar { layer, x, y }) = (use_history, e) {
            c += hist_weight * history[grid.slot(layer, x, y)];
        }
        c
    };

    let mut found: Option<Node> = None;
    while let Some(HeapItem { dist: d, node }) = heap.pop() {
        let ni = idx(node);
        if d > dist[ni] {
            continue;
        }
        if is_target[ni] {
            found = Some(node);
            break;
        }
        let (x, y, l) = node;
        let mut push = |to: Node, e: Edge| {
            let c = edge_cost(e);
            if !c.is_finite() {
                return;
            }
            let nd = d + c;
            let ti = idx(to);
            if nd < dist[ti] {
                dist[ti] = nd;
                parent[ti] = Some(node);
                heap.push(HeapItem { dist: nd, node: to });
            }
        };
        // Planar moves along the layer's preferred axis.
        if grid.is_routable(l) {
            match grid.axis(l) {
                Axis::X => {
                    if x + 1 < nx {
                        push((x + 1, y, l), Edge::planar(l, x, y));
                    }
                    if x > 0 {
                        push((x - 1, y, l), Edge::planar(l, x - 1, y));
                    }
                }
                Axis::Y => {
                    if y + 1 < ny {
                        push((x, y + 1, l), Edge::planar(l, x, y));
                    }
                    if y > 0 {
                        push((x, y - 1, l), Edge::planar(l, x, y - 1));
                    }
                }
            }
        }
        // Via moves.
        if l + 1 < nl {
            push((x, y, l + 1), Edge::via(x, y, l));
        }
        if l > 0 {
            push((x, y, l - 1), Edge::via(x, y, l - 1));
        }
    }

    let end = found?;
    let mut path = vec![end];
    let mut cur = end;
    while let Some(p) = parent[idx(cur)] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// Converts a maze path into route segments and via stacks.
///
/// Consecutive co-linear planar steps merge into one [`RouteSeg`];
/// consecutive via steps merge into one [`ViaStack`].
#[must_use]
pub fn path_to_route(path: &[Node]) -> NetRoute {
    let mut route = NetRoute::empty();
    if path.len() < 2 {
        return route;
    }
    let mut i = 0;
    while i + 1 < path.len() {
        let (x0, y0, l0) = path[i];
        let (x1, y1, l1) = path[i + 1];
        if l0 != l1 {
            // Extend the via run as far as it goes.
            let mut j = i + 1;
            while j + 1 < path.len() && path[j + 1].0 == x0 && path[j + 1].1 == y0 {
                j += 1;
            }
            let lo = path[i].2.min(path[j].2);
            let hi = path[i].2.max(path[j].2);
            route.vias.push(ViaStack {
                x: x0,
                y: y0,
                lo,
                hi,
            });
            i = j;
        } else {
            // Extend the straight planar run.
            let horiz = y0 == y1;
            let mut j = i + 1;
            while j + 1 < path.len() {
                let (nx2, ny2, nl2) = path[j + 1];
                if nl2 != l0 {
                    break;
                }
                let run_continues = if horiz { ny2 == y0 } else { nx2 == x0 };
                if !run_continues {
                    break;
                }
                j += 1;
            }
            route
                .segs
                .push(RouteSeg::new(l0, (x0, y0), (path[j].0, path[j].1)));
            i = j;
        }
        let _ = (x1, y1);
    }
    route.normalize();
    route
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
        b.add_rows(15, 150, Point::new(0, 0)); // 30_000² -> 10x10
        RouteGrid::new(&b.build(), GridConfig::default())
    }

    #[test]
    fn finds_path_between_m1_pins() {
        let g = grid();
        let path = maze_route(&g, &[(0, 0, 0)], &[(5, 5, 0)], &[], 0.0).unwrap();
        assert_eq!(path.first(), Some(&(0, 0, 0)));
        assert_eq!(path.last(), Some(&(5, 5, 0)));
        // Steps are unit moves.
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let dd = a.0.abs_diff(b.0) + a.1.abs_diff(b.1) + a.2.abs_diff(b.2);
            assert_eq!(dd, 1, "non-unit step {a:?} -> {b:?}");
        }
    }

    #[test]
    fn path_converts_to_connected_route() {
        let g = grid();
        let path = maze_route(&g, &[(0, 0, 0)], &[(7, 3, 0)], &[], 0.0).unwrap();
        let route = path_to_route(&path);
        assert!(route.connects(&[(0, 0, 0), (7, 3, 0)]));
        assert!(route.wirelength() >= 10);
    }

    #[test]
    fn same_node_is_empty_path() {
        let g = grid();
        let path = maze_route(&g, &[(3, 3, 0)], &[(3, 3, 0)], &[], 0.0).unwrap();
        assert_eq!(path, vec![(3, 3, 0)]);
        assert!(path_to_route(&path).is_empty());
    }

    #[test]
    fn empty_sources_or_targets_none() {
        let g = grid();
        assert!(maze_route(&g, &[], &[(0, 0, 0)], &[], 0.0).is_none());
        assert!(maze_route(&g, &[(0, 0, 0)], &[], &[], 0.0).is_none());
    }

    #[test]
    fn history_diverts_path() {
        let g = grid();
        // Free route from (0,5) to (9,5): straight along row 5.
        let free = maze_route(&g, &[(0, 5, 0)], &[(9, 5, 0)], &[], 0.0).unwrap();
        let free_route = path_to_route(&free);
        // Now poison row 5 on every X layer.
        let mut hist = vec![0.0; g.num_slots()];
        for l in 0..9u16 {
            for x in 0..9 {
                hist[g.slot(l, x, 5)] = 50.0;
            }
        }
        let diverted = maze_route(&g, &[(0, 5, 0)], &[(9, 5, 0)], &hist, 1.0).unwrap();
        let div_route = path_to_route(&diverted);
        assert!(div_route.connects(&[(0, 5, 0), (9, 5, 0)]));
        // The diverted route must leave row 5 somewhere.
        let leaves_row = div_route.segs.iter().any(|s| s.from.1 != 5 || s.to.1 != 5);
        assert!(
            leaves_row,
            "route did not divert: {div_route:?} (free was {free_route:?})"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The maze search as it stood with the history in a map keyed by
        /// edge: the reference the dense history must reproduce.
        fn maze_route_map(
            grid: &RouteGrid,
            sources: &[Node],
            targets: &[Node],
            history: &BTreeMap<Edge, f64>,
            hist_weight: f64,
        ) -> Option<Vec<Node>> {
            let (nx, ny, nl) = grid.dims();
            let idx = |(x, y, l): Node| -> usize {
                (usize::from(l) * usize::from(ny) + usize::from(y)) * usize::from(nx)
                    + usize::from(x)
            };
            let n = usize::from(nx) * usize::from(ny) * usize::from(nl);
            let mut dist = vec![f64::INFINITY; n];
            let mut parent: Vec<Option<Node>> = vec![None; n];
            let mut heap = BinaryHeap::new();
            for &s in sources {
                dist[idx(s)] = 0.0;
                heap.push(HeapItem { dist: 0.0, node: s });
            }
            let mut found = None;
            while let Some(HeapItem { dist: d, node }) = heap.pop() {
                if d > dist[idx(node)] {
                    continue;
                }
                if targets.contains(&node) {
                    found = Some(node);
                    break;
                }
                let (x, y, l) = node;
                let mut moves: Vec<(Node, Edge)> = Vec::new();
                if grid.is_routable(l) {
                    match grid.axis(l) {
                        Axis::X => {
                            if x + 1 < nx {
                                moves.push(((x + 1, y, l), Edge::planar(l, x, y)));
                            }
                            if x > 0 {
                                moves.push(((x - 1, y, l), Edge::planar(l, x - 1, y)));
                            }
                        }
                        Axis::Y => {
                            if y + 1 < ny {
                                moves.push(((x, y + 1, l), Edge::planar(l, x, y)));
                            }
                            if y > 0 {
                                moves.push(((x, y - 1, l), Edge::planar(l, x, y - 1)));
                            }
                        }
                    }
                }
                if l + 1 < nl {
                    moves.push(((x, y, l + 1), Edge::via(x, y, l)));
                }
                if l > 0 {
                    moves.push(((x, y, l - 1), Edge::via(x, y, l - 1)));
                }
                for (to, e) in moves {
                    let mut c = grid.cost(e);
                    if let Some(&h) = history.get(&e) {
                        c += hist_weight * h;
                    }
                    if !c.is_finite() {
                        continue;
                    }
                    let nd = d + c;
                    if nd < dist[idx(to)] {
                        dist[idx(to)] = nd;
                        parent[idx(to)] = Some(node);
                        heap.push(HeapItem { dist: nd, node: to });
                    }
                }
            }
            let mut path = vec![found?];
            while let Some(p) = parent[idx(path[path.len() - 1])] {
                path.push(p);
            }
            path.reverse();
            Some(path)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn dense_history_routes_like_the_map(
                penalties in proptest::collection::vec(
                    ((1u16..9, 0u16..10, 0u16..10), 1u8..40),
                    0..40,
                ),
                wires in proptest::collection::vec((1u16..9, 0u16..10, 0u16..10), 0..30),
                ends in ((0u16..10, 0u16..10, 0u16..3), (0u16..10, 0u16..10, 0u16..3)),
                weight in 0u8..3,
            ) {
                let mut g = grid();
                for &(l, x, y) in &wires {
                    if g.edge_exists(Edge::planar(l, x, y)) {
                        for _ in 0..20 {
                            g.add_wire(Edge::planar(l, x, y));
                        }
                    }
                }
                let mut map = BTreeMap::new();
                let mut dense = vec![0.0; g.num_slots()];
                for &((l, x, y), h) in &penalties {
                    if g.edge_exists(Edge::planar(l, x, y)) {
                        *map.entry(Edge::planar(l, x, y)).or_insert(0.0) += f64::from(h);
                        dense[g.slot(l, x, y)] += f64::from(h);
                    }
                }
                let w = f64::from(weight) * 0.75;
                let (a, b) = ends;
                let got = maze_route(&g, &[a], &[b], &dense, w);
                let want = maze_route_map(&g, &[a], &[b], &map, w);
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn multi_source_picks_nearest() {
        let g = grid();
        let path = maze_route(&g, &[(0, 0, 1), (8, 8, 1)], &[(9, 9, 1)], &[], 0.0).unwrap();
        assert_eq!(path.first(), Some(&(8, 8, 1)));
    }
}
