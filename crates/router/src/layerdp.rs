//! Net-level dynamic-programming layer assignment.
//!
//! The default pattern router assigns each straight segment its layer
//! greedily (cheapest matching-axis layer in isolation). CUGR's actual
//! layer assignment is a **tree DP** that optimizes wire and via cost
//! jointly: choosing a high layer for one segment changes the via stacks
//! at every junction it shares with its neighbours. This module re-assigns
//! an existing route's segment layers with that DP; enable it through
//! [`RouterConfig::layer_dp`](crate::RouterConfig::layer_dp) or call
//! [`reassign_layers`] directly.
//!
//! The DP treats the segment-adjacency structure as a tree (global routes
//! are trees topologically; any extra adjacency from merged segments is
//! ignored via a BFS spanning tree) and runs in
//! `O(segments × layers²)`.

use crate::pattern::PinNode;
use crate::route::{NetRoute, RouteSeg, ViaStack};
use crp_geom::Axis;
use crp_grid::{Edge, RouteGrid};
use std::collections::{BTreeMap, HashMap};

/// Re-assigns the layers of `route`'s segments with a joint tree DP and
/// rebuilds the via stacks. Pin layers are respected (each pin's gcell
/// must be reachable from its pin layer through the rebuilt stacks).
///
/// Returns the rewritten route; the input's 2D geometry is preserved.
/// Single-segment and empty routes are returned unchanged (modulo stack
/// rebuild).
#[must_use]
pub fn reassign_layers(grid: &RouteGrid, route: &NetRoute, pins: &[PinNode]) -> NetRoute {
    if route.segs.is_empty() {
        return route.clone();
    }
    let (_, _, nl) = grid.dims();
    let segs = &route.segs;
    let n = segs.len();

    // --- adjacency: segments sharing an endpoint gcell -----------------------
    let mut by_endpoint: BTreeMap<(u16, u16), Vec<usize>> = BTreeMap::new();
    for (i, s) in segs.iter().enumerate() {
        by_endpoint.entry(s.from).or_default().push(i);
        by_endpoint.entry(s.to).or_default().push(i);
    }
    let mut adj: Vec<Vec<(usize, (u16, u16))>> = vec![Vec::new(); n];
    for (&gcell, members) in &by_endpoint {
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                adj[members[i]].push((members[j], gcell));
                adj[members[j]].push((members[i], gcell));
            }
        }
    }

    // Pin attachment: a pin attaches to segments having an endpoint at its
    // gcell (the pattern router guarantees one exists for multi-gcell
    // routes; pins covered mid-segment keep their stack via the fallback
    // below).
    let mut pin_at: HashMap<(u16, u16), Vec<u16>> = HashMap::new();
    for p in pins {
        pin_at.entry((p.x, p.y)).or_default().push(p.layer);
    }

    // --- BFS spanning tree over segments -------------------------------------
    let mut parent: Vec<Option<(usize, (u16, u16))>> = vec![None; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &(v, junction) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some((u, junction));
                    queue.push_back(v);
                }
            }
        }
    }

    // --- DP bottom-up ----------------------------------------------------------
    // cost[i][l]: best cost of segment i's subtree with i on layer l.
    let layers_for = |s: &RouteSeg| -> Vec<u16> {
        let axis = if s.is_horizontal() { Axis::X } else { Axis::Y };
        (0..nl)
            .filter(|&l| grid.is_routable(l) && grid.axis(l) == axis)
            .collect()
    };
    let wire_cost = |s: &RouteSeg, l: u16| -> f64 {
        let proto = RouteSeg::new(l, s.from, s.to);
        proto.edges().map(|e| grid.cost(e)).sum()
    };
    // Via stack cost between layers a and b at a gcell.
    let stack_cost = |x: u16, y: u16, a: u16, b: u16| -> f64 {
        let (lo, hi) = (a.min(b), a.max(b));
        (lo..hi).map(|l| grid.cost(Edge::via(x, y, l))).sum()
    };
    // Pin hookup cost for segment i on layer l: every pin at one of its
    // endpoints must reach l from its pin layer.
    let pin_cost = |s: &RouteSeg, l: u16| -> f64 {
        let mut total = 0.0;
        for &(x, y) in &[s.from, s.to] {
            if let Some(pls) = pin_at.get(&(x, y)) {
                for &pl in pls {
                    total += stack_cost(x, y, pl, l);
                }
            }
        }
        total
    };

    let mut cost: Vec<BTreeMap<u16, f64>> = vec![BTreeMap::new(); n];
    let mut choice: Vec<BTreeMap<u16, Vec<(usize, u16)>>> = vec![BTreeMap::new(); n];
    for &u in order.iter().rev() {
        let children: Vec<(usize, (u16, u16))> = (0..n)
            .filter_map(|v| match parent[v] {
                Some((p, j)) if p == u => Some((v, j)),
                _ => None,
            })
            .collect();
        for l in layers_for(&segs[u]) {
            let mut total = wire_cost(&segs[u], l) + pin_cost(&segs[u], l);
            let mut picks = Vec::with_capacity(children.len());
            for &(v, (jx, jy)) in &children {
                let mut best = f64::INFINITY;
                let mut best_l = None;
                for (&vl, &vc) in &cost[v] {
                    let c = vc + stack_cost(jx, jy, l, vl);
                    if c < best {
                        best = c;
                        best_l = Some(vl);
                    }
                }
                match best_l {
                    Some(bl) => {
                        total += best;
                        picks.push((v, bl));
                    }
                    None => {
                        total = f64::INFINITY;
                    }
                }
            }
            if total.is_finite() {
                cost[u].insert(l, total);
                choice[u].insert(l, picks);
            }
        }
    }

    // --- extract assignment -----------------------------------------------------
    let mut assigned: Vec<u16> = segs.iter().map(|s| s.layer).collect();
    let mut stack_down = Vec::new();
    for &u in &order {
        if parent[u].is_none() {
            // Root of its component: pick its best layer.
            if let Some((&l, _)) = cost[u]
                .iter()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
            {
                assigned[u] = l;
                stack_down.push(u);
            }
        }
    }
    while let Some(u) = stack_down.pop() {
        let l = assigned[u];
        if let Some(picks) = choice[u].get(&l) {
            for &(v, vl) in picks {
                assigned[v] = vl;
                stack_down.push(v);
            }
        }
    }

    // --- rebuild route ------------------------------------------------------------
    let new_segs: Vec<RouteSeg> = segs
        .iter()
        .zip(&assigned)
        .map(|(s, &l)| RouteSeg::new(l, s.from, s.to))
        .collect();
    let vias = rebuild_stacks(&new_segs, pins);
    let mut out = NetRoute {
        segs: new_segs,
        vias,
    };
    out.normalize();
    out
}

/// Via stacks connecting all segment endpoints and pin layers per gcell
/// (same construction as the pattern router's).
fn rebuild_stacks(segs: &[RouteSeg], pins: &[PinNode]) -> Vec<ViaStack> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::pattern_route_tree;
    use crp_geom::Point;
    use crp_grid::GridConfig;
    use crp_netlist::DesignBuilder;

    fn grid() -> RouteGrid {
        let mut b = DesignBuilder::new("dp", 1000);
        b.site(200, 2000);
        b.add_rows(15, 150, Point::new(0, 0));
        RouteGrid::new(&b.build(), GridConfig::default())
    }

    fn route_cost(grid: &RouteGrid, r: &NetRoute) -> f64 {
        r.cost(grid)
    }

    #[test]
    fn dp_never_worse_than_greedy() {
        let g = grid();
        let cases: Vec<Vec<PinNode>> = vec![
            vec![PinNode::new(0, 0, 0), PinNode::new(8, 6, 0)],
            vec![
                PinNode::new(1, 1, 0),
                PinNode::new(7, 1, 0),
                PinNode::new(4, 8, 0),
            ],
            vec![
                PinNode::new(0, 0, 0),
                PinNode::new(9, 0, 0),
                PinNode::new(0, 9, 0),
                PinNode::new(9, 9, 0),
            ],
        ];
        for pins in cases {
            let greedy = pattern_route_tree(&g, &pins, &[], 0.0);
            let dp = reassign_layers(&g, &greedy, &pins);
            let nodes: Vec<(u16, u16, u16)> = pins.iter().map(|p| (p.x, p.y, p.layer)).collect();
            assert!(dp.connects(&nodes), "DP broke connectivity for {pins:?}");
            assert!(
                route_cost(&g, &dp) <= route_cost(&g, &greedy) + 1e-9,
                "DP worse than greedy: {} vs {}",
                route_cost(&g, &dp),
                route_cost(&g, &greedy)
            );
        }
    }

    #[test]
    fn dp_preserves_2d_geometry() {
        let g = grid();
        let pins = vec![PinNode::new(2, 2, 0), PinNode::new(9, 7, 0)];
        let greedy = pattern_route_tree(&g, &pins, &[], 0.0);
        let dp = reassign_layers(&g, &greedy, &pins);
        let planar = |r: &NetRoute| {
            let mut v: Vec<((u16, u16), (u16, u16))> =
                r.segs.iter().map(|s| (s.from, s.to)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(planar(&greedy), planar(&dp));
    }

    #[test]
    fn dp_on_empty_route_is_noop() {
        let g = grid();
        let empty = NetRoute::empty();
        assert_eq!(reassign_layers(&g, &empty, &[]), empty);
    }

    #[test]
    fn dp_helps_when_low_layers_are_congested() {
        let mut g = grid();
        // Make M2/M3 expensive everywhere: greedy per-segment choices pay
        // per-junction via stacks the DP can trade off jointly.
        let (nx, ny, _) = g.dims();
        for l in [1u16, 2] {
            for y in 0..ny {
                for x in 0..nx {
                    if g.planar_edge_exists(l, x, y) {
                        let e = Edge::planar(l, x, y);
                        let cap = g.capacity(e) as usize;
                        for _ in 0..cap {
                            g.add_wire(e);
                        }
                    }
                }
            }
        }
        let pins = vec![
            PinNode::new(0, 0, 0),
            PinNode::new(9, 2, 0),
            PinNode::new(4, 9, 0),
            PinNode::new(8, 8, 0),
        ];
        let greedy = pattern_route_tree(&g, &pins, &[], 0.0);
        let dp = reassign_layers(&g, &greedy, &pins);
        let nodes: Vec<(u16, u16, u16)> = pins.iter().map(|p| (p.x, p.y, p.layer)).collect();
        assert!(dp.connects(&nodes));
        assert!(route_cost(&g, &dp) <= route_cost(&g, &greedy) + 1e-9);
    }
}
