//! Routing-side invariants: connectivity, demand bookkeeping, and epoch
//! monotonicity.

use crate::CheckViolation;
use crp_grid::{Edge, Gcell, RouteGrid};
use crp_netlist::{Design, NetId};
use crp_router::{net_pin_nodes, Routing};
use std::collections::HashMap;

/// Checks that every net's committed route connects all of its pins
/// (restricted to `nets` when given — e.g. only the nets an iteration
/// rerouted).
#[must_use]
pub fn check_connectivity(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    nets: Option<&[NetId]>,
) -> Vec<CheckViolation> {
    let check_one = |net: NetId| -> Option<CheckViolation> {
        let pins = net_pin_nodes(design, grid, net);
        (!routing.route(net).connects(&pins)).then_some(CheckViolation::Disconnected { net })
    };
    match nets {
        Some(nets) => nets.iter().filter_map(|&n| check_one(n)).collect(),
        None => design.net_ids().filter_map(check_one).collect(),
    }
}

/// Checks the aggregate demand identities: total grid wire usage equals
/// the routing's total wirelength, and total via endpoints equal twice
/// the routing's via count. O(gcells), no per-edge recount.
#[must_use]
pub fn check_demand_totals(grid: &RouteGrid, routing: &Routing) -> Vec<CheckViolation> {
    let mut out = Vec::new();
    let wires = grid.total_wire_usage();
    let expect_wires = routing.total_wirelength() as f64;
    if (wires - expect_wires).abs() > 1e-9 {
        out.push(CheckViolation::WireTotalMismatch {
            grid: wires,
            routing: expect_wires,
        });
    }
    let vias = grid.total_via_endpoints();
    let expect_vias = 2.0 * routing.total_vias() as f64;
    if (vias - expect_vias).abs() > 1e-9 {
        out.push(CheckViolation::ViaTotalMismatch {
            grid: vias,
            routing: expect_vias,
        });
    }
    out
}

/// Recounts every per-edge wire usage and per-gcell via-endpoint counter
/// from scratch over all committed routes and compares against the
/// grid's incremental bookkeeping, then recomputes every edge's Eq. 10
/// cost from the grid's counters and compares against its cost table.
/// O(routes + gcells × layers).
#[must_use]
pub fn check_demand_exact(grid: &RouteGrid, routing: &Routing) -> Vec<CheckViolation> {
    let mut wires: HashMap<Edge, u64> = HashMap::new();
    let mut endpoints: HashMap<Gcell, u64> = HashMap::new();
    for route in &routing.routes {
        for seg in &route.segs {
            for e in seg.edges() {
                *wires.entry(e).or_insert(0) += 1;
            }
        }
        for via in &route.vias {
            for l in via.lo..via.hi {
                *endpoints.entry(Gcell::new(via.x, via.y, l)).or_insert(0) += 1;
                *endpoints
                    .entry(Gcell::new(via.x, via.y, l + 1))
                    .or_insert(0) += 1;
            }
        }
    }

    let mut out = Vec::new();
    for edge in grid.planar_edges() {
        let usage = grid.wire_usage(edge);
        let recount = wires.remove(&edge).unwrap_or(0) as f64;
        if usage != recount {
            out.push(CheckViolation::WireUsageMismatch {
                edge,
                grid: usage,
                recount,
            });
        }
    }
    // Routes never use edges outside the grid's planar-edge universe, so
    // anything left over is demand the grid cannot even represent.
    for (edge, count) in wires {
        out.push(CheckViolation::WireUsageMismatch {
            edge,
            grid: grid.wire_usage(edge),
            recount: count as f64,
        });
    }

    let (nx, ny, nl) = grid.dims();
    for layer in 0..nl {
        for x in 0..nx {
            for y in 0..ny {
                let count = grid.via_count(layer, x, y);
                let recount = endpoints.remove(&Gcell::new(x, y, layer)).unwrap_or(0) as f64;
                if count != recount {
                    out.push(CheckViolation::ViaCountMismatch {
                        x,
                        y,
                        layer,
                        grid: count,
                        recount,
                    });
                }
            }
        }
    }
    for (Gcell { x, y, layer }, count) in endpoints {
        out.push(CheckViolation::ViaCountMismatch {
            x,
            y,
            layer,
            grid: grid.via_count(layer, x, y),
            recount: count as f64,
        });
    }

    let vias = (0..nl.saturating_sub(1))
        .flat_map(|lower| (0..ny).flat_map(move |y| (0..nx).map(move |x| Edge::via(x, y, lower))));
    for edge in grid.planar_edges().chain(vias) {
        let cached = grid.cost(edge);
        let fresh = fresh_cost(grid, edge);
        if cached.to_bits() != fresh.to_bits() {
            out.push(CheckViolation::StaleEdgeCost {
                edge,
                cached,
                fresh,
            });
        }
    }
    out
}

/// Eq. 10 from the grid's counters: `Unit_e × (1 + penalty(e))` on a
/// routable edge.
fn fresh_cost(grid: &RouteGrid, edge: Edge) -> f64 {
    let unit = match edge {
        Edge::Planar { layer, .. } if !grid.is_routable(layer) => return f64::INFINITY,
        Edge::Planar { .. } => grid.config().wire_unit,
        Edge::Via { .. } => grid.config().via_unit,
    };
    unit * (1.0 + grid.penalty(edge))
}

/// Checks that the grid's congestion epoch did not move backwards since
/// `before` was read.
#[must_use]
pub fn check_epoch(grid: &RouteGrid, before: u64) -> Vec<CheckViolation> {
    let now = grid.epoch();
    if now < before {
        vec![CheckViolation::EpochWentBackwards { before, now }]
    } else {
        Vec::new()
    }
}

/// Checks that no per-gcell touch stamp is ahead of the global epoch —
/// a stamp from the future would let the price cache serve entries that
/// should have been invalidated.
#[must_use]
pub fn check_touch_stamps(grid: &RouteGrid) -> Vec<CheckViolation> {
    let epoch = grid.epoch();
    let (nx, ny, _) = grid.dims();
    let mut out = Vec::new();
    for x in 0..nx {
        for y in 0..ny {
            let touch = grid.touch_epoch(x, y);
            if touch > epoch {
                out.push(CheckViolation::TouchAheadOfEpoch { x, y, touch, epoch });
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
    use crp_netlist::{DesignBuilder, MacroCell};
    use crp_router::{GlobalRouter, NetRoute, RouterConfig};

    fn routed() -> (Design, RouteGrid, Routing) {
        let mut b = DesignBuilder::new("t", 1000);
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
        (d, grid, routing)
    }

    #[test]
    fn consistent_state_passes_every_check() {
        let (d, grid, routing) = routed();
        assert!(check_connectivity(&d, &grid, &routing, None).is_empty());
        assert!(check_demand_totals(&grid, &routing).is_empty());
        assert!(check_demand_exact(&grid, &routing).is_empty());
        assert!(check_epoch(&grid, grid.epoch()).is_empty());
        assert!(check_touch_stamps(&grid).is_empty());
    }

    #[test]
    fn emptied_route_is_disconnected() {
        let (d, grid, mut routing) = routed();
        routing.routes[0] = NetRoute::empty();
        let v = check_connectivity(&d, &grid, &routing, None);
        assert_eq!(v, vec![CheckViolation::Disconnected { net: NetId(0) }]);
        // The restricted form sees it too — and only when asked about it.
        assert_eq!(
            check_connectivity(&d, &grid, &routing, Some(&[NetId(0)])).len(),
            1
        );
        assert!(check_connectivity(&d, &grid, &routing, Some(&[])).is_empty());
    }

    #[test]
    fn phantom_wire_demand_is_caught_by_recount_and_totals() {
        let (_, mut grid, routing) = routed();
        let edge = grid.planar_edges().next().expect("routable edge");
        grid.add_wire(edge);
        assert!(check_demand_exact(&grid, &routing)
            .iter()
            .any(|v| matches!(v, CheckViolation::WireUsageMismatch { .. })));
        assert!(check_demand_totals(&grid, &routing)
            .iter()
            .any(|v| matches!(v, CheckViolation::WireTotalMismatch { .. })));
    }

    #[test]
    fn undercounted_wire_demand_is_caught() {
        let (_, mut grid, routing) = routed();
        // Remove an edge some committed route actually uses, so the grid
        // undercounts without hitting the underflow assertion.
        let edge = routing.routes[0]
            .segs
            .iter()
            .flat_map(|s| s.edges())
            .next()
            .expect("fixture net has a planar segment");
        grid.remove_wire(edge);
        assert!(check_demand_exact(&grid, &routing)
            .iter()
            .any(|v| matches!(v, CheckViolation::WireUsageMismatch { .. })));
    }

    #[test]
    fn phantom_via_demand_is_caught() {
        let (_, mut grid, routing) = routed();
        grid.add_via(0, 0, 1);
        assert!(check_demand_exact(&grid, &routing)
            .iter()
            .any(|v| matches!(v, CheckViolation::ViaCountMismatch { .. })));
        assert!(check_demand_totals(&grid, &routing)
            .iter()
            .any(|v| matches!(v, CheckViolation::ViaTotalMismatch { .. })));
    }

    #[test]
    fn cost_table_stays_fresh_through_reroutes() {
        let (d, mut grid, mut routing) = routed();
        let mut router = GlobalRouter::new(RouterConfig::default());
        for net in d.net_ids() {
            router.reroute_with_maze(&d, &mut grid, &mut routing, net);
        }
        grid.add_via(0, 0, 1);
        grid.remove_via(0, 0, 1);
        assert!(check_demand_exact(&grid, &routing).is_empty());
    }

    #[test]
    fn stale_cost_names_the_edge() {
        let v = CheckViolation::StaleEdgeCost {
            edge: Edge::via(1, 2, 3),
            cached: 2.0,
            fresh: 3.0,
        };
        assert_eq!(
            v.to_string(),
            "cost of Via { x: 1, y: 2, lower: 3 }: table holds 2, counters give 3"
        );
    }

    #[test]
    fn epoch_regression_is_caught() {
        let (_, grid, _) = routed();
        assert_eq!(
            check_epoch(&grid, grid.epoch() + 1),
            vec![CheckViolation::EpochWentBackwards {
                before: grid.epoch() + 1,
                now: grid.epoch(),
            }]
        );
    }
}
