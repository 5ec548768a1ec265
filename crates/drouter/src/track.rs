//! Track assignment: realizing global routes on concrete tracks.

use crate::drc::{DrcReport, Violation, ViolationKind};
use crp_geom::Dbu;
use crp_grid::RouteGrid;
use crp_netlist::{Design, NetId, PinId};
use crp_router::{net_pin_nodes, RouteSeg, Routing};
use serde::{Deserialize, Serialize};

/// Tunables of the detailed-routing proxy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrConfig {
    /// Extra tracks per (gcell, layer) usable via local detours before a
    /// short is reported.
    pub slack_tracks: u32,
    /// Wirelength charged per detour event, as a fraction of the gcell
    /// size (denominator; 2 = half a gcell).
    pub detour_divisor: i64,
    /// How far (in layers) a segment may bump away from its guide layer.
    pub max_layer_bump: u16,
}

impl Default for DrConfig {
    fn default() -> DrConfig {
        DrConfig {
            slack_tracks: 4,
            detour_divisor: 2,
            max_layer_bump: 4,
        }
    }
}

/// The outcome of detailed routing: realized metrics plus DRC report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedResult {
    /// Total realized wirelength in DBU.
    pub wirelength_dbu: i64,
    /// Total via count.
    pub vias: u64,
    /// Segments that had to leave their guide layer.
    pub layer_bumps: u64,
    /// Detour events (same-layer escapes within the slack margin).
    pub detours: u64,
    /// Design-rule violations.
    pub drc: DrcReport,
}

/// The track-assignment detailed router. See the crate docs for the model.
#[derive(Debug, Clone, Default)]
pub struct DetailedRouter {
    config: DrConfig,
}

impl DetailedRouter {
    /// Creates a detailed router.
    #[must_use]
    pub fn new(config: DrConfig) -> DetailedRouter {
        DetailedRouter { config }
    }

    /// Realizes `routing` on tracks and reports metrics plus DRCs.
    ///
    /// Deterministic: nets are processed in ascending (wirelength, id)
    /// order, and all escapes are tried in a fixed order.
    #[must_use]
    pub fn run(&self, design: &Design, grid: &RouteGrid, routing: &Routing) -> DetailedResult {
        let (nx, ny, nl) = grid.dims();
        let gsize = grid.config().gcell_size;

        // Track capacity per (gcell, layer): the grid's planar-edge
        // capacity is tracks-per-gcell already; fixed usage (blockages)
        // consumes tracks up front.
        let mut cap = vec![0u32; grid.num_slots()];
        let mut occ = vec![0u32; cap.len()];
        for l in 0..nl {
            if !grid.is_routable(l) {
                continue;
            }
            for y in 0..ny {
                for x in 0..nx {
                    // Probe the edge leaving this gcell; border gcells fall
                    // back to the edge arriving at them.
                    let e = probe_edge(grid, l, x, y);
                    let (c, f) = match e {
                        Some(edge) => (grid.capacity(edge), grid.fixed_usage(edge)),
                        None => (0.0, 0.0),
                    };
                    cap[grid.slot(l, x, y)] = (c - f).max(0.0) as u32;
                }
            }
        }

        // Net order: short nets first (they have the least flexibility).
        let mut order: Vec<NetId> = design.net_ids().collect();
        order.sort_by_key(|&n| (routing.routes[n.index()].wirelength(), n));

        let mut wirelength_dbu: i64 = 0;
        let mut vias: u64 = 0;
        let mut layer_bumps: u64 = 0;
        let mut detours: u64 = 0;
        let mut violations: Vec<Violation> = Vec::new();

        for net in order {
            let route = &routing.routes[net.index()];

            // Open-net check (Eq. 2): the guide must connect all pins.
            let pins = net_pin_nodes(design, grid, net);
            if !route.connects(&pins) {
                violations.push(Violation {
                    net,
                    kind: ViolationKind::Open,
                });
            }

            // Via stacks realize directly.
            vias += route.via_count();

            for seg in &route.segs {
                let realized = self.realize_segment(grid, &cap, &mut occ, seg, nl);
                match realized {
                    Realized::OnLayer => {}
                    Realized::Bumped(delta) => {
                        layer_bumps += 1;
                        // Vias at both ends to reach the new layer and back.
                        vias += 2 * u64::from(delta);
                    }
                    Realized::Detoured(events) => {
                        detours += events;
                        wirelength_dbu += (gsize / self.config.detour_divisor) * events as i64;
                    }
                    Realized::Short(gcells) => {
                        for (x, y) in gcells {
                            violations.push(Violation {
                                net,
                                kind: ViolationKind::Short {
                                    x,
                                    y,
                                    layer: seg.layer,
                                },
                            });
                        }
                    }
                }
                wirelength_dbu += i64::from(seg.len()) * gsize;
            }

            // Pin stubs: connecting each pin from its physical location to
            // the track fabric of its gcell.
            for &pin in &design.net(net).pins {
                wirelength_dbu += pin_stub_length(design, grid, pin);
            }
        }

        // Spacing check: a gcell-layer whose occupancy ran into the slack
        // margin packs wires below the layer's min spacing.
        for l in 0..nl {
            if !grid.is_routable(l) {
                continue;
            }
            for y in 0..ny {
                for x in 0..nx {
                    let i = grid.slot(l, x, y);
                    if cap[i] > 0 && occ[i] > cap[i] + self.config.slack_tracks {
                        violations.push(Violation {
                            net: NetId(u32::MAX),
                            kind: ViolationKind::Spacing { x, y, layer: l },
                        });
                    }
                }
            }
        }

        DetailedResult {
            wirelength_dbu,
            vias,
            layer_bumps,
            detours,
            drc: DrcReport::from_violations(violations),
        }
    }

    /// Tries to place one segment: guide layer, then bumped layers, then
    /// detour within slack, else shorts.
    fn realize_segment(
        &self,
        grid: &RouteGrid,
        cap: &[u32],
        occ: &mut [u32],
        seg: &RouteSeg,
        nl: u16,
    ) -> Realized {
        let fits = |occ: &[u32], layer: u16, slack: u32| -> bool {
            seg.gcells().all(|(x, y)| {
                let i = grid.slot(layer, x, y);
                occ[i] < cap[i] + slack
            })
        };
        let occupy = |occ: &mut [u32], layer: u16| {
            for (x, y) in seg.gcells() {
                occ[grid.slot(layer, x, y)] += 1;
            }
        };

        if fits(occ, seg.layer, 0) {
            occupy(occ, seg.layer);
            return Realized::OnLayer;
        }
        // Bump to the nearest same-axis layer with space.
        let axis = grid.axis(seg.layer);
        for delta in 1..=self.config.max_layer_bump {
            for cand in [seg.layer.checked_add(delta), seg.layer.checked_sub(delta)]
                .into_iter()
                .flatten()
            {
                if cand >= nl || !grid.is_routable(cand) || grid.axis(cand) != axis {
                    continue;
                }
                if fits(occ, cand, 0) {
                    occupy(occ, cand);
                    return Realized::Bumped(delta);
                }
            }
        }
        // Detour on the guide layer within the slack margin.
        if fits(occ, seg.layer, self.config.slack_tracks) {
            let events = seg
                .gcells()
                .filter(|&(x, y)| {
                    let i = grid.slot(seg.layer, x, y);
                    occ[i] >= cap[i]
                })
                .count() as u64;
            occupy(occ, seg.layer);
            return Realized::Detoured(events.max(1));
        }
        // Shorts on every over-full gcell.
        let shorted: Vec<(u16, u16)> = seg
            .gcells()
            .filter(|&(x, y)| {
                let i = grid.slot(seg.layer, x, y);
                occ[i] >= cap[i] + self.config.slack_tracks
            })
            .collect();
        occupy(occ, seg.layer);
        Realized::Short(shorted)
    }
}

enum Realized {
    OnLayer,
    Bumped(u16),
    Detoured(u64),
    Short(Vec<(u16, u16)>),
}

/// The planar edge probing a gcell's track resources on `layer`.
fn probe_edge(grid: &RouteGrid, layer: u16, x: u16, y: u16) -> Option<crp_grid::Edge> {
    if grid.planar_edge_exists(layer, x, y) {
        return Some(crp_grid::Edge::planar(layer, x, y));
    }
    // Border gcell: use the edge arriving from the previous gcell.
    match grid.axis(layer) {
        crp_geom::Axis::X if x > 0 => Some(crp_grid::Edge::planar(layer, x - 1, y)),
        crp_geom::Axis::Y if y > 0 => Some(crp_grid::Edge::planar(layer, x, y - 1)),
        _ => None,
    }
}

/// Stub wirelength from a pin's physical position to its gcell's track
/// fabric (half the distance to the gcell center — a deterministic proxy
/// for the access-point hookup TritonRoute would synthesize).
fn pin_stub_length(design: &Design, grid: &RouteGrid, pin: PinId) -> Dbu {
    let pos = design.pin_position(pin);
    let (x, y) = grid.gcell_of(pos);
    pos.manhattan(grid.gcell_center(x, y)) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_grid::GridConfig;
    use crp_netlist::{DesignBuilder, MacroCell};
    use crp_router::{GlobalRouter, NetRoute, RouterConfig, ViaStack};

    fn flow() -> (Design, RouteGrid, Routing) {
        let mut b = DesignBuilder::new("dr", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(15, 150, Point::new(0, 0));
        let c: Vec<_> = (0..6)
            .map(|i| b.add_cell(format!("u{i}"), m, Point::new(i * 4800, (i % 3) * 2000 * 4)))
            .collect();
        for i in 0..5 {
            let n = b.add_net(format!("n{i}"));
            b.connect(n, c[i], "Y");
            b.connect(n, c[i + 1], "A");
        }
        let d = b.build();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let routing = GlobalRouter::new(RouterConfig::default()).route_all(&d, &mut grid);
        (d, grid, routing)
    }

    #[test]
    fn clean_flow_has_no_drvs() {
        let (d, grid, routing) = flow();
        let r = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        assert_eq!(r.drc.total(), 0, "unexpected DRVs: {:?}", r.drc);
        assert!(r.wirelength_dbu > 0);
        assert!(r.vias > 0);
        assert_eq!(r.layer_bumps, 0);
    }

    #[test]
    fn open_net_reported() {
        let (d, grid, mut routing) = flow();
        // Destroy one route: its pins (in different gcells) become open.
        routing.routes[0] = NetRoute::empty();
        let r = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        assert_eq!(r.drc.opens, 1);
    }

    #[test]
    fn congestion_produces_layer_bumps() {
        let (d, grid, mut routing) = flow();
        // Pile 40 copies of the same horizontal segment into one route —
        // far beyond one layer's track supply in those gcells.
        let seg = crp_router::RouteSeg::new(1, (0, 0), (4, 0));
        let extra = NetRoute {
            segs: vec![seg; 40],
            vias: vec![ViaStack {
                x: 0,
                y: 0,
                lo: 0,
                hi: 1,
            }],
        };
        routing.routes[0] = extra;
        let r = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        assert!(r.layer_bumps > 0, "expected bumps: {r:?}");
    }

    #[test]
    fn extreme_congestion_produces_shorts() {
        let (d, grid, mut routing) = flow();
        let seg = crp_router::RouteSeg::new(1, (0, 0), (4, 0));
        // Enough copies to exhaust every X layer plus slack.
        let extra = NetRoute {
            segs: vec![seg; 200],
            vias: vec![],
        };
        routing.routes[0] = extra;
        let r = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        assert!(r.drc.shorts > 0, "expected shorts: {:?}", r.drc);
        assert!(r.detours > 0);
    }

    #[test]
    fn wirelength_scales_with_route_length() {
        let (d, grid, routing) = flow();
        let base = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        // Double one route's segments artificially.
        let mut longer = routing.clone();
        let mut r0 = longer.routes[0].clone();
        let dup = r0.segs.clone();
        r0.segs.extend(
            dup.iter()
                .map(|s| crp_router::RouteSeg::new(s.layer + 2, s.from, s.to)),
        );
        longer.routes[0] = r0;
        let more = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &longer);
        assert!(more.wirelength_dbu > base.wirelength_dbu);
    }

    #[test]
    fn deterministic() {
        let (d, grid, routing) = flow();
        let dr = DetailedRouter::new(DrConfig::default());
        let a = dr.run(&d, &grid, &routing);
        let b = dr.run(&d, &grid, &routing);
        assert_eq!(a, b);
    }

    #[test]
    fn wirelength_at_least_guide_length() {
        // The realized wirelength is never below the guide's raw length
        // (detours and stubs only add).
        let (d, grid, routing) = flow();
        let r = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        let guide_dbu: i64 = routing
            .routes
            .iter()
            .map(|nr| nr.wirelength() as i64 * grid.config().gcell_size)
            .sum();
        assert!(r.wirelength_dbu >= guide_dbu);
    }

    #[test]
    fn vias_at_least_guide_vias() {
        let (d, grid, routing) = flow();
        let r = DetailedRouter::new(DrConfig::default()).run(&d, &grid, &routing);
        assert!(r.vias >= routing.total_vias());
    }

    #[test]
    fn tighter_slack_never_reduces_drvs() {
        let (d, grid, mut routing) = flow();
        // Overload one corridor so escapes matter.
        let seg = crp_router::RouteSeg::new(1, (0, 0), (4, 0));
        routing.routes[0] = NetRoute {
            segs: vec![seg; 120],
            vias: vec![],
        };
        let loose = DetailedRouter::new(DrConfig {
            slack_tracks: 4,
            ..DrConfig::default()
        })
        .run(&d, &grid, &routing);
        let tight = DetailedRouter::new(DrConfig {
            slack_tracks: 0,
            ..DrConfig::default()
        })
        .run(&d, &grid, &routing);
        assert!(
            tight.drc.total() >= loose.drc.total(),
            "tight {:?} vs loose {:?}",
            tight.drc,
            loose.drc
        );
    }

    #[test]
    fn pin_stub_is_bounded_by_gcell() {
        let (d, grid, _) = flow();
        for (_, net) in d.nets() {
            for &p in &net.pins {
                let stub = pin_stub_length(&d, &grid, p);
                assert!(stub >= 0);
                assert!(stub <= grid.config().gcell_size);
            }
        }
    }
}
