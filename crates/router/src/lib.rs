//! 3D global routing for the CR&P flow.
//!
//! This crate plays the role CUGR plays in the paper: it produces and
//! maintains a 3D global-routing solution on the
//! [`RouteGrid`](crp_grid::RouteGrid), and it prices hypothetical net
//! topologies for the CR&P candidate-cost estimation (Algorithm 3).
//!
//! The pipeline per net:
//!
//! 1. build a Steiner topology over the net's pins ([`crp_rsmt`]),
//! 2. route each tree edge as an L/Z **pattern** on the 2D grid, choosing
//!    the corner with the cheapest congestion-aware cost,
//! 3. assign each straight segment to a concrete layer of matching
//!    preferred direction (cheapest total Eq. 10 cost),
//! 4. connect segments, and pins, with via stacks at the junction gcells.
//!
//! Rip-up-and-reroute rounds then target overflowed edges with a 3D **maze
//! router** (Dijkstra with PathFinder-style history costs) until the
//! solution converges. [`pattern_route_tree`] runs steps 1–4 without
//! touching the grid, and [`NetRoute::cost`] prices the result: CR&P
//! estimates `cost_c^p` with that pair (Algorithm 3), under each net's
//! self-usage discount. Every edge cost in the crate, in pattern choice,
//! layer assignment, the layer DP, the maze and route pricing, comes from
//! one Eq. 10 pricer with an optional history and an optional discount.
//! Grid nodes are [`Gcell`](crp_grid::Gcell)s throughout.
//!
//! # Examples
//!
//! ```
//! use crp_router::{GlobalRouter, RouterConfig};
//! use crp_grid::{GridConfig, RouteGrid};
//! # use crp_netlist::{DesignBuilder, MacroCell};
//! # use crp_geom::Point;
//! # let mut b = DesignBuilder::new("d", 1000);
//! # b.site(200, 2000);
//! # let m = b.add_macro(MacroCell::new("INV", 400, 2000).with_pin("A", 100, 1000, 0));
//! # b.add_rows(10, 100, Point::new(0, 0));
//! # let c0 = b.add_cell("u0", m, Point::new(0, 0));
//! # let c1 = b.add_cell("u1", m, Point::new(12_000, 8_000));
//! # let n = b.add_net("n0");
//! # b.connect(n, c0, "A");
//! # b.connect(n, c1, "A");
//! # let design = b.build();
//! let mut grid = RouteGrid::new(&design, GridConfig::default());
//! let mut router = GlobalRouter::new(RouterConfig::default());
//! let routing = router.route_all(&design, &mut grid);
//! assert!(routing.is_fully_connected(&design, &grid));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod global;
mod layerdp;
mod maze;
mod pattern;
mod route;

pub use global::{GlobalRouter, RouterConfig};
pub use layerdp::reassign_layers;
pub use maze::maze_route;
pub use pattern::pattern_route_tree;
pub use route::{net_pin_nodes, NetRoute, RouteSeg, Routing, ViaStack};
