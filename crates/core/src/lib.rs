//! CR&P: an efficient co-operation between routing and placement.
//!
//! This crate is the reproduction of the paper's contribution (DATE 2022):
//! an iterative replacement-and-rerouting framework that sits between
//! global routing and detailed routing. Each iteration runs five steps:
//!
//! 1. **Label critical cells** (Algorithm 1, [`label_critical_cells`]) —
//!    cells are ranked by the routed cost of their nets; a greedy pass
//!    selects a set of mutually unconnected cells, damping the re-selection
//!    of previously touched cells with `exp(-(hist_c + hist_m))`.
//! 2. **Generate candidate positions** (Algorithm 2, [`Legalizer`]) — an
//!    ILP-based legalizer explores a `N_site × N_row` window around each
//!    critical cell and returns legal positions together with displaced
//!    ("conflict") cells' new legal positions.
//! 3. **Estimate candidate cost** (Algorithm 3, [`estimate_candidates`]) —
//!    every candidate is priced by Steiner-topology 3D pattern routing
//!    with the congestion-aware Eq. 10 edge cost.
//! 4. **Select** (Eq. 12, [`select_candidates`]) — one candidate per
//!    critical cell via an exact 0-1 ILP with spatial conflicts.
//! 5. **Update database** ([`Crp::run_iteration`]) — selected moves are
//!    applied, their nets are ripped up and rerouted by the global router,
//!    and the congestion maps refresh implicitly through the shared
//!    [`RouteGrid`](crp_grid::RouteGrid).
//!
//! [`MedianMover`] reimplements the state-of-the-art comparison point
//! ("ILP-based global routing optimization with cell movements", reference
//! \[18\] of the paper): every cell is pushed toward its net median with no
//! congestion term and no prioritization, through one joint ILP.
//!
//! # Examples
//!
//! ```no_run
//! use crp_core::{Crp, CrpConfig};
//! use crp_router::{GlobalRouter, RouterConfig};
//! use crp_grid::{GridConfig, RouteGrid};
//! use crp_workload::ispd18_profiles;
//!
//! let mut design = ispd18_profiles()[0].scaled(200.0).generate();
//! let mut grid = RouteGrid::new(&design, GridConfig::default());
//! let mut router = GlobalRouter::new(RouterConfig::default());
//! let mut routing = router.route_all(&design, &mut grid);
//!
//! let mut crp = Crp::new(CrpConfig::default());
//! let reports = crp.run(10, &mut design, &mut grid, &mut router, &mut routing);
//! assert_eq!(reports.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod candidate;
mod config;
mod estimate;
mod flow;
mod label;
mod legalizer;
mod median_move;
mod parallel;
mod price_cache;
mod replay_rng;
mod select;
mod timers;

pub use candidate::Candidate;
pub use config::CrpConfig;
/// The invariant-check tier driving the per-phase oracle (re-exported
/// from [`crp_check`] so configuring the flow needs no extra import).
pub use crp_check::CheckLevel;
pub use estimate::{
    check_price_consistency, estimate_candidates, estimate_candidates_cached, price_cell_nets,
    price_cell_nets_with, PriceScratch,
};
pub use flow::{Crp, FlowState, IterationReport};
pub use label::label_critical_cells;
pub use legalizer::Legalizer;
pub use median_move::{MedianMoveOutcome, MedianMover, MedianMoverConfig};
pub use parallel::run_indexed;
pub use price_cache::{PriceCache, PriceRegion};
pub use replay_rng::ReplayRng;
pub use select::select_candidates;
pub use timers::StageTimers;
