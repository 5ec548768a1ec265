//! Flow checkpoints: the complete resumable state of a job between
//! iterations.
//!
//! A checkpoint captures exactly what [`Crp::run_iteration`] consumes:
//!
//! - every movable cell's position and orientation (the placement),
//! - every net's committed route (segments + via stacks),
//! - the grid's congestion epoch (demand counters are *not* stored — they
//!   are a pure function of the committed routes and are rebuilt by
//!   recommitting, which the invariant oracle's `check_demand_exact`
//!   guarantees),
//! - the engine's [`FlowState`] (history sets, RNG `(seed, draws)`,
//!   accumulated timers).
//!
//! Restoring onto the job's base design (regenerated profile or
//! re-parsed LEF/DEF) yields a flow that continues **bit-identically**:
//! the RNG stream replays to the exact draw, the history sets reload,
//! and rerouting depends only on grid state reproduced by recommit.
//! Checkpoint writes are atomic (a spare file that then takes the
//! checkpoint's name, see `persist`), so a crash while checkpointing
//! leaves the previous checkpoint intact, never a torn one.
//!
//! The module also holds the one codec of each per-iteration record a
//! watch event carries: [`IterationReport`], [`StageTimers`] and
//! [`GpIterStats`].

use crate::error::ServeError;
use crate::json::{parse, Json};
use crate::persist::replace_file;
use crp_core::{Crp, CrpConfig, FlowState, IterationReport, StageTimers};
use crp_geom::{Orientation, Point};
use crp_gp::{GpIterStats, GpState};
use crp_grid::{GridConfig, RouteGrid};
use crp_netlist::{CellId, Design};
use crp_router::{NetRoute, RouteSeg, Routing, ViaStack};
use std::path::Path;
use std::time::Duration;

/// Format version written into every checkpoint; readers reject others.
const VERSION: i128 = 1;

/// One movable cell's saved placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedCell {
    /// The cell.
    pub cell: CellId,
    /// Position in DBU.
    pub pos: Point,
    /// Orientation, encoded as its index in [`Orientation::ALL`].
    pub orient: Orientation,
}

/// A job's full resumable flow state. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Iterations completed so far.
    pub iterations_done: usize,
    /// Total iterations the job was submitted with.
    pub iterations_total: usize,
    /// Grid congestion epoch at capture time.
    pub grid_epoch: u64,
    /// Engine state (history sets, RNG, timers).
    pub flow: FlowState,
    /// Movable cells' positions and orientations.
    pub cells: Vec<SavedCell>,
    /// Per-net routes, indexed by net id.
    pub routes: Vec<NetRoute>,
}

impl Checkpoint {
    /// Captures the current flow state.
    #[must_use]
    pub fn capture(
        design: &Design,
        grid: &RouteGrid,
        routing: &Routing,
        crp: &Crp,
        iterations_done: usize,
        iterations_total: usize,
    ) -> Checkpoint {
        let cells = design
            .cell_ids()
            .filter(|&c| !design.cell(c).fixed)
            .map(|c| {
                let cell = design.cell(c);
                SavedCell {
                    cell: c,
                    pos: cell.pos,
                    orient: cell.orient,
                }
            })
            .collect();
        Checkpoint {
            iterations_done,
            iterations_total,
            grid_epoch: grid.epoch(),
            flow: crp.snapshot(),
            cells,
            routes: routing.routes.clone(),
        }
    }

    /// Rebuilds the live flow objects on top of `design` (the job's base
    /// design): applies saved positions, reconstructs the grid by
    /// recommitting every saved route, fast-forwards the congestion
    /// epoch, and revives the engine. Returns `(grid, routing, crp)`.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the checkpoint does not match the
    /// design (unknown cell/net ids) — the telltale of restoring against
    /// the wrong base input.
    pub fn restore(
        &self,
        design: &mut Design,
        config: CrpConfig,
    ) -> Result<(RouteGrid, Routing, Crp), ServeError> {
        for saved in &self.cells {
            if saved.cell.index() >= design.num_cells() {
                return Err(ServeError::new(format!(
                    "checkpoint cell {} not in base design ({} cells)",
                    saved.cell.0,
                    design.num_cells()
                )));
            }
            if design.cell(saved.cell).fixed {
                return Err(ServeError::new(format!(
                    "checkpoint cell {} is fixed in the base design",
                    saved.cell.0
                )));
            }
            design.move_cell(saved.cell, saved.pos, saved.orient);
        }
        if self.routes.len() != design.num_nets() {
            return Err(ServeError::new(format!(
                "checkpoint has {} routes, base design has {} nets",
                self.routes.len(),
                design.num_nets()
            )));
        }
        let mut grid = RouteGrid::try_new(design, GridConfig::default())
            .map_err(|e| ServeError::new(format!("grid rebuild failed: {e}")))?;
        let routing = Routing {
            routes: self.routes.clone(),
        };
        for route in &routing.routes {
            route.commit(&mut grid);
        }
        grid.fast_forward_epoch(self.grid_epoch);
        let crp = Crp::restore(config, &self.flow);
        Ok((grid, routing, crp))
    }

    /// Serializes the checkpoint.
    // crp-lint: checkpoint(Checkpoint, to_json, from_json)
    // crp-lint: checkpoint(SavedCell, to_json, from_json)
    // crp-lint: checkpoint(FlowState, to_json, from_json)
    #[must_use]
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|s| {
            let orient = Orientation::ALL
                .iter()
                .position(|&o| o == s.orient)
                .unwrap_or(0);
            int_row_to_json([
                i128::from(s.cell.0),
                i128::from(s.pos.x),
                i128::from(s.pos.y),
                orient as i128,
            ])
        });
        let routes = self.routes.iter().map(|r| {
            let segs = r.segs.iter().map(|s| {
                int_row_to_json([s.layer, s.from.0, s.from.1, s.to.0, s.to.1].map(i128::from))
            });
            let vias = r
                .vias
                .iter()
                .map(|v| int_row_to_json([v.x, v.y, v.lo, v.hi].map(i128::from)));
            Json::obj(vec![
                ("segs", Json::Arr(segs.collect())),
                ("vias", Json::Arr(vias.collect())),
            ])
        });
        let ids = |cells: &[CellId]| int_row_to_json(cells.iter().map(|c| i128::from(c.0)));
        let flow = Json::obj(vec![
            ("rng_seed", Json::Int(i128::from(self.flow.rng_seed))),
            ("rng_draws", Json::Int(i128::from(self.flow.rng_draws))),
            ("critical_hist", ids(&self.flow.critical_hist)),
            ("moved_set", ids(&self.flow.moved_set)),
            ("timers", timers_to_json(&self.flow.timers)),
        ]);
        Json::obj(vec![
            ("version", Json::Int(VERSION)),
            ("iterations_done", Json::Int(self.iterations_done as i128)),
            ("iterations_total", Json::Int(self.iterations_total as i128)),
            ("grid_epoch", Json::Int(i128::from(self.grid_epoch))),
            ("flow", flow),
            ("cells", Json::Arr(cells.collect())),
            ("routes", Json::Arr(routes.collect())),
        ])
    }

    /// Parses a checkpoint. Members it does not read are ignored, so a
    /// checkpoint that still lists its iterations' `reports` loads too.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on version mismatch or any malformed
    /// field.
    pub fn from_json(v: &Json) -> Result<Checkpoint, ServeError> {
        if v.get("version").and_then(Json::as_i64) != Some(1) {
            return Err(ServeError::new("unsupported checkpoint version"));
        }
        let iterations_done = req_usize(v, "iterations_done")?;
        let iterations_total = req_usize(v, "iterations_total")?;
        let grid_epoch = req_u64(v, "grid_epoch")?;
        let flow_json = req(v, "flow")?;
        let flow = FlowState {
            rng_seed: req_u64(flow_json, "rng_seed")?,
            rng_draws: req_u64(flow_json, "rng_draws")?,
            critical_hist: cell_list(flow_json, "critical_hist")?,
            moved_set: cell_list(flow_json, "moved_set")?,
            timers: timers_from_json(req(flow_json, "timers")?)?,
        };
        let mut cells = Vec::new();
        for item in req_arr(v, "cells")? {
            let f = int_row::<4>(item, "cells")?;
            let orient = usize::try_from(f[3])
                .ok()
                .and_then(|i| Orientation::ALL.get(i).copied())
                .ok_or_else(|| ServeError::new("bad orientation index"))?;
            cells.push(SavedCell {
                cell: CellId(to_u32(f[0])?),
                pos: Point::new(to_i64(f[1])?, to_i64(f[2])?),
                orient,
            });
        }
        let mut routes = Vec::new();
        for item in req_arr(v, "routes")? {
            let mut route = NetRoute::empty();
            for seg in req_arr(item, "segs")? {
                let f = int_row::<5>(seg, "segs")?;
                route.segs.push(RouteSeg::new(
                    to_u16(f[0])?,
                    (to_u16(f[1])?, to_u16(f[2])?),
                    (to_u16(f[3])?, to_u16(f[4])?),
                ));
            }
            for via in req_arr(item, "vias")? {
                let f = int_row::<4>(via, "vias")?;
                route.vias.push(ViaStack {
                    x: to_u16(f[0])?,
                    y: to_u16(f[1])?,
                    lo: to_u16(f[2])?,
                    hi: to_u16(f[3])?,
                });
            }
            routes.push(route);
        }
        Ok(Checkpoint {
            iterations_done,
            iterations_total,
            grid_epoch,
            flow,
            cells,
            routes,
        })
    }

    /// Writes the checkpoint atomically: serialize into the spare
    /// `<path>.tmp`, which then takes the name `path`. A crash mid-write
    /// leaves the previous checkpoint file untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), ServeError> {
        replace_file(path, self.to_json().to_string().as_bytes())?;
        Ok(())
    }

    /// Loads a checkpoint from `path`; `Ok(None)` when the file does not
    /// exist.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on I/O failure or a malformed file.
    pub fn load(path: &Path) -> Result<Option<Checkpoint>, ServeError> {
        read_json(path)?
            .map(|v| Checkpoint::from_json(&v))
            .transpose()
    }
}

/// Serializes a GP-phase optimizer snapshot — the `place` job's
/// GP-iteration checkpoint payload. `Json::Float` prints the shortest
/// decimal that round-trips, so every f64 in the solver vectors survives
/// bit-exactly and a resumed placer continues bit-identically.
// crp-lint: checkpoint(GpState, gp_state_to_json, gp_state_from_json)
#[must_use]
pub fn gp_state_to_json(s: &GpState) -> Json {
    fn floats(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Float(x)).collect())
    }
    Json::obj(vec![
        ("version", Json::Int(VERSION)),
        ("iter", Json::Int(s.iter as i128)),
        ("lambda", Json::Float(s.lambda)),
        ("ak", Json::Float(s.ak)),
        ("eta", Json::Float(s.eta)),
        ("u_x", floats(&s.u_x)),
        ("u_y", floats(&s.u_y)),
        ("v_x", floats(&s.v_x)),
        ("v_y", floats(&s.v_y)),
        ("v_prev_x", floats(&s.v_prev_x)),
        ("v_prev_y", floats(&s.v_prev_y)),
        ("g_prev_x", floats(&s.g_prev_x)),
        ("g_prev_y", floats(&s.g_prev_y)),
        ("rng_seed", Json::Int(i128::from(s.rng_seed))),
        ("rng_draws", Json::Int(i128::from(s.rng_draws))),
    ])
}

/// Parses a GP-phase optimizer snapshot.
///
/// # Errors
///
/// Returns a [`ServeError`] on version mismatch or any missing or
/// mistyped field. Semantic validation (vector lengths against the
/// design, scalar ranges) is `GlobalPlacer::resume`'s job.
pub fn gp_state_from_json(v: &Json) -> Result<GpState, ServeError> {
    if v.get("version").and_then(Json::as_i64) != Some(1) {
        return Err(ServeError::new("unsupported gp checkpoint version"));
    }
    Ok(GpState {
        iter: req_usize(v, "iter")?,
        lambda: req_f64(v, "lambda")?,
        ak: req_f64(v, "ak")?,
        eta: req_f64(v, "eta")?,
        u_x: f64_list(v, "u_x")?,
        u_y: f64_list(v, "u_y")?,
        v_x: f64_list(v, "v_x")?,
        v_y: f64_list(v, "v_y")?,
        v_prev_x: f64_list(v, "v_prev_x")?,
        v_prev_y: f64_list(v, "v_prev_y")?,
        g_prev_x: f64_list(v, "g_prev_x")?,
        g_prev_y: f64_list(v, "g_prev_y")?,
        rng_seed: req_u64(v, "rng_seed")?,
        rng_draws: req_u64(v, "rng_draws")?,
    })
}

/// Writes a GP snapshot atomically (same discipline as
/// [`Checkpoint::save`]).
///
/// # Errors
///
/// Returns a [`ServeError`] on I/O failure.
pub fn save_gp_state(state: &GpState, path: &Path) -> Result<(), ServeError> {
    replace_file(path, gp_state_to_json(state).to_string().as_bytes())?;
    Ok(())
}

/// Loads a GP snapshot from `path`; `Ok(None)` when the file does not
/// exist.
///
/// # Errors
///
/// Returns a [`ServeError`] on I/O failure or a malformed file.
pub fn load_gp_state(path: &Path) -> Result<Option<GpState>, ServeError> {
    read_json(path)?.map(|v| gp_state_from_json(&v)).transpose()
}

/// Parses the JSON file at `path`; `Ok(None)` when it does not exist.
fn read_json(path: &Path) -> Result<Option<Json>, ServeError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(parse(&text)?)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Serializes an [`IterationReport`].
// crp-lint: checkpoint(IterationReport, report_to_json, report_from_json)
#[must_use]
pub fn report_to_json(r: &IterationReport) -> Json {
    Json::obj(vec![
        ("iteration", Json::Int(r.iteration as i128)),
        ("critical_cells", Json::Int(r.critical_cells as i128)),
        ("candidates", Json::Int(r.candidates as i128)),
        ("moved_cells", Json::Int(r.moved_cells as i128)),
        ("rerouted_nets", Json::Int(r.rerouted_nets as i128)),
        ("cost_before", Json::Float(r.cost_before)),
        ("cost_after", Json::Float(r.cost_after)),
    ])
}

/// Parses an [`IterationReport`].
///
/// # Errors
///
/// Returns a [`ServeError`] on any missing or mistyped field.
pub fn report_from_json(v: &Json) -> Result<IterationReport, ServeError> {
    Ok(IterationReport {
        iteration: req_usize(v, "iteration")?,
        critical_cells: req_usize(v, "critical_cells")?,
        candidates: req_usize(v, "candidates")?,
        moved_cells: req_usize(v, "moved_cells")?,
        rerouted_nets: req_usize(v, "rerouted_nets")?,
        cost_before: req_f64(v, "cost_before")?,
        cost_after: req_f64(v, "cost_after")?,
    })
}

/// Serializes a GP iteration's stats as the `report` and `timers` of
/// its watch event. GP has no routing, so the report's route counters
/// are zero and its cost pair holds the smooth WA wirelength and the
/// exact HPWL; the timers hold the density overflow and weight.
// crp-lint: checkpoint(GpIterStats, gp_stats_to_json, gp_stats_from_json)
#[must_use]
pub(crate) fn gp_stats_to_json(s: &GpIterStats) -> (Json, Json) {
    let report = IterationReport {
        iteration: s.iter,
        cost_before: s.wl,
        cost_after: s.hpwl,
        ..IterationReport::default()
    };
    let timers = Json::obj(vec![
        ("gp_overflow", Json::Float(s.overflow)),
        ("gp_lambda", Json::Float(s.lambda)),
    ]);
    (report_to_json(&report), timers)
}

/// Parses what [`gp_stats_to_json`] wrote.
///
/// # Errors
///
/// Returns a [`ServeError`] on any missing or mistyped field.
pub(crate) fn gp_stats_from_json(report: &Json, timers: &Json) -> Result<GpIterStats, ServeError> {
    let report = report_from_json(report)?;
    Ok(GpIterStats {
        iter: report.iteration,
        wl: report.cost_before,
        hpwl: report.cost_after,
        overflow: req_f64(timers, "gp_overflow")?,
        lambda: req_f64(timers, "gp_lambda")?,
    })
}

/// Serializes [`StageTimers`]: each stage and their `total_ns` in
/// integer nanoseconds, the price-cache counters, and the hit rate
/// (`null` before the first lookup). The total and the rate are derived,
/// and [`timers_from_json`] ignores them.
// crp-lint: checkpoint(StageTimers, timers_to_json, timers_from_json)
#[must_use]
pub(crate) fn timers_to_json(t: &StageTimers) -> Json {
    Json::obj(vec![
        ("label_ns", dur(t.label)),
        ("gcp_ns", dur(t.gcp)),
        ("ecc_ns", dur(t.ecc)),
        ("select_ns", dur(t.select)),
        ("update_ns", dur(t.update)),
        ("total_ns", dur(t.total())),
        ("ecc_cache_hits", Json::Int(i128::from(t.ecc_cache_hits))),
        (
            "ecc_cache_misses",
            Json::Int(i128::from(t.ecc_cache_misses)),
        ),
        (
            "ecc_cache_hit_rate",
            t.ecc_cache_hit_rate().map_or(Json::Null, Json::Float),
        ),
    ])
}

fn dur(d: Duration) -> Json {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    Json::Int(i128::from(ns))
}

/// Parses [`StageTimers`] from the seven stored values.
///
/// # Errors
///
/// Returns a [`ServeError`] on any missing or mistyped field.
pub(crate) fn timers_from_json(v: &Json) -> Result<StageTimers, ServeError> {
    Ok(StageTimers {
        label: Duration::from_nanos(req_u64(v, "label_ns")?),
        gcp: Duration::from_nanos(req_u64(v, "gcp_ns")?),
        ecc: Duration::from_nanos(req_u64(v, "ecc_ns")?),
        select: Duration::from_nanos(req_u64(v, "select_ns")?),
        update: Duration::from_nanos(req_u64(v, "update_ns")?),
        ecc_cache_hits: req_u64(v, "ecc_cache_hits")?,
        ecc_cache_misses: req_u64(v, "ecc_cache_misses")?,
    })
}

/// The member `key` of `v`.
pub(crate) fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
    v.get(key)
        .ok_or_else(|| ServeError::new(format!("missing `{key}`")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, ServeError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::new(format!("missing integer `{key}`")))
}

pub(crate) fn req_usize(v: &Json, key: &str) -> Result<usize, ServeError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ServeError::new(format!("missing integer `{key}`")))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, ServeError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ServeError::new(format!("missing number `{key}`")))
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ServeError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::new(format!("missing array `{key}`")))
}

/// Writes a row of integers (`[a, b, ...]`).
fn int_row_to_json(row: impl IntoIterator<Item = i128>) -> Json {
    Json::Arr(row.into_iter().map(Json::Int).collect())
}

/// Reads a fixed-width row of integers (`[a, b, ...]`).
fn int_row<const N: usize>(v: &Json, what: &str) -> Result<[i128; N], ServeError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| ServeError::new(format!("`{what}` entry is not an array")))?;
    if arr.len() != N {
        return Err(ServeError::new(format!(
            "`{what}` entry has {} fields, expected {N}",
            arr.len()
        )));
    }
    let mut out = [0i128; N];
    for (slot, item) in out.iter_mut().zip(arr) {
        match item {
            Json::Int(i) => *slot = *i,
            _ => return Err(ServeError::new(format!("`{what}` entry is not integer"))),
        }
    }
    Ok(out)
}

fn f64_list(v: &Json, key: &str) -> Result<Vec<f64>, ServeError> {
    req_arr(v, key)?
        .iter()
        .map(|j| {
            j.as_f64()
                .ok_or_else(|| ServeError::new(format!("`{key}` entries must be numbers")))
        })
        .collect()
}

fn cell_list(v: &Json, key: &str) -> Result<Vec<CellId>, ServeError> {
    req_arr(v, key)?
        .iter()
        .map(|j| match j {
            Json::Int(i) => u32::try_from(*i)
                .map(CellId)
                .map_err(|_| ServeError::new(format!("`{key}` id out of range"))),
            _ => Err(ServeError::new(format!("`{key}` entries must be integers"))),
        })
        .collect()
}

fn to_u32(i: i128) -> Result<u32, ServeError> {
    u32::try_from(i).map_err(|_| ServeError::new("value out of u32 range"))
}

fn to_u16(i: i128) -> Result<u16, ServeError> {
    u16::try_from(i).map_err(|_| ServeError::new("value out of u16 range"))
}

fn to_i64(i: i128) -> Result<i64, ServeError> {
    i64::try_from(i).map_err(|_| ServeError::new("value out of i64 range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_router::{GlobalRouter, RouterConfig};
    use crp_workload::ispd18_profiles;

    fn small_flow() -> (Design, RouteGrid, GlobalRouter, Routing) {
        let design = ispd18_profiles()[0].scaled(800.0).generate();
        let mut grid = RouteGrid::new(&design, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let routing = router.route_all(&design, &mut grid);
        (design, grid, router, routing)
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let (mut design, mut grid, mut router, mut routing) = small_flow();
        let mut crp = Crp::new(CrpConfig::default());
        crp.run_iteration(0, &mut design, &mut grid, &mut router, &mut routing);
        let ckpt = Checkpoint::capture(&design, &grid, &routing, &crp, 1, 3);
        let json = ckpt.to_json().to_string();
        let back = Checkpoint::from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn restore_rebuilds_an_identical_flow() {
        let (mut design, mut grid, mut router, mut routing) = small_flow();
        let cfg = CrpConfig::default();
        let mut crp = Crp::new(cfg);
        crp.run_iteration(0, &mut design, &mut grid, &mut router, &mut routing);
        let ckpt = Checkpoint::capture(&design, &grid, &routing, &crp, 1, 2);

        // Continue the original run.
        let r1 = crp.run_iteration(1, &mut design, &mut grid, &mut router, &mut routing);

        // Restore onto a fresh base design and continue from there.
        let mut design2 = ispd18_profiles()[0].scaled(800.0).generate();
        let (mut grid2, mut routing2, mut crp2) = ckpt.restore(&mut design2, cfg).unwrap();
        let mut router2 = GlobalRouter::new(RouterConfig::default());
        let r2 = crp2.run_iteration(1, &mut design2, &mut grid2, &mut router2, &mut routing2);

        assert_eq!(r2, r1, "resumed iteration diverged");
        let pos: Vec<_> = design.cell_ids().map(|c| design.cell(c).pos).collect();
        let pos2: Vec<_> = design2.cell_ids().map(|c| design2.cell(c).pos).collect();
        assert_eq!(pos, pos2, "final placements diverged");
        assert_eq!(routing.routes, routing2.routes, "final routes diverged");
    }

    #[test]
    fn save_load_atomic_and_missing_is_none() {
        let (design, grid, _router, routing) = small_flow();
        let crp = Crp::new(CrpConfig::default());
        let ckpt = Checkpoint::capture(&design, &grid, &routing, &crp, 0, 1);
        let dir = std::env::temp_dir().join(format!("crp-serve-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        assert!(Checkpoint::load(&path).unwrap().is_none());
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap().unwrap();
        assert_eq!(back, ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_against_wrong_design_errors() {
        let (design, grid, _router, routing) = small_flow();
        let crp = Crp::new(CrpConfig::default());
        let ckpt = Checkpoint::capture(&design, &grid, &routing, &crp, 0, 1);
        // A different profile: different cell/net counts.
        let mut other = ispd18_profiles()[1].scaled(800.0).generate();
        assert!(ckpt.restore(&mut other, CrpConfig::default()).is_err());
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let bad = parse("{\"version\":2}").unwrap();
        assert!(Checkpoint::from_json(&bad).is_err());
        assert!(gp_state_from_json(&bad).is_err());
    }

    /// Deliberately awkward values: non-terminating binary fractions,
    /// subnormal-adjacent magnitudes, huge magnitudes. All must come back
    /// with the exact same bits.
    fn nasty_gp_state() -> GpState {
        GpState {
            iter: 5,
            lambda: 0.1 + 0.2,
            ak: (1.0 + 5f64.sqrt()) / 2.0,
            eta: 1e-300,
            u_x: vec![1.0 / 3.0, 6.02e23, -7.25],
            u_y: vec![2.0 / 7.0, 1e-17, 9_999_999.000_000_1],
            v_x: vec![0.0, -1.5, 1.0 + f64::EPSILON],
            v_y: vec![3.25, 1e300, -1e-12],
            v_prev_x: vec![0.125, 0.1, 0.3],
            v_prev_y: vec![-0.7, 2e-8, 4.0],
            g_prev_x: vec![1e-13, -3e5, 0.0],
            g_prev_y: vec![8.0, -0.001, 123.456],
            rng_seed: u64::MAX,
            rng_draws: 48,
        }
    }

    #[test]
    fn gp_state_roundtrips_bit_exactly() {
        let state = nasty_gp_state();
        let json = gp_state_to_json(&state).to_string();
        let back = gp_state_from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(back, state);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.u_x), bits(&state.u_x));
        assert_eq!(bits(&back.g_prev_x), bits(&state.g_prev_x));
        assert_eq!(back.lambda.to_bits(), state.lambda.to_bits());
        assert_eq!(back.eta.to_bits(), state.eta.to_bits());
    }

    #[test]
    fn gp_state_save_load_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("crp-serve-gpckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gp_checkpoint.json");
        assert!(load_gp_state(&path).unwrap().is_none());
        let state = nasty_gp_state();
        save_gp_state(&state, &path).unwrap();
        assert_eq!(load_gp_state(&path).unwrap().unwrap(), state);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
