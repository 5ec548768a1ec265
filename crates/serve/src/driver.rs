//! The per-job flow driver: builds the design, runs CR&P iterations,
//! checkpoints at iteration boundaries, and emits progress events.
//!
//! The driver is deliberately ignorant of scheduling — it receives its
//! thread budget and two control flags (`cancel`, `pause`) and reports
//! back through a [`RunOutcome`]. All state it needs to resume lives in
//! the job directory, so the scheduler can re-dispatch a paused or
//! crashed job at any time, on any worker.

use crate::checkpoint::{
    load_gp_state, report_from_json, report_to_json, save_gp_state, Checkpoint,
};
use crate::error::ServeError;
use crate::json::{parse, Json};
use crate::persist::remove_spares;
use crate::spec::{JobMode, JobSpec, Workload};
use crp_core::{Crp, IterationReport};
use crp_gp::{legalize_abacus, strip_placement, GlobalPlacer, GpConfig, GpIterStats};
use crp_grid::{GridConfig, RouteGrid};
use crp_lefdef::{parse_def, parse_lef, write_def, write_guides};
use crp_netlist::Design;
use crp_router::{GlobalRouter, RouterConfig};
use crp_workload::{ispd18_profiles, netlist_only_profiles};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// File name of a job's CR&P checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";
/// File name of a `place` job's GP-phase checkpoint. Kept separate from
/// the CR&P checkpoint: the two phases have disjoint state, and the
/// presence of a CR&P checkpoint is what marks the GP phase finished.
pub const GP_CHECKPOINT_FILE: &str = "gp_checkpoint.json";
/// File name of a finished job's placed-and-routed DEF.
pub const RESULT_DEF_FILE: &str = "result.def";
/// File name of a finished job's route guides.
pub const RESULT_GUIDE_FILE: &str = "result.guide";

/// One per-iteration progress event, streamed to `watch` subscribers.
///
/// For `place` jobs the iteration index runs over the *combined* range:
/// GP iterations first (`0..gp_iterations`), then CR&P iterations offset
/// by `gp_iterations`, with `total = gp_iterations + iterations`. GP
/// events carry a synthesized report — no routing exists yet, so the
/// route-centric counters are zero, `cost_before`/`cost_after` hold the
/// smooth WA wirelength and the exact HPWL, and `timers_json` carries
/// the density overflow and weight instead of stage timers.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// 0-based iteration that just completed.
    pub iteration: usize,
    /// Total iterations the job will run.
    pub total: usize,
    /// The iteration's statistics.
    pub report: IterationReport,
    /// Accumulated `StageTimers::to_json()` output, verbatim — the same
    /// JSON the `crp-bench` tooling prints, including the price-cache
    /// hit/miss counters.
    pub timers_json: String,
}

impl WatchEvent {
    /// Serializes the event for the wire and for the job's
    /// `events.jsonl`. The `timers` field embeds `timers_json` as-is (it
    /// is already canonical JSON; a parse failure would be a bug and
    /// degrades to a string).
    // crp-lint: checkpoint(WatchEvent, to_json, from_json)
    #[must_use]
    pub fn to_json(&self) -> Json {
        let timers = parse(&self.timers_json).unwrap_or_else(|_| Json::str(&self.timers_json));
        Json::obj(vec![
            ("iteration", Json::Int(self.iteration as i128)),
            ("total", Json::Int(self.total as i128)),
            ("report", report_to_json(&self.report)),
            ("timers", timers),
        ])
    }

    /// Parses what [`WatchEvent::to_json`] wrote. Serializing the result
    /// again gives the same bytes, so an event read back from disk goes
    /// out on the wire exactly as it did live.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on any missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<WatchEvent, ServeError> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| ServeError::new(format!("event without `{key}`")))
        };
        let count = |key: &str| {
            field(key)?
                .as_usize()
                .ok_or_else(|| ServeError::new(format!("event `{key}` is not a count")))
        };
        let timers_json = match field("timers")? {
            Json::Str(degraded) => degraded.clone(),
            timers => timers.to_string(),
        };
        Ok(WatchEvent {
            iteration: count("iteration")?,
            total: count("total")?,
            report: report_from_json(field("report")?)?,
            timers_json,
        })
    }
}

/// How a dispatch of [`run_job`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All iterations ran; results are on disk.
    Finished,
    /// The pause flag was honored at an iteration boundary; a checkpoint
    /// covering all completed iterations is on disk.
    Paused,
    /// The cancel flag was honored; the job will not resume.
    Cancelled,
}

/// Builds the job's base design: the profile regenerated from scratch or
/// the LEF/DEF pair re-parsed. Deterministic, so a resumed job restores
/// onto exactly the design the original run started from.
///
/// # Errors
///
/// Returns a [`ServeError`] for unknown profile names or unreadable /
/// malformed LEF/DEF files.
pub fn build_base_design(workload: &Workload) -> Result<Design, ServeError> {
    match workload {
        Workload::Profile { name, scale } => {
            let profile = ispd18_profiles()
                .into_iter()
                .chain(netlist_only_profiles())
                .find(|p| p.name == *name)
                .ok_or_else(|| ServeError::new(format!("unknown workload profile `{name}`")))?;
            Ok(profile.scaled(*scale).generate())
        }
        Workload::LefDef { lef, def } => {
            let lef_text = std::fs::read_to_string(lef)
                .map_err(|e| ServeError::new(format!("cannot read LEF `{lef}`: {e}")))?;
            let def_text = std::fs::read_to_string(def)
                .map_err(|e| ServeError::new(format!("cannot read DEF `{def}`: {e}")))?;
            let tech =
                parse_lef(&lef_text).map_err(|e| ServeError::new(format!("LEF parse: {e}")))?;
            parse_def(&def_text, &tech).map_err(|e| ServeError::new(format!("DEF parse: {e}")))
        }
    }
}

/// Shapes a GP iteration's stats as a [`WatchEvent`] report: GP has no
/// routing, so the route-centric counters are zero and the cost pair is
/// the smooth WA wirelength and the exact HPWL at the evaluated
/// reference point.
fn gp_report(stats: &GpIterStats) -> IterationReport {
    IterationReport {
        iteration: stats.iter,
        critical_cells: 0,
        candidates: 0,
        moved_cells: 0,
        rerouted_nets: 0,
        cost_before: stats.wl,
        cost_after: stats.hpwl,
    }
}

/// The GP phase has no stage timers; its `timers_json` slot carries the
/// solver's own telemetry instead.
fn gp_timers_json(stats: &GpIterStats) -> String {
    Json::obj(vec![
        ("gp_overflow", Json::Float(stats.overflow)),
        ("gp_lambda", Json::Float(stats.lambda)),
    ])
    .to_string()
}

/// Runs (or resumes) the GP phase of a `place` job: strips the incoming
/// placement (the cold-start proof — nothing of the generator's
/// placement can leak through), spreads with the electrostatic solver,
/// and legalizes with Abacus. Checkpoints the [`crp_gp::GpState`] every
/// `spec.checkpoint_every` iterations and honors `cancel`/`pause` at
/// GP-iteration boundaries, exactly like the CR&P loop.
///
/// Returns `Some(outcome)` when cancel or pause ended the phase early,
/// `None` when the design is legally placed and CR&P should proceed.
fn run_gp_phase(
    spec: &JobSpec,
    design: &mut Design,
    dir: &Path,
    threads: usize,
    cancel: &AtomicBool,
    pause: &AtomicBool,
    on_event: &mut dyn FnMut(WatchEvent),
) -> Result<Option<RunOutcome>, ServeError> {
    let gp_ckpt_path = dir.join(GP_CHECKPOINT_FILE);
    let cfg = GpConfig {
        iterations: spec.gp_iterations,
        bins: spec.gp_bins,
        threads: threads.max(1),
        seed: spec.config.seed,
        ..GpConfig::default()
    };
    strip_placement(design);
    let mut placer = match load_gp_state(&gp_ckpt_path)? {
        Some(state) => GlobalPlacer::resume(design, cfg, state)
            .map_err(|e| ServeError::new(format!("gp checkpoint mismatch: {e}")))?,
        None => GlobalPlacer::new(design, cfg),
    };
    let grand_total = spec.total_iterations();
    while !placer.done() {
        if cancel.load(Ordering::Acquire) {
            return Ok(Some(RunOutcome::Cancelled));
        }
        if pause.load(Ordering::Acquire) {
            save_gp_state(placer.state(), &gp_ckpt_path)?;
            return Ok(Some(RunOutcome::Paused));
        }
        let stats = placer.step();
        on_event(WatchEvent {
            iteration: stats.iter,
            total: grand_total,
            report: gp_report(&stats),
            timers_json: gp_timers_json(&stats),
        });
        let done = placer.state().iter;
        if spec.checkpoint_every > 0
            && done % spec.checkpoint_every == 0
            && done < spec.gp_iterations
        {
            save_gp_state(placer.state(), &gp_ckpt_path)?;
        }
    }
    let targets = placer.positions();
    legalize_abacus(design, &targets)
        .map_err(|e| ServeError::new(format!("legalization failed: {e}")))?;
    Ok(None)
}

/// Runs (or resumes) a job inside `dir` with a granted budget of
/// `threads` workers.
///
/// A fresh start routes the design from scratch; when `dir` holds a
/// checkpoint, the flow is restored from it instead and continues
/// bit-identically with the uninterrupted run. After each iteration the
/// driver emits a [`WatchEvent`], honors `cancel`/`pause`, and — every
/// `spec.checkpoint_every` iterations — atomically rewrites the
/// checkpoint. On completion it writes `result.def` and `result.guide`
/// plus a final checkpoint (whose reports back the `status` verb).
///
/// [`JobMode::Place`] jobs prepend the GP phase ([`run_gp_phase`]): a
/// CR&P checkpoint implies the GP phase already finished (its legalized
/// placement is part of the saved cell positions), so only a place job
/// with no CR&P checkpoint — fresh, or interrupted mid-GP — runs or
/// resumes it. A crash between the two phases replays the GP tail from
/// its own checkpoint deterministically, landing on the identical
/// legalized placement.
///
/// # Errors
///
/// Returns a [`ServeError`] when the base design cannot be built, a
/// checkpoint is unreadable or mismatched, legalization fails, or a
/// result fails to write.
pub fn run_job(
    spec: &JobSpec,
    dir: &Path,
    threads: usize,
    cancel: &AtomicBool,
    pause: &AtomicBool,
    on_event: &mut dyn FnMut(WatchEvent),
) -> Result<RunOutcome, ServeError> {
    let mut config = spec.config;
    config.threads = threads.max(1);

    let mut design = build_base_design(&spec.workload)?;
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let gp_off = spec.gp_phase_iterations();
    let grand_total = spec.total_iterations();

    let loaded = Checkpoint::load(&ckpt_path)?;
    if spec.mode == JobMode::Place && loaded.is_none() {
        if let Some(early) = run_gp_phase(spec, &mut design, dir, threads, cancel, pause, on_event)?
        {
            return Ok(early);
        }
    }

    let (mut grid, mut routing, mut crp, mut reports, start) = match loaded {
        Some(ckpt) => {
            let (grid, routing, crp) = ckpt.restore(&mut design, config)?;
            (
                grid,
                routing,
                crp,
                ckpt.reports.clone(),
                ckpt.iterations_done,
            )
        }
        None => {
            let mut grid = RouteGrid::try_new(&design, GridConfig::default())
                .map_err(|e| ServeError::new(format!("grid build failed: {e}")))?;
            let mut router = GlobalRouter::new(RouterConfig::default());
            let routing = router.route_all(&design, &mut grid);
            (grid, routing, Crp::new(config), Vec::new(), 0)
        }
    };
    // `reroute_net` — the only router entry the flow uses — ignores RRR
    // history, so a fresh router is equivalent to the original instance.
    let mut router = GlobalRouter::new(RouterConfig::default());

    let total = spec.iterations;
    for i in start..total {
        if cancel.load(Ordering::Acquire) {
            return Ok(RunOutcome::Cancelled);
        }
        if pause.load(Ordering::Acquire) {
            Checkpoint::capture(&design, &grid, &routing, &crp, i, total, &reports)
                .save(&ckpt_path)?;
            return Ok(RunOutcome::Paused);
        }
        let report = crp.run_iteration(i, &mut design, &mut grid, &mut router, &mut routing);
        reports.push(report);
        on_event(WatchEvent {
            iteration: gp_off + i,
            total: grand_total,
            report,
            timers_json: crp.timers().to_json(),
        });
        let done = i + 1;
        if spec.checkpoint_every > 0 && done % spec.checkpoint_every == 0 && done < total {
            Checkpoint::capture(&design, &grid, &routing, &crp, done, total, &reports)
                .save(&ckpt_path)?;
        }
    }

    if cancel.load(Ordering::Acquire) {
        return Ok(RunOutcome::Cancelled);
    }
    std::fs::write(dir.join(RESULT_DEF_FILE), write_def(&design))?;
    std::fs::write(
        dir.join(RESULT_GUIDE_FILE),
        write_guides(&design, &grid, &routing),
    )?;
    // Final checkpoint: lets `status` report per-iteration history after
    // completion and makes `Done` recovery trivially idempotent. It is
    // never rewritten, so its spare goes.
    Checkpoint::capture(&design, &grid, &routing, &crp, total, total, &reports).save(&ckpt_path)?;
    remove_spares(&ckpt_path);
    // The GP snapshot is superseded by the final CR&P checkpoint; a
    // leftover would only waste space (it is never consulted once a
    // CR&P checkpoint exists).
    if spec.mode == JobMode::Place {
        let gp_ckpt_path = dir.join(GP_CHECKPOINT_FILE);
        let _ = std::fs::remove_file(&gp_ckpt_path);
        remove_spares(&gp_ckpt_path);
    }
    Ok(RunOutcome::Finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn spec() -> JobSpec {
        JobSpec {
            workload: Workload::Profile {
                name: "ispd18_test1".to_string(),
                scale: 800.0,
            },
            iterations: 3,
            ..JobSpec::default()
        }
    }

    fn place_spec() -> JobSpec {
        JobSpec {
            workload: Workload::Profile {
                name: "gp_fanout".to_string(),
                scale: 400.0,
            },
            iterations: 2,
            mode: JobMode::Place,
            gp_iterations: 6,
            ..JobSpec::default()
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("crp-driver-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fresh_run_finishes_and_writes_results() {
        let dir = tmp_dir("fresh");
        let no = AtomicBool::new(false);
        let mut events = Vec::new();
        let outcome = run_job(&spec(), &dir, 1, &no, &no, &mut |e| events.push(e)).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);
        assert_eq!(events.len(), 3);
        assert!(dir.join(RESULT_DEF_FILE).exists());
        assert!(dir.join(RESULT_GUIDE_FILE).exists());
        let ckpt = Checkpoint::load(&dir.join(CHECKPOINT_FILE))
            .unwrap()
            .unwrap();
        assert_eq!(ckpt.iterations_done, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paused_then_resumed_run_matches_uninterrupted() {
        let s = spec();
        let no = AtomicBool::new(false);

        // Reference: uninterrupted.
        let ref_dir = tmp_dir("ref");
        run_job(&s, &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
        let ref_def = std::fs::read_to_string(ref_dir.join(RESULT_DEF_FILE)).unwrap();
        let ref_guide = std::fs::read_to_string(ref_dir.join(RESULT_GUIDE_FILE)).unwrap();

        // Interrupted: pause after the first iteration, then resume.
        let dir = tmp_dir("resume");
        let pause = AtomicBool::new(false);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |_| {
            pause.store(true, std::sync::atomic::Ordering::Release);
        })
        .unwrap();
        assert_eq!(outcome, RunOutcome::Paused);
        pause.store(false, std::sync::atomic::Ordering::Release);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |_| {}).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);

        let def = std::fs::read_to_string(dir.join(RESULT_DEF_FILE)).unwrap();
        let guide = std::fs::read_to_string(dir.join(RESULT_GUIDE_FILE)).unwrap();
        assert_eq!(def, ref_def, "resumed DEF diverged");
        assert_eq!(guide, ref_guide, "resumed guides diverged");
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_stops_without_results() {
        let dir = tmp_dir("cancel");
        let cancel = AtomicBool::new(true);
        let no = AtomicBool::new(false);
        let outcome = run_job(&spec(), &dir, 1, &cancel, &no, &mut |_| {}).unwrap();
        assert_eq!(outcome, RunOutcome::Cancelled);
        assert!(!dir.join(RESULT_DEF_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn place_job_runs_gp_then_crp_and_finishes() {
        let dir = tmp_dir("place");
        let no = AtomicBool::new(false);
        let mut events = Vec::new();
        let s = place_spec();
        let outcome = run_job(&s, &dir, 1, &no, &no, &mut |e| events.push(e)).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);
        // 6 GP events then 2 CR&P events, one contiguous index range.
        assert_eq!(events.len(), 8);
        for (k, ev) in events.iter().enumerate() {
            assert_eq!(ev.iteration, k);
            assert_eq!(ev.total, 8);
        }
        assert!(events[0].timers_json.contains("gp_overflow"));
        assert!(events[7].timers_json.contains("ecc_cache_hits"));
        assert!(dir.join(RESULT_DEF_FILE).exists());
        assert!(dir.join(RESULT_GUIDE_FILE).exists());
        assert!(
            !dir.join(GP_CHECKPOINT_FILE).exists(),
            "finished place job must drop its GP snapshot"
        );
        // Rewritten files leave no spare behind once the job is done.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, [CHECKPOINT_FILE, RESULT_DEF_FILE, RESULT_GUIDE_FILE]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn place_job_paused_mid_gp_resumes_bit_identically() {
        let s = place_spec();
        let no = AtomicBool::new(false);

        // Reference: uninterrupted.
        let ref_dir = tmp_dir("place-ref");
        run_job(&s, &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
        let ref_def = std::fs::read_to_string(ref_dir.join(RESULT_DEF_FILE)).unwrap();
        let ref_guide = std::fs::read_to_string(ref_dir.join(RESULT_GUIDE_FILE)).unwrap();

        // Interrupted: pause after the second GP iteration, then resume.
        let dir = tmp_dir("place-resume");
        let pause = AtomicBool::new(false);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |e| {
            if e.iteration == 1 {
                pause.store(true, std::sync::atomic::Ordering::Release);
            }
        })
        .unwrap();
        assert_eq!(outcome, RunOutcome::Paused);
        assert!(
            dir.join(GP_CHECKPOINT_FILE).exists(),
            "pause mid-GP must leave a GP snapshot"
        );
        pause.store(false, std::sync::atomic::Ordering::Release);
        let outcome = run_job(&s, &dir, 1, &no, &pause, &mut |_| {}).unwrap();
        assert_eq!(outcome, RunOutcome::Finished);

        let def = std::fs::read_to_string(dir.join(RESULT_DEF_FILE)).unwrap();
        let guide = std::fs::read_to_string(dir.join(RESULT_GUIDE_FILE)).unwrap();
        assert_eq!(def, ref_def, "resumed place-job DEF diverged");
        assert_eq!(guide, ref_guide, "resumed place-job guides diverged");
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_reread_from_json_serialize_to_the_same_bytes() {
        let dir = tmp_dir("events");
        let no = AtomicBool::new(false);
        let mut events = Vec::new();
        run_job(&place_spec(), &dir, 1, &no, &no, &mut |e| events.push(e)).unwrap();
        for ev in &events {
            let line = ev.to_json().to_string();
            let back = WatchEvent::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back.to_json().to_string(), line);
            assert_eq!(back.iteration, ev.iteration);
            assert_eq!(back.report, ev.report);
        }
        assert!(WatchEvent::from_json(&Json::obj(vec![("iteration", Json::Int(0))])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn netlist_only_profiles_are_valid_workloads() {
        let d = build_base_design(&Workload::Profile {
            name: "gp_fanout".into(),
            scale: 400.0,
        })
        .unwrap();
        assert!(d.num_cells() > 0);
    }

    #[test]
    fn unknown_profile_is_an_error() {
        let err = build_base_design(&Workload::Profile {
            name: "nope".into(),
            scale: 1.0,
        })
        .unwrap_err();
        assert!(err.msg.contains("unknown workload profile"));
    }
}
