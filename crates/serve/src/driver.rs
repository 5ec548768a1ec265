//! The per-job flow driver: builds the design, runs CR&P iterations,
//! checkpoints at iteration boundaries, and emits progress events.
//!
//! The driver is deliberately ignorant of scheduling — it receives its
//! thread budget and two control flags (`cancel`, `pause`) and reports
//! back through a [`RunOutcome`]. All state it needs to resume lives in
//! the job directory, so the scheduler can re-dispatch a paused or
//! crashed job at any time, on any worker.

use crate::checkpoint::{
    gp_stats_from_json, gp_stats_to_json, load_gp_state, report_from_json, report_to_json, req,
    req_usize, save_gp_state, timers_from_json, timers_to_json, Checkpoint,
};
use crate::error::ServeError;
use crate::json::Json;
use crate::persist::remove_spares;
use crate::spec::{JobMode, JobSpec, Workload};
use crp_core::{Crp, IterationReport, StageTimers};
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
/// by `gp_iterations`, with `total = gp_iterations + iterations`.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// 0-based iteration that just completed.
    pub iteration: usize,
    /// Total iterations the job will run.
    pub total: usize,
    /// What the iteration did.
    pub stats: IterStats,
}

/// The record of one iteration, by phase.
#[derive(Debug, Clone, PartialEq)]
pub enum IterStats {
    /// A GP iteration of a `place` job.
    Gp(GpIterStats),
    /// A CR&P iteration's report, and the flow's stage timers accumulated
    /// over every iteration so far.
    Crp(IterationReport, StageTimers),
}

impl WatchEvent {
    /// The flow's accumulated stage timers, on a CR&P event.
    #[must_use]
    pub fn timers(&self) -> Option<&StageTimers> {
        match &self.stats {
            IterStats::Crp(_, timers) => Some(timers),
            IterStats::Gp(_) => None,
        }
    }

    /// Serializes the event for the wire and for the job's
    /// `events.jsonl`: `iteration`, `total`, `report` and `timers`.
    // crp-lint: checkpoint(WatchEvent, to_json, from_json)
    #[must_use]
    pub fn to_json(&self) -> Json {
        let (report, timers) = match &self.stats {
            IterStats::Gp(stats) => gp_stats_to_json(stats),
            IterStats::Crp(report, timers) => (report_to_json(report), timers_to_json(timers)),
        };
        Json::obj(vec![
            ("iteration", Json::Int(self.iteration as i128)),
            ("total", Json::Int(self.total as i128)),
            ("report", report),
            ("timers", timers),
        ])
    }

    /// Parses what [`WatchEvent::to_json`] wrote; a GP event is the one
    /// whose timers hold `gp_overflow`. Serializing the result again gives
    /// the same bytes, so an event read back from disk goes out on the
    /// wire exactly as it did live.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] on any missing or mistyped field.
    pub fn from_json(v: &Json) -> Result<WatchEvent, ServeError> {
        let (report, timers) = (req(v, "report")?, req(v, "timers")?);
        let stats = if timers.get("gp_overflow").is_some() {
            IterStats::Gp(gp_stats_from_json(report, timers)?)
        } else {
            IterStats::Crp(report_from_json(report)?, timers_from_json(timers)?)
        };
        Ok(WatchEvent {
            iteration: req_usize(v, "iteration")?,
            total: req_usize(v, "total")?,
            stats,
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
            stats: IterStats::Gp(stats),
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
/// plus a final checkpoint of the finished state.
///
/// [`JobMode::Place`] jobs prepend the GP phase (`run_gp_phase`): a
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

    let (mut grid, mut routing, mut crp, start) = match loaded {
        Some(ckpt) => {
            let (grid, routing, crp) = ckpt.restore(&mut design, config)?;
            (grid, routing, crp, ckpt.iterations_done)
        }
        None => {
            let mut grid = RouteGrid::try_new(&design, GridConfig::default())
                .map_err(|e| ServeError::new(format!("grid build failed: {e}")))?;
            let mut router = GlobalRouter::new(RouterConfig::default());
            let routing = router.route_all(&design, &mut grid);
            (grid, routing, Crp::new(config), 0)
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
            Checkpoint::capture(&design, &grid, &routing, &crp, i, total).save(&ckpt_path)?;
            return Ok(RunOutcome::Paused);
        }
        let report = crp.run_iteration(i, &mut design, &mut grid, &mut router, &mut routing);
        on_event(WatchEvent {
            iteration: gp_off + i,
            total: grand_total,
            stats: IterStats::Crp(report, *crp.timers()),
        });
        let done = i + 1;
        if spec.checkpoint_every > 0 && done % spec.checkpoint_every == 0 && done < total {
            Checkpoint::capture(&design, &grid, &routing, &crp, done, total).save(&ckpt_path)?;
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
    // Final checkpoint: the finished flow state. A daemon that dies
    // before marking the job done resumes from it straight to the
    // results. It is never rewritten, so its spare goes.
    Checkpoint::capture(&design, &grid, &routing, &crp, total, total).save(&ckpt_path)?;
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
    use crate::json::parse;
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
        assert!(matches!(events[5].stats, IterStats::Gp(_)));
        assert!(events[7].timers().is_some_and(|t| t.ecc_cache_misses > 0));
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
            assert_eq!(&back, ev);
        }
        assert!(WatchEvent::from_json(&Json::obj(vec![("iteration", Json::Int(0))])).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Lines the previous release wrote to `events.jsonl` for
    /// `place_spec()`: the first GP event and the last CR&P event.
    const OLD_GP_EVENT: &str = concat!(
        r#"{"iteration":0,"total":8,"report":{"iteration":0,"critical_cells":0,"candidates":0,"#,
        r#""moved_cells":0,"rerouted_nets":0,"cost_before":14480.764086588446,"#,
        r#""cost_after":33096.163063988875},"timers":{"gp_overflow":0.6497376592267244,"#,
        r#""gp_lambda":298.10269229046884}}"#,
    );
    const OLD_CRP_EVENT: &str = concat!(
        r#"{"iteration":7,"total":8,"report":{"iteration":1,"critical_cells":1,"candidates":8,"#,
        r#""moved_cells":0,"rerouted_nets":0,"cost_before":458.5795542683053,"#,
        r#""cost_after":458.5795542683053},"timers":{"label_ns":92643,"gcp_ns":368899,"#,
        r#""ecc_ns":435038,"select_ns":30364,"update_ns":4649,"total_ns":931593,"#,
        r#""ecc_cache_hits":148,"ecc_cache_misses":51,"ecc_cache_hit_rate":0.7437185929648241}}"#,
    );
    /// The checkpoint the previous release wrote for `spec()` after its
    /// first iteration: seven-key timers and a `reports` list.
    const OLD_CHECKPOINT: &str = concat!(
        r#"{"version":1,"iterations_done":1,"iterations_total":3,"grid_epoch":51,"#,
        r#""flow":{"rng_seed":49374,"rng_draws":6,"critical_hist":[2,3,4,6,11,13],"moved_set":[],"#,
        r#""timers":{"label_ns":12356,"gcp_ns":263028,"ecc_ns":82716,"select_ns":92955,"#,
        r#""update_ns":1932,"ecc_cache_hits":106,"ecc_cache_misses":19}},"cells":[[0,3200,2000,"#,
        r#"5],[1,1000,4000,0],[2,1600,0,0],[3,200,2000,5],[4,2000,0,0],[5,3200,0,0],[6,800,4000,"#,
        r#"0],[7,1600,2000,5],[8,1400,2000,5],[9,600,2000,5],[10,3400,4000,0],[11,3000,4000,0],"#,
        r#"[12,2400,0,0],[13,1600,4000,0],[14,1800,4000,0],[15,800,0,0]],"routes":[{"segs":[[1,0,"#,
        r#"0,1,0],[2,1,0,1,1]],"vias":[[0,0,0,1],[1,0,0,2],[1,1,0,2]]},{"segs":[],"vias":[]},"#,
        r#"{"segs":[],"vias":[]},{"segs":[],"vias":[]},{"segs":[[2,0,0,0,1]],"vias":[[0,0,0,2],"#,
        r#"[0,1,0,2]]},{"segs":[],"vias":[]},{"segs":[[2,0,0,0,1]],"vias":[[0,0,0,2],[0,1,0,2]]},"#,
        r#"{"segs":[],"vias":[]}],"reports":[{"iteration":0,"critical_cells":6,"candidates":48,"#,
        r#""moved_cells":0,"rerouted_nets":0,"cost_before":28.000101487758684,"#,
        r#""cost_after":28.000101487758684}]}"#,
    );

    /// A daemon upgraded over an existing data dir reads the event logs
    /// and checkpoints the previous release left there, and resumes.
    #[test]
    fn previous_release_events_and_checkpoints_still_load() {
        for line in [OLD_GP_EVENT, OLD_CRP_EVENT] {
            let ev = WatchEvent::from_json(&parse(line).unwrap()).unwrap();
            assert_eq!(ev.to_json().to_string(), line);
        }
        assert!(Checkpoint::from_json(&parse(OLD_CHECKPOINT).unwrap()).is_ok());
        let no = AtomicBool::new(false);
        let (ref_dir, dir) = (tmp_dir("old-ref"), tmp_dir("old-resume"));
        run_job(&spec(), &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
        std::fs::write(dir.join(CHECKPOINT_FILE), OLD_CHECKPOINT).unwrap();
        let mut resumed = Vec::new();
        run_job(&spec(), &dir, 1, &no, &no, &mut |e| {
            resumed.push(e.iteration)
        })
        .unwrap();
        assert_eq!(resumed, [1, 2]);
        for file in [RESULT_DEF_FILE, RESULT_GUIDE_FILE] {
            let read = |d: &Path| std::fs::read_to_string(d.join(file)).unwrap();
            assert_eq!(read(&dir), read(&ref_dir), "{file} diverged");
        }
        let _ = std::fs::remove_dir_all(&ref_dir);
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
