//! What `Scheduler::recover` makes of the job directories a killed
//! daemon left: an unfinished job's event log is cut in place to its
//! checkpointed prefix, and finished jobs' price-cache counters, however
//! large, are summed without overflow.

use crp_core::{Crp, CrpConfig, IterationReport, StageTimers};
use crp_serve::driver::CHECKPOINT_FILE;
use crp_serve::scheduler::EVENTS_FILE;
use crp_serve::{
    Checkpoint, IterStats, JobSpec, JobState, Json, SchedConfig, Scheduler, WatchEvent, Workload,
};
use std::path::{Path, PathBuf};

/// The event log line of a CR&P iteration whose accumulated timers hold
/// the given price-cache counters.
fn line(iteration: usize, hits: u64, misses: u64) -> String {
    let ev = WatchEvent {
        iteration,
        total: 4,
        stats: IterStats::Crp(
            IterationReport {
                iteration,
                critical_cells: 1,
                candidates: 2,
                cost_before: 1.5,
                cost_after: 1.25,
                ..IterationReport::default()
            },
            StageTimers {
                ecc_cache_hits: hits,
                ecc_cache_misses: misses,
                ..StageTimers::default()
            },
        ),
    };
    format!("{}\n", ev.to_json())
}

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crp-recovered-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `jobs/<id>` as a daemon leaves it: spec, state and event log.
fn write_job(data: &Path, id: u64, state: &str, log: &str) -> PathBuf {
    let job = data.join("jobs").join(id.to_string());
    std::fs::create_dir_all(&job).unwrap();
    let spec = JobSpec {
        workload: Workload::Profile {
            name: "ispd18_test1".to_string(),
            scale: 800.0,
        },
        iterations: 4,
        ..JobSpec::default()
    };
    std::fs::write(job.join("spec.json"), spec.to_json().to_string()).unwrap();
    std::fs::write(job.join("state.json"), format!("{{\"state\":\"{state}\"}}")).unwrap();
    std::fs::write(job.join(EVENTS_FILE), log).unwrap();
    job
}

/// Three events and a torn fourth, with a checkpoint after two: the log
/// keeps exactly the first two lines, byte for byte, and no spare file
/// is made.
#[test]
fn recovery_cuts_the_event_log_to_the_checkpoint() {
    let data = data_dir("cut");
    let lines: Vec<String> = (0..4).map(|i| line(i, 4, 6)).collect();
    let log = format!("{}{}{}{}", lines[0], lines[1], lines[2], &lines[3][..20]);
    let job = write_job(&data, 0, "running", &log);
    Checkpoint {
        iterations_done: 2,
        iterations_total: 4,
        grid_epoch: 0,
        flow: Crp::new(CrpConfig::default()).snapshot(),
        cells: Vec::new(),
        routes: Vec::new(),
    }
    .save(&job.join(CHECKPOINT_FILE))
    .unwrap();
    // No run slot: the revived job stays queued, its log as recovery
    // left it.
    let sched = Scheduler::new(SchedConfig {
        data_dir: data.clone(),
        max_running: 0,
        ..SchedConfig::default()
    })
    .unwrap();
    assert_eq!(sched.recover().unwrap(), 1);
    let kept = std::fs::read_to_string(job.join(EVENTS_FILE)).unwrap();
    assert_eq!(kept, format!("{}{}", lines[0], lines[1]));
    assert!(!job.join(format!("{EVENTS_FILE}.tmp")).exists());
    let (events, state) = sched.watch_poll(0, 0).unwrap();
    assert_eq!(state, JobState::Queued);
    let relogged: String = events
        .iter()
        .map(|e| format!("{}\n", e.to_json()))
        .collect();
    assert_eq!(relogged, kept);
    let _ = std::fs::remove_dir_all(&data);
}

/// Counters read back from disk may hold any `u64`: their events
/// re-serialize to the same bytes, and the metrics sum them saturating
/// and keep the hit rate in range.
#[test]
fn price_cache_totals_saturate_over_recovered_jobs() {
    let data = data_dir("saturate");
    let lines = [
        line(0, u64::MAX, u64::MAX),
        line(0, u64::MAX, u64::MAX),
        line(0, 0, 0),
    ];
    assert!(
        lines[0].ends_with(",\"ecc_cache_hit_rate\":0.5}}\n"),
        "{}",
        lines[0]
    );
    assert!(
        lines[2].ends_with(",\"ecc_cache_hit_rate\":null}}\n"),
        "{}",
        lines[2]
    );
    for (id, log) in lines.iter().enumerate() {
        write_job(&data, id as u64, "done", log);
    }
    let sched = Scheduler::new(SchedConfig {
        data_dir: data.clone(),
        ..SchedConfig::default()
    })
    .unwrap();
    assert_eq!(sched.recover().unwrap(), 0);
    for (id, log) in lines.iter().enumerate() {
        let last = sched.status(id as u64).unwrap().last_event.unwrap();
        assert_eq!(format!("{}\n", last.to_json()), *log);
    }
    let m = sched.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (u64::MAX, u64::MAX));
    let cache = m.to_json().get("price_cache").cloned().unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(u64::MAX));
    assert_eq!(cache.get("hit_rate"), Some(&Json::Float(0.5)));
    let _ = std::fs::remove_dir_all(&data);
}
