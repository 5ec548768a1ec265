//! Kill-and-restart integration: a real `crpd` child process is
//! SIGKILLed mid-job, restarted over the same data directory, and must
//! produce final results bit-identical to an uninterrupted run.

use crp_serve::json::Json;
use crp_serve::spec::{JobMode, JobSpec, Workload};
use crp_serve::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicBool;

struct Daemon {
    child: Child,
    addr: String,
}

fn start_daemon(data_dir: &std::path::Path) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_crpd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crpd");
    let stdout = child.stdout.take().expect("crpd stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("crpd listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    Daemon { child, addr }
}

/// Watches job `id` from event 0 to the end; returns the iteration
/// index of every event, in arrival order, and the final state.
fn watch_from_zero(c: &mut Client, id: u64) -> (Vec<usize>, String) {
    c.send(&Json::obj(vec![
        ("verb", Json::str("watch")),
        ("id", Json::Int(i128::from(id))),
        ("from", Json::Int(0)),
    ]))
    .unwrap();
    let mut iterations = Vec::new();
    loop {
        let v = c.read_response().unwrap();
        if let Some(ev) = v.get("event") {
            iterations.push(ev.get("iteration").and_then(Json::as_usize).unwrap());
        }
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            let state = v.get("state").and_then(Json::as_str).unwrap().to_string();
            return (iterations, state);
        }
    }
}

fn job_spec() -> JobSpec {
    JobSpec {
        workload: Workload::Profile {
            name: "ispd18_test1".to_string(),
            scale: 300.0,
        },
        iterations: 8,
        checkpoint_every: 1,
        ..JobSpec::default()
    }
}

/// A `place` job whose GP phase dominates the wall clock: thousands of
/// cheap solver iterations make a kill shortly after submission land
/// inside the GP phase with certainty, so the restart exercises the
/// GP-iteration checkpoint, not the CR&P one.
fn place_job_spec() -> JobSpec {
    JobSpec {
        workload: Workload::Profile {
            name: "gp_fanout".to_string(),
            scale: 20.0,
        },
        iterations: 2,
        checkpoint_every: 1,
        mode: JobMode::Place,
        gp_iterations: 3000,
        ..JobSpec::default()
    }
}

#[test]
fn sigkill_mid_gp_phase_resumes_place_job_bit_identically() {
    let data_dir = std::env::temp_dir().join(format!("crp-kill-gp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    // Uninterrupted reference, computed in-process with the same spec.
    let ref_dir = data_dir.join("reference");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let no = AtomicBool::new(false);
    crp_serve::run_job(&place_job_spec(), &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
    let ref_def = std::fs::read_to_string(ref_dir.join("result.def")).unwrap();
    let ref_guide = std::fs::read_to_string(ref_dir.join("result.guide")).unwrap();

    // Daemon #1: submit (mode rides inside the spec), wait for two GP
    // events, SIGKILL mid-phase.
    let daemon_dir = data_dir.join("daemon");
    let mut d1 = start_daemon(&daemon_dir);
    let id = {
        let mut c = Client::connect(&d1.addr).unwrap();
        let v = c
            .call(&Json::obj(vec![
                ("verb", Json::str("submit")),
                ("spec", place_job_spec().to_json()),
            ]))
            .unwrap();
        v.get("id").and_then(Json::as_u64).unwrap()
    };
    {
        let mut c = Client::connect(&d1.addr).unwrap();
        c.send(&Json::obj(vec![
            ("verb", Json::str("watch")),
            ("id", Json::Int(i128::from(id))),
        ]))
        .unwrap();
        let mut seen = 0;
        while seen < 2 {
            let v = c.read_response().unwrap();
            if v.get("event").is_some() {
                seen += 1;
            }
            assert_ne!(
                v.get("done").and_then(Json::as_bool),
                Some(true),
                "job finished before we could kill the daemon; raise gp_iterations"
            );
        }
    }
    d1.child.kill().expect("SIGKILL crpd");
    let _ = d1.child.wait();

    // The kill must have landed inside the GP phase: a GP snapshot on
    // disk, no CR&P checkpoint yet. This is what the restart resumes.
    let job_dir = daemon_dir.join("jobs").join(id.to_string());
    assert!(
        job_dir.join("gp_checkpoint.json").exists(),
        "expected a GP-iteration checkpoint at kill time"
    );
    assert!(
        !job_dir.join("checkpoint.json").exists(),
        "kill landed after the GP phase; raise gp_iterations so it lands inside"
    );

    // Daemon #2 over the same data dir: recover, resume from the GP
    // snapshot, finish both phases. Watching from 0 yields every event
    // of the combined GP + CR&P range exactly once, in order: the
    // recovered prefix from disk, then the resumed run.
    let d2 = start_daemon(&daemon_dir);
    let mut c = Client::connect(&d2.addr).unwrap();
    let (iterations, state) = watch_from_zero(&mut c, id);
    assert_eq!(state, "done");
    let total = place_job_spec().total_iterations();
    assert_eq!(iterations, (0..total).collect::<Vec<_>>());
    // Once the job has finished, a fresh watch replays the same list.
    let (again, state) = watch_from_zero(&mut c, id);
    assert_eq!(state, "done");
    assert_eq!(again, iterations);
    let v = c
        .call(&Json::obj(vec![
            ("verb", Json::str("fetch")),
            ("id", Json::Int(i128::from(id))),
        ]))
        .unwrap();
    let def = v.get("def").and_then(Json::as_str).unwrap();
    let guide = v.get("guide").and_then(Json::as_str).unwrap();
    assert_eq!(
        def, ref_def,
        "post-crash place-job DEF diverged from uninterrupted run"
    );
    assert_eq!(
        guide, ref_guide,
        "post-crash place-job guides diverged from uninterrupted run"
    );

    let v = c
        .call(&Json::obj(vec![("verb", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(v.get("drained").and_then(Json::as_bool), Some(true));
    let mut d2 = d2;
    let status = d2.child.wait().expect("crpd exit status");
    assert!(status.success(), "crpd exited with {status}");

    let _ = std::fs::remove_dir_all(&data_dir);
}

#[test]
fn sigkill_mid_job_resumes_bit_identically() {
    let data_dir = std::env::temp_dir().join(format!("crp-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir).unwrap();

    // Uninterrupted reference, computed in-process with the same spec.
    let ref_dir = data_dir.join("reference");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let no = AtomicBool::new(false);
    crp_serve::run_job(&job_spec(), &ref_dir, 1, &no, &no, &mut |_| {}).unwrap();
    let ref_def = std::fs::read_to_string(ref_dir.join("result.def")).unwrap();
    let ref_guide = std::fs::read_to_string(ref_dir.join("result.guide")).unwrap();

    // Daemon #1: submit, wait for two iterations, SIGKILL mid-flight.
    let daemon_dir = data_dir.join("daemon");
    let mut d1 = start_daemon(&daemon_dir);
    let id = {
        let mut c = Client::connect(&d1.addr).unwrap();
        let v = c
            .call(&Json::obj(vec![
                ("verb", Json::str("submit")),
                ("spec", job_spec().to_json()),
            ]))
            .unwrap();
        v.get("id").and_then(Json::as_u64).unwrap()
    };
    {
        let mut c = Client::connect(&d1.addr).unwrap();
        c.send(&Json::obj(vec![
            ("verb", Json::str("watch")),
            ("id", Json::Int(i128::from(id))),
        ]))
        .unwrap();
        let mut seen = 0;
        while seen < 2 {
            let v = c.read_response().unwrap();
            if v.get("event").is_some() {
                seen += 1;
            }
            assert_ne!(
                v.get("done").and_then(Json::as_bool),
                Some(true),
                "job finished before we could kill the daemon; slow the spec down"
            );
        }
    }
    d1.child.kill().expect("SIGKILL crpd"); // SIGKILL on unix: no cleanup runs
    let _ = d1.child.wait();

    // Daemon #2 over the same data dir: must recover and finish the job,
    // and a watch from 0 must see every iteration exactly once, in
    // order — none skipped by the resume, none repeated by it.
    let d2 = start_daemon(&daemon_dir);
    let mut c = Client::connect(&d2.addr).unwrap();
    let (iterations, state) = watch_from_zero(&mut c, id);
    assert_eq!(state, "done");
    assert_eq!(iterations, (0..job_spec().iterations).collect::<Vec<_>>());
    let (again, state) = watch_from_zero(&mut c, id);
    assert_eq!(state, "done");
    assert_eq!(again, iterations);
    let v = c
        .call(&Json::obj(vec![
            ("verb", Json::str("fetch")),
            ("id", Json::Int(i128::from(id))),
        ]))
        .unwrap();
    let def = v.get("def").and_then(Json::as_str).unwrap();
    let guide = v.get("guide").and_then(Json::as_str).unwrap();
    assert_eq!(
        def, ref_def,
        "post-crash DEF diverged from uninterrupted run"
    );
    assert_eq!(
        guide, ref_guide,
        "post-crash guides diverged from uninterrupted run"
    );

    // Clean shutdown drains and exits the process.
    let v = c
        .call(&Json::obj(vec![("verb", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(v.get("drained").and_then(Json::as_bool), Some(true));
    let mut d2 = d2;
    let status = d2.child.wait().expect("crpd exit status");
    assert!(status.success(), "crpd exited with {status}");

    let _ = std::fs::remove_dir_all(&data_dir);
}
