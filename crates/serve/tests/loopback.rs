//! Loopback integration: a real TCP server, two jobs running
//! concurrently under partitioned thread budgets, and a bit-identity
//! check against serial single-threaded reference runs.

use crp_serve::json::Json;
use crp_serve::scheduler::SchedConfig;
use crp_serve::spec::{JobSpec, Workload};
use crp_serve::{Client, Scheduler, Server};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

fn spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec {
        workload: Workload::Profile {
            name: "ispd18_test2".to_string(),
            scale: 600.0,
        },
        iterations: 3,
        threads: 2,
        ..JobSpec::default()
    };
    spec.config.seed = seed;
    spec
}

fn submit_request(spec: &JobSpec) -> Json {
    Json::obj(vec![
        ("verb", Json::str("submit")),
        ("spec", spec.to_json()),
    ])
}

/// Serial reference: the same job run in-process, single-threaded.
fn reference(spec: &JobSpec, tag: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("crp-loopback-ref-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let no = AtomicBool::new(false);
    crp_serve::run_job(spec, &dir, 1, &no, &no, &mut |_| {}).unwrap();
    let def = std::fs::read_to_string(dir.join("result.def")).unwrap();
    let guide = std::fs::read_to_string(dir.join("result.guide")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (def, guide)
}

#[test]
fn two_concurrent_tcp_jobs_match_serial_runs() {
    let data_dir = std::env::temp_dir().join(format!("crp-loopback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let scheduler = Scheduler::new(SchedConfig {
        data_dir,
        queue_capacity: 8,
        total_threads: 4,
        max_running: 2,
        ..SchedConfig::default()
    })
    .unwrap();
    let server = Server::start("127.0.0.1:0", scheduler).unwrap();
    let addr = server.local_addr().to_string();

    let specs = [spec(1), spec(2)];

    // Submit both over separate connections, then watch each to
    // completion from its own thread so the two jobs genuinely overlap.
    let ids: Vec<u64> = specs
        .iter()
        .map(|s| {
            let mut c = Client::connect(&addr).unwrap();
            let v = c.call(&submit_request(s)).unwrap();
            v.get("id").and_then(Json::as_u64).unwrap()
        })
        .collect();

    let watchers: Vec<_> = ids
        .iter()
        .map(|&id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.send(&Json::obj(vec![
                    ("verb", Json::str("watch")),
                    ("id", Json::Int(i128::from(id))),
                ]))
                .unwrap();
                let mut events = 0;
                loop {
                    let v = c.read_response().unwrap();
                    if v.get("event").is_some() {
                        events += 1;
                    }
                    if v.get("done").and_then(Json::as_bool) == Some(true) {
                        return (
                            events,
                            v.get("state").and_then(Json::as_str).unwrap().to_string(),
                        );
                    }
                }
            })
        })
        .collect();
    for w in watchers {
        let (events, state) = w.join().unwrap();
        assert_eq!(state, "done");
        assert_eq!(events, 3, "expected one event per iteration");
    }

    // Fetch over the wire and compare against the serial references.
    let mut c = Client::connect(&addr).unwrap();
    for (i, (&id, s)) in ids.iter().zip(&specs).enumerate() {
        let v = c
            .call(&Json::obj(vec![
                ("verb", Json::str("fetch")),
                ("id", Json::Int(i128::from(id))),
            ]))
            .unwrap();
        let def = v.get("def").and_then(Json::as_str).unwrap();
        let guide = v.get("guide").and_then(Json::as_str).unwrap();
        let (ref_def, ref_guide) = reference(s, &format!("{i}"));
        assert_eq!(def, ref_def, "job {id}: DEF diverged from serial run");
        assert_eq!(
            guide, ref_guide,
            "job {id}: guides diverged from serial run"
        );
    }

    // Admission control over the wire: an unknown verb and a bad spec
    // produce error envelopes, not dropped connections.
    let e = c.call(&Json::obj(vec![("verb", Json::str("frobnicate"))]));
    assert!(e.is_err());
    let e = c.call(&Json::obj(vec![
        ("verb", Json::str("submit")),
        ("spec", Json::obj(vec![])),
    ]));
    assert!(e.is_err());
    // The connection is still usable afterwards.
    let v = c
        .call(&Json::obj(vec![("verb", Json::str("ping"))]))
        .unwrap();
    assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
}

/// A request costs one round trip and no more. A request line that
/// leaves in two writes has its newline held back by Nagle's algorithm
/// until the daemon's delayed ACK (~40 ms) releases it, which would make
/// these pings take four seconds.
#[test]
fn hundred_sequential_pings_take_under_a_second() {
    let data_dir = std::env::temp_dir().join(format!("crp-loopback-ping-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let scheduler = Scheduler::new(SchedConfig {
        data_dir: data_dir.clone(),
        ..SchedConfig::default()
    })
    .unwrap();
    let server = Server::start("127.0.0.1:0", scheduler).unwrap();
    let mut c = Client::connect(&server.local_addr().to_string()).unwrap();
    let ping = Json::obj(vec![("verb", Json::str("ping"))]);
    let t = Instant::now();
    for _ in 0..100 {
        let v = c.call(&ping).unwrap();
        assert_eq!(v.get("pong").and_then(Json::as_bool), Some(true));
    }
    let took = t.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "100 pings took {took:?}: requests are stalling"
    );
    let _ = std::fs::remove_dir_all(&data_dir);
}
