//! Finished jobs leave the daemon's memory. After hundreds of jobs run
//! to completion none is resident in the scheduler, and each job's
//! `status`, `watch` and `fetch` answers come from its directory: the
//! events a `watch` from 0 replays are the bytes that streamed live
//! while the job was in memory, and every answer is the same again
//! after the daemon restarts over the same data directory.

use crp_serve::json::Json;
use crp_serve::scheduler::SchedConfig;
use crp_serve::spec::{JobSpec, Workload};
use crp_serve::{parse, Client, Scheduler, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs run in batches of `BATCH`, each held back by a plug job until
/// every one of them has a live watch subscription.
const BATCH: usize = 50;
const JOBS: usize = 4 * BATCH;

fn start(dir: &Path) -> (Server, String) {
    let scheduler = Scheduler::new(SchedConfig {
        data_dir: dir.to_path_buf(),
        queue_capacity: BATCH + 1,
        total_threads: 2,
        max_running: 1,
        ..SchedConfig::default()
    })
    .unwrap();
    scheduler.recover().unwrap();
    let server = Server::start("127.0.0.1:0", scheduler).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn spec(i: usize, iterations: usize) -> JobSpec {
    let mut spec = JobSpec {
        tenant: ["alpha", "beta"][i % 2].to_string(),
        workload: Workload::Profile {
            name: "ispd18_test1".to_string(),
            scale: 800.0,
        },
        iterations,
        ..JobSpec::default()
    };
    spec.config.seed = i as u64;
    spec
}

fn verb(name: &str, id: u64) -> Json {
    Json::obj(vec![
        ("verb", Json::str(name)),
        ("id", Json::Int(i128::from(id))),
    ])
}

fn submit(c: &mut Client, spec: &JobSpec) -> u64 {
    let v = c
        .call(&Json::obj(vec![
            ("verb", Json::str("submit")),
            ("spec", spec.to_json()),
        ]))
        .unwrap();
    v.get("id").and_then(Json::as_u64).unwrap()
}

fn subscribe(c: &mut Client, id: u64) {
    c.send(&Json::obj(vec![
        ("verb", Json::str("watch")),
        ("id", Json::Int(i128::from(id))),
        ("from", Json::Int(0)),
    ]))
    .unwrap();
}

/// Every line of a subscribed watch, the final `done` line included.
fn drain_watch(c: &mut Client) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let v = c.read_response().unwrap();
        let done = v.get("done").and_then(Json::as_bool) == Some(true);
        lines.push(v.to_string());
        if done {
            return lines;
        }
    }
}

/// `status`, `watch` from 0 and `fetch` of one job, as sent.
#[derive(Debug, PartialEq)]
struct Answers {
    status: String,
    watch: Vec<String>,
    fetch: String,
}

fn answers(c: &mut Client, id: u64) -> Answers {
    let status = c.call(&verb("status", id)).unwrap().to_string();
    subscribe(c, id);
    let watch = drain_watch(c);
    let fetch = c.call(&verb("fetch", id)).unwrap().to_string();
    Answers {
        status,
        watch,
        fetch,
    }
}

fn scheduler_metrics(c: &mut Client) -> Json {
    let m = c
        .call(&Json::obj(vec![("verb", Json::str("metrics"))]))
        .unwrap();
    m.get("scheduler").cloned().unwrap()
}

fn count(sched: &Json, section: &str, key: &str) -> u64 {
    sched
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn wait_running(c: &mut Client, id: u64) {
    loop {
        let v = c.call(&verb("status", id)).unwrap();
        let state = v
            .get("job")
            .and_then(|j| j.get("state"))
            .and_then(Json::as_str);
        if state == Some("running") {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crp-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn finished_jobs_leave_memory_and_answer_identically_from_disk() {
    let dir = data_dir();
    let (server, addr) = start(&dir);
    let mut c = Client::connect(&addr).unwrap();

    let mut ids = Vec::new();
    let mut live = Vec::new();
    for batch in 0..JOBS / BATCH {
        // The plug holds the only running slot while the batch queues
        // behind it and every batch job gets a watcher, so the watchers
        // stream from memory as the jobs run. (A subscription the pool
        // adopts only after its job finished replays from disk; the
        // comparisons below hold on either path.)
        let plug = submit(&mut c, &spec(usize::MAX, 10_000));
        wait_running(&mut c, plug);
        let batch_ids: Vec<u64> = (0..BATCH)
            .map(|k| submit(&mut c, &spec(batch * BATCH + k, 1 + k % 2)))
            .collect();
        let mut watchers: Vec<Client> = batch_ids
            .iter()
            .map(|&id| {
                let mut w = Client::connect(&addr).unwrap();
                subscribe(&mut w, id);
                w
            })
            .collect();
        let v = c.call(&verb("cancel", plug)).unwrap();
        assert_eq!(v.get("state").and_then(Json::as_str), Some("running"));
        for w in &mut watchers {
            live.push(drain_watch(w));
        }
        ids.extend(batch_ids);
    }

    // A job leaves memory just after its terminal state is persisted,
    // so the last watcher can see `done` a moment before that.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sched = loop {
        let sched = scheduler_metrics(&mut c);
        if count(&sched, "queue", "resident") == 0 {
            break sched;
        }
        assert!(Instant::now() < deadline, "finished jobs stay resident");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(count(&sched, "states", "done"), JOBS as u64);
    assert_eq!(count(&sched, "states", "cancelled"), (JOBS / BATCH) as u64);
    let hits = count(&sched, "price_cache", "hits");
    let misses = count(&sched, "price_cache", "misses");
    assert!(hits + misses > 0);

    let before: Vec<Answers> = ids.iter().map(|&id| answers(&mut c, id)).collect();
    for ((a, streamed), id) in before.iter().zip(&live).zip(&ids) {
        assert_eq!(
            &a.watch, streamed,
            "job {id}: replay differs from the live stream"
        );
        assert!(
            a.watch.last().unwrap().contains("\"state\":\"done\""),
            "job {id}"
        );
        // `status` reports the last event the live stream carried.
        let events = streamed.len() - 1;
        let last_event = parse(&streamed[events - 1]).unwrap().get("event").cloned();
        let status = parse(&a.status).unwrap();
        let job = status.get("job").unwrap();
        assert_eq!(job.get("last").cloned(), last_event, "job {id}");
        assert_eq!(
            job.get("iterations_done").and_then(Json::as_usize),
            Some(events),
            "job {id}"
        );
        assert!(a.fetch.contains("\"def\""), "job {id}");
    }

    let v = c
        .call(&Json::obj(vec![("verb", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(v.get("drained").and_then(Json::as_bool), Some(true));
    drop(c);
    drop(server);

    // A new daemon over the same data directory answers the same.
    let (_server, addr) = start(&dir);
    let mut c = Client::connect(&addr).unwrap();
    let sched = scheduler_metrics(&mut c);
    assert_eq!(count(&sched, "queue", "resident"), 0);
    assert_eq!(count(&sched, "states", "done"), JOBS as u64);
    assert_eq!(count(&sched, "price_cache", "hits"), hits);
    assert_eq!(count(&sched, "price_cache", "misses"), misses);
    for (a, &id) in before.iter().zip(&ids) {
        assert_eq!(&answers(&mut c, id), a, "job {id} after the restart");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
