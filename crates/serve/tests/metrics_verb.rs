//! Integration test for the `metrics` protocol verb: the snapshot
//! parses, is internally consistent (queue depths sum over tenants,
//! histogram counts equal request counts), and survives a
//! checkpoint/restart of the daemon (a fresh scheduler over the same
//! data directory reports the recovered jobs coherently, price-cache
//! totals included).

use crp_serve::json::Json;
use crp_serve::scheduler::SchedConfig;
use crp_serve::spec::JobSpec;
use crp_serve::{Client, Scheduler, Server};
use std::path::PathBuf;

fn data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crp-metrics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: PathBuf) -> (Server, String) {
    let scheduler = Scheduler::new(SchedConfig {
        data_dir: dir,
        queue_capacity: 8,
        total_threads: 2,
        max_running: 2,
        ..SchedConfig::default()
    })
    .unwrap();
    scheduler.recover().unwrap();
    let server = Server::start("127.0.0.1:0", scheduler).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn tenant_spec(tenant: &str) -> Json {
    let spec = JobSpec {
        tenant: tenant.to_string(),
        iterations: 2,
        ..JobSpec::default()
    };
    spec.to_json()
}

fn call(client: &mut Client, req: Json) -> Json {
    client.call(&req).unwrap()
}

fn watch_to_done(addr: &str, id: u64) {
    let mut c = Client::connect(addr).unwrap();
    c.send(&Json::obj(vec![
        ("verb", Json::str("watch")),
        ("id", Json::Int(i128::from(id))),
    ]))
    .unwrap();
    loop {
        let v = c.read_response().unwrap();
        if v.get("done").and_then(Json::as_bool) == Some(true) {
            assert_eq!(v.get("state").and_then(Json::as_str), Some("done"));
            return;
        }
    }
}

/// Every cross-cutting consistency rule a snapshot must satisfy.
fn assert_consistent(m: &Json) {
    let sched = m.get("scheduler").expect("scheduler section");
    let queue = sched.get("queue").expect("queue section");
    let queued = queue.get("queued").and_then(Json::as_usize).unwrap();
    let running = queue.get("running").and_then(Json::as_usize).unwrap();

    // Queue depths and running totals equal the per-tenant sums.
    let tenants = match sched.get("tenants") {
        Some(Json::Obj(members)) => members.clone(),
        other => panic!("tenants section missing: {other:?}"),
    };
    let mut queued_sum = 0;
    let mut running_sum = 0;
    let mut threads_sum = 0;
    for (name, t) in &tenants {
        let qh = t.get("queued_high").and_then(Json::as_usize).unwrap();
        let qn = t.get("queued_normal").and_then(Json::as_usize).unwrap();
        let r = t.get("running").and_then(Json::as_usize).unwrap();
        let th = t.get("threads_in_use").and_then(Json::as_usize).unwrap();
        let quota = t.get("quota").expect("quota");
        assert!(
            r <= quota.get("max_running").and_then(Json::as_usize).unwrap(),
            "{name}"
        );
        assert!(
            th <= quota.get("thread_share").and_then(Json::as_usize).unwrap(),
            "{name}"
        );
        queued_sum += qh + qn;
        running_sum += r;
        threads_sum += th;
        // Counters balance: admitted >= finished classes.
        let adm = t.get("admitted").and_then(Json::as_u64).unwrap();
        let done: u64 = ["completed", "failed", "cancelled", "parked"]
            .iter()
            .map(|k| t.get(k).and_then(Json::as_u64).unwrap())
            .sum();
        assert!(adm >= done, "{name}: admitted {adm} < finished {done}");
    }
    assert_eq!(queued, queued_sum);
    assert_eq!(running, running_sum);

    // Thread accounting: in_use == total - free, and per-tenant threads
    // sum to at most in_use (they are equal outside transient windows,
    // but a worker that has decremented one side first may be between
    // the two updates when another connection snapshots).
    let threads = sched.get("threads").expect("threads section");
    let total = threads.get("total").and_then(Json::as_usize).unwrap();
    let free = threads.get("free").and_then(Json::as_usize).unwrap();
    let in_use = threads.get("in_use").and_then(Json::as_usize).unwrap();
    assert_eq!(in_use, total - free);
    assert_eq!(threads_sum, in_use);

    // Server side: every verb's histogram count equals its request
    // count, and percentiles are ordered.
    let verbs = match m.get("server").and_then(|s| s.get("verbs")) {
        Some(Json::Obj(members)) => members.clone(),
        other => panic!("verbs section missing: {other:?}"),
    };
    for (name, v) in &verbs {
        let count = v.get("count").and_then(Json::as_u64).unwrap();
        let errors = v.get("errors").and_then(Json::as_u64).unwrap();
        assert!(errors <= count, "{name}");
        let lat = v.get("latency").expect("latency");
        assert_eq!(
            lat.get("count").and_then(Json::as_u64).unwrap(),
            count,
            "{name}"
        );
        let p50 = lat.get("p50_us").and_then(Json::as_u64).unwrap();
        let p95 = lat.get("p95_us").and_then(Json::as_u64).unwrap();
        let p99 = lat.get("p99_us").and_then(Json::as_u64).unwrap();
        let max = lat.get("max_us").and_then(Json::as_u64).unwrap();
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max.max(1), "{name}");
    }
}

#[test]
fn metrics_snapshot_is_consistent_and_survives_restart() {
    let dir = data_dir("restart");

    // ---- First daemon: run jobs for two tenants, inspect metrics. ----
    let (_server, addr) = start(dir.clone());
    let mut c = Client::connect(&addr).unwrap();
    let mut ids = Vec::new();
    for tenant in ["alpha", "beta"] {
        let v = call(
            &mut c,
            Json::obj(vec![
                ("verb", Json::str("submit")),
                ("spec", tenant_spec(tenant)),
            ]),
        );
        ids.push(v.get("id").and_then(Json::as_u64).unwrap());
    }
    for &id in &ids {
        watch_to_done(&addr, id);
    }

    let m = call(&mut c, Json::obj(vec![("verb", Json::str("metrics"))]));
    assert_consistent(&m);
    let sched = m.get("scheduler").unwrap();
    // Both tenants visible, both jobs done, price cache exercised.
    let tenants = sched.get("tenants").unwrap();
    for tenant in ["alpha", "beta"] {
        let t = tenants
            .get(tenant)
            .unwrap_or_else(|| panic!("{tenant} missing"));
        assert_eq!(t.get("completed").and_then(Json::as_u64), Some(1));
    }
    assert_eq!(
        sched
            .get("states")
            .and_then(|s| s.get("done"))
            .and_then(Json::as_usize),
        Some(2)
    );
    let cache = sched.get("price_cache").unwrap();
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap();
    assert!(hits + misses > 0, "price-cache stats should be live");
    // The server counted exactly our requests: 2 submits, 2 watches.
    let verbs = m.get("server").and_then(|s| s.get("verbs")).unwrap();
    assert_eq!(
        verbs
            .get("submit")
            .and_then(|v| v.get("count"))
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        verbs
            .get("watch")
            .and_then(|v| v.get("count"))
            .and_then(Json::as_u64),
        Some(2)
    );

    // Graceful checkpoint/stop.
    let v = call(&mut c, Json::obj(vec![("verb", Json::str("shutdown"))]));
    assert_eq!(v.get("drained").and_then(Json::as_bool), Some(true));

    // ---- Second daemon over the same data dir. ----
    let (_server2, addr2) = start(dir);
    let mut c2 = Client::connect(&addr2).unwrap();
    let m2 = call(&mut c2, Json::obj(vec![("verb", Json::str("metrics"))]));
    assert_consistent(&m2);
    let sched2 = m2.get("scheduler").unwrap();
    // The terminal jobs were recovered for status/fetch, not re-queued:
    // still 2 done, nothing queued or running, nothing held in memory,
    // and the price-cache totals read back from their event logs.
    let cache2 = sched2.get("price_cache").unwrap();
    assert_eq!(cache2.get("hits").and_then(Json::as_u64), Some(hits));
    assert_eq!(cache2.get("misses").and_then(Json::as_u64), Some(misses));
    assert_eq!(
        sched2
            .get("queue")
            .and_then(|q| q.get("resident"))
            .and_then(Json::as_usize),
        Some(0)
    );
    assert_eq!(
        sched2
            .get("states")
            .and_then(|s| s.get("done"))
            .and_then(Json::as_usize),
        Some(2)
    );
    assert_eq!(
        sched2
            .get("queue")
            .and_then(|q| q.get("queued"))
            .and_then(Json::as_usize),
        Some(0)
    );
    assert_eq!(
        sched2
            .get("queue")
            .and_then(|q| q.get("running"))
            .and_then(Json::as_usize),
        Some(0)
    );
}
