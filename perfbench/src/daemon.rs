//! The `daemon_jobs` workload: a closed loop of submit → watch → fetch
//! against a `crpd` process on loopback.
//!
//! Setup generates a pool of seed-derived variants of three job shapes,
//! writes them as LEF/DEF (the daemon only ever sees these files), and
//! runs every variant once in process through `crp_serve::run_job` to
//! get the reference DEF and guide each fetched result must equal. The
//! reference job's final checkpoint, restored and detailed-routed, gives
//! the variant's quality.

use crate::flows::perturb;
use crate::metrics::{peak_rss_mib, Metrics};
use crate::stats::{median, percentile, print_timing, Summary};
use crate::Args;
use crp_drouter::{evaluate, DetailedRouter, DrConfig, Score};
use crp_lefdef::{write_def, write_lef};
use crp_serve::driver::{build_base_design, CHECKPOINT_FILE, RESULT_DEF_FILE, RESULT_GUIDE_FILE};
use crp_serve::spec::JobMode;
use crp_serve::{run_job, Checkpoint, Client, JobSpec, Json, Lane, Workload};
use crp_workload::{ispd18_profiles, netlist_only_profiles};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// One kind of job in the mix.
struct Shape {
    label: &'static str,
    profile: &'static str,
    divisor: f64,
    mode: JobMode,
    iterations: usize,
}

const SHAPES: [Shape; 3] = [
    Shape {
        label: "crp_test1",
        profile: "ispd18_test1",
        divisor: 400.0,
        mode: JobMode::Crp,
        iterations: 2,
    },
    Shape {
        label: "crp_test2",
        profile: "ispd18_test2",
        divisor: 900.0,
        mode: JobMode::Crp,
        iterations: 2,
    },
    Shape {
        label: "place_fanout",
        profile: "gp_fanout",
        divisor: 200.0,
        mode: JobMode::Place,
        iterations: 1,
    },
];

/// GP iterations of a `place` job. With a checkpoint after every
/// iteration the job's compute is mostly checkpoint writes; at the
/// default 64 it lands on the ~40 ms delayed-ACK stall of the watch
/// request, and its latency flips between three and four stalls from
/// run to run. 16 keeps it well clear.
const PLACE_GP_ITERATIONS: usize = 16;

/// Seed-derived variants of each shape; jobs cycle through them.
const POOL: usize = 48;
/// The two tenants jobs alternate between.
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// The daemon's worker-thread budget.
const DAEMON_THREADS: &str = "2";
/// Daemon starts timed for `serve.start_ms`; the last one serves the
/// load.
const STARTS: usize = 31;
/// Timed set-up rounds; each generates every variant's input.
const SETUP_ROUNDS: usize = 5;

/// One variant of one shape: its job spec and what it must produce.
struct Variant {
    /// `<shape>-<variant>`, as in its input file names.
    name: String,
    shape: usize,
    spec: JobSpec,
    def: String,
    guide: String,
    score: Score,
}

/// Client-side record of one completed job.
#[derive(Default)]
struct JobRecord {
    shape: usize,
    latency_ms: f64,
    submit_ms: f64,
    first_event_ms: f64,
    watch_ms: f64,
    fetch_ms: f64,
    fetch_bytes: u64,
    compute_s: f64,
}

/// What the load loop gathered.
#[derive(Default)]
struct Load {
    jobs: Vec<JobRecord>,
    failures: Vec<String>,
    retries: u64,
}

/// Runs the workload and fills `m`. Returns `(attempted, failed)`.
pub fn run(args: &Args, m: &mut Metrics) -> Result<(u64, u64), String> {
    let crpd = args.crpd.as_ref().ok_or("daemon_jobs needs --crpd")?;
    let work = args.work_dir.join(format!("daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let work = work
        .canonicalize()
        .map_err(|e| format!("cannot resolve {}: {e}", work.display()))?;
    let result = run_in(args, m, crpd, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, m: &mut Metrics, crpd: &Path, work: &Path) -> Result<(u64, u64), String> {
    // Daemon starts come first, while this process is still small.
    let mut starts = Vec::new();
    let mut daemon = None;
    for i in 0..STARTS {
        let d = Daemon::start(crpd, &work.join(format!("data-{i}")))?;
        starts.push(d.ready_s);
        if i + 1 < STARTS {
            d.stop();
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("daemon never started")?;
    // Set-up rounds each generate every input. Each round is timed as a
    // whole: single inputs take well under a millisecond, too little to
    // time steadily. Each is scaled to reference host speed by a probe
    // taken just before it (see `calib`).
    let mut setups = Vec::new();
    let mut texts = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let probe = crate::calib::probe_s();
        let t = Instant::now();
        texts = generate_inputs(args.seed)?;
        setups.push(t.elapsed().as_secs_f64() * crate::calib::REFERENCE_S / probe);
    }
    let variants = prepare_variants(&texts, work)?;
    let mut failed = 0;

    let load_start = Instant::now();
    let deadline = load_start + Duration::from_secs_f64(args.seconds);
    let load = client_loop(&daemon.addr, &variants, deadline);
    let load_s = load_start.elapsed().as_secs_f64();
    let server = server_metrics(&daemon.addr);
    let checkpoint_bytes = dir_bytes(&daemon.data_dir);
    let rss = peak_rss_mib(&daemon.child.id().to_string());
    daemon.stop();
    for f in &load.failures {
        println!("FAILED {f}");
    }
    failed += load.failures.len() as u64;
    let attempted = (load.jobs.len() + load.failures.len()).max(1) as u64;
    let jobs = &load.jobs;
    if jobs.is_empty() {
        return Ok((attempted, failed.max(1)));
    }

    let col = |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> { jobs.iter().map(f).collect() };
    let latency = col(&|j| j.latency_ms);
    let mut sorted = latency.clone();
    sorted.sort_by(f64::total_cmp);
    let shape_median = |s: usize, f: &dyn Fn(&Variant) -> f64| -> f64 {
        median(
            &variants
                .iter()
                .filter(|v| v.shape == s)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let mut flow_s = 0.0;
    for (s, shape) in SHAPES.iter().enumerate() {
        let lat: Vec<f64> = jobs
            .iter()
            .filter(|j| j.shape == s)
            .map(|j| j.latency_ms)
            .collect();
        if lat.is_empty() {
            return Err(format!("no {} job completed", shape.label));
        }
        flow_s += median(&lat) / 1e3;
        print_timing(&format!("{} job latency", shape.label), "ms", &lat);
    }
    let quality = |f: &dyn Fn(&Variant) -> f64| -> f64 {
        (0..SHAPES.len()).map(|s| shape_median(s, f)).sum()
    };
    m.set("flow_s", flow_s);
    // A daemon start takes about 2 ms or about 3.5 ms depending on how
    // the host schedules the two processes, and a whole run can sit in
    // either mode, so it is a per-layer figure, not part of `setup_s`.
    m.set("setup_s", median(&setups));
    m.set("serve.start_ms", median(&starts) * 1e3);
    m.set("peak_rss_mib", rss.ok_or("cannot read the daemon's VmHWM")?);
    m.set("score_weighted", quality(&|v| v.score.weighted));
    m.set(
        "wirelength_dbu",
        quality(&|v| v.score.wirelength_dbu as f64),
    );
    m.set("vias", quality(&|v| v.score.vias as f64));
    m.set("jobs_per_s", jobs.len() as f64 / load_s);
    m.set("job_p50_ms", median(&sorted));
    m.set("job_p95_ms", percentile(&sorted, 95.0));
    print_timing("job latency (submit to fetched)", "ms", &latency);
    print_timing("daemon start to first accepted connection", "s", &starts);

    for (verb, f) in [
        (
            "submit",
            &(|j: &JobRecord| j.submit_ms) as &dyn Fn(&JobRecord) -> f64,
        ),
        ("first_event", &|j: &JobRecord| j.first_event_ms),
        ("watch", &|j: &JobRecord| j.watch_ms),
        ("fetch", &|j: &JobRecord| j.fetch_ms),
    ] {
        let v = col(f);
        let s = Summary::of(&v).ok_or("no samples")?;
        m.set(&format!("serve.{verb}_ms"), s.median);
        // Below 20 samples the rule gives no tail; fall back to the max.
        let max = v.iter().copied().fold(f64::MIN, f64::max);
        m.set(
            &format!("serve.{verb}_tail_ms"),
            s.tail.map_or(max, |(_, t)| t),
        );
        print_timing(&format!("client {verb}"), "ms", &v);
    }
    for verb in ["submit", "watch", "fetch", "metrics"] {
        m.set(
            &format!("serve.server_{verb}_us"),
            server.p50_us(verb) as f64,
        );
    }
    let client_ms = median(&col(&|j| j.submit_ms)) + median(&col(&|j| j.fetch_ms));
    let server_ms = (server.p50_us("submit") + server.p50_us("fetch")) as f64 / 1e3;
    m.set("serve.transport_gap_ms", client_ms - server_ms);
    m.set("serve.admission_retries", load.retries as f64);
    m.set("serve.job_compute_s", median(&col(&|j| j.compute_s)));
    m.set(
        "serve.checkpoint_bytes",
        checkpoint_bytes as f64 / jobs.len() as f64,
    );
    m.set("serve.fetch_bytes", median(&col(&|j| j.fetch_bytes as f64)));
    let drvs: usize = variants.iter().map(|v| v.score.drvs).sum();
    m.set("dr.drvs", drvs as f64);
    let exact = variants.iter().flat_map(|v| {
        let s = v.score;
        [
            crate::fnv(v.def.bytes().chain(v.guide.bytes()).map(u64::from)),
            s.wirelength_dbu as u64,
            s.vias,
            s.drvs as u64,
            s.weighted.to_bits(),
        ]
    });
    if !crate::same_as_last_run(args, variants.len(), crate::fnv(exact)) {
        failed += 1;
    }
    println!(
        "jobs: {} completed in {load_s:.2} s over one connection; {} variants ({POOL} per shape), drvs over all variants {drvs}",
        jobs.len(),
        variants.len()
    );
    Ok((attempted, failed))
}

/// Every variant's LEF and DEF text, shape-major: `POOL` variants of
/// each shape.
fn generate_inputs(seed: u64) -> Result<Vec<(String, String)>, String> {
    let profiles: Vec<_> = ispd18_profiles()
        .into_iter()
        .chain(netlist_only_profiles())
        .collect();
    let mut out = Vec::new();
    for shape in &SHAPES {
        let base = profiles
            .iter()
            .find(|p| p.name == shape.profile)
            .ok_or_else(|| format!("no profile {}", shape.profile))?
            .scaled(shape.divisor);
        for v in 0..POOL {
            let design = perturb(&base, seed, v as u64).generate();
            out.push((write_lef(&design), write_def(&design)));
        }
    }
    Ok(out)
}

/// Writes every variant's LEF/DEF and runs its in-process reference.
fn prepare_variants(texts: &[(String, String)], work: &Path) -> Result<Vec<Variant>, String> {
    let inputs = work.join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (i, (lef_text, def_text)) in texts.iter().enumerate() {
        let (s, v) = (i / POOL, i % POOL);
        let shape = &SHAPES[s];
        let name = format!("{}-{v}", shape.label);
        let stem = inputs.join(&name);
        let lef = stem.with_extension("lef");
        let def = stem.with_extension("def");
        write(&lef, lef_text)?;
        write(&def, def_text)?;
        let spec = JobSpec {
            tenant: TENANTS[0].to_string(),
            workload: Workload::LefDef {
                lef: lef.display().to_string(),
                def: def.display().to_string(),
            },
            iterations: shape.iterations,
            threads: 1,
            priority: Lane::Normal,
            checkpoint_every: 1,
            mode: shape.mode,
            gp_iterations: PLACE_GP_ITERATIONS,
            ..JobSpec::default()
        };
        let dir = work.join("reference").join(&name);
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let no = AtomicBool::new(false);
        run_job(&spec, &dir, 1, &no, &no, &mut |_| {}).map_err(|e| e.msg)?;
        let read = |f: &str| {
            std::fs::read_to_string(dir.join(f)).map_err(|e| format!("reference {f}: {e}"))
        };
        out.push(Variant {
            def: read(RESULT_DEF_FILE)?,
            guide: read(RESULT_GUIDE_FILE)?,
            score: final_score(&spec, &dir)?,
            name,
            shape: s,
            spec,
        });
    }
    Ok(out)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Detailed-routes a reference job's final state: restores its final
/// checkpoint onto the base design and runs DR on the result. Returns
/// the detailed-routing score of what the daemon returns.
fn final_score(spec: &JobSpec, dir: &Path) -> Result<Score, String> {
    let ckpt = Checkpoint::load(&dir.join(CHECKPOINT_FILE))
        .map_err(|e| e.msg)?
        .ok_or("reference job left no final checkpoint")?;
    let mut design = build_base_design(&spec.workload).map_err(|e| e.msg)?;
    let (grid, routing, _) = ckpt.restore(&mut design, spec.config).map_err(|e| e.msg)?;
    let detailed = DetailedRouter::new(DrConfig::default()).run(&design, &grid, &routing);
    Ok(evaluate(&detailed))
}

/// A running `crpd` child process.
struct Daemon {
    child: Child,
    /// Held open so the daemon's stdout never sees a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    data_dir: PathBuf,
    ready_s: f64,
}

impl Daemon {
    /// Starts `crpd` on an ephemeral loopback port and waits until it
    /// answers a `ping` on a fresh connection.
    fn start(crpd: &Path, data_dir: &Path) -> Result<Daemon, String> {
        let t = Instant::now();
        let mut child = Command::new(crpd)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--threads")
            .arg(DAEMON_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", crpd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("crpd has no stdout")?);
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("crpd listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("crpd did not report its address: {line:?}"));
        };
        // The daemon has started once its listening socket accepts a
        // connection; a ping on that connection, untimed, checks that it
        // also answers.
        let conn = Client::connect(&addr);
        let ready_s = t.elapsed().as_secs_f64();
        let ping = conn.and_then(|mut c| c.call(&Json::obj(vec![("verb", Json::str("ping"))])));
        if let Err(e) = ping {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("crpd at {addr} did not answer: {e}"));
        }
        Ok(Daemon {
            ready_s,
            child,
            _stdout: stdout,
            addr,
            data_dir: data_dir.to_path_buf(),
        })
    }

    /// Asks the daemon to shut down and waits for it; dropping it kills
    /// it when it does not exit in time.
    fn stop(mut self) {
        let _ = Client::connect(&self.addr)
            .and_then(|mut c| c.call(&Json::obj(vec![("verb", Json::str("shutdown"))])));
        let give_up = Instant::now() + Duration::from_secs(20);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    /// Never leaves a daemon behind, whatever ended the run.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One load connection: runs jobs back to back until the deadline.
fn client_loop(addr: &str, variants: &[Variant], deadline: Instant) -> Load {
    let mut load = Load::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            load.failures.push(format!("connect: {e}"));
            return load;
        }
    };
    let mut j = 0;
    while Instant::now() < deadline {
        // Round robin over shapes; tenants alternate; variants cycle.
        let shape = j % SHAPES.len();
        let v = &variants[shape * POOL + (j / SHAPES.len()) % POOL];
        let mut spec = v.spec.clone();
        spec.tenant = TENANTS[j % TENANTS.len()].to_string();
        match run_one(&mut client, &spec, v, &mut load.retries) {
            Ok(rec) => load.jobs.push(rec),
            Err(e) => {
                load.failures.push(format!("job {j} ({}): {e}", v.name));
                // The connection may be out of step; start a fresh one.
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => return load,
                }
            }
        }
        j += 1;
    }
    load
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Submit → watch to the end → fetch, checking the result.
fn run_one(
    client: &mut Client,
    spec: &JobSpec,
    v: &Variant,
    retries: &mut u64,
) -> Result<JobRecord, String> {
    let start = Instant::now();
    let submit = Json::obj(vec![
        ("verb", Json::str("submit")),
        ("spec", spec.to_json()),
    ]);
    let (id, submit_ms) = loop {
        let t = Instant::now();
        match client.call(&submit) {
            Ok(r) => {
                break (
                    r.get("id").and_then(Json::as_u64).ok_or("submit: no id")?,
                    ms(t),
                )
            }
            // Queue-full and quota-full rejections are admission control
            // working, not failures: back off and retry.
            Err(e) if e.msg.contains("queue") || e.msg.contains("quota") => {
                *retries += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(format!("submit: {e}")),
        }
    };
    let id_json = Json::Int(i128::from(id));
    let t = Instant::now();
    client
        .send(&Json::obj(vec![
            ("verb", Json::str("watch")),
            ("id", id_json.clone()),
            ("from", Json::Int(0)),
        ]))
        .map_err(|e| format!("watch: {e}"))?;
    let mut first_event_ms = None;
    let mut compute_s = 0.0;
    let state = loop {
        let r = client.read_response().map_err(|e| format!("watch: {e}"))?;
        if let Some(ev) = r.get("event") {
            first_event_ms.get_or_insert_with(|| ms(t));
            // CR&P events carry the accumulated stage timers.
            if let Some(ns) = ev
                .get("timers")
                .and_then(|t| t.get("total_ns"))
                .and_then(Json::as_f64)
            {
                compute_s = ns * 1e-9;
            }
        } else if r.get("done").is_some() {
            break r
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
        }
    };
    let watch_ms = ms(t);
    if state != "done" {
        // The job's recorded error says why.
        let why = client
            .call(&Json::obj(vec![
                ("verb", Json::str("status")),
                ("id", id_json),
            ]))
            .ok()
            .and_then(|r| r.get("job")?.get("error")?.as_str().map(str::to_string))
            .unwrap_or_default();
        return Err(format!("job ended {state}: {why}"));
    }
    let t = Instant::now();
    let r = client
        .call(&Json::obj(vec![
            ("verb", Json::str("fetch")),
            ("id", id_json),
        ]))
        .map_err(|e| format!("fetch: {e}"))?;
    let fetch_ms = ms(t);
    let def = r.get("def").and_then(Json::as_str).ok_or("fetch: no def")?;
    let guide = r
        .get("guide")
        .and_then(Json::as_str)
        .ok_or("fetch: no guide")?;
    if def != v.def {
        return Err("fetched DEF differs from the in-process reference".to_string());
    }
    if guide != v.guide {
        return Err("fetched guide differs from the in-process reference".to_string());
    }
    Ok(JobRecord {
        shape: v.shape,
        latency_ms: ms(start),
        submit_ms,
        first_event_ms: first_event_ms.ok_or("watch: no events")?,
        watch_ms,
        fetch_ms,
        fetch_bytes: (def.len() + guide.len()) as u64,
        compute_s,
    })
}

/// Server-side verb latencies from the `metrics` verb.
struct ServerVerbs(Option<Json>);

impl ServerVerbs {
    fn p50_us(&self, verb: &str) -> u64 {
        self.0
            .as_ref()
            .and_then(|v| v.get(verb))
            .and_then(|v| v.get("latency"))
            .and_then(|l| l.get("p50_us"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }
}

/// Reads the daemon's verb histograms. Asks twice: a `metrics` call's
/// own latency lands only in the next snapshot.
fn server_metrics(addr: &str) -> ServerVerbs {
    let req = Json::obj(vec![("verb", Json::str("metrics"))]);
    let snap = Client::connect(addr).and_then(|mut c| {
        c.call(&req)?;
        c.call(&req)
    });
    ServerVerbs(
        snap.ok()
            .and_then(|s| s.get("server").and_then(|v| v.get("verbs")).cloned()),
    )
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
