//! The job scheduler: bounded admission with per-tenant quotas,
//! deficit-round-robin fair-share dispatch, thread-budget partitioning,
//! and crash recovery.
//!
//! One mutex + condvar protect all scheduler state. A dedicated
//! dispatcher thread pops the next runnable job — chosen by the
//! [`Ledger`]'s deficit round robin across tenants, high lane before
//! normal within a tenant — whenever a worker slot and enough thread
//! budget are free, and spawns a worker thread for it. Workers run
//! [`run_job`] under `catch_unwind`, so a panicking flow (e.g. a
//! `crp-check` invariant failure) marks the job `Failed` with the
//! diagnostic-bundle path instead of killing the daemon.
//!
//! Every state transition is persisted to `jobs/<id>/state.json` before
//! it is observable over the wire, and every event is appended to
//! `jobs/<id>/events.jsonl` before it is, so a SIGKILL at any instant
//! leaves a directory tree from which [`Scheduler::recover`]
//! reconstructs the queue: `Running` jobs (whose worker died with the
//! process) simply re-enter their lane and resume from their last
//! checkpoint.
//!
//! Only live jobs (queued, running, checkpointed) are held in memory.
//! A job that reaches a terminal state is folded into the metrics
//! counters and dropped, and from then on `status`, `watch`, `fetch`
//! and `cancel` read its directory — the same directory `recover`
//! reads, so a finished job looks the same whether it finished in this
//! process or before a restart, and the daemon's memory does not grow
//! with the number of jobs it has served.

use crate::driver::{run_job, RunOutcome, WatchEvent, CHECKPOINT_FILE, GP_CHECKPOINT_FILE};
use crate::error::ServeError;
use crate::fairshare::{FinishKind, Ledger, TenantQuota, TenantView};
use crate::json::{parse, Json};
use crate::persist::{remove_spares, replace_file};
use crate::signal::ChangeSignal;
use crate::spec::{JobSpec, JobState, Lane};
use crp_core::StageTimers;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// File name of a job's event log inside its directory: one
/// [`WatchEvent::to_json`] line per event, appended as it is produced.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Why `submit` turns a job away once `drain` has begun.
const DRAINING: &str = "daemon is draining; not accepting jobs";

/// Scheduler tunables.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Root data directory; jobs live under `<data_dir>/jobs/<id>/`.
    pub data_dir: PathBuf,
    /// Maximum jobs waiting in the lanes; submissions beyond this are
    /// rejected with a reason (admission control).
    pub queue_capacity: usize,
    /// Total worker-thread budget partitioned across running jobs.
    pub total_threads: usize,
    /// Maximum jobs running concurrently.
    pub max_running: usize,
    /// Quota for tenants without an explicit override. `None` means "no
    /// tighter than the daemon-wide limits above".
    pub default_quota: Option<TenantQuota>,
    /// Per-tenant quota overrides.
    pub quotas: Vec<(String, TenantQuota)>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            data_dir: std::env::temp_dir().join("crpd-data"),
            queue_capacity: 16,
            total_threads: 4,
            max_running: 2,
            default_quota: None,
            quotas: Vec::new(),
        }
    }
}

/// Per-job control flags shared between the scheduler and the worker.
#[derive(Debug, Default)]
struct JobFlags {
    cancel: AtomicBool,
    pause: AtomicBool,
}

/// Everything the scheduler tracks about one job.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    /// Error message when `Failed`.
    error: Option<String>,
    /// Iterations completed (from the last event or checkpoint).
    iterations_done: usize,
    /// Thread budget granted while `Running`.
    granted: usize,
    /// Per-iteration events observed so far, the same list as the
    /// job's `events.jsonl` (resume-aware: prefilled from that file on
    /// recovery).
    events: Vec<WatchEvent>,
    /// Every event reached `events.jsonl`. A job whose log missed one
    /// stays in memory when it finishes, since its directory could not
    /// serve `watch` faithfully.
    logged: bool,
    flags: Arc<JobFlags>,
}

impl JobRecord {
    fn new(spec: JobSpec, state: JobState) -> JobRecord {
        JobRecord {
            spec,
            state,
            error: None,
            iterations_done: 0,
            granted: 0,
            events: Vec::new(),
            logged: true,
            flags: Arc::new(JobFlags::default()),
        }
    }
}

/// What the metrics count of jobs: jobs per state and price-cache
/// totals. The scheduler keeps one for the jobs that left memory, and a
/// snapshot adds the live jobs to a copy.
#[derive(Debug, Default, Clone)]
struct Census {
    /// Jobs per state, by wire name.
    states: BTreeMap<&'static str, usize>,
    cache_hits: u64,
    cache_misses: u64,
}

impl Census {
    /// Counts a job by its state and latest event. A CR&P event carries
    /// the flow's lifetime price-cache counters (the timers accumulate
    /// across iterations and survive checkpoint restore), a GP event
    /// none yet.
    fn add(&mut self, state: JobState, last: Option<&WatchEvent>) {
        *self.states.entry(state.as_str()).or_insert(0) += 1;
        if let Some(t) = last.and_then(WatchEvent::timers) {
            self.cache_hits = self.cache_hits.saturating_add(t.ecc_cache_hits);
            self.cache_misses = self.cache_misses.saturating_add(t.ecc_cache_misses);
        }
    }
}

#[derive(Debug)]
struct SchedState {
    /// Live jobs only; finished ones are on disk and in `retired`.
    jobs: BTreeMap<u64, JobRecord>,
    retired: Census,
    ledger: Ledger,
    next_id: u64,
    running: usize,
    free_threads: usize,
    draining: bool,
}

/// The shared scheduler handle. Cloning is cheap; all clones drive the
/// same state.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

struct SchedInner {
    config: SchedConfig,
    state: Mutex<SchedState>,
    /// Woken on every state change: the dispatcher re-evaluates and
    /// `drain` re-checks.
    cond: Condvar,
    /// Bumped with `cond`, for the socket workers serving `watch`.
    changes: Arc<ChangeSignal>,
}

/// A point-in-time public view of one job, for `status` responses.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// The tenant the job is accounted to.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling lane.
    pub priority: Lane,
    /// Iterations completed so far.
    pub iterations_done: usize,
    /// Total iterations requested.
    pub iterations_total: usize,
    /// Thread budget granted (0 unless running).
    pub granted_threads: usize,
    /// Failure message, when `Failed`.
    pub error: Option<String>,
    /// The last iteration's event, when any iteration has completed.
    pub last_event: Option<WatchEvent>,
}

impl JobStatus {
    /// Serializes the status for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::Int(i128::from(self.id))),
            ("tenant", Json::str(&self.tenant)),
            ("state", Json::str(self.state.as_str())),
            ("priority", Json::str(self.priority.as_str())),
            ("iterations_done", Json::Int(self.iterations_done as i128)),
            ("iterations_total", Json::Int(self.iterations_total as i128)),
            ("granted_threads", Json::Int(self.granted_threads as i128)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Json::str(e)));
        }
        if let Some(ev) = &self.last_event {
            fields.push(("last", ev.to_json()));
        }
        Json::obj(fields)
    }
}

/// A point-in-time snapshot of the scheduler for the `metrics` verb:
/// queue depths per tenant and lane, grant utilization, admission
/// counters, job-state census, and aggregated price-cache statistics.
#[derive(Debug, Clone)]
pub struct SchedMetrics {
    /// Global queue capacity.
    pub queue_capacity: usize,
    /// Jobs queued across all tenants.
    pub queued: usize,
    /// Jobs running.
    pub running: usize,
    /// Maximum concurrently running jobs.
    pub max_running: usize,
    /// Daemon-wide worker-thread budget.
    pub total_threads: usize,
    /// Threads not currently granted.
    pub free_threads: usize,
    /// Whether a drain is in progress.
    pub draining: bool,
    /// Per-tenant views, in name order.
    pub tenants: Vec<TenantView>,
    /// Count of jobs per lifecycle state, by wire name.
    pub states: BTreeMap<&'static str, usize>,
    /// Jobs held in memory: the live ones, plus any finished job whose
    /// directory could not be completed.
    pub resident: usize,
    /// Price-cache hits summed over every known job's latest timers.
    pub cache_hits: u64,
    /// Price-cache misses summed over every known job's latest timers.
    pub cache_misses: u64,
}

impl SchedMetrics {
    /// Serializes the snapshot for the wire.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let c = t.counters;
                (
                    t.name.clone(),
                    Json::obj(vec![
                        ("queued_high", Json::Int(t.queued_high as i128)),
                        ("queued_normal", Json::Int(t.queued_normal as i128)),
                        ("running", Json::Int(t.running as i128)),
                        ("threads_in_use", Json::Int(t.threads_in_use as i128)),
                        ("deficit", Json::Int(i128::from(t.deficit))),
                        (
                            "quota",
                            Json::obj(vec![
                                ("max_queued", Json::Int(t.quota.max_queued as i128)),
                                ("max_running", Json::Int(t.quota.max_running as i128)),
                                ("thread_share", Json::Int(t.quota.thread_share as i128)),
                            ]),
                        ),
                        ("admitted", Json::Int(i128::from(c.admitted))),
                        ("rejected", Json::Int(i128::from(c.rejected))),
                        ("dispatched", Json::Int(i128::from(c.dispatched))),
                        ("completed", Json::Int(i128::from(c.completed))),
                        ("failed", Json::Int(i128::from(c.failed))),
                        ("cancelled", Json::Int(i128::from(c.cancelled))),
                        ("parked", Json::Int(i128::from(c.parked))),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let states = self
            .states
            .iter()
            .map(|(&name, &n)| (name.to_string(), Json::Int(n as i128)))
            .collect::<Vec<_>>();
        let cache = StageTimers {
            ecc_cache_hits: self.cache_hits,
            ecc_cache_misses: self.cache_misses,
            ..StageTimers::default()
        };
        let hit_rate = cache.ecc_cache_hit_rate().map_or(Json::Null, Json::Float);
        let in_use = self.total_threads.saturating_sub(self.free_threads);
        #[allow(clippy::cast_precision_loss)]
        let utilization = if self.total_threads > 0 {
            Json::Float(in_use as f64 / self.total_threads as f64)
        } else {
            Json::Null
        };
        Json::obj(vec![
            (
                "queue",
                Json::obj(vec![
                    ("capacity", Json::Int(self.queue_capacity as i128)),
                    ("queued", Json::Int(self.queued as i128)),
                    ("running", Json::Int(self.running as i128)),
                    ("max_running", Json::Int(self.max_running as i128)),
                    ("resident", Json::Int(self.resident as i128)),
                    ("draining", Json::Bool(self.draining)),
                ]),
            ),
            (
                "threads",
                Json::obj(vec![
                    ("total", Json::Int(self.total_threads as i128)),
                    ("free", Json::Int(self.free_threads as i128)),
                    ("in_use", Json::Int(in_use as i128)),
                    ("utilization", utilization),
                ]),
            ),
            ("tenants", Json::Obj(tenants)),
            ("states", Json::Obj(states)),
            (
                "price_cache",
                Json::obj(vec![
                    ("hits", Json::Int(i128::from(self.cache_hits))),
                    ("misses", Json::Int(i128::from(self.cache_misses))),
                    ("hit_rate", hit_rate),
                ]),
            ),
        ])
    }
}

fn lock_state(inner: &SchedInner) -> std::sync::MutexGuard<'_, SchedState> {
    // A worker that panicked between state writes poisons nothing
    // observable: all invariants are re-established under this lock.
    inner
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The numeric entries of `jobs/`: every id a job directory exists for.
fn job_ids(jobs_root: &Path) -> Result<Vec<u64>, ServeError> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(jobs_root)? {
        if let Some(id) = entry?
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// A job as its directory records it.
struct JobDir {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
}

fn read_job_dir(dir: &Path) -> Result<JobDir, ServeError> {
    let spec_text = std::fs::read_to_string(dir.join("spec.json"))?;
    let spec = JobSpec::from_json(&parse(&spec_text)?)?;
    let state_text = std::fs::read_to_string(dir.join("state.json"))?;
    let state_json = parse(&state_text)?;
    let state = state_json
        .get("state")
        .and_then(Json::as_str)
        .and_then(JobState::from_name)
        .ok_or_else(|| ServeError::new("bad state.json"))?;
    let error = state_json
        .get("error")
        .and_then(Json::as_str)
        .map(str::to_string);
    Ok(JobDir { spec, state, error })
}

/// Writes `state.json` atomically (see `persist`).
fn write_state(dir: &Path, state: JobState, error: Option<&str>) -> std::io::Result<()> {
    let mut fields = vec![("state", Json::str(state.as_str()))];
    if let Some(e) = error {
        fields.push(("error", Json::str(e)));
    }
    replace_file(
        &dir.join("state.json"),
        Json::obj(fields).to_string().as_bytes(),
    )
}

/// The first `limit` events of an `events.jsonl` log, and the byte
/// length of the lines they came from: every newline-terminated line up
/// to the first that does not parse. A line without its newline is a
/// write torn by a crash, and is dropped.
fn parse_events(log: &[u8], limit: usize) -> (Vec<WatchEvent>, usize) {
    let mut events = Vec::new();
    let mut taken = 0;
    for line in log.split_inclusive(|&b| b == b'\n').take(limit) {
        let event = line
            .strip_suffix(b"\n")
            .and_then(|body| std::str::from_utf8(body).ok())
            .and_then(|text| parse(text).ok())
            .and_then(|v| WatchEvent::from_json(&v).ok());
        let Some(event) = event else {
            break;
        };
        events.push(event);
        taken += line.len();
    }
    (events, taken)
}

fn read_events(dir: &Path) -> Vec<WatchEvent> {
    let log = std::fs::read(dir.join(EVENTS_FILE)).unwrap_or_default();
    parse_events(&log, usize::MAX).0
}

/// Appends one event line to the job's log in a single write. `log` is
/// the log opened by an earlier call of the same run, if any.
fn append_event(
    log: &mut Option<std::fs::File>,
    dir: &Path,
    ev: &WatchEvent,
) -> std::io::Result<()> {
    let mut line = ev.to_json().to_string();
    line.push('\n');
    let file = match log {
        Some(file) => file,
        None => log.insert(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(EVENTS_FILE))?,
        ),
    };
    file.write_all(line.as_bytes())
}

impl Scheduler {
    /// Creates a scheduler, its data directory, and the dispatcher
    /// thread. Job ids continue past every directory already under
    /// `jobs/`, so a new job never lands in an old job's directory.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the data directory cannot be
    /// created or read.
    pub fn new(config: SchedConfig) -> Result<Scheduler, ServeError> {
        let jobs_root = config.data_dir.join("jobs");
        std::fs::create_dir_all(&jobs_root)?;
        let next_id = job_ids(&jobs_root)?.last().map_or(0, |&id| id + 1);
        let free_threads = config.total_threads.max(1);
        let default_quota = config.default_quota.unwrap_or_else(|| {
            TenantQuota::unlimited_within(config.queue_capacity, config.max_running, free_threads)
        });
        let ledger = Ledger::new(config.queue_capacity, default_quota, config.quotas.clone());
        let sched = Scheduler {
            inner: Arc::new(SchedInner {
                config,
                state: Mutex::new(SchedState {
                    jobs: BTreeMap::new(),
                    retired: Census::default(),
                    ledger,
                    next_id,
                    running: 0,
                    free_threads,
                    draining: false,
                }),
                cond: Condvar::new(),
                changes: Arc::new(ChangeSignal::default()),
            }),
        };
        let for_dispatch = sched.clone();
        std::thread::Builder::new()
            .name("crpd-dispatch".to_string())
            .spawn(move || for_dispatch.dispatch_loop())
            .map_err(|e| ServeError::new(format!("cannot spawn dispatcher: {e}")))?;
        Ok(sched)
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.inner.config.data_dir.join("jobs").join(id.to_string())
    }

    /// The directory jobs live under (for result fetching).
    #[must_use]
    pub fn data_dir(&self) -> &Path {
        &self.inner.config.data_dir
    }

    /// The signal bumped on every job event and state change. Socket
    /// workers wait on it between service cycles; the server also bumps
    /// it when it hands a worker a new connection.
    #[must_use]
    pub(crate) fn changes(&self) -> &Arc<ChangeSignal> {
        &self.inner.changes
    }

    /// Wakes the dispatcher, `drain`, and the socket workers after a
    /// state change has been made visible.
    fn notify(&self) {
        self.inner.cond.notify_all();
        self.inner.changes.bump();
    }

    /// Scans `jobs/` and re-enqueues every job a previous daemon process
    /// left unfinished. `Running` jobs become `Queued` again (their
    /// worker died with the old process; their checkpoint carries the
    /// completed iterations). Terminal jobs stay on disk, where
    /// `status` / `watch` / `fetch` read them; only their counts and
    /// price-cache totals enter the metrics. Returns how many jobs were
    /// re-enqueued.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the jobs directory is unreadable;
    /// individual corrupt job dirs are skipped, not fatal.
    pub fn recover(&self) -> Result<usize, ServeError> {
        let mut revived = 0;
        for id in job_ids(&self.inner.config.data_dir.join("jobs"))? {
            match self.recover_one(id) {
                Ok(true) => revived += 1,
                Ok(false) => {}
                Err(_) => {} // corrupt dir: skip, don't take the daemon down
            }
        }
        if revived > 0 {
            self.notify();
        }
        Ok(revived)
    }

    fn recover_one(&self, id: u64) -> Result<bool, ServeError> {
        let dir = self.job_dir(id);
        let JobDir { spec, state, error } = read_job_dir(&dir)?;
        if state.is_terminal() {
            let last = read_events(&dir).pop();
            lock_state(&self.inner).retired.add(state, last.as_ref());
            return Ok(false);
        }
        let ckpt = crate::checkpoint::Checkpoint::load(&dir.join(CHECKPOINT_FILE)).unwrap_or(None);
        // Progress counts over the combined (GP + CR&P) range: a CR&P
        // checkpoint implies the GP phase finished, so its iteration
        // count is offset by the GP phase; with only a GP snapshot the
        // solver's own iteration counter is the progress.
        let iterations_done = match &ckpt {
            Some(c) => spec.gp_phase_iterations() + c.iterations_done,
            None => crate::checkpoint::load_gp_state(&dir.join(GP_CHECKPOINT_FILE))
                .unwrap_or(None)
                .map_or(0, |s| s.iter),
        };
        // The resumed run starts at the checkpoint and emits every later
        // event again, so the log keeps exactly the checkpointed prefix:
        // a torn last line and any event after the checkpoint are cut.
        let log_path = dir.join(EVENTS_FILE);
        let log = std::fs::read(&log_path).unwrap_or_default();
        let (events, kept) = parse_events(&log, iterations_done);
        if kept < log.len() {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&log_path)?
                .set_len(kept as u64)?;
        }

        let mut st = lock_state(&self.inner);
        let lane = spec.priority;
        let tenant = spec.tenant.clone();
        let mut rec = JobRecord::new(spec, JobState::Queued);
        rec.error = error;
        rec.iterations_done = iterations_done;
        rec.events = events;
        st.jobs.insert(id, rec);
        st.ledger.enqueue_recovered(&tenant, lane, id);
        drop(st);
        self.persist_state(id, JobState::Queued, None);
        Ok(true)
    }

    /// Admits a job or rejects it with a reason (queue full, tenant
    /// quota full, or draining).
    ///
    /// The job's directory, `spec.json` and `state.json` are written
    /// before the ledger sees the job: the dispatcher may start it the
    /// moment it is admitted, and its first checkpoint needs the
    /// directory. A rejected job's directory is removed again.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] with the rejection reason, or when the
    /// job directory cannot be written; the job is not recorded.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, ServeError> {
        let id = {
            let mut st = lock_state(&self.inner);
            // Turn away what admission would reject before touching the
            // disk. The checks below decide, since a drain may begin or
            // the queue fill meanwhile.
            if st.draining {
                return Err(ServeError::new(DRAINING));
            }
            if let Err(reason) = st.ledger.admission(&spec.tenant) {
                st.ledger.reject(&spec.tenant);
                return Err(ServeError::new(reason));
            }
            st.next_id += 1;
            st.next_id - 1
        };
        let dir = self.job_dir(id);
        // `create_dir`, not `create_dir_all`: a directory that already
        // exists belongs to someone else and must not be adopted.
        std::fs::create_dir(&dir)?;
        let admitted = std::fs::write(dir.join("spec.json"), spec.to_json().to_string())
            .and_then(|()| write_state(&dir, JobState::Queued, None))
            .map_err(ServeError::from)
            .and_then(|()| {
                let mut st = lock_state(&self.inner);
                if st.draining {
                    return Err(ServeError::new(DRAINING));
                }
                st.ledger
                    .admit(&spec.tenant, spec.priority, id)
                    .map_err(ServeError::new)?;
                st.jobs.insert(id, JobRecord::new(spec, JobState::Queued));
                Ok(())
            });
        if let Err(e) = admitted {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
        self.notify();
        Ok(id)
    }

    /// Requests cancellation. Queued jobs are removed from their lane
    /// immediately; running jobs stop at the next iteration boundary.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for unknown job ids.
    pub fn cancel(&self, id: u64) -> Result<JobState, ServeError> {
        let mut st = lock_state(&self.inner);
        let Some(rec) = st.jobs.get(&id) else {
            drop(st);
            return self.retired_job(id).map(|job| job.state);
        };
        let state = rec.state;
        let tenant = rec.spec.tenant.clone();
        match state {
            JobState::Queued | JobState::Checkpointed => {
                // A queued job sits in a lane; a checkpointed job was
                // already struck from the ledger when it parked.
                if state == JobState::Queued {
                    st.ledger.cancel_queued(&tenant, id);
                }
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.state = JobState::Cancelled;
                    rec.flags.cancel.store(true, Ordering::Release);
                }
                drop(st);
                if self.persist_state(id, JobState::Cancelled, None) {
                    self.retire(id);
                }
                self.notify();
                Ok(JobState::Cancelled)
            }
            JobState::Running => {
                rec.flags.cancel.store(true, Ordering::Release);
                Ok(JobState::Running) // will transition at the boundary
            }
            terminal => Ok(terminal),
        }
    }

    /// A finished job that is no longer in memory, read from its
    /// directory. Only terminal states are served from disk: a live job
    /// not in memory is a submission still being written, or one a
    /// `recover` has not revived, and is unknown until it is admitted.
    fn retired_job(&self, id: u64) -> Result<JobDir, ServeError> {
        match read_job_dir(&self.job_dir(id)) {
            Ok(job) if job.state.is_terminal() => Ok(job),
            _ => Err(ServeError::new(format!("unknown job {id}"))),
        }
    }

    fn retired_status(&self, id: u64) -> Result<JobStatus, ServeError> {
        let job = self.retired_job(id)?;
        let last_event = read_events(&self.job_dir(id)).pop();
        Ok(JobStatus {
            id,
            tenant: job.spec.tenant.clone(),
            state: job.state,
            priority: job.spec.priority,
            iterations_done: last_event.as_ref().map_or(0, |ev| ev.iteration + 1),
            iterations_total: job.spec.total_iterations(),
            granted_threads: 0,
            error: job.error,
            last_event,
        })
    }

    fn status_of(rec: &JobRecord, id: u64) -> JobStatus {
        JobStatus {
            id,
            tenant: rec.spec.tenant.clone(),
            state: rec.state,
            priority: rec.spec.priority,
            iterations_done: rec.iterations_done,
            iterations_total: rec.spec.total_iterations(),
            granted_threads: rec.granted,
            error: rec.error.clone(),
            last_event: rec.events.last().cloned(),
        }
    }

    /// A point-in-time view of one job.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for unknown job ids.
    pub fn status(&self, id: u64) -> Result<JobStatus, ServeError> {
        let live = lock_state(&self.inner)
            .jobs
            .get(&id)
            .map(|rec| Self::status_of(rec, id));
        match live {
            Some(status) => Ok(status),
            None => self.retired_status(id),
        }
    }

    /// Status of every known job, in id order: the live jobs from
    /// memory and the finished ones from their directories.
    #[must_use]
    pub fn status_all(&self) -> Vec<JobStatus> {
        let mut all: BTreeMap<u64, JobStatus> = {
            let st = lock_state(&self.inner);
            st.jobs
                .iter()
                .map(|(&id, rec)| (id, Self::status_of(rec, id)))
                .collect()
        };
        // A job that retires after the snapshot above is listed from
        // memory; one that retired before it is on disk.
        let on_disk = job_ids(&self.inner.config.data_dir.join("jobs")).unwrap_or_default();
        for id in on_disk {
            if let std::collections::btree_map::Entry::Vacant(slot) = all.entry(id) {
                if let Ok(status) = self.retired_status(id) {
                    slot.insert(status);
                }
            }
        }
        all.into_values().collect()
    }

    /// A consistent snapshot of queue depths, tenant accounting, thread
    /// utilization, job-state census, and price-cache statistics —
    /// everything behind the `metrics` verb that the scheduler owns.
    #[must_use]
    pub fn metrics(&self) -> SchedMetrics {
        let st = lock_state(&self.inner);
        let mut census = st.retired.clone();
        for rec in st.jobs.values() {
            census.add(rec.state, rec.events.last());
        }
        SchedMetrics {
            queue_capacity: self.inner.config.queue_capacity,
            queued: st.ledger.queued_total(),
            running: st.running,
            max_running: self.inner.config.max_running,
            total_threads: self.inner.config.total_threads.max(1),
            free_threads: st.free_threads,
            draining: st.draining,
            tenants: st.ledger.views(),
            states: census.states,
            resident: st.jobs.len(),
            cache_hits: census.cache_hits,
            cache_misses: census.cache_misses,
        }
    }

    /// Returns whatever events exist from index `from` on (possibly
    /// none) and the job's current state, immediately. This is the
    /// non-blocking poll behind the `watch` verb: a socket worker calls
    /// it again whenever the scheduler's change signal moves, so one slow
    /// watcher cannot stall a socket worker.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] for unknown job ids.
    pub fn watch_poll(
        &self,
        id: u64,
        from: usize,
    ) -> Result<(Vec<WatchEvent>, JobState), ServeError> {
        let live = lock_state(&self.inner)
            .jobs
            .get(&id)
            .map(|rec| (rec.events.get(from..).unwrap_or(&[]).to_vec(), rec.state));
        if let Some(poll) = live {
            return Ok(poll);
        }
        let state = self.retired_job(id)?.state;
        let events = read_events(&self.job_dir(id));
        Ok((events.get(from..).unwrap_or(&[]).to_vec(), state))
    }

    /// Begins draining: rejects new submissions, asks every running job
    /// to pause at its next iteration boundary, and returns once all
    /// workers have parked their jobs as `Checkpointed` (or finished).
    pub fn drain(&self) {
        let mut st = lock_state(&self.inner);
        st.draining = true;
        for rec in st.jobs.values() {
            if rec.state == JobState::Running {
                rec.flags.pause.store(true, Ordering::Release);
            }
        }
        self.notify();
        while st.running > 0 {
            let guard = self
                .inner
                .cond
                // crp-lint: allow(held-lock-blocking, condvar wait atomically releases the state mutex it is paired with; no other lock is held
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
    }

    /// Writes `state.json` for a job. Returns whether it reached disk:
    /// persistence is best-effort durability, not correctness — a failed
    /// write degrades crash recovery, never live behavior, and keeps a
    /// finished job in memory.
    fn persist_state(&self, id: u64, state: JobState, error: Option<&str>) -> bool {
        let dir = self.job_dir(id);
        let written = write_state(&dir, state, error).is_ok();
        if written && state.is_terminal() {
            // Nothing in a finished job's directory is rewritten again.
            for file in ["state.json", CHECKPOINT_FILE, GP_CHECKPOINT_FILE] {
                remove_spares(&dir.join(file));
            }
        }
        written
    }

    /// Drops a finished job's record, folding it into the retired
    /// counters, once its directory holds everything `status`, `watch`
    /// and `fetch` serve. Call it after the terminal `state.json` is
    /// written.
    fn retire(&self, id: u64) {
        let mut st = lock_state(&self.inner);
        if st
            .jobs
            .get(&id)
            .is_some_and(|rec| rec.state.is_terminal() && rec.logged)
        {
            if let Some(rec) = st.jobs.remove(&id) {
                st.retired.add(rec.state, rec.events.last());
            }
        }
    }

    /// Dispatcher: runs until the process exits. Waits for a runnable
    /// job + free capacity, grants a thread budget, and spawns a worker.
    fn dispatch_loop(&self) {
        loop {
            let (id, granted) = {
                let mut st = lock_state(&self.inner);
                loop {
                    if let Some(pick) = self.pick_runnable(&mut st) {
                        break pick;
                    }
                    let guard = self
                        .inner
                        .cond
                        // crp-lint: allow(held-lock-blocking, condvar wait atomically releases the state mutex it is paired with; no other lock is held
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st = guard;
                }
            };
            let sched = self.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("crpd-job-{id}"))
                .spawn(move || sched.run_worker(id, granted));
            if spawned.is_err() {
                // Could not spawn: return the job to the front of its
                // lane, as if the dispatch never happened.
                let mut st = lock_state(&self.inner);
                st.running = st.running.saturating_sub(1);
                st.free_threads += granted;
                let returned = st.jobs.get_mut(&id).map(|rec| {
                    rec.state = JobState::Queued;
                    rec.granted = 0;
                    (rec.spec.tenant.clone(), rec.spec.priority)
                });
                if let Some((tenant, lane)) = returned {
                    st.ledger.rollback_dispatch(&tenant, lane, id, granted);
                }
            }
        }
    }

    /// Picks the next runnable job when a slot and budget are available.
    /// The ledger's deficit round robin chooses the tenant (high lane
    /// before normal within it); holding the lock, moves the job to
    /// `Running` and reserves its thread grant, capped by the tenant's
    /// remaining thread share.
    fn pick_runnable(&self, st: &mut SchedState) -> Option<(u64, usize)> {
        if st.draining || st.running >= self.inner.config.max_running || st.free_threads == 0 {
            return None;
        }
        let (tenant, id, _lane) = st.ledger.pick()?;
        let Some(rec) = st.jobs.get_mut(&id) else {
            // Record vanished (cancel raced): drop the pick entirely.
            st.ledger.finish(&tenant, 0, FinishKind::Cancelled);
            return None;
        };
        // Grant min(requested, free, tenant share left), at least 1 (the
        // ledger only picks tenants with share left). A job never waits
        // for more than one thread: shrinking the grant changes speed,
        // not results, because `run_indexed` is bit-identical at any
        // thread count.
        let share_left = st.ledger.share_left(&tenant).max(1);
        let granted = rec.spec.threads.clamp(1, st.free_threads).min(share_left);
        st.running += 1;
        st.free_threads -= granted;
        rec.state = JobState::Running;
        rec.granted = granted;
        st.ledger.grant_threads(&tenant, granted);
        Some((id, granted))
    }

    /// Worker body: runs the job, then applies the outcome under the
    /// lock and persists it.
    fn run_worker(&self, id: u64, granted: usize) {
        self.persist_state(id, JobState::Running, None);
        let (spec, flags) = {
            let st = lock_state(&self.inner);
            match st.jobs.get(&id) {
                Some(rec) => (rec.spec.clone(), Arc::clone(&rec.flags)),
                None => return,
            }
        };
        let dir = self.job_dir(id);
        let sched = self.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut log = None;
            let mut on_event = |ev: WatchEvent| {
                // The log gets the event before memory does, so a job
                // that leaves memory has all of its events on disk.
                let logged = append_event(&mut log, &dir, &ev).is_ok();
                let mut st = lock_state(&sched.inner);
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.iterations_done = ev.iteration + 1;
                    rec.logged &= logged;
                    rec.events.push(ev);
                }
                drop(st);
                sched.notify();
            };
            run_job(
                &spec,
                &dir,
                granted,
                &flags.cancel,
                &flags.pause,
                &mut on_event,
            )
        }));

        let (state, error) = match result {
            Ok(Ok(RunOutcome::Finished)) => (JobState::Done, None),
            Ok(Ok(RunOutcome::Paused)) => (JobState::Checkpointed, None),
            Ok(Ok(RunOutcome::Cancelled)) => (JobState::Cancelled, None),
            Ok(Err(e)) => (JobState::Failed, Some(e.msg)),
            Err(payload) => {
                // A crp-check failure panics with the bundle path in its
                // message; surface it to `status` instead of dying.
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "worker panicked".to_string());
                (JobState::Failed, Some(msg))
            }
        };

        let mut st = lock_state(&self.inner);
        st.running = st.running.saturating_sub(1);
        st.free_threads += granted;
        let mut final_state = state;
        if let Some(rec) = st.jobs.get_mut(&id) {
            rec.granted = 0;
            // A cancel that raced the final iteration still wins.
            final_state = if rec.flags.cancel.load(Ordering::Acquire) && state != JobState::Done {
                JobState::Cancelled
            } else {
                state
            };
            rec.state = final_state;
            rec.error = error.clone();
            let kind = match final_state {
                JobState::Done => FinishKind::Completed,
                JobState::Failed => FinishKind::Failed,
                JobState::Checkpointed => FinishKind::Parked,
                _ => FinishKind::Cancelled,
            };
            let tenant = rec.spec.tenant.clone();
            st.ledger.finish(&tenant, granted, kind);
        }
        drop(st);
        if self.persist_state(id, final_state, error.as_deref()) && final_state.is_terminal() {
            self.retire(id);
        }
        self.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn tiny_spec(iters: usize) -> JobSpec {
        JobSpec {
            workload: Workload::Profile {
                name: "ispd18_test1".to_string(),
                scale: 800.0,
            },
            iterations: iters,
            ..JobSpec::default()
        }
    }

    fn tenant_spec(tenant: &str, iters: usize) -> JobSpec {
        JobSpec {
            tenant: tenant.to_string(),
            ..tiny_spec(iters)
        }
    }

    fn sched(tag: &str, cap: usize) -> Scheduler {
        let dir = std::env::temp_dir().join(format!("crp-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scheduler::new(SchedConfig {
            data_dir: dir,
            queue_capacity: cap,
            total_threads: 2,
            max_running: 2,
            ..SchedConfig::default()
        })
        .unwrap()
    }

    /// The `watch` verb's wait: polls until job `id` has an event at
    /// index `from` or later or is terminal, sleeping on the change
    /// signal between polls.
    fn watch(
        s: &Scheduler,
        id: u64,
        from: usize,
    ) -> Result<(Vec<WatchEvent>, JobState), ServeError> {
        loop {
            let seen = s.changes().generation();
            let (events, state) = s.watch_poll(id, from)?;
            if !events.is_empty() || state.is_terminal() {
                return Ok((events, state));
            }
            s.changes()
                .wait_past(seen, std::time::Duration::from_millis(500));
        }
    }

    fn wait_terminal(s: &Scheduler, id: u64) -> JobState {
        let (_, state) = watch(s, id, usize::MAX).unwrap();
        state
    }

    /// Waits until no job is resident. A finished job leaves memory
    /// just after its terminal state is persisted, so a watcher can see
    /// that state a moment before the record is gone.
    fn wait_retired(s: &Scheduler) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while s.metrics().resident > 0 {
            assert!(std::time::Instant::now() < deadline, "jobs stay resident");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn submit_run_watch_completes() {
        let s = sched("basic", 4);
        let id = s.submit(tiny_spec(2)).unwrap();
        let (events, state) = watch(&s, id, 0).unwrap();
        assert!(!events.is_empty());
        let state = if state.is_terminal() {
            state
        } else {
            wait_terminal(&s, id)
        };
        assert_eq!(state, JobState::Done);
        let status = s.status(id).unwrap();
        assert_eq!(status.iterations_done, 2);
        assert_eq!(status.tenant, "default");
        assert!(s.data_dir().join("jobs/0/result.def").exists());
    }

    #[test]
    fn queue_full_rejects_with_reason() {
        let s = sched("full", 1);
        // Saturate: 2 can start running, 1 sits queued, the next must be
        // rejected. Submit quickly; jobs take long enough to overlap.
        let mut accepted = 0;
        let mut rejected = None;
        for _ in 0..8 {
            match s.submit(tiny_spec(50)) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("expected an admission rejection");
        assert!(e.msg.contains("queue full"), "{e}");
        assert!(accepted >= 1);
        // The rejected job's directory was removed again.
        let dirs = std::fs::read_dir(s.data_dir().join("jobs"))
            .unwrap()
            .count();
        assert_eq!(dirs, accepted);
    }

    /// The job directory is written before the ledger can dispatch the
    /// job, so a job never runs without a place for its checkpoints.
    /// Here the directory cannot be created at all: the submission must
    /// fail without admitting anything.
    #[test]
    fn submit_admits_only_after_the_job_dir_is_written() {
        let s = sched("dir-first", 4);
        // A plain file where the next job's directory would go.
        std::fs::write(s.data_dir().join("jobs/0"), b"").unwrap();
        let e = s.submit(tiny_spec(1)).unwrap_err();
        assert!(e.msg.contains("io error"), "{e}");
        assert!(
            s.status(0).is_err(),
            "a job without a directory was admitted"
        );
        let m = s.metrics();
        assert_eq!(m.resident, 0);
        assert_eq!(m.queued + m.running, 0);
        assert!(m.tenants.iter().all(|t| t.counters.admitted == 0));
        // The next submission gets a fresh id and runs to completion.
        let id = s.submit(tiny_spec(1)).unwrap();
        assert_ne!(id, 0);
        assert_eq!(wait_terminal(&s, id), JobState::Done);
    }

    #[test]
    fn tenant_queue_quota_rejects_with_reason() {
        let dir = std::env::temp_dir().join(format!("crp-sched-quota-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scheduler::new(SchedConfig {
            data_dir: dir,
            queue_capacity: 64,
            total_threads: 2,
            max_running: 1,
            quotas: vec![(
                "greedy".to_string(),
                TenantQuota {
                    max_queued: 2,
                    max_running: 1,
                    thread_share: 1,
                },
            )],
            ..SchedConfig::default()
        })
        .unwrap();
        // Fill the running slot so submissions stay queued.
        let _running = s.submit(tenant_spec("greedy", 50)).unwrap();
        let mut rejected = None;
        for _ in 0..6 {
            match s.submit(tenant_spec("greedy", 50)) {
                Ok(_) => {}
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let e = rejected.expect("expected a tenant quota rejection");
        assert!(e.msg.contains("tenant `greedy` queue quota"), "{e}");
        // Another tenant is still admitted.
        assert!(s.submit(tenant_spec("polite", 1)).is_ok());
        let m = s.metrics();
        let greedy = m.tenants.iter().find(|t| t.name == "greedy").unwrap();
        assert!(greedy.counters.rejected >= 1);
    }

    #[test]
    fn cancel_queued_job_never_runs() {
        let s = sched("cancel", 8);
        // Two long jobs occupy both slots; the third stays queued.
        let _a = s.submit(tiny_spec(6)).unwrap();
        let _b = s.submit(tiny_spec(6)).unwrap();
        let c = s.submit(tiny_spec(6)).unwrap();
        let state = s.cancel(c).unwrap();
        assert_eq!(state, JobState::Cancelled);
        assert_eq!(s.status(c).unwrap().state, JobState::Cancelled);
    }

    /// Finished jobs leave memory; every verb then reads their
    /// directories, and so does a new scheduler over the same data dir,
    /// which also continues the ids past them.
    #[test]
    fn finished_jobs_are_served_from_their_directories() {
        let s = sched("retire", 4);
        let a = s.submit(tiny_spec(2)).unwrap();
        let b = s.submit(tiny_spec(50)).unwrap();
        assert_eq!(wait_terminal(&s, a), JobState::Done);
        s.cancel(b).unwrap();
        assert_eq!(wait_terminal(&s, b), JobState::Cancelled);
        wait_retired(&s);

        let status = s.status(a).unwrap();
        assert_eq!(status.iterations_done, 2);
        assert_eq!(status.last_event.as_ref().map(|e| e.iteration), Some(1));
        let (events, state) = s.watch_poll(a, 0).unwrap();
        assert_eq!((events.len(), state), (2, JobState::Done));
        assert_eq!(s.watch_poll(a, 1).unwrap().0, events[1..]);
        assert_eq!(s.cancel(a).unwrap(), JobState::Done);
        let all = s.status_all();
        assert_eq!(all.iter().map(|j| j.id).collect::<Vec<_>>(), [a, b]);
        assert_eq!(all[0], status);
        // A finished job's directory keeps no spare of a rewritten file.
        let names = |id: u64| {
            let mut names: Vec<String> = std::fs::read_dir(s.job_dir(id))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            names(a),
            [
                CHECKPOINT_FILE,
                EVENTS_FILE,
                crate::driver::RESULT_DEF_FILE,
                crate::driver::RESULT_GUIDE_FILE,
                "spec.json",
                "state.json",
            ]
        );
        assert!(
            names(b)
                .iter()
                .all(|n| !n.ends_with(".tmp") && !n.ends_with(".old")),
            "{:?}",
            names(b)
        );

        let s2 = Scheduler::new(SchedConfig {
            data_dir: s.data_dir().to_path_buf(),
            ..SchedConfig::default()
        })
        .unwrap();
        assert_eq!(s2.status(a).unwrap(), status);
        assert_eq!(s2.status_all(), all);
        assert!(s2.submit(tiny_spec(1)).unwrap() > b);
    }

    #[test]
    fn event_log_stops_at_a_torn_or_corrupt_line() {
        let ev = |iteration| WatchEvent {
            iteration,
            total: 3,
            stats: crate::driver::IterStats::Crp(
                crp_core::IterationReport {
                    iteration,
                    critical_cells: 1,
                    candidates: 2,
                    cost_before: 1.5,
                    cost_after: 1.25,
                    ..Default::default()
                },
                StageTimers::default(),
            ),
        };
        let line = |i| format!("{}\n", ev(i).to_json());
        let torn = format!("{}{}{}", line(0), line(1), &line(2)[..20]);
        let two = line(0).len() + line(1).len();
        assert_eq!(
            parse_events(torn.as_bytes(), usize::MAX),
            (vec![ev(0), ev(1)], two)
        );
        assert_eq!(
            parse_events(torn.as_bytes(), 1),
            (vec![ev(0)], line(0).len())
        );
        let corrupt = format!("{}not json\n{}", line(0), line(2));
        assert_eq!(parse_events(corrupt.as_bytes(), usize::MAX).0, vec![ev(0)]);
        let not_utf8 = [line(0).as_bytes(), b"\xff\n"].concat();
        assert_eq!(parse_events(&not_utf8, usize::MAX).0, vec![ev(0)]);
    }

    #[test]
    fn unknown_job_is_an_error() {
        let s = sched("unknown", 4);
        assert!(s.status(99).is_err());
        assert!(s.cancel(99).is_err());
        assert!(watch(&s, 99, 0).is_err());
        assert!(s.watch_poll(99, 0).is_err());
    }

    #[test]
    fn drain_parks_running_jobs_checkpointed() {
        let s = sched("drain", 8);
        let id = s.submit(tiny_spec(50)).unwrap();
        // Wait until it has produced at least one event, then drain.
        let _ = watch(&s, id, 0).unwrap();
        s.drain();
        let state = s.status(id).unwrap().state;
        assert!(
            state == JobState::Checkpointed || state == JobState::Done,
            "after drain: {state:?}"
        );
        let e = s.submit(tiny_spec(1)).unwrap_err();
        assert!(e.msg.contains("draining"), "{e}");
        // The rejected job left no directory behind.
        let dirs = std::fs::read_dir(s.data_dir().join("jobs"))
            .unwrap()
            .count();
        assert_eq!(dirs, 1);
        // Per-tenant accounting returned to zero.
        let m = s.metrics();
        for t in &m.tenants {
            assert_eq!(t.running, 0, "{}", t.name);
            assert_eq!(t.threads_in_use, 0, "{}", t.name);
            assert_eq!(t.queued_high + t.queued_normal, 0, "{}", t.name);
        }
    }

    #[test]
    fn recover_requeues_unfinished_jobs() {
        let dir = std::env::temp_dir().join(format!("crp-sched-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SchedConfig {
            data_dir: dir.clone(),
            queue_capacity: 8,
            total_threads: 2,
            max_running: 2,
            ..SchedConfig::default()
        };
        {
            let s = Scheduler::new(config.clone()).unwrap();
            let id = s.submit(tiny_spec(50)).unwrap();
            let _ = watch(&s, id, 0).unwrap(); // at least one iteration done
            s.drain(); // park it with a checkpoint, like a graceful stop
        }
        // "New process": a fresh scheduler over the same data dir.
        let s2 = Scheduler::new(config).unwrap();
        let revived = s2.recover().unwrap();
        assert_eq!(revived, 1);
        let id = s2.status_all()[0].id;
        let state = s2.status(id).unwrap().state;
        assert!(
            state == JobState::Queued || state == JobState::Running || state == JobState::Done,
            "recovered into {state:?}"
        );
    }

    /// A checkpoint the daemon cannot use does not stop `recover`: the job
    /// is queued again and fails with an error that names the fault. A
    /// diagonal segment fails to decode, and one outside the grid fails
    /// the restore.
    #[test]
    fn recover_fails_jobs_with_corrupt_checkpoints() {
        for (tag, want) in [
            ("diagonal", "is not axis-aligned"),
            ("offgrid", "outside the"),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("crp-sched-corrupt-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = SchedConfig {
                data_dir: dir.clone(),
                queue_capacity: 8,
                total_threads: 2,
                max_running: 2,
                ..SchedConfig::default()
            };
            let (id, path) = {
                let s = Scheduler::new(config.clone()).unwrap();
                // Far more iterations than run before the drain parks it.
                let id = s.submit(tiny_spec(1000)).unwrap();
                let _ = watch(&s, id, 0).unwrap();
                s.drain();
                (id, s.job_dir(id).join(CHECKPOINT_FILE))
            };
            let mut ckpt = crate::checkpoint::Checkpoint::load(&path)
                .unwrap()
                .expect("a drained job leaves a checkpoint");
            let seg = ckpt
                .routes
                .iter_mut()
                .find_map(|r| r.segs.first_mut())
                .unwrap();
            if tag == "diagonal" {
                seg.to = (seg.from.0 + 1, seg.from.1 + 1);
            } else {
                seg.from.0 += 10_000;
                seg.to.0 += 10_000;
            }
            ckpt.save(&path).unwrap();

            let s2 = Scheduler::new(config).unwrap();
            assert_eq!(s2.recover().unwrap(), 1, "{tag}");
            assert_eq!(wait_terminal(&s2, id), JobState::Failed, "{tag}");
            let error = s2.status(id).unwrap().error.unwrap_or_default();
            assert!(error.contains(want), "{tag}: {error}");
        }
    }

    /// A greedy tenant flooding the queue cannot delay another tenant's
    /// queued job beyond its fair turn: the polite tenant's single job
    /// completes while most of the flood is still queued.
    #[test]
    fn greedy_tenant_does_not_starve_polite_one() {
        let dir = std::env::temp_dir().join(format!("crp-sched-fair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Scheduler::new(SchedConfig {
            data_dir: dir,
            queue_capacity: 64,
            total_threads: 1,
            max_running: 1,
            ..SchedConfig::default()
        })
        .unwrap();
        let mut flood = Vec::new();
        for _ in 0..10 {
            flood.push(s.submit(tenant_spec("greedy", 1)).unwrap());
        }
        let polite = s.submit(tenant_spec("polite", 1)).unwrap();
        // Greedy jobs that finished before the polite job was queued ran
        // while it did not exist yet; only the later ones count.
        let done = |id: u64| s.status(id).unwrap().state == JobState::Done;
        let earlier: Vec<u64> = flood.iter().copied().filter(|&id| done(id)).collect();
        let state = wait_terminal(&s, polite);
        assert_eq!(state, JobState::Done);
        // Fair share (equal weights): at most a couple of greedy jobs ran
        // between the polite job's arrival and its turn.
        let done_after = flood
            .iter()
            .filter(|&&id| !earlier.contains(&id) && done(id))
            .count();
        assert!(
            done_after <= 3,
            "{done_after} greedy jobs finished after the polite tenant's single job was queued \
             and before it finished"
        );
    }

    #[test]
    fn metrics_snapshot_is_internally_consistent() {
        let s = sched("metrics", 8);
        let a = s.submit(tenant_spec("a", 2)).unwrap();
        let b = s.submit(tenant_spec("b", 2)).unwrap();
        wait_terminal(&s, a);
        wait_terminal(&s, b);
        let m = s.metrics();
        let queued_sum: usize = m
            .tenants
            .iter()
            .map(|t| t.queued_high + t.queued_normal)
            .sum();
        assert_eq!(queued_sum, m.queued);
        assert_eq!(m.queued, 0);
        assert_eq!(m.free_threads, m.total_threads);
        let done = m.states.get("done").copied().unwrap_or(0);
        assert_eq!(done, 2);
        // Both jobs ran with the price cache on: hits+misses > 0 and the
        // snapshot carried them.
        assert!(m.cache_hits + m.cache_misses > 0);
        let json = m.to_json().to_string();
        let v = parse(&json).unwrap();
        assert_eq!(
            v.get("queue")
                .and_then(|q| q.get("queued"))
                .and_then(Json::as_usize),
            Some(0)
        );
    }
}
