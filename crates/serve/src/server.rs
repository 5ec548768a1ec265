//! The TCP front end: a line-delimited JSON request/response protocol
//! over plain `std::net` sockets and threads (no async runtime).
//!
//! Each connection carries any number of requests, one JSON object per
//! line. Every request gets at least one response line of the form
//! `{"ok":true,...}` or `{"ok":false,"error":"..."}`. The `watch` verb
//! is the only streaming one: it emits one `{"ok":true,"event":...}`
//! line per completed iteration and terminates with a
//! `{"ok":true,"done":true,"state":...}` line once the job reaches a
//! terminal state. See `DESIGN.md` §10 for the full protocol.
//!
//! ## Connection pool
//!
//! Connections are served by a **bounded pool**: one accept thread and a
//! fixed set of worker threads, each multiplexing its share of
//! connections over non-blocking sockets. Hundreds of concurrent
//! clients therefore cost a handful of threads, not one thread each,
//! and a client flood cannot exhaust the process: beyond
//! [`PoolConfig::max_conns`] open connections, new clients get one
//! `{"ok":false,...}` line and are turned away (counted in the
//! `metrics` snapshot).
//!
//! A `watch` becomes a *subscription* on its connection: the worker
//! polls the scheduler's non-blocking [`Scheduler::watch_poll`] each
//! service cycle and streams new events out, so a slow watcher never
//! stalls the other connections on the same worker. Further request
//! lines on that connection are buffered until the watch completes,
//! preserving the protocol's serial request/response order.
//!
//! ## Wakeups
//!
//! A worker with nothing to do waits on the scheduler's
//! `ChangeSignal`, which every job event and state change bumps, and
//! which the accept thread bumps when it hands over a connection. The
//! worker reads the generation *before* servicing, so a change that
//! lands mid-cycle ends the next wait at once. Request bytes on a socket
//! bump nothing (std has no readiness API), so the wait also times out:
//! 50 µs right after the worker last made progress, doubling per idle
//! cycle up to 2 ms. A client's next request usually follows its last
//! response closely and is picked up within the short waits; an idle
//! daemon settles at one wakeup per worker every 2 ms.
//!
//! Every socket sets `TCP_NODELAY`: responses are whole lines written
//! at once, and Nagle's algorithm would only hold a line back until the
//! client ACKs the previous one.

use crate::driver::{RESULT_DEF_FILE, RESULT_GUIDE_FILE};
use crate::error::ServeError;
use crate::json::{parse, Json};
use crate::metrics::ServerMetrics;
use crate::scheduler::Scheduler;
use crate::signal::ChangeSignal;
use crate::spec::{JobMode, JobSpec, JobState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Longest request line the server accepts; longer lines close the
/// connection with an error (a submit spec is a few hundred bytes).
const MAX_LINE: usize = 1 << 20;

/// A worker's first wait after it last made progress.
const MIN_WAIT: Duration = Duration::from_micros(50);

/// A worker's longest wait: how often an idle worker polls its sockets.
const MAX_WAIT: Duration = Duration::from_millis(2);

/// Connection-pool sizing.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum open connections; further clients are rejected with an
    /// error line.
    pub max_conns: usize,
    /// Socket worker threads multiplexing the connections.
    pub workers: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            max_conns: 512,
            workers: 2,
        }
    }
}

/// A running daemon front end.
pub struct Server {
    addr: SocketAddr,
    scheduler: Scheduler,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
}

impl Server {
    /// Binds `addr` with the default pool sizing. Use port 0 for an
    /// ephemeral port.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the address cannot be bound.
    pub fn start(addr: &str, scheduler: Scheduler) -> Result<Server, ServeError> {
        Server::start_with(addr, scheduler, PoolConfig::default())
    }

    /// Binds `addr`, spawns the accept thread and `pool.workers` socket
    /// workers, and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] when the address cannot be bound or a
    /// pool thread cannot be spawned.
    pub fn start_with(
        addr: &str,
        scheduler: Scheduler,
        pool: PoolConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::new(format!("cannot bind {addr}: {e}")))?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::default());
        let workers = pool.workers.max(1);
        let mut inboxes: Vec<Arc<Mutex<Vec<Conn>>>> = Vec::with_capacity(workers);
        for w in 0..workers {
            let inbox = Arc::new(Mutex::new(Vec::new()));
            inboxes.push(Arc::clone(&inbox));
            let scheduler = scheduler.clone();
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name(format!("crpd-pool-{w}"))
                .spawn(move || worker_loop(&inbox, &scheduler, &shutdown, &metrics))
                .map_err(|e| ServeError::new(format!("cannot spawn pool worker: {e}")))?;
        }
        let server = Server {
            addr: local,
            scheduler,
            shutdown: Arc::clone(&shutdown),
            metrics: Arc::clone(&metrics),
        };
        let max_conns = pool.max_conns.max(1);
        let changes = Arc::clone(server.scheduler.changes());
        std::thread::Builder::new()
            .name("crpd-accept".to_string())
            .spawn(move || {
                accept_loop(
                    &listener, &inboxes, max_conns, &shutdown, &metrics, &changes,
                );
            })
            .map_err(|e| ServeError::new(format!("cannot spawn accept loop: {e}")))?;
        Ok(server)
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a client has requested shutdown.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until a client requests shutdown. The drain itself happens
    /// in the handler (so the client's response confirms it); this just
    /// parks the main thread.
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    /// The scheduler behind this server.
    #[must_use]
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The server-side request metrics.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }
}

/// One pooled connection and its buffers.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// An active `watch` subscription: job id, next event index, and
    /// when the subscription started (for the latency histogram).
    watch: Option<(u64, usize, std::time::Instant)>,
    /// Client half-closed its read side; finish flushing, then drop.
    read_closed: bool,
    /// Close once `outbuf` drains (shutdown acknowledged or protocol
    /// error).
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            watch: None,
            read_closed: false,
            close_after_flush: false,
            dead: false,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    inboxes: &[Arc<Mutex<Vec<Conn>>>],
    max_conns: usize,
    shutdown: &Arc<AtomicBool>,
    metrics: &Arc<ServerMetrics>,
    changes: &ChangeSignal,
) {
    let mut next_worker = 0usize;
    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::Acquire) {
                    // Raced with a shutdown request while blocked in
                    // accept(): the workers are exiting, so an enqueued
                    // connection would never be serviced. Turn it away.
                    metrics.conn_rejected();
                    turn_away(stream, "server shutting down");
                    return;
                }
                if metrics.open_conns() >= max_conns as u64 {
                    // Pool full: one error line, best effort, then drop.
                    metrics.conn_rejected();
                    turn_away(stream, "server at connection capacity");
                    continue;
                }
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                    continue;
                }
                metrics.conn_opened();
                let inbox = &inboxes[next_worker % inboxes.len()];
                next_worker = next_worker.wrapping_add(1);
                lock_inbox(inbox).push(Conn::new(stream));
                changes.bump();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
}

/// Writes one error line to a connection the pool will not take, best
/// effort, and drops it.
fn turn_away(mut stream: TcpStream, why: &str) {
    let mut line = Vec::new();
    push_line(&mut line, &err(why));
    let _ = stream.write_all(&line);
}

fn lock_inbox(inbox: &Mutex<Vec<Conn>>) -> std::sync::MutexGuard<'_, Vec<Conn>> {
    inbox
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One socket worker: adopts connections from its inbox and multiplexes
/// them until shutdown.
fn worker_loop(
    inbox: &Arc<Mutex<Vec<Conn>>>,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
    metrics: &Arc<ServerMetrics>,
) {
    let changes = scheduler.changes();
    let mut conns: Vec<Conn> = Vec::new();
    let mut wait = MIN_WAIT;
    loop {
        // Read before servicing: a change that lands while the
        // connections below are serviced must cut the wait short.
        let seen = changes.generation();
        {
            let mut incoming = lock_inbox(inbox);
            conns.append(&mut incoming);
        }
        let mut active = false;
        for conn in &mut conns {
            active |= service_conn(conn, scheduler, shutdown, metrics);
        }
        conns.retain(|c| {
            if c.dead {
                metrics.conn_closed();
                false
            } else {
                true
            }
        });
        if shutdown.load(Ordering::Acquire) {
            // Adopt anything still parked in the inbox: connections the
            // accept thread handed over that no cycle has picked up yet
            // would otherwise be dropped un-flushed and leak the
            // open-connection gauge (the lost-wakeup shape the
            // ConnPoolModel race model checks for).
            {
                let mut incoming = lock_inbox(inbox);
                conns.append(&mut incoming);
            }
            // Final flush so in-flight responses (including the shutdown
            // acknowledgement) reach their clients — outside the inbox
            // lock, since socket writes block — then settle the gauge
            // and exit.
            for conn in &mut conns {
                flush_out(conn);
                metrics.conn_closed();
            }
            return;
        }
        if active {
            wait = MIN_WAIT;
        } else {
            changes.wait_past(seen, wait);
            wait = (wait * 2).min(MAX_WAIT);
        }
    }
}

/// Services one connection for one cycle; returns whether anything
/// happened (progress made), to drive the idle backoff.
fn service_conn(
    conn: &mut Conn,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
    metrics: &Arc<ServerMetrics>,
) -> bool {
    if conn.dead {
        return false;
    }
    let mut active = flush_out(conn);
    if conn.dead {
        return active;
    }

    // An active watch subscription streams events before (and instead
    // of) consuming more request lines.
    if let Some((id, from, started)) = conn.watch {
        if conn.outbuf.is_empty() {
            match scheduler.watch_poll(id, from) {
                Ok((events, state)) => {
                    if !events.is_empty() {
                        active = true;
                    }
                    for ev in &events {
                        push_line(&mut conn.outbuf, &ok(vec![("event", ev.to_json())]));
                    }
                    let next = from + events.len();
                    if state.is_terminal() {
                        push_line(
                            &mut conn.outbuf,
                            &ok(vec![
                                ("done", Json::Bool(true)),
                                ("state", Json::str(state.as_str())),
                            ]),
                        );
                        metrics.record("watch", true, elapsed_us(started));
                        conn.watch = None;
                        active = true;
                    } else {
                        conn.watch = Some((id, next, started));
                    }
                }
                Err(e) => {
                    push_line(&mut conn.outbuf, &err(&e.msg));
                    metrics.record("watch", false, elapsed_us(started));
                    conn.watch = None;
                    active = true;
                }
            }
        }
        flush_out(conn);
        return active;
    }

    if !conn.close_after_flush {
        active |= read_available(conn);
        active |= process_lines(conn, scheduler, shutdown, metrics);
    }
    flush_out(conn);
    if conn.outbuf.is_empty() && (conn.close_after_flush || conn.read_closed) {
        conn.dead = true;
    }
    active
}

/// Drains as much of `outbuf` as the socket will take. Returns whether
/// bytes moved.
fn flush_out(conn: &mut Conn) -> bool {
    let mut moved = false;
    while !conn.outbuf.is_empty() {
        match conn.stream.write(&conn.outbuf) {
            Ok(0) => {
                conn.dead = true;
                return moved;
            }
            Ok(n) => {
                conn.outbuf.drain(..n);
                moved = true;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return moved;
            }
            Err(_) => {
                conn.dead = true;
                return moved;
            }
        }
    }
    moved
}

/// Reads whatever the socket has ready into `inbuf`. Returns whether
/// bytes arrived.
fn read_available(conn: &mut Conn) -> bool {
    let mut moved = false;
    let mut buf = [0u8; 4096];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                return moved;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                moved = true;
                if conn.inbuf.len() > MAX_LINE {
                    push_line(&mut conn.outbuf, &err("request line too long"));
                    conn.close_after_flush = true;
                    return moved;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return moved;
            }
            Err(_) => {
                conn.dead = true;
                return moved;
            }
        }
    }
}

/// Handles every complete line currently buffered, stopping early when
/// a request opens a watch subscription or closes the connection.
fn process_lines(
    conn: &mut Conn,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
    metrics: &Arc<ServerMetrics>,
) -> bool {
    let mut active = false;
    while conn.watch.is_none() && !conn.close_after_flush {
        let Some(nl) = conn.inbuf.iter().position(|&b| b == b'\n') else {
            break;
        };
        let line_bytes: Vec<u8> = conn.inbuf.drain(..=nl).collect();
        let line = String::from_utf8_lossy(&line_bytes[..nl]).into_owned();
        if line.trim().is_empty() {
            continue;
        }
        active = true;
        match handle_request(&line, scheduler, shutdown, metrics, &mut conn.outbuf) {
            Action::Continue => {}
            Action::Close => conn.close_after_flush = true,
            Action::Watch { id, from, started } => conn.watch = Some((id, from, started)),
        }
    }
    active
}

/// What the connection should do after a request is handled.
enum Action {
    /// Keep reading requests.
    Continue,
    /// Flush, then close (shutdown acknowledged).
    Close,
    /// Enter watch-subscription mode for job `id` from event `from`.
    Watch {
        id: u64,
        from: usize,
        started: std::time::Instant,
    },
}

fn elapsed_us(started: std::time::Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn ok(fields: Vec<(&str, Json)>) -> String {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all).to_string()
}

fn err(msg: &str) -> String {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(msg))]).to_string()
}

fn push_line(out: &mut Vec<u8>, line: &str) {
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

/// Handles one request line, queuing response lines into `out`.
fn handle_request(
    line: &str,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
    metrics: &Arc<ServerMetrics>,
    out: &mut Vec<u8>,
) -> Action {
    let started = std::time::Instant::now();
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            push_line(out, &err(&format!("malformed request: {e}")));
            metrics.record("malformed", false, elapsed_us(started));
            return Action::Continue;
        }
    };
    let verb = req.get("verb").and_then(Json::as_str).unwrap_or("");
    match verb {
        "ping" => {
            push_line(out, &ok(vec![("pong", Json::Bool(true))]));
            metrics.record("ping", true, elapsed_us(started));
            Action::Continue
        }
        "submit" => {
            let response = req
                .get("spec")
                .ok_or_else(|| ServeError::new("submit needs a `spec` object"))
                .and_then(JobSpec::from_json)
                .and_then(|spec| scheduler.submit(spec));
            let ok_resp = response.is_ok();
            match response {
                Ok(id) => push_line(out, &ok(vec![("id", Json::Int(i128::from(id)))])),
                Err(e) => push_line(out, &err(&e.msg)),
            }
            metrics.record("submit", ok_resp, elapsed_us(started));
            Action::Continue
        }
        "place" => {
            // `submit` with the pipeline forced to the netlist-only cold
            // start: GP spreading + Abacus legalization before CR&P. The
            // same job is reachable through `submit` with
            // `"mode":"place"`; this verb is the spelled-out entry point
            // and wins over whatever `mode` the spec carries.
            let response = req
                .get("spec")
                .ok_or_else(|| ServeError::new("place needs a `spec` object"))
                .and_then(JobSpec::from_json)
                .and_then(|mut spec| {
                    spec.mode = JobMode::Place;
                    scheduler.submit(spec)
                });
            let ok_resp = response.is_ok();
            match response {
                Ok(id) => push_line(out, &ok(vec![("id", Json::Int(i128::from(id)))])),
                Err(e) => push_line(out, &err(&e.msg)),
            }
            metrics.record("place", ok_resp, elapsed_us(started));
            Action::Continue
        }
        "status" => {
            match req.get("id").and_then(Json::as_u64) {
                Some(id) => match scheduler.status(id) {
                    Ok(s) => {
                        push_line(out, &ok(vec![("job", s.to_json())]));
                        metrics.record("status", true, elapsed_us(started));
                    }
                    Err(e) => {
                        push_line(out, &err(&e.msg));
                        metrics.record("status", false, elapsed_us(started));
                    }
                },
                None => {
                    let jobs = scheduler
                        .status_all()
                        .iter()
                        .map(crate::scheduler::JobStatus::to_json)
                        .collect();
                    push_line(out, &ok(vec![("jobs", Json::Arr(jobs))]));
                    metrics.record("status", true, elapsed_us(started));
                }
            }
            Action::Continue
        }
        "watch" => {
            let Some(id) = req.get("id").and_then(Json::as_u64) else {
                push_line(out, &err("watch needs an integer `id`"));
                metrics.record("watch", false, elapsed_us(started));
                return Action::Continue;
            };
            let from = req.get("from").and_then(Json::as_usize).unwrap_or(0);
            // Unknown ids fail fast; valid ids become a subscription the
            // worker polls without blocking.
            match scheduler.watch_poll(id, from) {
                Ok(_) => Action::Watch { id, from, started },
                Err(e) => {
                    push_line(out, &err(&e.msg));
                    metrics.record("watch", false, elapsed_us(started));
                    Action::Continue
                }
            }
        }
        "fetch" => {
            let Some(id) = req.get("id").and_then(Json::as_u64) else {
                push_line(out, &err("fetch needs an integer `id`"));
                metrics.record("fetch", false, elapsed_us(started));
                return Action::Continue;
            };
            let ok_resp;
            match scheduler.status(id) {
                Ok(s) if s.state == JobState::Done => {
                    let dir = scheduler.data_dir().join("jobs").join(id.to_string());
                    let def = std::fs::read_to_string(dir.join(RESULT_DEF_FILE));
                    let guide = std::fs::read_to_string(dir.join(RESULT_GUIDE_FILE));
                    match (def, guide) {
                        (Ok(def), Ok(guide)) => {
                            push_line(
                                out,
                                &ok(vec![("def", Json::str(&def)), ("guide", Json::str(&guide))]),
                            );
                            ok_resp = true;
                        }
                        _ => {
                            push_line(out, &err("results missing on disk"));
                            ok_resp = false;
                        }
                    }
                }
                Ok(s) => {
                    push_line(
                        out,
                        &err(&format!("job {id} is {}, not done", s.state.as_str())),
                    );
                    ok_resp = false;
                }
                Err(e) => {
                    push_line(out, &err(&e.msg));
                    ok_resp = false;
                }
            }
            metrics.record("fetch", ok_resp, elapsed_us(started));
            Action::Continue
        }
        "cancel" => {
            let Some(id) = req.get("id").and_then(Json::as_u64) else {
                push_line(out, &err("cancel needs an integer `id`"));
                metrics.record("cancel", false, elapsed_us(started));
                return Action::Continue;
            };
            let response = scheduler.cancel(id);
            let ok_resp = response.is_ok();
            match response {
                Ok(state) => push_line(out, &ok(vec![("state", Json::str(state.as_str()))])),
                Err(e) => push_line(out, &err(&e.msg)),
            }
            metrics.record("cancel", ok_resp, elapsed_us(started));
            Action::Continue
        }
        "metrics" => {
            // The scheduler side (queues, tenants, threads, price cache)
            // and the server side (verb latencies, connections) in one
            // snapshot. This request's own latency lands in the *next*
            // snapshot.
            let sched = scheduler.metrics().to_json();
            let server = metrics.to_json();
            push_line(out, &ok(vec![("scheduler", sched), ("server", server)]));
            metrics.record("metrics", true, elapsed_us(started));
            Action::Continue
        }
        "shutdown" => {
            // Drain first so the response doubles as the all-clear: every
            // running job is parked `Checkpointed` (or finished) and
            // persisted by the time the client reads this line.
            scheduler.drain();
            shutdown.store(true, Ordering::Release);
            scheduler.changes().bump();
            push_line(out, &ok(vec![("drained", Json::Bool(true))]));
            metrics.record("shutdown", true, elapsed_us(started));
            Action::Close
        }
        other => {
            push_line(out, &err(&format!("unknown verb `{other}`")));
            metrics.record("unknown", false, elapsed_us(started));
            Action::Continue
        }
    }
}
