//! Race-checker models of the `crp-serve` daemon's shared state.
//!
//! Four protocols are modelled for [`crate::race::explore`]:
//!
//! * [`FairshareModel`] drives the **real** [`crp_serve::Ledger`] (it is
//!   `Clone` precisely so these models can branch it) with a submitter,
//!   a dispatcher, and a metrics observer, asserting
//!   `Ledger::check_invariants` after *every* step of *every*
//!   interleaving — admit, pick, grant, finish, cancel, and
//!   rollback-mid-grant included.
//! * [`ConnPoolModel`] is the accept-thread / worker-inbox handoff of
//!   `crp_serve::server`: accept pushes connections into worker
//!   inboxes, workers adopt and service them, shutdown must lose
//!   nothing (no lost wakeup) and service nothing twice (no
//!   double-grant).
//! * [`ChangeSignalModel`] is the change-signal wakeup of a `crp_serve`
//!   pool worker: job events and accept hand-overs bump a generation
//!   while the worker services its connections and then waits, and no
//!   pending change may leave the worker in a full-timeout wait.
//! * [`LockOrderModel`] is the two-lock acquisition-order discipline the
//!   `lock-order` lint rule enforces statically; the inverted variant
//!   deadlocks, which the explorer reports as stuck threads in a
//!   terminal state.
//!
//! Each model has seeded-bad constructors reproducing a specific bug —
//! an unclamped thread grant, a cancel that forgets to strike the
//! queue, a shutdown that skips the final inbox drain, a double push, a
//! lock held across a blocking accept, a generation read after
//! servicing, an inverted lock order — so the test suite can prove the
//! detectors actually fire.

use crp_serve::{FinishKind, Lane, Ledger, TenantQuota};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Fair-share ledger under concurrent admit / dispatch / cancel / observe
// ---------------------------------------------------------------------------

/// One scripted submitter action against the ledger.
#[derive(Debug, Clone)]
enum Op {
    /// `admit(tenant, lane, id)`; rejection is a legal outcome.
    Admit(&'static str, Lane, u64),
    /// Cancel job `id` of `tenant` (queued or already dispatched).
    Cancel(&'static str, u64),
    /// `enqueue_recovered(tenant, lane, id)` — quota-bypassing re-entry.
    Recover(&'static str, Lane, u64),
}

/// A dispatched job whose worker has not yet finished.
#[derive(Debug, Clone)]
struct LiveJob {
    tenant: String,
    id: u64,
    lane: Lane,
    granted: usize,
}

/// Virtual threads: a scripted submitter, a dispatcher doing
/// pick → grant → (rollback | finish), and an observer taking
/// [`Ledger::views`] snapshots. Shared state is one real [`Ledger`]
/// (each step is one critical section under the scheduler's mutex).
///
/// [`Model::check_step`](crate::race::Model::check_step) runs
/// [`Ledger::check_invariants`] after every transition, plus the
/// protocol checks recorded in `violation` (a cancelled-and-struck job
/// must never be dispatched; snapshot aggregates must be consistent).
/// The terminal check drains the ledger to empty on a clone, proving no
/// interleaving strands a queued job.
#[derive(Debug, Clone)]
pub struct FairshareModel {
    ledger: Ledger,
    ops: Vec<Op>,
    op_idx: usize,
    live: Option<LiveJob>,
    /// Remaining dispatcher pick attempts.
    budget: usize,
    /// Roll back the first dispatch instead of finishing it (models a
    /// worker-spawn failure mid-grant).
    rollback_pending: bool,
    /// Threads requested per job before clamping to `share_left`.
    want: usize,
    /// Good protocol clamps the grant to the tenant's remaining share;
    /// the seeded-bad variant grants `want` unchecked.
    clamp_grant: bool,
    /// Good protocol strikes cancelled jobs out of the queue with
    /// `cancel_queued`; the seeded-bad variant only flags them.
    strike_on_cancel: bool,
    /// Ids reported to the client as "cancelled while queued". The good
    /// protocol only reports that after a successful strike.
    cancelled_queued: BTreeSet<u64>,
    /// Ids whose cancel arrived after dispatch; their finish is
    /// `FinishKind::Cancelled`.
    cancel_running: BTreeSet<u64>,
    /// Remaining observer snapshots.
    snapshots: usize,
    /// First protocol violation observed by a step, if any.
    violation: Option<String>,
}

impl FairshareModel {
    fn base(ops: Vec<Op>, overrides: Vec<(String, TenantQuota)>) -> FairshareModel {
        let default_quota = TenantQuota {
            max_queued: 4,
            max_running: 2,
            thread_share: 2,
        };
        FairshareModel {
            ledger: Ledger::new(4, default_quota, overrides),
            ops,
            op_idx: 0,
            live: None,
            budget: 4,
            rollback_pending: true,
            want: 2,
            clamp_grant: true,
            strike_on_cancel: true,
            cancelled_queued: BTreeSet::new(),
            cancel_running: BTreeSet::new(),
            snapshots: 2,
            violation: None,
        }
    }

    /// The correct protocol: two tenants, a cancel racing the
    /// dispatcher, and one dispatch rolled back mid-grant.
    #[must_use]
    pub fn correct() -> FairshareModel {
        FairshareModel::base(
            vec![
                Op::Admit("a", Lane::Normal, 0),
                Op::Admit("b", Lane::Normal, 1),
                Op::Cancel("a", 0),
                Op::Admit("a", Lane::High, 2),
            ],
            Vec::new(),
        )
    }

    /// A larger instance for the scheduled deep run: a recovered
    /// (quota-bypassing) job joins the race and the dispatcher gets more
    /// pick attempts.
    #[must_use]
    pub fn deep() -> FairshareModel {
        let mut m = FairshareModel::base(
            vec![
                Op::Admit("a", Lane::Normal, 0),
                Op::Admit("b", Lane::Normal, 1),
                Op::Recover("b", Lane::High, 3),
                Op::Cancel("a", 0),
                Op::Admit("a", Lane::High, 2),
            ],
            Vec::new(),
        );
        m.budget = 5;
        m
    }

    /// Seeded-bad: the dispatcher grants the full thread request without
    /// clamping to `share_left` — the dropped-invariant `Ledger` bug.
    /// Tenant `a`'s share is 1 while the request is 2, so any schedule
    /// that dispatches `a` breaks `threads <= thread_share`.
    #[must_use]
    pub fn unchecked_grant() -> FairshareModel {
        let tight = TenantQuota {
            max_queued: 4,
            max_running: 2,
            thread_share: 1,
        };
        let mut m = FairshareModel::base(
            vec![
                Op::Admit("a", Lane::Normal, 0),
                Op::Admit("b", Lane::Normal, 1),
            ],
            vec![("a".to_string(), tight)],
        );
        m.clamp_grant = false;
        m.rollback_pending = false;
        m
    }

    /// Seeded-bad: cancel replies "cancelled" to the client but forgets
    /// to strike the job from the ledger's queue, so a schedule exists
    /// where the dispatcher later runs a job the client was told is
    /// dead.
    #[must_use]
    pub fn forgotten_strike() -> FairshareModel {
        let mut m = FairshareModel::correct();
        m.strike_on_cancel = false;
        m
    }

    fn submitter_step(&mut self) {
        let op = self.ops[self.op_idx].clone();
        self.op_idx += 1;
        match op {
            Op::Admit(tenant, lane, id) => {
                // Rejection (queue full / quota) is a legal outcome.
                let _ = self.ledger.admit(tenant, lane, id);
            }
            Op::Recover(tenant, lane, id) => {
                self.ledger.enqueue_recovered(tenant, lane, id);
            }
            Op::Cancel(tenant, id) => {
                if self.strike_on_cancel {
                    if self.ledger.cancel_queued(tenant, id) {
                        self.cancelled_queued.insert(id);
                    } else {
                        // Already dispatched: honored at finish time.
                        self.cancel_running.insert(id);
                    }
                } else {
                    // The bug: reply "cancelled" without touching the
                    // ledger.
                    self.cancelled_queued.insert(id);
                }
            }
        }
    }

    fn dispatcher_step(&mut self) {
        if let Some(live) = self.live.take() {
            if self.rollback_pending {
                // Worker spawn failed: put the job back as if the pick
                // never happened.
                self.rollback_pending = false;
                self.ledger
                    .rollback_dispatch(&live.tenant, live.lane, live.id, live.granted);
            } else {
                let kind = if self.cancel_running.contains(&live.id) {
                    FinishKind::Cancelled
                } else {
                    FinishKind::Completed
                };
                self.ledger.finish(&live.tenant, live.granted, kind);
            }
            return;
        }
        self.budget -= 1;
        if let Some((tenant, id, lane)) = self.ledger.pick() {
            if self.cancelled_queued.contains(&id) {
                self.violation = Some(format!(
                    "job {id} dispatched after its cancel was acknowledged"
                ));
            }
            let granted = if self.clamp_grant {
                self.want.min(self.ledger.share_left(&tenant))
            } else {
                self.want
            };
            self.ledger.grant_threads(&tenant, granted);
            self.live = Some(LiveJob {
                tenant,
                id,
                lane,
                granted,
            });
        }
    }

    fn observer_step(&mut self) {
        self.snapshots -= 1;
        let views = self.ledger.views();
        let queued: usize = views.iter().map(|v| v.queued_high + v.queued_normal).sum();
        if queued != self.ledger.queued_total() {
            self.violation = Some(format!(
                "snapshot tore: per-tenant queued sum {queued} != queued_total {}",
                self.ledger.queued_total()
            ));
        }
    }
}

impl crate::race::Model for FairshareModel {
    fn threads(&self) -> usize {
        3
    }

    fn enabled(&self, t: usize) -> bool {
        match t {
            0 => self.op_idx < self.ops.len(),
            1 => self.live.is_some() || self.budget > 0,
            2 => self.snapshots > 0,
            _ => false,
        }
    }

    fn step(&mut self, t: usize) {
        match t {
            0 => self.submitter_step(),
            1 => self.dispatcher_step(),
            _ => self.observer_step(),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        self.ledger.check_invariants()
    }

    fn check_terminal(&self) -> Result<(), String> {
        self.check_step()?;
        // Drain a clone: every queued job must still be dispatchable,
        // and the ledger must come back to rest at zero.
        let mut l = self.ledger.clone();
        if let Some(live) = &self.live {
            l.finish(&live.tenant, live.granted, FinishKind::Completed);
        }
        while let Some((tenant, id, _lane)) = l.pick() {
            if self.cancelled_queued.contains(&id) {
                return Err(format!(
                    "job {id} dispatched after its cancel was acknowledged"
                ));
            }
            let granted = 1usize.min(l.share_left(&tenant));
            l.grant_threads(&tenant, granted);
            l.finish(&tenant, granted, FinishKind::Completed);
            l.check_invariants()?;
        }
        if l.queued_total() != 0 {
            return Err(format!(
                "{} queued jobs stranded: no eligible tenant can serve them",
                l.queued_total()
            ));
        }
        if l.threads_in_use() != 0 {
            return Err(format!(
                "{} threads still granted after every job finished",
                l.threads_in_use()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bounded connection pool: accept thread vs. workers vs. shutdown
// ---------------------------------------------------------------------------

/// One worker of the pool: its adopted batch and whether it has exited.
#[derive(Debug, Clone)]
struct PoolWorker {
    adopted: Vec<usize>,
    done: bool,
}

/// The `crp-serve` accept/worker handoff: the accept thread pushes each
/// new connection into a shared inbox (one `Mutex<Vec<Conn>>` in the
/// real server), workers take the whole inbox under the lock and
/// service the batch, and a shutdown flag asks everyone to exit.
///
/// Thread layout: `0` = accept, `1..=workers` = workers, last =
/// shutdown. The invariants — checked at every terminal state — are:
/// no thread is stuck (a stuck thread is a deadlock), every accepted
/// connection is serviced exactly once (a miss is a lost wakeup, a
/// repeat is a double-grant), and the open-connection gauge returns to
/// zero.
#[derive(Debug, Clone)]
pub struct ConnPoolModel {
    total: usize,
    cap: usize,
    next_conn: usize,
    inbox: Vec<usize>,
    /// Connections accepted so far (prefix of `0..total`).
    accepted: usize,
    /// Service count per connection id.
    serviced: Vec<u32>,
    open: usize,
    workers: Vec<PoolWorker>,
    shutdown_flag: bool,
    shutdown_fired: bool,
    /// Good workers drain the inbox before exiting on shutdown; the
    /// seeded-bad variant exits immediately, stranding the inbox.
    final_drain: bool,
    /// Seeded-bad: accept pushes each connection twice.
    dup_push: bool,
    /// Seeded-bad: accept takes the inbox lock, *then* blocks in
    /// `accept()` while holding it — the bug the `held-lock-blocking`
    /// lint rule exists for. Modelled as a two-phase accept whose
    /// second phase is gated on pool capacity.
    hold_across_accept: bool,
    /// The inbox lock is held between steps (only the bad variant does
    /// this; every good critical section is one atomic step).
    lock_held: bool,
}

impl ConnPoolModel {
    fn base(total: usize, cap: usize, workers: usize) -> ConnPoolModel {
        ConnPoolModel {
            total,
            cap,
            next_conn: 0,
            inbox: Vec::new(),
            accepted: 0,
            serviced: vec![0; total],
            open: 0,
            workers: vec![
                PoolWorker {
                    adopted: Vec::new(),
                    done: false,
                };
                workers
            ],
            shutdown_flag: false,
            shutdown_fired: false,
            final_drain: true,
            dup_push: false,
            hold_across_accept: false,
            lock_held: false,
        }
    }

    /// The correct protocol: three connections, two workers, shutdown
    /// racing both.
    #[must_use]
    pub fn correct() -> ConnPoolModel {
        ConnPoolModel::base(3, 3, 2)
    }

    /// A larger instance for the scheduled deep run: more connections
    /// than pool capacity, so accept back-pressure is exercised too.
    #[must_use]
    pub fn deep() -> ConnPoolModel {
        ConnPoolModel::base(4, 2, 2)
    }

    /// Seeded-bad: workers exit on shutdown without the final inbox
    /// drain — the lost-wakeup bug (an accepted connection is never
    /// serviced).
    #[must_use]
    pub fn skip_final_drain() -> ConnPoolModel {
        let mut m = ConnPoolModel::base(2, 2, 2);
        m.final_drain = false;
        m
    }

    /// Seeded-bad: accept pushes each connection into the inbox twice,
    /// so a worker services it twice — the double-grant bug.
    #[must_use]
    pub fn dup_push() -> ConnPoolModel {
        let mut m = ConnPoolModel::base(2, 2, 2);
        m.dup_push = true;
        m
    }

    /// Seeded-bad: the accept thread blocks in `accept()` while holding
    /// the inbox lock. With capacity 1, the worker must service a
    /// connection to make room, but adopting it needs the lock the
    /// accept thread holds: a circular wait the explorer reports as
    /// stuck threads.
    #[must_use]
    pub fn hold_lock_across_accept() -> ConnPoolModel {
        let mut m = ConnPoolModel::base(2, 1, 1);
        m.hold_across_accept = true;
        m
    }

    fn accept_enabled(&self) -> bool {
        if self.hold_across_accept && self.lock_held {
            // Phase B: blocked in accept() until the pool has room.
            return self.open < self.cap;
        }
        !self.shutdown_flag && self.next_conn < self.total && !self.lock_held && {
            if self.hold_across_accept {
                true // Phase A (take the lock) doesn't need capacity.
            } else {
                self.open < self.cap
            }
        }
    }

    fn accept_step(&mut self) {
        if self.hold_across_accept && !self.lock_held {
            self.lock_held = true; // Phase A: lock first, accept later.
            return;
        }
        let c = self.next_conn;
        self.next_conn += 1;
        self.accepted += 1;
        self.open += 1;
        self.inbox.push(c);
        if self.dup_push {
            self.inbox.push(c);
        }
        self.lock_held = false; // Phase B of the bad variant releases.
    }

    fn worker_enabled(&self, w: usize) -> bool {
        let worker = &self.workers[w];
        if worker.done {
            return false;
        }
        if !worker.adopted.is_empty() {
            return true; // Can service.
        }
        if !self.lock_held && !self.inbox.is_empty() {
            return true; // Can adopt.
        }
        // Can exit?
        self.shutdown_flag && (!self.final_drain || self.inbox.is_empty())
    }

    fn worker_step(&mut self, w: usize) {
        if let Some(&c) = self.workers[w].adopted.first() {
            self.workers[w].adopted.remove(0);
            self.serviced[c] += 1;
            self.open = self.open.saturating_sub(1);
        } else if !self.final_drain && self.shutdown_flag {
            // The bug: the worker loop checks the shutdown flag at the
            // top and breaks without the final inbox drain.
            self.workers[w].done = true;
        } else if !self.lock_held && !self.inbox.is_empty() {
            self.workers[w].adopted = std::mem::take(&mut self.inbox);
        } else {
            self.workers[w].done = true;
        }
    }
}

impl crate::race::Model for ConnPoolModel {
    fn threads(&self) -> usize {
        1 + self.workers.len() + 1
    }

    fn enabled(&self, t: usize) -> bool {
        if t == 0 {
            self.accept_enabled()
        } else if t <= self.workers.len() {
            self.worker_enabled(t - 1)
        } else {
            !self.shutdown_fired
        }
    }

    fn step(&mut self, t: usize) {
        if t == 0 {
            self.accept_step();
        } else if t <= self.workers.len() {
            self.worker_step(t - 1);
        } else {
            self.shutdown_fired = true;
            self.shutdown_flag = true;
        }
    }

    fn check_step(&self) -> Result<(), String> {
        for (c, &n) in self.serviced.iter().enumerate() {
            if n > 1 {
                return Err(format!("double-grant: conn {c} serviced {n} times"));
            }
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        if self.lock_held {
            return Err(
                "deadlock: accept thread blocked in accept() while holding the inbox lock"
                    .to_string(),
            );
        }
        for (w, worker) in self.workers.iter().enumerate() {
            if !worker.done {
                return Err(format!("deadlock: worker {w} never exited"));
            }
        }
        for c in 0..self.accepted {
            match self.serviced[c] {
                0 => return Err(format!("lost wakeup: conn {c} accepted but never serviced")),
                1 => {}
                n => return Err(format!("double-grant: conn {c} serviced {n} times")),
            }
        }
        if self.open != 0 {
            return Err(format!(
                "open-connection gauge leaked: {} at exit",
                self.open
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Change-signal wakeups of a pool worker
// ---------------------------------------------------------------------------

/// Where a pool worker is in its service cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cycle {
    /// Reads the generation: the first step of the correct cycle.
    ReadGeneration,
    /// Takes every change made visible so far.
    Service,
    /// The seeded-bad cycle reads the generation here instead.
    LateRead,
    /// Loops at once after progress or a moved generation, otherwise
    /// starts waiting (one step: `wait_timeout_while` checks the
    /// generation under the mutex the bump takes).
    Decide,
    /// Blocked until a bump moves the generation past `seen`; anything
    /// else can only end it by timeout.
    Waiting,
    /// Every change serviced.
    Done,
}

/// One source of changes: the scheduler producing job events, or the
/// accept thread handing over connections. Each change is two steps —
/// make it visible (push the event under the state lock, push the
/// connection into the inbox), then bump the generation.
#[derive(Debug, Clone)]
struct Source {
    changes: usize,
    pushed: usize,
    bumped: usize,
    /// Changes the worker has taken (a prefix of the pushed ones).
    serviced: usize,
}

/// A `crp_serve::server` pool worker against the change signal that
/// wakes it. Thread `0` is the worker; every other thread is a
/// `Source`. The worker cycles read → service → decide → (wait), and
/// the invariant, checked after every step, is **no lost wakeup**: the
/// worker is never waiting on an unmoved generation while a change that
/// has been pushed *and* announced by its bump is still unserviced —
/// only the timeout would end that wait. At the end every change has
/// been serviced.
#[derive(Debug, Clone)]
pub struct ChangeSignalModel {
    generation: u64,
    sources: Vec<Source>,
    cycle: Cycle,
    /// The generation the worker read this cycle.
    seen: u64,
    /// Whether this cycle's service took anything.
    active: bool,
    /// Seeded-bad: the worker reads the generation after servicing.
    late_read: bool,
}

impl ChangeSignalModel {
    fn with_sources(changes: &[usize]) -> ChangeSignalModel {
        ChangeSignalModel {
            generation: 0,
            sources: changes
                .iter()
                .map(|&changes| Source {
                    changes,
                    pushed: 0,
                    bumped: 0,
                    serviced: 0,
                })
                .collect(),
            cycle: Cycle::ReadGeneration,
            seen: 0,
            active: false,
            late_read: false,
        }
    }

    /// The correct protocol: two job events and one accept hand-over
    /// racing the worker's cycle.
    #[must_use]
    pub fn correct() -> ChangeSignalModel {
        ChangeSignalModel::with_sources(&[2, 1])
    }

    /// A larger instance for the scheduled deep run: a third thread —
    /// two running jobs' events and one hand-over, each from its own
    /// thread.
    #[must_use]
    pub fn deep() -> ChangeSignalModel {
        ChangeSignalModel::with_sources(&[1, 1, 1])
    }

    /// Seeded-bad: the worker reads the generation after servicing, so a
    /// change that lands mid-service is both missed by the service and
    /// hidden from the wait.
    #[must_use]
    pub fn late_read() -> ChangeSignalModel {
        let mut m = ChangeSignalModel::with_sources(&[2, 1]);
        m.late_read = true;
        m.cycle = Cycle::Service;
        m
    }

    fn all_serviced(&self) -> bool {
        self.sources.iter().all(|s| s.serviced == s.changes)
    }

    fn worker_step(&mut self) {
        self.cycle = match self.cycle {
            Cycle::ReadGeneration => {
                self.seen = self.generation;
                Cycle::Service
            }
            Cycle::Service => {
                self.active = false;
                for s in &mut self.sources {
                    self.active |= s.pushed > s.serviced;
                    s.serviced = s.pushed;
                }
                if self.late_read {
                    Cycle::LateRead
                } else {
                    Cycle::Decide
                }
            }
            Cycle::LateRead => {
                self.seen = self.generation;
                Cycle::Decide
            }
            Cycle::Decide if self.all_serviced() => Cycle::Done,
            Cycle::Decide if !self.active && self.generation == self.seen => Cycle::Waiting,
            // The next cycle: at once after progress or a moved
            // generation, or once a bump ends the wait.
            Cycle::Decide | Cycle::Waiting | Cycle::Done if self.late_read => Cycle::Service,
            Cycle::Decide | Cycle::Waiting | Cycle::Done => Cycle::ReadGeneration,
        };
    }
}

impl crate::race::Model for ChangeSignalModel {
    fn threads(&self) -> usize {
        1 + self.sources.len()
    }

    fn enabled(&self, t: usize) -> bool {
        if t == 0 {
            match self.cycle {
                Cycle::Waiting => self.generation != self.seen,
                Cycle::Done => false,
                _ => true,
            }
        } else {
            self.sources[t - 1].bumped < self.sources[t - 1].changes
        }
    }

    fn step(&mut self, t: usize) {
        if t == 0 {
            self.worker_step();
            return;
        }
        let s = &mut self.sources[t - 1];
        if s.pushed == s.bumped {
            s.pushed += 1;
        } else {
            s.bumped += 1;
            self.generation += 1;
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if self.cycle == Cycle::Waiting && self.generation == self.seen {
            for (i, s) in self.sources.iter().enumerate() {
                if s.bumped > s.serviced {
                    return Err(format!(
                        "lost wakeup: worker waits a full timeout on generation {} while \
                         source {i}'s announced change {} is unserviced",
                        self.seen, s.serviced
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        if self.cycle == Cycle::Done {
            Ok(())
        } else {
            Err(format!(
                "lost wakeup: worker stuck in {:?} with changes unserviced",
                self.cycle
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Two-lock acquisition order
// ---------------------------------------------------------------------------

/// The dynamic twin of the static `lock-order` rule: two threads each
/// take two locks, enter a critical section, and release both. When
/// both threads follow the same global order every interleaving
/// terminates; the [`LockOrderModel::inverted`] variant has thread 1
/// take the locks in the opposite order, and the explorer finds the
/// schedule where each thread holds one lock and waits on the other —
/// reported as stuck threads in a terminal state.
#[derive(Debug, Clone)]
pub struct LockOrderModel {
    /// Per-thread acquisition order (indices into `held`).
    order: [[usize; 2]; 2],
    /// Which locks are currently held.
    held: [bool; 2],
    /// Per-thread progress: 0 = needs first lock, 1 = needs second,
    /// 2 = in critical section, 3 = done.
    phase: [u8; 2],
}

impl LockOrderModel {
    /// Both threads acquire lock 0 then lock 1: a consistent global
    /// order, deadlock-free on every schedule.
    #[must_use]
    pub fn consistent() -> LockOrderModel {
        LockOrderModel {
            order: [[0, 1], [0, 1]],
            held: [false, false],
            phase: [0, 0],
        }
    }

    /// Seeded-bad: thread 1 acquires lock 1 then lock 0 — the classic
    /// lock inversion the static `lock-order` rule rejects.
    #[must_use]
    pub fn inverted() -> LockOrderModel {
        LockOrderModel {
            order: [[0, 1], [1, 0]],
            held: [false, false],
            phase: [0, 0],
        }
    }
}

impl crate::race::Model for LockOrderModel {
    fn threads(&self) -> usize {
        2
    }

    fn enabled(&self, t: usize) -> bool {
        match self.phase[t] {
            0 | 1 => !self.held[self.order[t][self.phase[t] as usize]],
            2 => true,
            _ => false,
        }
    }

    fn step(&mut self, t: usize) {
        match self.phase[t] {
            0 | 1 => {
                self.held[self.order[t][self.phase[t] as usize]] = true;
                self.phase[t] += 1;
            }
            _ => {
                self.held = [false, false];
                self.phase[t] = 3;
            }
        }
    }

    fn check_terminal(&self) -> Result<(), String> {
        for t in 0..2 {
            if self.phase[t] != 3 {
                let wanted = self.order[t][self.phase[t] as usize];
                let holding = self.order[t][0];
                return Err(format!(
                    "deadlock: thread {t} stuck waiting for lock {wanted} while holding lock {holding}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::explore;

    #[test]
    fn fairshare_correct_protocol_holds_on_every_schedule() {
        let stats = explore(&FairshareModel::correct()).expect("correct ledger protocol");
        assert!(stats.terminals > 100, "model too small to mean anything");
    }

    #[test]
    fn unclamped_grant_breaks_the_thread_share_invariant() {
        let err = explore(&FairshareModel::unchecked_grant())
            .expect_err("unchecked grant must break the share invariant");
        assert!(err.message.contains("threads > share"), "{}", err.message);
    }

    #[test]
    fn cancel_without_strike_dispatches_a_dead_job() {
        let err = explore(&FairshareModel::forgotten_strike())
            .expect_err("a forgotten strike must dispatch a cancelled job");
        assert!(
            err.message.contains("dispatched after its cancel"),
            "{}",
            err.message
        );
    }

    #[test]
    fn conn_pool_correct_protocol_holds_on_every_schedule() {
        let stats = explore(&ConnPoolModel::correct()).expect("correct pool protocol");
        assert!(stats.terminals > 100, "model too small to mean anything");
    }

    #[test]
    fn skipping_the_final_drain_loses_a_connection() {
        let err = explore(&ConnPoolModel::skip_final_drain())
            .expect_err("skipping the drain must lose a connection");
        assert!(err.message.contains("lost wakeup"), "{}", err.message);
    }

    #[test]
    fn double_push_services_a_connection_twice() {
        let err =
            explore(&ConnPoolModel::dup_push()).expect_err("a double push must double-service");
        assert!(err.message.contains("double-grant"), "{}", err.message);
    }

    #[test]
    fn holding_the_inbox_lock_across_accept_deadlocks() {
        let err = explore(&ConnPoolModel::hold_lock_across_accept())
            .expect_err("lock across accept must deadlock");
        assert!(err.message.contains("deadlock"), "{}", err.message);
    }

    #[test]
    fn change_signal_correct_protocol_holds_on_every_schedule() {
        let stats = explore(&ChangeSignalModel::correct()).expect("correct wakeup protocol");
        assert!(stats.terminals > 100, "model too small to mean anything");
    }

    #[test]
    fn reading_the_generation_after_servicing_loses_a_wakeup() {
        let err = explore(&ChangeSignalModel::late_read())
            .expect_err("a late generation read must lose a wakeup");
        assert!(err.message.contains("lost wakeup"), "{}", err.message);
    }

    #[test]
    fn consistent_lock_order_terminates_everywhere() {
        explore(&LockOrderModel::consistent()).expect("consistent order cannot deadlock");
    }

    #[test]
    fn inverted_lock_order_deadlocks() {
        let err = explore(&LockOrderModel::inverted()).expect_err("inversion must deadlock");
        assert!(err.message.contains("deadlock"), "{}", err.message);
    }

    #[test]
    fn deep_variants_stay_within_the_explorer_budget() {
        explore(&FairshareModel::deep()).expect("deep ledger model");
        explore(&ConnPoolModel::deep()).expect("deep pool model");
        explore(&ChangeSignalModel::deep()).expect("deep change-signal model");
    }
}
