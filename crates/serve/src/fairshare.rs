//! Per-tenant quotas and deficit-round-robin fair-share dispatch.
//!
//! The [`Ledger`] is the scheduler's pure bookkeeping core: it owns the
//! per-tenant lanes, enforces admission quotas, and decides which
//! tenant's job dispatches next. It holds **no locks, threads, or I/O**
//! — the [`Scheduler`](crate::scheduler::Scheduler) drives it under its
//! own mutex — so every scheduling decision is deterministic and unit-
//! and property-testable in isolation.
//!
//! Dispatch order is classic deficit round robin over tenants: tenants
//! sit in a fixed ring (lexicographic name order), each accumulates
//! `weight = thread_share` credits whenever a full pass finds nobody
//! with credit, and serving a job costs one credit. A tenant with twice
//! the thread share therefore gets twice the dispatches per round, and
//! any tenant with queued work is served at least once per round — a
//! greedy tenant can never starve another (see the test
//! `greedy_tenant_cannot_starve_others`).
//! Within a tenant, the `high` lane dequeues before `normal`, FIFO
//! inside a lane.

use crate::spec::Lane;
use std::collections::{BTreeMap, VecDeque};

/// Admission and execution limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum jobs the tenant may have queued; further submissions are
    /// rejected with a reason.
    pub max_queued: usize,
    /// Maximum jobs the tenant may have running concurrently.
    pub max_running: usize,
    /// Maximum worker threads the tenant's running jobs may hold in
    /// total. Doubles as the tenant's deficit-round-robin weight, so the
    /// thread share also sets the tenant's long-run dispatch share.
    pub thread_share: usize,
}

impl TenantQuota {
    /// A quota no tighter than the given daemon-wide limits (the default
    /// for tenants without an explicit override).
    #[must_use]
    pub fn unlimited_within(queue_capacity: usize, max_running: usize, threads: usize) -> Self {
        TenantQuota {
            max_queued: queue_capacity,
            max_running,
            thread_share: threads,
        }
    }

    fn normalized(mut self) -> Self {
        self.max_queued = self.max_queued.max(1);
        self.max_running = self.max_running.max(1);
        self.thread_share = self.thread_share.max(1);
        self
    }
}

/// Monotonic per-tenant event counters (for the `metrics` verb).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs admitted into a lane.
    pub admitted: u64,
    /// Submissions rejected at admission (quota or global capacity).
    pub rejected: u64,
    /// Jobs handed to a worker.
    pub dispatched: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that ended `Failed`.
    pub failed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Jobs parked `Checkpointed` by a drain.
    pub parked: u64,
}

/// A point-in-time public view of one tenant, for `metrics` snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantView {
    /// Tenant name.
    pub name: String,
    /// Jobs waiting in the high lane.
    pub queued_high: usize,
    /// Jobs waiting in the normal lane.
    pub queued_normal: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Worker threads currently granted to the tenant's jobs.
    pub threads_in_use: usize,
    /// Current deficit-round-robin credit.
    pub deficit: u64,
    /// The quota in force.
    pub quota: TenantQuota,
    /// Lifetime event counters.
    pub counters: TenantCounters,
}

#[derive(Debug, Clone)]
struct Tenant {
    quota: TenantQuota,
    high: VecDeque<u64>,
    normal: VecDeque<u64>,
    running: usize,
    threads: usize,
    deficit: u64,
    counters: TenantCounters,
}

impl Tenant {
    fn new(quota: TenantQuota) -> Tenant {
        Tenant {
            quota,
            high: VecDeque::new(),
            normal: VecDeque::new(),
            running: 0,
            threads: 0,
            deficit: 0,
            counters: TenantCounters::default(),
        }
    }

    fn queued(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Whether the tenant has work and room to run it right now.
    fn eligible(&self) -> bool {
        self.queued() > 0
            && self.running < self.quota.max_running
            && self.threads < self.quota.thread_share
    }

    fn weight(&self) -> u64 {
        self.quota.thread_share.max(1) as u64
    }
}

/// How a dispatched job left the running set (drives tenant counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishKind {
    /// Completed all iterations.
    Completed,
    /// Errored or panicked.
    Failed,
    /// Cancel honored mid-run.
    Cancelled,
    /// Parked `Checkpointed` (drain); will be recovered, not re-queued
    /// by this process.
    Parked,
}

/// What [`Ledger::pick`] changed besides the lanes, so that
/// [`Ledger::rollback_dispatch`] can invert it exactly: the DRR cursor
/// as it stood before the pick, and the served tenant's deficit before
/// the serve cost (and any emptied-queue forfeit) was applied.
#[derive(Debug, Clone)]
struct PickMemo {
    tenant: String,
    cursor_before: Option<String>,
    deficit_before: u64,
}

/// The fair-share bookkeeping core: per-tenant lanes, quotas, and the
/// deficit-round-robin cursor. All mutation happens through the methods
/// below; [`Ledger::check_invariants`] re-derives every aggregate and is
/// the property-test oracle. `Clone` is cheap (a few maps of counters),
/// which lets the `crp-lint` race models explore interleavings over the
/// real ledger rather than a re-implementation.
#[derive(Debug, Clone)]
pub struct Ledger {
    queue_capacity: usize,
    default_quota: TenantQuota,
    overrides: BTreeMap<String, TenantQuota>,
    tenants: BTreeMap<String, Tenant>,
    queued_total: usize,
    /// Name of the tenant served last; the next DRR pass starts just
    /// after it in the ring.
    cursor: Option<String>,
    /// Temporary capacity slack created by quota-bypassing re-entries
    /// (recovery, dispatch rollback): the high-water queue depth they
    /// produced. Admission still gates on `queue_capacity` alone, so the
    /// slack only keeps [`Ledger::check_invariants`] honest until the
    /// backlog drains back under the configured cap, at which point it
    /// resets to zero.
    capacity_floor: usize,
    /// State of the most recent [`Ledger::pick`], for exact rollback.
    last_pick: Option<PickMemo>,
}

impl Ledger {
    /// A ledger admitting at most `queue_capacity` queued jobs overall,
    /// with `default_quota` for tenants absent from `overrides`.
    #[must_use]
    pub fn new(
        queue_capacity: usize,
        default_quota: TenantQuota,
        overrides: Vec<(String, TenantQuota)>,
    ) -> Ledger {
        Ledger {
            queue_capacity: queue_capacity.max(1),
            default_quota: default_quota.normalized(),
            overrides: overrides
                .into_iter()
                .map(|(name, q)| (name, q.normalized()))
                .collect(),
            tenants: BTreeMap::new(),
            queued_total: 0,
            cursor: None,
            capacity_floor: 0,
            last_pick: None,
        }
    }

    /// The quota in force for `tenant`.
    #[must_use]
    pub fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }

    fn tenant_mut(&mut self, name: &str) -> &mut Tenant {
        let quota = self.quota_for(name);
        self.tenants
            .entry(name.to_string())
            .or_insert_with(|| Tenant::new(quota))
    }

    /// Total jobs queued across all tenants.
    #[must_use]
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// Total threads currently granted across all tenants.
    #[must_use]
    pub fn threads_in_use(&self) -> usize {
        self.tenants.values().map(|t| t.threads).sum()
    }

    /// Admits `id` into `tenant`'s `lane`, or rejects with a reason when
    /// the global queue or the tenant's queued quota is full. Rejections
    /// are counted against the tenant.
    ///
    /// # Errors
    ///
    /// Returns the human-readable rejection reason.
    pub fn admit(&mut self, tenant: &str, lane: Lane, id: u64) -> Result<(), String> {
        if let Err(reason) = self.admission(tenant) {
            self.reject(tenant);
            return Err(reason);
        }
        let t = self.tenant_mut(tenant);
        match lane {
            Lane::High => t.high.push_back(id),
            Lane::Normal => t.normal.push_back(id),
        }
        t.counters.admitted += 1;
        self.queued_total += 1;
        Ok(())
    }

    /// Why [`Ledger::admit`] would reject a job of `tenant` right now,
    /// if it would; admits and counts nothing.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason `admit` would give.
    pub(crate) fn admission(&self, tenant: &str) -> Result<(), String> {
        if self.queued_total >= self.queue_capacity {
            return Err(format!(
                "queue full ({} queued, capacity {})",
                self.queued_total, self.queue_capacity
            ));
        }
        let (queued, quota) = self
            .tenants
            .get(tenant)
            .map_or((0, self.quota_for(tenant)), |t| (t.queued(), t.quota));
        if queued >= quota.max_queued {
            return Err(format!(
                "tenant `{tenant}` queue quota full ({queued} queued, quota {})",
                quota.max_queued
            ));
        }
        Ok(())
    }

    /// Counts one rejected submission against `tenant`, for a rejection
    /// decided from [`Ledger::admission`].
    pub(crate) fn reject(&mut self, tenant: &str) {
        self.tenant_mut(tenant).counters.rejected += 1;
    }

    /// Enqueues a recovered job, bypassing admission quotas (it was
    /// already accepted by a previous daemon process and must not be
    /// lost), but still counted in queue depths. A recovered backlog may
    /// exceed the configured capacity (e.g. after the cap was lowered
    /// between daemon runs); the overflow is recorded as temporary
    /// capacity slack so the invariant oracle stays honest while new
    /// admissions remain gated by the configured cap.
    pub fn enqueue_recovered(&mut self, tenant: &str, lane: Lane, id: u64) {
        let t = self.tenant_mut(tenant);
        match lane {
            Lane::High => t.high.push_back(id),
            Lane::Normal => t.normal.push_back(id),
        }
        t.counters.admitted += 1;
        self.queued_total += 1;
        self.capacity_floor = self.capacity_floor.max(self.queued_total);
    }

    /// Undoes a [`Ledger::pick`] whose worker could not be spawned: the
    /// job returns to the *front* of its lane and the dispatch — running
    /// slot, `granted` threads, the dispatched counter, the DRR cursor,
    /// and the serve's deficit cost (including an emptied-queue forfeit)
    /// — is struck, as if it never happened. Quota checks are bypassed
    /// because the job was already admitted.
    ///
    /// The cursor/deficit restoration uses the memo of the *most recent*
    /// pick; the scheduler upholds this by rolling a failed dispatch
    /// back before picking again (it does both under one lock). A
    /// rollback that does not match the last pick still restores the
    /// counters and refunds the one-credit serve cost, it just cannot
    /// undo a forfeit or the cursor move.
    pub fn rollback_dispatch(&mut self, tenant: &str, lane: Lane, id: u64, granted: usize) {
        {
            let t = self.tenant_mut(tenant);
            match lane {
                Lane::High => t.high.push_front(id),
                Lane::Normal => t.normal.push_front(id),
            }
            t.running = t.running.saturating_sub(1);
            t.threads = t.threads.saturating_sub(granted);
            t.counters.dispatched = t.counters.dispatched.saturating_sub(1);
        }
        match self.last_pick.take() {
            Some(memo) if memo.tenant == tenant => {
                self.tenant_mut(tenant).deficit = memo.deficit_before;
                self.cursor = memo.cursor_before;
            }
            memo => {
                self.tenant_mut(tenant).deficit += 1;
                self.last_pick = memo;
            }
        }
        self.queued_total += 1;
        self.capacity_floor = self.capacity_floor.max(self.queued_total);
    }

    /// Picks the next job to dispatch by deficit round robin and moves
    /// it from queued to running. Returns the tenant, job id, and the
    /// lane it came from. `None` when no tenant is eligible (nothing
    /// queued, or every tenant with work is at its running or thread
    /// quota). The caller computes the thread grant and reports it via
    /// [`Ledger::grant_threads`].
    pub fn pick(&mut self) -> Option<(String, u64, Lane)> {
        let ring: Vec<String> = self
            .tenants
            .iter()
            .filter(|(_, t)| t.eligible())
            .map(|(name, _)| name.clone())
            .collect();
        if ring.is_empty() {
            return None;
        }
        // Start the pass just after the last-served tenant.
        let cursor_before = self.cursor.clone();
        let start = self
            .cursor
            .as_ref()
            .and_then(|c| ring.iter().position(|n| n > c))
            .unwrap_or(0);
        // Pass 1: serve the first tenant (in ring order) holding credit.
        // Pass 2 runs after a top-up, when pass 1 found nobody; every
        // eligible tenant gains `weight >= 1`, so pass 2 always serves.
        for round in 0..2 {
            if round == 1 {
                for name in &ring {
                    if let Some(t) = self.tenants.get_mut(name) {
                        t.deficit += t.weight();
                    }
                }
            }
            for i in 0..ring.len() {
                let name = &ring[(start + i) % ring.len()];
                let Some(t) = self.tenants.get_mut(name) else {
                    continue;
                };
                if t.deficit == 0 {
                    continue;
                }
                let (id, lane) = if let Some(id) = t.high.pop_front() {
                    (id, Lane::High)
                } else if let Some(id) = t.normal.pop_front() {
                    (id, Lane::Normal)
                } else {
                    continue;
                };
                let deficit_before = t.deficit;
                t.deficit -= 1;
                t.running += 1;
                t.counters.dispatched += 1;
                if t.queued() == 0 {
                    // Standard DRR: an emptied queue forfeits leftover
                    // credit, so an idle tenant cannot hoard a burst.
                    t.deficit = 0;
                }
                self.queued_total -= 1;
                if self.queued_total <= self.queue_capacity {
                    // Any recovery/rollback overflow has drained.
                    self.capacity_floor = 0;
                }
                self.cursor = Some(name.clone());
                self.last_pick = Some(PickMemo {
                    tenant: name.clone(),
                    cursor_before,
                    deficit_before,
                });
                return Some((name.clone(), id, lane));
            }
        }
        None
    }

    /// Worker threads still available to `tenant` within its share.
    #[must_use]
    pub fn share_left(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or_else(
            || self.quota_for(tenant).thread_share,
            |t| t.quota.thread_share.saturating_sub(t.threads),
        )
    }

    /// Records `n` threads granted to a just-picked job of `tenant`.
    pub fn grant_threads(&mut self, tenant: &str, n: usize) {
        self.tenant_mut(tenant).threads += n;
    }

    /// Records a running job of `tenant` leaving the running set,
    /// releasing its `granted` threads.
    pub fn finish(&mut self, tenant: &str, granted: usize, kind: FinishKind) {
        let t = self.tenant_mut(tenant);
        t.running = t.running.saturating_sub(1);
        t.threads = t.threads.saturating_sub(granted);
        match kind {
            FinishKind::Completed => t.counters.completed += 1,
            FinishKind::Failed => t.counters.failed += 1,
            FinishKind::Cancelled => t.counters.cancelled += 1,
            FinishKind::Parked => t.counters.parked += 1,
        }
    }

    /// Removes a queued job on cancellation. Returns whether the job was
    /// found in one of the tenant's lanes.
    pub fn cancel_queued(&mut self, tenant: &str, id: u64) -> bool {
        let t = self.tenant_mut(tenant);
        let before = t.queued();
        t.high.retain(|&j| j != id);
        t.normal.retain(|&j| j != id);
        let removed = before - t.queued();
        if removed > 0 {
            t.counters.cancelled += 1;
            self.queued_total -= removed;
            if self.queued_total <= self.queue_capacity {
                self.capacity_floor = 0;
            }
            true
        } else {
            false
        }
    }

    /// Point-in-time views of every tenant, in name order.
    #[must_use]
    pub fn views(&self) -> Vec<TenantView> {
        self.tenants
            .iter()
            .map(|(name, t)| TenantView {
                name: name.clone(),
                queued_high: t.high.len(),
                queued_normal: t.normal.len(),
                running: t.running,
                threads_in_use: t.threads,
                deficit: t.deficit,
                quota: t.quota,
                counters: t.counters,
            })
            .collect()
    }

    /// Re-derives every aggregate from the per-tenant state and checks
    /// each quota. This is the property-test oracle: any interleaving of
    /// admit / pick / grant / finish / cancel must keep it `Ok`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut queued_sum = 0;
        for (name, t) in &self.tenants {
            queued_sum += t.queued();
            if t.queued() > t.quota.max_queued {
                return Err(format!(
                    "tenant `{name}`: {} queued > quota {}",
                    t.queued(),
                    t.quota.max_queued
                ));
            }
            if t.running > t.quota.max_running {
                return Err(format!(
                    "tenant `{name}`: {} running > quota {}",
                    t.running, t.quota.max_running
                ));
            }
            if t.threads > t.quota.thread_share {
                return Err(format!(
                    "tenant `{name}`: {} threads > share {}",
                    t.threads, t.quota.thread_share
                ));
            }
            let c = &t.counters;
            let left = c.completed + c.failed + c.cancelled + c.parked;
            if left > c.admitted {
                return Err(format!(
                    "tenant `{name}`: {left} jobs left the system but only {} admitted",
                    c.admitted
                ));
            }
            let in_flight = u64::try_from(t.queued() + t.running).unwrap_or(u64::MAX);
            if c.admitted < left + in_flight {
                return Err(format!(
                    "tenant `{name}`: {} admitted < {left} finished + {in_flight} in flight",
                    c.admitted
                ));
            }
        }
        if queued_sum != self.queued_total {
            return Err(format!(
                "queued_total {} != per-tenant sum {queued_sum}",
                self.queued_total
            ));
        }
        let effective_capacity = self.queue_capacity.max(self.capacity_floor);
        if self.queued_total > effective_capacity {
            return Err(format!(
                "queued_total {} > capacity {} (incl. recovery slack)",
                self.queued_total, effective_capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(q: usize, r: usize, s: usize) -> TenantQuota {
        TenantQuota {
            max_queued: q,
            max_running: r,
            thread_share: s,
        }
    }

    fn ledger(cap: usize) -> Ledger {
        Ledger::new(cap, quota(64, 4, 4), Vec::new())
    }

    #[test]
    fn admission_enforces_global_and_tenant_caps() {
        let mut l = Ledger::new(3, quota(2, 1, 1), Vec::new());
        assert!(l.admit("a", Lane::Normal, 0).is_ok());
        assert!(l.admit("a", Lane::Normal, 1).is_ok());
        let e = l.admit("a", Lane::Normal, 2).unwrap_err();
        assert!(e.contains("tenant `a` queue quota"), "{e}");
        assert!(l.admit("b", Lane::Normal, 3).is_ok());
        let e = l.admit("c", Lane::Normal, 4).unwrap_err();
        assert!(e.contains("queue full"), "{e}");
        let views = l.views();
        assert_eq!(views[0].counters.rejected, 1);
        assert_eq!(l.queued_total(), 3);
        l.check_invariants().unwrap();
    }

    /// A tenant flooding the queue cannot delay another tenant's job
    /// beyond its fair turn: with equal weights, `b`'s single job is
    /// dispatched no later than second.
    #[test]
    fn greedy_tenant_cannot_starve_others() {
        let mut l = ledger(128);
        for id in 0..50 {
            l.admit("a", Lane::Normal, id).unwrap();
        }
        l.admit("b", Lane::Normal, 100).unwrap();
        let mut order = Vec::new();
        for _ in 0..4 {
            let (tenant, id, _) = l.pick().unwrap();
            l.grant_threads(&tenant, 1);
            order.push((tenant.clone(), id));
            l.finish(&tenant, 1, FinishKind::Completed);
        }
        let b_pos = order.iter().position(|(t, _)| t == "b").unwrap();
        assert!(b_pos <= 1, "b served at position {b_pos}: {order:?}");
        l.check_invariants().unwrap();
    }

    /// Dispatch counts are proportional to thread shares: weight 3 vs 1
    /// yields a 3:1 service ratio over full rounds.
    #[test]
    fn dispatch_share_follows_weights() {
        let mut l = Ledger::new(
            256,
            quota(128, 64, 1),
            vec![("big".to_string(), quota(128, 64, 3))],
        );
        for id in 0..64 {
            l.admit("big", Lane::Normal, id).unwrap();
            l.admit("small", Lane::Normal, 100 + id).unwrap();
        }
        let mut big = 0;
        let mut small = 0;
        for _ in 0..32 {
            let (tenant, _, _) = l.pick().unwrap();
            l.grant_threads(&tenant, 0);
            if tenant == "big" {
                big += 1;
            } else {
                small += 1;
            }
            l.finish(&tenant, 0, FinishKind::Completed);
        }
        assert_eq!(big, 24, "weight-3 tenant should take 3/4 of dispatches");
        assert_eq!(small, 8);
        l.check_invariants().unwrap();
    }

    #[test]
    fn high_lane_dequeues_before_normal_within_a_tenant() {
        let mut l = ledger(16);
        l.admit("a", Lane::Normal, 0).unwrap();
        l.admit("a", Lane::High, 1).unwrap();
        let (_, id, lane) = l.pick().unwrap();
        assert_eq!((id, lane), (1, Lane::High));
        l.check_invariants().unwrap();
    }

    #[test]
    fn running_and_thread_quotas_gate_eligibility() {
        let mut l = Ledger::new(16, quota(8, 1, 2), Vec::new());
        l.admit("a", Lane::Normal, 0).unwrap();
        l.admit("a", Lane::Normal, 1).unwrap();
        let (tenant, _, _) = l.pick().unwrap();
        l.grant_threads(&tenant, 2);
        // max_running = 1 and the whole share granted: nothing eligible.
        assert!(l.pick().is_none());
        l.finish(&tenant, 2, FinishKind::Completed);
        assert!(l.pick().is_some());
        l.check_invariants().unwrap();
    }

    /// Cancel and drain interact correctly with per-tenant accounting:
    /// after everything ends, queued/running/thread counts are zero and
    /// the lifetime counters balance.
    #[test]
    fn cancel_and_drain_return_counts_to_zero() {
        let mut l = ledger(32);
        for id in 0..4 {
            l.admit("a", Lane::Normal, id).unwrap();
        }
        l.admit("b", Lane::High, 10).unwrap();

        // Dispatch two, cancel one queued, park one (drain), finish the
        // rest.
        let (t1, _, _) = l.pick().unwrap();
        l.grant_threads(&t1, 2);
        let (t2, _, _) = l.pick().unwrap();
        l.grant_threads(&t2, 1);
        assert!(l.cancel_queued("a", 2));
        assert!(!l.cancel_queued("a", 99), "unknown id is not removed");
        l.finish(&t1, 2, FinishKind::Parked);
        l.finish(&t2, 1, FinishKind::Cancelled);
        while let Some((t, _, _)) = l.pick() {
            l.grant_threads(&t, 1);
            l.finish(&t, 1, FinishKind::Completed);
        }

        assert_eq!(l.queued_total(), 0);
        assert_eq!(l.threads_in_use(), 0);
        for v in l.views() {
            assert_eq!(v.running, 0, "{}", v.name);
            assert_eq!(v.queued_high + v.queued_normal, 0, "{}", v.name);
            assert_eq!(v.threads_in_use, 0, "{}", v.name);
            let c = v.counters;
            assert_eq!(
                c.admitted,
                c.completed + c.failed + c.cancelled + c.parked,
                "{}: {c:?}",
                v.name
            );
        }
        l.check_invariants().unwrap();
    }

    /// Rolling back a dispatch restores the DRR ring position exactly:
    /// the re-pick sequence after a rollback equals the sequence an
    /// uninterrupted run would have produced.
    #[test]
    fn rollback_leaves_drr_ring_position_unaffected() {
        let reference = {
            let mut l = ledger(16);
            l.admit("a", Lane::Normal, 0).unwrap();
            l.admit("b", Lane::Normal, 1).unwrap();
            l.admit("a", Lane::Normal, 2).unwrap();
            let mut order = Vec::new();
            while let Some((t, id, _)) = l.pick() {
                l.grant_threads(&t, 1);
                order.push((t.clone(), id));
                l.finish(&t, 1, FinishKind::Completed);
            }
            order
        };

        let mut l = ledger(16);
        l.admit("a", Lane::Normal, 0).unwrap();
        l.admit("b", Lane::Normal, 1).unwrap();
        l.admit("a", Lane::Normal, 2).unwrap();
        // First dispatch fails to spawn and is rolled back mid-grant.
        let (t, id, lane) = l.pick().unwrap();
        l.grant_threads(&t, 2);
        l.rollback_dispatch(&t, lane, id, 2);
        l.check_invariants().unwrap();
        let mut order = Vec::new();
        while let Some((t, id, _)) = l.pick() {
            l.grant_threads(&t, 1);
            order.push((t.clone(), id));
            l.finish(&t, 1, FinishKind::Completed);
            l.check_invariants().unwrap();
        }
        assert_eq!(order, reference, "rollback moved the DRR ring");
    }

    /// A pick that empties the tenant's queue forfeits leftover credit;
    /// rolling that pick back must restore the forfeited deficit too, or
    /// the tenant would lose its whole burst to a failed spawn. The
    /// restore point is the deficit as it stood right before the serve
    /// cost — *after* the DRR top-up, which applied to every ring
    /// member and is not the rolled-back pick's to undo.
    #[test]
    fn rollback_restores_forfeited_deficit() {
        let mut l = ledger(16);
        l.admit("a", Lane::Normal, 0).unwrap();
        let (t, id, lane) = l.pick().unwrap();
        assert_eq!(l.views()[0].deficit, 0, "emptied queue forfeits credit");
        l.grant_threads(&t, 1);
        l.rollback_dispatch(&t, lane, id, 1);
        // `ledger()` gives `a` weight 4: the pick's round-2 top-up
        // granted 4 credits, and rollback strikes only the serve cost
        // and the forfeit, not the ring-wide top-up.
        assert_eq!(
            l.views()[0].deficit,
            4,
            "rollback must undo the forfeit back to the post-top-up credit"
        );
        l.check_invariants().unwrap();
        let (_, id2, _) = l.pick().unwrap();
        assert_eq!(id2, 0);
    }

    /// Cancelling one queued job while another of the same tenant is
    /// mid-grant (picked, threads granted, not yet finished) keeps every
    /// invariant and does not disturb the ring cursor.
    #[test]
    fn cancel_mid_grant_keeps_invariants_and_ring() {
        let mut l = Ledger::new(16, quota(8, 2, 2), vec![("b".to_string(), quota(8, 2, 2))]);
        l.admit("a", Lane::Normal, 0).unwrap();
        l.admit("a", Lane::Normal, 1).unwrap();
        l.admit("b", Lane::Normal, 2).unwrap();
        let (t, id, _) = l.pick().unwrap();
        assert_eq!((t.as_str(), id), ("a", 0));
        l.grant_threads(&t, 2);
        l.check_invariants().unwrap();
        // Mid-grant: cancel the tenant's other queued job.
        assert!(l.cancel_queued("a", 1));
        l.check_invariants().unwrap();
        // The ring continues after `a` as if the cancel never happened.
        let (t2, id2, _) = l.pick().unwrap();
        assert_eq!((t2.as_str(), id2), ("b", 2));
        l.grant_threads(&t2, 1);
        l.finish(&t, 2, FinishKind::Cancelled);
        l.finish(&t2, 1, FinishKind::Completed);
        assert_eq!(l.queued_total(), 0);
        assert_eq!(l.threads_in_use(), 0);
        l.check_invariants().unwrap();
    }

    /// A recovered backlog may exceed the configured capacity without
    /// falsifying the oracle; the slack drains away and normal admission
    /// stays gated by the configured cap throughout.
    #[test]
    fn recovered_overflow_keeps_oracle_honest() {
        let mut l = Ledger::new(2, quota(8, 2, 2), Vec::new());
        for id in 0..4 {
            l.enqueue_recovered("a", Lane::Normal, id);
            l.check_invariants().unwrap();
        }
        assert_eq!(l.queued_total(), 4);
        // New admissions still see a full queue.
        assert!(l.admit("b", Lane::Normal, 9).unwrap_err().contains("full"));
        // Drain below the cap: the slack resets, the cap is enforced
        // again, and the oracle holds at every step.
        while let Some((t, _, _)) = l.pick() {
            l.grant_threads(&t, 1);
            l.finish(&t, 1, FinishKind::Completed);
            l.check_invariants().unwrap();
        }
        assert_eq!(l.queued_total(), 0);
        l.admit("b", Lane::Normal, 9).unwrap();
        l.check_invariants().unwrap();
    }

    #[test]
    fn rollback_dispatch_restores_order_and_counters() {
        let mut l = ledger(16);
        l.admit("a", Lane::Normal, 0).unwrap();
        l.admit("a", Lane::Normal, 1).unwrap();
        let (t, id, lane) = l.pick().unwrap();
        assert_eq!(id, 0);
        l.grant_threads(&t, 2);
        l.rollback_dispatch(&t, lane, id, 2);
        assert_eq!(l.threads_in_use(), 0);
        l.check_invariants().unwrap();
        let (_, id2, _) = l.pick().unwrap();
        assert_eq!(id2, 0, "rolled-back job keeps its place at the front");
        assert_eq!(l.views()[0].counters.dispatched, 1);
        l.check_invariants().unwrap();
    }
}
