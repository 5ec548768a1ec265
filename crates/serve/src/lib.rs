//! `crp-serve`: a checkpointing batch-optimization daemon for the CR&P
//! flow.
//!
//! The crate provides `crpd` — a std-only TCP job server (hand-rolled
//! sockets and threads, no async runtime) — and `crp-cli`, its
//! line-delimited-JSON client. Jobs run the CR&P placement/routing flow
//! over generated workload profiles or LEF/DEF inputs, with:
//!
//! - **admission control**: a bounded queue with two priority lanes that
//!   rejects (with a reason) instead of buffering unboundedly,
//! - **multi-tenant fair share**: every job belongs to a tenant with its
//!   own quotas (max queued, max running, thread share); dispatch is
//!   deficit round robin across tenants, so no tenant can starve
//!   another (`fairshare`),
//! - **thread budgeting**: each job declares how many worker threads it
//!   may use; the scheduler partitions the machine's cores across
//!   concurrently running jobs and never oversubscribes,
//! - **metrics**: a `metrics` verb snapshots queue depths per tenant and
//!   lane, thread utilization, admission counters, price-cache hit
//!   rates, and per-verb latency histograms,
//! - **checkpoint/resume**: between iterations a job's complete flow
//!   state (placement, routes, grid epoch, RNG stream position, history
//!   sets, timers) is written atomically to disk, so a SIGKILLed daemon
//!   resumes every in-flight job **bit-identically** on restart,
//! - **streaming progress**: `watch` streams typed per-iteration events
//!   (the iteration's report and the flow's stage timers, or a GP
//!   step's stats), from memory while a job runs and from its
//!   `events.jsonl` once it has finished.
//!
//! The wire protocol and job state machine are documented in
//! `DESIGN.md` §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
pub mod driver;
pub mod error;
pub mod fairshare;
pub mod json;
pub mod metrics;
mod persist;
pub mod scheduler;
pub mod server;
mod signal;
pub mod spec;

pub use checkpoint::{Checkpoint, SavedCell};
pub use client::Client;
pub use driver::{run_job, IterStats, RunOutcome, WatchEvent};
pub use error::ServeError;
pub use fairshare::{FinishKind, Ledger, TenantCounters, TenantQuota, TenantView};
pub use json::{parse, Json, JsonError};
pub use metrics::{LatencyHistogram, ServerMetrics, VerbStats};
pub use scheduler::{JobStatus, SchedConfig, SchedMetrics, Scheduler};
pub use server::Server;
pub use spec::{JobSpec, JobState, Lane, Workload};
