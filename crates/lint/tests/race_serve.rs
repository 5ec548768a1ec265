//! Race-checker regression tests for the `crp-serve` models: the
//! daemon's real fair-share ledger, its accept/worker connection
//! handoff and its change-signal wakeups must survive an exhaustive
//! interleaving search, and every seeded-bad variant — the
//! dropped-invariant ledger, the forgotten cancel strike, the skipped
//! shutdown drain, the double push, the lock held across `accept()`,
//! the generation read after servicing, the inverted lock order — must
//! be caught with a concrete schedule. The CI `race-serve` step runs this
//! file; the scheduled deep job re-runs the larger instances via
//! `CRP_RACE_DEEP=1`.

use crp_lint::models_serve::{ChangeSignalModel, ConnPoolModel, FairshareModel, LockOrderModel};
use crp_lint::race::explore;
use std::time::Instant;

/// Whether the scheduled deep run asked for the larger model instances.
fn deep() -> bool {
    std::env::var_os("CRP_RACE_DEEP").is_some_and(|v| v != "0" && !v.is_empty())
}

#[test]
fn fairshare_ledger_protocol_is_sound_on_every_schedule() {
    let model = if deep() {
        FairshareModel::deep()
    } else {
        FairshareModel::correct()
    };
    let t0 = Instant::now();
    let stats = explore(&model).unwrap_or_else(|v| panic!("{v}"));
    assert!(stats.terminals > 100, "exploration degenerated: {stats:?}");
    assert!(
        t0.elapsed().as_secs() < 60,
        "exploration took {:?}, budget is 60s",
        t0.elapsed()
    );
}

#[test]
fn unclamped_thread_grant_is_caught() {
    let v = explore(&FairshareModel::unchecked_grant())
        .expect_err("granting past the share must break the ledger invariant");
    assert!(
        v.message.contains("threads > share"),
        "wrong violation: {v}"
    );
    assert!(!v.schedule.is_empty(), "no replayable schedule");
}

#[test]
fn cancel_that_forgets_to_strike_the_queue_is_caught() {
    let v = explore(&FairshareModel::forgotten_strike())
        .expect_err("an acknowledged cancel must never be dispatched");
    assert!(
        v.message.contains("dispatched after its cancel"),
        "wrong violation: {v}"
    );
}

#[test]
fn conn_pool_handoff_is_sound_on_every_schedule() {
    let model = if deep() {
        ConnPoolModel::deep()
    } else {
        ConnPoolModel::correct()
    };
    let stats = explore(&model).unwrap_or_else(|v| panic!("{v}"));
    assert!(stats.terminals > 100, "exploration degenerated: {stats:?}");
}

#[test]
fn shutdown_without_the_final_inbox_drain_is_caught() {
    let v = explore(&ConnPoolModel::skip_final_drain())
        .expect_err("a stranded inbox connection must be caught");
    assert!(v.message.contains("lost wakeup"), "wrong violation: {v}");
}

#[test]
fn double_pushed_connection_is_caught_as_a_double_grant() {
    let v = explore(&ConnPoolModel::dup_push())
        .expect_err("servicing a connection twice must be caught");
    assert!(v.message.contains("double-grant"), "wrong violation: {v}");
}

#[test]
fn lock_held_across_accept_is_caught_as_a_deadlock() {
    let v = explore(&ConnPoolModel::hold_lock_across_accept())
        .expect_err("blocking in accept() under the inbox lock must deadlock");
    assert!(v.message.contains("deadlock"), "wrong violation: {v}");
}

#[test]
fn change_signal_wakeups_are_sound_on_every_schedule() {
    let model = if deep() {
        ChangeSignalModel::deep()
    } else {
        ChangeSignalModel::correct()
    };
    let stats = explore(&model).unwrap_or_else(|v| panic!("{v}"));
    assert!(stats.terminals > 100, "exploration degenerated: {stats:?}");
}

/// The bug the generation-before-service order prevents: a change that
/// lands while the worker services its connections is missed by the
/// service, and a generation read afterwards hides it from the wait.
#[test]
fn generation_read_after_servicing_is_caught_as_a_lost_wakeup() {
    let v = explore(&ChangeSignalModel::late_read())
        .expect_err("a change landing mid-service must not wait out the timeout");
    assert!(v.message.contains("lost wakeup"), "wrong violation: {v}");
    assert!(!v.schedule.is_empty(), "no replayable schedule");
}

#[test]
fn lock_inversion_is_caught_as_a_deadlock() {
    explore(&LockOrderModel::consistent()).expect("consistent order cannot deadlock");
    let v = explore(&LockOrderModel::inverted()).expect_err("inversion must deadlock");
    assert!(v.message.contains("deadlock"), "wrong violation: {v}");
    // The witness schedule is the A-then-B interleaving a human can
    // replay: each thread took its first lock before either took its
    // second.
    assert!(v.schedule.len() >= 2);
}
