//! The daemon's change signal: a generation counter plus a condvar that
//! socket workers sleep on between service cycles.
//!
//! Everything that can give a pool worker new work without bytes
//! arriving on one of its sockets bumps the generation: a job event or
//! state change in the scheduler, and the accept thread handing over a
//! connection. A worker reads the generation **before** it services its
//! connections and then waits only while the generation is unchanged,
//! so a change that lands mid-service ends the following wait at once
//! instead of costing a full timeout. (Reading it after servicing is
//! the lost-wakeup bug `crp_lint::models_serve::ChangeSignalModel`
//! checks for.) The wait still has a timeout, because request bytes on
//! a socket do not bump anything: std offers no readiness API and the
//! crate forbids the `unsafe` an `epoll` binding would need.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A generation counter that wakes its waiters whenever it moves.
#[derive(Debug, Default)]
pub(crate) struct ChangeSignal {
    generation: Mutex<u64>,
    cond: Condvar,
}

impl ChangeSignal {
    fn lock(&self) -> MutexGuard<'_, u64> {
        self.generation
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The current generation.
    #[must_use]
    pub(crate) fn generation(&self) -> u64 {
        *self.lock()
    }

    /// Advances the generation and wakes every waiter. Call it after the
    /// change is visible, so a woken worker finds it.
    pub(crate) fn bump(&self) {
        let mut generation = self.lock();
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.cond.notify_all();
    }

    /// Waits until the generation differs from `seen` or `timeout`
    /// passes, whichever is first. Returns whether the generation moved.
    pub(crate) fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let generation = self.lock();
        let (generation, _) = self
            .cond
            // crp-lint: allow(held-lock-blocking, condvar wait atomically releases the generation mutex it is paired with; no other lock is held)
            .wait_timeout_while(generation, timeout, |g| *g == seen)
            .unwrap_or_else(PoisonError::into_inner);
        *generation != seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn wait_returns_at_once_when_the_generation_already_moved() {
        let s = ChangeSignal::default();
        let seen = s.generation();
        s.bump();
        let t = Instant::now();
        assert!(s.wait_past(seen, Duration::from_secs(5)));
        assert!(t.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_times_out_without_a_bump() {
        let s = ChangeSignal::default();
        let seen = s.generation();
        assert!(!s.wait_past(seen, Duration::from_millis(1)));
        assert_eq!(s.generation(), seen);
    }

    #[test]
    fn bump_from_another_thread_wakes_the_waiter() {
        let s = Arc::new(ChangeSignal::default());
        let seen = s.generation();
        let bumper = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                s.bump();
            })
        };
        let t = Instant::now();
        assert!(s.wait_past(seen, Duration::from_secs(5)));
        assert!(t.elapsed() < Duration::from_secs(1));
        bumper.join().unwrap();
    }
}
