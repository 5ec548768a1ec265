//! A bounded-interleaving race checker (a miniature `loom`).
//!
//! A [`Model`] is a handful of virtual threads over explicitly-shared
//! state, where each [`Model::step`] is one *atomic* action (one atomic
//! RMW, one lock-protected critical section, one labelled local
//! computation). The explorer runs a depth-first search over every
//! schedule — at each point, every enabled thread is tried — so a passing
//! model is a **proof over all interleavings** at that size, not a
//! stress test that happened to get lucky. State is cloned at each
//! branch point; models must stay small (2–3 threads, a dozen steps
//! each) for the schedule tree to stay enumerable.
//!
//! This is how the work-stealing cursor of `crp-core::parallel` and the
//! epoch-invalidated price-cache protocol are checked (see
//! [`crate::models`]): the real code's tests pin what *did* happen on
//! one schedule; the models pin what *can* happen on every schedule.

/// A finite concurrent system to explore.
pub trait Model: Clone {
    /// Number of virtual threads.
    fn threads(&self) -> usize;

    /// Whether thread `t` has a next step in this state.
    fn enabled(&self, t: usize) -> bool;

    /// Executes thread `t`'s next atomic step. Called only when
    /// [`enabled`](Model::enabled) returns true.
    fn step(&mut self, t: usize);

    /// Invariant checked in every terminal state (no thread enabled).
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    fn check_terminal(&self) -> Result<(), String>;

    /// Invariant checked after every step (default: nothing).
    ///
    /// # Errors
    ///
    /// Describes the violated invariant.
    fn check_step(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A failed exploration: the invariant broken and the schedule (thread
/// index per step) that reaches it.
#[derive(Debug, Clone)]
pub struct RaceViolation {
    /// The invariant's error message.
    pub message: String,
    /// The interleaving that triggers it, as thread indices.
    pub schedule: Vec<usize>,
}

impl std::fmt::Display for RaceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} via schedule {:?}", self.message, self.schedule)
    }
}

/// Exploration statistics of a passing model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Explored {
    /// Complete interleavings examined.
    pub terminals: u64,
    /// Individual steps executed across all branches.
    pub transitions: u64,
}

/// Schedule-tree size cap: exceeding it means the model is too big to
/// exhaust, which is reported as an error rather than a silent pass.
const MAX_TRANSITIONS: u64 = 50_000_000;

/// Exhaustively explores every interleaving of `model`.
///
/// # Errors
///
/// The first [`RaceViolation`] found, or a budget violation if the
/// schedule tree exceeds `MAX_TRANSITIONS`.
pub fn explore<M: Model>(model: &M) -> Result<Explored, RaceViolation> {
    let mut stats = Explored::default();
    let mut schedule = Vec::new();
    dfs(model, &mut schedule, &mut stats)?;
    Ok(stats)
}

fn dfs<M: Model>(
    state: &M,
    schedule: &mut Vec<usize>,
    stats: &mut Explored,
) -> Result<(), RaceViolation> {
    let mut any_enabled = false;
    for t in 0..state.threads() {
        if !state.enabled(t) {
            continue;
        }
        any_enabled = true;
        stats.transitions += 1;
        if stats.transitions > MAX_TRANSITIONS {
            return Err(RaceViolation {
                message: format!("model too large: exceeded {MAX_TRANSITIONS} transitions"),
                schedule: schedule.clone(),
            });
        }
        let mut next = state.clone();
        next.step(t);
        schedule.push(t);
        if let Err(message) = next.check_step() {
            return Err(RaceViolation {
                message,
                schedule: schedule.clone(),
            });
        }
        dfs(&next, schedule, stats)?;
        schedule.pop();
    }
    if !any_enabled {
        stats.terminals += 1;
        if let Err(message) = state.check_terminal() {
            return Err(RaceViolation {
                message,
                schedule: schedule.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a "non-atomic" counter via a
    /// read-then-write pair: the classic lost update. The explorer must
    /// find the interleaving where one increment vanishes.
    #[derive(Clone)]
    struct LostUpdate {
        counter: u32,
        /// Per-thread: None = not read yet, Some(v) = read, done flag.
        local: [Option<u32>; 2],
        done: [bool; 2],
    }

    impl Model for LostUpdate {
        fn threads(&self) -> usize {
            2
        }
        fn enabled(&self, t: usize) -> bool {
            !self.done[t]
        }
        fn step(&mut self, t: usize) {
            match self.local[t] {
                None => self.local[t] = Some(self.counter),
                Some(v) => {
                    self.counter = v + 1;
                    self.done[t] = true;
                }
            }
        }
        fn check_terminal(&self) -> Result<(), String> {
            if self.counter == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter = {}", self.counter))
            }
        }
    }

    #[test]
    fn finds_the_lost_update() {
        let m = LostUpdate {
            counter: 0,
            local: [None, None],
            done: [false, false],
        };
        let err = explore(&m).expect_err("lost update must be found");
        assert!(err.message.contains("lost update"));
        // The violating schedule interleaves the two read steps.
        assert_eq!(err.schedule.len(), 4);
    }

    /// The fixed protocol: increment as one atomic step.
    #[derive(Clone)]
    struct AtomicUpdate {
        counter: u32,
        done: [bool; 2],
    }

    impl Model for AtomicUpdate {
        fn threads(&self) -> usize {
            2
        }
        fn enabled(&self, t: usize) -> bool {
            !self.done[t]
        }
        fn step(&mut self, t: usize) {
            self.counter += 1;
            self.done[t] = true;
        }
        fn check_terminal(&self) -> Result<(), String> {
            if self.counter == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter = {}", self.counter))
            }
        }
    }

    #[test]
    fn atomic_variant_passes_exhaustively() {
        let m = AtomicUpdate {
            counter: 0,
            done: [false, false],
        };
        let stats = explore(&m).expect("atomic RMW cannot lose updates");
        // Two threads, one step each: exactly 2 interleavings.
        assert_eq!(stats.terminals, 2);
    }
}
