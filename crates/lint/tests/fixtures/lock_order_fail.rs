//! Known-deadlock fixture for the `lock-order` rule. Expected
//! findings: one acquisition cycle between `index` and `stats`
//! (`record` takes index→stats, `evict` takes stats→index) and one
//! self-deadlock on `queue` (`reenter` re-acquires it while held).
//! Linted by `tests/selftest.rs` through `lint_sources`; the
//! workspace engine never scans `fixtures/` directories.

use std::sync::Mutex;

pub struct Shards {
    index: Mutex<Vec<u32>>,
    stats: Mutex<u64>,
    queue: Mutex<Vec<u32>>,
}

impl Shards {
    pub fn record(&self, key: u32) {
        let mut idx = self.index.lock().unwrap();
        let mut st = self.stats.lock().unwrap();
        idx.push(key);
        *st += 1;
    }

    pub fn evict(&self, key: u32) {
        let mut st = self.stats.lock().unwrap();
        let mut idx = self.index.lock().unwrap();
        idx.retain(|&k| k != key);
        *st -= 1;
    }

    pub fn reenter(&self) -> usize {
        let q = self.queue.lock().unwrap();
        let again = self.queue.lock().unwrap();
        q.len() + again.len()
    }
}
