//! A fixed probe of the host's current speed.
//!
//! The probe is routing-like work that the benchmark owns and the
//! program never runs: Dijkstra from several sources over a grid graph
//! with hashed edge costs. Its duration depends only on the host and
//! the compiler, never on the code under test, so scaling a flow time
//! by `REFERENCE_S / probe` removes the speed drift of a shared host
//! while keeping every change the program makes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The probe's time on the host the baseline was measured on (2-core
/// x86-64): scaled times read in seconds at that host's speed.
pub const REFERENCE_S: f64 = 0.007;

const SIDE: usize = 96;

/// Runs the probe once; returns its wall time in seconds.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(dijkstra_sweep());
    t.elapsed().as_secs_f64()
}

fn edge_cost(a: usize, b: usize) -> u64 {
    crate::flows::mix((a * 7919 + b) as u64) % 97 + 1
}

fn dijkstra_sweep() -> u64 {
    let n = SIDE * SIDE;
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    let mut checksum = 0u64;
    for src in [0, n / 3, n / 2 + SIDE / 3, 2 * n / 3, n - 1] {
        dist.fill(u64::MAX);
        dist[src] = 0;
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            let (x, y) = (u % SIDE, u / SIDE);
            let neighbours = [
                (x > 0).then(|| u - 1),
                (x + 1 < SIDE).then(|| u + 1),
                (y > 0).then(|| u - SIDE),
                (y + 1 < SIDE).then(|| u + SIDE),
            ];
            for v in neighbours.into_iter().flatten() {
                let nd = d + edge_cost(u, v);
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        checksum = checksum.wrapping_add(dist.iter().sum::<u64>());
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_fixed_work() {
        assert_eq!(dijkstra_sweep(), dijkstra_sweep());
        assert!(probe_s() > 0.0);
    }
}
