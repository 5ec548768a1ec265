//! Stage timers for the Figure-3 runtime breakdown.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Accumulated wall-clock per CR&P stage, using the paper's Figure-3
/// stage names: GCP (generate candidate positions), ECC (estimate
/// candidate costs), UD (update database), and Misc (labeling + selection
/// ILP + bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimers {
    /// Labeling critical cells (part of Misc in Figure 3).
    pub label: Duration,
    /// Generate Candidate Positions — the ILP-based legalizer.
    pub gcp: Duration,
    /// Estimating Candidates Cost — Steiner + 3D pattern route pricing.
    pub ecc: Duration,
    /// The selection ILP (part of Misc in Figure 3).
    pub select: Duration,
    /// Update Database — applying moves and rerouting nets.
    pub update: Duration,
    /// Per-net price-cache hits during ECC (0 when the cache is off).
    pub ecc_cache_hits: u64,
    /// Per-net price-cache misses during ECC.
    pub ecc_cache_misses: u64,
}

impl StageTimers {
    /// Total time across all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.label + self.gcp + self.ecc + self.select + self.update
    }

    /// The Figure-3 "Misc" bucket: everything but GCP, ECC, and UD.
    #[must_use]
    pub fn misc(&self) -> Duration {
        self.label + self.select
    }

    /// Adds another timer set stage-wise. The cache counters saturate:
    /// restored timers may hold any `u64`.
    pub fn accumulate(&mut self, other: &StageTimers) {
        self.label += other.label;
        self.gcp += other.gcp;
        self.ecc += other.ecc;
        self.select += other.select;
        self.update += other.update;
        self.ecc_cache_hits = self.ecc_cache_hits.saturating_add(other.ecc_cache_hits);
        self.ecc_cache_misses = self.ecc_cache_misses.saturating_add(other.ecc_cache_misses);
    }

    /// Price-cache hit rate over the ECC stage, in `[0, 1]`; `None` when
    /// no cached lookups were made (cache disabled or nothing estimated).
    #[must_use]
    pub fn ecc_cache_hit_rate(&self) -> Option<f64> {
        let total = self.ecc_cache_lookups();
        #[allow(clippy::cast_precision_loss)]
        (total > 0).then(|| self.ecc_cache_hits as f64 / total as f64)
    }

    /// Hits plus misses, summed wide enough never to overflow.
    fn ecc_cache_lookups(&self) -> u128 {
        u128::from(self.ecc_cache_hits) + u128::from(self.ecc_cache_misses)
    }

    /// One-line human-readable per-phase summary, with the cache hit rate
    /// when the price cache was active.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "label {:?} | gcp {:?} | ecc {:?} | select {:?} | update {:?}",
            self.label, self.gcp, self.ecc, self.select, self.update
        );
        if let Some(rate) = self.ecc_cache_hit_rate() {
            s.push_str(&format!(
                " | ecc cache {}/{} hits ({:.1}%)",
                self.ecc_cache_hits,
                self.ecc_cache_lookups(),
                rate * 100.0
            ));
        }
        s
    }

    /// Percentage breakdown `(gcp, ecc, ud, misc)` of the total, for the
    /// Figure-3 bars. Returns zeros when nothing was timed.
    #[must_use]
    pub fn breakdown_pct(&self) -> (f64, f64, f64, f64) {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.gcp.as_secs_f64() / total * 100.0,
            self.ecc.as_secs_f64() / total * 100.0,
            self.update.as_secs_f64() / total * 100.0,
            self.misc().as_secs_f64() / total * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_total() {
        let mut a = StageTimers {
            label: Duration::from_millis(10),
            gcp: Duration::from_millis(20),
            ecc: Duration::from_millis(30),
            select: Duration::from_millis(5),
            update: Duration::from_millis(35),
            ecc_cache_hits: 7,
            ecc_cache_misses: 3,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), Duration::from_millis(200));
        assert_eq!(a.misc(), Duration::from_millis(30));
        assert_eq!(a.ecc_cache_hits, 14);
        assert_eq!(a.ecc_cache_misses, 6);
    }

    #[test]
    fn breakdown_sums_to_100() {
        let t = StageTimers {
            label: Duration::from_millis(10),
            gcp: Duration::from_millis(20),
            ecc: Duration::from_millis(50),
            select: Duration::from_millis(5),
            update: Duration::from_millis(15),
            ..StageTimers::default()
        };
        let (gcp, ecc, ud, misc) = t.breakdown_pct();
        assert!((gcp + ecc + ud + misc - 100.0).abs() < 1e-9);
        assert!(ecc > gcp && ecc > ud);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(StageTimers::default().breakdown_pct(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn cache_hit_rate_and_summary() {
        let mut t = StageTimers::default();
        assert_eq!(t.ecc_cache_hit_rate(), None);
        assert!(!t.summary().contains("ecc cache"));
        t.ecc_cache_hits = 3;
        t.ecc_cache_misses = 1;
        assert_eq!(t.ecc_cache_hit_rate(), Some(0.75));
        assert!(t.summary().contains("3/4 hits (75.0%)"), "{}", t.summary());
    }

    #[test]
    fn counters_saturate_and_the_rate_stays_in_range() {
        let max = StageTimers {
            ecc_cache_hits: u64::MAX,
            ecc_cache_misses: u64::MAX,
            ..StageTimers::default()
        };
        let mut t = max;
        t.accumulate(&max);
        assert_eq!((t.ecc_cache_hits, t.ecc_cache_misses), (u64::MAX, u64::MAX));
        assert_eq!(t.ecc_cache_hit_rate(), Some(0.5));
        let lookups = 2 * u128::from(u64::MAX);
        assert!(t
            .summary()
            .contains(&format!("{}/{lookups} hits", u64::MAX)));
        t.ecc_cache_misses = 0;
        assert_eq!(t.ecc_cache_hit_rate(), Some(1.0));
    }
}
