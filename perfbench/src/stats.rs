//! Order statistics for timings and self time for spans.
//!
//! Timings are summarised by their median and by the highest percentile
//! that still has at least [`TAIL_MIN_BEYOND`] samples beyond it, so a
//! tail figure is never read off the last one or two samples.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` in `n` samples. The small slack keeps
/// a product like 99.9 % of 10 000 from rounding up past 9 990.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of the ladder that leaves at least
/// [`TAIL_MIN_BEYOND`] of `n` samples strictly above its rank, if any.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_MIN_BEYOND)
}

/// A timing distribution: median, the rule's tail, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values` (any order). `None` when there are none.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            median: median(&sorted),
            tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        })
    }

    /// One human-readable line, e.g. `p50 12.1 ms, p95 30.2 ms (n=240)`.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p} {v:.3} {unit}"),
            None => ", no tail (fewer than 20 samples)".to_string(),
        };
        format!("p50 {:.3} {unit}{tail} (n={})", self.median, self.n)
    }
}

/// Prints a timing distribution by the percentile rule.
pub fn print_timing(what: &str, unit: &str, samples: &[f64]) {
    match Summary::of(samples) {
        Some(s) => println!("{what}: {}", s.describe(unit)),
        None => println!("{what}: no samples"),
    }
}

/// A closed-open time interval in nanoseconds since the run started.
pub type Interval = (u64, u64);

/// Length of the part of `span` covered by the union of `children`
/// (each clipped to `span`; overlapping children count once).
#[must_use]
fn covered(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the time its children cover.
#[must_use]
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    (span.1 - span.0) - covered(span, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // Below 20 samples even p75 would leave fewer than ten beyond.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_states_count_median_and_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.median, 100.5);
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert!(s.describe("ms").contains("n=200"));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, 2.0]).unwrap().tail, None);
    }

    #[test]
    fn self_time_subtracts_child_union() {
        // No children: all self.
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children (parallel work) count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // A child covering everything leaves no self time.
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }
}
