//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. CR&P's five stages are not separate calls, so their
//! spans are derived from the engine's own `StageTimers` deltas and laid
//! end to end from the start of the iteration that produced them
//! (`source: "timers"`). With tracing off every method is a no-op, so
//! the untraced run executes the same code with no clock reads.

use crate::stats::{self_time, Interval};
use crp_serve::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `router.route_all`.
    pub name: &'static str,
    /// The design (or daemon job shape) the span worked on.
    pub design: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Whether the span was derived from the engine's stage timers
    /// rather than timed around a call.
    pub derived: bool,
}

/// Records spans while enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    design: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` while tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            design: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Names the design that subsequent spans belong to.
    pub fn set_design(&mut self, design: &str) {
        if self.on {
            self.design = design.to_string();
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            design: self.design.clone(),
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
            derived: false,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Adds derived child spans to the most recently closed span named
    /// `parent_name`, laid end to end from its start.
    pub fn derive_children(&mut self, parent_name: &str, stages: &[(&'static str, Duration)]) {
        if !self.on {
            return;
        }
        let Some(parent) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let mut t = self.spans[parent].start;
        for &(name, d) in stages {
            let len = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name,
                design: self.spans[parent].design.clone(),
                parent: Some(parent),
                start: t,
                end: t + len,
                derived: true,
            });
            t += len;
        }
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration in seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.end - s.start))
            .sum()
    }

    /// Self time in seconds of every span name under the spans named
    /// `root` (the roots' own self time is reported under `root`), with
    /// the roots' total duration. Self time is a span's duration minus
    /// what its children cover.
    pub fn self_times(&self, root: &str) -> (f64, BTreeMap<&'static str, f64>) {
        self.self_times_where(root, |_| true)
    }

    /// [`self_times`](Tracer::self_times) over the spans `keep` accepts.
    pub fn self_times_where(
        &self,
        root: &str,
        keep: impl Fn(&Span) -> bool,
    ) -> (f64, BTreeMap<&'static str, f64>) {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let under_root = |mut i: usize| loop {
            if self.spans[i].name == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut total = 0.0;
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !keep(s) || !under_root(i) {
                continue;
            }
            if s.name == root {
                total += secs(s.end - s.start);
            }
            *out.entry(s.name).or_insert(0.0) += secs(self_time((s.start, s.end), &children[i]));
        }
        (total, out)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i128));
            let line = Json::obj(vec![
                ("id", Json::Int(i as i128)),
                ("parent", parent),
                ("name", Json::str(s.name)),
                ("design", Json::str(&s.design)),
                ("start_ns", Json::Int(i128::from(s.start))),
                ("end_ns", Json::Int(i128::from(s.end))),
                (
                    "source",
                    Json::str(if s.derived { "timers" } else { "bench" }),
                ),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("flow");
        t.time("router.route_all", || ());
        t.end(s);
        assert!(t.spans().is_empty());
        assert!(t.self_times("flow").1.is_empty());
    }

    #[test]
    fn nesting_and_self_times_add_up() {
        let mut t = Tracer::new(true);
        t.set_design("d0");
        let flow = t.begin("flow");
        t.time("router.route_all", || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let it = t.begin("crp.iteration");
        std::thread::sleep(Duration::from_millis(3));
        t.end(it);
        t.derive_children("crp.iteration", &[("crp.select", Duration::from_millis(1))]);
        t.end(flow);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[3].derived);
        assert_eq!(spans[0].design, "d0");
        let (total, selfs) = t.self_times("flow");
        let sum: f64 = selfs.values().sum();
        assert!(
            (sum - total).abs() < 1e-9,
            "self times {sum} != flow {total}"
        );
        assert!(selfs["crp.select"] > 0.0009);
        assert!(t.to_jsonl().lines().count() == 4);
    }
}
