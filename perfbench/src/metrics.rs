//! The benchmark's metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the names and units recorded in the
//! repository's `BENCHMARK.json`; a test keeps the two in step.

use crate::trace::Tracer;
use crp_core::{IterationReport, StageTimers};
use crp_drouter::DetailedResult;
use crp_serve::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, reported on every workload by the untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("flow_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("score_weighted", "score"),
    ("wirelength_dbu", "dbu"),
    ("vias", "count"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported on every workload by the traced run
/// (0 where a workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 55] = [
    ("job_p95_ms", "ms"),
    ("flow.wall_s", "s"),
    ("bench.probe_ms", "ms"),
    ("grid.build_s", "s"),
    ("router.route_all_s", "s"),
    ("router.overflow", "tracks"),
    ("router.vias", "count"),
    ("crp.iteration_s", "s"),
    ("crp.label_s", "s"),
    ("crp.gcp_s", "s"),
    ("crp.ecc_s", "s"),
    ("crp.select_s", "s"),
    ("crp.update_s", "s"),
    ("crp.misc_s", "s"),
    ("crp.ecc_hit_rate", "ratio"),
    ("crp.critical_cells", "count"),
    ("crp.candidates", "count"),
    ("crp.moved_cells", "count"),
    ("crp.rerouted_nets", "count"),
    ("crp.move_yield", "ratio"),
    ("crp.idle_iters", "count"),
    ("crp.cost_drop", "cost"),
    ("gp.solve_s", "s"),
    ("gp.iters", "count"),
    ("gp.final_overflow", "ratio"),
    ("gp.legalize_s", "s"),
    ("gp.legalize_disp", "dbu"),
    ("dr.run_s", "s"),
    ("dr.evaluate_s", "s"),
    ("dr.layer_bumps", "count"),
    ("dr.detours", "count"),
    ("dr.shorts", "count"),
    ("dr.drvs", "count"),
    ("serve.start_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_tail_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.first_event_tail_ms", "ms"),
    ("serve.watch_ms", "ms"),
    ("serve.watch_tail_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.fetch_tail_ms", "ms"),
    ("serve.server_submit_us", "us"),
    ("serve.server_watch_us", "us"),
    ("serve.server_fetch_us", "us"),
    ("serve.server_metrics_us", "us"),
    ("serve.transport_gap_ms", "ms"),
    ("serve.admission_retries", "count"),
    ("serve.job_compute_s", "s"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.fetch_bytes", "bytes"),
    ("flow.traced_s", "s"),
    ("flow.other_s", "s"),
    ("trace.probe_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Metric values gathered by a run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Prints every recorded metric with its unit.
    pub fn print(&self) {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(v) = self.values.get(*name) {
                // Fill order under work stealing moves a few hits per run.
                let note = if *name == "crp.ecc_hit_rate" {
                    "  (not exact)"
                } else {
                    ""
                };
                println!("  {name:<28} {v:>16.6} {unit}{note}");
            }
        }
    }

    /// The result object: the end-to-end metrics when `traced` is false,
    /// the per-layer ones otherwise. Per-layer metrics a workload does
    /// not reach read 0; a missing end-to-end metric is an error.
    pub fn result(&self, traced: bool, attempted: u64, failed: u64) -> Result<Json, String> {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {name} is {v}")),
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            metrics.push((
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::str(unit)),
                ]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(i128::from(attempted))),
            ("failed", Json::Int(i128::from(failed))),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// Per-layer counters summed over a traced pass's flows.
#[derive(Debug, Default)]
pub struct Layer {
    pub grid_build_s: f64,
    pub router_overflow: f64,
    pub router_vias: u64,
    critical: u64,
    candidates: u64,
    moved: u64,
    rerouted: u64,
    idle_iters: u64,
    cost_drop: f64,
    ecc_hits: u64,
    ecc_misses: u64,
    pub gp_runs: u64,
    pub gp_iters: u64,
    pub gp_final_overflow: f64,
    pub gp_legalize_disp: f64,
    layer_bumps: u64,
    detours: u64,
    shorts: u64,
}

impl Layer {
    /// Adds one CR&P run's iteration reports and cache counters.
    pub fn add_flow(&mut self, timers: &StageTimers, reports: &[IterationReport]) {
        self.ecc_hits += timers.ecc_cache_hits;
        self.ecc_misses += timers.ecc_cache_misses;
        for r in reports {
            self.critical += r.critical_cells as u64;
            self.candidates += r.candidates as u64;
            self.moved += r.moved_cells as u64;
            self.rerouted += r.rerouted_nets as u64;
            self.idle_iters += u64::from(r.moved_cells == 0);
            self.cost_drop += r.cost_before - r.cost_after;
        }
    }

    /// Adds one detailed-routing result.
    pub fn add_dr(&mut self, dr: &DetailedResult) {
        self.layer_bumps += dr.layer_bumps;
        self.detours += dr.detours;
        self.shorts += dr.drc.shorts as u64;
    }

    /// Records the counters and the span self times under `root`.
    pub fn report(&self, m: &mut Metrics, tracer: &Tracer, root: &str) {
        let (traced_s, selfs) = tracer.self_times(root);
        let self_s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
        m.set("grid.build_s", self.grid_build_s);
        m.set("router.route_all_s", self_s("router.route_all"));
        m.set("router.overflow", self.router_overflow);
        m.set("router.vias", self.router_vias as f64);
        m.set("crp.iteration_s", tracer.total("crp.iteration"));
        for stage in ["label", "gcp", "ecc", "select", "update"] {
            m.set(&format!("crp.{stage}_s"), self_s(&format!("crp.{stage}")));
        }
        m.set("crp.misc_s", self_s("crp.iteration"));
        let lookups = self.ecc_hits + self.ecc_misses;
        m.set("crp.ecc_hit_rate", ratio(self.ecc_hits, lookups));
        m.set("crp.critical_cells", self.critical as f64);
        m.set("crp.candidates", self.candidates as f64);
        m.set("crp.moved_cells", self.moved as f64);
        m.set("crp.rerouted_nets", self.rerouted as f64);
        // Every critical cell contributes one stay candidate.
        m.set(
            "crp.move_yield",
            ratio(self.moved, self.candidates.saturating_sub(self.critical)),
        );
        m.set("crp.idle_iters", self.idle_iters as f64);
        m.set("crp.cost_drop", self.cost_drop);
        m.set("gp.solve_s", self_s("gp.solve"));
        m.set("gp.iters", self.gp_iters as f64);
        // A density ratio per design: report its mean.
        let runs = self.gp_runs.max(1) as f64;
        m.set("gp.final_overflow", self.gp_final_overflow / runs);
        m.set("gp.legalize_s", self_s("gp.legalize"));
        m.set("gp.legalize_disp", self.gp_legalize_disp);
        m.set("dr.run_s", self_s("dr.run"));
        m.set("dr.evaluate_s", self_s("dr.evaluate"));
        m.set("dr.layer_bumps", self.layer_bumps as f64);
        m.set("dr.detours", self.detours as f64);
        m.set("dr.shorts", self.shorts as f64);
        m.set("flow.traced_s", traced_s);
        m.set("flow.other_s", self_s(root));
        m.set("trace.probe_s", self_s("trace.probe"));
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_serve::parse;

    fn names(v: &Json, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let v = parse(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_fills_layers_and_demands_end_to_end() {
        let mut m = Metrics::default();
        assert!(m.result(false, 1, 0).is_err());
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let r = m.result(false, 3, 1).unwrap();
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(r.get("attempted").and_then(Json::as_u64), Some(3));
        let layers = m.result(true, 1, 0).unwrap();
        let gp = layers
            .get("metrics")
            .and_then(|x| x.get("gp.iters"))
            .unwrap();
        assert_eq!(gp.get("value").and_then(Json::as_f64), Some(0.0));
        m.set("flow_s", f64::NAN);
        assert!(m.result(false, 1, 0).is_err());
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }
}
