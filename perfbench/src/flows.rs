//! The two in-process flow workloads: `refine_congested` (GR → CR&P →
//! DR on the generator's placement) and `coldstart_gp` (GP → Abacus →
//! GR → CR&P → DR on a netlist with its placement stripped).
//!
//! Each seed yields a fixed sequence of designs: seed-derived copies
//! (variants) of every profile, visited variant-major. A run sets up
//! and runs each design once, in order: the leading `fixed` variants of
//! every profile always, which fixes the quality figures, and further
//! designs while the measuring time lasts, which add timing samples.

use crate::metrics::{Layer, Metrics};
use crate::stats::{median, percentile, print_timing};
use crate::trace::Tracer;
use crate::Args;
use crp_core::{Crp, CrpConfig, IterationReport, StageTimers};
use crp_drouter::{evaluate, DetailedResult, DetailedRouter, DrConfig, Score};
use crp_gp::{legalize_abacus, strip_placement, GlobalPlacer, GpConfig};
use crp_grid::{GridConfig, RouteGrid};
use crp_netlist::Design;
use crp_router::{GlobalRouter, RouterConfig};
use crp_workload::{ispd18_profiles, netlist_only_profiles, Profile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// CR&P iterations per flow (the paper's k = 10).
const K: usize = 10;
/// Variants of each profile a run may reach: more than fit in the
/// measuring time on the baseline host.
const FAMILY: usize = 64;

/// One flow workload: which profiles, at what size, how many variants.
pub struct FlowWorkload {
    /// The base profiles, already scaled.
    profiles: Vec<Profile>,
    /// Leading variants of each profile that every untraced run
    /// measures; the quality figures come from them. Their flows must
    /// fit in the measuring time on the slowest seeds.
    fixed: usize,
    /// Whether the flow strips the placement and runs GP + Abacus.
    cold_start: bool,
}

impl FlowWorkload {
    /// The congested ISPD-2018 test7–test9 analogues on the generator's
    /// placement.
    pub fn refine_congested() -> FlowWorkload {
        FlowWorkload {
            profiles: pick(
                ispd18_profiles(),
                &["ispd18_test7", "ispd18_test8", "ispd18_test9"],
                700.0,
            ),
            // Select blow-ups make some seeds' fixed sets take twice the
            // typical time, and a contended host can triple that; at 8
            // variants the slowest seen still fits.
            fixed: 8,
            cold_start: false,
        }
    }

    /// The netlist-only profiles, placed from scratch by `crp-gp`.
    pub fn coldstart_gp() -> FlowWorkload {
        FlowWorkload {
            profiles: pick(
                netlist_only_profiles(),
                &["gp_fanout", "gp_blocks", "gp_mixed"],
                40.0,
            ),
            fixed: 8,
            cold_start: true,
        }
    }

    /// The run's designs in the order flows visit them: variant-major
    /// (`v0` of every profile, then `v1`, ...), so a run cut short by
    /// the measuring time covers every profile alike. Each design's
    /// generator seed is perturbed by `seed`.
    pub fn inputs(&self, seed: u64) -> Vec<Profile> {
        (0..FAMILY as u64)
            .flat_map(|v| self.profiles.iter().map(move |p| perturb(p, seed, v)))
            .collect()
    }
}

fn pick(all: Vec<Profile>, names: &[&str], divisor: f64) -> Vec<Profile> {
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|p| p.name == *n)
                .unwrap_or_else(|| panic!("no profile named {n}"))
                .scaled(divisor)
        })
        .collect()
}

/// SplitMix64 finaliser: a bijective mix of one `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `profile` with its generator seed perturbed by the run seed and a
/// variant index; the name gains a `_v<variant>` suffix.
pub fn perturb(profile: &Profile, seed: u64, variant: u64) -> Profile {
    let mut p = profile.clone();
    p.seed = mix(profile.seed ^ mix(seed) ^ mix(variant.wrapping_add(0x5EED)));
    p.name = format!("{}_v{variant}", profile.name);
    p
}

/// A generated design and its empty routing grid.
struct Prepared {
    design: Design,
    grid: RouteGrid,
    setup_s: f64,
    grid_s: f64,
}

fn prepare(profile: &Profile, cold_start: bool) -> Prepared {
    let t = Instant::now();
    let mut design = profile.generate();
    if cold_start {
        strip_placement(&mut design);
    }
    // The grid depends on the die, layers and blockages only, so a
    // cold-start design gets the same grid before and after placement.
    let g = Instant::now();
    let grid = RouteGrid::new(&design, GridConfig::default());
    Prepared {
        design,
        grid,
        grid_s: g.elapsed().as_secs_f64(),
        setup_s: t.elapsed().as_secs_f64(),
    }
}

/// What one flow on one design produced.
struct Outcome {
    flow_s: f64,
    score: Score,
    /// Every exact figure of the run; must repeat bit for bit.
    fingerprint: Vec<u64>,
    /// Oracle findings on the final design, grid and routing.
    violations: Vec<String>,
    reports: Vec<IterationReport>,
    timers: StageTimers,
    detailed: DetailedResult,
    gp: Option<GpFigures>,
    overflow: f64,
    gr_vias: u64,
}

struct GpFigures {
    iters: usize,
    final_overflow: f64,
    legalize_disp: f64,
}

/// Runs GR → CR&P → DR (after GP + Abacus for a cold start) on one
/// prepared design; validates the result outside the timed region.
fn run_flow(prep: Prepared, cold_start: bool, tracer: &mut Tracer) -> Result<Outcome, String> {
    let Prepared {
        mut design,
        mut grid,
        ..
    } = prep;
    let flow = tracer.begin("flow");
    let t = Instant::now();
    let gp = if cold_start {
        let (placer, stats) = tracer.time("gp.solve", || {
            let mut placer = GlobalPlacer::new(&design, GpConfig::default());
            let stats = placer.run();
            (placer, stats)
        });
        let targets = placer.positions();
        let abacus = tracer
            .time("gp.legalize", || legalize_abacus(&mut design, &targets))
            .map_err(|e| format!("legalization failed: {e}"))?;
        Some(GpFigures {
            iters: stats.len(),
            final_overflow: stats.last().map_or(0.0, |s| s.overflow),
            legalize_disp: abacus.total_disp,
        })
    } else {
        None
    };
    let mut router = GlobalRouter::new(RouterConfig::default());
    let mut routing = tracer.time("router.route_all", || router.route_all(&design, &mut grid));
    // Post-GR figures cost a grid sweep, so only the traced run pays.
    let (overflow, gr_vias) = if tracer.on() {
        tracer.time("trace.probe", || {
            (grid.congestion().total_overflow, routing.total_vias())
        })
    } else {
        (0.0, 0)
    };
    let mut crp = Crp::new(CrpConfig::default());
    let mut reports = Vec::with_capacity(K);
    for i in 0..K {
        let before = crp.timers;
        let span = tracer.begin("crp.iteration");
        reports.push(crp.run_iteration(i, &mut design, &mut grid, &mut router, &mut routing));
        tracer.end(span);
        let after = crp.timers;
        tracer.derive_children(
            "crp.iteration",
            &[
                ("crp.label", after.label - before.label),
                ("crp.gcp", after.gcp - before.gcp),
                ("crp.ecc", after.ecc - before.ecc),
                ("crp.select", after.select - before.select),
                ("crp.update", after.update - before.update),
            ],
        );
    }
    let detailed = tracer.time("dr.run", || {
        DetailedRouter::new(DrConfig::default()).run(&design, &grid, &routing)
    });
    let score = tracer.time("dr.evaluate", || evaluate(&detailed));
    let flow_s = t.elapsed().as_secs_f64();
    tracer.end(flow);

    let mut violations: Vec<String> = crp_check::check_placement(&design)
        .into_iter()
        .chain(crp_check::check_connectivity(
            &design, &grid, &routing, None,
        ))
        .chain(crp_check::check_demand_exact(&grid, &routing))
        .map(|v| format!("{v:?}"))
        .collect();
    violations.truncate(5);

    let mut fingerprint = vec![
        score.wirelength_dbu as u64,
        score.vias,
        score.drvs as u64,
        score.weighted.to_bits(),
        detailed.layer_bumps,
        detailed.detours,
        detailed.drc.shorts as u64,
    ];
    for r in &reports {
        fingerprint.extend([
            r.critical_cells as u64,
            r.candidates as u64,
            r.moved_cells as u64,
            r.rerouted_nets as u64,
            r.cost_before.to_bits(),
            r.cost_after.to_bits(),
        ]);
    }
    if let Some(g) = &gp {
        fingerprint.extend([
            g.iters as u64,
            g.final_overflow.to_bits(),
            g.legalize_disp.to_bits(),
        ]);
    }
    Ok(Outcome {
        flow_s,
        score,
        fingerprint,
        violations,
        reports,
        timers: crp.timers,
        detailed,
        gp,
        overflow,
        gr_vias,
    })
}

/// Per-design results gathered over the run.
struct DesignRecord {
    name: String,
    /// The untraced flow's wall clock.
    flow_s: Option<f64>,
    first: Option<Outcome>,
}

/// Runs a flow workload and fills `m`. Returns `(attempted, failed)`.
pub fn run(w: &FlowWorkload, args: &Args, m: &mut Metrics) -> (u64, u64) {
    let inputs = w.inputs(args.seed);
    let n = w.profiles.len();
    let fixed = n * w.fixed;
    let mut records: Vec<DesignRecord> = inputs
        .iter()
        .map(|p| DesignRecord {
            name: p.name.clone(),
            flow_s: None,
            first: None,
        })
        .collect();
    let mut tracer = Tracer::new(args.trace);
    let mut layers = Layer::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut traced_s = 0.0;
    let mut untraced: Vec<f64> = Vec::new();
    let mut probes = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();

    // The first `must` designs always run; after them, the next design
    // starts while the median flow so far fits in the measuring time
    // left, so a run ends at most one flow late. Untraced, `must` is the
    // fixed set. Traced, it is the first variant of every profile, and
    // each design runs twice back to back, once traced, so machine drift
    // cancels out of the tracing overhead.
    let (runs_per_design, must) = if args.trace { (2, n) } else { (1, fixed) };
    let mut must_s = 0.0;
    for (d, profile) in inputs.iter().enumerate() {
        if d == must {
            must_s = start.elapsed().as_secs_f64();
        }
        if d >= must {
            let remaining = args.seconds - start.elapsed().as_secs_f64();
            if untraced.is_empty() || median(&untraced) * runs_per_design as f64 > remaining {
                break;
            }
        }
        for run in 0..runs_per_design {
            // Alternate which of the pair goes first, so warm-up
            // effects cancel out of the overhead too.
            let traced = args.trace && (run + d) % 2 == 1;
            probes.push(crate::calib::probe_s());
            let prep = prepare(profile, w.cold_start);
            setups.push(prep.setup_s);
            let grid_s = prep.grid_s;
            tracer.set_design(&records[d].name);
            let mut off = Tracer::new(false);
            let t: &mut Tracer = if traced { &mut tracer } else { &mut off };
            attempted += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| run_flow(prep, w.cold_start, t)))
                .unwrap_or_else(|p| Err(panic_message(&p)));
            let rec = &mut records[d];
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    failed += 1;
                    println!("FAILED {}: {e}", rec.name);
                    continue;
                }
            };
            if !outcome.violations.is_empty() {
                failed += 1;
                println!(
                    "FAILED {}: oracle findings {:?}",
                    rec.name, outcome.violations
                );
            }
            if let Some(first) = &rec.first {
                if first.fingerprint != outcome.fingerprint {
                    failed += 1;
                    println!("FAILED {}: traced and untraced runs differ", rec.name);
                }
            }
            if traced {
                traced_s += outcome.flow_s;
                layers.grid_build_s += grid_s;
                layers.add_flow(&outcome.timers, &outcome.reports);
                layers.router_overflow += outcome.overflow;
                layers.router_vias += outcome.gr_vias;
                layers.add_dr(&outcome.detailed);
                if let Some(g) = &outcome.gp {
                    layers.gp_runs += 1;
                    layers.gp_iters += g.iters as u64;
                    layers.gp_final_overflow += g.final_overflow;
                    layers.gp_legalize_disp += g.legalize_disp;
                }
            } else {
                rec.flow_s = Some(outcome.flow_s);
                untraced.push(outcome.flow_s);
            }
            if rec.first.is_none() {
                rec.first = Some(outcome);
            }
        }
    }
    let reached = records.iter().filter(|r| r.first.is_some()).count();
    println!(
        "measured {attempted} flows on {reached} designs in {:.2} s (--seconds {}); the first {must} designs took {must_s:.2} s",
        start.elapsed().as_secs_f64(),
        args.seconds
    );
    if untraced.is_empty() {
        return (attempted, failed.max(1));
    }
    // Times are scaled to the reference host speed (see `calib`); the
    // raw wall clock stays in `flow.wall_s`. `flow_s` sums over profiles
    // the median over every design of the profile the run reached: a
    // median over all designs would sit where two profiles' times
    // overlap and move with both.
    let probe_s = median(&probes);
    let scale = crate::calib::REFERENCE_S / probe_s;
    let mut wall_s = 0.0;
    for (p, profile) in w.profiles.iter().enumerate() {
        let times: Vec<f64> = records
            .iter()
            .skip(p)
            .step_by(n)
            .filter_map(|r| r.flow_s)
            .collect();
        if times.is_empty() {
            return (attempted, failed.max(1));
        }
        wall_s += median(&times);
        let ms: Vec<String> = times.iter().map(|t| format!("{:.0}", t * 1e3)).collect();
        println!("{} flow ms by variant: {}", profile.name, ms.join(" "));
    }
    let flow_s = wall_s * scale;
    m.set("flow_s", flow_s);
    m.set("flow.wall_s", wall_s);
    m.set("bench.probe_ms", probe_s * 1e3);
    m.set("jobs_per_s", n as f64 / flow_s);
    let mut sorted = untraced.clone();
    sorted.sort_by(f64::total_cmp);
    m.set("job_p50_ms", median(&sorted) * scale * 1e3);
    m.set("job_p95_ms", percentile(&sorted, 95.0) * scale * 1e3);
    print_timing(
        "per-design wall-clock flow time",
        "ms",
        &sorted.iter().map(|t| t * 1e3).collect::<Vec<_>>(),
    );
    // Set-up: the median design over every set-up of the run.
    let setups: Vec<f64> = setups.iter().map(|t| t * scale * 1e3).collect();
    m.set("setup_s", median(&setups) / 1e3);
    print_timing("per-design set-up, scaled", "ms", &setups);

    // Quality: per profile, the median over its fixed variants; summed
    // over profiles.
    let quality = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
        (0..n)
            .map(|p| {
                let v: Vec<f64> = records[..fixed]
                    .iter()
                    .skip(p)
                    .step_by(n)
                    .filter_map(|r| r.first.as_ref().map(f))
                    .collect();
                if v.is_empty() {
                    0.0
                } else {
                    median(&v)
                }
            })
            .sum()
    };
    m.set("score_weighted", quality(&|o| o.score.weighted));
    m.set(
        "wirelength_dbu",
        quality(&|o| o.score.wirelength_dbu as f64),
    );
    m.set("vias", quality(&|o| o.score.vias as f64));
    let firsts = || records.iter().filter_map(|r| r.first.as_ref());
    let drvs: usize = firsts().map(|o| o.score.drvs).sum();
    m.set("dr.drvs", drvs as f64);
    // The designs every run of this mode reaches decide the digest.
    let exact = records[..must]
        .iter()
        .filter_map(|r| r.first.as_ref())
        .flat_map(|o| o.fingerprint.iter().copied());
    if !crate::same_as_last_run(args, must, crate::fnv(exact)) {
        failed += 1;
    }
    println!(
        "designs: {reached} ({n} profiles, the first {} variants of each fixed), drvs over them {drvs}",
        w.fixed
    );

    if args.trace {
        layers.report(m, &tracer, "flow");
        m.set("trace.overhead_s", traced_s - untraced.iter().sum::<f64>());
        print_shares(&tracer, &w.profiles);
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
                println!("cannot write spans to {}: {e}", path.display());
            }
        }
    }
    (attempted, failed)
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .map_or_else(|| "panic".to_string(), |s| format!("panic: {s}"))
}

/// Columns of the Figure-3-style table: span names and their headings.
const SHARE_COLUMNS: [(&str, &str); 12] = [
    ("gp.solve", "GP"),
    ("gp.legalize", "Abacus"),
    ("router.route_all", "GR"),
    ("crp.label", "label"),
    ("crp.gcp", "GCP"),
    ("crp.ecc", "ECC"),
    ("crp.select", "select"),
    ("crp.update", "UD"),
    ("crp.iteration", "CR&P misc"),
    ("dr.run", "DR"),
    ("dr.evaluate", "eval"),
    ("trace.probe", "tracing"),
];

/// Prints each profile's traced flow time (summed over the variants
/// reached) split by layer self time, with the unattributed remainder as `other`.
fn print_shares(tracer: &Tracer, profiles: &[Profile]) {
    print!("{:<16} {:>8}", "design", "flow_s");
    for (_, h) in SHARE_COLUMNS {
        print!(" {h:>9}");
    }
    println!(" {:>9}", "other");
    let rows = profiles.iter().map(|p| p.name.as_str()).chain(["all"]);
    for row in rows {
        let variant = format!("{row}_v");
        let (total, selfs) =
            tracer.self_times_where("flow", |s| row == "all" || s.design.starts_with(&variant));
        print!("{row:<16} {total:>8.3}");
        for (name, _) in SHARE_COLUMNS {
            let share = selfs.get(name).copied().unwrap_or(0.0) / total * 100.0;
            print!(" {share:>8.1}%");
        }
        let other = selfs.get("flow").copied().unwrap_or(0.0) / total * 100.0;
        println!(" {other:>8.1}%");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(cold_start: bool) -> FlowWorkload {
        let profiles = if cold_start {
            pick(netlist_only_profiles(), &["gp_fanout"], 400.0)
        } else {
            pick(ispd18_profiles(), &["ispd18_test7"], 4000.0)
        };
        FlowWorkload {
            profiles,
            fixed: 2,
            cold_start,
        }
    }

    fn defs(w: &FlowWorkload, seed: u64) -> Vec<String> {
        w.inputs(seed)
            .iter()
            .take(w.fixed)
            .map(|p| crp_lefdef::write_def(&p.generate()))
            .collect()
    }

    #[test]
    fn seeds_give_different_designs_and_one_seed_the_same() {
        let w = small(false);
        assert_eq!(defs(&w, 1), defs(&w, 1));
        assert_ne!(defs(&w, 1), defs(&w, 2));
        let one = defs(&w, 1);
        assert_ne!(one[0], one[1], "variants of one seed must differ");
    }

    #[test]
    fn one_seed_reproduces_quality_traced_or_not() {
        for cold_start in [false, true] {
            let w = small(cold_start);
            let profile = &w.inputs(7)[0];
            let run = |on: bool| {
                run_flow(
                    prepare(profile, cold_start),
                    cold_start,
                    &mut Tracer::new(on),
                )
                .expect("flow runs")
            };
            let (a, b, traced) = (run(false), run(false), run(true));
            assert!(a.violations.is_empty(), "{:?}", a.violations);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.fingerprint, traced.fingerprint);
            assert_eq!(a.score.wirelength_dbu, traced.score.wirelength_dbu);
            assert_eq!(a.gp.is_some(), cold_start);
        }
    }
}
