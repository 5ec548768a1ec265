//! `crp-perfbench`: one benchmark for the CR&P flow and the `crpd`
//! daemon.
//!
//! ```text
//! crp-perfbench --workload refine_congested|coldstart_gp|daemon_jobs
//!               --seed N --seconds S --trace 0|1
//!               [--work-dir DIR] [--crpd PATH]
//! ```
//!
//! Prints timing summaries and every metric by name and unit, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`). `perfbench/run.py` builds this binary and `crpd`
//! and runs it; see `perfbench/README.md`.

mod calib;
mod daemon;
mod flows;
mod metrics;
mod stats;
mod trace;

use flows::FlowWorkload;
use metrics::{peak_rss_mib, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where scratch files, daemon data and spans go.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// The `crpd` executable (`daemon_jobs` only).
    pub crpd: Option<PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        trace_out: None,
        crpd: None,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            "--crpd" => args.crpd = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.trace {
        args.trace_out = Some(
            args.work_dir
                .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed)),
        );
    }
    Ok(args)
}

/// FNV-1a over a sequence of `u64`s: a stable digest of exact figures.
pub fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// The determinism check across runs: the digest of every exact figure
/// a run produced over `designs` designs must equal the one the previous
/// run of this workload and seed over as many designs left in the work
/// directory, when the same benchmark binary made it. Prints and returns
/// `false` on a mismatch.
pub fn same_as_last_run(args: &Args, designs: usize, digest: u64) -> bool {
    let binary = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| format!("{}:{:?}", m.len(), m.modified().ok()))
        .unwrap_or_default();
    let path = args.work_dir.join(format!(
        "digest-{}-seed{}-{designs}",
        args.workload, args.seed
    ));
    let line = format!("{binary} {digest:016x}");
    let previous = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(old) = previous.strip_prefix(&format!("{binary} ")) {
        if old.trim() != format!("{digest:016x}") {
            println!(
                "FAILED determinism: exact figures differ from the last run with seed {} ({} != {digest:016x})",
                args.seed,
                old.trim()
            );
            return false;
        }
    }
    if let Err(e) = std::fs::write(&path, line) {
        println!("cannot record the digest in {}: {e}", path.display());
    }
    true
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut m = Metrics::default();
    let (attempted, failed) = match args.workload.as_str() {
        "refine_congested" => flows::run(&FlowWorkload::refine_congested(), args, &mut m),
        "coldstart_gp" => flows::run(&FlowWorkload::coldstart_gp(), args, &mut m),
        "daemon_jobs" => daemon::run(args, &mut m)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if args.workload != "daemon_jobs" {
        m.set(
            "peak_rss_mib",
            peak_rss_mib("self").ok_or("cannot read VmHWM")?,
        );
    }
    m.set("ok_frac", 1.0 - metrics::ratio(failed, attempted));
    println!(
        "seed {}: {attempted} attempted, {failed} failed (failed_frac {})",
        args.seed,
        metrics::ratio(failed, attempted)
    );
    m.print();
    let result = m.result(args.trace, attempted, failed)?;
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(|a| run(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
