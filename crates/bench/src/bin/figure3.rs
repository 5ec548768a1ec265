//! Regenerates Figure 3: the percentage runtime breakdown of the
//! CUGR + CR&P (k = 10) + detailed-routing flow — GR, GCP (generate
//! candidate positions), ECC (estimate candidate costs), UD (update
//! database), Select (the Eq. 12 ILP), Misc (labeling), and DR. The
//! paper's Misc bar is this Select plus this Misc.
//!
//! ```text
//! cargo run -p crp-bench --bin figure3 --release
//! ```

use crp_bench::{default_scale, FlowRunner};
use crp_workload::ispd18_profiles;

fn main() {
    let scale = default_scale();
    let runner = FlowRunner::default();
    println!("Figure 3 reproduction — runtime breakdown % of GR+CR&P(k=10)+DR (scale 1/{scale})");
    println!(
        "{:<15} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "Benchmark", "GR", "GCP", "ECC", "UD", "Select", "Misc", "DR"
    );
    for profile in ispd18_profiles() {
        let p = profile.scaled(scale);
        let r = runner.run_crp(&p, 10);
        let stages = r.stages.expect("crp flow always has stage timers");
        let total = r.total_time().as_secs_f64();
        let pct = |d: std::time::Duration| d.as_secs_f64() / total * 100.0;
        println!(
            "{:<15} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            p.name,
            pct(r.gr_time),
            pct(stages.gcp),
            pct(stages.ecc),
            pct(stages.update),
            pct(stages.select),
            pct(stages.label),
            pct(r.dr_time),
        );
    }
    println!();
    println!("Paper shape: ECC (candidate-cost estimation) is the largest CR&P stage;");
    println!("CR&P in total stays below the global router's share on most benchmarks.");
}
