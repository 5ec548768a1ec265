//! Golden output: the GR → CR&P (k = 10) → DR flow on three small
//! congested designs must reproduce one recorded digest, bit for bit.
//!
//! The determinism suite compares the program with itself (thread
//! counts, cache on/off), so a refactor that changes what the flow
//! computes passes it. This test pins the outputs themselves: every
//! `IterationReport` field (f64s by their bit patterns) and the detailed
//! router's score. A change that is meant to alter results must
//! re-record `GOLDEN` and say why.

use crp_core::{Crp, CrpConfig, IterationReport};
use crp_drouter::{evaluate, DetailedRouter, DrConfig, Score};
use crp_grid::{GridConfig, RouteGrid};
use crp_router::{GlobalRouter, RouterConfig};
use crp_workload::ispd18_profiles;

/// The digest of [`flow_digest`] over the designs in [`DESIGNS`].
const GOLDEN: u64 = 0xeb9f_f50e_a54e_c98c;

/// `(profile name, scale divisor)`: the congested test7–test9 analogues,
/// small enough for an unoptimised build.
const DESIGNS: [(&str, f64); 3] = [
    ("ispd18_test7", 900.0),
    ("ispd18_test8", 900.0),
    ("ispd18_test9", 900.0),
];

/// 64-bit FNV-1a over a stream of words: stable across platforms and
/// releases, unlike `std`'s hashers.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn report_words(r: &IterationReport) -> [u64; 7] {
    [
        r.iteration as u64,
        r.critical_cells as u64,
        r.candidates as u64,
        r.moved_cells as u64,
        r.rerouted_nets as u64,
        r.cost_before.to_bits(),
        r.cost_after.to_bits(),
    ]
}

fn score_words(s: &Score) -> [u64; 4] {
    [
        s.wirelength_dbu as u64,
        s.vias,
        s.drvs as u64,
        s.weighted.to_bits(),
    ]
}

/// Runs the flow on every design and folds its outputs into one digest.
/// Also returns the number of cells CR&P moved, so the test can tell a
/// flow that did nothing from one that did the recorded work.
fn flow_digest() -> (u64, usize) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut moved = 0;
    for (name, divisor) in DESIGNS {
        let profile = ispd18_profiles()
            .into_iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("no profile named {name}"))
            .scaled(divisor);
        let mut design = profile.generate();
        let mut grid = RouteGrid::new(&design, GridConfig::default());
        let mut router = GlobalRouter::new(RouterConfig::default());
        let mut routing = router.route_all(&design, &mut grid);
        let mut crp = Crp::new(CrpConfig::default());
        let reports = crp.run(10, &mut design, &mut grid, &mut router, &mut routing);
        for r in &reports {
            report_words(r).into_iter().for_each(|w| h.word(w));
            moved += r.moved_cells;
        }
        let result = DetailedRouter::new(DrConfig::default()).run(&design, &grid, &routing);
        score_words(&evaluate(&result))
            .into_iter()
            .for_each(|w| h.word(w));
    }
    (h.0, moved)
}

#[test]
fn flow_outputs_match_the_recorded_digest() {
    let (digest, moved) = flow_digest();
    assert!(
        moved > 0,
        "CR&P moved no cell: the fixture no longer exercises it"
    );
    assert_eq!(
        digest, GOLDEN,
        "GR -> CR&P -> DR outputs changed: digest {digest:#018x}"
    );
}
