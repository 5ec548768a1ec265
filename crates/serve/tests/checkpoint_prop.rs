//! Property test for the checkpoint codec: a [`Checkpoint`] with every
//! field randomized — engine state, timers, saved cells, multi-segment
//! routes — must survive serialize → parse → deserialize
//! bit-identically, and the restored value must re-serialize to the
//! exact same bytes. This pins the *values* the name-based
//! `state-coverage` lint rule cannot see.

use crp_core::{FlowState, StageTimers};
use crp_geom::{Orientation, Point};
use crp_netlist::CellId;
use crp_router::{NetRoute, RouteSeg, ViaStack};
use crp_serve::checkpoint::{Checkpoint, SavedCell};
use crp_serve::json::parse;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn checkpoint_roundtrips_bit_identically(
        // (rng_seed, rng_draws, grid_epoch, iterations_done, iterations_total)
        scalars in (
            0u64..u64::MAX,
            0u64..u64::MAX,
            0u64..u64::MAX,
            0usize..1 << 40,
            0usize..1 << 40,
        ),
        // label, gcp, ecc, select, update (nanos), cache hits, misses.
        timer_ns in collection::vec(0u64..u64::MAX, 7..8),
        crit in collection::vec(0u32..u32::MAX, 0..6),
        moved in collection::vec(0u32..u32::MAX, 0..6),
        // (cell id, x, y, orientation index)
        cells in collection::vec(
            (0u32..u32::MAX, i64::MIN..i64::MAX, i64::MIN..i64::MAX, 0usize..8),
            0..6,
        ),
        // Per route: segs as (layer, fx, fy, far coordinate, axis), kept
        // axis-aligned as `RouteSeg::new` requires; vias as (x, y, lo, hi).
        routes in collection::vec(
            (
                collection::vec(
                    (0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX, 0u8..2),
                    0..5,
                ),
                collection::vec(
                    (0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX, 0u16..u16::MAX),
                    0..3,
                ),
            ),
            0..5,
        ),
    ) {
        let (rng_seed, rng_draws, grid_epoch, iterations_done, iterations_total) = scalars;
        let cp = Checkpoint {
            iterations_done,
            iterations_total,
            grid_epoch,
            flow: FlowState {
                rng_seed,
                rng_draws,
                critical_hist: crit.iter().copied().map(CellId).collect(),
                moved_set: moved.iter().copied().map(CellId).collect(),
                timers: StageTimers {
                    label: Duration::from_nanos(timer_ns[0]),
                    gcp: Duration::from_nanos(timer_ns[1]),
                    ecc: Duration::from_nanos(timer_ns[2]),
                    select: Duration::from_nanos(timer_ns[3]),
                    update: Duration::from_nanos(timer_ns[4]),
                    ecc_cache_hits: timer_ns[5],
                    ecc_cache_misses: timer_ns[6],
                },
            },
            cells: cells
                .iter()
                .map(|&(cell, x, y, o)| SavedCell {
                    cell: CellId(cell),
                    pos: Point::new(x, y),
                    orient: Orientation::ALL[o],
                })
                .collect(),
            routes: routes
                .iter()
                .map(|(segs, vias)| {
                    let mut r = NetRoute::empty();
                    for &(layer, fx, fy, far, axis) in segs {
                        let to = if axis == 0 { (far, fy) } else { (fx, far) };
                        r.segs.push(RouteSeg::new(layer, (fx, fy), to));
                    }
                    for &(x, y, lo, hi) in vias {
                        r.vias.push(ViaStack { x, y, lo, hi });
                    }
                    r
                })
                .collect(),
        };

        let text = cp.to_json().to_string();
        let back = Checkpoint::from_json(&parse(&text).expect("wrote invalid JSON"))
            .expect("wrote an unreadable checkpoint");
        prop_assert_eq!(&back, &cp);
        // Byte-identical re-serialization: restored state is not merely
        // equal, it is the same wire value (checkpoint files diff clean).
        prop_assert_eq!(back.to_json().to_string(), text);
    }
}
