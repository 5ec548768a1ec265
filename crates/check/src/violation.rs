//! The violation vocabulary shared by every check.

use crp_grid::Edge;
use crp_netlist::{CellId, LegalityViolation, NetId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One invariant violation found by the oracle.
///
/// Variants mirror the three invariant families of the flow: placement
/// legality (Eq. 5–8 plus the Alg. 2 "only critical cells move" rule),
/// routing consistency (connectivity and demand bookkeeping), and cost
/// consistency (the Eq. 10 price cache as a pure memo).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckViolation {
    /// A static placement-legality violation (Eq. 5–8).
    Placement(LegalityViolation),
    /// A fixed cell's position or orientation changed.
    FixedCellMoved {
        /// Offending cell.
        cell: CellId,
    },
    /// A cell outside the iteration's move set changed position.
    UntouchedCellMoved {
        /// Offending cell.
        cell: CellId,
    },
    /// The labeling step selected a fixed (unmovable) cell.
    CriticalCellFixed {
        /// Offending cell.
        cell: CellId,
    },
    /// A candidate claims a footprint leaving the die.
    ClaimOutsideDie {
        /// Cell whose claimed footprint is illegal.
        cell: CellId,
    },
    /// A candidate claims a footprint overlapping a placement blockage.
    ClaimOnBlockage {
        /// Cell whose claimed footprint is illegal.
        cell: CellId,
    },
    /// A candidate claims an x not aligned to its row's site grid.
    ClaimOffSite {
        /// Cell whose claimed footprint is illegal.
        cell: CellId,
    },
    /// A candidate claims a y that is no row origin, or a footprint
    /// leaving its row.
    ClaimOffRow {
        /// Cell whose claimed footprint is illegal.
        cell: CellId,
    },
    /// Two footprints claimed by the same candidate overlap.
    ClaimOverlap {
        /// First claiming cell.
        a: CellId,
        /// Second claiming cell.
        b: CellId,
    },
    /// A candidate's claimed footprint overlaps a fixed cell.
    ClaimOverlapsFixed {
        /// Claiming cell.
        cell: CellId,
        /// The fixed cell under the claim.
        fixed: CellId,
    },
    /// A net's committed route does not connect all of its pins.
    Disconnected {
        /// Offending net.
        net: NetId,
    },
    /// A grid wire counter disagrees with a from-scratch recount over
    /// all committed routes.
    WireUsageMismatch {
        /// Offending edge.
        edge: Edge,
        /// What the grid says.
        grid: f64,
        /// What the recount says.
        recount: f64,
    },
    /// A grid via-endpoint counter disagrees with a from-scratch
    /// recount over all committed routes.
    ViaCountMismatch {
        /// GCell column.
        x: u16,
        /// GCell row.
        y: u16,
        /// Layer of the endpoint counter.
        layer: u16,
        /// What the grid says.
        grid: f64,
        /// What the recount says.
        recount: f64,
    },
    /// Total grid wire usage disagrees with the routing's wirelength.
    WireTotalMismatch {
        /// What the grid says.
        grid: f64,
        /// What the routing says.
        routing: f64,
    },
    /// Total grid via endpoints disagree with twice the routing's vias.
    ViaTotalMismatch {
        /// What the grid says.
        grid: f64,
        /// What the routing says (already doubled to endpoints).
        routing: f64,
    },
    /// A cached Eq. 10 edge cost disagrees with Eq. 10 recomputed from
    /// the grid's counters.
    StaleEdgeCost {
        /// Offending edge.
        edge: Edge,
        /// What the grid's cost table holds.
        cached: f64,
        /// What the counters give.
        fresh: f64,
    },
    /// The grid's global congestion epoch decreased.
    EpochWentBackwards {
        /// Epoch recorded at the start of the checked span.
        before: u64,
        /// Epoch observed now.
        now: u64,
    },
    /// A per-gcell touch stamp exceeds the global epoch.
    TouchAheadOfEpoch {
        /// GCell column.
        x: u16,
        /// GCell row.
        y: u16,
        /// The stamp on that gcell column.
        touch: u64,
        /// The global epoch.
        epoch: u64,
    },
    /// A cached Eq. 10 price disagrees with a fresh recomputation.
    PriceMismatch {
        /// Critical cell whose candidate was mispriced.
        cell: CellId,
        /// Index of the candidate in the cell's list.
        candidate: usize,
        /// The price the estimate phase recorded.
        cached: f64,
        /// The price a from-scratch computation yields.
        fresh: f64,
    },
}

impl fmt::Display for CheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CheckViolation::*;
        match self {
            Placement(v) => write!(f, "placement: {v}"),
            FixedCellMoved { cell } => write!(f, "fixed cell {cell} moved"),
            UntouchedCellMoved { cell } => {
                write!(f, "cell {cell} moved outside the sanctioned move set")
            }
            CriticalCellFixed { cell } => write!(f, "labeling selected fixed cell {cell}"),
            ClaimOutsideDie { cell } => write!(f, "candidate claim for {cell} leaves the die"),
            ClaimOnBlockage { cell } => write!(f, "candidate claim for {cell} hits a blockage"),
            ClaimOffSite { cell } => write!(f, "candidate claim for {cell} is off-site"),
            ClaimOffRow { cell } => write!(f, "candidate claim for {cell} is off-row"),
            ClaimOverlap { a, b } => write!(f, "candidate claims for {a} and {b} overlap"),
            ClaimOverlapsFixed { cell, fixed } => {
                write!(f, "candidate claim for {cell} overlaps fixed cell {fixed}")
            }
            Disconnected { net } => write!(f, "net {net} route does not connect its pins"),
            WireUsageMismatch {
                edge,
                grid,
                recount,
            } => write!(
                f,
                "wire usage on {edge:?}: grid says {grid}, recount says {recount}"
            ),
            ViaCountMismatch {
                x,
                y,
                layer,
                grid,
                recount,
            } => write!(
                f,
                "via endpoints at ({x},{y},M{}): grid says {grid}, recount says {recount}",
                layer + 1
            ),
            WireTotalMismatch { grid, routing } => write!(
                f,
                "total wire usage: grid says {grid}, routing says {routing}"
            ),
            ViaTotalMismatch { grid, routing } => write!(
                f,
                "total via endpoints: grid says {grid}, routing says {routing}"
            ),
            StaleEdgeCost {
                edge,
                cached,
                fresh,
            } => write!(
                f,
                "cost of {edge:?}: table holds {cached}, counters give {fresh}"
            ),
            EpochWentBackwards { before, now } => {
                write!(f, "grid epoch went backwards: {before} -> {now}")
            }
            TouchAheadOfEpoch { x, y, touch, epoch } => write!(
                f,
                "touch stamp {touch} at ({x},{y}) exceeds global epoch {epoch}"
            ),
            PriceMismatch {
                cell,
                candidate,
                cached,
                fresh,
            } => write!(
                f,
                "price of candidate {candidate} for {cell}: estimate recorded {cached}, fresh recomputation yields {fresh}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let v = CheckViolation::FixedCellMoved { cell: CellId(7) };
        assert_eq!(v.to_string(), "fixed cell c7 moved");
        let v = CheckViolation::Disconnected { net: NetId(3) };
        assert!(v.to_string().contains("n3"));
        let v = CheckViolation::ViaCountMismatch {
            x: 1,
            y: 2,
            layer: 0,
            grid: 2.0,
            recount: 3.0,
        };
        assert!(v.to_string().contains("M1"));
    }
}
