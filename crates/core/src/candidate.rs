//! Placement candidates produced by the legalizer.

use crp_geom::{Orientation, Point, Rect};
use crp_netlist::{CellId, Design};
use serde::{Deserialize, Serialize};

/// One joint placement candidate for a critical cell: the cell's new
/// position plus the legalized relocations of any displaced cells.
///
/// The "stay" candidate has `pos == current position` and no moves; the
/// worst case of Algorithm 2 (every critical cell keeps its position) is
/// therefore always feasible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The critical cell this candidate belongs to.
    pub cell: CellId,
    /// New position of the critical cell.
    pub pos: Point,
    /// New orientation (the target row's orientation).
    pub orient: Orientation,
    /// Relocations of conflict cells: `(cell, position, orientation)`.
    pub moves: Vec<(CellId, Point, Orientation)>,
    /// The legalizer's Eq. 11 displacement cost (toward the median).
    pub displacement_cost: f64,
    /// The Algorithm-3 routing cost estimate (`cost_c^p`), filled by
    /// [`estimate_candidates`](crate::estimate_candidates).
    pub routing_cost: f64,
}

impl Candidate {
    /// The "stay at the current position" candidate for `cell`.
    #[must_use]
    pub fn stay(design: &Design, cell: CellId) -> Candidate {
        let c = design.cell(cell);
        Candidate {
            cell,
            pos: c.pos,
            orient: c.orient,
            moves: Vec::new(),
            displacement_cost: 0.0,
            routing_cost: 0.0,
        }
    }

    /// Whether this candidate keeps the cell where it is and moves nothing.
    #[must_use]
    pub fn is_stay(&self, design: &Design) -> bool {
        self.moves.is_empty() && self.pos == design.cell(self.cell).pos
    }

    /// All cells this candidate repositions (the critical cell first).
    pub fn moved_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        std::iter::once(self.cell).chain(self.moves.iter().map(|&(c, _, _)| c))
    }

    /// The new footprints this candidate claims, for overlap checks.
    #[must_use]
    pub fn claimed_rects(&self, design: &Design) -> Vec<(CellId, Rect)> {
        self.claims(design).collect()
    }

    /// [`claimed_rects`](Candidate::claimed_rects) without the allocation:
    /// the critical cell's footprint first, then each relocation's.
    pub(crate) fn claims<'a>(
        &'a self,
        design: &'a Design,
    ) -> impl Iterator<Item = (CellId, Rect)> + 'a {
        std::iter::once((self.cell, self.pos))
            .chain(self.moves.iter().map(|&(c, p, _)| (c, p)))
            .map(move |(c, p)| {
                let m = design.macro_of(c);
                (c, Rect::with_size(p, m.width, m.height))
            })
    }

    /// The position this candidate assigns to `cell`, if it moves it.
    #[must_use]
    pub fn position_of(&self, cell: CellId) -> Option<(Point, Orientation)> {
        if cell == self.cell {
            return Some((self.pos, self.orient));
        }
        self.moves
            .iter()
            .find(|&&(c, _, _)| c == cell)
            .map(|&(_, p, o)| (p, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netlist::{DesignBuilder, MacroCell};

    fn design() -> Design {
        let mut b = DesignBuilder::new("c", 1000);
        b.site(200, 2000);
        let m = b.add_macro(MacroCell::new("M", 400, 2000));
        b.add_rows(3, 20, Point::new(0, 0));
        b.add_cell("u0", m, Point::new(0, 0));
        b.add_cell("u1", m, Point::new(800, 0));
        b.build()
    }

    #[test]
    fn stay_candidate_is_stay() {
        let d = design();
        let c = Candidate::stay(&d, CellId(0));
        assert!(c.is_stay(&d));
        assert_eq!(c.moved_cells().count(), 1);
        assert_eq!(c.displacement_cost, 0.0);
    }

    #[test]
    fn moved_candidate_is_not_stay() {
        let d = design();
        let mut c = Candidate::stay(&d, CellId(0));
        c.pos = Point::new(400, 0);
        assert!(!c.is_stay(&d));
    }

    #[test]
    fn claimed_rects_cover_all_moves() {
        let d = design();
        let mut c = Candidate::stay(&d, CellId(0));
        c.moves
            .push((CellId(1), Point::new(1200, 0), Orientation::N));
        let rects = c.claimed_rects(&d);
        assert_eq!(rects.len(), 2);
        assert_eq!(rects[1].1.lo, Point::new(1200, 0));
    }

    #[test]
    fn position_of_lookup() {
        let d = design();
        let mut c = Candidate::stay(&d, CellId(0));
        c.moves
            .push((CellId(1), Point::new(1200, 0), Orientation::N));
        assert_eq!(
            c.position_of(CellId(0)),
            Some((Point::new(0, 0), Orientation::N))
        );
        assert_eq!(
            c.position_of(CellId(1)),
            Some((Point::new(1200, 0), Orientation::N))
        );
        assert_eq!(c.position_of(CellId(9)), None);
    }
}
