//! Row-occupancy index: free-interval and overlap queries on a placement.
//!
//! Every placement-mutating engine in the flow (the CR&P legalizer and
//! apply step, the median mover, the workload refiner) needs the same
//! three queries: *which cells occupy this row span*, *what free space is
//! left*, and *is this slot free*. [`RowMap`] provides them over sorted
//! per-row spans and supports incremental updates as cells move.

use crate::design::Design;
use crate::ids::CellId;
use crp_geom::{Interval, Point};

/// Sorted per-row cell spans with free-space queries.
///
/// The map reflects the design at construction time; keep it in sync with
/// [`relocate`](RowMap::relocate) when cells move.
///
/// # Examples
///
/// ```
/// # use crp_netlist::{DesignBuilder, MacroCell, RowMap};
/// # use crp_geom::{Interval, Point};
/// let mut b = DesignBuilder::new("d", 1000);
/// b.site(100, 1000);
/// let m = b.add_macro(MacroCell::new("M", 200, 1000));
/// b.add_rows(1, 20, Point::new(0, 0));
/// b.add_cell("u0", m, Point::new(500, 0));
/// let design = b.build();
/// let rows = RowMap::new(&design);
/// let free = rows.free_intervals(&design, &[], 0, Interval::new(0, 2000));
/// assert_eq!(free, vec![Interval::new(0, 500), Interval::new(700, 2000)]);
/// ```
#[derive(Debug, Clone)]
pub struct RowMap {
    rows: Vec<Vec<(Interval, CellId)>>,
}

impl RowMap {
    /// Indexes every cell of `design` by its row.
    ///
    /// Cells not aligned to any row origin (illegal placements) are
    /// skipped; run [`check_legality`](crate::check_legality) separately.
    #[must_use]
    pub fn new(design: &Design) -> RowMap {
        let mut rows: Vec<Vec<(Interval, CellId)>> = vec![Vec::new(); design.rows.len()];
        for (id, cell) in design.cells() {
            if let Some(r) = design.row_with_origin_y(cell.pos.y) {
                rows[r.index()].push((design.cell_rect(id).x_span(), id));
            }
        }
        for row in &mut rows {
            row.sort_by_key(|(s, _)| s.lo);
        }
        RowMap { rows }
    }

    /// The `(x-span, cell)` pairs of row `r`, sorted by span start.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn cells_in_row(&self, r: usize) -> &[(Interval, CellId)] {
        &self.rows[r]
    }

    /// Cells of row `r` whose spans overlap `span`, excluding `exclude`,
    /// in span order.
    pub fn overlapping<'a>(
        &'a self,
        r: usize,
        span: Interval,
        exclude: &'a [CellId],
    ) -> impl Iterator<Item = CellId> + 'a {
        self.rows[r]
            .iter()
            .filter(move |(s, c)| s.overlaps(&span) && !exclude.contains(c))
            .map(|&(_, c)| c)
    }

    /// The free intervals of row `r` within `wx`: the row span minus every
    /// cell (except those in `exclude`, which are treated as vacating)
    /// minus blockages.
    #[must_use]
    pub fn free_intervals(
        &self,
        design: &Design,
        exclude: &[CellId],
        r: usize,
        wx: Interval,
    ) -> Vec<Interval> {
        let row = &design.rows[r];
        let base = match row.rect(design.site).x_span().intersection(&wx) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut obstacles: Vec<Interval> = self.rows[r]
            .iter()
            .filter(|(_, c)| !exclude.contains(c))
            .map(|&(s, _)| s)
            .filter(|s| s.overlaps(&base))
            .collect();
        for blk in &design.blockages {
            if blk.y_span().overlaps(&row.rect(design.site).y_span())
                && blk.x_span().overlaps(&base)
            {
                obstacles.push(blk.x_span());
            }
        }
        obstacles.sort_by_key(|o| o.lo);
        let mut out = Vec::new();
        let mut cursor = base.lo;
        for o in &obstacles {
            if o.lo > cursor {
                out.push(Interval::new(cursor, o.lo.min(base.hi)));
            }
            cursor = cursor.max(o.hi);
        }
        if cursor < base.hi {
            out.push(Interval::new(cursor, base.hi));
        }
        out
    }

    /// Whether `cell` can be placed with its origin at `pos` without
    /// overlapping any *other* cell (blockages are not checked here).
    #[must_use]
    pub fn slot_is_free(&self, design: &Design, cell: CellId, pos: Point) -> bool {
        let Some(r) = design.row_with_origin_y(pos.y) else {
            return false;
        };
        let m = design.macro_of(cell);
        let span = Interval::new(pos.x, pos.x + m.width);
        self.rows[r.index()]
            .iter()
            .all(|&(s, c)| c == cell || !s.overlaps(&span))
    }

    /// Updates the index after moving `cell` to `pos` (call **before or
    /// after** the matching [`Design::move_cell`]; the index only uses the
    /// arguments).
    pub fn relocate(&mut self, design: &Design, cell: CellId, pos: Point) {
        for row in &mut self.rows {
            row.retain(|&(_, c)| c != cell);
        }
        if let Some(r) = design.row_with_origin_y(pos.y) {
            let m = design.macro_of(cell);
            let row = &mut self.rows[r.index()];
            let span = Interval::new(pos.x, pos.x + m.width);
            let at = row.partition_point(|(s, _)| s.lo < span.lo);
            row.insert(at, (span, cell));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::tech::MacroCell;
    use crp_geom::Rect;

    fn fixture() -> (Design, Vec<CellId>) {
        let mut b = DesignBuilder::new("rm", 1000);
        b.site(100, 1000);
        let m = b.add_macro(MacroCell::new("M", 300, 1000));
        b.add_rows(3, 30, Point::new(0, 0));
        let cells = vec![
            b.add_cell("u0", m, Point::new(0, 0)),
            b.add_cell("u1", m, Point::new(600, 0)),
            b.add_cell("u2", m, Point::new(0, 1000)),
        ];
        b.add_blockage(Rect::with_size(Point::new(1500, 0), 300, 1000));
        (b.build(), cells)
    }

    #[test]
    fn cells_sorted_by_span_start() {
        let (d, _) = fixture();
        let rm = RowMap::new(&d);
        let row0 = rm.cells_in_row(0);
        assert_eq!(row0.len(), 2);
        assert!(row0[0].0.lo < row0[1].0.lo);
        assert_eq!(rm.cells_in_row(2).len(), 0);
    }

    #[test]
    fn free_intervals_subtract_cells_and_blockages() {
        let (d, _) = fixture();
        let rm = RowMap::new(&d);
        let free = rm.free_intervals(&d, &[], 0, Interval::new(0, 3000));
        assert_eq!(
            free,
            vec![
                Interval::new(300, 600),
                Interval::new(900, 1500),
                Interval::new(1800, 3000),
            ]
        );
    }

    #[test]
    fn excluded_cells_vacate() {
        let (d, cells) = fixture();
        let rm = RowMap::new(&d);
        let free = rm.free_intervals(&d, &[cells[0]], 0, Interval::new(0, 900));
        assert_eq!(free, vec![Interval::new(0, 600)]);
    }

    #[test]
    fn slot_is_free_respects_own_footprint() {
        let (d, cells) = fixture();
        let rm = RowMap::new(&d);
        // u0's own spot is "free" for itself...
        assert!(rm.slot_is_free(&d, cells[0], Point::new(0, 0)));
        // ...but u1's spot is not.
        assert!(!rm.slot_is_free(&d, cells[0], Point::new(500, 0)));
        assert!(rm.slot_is_free(&d, cells[0], Point::new(300, 0)));
        // Off-row positions are never free.
        assert!(!rm.slot_is_free(&d, cells[0], Point::new(0, 500)));
    }

    #[test]
    fn relocate_keeps_index_consistent() {
        let (mut d, cells) = fixture();
        let mut rm = RowMap::new(&d);
        rm.relocate(&d, cells[0], Point::new(1000, 1000));
        d.move_cell(cells[0], Point::new(1000, 1000), d.rows[1].orient);
        assert_eq!(rm.cells_in_row(0).len(), 1);
        assert_eq!(rm.cells_in_row(1).len(), 2);
        // Sorted order maintained after insert.
        let row1 = rm.cells_in_row(1);
        assert!(row1[0].0.lo <= row1[1].0.lo);
        // The vacated spot is free now.
        assert!(rm.slot_is_free(&d, cells[1], Point::new(0, 0)));
    }

    #[test]
    fn overlapping_query() {
        let (d, cells) = fixture();
        let rm = RowMap::new(&d);
        let hits: Vec<CellId> = rm.overlapping(0, Interval::new(100, 700), &[]).collect();
        assert_eq!(hits, vec![cells[0], cells[1]]);
        let hits: Vec<CellId> = rm
            .overlapping(0, Interval::new(100, 700), &[cells[0]])
            .collect();
        assert_eq!(hits, vec![cells[1]]);
        assert_eq!(rm.overlapping(0, Interval::new(300, 600), &[]).next(), None);
    }
}
