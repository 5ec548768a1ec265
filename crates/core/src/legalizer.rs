//! The ILP-based legalizer (Algorithm 2, Eq. 11).
//!
//! For a critical cell, the legalizer explores an `N_site × N_row` window
//! around its current position. Every site-aligned slot the cell could
//! take is a potential candidate; when the slot overlaps other movable
//! cells ("conflict cells", at most `max_window_cells − 1` of them), a
//! small exact ILP relocates those cells into the window's free space,
//! minimizing the Eq. 11 displacement-toward-median objective. The result
//! is a set of *jointly legal* placement candidates.

use crate::candidate::Candidate;
use crate::config::CrpConfig;
use crp_geom::{Dbu, Interval, Orientation, Point, Rect};
use crp_ilp::{Model, SolveLimits, SolveScratch, VarId};
use crp_netlist::{median_position, CellId, Design, RowId, RowMap};

/// Joint relocation list: each conflict cell with its new legal slot.
type Relocations = Vec<(CellId, Point, Orientation)>;

/// Candidate slots per conflict cell in the Eq. 11 ILP
/// (cheapest-toward-median first, capped to keep the ILP tiny).
const SLOTS_PER_CELL: usize = 15;

/// The per-iteration legalizer. Construction indexes cells by row; the
/// index reflects the design at construction time, so rebuild after moves.
#[derive(Debug)]
pub struct Legalizer<'a> {
    design: &'a Design,
    config: &'a CrpConfig,
    rows: RowMap,
}

/// Reusable per-worker buffers for [`Legalizer`]: one critical cell's
/// window, and the Eq. 11 model that relocates a slot's conflict cells.
///
/// A window's rows keep their free intervals (with only the critical cell
/// vacating) and its conflict cells their medians for every slot tried;
/// the design does not change while candidates are generated. A worker
/// keeps one scratch across all the critical cells it legalizes.
#[derive(Debug, Default)]
pub(crate) struct WindowScratch {
    /// The critical cell's slots: `(Eq. 11 cost, row, x)`.
    slots: Vec<(f64, RowId, Dbu)>,
    conflicts: Vec<CellId>,
    /// Free intervals per window row, with only the critical cell
    /// vacating.
    free: Vec<Vec<Interval>>,
    /// Per window row, whether the relocation at hand reads `edited`
    /// instead of `free`: the conflict row, and rows the claimed slot
    /// crosses.
    is_edited: Vec<bool>,
    edited: Vec<Vec<Interval>>,
    /// Median targets of the window's conflict cells so far.
    medians: Vec<(CellId, Point)>,
    /// One conflict cell's slots: `(Eq. 11 cost, row, x)`.
    options: Vec<(f64, RowId, Dbu)>,
    /// Per ILP variable: the conflict cell and its slot.
    var_info: Vec<(CellId, Point, Orientation, Rect)>,
    /// Per conflict cell, the end of its variables in `var_info`.
    group_end: Vec<usize>,
    model: Model,
    solve: SolveScratch,
}

/// The Eq. 11 window of one critical cell: rows `r0..=r1`, x-span `wx`.
#[derive(Debug, Clone, Copy)]
struct Window {
    r0: usize,
    r1: usize,
    wx: Interval,
}

impl<'a> Legalizer<'a> {
    /// Builds the row index for `design`.
    #[must_use]
    pub fn new(design: &'a Design, config: &'a CrpConfig) -> Legalizer<'a> {
        Legalizer {
            design,
            config,
            rows: RowMap::new(design),
        }
    }

    /// Runs the legalizer for one critical cell (`legalizer.run(c, N_site,
    /// N_row)` in Algorithm 2) and returns the joint candidates, cheapest
    /// displacement first, **excluding** the stay candidate (the flow adds
    /// it).
    #[must_use]
    pub fn candidates_for(&self, cell: CellId) -> Vec<Candidate> {
        self.candidates_with(cell, &mut WindowScratch::default())
    }

    /// [`candidates_for`](Legalizer::candidates_for) with caller-provided
    /// buffers.
    pub(crate) fn candidates_with(
        &self,
        cell: CellId,
        scratch: &mut WindowScratch,
    ) -> Vec<Candidate> {
        let design = self.design;
        let c = design.cell(cell);
        if c.fixed {
            return Vec::new();
        }
        let Some(cur_row) = design.row_with_origin_y(c.pos.y) else {
            return Vec::new();
        };
        let m = design.macro_of(cell);
        let site_w = design.site.width;
        let median = median_position(design, cell);

        // Window rows and x-span, clamped to the floorplan.
        let half_rows = self.config.n_row / 2;
        let r0 = (cur_row.index() as i64 - half_rows).max(0) as usize;
        let r1 = ((cur_row.index() as i64 + half_rows) as usize).min(design.rows.len() - 1);
        let half_span = self.config.n_site / 2 * site_w;
        let wx = Interval::new(c.pos.x - half_span, c.pos.x + half_span + m.width);
        let window = Window { r0, r1, wx };

        // Enumerate slots for the critical cell, cheapest-toward-median
        // first (Eq. 11 ordering).
        let slots = &mut scratch.slots;
        slots.clear();
        for r in r0..=r1 {
            let row = &design.rows[r];
            let row_span = row.rect(design.site).x_span();
            let lo = align_up(wx.lo.max(row_span.lo), row.origin.x, site_w);
            let hi = (wx.hi.min(row_span.hi) - m.width).max(lo - 1);
            let mut x = lo;
            while x <= hi {
                if !(x == c.pos.x && row.origin.y == c.pos.y) {
                    let cost = eq11_cost(Point::new(x, row.origin.y), median);
                    slots.push((cost, RowId::from_index(r), x));
                }
                x += site_w;
            }
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let slots = std::mem::take(slots);

        // The window's free space with only the critical cell vacating,
        // shared by every relocation below.
        scratch.free.clear();
        for r in r0..=r1 {
            scratch
                .free
                .push(self.rows.free_intervals(design, &[cell], r, wx));
        }
        scratch.medians.clear();

        let mut out: Vec<Candidate> = Vec::new();
        let budget = self.config.max_candidates * 4;
        for (tried, &(c_cost, row_id, x)) in slots.iter().enumerate() {
            if out.len() + 1 >= self.config.max_candidates || tried >= budget {
                break;
            }
            let row = &design.rows[row_id.index()];
            let pos = Point::new(x, row.origin.y);
            let rect = Rect::with_size(pos, m.width, m.height);
            if !design.die.contains_rect(&rect)
                || design.blockages.iter().any(|b| b.intersects(&rect))
            {
                continue;
            }
            // Conflicts: cells overlapping the slot on this row.
            let span = rect.x_span();
            scratch.conflicts.clear();
            let mut blocked_by_fixed = false;
            for other in self.rows.overlapping(row_id.index(), span, &[cell]) {
                if design.cell(other).fixed {
                    blocked_by_fixed = true;
                    break;
                }
                scratch.conflicts.push(other);
            }
            if blocked_by_fixed || scratch.conflicts.len() + 1 > self.config.max_window_cells {
                continue;
            }
            if scratch.conflicts.is_empty() {
                out.push(Candidate {
                    cell,
                    pos,
                    orient: row.orient,
                    moves: Vec::new(),
                    displacement_cost: c_cost,
                    routing_cost: 0.0,
                });
                continue;
            }
            if let Some((moves, ilp_cost)) =
                self.relocate_conflicts(cell, rect, row_id.index(), window, scratch)
            {
                out.push(Candidate {
                    cell,
                    pos,
                    orient: row.orient,
                    moves,
                    displacement_cost: c_cost + ilp_cost,
                    routing_cost: 0.0,
                });
            }
        }
        scratch.slots = slots;
        out.sort_by(|a, b| a.displacement_cost.total_cmp(&b.displacement_cost));
        out
    }

    /// Solves the Eq. 11 ILP that relocates `scratch.conflicts`, all filed
    /// under row `conflict_row`, into the window's free space, with the
    /// critical cell pinned at `crit_rect`.
    fn relocate_conflicts(
        &self,
        cell: CellId,
        crit_rect: Rect,
        conflict_row: usize,
        window: Window,
        scratch: &mut WindowScratch,
    ) -> Option<(Relocations, f64)> {
        let design = self.design;
        let site_w = design.site.width;
        let Window { r0, r1, wx } = window;

        // Free intervals per window row: the row span ∩ window minus every
        // standing cell (except the conflicts themselves, which vacate)
        // minus the critical cell's claimed slot and blockages. The
        // conflicts stand only in their own row, so every other row reads
        // the window's free space unless the claimed slot crosses it.
        let rows = r1 - r0 + 1;
        scratch.is_edited.clear();
        scratch.is_edited.resize(rows, false);
        scratch.edited.resize_with(rows, Vec::new);
        for r in r0..=r1 {
            let i = r - r0;
            let crossed = crit_rect
                .y_span()
                .overlaps(&design.rows[r].rect(design.site).y_span());
            if r != conflict_row && !crossed {
                continue;
            }
            let vacated;
            let base: &[Interval] = if r == conflict_row {
                scratch.conflicts.push(cell);
                vacated = self.rows.free_intervals(design, &scratch.conflicts, r, wx);
                scratch.conflicts.pop();
                &vacated
            } else {
                &scratch.free[i]
            };
            let out = &mut scratch.edited[i];
            out.clear();
            if crossed {
                carve(base, crit_rect.x_span(), out);
            } else {
                out.extend_from_slice(base);
            }
            scratch.is_edited[i] = true;
        }

        let WindowScratch {
            conflicts,
            free,
            is_edited,
            edited,
            medians,
            options,
            var_info,
            group_end,
            model,
            solve,
            ..
        } = scratch;
        // One conflict cell needs no model: its one-group ILP has no
        // conflicts, and the solve picks the cheapest (first) slot.
        let several = conflicts.len() > 1;
        if several {
            model.clear();
        }
        var_info.clear();
        group_end.clear();
        for &cc in conflicts.iter() {
            let mc = design.macro_of(cc);
            let med = match medians.iter().find(|(m, _)| *m == cc) {
                Some(&(_, med)) => med,
                None => {
                    let med = median_position(design, cc);
                    medians.push((cc, med));
                    med
                }
            };
            options.clear();
            for r in r0..=r1 {
                let i = r - r0;
                let row = &design.rows[r];
                let intervals = if is_edited[i] { &edited[i] } else { &free[i] };
                for iv in intervals {
                    let lo = align_up(iv.lo, row.origin.x, site_w);
                    let mut x = lo;
                    while x + mc.width <= iv.hi {
                        let cost = eq11_cost(Point::new(x, row.origin.y), med);
                        options.push((cost, RowId::from_index(r), x));
                        x += site_w;
                    }
                }
            }
            if options.is_empty() {
                return None; // this conflict cell cannot be relocated
            }
            options.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            options.truncate(SLOTS_PER_CELL);
            for &(cost, row_id, x) in options.iter() {
                let row = &design.rows[row_id.index()];
                let pos = Point::new(x, row.origin.y);
                let rect = Rect::with_size(pos, mc.width, mc.height);
                var_info.push((cc, pos, row.orient, rect));
                if several {
                    let _ = model.add_var(cost);
                }
            }
            group_end.push(var_info.len());
        }
        if !several {
            let (cc, pos, orient, _) = var_info[0];
            return Some((vec![(cc, pos, orient)], 0.0 + options[0].0));
        }

        // Pairwise overlap conflicts between different cells' slots.
        let group = |g: usize| (if g == 0 { 0 } else { group_end[g - 1] })..group_end[g];
        for gi in 0..group_end.len() {
            for gj in (gi + 1)..group_end.len() {
                for va in group(gi) {
                    for vb in group(gj) {
                        if var_info[va].3.intersects(&var_info[vb].3) {
                            model.add_conflict(var_id(va), var_id(vb));
                        }
                    }
                }
            }
        }
        for g in 0..group_end.len() {
            model.add_exactly_one(group(g).map(var_id));
        }
        let solution = model
            .solve_with(SolveLimits { max_nodes: 100_000 }, solve)
            .ok()?;
        let moves = solution
            .chosen
            .iter()
            .map(|&v| {
                let (cc, pos, orient, _) = var_info[var_index(v)];
                (cc, pos, orient)
            })
            .collect();
        Some((moves, solution.objective))
    }
}

/// Appends `free` minus `claim` to `out`: an interval the claim overlaps
/// keeps its parts on either side.
fn carve(free: &[Interval], claim: Interval, out: &mut Vec<Interval>) {
    for &iv in free {
        match iv.intersection(&claim) {
            None => out.push(iv),
            Some(_) => {
                if iv.lo < claim.lo {
                    out.push(Interval::new(iv.lo, claim.lo));
                }
                if claim.hi < iv.hi {
                    out.push(Interval::new(claim.hi, iv.hi));
                }
            }
        }
    }
}

fn var_id(i: usize) -> VarId {
    // crp-lint: allow(no-panic-paths, a window's model has at most
    // max_window_cells × SLOTS_PER_CELL variables)
    VarId(u32::try_from(i).expect("few variables"))
}

fn var_index(v: VarId) -> usize {
    v.0 as usize
}

/// The Eq. 11 displacement cost: Manhattan distance to the median target.
/// Row moves are naturally `H_row / W_site` times more expensive than site
/// moves because distances are in DBU.
fn eq11_cost(pos: Point, median: Point) -> f64 {
    pos.manhattan(median) as f64
}

/// The smallest site-aligned x at or above `x` for a row starting at
/// `row_x` with site width `site_w`.
fn align_up(x: Dbu, row_x: Dbu, site_w: Dbu) -> Dbu {
    let rel = x - row_x;
    let aligned = rel.div_euclid(site_w) * site_w
        + if rel.rem_euclid(site_w) == 0 {
            0
        } else {
            site_w
        };
    row_x + aligned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netlist::{check_legality, DesignBuilder, MacroCell};

    fn design_with_gap() -> (Design, Vec<CellId>) {
        let mut b = DesignBuilder::new("leg", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(5, 40, Point::new(0, 0));
        // Row 0: u0 at site 0, u1 at site 10, gap elsewhere.
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(2000, 0));
        // Row 2: u2 far right; net pulls u0 toward it.
        let u2 = b.add_cell("u2", m, Point::new(6000, 4000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u2, "A");
        (b.build(), vec![u0, u1, u2])
    }

    #[test]
    fn candidates_are_window_bounded_and_legal_slots() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        let cands = lg.candidates_for(cells[0]);
        assert!(!cands.is_empty());
        let cur = d.cell(cells[0]).pos;
        for cand in &cands {
            // Site-aligned, on a row, inside the window.
            assert_eq!(cand.pos.x % 200, 0);
            assert!(d.row_with_origin_y(cand.pos.y).is_some());
            assert!((cand.pos.x - cur.x).abs() <= cfg.n_site / 2 * 200 + 400);
            assert!(cand.moves.len() < cfg.max_window_cells);
        }
    }

    #[test]
    fn candidates_sorted_by_displacement_toward_median() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        let cands = lg.candidates_for(cells[0]);
        for w in cands.windows(2) {
            assert!(w[0].displacement_cost <= w[1].displacement_cost);
        }
        // The median target is u2's pin area; best candidates move right.
        assert!(cands[0].pos.x > d.cell(cells[0]).pos.x);
    }

    #[test]
    fn applying_any_candidate_keeps_design_legal() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        for cand in lg.candidates_for(cells[0]) {
            let mut trial = d.clone();
            trial.move_cell(cand.cell, cand.pos, cand.orient);
            for &(cc, p, o) in &cand.moves {
                trial.move_cell(cc, p, o);
            }
            let v = check_legality(&trial);
            assert!(v.is_empty(), "candidate {cand:?} produced violations {v:?}");
        }
    }

    #[test]
    fn occupied_slot_generates_conflict_moves() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        // u1 occupies sites 10-11 of row 0; a candidate placing u0 there
        // must relocate u1.
        let cands = lg.candidates_for(cells[0]);
        let overlapping: Vec<_> = cands
            .iter()
            .filter(|c| c.pos.y == 0 && (c.pos.x - 2000i64).abs() < 400)
            .collect();
        for c in &overlapping {
            assert!(
                c.moves.iter().any(|&(m, _, _)| m == cells[1]),
                "expected u1 relocation in {c:?}"
            );
        }
    }

    #[test]
    fn fixed_cell_gets_no_candidates() {
        let (mut d, cells) = design_with_gap();
        d.set_fixed(cells[0], true);
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        assert!(lg.candidates_for(cells[0]).is_empty());
    }

    #[test]
    fn fixed_neighbour_blocks_slot() {
        let (mut d, cells) = design_with_gap();
        d.set_fixed(cells[1], true);
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(&d, &cfg);
        for cand in lg.candidates_for(cells[0]) {
            let rect = Rect::with_size(cand.pos, 400, 2000);
            let u1_rect = d.cell_rect(cells[1]);
            assert!(!rect.intersects(&u1_rect), "candidate overlaps fixed cell");
        }
    }

    #[test]
    fn candidate_count_capped() {
        let (d, cells) = design_with_gap();
        let cfg = CrpConfig {
            max_candidates: 3,
            ..CrpConfig::default()
        };
        let lg = Legalizer::new(&d, &cfg);
        assert!(lg.candidates_for(cells[0]).len() < 3);
    }

    /// The legalizer as it stood with every relocation rebuilding its
    /// window and solving a model: the reference `candidates_with` must
    /// reproduce.
    mod per_slot {
        use super::super::*;

        pub(super) fn candidates_for(lg: &Legalizer<'_>, cell: CellId) -> Vec<Candidate> {
            let design = lg.design;
            let c = design.cell(cell);
            if c.fixed {
                return Vec::new();
            }
            let Some(cur_row) = design.row_with_origin_y(c.pos.y) else {
                return Vec::new();
            };
            let m = design.macro_of(cell);
            let site_w = design.site.width;
            let median = median_position(design, cell);
            let half_rows = lg.config.n_row / 2;
            let r0 = (cur_row.index() as i64 - half_rows).max(0) as usize;
            let r1 = ((cur_row.index() as i64 + half_rows) as usize).min(design.rows.len() - 1);
            let half_span = lg.config.n_site / 2 * site_w;
            let wx = Interval::new(c.pos.x - half_span, c.pos.x + half_span + m.width);
            let mut slots: Vec<(f64, RowId, Dbu)> = Vec::new();
            for r in r0..=r1 {
                let row = &design.rows[r];
                let row_span = row.rect(design.site).x_span();
                let lo = align_up(wx.lo.max(row_span.lo), row.origin.x, site_w);
                let hi = (wx.hi.min(row_span.hi) - m.width).max(lo - 1);
                let mut x = lo;
                while x <= hi {
                    if !(x == c.pos.x && row.origin.y == c.pos.y) {
                        let cost = eq11_cost(Point::new(x, row.origin.y), median);
                        slots.push((cost, RowId::from_index(r), x));
                    }
                    x += site_w;
                }
            }
            slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
            let mut out: Vec<Candidate> = Vec::new();
            let budget = lg.config.max_candidates * 4;
            for (tried, &(c_cost, row_id, x)) in slots.iter().enumerate() {
                if out.len() + 1 >= lg.config.max_candidates || tried >= budget {
                    break;
                }
                let row = &design.rows[row_id.index()];
                let pos = Point::new(x, row.origin.y);
                let rect = Rect::with_size(pos, m.width, m.height);
                if !design.die.contains_rect(&rect)
                    || design.blockages.iter().any(|b| b.intersects(&rect))
                {
                    continue;
                }
                let span = rect.x_span();
                let mut conflicts: Vec<CellId> = Vec::new();
                let mut blocked_by_fixed = false;
                for other in lg.rows.overlapping(row_id.index(), span, &[cell]) {
                    if design.cell(other).fixed {
                        blocked_by_fixed = true;
                        break;
                    }
                    conflicts.push(other);
                }
                if blocked_by_fixed || conflicts.len() + 1 > lg.config.max_window_cells {
                    continue;
                }
                let (moves, extra) = if conflicts.is_empty() {
                    (Vec::new(), None)
                } else {
                    match relocate_conflicts(lg, cell, rect, &conflicts, r0, r1, wx) {
                        Some((moves, ilp_cost)) => (moves, Some(ilp_cost)),
                        None => continue,
                    }
                };
                out.push(Candidate {
                    cell,
                    pos,
                    orient: row.orient,
                    moves,
                    displacement_cost: extra.map_or(c_cost, |ilp_cost| c_cost + ilp_cost),
                    routing_cost: 0.0,
                });
            }
            out.sort_by(|a, b| a.displacement_cost.total_cmp(&b.displacement_cost));
            out
        }

        fn relocate_conflicts(
            lg: &Legalizer<'_>,
            cell: CellId,
            crit_rect: Rect,
            conflicts: &[CellId],
            r0: usize,
            r1: usize,
            wx: Interval,
        ) -> Option<(Relocations, f64)> {
            let design = lg.design;
            let site_w = design.site.width;
            let mut exclude: Vec<CellId> = conflicts.to_vec();
            exclude.push(cell);
            let mut free: Vec<(RowId, Vec<Interval>)> = Vec::new();
            for r in r0..=r1 {
                let row_rect = design.rows[r].rect(design.site);
                let mut intervals = lg.rows.free_intervals(design, &exclude, r, wx);
                if crit_rect.y_span().overlaps(&row_rect.y_span()) {
                    let claim = crit_rect.x_span();
                    intervals = intervals
                        .into_iter()
                        .flat_map(|iv| {
                            let mut parts = Vec::with_capacity(2);
                            match iv.intersection(&claim) {
                                None => parts.push(iv),
                                Some(_) => {
                                    if iv.lo < claim.lo {
                                        parts.push(Interval::new(iv.lo, claim.lo));
                                    }
                                    if claim.hi < iv.hi {
                                        parts.push(Interval::new(claim.hi, iv.hi));
                                    }
                                }
                            }
                            parts
                        })
                        .collect();
                }
                free.push((RowId::from_index(r), intervals));
            }
            let mut model = Model::new();
            let mut var_info: Vec<(CellId, Point, Orientation, Rect)> = Vec::new();
            let mut groups: Vec<Vec<VarId>> = Vec::new();
            for &cc in conflicts {
                let mc = design.macro_of(cc);
                let med = median_position(design, cc);
                let mut options: Vec<(f64, RowId, Dbu)> = Vec::new();
                for (row_id, intervals) in &free {
                    let row = &design.rows[row_id.index()];
                    for iv in intervals {
                        let lo = align_up(iv.lo, row.origin.x, site_w);
                        let mut x = lo;
                        while x + mc.width <= iv.hi {
                            options.push((eq11_cost(Point::new(x, row.origin.y), med), *row_id, x));
                            x += site_w;
                        }
                    }
                }
                if options.is_empty() {
                    return None;
                }
                options.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
                options.truncate(SLOTS_PER_CELL);
                let mut vars = Vec::with_capacity(options.len());
                for (cost, row_id, x) in options {
                    let row = &design.rows[row_id.index()];
                    let pos = Point::new(x, row.origin.y);
                    let rect = Rect::with_size(pos, mc.width, mc.height);
                    let v = model.add_var(cost);
                    var_info.push((cc, pos, row.orient, rect));
                    vars.push(v);
                }
                groups.push(vars);
            }
            for gi in 0..groups.len() {
                for gj in (gi + 1)..groups.len() {
                    for &va in &groups[gi] {
                        for &vb in &groups[gj] {
                            let ra = var_info[var_index(va)].3;
                            let rb = var_info[var_index(vb)].3;
                            if ra.intersects(&rb) {
                                model.add_conflict(va, vb);
                            }
                        }
                    }
                }
            }
            for g in &groups {
                model.add_exactly_one(g.iter().copied());
            }
            let solution = model.solve(SolveLimits { max_nodes: 100_000 }).ok()?;
            let moves = solution
                .chosen
                .iter()
                .map(|&v| {
                    let (cc, pos, orient, _) = var_info[var_index(v)];
                    (cc, pos, orient)
                })
                .collect();
            Some((moves, solution.objective))
        }
    }

    /// A random row placement: rows of random width, cells of one to four
    /// sites packed with small gaps around placement blockages, some of
    /// them fixed, each wired to a few others.
    fn random_rows(seed: u64) -> Design {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = DesignBuilder::new("rows", 1000);
        b.site(200, 2000);
        let macros: Vec<_> = (1..=4)
            .map(|w| {
                b.add_macro(
                    MacroCell::new(format!("M{w}"), 200 * w, 2000)
                        .with_pin("A", 100, 1000, 0)
                        .with_pin("Y", 200 * w - 100, 1000, 0),
                )
            })
            .collect();
        let rows = rng.gen_range(2..7u32);
        let sites = rng.gen_range(10..48u32);
        b.add_rows(rows, sites, Point::new(0, 0));
        let mut blocked: Vec<(i64, i64, i64)> = Vec::new();
        for _ in 0..rng.gen_range(0..3) {
            let row = i64::from(rng.gen_range(0..rows));
            let lo = i64::from(rng.gen_range(0..sites)) * 200;
            let hi = (lo + i64::from(rng.gen_range(1..5u32)) * 200).min(i64::from(sites) * 200);
            b.add_blockage(Rect::new(
                Point::new(lo, row * 2000),
                Point::new(hi, row * 2000 + 2000),
            ));
            blocked.push((row, lo, hi));
        }
        let mut cells = Vec::new();
        for row in 0..i64::from(rows) {
            let mut x = 0;
            loop {
                x += i64::from(rng.gen_range(0..3u32)) * 200;
                let w = rng.gen_range(0..4usize);
                let width = 200 * (w as i64 + 1);
                if x + width > i64::from(sites) * 200 {
                    break;
                }
                if let Some(&(_, _, hi)) = blocked
                    .iter()
                    .find(|&&(r, lo, hi)| r == row && x < hi && lo < x + width)
                {
                    x = hi;
                    continue;
                }
                let name = format!("u{}", cells.len());
                cells.push(b.add_cell(name, macros[w], Point::new(x, row * 2000)));
                x += width;
            }
        }
        for (i, &cell) in cells.iter().enumerate() {
            let n = b.add_net(format!("n{i}"));
            b.connect(n, cell, "Y");
            for _ in 0..rng.gen_range(1..3) {
                let other = cells[rng.gen_range(0..cells.len())];
                if other != cell {
                    b.connect(n, other, "A");
                }
            }
        }
        let mut d = b.build();
        for &cell in &cells {
            if rng.gen_range(0..7) == 0 {
                d.set_fixed(cell, true);
            }
        }
        d
    }

    #[test]
    fn windowed_candidates_equal_the_per_slot_reference() {
        let mut moves_seen = [0usize; 4];
        for seed in 0..48u64 {
            let d = random_rows(seed);
            let cfg = CrpConfig {
                n_site: [6, 10, 20][(seed % 3) as usize],
                n_row: [3, 5][(seed % 2) as usize],
                max_window_cells: [2, 3, 4][(seed / 2 % 3) as usize],
                max_candidates: [4, 8, 12][(seed / 3 % 3) as usize],
                ..CrpConfig::default()
            };
            let lg = Legalizer::new(&d, &cfg);
            // One scratch across every cell, as a worker uses it.
            let mut scratch = WindowScratch::default();
            for (cell, _) in d.cells() {
                let got = lg.candidates_with(cell, &mut scratch);
                let want = per_slot::candidates_for(&lg, cell);
                let key = |c: &Candidate| {
                    (
                        c.cell,
                        c.pos,
                        c.orient,
                        c.moves.clone(),
                        c.displacement_cost.to_bits(),
                    )
                };
                assert_eq!(
                    got.iter().map(key).collect::<Vec<_>>(),
                    want.iter().map(key).collect::<Vec<_>>(),
                    "seed {seed}, {cell}"
                );
                for c in &got {
                    moves_seen[c.moves.len().min(3)] += 1;
                }
            }
        }
        // Slots with no, one and several conflict cells all occurred.
        assert!(moves_seen.iter().take(3).all(|&n| n > 0), "{moves_seen:?}");
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 0, 200), 0);
        assert_eq!(align_up(1, 0, 200), 200);
        assert_eq!(align_up(200, 0, 200), 200);
        assert_eq!(align_up(350, 100, 200), 500);
        assert_eq!(align_up(-150, 0, 200), 0);
    }

    /// Every claim of every candidate must satisfy the oracle's claim
    /// geometry — the Eq. 11 window contract `crp-check` enforces at
    /// `Full` — and applying the joint move must leave the design legal.
    fn assert_candidates_legal_per_oracle(d: &Design, cell: CellId) -> Vec<Candidate> {
        let cfg = CrpConfig::default();
        let lg = Legalizer::new(d, &cfg);
        let cands = lg.candidates_for(cell);
        let fixed = crp_check::fixed_cell_rects(d);
        for cand in &cands {
            let claims = cand.claimed_rects(d);
            let v = crp_check::check_claims(d, &claims, &fixed);
            assert!(v.is_empty(), "candidate {cand:?} claims illegally: {v:?}");
            let mut trial = d.clone();
            trial.move_cell(cand.cell, cand.pos, cand.orient);
            for &(cc, p, o) in &cand.moves {
                trial.move_cell(cc, p, o);
            }
            let v = crp_check::check_placement(&trial);
            assert!(v.is_empty(), "candidate {cand:?} breaks placement: {v:?}");
        }
        cands
    }

    #[test]
    fn window_clipped_at_die_corners_stays_inside_die() {
        // Cells in the extreme corners: the Eq. 11 window hangs past the
        // die on two sides and must be clipped, not wrapped or skipped.
        let mut b = DesignBuilder::new("corner", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(4, 30, Point::new(0, 0));
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(5600, 6000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u1, "A");
        let d = b.build();
        for cell in [u0, u1] {
            let cands = assert_candidates_legal_per_oracle(&d, cell);
            assert!(!cands.is_empty(), "corner cell {cell} got no candidates");
            for cand in &cands {
                for (_, rect) in cand.claimed_rects(&d) {
                    assert!(d.die.contains_rect(&rect), "claim {rect} leaves the die");
                }
            }
        }
    }

    #[test]
    fn window_with_blockage_keeps_claims_off_it() {
        // A placement blockage sits squarely inside u0's window, in the
        // direction the net median pulls; every candidate must route
        // around it (Eq. 11 slots on blockages are not legal slots).
        let mut b = DesignBuilder::new("blocked", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(3, 30, Point::new(0, 0));
        b.add_blockage(Rect::with_size(Point::new(800, 0), 1200, 2000));
        let u0 = b.add_cell("u0", m, Point::new(0, 0));
        let u1 = b.add_cell("u1", m, Point::new(4800, 4000));
        let n = b.add_net("n0");
        b.connect(n, u0, "Y");
        b.connect(n, u1, "A");
        let d = b.build();
        let cands = assert_candidates_legal_per_oracle(&d, u0);
        assert!(!cands.is_empty(), "blockage must not starve the window");
        for cand in &cands {
            for (_, rect) in cand.claimed_rects(&d) {
                for blk in &d.blockages {
                    assert!(!rect.intersects(blk), "claim {rect} sits on a blockage");
                }
            }
        }
    }
}
