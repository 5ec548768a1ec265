//! Algorithm 1: labeling critical cells.

use crate::config::CrpConfig;
use crp_geom::sum_ordered;
use crp_grid::RouteGrid;
use crp_netlist::{CellId, Design};
use crp_router::Routing;
use rand::Rng;
use std::collections::HashSet;

/// The routed cost of a cell, the sort key of Algorithm 1, line 3: the
/// summed Eq. 10 cost of the current routes of all its nets, given each
/// net's cost in `net_costs` (indexed by net id).
fn cell_routed_cost(design: &Design, net_costs: &[f64], cell: CellId) -> f64 {
    // `nets_of_cell` returns nets in pin order: a fixed term sequence.
    sum_ordered(
        design
            .nets_of_cell(cell)
            .into_iter()
            .map(|n| net_costs[n.index()]),
    )
}

/// The Eq. 10 cost of every net's current route, indexed by net id.
fn net_costs(design: &Design, grid: &RouteGrid, routing: &Routing) -> Vec<f64> {
    design
        .net_ids()
        .map(|n| routing.route(n).cost(grid))
        .collect()
}

/// Algorithm 1: selects the critical-cell set for one CR&P iteration.
///
/// Cells are visited in descending routed-net-cost order (or id order when
/// `config.prioritize` is off — the \[18\]-style ablation). A cell is
/// skipped when a connected cell is already selected; otherwise it is
/// accepted with probability `exp(-(hist_c + hist_m)) / T`, where the
/// history bits record whether the cell was labeled (`hist_c`) or moved
/// (`hist_m`) in earlier iterations. Selection stops at `γ·|C|` cells.
///
/// Fixed cells are never selected.
#[must_use]
pub fn label_critical_cells<R: Rng + ?Sized>(
    design: &Design,
    grid: &RouteGrid,
    routing: &Routing,
    config: &CrpConfig,
    critical_hist: &HashSet<CellId>,
    moved_set: &HashSet<CellId>,
    rng: &mut R,
) -> Vec<CellId> {
    // Line 1-3: copy and sort the cell set.
    let mut cells: Vec<CellId> = design
        .cell_ids()
        .filter(|&c| !design.cell(c).fixed)
        .collect();
    if config.prioritize {
        // Price each net once; every cell on it reuses the price.
        let net_costs = net_costs(design, grid, routing);
        let mut keyed: Vec<(f64, CellId)> = cells
            .iter()
            .map(|&c| (cell_routed_cost(design, &net_costs, c), c))
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        cells = keyed.into_iter().map(|(_, c)| c).collect();
    }

    let limit = (config.gamma * cells.len() as f64) as usize;
    let mut critical: Vec<CellId> = Vec::new();
    let mut in_critical: HashSet<CellId> = HashSet::new();

    for c in cells {
        // Line 5-8: skip cells adjacent to an already-selected cell, so
        // every net is influenced by at most one moving cell.
        let connected = design.connected_cells(c);
        if connected.iter().any(|cc| in_critical.contains(cc)) {
            continue;
        }
        // Line 9-12: simulated-annealing-style damping of re-selection.
        let hist_c = u32::from(critical_hist.contains(&c));
        let hist_m = u32::from(moved_set.contains(&c));
        let acceptance = (-f64::from(hist_c + hist_m)).exp() / config.temperature;
        if acceptance > rng.gen::<f64>() {
            in_critical.insert(c);
            critical.push(c);
        }
        // Line 15-17: stop at γ·|C|.
        if critical.len() > limit {
            break;
        }
    }
    critical
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_grid::GridConfig;
    use crp_netlist::{DesignBuilder, MacroCell};
    use crp_router::{GlobalRouter, RouterConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flow() -> (Design, RouteGrid, Routing) {
        let mut b = DesignBuilder::new("lab", 1000);
        b.site(200, 2000);
        let m = b.add_macro(
            MacroCell::new("INV", 400, 2000)
                .with_pin("A", 100, 1000, 0)
                .with_pin("Y", 300, 1000, 0),
        );
        b.add_rows(10, 120, Point::new(0, 0));
        let cells: Vec<_> = (0..12)
            .map(|i| {
                b.add_cell(
                    format!("u{i}"),
                    m,
                    Point::new((i % 6) * 3000, (i / 6) * 8000),
                )
            })
            .collect();
        // A chain plus one long net so costs differ.
        for i in 0..11 {
            let n = b.add_net(format!("n{i}"));
            b.connect(n, cells[i], "Y");
            b.connect(n, cells[i + 1], "A");
        }
        let d = b.build();
        let mut grid = RouteGrid::new(&d, GridConfig::default());
        let routing = GlobalRouter::new(RouterConfig::default()).route_all(&d, &mut grid);
        (d, grid, routing)
    }

    #[test]
    fn no_two_selected_cells_are_connected() {
        let (d, grid, routing) = flow();
        let cfg = CrpConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        let sel = label_critical_cells(
            &d,
            &grid,
            &routing,
            &cfg,
            &HashSet::new(),
            &HashSet::new(),
            &mut rng,
        );
        assert!(!sel.is_empty());
        let set: HashSet<CellId> = sel.iter().copied().collect();
        for &c in &sel {
            for conn in d.connected_cells(c) {
                assert!(
                    !set.contains(&conn),
                    "{c} and {conn} both selected but connected"
                );
            }
        }
    }

    #[test]
    fn respects_gamma_limit() {
        let (d, grid, routing) = flow();
        let cfg = CrpConfig {
            gamma: 0.25,
            ..CrpConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let sel = label_critical_cells(
            &d,
            &grid,
            &routing,
            &cfg,
            &HashSet::new(),
            &HashSet::new(),
            &mut rng,
        );
        assert!(sel.len() <= (0.25 * 12.0) as usize + 1);
    }

    #[test]
    fn fresh_cells_always_accepted() {
        // With no history, acceptance is exp(0)/1 = 1 > random, so the
        // greedy pass deterministically takes every independent cell up to
        // the limit.
        let (d, grid, routing) = flow();
        let cfg = CrpConfig::default();
        let a = label_critical_cells(
            &d,
            &grid,
            &routing,
            &cfg,
            &HashSet::new(),
            &HashSet::new(),
            &mut StdRng::seed_from_u64(3),
        );
        let b = label_critical_cells(
            &d,
            &grid,
            &routing,
            &cfg,
            &HashSet::new(),
            &HashSet::new(),
            &mut StdRng::seed_from_u64(999),
        );
        assert_eq!(a, b, "selection without history must be seed-independent");
    }

    #[test]
    fn history_damps_reselection() {
        let (d, grid, routing) = flow();
        let cfg = CrpConfig::default();
        // Mark every cell as both labeled and moved: acceptance 13%.
        let all: HashSet<CellId> = d.cell_ids().collect();
        let mut hits = 0;
        let trials = 40;
        for seed in 0..trials {
            let sel = label_critical_cells(
                &d,
                &grid,
                &routing,
                &cfg,
                &all,
                &all,
                &mut StdRng::seed_from_u64(seed),
            );
            hits += sel.len();
        }
        // Without history ~6 cells/trial are selected (alternating chain);
        // with exp(-2) ≈ 0.135 damping expect far fewer.
        assert!(
            hits < trials as usize * 3,
            "history damping too weak: {hits} selections in {trials} trials"
        );
    }

    #[test]
    fn fixed_cells_never_selected() {
        let (mut d, grid, routing) = flow();
        for c in d.cell_ids().collect::<Vec<_>>() {
            d.set_fixed(c, true);
        }
        let cfg = CrpConfig::default();
        let sel = label_critical_cells(
            &d,
            &grid,
            &routing,
            &cfg,
            &HashSet::new(),
            &HashSet::new(),
            &mut StdRng::seed_from_u64(0),
        );
        assert!(sel.is_empty());
    }

    #[test]
    fn prioritization_puts_expensive_cells_first() {
        let (d, grid, routing) = flow();
        let cfg = CrpConfig::default();
        let sel = label_critical_cells(
            &d,
            &grid,
            &routing,
            &cfg,
            &HashSet::new(),
            &HashSet::new(),
            &mut StdRng::seed_from_u64(0),
        );
        let costs = net_costs(&d, &grid, &routing);
        let cost = |c: CellId| cell_routed_cost(&d, &costs, c);
        // The first selected cell must be at least as expensive as the last.
        assert!(cost(sel[0]) >= cost(*sel.last().unwrap()));
    }
}
