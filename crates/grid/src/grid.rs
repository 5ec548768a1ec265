//! The mutable routing-resource grid.

use crate::{Edge, GridConfig};
use crp_geom::{sum_ordered, Axis, Dbu, Point, Rect};
use crp_netlist::Design;
use serde::{Deserialize, Serialize};

/// The 3D routing-resource grid: capacities, wire/fixed usage, via counts,
/// and the Eq. 9/10 demand and cost queries built on them.
///
/// One instance is shared by the global router, the CR&P candidate pricer,
/// and the detailed-routing proxy. All mutation is explicit
/// ([`add_wire`](RouteGrid::add_wire) / [`remove_wire`](RouteGrid::remove_wire) /
/// [`add_via_stack`](RouteGrid::add_via_stack) /
/// [`remove_via_stack`](RouteGrid::remove_via_stack)), so rip-up-and-reroute
/// is exact bookkeeping.
///
/// The grid keeps the Eq. 10 cost of every edge in a table, so
/// [`cost`](RouteGrid::cost) is one load. Each mutation recomputes the
/// entries whose inputs it changed, and nothing else:
///
/// - a wire unit: the cost of its own planar edge;
/// - a via stack at `(x, y)` over layers `lo..=hi`: on each of those
///   layers the two planar edges that meet at `(x, y)`, and the via edges
///   at `(x, y)` that read one of those layers' via counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouteGrid {
    nx: u16,
    ny: u16,
    nl: u16,
    origin: Point,
    config: GridConfig,
    axes: Vec<Axis>,
    /// Planar edge capacity, indexed `(layer * ny + y) * nx + x`.
    cap: Vec<f64>,
    /// Routed wire usage `U_w`.
    wire: Vec<f64>,
    /// Fixed-component usage `U_f` (blockages, fixed nets).
    fixed: Vec<f64>,
    /// Via endpoints per (layer, gcell) — the `V` of `δ_e`.
    vias: Vec<f64>,
    /// Eq. 10 cost of the planar edge leaving each slot, kept current by
    /// every mutation; `f64::INFINITY` where no routable edge leaves.
    planar_cost: Vec<f64>,
    /// Eq. 10 cost of the via edge from each slot up to the next layer;
    /// `f64::INFINITY` on the top layer.
    via_cost: Vec<f64>,
    /// Eq. 10 cost of a via edge by the sum of its two endpoint via
    /// counters, the only input that varies between via edges; grown on
    /// demand, so refreshing a via edge is a lookup.
    via_cost_by_sum: Vec<f64>,
    /// Monotonic congestion epoch: bumped by every wire/via mutation.
    epoch: u64,
    /// Last epoch each `(x, y)` gcell column was touched, row-major
    /// (`y * nx + x`). Collapsed over layers: pricing regions are planar
    /// bounding boxes, so a per-layer resolution would not tighten them.
    touch2d: Vec<u64>,
}

/// A per-gcell congestion summary used by reports and the workload tuner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CongestionSnapshot {
    /// Grid dimensions `(nx, ny)`.
    pub dims: (u16, u16),
    /// Maximum demand/capacity ratio over each gcell's incident edges,
    /// row-major (`y * nx + x`).
    pub ratio: Vec<f32>,
    /// Total overflow `Σ max(0, D_e − C_e)` over all planar edges.
    pub total_overflow: f64,
    /// Number of planar edges with positive overflow.
    pub overflowed_edges: usize,
}

/// Why a [`RouteGrid`] could not be built from a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridError {
    /// The design's die area is empty.
    EmptyDie,
    /// The design has no routing layers.
    NoLayers,
    /// The configured gcell size is zero or negative.
    BadGcellSize,
    /// A grid dimension (columns, rows, or layers) does not fit `u16`.
    TooLarge(&'static str),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyDie => write!(f, "design die area is empty"),
            GridError::NoLayers => write!(f, "design has no routing layers"),
            GridError::BadGcellSize => write!(f, "gcell size must be positive"),
            GridError::TooLarge(dim) => write!(f, "grid {dim} count exceeds u16"),
        }
    }
}

impl std::error::Error for GridError {}

impl RouteGrid {
    /// Builds the grid for `design`: derives dimensions from the die area,
    /// capacities from each layer's track pitch, and fixed usage from the
    /// design's blockages.
    ///
    /// This is the panicking convenience wrapper around
    /// [`try_new`](RouteGrid::try_new) — the flow validates designs at
    /// parse time, so construction failure here is a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if the design has an empty die, no routing layers, a
    /// non-positive gcell size, or dimensions that overflow `u16`.
    #[must_use]
    pub fn new(design: &Design, config: GridConfig) -> RouteGrid {
        match RouteGrid::try_new(design, config) {
            Ok(grid) => grid,
            // crp-lint: allow(no-panic-paths, documented panicking wrapper;
            // callers that cannot guarantee a valid design use try_new)
            Err(e) => panic!("RouteGrid::new: {e}"),
        }
    }

    /// Fallible grid construction: every precondition
    /// [`new`](RouteGrid::new) asserts is reported as a [`GridError`]
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns a [`GridError`] when the design has an empty die or no
    /// routing layers, the gcell size is not positive, or a derived grid
    /// dimension does not fit `u16`.
    pub fn try_new(design: &Design, config: GridConfig) -> Result<RouteGrid, GridError> {
        if design.die.is_empty() {
            return Err(GridError::EmptyDie);
        }
        if design.layers.is_empty() {
            return Err(GridError::NoLayers);
        }
        let g = config.gcell_size;
        if g <= 0 {
            return Err(GridError::BadGcellSize);
        }
        let nx = u16::try_from((design.die.width() + g - 1) / g)
            .map_err(|_| GridError::TooLarge("column"))?;
        let ny = u16::try_from((design.die.height() + g - 1) / g)
            .map_err(|_| GridError::TooLarge("row"))?;
        let nl = u16::try_from(design.layers.len()).map_err(|_| GridError::TooLarge("layer"))?;
        let n = usize::from(nx) * usize::from(ny) * usize::from(nl);

        let axes: Vec<Axis> = design.layers.iter().map(|l| l.axis).collect();
        let mut grid = RouteGrid {
            nx,
            ny,
            nl,
            origin: design.die.lo,
            config,
            axes,
            cap: vec![0.0; n],
            wire: vec![0.0; n],
            fixed: vec![0.0; n],
            vias: vec![0.0; n],
            planar_cost: vec![f64::INFINITY; n],
            via_cost: vec![f64::INFINITY; n],
            via_cost_by_sum: Vec::new(),
            epoch: 0,
            touch2d: vec![0; usize::from(nx) * usize::from(ny)],
        };

        for layer in 0..nl {
            if layer < config.min_routing_layer {
                continue;
            }
            let tracks = f64::from(design.layers[usize::from(layer)].tracks_in(g));
            for y in 0..ny {
                for x in 0..nx {
                    if grid.planar_edge_exists(layer, x, y) {
                        let i = grid.idx(layer, x, y);
                        grid.cap[i] = tracks;
                    }
                }
            }
        }

        for blockage in &design.blockages {
            grid.block(design, *blockage);
        }
        for layer in 0..nl {
            for y in 0..ny {
                for x in 0..nx {
                    grid.refresh_planar(layer, x, y);
                    grid.refresh_via(x, y, layer);
                }
            }
        }

        Ok(grid)
    }

    /// Grid dimensions `(nx, ny, layers)`.
    #[must_use]
    pub fn dims(&self) -> (u16, u16, u16) {
        (self.nx, self.ny, self.nl)
    }

    /// The configuration this grid was built with.
    #[must_use]
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// The preferred axis of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    #[must_use]
    pub fn axis(&self, layer: u16) -> Axis {
        self.axes[usize::from(layer)]
    }

    /// Whether signal routing may use `layer`.
    #[must_use]
    pub fn is_routable(&self, layer: u16) -> bool {
        layer >= self.config.min_routing_layer && layer < self.nl
    }

    /// The gcell containing `p`, clamped to the grid.
    #[must_use]
    pub fn gcell_of(&self, p: Point) -> (u16, u16) {
        let g = self.config.gcell_size;
        let cx = ((p.x - self.origin.x) / g).clamp(0, i64::from(self.nx) - 1);
        let cy = ((p.y - self.origin.y) / g).clamp(0, i64::from(self.ny) - 1);
        // crp-lint: allow(cast-truncation, both values are clamped to the
        // grid dimensions on the lines above, and nx/ny are u16)
        (cx as u16, cy as u16)
    }

    /// The center point of gcell `(x, y)`.
    #[must_use]
    pub fn gcell_center(&self, x: u16, y: u16) -> Point {
        let g = self.config.gcell_size;
        Point::new(
            self.origin.x + i64::from(x) * g + g / 2,
            self.origin.y + i64::from(y) * g + g / 2,
        )
    }

    /// The footprint of gcell `(x, y)`.
    #[must_use]
    pub fn gcell_rect(&self, x: u16, y: u16) -> Rect {
        let g = self.config.gcell_size;
        Rect::with_size(
            Point::new(
                self.origin.x + i64::from(x) * g,
                self.origin.y + i64::from(y) * g,
            ),
            g,
            g,
        )
    }

    fn idx(&self, layer: u16, x: u16, y: u16) -> usize {
        (usize::from(layer) * usize::from(self.ny) + usize::from(y)) * usize::from(self.nx)
            + usize::from(x)
    }

    /// The slot of gcell `(x, y)` on `layer`: `(layer · ny + y) · nx + x`.
    ///
    /// A slot also names the planar edge leaving that gcell, so callers
    /// can keep per-edge state (the router's RRR history) in a dense
    /// array of [`num_slots`](RouteGrid::num_slots) entries.
    #[must_use]
    pub fn slot(&self, layer: u16, x: u16, y: u16) -> usize {
        self.idx(layer, x, y)
    }

    /// The number of slots: `nx · ny · layers`.
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.cap.len()
    }

    /// The dense index of `edge` among `2 · num_slots` per-edge entries:
    /// a planar edge sits at the slot it leaves, a via edge at
    /// `num_slots` plus the slot of its lower end. Callers keep per-edge
    /// values of both kinds (CR&P's self-usage discount) in one array.
    #[must_use]
    pub fn edge_index(&self, edge: Edge) -> usize {
        match edge {
            Edge::Planar { layer, x, y } => self.idx(layer, x, y),
            Edge::Via { x, y, lower } => self.cap.len() + self.idx(lower, x, y),
        }
    }

    /// Whether a planar edge leaves gcell `(x, y)` on `layer` in the
    /// preferred direction without leaving the grid.
    #[must_use]
    pub fn planar_edge_exists(&self, layer: u16, x: u16, y: u16) -> bool {
        if layer >= self.nl || x >= self.nx || y >= self.ny {
            return false;
        }
        match self.axis(layer) {
            Axis::X => x + 1 < self.nx,
            Axis::Y => y + 1 < self.ny,
        }
    }

    /// Whether `edge` denotes a real edge of this grid.
    #[must_use]
    pub fn edge_exists(&self, edge: Edge) -> bool {
        match edge {
            Edge::Planar { layer, x, y } => self.planar_edge_exists(layer, x, y),
            Edge::Via { x, y, lower } => x < self.nx && y < self.ny && lower + 1 < self.nl,
        }
    }

    /// Capacity `C_e` of a planar edge (0 for via edges' planar capacity;
    /// via edges use [`GridConfig::via_capacity`]).
    #[must_use]
    pub fn capacity(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Planar { layer, x, y } => self.cap[self.idx(layer, x, y)],
            Edge::Via { .. } => self.config.via_capacity,
        }
    }

    /// Current routed wire usage `U_w` of a planar edge.
    #[must_use]
    pub fn wire_usage(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Planar { layer, x, y } => self.wire[self.idx(layer, x, y)],
            Edge::Via { .. } => 0.0,
        }
    }

    /// Fixed usage `U_f` of a planar edge.
    #[must_use]
    pub fn fixed_usage(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Planar { layer, x, y } => self.fixed[self.idx(layer, x, y)],
            Edge::Via { .. } => 0.0,
        }
    }

    /// Via count at gcell `(x, y)` on `layer` — the `V` of `δ_e`.
    #[must_use]
    pub fn via_count(&self, layer: u16, x: u16, y: u16) -> f64 {
        self.vias[self.idx(layer, x, y)]
    }

    /// Demand `D_e` (Eq. 9).
    ///
    /// For planar edges: `U_w + U_f + β·sqrt((V_src + V_dst)/2)` with the
    /// via counts taken at the edge's two endpoint gcells on its layer.
    /// For via edges: the mean via count of the two endpoint layers at the
    /// gcell, so stacking vias through a crowded gcell is discouraged.
    #[must_use]
    pub fn demand(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Planar { layer, x, y } => {
                let i = self.idx(layer, x, y);
                self.planar_demand(i, self.far_slot(layer, i))
            }
            Edge::Via { x, y, lower } => {
                let i = self.idx(lower, x, y);
                self.via_demand(i, self.slot_above(i))
            }
        }
    }

    /// Eq. 9 of the planar edge from slot `i` to its far endpoint `j`.
    fn planar_demand(&self, i: usize, j: usize) -> f64 {
        let delta = ((self.vias[i] + self.vias[j]) / 2.0).sqrt();
        self.wire[i] + self.fixed[i] + self.config.beta * delta
    }

    /// The demand of the via edge from slot `i` up to slot `j`.
    fn via_demand(&self, i: usize, j: usize) -> f64 {
        (self.vias[i] + self.vias[j]) / 2.0
    }

    /// The far endpoint of the planar edge leaving slot `i` on `layer`.
    fn far_slot(&self, layer: u16, i: usize) -> usize {
        match self.axis(layer) {
            Axis::X => i + 1,
            Axis::Y => i + usize::from(self.nx),
        }
    }

    /// The slot one layer above slot `i`.
    fn slot_above(&self, i: usize) -> usize {
        i + usize::from(self.nx) * usize::from(self.ny)
    }

    /// Congestion penalty of `edge` (the logistic of Eq. 10).
    #[must_use]
    pub fn penalty(&self, edge: Edge) -> f64 {
        self.config.penalty(self.demand(edge), self.capacity(edge))
    }

    /// Edge cost (Eq. 10): `Unit_e × Dist(e) × (1 + penalty(e))`.
    ///
    /// `Dist` is one gcell for planar edges and 1 for via edges. Edges on
    /// non-routable layers, and edges that would leave the grid, cost
    /// `f64::INFINITY`. The value is read from the cost table, which every
    /// mutation keeps equal to the from-scratch formula.
    #[must_use]
    pub fn cost(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Planar { layer, x, y } => self.planar_cost[self.idx(layer, x, y)],
            Edge::Via { x, y, lower } => self.via_cost[self.idx(lower, x, y)],
        }
    }

    /// Recomputes the cached Eq. 10 cost of the planar edge leaving
    /// `(x, y)` on `layer`: `Unit_e × (1 + penalty(e))`, or infinity on a
    /// non-routable layer and where the edge would leave the grid.
    fn refresh_planar(&mut self, layer: u16, x: u16, y: u16) {
        let i = self.idx(layer, x, y);
        self.planar_cost[i] = if self.is_routable(layer) && self.planar_edge_exists(layer, x, y) {
            let d = self.planar_demand(i, self.far_slot(layer, i));
            self.config.wire_unit * (1.0 + self.config.penalty(d, self.cap[i]))
        } else {
            f64::INFINITY
        };
    }

    /// Recomputes the cached Eq. 10 cost of the via edge from `lower` to
    /// `lower + 1` at `(x, y)`, or infinity on the top layer.
    fn refresh_via(&mut self, x: u16, y: u16, lower: u16) {
        let i = self.idx(lower, x, y);
        if lower + 1 == self.nl {
            self.via_cost[i] = f64::INFINITY;
            return;
        }
        // crp-lint: allow(cast-truncation, via counters hold non-negative
        // whole numbers, so their sum converts to usize exactly)
        let sum = (self.vias[i] + self.vias[self.slot_above(i)]) as usize;
        while self.via_cost_by_sum.len() <= sum {
            // crp-lint: allow(cast-truncation, a via counter sum is far below
            // 2^53, so the memo index converts back to f64 exactly)
            let d = self.via_cost_by_sum.len() as f64 / 2.0;
            let c = self.config.via_unit * (1.0 + self.config.penalty(d, self.config.via_capacity));
            self.via_cost_by_sum.push(c);
        }
        self.via_cost[i] = self.via_cost_by_sum[sum];
    }

    /// Recomputes every cached cost that reads the via counters at
    /// `(x, y)` on layers `lo..=hi`: the planar edges leaving and entering
    /// `(x, y)` on those layers, and the via edges touching them.
    fn refresh_via_counters(&mut self, x: u16, y: u16, lo: u16, hi: u16) {
        for layer in lo..=hi {
            if !self.is_routable(layer) {
                continue;
            }
            self.refresh_planar(layer, x, y);
            match self.axis(layer) {
                Axis::X if x > 0 => self.refresh_planar(layer, x - 1, y),
                Axis::Y if y > 0 => self.refresh_planar(layer, x, y - 1),
                _ => {}
            }
        }
        for lower in lo.saturating_sub(1)..=hi {
            self.refresh_via(x, y, lower);
        }
    }

    /// Edge cost (Eq. 10) evaluated at a hypothetically adjusted demand
    /// `D_e + demand_delta` (clamped at 0).
    ///
    /// CR&P's candidate pricing uses this to discount a net's **own**
    /// contribution to the demand of edges it currently occupies —
    /// otherwise staying put is systematically over-priced relative to
    /// moving away, and the flow churns.
    #[must_use]
    pub fn cost_adjusted(&self, edge: Edge, demand_delta: f64) -> f64 {
        let unit = match edge {
            Edge::Planar { layer, .. } => {
                if !self.is_routable(layer) {
                    return f64::INFINITY;
                }
                self.config.wire_unit
            }
            Edge::Via { .. } => self.config.via_unit,
        };
        let d = (self.demand(edge) + demand_delta).max(0.0);
        unit * (1.0 + self.config.penalty(d, self.capacity(edge)))
    }

    /// Overflow `max(0, D_e − C_e)` of a planar edge (0 for via edges).
    #[must_use]
    pub fn overflow(&self, edge: Edge) -> f64 {
        match edge {
            Edge::Planar { .. } => (self.demand(edge) - self.capacity(edge)).max(0.0),
            Edge::Via { .. } => 0.0,
        }
    }

    /// The current congestion epoch: a monotonic counter bumped by every
    /// wire or via mutation.
    ///
    /// Together with [`region_touched_since`](RouteGrid::region_touched_since)
    /// this lets callers memoize congestion-dependent quantities (route
    /// prices, costs) and invalidate them precisely: a memo taken at epoch
    /// `t` over a gcell region stays valid while no gcell of the region is
    /// touched after `t`.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch at which gcell column `(x, y)` was last touched by a
    /// mutation (0 if never).
    #[must_use]
    pub fn touch_epoch(&self, x: u16, y: u16) -> u64 {
        self.touch2d[usize::from(y) * usize::from(self.nx) + usize::from(x)]
    }

    /// Whether any gcell in the inclusive rectangle `lo..=hi` was touched
    /// by a mutation after epoch `since`. Coordinates are clamped to the
    /// grid.
    #[must_use]
    pub fn region_touched_since(&self, lo: (u16, u16), hi: (u16, u16), since: u64) -> bool {
        let x1 = hi.0.min(self.nx - 1);
        let y1 = hi.1.min(self.ny - 1);
        let x0 = lo.0.min(x1);
        let y0 = lo.1.min(y1);
        for y in y0..=y1 {
            let row = usize::from(y) * usize::from(self.nx);
            let span = &self.touch2d[row + usize::from(x0)..=row + usize::from(x1)];
            if span.iter().any(|&t| t > since) {
                return true;
            }
        }
        false
    }

    /// Advances the congestion epoch to at least `epoch` (no-op when the
    /// counter is already past it). Checkpoint restore uses this after
    /// recommitting the saved routes onto a fresh grid: demand counters
    /// are a pure function of the committed routes, but the epoch counter
    /// also encodes history, and resuming it past its saved value keeps
    /// every externally held epoch observation monotonically valid. Touch
    /// stamps stay `<=` the counter, so stamp invariants are preserved.
    pub fn fast_forward_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    fn touch(&mut self, x: u16, y: u16) {
        self.epoch += 1;
        self.touch2d[usize::from(y) * usize::from(self.nx) + usize::from(x)] = self.epoch;
    }

    /// Adds one unit of routed wire to a planar edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not a planar edge of this grid.
    pub fn add_wire(&mut self, edge: Edge) {
        match edge {
            Edge::Planar { layer, x, y } => {
                debug_assert!(
                    self.planar_edge_exists(layer, x, y),
                    "no such edge {edge:?}"
                );
                let i = self.idx(layer, x, y);
                self.wire[i] += 1.0;
                self.touch(x, y);
                self.refresh_planar(layer, x, y);
            }
            // crp-lint: allow(no-panic-paths, documented API contract — the
            // edge kind is static at every call site, so this is a caller bug)
            Edge::Via { .. } => panic!("add_wire expects a planar edge"),
        }
    }

    /// Removes one unit of routed wire from a planar edge.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is not planar or its usage would go negative.
    pub fn remove_wire(&mut self, edge: Edge) {
        match edge {
            Edge::Planar { layer, x, y } => {
                let i = self.idx(layer, x, y);
                assert!(self.wire[i] >= 1.0, "wire usage underflow on {edge:?}");
                self.wire[i] -= 1.0;
                self.touch(x, y);
                self.refresh_planar(layer, x, y);
            }
            // crp-lint: allow(no-panic-paths, documented API contract — the
            // edge kind is static at every call site, so this is a caller bug)
            Edge::Via { .. } => panic!("remove_wire expects a planar edge"),
        }
    }

    /// Records a via at `(x, y)` between `lower` and `lower + 1`: both
    /// endpoint layers' via counters at the gcell are incremented.
    pub fn add_via(&mut self, x: u16, y: u16, lower: u16) {
        self.add_via_stack(x, y, lower, lower + 1);
    }

    /// Removes a via previously recorded with [`add_via`](RouteGrid::add_via).
    ///
    /// # Panics
    ///
    /// Panics if the counters would go negative.
    pub fn remove_via(&mut self, x: u16, y: u16, lower: u16) {
        self.remove_via_stack(x, y, lower, lower + 1);
    }

    /// Records the stack of vias at `(x, y)` connecting layers `lo..=hi`:
    /// one [`add_via`](RouteGrid::add_via) per layer pair, with the costs
    /// those vias change recomputed once for the whole stack.
    pub fn add_via_stack(&mut self, x: u16, y: u16, lo: u16, hi: u16) {
        debug_assert!(hi < self.nl, "via above top layer");
        for lower in lo..hi {
            let a = self.idx(lower, x, y);
            let b = self.idx(lower + 1, x, y);
            self.vias[a] += 1.0;
            self.vias[b] += 1.0;
            self.touch(x, y);
        }
        if lo < hi {
            self.refresh_via_counters(x, y, lo, hi);
        }
    }

    /// Removes a stack previously recorded with
    /// [`add_via_stack`](RouteGrid::add_via_stack).
    ///
    /// # Panics
    ///
    /// Panics if the counters would go negative.
    pub fn remove_via_stack(&mut self, x: u16, y: u16, lo: u16, hi: u16) {
        for lower in lo..hi {
            let a = self.idx(lower, x, y);
            let b = self.idx(lower + 1, x, y);
            assert!(
                self.vias[a] >= 1.0 && self.vias[b] >= 1.0,
                "via count underflow"
            );
            self.vias[a] -= 1.0;
            self.vias[b] -= 1.0;
            self.touch(x, y);
        }
        if lo < hi {
            self.refresh_via_counters(x, y, lo, hi);
        }
    }

    /// Adds fixed usage for a blockage rectangle on the lower
    /// [`GridConfig::blockage_layers`] layers.
    fn block(&mut self, design: &Design, rect: Rect) {
        let g = self.config.gcell_size;
        let top = self.config.blockage_layers.min(self.nl);
        for layer in self.config.min_routing_layer..top {
            let info = &design.layers[usize::from(layer)];
            for y in 0..self.ny {
                for x in 0..self.nx {
                    if !self.planar_edge_exists(layer, x, y) {
                        continue;
                    }
                    let cell = self.gcell_rect(x, y);
                    // The edge's tracks cross the boundary between this
                    // gcell and the next; a blockage obstructs the tracks
                    // whose perpendicular span it covers, provided it
                    // reaches the boundary line.
                    let blocked = match self.axis(layer) {
                        Axis::X => {
                            let boundary_x = cell.hi.x.min(self.origin.x + i64::from(self.nx) * g);
                            if rect.x_span().contains(boundary_x - 1)
                                || rect.x_span().contains(boundary_x)
                            {
                                rect.y_span()
                                    .intersection(&cell.y_span())
                                    .map_or(0, |ov| info.tracks_in(ov.len()))
                            } else {
                                0
                            }
                        }
                        Axis::Y => {
                            let boundary_y = cell.hi.y;
                            if rect.y_span().contains(boundary_y - 1)
                                || rect.y_span().contains(boundary_y)
                            {
                                rect.x_span()
                                    .intersection(&cell.x_span())
                                    .map_or(0, |ov| info.tracks_in(ov.len()))
                            } else {
                                0
                            }
                        }
                    };
                    if blocked > 0 {
                        let i = self.idx(layer, x, y);
                        self.fixed[i] = (self.fixed[i] + f64::from(blocked)).min(self.cap[i]);
                    }
                }
            }
        }
    }

    /// Iterates over every planar edge of the grid.
    pub fn planar_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (self.config.min_routing_layer..self.nl).flat_map(move |layer| {
            (0..self.ny).flat_map(move |y| {
                (0..self.nx).filter_map(move |x| {
                    self.planar_edge_exists(layer, x, y)
                        .then_some(Edge::planar(layer, x, y))
                })
            })
        })
    }

    /// Total wirelength currently routed, in gcell units.
    #[must_use]
    pub fn total_wire_usage(&self) -> f64 {
        sum_ordered(self.wire.iter().copied())
    }

    /// Total via endpoints currently recorded (2 per via).
    #[must_use]
    pub fn total_via_endpoints(&self) -> f64 {
        sum_ordered(self.vias.iter().copied())
    }

    /// Gathers a congestion snapshot over all planar edges.
    #[must_use]
    pub fn congestion(&self) -> CongestionSnapshot {
        let mut ratio = vec![0.0f32; usize::from(self.nx) * usize::from(self.ny)];
        let mut total_overflow = 0.0;
        let mut overflowed = 0;
        for edge in self.planar_edges() {
            let c = self.capacity(edge);
            if c <= 0.0 {
                continue;
            }
            let d = self.demand(edge);
            let r = (d / c) as f32;
            let of = (d - c).max(0.0);
            if of > 0.0 {
                total_overflow += of;
                overflowed += 1;
            }
            let (a, b) = edge.endpoints(|l| self.axes[usize::from(l)]);
            for g in [a, b] {
                let i = usize::from(g.y) * usize::from(self.nx) + usize::from(g.x);
                ratio[i] = ratio[i].max(r);
            }
        }
        CongestionSnapshot {
            dims: (self.nx, self.ny),
            ratio,
            total_overflow,
            overflowed_edges: overflowed,
        }
    }

    /// Serializes the congestion snapshot as CSV (`x,y,ratio`), for
    /// external plotting of the congestion maps CR&P maintains.
    #[must_use]
    pub fn congestion_csv(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.congestion();
        let (nx, _ny) = snap.dims;
        let mut out = String::from("x,y,ratio\n");
        for (i, r) in snap.ratio.iter().enumerate() {
            let x = i % usize::from(nx);
            let y = i / usize::from(nx);
            let _ = writeln!(out, "{x},{y},{r:.4}");
        }
        out
    }

    /// The gcell-center Manhattan distance between two gcells, in DBU.
    #[must_use]
    pub fn center_distance(&self, a: (u16, u16), b: (u16, u16)) -> Dbu {
        self.gcell_center(a.0, a.1)
            .manhattan(self.gcell_center(b.0, b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_netlist::{DesignBuilder, MacroCell};

    fn design() -> Design {
        let mut b = DesignBuilder::new("g", 1000);
        b.site(200, 2000);
        let _ = b.add_macro(MacroCell::new("M", 200, 2000));
        // 30 rows (2000 DBU tall) of 300 sites: die 60_000 x 60_000 -> 20x20 gcells @3000.
        b.add_rows(30, 300, Point::new(0, 0));
        b.build()
    }

    fn grid() -> RouteGrid {
        RouteGrid::new(&design(), GridConfig::default())
    }

    #[test]
    fn dims_derived_from_die() {
        let g = grid();
        assert_eq!(g.dims(), (20, 20, 9));
    }

    #[test]
    fn edge_index_numbers_every_planar_and_via_edge_once() {
        let g = grid();
        let (nx, ny, nl) = g.dims();
        let mut seen = vec![false; 2 * g.num_slots()];
        for layer in 0..nl {
            for y in 0..ny {
                for x in 0..nx {
                    let planar = g.edge_index(Edge::planar(layer, x, y));
                    assert_eq!(planar, g.slot(layer, x, y));
                    for i in [planar, g.edge_index(Edge::via(x, y, layer))] {
                        assert!(!seen[i], "index {i} given twice");
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn m1_is_not_routable() {
        let g = grid();
        assert!(!g.is_routable(0));
        assert!(g.is_routable(1));
        assert!(!g.is_routable(9));
        assert_eq!(g.cost(Edge::planar(0, 0, 0)), f64::INFINITY);
    }

    #[test]
    fn capacity_matches_track_pitch() {
        let g = grid();
        // M2 pitch 200, gcell 3000 -> 15 tracks.
        assert_eq!(g.capacity(Edge::planar(1, 0, 0)), 15.0);
        // M7+ pitch 400 -> 7 tracks.
        assert_eq!(g.capacity(Edge::planar(7, 0, 0)), 7.0);
    }

    #[test]
    fn gcell_of_and_center_roundtrip() {
        let g = grid();
        let (x, y) = g.gcell_of(Point::new(4500, 7500));
        assert_eq!((x, y), (1, 2));
        assert_eq!(g.gcell_center(1, 2), Point::new(4500, 7500));
        // Clamped outside the die.
        assert_eq!(g.gcell_of(Point::new(-10, 999_999)), (0, 19));
    }

    #[test]
    fn wire_usage_raises_demand_and_cost() {
        let mut g = grid();
        let e = Edge::planar(1, 5, 5);
        let d0 = g.demand(e);
        let c0 = g.cost(e);
        for _ in 0..10 {
            g.add_wire(e);
        }
        assert_eq!(g.demand(e), d0 + 10.0);
        assert!(g.cost(e) > c0);
        for _ in 0..10 {
            g.remove_wire(e);
        }
        assert_eq!(g.demand(e), d0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn wire_underflow_panics() {
        let mut g = grid();
        g.remove_wire(Edge::planar(1, 0, 0));
    }

    #[test]
    fn vias_contribute_beta_delta_to_planar_demand() {
        let mut g = grid();
        let e = Edge::planar(1, 5, 5); // M2 X? M2 axis is X (layer 1). Endpoints (5,5),(6,5).
        let d0 = g.demand(e);
        g.add_via(5, 5, 1); // via endpoint on layer 1 at (5,5)
        g.add_via(5, 5, 1);
        // V_src = 2, V_dst = 0 -> delta = sqrt(1) = 1 -> demand +beta*1.
        assert!((g.demand(e) - (d0 + 1.5)).abs() < 1e-9);
        g.remove_via(5, 5, 1);
        g.remove_via(5, 5, 1);
        assert!((g.demand(e) - d0).abs() < 1e-9);
    }

    #[test]
    fn via_edge_cost_tracks_local_via_pressure() {
        let mut g = grid();
        let e = Edge::via(3, 3, 2);
        let c0 = g.cost(e);
        for _ in 0..40 {
            g.add_via(3, 3, 2);
        }
        assert!(g.cost(e) > c0);
    }

    #[test]
    fn blockage_consumes_capacity() {
        let mut d = design();
        // Blockage covering the boundary between gcells (0,0) and (1,0) on x.
        d.blockages
            .push(Rect::with_size(Point::new(2000, 0), 2000, 3000));
        let g = RouteGrid::new(&d, GridConfig::default());
        let e = Edge::planar(1, 0, 0); // M2 horizontal wires
        assert!(g.fixed_usage(e) > 0.0);
        // M5 (layer 4) is above blockage_layers=4 -> untouched.
        assert_eq!(g.fixed_usage(Edge::planar(5, 0, 0)), 0.0);
    }

    #[test]
    fn congestion_snapshot_counts_overflow() {
        let mut g = grid();
        let e = Edge::planar(1, 2, 2);
        let cap = g.capacity(e);
        for _ in 0..(cap as usize + 5) {
            g.add_wire(e);
        }
        let snap = g.congestion();
        assert!(snap.total_overflow >= 5.0);
        assert_eq!(snap.overflowed_edges, 1);
        let i = 2 * usize::from(snap.dims.0) + 2;
        assert!(snap.ratio[i] > 1.0);
    }

    #[test]
    fn congestion_csv_has_header_and_rows() {
        let g = grid();
        let csv = g.congestion_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("x,y,ratio"));
        assert_eq!(csv.lines().count(), 1 + 20 * 20);
        let row = csv.lines().nth(1).unwrap();
        assert_eq!(row.split(',').count(), 3);
    }

    #[test]
    fn cost_adjusted_matches_cost_at_zero_delta() {
        let mut g = grid();
        let e = Edge::planar(1, 4, 4);
        for _ in 0..7 {
            g.add_wire(e);
        }
        assert!((g.cost_adjusted(e, 0.0) - g.cost(e)).abs() < 1e-12);
        // Negative delta lowers the cost (less demand seen).
        assert!(g.cost_adjusted(e, -7.0) < g.cost(e));
        // Demand clamps at zero: over-discounting saturates.
        assert!((g.cost_adjusted(e, -100.0) - g.cost_adjusted(e, -1000.0)).abs() < 1e-12);
        // Non-routable layers stay infinite.
        assert_eq!(g.cost_adjusted(Edge::planar(0, 0, 0), -5.0), f64::INFINITY);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut g = grid();
        let e0 = g.epoch();
        g.add_wire(Edge::planar(1, 3, 3));
        assert_eq!(g.epoch(), e0 + 1);
        g.add_via(4, 4, 2);
        assert_eq!(g.epoch(), e0 + 2);
        g.remove_via(4, 4, 2);
        g.remove_wire(Edge::planar(1, 3, 3));
        assert_eq!(g.epoch(), e0 + 4);
    }

    #[test]
    fn touch_epochs_localize_mutations() {
        let mut g = grid();
        let t0 = g.epoch();
        g.add_wire(Edge::planar(1, 3, 3));
        g.add_via(7, 8, 2);
        assert!(g.touch_epoch(3, 3) > t0);
        assert!(g.touch_epoch(7, 8) > t0);
        assert_eq!(g.touch_epoch(5, 5), 0);
        // Regions containing a touched gcell are dirty; others are clean.
        assert!(g.region_touched_since((2, 2), (4, 4), t0));
        assert!(g.region_touched_since((7, 8), (7, 8), t0));
        assert!(!g.region_touched_since((10, 10), (19, 19), t0));
        // Everything is clean relative to the current epoch.
        assert!(!g.region_touched_since((0, 0), (19, 19), g.epoch()));
    }

    #[test]
    fn region_query_clamps_out_of_range_rects() {
        let mut g = grid();
        // The last valid horizontal edge on the 20-wide grid: x=18 spans
        // gcells (18,19)..(19,19); x=19 would leave the grid.
        g.add_wire(Edge::planar(1, 18, 19));
        assert!(g.region_touched_since((18, 17), (40, 40), 0));
        assert!(!g.region_touched_since((0, 0), (40, 40), g.epoch()));
    }

    #[test]
    fn eq10_golden_costs_under_at_and_over_capacity() {
        // Pins the exact Eq. 10 values for the default config (wire_unit
        // 0.5, slope 1.0, β 1.5) on a wire-only edge, so any accidental
        // change to the penalty sigmoid (sign, slope, normalization) or
        // the unit scaling trips a concrete number, not just a trend.
        let mut g = grid();
        let e = Edge::planar(1, 5, 5);
        assert_eq!(g.capacity(e), 15.0, "fixture drifted: M2 capacity");

        // No vias anywhere: demand is exactly the wire count (β inert).
        for golden in [
            // (wires, penalty = 1/(1+exp(-(d-c))), cost = 0.5*(1+penalty))
            (12.0, 1.0 / (1.0 + 3.0f64.exp()), 0.523_712_936_588_783_4), // d = c-3
            (15.0, 0.5, 0.75),                                           // d = c
            (18.0, 1.0 / (1.0 + (-3.0f64).exp()), 0.976_287_063_411_216_6), // d = c+3
        ] {
            let (wires, penalty, cost) = golden;
            while g.demand(e) < wires {
                g.add_wire(e);
            }
            assert_eq!(g.demand(e), wires);
            assert!(
                (g.penalty(e) - penalty).abs() < 1e-12,
                "penalty at d={wires}"
            );
            assert!((g.cost(e) - cost).abs() < 1e-12, "cost at d={wires}");
        }
    }

    #[test]
    fn non_edges_cost_infinity() {
        let g = grid();
        // M2 runs along x: no edge leaves the last column.
        assert_eq!(g.cost(Edge::planar(1, 19, 3)), f64::INFINITY);
        // M3 runs along y: no edge leaves the last row.
        assert_eq!(g.cost(Edge::planar(2, 3, 19)), f64::INFINITY);
        // No via leaves the top layer.
        assert_eq!(g.cost(Edge::via(3, 3, 8)), f64::INFINITY);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A 5 × 4 gcell grid; with `blocked`, two blockages cover the
        /// boundary gcells of two corners.
        fn small(blocked: bool) -> RouteGrid {
            let mut b = DesignBuilder::new("p", 1000);
            b.site(200, 2000);
            b.add_rows(6, 75, Point::new(0, 0)); // 15_000 x 12_000 -> 5 x 4
            let mut d = b.build();
            if blocked {
                d.blockages
                    .push(Rect::with_size(Point::new(2000, 0), 4000, 3000));
                d.blockages
                    .push(Rect::with_size(Point::new(11_000, 8000), 4000, 4000));
            }
            RouteGrid::new(&d, GridConfig::default())
        }

        /// Eq. 10 through the edge-level queries: `Unit_e × (1 + penalty)`.
        fn fresh(g: &RouteGrid, e: Edge) -> f64 {
            match e {
                Edge::Planar { layer, .. } if !g.is_routable(layer) => f64::INFINITY,
                Edge::Planar { .. } => g.config().wire_unit * (1.0 + g.penalty(e)),
                Edge::Via { .. } => g.config().via_unit * (1.0 + g.penalty(e)),
            }
        }

        /// Every cached cost equals Eq. 10 from the counters, bit for bit;
        /// every slot without an edge caches infinity.
        fn assert_table_fresh(g: &RouteGrid, step: usize) {
            let (nx, ny, nl) = g.dims();
            for layer in 0..nl {
                for y in 0..ny {
                    for x in 0..nx {
                        let p = Edge::planar(layer, x, y);
                        let want = if g.planar_edge_exists(layer, x, y) {
                            fresh(g, p)
                        } else {
                            f64::INFINITY
                        };
                        assert_eq!(g.cost(p).to_bits(), want.to_bits(), "{p:?} at step {step}");
                        let v = Edge::via(x, y, layer);
                        let want = if g.edge_exists(v) {
                            fresh(g, v)
                        } else {
                            f64::INFINITY
                        };
                        assert_eq!(g.cost(v).to_bits(), want.to_bits(), "{v:?} at step {step}");
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn cost_table_matches_eq10_after_every_mutation(
                blocked in 0u8..2,
                ops in proptest::collection::vec(
                    (0u8..6, 0u16..5, 0u16..4, (0u16..9, 0u16..9)),
                    1..60,
                )
            ) {
                let mut g = small(blocked == 1);
                let (_, _, nl) = g.dims();
                assert_table_fresh(&g, 0);
                // Stacks on the grid, so removals always have something
                // to take away.
                let mut stacks: Vec<(u16, u16, u16, u16)> = Vec::new();
                for (step, &(op, x, y, (a, b))) in ops.iter().enumerate() {
                    let layer = a % nl;
                    let (lo, hi) = (a.min(b) % nl, a.max(b) % nl);
                    let edge = Edge::planar(layer, x, y);
                    match op {
                        0 | 1 if g.edge_exists(edge) => g.add_wire(edge),
                        2 if g.wire_usage(edge) >= 1.0 => g.remove_wire(edge),
                        3 if lo < hi => {
                            g.add_via_stack(x, y, lo, hi);
                            stacks.push((x, y, lo, hi));
                        }
                        4 if layer + 1 < nl => {
                            g.add_via(x, y, layer);
                            stacks.push((x, y, layer, layer + 1));
                        }
                        5 if !stacks.is_empty() => {
                            let (sx, sy, slo, shi) =
                                stacks.swap_remove(usize::from(x + y) % stacks.len());
                            if shi == slo + 1 {
                                g.remove_via(sx, sy, slo);
                            } else {
                                g.remove_via_stack(sx, sy, slo, shi);
                            }
                        }
                        _ => continue,
                    }
                    assert_table_fresh(&g, step + 1);
                }
            }
        }
    }

    #[test]
    fn planar_edges_iterator_respects_bounds() {
        let g = grid();
        for e in g.planar_edges() {
            assert!(g.edge_exists(e));
            let (a, b) = e.endpoints(|l| g.axis(l));
            assert!(b.x < 20 && b.y < 20);
            assert!(a.x < 20 && a.y < 20);
        }
        // Horizontal layer M2: (nx-1)*ny edges; count a couple of layers.
        let m2 = g
            .planar_edges()
            .filter(|e| matches!(e, Edge::Planar { layer: 1, .. }))
            .count();
        assert_eq!(m2, 19 * 20);
        let m3 = g
            .planar_edges()
            .filter(|e| matches!(e, Edge::Planar { layer: 2, .. }))
            .count();
        assert_eq!(m3, 20 * 19);
    }
}
