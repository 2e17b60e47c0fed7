//! [`HdovEnvironment`] — the assembled system: tree + storage scheme +
//! models + cell grid, behind a small query API.

use crate::build::{HdovBuildConfig, HdovTree};
use crate::delta::{DeltaSearch, DeltaSummary};
use crate::search::{naive_query, search, ObjectModels, QueryResult, SearchStats};
use crate::storage::{StorageScheme, VisibilityStore};
use hdov_geom::Vec3;
use hdov_scene::Scene;
use hdov_storage::Result;
use hdov_visibility::{CellGrid, CellGridConfig, CellId, DovTable};
use std::sync::Arc;

/// A complete, queryable HDoV-tree deployment.
///
/// Owns the node file, the chosen visibility store, the object and
/// internal-LoD model banks, the cell grid, and (for fidelity metrics) the
/// ground-truth DoV table.
pub struct HdovEnvironment {
    tree: HdovTree,
    vstore: Box<dyn VisibilityStore>,
    objects: ObjectModels,
    grid: Arc<CellGrid>,
    table: Arc<DovTable>,
    scheme: StorageScheme,
    codec: crate::vpage::VPageCodec,
}

impl HdovEnvironment {
    /// Builds the full environment for `scene`.
    pub fn build(
        scene: &Scene,
        grid_cfg: &CellGridConfig,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
    ) -> Result<Self> {
        let grid = grid_cfg.build();
        let table = DovTable::compute(scene, &grid, &cfg.dov, cfg.threads);
        Self::build_with_table(scene, Arc::new(grid), cfg, scheme, Arc::new(table))
    }

    /// Builds the environment reusing a precomputed [`DovTable`] (avoids
    /// re-sampling when several systems share one scene). The grid and table
    /// are taken as [`Arc`]s so many systems can share one copy.
    pub fn build_with_table(
        scene: &Scene,
        grid: Arc<CellGrid>,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
        table: Arc<DovTable>,
    ) -> Result<Self> {
        let (tree, cells) = HdovTree::build_with_table(scene, &cfg, &table)?;
        let vstore = scheme.build(tree.entry_counts(), &cells, cfg.disk, cfg.codec)?;
        let objects = ObjectModels::build(scene, cfg.disk)?;
        Ok(HdovEnvironment {
            tree,
            vstore,
            objects,
            grid,
            table,
            scheme,
            codec: cfg.codec,
        })
    }

    /// Builds the environment over an existing R-tree backbone whose leaf
    /// payloads resolve through `remap` to dense ids of `scene` — the
    /// mutable write path's per-epoch derived rebuild (see
    /// [`HdovTree::build_from_backbone`]).
    pub fn build_from_backbone<F: hdov_storage::PagedFile>(
        scene: &Scene,
        grid: Arc<CellGrid>,
        cfg: HdovBuildConfig,
        scheme: StorageScheme,
        table: Arc<DovTable>,
        rtree: &mut hdov_rtree::RTree<F>,
        remap: &dyn Fn(u64) -> u64,
    ) -> Result<Self> {
        let (tree, cells) = HdovTree::build_from_backbone(scene, &cfg, &table, rtree, remap)?;
        let vstore = scheme.build(tree.entry_counts(), &cells, cfg.disk, cfg.codec)?;
        let objects = ObjectModels::build(scene, cfg.disk)?;
        Ok(HdovEnvironment {
            tree,
            vstore,
            objects,
            grid,
            table,
            scheme,
            codec: cfg.codec,
        })
    }

    /// The viewing cell containing (or nearest to) `viewpoint`.
    pub fn cell_of(&self, viewpoint: Vec3) -> CellId {
        self.grid.clamped_cell_of(viewpoint)
    }

    /// Visibility query at `viewpoint` with threshold `eta` (Fig. 3).
    pub fn query(&mut self, viewpoint: Vec3, eta: f64) -> Result<QueryResult> {
        Ok(self.query_with_stats(viewpoint, eta)?.0)
    }

    /// [`query`](Self::query) plus the per-query cost breakdown.
    pub fn query_with_stats(
        &mut self,
        viewpoint: Vec3,
        eta: f64,
    ) -> Result<(QueryResult, SearchStats)> {
        let cell = self.cell_of(viewpoint);
        self.query_cell(cell, eta)
    }

    /// Query by cell id.
    pub fn query_cell(&mut self, cell: CellId, eta: f64) -> Result<(QueryResult, SearchStats)> {
        self.query_cell_budgeted(cell, eta, crate::QueryBudget::UNLIMITED)
    }

    /// [`query_cell`](Self::query_cell) under a
    /// [`QueryBudget`](crate::QueryBudget): an exhausted budget stops the
    /// descent and serves the remaining subtrees as internal LoDs (see
    /// [`search_budgeted`](crate::search::search_budgeted)). An unlimited
    /// budget is byte-identical to [`query_cell`](Self::query_cell).
    pub fn query_cell_budgeted(
        &mut self,
        cell: CellId,
        eta: f64,
        budget: crate::QueryBudget,
    ) -> Result<(QueryResult, SearchStats)> {
        self.tree.reset_io();
        self.objects.disk.reset_stats();
        crate::search::search_budgeted(
            &mut self.tree,
            self.vstore.as_mut(),
            &mut self.objects,
            cell,
            eta,
            None,
            budget,
        )
    }

    /// The naïve (cell, list-of-objects) baseline at `viewpoint`.
    pub fn query_naive(&mut self, viewpoint: Vec3) -> Result<(QueryResult, SearchStats)> {
        let cell = self.cell_of(viewpoint);
        self.tree.reset_io();
        self.objects.disk.reset_stats();
        naive_query(
            &mut self.tree,
            self.vstore.as_mut(),
            &mut self.objects,
            cell,
        )
    }

    /// Delta query for walkthroughs: models resident in `delta` at the same
    /// LoD level are reused without model I/O; the resident set is updated.
    pub fn query_delta(
        &mut self,
        viewpoint: Vec3,
        eta: f64,
        delta: &mut DeltaSearch,
    ) -> Result<(QueryResult, SearchStats, DeltaSummary)> {
        let cell = self.cell_of(viewpoint);
        self.tree.reset_io();
        self.objects.disk.reset_stats();
        let (result, stats) = search(
            &mut self.tree,
            self.vstore.as_mut(),
            &mut self.objects,
            cell,
            eta,
            Some(delta),
        )?;
        let summary = delta.apply(&result);
        Ok((result, stats, summary))
    }

    /// Frustum-prioritized (optionally budgeted) query — see
    /// [`search_prioritized`](crate::priority::search_prioritized).
    pub fn query_prioritized(
        &mut self,
        frustum: &hdov_geom::Frustum,
        eta: f64,
        budget_ms: Option<f64>,
    ) -> Result<(crate::priority::PrioritizedOutcome, SearchStats)> {
        let cell = self.cell_of(frustum.eye);
        self.tree.reset_io();
        self.objects.disk.reset_stats();
        crate::priority::search_prioritized(
            &mut self.tree,
            self.vstore.as_mut(),
            &mut self.objects,
            cell,
            eta,
            frustum,
            budget_ms,
        )
    }

    /// Budgeted, frustum-prioritized delta query: resident models are
    /// reused without I/O, the rest stream in priority order until
    /// `budget_ms` expires; the resident set is updated with whatever
    /// loaded.
    pub fn query_prioritized_delta(
        &mut self,
        frustum: &hdov_geom::Frustum,
        eta: f64,
        budget_ms: Option<f64>,
        delta: &mut DeltaSearch,
    ) -> Result<(crate::priority::PrioritizedOutcome, SearchStats)> {
        let cell = self.cell_of(frustum.eye);
        self.tree.reset_io();
        self.objects.disk.reset_stats();
        let (outcome, stats) = crate::priority::search_prioritized_delta(
            &mut self.tree,
            self.vstore.as_mut(),
            &mut self.objects,
            cell,
            eta,
            frustum,
            budget_ms,
            Some(delta),
        )?;
        if outcome.completed {
            delta.apply(&outcome.result);
        } else {
            // A truncated frame must not evict content that simply didn't
            // get re-confirmed before the deadline: merge instead.
            delta.merge(&outcome.result);
        }
        Ok((outcome, stats))
    }

    /// Arms seeded fault injection on every file of the environment — node
    /// pages, internal LoDs, object models, and the visibility store's
    /// disks (chaos testing). Reads then flow through each disk's retry
    /// policy; unreadable subtrees degrade to internal LoDs (see
    /// [`QueryResult::degrade`]).
    pub fn arm_faults(&mut self, plan: &hdov_storage::FaultPlan) {
        self.tree.arm_faults(plan);
        self.vstore.arm_faults(plan);
        self.objects.disk.arm_faults(plan.clone());
    }

    /// Disarms fault injection everywhere (subsequent reads are clean).
    pub fn disarm_faults(&mut self) {
        self.tree.disarm_faults();
        self.vstore.disarm_faults();
        self.objects.disk.disarm_faults();
    }

    /// Relocates every store of the environment — node pages, internal
    /// LoDs, object models, and the visibility store's disks — onto
    /// `backend` (see [`hdov_storage::StorageBackend::freeze`]). Store
    /// names are prefixed with the scheme label so several schemes can
    /// share one directory. Answers and simulated I/O costs are
    /// byte-identical across backends; only the physical residence of the
    /// pages changes. The environment becomes read-only (in particular
    /// [`refresh_visibility`](Self::refresh_visibility) rebuilds the
    /// V-page store in memory again).
    pub fn relocate(&mut self, backend: &hdov_storage::StorageBackend) -> Result<()> {
        let prefix = format!("{}_", self.scheme);
        self.tree.relocate(backend, &prefix)?;
        self.objects.relocate(backend, &prefix)?;
        self.vstore.relocate(backend)
    }

    /// The ground-truth total DoV of a cell (denominator of fidelity
    /// metrics).
    pub fn cell_total_dov(&self, cell: CellId) -> f64 {
        self.table.total_dov(cell)
    }

    /// Number of visible objects in a cell (`N_vobj`).
    pub fn cell_visible_objects(&self, cell: CellId) -> usize {
        self.table.visible_count(cell)
    }

    /// Replaces the environment's visibility data with an updated
    /// [`DovTable`] (e.g. after [`DovTable::recompute_cells`] absorbed a
    /// lighting or door-state change): the view-invariant tree, internal
    /// LoDs, and object models are reused; only the V-page store is rebuilt.
    pub fn refresh_visibility(
        &mut self,
        table: DovTable,
        disk: hdov_storage::DiskModel,
    ) -> Result<()> {
        let cells = self.tree.aggregate_from_table(&table)?;
        self.vstore = self
            .scheme
            .build(self.tree.entry_counts(), &cells, disk, self.codec)?;
        self.table = Arc::new(table);
        Ok(())
    }

    /// Renders the *instantiated* tree of one cell as indented text — the
    /// paper's Fig. 1 made inspectable: the same topology, with each entry's
    /// view-variant `(DoV, NVO)` for that cell. Hidden subtrees print as
    /// `(hidden)` and are not descended into.
    pub fn dump_cell(&mut self, cell: CellId) -> Result<String> {
        self.vstore.enter_cell(cell)?;
        let mut out = String::new();
        out.push_str(&format!(
            "cell {cell}: {} visible objects, total DoV {:.4}\n",
            self.table.visible_count(cell),
            self.table.total_dov(cell)
        ));
        self.dump_node(0, 0, &mut out)?;
        Ok(out)
    }

    fn dump_node(&mut self, ordinal: u32, depth: usize, out: &mut String) -> Result<()> {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let Some(vpage) = self.vstore.fetch(ordinal)? else {
            let _ = writeln!(out, "{indent}node {ordinal} (hidden)");
            return Ok(());
        };
        let node = self.tree.read_node(ordinal)?;
        let _ = writeln!(
            out,
            "{indent}node {ordinal} [{}] dov={:.4} nvo={}",
            if node.is_leaf { "leaf" } else { "internal" },
            vpage.node_dov(),
            vpage.node_nvo()
        );
        for (e, ve) in node.entries.iter().zip(&vpage.entries) {
            if !ve.visible() {
                continue;
            }
            if e.is_object() {
                let _ = writeln!(out, "{indent}  object {} dov={:.4}", e.child, ve.dov);
            } else {
                self.dump_node(e.child_ordinal, depth + 1, out)?;
            }
        }
        Ok(())
    }

    /// The precomputed DoV table (ground truth for metrics).
    pub fn dov_table(&self) -> &DovTable {
        &self.table
    }

    /// A shared handle to the DoV table — systems needing their own copy of
    /// the ground truth clone the `Arc`, not the table.
    pub fn dov_table_shared(&self) -> Arc<DovTable> {
        Arc::clone(&self.table)
    }

    /// The cell grid.
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// A shared handle to the cell grid.
    pub fn grid_shared(&self) -> Arc<CellGrid> {
        Arc::clone(&self.grid)
    }

    /// The view-invariant tree.
    pub fn tree(&self) -> &HdovTree {
        &self.tree
    }

    /// Mutable tree access (benchmarks reading nodes directly).
    pub fn tree_mut(&mut self) -> &mut HdovTree {
        &mut self.tree
    }

    /// The object model bank.
    pub fn objects(&self) -> &ObjectModels {
        &self.objects
    }

    /// The active storage scheme.
    pub fn scheme(&self) -> StorageScheme {
        self.scheme
    }

    /// The V-page codec the visibility store was built with.
    pub fn codec(&self) -> crate::vpage::VPageCodec {
        self.codec
    }

    /// The visibility store (for storage-size accounting).
    pub fn vstore(&self) -> &dyn VisibilityStore {
        self.vstore.as_ref()
    }

    /// Freezes the environment into its immutable, `&`-shareable
    /// counterpart for concurrent multi-session querying — see
    /// [`crate::shared`]. The on-disk layout of every file is preserved
    /// (pages are moved, not rewritten).
    pub fn into_shared(self, pool: crate::shared::PoolConfig) -> crate::shared::SharedEnvironment {
        crate::shared::SharedEnvironment::from_parts(
            self.tree,
            self.vstore,
            self.objects,
            self.grid,
            self.table,
            self.scheme,
            pool,
        )
    }
}
