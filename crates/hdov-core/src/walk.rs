//! The one Fig. 3 traversal behind every query entry point.
//!
//! ```text
//! Algorithm Search(Node)
//! 1. for each entry E in Node
//! 3.   if E.DoV = 0          -> prune the branch
//! 4.   if E is leaf          -> add E.ptr->LoD_leaf      (Eq. 6)
//! 7.   else if E.DoV <= eta and h(1 + log_M s) < log_M(E.NVO)
//! 8.                         -> add E.ptr->LoD_internal  (Eq. 5)
//! 10.  else                  -> Search(E.ptr)
//! ```
//!
//! The walk is generic over two traits and monomorphised per use:
//!
//! * a [`Source`] says where bytes come from — the sequential engine
//!   ([`SeqSource`]: `&mut` tree, store and model bank) or a session over
//!   the shared pools ([`SharedSource`]);
//! * an [`Emit`] says which entries are kept and where they go — every
//!   entry into a [`QueryResult`](crate::search::QueryResult), or one shard's owned entries, keyed by
//!   tree position, into a [`ShardFrame`](crate::shard::ShardFrame).
//!
//! [`run`] wraps the walk in the query prologue and epilogue every entry
//! point shares: meter snapshots, the [`BudgetClock`], the last-resort root
//! fallback, the per-query [`SearchStats`] and the `hdov-obs` recording.

use crate::budget::{BudgetClock, QueryBudget};
use crate::build::{HdovTree, TerminationHeuristic};
use crate::delta::DeltaSearch;
use crate::node::{HdovEntry, HdovNode};
use crate::search::{
    DegradeCause, DegradeEvent, ObjectModels, ResultEntry, ResultKey, SearchStats,
};
use crate::shared::{SessionCtx, SharedEnvironment};
use crate::storage::VisibilityStore;
use crate::vpage::{VEntry, VPage};
use hdov_geom::solid_angle::MAX_DOV;
use hdov_obs::{Counter, Hist, Phase};
use hdov_scene::{ModelHandle, ModelStore};
use hdov_storage::{IoStats, Result};
use hdov_visibility::CellId;
use std::borrow::Borrow;
use std::sync::Arc;

/// The `error` string recorded on a [`DegradeCause::BudgetExhausted`] event
/// (kept non-empty so every event explains itself, like absorbed errors do).
const BUDGET_EXHAUSTED_DETAIL: &str = "query budget exhausted before descent";

/// Where a Fig. 3 walk reads V-pages, nodes and LoD models from, and how
/// it meters them.
pub(crate) trait Source {
    /// Meter readings at query start.
    type Start;
    /// A fetched V-page (owned or shared).
    type Page: Borrow<VPage>;

    /// Snapshots the meters at query start.
    fn begin(&mut self) -> Self::Start;
    /// Positions the source on `cell` (the segment flip, plus the batched
    /// V-page prefetch where enabled).
    fn enter_cell(&mut self, cell: CellId) -> Result<()>;
    /// The V-page of `ordinal` in the current cell (`Ok(None)`: provably
    /// invisible).
    fn vpage(&mut self, ordinal: u32) -> Result<Option<Self::Page>>;
    /// Node `ordinal`.
    fn node(&mut self, ordinal: u32) -> Result<Arc<HdovNode>>;
    /// The tree's termination heuristic and fan-out `M` (Eq. 4's inputs).
    fn termination(&self) -> (TerminationHeuristic, usize);
    /// The model directory holding `key`'s LoD chain.
    fn store(&self, key: ResultKey) -> &ModelStore;
    /// Fetches (charges the page reads for) `key` at `level`.
    fn fetch(&mut self, key: ResultKey, level: usize) -> Result<ModelHandle>;
    /// Cumulative simulated I/O charge across every meter the query
    /// touches, for budget accounting. Pure accessor reads.
    fn io_elapsed_us(&self) -> f64;
    /// Fills the I/O fields of `stats` with what was charged since `start`.
    fn finish(&self, start: &Self::Start, stats: &mut SearchStats);
    /// The root's ordinal.
    fn root_ordinal(&self) -> u32;
    /// Total objects indexed by the tree.
    fn object_count(&self) -> u64;
}

/// Which entries a walk keeps and where it writes them.
pub(crate) trait Emit {
    /// A tree position attached to every emitted entry.
    type Pos: Copy;
    /// The root's position.
    const ROOT: Self::Pos;

    /// The position of entry `index` of the node at `pos`, `depth` levels
    /// below the root.
    fn child(pos: Self::Pos, depth: usize, index: usize) -> Self::Pos;
    /// Whether the object entry `id` is emitted here.
    fn owns_object(&self, _id: u64) -> bool {
        true
    }
    /// Whether an η-terminated subtree rooted at `ordinal` is emitted here.
    fn owns_subtree(&self, _ordinal: u32) -> bool {
        true
    }
    /// Whether the subtree rooted at `ordinal` holds anything emitted here
    /// (subtrees that do not are skipped unread).
    fn reaches(&self, _ordinal: u32) -> bool {
        true
    }
    /// Appends a result entry.
    fn push(&mut self, pos: Self::Pos, e: ResultEntry);
    /// Records a degraded subtree.
    fn record_degrade(&mut self, pos: Self::Pos, e: DegradeEvent);
    /// Snapshot for [`rollback`](Self::rollback).
    fn mark(&self) -> (usize, usize);
    /// Drops everything pushed since `mark` — a failed subtree's partial
    /// entries (and any fallbacks it recorded before dying) are superseded
    /// by the single ancestor fallback that absorbs the propagated error.
    fn rollback(&mut self, mark: (usize, usize));
    /// Drops everything, retaining allocations.
    fn clear(&mut self);
    /// Objects a root fallback stands in for, of the tree's `total`.
    fn root_objects(&self, total: u64) -> u64 {
        total
    }
    /// Recorded degrade events with `cause`.
    fn degrades(&self, cause: DegradeCause) -> u64;
}

/// The sequential engine: `&mut` tree, visibility store and model bank.
pub(crate) struct SeqSource<'a> {
    pub(crate) tree: &'a mut HdovTree,
    pub(crate) vstore: &'a mut dyn VisibilityStore,
    pub(crate) objects: &'a mut ObjectModels,
}

impl Source for SeqSource<'_> {
    /// Node, internal-LoD and model meters (the store's own meter is reset
    /// instead).
    type Start = (IoStats, IoStats, IoStats);
    type Page = VPage;

    fn begin(&mut self) -> Self::Start {
        let start = (
            self.tree.node_io(),
            self.tree.internal_io(),
            self.objects.disk.stats(),
        );
        self.vstore.reset_stats();
        start
    }

    fn enter_cell(&mut self, cell: CellId) -> Result<()> {
        self.vstore.enter_cell(cell)
    }

    fn vpage(&mut self, ordinal: u32) -> Result<Option<VPage>> {
        self.vstore.fetch(ordinal)
    }

    fn node(&mut self, ordinal: u32) -> Result<Arc<HdovNode>> {
        self.tree.read_node(ordinal)
    }

    fn termination(&self) -> (TerminationHeuristic, usize) {
        (self.tree.heuristic(), self.tree.fanout())
    }

    #[inline]
    fn store(&self, key: ResultKey) -> &ModelStore {
        match key {
            ResultKey::Object(_) => &self.objects.store,
            ResultKey::Internal(_) => self.tree.internal_store(),
        }
    }

    #[inline]
    fn fetch(&mut self, key: ResultKey, level: usize) -> Result<ModelHandle> {
        match key {
            ResultKey::Object(id) => self.objects.store.fetch(&mut self.objects.disk, id, level),
            ResultKey::Internal(ordinal) => self.tree.fetch_internal_lod(ordinal, level),
        }
    }

    fn io_elapsed_us(&self) -> f64 {
        self.tree.node_io().elapsed_us
            + self.tree.internal_io().elapsed_us
            + self.objects.disk.stats().elapsed_us
            + self.vstore.stats().elapsed_us
    }

    fn finish(&self, start: &Self::Start, stats: &mut SearchStats) {
        stats.node_io = self.tree.node_io().since(&start.0);
        stats.internal_io = self.tree.internal_io().since(&start.1);
        stats.model_io = self.objects.disk.stats().since(&start.2);
        stats.vstore_io = self.vstore.stats();
    }

    fn root_ordinal(&self) -> u32 {
        self.tree.root_ordinal()
    }

    fn object_count(&self) -> u64 {
        self.tree.object_count()
    }
}

/// One session over a frozen environment: every charge goes to the
/// session's cursors.
pub(crate) struct SharedSource<'a> {
    pub(crate) env: &'a SharedEnvironment,
    pub(crate) ctx: &'a mut SessionCtx,
    /// Batch-read the cell's V-pages on entry.
    pub(crate) prefetch: bool,
}

impl Source for SharedSource<'_> {
    /// Node, internal-LoD, model, V-page-index and V-page cursors.
    type Start = [IoStats; 5];
    type Page = Arc<VPage>;

    fn begin(&mut self) -> Self::Start {
        let c = &self.ctx;
        [
            c.node_cur.stats(),
            c.internal_cur.stats(),
            c.model_cur.stats(),
            c.index_cur.stats(),
            c.vpage_cur.stats(),
        ]
    }

    fn enter_cell(&mut self, cell: CellId) -> Result<()> {
        self.env.vstore().enter_cell(self.ctx, cell)?;
        if self.prefetch {
            self.env.vstore().prefetch_cell(self.ctx)?;
        }
        Ok(())
    }

    #[inline]
    fn vpage(&mut self, ordinal: u32) -> Result<Option<Arc<VPage>>> {
        self.env.vstore().fetch(self.ctx, ordinal)
    }

    #[inline]
    fn node(&mut self, ordinal: u32) -> Result<Arc<HdovNode>> {
        self.env.tree().read_node(&mut self.ctx.node_cur, ordinal)
    }

    fn termination(&self) -> (TerminationHeuristic, usize) {
        (self.env.tree().heuristic(), self.env.tree().fanout())
    }

    #[inline]
    fn store(&self, key: ResultKey) -> &ModelStore {
        match key {
            ResultKey::Object(_) => self.env.models().store(),
            ResultKey::Internal(_) => self.env.tree().internal_store(),
        }
    }

    #[inline]
    fn fetch(&mut self, key: ResultKey, level: usize) -> Result<ModelHandle> {
        match key {
            ResultKey::Object(id) => self.env.models().fetch(&mut self.ctx.model_cur, id, level),
            ResultKey::Internal(ordinal) => {
                self.env
                    .tree()
                    .fetch_internal_lod(&mut self.ctx.internal_cur, ordinal, level)
            }
        }
    }

    fn io_elapsed_us(&self) -> f64 {
        let c = &self.ctx;
        c.node_cur.stats().elapsed_us
            + c.internal_cur.stats().elapsed_us
            + c.model_cur.stats().elapsed_us
            + c.index_cur.stats().elapsed_us
            + c.vpage_cur.stats().elapsed_us
    }

    fn finish(&self, start: &Self::Start, stats: &mut SearchStats) {
        let c = &self.ctx;
        stats.node_io = c.node_cur.stats().since(&start[0]);
        stats.internal_io = c.internal_cur.stats().since(&start[1]);
        stats.model_io = c.model_cur.stats().since(&start[2]);
        stats.vstore_io =
            c.index_cur.stats().since(&start[3]) + c.vpage_cur.stats().since(&start[4]);
    }

    fn root_ordinal(&self) -> u32 {
        self.env.tree().root_ordinal()
    }

    fn object_count(&self) -> u64 {
        self.env.tree().object_count()
    }
}

/// The second condition of Fig. 3 line 7, per `src`'s heuristic.
#[inline]
pub(crate) fn terminates<S: Source>(src: &S, entry: &HdovEntry, ve: &VEntry) -> bool {
    let (heuristic, fanout) = src.termination();
    match heuristic {
        TerminationHeuristic::Always => true,
        TerminationHeuristic::Eq4 => {
            // h (1 + log_M s) < log_M NVO, with h = subtree height above the
            // leaf level and M the fan-out.
            let m = fanout as f64;
            let log_m = |x: f64| x.ln() / m.ln();
            let h = entry.child_height.saturating_sub(1) as f64;
            let s = (entry.child_s as f64).max(1e-9);
            h * (1.0 + log_m(s)) < log_m(ve.nvo.max(1) as f64)
        }
        TerminationHeuristic::Exact => {
            // Eq. 3: internal LoD polygons < visible descendant polygons.
            let internal = src
                .store(ResultKey::Internal(entry.child_ordinal))
                .handle(entry.child_ordinal as u64, 0)
                .polygons as f64;
            internal < ve.nvo as f64 * entry.child_f as f64
        }
    }
}

/// Eq. 6 blend factor of an object entry with DoV `dov`.
pub(crate) fn object_k(dov: f32) -> f64 {
    (dov as f64 / MAX_DOV).min(1.0)
}

/// Eq. 5 blend factor of an η-terminated subtree with DoV `dov`.
pub(crate) fn internal_k(dov: f32, eta: f64) -> f64 {
    if eta > 0.0 {
        (dov as f64 / eta).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// Resolves `key` at blend factor `k` — the Eq. 5/6 level pick, then the
/// directory handle when the level is resident in `skip`, or a metered
/// fetch otherwise. Always inlined: it runs once per emitted entry, and
/// each call site knows which store `key` names.
#[inline(always)]
pub(crate) fn resolve<S: Source>(
    src: &mut S,
    key: ResultKey,
    k: f64,
    dov: f32,
    skip: Option<&DeltaSearch>,
) -> Result<ResultEntry> {
    let id = match key {
        ResultKey::Object(id) => id,
        ResultKey::Internal(ordinal) => ordinal as u64,
    };
    let level = src.store(key).select_level(id, k);
    let cached = skip.is_some_and(|s| s.is_resident(key, level));
    let h = if cached {
        src.store(key).handle(id, level)
    } else {
        let _lf = hdov_obs::span(Phase::LodFetch);
        src.fetch(key, level)?
    };
    Ok(ResultEntry {
        key,
        level,
        polygons: h.polygons as u64,
        bytes: h.bytes as u64,
        dov,
        cached,
    })
}

/// One query's threshold, resident set and budget.
struct Query<'a> {
    eta: f64,
    skip: Option<&'a DeltaSearch>,
    bclock: BudgetClock,
}

/// Runs one Fig. 3 query from `src` into `emit`: prologue, walk, root
/// fallback and epilogue. Returns this query's costs.
///
/// When even the root's reads (or the segment flip) fail, the last resort
/// of graceful degradation serves the whole emission as the root's internal
/// LoD; only an unreadable root LoD fails the query.
pub(crate) fn run<S: Source, E: Emit>(
    src: &mut S,
    emit: &mut E,
    cell: CellId,
    eta: f64,
    skip: Option<&DeltaSearch>,
    budget: QueryBudget,
) -> Result<SearchStats> {
    assert!(eta >= 0.0, "eta must be non-negative");
    let start = src.begin();
    let q = Query {
        eta,
        skip,
        bclock: BudgetClock::start(budget, src.io_elapsed_us()),
    };

    emit.clear();
    let mut stats = SearchStats::default();
    let attempt = (|| {
        src.enter_cell(cell)?;
        let _traversal = hdov_obs::span(Phase::Traversal);
        let root = src.root_ordinal();
        recurse(src, emit, &q, root, E::ROOT, 0, &mut stats)
    })();
    if let Err(e) = attempt {
        emit.clear();
        let root = src.root_ordinal();
        let objects = emit.root_objects(src.object_count());
        degrade_to_internal(
            src,
            emit,
            &q,
            E::ROOT,
            root,
            0.0,
            objects,
            DegradeCause::ReadError,
            &e.to_string(),
        )?;
    }

    src.finish(&start, &mut stats);
    record_query_obs(&stats, emit);
    Ok(stats)
}

/// Reports one finished query to `hdov-obs`: event counters plus the
/// *simulated* latency histogram (deterministic — safe for the CI gate).
/// Each shard sub-query counts as one query. A no-op when recording is
/// disabled.
fn record_query_obs<E: Emit>(stats: &SearchStats, emit: &E) {
    if !hdov_obs::is_enabled() {
        return;
    }
    hdov_obs::add(Counter::Queries, 1);
    hdov_obs::add(Counter::NodesVisited, stats.nodes_visited);
    hdov_obs::add(Counter::VPagesFetched, stats.vpages_fetched);
    hdov_obs::observe(Hist::SimSearchUs, (stats.search_time_ms() * 1000.0) as u64);
    let errors = emit.degrades(DegradeCause::ReadError);
    if errors > 0 {
        hdov_obs::add(Counter::DegradedQueries, 1);
        hdov_obs::add(Counter::LodFallbacks, errors);
    }
    let stops = emit.degrades(DegradeCause::BudgetExhausted);
    if stops > 0 {
        hdov_obs::add(Counter::BudgetStops, stops);
    }
}

/// Serves node `ordinal`'s finest internal LoD in place of its untraversed
/// subtree at `pos` and records the degrade `cause` (graceful degradation,
/// DESIGN.md §11; budget stops, §12). Propagates the fetch error when even
/// the internal LoD cannot be read — the caller's ancestor then degrades in
/// turn, so the answer falls back to the *deepest readable ancestor*.
#[allow(clippy::too_many_arguments)]
fn degrade_to_internal<S: Source, E: Emit>(
    src: &mut S,
    emit: &mut E,
    q: &Query,
    pos: E::Pos,
    ordinal: u32,
    dov: f32,
    objects_coarse: u64,
    cause: DegradeCause,
    detail: &str,
) -> Result<()> {
    let e = resolve(src, ResultKey::Internal(ordinal), 1.0, dov, q.skip)?;
    emit.push(pos, e);
    emit.record_degrade(
        pos,
        DegradeEvent {
            ordinal,
            objects_coarse,
            cause,
            error: detail.to_string(),
        },
    );
    Ok(())
}

fn recurse<S: Source, E: Emit>(
    src: &mut S,
    emit: &mut E,
    q: &Query,
    ordinal: u32,
    pos: E::Pos,
    depth: usize,
    stats: &mut SearchStats,
) -> Result<()> {
    let Some(page) = ({
        let _vp = hdov_obs::span(Phase::VPageRead);
        src.vpage(ordinal)?
    }) else {
        return Ok(()); // invisible (vertical/indexed prove it for free)
    };
    let vpage: &VPage = page.borrow();
    stats.vpages_fetched += 1;
    if !vpage.any_visible() {
        return Ok(()); // horizontal placeholder for a hidden node
    }
    let node = {
        let _nr = hdov_obs::span(Phase::NodeRead);
        src.node(ordinal)?
    };
    stats.nodes_visited += 1;

    for (i, (entry, ve)) in node.entries.iter().zip(&vpage.entries).enumerate() {
        if ve.dov <= 0.0 {
            continue; // line 3: completely hidden branch
        }
        let pos = E::child(pos, depth, i);
        if entry.is_object() {
            // Lines 4–5: leaf entry, Eq. 6.
            if !emit.owns_object(entry.child) {
                continue;
            }
            let key = ResultKey::Object(entry.child);
            let e = resolve(src, key, object_k(ve.dov), ve.dov, q.skip)?;
            emit.push(pos, e);
        } else if (ve.dov as f64) <= q.eta && terminates(src, entry, ve) {
            // Lines 7–8: barely visible subtree, Eq. 5.
            if !emit.owns_subtree(entry.child_ordinal) {
                continue;
            }
            let key = ResultKey::Internal(entry.child_ordinal);
            let e = resolve(src, key, internal_k(ve.dov, q.eta), ve.dov, q.skip)?;
            emit.push(pos, e);
        } else {
            if !emit.reaches(entry.child_ordinal) {
                continue;
            }
            // Budget check, charged nothing itself: once the query's spend
            // reaches its cap, every remaining subtree is served as its
            // internal LoD instead of being descended (DESIGN.md §12). The
            // unlimited path is one branch — no meter reads, no clock.
            if q.bclock.is_limited()
                && q.bclock.exhausted(
                    src.io_elapsed_us(),
                    stats.nodes_visited,
                    stats.vpages_fetched,
                )
            {
                degrade_to_internal(
                    src,
                    emit,
                    q,
                    pos,
                    entry.child_ordinal,
                    ve.dov,
                    ve.nvo as u64,
                    DegradeCause::BudgetExhausted,
                    BUDGET_EXHAUSTED_DETAIL,
                )?;
                continue;
            }
            // Line 10: descend — absorbing read failures beneath this entry
            // by dropping the subtree's partial answer and serving the
            // child's internal LoD instead.
            let mark = emit.mark();
            if let Err(e) = recurse(src, emit, q, entry.child_ordinal, pos, depth + 1, stats) {
                emit.rollback(mark);
                degrade_to_internal(
                    src,
                    emit,
                    q,
                    pos,
                    entry.child_ordinal,
                    ve.dov,
                    ve.nvo as u64,
                    DegradeCause::ReadError,
                    &e.to_string(),
                )?;
            }
        }
    }
    Ok(())
}
