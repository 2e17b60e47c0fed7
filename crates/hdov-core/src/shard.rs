//! Fault-domain sharding: the data plane (DESIGN.md §17).
//!
//! A sharded deployment runs one engine per spatial tile — each a full
//! replica of the frozen environment with its own pools and fault plan —
//! and a router fans a visitor's query out to the shards that can
//! contribute, then merges the per-shard answers back into one frame. This
//! module provides the pieces that must agree with the traversal itself:
//!
//! * [`ShardPlan`] — a one-time walk of the frozen tree that assigns every
//!   object an owning shard, every node an owner and a *subtree shard
//!   mask*, precomputes each cell's fan-out mask, and each shard's coarse
//!   cover (the ready-made entries served when the shard is down).
//! * [`search_shard_into_budgeted`] — the pruned counterpart of
//!   [`search_shared_into_budgeted`](crate::shared::search_shared_into_budgeted):
//!   shard `S` walks the same tree with the same decisions but skips
//!   subtrees whose mask lacks its bit and emits only the entries it owns,
//!   each tagged with a [`PathKey`].
//! * [`merge_frames`] — concatenates per-shard frames (in shard order) and
//!   sorts by path key, reconstructing the *exact* DFS emission order of
//!   the unsharded traversal. Fault-free, the merged frame is
//!   byte-identical to [`search_shared`](crate::shared::search_shared),
//!   independent of shard completion order (pinned by the `hdov-shard`
//!   crate's proptests).
//!
//! The key invariant: every emission position of the unsharded traversal —
//! an object entry, or an entry whose subtree η-terminates at an internal
//! LoD — is owned by exactly one shard, so fault-free the concatenation has
//! no duplicates and no gaps. Under faults a shard serves fallbacks for
//! subtrees it descended but does not wholly own, so degraded frames may
//! carry a coarse duplicate next to another shard's fine entries — coverage
//! is chosen over minimality, exactly like the budget-stop path.

use crate::budget::{BudgetClock, QueryBudget};
use crate::delta::{DeltaSearch, KeyMap};
use crate::search::{
    select_level, terminates_with, DegradeCause, DegradeEvent, QueryResult, ResultEntry, ResultKey,
    SearchStats, BUDGET_EXHAUSTED_DETAIL,
};
use crate::shared::{SessionCtx, SharedEnvironment};
use hdov_geom::solid_angle::MAX_DOV;
use hdov_obs::{Counter, Hist, Phase};
use hdov_storage::Result;
use hdov_visibility::CellId;
use std::collections::HashMap;

/// Hard cap on shards per plan: subtree masks are one `u64` per node.
pub const MAX_SHARDS: usize = 64;

/// A tree position encoded for deterministic merging: 8 bits per level
/// (child-entry index + 1), left-aligned, so plain numeric order over keys
/// is exactly the DFS preorder the unsharded traversal emits in. No emitted
/// key is ever a prefix-extension *and* equal — the zero padding of a
/// parent's key sorts it before every descendant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathKey(u128);

impl PathKey {
    /// The root position (only the last-resort root fallback uses it).
    pub const ROOT: PathKey = PathKey(0);

    /// Maximum encodable depth (levels below the root).
    pub const MAX_DEPTH: usize = 16;

    /// The key of entry `index` of the node at this key, `depth` levels
    /// below the root.
    pub fn child(self, depth: usize, index: usize) -> PathKey {
        assert!(depth < Self::MAX_DEPTH, "tree deeper than PathKey encodes");
        assert!(index < 255, "entry index exceeds PathKey radix");
        PathKey(self.0 | ((index as u128 + 1) << (8 * (Self::MAX_DEPTH - 1 - depth))))
    }

    /// The raw key (for tests and diagnostics).
    pub fn raw(self) -> u128 {
        self.0
    }
}

/// Mirror of one tree entry, kept in memory by the plan walk so the cover
/// pass never re-reads node pages.
#[derive(Debug, Clone, Copy)]
struct MirrorEntry {
    /// Object id for leaf entries, child ordinal for internal entries.
    id: u64,
    /// `u32::MAX` marks an object entry (same sentinel as `HdovEntry`).
    child_ordinal: u32,
}

impl MirrorEntry {
    fn is_object(&self) -> bool {
        self.child_ordinal == u32::MAX
    }
}

/// One shard's per-frame answer, keyed for deterministic merging.
#[derive(Debug, Default, Clone)]
pub struct ShardFrame {
    entries: Vec<(PathKey, ResultEntry)>,
    degrades: Vec<(PathKey, DegradeEvent)>,
    stats: SearchStats,
}

impl ShardFrame {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all content, retaining allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.degrades.clear();
        self.stats = SearchStats::default();
    }

    /// The keyed result entries, in this shard's emission (DFS) order.
    pub fn entries(&self) -> &[(PathKey, ResultEntry)] {
        &self.entries
    }

    /// The keyed degrade events.
    pub fn degrades(&self) -> &[(PathKey, DegradeEvent)] {
        &self.degrades
    }

    /// The sub-query's cost breakdown (zeroed for synthetic cover frames).
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Read errors this sub-query absorbed via LoD fallbacks.
    pub fn errors_absorbed(&self) -> u64 {
        self.degrades
            .iter()
            .filter(|(_, e)| e.cause == DegradeCause::ReadError)
            .count() as u64
    }

    /// Test-only constructor hook (mirrors
    /// [`QueryResult::push_for_test`](crate::QueryResult::push_for_test)).
    #[doc(hidden)]
    pub fn push_for_test(&mut self, key: PathKey, e: ResultEntry) {
        self.entries.push((key, e));
    }

    fn mark(&self) -> (usize, usize) {
        (self.entries.len(), self.degrades.len())
    }

    fn rollback(&mut self, mark: (usize, usize)) {
        self.entries.truncate(mark.0);
        self.degrades.truncate(mark.1);
    }
}

/// The ownership map of a sharded deployment: who owns each object and
/// node, which shards a subtree spans, which shards each cell fans out to,
/// and each shard's coarse cover. Built once per frozen environment and
/// shared by every router and session.
#[derive(Debug)]
pub struct ShardPlan {
    shards: usize,
    object_owner: KeyMap<u64, usize>,
    node_owner: Vec<u32>,
    node_mask: Vec<u64>,
    cell_masks: Vec<u64>,
    covers: Vec<Vec<(PathKey, ResultKey)>>,
    owned_objects: Vec<u64>,
}

impl ShardPlan {
    /// Walks the frozen tree once and builds the plan. `assign` maps an
    /// object id and its MBR-center to its owning shard (the tile map
    /// policy lives with the router); it must return values below `shards`.
    ///
    /// The walk reads every node page through a scratch session, so it
    /// warms the environment's node pool as a side effect — build the plan
    /// before forking per-shard engines so their pools start cold.
    pub fn build(
        env: &SharedEnvironment,
        shards: usize,
        mut assign: impl FnMut(u64, hdov_geom::Vec3) -> usize,
    ) -> Result<ShardPlan> {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        let n_nodes = env.tree().node_count() as usize;
        let mut plan = ShardPlan {
            shards,
            object_owner: KeyMap::default(),
            node_owner: vec![0; n_nodes],
            node_mask: vec![0; n_nodes],
            cell_masks: Vec::new(),
            covers: vec![Vec::new(); shards],
            owned_objects: vec![0; shards],
        };
        let mut mirror: Vec<Vec<MirrorEntry>> = vec![Vec::new(); n_nodes];
        let mut ctx = env.session();
        plan.walk(
            env,
            &mut ctx,
            &mut assign,
            &mut mirror,
            env.tree().root_ordinal(),
            0,
        )?;
        for &s in plan.object_owner.values() {
            plan.owned_objects[s] += 1;
        }

        // Per-object emission mask: the owners of every emission position
        // that can stand in for this object — the object's own owner plus
        // the owner of each ancestor subtree (an η-terminated ancestor is
        // emitted by its subtree's owner).
        let mut obj_emit: HashMap<u64, u64> = HashMap::new();
        plan.emit_masks(&mirror, env.tree().root_ordinal(), 0, &mut obj_emit);

        // Per-cell fan-out mask: the union of emission masks over the
        // cell's ground-truth visible set. Every entry the unsharded
        // traversal could emit for this cell is owned by a shard in the
        // mask, so fanning out to exactly these shards loses nothing.
        let table = env.dov_table();
        let cells = env.grid().cell_count();
        plan.cell_masks = (0..cells)
            .map(|c| {
                table
                    .cell(c as CellId)
                    .iter()
                    .filter(|&&(_, dov)| dov > 0.0)
                    .map(|&(oid, _)| obj_emit.get(&(oid as u64)).copied().unwrap_or(0))
                    .fold(0u64, |m, b| m | b)
            })
            .collect();

        for s in 0..shards {
            let mut cover = Vec::new();
            plan.cover_walk(
                &mirror,
                s,
                env.tree().root_ordinal(),
                PathKey::ROOT,
                0,
                &mut cover,
            );
            plan.covers[s] = cover;
        }
        Ok(plan)
    }

    fn walk(
        &mut self,
        env: &SharedEnvironment,
        ctx: &mut SessionCtx,
        assign: &mut impl FnMut(u64, hdov_geom::Vec3) -> usize,
        mirror: &mut [Vec<MirrorEntry>],
        ordinal: u32,
        depth: usize,
    ) -> Result<(u64, u32)> {
        assert!(
            depth < PathKey::MAX_DEPTH,
            "tree deeper than PathKey encodes"
        );
        let node = env.tree().read_node(&mut ctx.node_cur, ordinal)?;
        assert!(node.entries.len() < 255, "fan-out exceeds PathKey radix");
        let mut mask = 0u64;
        let mut owner: Option<u32> = None;
        let mut entries = Vec::with_capacity(node.entries.len());
        for entry in &node.entries {
            if entry.is_object() {
                let s = assign(entry.child, entry.mbr.center());
                assert!(
                    s < self.shards,
                    "assign returned shard {s} of {}",
                    self.shards
                );
                self.object_owner.insert(entry.child, s);
                mask |= 1 << s;
                owner.get_or_insert(s as u32);
                entries.push(MirrorEntry {
                    id: entry.child,
                    child_ordinal: u32::MAX,
                });
            } else {
                let (m, o) = self.walk(env, ctx, assign, mirror, entry.child_ordinal, depth + 1)?;
                mask |= m;
                owner.get_or_insert(o);
                entries.push(MirrorEntry {
                    id: entry.child,
                    child_ordinal: entry.child_ordinal,
                });
            }
        }
        mirror[ordinal as usize] = entries;
        self.node_mask[ordinal as usize] = mask;
        self.node_owner[ordinal as usize] = owner.unwrap_or(0);
        Ok((mask, self.node_owner[ordinal as usize]))
    }

    fn emit_masks(
        &self,
        mirror: &[Vec<MirrorEntry>],
        ordinal: u32,
        anc: u64,
        out: &mut HashMap<u64, u64>,
    ) {
        for e in &mirror[ordinal as usize] {
            if e.is_object() {
                let owner = 1u64 << self.object_owner[&e.id];
                out.insert(e.id, anc | owner);
            } else {
                let here = anc | (1u64 << self.node_owner[e.child_ordinal as usize]);
                self.emit_masks(mirror, e.child_ordinal, here, out);
            }
        }
    }

    fn cover_walk(
        &self,
        mirror: &[Vec<MirrorEntry>],
        shard: usize,
        ordinal: u32,
        path: PathKey,
        depth: usize,
        out: &mut Vec<(PathKey, ResultKey)>,
    ) {
        let bit = 1u64 << shard;
        for (i, e) in mirror[ordinal as usize].iter().enumerate() {
            let key = path.child(depth, i);
            if e.is_object() {
                if self.object_owner[&e.id] == shard {
                    out.push((key, ResultKey::Object(e.id)));
                }
            } else {
                let m = self.node_mask[e.child_ordinal as usize];
                if m == bit {
                    out.push((key, ResultKey::Internal(e.child_ordinal)));
                } else if m & bit != 0 {
                    self.cover_walk(mirror, shard, e.child_ordinal, key, depth + 1, out);
                }
            }
        }
    }

    /// Number of shards the plan was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `object`, if the object is indexed.
    pub fn object_owner(&self, object: u64) -> Option<usize> {
        self.object_owner.get(&object).copied()
    }

    /// The shard owning the subtree rooted at `ordinal` (the owner of its
    /// leftmost object — deterministic and cell-independent).
    pub fn node_owner(&self, ordinal: u32) -> usize {
        self.node_owner[ordinal as usize] as usize
    }

    /// The shards with at least one owned object under `ordinal`.
    pub fn node_mask(&self, ordinal: u32) -> u64 {
        self.node_mask[ordinal as usize]
    }

    /// The shards that can emit an entry for a query in `cell` (from the
    /// ground-truth visible set; the router adds the home-tile bit).
    pub fn cell_mask(&self, cell: CellId) -> u64 {
        self.cell_masks[cell as usize]
    }

    /// Objects owned by `shard`.
    pub fn owned_objects(&self, shard: usize) -> u64 {
        self.owned_objects[shard]
    }

    /// The size of `shard`'s coarse cover.
    pub fn cover_len(&self, shard: usize) -> usize {
        self.covers[shard].len()
    }

    /// Builds the synthetic frame served in place of an unavailable
    /// `shard`: its precomputed coarse cover — maximal wholly-owned
    /// subtrees at their coarsest internal LoD, plus individually-owned
    /// objects at their coarsest object LoD — materialized from the
    /// in-memory model directories with **zero I/O** (the same
    /// directory-only discipline as session shedding), and one
    /// [`DegradeCause::ShardUnavailable`] event explaining why.
    ///
    /// The cover is visibility-agnostic: it stands in for every object the
    /// shard owns, visible from the current cell or not, because the
    /// router serves it precisely when the shard that could prove
    /// visibility is unreachable.
    pub fn cover_frame(
        &self,
        env: &SharedEnvironment,
        shard: usize,
        detail: &str,
        frame: &mut ShardFrame,
    ) {
        frame.clear();
        let models = env.models().store();
        let internal = env.tree().internal_store();
        for &(key, rk) in &self.covers[shard] {
            let (store, id) = match rk {
                ResultKey::Object(id) => (models, id),
                ResultKey::Internal(ord) => (internal, ord as u64),
            };
            let level = select_level(store, id, 0.0);
            let h = store.handle(id, level);
            frame.entries.push((
                key,
                ResultEntry {
                    key: rk,
                    level,
                    polygons: h.polygons as u64,
                    bytes: h.bytes as u64,
                    dov: 0.0,
                    // Directory-served: no model I/O happened this frame.
                    cached: true,
                },
            ));
        }
        frame.degrades.push((
            PathKey::ROOT,
            DegradeEvent {
                ordinal: env.tree().root_ordinal(),
                objects_coarse: self.owned_objects[shard],
                cause: DegradeCause::ShardUnavailable,
                error: detail.to_string(),
            },
        ));
    }
}

/// Cumulative simulated I/O charge across a session's five cursors (pure
/// accessor reads — identical to the shared path's budget accounting).
fn io_elapsed_us(ctx: &SessionCtx) -> f64 {
    ctx.node_cur.stats().elapsed_us
        + ctx.internal_cur.stats().elapsed_us
        + ctx.model_cur.stats().elapsed_us
        + ctx.index_cur.stats().elapsed_us
        + ctx.vpage_cur.stats().elapsed_us
}

/// The pruned sharded traversal: shard `shard`'s contribution to one frame.
///
/// Decision-for-decision the same walk as
/// [`search_shared_into_budgeted`](crate::shared::search_shared_into_budgeted)
/// — same prune/terminate/descend tests against the same V-pages — except:
///
/// * subtrees whose [`ShardPlan::node_mask`] lacks this shard's bit are
///   skipped without reading them,
/// * object entries are emitted (and their models fetched) only when this
///   shard owns the object, and η-terminated internal entries only when it
///   owns the subtree,
/// * every emission is tagged with its [`PathKey`] so [`merge_frames`] can
///   reconstruct the global DFS order.
///
/// With a single-shard plan this degenerates to the unsharded traversal:
/// same answer, same I/O sequence, same stats (pinned by the `hdov-shard`
/// tests). Budget exhaustion and absorbed read errors degrade to internal
/// LoDs exactly like the unsharded path; the fallback is emitted even for
/// subtrees this shard does not wholly own (coverage over minimality).
#[allow(clippy::too_many_arguments)]
pub fn search_shard_into_budgeted(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    plan: &ShardPlan,
    shard: usize,
    frame: &mut ShardFrame,
    cell: CellId,
    eta: f64,
    skip: Option<&DeltaSearch>,
    prefetch: bool,
    budget: QueryBudget,
) -> Result<SearchStats> {
    assert!(eta >= 0.0, "eta must be non-negative");
    assert!(shard < plan.shards, "shard {shard} out of range");
    let node0 = ctx.node_cur.stats();
    let internal0 = ctx.internal_cur.stats();
    let model0 = ctx.model_cur.stats();
    let index0 = ctx.index_cur.stats();
    let vpage0 = ctx.vpage_cur.stats();
    let bclock = BudgetClock::start(
        budget,
        node0.elapsed_us
            + internal0.elapsed_us
            + model0.elapsed_us
            + index0.elapsed_us
            + vpage0.elapsed_us,
    );

    frame.clear();
    let mut stats = SearchStats::default();
    let attempt = (|| {
        env.vstore().enter_cell(ctx, cell)?;
        if prefetch {
            env.vstore().prefetch_cell(ctx)?;
        }
        let _traversal = hdov_obs::span(Phase::Traversal);
        recurse_shard(
            env,
            ctx,
            plan,
            shard,
            env.tree().root_ordinal(),
            PathKey::ROOT,
            0,
            eta,
            skip,
            &bclock,
            frame,
            &mut stats,
        )
    })();
    if let Err(e) = attempt {
        // Even the root's own reads failed: last-resort degradation serves
        // this shard's whole contribution as the root's internal LoD. Only
        // an unreadable root LoD fails the sub-query.
        frame.clear();
        let root = env.tree().root_ordinal();
        let level = select_level(env.tree().internal_store(), root as u64, 1.0);
        let key = ResultKey::Internal(root);
        let cached = skip.is_some_and(|s| s.is_resident(key, level));
        let h = if cached {
            env.tree().internal_store().handle(root as u64, level)
        } else {
            let _lf = hdov_obs::span(Phase::LodFetch);
            env.tree()
                .fetch_internal_lod(&mut ctx.internal_cur, root, level)?
        };
        frame.entries.push((
            PathKey::ROOT,
            ResultEntry {
                key,
                level,
                polygons: h.polygons as u64,
                bytes: h.bytes as u64,
                dov: 0.0,
                cached,
            },
        ));
        frame.degrades.push((
            PathKey::ROOT,
            DegradeEvent {
                ordinal: root,
                objects_coarse: plan.owned_objects[shard],
                cause: DegradeCause::ReadError,
                error: e.to_string(),
            },
        ));
    }

    stats.node_io = ctx.node_cur.stats().since(&node0);
    stats.internal_io = ctx.internal_cur.stats().since(&internal0);
    stats.model_io = ctx.model_cur.stats().since(&model0);
    stats.vstore_io = ctx.index_cur.stats().since(&index0) + ctx.vpage_cur.stats().since(&vpage0);
    frame.stats = stats;
    record_shard_query_obs(&stats, frame);
    Ok(stats)
}

/// Reports one finished shard sub-query to `hdov-obs` (the sharded
/// counterpart of the search module's per-query recording: each sub-query
/// counts as one query).
fn record_shard_query_obs(stats: &SearchStats, frame: &ShardFrame) {
    if !hdov_obs::is_enabled() {
        return;
    }
    hdov_obs::add(Counter::Queries, 1);
    hdov_obs::add(Counter::NodesVisited, stats.nodes_visited);
    hdov_obs::add(Counter::VPagesFetched, stats.vpages_fetched);
    hdov_obs::observe(Hist::SimSearchUs, (stats.search_time_ms() * 1000.0) as u64);
    let errors = frame.errors_absorbed();
    if errors > 0 {
        hdov_obs::add(Counter::DegradedQueries, 1);
        hdov_obs::add(Counter::LodFallbacks, errors);
    }
    let stops = frame
        .degrades
        .iter()
        .filter(|(_, e)| e.cause == DegradeCause::BudgetExhausted)
        .count() as u64;
    if stops > 0 {
        hdov_obs::add(Counter::BudgetStops, stops);
    }
}

/// Serves `ordinal`'s internal LoD in place of its untraversed subtree at
/// position `key` (the sharded counterpart of `degrade_to_internal_shared`).
#[allow(clippy::too_many_arguments)]
fn degrade_to_internal_shard(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    ordinal: u32,
    key: PathKey,
    dov: f32,
    objects_coarse: u64,
    cause: DegradeCause,
    detail: &str,
    skip: Option<&DeltaSearch>,
    frame: &mut ShardFrame,
) -> Result<()> {
    let level = select_level(env.tree().internal_store(), ordinal as u64, 1.0);
    let rk = ResultKey::Internal(ordinal);
    let cached = skip.is_some_and(|s| s.is_resident(rk, level));
    let h = if cached {
        env.tree().internal_store().handle(ordinal as u64, level)
    } else {
        let _lf = hdov_obs::span(Phase::LodFetch);
        env.tree()
            .fetch_internal_lod(&mut ctx.internal_cur, ordinal, level)?
    };
    frame.entries.push((
        key,
        ResultEntry {
            key: rk,
            level,
            polygons: h.polygons as u64,
            bytes: h.bytes as u64,
            dov,
            cached,
        },
    ));
    frame.degrades.push((
        key,
        DegradeEvent {
            ordinal,
            objects_coarse,
            cause,
            error: detail.to_string(),
        },
    ));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn recurse_shard(
    env: &SharedEnvironment,
    ctx: &mut SessionCtx,
    plan: &ShardPlan,
    shard: usize,
    ordinal: u32,
    path: PathKey,
    depth: usize,
    eta: f64,
    skip: Option<&DeltaSearch>,
    bclock: &BudgetClock,
    frame: &mut ShardFrame,
    stats: &mut SearchStats,
) -> Result<()> {
    let bit = 1u64 << shard;
    let Some(vpage) = ({
        let _vp = hdov_obs::span(Phase::VPageRead);
        env.vstore().fetch(ctx, ordinal)?
    }) else {
        return Ok(()); // invisible (vertical/indexed prove it for free)
    };
    stats.vpages_fetched += 1;
    if !vpage.any_visible() {
        return Ok(()); // horizontal placeholder for a hidden node
    }
    let node = {
        let _nr = hdov_obs::span(Phase::NodeRead);
        env.tree().read_node(&mut ctx.node_cur, ordinal)?
    };
    stats.nodes_visited += 1;

    for (i, (entry, ve)) in node.entries.iter().zip(&vpage.entries).enumerate() {
        if ve.dov <= 0.0 {
            continue; // completely hidden branch
        }
        let key = path.child(depth, i);
        if entry.is_object() {
            // Emit only owned objects; the owner is the only shard that
            // fetches (or skips, when resident) this model.
            if plan.object_owner.get(&entry.child) != Some(&shard) {
                continue;
            }
            let k = (ve.dov as f64 / MAX_DOV).min(1.0);
            let level = select_level(env.models().store(), entry.child, k);
            let rk = ResultKey::Object(entry.child);
            let cached = skip.is_some_and(|s| s.is_resident(rk, level));
            let h = if cached {
                env.models().store().handle(entry.child, level)
            } else {
                let _lf = hdov_obs::span(Phase::LodFetch);
                env.models().fetch(&mut ctx.model_cur, entry.child, level)?
            };
            frame.entries.push((
                key,
                ResultEntry {
                    key: rk,
                    level,
                    polygons: h.polygons as u64,
                    bytes: h.bytes as u64,
                    dov: ve.dov,
                    cached,
                },
            ));
        } else if (ve.dov as f64) <= eta
            && terminates_with(
                env.tree().heuristic(),
                env.tree().fanout(),
                env.tree().internal_store(),
                entry,
                ve,
            )
        {
            // η-terminated subtree: emitted by its owner only.
            if plan.node_owner[entry.child_ordinal as usize] as usize != shard {
                continue;
            }
            let k = if eta > 0.0 {
                (ve.dov as f64 / eta).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let child = entry.child_ordinal;
            let level = select_level(env.tree().internal_store(), child as u64, k);
            let rk = ResultKey::Internal(child);
            let cached = skip.is_some_and(|s| s.is_resident(rk, level));
            let h = if cached {
                env.tree().internal_store().handle(child as u64, level)
            } else {
                let _lf = hdov_obs::span(Phase::LodFetch);
                env.tree()
                    .fetch_internal_lod(&mut ctx.internal_cur, child, level)?
            };
            frame.entries.push((
                key,
                ResultEntry {
                    key: rk,
                    level,
                    polygons: h.polygons as u64,
                    bytes: h.bytes as u64,
                    dov: ve.dov,
                    cached,
                },
            ));
        } else {
            // Descend — but only into subtrees holding something we own.
            if plan.node_mask[entry.child_ordinal as usize] & bit == 0 {
                continue;
            }
            if bclock.is_limited()
                && bclock.exhausted(
                    io_elapsed_us(ctx),
                    stats.nodes_visited,
                    stats.vpages_fetched,
                )
            {
                degrade_to_internal_shard(
                    env,
                    ctx,
                    entry.child_ordinal,
                    key,
                    ve.dov,
                    ve.nvo as u64,
                    DegradeCause::BudgetExhausted,
                    BUDGET_EXHAUSTED_DETAIL,
                    skip,
                    frame,
                )?;
                continue;
            }
            let mark = frame.mark();
            if let Err(e) = recurse_shard(
                env,
                ctx,
                plan,
                shard,
                entry.child_ordinal,
                key,
                depth + 1,
                eta,
                skip,
                bclock,
                frame,
                stats,
            ) {
                frame.rollback(mark);
                degrade_to_internal_shard(
                    env,
                    ctx,
                    entry.child_ordinal,
                    key,
                    ve.dov,
                    ve.nvo as u64,
                    DegradeCause::ReadError,
                    &e.to_string(),
                    skip,
                    frame,
                )?;
            }
        }
    }
    Ok(())
}

/// Merges per-shard frames into one [`QueryResult`], draining the frames.
///
/// Pass the frames **in shard order** (slot per shard id), never in
/// completion order: sorting by [`PathKey`] is stable, so shard order is
/// the deterministic tiebreak for the duplicate keys a faulty run can
/// produce. Fault-free there are no duplicates, and the sorted sequence is
/// exactly the unsharded traversal's DFS emission order.
pub fn merge_frames(frames: &mut [ShardFrame], out: &mut QueryResult) {
    out.clear();
    let total: usize = frames.iter().map(|f| f.entries.len()).sum();
    let mut keyed: Vec<(PathKey, ResultEntry)> = Vec::with_capacity(total);
    let mut degs: Vec<(PathKey, DegradeEvent)> = Vec::new();
    for f in frames.iter_mut() {
        keyed.append(&mut f.entries);
        degs.append(&mut f.degrades);
    }
    keyed.sort_by_key(|&(k, _)| k);
    degs.sort_by_key(|&(k, _)| k);
    for (_, e) in keyed {
        out.push(e);
    }
    for (_, d) in degs {
        out.record_degrade(d.ordinal, d.objects_coarse, d.cause, &d.error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_keys_order_like_dfs() {
        let root = PathKey::ROOT;
        let a = root.child(0, 0);
        let b = root.child(0, 1);
        let a0 = a.child(1, 0);
        let a7 = a.child(1, 7);
        // Parent before its descendants, descendants before later siblings.
        assert!(root < a);
        assert!(a < a0);
        assert!(a0 < a7);
        assert!(a7 < b);
        // Distinct positions never collide.
        let keys = [root, a, b, a0, a7];
        for (i, x) in keys.iter().enumerate() {
            for (j, y) in keys.iter().enumerate() {
                assert_eq!(i == j, x == y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "deeper than PathKey encodes")]
    fn path_key_depth_is_bounded() {
        let mut k = PathKey::ROOT;
        for d in 0..=PathKey::MAX_DEPTH {
            k = k.child(d, 0);
        }
    }
}
