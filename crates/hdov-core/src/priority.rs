//! Frustum-prioritized traversal — the paper's third claimed advantage and
//! stated future work (§3.2, §6).
//!
//! "The spatial structure being used facilitates the design of a traversal
//! algorithm that prioritizes the nodes to be searched. In other words,
//! regions that are closer to the current view frustum can be traversed
//! first, while regions that are outside the view frustum can be delayed.
//! This can further improve the response time significantly."
//!
//! [`search_prioritized`] replaces Fig. 3's depth-first recursion with a
//! best-first queue ordered by *(inside frustum, distance to eye)*. Semantics
//! are unchanged — run to completion and the answer set equals the plain
//! search — but content in front of the viewer is fetched first, so a
//! *budgeted* query (a frame deadline) captures far more of the visually
//! important mass before the deadline than blind truncation would.

use crate::build::HdovTree;
use crate::delta::DeltaSearch;
use crate::search::{ObjectModels, QueryResult, ResultKey};
use crate::storage::VisibilityStore;
use crate::walk::{internal_k, object_k, resolve, terminates, SeqSource, Source};
use crate::SearchStats;
use hdov_geom::{Aabb, Frustum};
use hdov_storage::Result;
use hdov_visibility::CellId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Loading priority of a work item: in-frustum content strictly before
/// out-of-frustum content, nearer before farther within each class.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Priority {
    in_frustum: bool,
    neg_distance: f64, // max-heap: larger = higher priority
}

impl Priority {
    fn of(mbr: &Aabb, frustum: &Frustum) -> Priority {
        Priority {
            in_frustum: frustum.intersects_aabb(mbr),
            neg_distance: -mbr.distance_to_point(frustum.eye),
        }
    }
}

impl Eq for Priority {}
impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Priority {
    fn cmp(&self, other: &Self) -> Ordering {
        self.in_frustum.cmp(&other.in_frustum).then_with(|| {
            self.neg_distance
                .partial_cmp(&other.neg_distance)
                .unwrap_or(Ordering::Equal)
        })
    }
}

enum Work {
    Node(u32),
    Object { id: u64, dov: f32 },
    Internal { ordinal: u32, dov: f32 },
}

struct Item {
    priority: Priority,
    seq: u64, // FIFO tie-break keeps identical-priority order deterministic
    work: Work,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Item {}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Outcome of a prioritized (possibly budgeted) query.
#[derive(Debug, Clone)]
pub struct PrioritizedOutcome {
    /// Entries in *load order* (highest priority first).
    pub result: QueryResult,
    /// True when the traversal ran to completion; false when the time budget
    /// expired with work remaining.
    pub completed: bool,
    /// Simulated time spent when the traversal stopped (ms).
    pub spent_ms: f64,
}

/// Best-first variant of the Fig. 3 search.
///
/// * `frustum` — the camera volume driving prioritization (its `eye` is the
///   distance reference).
/// * `budget_ms` — optional simulated-time deadline; when it expires,
///   already-loaded entries are returned with `completed = false`.
///
/// Run without a budget the answer set is identical to
/// [`search`](crate::search::search) (entry order differs).
pub fn search_prioritized(
    tree: &mut HdovTree,
    vstore: &mut dyn VisibilityStore,
    objects: &mut ObjectModels,
    cell: CellId,
    eta: f64,
    frustum: &Frustum,
    budget_ms: Option<f64>,
) -> Result<(PrioritizedOutcome, SearchStats)> {
    search_prioritized_delta(tree, vstore, objects, cell, eta, frustum, budget_ms, None)
}

/// [`search_prioritized`] with a delta-search resident set: entries
/// resident at the selected LoD level are returned `cached` and cost no
/// model I/O, so a walkthrough's per-frame budget is spent on *new* content.
#[allow(clippy::too_many_arguments)]
pub fn search_prioritized_delta(
    tree: &mut HdovTree,
    vstore: &mut dyn VisibilityStore,
    objects: &mut ObjectModels,
    cell: CellId,
    eta: f64,
    frustum: &Frustum,
    budget_ms: Option<f64>,
    skip: Option<&DeltaSearch>,
) -> Result<(PrioritizedOutcome, SearchStats)> {
    assert!(eta >= 0.0, "eta must be non-negative");
    let mut src = SeqSource {
        tree,
        vstore,
        objects,
    };
    let start = src.begin();
    src.enter_cell(cell)?;

    let mut stats = SearchStats::default();
    let mut out = QueryResult::default();
    let mut heap: BinaryHeap<Item> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Item>, seq: &mut u64, mbr: &Aabb, work: Work| {
        heap.push(Item {
            priority: Priority::of(mbr, frustum),
            seq: *seq,
            work,
        });
        *seq += 1;
    };

    // Seed with the root.
    let root_mbr = Aabb::new(frustum.eye, frustum.eye); // highest priority
    push(
        &mut heap,
        &mut seq,
        &root_mbr,
        Work::Node(src.root_ordinal()),
    );

    let mut completed = true;
    let spent = |src: &SeqSource, stats: &SearchStats| -> f64 {
        let mut io = *stats;
        src.finish(&start, &mut io);
        let io_us = io.node_io.elapsed_us
            + io.internal_io.elapsed_us
            + io.model_io.elapsed_us
            + io.vstore_io.elapsed_us;
        (io_us + stats.nodes_visited as f64 * crate::search::CPU_PER_NODE_US) / 1000.0
    };

    while let Some(item) = heap.pop() {
        if let Some(budget) = budget_ms {
            if spent(&src, &stats) >= budget {
                completed = false;
                break;
            }
        }
        match item.work {
            Work::Node(ordinal) => {
                let Some(vpage) = src.vpage(ordinal)? else {
                    continue;
                };
                stats.vpages_fetched += 1;
                if !vpage.any_visible() {
                    continue;
                }
                let node = src.node(ordinal)?;
                stats.nodes_visited += 1;
                for (entry, ve) in node.entries.iter().zip(&vpage.entries) {
                    if ve.dov <= 0.0 {
                        continue;
                    }
                    let work = if entry.is_object() {
                        Work::Object {
                            id: entry.child,
                            dov: ve.dov,
                        }
                    } else if (ve.dov as f64) <= eta && terminates(&src, entry, ve) {
                        Work::Internal {
                            ordinal: entry.child_ordinal,
                            dov: ve.dov,
                        }
                    } else {
                        Work::Node(entry.child_ordinal)
                    };
                    push(&mut heap, &mut seq, &entry.mbr, work);
                }
            }
            Work::Object { id, dov } => {
                out.push(resolve(
                    &mut src,
                    ResultKey::Object(id),
                    object_k(dov),
                    dov,
                    skip,
                )?);
            }
            Work::Internal { ordinal, dov } => {
                let key = ResultKey::Internal(ordinal);
                out.push(resolve(&mut src, key, internal_k(dov, eta), dov, skip)?);
            }
        }
    }

    src.finish(&start, &mut stats);
    let spent_ms = stats.search_time_ms();
    Ok((
        PrioritizedOutcome {
            result: out,
            completed,
            spent_ms,
        },
        stats,
    ))
}
