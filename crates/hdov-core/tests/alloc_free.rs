//! The acceptance criterion of the zero-copy read path: a steady-state
//! `search_shared_into` over warm pools performs **zero** heap allocations.
//! Every byte the query touches is either a pooled frame (`Arc` clone), a
//! decoded overlay (`Arc` clone), or a buffer reused from `SessionCtx` /
//! `SearchScratch`. The walkthrough frame built on it —
//! `query_delta_into_budgeted` with a live `DeltaSearch` — allocates
//! nothing either once its resident set is warm.
//!
//! The counting global allocator counts per thread, so each test measures
//! only its own queries while the harness runs the others. Obs stays
//! disabled (registering a thread-local recorder allocates on first use,
//! and the all-hits contract is about the production default).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdov_core::{
    search_shared_into, DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, QueryBudget,
    SearchScratch, SharedEnvironment, StorageScheme, VPageCodec,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::StorageBackend;
use hdov_visibility::{CellGridConfig, CellId};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn steady_state_search_shared_allocates_nothing() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    let scene = CityConfig::tiny().seed(5).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(3, 3);
    let store_dir = std::env::temp_dir().join(format!("hdov_alloc_free_{}", std::process::id()));

    // Both wire formats: the Delta codec's batch decode lands in the
    // OnceLock overlay exactly once per pool residency, so an all-hits
    // steady state never decodes (and never allocates) either way.
    for codec in [VPageCodec::Raw, VPageCodec::Delta] {
        for scheme in [StorageScheme::Vertical, StorageScheme::IndexedVertical] {
            // The contract holds on the mmap backend too: pool misses hand
            // out frames borrowing file-mapped bytes, still without
            // allocating.
            for backend in [
                StorageBackend::Mem,
                StorageBackend::file(store_dir.join(format!("{scheme}_{codec:?}"))),
            ] {
                let label = backend.label();
                let cfg = HdovBuildConfig {
                    codec,
                    ..HdovBuildConfig::fast_test()
                };
                // Pools big enough that the steady state is all-hits.
                let mut built = HdovEnvironment::build(&scene, &grid_cfg, cfg, scheme).unwrap();
                built.relocate(&backend).unwrap();
                // replicas: 2 puts the ReplicaSet (failover bitmask, health
                // book) in the read path — it must stay alloc-free too.
                let env = built.into_shared(PoolConfig {
                    capacity_pages: 4096,
                    shards: 8,
                    replicas: 2,
                    ..PoolConfig::default()
                });
                let cells: Vec<CellId> = (0..env.grid().cell_count() as CellId).collect();
                let mut ctx = env.session();
                let mut scratch = SearchScratch::new();

                for prefetch in [false, true] {
                    // Warm-up: two full rounds populate the pools and grow every
                    // reused buffer (segments, staging bytes, prefetch list,
                    // result entries) to its per-workload high-water mark.
                    for _ in 0..2 {
                        for &cell in &cells {
                            for eta in [0.0, 0.004] {
                                search_shared_into(
                                    &env,
                                    &mut ctx,
                                    &mut scratch,
                                    cell,
                                    eta,
                                    None,
                                    prefetch,
                                )
                                .unwrap();
                            }
                        }
                    }

                    // Steady state: the same workload must never touch the
                    // allocator — cell flips, prefetch probes, node and V-page
                    // reads, LoD charging, and result assembly included.
                    let before = allocations();
                    let mut polygons = 0u64;
                    for &cell in &cells {
                        for eta in [0.0, 0.004] {
                            let stats = search_shared_into(
                                &env,
                                &mut ctx,
                                &mut scratch,
                                cell,
                                eta,
                                None,
                                prefetch,
                            )
                            .unwrap();
                            assert!(stats.nodes_visited > 0);
                            polygons += scratch.result().total_polygons();
                        }
                    }
                    let after = allocations();
                    assert!(polygons > 0, "queries must produce visible polygons");
                    assert_eq!(
                        after - before,
                        0,
                        "steady-state all-hits search_shared_into allocated \
                         ({scheme}, {codec:?}, backend {label}, prefetch {prefetch})"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&store_dir).ok();
}

/// Freezes `scene` under every codec × scheme × backend combination the
/// walkthrough test covers, with pools big enough that the steady state is
/// all-hits, and hands each environment to `check` with its label.
fn for_each_environment(scene: &Scene, mut check: impl FnMut(&SharedEnvironment, String)) {
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    let store_dir =
        std::env::temp_dir().join(format!("hdov_alloc_free_walk_{}", std::process::id()));
    for codec in [VPageCodec::Raw, VPageCodec::Delta] {
        for scheme in [StorageScheme::Vertical, StorageScheme::IndexedVertical] {
            let dir = store_dir.join(format!("{scheme}_{codec:?}"));
            let backends = [
                StorageBackend::Mem,
                StorageBackend::from_arg("file:mmap", &dir.join("mmap")).unwrap(),
                StorageBackend::from_arg("file:pread", &dir.join("pread")).unwrap(),
            ];
            for backend in backends {
                let cfg = HdovBuildConfig {
                    codec,
                    ..HdovBuildConfig::fast_test()
                };
                let mut built = HdovEnvironment::build(scene, &grid_cfg, cfg, scheme).unwrap();
                built.relocate(&backend).unwrap();
                let env = built.into_shared(PoolConfig {
                    capacity_pages: 4096,
                    shards: 8,
                    ..PoolConfig::default()
                });
                check(
                    &env,
                    format!("{scheme}, {codec:?}, backend {}", backend.label()),
                );
            }
        }
    }
    std::fs::remove_dir_all(&store_dir).ok();
}

#[test]
fn steady_state_walkthrough_frame_allocates_nothing() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    const FRAMES_PER_CELL: usize = 6;
    let scene = CityConfig::tiny().seed(5).generate();
    for_each_environment(&scene, |env, label| {
        let cells: Vec<CellId> = (0..env.grid().cell_count() as CellId).collect();
        let viewpoints: Vec<_> = cells
            .iter()
            .map(|&c| {
                env.grid()
                    .sample_viewpoints(c, FRAMES_PER_CELL, u64::from(c))
            })
            .collect();
        let mut ctx = env.session();
        let mut scratch = SearchScratch::new();
        let mut delta = DeltaSearch::new();
        let frame = |ctx: &mut _, scratch: &mut _, delta: &mut _, vp| {
            env.query_delta_into_budgeted(ctx, scratch, vp, 0.004, delta, QueryBudget::UNLIMITED)
                .unwrap()
        };

        // Warm-up: two full walks over every cell populate the pools and
        // grow the session buffers and the resident set to their
        // high-water marks.
        for _ in 0..2 {
            for vps in &viewpoints {
                for &vp in vps {
                    frame(&mut ctx, &mut scratch, &mut delta, vp);
                }
            }
        }

        // Steady state: entering a cell reshapes the resident set, then
        // every further frame in the same cell must not touch the
        // allocator — segment reuse, prefetch probes, node and V-page
        // reads, skip lookups, result assembly and the delta fold included.
        for (cell, vps) in cells.iter().zip(&viewpoints) {
            frame(&mut ctx, &mut scratch, &mut delta, vps[0]);
            let resident = delta.resident_count();
            let before = allocations();
            for &vp in &vps[1..] {
                let (stats, summary) = frame(&mut ctx, &mut scratch, &mut delta, vp);
                assert!(stats.nodes_visited > 0);
                assert_eq!(summary.added, 0, "same-cell frames reuse everything");
                assert_eq!(summary.retained, scratch.result().entries().len());
                assert_eq!(summary.evicted, 0);
            }
            let after = allocations();
            assert_eq!(delta.resident_count(), resident);
            assert!(
                resident > 0,
                "cell {cell} must have a visible answer ({label})"
            );
            assert_eq!(
                after - before,
                0,
                "steady-state walkthrough frames allocated (cell {cell}, {label})"
            );
        }
    });
}
