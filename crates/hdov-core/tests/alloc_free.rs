//! The acceptance criterion of the zero-copy read path: a steady-state
//! `search_shared_into` over warm pools performs **zero** heap allocations.
//! Every byte the query touches is either a pooled frame (`Arc` clone), a
//! decoded overlay (`Arc` clone), or a buffer reused from `SessionCtx` /
//! `SearchScratch`. The walkthrough frame built on it —
//! `query_delta_into_budgeted` with a live `DeltaSearch` — allocates
//! nothing either once its resident set is warm.
//!
//! A pool miss into a full stripe allocates nothing either once the stripe
//! has parked an evicted frame to refill (mem and pread backends).
//!
//! The counting global allocator counts per thread, so each test measures
//! only its own queries while the harness runs the others. Obs stays
//! disabled (registering a thread-local recorder allocates on first use,
//! and the all-hits contract is about the production default).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use hdov_core::{
    search_shared_into, DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, QueryBudget,
    SearchScratch, SessionCtx, SharedEnvironment, StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{
    DiskModel, FrozenPages, IoCursor, MemPagedFile, Page, PageId, PagedFile, SharedCachedFile,
    StorageBackend,
};
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

#[test]
fn steady_state_pool_misses_allocate_nothing() {
    assert!(!hdov_obs::is_enabled(), "obs must stay disabled here");
    const PAGES: u64 = 64;
    let mut file = MemPagedFile::new();
    for i in 0..PAGES {
        let id = file.allocate_page().unwrap();
        file.write_page(id, &Page::from_bytes(&i.to_le_bytes()))
            .unwrap();
    }
    let data = FrozenPages::from_mem(file);
    let dir = std::env::temp_dir().join(format!("hdov_alloc_free_miss_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pages.hdov");
    data.write_store(&path, 1).unwrap();

    for (label, data) in [
        ("mem", data),
        ("file:pread", FrozenPages::open_pread(&path).unwrap()),
    ] {
        // 8 frames over 4 stripes against a 64-page cycle: every read
        // misses, and every miss evicts from a full stripe.
        let pool = SharedCachedFile::new(data, DiskModel::PAPER_ERA, 8, 4);
        let mut cur = IoCursor::new();
        let mut cycle = |pool: &SharedCachedFile| {
            for i in 0..PAGES {
                let frame = pool.read_frame(&mut cur, PageId(i)).unwrap();
                assert_eq!(&frame.bytes()[..8], &i.to_le_bytes());
            }
        };
        // Warm-up: fills every stripe, parks a spare in each, and grows
        // each stripe's page map to its high-water mark.
        for _ in 0..2 {
            cycle(&pool);
        }
        let misses_before = pool.hit_stats().1;
        let before = allocations();
        for _ in 0..4 {
            cycle(&pool);
        }
        let allocated = allocations() - before;
        let misses = pool.hit_stats().1 - misses_before;
        assert_eq!(misses, 4 * PAGES, "{label}: every read must miss");
        assert_eq!(
            allocated, 0,
            "{label}: {allocated} allocations over {misses} steady-state misses"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cells` cells over `nodes` nodes with varied V-pages (a third of the
/// pairs hidden), so records of different lengths share disk pages.
fn varied_store(nodes: u32, cells: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let counts: Vec<u16> = (0..nodes).map(|o| 1 + (o * 7 % 12) as u16).collect();
    let cells = (0..cells)
        .map(|c| {
            (0..nodes)
                .filter(|o| (o + c) % 3 != 0)
                .map(|o| {
                    let entries = (0..u32::from(counts[o as usize]))
                        .map(|i| VEntry {
                            dov: ((o * 31 + c * 17 + i * 5) % 100) as f32 / 100.0,
                            nvo: (o * 977 + c * 131 + i * 31) % 5000,
                        })
                        .collect();
                    (o, VPage::new(entries))
                })
                .collect()
        })
        .collect();
    (counts, cells)
}

#[test]
fn shared_vpage_reads_equal_sequential_reads() {
    let (counts, cells) = varied_store(90, 5);
    for codec in [VPageCodec::Raw, VPageCodec::Delta] {
        for scheme in [
            StorageScheme::Horizontal,
            StorageScheme::Vertical,
            StorageScheme::IndexedVertical,
        ] {
            let mut seq = scheme
                .build(&counts, &cells, DiskModel::PAPER_ERA, codec)
                .unwrap();
            let shared = scheme
                .build(&counts, &cells, DiskModel::PAPER_ERA, codec)
                .unwrap()
                .into_shared(PoolConfig {
                    capacity_pages: 4096,
                    ..PoolConfig::default()
                });
            let mut ctx = SessionCtx::new();
            let mut visible = 0;
            // Every (cell, node) pair: together these reach every record of
            // the V-page file.
            for cell in 0..cells.len() as CellId {
                seq.enter_cell(cell).unwrap();
                shared.enter_cell(&mut ctx, cell).unwrap();
                for ordinal in 0..counts.len() as u32 {
                    let want = seq.fetch(ordinal).unwrap();
                    let got = shared.fetch(&mut ctx, ordinal).unwrap();
                    assert_eq!(
                        want.as_ref(),
                        got.as_deref(),
                        "{scheme}, {codec:?}: cell {cell}, node {ordinal}"
                    );
                    if let Some(got) = got {
                        visible += 1;
                        // Memoized for the frame's residency: a re-read
                        // shares the decoded record.
                        let again = shared.fetch(&mut ctx, ordinal).unwrap().unwrap();
                        assert!(Arc::ptr_eq(&got, &again), "{scheme}, {codec:?}");
                    }
                }
            }
            assert!(visible > 0);
        }
    }
}
