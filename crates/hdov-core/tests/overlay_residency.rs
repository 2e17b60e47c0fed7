//! Residency semantics of the decoded-overlay cache:
//!
//! (a) a frame's decoded overlay is dropped exactly when the frame is
//!     evicted — no unbounded decoded-object memory — while data an active
//!     session still holds stays alive through its own `Arc`;
//! (b) the fig7/fig8 simulated-cost tables are byte-identical with overlays
//!     on vs. off (the overlay is pure CPU memoization, never cost model);
//! (c) concurrent sessions racing on one frame observe exactly one decode:
//!     `decode_misses == pool_misses` for node pages.
//!
//! The obs registry is process-wide, so every test serializes on one lock;
//! only (c) enables recording, inside its critical section.

use std::sync::{Arc, Mutex, MutexGuard};

use hdov_core::{
    search_shared, HdovBuildConfig, HdovEnvironment, PoolConfig, SessionCtx, SharedEnvironment,
    StorageScheme, VEntry, VPage, VPageCodec,
};
use hdov_scene::{CityConfig, Scene};
use hdov_storage::{DiskModel, IoCursor, PageId, PAGE_SIZE};
use hdov_visibility::{CellGridConfig, CellId};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scene() -> Scene {
    CityConfig::tiny().seed(9).generate()
}

fn shared_env(scene: &Scene, scheme: StorageScheme, pool: PoolConfig) -> SharedEnvironment {
    let grid_cfg = CellGridConfig::for_scene(scene).with_resolution(3, 3);
    HdovEnvironment::build(scene, &grid_cfg, HdovBuildConfig::fast_test(), scheme)
        .unwrap()
        .into_shared(pool)
}

/// One cell of `n` visible nodes whose V-page records each fill a whole disk
/// page (a 500-entry capacity makes `record_bytes` 4004 of 4096), so record
/// `k` lives alone on disk page `k` and evictions can be steered per record.
fn one_record_per_page_store(n: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let mut counts = vec![2u16; n as usize];
    counts[0] = 500;
    let cell = (0..n)
        .map(|o| {
            (
                o,
                VPage::new(vec![
                    VEntry {
                        dov: 0.5,
                        nvo: o + 1
                    };
                    2
                ]),
            )
        })
        .collect();
    (counts, vec![cell])
}

/// Delta-codec store: every node carries a full-width 56-entry V-page with
/// spread-out NVOs, so the fixed Delta record slot is a few hundred bytes
/// and several records share each disk page (unlike the Raw helper above,
/// Delta records can never fill a whole page — the raw-fallback bound caps
/// them at `1 + 4 + 8·n` bytes).
fn wide_delta_store(n: u32) -> (Vec<u16>, Vec<Vec<(u32, VPage)>>) {
    let counts = vec![56u16; n as usize];
    let cell = (0..n)
        .map(|o| {
            (
                o,
                VPage::new(
                    (0..56)
                        .map(|i| VEntry {
                            dov: 0.5 + (i as f32) * 0.001,
                            nvo: o.wrapping_mul(977).wrapping_add(i * 31) % 100_000,
                        })
                        .collect(),
                ),
            )
        })
        .collect();
    (counts, vec![cell])
}

#[test]
fn overlay_dropped_exactly_on_frame_eviction() {
    let _g = serial();
    let (counts, cells) = one_record_per_page_store(8);
    let store = StorageScheme::Vertical
        .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Raw)
        .unwrap();
    // A single-shard two-frame V-page pool: reading three distinct pages is
    // guaranteed to evict the oldest.
    let vs = store.into_shared(PoolConfig {
        capacity_pages: 2,
        shards: 1,
        ..PoolConfig::default()
    });

    let mut ctx = SessionCtx::new();
    vs.enter_cell(&mut ctx, 0).unwrap();
    let v0 = vs.fetch(&mut ctx, 0).unwrap().unwrap();

    // While the frame is resident its overlay is populated, and every fetch
    // of the record shares the one decoded Arc.
    let frame = vs
        .vpages()
        .pool()
        .read_frame(&mut ctx.vpage_cur, PageId(0))
        .unwrap();
    assert!(frame.has_overlay(), "fetch must have decoded the overlay");
    let weak = Arc::downgrade(&frame);
    drop(frame);
    let v0_again = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(
        Arc::ptr_eq(&v0, &v0_again),
        "repeat fetch of a resident record must share the decoded Arc"
    );
    assert!(weak.upgrade().is_some(), "frame still pooled");

    // Stream four other pages through the two-frame pool: page 0's frame is
    // evicted, and the frame (with its overlay) dies immediately — the pool
    // held the only long-lived reference.
    for ordinal in 1..5 {
        vs.fetch(&mut ctx, ordinal).unwrap().unwrap();
    }
    assert!(
        weak.upgrade().is_none(),
        "evicted frame (and its overlay) must be dropped at eviction"
    );

    // The session's own Arc keeps the decoded record itself alive...
    assert_eq!(*v0, *v0_again);
    // ...and re-reading the page decodes afresh into a new Arc.
    let v0_redecoded = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(
        !Arc::ptr_eq(&v0, &v0_redecoded),
        "a re-pooled frame starts with an empty overlay slot"
    );
    assert_eq!(*v0, *v0_redecoded, "re-decode must agree");
}

#[test]
fn overlay_eviction_semantics_hold_under_delta_codec() {
    let _g = serial();
    let (counts, cells) = wide_delta_store(120);
    let store = StorageScheme::Vertical
        .build(&counts, &cells, DiskModel::PAPER_ERA, VPageCodec::Delta)
        .unwrap();
    let vs = store.into_shared(PoolConfig {
        capacity_pages: 2,
        shards: 1,
        ..PoolConfig::default()
    });

    let mut ctx = SessionCtx::new();
    vs.enter_cell(&mut ctx, 0).unwrap();
    // Vertical append order == ordinal here (one cell, all visible), so
    // record index k lives on disk page `disk_page_of(k)`.
    let v0 = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert_eq!(*v0, cells[0][0].1, "batch decode must reproduce the page");

    let frame = vs
        .vpages()
        .pool()
        .read_frame(&mut ctx.vpage_cur, PageId(vs.vpages().disk_page_of(0)))
        .unwrap();
    assert!(
        frame.has_overlay(),
        "fetch must have batch-decoded the overlay"
    );
    let weak = Arc::downgrade(&frame);
    drop(frame);
    let v0_again = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(
        Arc::ptr_eq(&v0, &v0_again),
        "repeat fetch of a resident record must share the decoded Arc"
    );
    // A neighbouring record on the same disk page shares the one batch
    // decode: no per-record decode work while the frame is resident.
    let same_page_neighbour = (1..120u32)
        .find(|&o| vs.vpages().disk_page_of(o as u64) == vs.vpages().disk_page_of(0))
        .expect("several delta records share a page");
    let vn = vs.fetch(&mut ctx, same_page_neighbour).unwrap().unwrap();
    assert_eq!(*vn, cells[0][same_page_neighbour as usize].1);

    // Stream records from four other disk pages through the two-frame pool:
    // page 0's frame — and its decoded overlay — dies at eviction.
    let mut seen = std::collections::HashSet::new();
    for o in 1..120u32 {
        let p = vs.vpages().disk_page_of(o as u64);
        if p != vs.vpages().disk_page_of(0) && seen.insert(p) {
            let got = vs.fetch(&mut ctx, o).unwrap().unwrap();
            assert_eq!(*got, cells[0][o as usize].1);
        }
        if seen.len() >= 4 {
            break;
        }
    }
    assert!(seen.len() >= 4, "store too small to steer eviction");
    assert!(
        weak.upgrade().is_none(),
        "evicted frame (and its overlay) must be dropped at eviction"
    );
    let v0_redecoded = vs.fetch(&mut ctx, 0).unwrap().unwrap();
    assert!(!Arc::ptr_eq(&v0, &v0_redecoded));
    assert_eq!(*v0, *v0_redecoded, "delta re-decode must agree");
}

#[test]
fn node_reads_share_one_decoded_arc() {
    let _g = serial();
    let scene = scene();
    let env = shared_env(
        &scene,
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    );
    let mut a_cur = IoCursor::new();
    let mut b_cur = IoCursor::new();
    let a = env.tree().read_node(&mut a_cur, 0).unwrap();
    let b = env.tree().read_node(&mut b_cur, 0).unwrap();
    assert!(
        Arc::ptr_eq(&a, &b),
        "two sessions reading one resident node page must share one decode"
    );
}

/// Reproduces the fig7/fig8 row computations (same metrics, same float
/// formatting as the bench bins) over the shared engine.
fn mini_fig_csvs(decode_overlay: bool) -> (String, String) {
    let scene = scene();
    let pool = PoolConfig {
        decode_overlay,
        ..PoolConfig::default()
    };
    let envs: Vec<SharedEnvironment> = StorageScheme::all()
        .into_iter()
        .map(|s| shared_env(&scene, s, pool))
        .collect();
    let mut ctxs: Vec<SessionCtx> = envs.iter().map(|e| e.session()).collect();
    let cells: Vec<CellId> = (0..envs[0].grid().cell_count() as CellId).collect();

    let mut fig7 = String::from("eta,horizontal_ms,vertical_ms,indexed_ms\n");
    let mut fig8 = String::from("eta,hdov_total,hdov_light\n");
    for eta in [0.0, 0.002, 0.01] {
        fig7.push_str(&format!("{eta}"));
        for (env, ctx) in envs.iter().zip(ctxs.iter_mut()) {
            let sum: f64 = cells
                .iter()
                .map(|&c| env.query_cell(ctx, c, eta).unwrap().1.search_time_ms())
                .sum();
            fig7.push_str(&format!(",{:.2}", sum / cells.len() as f64));
        }
        fig7.push('\n');

        let (mut total, mut light) = (0.0f64, 0.0f64);
        for &c in &cells {
            let (_, st) = envs[2].query_cell(&mut ctxs[2], c, eta).unwrap();
            total += st.total_io().page_reads as f64;
            light += st.light_io().page_reads as f64;
        }
        let n = cells.len() as f64;
        fig8.push_str(&format!("{eta},{:.1},{:.2}\n", total / n, light / n));
    }
    (fig7, fig8)
}

#[test]
fn fig7_fig8_tables_byte_identical_overlays_on_vs_off() {
    let _g = serial();
    let (fig7_on, fig8_on) = mini_fig_csvs(true);
    let (fig7_off, fig8_off) = mini_fig_csvs(false);
    assert_eq!(
        fig7_on, fig7_off,
        "overlay memoization must not move any fig7 search time"
    );
    assert_eq!(
        fig8_on, fig8_off,
        "overlay memoization must not move any fig8 page-I/O count"
    );
    assert_eq!(fig7_on.lines().count(), 4, "header + one row per eta");
    assert_eq!(fig8_on.lines().count(), 4);
}

#[test]
fn concurrent_sessions_observe_one_decode_per_node_frame() {
    let _g = serial();
    const SESSIONS: u32 = 4;
    let scene = scene();
    // Pool big enough that no node page is ever evicted: each page is then
    // loaded and decoded exactly once across every session.
    let env = shared_env(
        &scene,
        StorageScheme::IndexedVertical,
        PoolConfig {
            capacity_pages: 4096,
            shards: 8,
            ..PoolConfig::default()
        },
    );
    let n = env.tree().node_count();

    hdov_obs::reset();
    hdov_obs::enable();
    std::thread::scope(|s| {
        for _ in 0..SESSIONS {
            let env = &env;
            s.spawn(move || {
                let mut cur = IoCursor::new();
                for ordinal in 0..n {
                    env.tree().read_node(&mut cur, ordinal).unwrap();
                }
            });
        }
    });
    hdov_obs::disable();
    let snap = hdov_obs::snapshot("overlay_residency");
    hdov_obs::reset();

    let reads = u64::from(SESSIONS) * u64::from(n);
    // Node pages decode on every pooled read, so decode accounting mirrors
    // pool accounting exactly: one miss (= one decode) per frame load, one
    // hit per shared reuse — regardless of which thread won the race.
    assert_eq!(
        snap.counters["decode_hits"] + snap.counters["decode_misses"],
        reads
    );
    assert_eq!(snap.counters["decode_misses"], snap.counters["pool_misses"]);
    assert_eq!(snap.counters["decode_hits"], snap.counters["pool_hits"]);
    assert_eq!(
        snap.counters["pool_misses"],
        u64::from(n),
        "every node page loads exactly once across all sessions"
    );
    assert_eq!(
        snap.counters["bytes_copied_saved"],
        reads * PAGE_SIZE as u64,
        "every frame read saves one page memcpy"
    );
}

#[test]
fn vpage_reads_decode_one_record_per_distinct_record_per_residency() {
    let _g = serial();
    for codec in [VPageCodec::Raw, VPageCodec::Delta] {
        let (counts, cells) = wide_delta_store(120);
        let store = StorageScheme::Vertical
            .build(&counts, &cells, DiskModel::PAPER_ERA, codec)
            .unwrap();
        // One single-frame stripe: exactly the last page read is resident.
        let vs = store.into_shared(PoolConfig {
            capacity_pages: 1,
            shards: 1,
            ..PoolConfig::default()
        });
        let file = vs.vpages();
        let records = file.records();
        assert!(
            file.disk_page_of(records - 1) < records - 1,
            "{codec:?}: records must share disk pages"
        );
        // Every third record, every record twice over in page order, then
        // every other record backwards: re-reads within a residency and
        // re-admissions of evicted pages.
        let order: Vec<u64> = (0..records)
            .step_by(3)
            .chain((0..records).flat_map(|i| [i, i]))
            .chain((0..records).rev().step_by(2))
            .collect();
        let mut expected = 0u64;
        let mut resident = None;
        let mut decoded = std::collections::HashSet::new();
        for &idx in &order {
            let page = file.disk_page_of(idx);
            if resident != Some(page) {
                resident = Some(page);
                decoded.clear();
            }
            if decoded.insert(idx) {
                expected += 1;
            }
        }

        let mut cur = IoCursor::new();
        hdov_obs::reset();
        hdov_obs::enable();
        for &idx in &order {
            file.read(&mut cur, idx).unwrap();
        }
        hdov_obs::disable();
        let snap = hdov_obs::snapshot("overlay_residency");
        hdov_obs::reset();
        assert_eq!(
            snap.counters["codec_decodes"], expected,
            "{codec:?}: one decode per distinct record per residency"
        );
    }
}

#[test]
fn shared_answers_identical_overlays_on_vs_off() {
    let _g = serial();
    let scene = scene();
    let mut answers = Vec::new();
    for decode_overlay in [true, false] {
        let env = shared_env(
            &scene,
            StorageScheme::Vertical,
            PoolConfig {
                decode_overlay,
                ..PoolConfig::default()
            },
        );
        let mut ctx = env.session();
        let mut arm = Vec::new();
        for cell in 0..env.grid().cell_count() as CellId {
            let (r, st) = search_shared(&env, &mut ctx, cell, 0.003, None, true).unwrap();
            let keyed: Vec<_> = r
                .entries()
                .iter()
                .map(|e| (e.key, e.level, e.polygons, e.bytes))
                .collect();
            arm.push((keyed, st.nodes_visited, st.vpages_fetched));
        }
        answers.push(arm);
    }
    assert_eq!(
        answers[0], answers[1],
        "decode_overlay must change no answers and no traversal counts"
    );
}
