//! The sharding contract (ISSUE 10 / DESIGN.md §17):
//!
//! * fault-free sharded answers are **byte-identical** to the unsharded
//!   search — per frame, entry for entry, for 1 shard and for N shards;
//! * the merged frame is deterministic under every shard-reply-order
//!   permutation (proptest);
//! * a shard killed mid-run degrades frames instead of failing them, trips
//!   its breaker, and recovers after revival;
//! * a default-configured router keeps every fault-domain mechanism inert.

use hdov_core::shard::{merge_frames, PathKey, ShardFrame};
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, PoolConfig, QueryResult, ResultEntry, ResultKey,
    SharedEnvironment, StorageScheme,
};
use hdov_scene::CityConfig;
use hdov_shard::{
    BreakerState, RouterConfig, ShardChaos, ShardRouter, ShardedConfig, ShardedServer,
};
use hdov_visibility::{CellGridConfig, CellId};
use hdov_walkthrough::{ServerConfig, Session, SessionKind, SessionServer};
use proptest::prelude::*;

fn seq_env() -> HdovEnvironment {
    let scene = CityConfig::tiny().seed(11).generate();
    let grid_cfg = CellGridConfig::for_scene(&scene).with_resolution(4, 4);
    HdovEnvironment::build(
        &scene,
        &grid_cfg,
        HdovBuildConfig::fast_test(),
        StorageScheme::IndexedVertical,
    )
    .unwrap()
}

fn shared_env() -> SharedEnvironment {
    seq_env().into_shared(PoolConfig::default())
}

fn record_sessions(env: &SharedEnvironment, n: usize, frames: usize) -> Vec<Session> {
    let b = env.grid().region();
    (0..n)
        .map(|i| Session::record(b, SessionKind::all()[i % 3], frames, 1000 + i as u64))
        .collect()
}

/// Frame-level byte-identity: every delta frame of a walkthrough routed
/// through `shards` shards carries exactly the entries (keys, levels,
/// polygon counts, cached flags — everything) the unsharded search emits.
fn assert_frames_identical(shards: usize) {
    let env = shared_env();
    let router = ShardRouter::new(&env, shards, RouterConfig::default()).unwrap();
    let session = &record_sessions(&env, 1, 30)[0];

    let mut ctx = env.session();
    let mut delta = DeltaSearch::new();
    let mut lane = router.lane();
    for (i, &vp) in session.viewpoints.iter().enumerate() {
        let (want, _, _) = env.query_delta(&mut ctx, vp, 0.002, &mut delta).unwrap();
        router.route(&mut lane, vp, 0.002);
        let got = lane.merged();
        assert_eq!(
            got.entries(),
            want.entries(),
            "frame {i} diverged through {shards} shard(s)"
        );
        assert_eq!(got.total_polygons(), want.total_polygons());
        assert_eq!(got.degrade().events().len(), want.degrade().events().len());
    }
    assert_eq!(router.totals().degraded_frames, 0);
    assert_eq!(router.totals().breaker_opens, 0);
}

#[test]
fn single_shard_frames_are_byte_identical_to_unsharded() {
    assert_frames_identical(1);
}

#[test]
fn four_shard_frames_are_byte_identical_to_unsharded() {
    assert_frames_identical(4);
}

#[test]
fn seven_shard_frames_are_byte_identical_to_unsharded() {
    // A deliberately lopsided count: the tile grid (3×3 for 7) leaves two
    // tiles empty-handed, exercising uneven ownership.
    assert_frames_identical(7);
}

fn object_set(r: &QueryResult) -> Vec<(ResultKey, usize)> {
    let mut v: Vec<_> = r.entries().iter().map(|e| (e.key, e.level)).collect();
    v.sort();
    v
}

/// An oracle that shares no code with the Fig. 3 walk: at η = 0 no
/// internal LoD can be emitted, so the merged frame of every cell must hold
/// exactly the naïve (cell, list-of-objects) answer, same levels.
fn assert_eta_zero_matches_naive(shards: usize) {
    let mut seq = seq_env();
    let viewpoints: Vec<_> = (0..seq.grid().cell_count() as CellId)
        .map(|c| seq.grid().cell_bounds(c).center())
        .collect();
    let naive: Vec<_> = viewpoints
        .iter()
        .map(|&vp| object_set(&seq.query_naive(vp).unwrap().0))
        .collect();
    assert!(naive.iter().any(|n| !n.is_empty()), "nothing visible");
    let env = seq.into_shared(PoolConfig::default());
    let router = ShardRouter::new(&env, shards, RouterConfig::default()).unwrap();
    let mut lane = router.lane();
    for (cell, &vp) in viewpoints.iter().enumerate() {
        router.route(&mut lane, vp, 0.0);
        let got = lane.merged();
        assert_eq!(
            object_set(got),
            naive[cell],
            "cell {cell} through {shards} shard(s)"
        );
        assert_eq!(got.internal_count(), 0);
    }
}

#[test]
fn single_shard_eta_zero_matches_naive_query() {
    assert_eta_zero_matches_naive(1);
}

#[test]
fn four_shard_eta_zero_matches_naive_query() {
    assert_eta_zero_matches_naive(4);
}

/// Whole-server equality: the sharded server's per-session answers match
/// the unsharded `SessionServer` on the same recorded walkthroughs.
#[test]
fn sharded_server_answers_match_unsharded_server() {
    let env = shared_env();
    let sessions = record_sessions(&env, 4, 25);
    let plain = SessionServer::new(&env, ServerConfig::default())
        .run(&sessions, 2)
        .unwrap();
    let router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    let sharded = ShardedServer::new(&router, ShardedConfig::default())
        .run(&sessions, 2)
        .unwrap();
    assert_eq!(sharded.shard_degraded_frames, 0);
    assert_eq!(sharded.shard_timeouts, 0);
    assert_eq!(sharded.hedged_reads, 0);
    assert_eq!(sharded.breaker_opens, 0);
    for (a, b) in plain.sessions.iter().zip(&sharded.report.sessions) {
        assert_eq!(a.session, b.session);
        assert_eq!(a.total_polygons, b.total_polygons, "session {}", a.session);
        assert_eq!(a.lod_level_sum, b.lod_level_sum, "session {}", a.session);
        assert_eq!(a.lod_entries, b.lod_entries, "session {}", a.session);
        assert_eq!(b.failed_frames, 0);
        assert_eq!(b.degraded_frames, 0);
    }
}

/// The shard-kill drill (ISSUE 10 acceptance): N = 4 shards, one killed
/// mid-run. Zero failed frames, degraded frames observed, the victim's
/// breaker opens, and after revival it re-closes — the fleet heals.
#[test]
fn shard_kill_drill_degrades_and_recovers() {
    let env = shared_env();
    let mut router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    router.set_chaos(Some(ShardChaos {
        shard: 1,
        kill_at_frame: 10,
        revive_at_frame: 45,
    }));
    let sessions = record_sessions(&env, 3, 40);
    let report = ShardedServer::new(&router, ShardedConfig::default())
        .run(&sessions, 2)
        .unwrap();

    for s in &report.report.sessions {
        assert_eq!(s.failed_frames, 0, "a dead shard must never fail a frame");
        assert_eq!(s.search_ms.len(), 40, "every frame answered");
        assert!(s.total_polygons > 0);
    }
    assert!(
        report.shard_degraded_frames > 0,
        "the outage window must serve covers"
    );
    assert!(report.breaker_opens >= 1, "the victim's breaker must trip");
    assert_eq!(
        router.breaker_state(1),
        BreakerState::Closed,
        "post-revival probes must re-close the breaker"
    );
    for s in [0, 2, 3] {
        assert_eq!(router.breaker_state(s), BreakerState::Closed);
    }
    let t = router.totals();
    assert!(t.degraded_frames > 0);
    assert_eq!(t.timeouts, 0, "liveness faults are not deadline faults");
}

/// Starvation deadline: every sub-query times out, every frame degrades to
/// covers, yet nothing fails and the timeout books balance.
#[test]
fn impossible_deadline_degrades_every_frame() {
    let env = shared_env();
    let router = ShardRouter::new(
        &env,
        4,
        RouterConfig {
            deadline_sim_ms: 0.0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let sessions = record_sessions(&env, 2, 10);
    let report = ShardedServer::new(&router, ShardedConfig::default())
        .run(&sessions, 1)
        .unwrap();
    assert_eq!(report.shard_degraded_frames, 20, "every frame degrades");
    assert!(report.shard_timeouts > 0);
    for s in &report.report.sessions {
        assert_eq!(s.failed_frames, 0);
        assert!(s.total_polygons > 0, "covers are a real picture");
    }
}

/// Hedged reads: with replicas attached and a hair-trigger hedge threshold,
/// hedges fire, answers stay byte-identical, and nothing degrades.
#[test]
fn hedged_reads_do_not_change_answers() {
    let env = shared_env();
    let plain = ShardRouter::new(&env, 2, RouterConfig::default()).unwrap();
    let hedged = ShardRouter::new_hedged(
        &env,
        2,
        RouterConfig {
            hedge_sim_ms: 0.0,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let session = &record_sessions(&env, 1, 15)[0];
    let mut lane_a = plain.lane();
    let mut lane_b = hedged.lane();
    for &vp in &session.viewpoints {
        plain.route(&mut lane_a, vp, 0.002);
        hedged.route(&mut lane_b, vp, 0.002);
        assert_eq!(lane_a.merged().entries(), lane_b.merged().entries());
    }
    assert!(hedged.totals().hedged > 0, "0ms threshold must hedge");
    assert_eq!(hedged.totals().degraded_frames, 0);
    assert_eq!(plain.totals().hedged, 0, "no replicas, no hedges");
}

/// Global admission: one logical slot per visitor across all shards — the
/// overflow sheds exactly as the unsharded book would.
#[test]
fn global_admission_sheds_overflow_once() {
    let env = shared_env();
    let router = ShardRouter::new(&env, 4, RouterConfig::default()).unwrap();
    let sessions = record_sessions(&env, 5, 8);
    let report = ShardedServer::new(
        &router,
        ShardedConfig {
            admission: Some(hdov_walkthrough::AdmissionConfig::strict(2)),
            ..ShardedConfig::default()
        },
    )
    .run(&sessions, 3)
    .unwrap();
    let shed = report.report.shed_sessions();
    assert!(shed > 0, "3 workers racing 2 global slots must shed");
    assert_eq!(report.report.backpressure.admitted + shed, 5);
    for s in report.report.sessions.iter().filter(|s| s.shed) {
        assert_eq!(s.failed_frames, 0);
        assert_eq!(
            s.page_reads, 0,
            "shed visitors stay off every shard's disks"
        );
        assert!(s.total_polygons > 0);
    }
}

// ---------------------------------------------------------------------------
// Merge determinism under reply-order permutations (satellite 3 proptest).
// ---------------------------------------------------------------------------

fn entry(id: u64) -> ResultEntry {
    ResultEntry {
        key: ResultKey::Object(id),
        level: (id % 4) as usize,
        polygons: 10 + id,
        bytes: 100 + id,
        dov: 0.25,
        cached: false,
    }
}

/// Distinct [`PathKey`]s from a compact index: a two-level path, so sibling
/// and ancestor orderings both occur.
fn key_of(i: usize) -> PathKey {
    PathKey::ROOT.child(0, i / 8).child(1, i % 8)
}

fn merged(frames: &mut [ShardFrame]) -> QueryResult {
    let mut out = QueryResult::default();
    merge_frames(frames, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However entries are scattered across shard slots — and whatever
    /// order each shard's reply filled its slot in — the merged frame is
    /// one fixed, key-sorted sequence.
    #[test]
    fn merge_is_invariant_under_reply_order(
        owners in prop::collection::vec(0usize..5, 1..40),
        seed in prop::collection::vec(0u32..1_000_000, 1..40),
    ) {
        let n = owners.len().min(seed.len());

        // Canonical frames: entry i lives in shard owners[i], slots filled
        // in index order (the DFS order a real sub-query emits).
        let mut canonical: Vec<ShardFrame> = (0..5).map(|_| ShardFrame::new()).collect();
        for i in 0..n {
            canonical[owners[i]].push_for_test(key_of(i), entry(i as u64));
        }
        let want = merged(&mut canonical.clone());

        // A "reply-order permutation": each shard fills its slot in an
        // arbitrary order derived from the seed. The slot-per-shard design
        // plus the stable key sort must erase every trace of it.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (seed[i], i));
        let mut permuted: Vec<ShardFrame> = (0..5).map(|_| ShardFrame::new()).collect();
        for &i in &order {
            permuted[owners[i]].push_for_test(key_of(i), entry(i as u64));
        }
        let got = merged(&mut permuted);

        prop_assert_eq!(got.entries(), want.entries());
        // And the merged order is exactly the global key order.
        let mut keys: Vec<usize> = (0..n).collect();
        keys.sort_by_key(|&i| key_of(i));
        let by_key: Vec<ResultEntry> = keys.into_iter().map(|i| entry(i as u64)).collect();
        prop_assert_eq!(want.entries(), &by_key[..]);
    }

    /// Duplicate keys (possible only under multi-shard faults) resolve by
    /// shard order — the stable-sort tiebreak — never by completion order.
    #[test]
    fn merge_breaks_duplicate_keys_by_shard_order(dup in 0usize..16) {
        let mut frames: Vec<ShardFrame> = (0..3).map(|_| ShardFrame::new()).collect();
        let mut a = entry(7);
        a.level = 0;
        let mut b = entry(7);
        b.level = 3;
        frames[0].push_for_test(key_of(dup), a);
        frames[2].push_for_test(key_of(dup), b);
        let out = merged(&mut frames);
        prop_assert_eq!(out.entries().len(), 2);
        prop_assert_eq!(out.entries()[0].level, 0, "shard 0's copy first");
        prop_assert_eq!(out.entries()[1].level, 3);
    }
}
