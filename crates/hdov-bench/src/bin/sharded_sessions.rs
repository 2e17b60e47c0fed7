//! **Sharded sessions** — the fault-domain drill behind DESIGN.md §17 and
//! the CI `shard-chaos` job.
//!
//! Replays a fixed set of recorded walkthroughs through a [`ShardRouter`]
//! over N tile shards (`--shards N`) and writes an **answer-only** CSV —
//! per-session polygon totals, served-LoD sums, degraded/failed/shed frame
//! counts; no timing or I/O columns, because shard pools warm differently
//! than one shared pool while the answers must not move. `--shards 0` runs
//! the plain unsharded `SessionServer` on the same sessions and writes the
//! same CSV, so CI can `cmp` a fault-free sharded run byte-for-byte against
//! the unsharded baseline.
//!
//! Chaos mode (`--kill-shard S [--kill-at-frame F --revive-at-frame G]`)
//! arms the router's deterministic kill/revive schedule and asserts the
//! fault-domain contract itself: **zero failed frames**, covers served
//! while the shard is down (`shard_degraded_frames > 0`), the victim's
//! breaker opens, and — once revived — its half-open probe re-closes it.
//! The printed contract lines are re-grepped by CI so a silently weakened
//! binary still fails the job.

use hdov_bench::{arg_value, print_table, write_csv, EvalScene, RunOptions};
use hdov_core::{PoolConfig, StorageScheme};
use hdov_shard::{
    BreakerState, RouterConfig, ShardChaos, ShardRouter, ShardedConfig, ShardedServer,
};
use hdov_walkthrough::{ServerConfig, ServerReport, Session, SessionKind, SessionServer};

fn main() {
    let opts = RunOptions::from_args();
    let args: Vec<String> = std::env::args().collect();
    let shards: usize = arg_value(&args, "--shards")
        .map(|v| v.parse().expect("--shards takes a shard count"))
        .unwrap_or(4);
    let kill_shard: Option<usize> =
        arg_value(&args, "--kill-shard").map(|v| v.parse().expect("--kill-shard takes an index"));
    let kill_at: u64 = arg_value(&args, "--kill-at-frame")
        .map(|v| v.parse().expect("--kill-at-frame takes a frame index"))
        .unwrap_or(10);
    let revive_at: u64 = arg_value(&args, "--revive-at-frame")
        .map(|v| v.parse().expect("--revive-at-frame takes a frame index"))
        .unwrap_or(u64::MAX);

    let eval = EvalScene::standard(&opts);
    let n_sessions = if opts.quick { 6 } else { 12 };
    let frames = if opts.quick { 30 } else { 120 };

    let mut built = eval.environment(StorageScheme::IndexedVertical);
    opts.relocate("sharded_sessions", &mut built);
    let env = built.into_shared(PoolConfig::default());
    let sessions: Vec<Session> = (0..n_sessions)
        .map(|i| {
            Session::record(
                eval.scene.viewpoint_region(),
                SessionKind::all()[i % 3],
                frames,
                2003 + i as u64,
            )
        })
        .collect();

    let report: ServerReport = if shards == 0 {
        println!("unsharded baseline: one engine, one pool set");
        let report = SessionServer::new(&env, ServerConfig::default())
            .run(&sessions, 4)
            .expect("unsharded run");
        println!("sharded run: shards=0 degraded_frames=0 timeouts=0 hedged=0 breaker_opens=0");
        report
    } else {
        let mut router =
            ShardRouter::new(&env, shards, RouterConfig::default()).expect("router build");
        if let Some(victim) = kill_shard {
            assert!(victim < shards, "--kill-shard {victim} out of range");
            router.set_chaos(Some(ShardChaos {
                shard: victim,
                kill_at_frame: kill_at,
                revive_at_frame: revive_at,
            }));
            println!(
                "chaos armed: kill shard {victim} at frame {kill_at}, revive at {}",
                if revive_at == u64::MAX {
                    "never".to_string()
                } else {
                    revive_at.to_string()
                }
            );
        }
        let sharded = ShardedServer::new(&router, ShardedConfig::default())
            .run(&sessions, 4)
            .expect("sharded run");
        println!(
            "sharded run: shards={shards} degraded_frames={} timeouts={} hedged={} breaker_opens={}",
            sharded.shard_degraded_frames,
            sharded.shard_timeouts,
            sharded.hedged_reads,
            sharded.breaker_opens
        );
        let states: Vec<String> = (0..shards)
            .map(|s| format!("{:?}", router.breaker_state(s)))
            .collect();
        println!("breaker states: {}", states.join(","));
        if let Some(victim) = kill_shard {
            // The fault-domain contract (ISSUE 10 acceptance), asserted in
            // the binary so the drill cannot silently weaken.
            assert!(
                sharded.shard_degraded_frames > 0,
                "a killed shard must degrade frames to covers"
            );
            assert!(
                sharded.breaker_opens >= 1,
                "the victim's breaker never opened"
            );
            if revive_at != u64::MAX {
                assert_eq!(
                    router.breaker_state(victim),
                    BreakerState::Closed,
                    "post-revival probes must re-close the breaker"
                );
            }
        } else {
            assert_eq!(sharded.shard_degraded_frames, 0, "fault-free run degraded");
            assert_eq!(sharded.breaker_opens, 0, "fault-free run tripped a breaker");
        }
        sharded.report
    };

    let failed: u64 = report.sessions.iter().map(|s| s.failed_frames).sum();
    println!("failed frames: {failed}");
    assert_eq!(failed, 0, "no mode of this drill may fail a frame");

    // Answer-only rows: identical between a fault-free sharded run and the
    // unsharded baseline — CI cmps the two CSVs byte for byte.
    let headers = [
        "session",
        "frames",
        "total_polygons",
        "lod_level_sum",
        "lod_entries",
        "degraded",
        "failed",
        "shed",
    ];
    let rows: Vec<Vec<String>> = report
        .sessions
        .iter()
        .map(|s| {
            vec![
                s.session.to_string(),
                s.search_ms.len().to_string(),
                s.total_polygons.to_string(),
                s.lod_level_sum.to_string(),
                s.lod_entries.to_string(),
                s.degraded_frames.to_string(),
                s.failed_frames.to_string(),
                (s.shed as u8).to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("sharded_sessions (shards={shards})"),
        &headers,
        &rows,
    );
    write_csv("sharded_sessions", &headers, &rows);
}
