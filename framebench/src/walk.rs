//! `walk` and `sharded_walk`: recorded visitors walking the city, through
//! one shared engine or through the tile-shard router.
//!
//! Both replay the same recorded sessions, so their frame times compare
//! directly. Correctness: a sequential replay on a private fork gives each
//! frame's answer digest; its per-session polygon and LoD totals must equal
//! `SessionServer::run` (or `ShardedServer::run`) on the same sessions, and
//! every timed frame's digest must equal the replay's for that frame.

use crate::common::{self, City, SetupTimes, Tally, WalkLane, CLIENTS, WALK_ETA};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::Args;
use hdov_core::{PoolConfig, QueryBudget, SharedEnvironment};
use hdov_shard::{RouterConfig, SessionLane, ShardRouter, ShardedConfig, ShardedServer};
use hdov_walkthrough::{ServerConfig, ServerReport, Session, SessionServer};
use std::time::Instant;

/// Visitors, split evenly over the clients.
const VISITORS: usize = 16;
/// Recordings per visitor, walked one after another.
const RECORDINGS: usize = 16;
/// Frames per recorded session (~360 m of walking).
const FRAMES: usize = 300;
/// Tile shards of `sharded_walk`.
const SHARDS: usize = 4;

/// One visitor: the recording it replays, how far it got, and its
/// per-visitor engine state. At the end of a recording it moves on to its
/// next one with fresh state, like a new visitor arriving.
pub struct Visitor<L> {
    pub id: u64,
    pub session: usize,
    pub frame: usize,
    pub frames_done: u64,
    pub lane: L,
}

/// A client's visitors, served round-robin: each visitor's next frame is
/// issued only after its previous one returned.
pub struct Client<L> {
    pub visitors: Vec<Visitor<L>>,
    pub next: usize,
}

impl<L> Client<L> {
    /// The visitor whose frame is next, advancing the round-robin.
    pub fn take_turn(&mut self) -> &mut Visitor<L> {
        let i = self.next;
        self.next = (i + 1) % self.visitors.len();
        &mut self.visitors[i]
    }
}

/// Splits visitors `0..n` over [`CLIENTS`] clients.
pub fn clients<L>(n: usize, mut lane: impl FnMut() -> L) -> Vec<Client<L>> {
    (0..CLIENTS)
        .map(|c| Client {
            visitors: (c..n)
                .step_by(CLIENTS)
                .map(|id| Visitor {
                    id: id as u64,
                    session: id,
                    frame: 0,
                    frames_done: 0,
                    lane: lane(),
                })
                .collect(),
            next: 0,
        })
        .collect()
}

/// Request id of a visitor's frame in the span log.
pub fn request_id(visitor: u64, frame: u64) -> u64 {
    visitor << 32 | frame
}

/// One unsharded walkthrough frame with `SessionServer::drive`'s call
/// sequence: the delta query, then motion prefetch when the dead-reckoned
/// next viewpoint lies in another cell. Times the frame into `tally` and
/// returns whether the query answered, and the frame's latency in ns.
pub fn walk_frame(
    env: &SharedEnvironment,
    lane: &mut WalkLane,
    session: &Session,
    i: usize,
    request: u64,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> (bool, u64) {
    let vp = session.viewpoints[i];
    let t0 = Instant::now();
    let frame_span = tr.begin(trace::FRAME, request);
    let q = tr.begin(trace::QUERY, request);
    let answer = env.query_delta_into_budgeted(
        &mut lane.ctx,
        &mut lane.scratch,
        vp,
        WALK_ETA,
        &mut lane.delta,
        QueryBudget::UNLIMITED,
    );
    tr.end(q);
    let mut warmed = None;
    if i > 0 {
        let predicted = vp + (vp - session.viewpoints[i - 1]);
        let ahead = env.cell_of(predicted);
        if ahead != env.cell_of(vp) {
            let p = tr.begin(trace::PREFETCH, request);
            warmed = Some(env.prefetch_cell(&mut lane.prefetch_ctx, ahead));
            tr.end(p);
        }
    }
    tr.end(frame_span);
    let ns = tally.lat.record(t0);
    tally.attempted += 1;
    if let Some(Ok(pages)) = warmed {
        tally.prefetch_calls += 1;
        tally.prefetch_pages += pages;
    }
    match answer {
        Ok((stats, summary)) => {
            tally.search(&stats);
            tally.added += summary.added as u64;
            tally.retained += summary.retained as u64;
            if lane.scratch.result().degrade().errors_absorbed() > 0 {
                tally.degraded += 1;
            }
            (true, ns)
        }
        Err(_) => {
            tally.failed += 1;
            (false, ns)
        }
    }
}

/// The reference answers: per session, every frame's digest, plus the
/// polygon and LoD-rank totals the servers report.
struct Replay {
    digests: Vec<Vec<u64>>,
    polygons: Vec<u64>,
    lod_sums: Vec<u64>,
}

/// Sequential replay of every session on `env` (a private fork).
fn replay(env: &SharedEnvironment, sessions: &[Session]) -> Result<Replay, String> {
    let mut r = Replay {
        digests: Vec::new(),
        polygons: Vec::new(),
        lod_sums: Vec::new(),
    };
    for s in sessions {
        let mut lane = WalkLane::default();
        let (mut polys, mut lods, mut d) = (0, 0, Vec::with_capacity(s.len()));
        for &vp in &s.viewpoints {
            env.query_delta_into_budgeted(
                &mut lane.ctx,
                &mut lane.scratch,
                vp,
                WALK_ETA,
                &mut lane.delta,
                QueryBudget::UNLIMITED,
            )
            .map_err(|e| format!("reference replay failed: {e}"))?;
            let res = lane.scratch.result();
            d.push(common::digest(res));
            polys += res.total_polygons();
            lods += common::lod_rank_sum(res);
        }
        r.digests.push(d);
        r.polygons.push(polys);
        r.lod_sums.push(lods);
    }
    Ok(r)
}

/// Checks a server report against the replay's per-session totals.
fn check_server(out: &mut Outcome, who: &str, report: &ServerReport, reference: &Replay) {
    for (i, s) in report.sessions.iter().enumerate() {
        if s.failed_frames > 0 || s.degraded_frames > 0 {
            out.mismatch(format!(
                "{who}: session {i} had {} failed and {} degraded frames",
                s.failed_frames, s.degraded_frames
            ));
        }
        if s.total_polygons != reference.polygons[i] || s.lod_level_sum != reference.lod_sums[i] {
            out.mismatch(format!(
                "{who}: session {i} totals (polygons {}, LoD sum {}) differ from the replay \
                 ({}, {})",
                s.total_polygons, s.lod_level_sum, reference.polygons[i], reference.lod_sums[i]
            ));
        }
    }
}

/// Adds a digest mismatch to `tally` when `got` differs from the replay.
fn check_frame<L>(tally: &mut Tally, reference: &Replay, v: &Visitor<L>, got: u64) {
    if got != reference.digests[v.session][v.frame] {
        tally.mismatch(|| {
            format!(
                "session {} frame {}: answer digest differs",
                v.session, v.frame
            )
        });
    }
}

/// Moves a visitor to its next frame; past the end of a recording it
/// starts its next one (every `visitors`-th of `sessions`) with fresh
/// state.
pub fn advance<L>(
    v: &mut Visitor<L>,
    sessions: &[Session],
    visitors: usize,
    fresh: impl FnOnce() -> L,
) {
    v.frames_done += 1;
    v.frame += 1;
    if v.frame == sessions[v.session].len() {
        v.frame = 0;
        v.session = (v.session + visitors) % sessions.len();
        v.lane = fresh();
    }
}

pub fn run(args: &Args, sharded: bool) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let name = if sharded { "sharded_walk" } else { "walk" };

    let mut setups = Vec::new();
    let mut deployed = None;
    for _ in 0..common::SETUP_REPEATS {
        drop(deployed.take());
        let mut t = SetupTimes::default();
        let t0 = Instant::now();
        let city = City::nominal(&mut t);
        let built = common::timed(&mut t.build_s, || city.build())?;
        let env = common::timed(&mut t.freeze_s, || built.into_shared(PoolConfig::default()));
        let router = if sharded {
            let r = common::timed(&mut t.router_s, || {
                ShardRouter::new(&env, SHARDS, RouterConfig::default())
            })
            .map_err(|e| format!("router build failed: {e}"))?;
            Some(r)
        } else {
            None
        };
        t.total_s = t0.elapsed().as_secs_f64();
        setups.push(t);
        deployed = Some((city, env, router));
    }
    let (city, env, router) = deployed.expect("at least one set-up");
    common::setup_metrics(&mut out, &setups);

    let sessions = common::record_sessions(
        city.scene.viewpoint_region(),
        VISITORS,
        RECORDINGS,
        FRAMES,
        args.seed,
    );
    let reference = replay(&env.fork_with_private_pools(), &sessions)?;

    // The servers replay the same sessions as a batch: the totals oracle,
    // the server-throughput layer metric, and the warm-up of the pools the
    // timed clients then use.
    let server_frames = (sessions.len() * FRAMES) as f64;
    match &router {
        None => {
            let report = SessionServer::new(&env, ServerConfig::default())
                .run(&sessions, CLIENTS)
                .map_err(|e| format!("SessionServer::run failed: {e}"))?;
            check_server(&mut out, "SessionServer::run", &report, &reference);
            out.metrics.set(
                "walkthrough.server_frames_per_s",
                server_frames / report.wall_seconds,
            );
        }
        Some(router) => {
            let report = ShardedServer::new(router, ShardedConfig::default())
                .run(&sessions, CLIENTS)
                .map_err(|e| format!("ShardedServer::run failed: {e}"))?;
            check_server(&mut out, "ShardedServer::run", &report.report, &reference);
            if report.shard_degraded_frames + report.shard_timeouts + report.hedged_reads > 0 {
                out.mismatch("fault-free ShardedServer::run degraded, timed out or hedged".into());
            }
            out.metrics.set(
                "shard.server_frames_per_s",
                server_frames / report.report.wall_seconds,
            );
        }
    }

    let pools = || match &router {
        None => common::pool_stats(&env),
        Some(r) => {
            let mut sum = common::pool_stats(r.engines()[0].env());
            for e in &r.engines()[1..] {
                for (acc, (h, m)) in sum.iter_mut().zip(common::pool_stats(e.env())) {
                    acc.0 += h;
                    acc.1 += m;
                }
            }
            sum
        }
    };

    let mut walkers = match router {
        None => clients(VISITORS, WalkLane::default),
        Some(_) => Vec::new(),
    };
    let mut lanes = match &router {
        None => Vec::new(),
        Some(r) => clients(VISITORS, || r.lane()),
    };
    let walk_step = |c: &mut Client<WalkLane>, tally: &mut Tally, tr: &mut Tracer| {
        let v = c.take_turn();
        let req = request_id(v.id, v.frames_done);
        if walk_frame(
            &env,
            &mut v.lane,
            &sessions[v.session],
            v.frame,
            req,
            tally,
            tr,
        )
        .0
        {
            let got = common::digest(v.lane.scratch.result());
            check_frame(tally, &reference, v, got);
        }
        advance(v, &sessions, VISITORS, WalkLane::default);
    };
    let shard_step = |c: &mut Client<SessionLane>, tally: &mut Tally, tr: &mut Tracer| {
        let router = router.as_ref().expect("only sharded runs route");
        let v = c.take_turn();
        let s = &sessions[v.session];
        let lane = &mut v.lane;
        let req = request_id(v.id, v.frames_done);
        let t0 = Instant::now();
        let f = tr.begin(trace::FRAME, req);
        let r = tr.begin(trace::ROUTE, req);
        let rs = router.route(lane, s.viewpoints[v.frame], WALK_ETA);
        tr.end(r);
        tr.end(f);
        tally.lat.record(t0);
        tally.attempted += 1;
        tally.sim_ms += rs.search_ms;
        tally.fanout += u64::from(rs.fanout);
        tally.shard_page_reads += rs.page_reads;
        tally.degraded_shards += u64::from(rs.degraded_shards);
        tally.timeouts += u64::from(rs.timeouts);
        tally.hedged += u64::from(rs.hedged);
        if rs.degraded_shards > 0 || lane.merged().degrade().errors_absorbed() > 0 {
            tally.degraded += 1;
        }
        let got = common::digest(lane.merged());
        check_frame(tally, &reference, v, got);
        advance(v, &sessions, VISITORS, || router.lane());
    };

    let mut phases = Vec::new();
    for (kind, secs) in common::phase_plan(args.trace, args.seconds) {
        let before = pools();
        let (tally, tracers) = if sharded {
            common::drive(&mut lanes, secs, kind, &shard_step)
        } else {
            common::drive(&mut walkers, secs, kind, &walk_step)
        };
        let hits = common::pool_delta(&before, &pools());
        phases.push((kind, tally, tracers, hits));
    }

    let probe_env = router.as_ref().map_or(&env, |r| r.engines()[0].env());
    layers::finish(
        &mut out,
        phases,
        args,
        name,
        probe_env,
        common::store_bytes(&env) as f64,
    );
    out.notes.push(format!(
        "{name}: {VISITORS} visitors x {RECORDINGS} recorded {FRAMES}-frame sessions, \
         {CLIENTS} closed-loop clients, \
         backend mem, {} store pages vs 5 pools x {} pooled pages, {}",
        common::store_bytes(&env) / hdov_storage::PAGE_SIZE as u64,
        PoolConfig::default().capacity_pages,
        if sharded {
            format!("{SHARDS} tile shards, each with its own pools")
        } else {
            "one shared pool set".to_string()
        }
    ));
    Ok(out)
}
