//! `edit_mix`: a writer translating a random object and committing once per
//! commit slot, and two reader clients walking visitor sessions against
//! whichever epoch was published last — the only workload on the write path
//! (WAL, dirty-cell DoV re-estimate, re-encode, republish), and what
//! commits cost readers.
//!
//! Correctness: after the run, `MutableScene::open` must reopen at the last
//! committed epoch and answer every cell exactly as the live scene does.

use crate::common::{self, PhaseKind, SetupTimes, Tally, WalkLane, CLIENTS, SCENE_SEED, WALK_ETA};
use crate::layers;
use crate::report::{median, ratio, Outcome};
use crate::trace::{self, Tracer};
use crate::walk::{advance, clients, request_id, walk_frame, Client};
use crate::Args;
use hdov_core::{HdovBuildConfig, MutableScene, PoolConfig, SharedEnvironment, StorageScheme};
use hdov_geom::sampling::SplitMix64;
use hdov_geom::Vec3;
use hdov_scene::{CityConfig, Scene};
use hdov_visibility::CellGridConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reader visitors, split over the reader clients.
const VISITORS: usize = 4;
/// Commit pacing: one commit slot per interval (a commit takes about a
/// tenth of it), so the read/write mix per run does not depend on how fast
/// either side runs.
const COMMIT_EVERY: Duration = Duration::from_millis(500);
const RECORDINGS: usize = 4;
const FRAMES: usize = 300;
/// The WAL footprint in `store_mib` is that of this many commits, at the
/// measured bytes per commit, so it does not grow with commit speed.
const WAL_COMMITS: f64 = 100.0;
const NAME: &str = "mix";

fn build_cfg() -> HdovBuildConfig {
    let mut cfg = HdovBuildConfig::default();
    cfg.dov.rays_per_viewpoint = 1024;
    cfg.dov.viewpoints_per_cell = 3;
    cfg.dov.seed = SCENE_SEED;
    cfg.threads = common::DOV_THREADS;
    cfg
}

fn create(scene: &Scene, dir: &Path) -> Result<MutableScene, String> {
    let grid = CellGridConfig {
        nx: 8,
        ny: 8,
        ..CellGridConfig::for_scene(scene)
    };
    MutableScene::create(
        dir,
        NAME,
        scene,
        &grid,
        build_cfg(),
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    )
    .map_err(|e| format!("MutableScene::create failed: {e}"))
}

/// Every cell's answer digest on `env`, from a fresh session.
fn answers(env: &SharedEnvironment) -> Result<Vec<u64>, String> {
    let mut ctx = env.session();
    (0..env.grid().cell_count() as u32)
        .map(|c| {
            env.query_cell(&mut ctx, c, WALK_ETA)
                .map(|(r, _)| common::digest(&r))
                .map_err(|e| format!("query of cell {c} failed: {e}"))
        })
        .collect()
}

/// Bytes of the regular files under `dir`, split into (bases, WAL).
fn dir_bytes(dir: &Path, wal: &Path) -> (u64, u64) {
    let (mut bases, mut log) = (0, 0);
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(m) = e.metadata() {
            if m.is_file() {
                if e.path() == wal {
                    log += m.len();
                } else {
                    bases += m.len();
                }
            }
        }
    }
    (bases, log)
}

/// What the writer measured.
#[derive(Default)]
struct Writes {
    attempted: u64,
    failed: u64,
    commit_ns: Vec<u64>,
    wal_bytes: u64,
}

/// The epoch the writer published last, for the readers to pick up, and
/// the pool counters of the epochs it has retired.
struct Published {
    epoch: AtomicU64,
    env: Mutex<Arc<SharedEnvironment>>,
    retired: Mutex<Vec<(u64, u64)>>,
}

impl Published {
    fn publish(&self, epoch: u64, env: Arc<SharedEnvironment>) {
        let old = std::mem::replace(
            &mut *self.env.lock().expect("no thread panics holding the epoch"),
            env,
        );
        self.epoch.store(epoch, Ordering::Release);
        // A reader frame still in flight on the old epoch is not counted.
        let mut retired = self.retired.lock().expect("no thread panics holding it");
        for (acc, (h, m)) in retired.iter_mut().zip(common::pool_stats(&old)) {
            acc.0 += h;
            acc.1 += m;
        }
    }

    fn current(&self) -> Arc<SharedEnvironment> {
        Arc::clone(&self.env.lock().expect("no thread panics holding the epoch"))
    }

    /// `(hits, misses)` per pool over every epoch published so far (only
    /// the readers read them).
    fn pool_totals(&self) -> Vec<(u64, u64)> {
        let retired = self.retired.lock().expect("no thread panics holding it");
        common::pool_stats(&self.current())
            .into_iter()
            .zip(retired.iter())
            .map(|(a, b)| (a.0 + b.0, a.1 + b.1))
            .collect()
    }
}

/// One reader client: its visitors and the epoch they read.
struct Reader {
    client: Client<WalkLane>,
    epoch: u64,
    env: Arc<SharedEnvironment>,
    first_after_commit_ns: Vec<u64>,
}

impl Reader {
    /// Moves to the last published epoch, if it is new; a new epoch is a
    /// new environment, so every visitor restarts its session state
    /// (cursors, flipped segment, resident set) on it.
    fn switch_if_published(&mut self, p: &Published) -> bool {
        let epoch = p.epoch.load(Ordering::Acquire);
        if epoch == self.epoch {
            return false;
        }
        self.epoch = epoch;
        self.env = p.current();
        for v in &mut self.client.visitors {
            v.lane = WalkLane::default();
        }
        true
    }
}

/// The writer's loop for one phase: translate one random object, commit,
/// publish, then wait for the next commit slot; stops at `until`.
fn write_loop(
    ms: &mut MutableScene,
    rng: &mut SplitMix64,
    commits: &mut u64,
    published: &Published,
    wal_path: &Path,
    until: Instant,
    tr: &mut Tracer,
) -> Writes {
    let mut w = Writes::default();
    let wal0 = std::fs::metadata(wal_path).map_or(0, |m| m.len());
    let mut due = Instant::now();
    while due < until {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let handles = ms.handles();
        let h = handles[(rng.next_u64() % handles.len() as u64) as usize];
        let delta = Vec3::new(
            (rng.next_f64() - 0.5) * 20.0,
            (rng.next_f64() - 0.5) * 20.0,
            0.0,
        );
        let req = 1 << 63 | *commits;
        *commits += 1;
        w.attempted += 1;
        let e = tr.begin(trace::EDIT, req);
        let t_span = tr.begin(trace::TRANSLATE, req);
        let staged = ms.translate(h, delta);
        tr.end(t_span);
        let c_span = tr.begin(trace::COMMIT, req);
        let t0 = Instant::now();
        let committed = staged.and_then(|()| ms.commit());
        let ns = t0.elapsed().as_nanos() as u64;
        tr.end(c_span);
        tr.end(e);
        match committed {
            Ok(epoch) => {
                w.commit_ns.push(ns);
                published.publish(epoch, ms.current());
            }
            Err(_) => {
                // After a failed commit the in-memory scene no longer
                // matches the durable one; stop writing (the reopen check
                // still runs).
                w.failed += 1;
                break;
            }
        }
        due = (due + COMMIT_EVERY).max(Instant::now());
    }
    let wal1 = std::fs::metadata(wal_path).map_or(0, |m| m.len());
    w.wal_bytes = wal1.saturating_sub(wal0);
    w
}

pub fn run(args: &Args, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let mut setups = Vec::new();
    let mut deployed: Option<(MutableScene, PathBuf, Scene)> = None;
    for rep in 0..common::SETUP_REPEATS {
        drop(deployed.take());
        let dir = data.join(format!("edit-{rep}"));
        let mut t = SetupTimes::default();
        let t0 = Instant::now();
        let scene = CityConfig::small().seed(SCENE_SEED).generate();
        let ms = common::timed(&mut t.create_s, || create(&scene, &dir))?;
        t.total_s = t0.elapsed().as_secs_f64();
        setups.push(t);
        deployed = Some((ms, dir, scene));
    }
    let (mut ms, dir, scene) = deployed.expect("at least one set-up");
    common::setup_metrics(&mut out, &setups);

    let sessions = common::record_sessions(
        scene.viewpoint_region(),
        VISITORS,
        RECORDINGS,
        FRAMES,
        args.seed,
    );
    let wal_path = ms.store().wal_path_of();
    let published = Published {
        epoch: AtomicU64::new(ms.epoch()),
        env: Mutex::new(ms.current()),
        retired: Mutex::new(vec![(0, 0); 5]),
    };
    let mut readers: Vec<Reader> = clients(VISITORS, WalkLane::default)
        .into_iter()
        .map(|client| Reader {
            client,
            epoch: ms.epoch(),
            env: ms.current(),
            first_after_commit_ns: Vec::new(),
        })
        .collect();
    let read_step = |r: &mut Reader, tally: &mut Tally, tr: &mut Tracer| {
        let switched = r.switch_if_published(&published);
        let v = r.client.take_turn();
        let req = request_id(v.id, v.frames_done);
        let s = &sessions[v.session];
        let (_, ns) = walk_frame(&r.env, &mut v.lane, s, v.frame, req, tally, tr);
        if switched {
            r.first_after_commit_ns.push(ns);
        }
        advance(v, &sessions, VISITORS, WalkLane::default);
    };
    let mut rng = SplitMix64::new(args.seed ^ 0xed17);
    let mut commits = 0u64;

    let mut phases = Vec::new();
    let mut commit_ms = Vec::new();
    let (mut wal_bytes, mut ok_commits) = (0u64, 0u64);
    for (kind, secs) in common::phase_plan(args.trace, args.seconds) {
        let pools_before = published.pool_totals();
        let until = Instant::now() + Duration::from_secs_f64(secs);
        let mut writer_tr = Tracer::new(kind == PhaseKind::Traced, Instant::now());
        let ((tally, mut tracers), writes) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                write_loop(
                    &mut ms,
                    &mut rng,
                    &mut commits,
                    &published,
                    &wal_path,
                    until,
                    &mut writer_tr,
                )
            });
            let read = common::drive(&mut readers, secs, kind, &read_step);
            (read, writer.join().expect("writer thread panicked"))
        });
        let pools = common::pool_delta(&pools_before, &published.pool_totals());
        tracers.push(writer_tr);
        if kind == PhaseKind::Traced {
            let spans = trace::aggregate(&tracers);
            let self_us = |n: &str| spans.get(n).map_or(0.0, |l| l.self_us());
            let m = &mut out.metrics;
            m.set("mutable.translate_us", self_us(trace::TRANSLATE));
            m.set("mutable.commit_ms", self_us(trace::COMMIT) / 1e3);
            let (h, miss) = pools.iter().fold((0, 0), |a, p| (a.0 + p.0, a.1 + p.1));
            m.set(
                "mutable.reader_hit_rate",
                ratio(h as f64, (h + miss) as f64),
            );
            let firsts: Vec<f64> = readers
                .iter()
                .flat_map(|r| &r.first_after_commit_ns)
                .map(|&ns| ns as f64 / 1e3)
                .collect();
            m.set("mutable.first_frame_after_commit_us", median(&firsts));
        }
        for r in &mut readers {
            r.first_after_commit_ns.clear();
        }
        out.attempted += writes.attempted;
        out.failed += writes.failed;
        if kind == PhaseKind::Timed {
            commit_ms.extend(writes.commit_ns.iter().map(|&ns| ns as f64 / 1e6));
        }
        wal_bytes += writes.wal_bytes;
        ok_commits += writes.commit_ns.len() as u64;
        phases.push((kind, tally, tracers, pools));
    }

    let per_commit = ratio(wal_bytes as f64, ok_commits as f64);
    out.metrics.set("commit_ms_p50", median(&commit_ms));
    out.metrics
        .set("mutable.wal_kib_per_commit", per_commit / 1024.0);
    let (bases, _) = dir_bytes(&dir, &wal_path);
    let store = bases as f64 + per_commit * WAL_COMMITS;
    layers::finish(&mut out, phases, args, "edit_mix", &ms.current(), store);

    // Reopen at the last committed epoch and compare every cell.
    let live_epoch = ms.epoch();
    let live = answers(&ms.current())?;
    let prototypes = scene.prototypes().clone();
    drop(ms);
    drop(readers);
    drop(published);
    match MutableScene::open(
        &dir,
        NAME,
        prototypes,
        build_cfg(),
        StorageScheme::IndexedVertical,
        PoolConfig::default(),
    ) {
        Ok(reopened) => {
            if reopened.epoch() != live_epoch {
                out.mismatch(format!(
                    "reopened at epoch {} but the last commit was epoch {live_epoch}",
                    reopened.epoch()
                ));
            }
            let again = answers(&reopened.current())?;
            let differ = live.iter().zip(&again).filter(|(a, b)| a != b).count();
            if differ > 0 || live.len() != again.len() {
                out.mismatch(format!(
                    "reopened scene answers {differ} of {} cells differently",
                    live.len()
                ));
            }
        }
        Err(e) => out.mismatch(format!("MutableScene::open failed: {e}")),
    }
    out.notes.push(format!(
        "edit_mix: 1 writer (translate + commit every {:.1} s, WAL fsync per commit) and \
         {CLIENTS} closed-loop reader clients ({VISITORS} visitors), mem pools over the \
         WAL-durable store, {commits} commits, commit p50 {:.2} ms, {:.1} KiB WAL per commit",
        COMMIT_EVERY.as_secs_f64(),
        median(&commit_ms),
        per_commit / 1024.0
    ));
    Ok(out)
}
