//! Pieces every workload shares: the scene and its set-up timing, recorded
//! visitors, the answer digest, and the closed-loop client loop.

use crate::hist::Windows;
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use hdov_core::{
    DeltaSearch, HdovBuildConfig, HdovEnvironment, QueryResult, ResultKey, SearchScratch,
    SessionCtx, SharedEnvironment, StorageScheme, VPageCodec,
};
use hdov_geom::sampling::SplitMix64;
use hdov_geom::{Aabb, Vec3};
use hdov_scene::Scene;
use hdov_storage::SharedCachedFile;
use hdov_visibility::{CellGrid, CellGridConfig, DovConfig, DovTable};
use hdov_walkthrough::{Session, SessionKind};
use std::sync::Arc;
use std::time::Instant;

/// Scene seed of every paper figure; results stay comparable with them.
pub const SCENE_SEED: u64 = 2003;
/// Cells per side of the walk/cold/sharded grid: set-up stays a few
/// seconds while a walk still crosses many cells.
pub const GRID: usize = 16;
/// DoV rays per sample viewpoint (resolution 1/2048, below both η used).
pub const RAYS: usize = 2048;
/// Threads of the DoV precompute in set-up. One: on a 2-vCPU host two
/// threads take either about half or about 1.4x the one-thread time from
/// run to run, which would make `setup_s` unsteady.
pub const DOV_THREADS: usize = 1;
/// Closed-loop clients (one busy thread each; the load host has 2 cores).
pub const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// η of every walkthrough frame (the `SessionServer` default).
pub const WALK_ETA: f64 = 0.002;

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub dov_s: f64,
    pub build_s: f64,
    pub freeze_s: f64,
    pub router_s: f64,
    pub create_s: f64,
}

/// Runs `f` and adds its wall time to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed().as_secs_f64();
    v
}

/// Sets `setup_s` and the per-stage set-up metrics to their medians, and
/// notes every set-up's time.
pub fn setup_metrics(out: &mut Outcome, runs: &[SetupTimes]) {
    let all: Vec<String> = runs.iter().map(|t| format!("{:.3}", t.total_s)).collect();
    out.notes.push(format!("set-ups took {} s", all.join(", ")));
    let m = &mut out.metrics;
    let med = |f: fn(&SetupTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    m.set("setup_s", med(|t| t.total_s));
    m.set("visibility.dov_compute_s", med(|t| t.dov_s));
    m.set("core.build_s", med(|t| t.build_s));
    m.set("storage.freeze_s", med(|t| t.freeze_s));
    m.set("shard.router_build_s", med(|t| t.router_s));
    m.set("mutable.create_s", med(|t| t.create_s));
}

/// The generated city with its cell grid and DoV table.
pub struct City {
    pub scene: Scene,
    pub grid: Arc<CellGrid>,
    pub table: Arc<DovTable>,
    pub cfg: HdovBuildConfig,
}

impl City {
    /// The `Nominal400MB` city on a [`GRID`]² cell grid: generate, then
    /// compute DoV (timed into `t.dov_s`).
    pub fn nominal(t: &mut SetupTimes) -> City {
        let scene = hdov_scene::DatasetPreset::Nominal400MB
            .config()
            .seed(SCENE_SEED)
            .generate();
        let grid = CellGridConfig::for_scene(&scene)
            .with_resolution(GRID, GRID)
            .build();
        let dov = DovConfig {
            rays_per_viewpoint: RAYS,
            viewpoints_per_cell: 5,
            seed: SCENE_SEED,
            ..Default::default()
        };
        let table = timed(&mut t.dov_s, || {
            DovTable::compute(&scene, &grid, &dov, DOV_THREADS)
        });
        City {
            scene,
            grid: Arc::new(grid),
            table: Arc::new(table),
            cfg: HdovBuildConfig {
                dov,
                codec: VPageCodec::Delta,
                threads: DOV_THREADS,
                ..Default::default()
            },
        }
    }

    /// The indexed-vertical HDoV-tree over this city, in memory.
    pub fn build(&self) -> Result<HdovEnvironment, String> {
        HdovEnvironment::build_with_table(
            &self.scene,
            Arc::clone(&self.grid),
            self.cfg.clone(),
            StorageScheme::IndexedVertical,
            Arc::clone(&self.table),
        )
        .map_err(|e| format!("environment build failed: {e}"))
    }
}

/// `per_tile` recorded sessions for each of `tiles` visitors (`tiles` a
/// square). Visitor `i` walks tile `i` of a square tiling of the central
/// half of `region` — the area where `Session::record` starts a visitor —
/// so every seed covers that area evenly; session `r * tiles + i` is the
/// visitor's `r`-th recording. Kinds cycle over the visitors, and the
/// recordings depend only on `seed`.
pub fn record_sessions(
    region: Aabb,
    tiles: usize,
    per_tile: usize,
    frames: usize,
    seed: u64,
) -> Vec<Session> {
    let side = (tiles as f64).sqrt().round() as usize;
    assert_eq!(side * side, tiles, "visitor count must be a square");
    let mut rng = SplitMix64::new(seed ^ 0x5157_4a4c_4b00);
    let e = region.extent();
    let (x0, y0) = (region.min.x + e.x / 4.0, region.min.y + e.y / 4.0);
    let (w, h) = (e.x / 2.0 / side as f64, e.y / 2.0 / side as f64);
    (0..tiles * per_tile)
        .map(|n| {
            let i = n % tiles;
            let (tx, ty) = ((i % side) as f64, (i / side) as f64);
            let tile = Aabb::new(
                Vec3::new(x0 + w * tx, y0 + h * ty, region.min.z),
                Vec3::new(x0 + w * (tx + 1.0), y0 + h * (ty + 1.0), region.max.z),
            );
            Session::record(tile, SessionKind::all()[i % 3], frames, rng.next_u64())
        })
        .collect()
}

/// Order-sensitive digest of an answer set: every entry's key, LoD level,
/// polygons, bytes and DoV. Word-wise mixing keeps it cheap enough to run
/// on every timed frame.
pub fn digest(r: &QueryResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h = (h.rotate_left(23) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    };
    for e in r.entries() {
        match e.key {
            ResultKey::Object(o) => mix(o << 1),
            ResultKey::Internal(n) => mix(u64::from(n) << 1 | 1),
        }
        mix(e.level as u64);
        mix(e.polygons);
        mix(e.bytes);
        mix(u64::from(e.dov.to_bits()));
    }
    h ^ r.entries().len() as u64
}

/// Served-LoD rank as `SessionServer` sums it: object levels count from 0,
/// internal LoDs from 4 (coarser than any object level).
pub fn lod_rank_sum(r: &QueryResult) -> u64 {
    r.entries()
        .iter()
        .map(|e| match e.key {
            ResultKey::Object(_) => e.level as u64,
            ResultKey::Internal(_) => 4 + e.level as u64,
        })
        .sum()
}

/// `(hits, misses)` of every pool, in `for_each_pool` order.
pub fn pool_stats(env: &SharedEnvironment) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    env.for_each_pool(|p: &SharedCachedFile| v.push(p.hit_stats()));
    v
}

/// Element-wise `after - before` of [`pool_stats`] snapshots.
pub fn pool_delta(before: &[(u64, u64)], after: &[(u64, u64)]) -> Vec<(u64, u64)> {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| (a.0 - b.0, a.1 - b.1))
        .collect()
}

/// Bytes of every frozen store of `env`.
pub fn store_bytes(env: &SharedEnvironment) -> u64 {
    let mut n = 0;
    env.for_each_pool(|p| n += p.size_bytes());
    n
}

/// Per-visitor state of the unsharded walkthrough frame.
#[derive(Default)]
pub struct WalkLane {
    pub ctx: SessionCtx,
    /// Prefetch I/O is charged here, off the visitor's own books, as in
    /// `SessionServer::drive`.
    pub prefetch_ctx: SessionCtx,
    pub scratch: SearchScratch,
    pub delta: DeltaSearch,
}

/// What the clients measured in one phase, plus the counters each layer
/// exposes through its public return values.
#[derive(Debug, Default)]
pub struct Tally {
    /// Frame latencies by time window.
    pub lat: Windows,
    pub attempted: u64,
    pub failed: u64,
    pub degraded: u64,
    pub sim_ms: f64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    pub nodes: u64,
    pub vpages: u64,
    pub added: u64,
    pub retained: u64,
    pub sim_node_us: f64,
    pub sim_vstore_us: f64,
    pub sim_model_us: f64,
    pub sim_internal_us: f64,
    pub prefetch_calls: u64,
    pub prefetch_pages: u64,
    pub fanout: u64,
    pub shard_page_reads: u64,
    pub degraded_shards: u64,
    pub timeouts: u64,
    pub hedged: u64,
    pub wall_s: f64,
}

impl Tally {
    /// An empty tally for a phase of `seconds` starting at `origin`.
    pub fn new(origin: Instant, seconds: f64) -> Self {
        Tally {
            lat: Windows::new(origin, seconds),
            ..Default::default()
        }
    }

    pub fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(what());
        }
    }

    pub fn merge(&mut self, o: Tally) {
        self.lat.merge(&o.lat);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.degraded += o.degraded;
        self.sim_ms += o.sim_ms;
        self.mismatches += o.mismatches;
        if self.first_mismatch.is_none() {
            self.first_mismatch = o.first_mismatch;
        }
        self.nodes += o.nodes;
        self.vpages += o.vpages;
        self.added += o.added;
        self.retained += o.retained;
        self.sim_node_us += o.sim_node_us;
        self.sim_vstore_us += o.sim_vstore_us;
        self.sim_model_us += o.sim_model_us;
        self.sim_internal_us += o.sim_internal_us;
        self.prefetch_calls += o.prefetch_calls;
        self.prefetch_pages += o.prefetch_pages;
        self.fanout += o.fanout;
        self.shard_page_reads += o.shard_page_reads;
        self.degraded_shards += o.degraded_shards;
        self.timeouts += o.timeouts;
        self.hedged += o.hedged;
        self.wall_s = self.wall_s.max(o.wall_s);
    }

    /// Folds one query's `SearchStats` into the core-layer counters.
    pub fn search(&mut self, st: &hdov_core::SearchStats) {
        self.sim_ms += st.search_time_ms();
        self.nodes += st.nodes_visited;
        self.vpages += st.vpages_fetched;
        self.sim_node_us += st.node_io.elapsed_us;
        self.sim_vstore_us += st.vstore_io.elapsed_us;
        self.sim_model_us += st.model_io.elapsed_us;
        self.sim_internal_us += st.internal_io.elapsed_us;
    }
}

/// How a phase is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Tracing and `hdov-obs` off: the end-to-end numbers.
    Timed,
    /// Benchmark-side spans recorded.
    Traced,
    /// `hdov-obs` recording on inside the program, spans off.
    Obs,
}

/// The phases of one run and their share of `--seconds`. The traced run
/// repeats the untimed phase so its overhead ratios compare runs made on
/// the same set-up.
pub fn phase_plan(trace: bool, seconds: f64) -> Vec<(PhaseKind, f64)> {
    if trace {
        vec![
            (PhaseKind::Timed, seconds * 0.4),
            (PhaseKind::Traced, seconds * 0.3),
            (PhaseKind::Obs, seconds * 0.3),
        ]
    } else {
        vec![(PhaseKind::Timed, seconds)]
    }
}

/// Runs `f` with `hdov-obs` recording on when the phase asks for it.
fn with_obs<T>(kind: PhaseKind, f: impl FnOnce() -> T) -> T {
    if kind == PhaseKind::Obs {
        hdov_obs::reset();
        hdov_obs::enable();
    }
    let v = f();
    if kind == PhaseKind::Obs {
        hdov_obs::disable();
        hdov_obs::reset();
    }
    v
}

/// Closed loop: one thread per client state, each calling `step` (one
/// frame, which waits for its answer) until `seconds` have passed.
pub fn drive<C: Send>(
    clients: &mut [C],
    seconds: f64,
    kind: PhaseKind,
    step: &(dyn Fn(&mut C, &mut Tally, &mut Tracer) + Sync),
) -> (Tally, Vec<Tracer>) {
    with_obs(kind, || {
        let origin = Instant::now();
        let until = origin + std::time::Duration::from_secs_f64(seconds);
        let per_client: Vec<(Tally, Tracer)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    s.spawn(move || {
                        let mut tally = Tally::new(origin, seconds);
                        let mut tracer = Tracer::new(kind == PhaseKind::Traced, origin);
                        while Instant::now() < until {
                            step(c, &mut tally, &mut tracer);
                        }
                        tally.wall_s = origin.elapsed().as_secs_f64();
                        (tally, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("benchmark client panicked"))
                .collect()
        });
        let mut total = Tally::new(origin, seconds);
        let mut tracers = Vec::new();
        for (t, tr) in per_client {
            total.merge(t);
            tracers.push(tr);
        }
        (total, tracers)
    })
}
