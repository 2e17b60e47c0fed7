//! `cold_query`: visitors arriving at (or teleporting to) uniform random
//! cells — the paper's Fig. 7 random-viewpoint loop — on a file-backed
//! store whose pools hold a tiny fraction of it, so nearly every query
//! reads the backend, verifies checksums, admits and evicts frames, and
//! decodes V-pages.
//!
//! Correctness: every timed answer's digest must equal the sequential
//! `HdovEnvironment::query_cell` on the in-memory build for that cell.

use crate::common::{self, City, SetupTimes, Tally, CLIENTS};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{self, Tracer};
use crate::Args;
use hdov_core::{PoolConfig, SessionCtx};
use hdov_geom::sampling::SplitMix64;
use hdov_storage::{FileMode, StorageBackend};
use std::path::Path;
use std::time::Instant;

/// η of the random-viewpoint loop (a Fig. 7 sweep point).
const ETA: f64 = 0.0005;
/// Pages per pool: the store is then hundreds of times the pooled pages.
const POOL_PAGES: usize = 8;

struct Client {
    id: u64,
    ctx: SessionCtx,
    rng: SplitMix64,
    queries: u64,
}

/// Bytes of the regular files directly under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(args: &Args, data: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let pool = PoolConfig {
        capacity_pages: POOL_PAGES,
        ..PoolConfig::default()
    };

    let mut setups = Vec::new();
    let mut deployed = None;
    for rep in 0..common::SETUP_REPEATS {
        drop(deployed.take());
        let dir = data.join(format!("cold-{rep}"));
        let mut t = SetupTimes::default();
        let t0 = Instant::now();
        let city = City::nominal(&mut t);
        let mut built = common::timed(&mut t.build_s, || city.build())?;
        let env = common::timed(&mut t.freeze_s, || {
            built
                .relocate(&StorageBackend::File {
                    dir: dir.clone(),
                    mode: FileMode::Pread,
                    replicas: 1,
                })
                .map(|()| built.into_shared(pool))
        })
        .map_err(|e| format!("relocation to file:pread failed: {e}"))?;
        t.total_s = t0.elapsed().as_secs_f64();
        setups.push(t);
        deployed = Some((city, env, dir));
    }
    let (city, env, dir) = deployed.expect("at least one set-up");
    common::setup_metrics(&mut out, &setups);

    // Reference answers for every cell from the sequential in-memory engine.
    let mut oracle = city.build()?;
    let cells = env.grid().cell_count() as u64;
    let reference: Vec<u64> = (0..cells as u32)
        .map(|c| {
            oracle
                .query_cell(c, ETA)
                .map(|(r, _)| common::digest(&r))
                .map_err(|e| format!("reference query of cell {c} failed: {e}"))
        })
        .collect::<Result<_, _>>()?;
    drop(oracle);

    let mut seeds = SplitMix64::new(args.seed ^ 0xc01d);
    let mut clients: Vec<Client> = (0..CLIENTS as u64)
        .map(|id| Client {
            id,
            ctx: SessionCtx::new(),
            rng: SplitMix64::new(seeds.next_u64()),
            queries: 0,
        })
        .collect();
    let step = |c: &mut Client, tally: &mut Tally, tr: &mut Tracer| {
        let cell = (c.rng.next_u64() % cells) as u32;
        let req = crate::walk::request_id(c.id, c.queries);
        c.queries += 1;
        let t0 = Instant::now();
        let f = tr.begin(trace::FRAME, req);
        let q = tr.begin(trace::QUERY, req);
        let answer = env.query_cell(&mut c.ctx, cell, ETA);
        tr.end(q);
        tr.end(f);
        tally.lat.record(t0);
        tally.attempted += 1;
        match answer {
            Ok((r, st)) => {
                tally.search(&st);
                if r.degrade().errors_absorbed() > 0 {
                    tally.degraded += 1;
                }
                if common::digest(&r) != reference[cell as usize] {
                    tally.mismatch(|| format!("cell {cell}: answer digest differs"));
                }
            }
            Err(_) => tally.failed += 1,
        }
    };

    let mut phases = Vec::new();
    for (kind, secs) in common::phase_plan(args.trace, args.seconds) {
        let before = common::pool_stats(&env);
        let (tally, tracers) = common::drive(&mut clients, secs, kind, &step);
        let hits = common::pool_delta(&before, &common::pool_stats(&env));
        phases.push((kind, tally, tracers, hits));
    }
    let on_disk = dir_bytes(&dir);
    layers::finish(&mut out, phases, args, "cold_query", &env, on_disk as f64);
    out.notes.push(format!(
        "cold_query: uniform random cells, {CLIENTS} closed-loop clients, backend file:pread, \
         {} store pages vs {} pooled pages (5 pools x {POOL_PAGES})",
        common::store_bytes(&env) / hdov_storage::PAGE_SIZE as u64,
        5 * POOL_PAGES
    ));
    Ok(out)
}
