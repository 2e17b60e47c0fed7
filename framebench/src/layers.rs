//! Turns the measured phases into metrics: end-to-end numbers from the
//! untraced phase, per-layer numbers from the traced phase, the spans, the
//! public counters, and the layer probes.

use crate::common::{PhaseKind, Tally};
use crate::hist::WINDOW_S;
use crate::report::{ratio, Outcome};
use crate::trace::{self, Tracer};
use crate::Args;
use hdov_core::{SharedEnvironment, VPageCodec};
use hdov_storage::{IoCursor, PageId, PAGE_SIZE};
use std::hint::black_box;
use std::time::Instant;

/// One measured phase: its kind, what the clients tallied, their span logs,
/// and the `(hits, misses)` each pool took during it.
pub type Phase = (PhaseKind, Tally, Vec<Tracer>, Vec<(u64, u64)>);

/// Pool names in `SharedEnvironment::for_each_pool` order for the
/// indexed-vertical scheme every workload builds.
const POOLS: [&str; 5] = [
    "storage.hit_rate.nodes",
    "storage.hit_rate.internal",
    "storage.hit_rate.models",
    "storage.hit_rate.index",
    "storage.hit_rate.vpages",
];

/// Sets every metric the phases support and folds their failure and
/// correctness accounting into `out`. `probe_env` holds the workload's own
/// stores, `store_bytes` their size.
pub fn finish(
    out: &mut Outcome,
    phases: Vec<Phase>,
    args: &Args,
    workload: &str,
    probe_env: &SharedEnvironment,
    store_bytes: f64,
) {
    let m = &mut out.metrics;
    m.set("store_mib", store_bytes / (1024.0 * 1024.0));
    let mut timed_p50 = 0.0;
    let (mut attempted, mut failed, mut degraded) = (0, 0, 0);
    let mut mismatch = None;
    for (kind, t, tracers, hits) in phases {
        attempted += t.attempted;
        failed += t.failed;
        degraded += t.degraded;
        if t.mismatches > 0 && mismatch.is_none() {
            mismatch = Some(format!(
                "{} timed frames answered differently from the reference; first: {}",
                t.mismatches,
                t.first_mismatch.clone().unwrap_or_default()
            ));
        }
        match kind {
            PhaseKind::Timed => {
                timed_p50 = t.lat.quantile_us(0.5);
                let p99 = t.lat.quantile_us(0.99);
                let rate = t.lat.rate();
                let ok = (t.attempted - t.failed) as f64;
                m.set("frame_us_p50", timed_p50);
                m.set("frame_us_p99", p99);
                m.set("frames_per_s", rate);
                m.set("sim_ms_per_frame", ratio(t.sim_ms, ok));
                let all = t.lat.total();
                out.notes.push(format!(
                    "{workload}: {} frames in {:.2} s, {:.0} per {}-s window (p99 of a window \
                     has ~{:.0} samples above it); medians over windows: p50 {timed_p50:.2} us, \
                     p99 {p99:.2} us, {rate:.0} frames/s; whole phase: p50 {:.2} us, \
                     p99 {:.2} us",
                    all.len(),
                    t.wall_s,
                    rate * WINDOW_S,
                    WINDOW_S,
                    rate * WINDOW_S / 100.0,
                    all.quantile(0.5) / 1e3,
                    all.quantile(0.99) / 1e3,
                ));
            }
            PhaseKind::Traced => {
                let spans = trace::aggregate(&tracers);
                let self_us = |name: &str| spans.get(name).map_or(0.0, |l| l.self_us());
                let ok = (t.attempted - t.failed) as f64;
                let frames = t.attempted as f64;
                m.set("frame.self_us", self_us(trace::FRAME));
                m.set("core.query_us", self_us(trace::QUERY));
                m.set("core.prefetch_us", self_us(trace::PREFETCH));
                m.set("shard.route_us", self_us(trace::ROUTE));
                m.set(
                    "core.prefetch_pages_per_call",
                    ratio(t.prefetch_pages as f64, t.prefetch_calls as f64),
                );
                m.set("core.nodes_per_frame", ratio(t.nodes as f64, ok));
                m.set("core.vpages_per_frame", ratio(t.vpages as f64, ok));
                m.set(
                    "core.delta_reuse_ratio",
                    ratio(t.retained as f64, (t.added + t.retained) as f64),
                );
                m.set("core.sim_node_ms", ratio(t.sim_node_us / 1e3, ok));
                m.set("core.sim_vstore_ms", ratio(t.sim_vstore_us / 1e3, ok));
                m.set("core.sim_model_ms", ratio(t.sim_model_us / 1e3, ok));
                m.set("core.sim_internal_ms", ratio(t.sim_internal_us / 1e3, ok));
                for (name, (h, miss)) in POOLS.iter().zip(&hits) {
                    m.set(name, ratio(*h as f64, (h + miss) as f64));
                }
                let misses: u64 = hits.iter().map(|h| h.1).sum();
                m.set("storage.misses_per_frame", ratio(misses as f64, frames));
                m.set("shard.fanout_per_frame", ratio(t.fanout as f64, frames));
                m.set(
                    "shard.page_reads_per_frame",
                    ratio(t.shard_page_reads as f64, frames),
                );
                m.set("shard.degraded_shards", t.degraded_shards as f64);
                m.set("shard.timeouts", t.timeouts as f64);
                m.set("shard.hedged", t.hedged as f64);
                m.set(
                    "trace.overhead_ratio",
                    ratio(t.lat.quantile_us(0.5), timed_p50),
                );
                if let Some(path) = &args.trace_file {
                    if let Err(e) = trace::write_jsonl(path, &tracers) {
                        out.notes
                            .push(format!("could not write {}: {e}", path.display()));
                    }
                }
            }
            PhaseKind::Obs => {
                let p50 = t.lat.quantile_us(0.5);
                m.set("obs.enabled_frame_us_p50", p50);
                m.set("obs.overhead_ratio", ratio(p50, timed_p50));
            }
        }
    }
    // Shares over everything attempted, commits the caller counted too.
    out.attempted += attempted;
    out.failed += failed;
    let all = out.attempted as f64;
    m.set("failed_share", ratio(out.failed as f64, all));
    m.set("degraded_share", ratio(degraded as f64, all));
    if let Some(msg) = mismatch {
        out.mismatch(msg);
    }
    if args.trace {
        probe(out, probe_env);
    }
}

/// Pages sampled per pool by the storage probe.
const PROBE_PAGES: u64 = 256;
/// Passes over the resident pages when timing pool hits.
const HIT_PASSES: usize = 200;
/// V-page records sampled by the codec probe, and passes over them.
const CODEC_RECORDS: u64 = 1024;
const CODEC_PASSES: usize = 50;

/// Times the storage and codec layers' public functions on `env`'s own
/// stores with tracing off: a pool hit (`read_frame` on a resident page), a
/// pool miss (`read_frame` on a cold fork, so backend read, checksum and
/// admission), the bare backend read (`FrozenPages::read_into`), and the
/// V-page codec's `decode_record` over the store's own records.
pub fn probe(out: &mut Outcome, env: &SharedEnvironment) {
    let mut acc = [(0f64, 0u64); 3]; // hit, miss, backend: (ns, reads)
    let mut err = None;
    let mut buf = vec![0u8; PAGE_SIZE];
    env.for_each_pool(|pool| {
        let n = pool.page_count().min(PROBE_PAGES);
        let ids: Vec<PageId> = (0..n).map(|k| PageId(k * pool.page_count() / n)).collect();
        let t0 = Instant::now();
        for &id in &ids {
            if let Err(e) = pool.data().read_into(id, &mut buf) {
                err.get_or_insert(e.to_string());
            }
        }
        acc[2].0 += t0.elapsed().as_nanos() as f64;
        acc[2].1 += n;

        let cold = pool.fork();
        let mut cur = IoCursor::new();
        let t0 = Instant::now();
        for &id in &ids {
            if let Err(e) = cold.read_frame(&mut cur, id) {
                err.get_or_insert(e.to_string());
            }
        }
        acc[1].0 += t0.elapsed().as_nanos() as f64;
        acc[1].1 += n;

        let resident: Vec<PageId> = ids.into_iter().filter(|&id| cold.contains(id)).collect();
        let t0 = Instant::now();
        for _ in 0..HIT_PASSES {
            for &id in &resident {
                if let Ok(f) = cold.read_frame(&mut cur, id) {
                    black_box(f);
                }
            }
        }
        acc[0].0 += t0.elapsed().as_nanos() as f64;
        acc[0].1 += (HIT_PASSES * resident.len()) as u64;
    });
    let m = &mut out.metrics;
    m.set("storage.hit_ns", ratio(acc[0].0, acc[0].1 as f64));
    m.set("storage.miss_ns", ratio(acc[1].0, acc[1].1 as f64));
    m.set("storage.backend_read_ns", ratio(acc[2].0, acc[2].1 as f64));

    // The decoded records, re-encoded at their own size with the store's
    // codec (every workload builds with the delta codec): the bytes the
    // decoder sees on a miss, minus slot padding.
    let vpages = env.vstore().vpages();
    let n = vpages.records().min(CODEC_RECORDS);
    let codec = VPageCodec::Delta;
    let mut cur = IoCursor::new();
    let records: Vec<Vec<u8>> = (0..n)
        .filter_map(|k| {
            let vp = vpages.read(&mut cur, k * vpages.records() / n).ok()?;
            codec.encode_record(&vp, codec.record_len(&vp)).ok()
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..CODEC_PASSES {
        for r in &records {
            if let Ok(vp) = codec.decode_record(r) {
                black_box(vp);
            }
        }
    }
    m.set(
        "codec.decode_ns_per_record",
        ratio(
            t0.elapsed().as_nanos() as f64,
            (CODEC_PASSES * records.len()) as f64,
        ),
    );
    if let Some(e) = err {
        out.notes.push(format!("layer probe read error: {e}"));
    }
}
