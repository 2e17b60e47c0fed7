//! `framebench` — frame-level end-to-end benchmark of the HDoV-tree stack.
//!
//! ```text
//! framebench --workload <walk|cold_query|sharded_walk|edit_mix> --seed <n>
//!            --seconds <s> --trace <0|1> [--trace-file <path>]
//! ```
//!
//! Builds the workload's deployment (timed as `setup_s`, median of three),
//! runs closed-loop clients against it for `--seconds`, checks every answer
//! against a reference, and prints one JSON object as the last line of
//! standard output. With `--trace 0` it holds the end-to-end metrics, from
//! a run with all tracing off; with `--trace 1` the per-layer metrics, from
//! spans the benchmark records around each call into a layer's public API
//! and from the layers' public counters (see README.md). Exits 1 when a
//! correctness check fails and 2 on a usage or set-up error.

mod cold;
mod common;
mod edit;
mod hist;
mod layers;
mod report;
mod trace;
mod walk;

use std::path::PathBuf;

/// End-to-end metrics and their units, emitted by `--trace 0` runs of
/// every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("frame_us_p50", "us"),
    ("frame_us_p99", "us"),
    ("frames_per_s", "1/s"),
    ("sim_ms_per_frame", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("store_mib", "MiB"),
];

/// Per-layer metrics and their units, emitted by `--trace 1` runs of every
/// workload; those a workload does not exercise read 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("frame.self_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_share", "ratio"),
    ("degraded_share", "ratio"),
    ("core.query_us", "us"),
    ("core.prefetch_us", "us"),
    ("core.prefetch_pages_per_call", "count"),
    ("core.nodes_per_frame", "count"),
    ("core.vpages_per_frame", "count"),
    ("core.delta_reuse_ratio", "ratio"),
    ("core.sim_node_ms", "ms"),
    ("core.sim_vstore_ms", "ms"),
    ("core.sim_model_ms", "ms"),
    ("core.sim_internal_ms", "ms"),
    ("storage.hit_rate.nodes", "ratio"),
    ("storage.hit_rate.internal", "ratio"),
    ("storage.hit_rate.models", "ratio"),
    ("storage.hit_rate.index", "ratio"),
    ("storage.hit_rate.vpages", "ratio"),
    ("storage.misses_per_frame", "count"),
    ("storage.hit_ns", "ns"),
    ("storage.miss_ns", "ns"),
    ("storage.backend_read_ns", "ns"),
    ("codec.decode_ns_per_record", "ns"),
    ("shard.route_us", "us"),
    ("shard.fanout_per_frame", "count"),
    ("shard.page_reads_per_frame", "count"),
    ("shard.degraded_shards", "count"),
    ("shard.timeouts", "count"),
    ("shard.hedged", "count"),
    ("walkthrough.server_frames_per_s", "1/s"),
    ("shard.server_frames_per_s", "1/s"),
    ("commit_ms_p50", "ms"),
    ("mutable.translate_us", "us"),
    ("mutable.commit_ms", "ms"),
    ("mutable.wal_kib_per_commit", "KiB"),
    ("mutable.first_frame_after_commit_us", "us"),
    ("mutable.reader_hit_rate", "ratio"),
    ("visibility.dov_compute_s", "s"),
    ("core.build_s", "s"),
    ("storage.freeze_s", "s"),
    ("shard.router_build_s", "s"),
    ("mutable.create_s", "s"),
    ("obs.enabled_frame_us_p50", "us"),
    ("obs.overhead_ratio", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_file: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_file) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_file,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("framebench: {e}");
            std::process::exit(2);
        }
    };
    // Working space for file-backed stores and the WAL, inside the
    // directory the benchmark runs from; removed when the run ends.
    let data =
        PathBuf::from(".framebench-data").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("framebench: cannot create {}: {e}", data.display());
        std::process::exit(2);
    }
    let result = match args.workload.as_str() {
        "walk" => walk::run(&args, false),
        "sharded_walk" => walk::run(&args, true),
        "cold_query" => cold::run(&args, &data),
        "edit_mix" => edit::run(&args, &data),
        w => Err(format!(
            "unknown workload {w:?}; use walk, cold_query, sharded_walk or edit_mix"
        )),
    };
    let _ = std::fs::remove_dir_all(&data);
    if let Some(parent) = data.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("framebench: {e}");
            std::process::exit(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rss = report::peak_rss_mib();
    out.metrics.set("peak_rss_mib", rss);
    println!(
        "framebench {} seed={} seconds={} trace={} nproc={nproc} git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::git_sha()
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for e in &out.mismatches {
        println!("  CORRECTNESS FAILURE: {e}");
    }
    let keep: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in keep {
        match out.metrics.get(name) {
            Some(v) => println!("  {name:<36} {v:>14.4} {unit}"),
            None => println!("  {name:<36} {:>14} (not exercised)", 0),
        }
    }
    if !args.trace {
        // End-to-end figures that the result line carries in the per-layer
        // set, because they are zero or absent on some workloads.
        for (name, unit) in [
            ("failed_share", "ratio"),
            ("degraded_share", "ratio"),
            ("commit_ms_p50", "ms"),
        ] {
            if let Some(v) = out.metrics.get(name) {
                println!("  {name:<36} {v:>14.4} {unit}");
            }
        }
    }
    println!("{}", out.json(keep));
    if !out.correct {
        std::process::exit(1);
    }
}
