//! In-memory span recording from the benchmark's side of each layer's
//! public API.
//!
//! A span carries a layer name, start and end (ns since the recorder was
//! made), the index of its parent span, and a request id (visitor and
//! frame, or commit number). Spans stay in memory until the run ends; a
//! layer's self time is its span minus the spans nested directly in it.
//! With recording off, [`Tracer::begin`] and [`Tracer::end`] are one branch
//! each, so the timed runs carry no tracing work.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Span names, one per layer boundary the benchmark times.
pub const FRAME: &str = "frame";
pub const QUERY: &str = "core.query";
pub const PREFETCH: &str = "core.prefetch";
pub const ROUTE: &str = "shard.route";
pub const EDIT: &str = "edit";
pub const TRANSLATE: &str = "mutable.translate";
pub const COMMIT: &str = "mutable.commit";

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Open-span handle; `None` when recording is off.
pub type SpanId = Option<u32>;

/// One thread's span log.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            self.open.pop();
        }
    }
}

/// Per-name totals over many spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    pub count: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span in µs.
    pub fn self_us(&self) -> f64 {
        crate::report::ratio(self.self_ns as f64 / 1e3, self.count as f64)
    }
}

/// Count and self time per span name over every tracer.
pub fn aggregate(tracers: &[Tracer]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for t in tracers {
        let mut child_ns = vec![0u64; t.spans.len()];
        for s in &t.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in t.spans.iter().zip(child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += d.saturating_sub(children);
        }
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, t) in tracers.iter().enumerate() {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"thread\": {thread}, \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}
