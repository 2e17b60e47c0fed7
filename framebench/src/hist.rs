//! Fixed-size latency histograms over time windows.
//!
//! Samples land in log-linear buckets (256 per power of two, so under 0.4 %
//! relative width), and quantiles interpolate by rank inside a bucket. The
//! memory is fixed, so the benchmark's own bookkeeping does not grow the
//! process's peak RSS with the frame count.
//!
//! A phase is cut into windows of [`WINDOW_S`] seconds, and a run reports
//! the median over windows of each window's quantile and rate. A shared
//! host slows down for seconds at a time; the median over windows keeps
//! such stretches from moving a run's figure unless they cover half of it.

use std::time::Instant;

/// Window length in seconds.
pub const WINDOW_S: f64 = 0.5;

const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
/// Buckets for values below 2^40 ns; larger values share the last one.
const BUCKETS: usize = (40 - SUB_BITS as usize + 1) * SUB;

/// Counts of nanosecond samples.
#[derive(Debug, Clone)]
pub struct LatHist {
    counts: Vec<u32>,
    n: u64,
}

impl Default for LatHist {
    fn default() -> Self {
        LatHist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (((e - SUB_BITS + 1) as usize) * SUB + sub).min(BUCKETS - 1)
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    let width = (1u64 << (e - SUB_BITS)) as f64;
    let low = (1u64 << e) as f64 + (i % SUB) as f64 * width;
    (low, low + width)
}

impl LatHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, o: &LatHist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// The `q` quantile in ns (0 when empty), interpolated inside its
    /// bucket by rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q * self.n as f64).clamp(1.0, self.n as f64);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + u64::from(c)) as f64 >= rank {
                let (lo, hi) = bounds(i);
                let frac = (rank - below as f64 - 0.5) / f64::from(c);
                return lo + frac.clamp(0.0, 1.0) * (hi - lo);
            }
            below += u64::from(c);
        }
        bounds(BUCKETS - 1).1
    }
}

/// One client's (or a merged) latency record, windowed by time.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    origin: Option<Instant>,
    hists: Vec<LatHist>,
}

impl Windows {
    /// Windows covering `seconds` from `origin`; later samples join the
    /// last window.
    pub fn new(origin: Instant, seconds: f64) -> Self {
        let n = ((seconds / WINDOW_S).round() as usize).max(1);
        Windows {
            origin: Some(origin),
            hists: vec![LatHist::default(); n],
        }
    }

    /// Records a frame that started at `t0`; returns its latency in ns.
    pub fn record(&mut self, t0: Instant) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        let origin = self.origin.expect("windows made with an origin");
        let at = t0.saturating_duration_since(origin);
        let i = (at.as_secs_f64() / WINDOW_S) as usize;
        let last = self.hists.len() - 1;
        self.hists[i.min(last)].record(ns);
        ns
    }

    pub fn merge(&mut self, o: &Windows) {
        for (a, b) in self.hists.iter_mut().zip(&o.hists) {
            a.merge(b);
        }
    }

    /// All windows together.
    pub fn total(&self) -> LatHist {
        let mut t = LatHist::default();
        for h in &self.hists {
            t.merge(h);
        }
        t
    }

    /// Median over the non-empty windows of `f(window)`.
    fn median_over_windows(&self, f: impl Fn(&LatHist) -> f64) -> f64 {
        let v: Vec<f64> = self.hists.iter().filter(|h| h.len() > 0).map(f).collect();
        crate::report::median(&v)
    }

    /// Median over windows of the `q` quantile, in µs.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.median_over_windows(|h| h.quantile(q)) / 1e3
    }

    /// Median over windows of frames per second.
    pub fn rate(&self) -> f64 {
        self.median_over_windows(|h| h.len() as f64 / WINDOW_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_ordered_and_tight() {
        let mut last = 0;
        for v in [0u64, 1, 255, 256, 257, 1000, 65_536, 1 << 30, (1 << 40) - 1] {
            let b = bucket(v);
            assert!(b >= last);
            last = b;
            let (lo, hi) = bounds(b);
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
            assert!(hi - lo <= (lo / 255.0).max(1.0));
        }
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = LatHist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.005, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.005, "{p99}");
    }
}
