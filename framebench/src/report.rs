//! Result bookkeeping: named metrics with units, order statistics, and the
//! one-line JSON result the benchmark ends with.

/// Measured values by metric name, in the order first set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Frames and commits attempted.
    pub attempted: u64,
    /// Frames and commits that returned `Err`.
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
    /// Why a correctness check failed.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Records a correctness failure (kept short: the first few suffice).
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        if self.mismatches.len() < 16 {
            self.mismatches.push(what);
        }
    }

    /// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` over
    /// `(name, unit)` pairs; a metric the run did not measure reads 0.
    pub fn json(&self, keep: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).filter(|v| v.is_finite());
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    v.unwrap_or(0.0)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a small float sample; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD
    };
    if let Ok(s) = std::fs::read_to_string(format!(".git/{r}")) {
        return s.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r} not found)"))
}
