//! Order statistics, the result line, and host facts.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    values[rank]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Ratio between neighbouring histogram bucket edges.
const GROWTH: f64 = 1.01;

/// A log-bucketed histogram (1% wide buckets, a few KB), so a run can
/// record one sample per notification in constant memory that does not
/// weigh on `peak_rss_mb`. Quantiles interpolate linearly by rank inside a
/// bucket.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Hist {
    /// Records one sample (values ≤ 1 share the first bucket).
    pub fn record(&mut self, value: f64) {
        let bucket = if value <= 1.0 { 0 } else { (value.ln() / GROWTH.ln()) as usize + 1 };
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if count > 0 && rank < (before + count) as f64 {
                let lo = if bucket == 0 { 0.0 } else { GROWTH.powi(bucket as i32 - 1) };
                let hi = GROWTH.powi(bucket as i32);
                let within = (rank - before as f64 + 0.5) / count as f64;
                return lo + (hi - lo) * within.clamp(0.0, 1.0);
            }
            before += count;
        }
        GROWTH.powi(self.counts.len() as i32)
    }
}

/// Latency samples binned by the window of their operation's due time.
/// A quantile is taken in each window and the median across windows is
/// reported, so one disturbed second of a shared host does not set the
/// whole run's tail.
#[derive(Clone, Debug, Default)]
pub struct Windowed {
    windows: Vec<Hist>,
}

impl Windowed {
    /// Records `value` in window `window`.
    pub fn record(&mut self, window: usize, value: f64) {
        if window >= self.windows.len() {
            self.windows.resize(window + 1, Hist::default());
        }
        self.windows[window].record(value);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.windows.iter().map(Hist::len).sum()
    }

    /// Sets the window count to `n` (empty windows added, later ones cut).
    pub fn fit(&mut self, n: usize) {
        self.windows.resize(n, Hist::default());
    }

    /// Appends `other`'s windows after this one's.
    pub fn append(&mut self, other: Windowed) {
        self.windows.extend(other.windows);
    }

    /// Every window's samples in one histogram.
    pub fn pooled(&self) -> Hist {
        let mut all = Hist::default();
        for h in &self.windows {
            if h.counts.len() > all.counts.len() {
                all.counts.resize(h.counts.len(), 0);
            }
            for (a, c) in all.counts.iter_mut().zip(&h.counts) {
                *a += c;
            }
            all.total += h.total;
        }
        all
    }

    /// Median over the windows of each window's `q`-quantile. Windows
    /// with fewer than half the samples of the fullest one (a partial
    /// last window) are left out; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        median(&mut self.per_window(q))
    }

    fn per_window(&self, q: f64) -> Vec<f64> {
        let fullest = self.windows.iter().map(Hist::len).max().unwrap_or(0);
        self.windows
            .iter()
            .filter(|h| h.len() > 0 && 2 * h.len() >= fullest)
            .map(|h| h.quantile(q))
            .collect()
    }
}

/// The median over windows of the mean of each series' `q`-quantile in
/// the window (series without samples in it left out). Windows holding
/// fewer than half the samples of the fullest one are left out; 0 when
/// empty. The series' windows must be aligned (see [`Windowed::fit`]).
pub fn blended_quantile(series: &[&Windowed], q: f64) -> f64 {
    let windows = series.iter().map(|s| s.windows.len()).max().unwrap_or(0);
    let in_window = |w: usize| series.iter().filter_map(move |s| s.windows.get(w));
    let count = |w: usize| in_window(w).map(Hist::len).sum::<u64>();
    let fullest = (0..windows).map(count).max().unwrap_or(0);
    let mut per_window: Vec<f64> = (0..windows)
        .filter(|&w| count(w) > 0 && 2 * count(w) >= fullest)
        .map(|w| {
            let quantiles: Vec<f64> =
                in_window(w).filter(|h| h.len() > 0).map(|h| h.quantile(q)).collect();
            quantiles.iter().sum::<f64>() / quantiles.len() as f64
        })
        .collect();
    median(&mut per_window)
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
}

/// Builds a metric list in declaration order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_owned(), value, unit });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in metrics.0.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(out, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host-facts line: cores, build profile, compiler, commit.
pub fn host_facts() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={cores} profile={} rustc=\"{}\" commit={}",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit()
    )
}

/// HEAD of the checkout, when the working directory is a git work tree.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown(not-a-git-checkout)".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_json() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 51.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
        let mut h = Hist::default();
        for x in 1..=1000 {
            h.record(f64::from(x));
        }
        assert_eq!(h.len(), 1000);
        assert!((h.quantile(0.5) - 500.0).abs() < 2.0, "{}", h.quantile(0.5));
        assert!((h.quantile(0.99) - 990.0).abs() < 3.0, "{}", h.quantile(0.99));
        // Two reply kinds of different speed, alternating within each
        // window: the blend is the mean of the two medians, however many
        // of each a window holds.
        let (mut fast, mut slow) = (Windowed::default(), Windowed::default());
        for w in 0..5 {
            for k in 0..(60 + w) {
                fast.record(w, 100.0 + k as f64 % 3.0);
            }
            for _ in 0..(60 - w) {
                slow.record(w, 1000.0);
            }
        }
        let blended = blended_quantile(&[&fast, &slow], 0.5);
        assert!((blended - 550.5).abs() < 10.0, "{blended}");
        assert!((blended_quantile(&[&fast], 0.5) - 101.0).abs() < 2.0);
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
