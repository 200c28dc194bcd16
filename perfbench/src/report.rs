//! Results of one benchmark run: metrics with units, correctness
//! verdicts, host metadata, and the summary statistics every workload
//! shares (medians, tail percentiles, the failure ratio).

use std::fmt::Write as _;
use std::time::Instant;

use crate::speed::{at_reference, Measured};

/// The seed reserved for re-checking a claim: never used while a change
/// is written or tuned, so a gain measured on the development seeds can
/// be confirmed on inputs nobody looked at. `--seed held-out` selects it.
pub const HELD_OUT_SEED: u64 = 0x00c0_ffee_d15c_0de5;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    name: String,
    /// Measured value.
    value: f64,
    /// Unit (`s`, `us`, `ns`, `ops/s`, `count`, `ratio`, ...).
    unit: &'static str,
}

/// Which percentile stands behind a tail-latency figure, and over how
/// many samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (99 when the samples allow it).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples per chunk it was taken over (the smallest chunk).
    pub samples: usize,
    /// Chunks of consecutive operations it was taken in.
    pub chunks: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Extra facts for the metadata line (percentiles, sample counts,
    /// ladder steps, reference checksums), as `(key, JSON value)`.
    meta: Vec<(String, String)>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness checks that failed, by description.
    pub broken: Vec<String>,
}

impl Report {
    /// Records a metric. A later record of the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a latency tail under `name`, with its percentile and
    /// sample count in the metadata.
    pub fn tail(&mut self, name: &str, tail: Tail) {
        self.metric(name, tail.value, "us");
        self.note(
            name,
            format!(
                "{{\"percentile\":{},\"samples_per_chunk\":{},\"chunks\":{}}}",
                tail.percentile, tail.samples, tail.chunks
            ),
        );
    }

    /// Records the median of repeated wall timings (seconds), at
    /// reference speed; the raw wall median goes to the metadata.
    pub fn timing(&mut self, name: &str, secs: &[f64]) {
        let raw = median(secs);
        self.metric(name, at_reference(raw), "s");
        self.note(&format!("{name}.raw"), json_num(raw));
    }

    /// Records a phase's rate times `per_op` (events per operation, or
    /// 1 for operations); the raw wall rate goes to the metadata.
    pub fn rate(&mut self, name: &str, m: &Measured, per_op: f64) {
        let unit = if name == "events_per_s" {
            "events/s"
        } else {
            "ops/s"
        };
        self.metric(name, m.rate * per_op, unit);
        self.note(&format!("{name}.raw"), json_num(m.raw_rate * per_op));
    }

    /// Records a phase's read and write latency figures.
    pub fn latencies(&mut self, m: &Measured) {
        self.metric("read_p50_us", p50_us(&m.reads), "us");
        self.tail("read_p99_us", tail_us(&m.reads));
        self.metric("write_p50_us", p50_us(&m.writes), "us");
        self.tail("write_p99_us", tail_us(&m.writes));
    }

    /// Records a metadata fact (`value` is JSON).
    pub fn note(&mut self, key: &str, value: String) {
        self.meta.retain(|(k, _)| k != key);
        self.meta.push((key.to_owned(), value));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Checks a condition; a failed check is remembered and, at
    /// [`Report::settle`], counts every operation of the run as failed.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.broken.is_empty()
    }

    /// Folds failed checks into the operation counts and records
    /// `failed_ratio`: a failed check makes every attempted operation a
    /// failure.
    pub fn settle(&mut self) {
        self.attempted = self.attempted.max(1);
        if !self.correct() {
            self.failed = self.attempted;
        }
        self.failed = self.failed.min(self.attempted);
        self.metric(
            "failed_ratio",
            failed_ratio(self.failed, self.attempted),
            "ratio",
        );
    }

    /// The human-readable table: every metric by name, value and unit.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("── {title} ──\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<40} {:>16} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        let _ = writeln!(
            out,
            "  attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for b in &self.broken {
            let _ = writeln!(out, "  CHECK FAILED: {b}");
        }
        out
    }

    /// The metadata line: host, build, run parameters and the notes.
    pub fn meta_json(&self, host: &Host, run: &str) -> String {
        let mut out = format!("{{\"meta\":{{{run},{}", host.json());
        for (k, v) in &self.meta {
            let _ = write!(out, ",{}:{v}", json_str(k));
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, restricted to `names` (the metric set of the mode).
    ///
    /// # Panics
    ///
    /// If a listed metric was never recorded — a bug in the workload.
    pub fn result_json(&self, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, name) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(m.value),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Failed over attempted, add-one smoothed: a clean run reads a small
/// non-zero figure (about one over the operation count) instead of 0,
/// and any real failure raises it by orders of magnitude.
fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    (failed as f64 + 1.0) / (attempted as f64 + 1.0)
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number: finite values in full precision, non-finite as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub git_commit: String,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Self {
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_owned())
        };
        // Only a work tree rooted here names this checkout's commit; an
        // enclosing repository would name some other one.
        let here = std::env::current_dir()
            .ok()
            .and_then(|d| d.canonicalize().ok());
        let top = git(&["rev-parse", "--show-toplevel"])
            .and_then(|t| std::path::Path::new(&t).canonicalize().ok());
        let git_commit = if top.is_some() && top == here {
            git(&["rev-parse", "HEAD"])
        } else {
            None
        }
        .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            git_commit,
        }
    }

    fn json(&self) -> String {
        format!(
            "\"nproc\":{},\"rustc\":{},\"profile\":{},\"git_commit\":{}",
            self.nproc,
            json_str(self.rustc),
            json_str(self.profile),
            json_str(&self.git_commit)
        )
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
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

/// The median of a sample set (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of a sample set, interpolating between ranks (0
/// when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The percentiles a tail figure may fall back to, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// At most this many chunks per latency figure.
const MAX_CHUNKS: usize = 50;

/// Nearest-rank percentile of sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest candidate percentile with at least ten of `n` samples
/// beyond it. Below 21 samples none has, and the median stands in: a
/// maximum over a handful of samples would only measure the noise.
fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - 1 - rank(n, p) >= 10)
        .unwrap_or(50.0)
}

/// Latency samples (ns, in completion order) split into consecutive
/// chunks of at least `min` samples each.
fn chunks(samples: &[u64], min: usize) -> Vec<Vec<u64>> {
    let n = samples.len();
    let k = (n / min.max(1)).clamp(1, MAX_CHUNKS);
    (0..k)
        .map(|i| {
            let mut c = samples[n * i / k..n * (i + 1) / k].to_vec();
            c.sort_unstable();
            c
        })
        .collect()
}

/// Percentile `p` of latency samples, in µs: taken in each chunk of
/// consecutive operations; the median across chunks.
fn chunked_percentile(samples: &[u64], min: usize, p: f64) -> (f64, usize, usize) {
    let parts = chunks(samples, min);
    let smallest = parts.iter().map(Vec::len).min().unwrap_or(0);
    let values: Vec<f64> = parts
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| c[rank(c.len(), p)] as f64 / 1e3)
        .collect();
    (median(&values), smallest, parts.len())
}

/// The median latency of samples (ns), in µs: per chunk of at least 100
/// operations, the median across chunks.
pub fn p50_us(samples: &[u64]) -> f64 {
    chunked_percentile(samples, 100, 50.0).0
}

/// The tail latency of samples (ns), in µs: per chunk of at least 1,000
/// operations, the highest percentile (99 at most) with ten samples
/// beyond it; the median across chunks.
pub fn tail_us(samples: &[u64]) -> Tail {
    let per_chunk = samples.len() / (samples.len() / 1000).clamp(1, MAX_CHUNKS);
    let percentile = tail_percentile(per_chunk.max(1));
    let (value, smallest, chunks) = chunked_percentile(samples, 1000, percentile);
    Tail {
        percentile,
        value,
        samples: smallest,
        chunks,
    }
}

/// Wall time of one call, in nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        let t = tail_us(&s);
        assert_eq!((t.percentile, t.value, t.chunks), (99.0, 990.0, 1));
        let s: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(tail_us(&s).percentile, 90.0);
        let t = tail_us(&[5_000, 1_000, 3_000]);
        assert_eq!((t.percentile, t.value), (50.0, 3.0));
    }

    #[test]
    fn chunked_figures_ignore_a_disturbed_stretch() {
        // Four quiet chunks and one where every operation took 10x.
        let mut s: Vec<u64> = (0..4000).map(|i| 1_000 + i % 100).collect();
        s.extend((0..1000).map(|i| 10_000 + i % 100));
        assert!(p50_us(&s) < 1.1);
        let t = tail_us(&s);
        assert_eq!(t.chunks, 5);
        assert!(t.value < 1.2);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn failed_check_fails_every_operation() {
        let mut r = Report {
            attempted: 500,
            ..Report::default()
        };
        r.check(true, "fine");
        r.settle();
        assert!(r.correct());
        assert!(r.get("failed_ratio").unwrap() < 0.01);
        r.check(false, "checksum differs");
        r.settle();
        assert!(!r.correct());
        assert_eq!(r.failed, 500);
        assert_eq!(r.get("failed_ratio"), Some(1.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("a", 1.5, "s");
        r.metric("b", 2.0, "ms");
        r.settle();
        let line = r.result_json(&["a", "failed_ratio"]);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"a\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!line.contains("\"b\""));
    }
}
