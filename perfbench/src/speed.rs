//! Host-speed normalisation.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! 10–30% within seconds (steal time, frequency changes, a busy sibling
//! thread). Every timed figure is therefore taken together with a
//! **calibration probe** — a fixed, program-independent, allocation-free
//! pointer walk, timed between measurement windows — and reported at the
//! reference speed:
//!
//! ```text
//! slowdown = probe time / REFERENCE_NS        (1.0 on a host at reference speed)
//! time at reference speed = wall time / slowdown
//! rate at reference speed = wall rate × slowdown
//! ```
//!
//! The probe never touches the program, so a change that makes the
//! program faster moves the figures exactly as it moves wall time,
//! while the host's drift cancels. Raw wall figures are kept alongside
//! in the metadata line.

use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::common::Rng;
use crate::report::median;

/// What the probe takes at reference speed, in ns: its median on the
/// 2-vCPU host the baseline was recorded on.
pub const REFERENCE_NS: f64 = 430_000.0;

/// Entries of the probe's pointer-chasing table (32 KiB: it fits a
/// core's L1 data cache once warmed, so what the program left in the
/// caches does not change the probe).
const TABLE: usize = 1 << 13;

/// Timed steps of one probe, split over `WALKS` walks.
const STEPS: usize = 200_000;
const WALKS: usize = 5;

/// A random single-cycle permutation of the table's slots.
fn table() -> Vec<u32> {
    let mut order: Vec<u32> = (0..TABLE as u32).collect();
    let mut rng = Rng::new(42, 7);
    for i in (1..TABLE).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next = vec![0u32; TABLE];
    for w in 0..TABLE {
        next[order[w] as usize] = order[(w + 1) % TABLE];
    }
    next
}

/// The calibration workload: a dependent walk through the table with a
/// little integer mixing per step. It allocates nothing, so it reads
/// the core's speed (frequency, steal, cache contention) without being
/// perturbed by whatever the program left in the allocator.
fn calibrate(next: &[u32], steps: usize) -> u64 {
    let mut at = 0u32;
    let mut h = 0u64;
    for _ in 0..steps {
        at = next[at as usize];
        h = (h ^ u64::from(at)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h
}

thread_local! {
    /// The two most recent probes (as slowdowns) and when the last ran.
    static PROBES: Cell<(f64, f64, Option<Instant>)> = const { Cell::new((1.0, 1.0, None)) };
    /// The probe's table, built once per thread.
    static NEXT: Vec<u32> = table();
    /// Every probe of this thread, as slowdowns.
    static HISTORY: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The median slowdown over every probe so far (1.0 before any).
pub fn median_slowdown() -> f64 {
    HISTORY.with(|h| {
        let h = h.borrow();
        if h.is_empty() {
            1.0
        } else {
            median(&h)
        }
    })
}

/// Probes the host now; returns the time the probe took.
pub fn refresh() -> Duration {
    let start = Instant::now();
    let walk_ns = NEXT.with(|next| {
        // One untimed lap loads the table; the timed walks then read the
        // core alone. Their median shrugs off an interrupt during one.
        std::hint::black_box(calibrate(next, 2 * TABLE));
        let walks: Vec<f64> = (0..WALKS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(calibrate(next, STEPS / WALKS));
                t.elapsed().as_nanos() as f64 * WALKS as f64
            })
            .collect();
        median(&walks)
    });
    let spent = start.elapsed();
    let s = walk_ns / REFERENCE_NS;
    HISTORY.with(|h| h.borrow_mut().push(s));
    PROBES.with(|p| {
        let (_, last, at) = p.get();
        let prev = if at.is_some() { last } else { s };
        p.set((prev, s, Some(Instant::now())));
    });
    spent
}

/// Probes when `every` has passed since the last probe; returns the
/// time spent probing.
pub fn maybe_refresh(every: Duration) -> Duration {
    let due = PROBES.with(|p| p.get().2.is_none_or(|at| at.elapsed() >= every));
    if due {
        refresh()
    } else {
        Duration::ZERO
    }
}

/// The host's current slowdown: the mean of the last two probes.
pub fn slowdown() -> f64 {
    PROBES.with(|p| {
        let (prev, last, _) = p.get();
        (prev + last) / 2.0
    })
}

/// Runs `f` between two probes; returns its output and its wall
/// seconds. [`at_reference`] scales them once the run's probes are in.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    refresh();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    refresh();
    (out, secs)
}

/// Times short repetitions, probing before the first and after every
/// tenth rather than around each: a probe between microsecond-long
/// repetitions would change the caches they run in. `rep` does any
/// untimed preparation itself and returns the wall seconds of its timed
/// part.
pub fn timed_reps(n: usize, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    refresh();
    (0..n)
        .map(|i| {
            let secs = rep();
            if i % 10 == 9 || i + 1 == n {
                refresh();
            }
            secs
        })
        .collect()
}

/// Wall seconds scaled to reference speed by the median of every probe
/// of the run so far: single timings carry too few probes of their own
/// to be scaled by them.
pub fn at_reference(secs: f64) -> f64 {
    secs / median_slowdown()
}

/// Ns per call of `batch` (which performs `per_batch` calls), over
/// batches repeated for about `length`, each at reference speed; the
/// median across batches.
pub fn per_call_ns(length: Duration, per_batch: usize, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut values = Vec::new();
    while start.elapsed() < length || values.len() < 3 {
        maybe_refresh(Duration::from_millis(50));
        let t = Instant::now();
        batch();
        let ns = t.elapsed().as_nanos() as f64 / per_batch as f64;
        values.push(ns / slowdown());
    }
    median(&values)
}

/// A measured phase of a closed loop: operations counted in windows
/// (a fortieth of the phase), latency samples by class, and a probe at
/// every window edge that scales the window's rate and samples to
/// reference speed. Probe time is left out of the phase.
#[derive(Debug)]
pub struct Phase {
    length: Duration,
    target: Option<u64>,
    width: Duration,
    start: Instant,
    window_start: Instant,
    window_ops: u64,
    rates: Vec<f64>,
    raw_rates: Vec<f64>,
    slowdowns: Vec<f64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    scaled: (usize, usize),
    /// Operations so far.
    pub ops: u64,
}

/// What a phase measured, at reference speed.
#[derive(Debug)]
pub struct Measured {
    /// Operations.
    pub ops: u64,
    /// Operations per second: the median window rate.
    pub rate: f64,
    /// The same from raw wall time.
    pub raw_rate: f64,
    /// The host's median slowdown over the phase.
    pub slowdown: f64,
    /// Read-class latencies (ns), in completion order.
    pub reads: Vec<u64>,
    /// Write-class latencies (ns), in completion order.
    pub writes: Vec<u64>,
}

impl Phase {
    /// Starts a phase of `target` operations when given, else of
    /// `length`.
    pub fn start(length: Duration, target: Option<u64>) -> Self {
        refresh();
        let now = Instant::now();
        Self {
            length,
            target,
            width: length / 40,
            start: now,
            window_start: now,
            window_ops: 0,
            rates: Vec::new(),
            raw_rates: Vec::new(),
            slowdowns: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            scaled: (0, 0),
            ops: 0,
        }
    }

    /// Records a read-class operation's latency.
    pub fn read(&mut self, ns: u64) {
        self.reads.push(ns);
    }

    /// Records a write-class operation's latency.
    pub fn write(&mut self, ns: u64) {
        self.writes.push(ns);
    }

    /// Counts `n` completed operations; closes the window when its
    /// width has passed.
    pub fn tick(&mut self, n: u64) {
        self.ops += n;
        self.window_ops += n;
        let spent = self.window_start.elapsed();
        if spent >= self.width {
            self.close(spent);
        }
    }

    fn close(&mut self, spent: Duration) {
        let probe = refresh();
        self.start += probe;
        let s = slowdown();
        let raw = self.window_ops as f64 / spent.as_secs_f64().max(1e-9);
        self.raw_rates.push(raw);
        self.rates.push(raw * s);
        self.slowdowns.push(s);
        for v in &mut self.reads[self.scaled.0..] {
            *v = (*v as f64 / s) as u64;
        }
        for v in &mut self.writes[self.scaled.1..] {
            *v = (*v as f64 / s) as u64;
        }
        self.scaled = (self.reads.len(), self.writes.len());
        self.window_start = Instant::now();
        self.window_ops = 0;
    }

    /// Leaves `spent` (work that is not the workload's, such as a
    /// correctness check) out of the phase and its current window.
    pub fn exclude(&mut self, spent: Duration) {
        self.start += spent;
        self.window_start += spent;
    }

    /// Whether the phase has done its operations or run its length.
    pub fn done(&self) -> bool {
        match self.target {
            Some(n) => self.ops >= n,
            None => self.start.elapsed() >= self.length,
        }
    }

    /// Ends the phase.
    pub fn finish(mut self) -> Measured {
        if self.window_ops > 0 || self.rates.is_empty() {
            let spent = self.window_start.elapsed();
            self.close(spent);
        }
        Measured {
            ops: self.ops,
            rate: median(&self.rates),
            raw_rate: median(&self.raw_rates),
            slowdown: median(&self.slowdowns),
            reads: self.reads,
            writes: self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_scale_timings() {
        refresh();
        refresh();
        // A debug build is far slower than the release reference; only
        // the sign of the scale matters here.
        assert!(slowdown() > 0.05 && slowdown().is_finite());
        let ((), secs) = timed(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(secs >= 0.002);
        assert!((at_reference(secs) - secs / median_slowdown()).abs() < 1e-12);
        assert_eq!(timed_reps(25, || 1.0).len(), 25);
    }

    #[test]
    fn phase_scales_samples_and_counts_operations() {
        let mut p = Phase::start(Duration::from_millis(40), Some(100));
        for _ in 0..100 {
            p.read(1_000);
            p.write(2_000);
            p.tick(1);
        }
        assert!(p.done());
        let m = p.finish();
        assert_eq!((m.ops, m.reads.len(), m.writes.len()), (100, 100, 100));
        assert!(m.rate > 0.0 && m.raw_rate > 0.0);
    }
}
