//! Pieces the workloads share: the seeded generator behind every
//! operation sequence, the kernel-queue sequencer, the span recorder of
//! traced passes, and the cumulative ablation ladder.

use std::time::Instant;

use rmodp_kernel::{EventQueue, SimTime};

/// SplitMix64: a tiny, fully specified generator, so an operation
/// sequence depends on the seed alone and never on a library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted per use so that streams drawn for
    /// different purposes from one seed are independent.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// An exponentially distributed gap with the given mean, in µs.
    pub fn exp_us(&mut self, mean_us: f64) -> u64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (-(1.0 - u).ln() * mean_us) as u64
    }
}

/// A stateless 64-bit mix of a seed and an index: per-item properties
/// that any position of a corpus can be rebuilt from.
pub fn mix(seed: u64, i: u64) -> u64 {
    Rng::new(seed, i).next()
}

/// Sequences a closed-loop operation stream through the kernel's event
/// queue, as the repository's trader and OO7 suites do: each operation
/// is an arrival scheduled at a seeded Poisson offset and popped in
/// `(time, seq)` order. Every pop is one kernel event.
#[derive(Debug)]
pub struct Sequencer {
    queue: EventQueue<u64>,
    rng: Rng,
    next_k: u64,
}

impl Sequencer {
    /// A sequencer whose arrivals are Poisson with a 2 ms mean gap.
    pub fn new(seed: u64) -> Self {
        let mut s = Self {
            queue: EventQueue::new(),
            rng: Rng::new(seed, 0x5e9),
            next_k: 0,
        };
        s.arrive();
        s
    }

    fn arrive(&mut self) {
        let at = SimTime::from_micros(self.queue.now().as_micros() + self.rng.exp_us(2_000.0));
        self.queue.schedule(at, self.next_k);
        self.next_k += 1;
    }

    /// The position of the next operation in the workload's sequence.
    pub fn next_op(&mut self) -> u64 {
        self.arrive();
        let (_, k) = self.queue.pop().expect("one arrival is always pending");
        k
    }
}

/// The spans a traced pass records around each call into a layer:
/// name, start and end (ns since the pass began). They stay in memory
/// and are summarised when the pass ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.push((name, start, end));
        out
    }

    /// Mean duration of the spans called `name` (ns).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|(s, _, _)| *s == name)
            .fold((0u64, 0usize), |(sum, n), (_, a, b)| (sum + (b - a), n + 1));
        sum as f64 / n.max(1) as f64
    }
}

/// Runs `f`, inside a span called `name` when a traced pass supplies
/// `spans`.
pub fn traced<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.span(name, f),
        None => f(),
    }
}

/// A cumulative ablation ladder: each step adds one layer to the one
/// below and is timed on the same work, so a step's part is its
/// difference from the step below and the parts add up to the top.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ladder {
    steps: Vec<(String, f64)>,
}

impl Ladder {
    /// Appends a step measured at `cumulative` (the cost with every
    /// layer up to this one).
    pub fn step(&mut self, name: &str, cumulative: f64) {
        self.steps.push((name.to_owned(), cumulative));
    }

    /// Each layer's own part: its step minus the step below.
    pub fn parts(&self) -> Vec<(String, f64)> {
        let mut below = 0.0;
        self.steps
            .iter()
            .map(|(name, c)| {
                let part = c - below;
                below = *c;
                (name.clone(), part)
            })
            .collect()
    }

    /// The sum of the parts.
    pub fn total(&self) -> f64 {
        self.parts().iter().map(|(_, p)| p).sum()
    }

    /// How far the parts miss an end-to-end figure measured on its
    /// own, as a share of that figure.
    pub fn unexplained_ratio(&self, end_to_end: f64) -> f64 {
        (end_to_end - self.total()).abs() / end_to_end
    }

    /// The ladder as a JSON array of `[layer, part]` pairs.
    pub fn json(&self) -> String {
        let parts: Vec<String> = self
            .parts()
            .iter()
            .map(|(n, p)| {
                format!(
                    "[{},{}]",
                    crate::report::json_str(n),
                    crate::report::json_num(*p)
                )
            })
            .collect();
        format!("[{}]", parts.join(","))
    }
}

/// A fixed calibration workload.
pub fn calibrate() -> u64 {
    let mut rng = Rng::new(42, 7);
    let mut map = std::collections::BTreeMap::new();
    for i in 0..2000u64 {
        map.insert(rng.next(), vec![i as u8; (i % 64) as usize]);
    }
    let mut h = 0u64;
    for (k, v) in &map {
        h = h.wrapping_mul(31).wrapping_add(*k ^ v.len() as u64);
    }
    h
}
