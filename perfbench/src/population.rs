//! `population`: `run_population` on the bank-branch scenario at two
//! shards — the kernel queue at depth, shard epochs and the cross-shard
//! merge, with nucleus and behaviour dispatch over 65,536 client
//! capsules (one sixteenth of the full scale, so that a run holds enough
//! population runs to report a steady figure).
//!
//! The shards run serially on one thread. Threaded runs on a 2-vCPU
//! host swing by up to 3x with the load others put on the second vCPU,
//! which no end-to-end bound could absorb; the threaded configuration is
//! timed in the traced pass instead (`kernel.shard.thread_speedup`).
//!
//! The population builds its world inside `run_population` and every
//! capsule operation is a deposit or a withdrawal, so from outside a run
//! is the unit that can be timed. Per-operation costs are a run's wall
//! time over its completed operations.

use std::time::{Duration, Instant};

use rmodp_kernel::{EventQueue, SimTime};
use rmodp_observe::bus;
use rmodp_workload::population::{
    run_population, PopulationConfig, PopulationOutcome, PopulationScenario,
};

use crate::common::{Ladder, Rng, Spans};
use crate::report::{json_num, median, peak_rss_mb, tail_us, Report};
use crate::speed::{at_reference, median_slowdown, per_call_ns, timed};

/// Capsules per region: one sixteenth of the published full scale.
pub const CAPSULES_PER_REGION: u32 = 1_024;

/// The workload's configuration for `seed` at `shards`, threaded or
/// serial.
pub fn config(seed: u64, shards: usize, threaded: bool) -> PopulationConfig {
    let mut c = PopulationConfig::full_scale(PopulationScenario::Bank, seed, shards);
    c.capsules_per_region = CAPSULES_PER_REGION;
    c.threaded = threaded;
    c
}

/// The facts every run of one seed must reproduce, at any shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Checksum of the canonical completion export.
    pub export_checksum: u64,
    /// Checksum of the audited server states.
    pub state_checksum: u64,
    /// Kernel events processed.
    pub events: u64,
    /// The rendered SLO verdict.
    pub slo: String,
}

impl Fingerprint {
    /// The fingerprint of an outcome.
    pub fn of(o: &PopulationOutcome) -> Self {
        Self {
            export_checksum: o.export_checksum,
            state_checksum: o.state_checksum,
            events: o.events,
            slo: o.report.to_json(),
        }
    }
}

/// One timed population run, isolated from the previous run's trace.
pub struct Timed {
    /// The outcome.
    pub outcome: PopulationOutcome,
    /// Wall seconds of `run_population` alone.
    pub secs: f64,
}

/// Runs `config` once; the previous run's trace is freed first, so its
/// cost stays out of the measurement.
pub fn timed_run(config: &PopulationConfig) -> Timed {
    bus::reset();
    let (outcome, secs) = timed(|| run_population(config));
    Timed { outcome, secs }
}

/// Checks one run against the reference fingerprint and counts its
/// operations.
pub fn account(t: &Timed, reference: &Fingerprint, what: &str, rep: &mut Report) {
    let stats = &t.outcome.stats;
    rep.attempted += stats.offered;
    rep.failed += stats.offered.saturating_sub(stats.completed);
    rep.check(
        Fingerprint::of(&t.outcome) == *reference,
        format!("population: {what} diverged from the reference run"),
    );
}

/// Set-up is repeated for at least this long (and seven times).
const SETUP_TIME: Duration = Duration::from_millis(300);

/// The end-to-end run: a warm-up run, then one measured run per
/// `--seconds` (three at least), each checked against the warm-up.
pub fn run(seed: u64, seconds: Duration, rep: &mut Report) {
    let cfg = config(seed, 2, false);
    // Set-up: the fixed cost of a run at the workload's regions and
    // shards with a single capsule per region — sims, nuclei, hubs,
    // partition and kernel, without the per-capsule work.
    let mut fixed = config(seed, 2, false);
    fixed.capsules_per_region = 1;
    let first = timed_run(&fixed);
    let fixed_reference = Fingerprint::of(&first.outcome);
    let mut setups = vec![first.secs];
    let start = Instant::now();
    while start.elapsed() < SETUP_TIME || setups.len() < 7 {
        let t = timed_run(&fixed);
        account(&t, &fixed_reference, "a set-up run", rep);
        setups.push(t.secs);
    }
    rep.timing("setup_s", &setups);

    let warm = timed_run(&cfg);
    let reference = Fingerprint::of(&warm.outcome);
    account(&warm, &reference, "the warm-up run", rep);

    let mut runs = Vec::new();
    for _ in 0..(seconds.as_secs_f64().round() as u64).max(3) {
        let t = timed_run(&cfg);
        account(&t, &reference, "a measured run", rep);
        runs.push(t);
    }
    let per_run = |f: &dyn Fn(&Timed) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let scale = median_slowdown();
    rep.metric(
        "ops_per_s",
        per_run(&|t| t.outcome.stats.completed as f64 / t.secs) * scale,
        "ops/s",
    );
    let events_raw = per_run(&|t| t.outcome.events as f64 / t.secs);
    rep.metric("events_per_s", events_raw * scale, "events/s");
    rep.note("events_per_s.raw", json_num(events_raw));
    let per_op_ns: Vec<u64> = runs
        .iter()
        .map(|t| (at_reference(t.secs) * 1e9) as u64 / t.outcome.stats.completed.max(1))
        .collect();
    let p50 = median(&per_op_ns.iter().map(|&n| n as f64).collect::<Vec<_>>()) / 1e3;
    let tail = tail_us(&per_op_ns);
    // Bank operations are all writes; the read figures repeat them so
    // every workload reports the full metric set.
    for class in ["read", "write"] {
        rep.metric(&format!("{class}_p50_us"), p50, "us");
        rep.tail(&format!("{class}_p99_us"), tail);
    }
    // The population keeps no durable state: restarting it is running
    // the day again from a fresh world.
    let walls: Vec<f64> = runs.iter().map(|t| t.secs).collect();
    rep.timing("recovery_s", &walls);
    rep.note("population.runs", runs.len().to_string());
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Mean ns of a schedule + pop pair on a queue holding `depth` pending
/// entries spread over the population's arrival window.
fn deep_pair_ns(seed: u64, depth: usize, length: Duration) -> f64 {
    let mut rng = Rng::new(seed, 0xdee9);
    let window_us = 2_000_000;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth as u64 {
        queue.schedule(SimTime::from_micros(rng.below(window_us)), i);
    }
    let mut n = 0u64;
    per_call_ns(length, 256, || {
        for _ in 0..256 {
            let at = queue.now().as_micros() + 1 + rng.below(window_us);
            queue.schedule(SimTime::from_micros(at), n);
            std::hint::black_box(queue.pop());
            n += 1;
        }
    })
}

/// The per-layer figures of `population`: the shard ladder, the bus
/// cost, the shard counts and the deep queue. Returns
/// `(trace_overhead_ratio, ladder_unexplained_ratio)`.
pub fn layers(seed: u64, length: Duration, rep: &mut Report) -> (f64, f64) {
    let cfg = config(seed, 2, false);
    let warm = timed_run(&cfg);
    let reference = Fingerprint::of(&warm.outcome);
    account(&warm, &reference, "the warm-up run", rep);

    // End to end (untraced, then traced with a span around each run),
    // the ladder — 1 shard with the bus off, + bus, + partition (2
    // shards, the workload's configuration) — and 2 shards threaded.
    // The bus is thread-local, so only serial runs can have it off;
    // threaded workers always record. The configurations take turns
    // over two rounds so that host drift touches each alike; each
    // figure is its median.
    let steps = [
        ("end to end", 2, false, true),
        ("traced", 2, false, true),
        ("kernel+nucleus", 1, false, false),
        ("observe", 1, false, true),
        ("partition", 2, false, true),
        ("threaded", 2, true, true),
    ];
    let mut spans = Spans::default();
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); steps.len()];
    let mut outcome = None;
    for _ in 0..2 {
        for (i, &(name, shards, threaded, bus_on)) in steps.iter().enumerate() {
            bus::set_enabled(bus_on);
            let config = config(seed, shards, threaded);
            let t = if name == "traced" {
                spans.span("workload.run_population", || timed_run(&config))
            } else {
                timed_run(&config)
            };
            bus::set_enabled(true);
            account(&t, &reference, &format!("the {name} run"), rep);
            secs[i].push(at_reference(t.secs));
            if i == 0 {
                outcome = Some(t.outcome);
            }
        }
    }
    let walls: Vec<f64> = secs.iter().map(|s| median(s)).collect();
    let e2e = walls[0];
    let overhead = e2e / walls[1];
    let mut ladder = Ladder::default();
    for (i, &(name, ..)) in steps.iter().enumerate().take(5).skip(2) {
        ladder.step(name, walls[i]);
    }
    rep.metric(
        "observe.population_overhead_ratio",
        walls[3] / walls[2],
        "ratio",
    );
    rep.metric(
        "kernel.shard.partition_cost_ratio",
        walls[4] / walls[3],
        "ratio",
    );
    rep.metric("kernel.shard.thread_speedup", walls[4] / walls[5], "ratio");
    let unexplained = ladder.unexplained_ratio(e2e);
    rep.note("population.ladder_s", ladder.json());
    rep.note("population.end_to_end_s", crate::report::json_num(e2e));

    let o = &outcome.expect("ran end to end");
    let epochs = o.epochs.max(1) as f64;
    rep.metric("kernel.shard.epochs", o.epochs as f64, "count");
    rep.metric(
        "kernel.shard.events_per_epoch",
        o.events as f64 / epochs,
        "count",
    );
    rep.metric(
        "kernel.shard.cross_msgs_per_epoch",
        o.cross_shard_messages as f64 / epochs,
        "count",
    );
    rep.metric(
        "kernel.queue.deep_pair_ns",
        deep_pair_ns(seed, cfg.capsules() as usize, length / 2),
        "ns",
    );
    (overhead, unexplained)
}
