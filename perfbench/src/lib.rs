//! # rmodp-perfbench — the wall-clock benchmark of rmodp
//!
//! Four closed-loop workloads drive the program's public entry points
//! from outside: [`invoke`] (`Engine::call`, `TransparentProxy::call`),
//! [`population`] (`run_population`), [`trade`] (`Trader::import`,
//! `export`, `withdraw`) and [`oo7`] (the OO7 workload over
//! `StoreEngine<MemMedia>`). An untraced run reports the end-to-end
//! metrics; a traced run reports the per-layer metrics of every layer,
//! each measured on the inputs of the workload that stresses it.
//! Virtual-time outputs (checksums, event counts, SLO verdicts) are
//! checked on every run and never reported as speeds. See `README.md`.

pub mod common;
pub mod invoke;
pub mod oo7;
pub mod population;
pub mod report;
pub mod speed;
pub mod trade;

use std::time::Duration;

use report::Report;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["invoke", "population", "trade", "oo7"];

/// The end-to-end metrics every untraced run reports.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "ops_per_s",
    "read_p50_us",
    "read_p99_us",
    "write_p50_us",
    "write_p99_us",
    "events_per_s",
    "recovery_s",
    "peak_rss_mb",
    "failed_ratio",
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 41] = [
    "kernel.queue.pair_ns",
    "kernel.queue.deep_pair_ns",
    "kernel.payload_allocs_per_call",
    "kernel.payload_copies",
    "netsim.rtt_ns",
    "core.codec.text_ns",
    "core.codec.binary_ns",
    "engineering.envelope_ns",
    "engineering.call_ns",
    "engineering.channel_nucleus_ns",
    "engineering.msgs_per_call",
    "engineering.retries",
    "transparency.proxy_ns",
    "observe.call_overhead_ns",
    "observe.events_per_call",
    "observe.population_overhead_ratio",
    "kernel.shard.partition_cost_ratio",
    "kernel.shard.thread_speedup",
    "kernel.shard.epochs",
    "kernel.shard.events_per_epoch",
    "kernel.shard.cross_msgs_per_epoch",
    "core.expr.parse_ns",
    "trader.plan_ns",
    "trader.exec_ns",
    "trader.export_ns",
    "trader.withdraw_ns",
    "trader.considered_per_import",
    "trader.match_ratio",
    "trader.indexed_share",
    "store.media.sync_ns",
    "store.media.bytes_per_commit",
    "store.compactions",
    "store.snapshot_encode_ns",
    "store.write_amp",
    "information.check_ns",
    "store.traverse_t1_ns",
    "store.traverse_t6_ns",
    "store.query_ns",
    "store.recovery_replayed",
    "ladder.unexplained_ratio",
    "bench.trace_overhead_ratio",
];

/// Runs one workload untraced and returns its end-to-end report.
///
/// # Panics
///
/// On an unknown workload name.
pub fn run_untraced(workload: &str, seed: u64, seconds: Duration) -> Report {
    let mut rep = Report::default();
    match workload {
        "invoke" => invoke::run(seed, seconds, &mut rep),
        "population" => population::run(seed, seconds, &mut rep),
        "trade" => trade::run(seed, seconds, &mut rep),
        "oo7" => oo7::run(seed, seconds, &mut rep),
        other => panic!("unknown workload {other}"),
    }
    rep.settle();
    rep
}

/// Runs the traced pass: every layer group, each on its own workload's
/// inputs, the named workload's group for longer. Returns the per-layer
/// report; `bench.trace_overhead_ratio` is the named workload's.
///
/// # Panics
///
/// On an unknown workload name.
pub fn run_traced(workload: &str, seed: u64, seconds: Duration) -> Report {
    assert!(WORKLOADS.contains(&workload), "unknown workload {workload}");
    let mut rep = Report::default();
    let length = |w: &str| {
        if w == workload {
            seconds / 4
        } else {
            seconds / 10
        }
    };
    let (invoke_overhead, invoke_ladder) = invoke::layers(seed, length("invoke"), &mut rep);
    let (population_overhead, population_ladder) =
        population::layers(seed, length("population"), &mut rep);
    let trade_overhead = trade::layers(seed, length("trade"), &mut rep);
    let oo7_overhead = oo7::layers(seed, length("oo7"), &mut rep);
    let overheads = [
        ("invoke", invoke_overhead),
        ("population", population_overhead),
        ("trade", trade_overhead),
        ("oo7", oo7_overhead),
    ];
    for (w, r) in overheads {
        rep.note(&format!("{w}.trace_overhead_ratio"), report::json_num(r));
        if w == workload {
            rep.metric("bench.trace_overhead_ratio", r, "ratio");
        }
    }
    rep.note(
        "invoke.ladder_unexplained_ratio",
        report::json_num(invoke_ladder),
    );
    rep.note(
        "population.ladder_unexplained_ratio",
        report::json_num(population_ladder),
    );
    rep.metric(
        "ladder.unexplained_ratio",
        invoke_ladder.max(population_ladder),
        "ratio",
    );
    rep.settle();
    rep
}
