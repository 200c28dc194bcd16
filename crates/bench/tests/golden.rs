//! Golden artifact tests: the benchmark suites must reproduce the
//! committed fixtures byte-for-byte.
//!
//! The fixtures under `tests/fixtures/` at the workspace root pin the
//! scheduling, RNG streams, and payload sharing to exact behaviour:
//! same seed → same events in the same order → the same JSON document,
//! byte for byte. They were regenerated when the profiling PR landed —
//! log-bucketed histograms changed quantile values, and the admission /
//! call-span instrumentation added events to the streams the oracles
//! count.

fn fixture(name: &str) -> String {
    let path = format!("{}/../../tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn workload_suite_reproduces_committed_artifact() {
    let golden = fixture("BENCH_workload.json");
    let produced =
        rmodp_bench::workload_suite::run_suite(rmodp_bench::workload_suite::DEFAULT_SEED);
    assert_eq!(
        produced, golden,
        "BENCH_workload.json drifted from the committed fixture"
    );
}

#[test]
fn chaos_suite_reproduces_committed_artifact() {
    let golden = fixture("BENCH_chaos.json");
    let produced = rmodp_bench::chaos_suite::run_suite(4_242);
    assert_eq!(
        produced, golden,
        "BENCH_chaos.json drifted from the committed fixture"
    );
}

#[test]
fn failover_suite_reproduces_committed_artifact() {
    let golden = fixture("BENCH_failover.json");
    let produced = rmodp_bench::failover_suite::run_suite(4_242);
    assert_eq!(
        produced, golden,
        "BENCH_failover.json drifted from the committed fixture"
    );
}

#[test]
fn mechanisms_suite_is_deterministic() {
    let first = rmodp_bench::mechanisms::run_suite(rmodp_bench::mechanisms::DEFAULT_SEED);
    let second = rmodp_bench::mechanisms::run_suite(rmodp_bench::mechanisms::DEFAULT_SEED);
    assert_eq!(first, second, "mechanisms suite must be byte-identical");
    assert!(first.starts_with("{\"schema\":\"rmodp-bench-mechanisms/1\""));
}

#[test]
fn trader_suite_reproduces_committed_artifact() {
    // A reduced scale of the CI configuration: plans, offers examined,
    // the plan example and both engines' checksums are pinned.
    let golden = fixture("BENCH_trader.json");
    let produced =
        rmodp_bench::trader_suite::run_suite(rmodp_bench::trader_suite::TraderBenchConfig {
            offers: 5_000,
            imports: 64,
            seed: 42,
        });
    assert_eq!(
        produced, golden,
        "BENCH_trader.json drifted from the committed fixture"
    );
}

#[test]
fn oo7_suite_reproduces_committed_artifact() {
    // The CI smoke configuration: WAL and snapshot sizes, compactions,
    // recovery counts and the state checksums are pinned.
    let golden = fixture("BENCH_oo7.json");
    let produced = rmodp_bench::oo7_suite::run_suite(rmodp_bench::oo7_suite::Oo7BenchConfig {
        scale: 0,
        update_batches: 12,
        seed: 7,
    });
    assert_eq!(
        produced, golden,
        "BENCH_oo7.json drifted from the committed fixture"
    );
}
