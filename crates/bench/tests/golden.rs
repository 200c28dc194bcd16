//! Golden artifact tests: the benchmark suites must reproduce the
//! committed artifacts byte-for-byte.
//!
//! Each pinned artifact has one copy, under `tests/baselines/` at the
//! workspace root; each test runs its suite in the CI smoke job's
//! configuration and compares the whole document with that copy. Same
//! seed → same events in the same order → the same bytes, so any drift
//! in a pinned figure fails here until the baseline is regenerated on
//! purpose. Every suite runs twice in one process, so state that leaks
//! from one run into the next (the thread-local bus, counters) fails
//! too. The trader suite's CI configuration (50,000 offers, 160
//! imports) is too slow for a debug-mode test: it is pinned at a
//! reduced scale against `tests/fixtures/BENCH_trader.json`, and the
//! smoke job `cmp`s the full run against its baseline.

use rmodp_bench::{
    chaos_suite, failover_suite, mechanisms, oo7_suite, population_suite, trader_suite,
    workload_suite,
};

fn assert_pinned(path: &str, run: impl Fn() -> String) {
    let path = format!("{}/../../tests/{path}", env!("CARGO_MANIFEST_DIR"));
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for pass in 1..=2 {
        assert_eq!(run(), pinned, "run {pass} drifted from {path}");
    }
}

#[test]
fn workload_suite_reproduces_its_baseline() {
    assert_pinned("baselines/BENCH_workload.json", || {
        workload_suite::run_suite(workload_suite::DEFAULT_SEED)
    });
}

#[test]
fn chaos_suite_reproduces_its_baseline() {
    assert_pinned("baselines/BENCH_chaos.json", || {
        chaos_suite::run_suite(4_242)
    });
}

#[test]
fn failover_suite_reproduces_its_baseline() {
    assert_pinned("baselines/BENCH_failover.json", || {
        failover_suite::run_suite(4_242)
    });
}

#[test]
fn mechanisms_suite_reproduces_its_baseline() {
    assert_pinned("baselines/BENCH_mechanisms.json", || {
        mechanisms::run_suite(mechanisms::DEFAULT_SEED)
    });
}

#[test]
fn population_suite_reproduces_its_baseline() {
    // The full shard matrix {1, 2, 4} at CI scale, wall-clock off.
    assert_pinned("baselines/BENCH_population.json", || {
        population_suite::run_suite(population_suite::PopulationBenchConfig {
            seed: 4_242,
            shards: None,
            scale: 0,
            measure: false,
        })
    });
}

#[test]
fn oo7_suite_reproduces_its_baseline() {
    // WAL and snapshot sizes, compactions, recovery counts (zero lost
    // updates) and the state checksums are pinned.
    assert_pinned("baselines/BENCH_oo7.json", || {
        oo7_suite::run_suite(oo7_suite::Oo7BenchConfig {
            scale: 0,
            update_batches: 12,
            seed: 7,
        })
    });
}

#[test]
fn trader_suite_reproduces_its_fixture() {
    // Plans, offers examined, the plan example and both engines'
    // checksums are pinned.
    assert_pinned("fixtures/BENCH_trader.json", || {
        trader_suite::run_suite(trader_suite::TraderBenchConfig {
            offers: 5_000,
            imports: 64,
            seed: 42,
        })
    });
}
