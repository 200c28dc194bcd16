//! Workload benchmark: runs the standard scenario suite and emits
//! `BENCH_workload.json` — per-scenario throughput and latency quantiles
//! plus the SLO verdicts (schema documented in `EXPERIMENTS.md`). The
//! suite itself lives in [`rmodp_bench::workload_suite`] so the golden
//! test can run it in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin workload_bench -- [--seed N] [output-path]
//! ```
//!
//! The default output path is `target/BENCH_workload.json` and the
//! default seed `1000` (each scenario runs at a fixed offset from the
//! base).

fn main() {
    let args = rmodp_bench::cli::parse(
        rmodp_bench::workload_suite::DEFAULT_SEED,
        "target/BENCH_workload.json",
        &[],
    );
    args.single_shard("workload_bench");
    let json = rmodp_bench::workload_suite::run_suite(args.seed);
    rmodp_bench::cli::write_output(&args.out, &json);
}
