//! Mechanisms benchmark: measures the unified kernel and the
//! allocation-light invocation path, emitting `BENCH_mechanisms.json`
//! (schema `rmodp-bench-mechanisms/1`, documented in `EXPERIMENTS.md`).
//! The suite itself lives in [`rmodp_bench::mechanisms`] so the
//! golden test can run it in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin mechanisms_bench -- [--seed N] [output-path]
//! ```
//!
//! The default output path is `target/BENCH_mechanisms.json`.

fn main() {
    let args = rmodp_bench::cli::parse(
        rmodp_bench::mechanisms::DEFAULT_SEED,
        "target/BENCH_mechanisms.json",
        &[],
    );
    args.single_shard("mechanisms_bench");
    let json = rmodp_bench::mechanisms::run_suite(args.seed);
    rmodp_bench::cli::write_output(&args.out, &json);
}
