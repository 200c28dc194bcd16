//! OO7-class persistent-object benchmark over the durable store,
//! emitting `BENCH_oo7.json` (schema `rmodp-bench-oo7/1`, documented in
//! `EXPERIMENTS.md` §E13). The suite itself lives in
//! [`rmodp_bench::oo7_suite`] so the golden test can run it in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin oo7_bench -- \
//!     [--seed N] [--scale 0|1|2] [--updates N] [output-path]
//! ```
//!
//! `--scale` picks the library size: 0 = small (~1.2k objects, the CI
//! smoke scale), 1 = medium (~100k), 2 = full (~1M, the default).

use rmodp_bench::oo7_suite::{run_suite, Oo7BenchConfig};

fn main() {
    let mut cfg = Oo7BenchConfig::default();
    let args =
        rmodp_bench::cli::parse(cfg.seed, "target/BENCH_oo7.json", &["--scale", "--updates"]);
    args.single_shard("oo7_bench");
    cfg.seed = args.seed;
    if let Some(scale) = args.extra[0] {
        cfg.scale = scale.min(2) as u8;
    }
    if let Some(updates) = args.extra[1] {
        cfg.update_batches = updates;
    }
    let json = run_suite(cfg);
    rmodp_bench::cli::write_output(&args.out, &json);
}
