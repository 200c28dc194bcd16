//! Trading-at-scale benchmark: indexed matching vs the naive scan over
//! a million-offer repository, emitting `BENCH_trader.json` (schema
//! `rmodp-bench-trader/1`, documented in `EXPERIMENTS.md` §E11). The
//! suite itself lives in [`rmodp_bench::trader_suite`] so the
//! golden test can run it in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin trader_bench -- \
//!     [--seed N] [--offers N] [--imports N] [output-path]
//! ```
//!
//! The default output path is `target/BENCH_trader.json`, the default
//! corpus 1,000,000 offers.

use rmodp_bench::trader_suite::{run_suite, TraderBenchConfig};

fn main() {
    let mut cfg = TraderBenchConfig::default();
    let args = rmodp_bench::cli::parse(
        cfg.seed,
        "target/BENCH_trader.json",
        &["--offers", "--imports"],
    );
    args.single_shard("trader_bench");
    cfg.seed = args.seed;
    if let Some(offers) = args.extra[0] {
        cfg.offers = offers as usize;
    }
    if let Some(imports) = args.extra[1] {
        cfg.imports = imports as usize;
    }
    let json = run_suite(cfg);
    rmodp_bench::cli::write_output(&args.out, &json);
}
