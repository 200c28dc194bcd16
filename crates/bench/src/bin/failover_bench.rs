//! Failover benchmark: drives quorum-replicated bank and trader groups
//! through rolling leader-kill and partition-during-commit schedules
//! and emits `BENCH_failover.json` — availability, failover-MTTR
//! distribution, fenced-write/quorum-loss counters, and the group
//! consistency oracle's verdict (schema `rmodp-bench-failover/1`,
//! documented in `EXPERIMENTS.md` §E14). The suite itself lives in
//! [`rmodp_bench::failover_suite`] so the golden test can run it
//! in-process.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rmodp-bench --bin failover_bench -- [--seed N] [output-path]
//! ```

fn main() {
    let args = rmodp_bench::cli::parse(4_242, "target/BENCH_failover.json", &[]);
    args.single_shard("failover_bench");
    let json = rmodp_bench::failover_suite::run_suite(args.seed);
    rmodp_bench::cli::write_output(&args.out, &json);
}
