//! Command line of the wall-clock benchmark.
//!
//! ```text
//! perfbench --workload <invoke|population|trade|oo7|all> --seed <n|held-out>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit, a metadata line (host,
//! build, seed, the percentile and sample count behind each tail
//! figure, ladder steps), and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! runs as [`PROCESSES`] parts in processes of their own (`--part k/n`,
//! which the command passes itself) and combines them. `--workload all`
//! runs every workload in both modes and exits non-zero if any run
//! fails a check.

use std::process::{Command, ExitCode};
use std::time::Duration;

use rmodp_perfbench::report::{json_str, Host, Report, HELD_OUT_SEED};
use rmodp_perfbench::{run_traced, run_untraced, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `--part k/n`: this process is part `k` of an untraced run split
    /// over `n` processes.
    part: Option<(u32, u32)>,
}

/// An untraced run is split over this many processes, each doing its
/// share of the work, and reports each metric's mean across them: a
/// process's own state (memory layout, the vCPU it lands on) can move a
/// short timing by 50% between two levels, and a mean over processes
/// narrows that where a single process would land on either level.
const PROCESSES: u32 = 5;

const USAGE: &str =
    "usage: perfbench --workload <invoke|population|trade|oo7|all> --seed <n|held-out> --seconds <n> --trace <0|1>";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        part: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = if value == "held-out" {
                    HELD_OUT_SEED
                } else {
                    value.parse().map_err(|_| format!("bad seed {value}"))?
                }
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--part" => {
                let (k, n) = value.split_once('/').ok_or(format!("bad --part {value}"))?;
                let k: u32 = k.parse().map_err(|_| format!("bad --part {value}"))?;
                let n: u32 = n.parse().map_err(|_| format!("bad --part {value}"))?;
                if k >= n {
                    return Err(format!("bad --part {value}"));
                }
                args.part = Some((k, n));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Runs every workload in both modes, each in a child process, and
/// passes their output through.
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed"])
                .arg(args.seed.to_string())
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .expect("spawn a benchmark run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = stdout.lines().last().unwrap_or("");
            ok &= out.status.success() && last.starts_with("{\"correct\":true");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The raw JSON token after `"key":` in `line`.
fn token<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
}

/// Runs an untraced run as [`PROCESSES`] processes, one after another,
/// and combines their results: each metric is the mean across them
/// (peak memory the maximum), counts add up, and the run is correct only
/// if every part is.
fn split(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut results = Vec::new();
    let mut metas = Vec::new();
    for k in 0..PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed"])
            .arg(args.seed.to_string())
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .args(["--part", &format!("{k}/{PROCESSES}")])
            .output()
            .expect("spawn a part of the run");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let mut lines = stdout.lines().rev();
        let (Some(result), Some(meta)) = (lines.next(), lines.next()) else {
            eprintln!("part {k} of the run printed no result");
            return ExitCode::FAILURE;
        };
        if !out.status.success() || !result.starts_with("{\"correct\"") {
            eprintln!("part {k} of the run failed");
            return ExitCode::FAILURE;
        }
        results.push(result.to_owned());
        let meta = meta
            .strip_prefix("{\"meta\":")
            .and_then(|m| m.strip_suffix('}'));
        metas.push(meta.unwrap_or("null").to_owned());
    }
    let mut rep = Report::default();
    for r in &results {
        let count = |key| {
            token(r, key)
                .and_then(|t| t.parse::<u64>().ok())
                .unwrap_or(0)
        };
        rep.attempted += count("attempted");
        rep.failed += count("failed");
        if token(r, "correct") != Some("true") {
            rep.check(false, "a part of the run failed a correctness check");
        }
    }
    for name in END_TO_END {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| {
                let at = r.find(&format!("\"{name}\":{{"))?;
                token(&r[at..], "value")?.parse().ok()
            })
            .collect();
        let unit = results
            .first()
            .and_then(|r| {
                let at = r.find(&format!("\"{name}\":{{"))?;
                token(&r[at..], "unit")
            })
            .map_or("", |u| u.trim_matches('"'));
        let value = if name == "peak_rss_mb" {
            values.iter().copied().fold(0.0, f64::max)
        } else {
            values.iter().sum::<f64>() / values.len().max(1) as f64
        };
        rep.metric(name, value, unit_of(unit));
    }
    rep.settle();
    println!(
        "{}",
        rep.table(&format!(
            "{} (untraced, seed {}, {PROCESSES} processes)",
            args.workload, args.seed
        ))
    );
    let run = format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":0,\"parts\":[{}]",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        metas.join(",")
    );
    println!("{}", rep.meta_json(&Host::probe(), &run));
    println!("{}", rep.result_json(&END_TO_END));
    ExitCode::SUCCESS
}

/// The static unit string for a unit read back from a part's result.
fn unit_of(unit: &str) -> &'static str {
    ["s", "ops/s", "us", "events/s", "MB", "ratio"]
        .into_iter()
        .find(|u| *u == unit)
        .unwrap_or("?")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return all(&args);
    }
    if !args.trace && args.part.is_none() {
        return split(&args);
    }
    let host = Host::probe();
    let share = args.part.map_or(1, |(_, n)| n);
    let seconds = Duration::from_secs(args.seconds) / share;
    let (rep, names): (_, &[&str]) = if args.trace {
        (run_traced(&args.workload, args.seed, seconds), &PER_LAYER)
    } else {
        (
            run_untraced(&args.workload, args.seed, seconds),
            &END_TO_END,
        )
    };
    let (mut rep, names) = (rep, names);
    rep.note(
        "host.slowdown",
        rmodp_perfbench::report::json_num(rmodp_perfbench::speed::median_slowdown()),
    );
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "{}",
        rep.table(&format!("{} ({mode}, seed {})", args.workload, args.seed))
    );
    let run = format!(
        "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"part\":{}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(
            &args
                .part
                .map_or("1/1".to_owned(), |(k, n)| format!("{k}/{n}"))
        )
    );
    println!("{}", rep.meta_json(&host, &run));
    println!("{}", rep.result_json(names));
    ExitCode::SUCCESS
}
