//! The benchmark's own checks: deterministic inputs, ladder arithmetic,
//! failure accounting, and agreement with `BENCHMARK.json`.

use rmodp_perfbench::common::Ladder;
use rmodp_perfbench::population::{self, Fingerprint};
use rmodp_perfbench::report::Report;
use rmodp_perfbench::{invoke, oo7, trade, END_TO_END, PER_LAYER};

#[test]
fn the_same_seed_gives_the_same_operation_sequence() {
    let a: Vec<_> = invoke::ops(7).take(2_000).collect();
    assert_eq!(a, invoke::ops(7).take(2_000).collect::<Vec<_>>());
    assert_ne!(a, invoke::ops(8).take(2_000).collect::<Vec<_>>());

    let a: Vec<_> = trade::ops(7).take(2_000).collect();
    assert_eq!(a, trade::ops(7).take(2_000).collect::<Vec<_>>());
    assert_ne!(a, trade::ops(8).take(2_000).collect::<Vec<_>>());

    let a: Vec<_> = oo7::ops(7).take(2_000).collect();
    assert_eq!(a, oo7::ops(7).take(2_000).collect::<Vec<_>>());
    assert_ne!(a, oo7::ops(8).take(2_000).collect::<Vec<_>>());

    // A population's operations are derived inside the program from its
    // configuration, which the seed alone determines.
    let a = population::config(7, 2, true);
    let b = population::config(7, 2, true);
    assert_eq!((a.seed, a.capsules()), (b.seed, b.capsules()));
    assert_ne!(population::config(8, 2, true).seed, a.seed);
}

#[test]
fn the_mixes_match_the_workload_definitions() {
    let ops: Vec<_> = invoke::ops(3).take(40_000).collect();
    let share = |f: &dyn Fn(&invoke::Op) -> bool| {
        ops.iter().filter(|o| f(o)).count() as f64 / ops.len() as f64
    };
    assert!((share(&|o| o.add) - 0.75).abs() < 0.01, "3:1 Add:Get");
    assert!(
        (share(&|o| o.text) - 0.5).abs() < 0.01,
        "half from the text client"
    );
    assert!(
        (share(&|o| o.proxied) - 0.5).abs() < 0.01,
        "half through proxies"
    );

    let writes = oo7::ops(3)
        .take(20_000)
        .filter(|o| *o == oo7::Op::Update)
        .count();
    assert!((writes as f64 / 20_000.0 - 0.4).abs() < 0.02);
}

#[test]
fn ladder_parts_add_back_up_to_the_top_step() {
    let mut l = Ladder::default();
    l.step("kernel", 60.0);
    l.step("netsim", 1_500.0);
    l.step("codec", 2_600.0);
    l.step("channel", 10_000.0);
    let parts = l.parts();
    assert_eq!(parts[0], ("kernel".to_owned(), 60.0));
    assert_eq!(parts[1], ("netsim".to_owned(), 1_440.0));
    assert_eq!(parts[3], ("channel".to_owned(), 7_400.0));
    assert_eq!(l.total(), 10_000.0);
    assert_eq!(l.unexplained_ratio(10_000.0), 0.0);
    assert!((l.unexplained_ratio(12_500.0) - 0.2).abs() < 1e-12);
    // A step below the one before it is a negative part (a layer that
    // saves time), and the sum still telescopes.
    l.step("threads", 9_000.0);
    assert_eq!(l.parts()[4].1, -1_000.0);
    assert_eq!(l.total(), 9_000.0);
}

#[test]
fn a_corrupted_population_checksum_fails_the_whole_run() {
    let mut cfg = population::config(11, 2, false);
    cfg.capsules_per_region = 4;
    let run = population::timed_run(&cfg);
    let reference = Fingerprint::of(&run.outcome);

    let mut clean = Report::default();
    population::account(&run, &reference, "a clean run", &mut clean);
    clean.settle();
    assert!(clean.correct());
    assert_eq!(clean.failed, 0);

    let mut corrupted = reference.clone();
    corrupted.export_checksum ^= 1;
    let mut rep = Report::default();
    population::account(&run, &corrupted, "a corrupted run", &mut rep);
    rep.settle();
    assert!(!rep.correct());
    assert_eq!(rep.failed, rep.attempted);
    assert_eq!(rep.get("failed_ratio"), Some(1.0));
}

#[test]
fn a_corrupted_oo7_read_is_caught_by_the_reference_replay() {
    let ops: Vec<_> = oo7::ops(5).take(12).collect();
    let mut w = oo7::World::load(5, oo7::NullMedia);
    let mut sampled = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        let result = w.exec(*op, None);
        if *op != oo7::Op::Update {
            sampled.push((k as u64, result));
        }
    }
    assert!(!sampled.is_empty());
    let (reference, mismatches) = oo7::reference(5, ops.len() as u64, &sampled);
    assert_eq!(mismatches, 0);
    assert_eq!(
        rmodp_store::oo7::state_checksum(&reference.engine),
        rmodp_store::oo7::state_checksum(&w.engine)
    );
    sampled[0].1 ^= 1;
    assert_eq!(oo7::reference(5, ops.len() as u64, &sampled).1, 1);
}

/// The metric names listed under `key` in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(listed(&json, "end_to_end"), END_TO_END);
    assert_eq!(listed(&json, "per_layer"), PER_LAYER);
}
