//! The chaos benchmark suite behind `chaos_bench`.
//!
//! [`run_suite`] drives workloads and protocols through seeded fault
//! plans and returns the full `BENCH_chaos.json` document — per-fault
//! MTTR and availability, exactly-once counters, 2PC safety under
//! partitions and crashes, and the circuit-breaker lifecycle (schema
//! `rmodp-bench-chaos/1`, documented in `EXPERIMENTS.md`). Everything
//! runs on virtual time with seeded RNGs, so the same seed produces a
//! byte-identical document — the golden test in `tests/golden.rs` and
//! CI compare it with `tests/baselines/BENCH_chaos.json`.

use rmodp_chaos::prelude::*;
use rmodp_core::codec::SyntaxId;
use rmodp_core::contract::QosRequirement;
use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_engineering::channel::{BreakerConfig, ChannelConfig, RetryPolicy};
use rmodp_engineering::engine::CallError;
use rmodp_netsim::sim::{Addr, Sim};
use rmodp_netsim::time::SimDuration;
use rmodp_observe::{bus, oracle};
use rmodp_transactions::twopc::{Coordinator, Participant, TxOutcome, TxRequest};
use rmodp_workload::prelude::*;

use crate::{add_one, counter_rig, open};

/// Part 1: an open-loop workload riding through a generated plan with a
/// crash+restart, a partition+heal, a loss burst, and a latency spike.
/// The recovery oracle must see every fault recover.
fn workload_under_faults(seed: u64) -> String {
    let mut rig = counter_rig(seed, SyntaxId::Text);
    let channel = open(&mut rig, ChannelConfig::default());
    let server_idx = rig.engine.sim_node(rig.server).expect("server exists");
    let client_idx = rig.engine.sim_node(rig.client).expect("client exists");

    let scenario = Scenario::new(
        "chaos_open_poisson",
        seed,
        LoadModel::Open {
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: 250.0,
            },
        },
    )
    .lasting(SimDuration::from_secs(2))
    .with_mix(OperationMix::new().with("Add", add_one(), 1))
    .with_contract(QosRequirement::none().with_min_availability(0.5));

    let plan = FaultPlan::generate(
        seed,
        &ChaosProfile {
            servers: vec![server_idx],
            client: client_idx,
            duration: SimDuration::from_secs(2),
            crashes: 1,
            partitions: 1,
            loss_bursts: 1,
            latency_spikes: 1,
            mean_downtime: SimDuration::from_millis(80),
        },
    );
    assert_eq!(plan.len(), 4, "profile draws one fault of each kind");

    let outcome = run_scenario_under_faults(&mut rig.engine, rig.client, channel, &scenario, plan)
        .expect("client node exists");
    println!("{}", outcome.report.render());
    println!("{}", outcome.recovery.render());

    let violations = oracle::verify_causality(&bus::snapshot_events()).len();
    assert_eq!(violations, 0, "chaos workload violated causality");
    assert_eq!(outcome.faults.len(), 4, "all four faults were injected");
    assert!(
        outcome.faults.iter().all(|f| f.cleared_at.is_some()),
        "every fault window closed"
    );
    assert!(
        outcome.recovery.clean(),
        "recovery oracle unclean:\n{}",
        outcome.recovery.render()
    );
    assert!(outcome.report.pass, "{}", outcome.report.render());

    format!(
        "{{\"causality_violations\":{violations},\"recovery\":{},\"report\":{}}}",
        outcome.recovery.to_json(),
        outcome.report.to_json()
    )
}

/// Part 2: synchronous reliable calls through a loss burst and a
/// crash+restart. Retransmissions may deliver the same request twice;
/// the server dedup cache must execute each call at most once.
fn exactly_once_under_loss(seed: u64) -> String {
    let mut rig = counter_rig(seed.wrapping_add(1), SyntaxId::Binary);
    let server_idx = rig.engine.sim_node(rig.server).expect("server exists");
    let client_idx = rig.engine.sim_node(rig.client).expect("client exists");
    // A short total deadline keeps one doomed call (against the crashed
    // server) from blocking the injector long enough to swallow the
    // later fault windows.
    let channel = open(
        &mut rig,
        ChannelConfig {
            retry: Some(RetryPolicy::reliable().with_deadline(SimDuration::from_millis(150))),
            ..ChannelConfig::default()
        },
    );

    let plan = FaultPlan::new()
        .with(
            SimDuration::from_millis(5),
            FaultKind::LossBurst {
                a: client_idx,
                b: server_idx,
                loss: 0.4,
                window: SimDuration::from_millis(250),
            },
        )
        .with(
            SimDuration::from_millis(300),
            FaultKind::CrashRestart {
                node: server_idx,
                down_for: SimDuration::from_millis(40),
            },
        )
        .with(
            // Loss on the reply direction only: requests keep arriving
            // and executing while their replies drop, so every
            // retransmission reaches the server as a genuine duplicate
            // that the dedup cache must absorb.
            SimDuration::from_millis(500),
            FaultKind::OneWayLoss {
                from: server_idx,
                to: client_idx,
                loss: 0.6,
                window: SimDuration::from_millis(300),
            },
        );
    let mut injector = FaultInjector::new(plan, rig.engine.sim().now());

    let total = 40u64;
    let mut ok = 0u64;
    let mut errors = 0u64;
    let t0 = rig.engine.sim().now();
    for i in 0..total {
        // Pace one call every 25ms so the call stream spans every fault
        // window; the injector performs whatever fell due on the way.
        // Calls themselves also consume virtual time through timeouts
        // and backoff, so a paced instant may already be in the past —
        // pace to "now" instead then, so overdue clears still apply.
        let due = t0 + SimDuration::from_millis(25 * i);
        let target = due.max(rig.engine.sim().now());
        injector.apply_until(&mut rig.engine, target);
        match rig.engine.call(channel, "Add", &add_one()) {
            Ok(t) if t.is_ok() => ok += 1,
            _ => errors += 1,
        }
    }
    injector.finish(&mut rig.engine);

    // Read the counter through a fresh call: the network is healed by
    // now, so this must succeed.
    let got = rig
        .engine
        .call(channel, "Get", &Value::record::<&str, _>([]))
        .expect("network is healed");
    let n = got.results.field("n").and_then(Value::as_int).unwrap_or(-1) as u64;

    let dedup_hits = bus::counter("engineering.dedup.hits");
    let duplicate_dispatches = bus::counter("engineering.dedup.duplicate_dispatches");
    let retries = bus::counter("engineering.retries");
    println!(
        "exactly-once: ok={ok} errors={errors} n={n} dedup_hits={dedup_hits} duplicate_dispatches={duplicate_dispatches} retries={retries}"
    );

    // At-most-once execution: the counter may exceed `ok` (a timed-out
    // call can have executed with its reply lost) but never `total`,
    // and nothing may be dispatched twice.
    assert!(
        n >= ok,
        "every acknowledged Add must be applied: n={n} ok={ok}"
    );
    assert!(n <= total, "no Add may execute twice: n={n} total={total}");
    assert_eq!(
        duplicate_dispatches, 0,
        "dedup cache let a duplicate through"
    );
    assert!(
        dedup_hits > 0,
        "reply-path loss must force duplicate arrivals for the cache to absorb"
    );

    format!(
        "{{\"calls\":{total},\"ok\":{ok},\"errors\":{errors},\"applied\":{n},\"dedup_hits\":{dedup_hits},\"duplicate_dispatches\":{duplicate_dispatches},\"retries\":{retries}}}"
    )
}

/// Part 3: 2PC safety under chaos. A committed transaction survives a
/// participant crash+restart; a partition during prepare forces abort
/// (the coordinator must never report commit).
fn twopc_under_partition_and_crash(seed: u64) -> String {
    use rmodp_netsim::topology::{LinkConfig, Topology};

    let link = LinkConfig::with_latency(SimDuration::from_millis(1));
    let mut sim = Sim::with_topology(seed.wrapping_add(2), Topology::full_mesh(link));
    let coord_node = sim.add_node();
    let coord = Addr::new(coord_node, 0);
    let mut parts = Vec::new();
    for i in 0..2 {
        let node = sim.add_node();
        let addr = Addr::new(node, 0);
        sim.attach(addr, Participant::new(format!("rm{i}")));
        parts.push(addr);
    }
    sim.attach(
        coord,
        Coordinator::new(parts.clone(), SimDuration::from_millis(20), 5),
    );

    let submit = |sim: &mut Sim, tx: u64, writes: Vec<(usize, &str, i64)>| {
        let request = TxRequest {
            writes: writes
                .into_iter()
                .map(|(p, item, v)| (p, item.to_owned(), Value::Int(v)))
                .collect(),
        };
        sim.send_from(
            Addr::EXTERNAL,
            coord,
            Coordinator::submit_payload(TxId::new(tx), &request),
        );
    };
    let outcome = |sim: &Sim, tx: u64| {
        sim.inspect::<Coordinator>(coord)
            .unwrap()
            .outcome(TxId::new(tx))
            .unwrap_or(TxOutcome::Pending)
    };
    let committed = |sim: &Sim, p: usize, item: &str| {
        sim.inspect::<Participant>(parts[p])
            .unwrap()
            .rm
            .read_committed(item)
    };

    // Transaction 1 commits cleanly.
    submit(&mut sim, 1, vec![(0, "x", 10), (1, "y", 20)]);
    sim.run_until_idle();
    assert_eq!(outcome(&sim, 1), TxOutcome::Committed);

    // Participant 1 crashes (node down, volatile state lost) and
    // restarts; the committed write must survive via the stable log.
    let p1 = parts[1];
    sim.topology_mut().crash(p1.node);
    {
        let part = sim.inspect_mut::<Participant>(p1).unwrap();
        part.rm.crash();
        part.rm.recover();
    }
    sim.topology_mut().restart(p1.node);
    let lost_commits = u64::from(committed(&sim, 1, "y") != Some(Value::Int(20)));

    // Transaction 2 starts while participant 1 is partitioned from the
    // coordinator: prepares cannot reach it, so presumed abort must win.
    sim.topology_mut().partition(coord.node, p1.node);
    submit(&mut sim, 2, vec![(0, "x", 99), (1, "y", 99)]);
    sim.run_until_idle();
    let o2 = outcome(&sim, 2);
    assert_ne!(
        o2,
        TxOutcome::Committed,
        "coordinator must not report commit across a partition during prepare"
    );
    let premature_commits = u64::from(o2 == TxOutcome::Committed);
    // The reachable participant must not expose tx 2's write either.
    assert_ne!(committed(&sim, 0, "x"), Some(Value::Int(99)));

    sim.topology_mut().heal(coord.node, p1.node);
    sim.run_until_idle();
    // After healing, a fresh transaction goes through.
    submit(&mut sim, 3, vec![(0, "x", 30), (1, "y", 31)]);
    sim.run_until_idle();
    assert_eq!(outcome(&sim, 3), TxOutcome::Committed);
    assert_eq!(committed(&sim, 1, "y"), Some(Value::Int(31)));

    println!(
        "2pc: lost_commits={lost_commits} premature_commits={premature_commits} outcome2={o2:?}"
    );
    assert_eq!(lost_commits, 0, "a committed transaction was lost");

    format!(
        "{{\"lost_commits\":{lost_commits},\"premature_commits\":{premature_commits},\"post_heal_commit\":true}}"
    )
}

/// Part 4: the circuit-breaker lifecycle. A dead server opens the
/// breaker (fail-fast), a restart plus cooldown lets a probe close it.
fn breaker_lifecycle(seed: u64) -> String {
    use rmodp_engineering::channel::BreakerPhase;

    let mut rig = counter_rig(seed.wrapping_add(3), SyntaxId::Binary);
    let server_idx = rig.engine.sim_node(rig.server).expect("server exists");
    let breaker = BreakerConfig::default();
    let cooldown = breaker.cooldown;
    let channel = open(
        &mut rig,
        ChannelConfig {
            retry: Some(RetryPolicy::one_shot()),
            breaker: Some(breaker),
            ..ChannelConfig::default()
        },
    );

    rig.engine.sim_mut().topology_mut().crash(server_idx);
    let mut timeouts = 0u64;
    let mut fast_fails = 0u64;
    for _ in 0..5 {
        match rig.engine.call(channel, "Add", &add_one()) {
            Err(CallError::Timeout { .. }) => timeouts += 1,
            Err(CallError::CircuitOpen { .. }) => fast_fails += 1,
            other => panic!("dead server produced {other:?}"),
        }
    }
    assert_eq!(
        rig.engine.breaker_phase(channel),
        Some(BreakerPhase::Open),
        "three consecutive timeouts open the breaker"
    );
    assert!(fast_fails >= 1, "open breaker fails fast");

    rig.engine.sim_mut().topology_mut().restart(server_idx);
    let resume = rig.engine.sim().now() + cooldown + SimDuration::from_millis(1);
    rig.engine.sim_mut().run_until(resume);
    let probe = rig.engine.call(channel, "Add", &add_one());
    assert!(
        probe.is_ok(),
        "probe after cooldown reaches the live server"
    );
    assert_eq!(
        rig.engine.breaker_phase(channel),
        Some(BreakerPhase::Closed)
    );

    let transitions = bus::counter("engineering.breaker.transitions");
    let counted_fast_fails = bus::counter("engineering.breaker.fast_fails");
    println!("breaker: timeouts={timeouts} fast_fails={fast_fails} transitions={transitions}");
    assert!(
        transitions >= 3,
        "closed->open, open->half-open, half-open->closed all observed"
    );

    format!(
        "{{\"timeouts\":{timeouts},\"fast_fails\":{counted_fast_fails},\"transitions\":{transitions},\"closed_after_probe\":true}}"
    )
}

/// Runs all four parts against `seed` and returns the
/// `BENCH_chaos.json` document. Per-part summaries go to stdout.
///
/// # Panics
///
/// If any recovery, exactly-once, 2PC-safety, or breaker-lifecycle
/// invariant fails.
pub fn run_suite(seed: u64) -> String {
    let workload = workload_under_faults(seed);
    let exactly_once = exactly_once_under_loss(seed);
    let twopc = twopc_under_partition_and_crash(seed);
    let breaker = breaker_lifecycle(seed);

    format!(
        "{{\"schema\":\"rmodp-bench-chaos/1\",\"seed\":{seed},\"workload\":{workload},\"exactly_once\":{exactly_once},\"twopc\":{twopc},\"breaker\":{breaker}}}\n"
    )
}
