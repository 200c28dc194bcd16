//! Cross-crate observability properties: deterministic traces, the
//! causal-order oracle on real scenario traces, histogram quantile
//! monotonicity, and a golden trace of the invocation path.
//!
//! The event bus is thread-local and the test harness runs each test on
//! its own thread, so scenarios here cannot contaminate each other.

use proptest::prelude::*;
use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp::netsim::sim::{Addr, Sim};
use rmodp::netsim::time::SimDuration;
use rmodp::netsim::topology::{LinkConfig, Topology};
use rmodp::observe::metrics::Histogram;
use rmodp::observe::{bus, export, oracle, Event, EventKind};
use rmodp::prelude::*;
use rmodp::transactions::twopc::{Coordinator, Participant, TxRequest};
use rmodp::transparency::proxy::migrate_transparently;
use rmodp::OdpSystem;

/// A counter served through a proxy, migrated mid-conversation: events
/// from the engineering, transparency and netsim layers.
fn migration_scenario(seed: u64) -> Vec<Event> {
    let mut sys = OdpSystem::new(seed);
    sys.engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let home = sys.engine.add_node(SyntaxId::Binary);
    let target = sys.engine.add_node(SyntaxId::Text);
    let client = sys.engine.add_node(SyntaxId::Binary);
    let home_capsule = sys.engine.add_capsule(home).unwrap();
    let target_capsule = sys.engine.add_capsule(target).unwrap();
    let cluster = sys.engine.add_cluster(home, home_capsule).unwrap();
    let (_, refs) = sys
        .engine
        .create_object(
            home,
            home_capsule,
            cluster,
            "c",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .unwrap();
    let interface = refs[0].interface;
    sys.publish(interface).unwrap();
    let mut proxy = sys.proxy(
        client,
        interface,
        TransparencySet::none().with(Transparency::Migration),
    );
    let add = Value::record([("k", Value::Int(3))]);
    proxy
        .call(&mut sys.engine, &mut sys.infra, "Add", &add)
        .unwrap();
    migrate_transparently(
        &mut sys.engine,
        &mut sys.infra,
        (home, home_capsule, cluster),
        (target, target_capsule),
        &[interface],
    )
    .unwrap();
    proxy
        .call(&mut sys.engine, &mut sys.infra, "Add", &add)
        .unwrap();
    bus::snapshot_events()
}

/// Two-phase commit over a 40%-lossy network: retransmissions, drops and
/// timer events — the adversarial input for the causal oracle.
fn lossy_twopc_scenario(seed: u64) -> Vec<Event> {
    let link = LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.4);
    let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
    let coord = Addr::new(sim.add_node(), 0);
    let mut parts = Vec::new();
    for i in 0..3 {
        let addr = Addr::new(sim.add_node(), 0);
        sim.attach(addr, Participant::new(format!("rm{i}")));
        parts.push(addr);
    }
    sim.attach(
        coord,
        Coordinator::new(parts, SimDuration::from_millis(20), 5),
    );
    let request = TxRequest {
        writes: vec![
            (0, "x".to_owned(), Value::Int(1)),
            (1, "y".to_owned(), Value::Int(2)),
            (2, "z".to_owned(), Value::Int(3)),
        ],
    };
    sim.send_from(
        Addr::EXTERNAL,
        coord,
        Coordinator::submit_payload(TxId::new(1), &request),
    );
    sim.run_until_idle();
    bus::snapshot_events()
}

/// A seeded counter rig driven the way an invocation benchmark drives
/// it: one binary server, a text and a binary client, each with a bare
/// channel and an all-transparency proxy, and a mix of `Add`/`Get`
/// calls. It ends with one `Add` on a lossy, slow link through a
/// retrying channel, so retransmissions and dedup hits appear. Returns
/// the JSONL export followed by the rendered metrics.
fn invoke_trace(seed: u64) -> String {
    let mut sys = OdpSystem::new(seed);
    sys.engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = sys.engine.add_node(SyntaxId::Binary);
    let clients = [
        sys.engine.add_node(SyntaxId::Text),
        sys.engine.add_node(SyntaxId::Binary),
    ];
    let capsule = sys.engine.add_capsule(server).unwrap();
    let cluster = sys.engine.add_cluster(server, capsule).unwrap();
    let (_, refs) = sys
        .engine
        .create_object(
            server,
            capsule,
            cluster,
            "counter",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .unwrap();
    let interface = refs[0].interface;
    sys.publish(interface).unwrap();
    let channels = clients.map(|c| {
        sys.engine
            .open_channel(c, interface, ChannelConfig::default())
            .unwrap()
    });
    let mut proxies = clients.map(|c| sys.proxy(c, interface, TransparencySet::all()));

    let add = Value::record([("k", Value::Int(1))]);
    let get = Value::record::<&str, _>([]);
    let mut x = seed;
    for _ in 0..40 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = x >> 33;
        let client = usize::from(r & 1 == 1);
        let (op, args) = if (r >> 2).is_multiple_of(4) {
            ("Get", &get)
        } else {
            ("Add", &add)
        };
        let reply = if r & 2 == 2 {
            proxies[client].call(&mut sys.engine, &mut sys.infra, op, args)
        } else {
            sys.engine
                .call(channels[client], op, args)
                .map_err(Into::into)
        };
        assert!(reply.unwrap().is_ok());
    }

    // Latency above the retransmit timeout forces duplicate arrivals;
    // loss makes some retransmissions necessary.
    let retrying = sys
        .engine
        .open_channel(
            clients[1],
            interface,
            ChannelConfig {
                retry: Some(RetryPolicy::reliable()),
                ..ChannelConfig::default()
            },
        )
        .unwrap();
    let (c, s) = (
        sys.engine.sim_node(clients[1]).unwrap(),
        sys.engine.sim_node(server).unwrap(),
    );
    let ideal = sys.engine.sim().topology().link(c, s);
    let lossy = LinkConfig::with_latency(SimDuration::from_millis(30)).loss(0.3);
    let topo = sys.engine.sim_mut().topology_mut();
    topo.set_link(c, s, lossy);
    topo.set_link(s, c, lossy);
    let _ = sys.engine.call(retrying, "Add", &add);
    let topo = sys.engine.sim_mut().topology_mut();
    topo.set_link(c, s, ideal);
    topo.set_link(s, c, ideal);

    let events = bus::snapshot_events();
    assert!(events.iter().any(|e| e.kind == EventKind::Retry));
    assert!(bus::counter("engineering.dedup.hits") > 0);
    let mut out = export::to_jsonl(&events);
    out.push_str(&bus::snapshot_metrics().render());
    out
}

/// The invocation path's trace and metrics are pinned byte for byte:
/// wire frames, event details, span ids and metric renders.
#[test]
fn invoke_trace_matches_committed_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/invoke_trace.jsonl"
    );
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let produced = invoke_trace(14);
    assert!(
        produced == golden,
        "the invoke trace drifted from tests/fixtures/invoke_trace.jsonl"
    );
}

#[test]
fn same_seed_produces_byte_identical_trace() {
    let a = export::to_jsonl(&migration_scenario(42));
    let b = export::to_jsonl(&migration_scenario(42));
    assert_eq!(a, b);
    assert!(!a.is_empty());

    let a = export::to_jsonl(&lossy_twopc_scenario(7));
    let b = export::to_jsonl(&lossy_twopc_scenario(7));
    assert_eq!(a, b);
}

#[test]
fn causal_oracle_is_clean_on_migration_scenario() {
    let events = migration_scenario(42);
    assert!(events.len() > 10);
    let violations = oracle::verify_causality(&events);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn causal_oracle_is_clean_on_lossy_two_phase_commit() {
    for seed in [1u64, 7, 42, 1001] {
        let events = lossy_twopc_scenario(seed);
        assert!(
            events.iter().any(|e| e.kind == EventKind::Drop),
            "seed {seed} lost nothing"
        );
        let violations = oracle::verify_causality(&events);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn oracle_detects_deliver_without_send() {
    let mut events = migration_scenario(42);
    // Remove the Send carrying the span of the first Deliver: that
    // delivery is now causally unexplained.
    let span = events
        .iter()
        .find(|e| e.kind == EventKind::Deliver)
        .and_then(|e| e.span)
        .expect("scenario delivers messages");
    events.retain(|e| !(e.kind == EventKind::Send && e.span == Some(span)));
    let violations = oracle::verify_causality(&events);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, oracle::CausalityViolation::DeliverWithoutSend { .. })),
        "{violations:?}"
    );
}

#[test]
fn oracle_detects_disordered_stream() {
    let mut events = migration_scenario(42);
    assert!(events.len() >= 2);
    events.swap(0, 1);
    let violations = oracle::verify_causality(&events);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, oracle::CausalityViolation::DisorderedStream { .. })),
        "{violations:?}"
    );
}

proptest! {
    /// Nearest-rank quantiles are monotone for any sample set.
    #[test]
    fn histogram_quantiles_are_monotone(samples in proptest::collection::vec(any::<u64>(), 1..200)) {
        let mut h = Histogram::default();
        for s in &samples {
            h.observe(*s);
        }
        let (p50, p95, p99) = h.quantiles();
        prop_assert!(h.min() <= p50);
        prop_assert!(p50 <= p95);
        prop_assert!(p95 <= p99);
        prop_assert!(p99 <= h.max());
        prop_assert_eq!(h.count(), samples.len());
    }

    /// The percentile function itself is monotone in `p`.
    #[test]
    fn histogram_percentile_is_monotone_in_p(
        samples in proptest::collection::vec(any::<u64>(), 1..100),
        lo in 0.0f64..100.0,
        hi in 0.0f64..100.0,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut h = Histogram::default();
        for s in &samples {
            h.observe(*s);
        }
        prop_assert!(h.percentile(lo) <= h.percentile(hi));
    }
}
