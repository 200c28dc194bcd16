//! # rmodp-bench — shared workload builders for the benchmark harness
//!
//! The paper (a reference-model tutorial) contains no measurement tables;
//! its five figures are architectural. The benchmark harness therefore
//! regenerates each *figure* as a measured workload and quantifies the
//! cost of every mechanism the model prescribes (see `EXPERIMENTS.md` at
//! the workspace root for the index). This crate holds the workload
//! builders the `benches/` targets share, so they are also unit-testable.

pub mod chaos_suite;
pub mod failover_suite;
pub mod mechanisms;
pub mod oo7_suite;
pub mod population_suite;
pub mod trader_suite;
pub mod workload_suite;

use rmodp_computational::signature::{OperationalSignature, TerminationSignature};
use rmodp_core::codec::SyntaxId;
use rmodp_core::dtype::DataType;
use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::Engine;
use rmodp_trader::Trader;

/// Shared argument parsing for the benchmark binaries: every bin speaks
/// the same `--seed N <output-path>` interface (CI relies on this), and
/// a bin may declare extra numeric flags (the trader bench's `--offers`
/// / `--imports`).
pub mod cli {
    /// Parsed benchmark arguments.
    #[derive(Debug)]
    pub struct BenchArgs {
        /// The base seed (`--seed N`).
        pub seed: u64,
        /// The shard count (`--shards N`; `None` when the flag wasn't
        /// given). Only the population benchmark runs multi-shard; the
        /// single-queue benchmarks accept the flag so the interface stays
        /// uniform, but reject values other than 1 via
        /// [`BenchArgs::single_shard`] (their pinned fixture bytes are
        /// single-shard by definition).
        pub shards: Option<u64>,
        /// The output path (the one positional argument).
        pub out: String,
        /// Values for the declared extra flags, in declaration order;
        /// `None` where the flag wasn't given.
        pub extra: Vec<Option<u64>>,
    }

    impl BenchArgs {
        /// Asserts this benchmark was not asked to shard.
        ///
        /// # Panics
        ///
        /// When `--shards` was given with a value other than 1.
        pub fn single_shard(&self, bench: &str) {
            let shards = self.shards.unwrap_or(1);
            assert!(
                shards == 1,
                "{bench} runs on a single shard (its pinned fixtures are \
                 single-queue runs); multi-shard execution is the population \
                 benchmark's job: population_bench --shards {shards}"
            );
        }
    }

    /// Parses `std::env::args()` against the unified interface.
    ///
    /// # Panics
    ///
    /// On an unknown flag, a flag without its numeric value, or more
    /// than one positional argument.
    pub fn parse(default_seed: u64, default_out: &str, extra_flags: &[&str]) -> BenchArgs {
        let mut parsed = BenchArgs {
            seed: default_seed,
            shards: None,
            out: default_out.to_owned(),
            extra: vec![None; extra_flags.len()],
        };
        let mut saw_out = false;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut numeric = |name: &str| {
                args.next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
            };
            if arg == "--seed" {
                parsed.seed = numeric("--seed");
            } else if arg == "--shards" {
                let n = numeric("--shards");
                assert!(n >= 1, "--shards needs a positive value");
                parsed.shards = Some(n);
            } else if let Some(i) = extra_flags.iter().position(|f| *f == arg) {
                parsed.extra[i] = Some(numeric(&arg));
            } else if arg.starts_with("--") {
                panic!("unknown flag {arg}; expected --seed, --shards{}", {
                    let mut s = String::new();
                    for f in extra_flags {
                        s.push_str(", ");
                        s.push_str(f);
                    }
                    s
                });
            } else {
                assert!(!saw_out, "more than one output path given: {arg}");
                parsed.out = arg;
                saw_out = true;
            }
        }
        parsed
    }

    /// Writes a benchmark document, creating parent directories.
    ///
    /// # Panics
    ///
    /// On I/O failure — benchmarks have no one to report errors to.
    pub fn write_output(out: &str, json: &str) {
        if let Some(dir) = std::path::Path::new(out).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        std::fs::write(out, json).expect("write benchmark output");
        println!("wrote {out}");
    }
}

/// A deployed counter reachable from a client node — the standard unit of
/// invocation benchmarks.
#[derive(Debug)]
pub struct CounterRig {
    /// The engine.
    pub engine: Engine,
    /// The server node.
    pub server: NodeId,
    /// The client node.
    pub client: NodeId,
    /// The counter's home.
    pub home: (NodeId, CapsuleId, ClusterId),
    /// The counter's interface.
    pub interface: InterfaceId,
}

/// Builds a two-node counter rig. `client_syntax` differing from binary
/// forces real marshalling on every call.
pub fn counter_rig(seed: u64, client_syntax: SyntaxId) -> CounterRig {
    let mut engine = Engine::new(seed);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = engine.add_node(SyntaxId::Binary);
    let client = engine.add_node(client_syntax);
    let capsule = engine.add_capsule(server).expect("fresh node");
    let cluster = engine.add_cluster(server, capsule).expect("fresh capsule");
    let (_, refs) = engine
        .create_object(
            server,
            capsule,
            cluster,
            "counter",
            "counter",
            CounterBehaviour::initial_state(),
            1,
        )
        .expect("fresh cluster");
    CounterRig {
        engine,
        server,
        client,
        home: (server, capsule, cluster),
        interface: refs[0].interface,
    }
}

/// Opens a channel on a rig and returns it.
pub fn open(rig: &mut CounterRig, config: ChannelConfig) -> rmodp_core::id::ChannelId {
    rig.engine
        .open_channel(rig.client, rig.interface, config)
        .expect("interface is live")
}

/// The standard `Add {k: 1}` argument record.
pub fn add_one() -> Value {
    Value::record([("k", Value::Int(1))])
}

/// Builds an operational signature with `n` interrogations of `p`
/// parameters each — the scaling axis of the Figure 3 benchmark.
pub fn wide_signature(name: &str, n: usize, p: usize) -> OperationalSignature {
    let mut sig = OperationalSignature::new(name);
    for i in 0..n {
        let params: Vec<(String, DataType)> =
            (0..p).map(|j| (format!("p{j}"), DataType::Int)).collect();
        sig = sig.interrogation(
            format!("op{i}"),
            params,
            vec![
                TerminationSignature::new("OK", [("r", DataType::Int)]),
                TerminationSignature::new("Error", [("reason", DataType::Text)]),
            ],
        );
    }
    sig
}

/// Fills a trader with `n` printer offers whose properties spread over
/// speed/floor/colour — the Figure/E3 scaling corpus.
pub fn populated_trader(n: usize) -> Trader {
    let mut trader = Trader::new("bench");
    for i in 0..n {
        trader
            .export(
                "Printer",
                InterfaceId::new(i as u64 + 1),
                Value::record([
                    ("ppm", Value::Int((i % 90) as i64 + 10)),
                    ("floor", Value::Int((i % 12) as i64)),
                    ("colour", Value::Bool(i % 3 == 0)),
                    ("queue_len", Value::Int((i % 25) as i64)),
                ]),
            )
            .expect("record properties");
    }
    trader
}

/// A nested value of the given depth/width for codec benchmarks.
pub fn nested_value(depth: usize, width: usize) -> Value {
    if depth == 0 {
        return Value::Int(42);
    }
    Value::record((0..width).map(|i| (format!("f{i}"), nested_value(depth - 1, width))))
}

/// Per-mechanism metric capture: runs a workload once with the
/// observability bus recording and reports which instrumented mechanisms
/// fired, how often, and at what sim-time latency — alongside the
/// wall-clock numbers the timed benchmarks produce.
pub mod capture {
    use rmodp_observe::bus;
    use rmodp_observe::metrics::Registry;

    /// Runs `f` against a clean bus with recording forced on and returns
    /// its result together with the metrics registry it filled. The bus is
    /// cleared again afterwards (recording returns to its prior setting),
    /// so timed iterations are unaffected. Build the simulation inside
    /// `f`: constructing a `Sim`/`Engine` resets the bus, so metrics
    /// recorded before the last construction would be lost.
    pub fn capture_metrics<T>(f: impl FnOnce() -> T) -> (T, Registry) {
        bus::reset();
        let was_enabled = bus::is_enabled();
        bus::set_enabled(true);
        let out = f();
        let registry = bus::snapshot_metrics();
        bus::set_enabled(was_enabled);
        bus::reset();
        (out, registry)
    }

    /// Renders a labelled per-mechanism report of a captured registry.
    pub fn mechanism_report(label: &str, registry: &Registry) -> String {
        let mut out = String::new();
        out.push_str(&format!("── mechanism metrics: {label} ──\n"));
        let body = registry.render();
        if body.is_empty() {
            out.push_str("(no instrumented mechanism fired)\n");
        } else {
            out.push_str(&body);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_rig_serves_calls() {
        let mut rig = counter_rig(1, SyntaxId::Text);
        let ch = open(&mut rig, ChannelConfig::default());
        let t = rig.engine.call(ch, "Add", &add_one()).unwrap();
        assert!(t.is_ok());
    }

    #[test]
    fn wide_signature_has_requested_shape() {
        let sig = wide_signature("W", 8, 3);
        assert_eq!(sig.operations().len(), 8);
        assert_eq!(sig.operation("op0").unwrap().params.len(), 3);
    }

    #[test]
    fn populated_trader_holds_n_offers() {
        assert_eq!(populated_trader(100).len(), 100);
    }

    #[test]
    fn nested_value_size_grows() {
        assert_eq!(nested_value(0, 4).size(), 1);
        assert!(nested_value(3, 3).size() > nested_value(2, 3).size());
    }

    #[test]
    fn capture_reports_fired_mechanisms() {
        let (_, registry) = capture::capture_metrics(|| {
            let mut rig = counter_rig(1, SyntaxId::Binary);
            let ch = open(&mut rig, ChannelConfig::default());
            rig.engine.call(ch, "Add", &add_one()).unwrap();
        });
        assert!(registry.counter("engineering.calls") >= 1);
        assert!(registry.counter("netsim.sent") >= 1);
        let report = capture::mechanism_report("smoke", &registry);
        assert!(report.contains("engineering.calls"));
        assert!(report.contains("smoke"));
    }

    #[test]
    fn capture_leaves_bus_state_as_it_found_it() {
        rmodp_observe::bus::set_enabled(false);
        let (_, registry) = capture::capture_metrics(|| {
            rmodp_observe::bus::counter_add("probe", 1);
        });
        assert_eq!(
            registry.counter("probe"),
            1,
            "recording is on inside capture"
        );
        assert!(!rmodp_observe::bus::is_enabled(), "prior setting restored");
        rmodp_observe::bus::set_enabled(true);
    }
}
