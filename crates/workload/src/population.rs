//! Population-scale workloads on the sharded kernel.
//!
//! This module drives **millions of client capsules** against bank-branch
//! and trader-desk servers, partitioned across the shards of a
//! [`ShardedKernel`]. Each region contributes one server node (running an
//! engineering [`NucleusProcess`]) and one client-hub node (running a
//! [`ClientHubProcess`] that stands in for that region's client capsules);
//! regions are assigned to shards round-robin, so any shard count from 1
//! to the region count yields the same simulated world.
//!
//! # Why the results are shard-count invariant
//!
//! The exported completion log, the audited server states, and the SLO
//! verdict are byte-identical for the same seed at *any* shard count
//! because every source of nondeterminism is pinned:
//!
//! - **Timing** — links carry zero jitter and zero loss, so every message
//!   arrival time is a pure function of its send time; the conservative
//!   epoch protocol never lets a cross-shard message arrive in a shard's
//!   past.
//! - **Randomness** — client decisions (operation, amount, routing, think
//!   time) come from the pure hash [`mix`] keyed by `(seed, region,
//!   capsule, op)` — no stream is consumed, so no draw order exists to
//!   perturb.
//! - **Server order-sensitivity** — the behaviours
//!   ([`BankBranchBehaviour`], [`TraderDeskBehaviour`]) keep commutative
//!   state and reply as pure functions of the request, so the one thing
//!   re-sharding *does* change — the tie-break order of same-instant
//!   arrivals at a server — is unobservable.
//! - **Export order** — completions are sorted into the canonical
//!   `(t_us, region, capsule, seq)` order before rendering, erasing any
//!   collection-order difference between shard layouts.
//!
//! [`mix`]: rmodp_kernel::rng::mix

use std::collections::BTreeMap;
use std::time::Duration;

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::contract::QosRequirement;
use rmodp_core::id::{CapsuleId, ChannelId, ClusterId, InterfaceId, NodeId, ObjectId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::ServerBehaviour;
use rmodp_engineering::envelope::{Envelope, EnvelopeKind, ReplyStatus};
use rmodp_engineering::invocation::encode_invocation;
use rmodp_engineering::nucleus::{NucleusProcess, DRIVER_PORT, NUCLEUS_PORT};
use rmodp_engineering::population::{BankBranchBehaviour, TraderDeskBehaviour};
use rmodp_engineering::structure::BeoRecord;
use rmodp_kernel::rng::mix;
use rmodp_kernel::{EpochHook, PartitionMap, ShardedKernel, SyncStats};
use rmodp_netsim::sim::{Addr, Ctx, Message, NodeIdx, Process, ShardAction, Sim};
use rmodp_netsim::time::{SimDuration, SimTime};
use rmodp_netsim::topology::{LinkConfig, Topology};
use rmodp_observe::hash::{fnv1a, FNV_OFFSET_BASIS};

use crate::arrival::ArrivalProcess;
use crate::driver::RunStats;
use crate::scenario::{LoadModel, Scenario};
use crate::slo::{self, SloReport};

/// Latency of every inter-node link in the population topology. With a
/// single latency class, this is also the conservative lookahead bound
/// for any partition of the nodes.
pub const CROSS_LATENCY: SimDuration = SimDuration::from_micros(200);

/// Timer tag driving the activation chain of a client hub.
const TAG_ACTIVATE: u64 = 0;

/// Timer tags above this base encode "send the next op for capsule
/// `tag - OP_TAG_BASE`".
const OP_TAG_BASE: u64 = 1 << 40;

/// Seed salt for each region's activation arrival stream.
const ACTIVATION_SALT: u64 = 0xAC71_0A7E;
/// Seed salt for remote-region routing decisions.
const ROUTE_SALT: u64 = 0x2077_E221;
/// Seed salt for per-capsule think times.
const THINK_SALT: u64 = 0x7417_4B17;
/// Seed salt splitting the per-shard simulator RNG streams.
const SHARD_RNG_SALT: u64 = 0x5EED_0001;

/// Which population scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationScenario {
    /// Retail bank branches: deposits and withdrawals.
    Bank,
    /// Trading desks: quotes and bookings.
    Trader,
}

impl PopulationScenario {
    /// Stable scenario name (artifact keys, report headers).
    pub fn name(self) -> &'static str {
        match self {
            PopulationScenario::Bank => "bank",
            PopulationScenario::Trader => "trader",
        }
    }

    fn behaviour_name(self) -> &'static str {
        match self {
            PopulationScenario::Bank => "bank-branch",
            PopulationScenario::Trader => "trader-desk",
        }
    }

    fn behaviour(self) -> Box<dyn ServerBehaviour> {
        match self {
            PopulationScenario::Bank => Box::new(BankBranchBehaviour),
            PopulationScenario::Trader => Box::new(TraderDeskBehaviour),
        }
    }

    fn initial_state(self) -> Value {
        match self {
            PopulationScenario::Bank => BankBranchBehaviour::initial_state(),
            PopulationScenario::Trader => TraderDeskBehaviour::initial_state(),
        }
    }

    /// The operation a capsule performs for hash `h`: name, arguments and
    /// a compact op code for the completion log.
    fn op(self, h: u64) -> (&'static str, Value, u8) {
        let pick = h & 1;
        let body = h >> 1;
        match (self, pick) {
            (PopulationScenario::Bank, 0) => (
                "Deposit",
                Value::record([("amount", Value::Int(1 + (body % 997) as i64))]),
                0,
            ),
            (PopulationScenario::Bank, _) => (
                "Withdraw",
                Value::record([("amount", Value::Int(1 + (body % 991) as i64))]),
                1,
            ),
            (PopulationScenario::Trader, 0) => (
                "Quote",
                Value::record([("instrument", Value::Int((body % 9973) as i64))]),
                0,
            ),
            (PopulationScenario::Trader, _) => (
                "Book",
                Value::record([("qty", Value::Int(1 + (body % 97) as i64))]),
                1,
            ),
        }
    }

    /// The operation name for an op code in the completion log.
    pub fn op_name(self, code: u8) -> &'static str {
        match (self, code) {
            (PopulationScenario::Bank, 0) => "Deposit",
            (PopulationScenario::Bank, _) => "Withdraw",
            (PopulationScenario::Trader, 0) => "Quote",
            (PopulationScenario::Trader, _) => "Book",
        }
    }
}

/// Configuration of one population run.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// The scenario (bank branches or trader desks).
    pub scenario: PopulationScenario,
    /// Master seed; every stream and hash in the run derives from it.
    pub seed: u64,
    /// Shard count; regions are assigned round-robin.
    pub shards: usize,
    /// Number of regions (each: one server node + one client-hub node).
    pub regions: u32,
    /// Client capsules simulated per region.
    pub capsules_per_region: u32,
    /// Operations each capsule performs (a closed chain with think time).
    pub ops_per_capsule: u32,
    /// Virtual window over which capsule activations are spread.
    pub arrival_window: SimDuration,
    /// Run shards on real threads (`std::thread::scope`); the serial
    /// path is byte-identical, so this only affects wall-clock time.
    pub threaded: bool,
    /// Keep the rendered JSONL export in the outcome (tests and smoke
    /// runs; full-scale runs should rely on the checksum instead).
    pub collect_export: bool,
}

impl PopulationConfig {
    /// A small default configuration, suitable for tests.
    pub fn new(scenario: PopulationScenario, seed: u64, shards: usize) -> Self {
        Self {
            scenario,
            seed,
            shards,
            regions: 8,
            capsules_per_region: 64,
            ops_per_capsule: 2,
            arrival_window: SimDuration::from_millis(200),
            threaded: shards > 1,
            collect_export: false,
        }
    }

    /// The full-scale configuration the population benchmark publishes:
    /// the bank scenario alone simulates 1,048,576 client capsules.
    pub fn full_scale(scenario: PopulationScenario, seed: u64, shards: usize) -> Self {
        let mut config = Self::new(scenario, seed, shards);
        match scenario {
            PopulationScenario::Bank => {
                config.regions = 64;
                config.capsules_per_region = 16_384;
                config.ops_per_capsule = 1;
            }
            PopulationScenario::Trader => {
                config.regions = 48;
                config.capsules_per_region = 4_096;
                config.ops_per_capsule = 2;
            }
        }
        config.arrival_window = SimDuration::from_secs(2);
        config
    }

    /// Total capsules simulated.
    pub fn capsules(&self) -> u64 {
        self.regions as u64 * self.capsules_per_region as u64
    }

    fn validate(&self) {
        assert!(self.shards >= 1, "at least one shard");
        assert!(self.regions >= 1, "at least one region");
        assert!(
            self.shards <= self.regions as usize,
            "more shards than regions leaves shards idle"
        );
        assert!(
            self.capsules_per_region < (1 << 24),
            "capsule index must fit the request-id encoding"
        );
        assert!(
            self.ops_per_capsule >= 1 && self.ops_per_capsule < (1 << 16),
            "op index must fit the request-id encoding"
        );
        assert!(
            self.regions < (1 << 24),
            "region index must fit the request-id encoding"
        );
    }
}

/// Encodes `(region, capsule, op_seq)` as a non-zero request id.
fn request_id(region: u32, capsule: u32, op_seq: u32) -> u64 {
    ((region as u64) << 40) | ((capsule as u64) << 16) | (op_seq as u64 + 1)
}

/// The inverse of [`request_id`].
fn decode_request_id(req: u64) -> (u32, u32, u32) {
    (
        ((req >> 40) & 0xFF_FFFF) as u32,
        ((req >> 16) & 0xFF_FFFF) as u32,
        ((req & 0xFFFF) - 1) as u32,
    )
}

/// One completed (answered) operation, as recorded by a client hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Virtual arrival time of the reply, µs.
    pub t_us: u64,
    /// The capsule's home region.
    pub region: u32,
    /// Capsule index within the region.
    pub capsule: u32,
    /// Which of the capsule's operations this was.
    pub op_seq: u32,
    /// Scenario-relative op code (see [`PopulationScenario::op_name`]).
    pub op: u8,
    /// 0 = ok, 1 = rejected, 2 = not-here.
    pub status: u8,
    /// Request-to-reply virtual latency, µs.
    pub latency_us: u64,
}

impl Completion {
    /// The canonical export order.
    fn sort_key(&self) -> (u64, u32, u32, u32) {
        (self.t_us, self.region, self.capsule, self.op_seq)
    }

    fn status_name(&self) -> &'static str {
        match self.status {
            0 => "ok",
            1 => "rejected",
            _ => "not_here",
        }
    }

    fn render(&self, scenario: PopulationScenario) -> String {
        format!(
            "{{\"t_us\":{},\"region\":{},\"capsule\":{},\"seq\":{},\"op\":\"{}\",\"status\":\"{}\",\"latency_us\":{}}}",
            self.t_us,
            self.region,
            self.capsule,
            self.op_seq,
            scenario.op_name(self.op),
            self.status_name(),
            self.latency_us,
        )
    }
}

/// Stands in for one region's client capsules: activates each capsule at
/// its scheduled instant, then walks it through a closed chain of
/// request → reply → think → request.
pub struct ClientHubProcess {
    region: u32,
    seed: u64,
    scenario: PopulationScenario,
    regions: u32,
    ops_per_capsule: u32,
    /// Ascending activation offsets from the run origin, one per capsule.
    schedule: Vec<SimDuration>,
    next_activation: usize,
    /// Operations completed per capsule (the next op's index).
    ops_done: Vec<u16>,
    /// Outstanding requests: request id → send time.
    inflight: BTreeMap<u64, SimTime>,
    sent: u64,
    completions: Vec<Completion>,
}

impl ClientHubProcess {
    fn new(region: u32, config: &PopulationConfig) -> Self {
        let capsules = config.capsules_per_region as usize;
        let window_secs = config.arrival_window.as_micros() as f64 / 1e6;
        let rate = if window_secs > 0.0 {
            capsules as f64 / window_secs
        } else {
            1.0
        };
        let schedule: Vec<SimDuration> = ArrivalProcess::Poisson { rate_per_sec: rate }
            .stream(mix(
                config.seed,
                ACTIVATION_SALT.wrapping_add(region as u64),
            ))
            .take(capsules)
            .collect();
        Self {
            region,
            seed: config.seed,
            scenario: config.scenario,
            regions: config.regions,
            ops_per_capsule: config.ops_per_capsule,
            schedule,
            next_activation: 0,
            ops_done: vec![0; capsules],
            inflight: BTreeMap::new(),
            sent: 0,
            completions: Vec::new(),
        }
    }

    /// The delay from the run origin until this hub first acts; `None`
    /// when it has no capsules.
    fn first_activation(&self) -> Option<SimDuration> {
        self.schedule.first().copied()
    }

    /// Requests issued by this hub.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Completions recorded by this hub, in arrival order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// The region an op targets: usually the capsule's home region, but
    /// one in four ops goes to a hash-chosen remote region, generating
    /// cross-shard traffic under any multi-shard partition.
    fn target_region(&self, key: u64) -> u32 {
        let route = mix(self.seed ^ ROUTE_SALT, key);
        if self.regions > 1 && route.is_multiple_of(4) {
            let hop = 1 + ((route >> 2) % (self.regions as u64 - 1)) as u32;
            (self.region + hop) % self.regions
        } else {
            self.region
        }
    }

    fn send_op(&mut self, ctx: &mut Ctx<'_>, capsule: u32) {
        let op_seq = self.ops_done[capsule as usize] as u32;
        let req = request_id(self.region, capsule, op_seq);
        let h = mix(self.seed, req);
        let (op, args, _code) = self.scenario.op(h);
        let target = self.target_region(req);
        let payload = encode_invocation(SyntaxId::Binary, op, &args);
        let env = Envelope::request(
            ChannelId::new(0),
            req,
            InterfaceId::new(target as u64 + 1),
            SyntaxId::Binary,
            payload,
        );
        ctx.send(Addr::new(NodeIdx(2 * target), NUCLEUS_PORT), env.to_bytes());
        self.inflight.insert(req, ctx.now());
        self.sent += 1;
    }
}

impl Process for ClientHubProcess {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let Ok(env) = Envelope::from_payload(&msg.payload) else {
            return;
        };
        if env.kind != EnvelopeKind::Reply {
            return;
        }
        let Some(sent_at) = self.inflight.remove(&env.request) else {
            return;
        };
        let (region, capsule, op_seq) = decode_request_id(env.request);
        debug_assert_eq!(region, self.region);
        let h = mix(self.seed, env.request);
        let (_, _, code) = self.scenario.op(h);
        let now = ctx.now();
        self.completions.push(Completion {
            t_us: now.as_micros(),
            region,
            capsule,
            op_seq,
            op: code,
            status: match env.status {
                ReplyStatus::Ok => 0,
                ReplyStatus::Rejected => 1,
                ReplyStatus::NotHere => 2,
            },
            latency_us: now.since(sent_at).as_micros(),
        });
        self.ops_done[capsule as usize] += 1;
        if (self.ops_done[capsule as usize] as u32) < self.ops_per_capsule {
            let think = 500 + mix(self.seed ^ THINK_SALT, env.request) % 2000;
            ctx.set_timer(
                SimDuration::from_micros(think),
                OP_TAG_BASE | capsule as u64,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TAG_ACTIVATE {
            while self.next_activation < self.schedule.len() {
                let due = SimTime::ZERO + self.schedule[self.next_activation];
                if due > ctx.now() {
                    break;
                }
                let capsule = self.next_activation as u32;
                self.next_activation += 1;
                self.send_op(ctx, capsule);
            }
            if self.next_activation < self.schedule.len() {
                let due = SimTime::ZERO + self.schedule[self.next_activation];
                ctx.set_timer(due.since(ctx.now()), TAG_ACTIVATE);
            }
        } else {
            self.send_op(ctx, (tag & (OP_TAG_BASE - 1)) as u32);
        }
    }
}

/// The outcome of one population run: deterministic counters, checksums
/// over the canonical export and audited server states, and the SLO
/// verdict.
#[derive(Debug, Clone)]
pub struct PopulationOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Shard count the run used.
    pub shards: usize,
    /// Client capsules simulated.
    pub capsules: u64,
    /// Kernel events processed (all shards).
    pub events: u64,
    /// Synchronization epochs the sharded kernel ran.
    pub epochs: u64,
    /// Messages that crossed a shard boundary.
    pub cross_shard_messages: u64,
    /// Epoch-hook firings (fault injections etc.).
    pub hook_firings: u64,
    /// Virtual time of the last processed event, µs.
    pub finished_us: u64,
    /// FNV-1a checksum of the canonical JSONL completion export.
    pub export_checksum: u64,
    /// FNV-1a checksum of the audited per-region server states.
    pub state_checksum: u64,
    /// Raw run statistics.
    pub stats: RunStats,
    /// The SLO verdict.
    pub report: SloReport,
    /// The rendered export, when the config asked to keep it.
    pub export: Option<String>,
}

/// The topology every shard instantiates: a full mesh with one uniform
/// latency class and no jitter or loss.
fn population_topology() -> Topology {
    Topology::full_mesh(LinkConfig::with_latency(CROSS_LATENCY))
}

/// The region-to-shard partition: region `r` (nodes `2r` and `2r + 1`)
/// lives on shard `r % shards`.
pub fn population_partition(regions: u32, shards: usize) -> PartitionMap {
    let owner = (0..2 * regions as usize)
        .map(|n| (n / 2) % shards)
        .collect();
    PartitionMap::new(shards, owner)
}

/// Runs a population scenario to quiescence.
pub fn run_population(config: &PopulationConfig) -> PopulationOutcome {
    run_population_with_hook(config, &mut rmodp_kernel::shard::NoHook)
}

/// Runs a population scenario with an epoch hook (fault injection).
pub fn run_population_with_hook(
    config: &PopulationConfig,
    hook: &mut dyn EpochHook<ShardAction>,
) -> PopulationOutcome {
    config.validate();
    let regions = config.regions;
    let map = population_partition(regions, config.shards);
    let lookahead = population_topology()
        .min_cross_partition_latency(&map)
        .unwrap_or(CROSS_LATENCY);

    let mut sims: Vec<Sim> = (0..config.shards)
        .map(|s| {
            let mut sim = Sim::with_topology(
                mix(config.seed, SHARD_RNG_SALT.wrapping_add(s as u64)),
                population_topology(),
            );
            for _ in 0..2 * regions {
                sim.add_node();
            }
            sim.enable_shard_routing(s, map.clone());
            sim
        })
        .collect();

    for r in 0..regions {
        let shard = r as usize % config.shards;
        let sim = &mut sims[shard];
        let server = Addr::new(NodeIdx(2 * r), NUCLEUS_PORT);
        let hub = Addr::new(NodeIdx(2 * r + 1), DRIVER_PORT);

        let mut nucleus = NucleusProcess::new(NodeId::new(2 * r as u64), SyntaxId::Binary);
        let capsule = CapsuleId::new(r as u64 + 1);
        let cluster = ClusterId::new(r as u64 + 1);
        nucleus.add_capsule(capsule);
        nucleus.add_cluster(capsule, cluster);
        nucleus.install_object(
            capsule,
            cluster,
            BeoRecord {
                object: ObjectId::new(r as u64 + 1),
                name: format!("{}-{r}", config.scenario.behaviour_name()),
                behaviour: config.scenario.behaviour_name().into(),
                interfaces: vec![InterfaceId::new(r as u64 + 1)],
            },
            config.scenario.behaviour(),
            config.scenario.initial_state(),
        );
        sim.attach(server, nucleus);

        let hub_process = ClientHubProcess::new(r, config);
        let first = hub_process.first_activation();
        sim.attach(hub, hub_process);
        if let Some(delay) = first {
            sim.schedule_timer(hub, delay, TAG_ACTIVATE);
        }
    }

    let mut kernel = ShardedKernel::new(sims, lookahead);
    kernel.set_threaded(config.threaded && config.shards > 1);
    let sync: SyncStats = kernel.run_with_hook(hook);
    let sims = kernel.into_shards();

    collect_outcome(config, &sims, sync)
}

/// Gathers completions and audited state from the finished shards and
/// renders the deterministic outcome.
fn collect_outcome(config: &PopulationConfig, sims: &[Sim], sync: SyncStats) -> PopulationOutcome {
    let mut completions: Vec<Completion> = Vec::new();
    let mut offered = 0u64;
    let mut state_checksum = FNV_OFFSET_BASIS;

    for r in 0..config.regions {
        let shard = r as usize % config.shards;
        let sim = &sims[shard];
        let hub = sim
            .inspect::<ClientHubProcess>(Addr::new(NodeIdx(2 * r + 1), DRIVER_PORT))
            .expect("client hub still attached");
        offered += hub.sent();
        completions.extend_from_slice(hub.completions());

        let nucleus = sim
            .inspect::<NucleusProcess>(Addr::new(NodeIdx(2 * r), NUCLEUS_PORT))
            .expect("nucleus still attached");
        let state = nucleus
            .object_state(ObjectId::new(r as u64 + 1))
            .expect("server object installed");
        state_checksum = fnv1a(state_checksum, &r.to_le_bytes());
        state_checksum = fnv1a(state_checksum, &syntax_for(SyntaxId::Binary).encode(state));
    }

    completions.sort_by_key(Completion::sort_key);

    let mut export_checksum = FNV_OFFSET_BASIS;
    let mut export = config.collect_export.then(String::new);
    let mut stats = RunStats::default();
    for c in &completions {
        let line = c.render(config.scenario);
        export_checksum = fnv1a(export_checksum, line.as_bytes());
        export_checksum = fnv1a(export_checksum, b"\n");
        if let Some(out) = export.as_mut() {
            out.push_str(&line);
            out.push('\n');
        }
        match c.status {
            0 => {
                stats.completed += 1;
                stats.latency.observe(c.latency_us);
                *stats
                    .completed_per_op
                    .entry(config.scenario.op_name(c.op).to_string())
                    .or_insert(0) += 1;
            }
            1 => stats.rejected += 1,
            _ => stats.errors += 1,
        }
    }
    stats.offered = offered;
    stats.lost = offered - completions.len() as u64;
    stats.started = SimTime::ZERO;
    stats.finished = sims.iter().map(Sim::now).max().unwrap_or(SimTime::ZERO);

    let window_secs = config.arrival_window.as_micros() as f64 / 1e6;
    let total_ops = config.capsules() * config.ops_per_capsule as u64;
    let scenario = Scenario::new(
        format!("population-{}", config.scenario.name()),
        config.seed,
        LoadModel::Open {
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: config.capsules() as f64 / window_secs.max(1e-9),
            },
        },
    )
    .lasting(config.arrival_window)
    .with_contract({
        let mut contract = QosRequirement::none()
            .with_max_latency(Duration::from_millis(20))
            .with_min_availability(0.999)
            .with_min_throughput(0.5 * total_ops as f64 / window_secs.max(1e-9));
        contract.reliable_delivery = true;
        contract
    });
    let report = slo::evaluate(&scenario, &stats);

    PopulationOutcome {
        scenario: config.scenario.name().into(),
        shards: config.shards,
        capsules: config.capsules(),
        events: sync.events,
        epochs: sync.epochs,
        cross_shard_messages: sync.cross_shard_messages,
        hook_firings: sync.hook_firings,
        finished_us: stats.finished.as_micros(),
        export_checksum,
        state_checksum,
        stats,
        report,
        export,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(scenario: PopulationScenario, shards: usize) -> PopulationConfig {
        let mut config = PopulationConfig::new(scenario, 7, shards);
        config.regions = 4;
        config.capsules_per_region = 8;
        config.ops_per_capsule = 2;
        config.arrival_window = SimDuration::from_millis(50);
        config.collect_export = true;
        config
    }

    #[test]
    fn request_ids_round_trip() {
        for (r, c, s) in [(0, 0, 0), (3, 7, 1), (1 << 20, (1 << 24) - 1, 65_534)] {
            let req = request_id(r, c, s);
            assert_ne!(req, 0);
            assert_eq!(decode_request_id(req), (r, c, s));
        }
    }

    #[test]
    fn bank_exports_are_shard_count_invariant() {
        let base = run_population(&small(PopulationScenario::Bank, 1));
        assert_eq!(base.stats.offered, 4 * 8 * 2);
        assert_eq!(base.stats.lost, 0);
        assert!(base.report.pass, "{}", base.report.render());
        for shards in [2, 4] {
            let run = run_population(&small(PopulationScenario::Bank, shards));
            assert!(run.cross_shard_messages > 0, "routing exercises shards");
            assert_eq!(run.export, base.export, "JSONL export at {shards} shards");
            assert_eq!(run.export_checksum, base.export_checksum);
            assert_eq!(run.state_checksum, base.state_checksum);
            assert_eq!(run.events, base.events);
            assert_eq!(run.report, base.report, "SLO verdict at {shards} shards");
        }
    }

    #[test]
    fn trader_serial_and_threaded_agree() {
        let serial = {
            let mut c = small(PopulationScenario::Trader, 2);
            c.threaded = false;
            run_population(&c)
        };
        let threaded = run_population(&small(PopulationScenario::Trader, 2));
        assert_eq!(serial.export, threaded.export);
        assert_eq!(serial.export_checksum, threaded.export_checksum);
        assert_eq!(serial.state_checksum, threaded.state_checksum);
        let single = run_population(&small(PopulationScenario::Trader, 1));
        assert_eq!(single.export_checksum, threaded.export_checksum);
        assert_eq!(single.report, threaded.report);
    }
}
