//! `invoke`: closed-loop `Engine::call` and `TransparentProxy::call` on
//! a two-node counter rig.
//!
//! Each operation picks, from the seed, a client (text or binary
//! syntax; the server is binary, so the text client marshals for real),
//! a path (bare channel or a proxy with every transparency selected)
//! and an operation (`Add`, a write, three times in four; `Get`, a
//! read, otherwise). Every reply is checked against the client's own
//! count of `Add`s.

use std::time::{Duration, Instant};

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{CapsuleId, ChannelId, ClusterId, InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::behaviour::CounterBehaviour;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::Engine;
use rmodp_engineering::envelope::{Envelope, ReplyStatus};
use rmodp_kernel::{EventQueue, Payload, SimTime, PAYLOAD_ALLOCS, PAYLOAD_COPIES};
use rmodp_netsim::{Addr, Ctx, Message, Process, Sim};
use rmodp_observe::bus;
use rmodp_transparency::proxy::{OdpInfra, TransparentProxy};
use rmodp_transparency::selection::TransparencySet;

use crate::common::{traced, Ladder, Rng, Spans};
use crate::report::{median, peak_rss_mb, time_ns, Report};
use crate::speed::{per_call_ns, timed_reps, Measured, Phase};

/// One invocation of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// From the text-syntax client (else the binary one).
    pub text: bool,
    /// Through the transparent proxy (else the bare channel).
    pub proxied: bool,
    /// `Add {k: 1}` (else `Get {}`).
    pub add: bool,
}

/// The workload's operation sequence for `seed`.
pub fn ops(seed: u64) -> impl Iterator<Item = Op> {
    let mut rng = Rng::new(seed, 0x1);
    std::iter::repeat_with(move || {
        let r = rng.next();
        Op {
            text: r & 1 == 1,
            proxied: r & 2 == 2,
            add: !(r >> 2).is_multiple_of(4),
        }
    })
}

/// Bus events are drained (as an exporter would) after this many calls,
/// so the shipped, unbounded trace cannot grow without limit.
const DRAIN_EVERY: u64 = 256;

/// The counter rig: one binary server, a text and a binary client, a
/// bare channel and an all-transparency proxy per client.
pub struct Rig {
    engine: Engine,
    infra: OdpInfra,
    server: NodeId,
    capsule: CapsuleId,
    cluster: ClusterId,
    interface: InterfaceId,
    channels: [ChannelId; 2],
    proxies: [TransparentProxy; 2],
    /// `Add`s acknowledged so far: the counter's expected value.
    pub expected: i64,
    /// Calls made.
    pub calls: u64,
    /// Calls that failed or returned a wrong count.
    pub failed: u64,
}

impl Rig {
    /// Builds the rig (the workload's set-up).
    pub fn build(seed: u64) -> Rig {
        let mut engine = Engine::new(seed);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let server = engine.add_node(SyntaxId::Binary);
        let clients = [
            engine.add_node(SyntaxId::Text),
            engine.add_node(SyntaxId::Binary),
        ];
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
        let interface = refs[0].interface;
        let channels = clients.map(|c| {
            engine
                .open_channel(c, interface, ChannelConfig::default())
                .expect("interface is live")
        });
        let mut infra = OdpInfra::new();
        infra
            .publish(&engine, interface)
            .expect("interface is live");
        let proxies = clients.map(|c| TransparentProxy::new(c, interface, TransparencySet::all()));
        Rig {
            engine,
            infra,
            server,
            capsule,
            cluster,
            interface,
            channels,
            proxies,
            expected: 0,
            calls: 0,
            failed: 0,
        }
    }

    /// Performs one operation and checks its reply; returns whether it
    /// succeeded with the right count.
    pub fn exec(&mut self, op: Op) -> bool {
        let (name, args) = if op.add {
            ("Add", Value::record([("k", Value::Int(1))]))
        } else {
            ("Get", Value::record::<&str, _>([]))
        };
        let client = usize::from(!op.text);
        let reply = if op.proxied {
            self.proxies[client]
                .call(&mut self.engine, &mut self.infra, name, &args)
                .ok()
        } else {
            self.engine.call(self.channels[client], name, &args).ok()
        };
        let n = reply
            .filter(|t| t.is_ok())
            .and_then(|t| t.results.field("n").and_then(Value::as_int));
        self.calls += 1;
        let want = self.expected + i64::from(op.add);
        let ok = n == Some(want);
        if ok {
            self.expected = want;
        } else {
            self.failed += 1;
            // Resynchronise with what the server holds, so one bad reply
            // is one failure rather than a cascade.
            if let Some(n) = n {
                self.expected = n;
            }
        }
        ok
    }

    /// Makes one `Get` on every path (which also opens the proxies'
    /// channels): the rig is set up once each path has answered.
    pub fn bind_all(&mut self) {
        for (text, proxied) in [(true, false), (false, false), (true, true), (false, true)] {
            self.exec(Op {
                text,
                proxied,
                add: false,
            });
        }
    }

    /// Kernel events the engine's simulator has processed.
    fn sim_events(&self) -> u64 {
        let m = self.engine.sim().metrics();
        m.delivered + m.timers_fired
    }
}

/// Runs the closed loop for `ops` operations, or for `length` when
/// `ops` is `None`; with `spans`, records a span around every call.
/// Returns the measurements and the kernel events processed.
fn drive(
    rig: &mut Rig,
    gen: &mut impl Iterator<Item = Op>,
    length: Duration,
    ops: Option<u64>,
    mut spans: Option<&mut Spans>,
) -> (Measured, u64) {
    let events_before = rig.sim_events();
    let mut phase = Phase::start(length, ops);
    while !phase.done() {
        for _ in 0..DRAIN_EVERY {
            let op = gen.next().expect("infinite sequence");
            let name = if op.proxied {
                "transparency.proxy_call"
            } else {
                "engineering.call"
            };
            let t = Instant::now();
            traced(&mut spans, name, || rig.exec(op));
            let ns = t.elapsed().as_nanos() as u64;
            if op.add {
                phase.write(ns);
            } else {
                phase.read(ns);
            }
        }
        drop(bus::take_events());
        phase.tick(DRAIN_EVERY);
    }
    let events = rig.sim_events() - events_before;
    (phase.finish(), events)
}

/// Calls a run measures per `--seconds`: about a second's worth on a
/// 2-vCPU host, so the work (and the attempted count) is fixed per run.
const OPS_PER_SECOND: u64 = 60_000;
const SETUP_REPS: usize = 101;
const RECOVERY_REPS: usize = 101;

/// The end-to-end run.
pub fn run(seed: u64, seconds: Duration, rep: &mut Report) {
    let mut rig = None;
    let setups = timed_reps(SETUP_REPS, || {
        // Free the previous rig and its trace before the clock starts.
        drop(rig.take());
        bus::reset();
        let (r, ns) = time_ns(|| {
            let mut r = Rig::build(seed);
            r.bind_all();
            r
        });
        rig = Some(r);
        ns as f64 / 1e9
    });
    rep.timing("setup_s", &setups);
    let mut rig = rig.expect("built above");
    let mut gen = ops(seed);

    drive(&mut rig, &mut gen, seconds / 20, None, None);
    let ops = (OPS_PER_SECOND as f64 * seconds.as_secs_f64()) as u64;
    let (pass, events) = drive(&mut rig, &mut gen, seconds, Some(ops), None);
    rep.rate("ops_per_s", &pass, 1.0);
    rep.rate("events_per_s", &pass, events as f64 / pass.ops as f64);
    rep.latencies(&pass);

    let copies = bus::counter(PAYLOAD_COPIES);
    rep.check(copies == 0, format!("payload_copies is {copies}, not 0"));
    let final_ok = rig.exec(Op {
        text: false,
        proxied: false,
        add: false,
    });
    rep.check(
        final_ok,
        "the final counter differs from the number of Adds issued",
    );
    recovery(&mut rig, rep);
    rep.attempted += rig.calls;
    rep.failed += rig.failed;
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Restart of the counter's server object as a client sees it: the
/// cluster is deactivated to a checkpoint (untimed), then the clock
/// runs over its reactivation, the relocator update, and the first
/// proxied `Get` — which must still read every acknowledged `Add`.
fn recovery(rig: &mut Rig, rep: &mut Report) {
    let mut lost = 0u32;
    let times = timed_reps(RECOVERY_REPS, || {
        let checkpoint = rig
            .engine
            .deactivate_cluster(rig.server, rig.capsule, rig.cluster)
            .expect("cluster is live");
        let (ok, ns) = time_ns(|| {
            rig.cluster = rig
                .engine
                .reactivate_cluster(rig.server, rig.capsule, &checkpoint)
                .expect("counter behaviour is registered");
            rig.infra
                .publish(&rig.engine, rig.interface)
                .expect("interface is live again");
            rig.exec(Op {
                text: true,
                proxied: true,
                add: false,
            })
        });
        lost += u32::from(!ok);
        ns as f64 / 1e9
    });
    rep.timing("recovery_s", &times);
    rep.check(
        lost == 0,
        "the counter lost acknowledged Adds across a restart",
    );
}

/// Replies to every message with the same bytes.
struct Echo;

impl Process for Echo {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        ctx.send(msg.src, msg.payload);
    }
}

/// Counts the replies it receives.
#[derive(Default)]
struct Sink(u64);

impl Process for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
        self.0 += 1;
    }
}

/// Ns per call of `ops` (all of them, once per batch), each rewritten
/// by `path`, for about `length`; drains the bus after each batch as
/// the workload does.
fn loop_ns(rig: &mut Rig, ops: &[Op], length: Duration, path: impl Fn(Op) -> Op) -> f64 {
    per_call_ns(length, ops.len(), || {
        for op in ops {
            rig.exec(path(*op));
        }
        drop(bus::take_events());
    })
}

/// The invocation values one call of `op` encodes and decodes: the
/// request `{op, args}` and the termination `{name, results}`.
fn call_values(op: Op) -> [Value; 2] {
    let (name, args) = if op.add {
        ("Add", Value::record([("k", Value::Int(1))]))
    } else {
        ("Get", Value::record::<&str, _>([]))
    };
    [
        Value::record([("op", Value::text(name)), ("args", args)]),
        Value::record([
            ("name", Value::text("OK")),
            ("results", Value::record([("n", Value::Int(123_456))])),
        ]),
    ]
}

/// The per-layer figures of `invoke`, its trace overhead and its ladder.
/// Returns `(trace_overhead_ratio, ladder_unexplained_ratio)`.
pub fn layers(seed: u64, length: Duration, rep: &mut Report) -> (f64, f64) {
    bus::set_enabled(true);
    let mut rig = Rig::build(seed);
    let mut gen = ops(seed);
    let sample: Vec<Op> = ops(seed ^ 0x1a7e).take(DRAIN_EVERY as usize).collect();
    drive(&mut rig, &mut gen, length / 4, None, None);

    // Counters from the program's own bus metrics, over a fresh window.
    let before = (
        bus::counter("engineering.calls"),
        bus::counter(PAYLOAD_ALLOCS),
        bus::counter(PAYLOAD_COPIES),
        bus::counter("netsim.sent"),
        bus::counter("engineering.retries"),
    );
    let mut events = 0usize;
    for op in &sample {
        rig.exec(*op);
        events += bus::event_count();
        drop(bus::take_events());
    }
    let calls = (bus::counter("engineering.calls") - before.0) as f64;
    rep.metric(
        "kernel.payload_allocs_per_call",
        (bus::counter(PAYLOAD_ALLOCS) - before.1) as f64 / calls,
        "count",
    );
    rep.metric(
        "kernel.payload_copies",
        (bus::counter(PAYLOAD_COPIES) - before.2) as f64,
        "count",
    );
    let msgs_per_call = (bus::counter("netsim.sent") - before.3) as f64 / calls;
    rep.metric("engineering.msgs_per_call", msgs_per_call, "count");
    rep.metric(
        "engineering.retries",
        (bus::counter("engineering.retries") - before.4) as f64,
        "count",
    );
    rep.metric(
        "observe.events_per_call",
        events as f64 / sample.len() as f64,
        "count",
    );

    // End to end (the workload's own loop, untraced then traced) and
    // the bus and path steps, interleaved over rounds so that host drift
    // touches every figure alike; each figure is its median over rounds.
    const ROUNDS: u32 = 3;
    let part = length / ROUNDS;
    let mut spans = Spans::default();
    let mut rounds: [Vec<f64>; 6] = Default::default();
    for _ in 0..ROUNDS {
        bus::set_enabled(true);
        rounds[0].push(drive(&mut rig, &mut gen, part, None, None).0.rate);
        rounds[1].push(
            drive(&mut rig, &mut gen, part, None, Some(&mut spans))
                .0
                .rate,
        );
        rounds[2].push(loop_ns(&mut rig, &sample, part / 2, |op| op));
        bus::set_enabled(false);
        rounds[3].push(loop_ns(&mut rig, &sample, part / 2, |op| op));
        rounds[4].push(loop_ns(&mut rig, &sample, part / 2, |op| Op {
            proxied: false,
            ..op
        }));
        rounds[5].push(loop_ns(&mut rig, &sample, part / 2, |op| Op {
            proxied: true,
            ..op
        }));
    }
    let [untraced, traced, mix_on, mix_off, bare, proxied] = rounds.map(|r| median(&r));
    let overhead = traced / untraced;
    let end_to_end_ns = 1e9 / untraced;
    let step = length / 2;
    rep.metric("engineering.call_ns", bare, "ns");
    rep.metric("transparency.proxy_ns", proxied - bare, "ns");
    rep.metric("observe.call_overhead_ns", mix_on - mix_off, "ns");

    // Codec: encode + decode of the request and the reply, per call.
    let codec = |id: SyntaxId| {
        let syntax = syntax_for(id);
        let values: Vec<[Value; 2]> = sample.iter().map(|op| call_values(*op)).collect();
        per_call_ns(step / 4, values.len(), || {
            for v in values.iter().flatten() {
                let bytes = syntax.encode(v);
                std::hint::black_box(syntax.decode(&bytes).expect("own encoding"));
            }
        })
    };
    let text_ns = codec(SyntaxId::Text);
    let binary_ns = codec(SyntaxId::Binary);
    rep.metric("core.codec.text_ns", text_ns, "ns");
    rep.metric("core.codec.binary_ns", binary_ns, "ns");

    // Envelope: request and reply framed and parsed, per call.
    let [request_value, reply_value] = call_values(Op {
        text: true,
        proxied: false,
        add: true,
    });
    let text = syntax_for(SyntaxId::Text);
    let request_bytes = Payload::new(text.encode(&request_value));
    let reply_bytes = Payload::new(text.encode(&reply_value));
    let mut request_id = 0u64;
    let envelope_ns = per_call_ns(step / 4, 64, || {
        for _ in 0..64 {
            request_id += 1;
            let req = Envelope::request(
                rig.channels[0],
                request_id,
                rig.interface,
                SyntaxId::Text,
                request_bytes.clone(),
            );
            let got = Envelope::from_payload(&Payload::new(req.to_bytes())).expect("own frame");
            let reply =
                Envelope::reply_to(&got, ReplyStatus::Ok, SyntaxId::Text, reply_bytes.clone());
            std::hint::black_box(
                Envelope::from_payload(&Payload::new(reply.to_bytes())).expect("own frame"),
            );
        }
    });
    rep.metric("engineering.envelope_ns", envelope_ns, "ns");
    let frame_len = Envelope::request(
        rig.channels[0],
        1,
        rig.interface,
        SyntaxId::Text,
        request_bytes,
    )
    .to_bytes()
    .len();

    // Kernel queue at the rig's depth: a call keeps one or two events
    // pending.
    let mut queue: EventQueue<u64> = EventQueue::new();
    queue.schedule(SimTime::from_micros(1_000_000_000), 0);
    let mut i = 0u64;
    let pair_ns = per_call_ns(step / 4, 256, || {
        for _ in 0..256 {
            i += 1;
            let at = SimTime::from_micros(queue.now().as_micros() + 500);
            queue.schedule(at, i);
            std::hint::black_box(queue.pop());
        }
    });
    rep.metric("kernel.queue.pair_ns", pair_ns, "ns");

    // Netsim: a bare two-process round trip carrying a call-sized frame.
    // Building a `Sim` resets the bus, so it comes after every bus count.
    let mut sim = Sim::new(seed);
    let (a, b) = (sim.add_node(), sim.add_node());
    let (client, server) = (Addr::new(a, 1), Addr::new(b, 1));
    sim.attach(client, Sink::default());
    sim.attach(server, Echo);
    let frame = Payload::new(vec![0x5a; frame_len]);
    let rtt_ns = per_call_ns(step / 4, 64, || {
        for _ in 0..64 {
            sim.send_from(client, server, frame.clone());
            sim.run_until_idle();
        }
    });
    let delivered = sim.inspect::<Sink>(client).map_or(0, |s| s.0);
    rep.check(delivered > 0, "the netsim round trip delivered nothing");
    rep.metric("netsim.rtt_ns", rtt_ns, "ns");

    // Ladder, ns per call: kernel → netsim → codec → envelope →
    // channel + nucleus → transparency → observe bus.
    let codec_mix = (text_ns + binary_ns) / 2.0;
    let below_channel = rtt_ns + codec_mix + envelope_ns;
    rep.metric("engineering.channel_nucleus_ns", bare - below_channel, "ns");
    let mut ladder = Ladder::default();
    ladder.step("kernel", pair_ns * msgs_per_call);
    ladder.step("netsim", rtt_ns);
    ladder.step("codec", rtt_ns + codec_mix);
    ladder.step("envelope", below_channel);
    ladder.step("channel+nucleus", bare);
    ladder.step("transparency", (bare + proxied) / 2.0);
    ladder.step("observe", (bare + proxied) / 2.0 + (mix_on - mix_off));
    let unexplained = ladder.unexplained_ratio(end_to_end_ns);
    rep.note("invoke.ladder_ns", ladder.json());
    rep.note(
        "invoke.end_to_end_ns",
        crate::report::json_num(end_to_end_ns),
    );

    let ok = rig.exec(Op {
        text: false,
        proxied: false,
        add: false,
    });
    bus::set_enabled(true);
    rep.check(ok, "invoke: the counter differs from the Adds issued");
    rep.check(
        rep.get("kernel.payload_copies") == Some(0.0),
        "invoke: the call path copied a payload",
    );
    rep.attempted += rig.calls;
    rep.failed += rig.failed;
    (overhead, unexplained)
}
