//! `trade`: an indexed trader over a seeded offer corpus, with the
//! corpus shape and request rotation of the repository's trader suite —
//! selective conjunctions, point lookups, in-sets, top-k preferences and
//! planner-opaque constraints that force the fallback. Imports are the
//! reads; exports and withdrawals, which maintain the indexes, are the
//! writes. A sample of imports is compared with the reference scan.

use std::time::{Duration, Instant};

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{InterfaceId, OfferId};
use rmodp_core::value::Value;
use rmodp_observe::bus;
use rmodp_trader::plan::plan_import;
use rmodp_trader::{ImportRequest, IndexKind, Match, Trader};

use crate::common::{mix, traced, Sequencer, Spans};
use crate::report::{peak_rss_mb, Report};
use crate::speed::{per_call_ns, timed, Measured, Phase};

/// Offers in the corpus.
pub const OFFERS: u64 = 50_000;

const REGIONS: [&str; 4] = ["bne", "syd", "mel", "per"];
const TYPES: [&str; 3] = ["Printer", "Scanner", "Plotter"];
const INDEXES: [(&str, IndexKind); 4] = [
    ("ppm", IndexKind::Ordered),
    ("region", IndexKind::Hash),
    ("floor", IndexKind::Ordered),
    ("colour", IndexKind::Hash),
];

/// The service type and properties of offer `i`: 80% printers, mixed
/// int/float speeds, four regions, twelve floors.
fn offer(seed: u64, i: u64) -> (&'static str, Value) {
    let h = mix(seed ^ 0x0ffe, i);
    let ppm = (h % 90 + 10) as i64;
    let ty = if (h >> 32) % 5 < 4 {
        TYPES[0]
    } else {
        TYPES[1 + ((h >> 40) % 2) as usize]
    };
    let props = Value::record([
        (
            "ppm",
            if (h >> 8).is_multiple_of(7) {
                Value::Float(ppm as f64)
            } else {
                Value::Int(ppm)
            },
        ),
        ("region", Value::text(REGIONS[((h >> 16) % 4) as usize])),
        ("colour", Value::Bool((h >> 20).is_multiple_of(3))),
        ("floor", Value::Int(((h >> 24) % 12) as i64)),
    ]);
    (ty, props)
}

/// An import as the client writes it, before parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Requested service type.
    pub service_type: &'static str,
    /// Constraint source.
    pub constraint: String,
    /// Preference: `(maximise, property)`.
    pub prefer: Option<(bool, &'static str)>,
    /// Match bound.
    pub at_most: Option<usize>,
}

impl Spec {
    /// Parses the request (the `core::expr` work of an import).
    pub fn parse(&self) -> ImportRequest {
        let mut r = ImportRequest::new(self.service_type)
            .constraint(&self.constraint)
            .expect("generated constraints parse");
        if let Some((max, prop)) = self.prefer {
            r = if max {
                r.prefer_max(prop)
            } else {
                r.prefer_min(prop)
            }
            .expect("generated preferences parse");
        }
        if let Some(n) = self.at_most {
            r = r.at_most(n);
        }
        r
    }
}

/// One operation of the workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Import (read).
    Import(Spec),
    /// Export of corpus-shaped offer `i` (write).
    Export(u64),
    /// Withdrawal of the client's live offer at this position (write).
    Withdraw(u64),
}

/// The operation at position `k` of the sequence for `seed`: the trader
/// suite's rotation with seeded parameters.
pub fn op_at(seed: u64, k: u64) -> Op {
    let h = mix(seed ^ 0x7ade, k);
    if h % 16 == 9 {
        return Op::Export(OFFERS + k);
    }
    if h % 32 == 19 {
        return Op::Withdraw(h >> 8);
    }
    let region = REGIONS[((h >> 8) % 4) as usize];
    let p = (h >> 16) % 90;
    let spec = |service_type, constraint: String, prefer, at_most| Spec {
        service_type,
        constraint,
        prefer,
        at_most,
    };
    Op::Import(match (h >> 40) % 7 {
        0 => spec(
            "Printer",
            format!("ppm >= 90 and region == \"{region}\""),
            None,
            None,
        ),
        1 => spec("Printer", format!("ppm == {}", 10 + p), None, Some(10)),
        2 => spec(
            "Scanner",
            "floor in [1, 5, 9] and colour == true".to_owned(),
            None,
            None,
        ),
        3 => spec(
            "Printer",
            format!("ppm >= 95 and region == \"{region}\""),
            Some((true, "ppm")),
            Some(5),
        ),
        4 => spec(
            "Plotter",
            format!("ppm < {} and colour == false", 12 + p % 10),
            None,
            None,
        ),
        // Planner-opaque: a computed left-hand side forces the fallback.
        5 => spec("Scanner", "ppm + 0 >= 97".to_owned(), None, None),
        _ => spec(
            "Plotter",
            format!("ppm <= 11 and floor == {}", p % 12),
            Some((false, "ppm")),
            Some(3),
        ),
    })
}

/// The workload's operation sequence for `seed`, in the order the
/// kernel-queue sequencer releases it.
pub fn ops(seed: u64) -> impl Iterator<Item = Op> {
    let mut seq = Sequencer::new(seed);
    std::iter::repeat_with(move || op_at(seed, seq.next_op()))
}

/// The trader and the client's view of its live offers.
pub struct World {
    /// The trader.
    pub trader: Trader,
    live: Vec<OfferId>,
    seed: u64,
    /// Imports checked against the reference scan.
    pub checked: u64,
    /// Checked imports that differed from the scan.
    pub mismatches: u64,
    /// Matches returned by imports.
    pub matches: u64,
}

impl World {
    /// Builds the indexed trader and exports the corpus (the set-up).
    pub fn build(seed: u64) -> World {
        let mut trader = Trader::new("perfbench");
        for (property, kind) in INDEXES {
            trader.index_property(property, kind);
        }
        let mut live = Vec::with_capacity(OFFERS as usize);
        for i in 0..OFFERS {
            let (ty, props) = offer(seed, i);
            live.push(
                trader
                    .export(ty, InterfaceId::new(i + 1), props)
                    .expect("record properties"),
            );
        }
        World {
            trader,
            live,
            seed,
            checked: 0,
            mismatches: 0,
            matches: 0,
        }
    }

    /// Performs one operation; returns whether it succeeded. With
    /// `spans`, each call into a layer is recorded.
    fn exec(&mut self, op: &Op, mut spans: Option<&mut Spans>) -> bool {
        match op {
            Op::Import(spec) => {
                let req = traced(&mut spans, "core.expr.parse", || spec.parse());
                let found = traced(&mut spans, "trader.import", || {
                    self.trader.import(&req, None)
                });
                self.matches += found.len() as u64;
                true
            }
            Op::Export(i) => {
                let (ty, props) = offer(self.seed, *i);
                let id = traced(&mut spans, "trader.export", || {
                    self.trader.export(ty, InterfaceId::new(*i + 1), props)
                });
                id.map(|id| self.live.push(id)).is_ok()
            }
            Op::Withdraw(pick) => {
                if self.live.is_empty() {
                    return true;
                }
                let id = self
                    .live
                    .swap_remove((*pick % self.live.len() as u64) as usize);
                traced(&mut spans, "trader.withdraw", || self.trader.withdraw(id)).is_ok()
            }
        }
    }

    /// Whether the planned import of `spec` equals the reference scan
    /// byte for byte (members, order, scores and offer contents).
    fn matches_scan(&mut self, spec: &Spec) -> bool {
        let req = spec.parse();
        let planned = self.trader.import(&req, None);
        let scanned = self.trader.import_scan(&req, None);
        self.checked += 1;
        let same = encode(&planned) == encode(&scanned);
        if !same {
            self.mismatches += 1;
        }
        same
    }
}

/// The binary encoding of an import's result.
fn encode(matches: &[Match]) -> Vec<u8> {
    let codec = syntax_for(SyntaxId::Binary);
    let mut out = Vec::new();
    for m in matches {
        out.extend_from_slice(&m.offer.id.raw().to_le_bytes());
        out.extend_from_slice(&m.score.to_bits().to_le_bytes());
        out.extend_from_slice(&m.offer.interface.raw().to_le_bytes());
        out.extend_from_slice(m.offer.service_type.as_bytes());
        out.extend_from_slice(&codec.encode(&m.offer.properties));
    }
    out
}

/// Every this many imports, one is compared with the reference scan
/// (outside the measured time).
const CHECK_EVERY: u64 = 64;

/// Runs the closed loop for `ops` operations, or for `length` when
/// `ops` is `None`. Returns the measurements and the failed count.
fn drive(
    w: &mut World,
    gen: &mut impl Iterator<Item = Op>,
    length: Duration,
    ops: Option<u64>,
    mut spans: Option<&mut Spans>,
) -> (Measured, u64) {
    let mut failed = 0;
    let mut imports = 0u64;
    let mut phase = Phase::start(length, ops);
    while !phase.done() {
        let op = gen.next().expect("infinite sequence");
        let t = Instant::now();
        let ok = w.exec(&op, spans.as_deref_mut());
        let ns = t.elapsed().as_nanos() as u64;
        failed += u64::from(!ok);
        match &op {
            Op::Import(spec) => {
                phase.read(ns);
                imports += 1;
                if imports % CHECK_EVERY == 1 {
                    let t = Instant::now();
                    w.matches_scan(spec);
                    phase.exclude(t.elapsed());
                }
            }
            _ => phase.write(ns),
        }
        phase.tick(1);
    }
    (phase.finish(), failed)
}

/// Operations a run measures per `--seconds`: about a second's worth
/// on a 2-vCPU host, so the work is fixed per run.
const OPS_PER_SECOND: u64 = 400;
const SETUP_REPS: usize = 5;
const RECOVERY_REPS: usize = 5;

/// The end-to-end run.
pub fn run(seed: u64, seconds: Duration, rep: &mut Report) {
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        bus::reset();
        let (w, t) = timed(|| World::build(seed));
        setups.push(t);
        world = Some(w);
    }
    rep.timing("setup_s", &setups);
    let mut w = world.expect("built above");
    let mut gen = ops(seed);
    let (warm, warm_failed) = drive(&mut w, &mut gen, seconds / 20, None, None);
    let target = (OPS_PER_SECOND as f64 * seconds.as_secs_f64()) as u64;
    let (pass, failed) = drive(&mut w, &mut gen, seconds, Some(target), None);
    rep.rate("ops_per_s", &pass, 1.0);
    // Each operation is one kernel event of the sequencer.
    rep.rate("events_per_s", &pass, 1.0);
    rep.latencies(&pass);
    rep.attempted += warm.ops + pass.ops;
    rep.failed += warm_failed + failed;

    // Restart: a trader reloading its corpus rebuilds every secondary
    // index from the live offers.
    let mut times = Vec::new();
    for _ in 0..RECOVERY_REPS {
        let ((), t) = timed(|| {
            for (property, kind) in INDEXES {
                w.trader.index_property(property, kind);
            }
        });
        times.push(t);
    }
    rep.timing("recovery_s", &times);
    for k in 0..7 * 8 {
        if let Op::Import(spec) = op_at(seed ^ 0xc4ec, k) {
            w.matches_scan(&spec);
        }
    }
    verdict(&w, rep);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn verdict(w: &World, rep: &mut Report) {
    rep.failed += w.mismatches;
    rep.check(
        w.checked > 0 && w.mismatches == 0,
        format!(
            "trade: {} of {} sampled imports differ from the reference scan",
            w.mismatches, w.checked
        ),
    );
    rep.check(w.matches > 0, "trade: no import matched any offer");
}

/// The per-layer figures of `trade`. Returns the trace overhead ratio.
pub fn layers(seed: u64, length: Duration, rep: &mut Report) -> f64 {
    bus::reset();
    let mut w = World::build(seed);
    let mut gen = ops(seed);
    drive(&mut w, &mut gen, length / 4, None, None);
    let (untraced, untraced_failed) = drive(&mut w, &mut gen, length, None, None);
    let mut spans = Spans::default();
    let (traced, traced_failed) = drive(&mut w, &mut gen, length, None, Some(&mut spans));
    rep.attempted += untraced.ops + traced.ops;
    rep.failed += untraced_failed + traced_failed;
    for (metric, span) in [
        ("core.expr.parse_ns", "core.expr.parse"),
        ("trader.export_ns", "trader.export"),
        ("trader.withdraw_ns", "trader.withdraw"),
    ] {
        rep.metric(metric, spans.mean_ns(span) / traced.slowdown, "ns");
    }

    // Planner against executor, on the imports of the same sequence.
    let requests: Vec<ImportRequest> = (0..72)
        .filter_map(|k| match op_at(seed, k) {
            Op::Import(spec) => Some(spec.parse()),
            _ => None,
        })
        .collect();
    let before = w.trader.stats();
    let mut matched = 0u64;
    let import_ns = loop_ns(length / 2, &requests, |r| {
        matched += w.trader.import(r, None).len() as u64;
    });
    let after = w.trader.stats();
    let plan_ns = loop_ns(length / 2, &requests, |r| {
        std::hint::black_box(plan_import(w.trader.store(), r, None));
    });
    rep.metric("trader.plan_ns", plan_ns, "ns");
    rep.metric("trader.exec_ns", import_ns - plan_ns, "ns");
    let imports = (after.imports - before.imports).max(1) as f64;
    let considered = (after.offers_considered - before.offers_considered).max(1) as f64;
    rep.metric(
        "trader.considered_per_import",
        considered / imports,
        "count",
    );
    rep.metric("trader.match_ratio", matched as f64 / considered, "ratio");
    rep.metric(
        "trader.indexed_share",
        (after.plans_indexed - before.plans_indexed) as f64 / imports,
        "ratio",
    );
    verdict(&w, rep);
    traced.rate / untraced.rate
}

/// Ns per item of `f`, over whole passes of `items` for about `length`.
fn loop_ns<T>(length: Duration, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    per_call_ns(length, items.len(), || items.iter().for_each(&mut f))
}
