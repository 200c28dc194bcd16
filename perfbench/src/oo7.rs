//! `oo7`: the OO7 workload over `StoreEngine<MemMedia>`. Reads are T1
//! dense and T6 sparse traversals and exact and range queries; writes
//! are `update_batch` commits, whose WAL appends trigger compactions.
//! The run ends with a power loss in the middle of a batch and a
//! recovery.
//!
//! Reads are checked against a reference store that replays the same
//! operation sequence; the final and the recovered state must both
//! equal the reference's.

use std::time::{Duration, Instant};

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::value::Value;
use rmodp_observe::bus;
use rmodp_store::engine::{StoreConfig, StoreEngine};
use rmodp_store::media::{MemMedia, StableMedia};
use rmodp_store::oo7::{state_checksum, Oo7Config, Oo7Workload};
use rmodp_store::snapshot::encode_snapshot;

use crate::common::{mix, traced, Sequencer, Spans};
use crate::report::{median, peak_rss_mb, time_ns, Report};
use crate::speed::{at_reference, per_call_ns, timed, Measured, Phase};

/// The library: 40 assemblies, 300 composites of 20 atomic parts each
/// (6,640 objects), between the repository's small and medium scales.
pub fn config() -> Oo7Config {
    Oo7Config {
        assembly_levels: 4,
        assembly_fanout: 3,
        composites: 300,
        atomics_per_composite: 20,
        connections_per_atomic: 3,
        composites_per_base: 3,
        doc_chars: 200,
        load_batch: 500,
        date_range: 100,
    }
}

/// An update batch touches every composite of one lane in this many.
const STRIDE: u32 = 30;

/// One operation of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// T1 dense traversal (read).
    Dense,
    /// T6 sparse traversal (read).
    Sparse,
    /// Exact query of one composite (read).
    Exact(u32),
    /// Range query over build dates (read).
    Range(i64, i64),
    /// One update batch (write).
    Update,
}

impl Op {
    fn is_write(self) -> bool {
        self == Op::Update
    }
}

/// The operation at position `k` of the sequence for `seed`: 40%
/// update batches, the rest spread over the four read kinds.
pub fn op_at(seed: u64, k: u64) -> Op {
    let h = mix(seed ^ 0x0007, k);
    let c = config();
    match h % 20 {
        0..=7 => Op::Update,
        8..=10 => Op::Dense,
        11..=13 => Op::Sparse,
        14..=16 => Op::Exact(((h >> 8) % u64::from(c.composites)) as u32),
        _ => {
            let lo = 1000 + ((h >> 8) % u64::from(c.date_range)) as i64;
            Op::Range(lo, lo + ((h >> 24) % 10) as i64)
        }
    }
}

/// The workload's operation sequence for `seed`, in the order the
/// kernel-queue sequencer releases it.
pub fn ops(seed: u64) -> impl Iterator<Item = Op> {
    let mut seq = Sequencer::new(seed);
    std::iter::repeat_with(move || op_at(seed, seq.next_op()))
}

/// A loaded library over some media.
pub struct World<M: StableMedia> {
    /// The generator and its indexes.
    pub wl: Oo7Workload,
    /// The store.
    pub engine: StoreEngine<M>,
    /// Update batches committed so far.
    pub batches: u64,
    /// Atomic parts updated so far.
    pub updated: u64,
}

impl<M: StableMedia> World<M> {
    /// Loads the library (the set-up).
    pub fn load(seed: u64, media: M) -> Self {
        let mut engine = StoreEngine::open(media, StoreConfig::default()).expect("fresh media");
        let mut wl = Oo7Workload::new(config(), seed);
        wl.load(&mut engine).expect("fresh store");
        Self {
            wl,
            engine,
            batches: 0,
            updated: 0,
        }
    }

    /// Performs one operation; returns its result checksum.
    pub fn exec(&mut self, op: Op, mut spans: Option<&mut Spans>) -> u64 {
        let (wl, engine) = (&self.wl, &mut self.engine);
        match op {
            Op::Dense => traced(&mut spans, "store.traverse_t1", || {
                wl.traverse_dense(engine).checksum
            }),
            Op::Sparse => traced(&mut spans, "store.traverse_t6", || {
                wl.traverse_sparse(engine).checksum
            }),
            Op::Exact(id) => traced(&mut spans, "store.query", || wl.query_exact(engine, id)),
            Op::Range(lo, hi) => traced(&mut spans, "store.query", || {
                let (n, sum) = wl.query_range(engine, lo, hi);
                sum ^ n
            }),
            Op::Update => {
                let batch = self.batches;
                let n = traced(&mut spans, "store.update", || {
                    wl.update_batch(engine, batch, STRIDE)
                })
                .expect("no batch is open");
                self.batches += 1;
                self.updated += n;
                n
            }
        }
    }
}

/// Media that keeps nothing: the reference store needs the state, not
/// the durability.
#[derive(Debug, Default)]
pub struct NullMedia;

impl StableMedia for NullMedia {
    fn wal_append(&mut self, _bytes: &[u8]) {}
    fn wal_bytes(&self) -> &[u8] {
        &[]
    }
    fn wal_reset(&mut self, _bytes: &[u8]) {}
    fn snapshot_write(&mut self, _bytes: &[u8]) {}
    fn snapshot_bytes(&self) -> Option<&[u8]> {
        None
    }
    fn sync(&mut self) {}
    fn crash(&mut self) {}
}

/// [`MemMedia`] with counters, and sync timing when `timing` is on:
/// the store's media layer as seen from outside.
#[derive(Debug, Default)]
pub struct TimedMedia {
    inner: MemMedia,
    /// Time `sync` calls.
    pub timing: bool,
    /// Syncs timed.
    pub syncs: u64,
    /// Nanoseconds spent in timed syncs.
    pub sync_ns: u64,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Bytes written by snapshots and WAL resets.
    pub rewrite_bytes: u64,
}

impl StableMedia for TimedMedia {
    fn wal_append(&mut self, bytes: &[u8]) {
        self.wal_bytes += bytes.len() as u64;
        self.inner.wal_append(bytes);
    }
    fn wal_bytes(&self) -> &[u8] {
        self.inner.wal_bytes()
    }
    fn wal_reset(&mut self, bytes: &[u8]) {
        self.rewrite_bytes += bytes.len() as u64;
        self.inner.wal_reset(bytes);
    }
    fn snapshot_write(&mut self, bytes: &[u8]) {
        self.rewrite_bytes += bytes.len() as u64;
        self.inner.snapshot_write(bytes);
    }
    fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.inner.snapshot_bytes()
    }
    fn sync(&mut self) {
        if self.timing {
            let ((), ns) = time_ns(|| self.inner.sync());
            self.syncs += 1;
            self.sync_ns += ns;
        } else {
            self.inner.sync();
        }
    }
    fn crash(&mut self) {
        self.inner.crash();
    }
}

/// Every this many reads, the result is kept for the reference replay.
const CHECK_EVERY: u64 = 8;

/// Runs the closed loop for `ops` operations, or for `length` when
/// `ops` is `None`, counting sequence positions in `done`. Returns the
/// measurements and the `(position, result)` of sampled reads.
fn drive<M: StableMedia>(
    w: &mut World<M>,
    gen: &mut impl Iterator<Item = Op>,
    done: &mut u64,
    (length, ops): (Duration, Option<u64>),
    mut spans: Option<&mut Spans>,
) -> (Measured, Vec<(u64, u64)>) {
    let mut sampled = Vec::new();
    let mut reads = 0u64;
    let mut phase = Phase::start(length, ops);
    while !phase.done() {
        let op = gen.next().expect("infinite sequence");
        let t = Instant::now();
        let result = w.exec(op, spans.as_deref_mut());
        let ns = t.elapsed().as_nanos() as u64;
        if op.is_write() {
            phase.write(ns);
        } else {
            phase.read(ns);
            reads += 1;
            if reads % CHECK_EVERY == 1 {
                sampled.push((*done, result));
            }
        }
        *done += 1;
        phase.tick(1);
    }
    (phase.finish(), sampled)
}

/// Replays the first `done` operations of the sequence on a fresh
/// reference store, comparing every sampled read. Returns the
/// reference store and the number of mismatching reads.
pub fn reference(seed: u64, done: u64, sampled: &[(u64, u64)]) -> (World<NullMedia>, u64) {
    let mut r = World::load(seed, NullMedia);
    let mut gen = ops(seed);
    let mut samples = sampled.iter().peekable();
    let mut mismatches = 0;
    for k in 0..done {
        let op = gen.next().expect("infinite sequence");
        match samples.peek() {
            Some(&&(at, want)) if at == k => {
                samples.next();
                mismatches += u64::from(r.exec(op, None) != want);
            }
            _ if op.is_write() => {
                r.exec(op, None);
            }
            _ => {}
        }
    }
    (r, mismatches)
}

/// Update batches committed between the last compaction and the power
/// loss, so every run's recovery replays the same amount of log.
const TAIL_BATCHES: u64 = 8;

/// Operations a run measures per `--seconds`: about a second's worth
/// on a 2-vCPU host, so the work is fixed per run.
const OPS_PER_SECOND: u64 = 750;
const SETUP_REPS: usize = 5;
const RECOVERY_REPS: usize = 9;

/// The end-to-end run.
pub fn run(seed: u64, seconds: Duration, rep: &mut Report) {
    let mut setups = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        drop(world.take());
        bus::reset();
        let (w, t) = timed(|| World::load(seed, MemMedia::new()));
        setups.push(t);
        world = Some(w);
    }
    rep.timing("setup_s", &setups);
    let mut w = world.expect("loaded above");
    let mut gen = ops(seed);
    let mut done = 0;
    let (warm, warm_sampled) = drive(&mut w, &mut gen, &mut done, (seconds / 20, None), None);
    let target = (OPS_PER_SECOND as f64 * seconds.as_secs_f64()) as u64;
    let (pass, pass_sampled) = drive(&mut w, &mut gen, &mut done, (seconds, Some(target)), None);
    rep.rate("ops_per_s", &pass, 1.0);
    // Each operation is one kernel event of the sequencer.
    rep.rate("events_per_s", &pass, 1.0);
    rep.latencies(&pass);
    rep.attempted += warm.ops + pass.ops;

    let sampled = [warm_sampled, pass_sampled].concat();
    let (mut reference, mismatches) = reference(seed, done, &sampled);
    rep.failed += mismatches;
    rep.check(
        mismatches == 0,
        format!("oo7: {mismatches} sampled reads differ from the reference replay"),
    );
    rep.check(
        state_checksum(&w.engine) == state_checksum(&reference.engine),
        "oo7: the store state differs from the reference",
    );

    // A snapshot, a fixed tail of committed batches, and a power loss in
    // the middle of the next batch; then restart.
    w.engine.compact();
    for _ in 0..TAIL_BATCHES {
        w.exec(Op::Update, None);
        reference.exec(Op::Update, None);
    }
    let want = state_checksum(&reference.engine);
    w.engine.begin().expect("no batch is open");
    let key = w.engine.state().keys().next().cloned().expect("loaded");
    w.engine.put(&key, Value::Int(-1)).expect("batch is open");
    let mut media = w.engine.into_media();
    media.crash();
    let mut times = Vec::new();
    let mut recovered = None;
    for _ in 0..RECOVERY_REPS {
        let copy = media.clone();
        drop(recovered.take());
        let (engine, t) = timed(|| StoreEngine::open(copy, StoreConfig::default()));
        times.push(t);
        recovered = Some(engine.expect("crash leaves a decodable snapshot"));
    }
    rep.timing("recovery_s", &times);
    let recovered = recovered.expect("opened above");
    rep.check(
        state_checksum(&recovered) == want,
        "oo7: recovery lost a committed write or kept an uncommitted one",
    );
    rep.check(
        w.wl.validate_all(&recovered) == config().total_objects(),
        "oo7: the recovered store fails its schemas",
    );
    rep.note(
        "oo7.recovery_replayed",
        recovered.recovery_report().writes_replayed.to_string(),
    );
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The per-layer figures of `oo7`. Returns the trace overhead ratio.
pub fn layers(seed: u64, length: Duration, rep: &mut Report) -> f64 {
    bus::reset();
    let mut w = World::load(seed, TimedMedia::default());
    let mut gen = ops(seed);
    let mut done = 0;
    let (_, warm_sampled) = drive(&mut w, &mut gen, &mut done, (length / 4, None), None);
    let (untraced, untraced_sampled) = drive(&mut w, &mut gen, &mut done, (length, None), None);

    let mut spans = Spans::default();
    let before = (
        w.engine.stats(),
        w.updated,
        w.engine.media_mut().wal_bytes,
        w.engine.media_mut().rewrite_bytes,
    );
    w.engine.media_mut().timing = true;
    let (traced, traced_sampled) = drive(
        &mut w,
        &mut gen,
        &mut done,
        (length, None),
        Some(&mut spans),
    );
    w.engine.media_mut().timing = false;
    let media = w.engine.media_mut();
    let (syncs, sync_ns, wal, rewrite) = (
        media.syncs,
        media.sync_ns,
        media.wal_bytes - before.2,
        media.rewrite_bytes - before.3,
    );
    let stats = w.engine.stats();
    let commits = (stats.commits - before.0.commits).max(1);
    rep.metric(
        "store.media.sync_ns",
        sync_ns as f64 / syncs.max(1) as f64 / traced.slowdown,
        "ns",
    );
    rep.metric(
        "store.media.bytes_per_commit",
        wal as f64 / commits as f64,
        "count",
    );
    rep.metric(
        "store.compactions",
        (stats.compactions - before.0.compactions) as f64,
        "count",
    );

    // Write amplification: media bytes over the encoded bytes of the
    // values the batches changed.
    let codec = syntax_for(SyntaxId::Binary);
    let atomics: Vec<&Value> = w
        .engine
        .state()
        .iter()
        .filter(|(k, _)| k.starts_with("oo7/atomic/"))
        .map(|(_, v)| v)
        .collect();
    let mean_atomic_bytes =
        atomics.iter().map(|v| codec.encode(v).len()).sum::<usize>() as f64 / atomics.len() as f64;
    let value_bytes = (w.updated - before.1) as f64 * mean_atomic_bytes;
    rep.metric(
        "store.write_amp",
        (wal + rewrite) as f64 / value_bytes.max(1.0),
        "ratio",
    );
    let schema = &w.wl.schemas().atomic;
    let check_ns = per_call_ns(length / 8, atomics.len(), || {
        for v in &atomics {
            std::hint::black_box(schema.check(v).is_ok());
        }
    });
    rep.metric("information.check_ns", check_ns, "ns");
    let encodes: Vec<f64> = (0..5)
        .map(|_| at_reference(timed(|| encode_snapshot(w.engine.state(), 0).len()).1) * 1e9)
        .collect();
    rep.metric("store.snapshot_encode_ns", median(&encodes), "ns");
    for (metric, span) in [
        ("store.traverse_t1_ns", "store.traverse_t1"),
        ("store.traverse_t6_ns", "store.traverse_t6"),
        ("store.query_ns", "store.query"),
    ] {
        rep.metric(metric, spans.mean_ns(span) / traced.slowdown, "ns");
    }

    let sampled = [warm_sampled, untraced_sampled, traced_sampled].concat();
    let (reference, mismatches) = reference(seed, done, &sampled);
    let want = state_checksum(&reference.engine);
    rep.failed += mismatches;
    rep.check(
        mismatches == 0 && state_checksum(&w.engine) == want,
        "oo7: the traced passes diverged from the reference replay",
    );

    // Restart after a power loss: how much the log had to replay.
    let mut media = w.engine.into_media();
    media.crash();
    let recovered = StoreEngine::open(media, StoreConfig::default()).expect("decodable snapshot");
    rep.metric(
        "store.recovery_replayed",
        recovered.recovery_report().writes_replayed as f64,
        "count",
    );
    rep.check(
        state_checksum(&recovered) == want,
        "oo7: recovery lost a committed write",
    );
    rep.attempted += untraced.ops + traced.ops;
    traced.rate / untraced.rate
}
