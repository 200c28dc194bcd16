//! The thread-local event bus.
//!
//! Every crate in the workspace emits onto one per-thread bus through
//! free functions, so no plumbing of handles through constructors is
//! needed and there are no dependency cycles. The simulation is
//! single-threaded, which makes "per thread" mean "per simulation" in
//! practice (and keeps parallel test binaries isolated from each other).
//!
//! Determinism: sequence numbers and span ids are dense counters, time
//! comes from the simulator's virtual clock, and nothing reads the wall
//! clock — so the same seed produces a byte-identical event stream.
//! [`reset`] is called by `Sim::new`, giving each simulation a fresh
//! stream.
//!
//! # Bounded collection
//!
//! By default the bus buffers every event — right for tests and small
//! scenarios, wrong for million-invocation runs. [`set_collect`]
//! installs a [`CollectConfig`] with two independent bounds:
//!
//! - **Head-based sampling** (`sample_denom = Some(d)`): each event is
//!   attributed to the *root* of its span's parent chain (the causality
//!   id — one invocation, one migration, one message tree), and only
//!   roots whose hash lands in the 1-in-`d` admitted class are buffered.
//!   The decision is a pure function of the root id, so a kept
//!   invocation keeps **all** its spans and the same seed keeps the same
//!   invocations. Events with no span at all are always kept.
//! - **Ring buffer** (`ring_capacity = Some(n)`): at most `n` events are
//!   buffered; the oldest is evicted as new ones arrive.
//!
//! Both modes count what they discard — [`drop_stats`] and the
//! `observe.drop.sampled` / `observe.drop.ring` counters — so truncation
//! is never silent. Sequence numbers are allocated *before* the sampling
//! decision: a sampled trace is exactly the full trace filtered to the
//! admitted roots, gaps and all. The config survives [`reset`] (like the
//! enabled flag); the drop counters, sampling state, and peak trackers
//! do not.

use crate::event::{Event, EventBuilder, SpanId};
use crate::hash::{fnv1a, FNV_OFFSET_BASIS};
use crate::metrics::{Histogram, Registry};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// Bounds on event collection. Default (`None`/`None`) buffers
/// everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectConfig {
    /// Keep at most this many events, evicting the oldest.
    pub ring_capacity: Option<usize>,
    /// Keep roughly 1 in `d` causal trees (head-based, keyed on the root
    /// span id). `Some(1)` keeps everything; `Some(0)` is treated as 1.
    pub sample_denom: Option<u64>,
}

/// What bounded collection has discarded since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Events rejected by head-based sampling.
    pub sampled_out: u64,
    /// Events evicted by the ring buffer.
    pub ring_evicted: u64,
}

impl DropStats {
    /// Total events discarded.
    pub fn total(&self) -> u64 {
        self.sampled_out + self.ring_evicted
    }
}

#[derive(Debug)]
struct BusState {
    enabled: bool,
    collect: CollectConfig,
    now_us: u64,
    next_seq: u64,
    next_span: SpanId,
    context: Vec<SpanId>,
    events: VecDeque<Event>,
    metrics: Registry,
    drops: DropStats,
    /// First-declared parent of each span, learned only while sampling
    /// (from every event, sampled-out ones included, so late events of
    /// a rejected tree still resolve to the same root).
    parent_of: BTreeMap<SpanId, SpanId>,
    /// Memoised root of each span's parent chain.
    root_of: BTreeMap<SpanId, SpanId>,
    cur_bytes: usize,
    peak_bytes: usize,
    peak_events: usize,
}

impl BusState {
    fn fresh() -> Self {
        Self {
            enabled: true,
            collect: CollectConfig::default(),
            now_us: 0,
            next_seq: 0,
            // Span 0 is reserved as "no span" in renderings.
            next_span: 1,
            context: Vec::new(),
            events: VecDeque::new(),
            metrics: Registry::new(),
            drops: DropStats::default(),
            parent_of: BTreeMap::new(),
            root_of: BTreeMap::new(),
            cur_bytes: 0,
            peak_bytes: 0,
            peak_events: 0,
        }
    }

    /// Resolves (and memoises) the root of a span's parent chain.
    fn root(&mut self, span: SpanId) -> SpanId {
        if let Some(&r) = self.root_of.get(&span) {
            return r;
        }
        let mut chain = vec![span];
        let mut cur = span;
        while let Some(&p) = self.parent_of.get(&cur) {
            if let Some(&r) = self.root_of.get(&p) {
                cur = r;
                break;
            }
            if chain.contains(&p) {
                break; // defensive: a cycle would otherwise hang us
            }
            chain.push(p);
            cur = p;
        }
        for s in chain {
            self.root_of.insert(s, cur);
        }
        cur
    }
}

thread_local! {
    static BUS: RefCell<BusState> = RefCell::new(BusState::fresh());
}

/// The approximate buffered size of one event: the struct itself plus
/// its detail string. The unit of [`peak_trace_bytes`].
pub fn approx_event_bytes(e: &Event) -> usize {
    std::mem::size_of::<Event>() + e.detail.len()
}

/// Whether head-based sampling at 1-in-`denom` admits the causal tree
/// rooted at `root`. Pure: tests and analyzers can predict exactly which
/// invocations a sampled run kept.
pub fn sample_admits(root: SpanId, denom: u64) -> bool {
    fnv1a(FNV_OFFSET_BASIS, &root.to_le_bytes()).is_multiple_of(denom.max(1))
}

/// Clears the bus: events, metrics, counters, clock, drop counters,
/// sampling state, peak trackers. Called by `Sim::new` so each
/// simulation starts a fresh deterministic stream. The enabled/disabled
/// setting and the [`CollectConfig`] survive the reset, so a benchmark
/// that turned recording off (or sampling on) keeps that setting across
/// simulation rebuilds.
pub fn reset() {
    BUS.with(|b| {
        let (enabled, collect) = {
            let s = b.borrow();
            (s.enabled, s.collect)
        };
        let mut fresh = BusState::fresh();
        fresh.enabled = enabled;
        fresh.collect = collect;
        *b.borrow_mut() = fresh;
    });
}

/// Enables or disables recording. Disabled recording is a cheap no-op;
/// span allocation still works (ids keep advancing) so code paths do not
/// branch on the setting.
pub fn set_enabled(enabled: bool) {
    BUS.with(|b| b.borrow_mut().enabled = enabled);
}

/// Whether the bus is currently recording.
pub fn is_enabled() -> bool {
    BUS.with(|b| b.borrow().enabled)
}

/// Installs collection bounds (see the module docs). Takes effect for
/// subsequent events; already-buffered events stay. Survives [`reset`].
///
/// Sampling applies to causal trees started after it is switched on:
/// the bus learns parent links only while sampling, so an event whose
/// tree began earlier resolves to the oldest ancestor seen since then.
/// Install the config before the run, as [`reset`] keeps it.
pub fn set_collect(config: CollectConfig) {
    BUS.with(|b| b.borrow_mut().collect = config);
}

/// The current collection bounds.
pub fn collect_config() -> CollectConfig {
    BUS.with(|b| b.borrow().collect)
}

/// What bounded collection has discarded since the last [`reset`].
pub fn drop_stats() -> DropStats {
    BUS.with(|b| b.borrow().drops)
}

/// High-water mark of buffered events since the last [`reset`].
pub fn peak_trace_events() -> usize {
    BUS.with(|b| b.borrow().peak_events)
}

/// High-water mark of approximate buffered bytes since the last
/// [`reset`] (see [`approx_event_bytes`]).
pub fn peak_trace_bytes() -> usize {
    BUS.with(|b| b.borrow().peak_bytes)
}

/// Advances the bus's virtual clock (microseconds). Called by the
/// simulator as it processes the event queue.
pub fn set_time_us(t_us: u64) {
    BUS.with(|b| b.borrow_mut().now_us = t_us);
}

/// The bus's current virtual time in microseconds.
pub fn now_us() -> u64 {
    BUS.with(|b| b.borrow().now_us)
}

/// Pushes a span onto the causal context stack: spans allocated while it
/// is on top get it as their parent. The simulator pushes a message's
/// span around its handler so replies are causally linked; the engine
/// pushes an invocation's span around the whole call.
pub fn push_context(span: SpanId) {
    BUS.with(|b| b.borrow_mut().context.push(span));
}

/// Pops the causal context stack (no-op if empty).
pub fn pop_context() {
    BUS.with(|b| {
        b.borrow_mut().context.pop();
    });
}

/// The span on top of the causal context stack, if any.
pub fn current_context() -> Option<SpanId> {
    BUS.with(|b| b.borrow().context.last().copied())
}

/// Allocates a fresh causal span id.
pub fn new_span() -> SpanId {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        let id = s.next_span;
        s.next_span += 1;
        id
    })
}

/// Records an event built by [`EventBuilder`]; returns its sequence
/// number, or `None` if disabled or discarded by sampling.
pub(crate) fn record(builder: EventBuilder) -> Option<u64> {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        if !s.enabled {
            return None;
        }
        let sampling = s.collect.sample_denom;
        // Under sampling, learn the span's parent link before any
        // keep/drop decision, so every later event of this tree resolves
        // to the same root. Without sampling nothing reads the links.
        if sampling.is_some() {
            if let (Some(span), Some(parent)) = (builder.span, builder.parent) {
                s.parent_of.entry(span).or_insert(parent);
            }
        }
        // Sequence numbers are allocated unconditionally: a sampled
        // trace is the full trace filtered, gaps and all.
        let seq = s.next_seq;
        s.next_seq += 1;
        if let Some(denom) = sampling {
            if let Some(key) = builder.span.or(builder.parent) {
                let root = s.root(key);
                if !sample_admits(root, denom) {
                    s.drops.sampled_out += 1;
                    s.metrics.counter_add("observe.drop.sampled", 1);
                    return None;
                }
            }
        }
        let t_us = s.now_us;
        let event = Event {
            seq,
            t_us,
            layer: builder.layer,
            kind: builder.kind,
            span: builder.span,
            parent: builder.parent,
            node: builder.node,
            port: builder.port,
            channel: builder.channel,
            capsule: builder.capsule,
            detail: builder.detail,
        };
        s.cur_bytes += approx_event_bytes(&event);
        s.events.push_back(event);
        if let Some(cap) = s.collect.ring_capacity {
            while s.events.len() > cap.max(1) {
                if let Some(old) = s.events.pop_front() {
                    s.cur_bytes -= approx_event_bytes(&old);
                    s.drops.ring_evicted += 1;
                    s.metrics.counter_add("observe.drop.ring", 1);
                }
            }
        }
        s.peak_events = s.peak_events.max(s.events.len());
        s.peak_bytes = s.peak_bytes.max(s.cur_bytes);
        Some(seq)
    })
}

/// Number of events buffered right now.
pub fn event_count() -> usize {
    BUS.with(|b| b.borrow().events.len())
}

/// A copy of every buffered event, in emission order.
pub fn snapshot_events() -> Vec<Event> {
    BUS.with(|b| b.borrow().events.iter().cloned().collect())
}

/// Removes and returns every buffered event.
pub fn take_events() -> Vec<Event> {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        s.cur_bytes = 0;
        std::mem::take(&mut s.events).into_iter().collect()
    })
}

/// Adds to a counter in the bus's metrics registry.
pub fn counter_add(name: &str, v: u64) {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        if s.enabled {
            s.metrics.counter_add(name, v);
        }
    });
}

/// Sets a gauge in the bus's metrics registry.
pub fn gauge_set(name: &str, v: i64) {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        if s.enabled {
            s.metrics.gauge_set(name, v);
        }
    });
}

/// Records a histogram sample (typically sim-time microseconds).
pub fn observe(name: &str, v: u64) {
    BUS.with(|b| {
        let mut s = b.borrow_mut();
        if s.enabled {
            s.metrics.observe(name, v);
        }
    });
}

/// A copy of the metrics registry.
pub fn snapshot_metrics() -> Registry {
    BUS.with(|b| b.borrow().metrics.clone())
}

/// Reads one counter (0 if absent).
pub fn counter(name: &str) -> u64 {
    BUS.with(|b| b.borrow().metrics.counter(name))
}

/// Reads one histogram (cloned; `None` if absent).
pub fn histogram(name: &str) -> Option<Histogram> {
    BUS.with(|b| b.borrow().metrics.histogram(name).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventBuilder, EventKind, Layer};

    /// Restores default collection after a test that bounds it.
    fn unbounded() {
        set_collect(CollectConfig::default());
        reset();
    }

    #[test]
    fn bus_records_in_order_with_dense_seq() {
        unbounded();
        set_time_us(5);
        let s1 = new_span();
        EventBuilder::new(Layer::Netsim, EventKind::Send)
            .span(s1)
            .node(0)
            .detail("a")
            .emit();
        set_time_us(9);
        EventBuilder::new(Layer::Netsim, EventKind::Deliver)
            .span(s1)
            .node(1)
            .emit();
        let evs = snapshot_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].t_us, 5);
        assert_eq!(evs[1].t_us, 9);
        assert_eq!(evs[0].span, Some(s1));
    }

    #[test]
    fn disabled_bus_drops_events_and_metrics() {
        unbounded();
        set_enabled(false);
        assert!(!is_enabled());
        EventBuilder::new(Layer::Application, EventKind::Note).emit();
        counter_add("c", 1);
        observe("h", 1);
        assert_eq!(event_count(), 0);
        assert_eq!(counter("c"), 0);
        set_enabled(true);
        EventBuilder::new(Layer::Application, EventKind::Note).emit();
        assert_eq!(event_count(), 1);
    }

    #[test]
    fn reset_restarts_spans_and_seq() {
        unbounded();
        let a = new_span();
        reset();
        let b = new_span();
        assert_eq!(a, b);
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: Some(3),
            sample_denom: None,
        });
        for i in 0..10 {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .detail(format!("e{i}"))
                .emit();
        }
        let evs = snapshot_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].detail, "e7");
        assert_eq!(evs[2].detail, "e9");
        assert_eq!(drop_stats().ring_evicted, 7);
        assert_eq!(counter("observe.drop.ring"), 7);
        assert!(peak_trace_events() <= 4);
        unbounded();
    }

    #[test]
    fn sampling_keeps_whole_trees_and_counts_drops() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(4),
        });
        let mut kept_roots = Vec::new();
        for _ in 0..64 {
            let root = new_span();
            EventBuilder::new(Layer::Engineering, EventKind::CallStart)
                .span(root)
                .emit();
            let child = new_span();
            EventBuilder::new(Layer::Netsim, EventKind::Send)
                .span(child)
                .parent(root)
                .emit();
            if sample_admits(root, 4) {
                kept_roots.push(root);
            }
        }
        let evs = snapshot_events();
        // Every buffered event belongs to an admitted tree, and admitted
        // trees are complete (both events present).
        assert_eq!(evs.len(), kept_roots.len() * 2);
        assert!(!kept_roots.is_empty());
        assert!(drop_stats().sampled_out > 0);
        assert_eq!(
            drop_stats().sampled_out + evs.len() as u64,
            128,
            "every event is either kept or counted"
        );
        assert_eq!(counter("observe.drop.sampled"), drop_stats().sampled_out);
        unbounded();
    }

    #[test]
    fn sampled_trace_is_filtered_full_trace() {
        // Run the same emission twice: once unbounded, once sampled.
        // The sampled stream must equal the full stream filtered to
        // admitted roots — same seqs, same times, same payloads.
        let emit_all = || {
            for i in 0..32u64 {
                set_time_us(i * 10);
                let root = new_span();
                EventBuilder::new(Layer::Engineering, EventKind::CallStart)
                    .span(root)
                    .detail(format!("call{i}"))
                    .emit();
                let msg = new_span();
                EventBuilder::new(Layer::Netsim, EventKind::Send)
                    .span(msg)
                    .parent(root)
                    .emit();
            }
        };
        unbounded();
        emit_all();
        let full = snapshot_events();
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(4),
        });
        reset();
        emit_all();
        let sampled = snapshot_events();
        unbounded();

        let parent_of: std::collections::BTreeMap<u64, u64> = full
            .iter()
            .filter_map(|e| Some((e.span?, e.parent?)))
            .collect();
        let root_of = |mut s: u64| {
            while let Some(&p) = parent_of.get(&s) {
                s = p;
            }
            s
        };
        let expected: Vec<_> = full
            .iter()
            .filter(|e| e.span.is_none_or(|s| sample_admits(root_of(s), 4)))
            .cloned()
            .collect();
        assert_eq!(sampled, expected);
        assert!(sampled.len() < full.len());
    }

    #[test]
    fn parent_links_are_kept_only_while_sampling() {
        let emit_pairs = || {
            for _ in 0..16 {
                let root = new_span();
                EventBuilder::new(Layer::Netsim, EventKind::Send)
                    .span(new_span())
                    .parent(root)
                    .emit();
            }
        };
        let links = || BUS.with(|b| b.borrow().parent_of.len());
        unbounded();
        emit_pairs();
        assert_eq!(event_count(), 16);
        assert_eq!(links(), 0, "an unsampled run keeps no parent links");
        set_collect(CollectConfig {
            ring_capacity: None,
            sample_denom: Some(2),
        });
        reset();
        emit_pairs();
        assert_eq!(links(), 16);
        unbounded();
    }

    #[test]
    fn reset_clears_drop_stats_and_peaks_but_keeps_config() {
        unbounded();
        set_collect(CollectConfig {
            ring_capacity: Some(1),
            sample_denom: Some(2),
        });
        for _ in 0..8 {
            let s = new_span();
            EventBuilder::new(Layer::Application, EventKind::Note)
                .span(s)
                .emit();
        }
        assert!(drop_stats().total() > 0);
        reset();
        assert_eq!(drop_stats(), DropStats::default());
        assert_eq!(peak_trace_events(), 0);
        assert_eq!(peak_trace_bytes(), 0);
        assert_eq!(
            collect_config(),
            CollectConfig {
                ring_capacity: Some(1),
                sample_denom: Some(2),
            },
            "config survives reset like the enabled flag"
        );
        unbounded();
    }

    #[test]
    fn peak_bytes_tracks_high_water_not_current() {
        unbounded();
        for i in 0..10 {
            EventBuilder::new(Layer::Application, EventKind::Note)
                .detail(format!("event number {i}"))
                .emit();
        }
        let peak = peak_trace_bytes();
        assert!(peak > 0);
        let taken = take_events();
        assert_eq!(taken.len(), 10);
        assert_eq!(event_count(), 0);
        assert_eq!(peak_trace_bytes(), peak, "peak survives take_events");
    }
}
