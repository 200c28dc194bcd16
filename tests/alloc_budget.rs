//! Heap-allocation budget of one bare `Engine::call`.
//!
//! A counting global allocator (this test binary's own) measures the
//! average number of allocations a bare-channel `Add` makes, with the
//! observe bus recording, once the rig is warm. The ceilings sit a
//! little above the measured counts, so a change that reintroduces
//! clone-to-serialise trees, per-update metric names or a second trace
//! sink fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rmodp::engineering::behaviour::CounterBehaviour;
use rmodp::engineering::channel::ChannelConfig;
use rmodp::engineering::Engine;
use rmodp::observe::bus;
use rmodp::prelude::*;

/// Counts allocations made on the current thread, so the harness's
/// other threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local counter is a const-initialised `Cell`
// without a destructor, so touching it never allocates or recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const CALLS: u64 = 256;

/// Ceiling on allocations per bare `Add` from a binary-syntax client.
const BINARY_CEILING: f64 = 47.0;
/// Ceiling on allocations per bare `Add` from a text-syntax client,
/// which marshals into the binary wire syntax and back.
const TEXT_CEILING: f64 = 73.0;

/// One binary server, a text and a binary client with a bare channel
/// each; returns the engine and the `[text, binary]` channels.
fn rig() -> (Engine, [ChannelId; 2]) {
    let mut engine = Engine::new(1);
    engine
        .behaviours_mut()
        .register("counter", CounterBehaviour::default);
    let server = engine.add_node(SyntaxId::Binary);
    let clients = [
        engine.add_node(SyntaxId::Text),
        engine.add_node(SyntaxId::Binary),
    ];
    let capsule = engine.add_capsule(server).unwrap();
    let cluster = engine.add_cluster(server, capsule).unwrap();
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
        .unwrap();
    let channels = clients.map(|c| {
        engine
            .open_channel(c, refs[0].interface, ChannelConfig::default())
            .unwrap()
    });
    (engine, channels)
}

/// Average allocations per `Add` over [`CALLS`] calls on `channel`,
/// after as many warm-up calls.
fn allocs_per_add(engine: &mut Engine, channel: ChannelId) -> f64 {
    let add = Value::record([("k", Value::Int(1))]);
    for _ in 0..CALLS {
        assert!(engine.call(channel, "Add", &add).unwrap().is_ok());
    }
    let before = allocs();
    for _ in 0..CALLS {
        let t = engine.call(channel, "Add", &add).unwrap();
        assert!(t.is_ok());
    }
    (allocs() - before) as f64 / CALLS as f64
}

#[test]
fn a_bare_call_stays_within_its_allocation_budget() {
    let (mut engine, [text, binary]) = rig();
    assert!(bus::is_enabled(), "measured with the bus recording");
    let binary_allocs = allocs_per_add(&mut engine, binary);
    let text_allocs = allocs_per_add(&mut engine, text);
    assert!(bus::event_count() > 0);
    println!("allocations per bare Add: binary {binary_allocs:.1}, text {text_allocs:.1}");
    assert!(
        binary_allocs <= BINARY_CEILING,
        "binary client: {binary_allocs:.1} allocations per call (ceiling {BINARY_CEILING})"
    );
    assert!(
        text_allocs <= TEXT_CEILING,
        "text client: {text_allocs:.1} allocations per call (ceiling {TEXT_CEILING})"
    );
}
