//! Posting-list memory: an index over 50,000 distinct keys (one offer
//! per key, the worst case for a compressed set) must not cost more
//! than the same index with a `BTreeSet<OfferId>` per key, as the
//! postings were stored before `IdSet`. Bytes are counted by a global
//! allocator, so this file holds a single test: nothing else allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicIsize, Ordering};

use rmodp_core::id::{InterfaceId, OfferId};
use rmodp_core::value::Value;
use rmodp_trader::store::{IndexKind, OfferStore, PropKey};
use rmodp_trader::ServiceOffer;

/// Live heap bytes as requested by the program.
static REQUESTED: AtomicIsize = AtomicIsize::new(0);
/// Live heap bytes as a malloc lays them out: 16-byte granules plus an
/// 8-byte header, 32 bytes at least, so many tiny allocations are not
/// counted as free.
static CHUNKED: AtomicIsize = AtomicIsize::new(0);

fn chunk(size: usize) -> isize {
    ((size + 8).div_ceil(16) * 16).max(32) as isize
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are statistics only and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as isize, Ordering::Relaxed);
        CHUNKED.fetch_add(chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        REQUESTED.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        CHUNKED.fetch_sub(chunk(layout.size()), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes `(requested, chunked)` that `f`'s result holds.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, isize, isize) {
    let (r, c) = (
        REQUESTED.load(Ordering::Relaxed),
        CHUNKED.load(Ordering::Relaxed),
    );
    let out = f();
    (
        out,
        REQUESTED.load(Ordering::Relaxed) - r,
        CHUNKED.load(Ordering::Relaxed) - c,
    )
}

const KEYS: u64 = 50_000;

fn key(i: u64) -> PropKey {
    PropKey::of(&Value::Int(i as i64)).expect("ints are scalar")
}

fn corpus() -> OfferStore {
    let mut store = OfferStore::new();
    for i in 1..=KEYS {
        store.insert(ServiceOffer {
            id: OfferId::new(i),
            service_type: "Printer".into(),
            interface: InterfaceId::new(i),
            properties: Value::record([("serial", Value::Int(i as i64))]),
            held_by: "t".into(),
        });
    }
    store
}

#[test]
fn distinct_key_index_is_no_larger_than_btreeset_postings() {
    for kind in [IndexKind::Hash, IndexKind::Ordered] {
        let mut store = corpus();
        let ((), idset, idset_chunked) = held_by(|| store.create_index("serial", kind));
        assert_eq!(
            store.index("serial").map(|i| i.distinct_keys()),
            Some(50_000)
        );

        // The same postings as the index held them before: one
        // `BTreeSet` per key, in the same map shape, filled one offer
        // at a time as the backfill does.
        let (model, btree, btree_chunked) = held_by(|| match kind {
            IndexKind::Hash => {
                let mut m: HashMap<PropKey, BTreeSet<OfferId>> = HashMap::new();
                for i in 1..=KEYS {
                    m.entry(key(i)).or_default().insert(OfferId::new(i));
                }
                (Some(m), None)
            }
            IndexKind::Ordered => {
                let mut m: BTreeMap<PropKey, BTreeSet<OfferId>> = BTreeMap::new();
                for i in 1..=KEYS {
                    m.entry(key(i)).or_default().insert(OfferId::new(i));
                }
                (None, Some(m))
            }
        });
        drop(model);
        assert!(
            idset <= btree && idset_chunked <= btree_chunked,
            "{kind} index over {KEYS} keys: IdSet postings {idset} B ({idset_chunked} B \
             in malloc chunks) against BTreeSet postings {btree} B ({btree_chunked} B)"
        );
        println!(
            "{kind} index, {KEYS} keys: IdSet {idset} B ({idset_chunked} B chunked), \
             BTreeSet {btree} B ({btree_chunked} B chunked)"
        );
    }
}
