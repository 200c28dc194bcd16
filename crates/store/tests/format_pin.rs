//! Pins the store's on-media bytes.
//!
//! The crash and recovery tests check what the engine *means*; this
//! test checks what it *writes*. A seeded OO7 history (load, update
//! batches, auto-compactions, and one explicit compaction with a batch
//! open) runs over media that records every WAL append, WAL reset and
//! snapshot write. The FNV-1a of that trail, of the final WAL image
//! and of the final snapshot are compared against constants: any
//! change to frame layout, record field order, snapshot document shape
//! or compaction re-framing shows up here, byte for byte.

use rmodp_core::value::Value;
use rmodp_store::wal::fnv1a;
use rmodp_store::{MemMedia, Oo7Config, Oo7Workload, StableMedia, StoreConfig, StoreEngine};

/// [`MemMedia`] that keeps a copy of every byte written to it, each
/// write tagged with its kind and length.
#[derive(Debug, Default)]
struct Recorder {
    inner: MemMedia,
    trail: Vec<u8>,
}

impl Recorder {
    fn log(&mut self, kind: u8, bytes: &[u8]) {
        self.trail.push(kind);
        self.trail
            .extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        self.trail.extend_from_slice(bytes);
    }
}

impl StableMedia for Recorder {
    fn wal_append(&mut self, bytes: &[u8]) {
        self.log(b'a', bytes);
        self.inner.wal_append(bytes);
    }
    fn wal_bytes(&self) -> &[u8] {
        self.inner.wal_bytes()
    }
    fn wal_reset(&mut self, bytes: &[u8]) {
        self.log(b'r', bytes);
        self.inner.wal_reset(bytes);
    }
    fn snapshot_write(&mut self, bytes: &[u8]) {
        self.log(b's', bytes);
        self.inner.snapshot_write(bytes);
    }
    fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.inner.snapshot_bytes()
    }
    fn sync(&mut self) {
        self.inner.sync();
    }
    fn crash(&mut self) {
        self.inner.crash();
    }
}

/// What the history wrote: `(len, fnv1a)` of the whole trail, the final
/// WAL image and the final snapshot.
type Pins = [(usize, u64); 3];

fn run_history() -> (StoreEngine<Recorder>, Pins) {
    let config = StoreConfig {
        compact_wal_bytes: 48 * 1024,
    };
    let mut engine = StoreEngine::open(Recorder::default(), config).unwrap();
    let mut wl = Oo7Workload::new(Oo7Config::small(), 7);
    wl.load(&mut engine).unwrap();
    for batch in 0..7 {
        wl.update_batch(&mut engine, batch, 10).unwrap();
    }
    // A batch open across the compaction: an overwrite, a delete, a new
    // key with a nested unicode value, then the snapshot, then more.
    engine.begin().unwrap();
    engine
        .put("oo7/atomic/3/4", Value::record([("x", Value::Int(-7))]))
        .unwrap();
    engine.delete("oo7/doc/5").unwrap();
    engine
        .put(
            "extra/ünï/κλειδί",
            Value::seq([
                Value::text("héllo"),
                Value::record([("b", Value::Blob(vec![0, 255])), ("a", Value::Null)]),
                Value::Float(-0.5),
                Value::Ref(9),
                Value::Bool(true),
            ]),
        )
        .unwrap();
    engine.compact();
    engine.put("oo7/atomic/3/5", Value::Int(11)).unwrap();
    engine.commit().unwrap();
    wl.update_batch(&mut engine, 7, 10).unwrap();

    let media = engine.media_mut();
    let snapshot = media.snapshot_bytes().expect("compacted").to_vec();
    let pins = [
        (media.trail.len(), fnv1a(&media.trail)),
        (media.wal_len(), fnv1a(media.wal_bytes())),
        (snapshot.len(), fnv1a(&snapshot)),
    ];
    (engine, pins)
}

#[test]
fn wal_and_snapshot_bytes_are_pinned() {
    let (engine, pins) = run_history();
    assert!(engine.stats().compactions >= 3, "{:?}", engine.stats());
    assert_eq!(
        pins,
        [
            (1_545_207, 0x7f46_53f2_cf22_cffd),
            (33_132, 0xc31a_f533_cc2d_a166),
            (168_534, 0x27ad_7fe8_1a1f_ab95),
        ],
        "[trail, wal, snapshot] as (len, fnv1a) drifted from the pinned bytes"
    );
}

#[test]
fn pinned_history_recovers_its_committed_state() {
    let (engine, _) = run_history();
    let state = engine.state().clone();
    let mut media = engine.into_media();
    media.crash();
    let recovered = StoreEngine::open(media, StoreConfig::default()).unwrap();
    assert_eq!(recovered.state(), &state);
    assert!(recovered.recovery_report().snapshot_loaded);
    assert!(!recovered.recovery_report().tail_discarded);
}
