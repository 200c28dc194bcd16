//! The write-ahead log.
//!
//! Permanence (§8.2.1) is realised by logging every effect before it is
//! applied, then replaying the log after a crash. The log distinguishes
//! "stable" storage (what survives a crash) from the volatile tail via a
//! flush point, so tests can exercise crashes with unflushed records.

use std::collections::{BTreeMap, BTreeSet};

use rmodp_core::id::TxId;
use rmodp_core::value::Value;

/// Tags identifying each record shape in the durable [`Value`] form.
const TAGS: [&str; 5] = ["begin", "write", "prepare", "commit", "abort"];

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A transaction began.
    Begin { tx: TxId },
    /// A write, with before- and after-images (undo/redo information).
    Write {
        tx: TxId,
        item: String,
        before: Option<Value>,
        after: Value,
    },
    /// The transaction is prepared (2PC phase 1 promise).
    Prepare { tx: TxId },
    /// The transaction committed.
    Commit { tx: TxId },
    /// The transaction aborted.
    Abort { tx: TxId },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn tx(&self) -> TxId {
        match self {
            LogRecord::Begin { tx }
            | LogRecord::Prepare { tx }
            | LogRecord::Commit { tx }
            | LogRecord::Abort { tx } => *tx,
            LogRecord::Write { tx, .. } => *tx,
        }
    }

    /// The record's tag in its durable form: `begin`, `write`,
    /// `prepare`, `commit` or `abort`.
    pub fn tag(&self) -> &'static str {
        match self {
            LogRecord::Begin { .. } => TAGS[0],
            LogRecord::Write { .. } => TAGS[1],
            LogRecord::Prepare { .. } => TAGS[2],
            LogRecord::Commit { .. } => TAGS[3],
            LogRecord::Abort { .. } => TAGS[4],
        }
    }

    /// The record as a self-describing [`Value`], the reference form a
    /// durable log serialises through a transfer syntax: a record with
    /// fields `rec` (the [`tag`](Self::tag)), `tx`, and for writes
    /// `item`, `before` and `after`. The optional before-image is
    /// carried as a zero/one-element sequence so that `None` and a
    /// stored `Null` stay distinguishable. (The store's WAL writes these
    /// bytes directly, without building the tree.)
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("rec".to_owned(), Value::text(self.tag())),
            ("tx".to_owned(), Value::Int(self.tx().raw() as i64)),
        ];
        if let LogRecord::Write {
            item,
            before,
            after,
            ..
        } = self
        {
            fields.push(("item".to_owned(), Value::text(item.clone())));
            fields.push((
                "before".to_owned(),
                Value::Seq(before.iter().cloned().collect()),
            ));
            fields.push(("after".to_owned(), after.clone()));
        }
        Value::record(fields)
    }

    /// Rebuilds a record from its [`to_value`](Self::to_value) form,
    /// moving the item and the images out of it.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn from_value(v: Value) -> Result<Self, String> {
        let Value::Record(mut fields) = v else {
            return Err("missing record tag".to_owned());
        };
        let Some(Value::Text(tag)) = fields.remove("rec") else {
            return Err("missing record tag".to_owned());
        };
        let tx = TxId::new(
            fields
                .get("tx")
                .and_then(Value::as_int)
                .ok_or("missing tx id")? as u64,
        );
        match tag.as_str() {
            "begin" => Ok(LogRecord::Begin { tx }),
            "prepare" => Ok(LogRecord::Prepare { tx }),
            "commit" => Ok(LogRecord::Commit { tx }),
            "abort" => Ok(LogRecord::Abort { tx }),
            "write" => {
                let Some(Value::Text(item)) = fields.remove("item") else {
                    return Err("write without item".to_owned());
                };
                let Some(Value::Seq(before)) = fields.remove("before") else {
                    return Err("write without before-image slot".to_owned());
                };
                let after = fields.remove("after").ok_or("write without after")?;
                Ok(LogRecord::Write {
                    tx,
                    item,
                    before: before.into_iter().next(),
                    after,
                })
            }
            other => Err(format!("unknown record tag `{other}`")),
        }
    }
}

/// The write-ahead log with an explicit stable/volatile boundary.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    records: Vec<LogRecord>,
    /// Records before this index survive a crash.
    flushed: usize,
}

/// What recovery analysis concluded about the logged transactions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryAnalysis {
    /// Committed transactions (redo).
    pub committed: BTreeSet<TxId>,
    /// Aborted transactions (undo, already resolved).
    pub aborted: BTreeSet<TxId>,
    /// Prepared but unresolved — in 2PC these are *in doubt* and must ask
    /// the coordinator.
    pub in_doubt: BTreeSet<TxId>,
    /// Active (neither prepared nor resolved) — undo.
    pub active: BTreeSet<TxId>,
}

impl WriteAheadLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a log from already-stable records (e.g. decoded from a
    /// durable medium after a crash): everything is marked flushed.
    pub fn from_records(records: Vec<LogRecord>) -> Self {
        let flushed = records.len();
        Self { records, flushed }
    }

    /// Appends a record (volatile until [`flush`](Self::flush)).
    pub fn append(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// Makes everything appended so far stable.
    pub fn flush(&mut self) {
        self.flushed = self.records.len();
    }

    /// Simulates a crash: the volatile tail is lost.
    pub fn crash(&mut self) {
        self.records.truncate(self.flushed);
    }

    /// All records (stable prefix after a crash).
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Consumes the log, returning its records (e.g. for a redo pass
    /// that moves the after-images into the recovered state).
    pub fn into_records(self) -> Vec<LogRecord> {
        self.records
    }

    /// How many records are stable.
    pub fn stable_len(&self) -> usize {
        self.flushed.min(self.records.len())
    }

    /// Classifies every logged transaction for recovery.
    pub fn analyze(&self) -> RecoveryAnalysis {
        let mut analysis = RecoveryAnalysis::default();
        let mut seen = BTreeSet::new();
        for r in &self.records {
            seen.insert(r.tx());
            match r {
                LogRecord::Commit { tx } => {
                    analysis.committed.insert(*tx);
                    analysis.in_doubt.remove(tx);
                    analysis.active.remove(tx);
                }
                LogRecord::Abort { tx } => {
                    analysis.aborted.insert(*tx);
                    analysis.in_doubt.remove(tx);
                    analysis.active.remove(tx);
                }
                LogRecord::Prepare { tx } => {
                    if !analysis.committed.contains(tx) && !analysis.aborted.contains(tx) {
                        analysis.in_doubt.insert(*tx);
                        analysis.active.remove(tx);
                    }
                }
                LogRecord::Begin { tx } | LogRecord::Write { tx, .. } => {
                    if !analysis.committed.contains(tx)
                        && !analysis.aborted.contains(tx)
                        && !analysis.in_doubt.contains(tx)
                    {
                        analysis.active.insert(*tx);
                    }
                }
            }
        }
        analysis
    }

    /// Replays the log into a data store: redo committed writes in order,
    /// skip writes of aborted/active transactions. In-doubt transactions'
    /// writes are **not** applied (they are re-applied when the
    /// coordinator's decision arrives).
    pub fn replay(&self) -> BTreeMap<String, Value> {
        let analysis = self.analyze();
        let mut store = BTreeMap::new();
        for r in &self.records {
            if let LogRecord::Write {
                tx, item, after, ..
            } = r
            {
                if analysis.committed.contains(tx) {
                    store.insert(item.clone(), after.clone());
                }
            }
        }
        store
    }

    /// The undo images of a transaction, newest first.
    pub fn undo_images(&self, tx: TxId) -> Vec<(String, Option<Value>)> {
        self.records
            .iter()
            .rev()
            .filter_map(|r| match r {
                LogRecord::Write {
                    tx: t,
                    item,
                    before,
                    ..
                } if *t == tx => Some((item.clone(), before.clone())),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TxId = TxId::new(1);
    const T2: TxId = TxId::new(2);
    const T3: TxId = TxId::new(3);

    fn write(tx: TxId, item: &str, before: Option<i64>, after: i64) -> LogRecord {
        LogRecord::Write {
            tx,
            item: item.to_owned(),
            before: before.map(Value::Int),
            after: Value::Int(after),
        }
    }

    #[test]
    fn analysis_classifies_transactions() {
        let mut log = WriteAheadLog::new();
        log.append(LogRecord::Begin { tx: T1 });
        log.append(write(T1, "x", None, 1));
        log.append(LogRecord::Commit { tx: T1 });
        log.append(LogRecord::Begin { tx: T2 });
        log.append(write(T2, "y", None, 2));
        log.append(LogRecord::Prepare { tx: T2 });
        log.append(LogRecord::Begin { tx: T3 });
        log.append(write(T3, "z", None, 3));
        let a = log.analyze();
        assert!(a.committed.contains(&T1));
        assert!(a.in_doubt.contains(&T2));
        assert!(a.active.contains(&T3));
        assert!(a.aborted.is_empty());
    }

    #[test]
    fn replay_applies_only_committed() {
        let mut log = WriteAheadLog::new();
        log.append(write(T1, "x", None, 1));
        log.append(LogRecord::Commit { tx: T1 });
        log.append(write(T2, "x", Some(1), 99)); // active: lost
        log.append(write(T3, "y", None, 3));
        log.append(LogRecord::Abort { tx: T3 });
        let store = log.replay();
        assert_eq!(store.get("x"), Some(&Value::Int(1)));
        assert_eq!(store.get("y"), None);
    }

    #[test]
    fn later_committed_writes_win() {
        let mut log = WriteAheadLog::new();
        log.append(write(T1, "x", None, 1));
        log.append(LogRecord::Commit { tx: T1 });
        log.append(write(T2, "x", Some(1), 2));
        log.append(LogRecord::Commit { tx: T2 });
        assert_eq!(log.replay().get("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn crash_loses_unflushed_tail() {
        let mut log = WriteAheadLog::new();
        log.append(write(T1, "x", None, 1));
        log.append(LogRecord::Commit { tx: T1 });
        log.flush();
        log.append(write(T2, "y", None, 2));
        log.append(LogRecord::Commit { tx: T2 });
        // T2's commit was never flushed.
        log.crash();
        let store = log.replay();
        assert_eq!(store.get("x"), Some(&Value::Int(1)));
        assert_eq!(store.get("y"), None);
        assert_eq!(log.stable_len(), 2);
    }

    #[test]
    fn undo_images_come_newest_first() {
        let mut log = WriteAheadLog::new();
        log.append(write(T1, "x", None, 1));
        log.append(write(T1, "x", Some(1), 2));
        log.append(write(T1, "y", Some(7), 8));
        let undo = log.undo_images(T1);
        assert_eq!(undo.len(), 3);
        assert_eq!(undo[0], ("y".to_owned(), Some(Value::Int(7))));
        assert_eq!(undo[2], ("x".to_owned(), None));
    }

    #[test]
    fn value_form_round_trips_every_record_shape() {
        let records = vec![
            LogRecord::Begin { tx: T1 },
            write(T1, "x", None, 1),
            write(T1, "x", Some(1), 2),
            LogRecord::Write {
                tx: T1,
                item: "n".to_owned(),
                before: Some(Value::Null),
                after: Value::record([("k", Value::Int(3))]),
            },
            LogRecord::Prepare { tx: T1 },
            LogRecord::Commit { tx: T1 },
            LogRecord::Abort { tx: T2 },
        ];
        for r in &records {
            let back = LogRecord::from_value(r.to_value()).unwrap();
            assert_eq!(&back, r);
        }
        assert!(LogRecord::from_value(Value::Int(3)).is_err());
        assert!(LogRecord::from_value(Value::record([("rec", Value::text("warp"))])).is_err());
    }

    #[test]
    fn from_records_is_fully_stable() {
        let log = WriteAheadLog::from_records(vec![
            write(T1, "x", None, 1),
            LogRecord::Commit { tx: T1 },
        ]);
        assert_eq!(log.stable_len(), 2);
        assert_eq!(log.replay().get("x"), Some(&Value::Int(1)));
        assert_eq!(
            log.into_records(),
            vec![write(T1, "x", None, 1), LogRecord::Commit { tx: T1 }]
        );
    }

    #[test]
    fn prepared_then_committed_is_committed() {
        let mut log = WriteAheadLog::new();
        log.append(LogRecord::Prepare { tx: T1 });
        log.append(LogRecord::Commit { tx: T1 });
        let a = log.analyze();
        assert!(a.committed.contains(&T1));
        assert!(!a.in_doubt.contains(&T1));
    }
}
