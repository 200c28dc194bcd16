//! Durable failure transparency: recovery that loses nothing committed.
//!
//! The plain [`FailureGuard`](crate::failure::FailureGuard) restores the
//! *last checkpoint* — everything after it is dropped, and the
//! `failure.lost_updates` counter measures exactly how much. The
//! [`DurableGuard`] closes that window by pairing the checkpoint with a
//! write-ahead **operation log** kept in a [`PersistentStore`]:
//!
//! 1. every state-changing operation is logged ([`DurableGuard::log_op`])
//!    *before* it is issued — if the store is a
//!    [`StoreEngine`](rmodp_store::StoreEngine), the log entry is synced
//!    to stable media before the operation runs;
//! 2. a checkpoint ([`DurableGuard::checkpoint_now`]) persists the
//!    cluster image and prunes the ops it covers (log compaction at the
//!    transparency layer, mirroring the store's own WAL compaction);
//! 3. recovery ([`DurableGuard::recover`]) reactivates the persisted
//!    checkpoint on the backup and **replays the logged tail** through
//!    ordinary channels — the recovered cluster reaches exactly the
//!    committed pre-crash state, and `failure.lost_updates` records 0.
//!
//! The replay is deterministic: ops are keyed `guard/<label>/op/<seq>`
//! with zero-padded sequence numbers, so the store's sorted key order is
//! the original execution order.

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId};
use rmodp_core::value::Value;
use rmodp_engineering::channel::ChannelConfig;
use rmodp_engineering::engine::{CallError, EngError, Engine};
use rmodp_observe::{bus, event, EventKind, Layer};
use rmodp_store::PersistentStore;

use crate::persistence::{decode_checkpoint, encode_checkpoint};
use crate::proxy::OdpInfra;

/// A durable-guard failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableError {
    /// Engineering failure.
    Eng(EngError),
    /// A replayed operation failed.
    Call(CallError),
    /// No checkpoint has been persisted yet.
    NoCheckpoint,
    /// The home node is still alive; nothing to recover from.
    NotFailed,
    /// Every backup in the pool is dead (or the pool is empty).
    NoBackup,
    /// Persisted bytes could not be decoded.
    Corrupt { key: String, detail: String },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Eng(e) => write!(f, "{e}"),
            DurableError::Call(e) => write!(f, "replay failed: {e}"),
            DurableError::NoCheckpoint => write!(f, "no persisted checkpoint"),
            DurableError::NotFailed => write!(f, "home node has not failed"),
            DurableError::NoBackup => write!(f, "no live backup remains in the pool"),
            DurableError::Corrupt { key, detail } => write!(f, "{key} is corrupt: {detail}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<EngError> for DurableError {
    fn from(e: EngError) -> Self {
        DurableError::Eng(e)
    }
}

impl From<CallError> for DurableError {
    fn from(e: CallError) -> Self {
        DurableError::Call(e)
    }
}

/// Guards one cluster with persisted checkpoints plus a write-ahead
/// operation log, so recovery replays the tail instead of dropping it.
#[derive(Debug)]
pub struct DurableGuard {
    label: String,
    home: (NodeId, CapsuleId, ClusterId),
    backups: std::collections::VecDeque<(NodeId, CapsuleId)>,
    interfaces: Vec<InterfaceId>,
    /// Sequence number of the next logged op (reset by checkpoints).
    next_op: u64,
    recoveries: u64,
    replayed: u64,
}

impl DurableGuard {
    /// Creates a guard; `label` namespaces its keys in the store and
    /// `backup` seeds the automatic-failover pool
    /// ([`push_backup`](Self::push_backup) extends it).
    pub fn new(
        label: impl Into<String>,
        home: (NodeId, CapsuleId, ClusterId),
        backup: (NodeId, CapsuleId),
        interfaces: Vec<InterfaceId>,
    ) -> Self {
        Self {
            label: label.into(),
            home,
            backups: std::collections::VecDeque::from([backup]),
            interfaces,
            next_op: 0,
            recoveries: 0,
            replayed: 0,
        }
    }

    /// Appends a backup location to the failover pool (targets are
    /// taken in pool order, skipping dead nodes).
    pub fn push_backup(&mut self, backup: (NodeId, CapsuleId)) {
        self.backups.push_back(backup);
    }

    /// The backup locations still available, in selection order.
    pub fn backup_pool(&self) -> impl Iterator<Item = (NodeId, CapsuleId)> + '_ {
        self.backups.iter().copied()
    }

    /// The cluster's current home.
    pub fn home(&self) -> (NodeId, CapsuleId, ClusterId) {
        self.home
    }

    /// How many recoveries this guard has performed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Operations replayed across all recoveries.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Ops logged since the last checkpoint.
    pub fn pending_ops(&self) -> u64 {
        self.next_op
    }

    fn checkpoint_key(&self) -> String {
        format!("guard/{}/checkpoint", self.label)
    }

    fn op_key(&self, seq: u64) -> String {
        format!("guard/{}/op/{seq:08}", self.label)
    }

    fn op_prefix(&self) -> String {
        format!("guard/{}/op/", self.label)
    }

    /// Logs one state-changing operation write-ahead. Call this *before*
    /// issuing the operation; the durable store syncs the entry before
    /// returning, so a crash at any later instant finds it in the log.
    pub fn log_op<S: PersistentStore>(
        &mut self,
        store: &mut S,
        interface: InterfaceId,
        op: &str,
        args: &Value,
    ) {
        let entry = Value::record([
            ("interface", Value::Int(interface.raw() as i64)),
            ("op", Value::text(op)),
            ("args", args.clone()),
        ]);
        let key = self.op_key(self.next_op);
        self.next_op += 1;
        store.persist(&key, syntax_for(SyntaxId::Binary).encode(&entry));
    }

    /// Checkpoints the guarded cluster into the store and prunes the op
    /// log it covers.
    ///
    /// # Errors
    ///
    /// Engineering failures (the previous checkpoint + ops remain the
    /// recovery point).
    pub fn checkpoint_now<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        store: &mut S,
    ) -> Result<(), DurableError> {
        let (node, capsule, cluster) = self.home;
        let cp = engine.checkpoint_cluster(node, capsule, cluster)?;
        store.persist(&self.checkpoint_key(), encode_checkpoint(&cp));
        let prefix = self.op_prefix();
        for key in store.stored_keys() {
            if key.starts_with(&prefix) {
                store.remove(&key);
            }
        }
        self.next_op = 0;
        Ok(())
    }

    /// Whether the home node is currently crashed.
    pub fn home_failed(&self, engine: &Engine) -> bool {
        engine
            .sim_node(self.home.0)
            .map(|idx| engine.sim().topology().is_crashed(idx))
            .unwrap_or(true)
    }

    /// Recovers the cluster onto the backup: reactivate the persisted
    /// checkpoint, republish locations, then replay the logged operation
    /// tail in order. Afterwards the recovered state equals the
    /// committed pre-crash state — `failure.lost_updates` records zero —
    /// and a fresh checkpoint is persisted so the op log starts empty.
    ///
    /// # Errors
    ///
    /// [`DurableError::NotFailed`] when the home is alive,
    /// [`DurableError::NoCheckpoint`] without a persisted checkpoint,
    /// [`DurableError::NoBackup`] when no pool entry is alive,
    /// corrupt store entries, or engineering/replay failures.
    pub fn recover<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
        store: &mut S,
    ) -> Result<ClusterId, DurableError> {
        if !self.home_failed(engine) {
            return Err(DurableError::NotFailed);
        }
        let cp_key = self.checkpoint_key();
        let bytes = store.fetch(&cp_key).ok_or(DurableError::NoCheckpoint)?;
        let cp = decode_checkpoint(&bytes).map_err(|detail| DurableError::Corrupt {
            key: cp_key,
            detail,
        })?;
        let (backup_node, backup_capsule) =
            crate::failure::FailureGuard::take_live_backup(&mut self.backups, engine)
                .map_err(|_| DurableError::NoBackup)?;
        let span = bus::new_span();
        event(Layer::Transparency, EventKind::RecoveryStart)
            .span(span)
            .parent_from_context()
            .capsule(backup_capsule.raw())
            .detail(format!(
                "durable cluster={} {} -> {backup_node} pending_ops={}",
                self.home.2, self.home.0, self.next_op
            ))
            .emit();
        bus::push_context(span);
        let recovered = self.recover_inner(engine, infra, store, &cp, backup_node, backup_capsule);
        bus::pop_context();
        let (new_cluster, replayed) = recovered?;
        self.home = (backup_node, backup_capsule, new_cluster);
        self.recoveries += 1;
        self.replayed += replayed;
        // The tail was replayed, not dropped: the loss window is zero.
        // Recording the zero materialises the counter for the gates.
        bus::counter_add("failure.lost_updates", 0);
        bus::counter_add("transparency.recoveries", 1);
        bus::counter_add("transparency.replayed_ops", replayed);
        event(Layer::Transparency, EventKind::RecoveryEnd)
            .span(span)
            .capsule(backup_capsule.raw())
            .detail(format!(
                "durable cluster={new_cluster} recovery #{} replayed={replayed} lost=0",
                self.recoveries
            ))
            .emit();
        // Fold the replayed tail into a fresh persisted checkpoint.
        self.checkpoint_now(engine, store)?;
        Ok(new_cluster)
    }

    fn recover_inner<S: PersistentStore>(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
        store: &S,
        cp: &rmodp_engineering::structure::ClusterCheckpoint,
        backup_node: NodeId,
        backup_capsule: CapsuleId,
    ) -> Result<(ClusterId, u64), DurableError> {
        let new_cluster = engine.reactivate_cluster(backup_node, backup_capsule, cp)?;
        for ifc in &self.interfaces {
            infra.publish(engine, *ifc)?;
        }
        // Replay the logged tail in sequence order (sorted keys).
        let prefix = self.op_prefix();
        let mut channels: BTreeMap<u64, _> = BTreeMap::new();
        let mut replayed = 0u64;
        for key in store.stored_keys() {
            if !key.starts_with(&prefix) {
                continue;
            }
            let bytes = store.fetch(&key).expect("listed key is fetchable");
            let entry =
                syntax_for(SyntaxId::Binary)
                    .decode(&bytes)
                    .map_err(|e| DurableError::Corrupt {
                        key: key.clone(),
                        detail: e.to_string(),
                    })?;
            let interface = entry
                .field("interface")
                .and_then(Value::as_int)
                .ok_or_else(|| DurableError::Corrupt {
                    key: key.clone(),
                    detail: "op without interface".to_owned(),
                })? as u64;
            let op = entry
                .field("op")
                .and_then(Value::as_text)
                .ok_or_else(|| DurableError::Corrupt {
                    key: key.clone(),
                    detail: "op without name".to_owned(),
                })?
                .to_owned();
            let args = entry
                .field("args")
                .cloned()
                .ok_or_else(|| DurableError::Corrupt {
                    key: key.clone(),
                    detail: "op without args".to_owned(),
                })?;
            let channel = match channels.get(&interface) {
                Some(ch) => *ch,
                None => {
                    let ch = engine.open_channel(
                        backup_node,
                        InterfaceId::new(interface),
                        ChannelConfig::default(),
                    )?;
                    channels.insert(interface, ch);
                    ch
                }
            };
            engine.call(channel, &op, &args)?;
            replayed += 1;
        }
        Ok((new_cluster, replayed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::TransparentProxy;
    use crate::selection::{Transparency, TransparencySet};
    use rmodp_engineering::behaviour::CounterBehaviour;
    use rmodp_store::{MemMedia, StableMedia, StoreConfig, StoreEngine};

    struct World {
        engine: Engine,
        infra: OdpInfra,
        guard: DurableGuard,
        store: StoreEngine<MemMedia>,
        client: NodeId,
        interface: InterfaceId,
    }

    fn world() -> World {
        let mut engine = Engine::new(47);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let home = engine.add_node(rmodp_core::codec::SyntaxId::Binary);
        let backup = engine.add_node(rmodp_core::codec::SyntaxId::Binary);
        let client = engine.add_node(rmodp_core::codec::SyntaxId::Binary);
        let home_capsule = engine.add_capsule(home).unwrap();
        let backup_capsule = engine.add_capsule(backup).unwrap();
        let cluster = engine.add_cluster(home, home_capsule).unwrap();
        let (_, refs) = engine
            .create_object(
                home,
                home_capsule,
                cluster,
                "c",
                "counter",
                CounterBehaviour::initial_state(),
                1,
            )
            .unwrap();
        let mut infra = OdpInfra::new();
        infra.publish(&engine, refs[0].interface).unwrap();
        let guard = DurableGuard::new(
            "acct",
            (home, home_capsule, cluster),
            (backup, backup_capsule),
            vec![refs[0].interface],
        );
        let store = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        World {
            engine,
            infra,
            guard,
            store,
            client,
            interface: refs[0].interface,
        }
    }

    fn add(k: i64) -> Value {
        Value::record([("k", Value::Int(k))])
    }

    /// A logged call: write-ahead into the store, then issue.
    fn logged_call(w: &mut World, proxy: &mut TransparentProxy, k: i64) {
        w.guard.log_op(&mut w.store, w.interface, "Add", &add(k));
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(k))
            .unwrap();
    }

    #[test]
    fn recovery_replays_the_tail_and_loses_nothing() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        logged_call(&mut w, &mut proxy, 10);
        w.guard.checkpoint_now(&mut w.engine, &mut w.store).unwrap();
        // Post-checkpoint work — the window the plain guard would lose.
        logged_call(&mut w, &mut proxy, 5);
        logged_call(&mut w, &mut proxy, 7);
        assert_eq!(w.guard.pending_ops(), 2);

        let idx = w.engine.sim_node(w.guard.home().0).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);

        w.guard
            .recover(&mut w.engine, &mut w.infra, &mut w.store)
            .unwrap();
        assert_eq!(w.guard.recoveries(), 1);
        assert_eq!(w.guard.replayed(), 2);
        assert_eq!(bus::counter("failure.lost_updates"), 0);
        assert_eq!(w.guard.pending_ops(), 0, "recovery folded the tail");

        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        assert_eq!(
            t.results.field("n"),
            Some(&Value::Int(22)),
            "10 + 5 + 7: nothing lost"
        );
    }

    #[test]
    fn op_log_survives_a_store_crash() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        logged_call(&mut w, &mut proxy, 3);
        w.guard.checkpoint_now(&mut w.engine, &mut w.store).unwrap();
        logged_call(&mut w, &mut proxy, 4);
        // The store's medium crashes too: every logged op was synced
        // write-ahead, so the tail survives in the WAL.
        let mut media = w.store.into_media();
        media.crash();
        w.store = StoreEngine::open(media, StoreConfig::default()).unwrap();

        let idx = w.engine.sim_node(w.guard.home().0).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        w.guard
            .recover(&mut w.engine, &mut w.infra, &mut w.store)
            .unwrap();
        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(7)));
    }

    #[test]
    fn recover_requires_failure_and_a_checkpoint() {
        let mut w = world();
        let mut store = StoreEngine::open(MemMedia::new(), StoreConfig::default()).unwrap();
        assert!(matches!(
            w.guard.recover(&mut w.engine, &mut w.infra, &mut store),
            Err(DurableError::NotFailed)
        ));
        let idx = w.engine.sim_node(w.guard.home().0).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        assert!(matches!(
            w.guard.recover(&mut w.engine, &mut w.infra, &mut store),
            Err(DurableError::NoCheckpoint)
        ));
    }
}
