//! Failure transparency: masking the failure and recovery of objects.
//!
//! A [`FailureGuard`] watches over one cluster: it takes periodic
//! checkpoints and, when the cluster's home node crashes, recovers the
//! cluster from the last checkpoint onto a backup node and republishes
//! locations — so clients (whose proxies already mask relocation) simply
//! keep calling. Work since the last checkpoint is lost: failure
//! transparency "masks the failure and possible recovery of objects, to
//! enhance fault tolerance", it does not promise exactly-once effects.
//!
//! That loss window used to be *silent*. Recovery now performs a
//! post-mortem diff — the crashed node's structures survive in the
//! simulation, so the cluster's actual final state can be compared
//! against the checkpoint being restored — and reports every divergent
//! object on the `failure.lost_updates` counter. The counter is the
//! contract the chaos matrix pins: positive for the in-memory guard
//! (the window is real), and exactly zero for
//! [`DurableGuard`](crate::durable::DurableGuard), which write-ahead
//! logs every operation into a durable store and replays the tail.

use std::fmt;

use rmodp_core::id::{CapsuleId, ClusterId, InterfaceId, NodeId};
use rmodp_engineering::engine::{EngError, Engine};
use rmodp_engineering::structure::ClusterCheckpoint;
use rmodp_observe::{bus, event, EventKind, Layer};

use crate::proxy::OdpInfra;

/// A failure-handling error.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureError {
    /// Engineering failure.
    Eng(EngError),
    /// No checkpoint has been taken yet.
    NoCheckpoint,
    /// The home node is still alive; nothing to recover from.
    NotFailed,
    /// Every backup in the pool is dead (or the pool is empty).
    NoBackup,
}

impl fmt::Display for FailureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureError::Eng(e) => write!(f, "{e}"),
            FailureError::NoCheckpoint => write!(f, "no checkpoint available"),
            FailureError::NotFailed => write!(f, "home node has not failed"),
            FailureError::NoBackup => write!(f, "no live backup remains in the pool"),
        }
    }
}

impl std::error::Error for FailureError {}

impl From<EngError> for FailureError {
    fn from(e: EngError) -> Self {
        FailureError::Eng(e)
    }
}

/// Guards one cluster with checkpointing and backup-node recovery.
///
/// Failover is **automatic**: the guard holds a pool of backup
/// locations ([`push_backup`](Self::push_backup)) and
/// [`recover`](Self::recover) selects the first *live* one
/// deterministically (pool order, dead entries skipped), so successive
/// failures need no manual re-designation.
#[derive(Debug)]
pub struct FailureGuard {
    home: (NodeId, CapsuleId, ClusterId),
    backups: std::collections::VecDeque<(NodeId, CapsuleId)>,
    interfaces: Vec<InterfaceId>,
    last_checkpoint: Option<ClusterCheckpoint>,
    recoveries: u64,
    lost_updates: u64,
}

/// Counts the objects whose state diverges between the checkpoint being
/// restored and the cluster's actual final state (objects missing from
/// either side count too).
pub(crate) fn divergent_objects(restored: &ClusterCheckpoint, actual: &ClusterCheckpoint) -> u64 {
    let restored_states: std::collections::BTreeMap<_, _> = restored
        .objects
        .iter()
        .map(|o| (o.record.object, &o.state))
        .collect();
    let mut lost = 0u64;
    let mut seen = std::collections::BTreeSet::new();
    for o in &actual.objects {
        seen.insert(o.record.object);
        if restored_states.get(&o.record.object) != Some(&&o.state) {
            lost += 1;
        }
    }
    lost + restored_states
        .keys()
        .filter(|id| !seen.contains(*id))
        .count() as u64
}

impl FailureGuard {
    /// Creates a guard for a cluster; `backup` seeds the backup pool
    /// (extend it with [`push_backup`](Self::push_backup)).
    pub fn new(
        home: (NodeId, CapsuleId, ClusterId),
        backup: (NodeId, CapsuleId),
        interfaces: Vec<InterfaceId>,
    ) -> Self {
        Self {
            home,
            backups: std::collections::VecDeque::from([backup]),
            interfaces,
            last_checkpoint: None,
            recoveries: 0,
            lost_updates: 0,
        }
    }

    /// Appends a backup location to the pool (failover targets are
    /// taken in pool order, skipping dead nodes).
    pub fn push_backup(&mut self, backup: (NodeId, CapsuleId)) {
        self.backups.push_back(backup);
    }

    /// The backup locations still available, in selection order.
    pub fn backup_pool(&self) -> impl Iterator<Item = (NodeId, CapsuleId)> + '_ {
        self.backups.iter().copied()
    }

    /// Picks the failover target: the first pool entry whose node is
    /// currently alive. Only the chosen entry leaves the pool — dead
    /// entries are skipped but kept, since their nodes may heal.
    pub(crate) fn take_live_backup(
        backups: &mut std::collections::VecDeque<(NodeId, CapsuleId)>,
        engine: &Engine,
    ) -> Result<(NodeId, CapsuleId), FailureError> {
        let pos = backups.iter().position(|(node, _)| {
            engine
                .sim_node(*node)
                .map(|idx| !engine.sim().topology().is_crashed(idx))
                .unwrap_or(false)
        });
        pos.and_then(|i| backups.remove(i))
            .ok_or(FailureError::NoBackup)
    }

    /// The cluster's current home.
    pub fn home(&self) -> (NodeId, CapsuleId, ClusterId) {
        self.home
    }

    /// How many recoveries this guard has performed.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Objects whose post-checkpoint updates recovery has dropped so
    /// far (the in-memory guard's data-loss window, measured).
    pub fn lost_updates(&self) -> u64 {
        self.lost_updates
    }

    /// Takes a checkpoint of the guarded cluster (call periodically; the
    /// recovery point is the last successful call).
    ///
    /// # Errors
    ///
    /// Engineering failures (e.g. the home already crashed — then the
    /// previous checkpoint remains the recovery point).
    pub fn checkpoint_now(&mut self, engine: &mut Engine) -> Result<(), FailureError> {
        let (node, capsule, cluster) = self.home;
        let cp = engine.checkpoint_cluster(node, capsule, cluster)?;
        self.last_checkpoint = Some(cp);
        Ok(())
    }

    /// Whether the home node is currently crashed.
    pub fn home_failed(&self, engine: &Engine) -> bool {
        engine
            .sim_node(self.home.0)
            .map(|idx| engine.sim().topology().is_crashed(idx))
            .unwrap_or(true)
    }

    /// Recovers the cluster from the last checkpoint onto the first
    /// live backup in the pool (deterministic selection — no manual
    /// designation needed) and republishes interface locations. The
    /// guard's home becomes that backup.
    ///
    /// # Errors
    ///
    /// [`FailureError::NotFailed`] when the home is alive,
    /// [`FailureError::NoCheckpoint`] without a recovery point,
    /// [`FailureError::NoBackup`] when the pool has no live entry, or
    /// engineering failures.
    pub fn recover(
        &mut self,
        engine: &mut Engine,
        infra: &mut OdpInfra,
    ) -> Result<ClusterId, FailureError> {
        if !self.home_failed(engine) {
            return Err(FailureError::NotFailed);
        }
        let cp = self
            .last_checkpoint
            .clone()
            .ok_or(FailureError::NoCheckpoint)?;
        let backup = Self::take_live_backup(&mut self.backups, engine)?;
        // Post-mortem: the crashed node's structures survive in the
        // simulation, so the loss window is measurable — how many
        // objects moved past the checkpoint we are about to restore?
        let lost = {
            let (node, capsule, cluster) = self.home;
            engine
                .checkpoint_cluster(node, capsule, cluster)
                .map(|actual| divergent_objects(&cp, &actual))
                .unwrap_or(0)
        };
        self.lost_updates += lost;
        bus::counter_add("failure.lost_updates", lost);
        let (backup_node, backup_capsule) = backup;
        let span = bus::new_span();
        event(Layer::Transparency, EventKind::RecoveryStart)
            .span(span)
            .parent_from_context()
            .capsule(backup_capsule.raw())
            .detail(format!(
                "cluster={} {} -> {backup_node}",
                self.home.2, self.home.0
            ))
            .emit();
        bus::push_context(span);
        let recovered = (|| {
            let new_cluster = engine.reactivate_cluster(backup_node, backup_capsule, &cp)?;
            for ifc in &self.interfaces {
                infra.publish(engine, *ifc)?;
            }
            Ok::<_, FailureError>(new_cluster)
        })();
        bus::pop_context();
        let new_cluster = recovered?;
        self.home = (backup_node, backup_capsule, new_cluster);
        self.recoveries += 1;
        event(Layer::Transparency, EventKind::RecoveryEnd)
            .span(span)
            .capsule(backup_capsule.raw())
            .detail(format!(
                "cluster={new_cluster} recovery #{} lost={lost}",
                self.recoveries
            ))
            .emit();
        bus::counter_add("transparency.recoveries", 1);
        Ok(new_cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::TransparentProxy;
    use crate::selection::{Transparency, TransparencySet};
    use rmodp_core::codec::SyntaxId;
    use rmodp_core::value::Value;
    use rmodp_engineering::behaviour::CounterBehaviour;

    struct World {
        engine: Engine,
        infra: OdpInfra,
        guard: FailureGuard,
        client: NodeId,
        interface: InterfaceId,
    }

    fn world() -> World {
        let mut engine = Engine::new(31);
        engine
            .behaviours_mut()
            .register("counter", CounterBehaviour::default);
        let home = engine.add_node(SyntaxId::Binary);
        let backup = engine.add_node(SyntaxId::Binary);
        let client = engine.add_node(SyntaxId::Binary);
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
        let guard = FailureGuard::new(
            (home, home_capsule, cluster),
            (backup, backup_capsule),
            vec![refs[0].interface],
        );
        World {
            engine,
            infra,
            guard,
            client,
            interface: refs[0].interface,
        }
    }

    fn add(k: i64) -> Value {
        Value::record([("k", Value::Int(k))])
    }

    #[test]
    fn crash_then_recover_masks_failure_up_to_the_checkpoint() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(10))
            .unwrap();
        w.guard.checkpoint_now(&mut w.engine).unwrap();
        // Post-checkpoint work that will be lost by the failure.
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(5))
            .unwrap();

        // The home node crashes.
        let idx = w.engine.sim_node(w.guard.home().0).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        assert!(w.guard.home_failed(&w.engine));

        w.guard.recover(&mut w.engine, &mut w.infra).unwrap();
        assert_eq!(w.guard.recoveries(), 1);
        // The post-checkpoint Add(5) is the measured loss window.
        assert_eq!(w.guard.lost_updates(), 1);
        assert_eq!(bus::counter("failure.lost_updates"), 1);

        // The client's next call is transparently routed to the recovered
        // replica; state is the checkpointed 10, not 15.
        let t = proxy
            .call(
                &mut w.engine,
                &mut w.infra,
                "Get",
                &Value::record::<&str, _>([]),
            )
            .unwrap();
        assert_eq!(t.results.field("n"), Some(&Value::Int(10)));
    }

    #[test]
    fn recover_requires_failure_and_a_checkpoint() {
        let mut w = world();
        assert!(matches!(
            w.guard.recover(&mut w.engine, &mut w.infra),
            Err(FailureError::NotFailed)
        ));
        let idx = w.engine.sim_node(w.guard.home().0).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        assert!(matches!(
            w.guard.recover(&mut w.engine, &mut w.infra),
            Err(FailureError::NoCheckpoint)
        ));
    }

    #[test]
    fn guard_survives_successive_failures_with_new_backups() {
        let mut w = world();
        let mut proxy = TransparentProxy::new(
            w.client,
            w.interface,
            TransparencySet::none().with(Transparency::Relocation),
        );
        proxy
            .call(&mut w.engine, &mut w.infra, "Add", &add(1))
            .unwrap();
        w.guard.checkpoint_now(&mut w.engine).unwrap();

        for round in 0..2 {
            let idx = w.engine.sim_node(w.guard.home().0).unwrap();
            w.engine.sim_mut().topology_mut().crash(idx);
            w.guard.recover(&mut w.engine, &mut w.infra).unwrap();
            let t = proxy
                .call(
                    &mut w.engine,
                    &mut w.infra,
                    "Get",
                    &Value::record::<&str, _>([]),
                )
                .unwrap();
            assert_eq!(t.results.field("n"), Some(&Value::Int(1)), "round {round}");
            // Extend the pool and refresh the recovery point; the next
            // failover picks the new entry automatically.
            let next = w.engine.add_node(SyntaxId::Binary);
            let next_capsule = w.engine.add_capsule(next).unwrap();
            w.guard.push_backup((next, next_capsule));
            w.guard.checkpoint_now(&mut w.engine).unwrap();
        }
        assert_eq!(w.guard.recoveries(), 2);
    }

    #[test]
    fn recovery_skips_dead_backups_deterministically() {
        let mut w = world();
        w.guard.checkpoint_now(&mut w.engine).unwrap();
        // Queue a second backup behind the seeded one, then kill the
        // seeded one: recovery must skip it and land on the second.
        let second = w.engine.add_node(SyntaxId::Binary);
        let second_capsule = w.engine.add_capsule(second).unwrap();
        w.guard.push_backup((second, second_capsule));
        let first_backup = w.guard.backup_pool().next().unwrap().0;
        let idx = w.engine.sim_node(first_backup).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        let idx = w.engine.sim_node(w.guard.home().0).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        w.guard.recover(&mut w.engine, &mut w.infra).unwrap();
        assert_eq!(w.guard.home().0, second);
        // The dead entry stays queued (its node may heal)…
        assert_eq!(w.guard.backup_pool().count(), 1);
        // …and with the pool otherwise dead, recovery reports NoBackup.
        let idx = w.engine.sim_node(second).unwrap();
        w.engine.sim_mut().topology_mut().crash(idx);
        assert!(matches!(
            w.guard.recover(&mut w.engine, &mut w.infra),
            Err(FailureError::NoBackup)
        ));
    }
}
