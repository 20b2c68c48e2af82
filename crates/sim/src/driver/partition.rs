//! Network-partition injection and heal/rejoin reconciliation.
//!
//! The layer exists only when a [`PartitionConfig`] is present and
//! non-inert, so inert runs degenerate to the oracle event-for-event.
//! When live, episodes are drawn from the dedicated `"partition"` stream
//! and threaded through three events:
//!
//! * `Start` — a minority group is cut away from the master side
//!   ([`Connectivity::split`]) with a drawn [`CutMode`]; the heal is
//!   scheduled up front, so every episode is bounded.
//! * `Flap` — a flapping episode's cut toggles on/off; stale flap events
//!   from healed episodes are fenced by `episode_seq`.
//! * `Heal` — full connectivity returns; ghost dispatches are reconciled,
//!   reconvergence tracking starts, paced re-replication is armed, and
//!   the next episode's arrival is drawn.
//!
//! Re-replication debt is then paid by the unified repair queue's
//! `RestoreTick` (see the `durability` module), replacing the instant
//! `restore_replication` storm while any pacing layer is active.
//!
//! Split-brain safety rests on three mechanisms, all exercised here:
//! heartbeats from an unreachable node are *emitted and lost* (the RNG
//! draw order is preserved; only delivery is suppressed), Finish
//! reports that cannot cross the cut bounce on a redelivery loop until
//! they deliver into the executor-epoch fence, and dispatches that
//! never arrived leave the master believing an executor busy — a ghost
//! the reconnect reconciliation rolls back attempt-exactly.

use std::collections::BTreeSet;

use custody_cluster::{Connectivity, CutMode, ExecutorId};
use custody_dfs::NodeId;
use custody_simcore::dist::{Distribution, Exponential};
use custody_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::config::PartitionConfig;

use super::{next_arrival, schedule_arrival, unrouted, Driver, Event};

/// The partition layer's events (see the module docs). A flap carries
/// its episode, which fences flaps that outlive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PartitionEvent {
    Start,
    Heal,
    Flap { episode: u64 },
}

/// Live partition-injection state (absent for inert configs).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct PartitionLayer {
    /// The validated, non-inert configuration.
    pub(super) cfg: PartitionConfig,
    /// The cluster's current pairwise-reachability relation.
    pub(super) connectivity: Connectivity,
    /// Monotone episode counter; fences `Flap` events that
    /// outlive their episode.
    pub(super) episode_seq: u64,
    /// Whether the active episode flaps (toggles its cut on and off).
    pub(super) flapping: bool,
    /// Executors whose launch RPC was lost crossing the cut: the master
    /// believes them busy, the node never heard. Reconciled (rolled
    /// back and re-queued) at the next reconnect.
    pub(super) lost_dispatches: BTreeSet<ExecutorId>,
    /// `(executor index, launch epoch)` of Finish reports currently
    /// bouncing on the redelivery loop because their node cannot reach
    /// the master.
    pub(super) deferred: BTreeSet<(usize, u64)>,
    /// `(heal time, former minority)` while waiting for the master's
    /// beliefs about the rejoined nodes to settle.
    pub(super) awaiting_reconverge: Option<(SimTime, Vec<NodeId>)>,
    /// Episode draws: minority, mode, flap, heal, arrivals (the
    /// `"partition"` stream).
    rng: SimRng,
}

impl PartitionLayer {
    /// Seeds the `"partition"` stream and schedules the first episode's
    /// arrival. `None` for an inert config: no events, no draws, so the
    /// run is event-for-event the oracle.
    pub(super) fn new(
        cfg: PartitionConfig,
        seed: u64,
        num_nodes: usize,
        queue: &mut EventQueue<Event>,
    ) -> Option<Self> {
        if cfg.is_inert() {
            return None;
        }
        let mut rng = SimRng::for_stream(seed, "partition");
        schedule_arrival(
            queue,
            &mut rng,
            cfg.mean_time_between_partitions_secs,
            cfg.horizon_secs,
            None,
            Event::Partition(PartitionEvent::Start),
        );
        Some(PartitionLayer {
            cfg,
            connectivity: Connectivity::fully_connected(num_nodes),
            episode_seq: 0,
            flapping: false,
            lost_dispatches: BTreeSet::new(),
            deferred: BTreeSet::new(),
            awaiting_reconverge: None,
            rng,
        })
    }
}

impl Driver {
    /// Routes one partition event.
    pub(super) fn on_partition_event(&mut self, ev: PartitionEvent, now: SimTime) {
        // Episode arrivals stop once the run drains.
        let drained = matches!(ev, PartitionEvent::Start | PartitionEvent::Heal) && self.drained();
        let Some(p) = &mut self.partition else {
            unrouted(Event::Partition(ev))
        };
        match ev {
            // An episode begins: draw the minority, the cut mode, the
            // flap regime and the heal time, and open the split.
            PartitionEvent::Start => {
                let cfg = p.cfg;
                if drained || self.metrics.partition_episodes >= cfg.max_episodes {
                    return; // run drained or episode budget spent
                }
                let n = self.cluster.num_nodes();
                // At least one node cut away, never the whole cluster:
                // the master always keeps a majority side.
                let k = ((cfg.split_fraction * n as f64).round() as usize).clamp(1, n - 1);
                let mut picks = p.rng.choose_distinct(n, k);
                picks.sort_unstable();
                let minority: Vec<NodeId> = picks.into_iter().map(NodeId::new).collect();
                let mode = if !p.rng.chance(cfg.asymmetric_prob) {
                    CutMode::Both
                } else if p.rng.chance(cfg.inbound_cut_prob) {
                    CutMode::MinorityInbound
                } else {
                    CutMode::MinorityOutbound
                };
                let flapping = cfg.flap_prob > 0.0 && p.rng.chance(cfg.flap_prob);
                let heal_in = Exponential::with_mean(cfg.mean_heal_secs).sample(&mut p.rng);
                let flap_in =
                    flapping.then(|| Exponential::with_mean(cfg.mean_flap_secs).sample(&mut p.rng));

                p.connectivity.split(&minority, mode);
                p.episode_seq += 1;
                p.flapping = flapping;
                // A reconvergence window still open from the previous
                // episode is superseded: the cluster is disturbed again.
                p.awaiting_reconverge = None;
                let episode = p.episode_seq;
                self.metrics.partition_episodes += 1;
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(heal_in),
                    Event::Partition(PartitionEvent::Heal),
                );
                if let Some(gap) = flap_in {
                    self.queue.schedule(
                        now + SimDuration::from_secs_f64(gap),
                        Event::Partition(PartitionEvent::Flap { episode }),
                    );
                }
            }
            // The active episode heals: connectivity returns, ghost
            // dispatches are reconciled, belief reconvergence is tracked
            // from this instant, paced re-replication is armed, and the
            // next episode's arrival is drawn (the inter-episode gap is
            // measured heal → next split).
            PartitionEvent::Heal => {
                debug_assert!(
                    p.connectivity.split_active(),
                    "heal without an active episode"
                );
                let minority = p.connectivity.minority_nodes();
                p.connectivity.heal();
                p.flapping = false;
                p.awaiting_reconverge = Some((now, minority));
                let lost = std::mem::take(&mut p.lost_dispatches);
                // The next episode's arrival — none once the run has
                // drained or the episode budget is spent.
                let next = if drained || self.metrics.partition_episodes >= p.cfg.max_episodes {
                    None
                } else {
                    next_arrival(
                        &mut p.rng,
                        p.cfg.mean_time_between_partitions_secs,
                        p.cfg.horizon_secs,
                        Some(now),
                    )
                };
                self.drain_lost_dispatches(lost, now);
                self.arm_repair_tick(now);
                if let Some(at) = next {
                    self.queue
                        .schedule(at, Event::Partition(PartitionEvent::Start));
                }
            }
            // A flapping episode's cut toggles. Events carry their episode
            // and are fenced once it heals, so a healed run's queue drains.
            PartitionEvent::Flap { episode } => {
                if !p.connectivity.split_active() || episode != p.episode_seq {
                    return; // stale flap from a healed episode
                }
                let suspend = p.connectivity.cutting();
                p.connectivity.set_suspended(suspend);
                let gap = Exponential::with_mean(p.cfg.mean_flap_secs).sample(&mut p.rng);
                if suspend {
                    // The links briefly came back: reconcile every
                    // dispatch lost so far, exactly as a heal would.
                    let lost = std::mem::take(&mut p.lost_dispatches);
                    self.drain_lost_dispatches(lost, now);
                }
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(gap),
                    Event::Partition(PartitionEvent::Flap { episode }),
                );
            }
        }
    }

    /// Partition gate for task dispatch: whether the launch RPC crosses
    /// the cut to `node`. A lost dispatch leaves the master believing
    /// the executor busy with no Finish ever scheduled — a ghost
    /// recorded here and reconciled at the next reconnect.
    pub(super) fn partition_dispatch_arrives(
        &mut self,
        executor: ExecutorId,
        node: NodeId,
    ) -> bool {
        let Some(p) = &mut self.partition else {
            return true;
        };
        if p.connectivity.master_reaches_node(node) {
            return true;
        }
        p.lost_dispatches.insert(executor);
        false
    }

    /// Drops a ghost-dispatch record whose executor is being killed (or
    /// rolled back) through another path — suspicion, lease revocation,
    /// job failure — so reconnect reconciliation never double-rolls-back.
    pub(super) fn partition_forget_ghost(&mut self, e: ExecutorId) {
        if let Some(p) = &mut self.partition {
            p.lost_dispatches.remove(&e);
        }
    }

    /// Reconnect reconciliation: every dispatch `lost` on the wire is
    /// rolled back attempt-exactly (the node never ran it, so no epoch
    /// bump is needed — no Finish exists to fence) and its task
    /// re-queued. Called whenever cut links come back: flap suspension
    /// and heal.
    fn drain_lost_dispatches(&mut self, lost: BTreeSet<ExecutorId>, now: SimTime) {
        if lost.is_empty() {
            return;
        }
        self.disrupt(now, |d, displaced| {
            for e in lost {
                // A belief-killed executor was rolled back already.
                if !d.ledger.is_dead(e) && d.abandon_attempt(e, now, displaced) {
                    d.metrics.partition_work_discarded += 1;
                }
            }
        });
    }

    /// Counts live minority attempts the master is about to fence
    /// through a belief-driven kill (node suspicion, lease revocation):
    /// physically running work on the cut-away side that the partition
    /// — not a real fault — caused the master to discard.
    pub(super) fn note_minority_discards(&mut self, executors: &[ExecutorId]) {
        let Some(p) = &self.partition else { return };
        if !p.connectivity.split_active() {
            return;
        }
        for &e in executors {
            let node = self.cluster.node_of(e);
            if !p.connectivity.in_minority(node) || self.node_down[node.index()].is_some() {
                continue;
            }
            if !self.ledger.is_dead(e) && self.exec_state[e.index()].running.is_some() {
                self.metrics.partition_work_discarded += 1;
            }
        }
    }

    /// After a heal, watches the master's beliefs about the former
    /// minority until they settle: every rejoined node is either
    /// genuinely down (suspicion is then the *correct* belief) or fully
    /// reinstated on both channels with all its executors believed
    /// alive. The heal → settled interval is the time-to-reconverge
    /// metric.
    pub(super) fn check_partition_reconverge(&mut self, now: SimTime) {
        let Some(p) = &mut self.partition else { return };
        let Some((healed_at, minority)) = &p.awaiting_reconverge else {
            return;
        };
        let healed_at = *healed_at;
        let settled = minority.iter().all(|&node| {
            if self.node_down[node.index()].is_some() {
                return true;
            }
            let Some(d) = &self.detector else { return true };
            if d.channels[node.index()].iter().any(|c| c.suspected) {
                return false;
            }
            self.cluster
                .executors_on(node)
                .iter()
                .all(|&e| !self.ledger.is_dead(e))
        });
        if settled {
            self.metrics
                .partition_reconverge_secs
                .push(now.saturating_since(healed_at).as_secs_f64());
            p.awaiting_reconverge = None;
        }
    }
}
