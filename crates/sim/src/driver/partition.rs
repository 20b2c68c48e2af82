//! Network-partition injection and heal/rejoin reconciliation.
//!
//! The layer exists only when a [`PartitionConfig`] is present and
//! non-inert, so inert runs degenerate to the oracle event-for-event
//! (the connectivity analogue of the gray-failure layer's
//! `is_inert` discipline). When live, episodes are drawn from the
//! dedicated `"partition"` stream and threaded through four events:
//!
//! * `PartitionStart` — a minority group is cut away from the master
//!   side ([`Connectivity::split`]) with a drawn [`CutMode`]; the heal
//!   is scheduled up front, so every episode is bounded.
//! * `PartitionFlap` — a flapping episode's cut toggles on/off; stale
//!   flap events from healed episodes are fenced by `episode_seq`.
//! * `PartitionHeal` — full connectivity returns; ghost dispatches are
//!   reconciled, reconvergence tracking starts, paced re-replication is
//!   armed, and the next episode's arrival is drawn.
//! * `RestoreTick` — one paced batch of re-replication debt is paid by
//!   the unified repair queue (see the `durability` module), replacing
//!   the instant `restore_replication` storm while any pacing layer is
//!   active.
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
use custody_simcore::{SimDuration, SimTime};

use crate::config::PartitionConfig;

use super::{Driver, Event};

/// Live partition-injection state (absent for inert configs).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct PartitionLayer {
    /// The validated, non-inert configuration.
    pub(super) cfg: PartitionConfig,
    /// The cluster's current pairwise-reachability relation.
    pub(super) connectivity: Connectivity,
    /// Monotone episode counter; fences `PartitionFlap` events that
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
}

impl PartitionLayer {
    pub(super) fn new(cfg: PartitionConfig, num_nodes: usize) -> Self {
        PartitionLayer {
            cfg,
            connectivity: Connectivity::fully_connected(num_nodes),
            episode_seq: 0,
            flapping: false,
            lost_dispatches: BTreeSet::new(),
            deferred: BTreeSet::new(),
            awaiting_reconverge: None,
        }
    }
}

impl Driver {
    /// Same drained-run test as the control plane and fail-slow layers:
    /// once every job has been submitted and finished, partition events
    /// stop rescheduling themselves so the queue drains.
    fn partition_idle(&self) -> bool {
        self.jobs.len() == self.apps.iter().map(|a| a.specs.len()).sum::<usize>()
            && self.jobs.iter().all(|j| j.is_finished())
    }

    /// A partition episode begins: draw the minority, the cut mode, the
    /// flap regime and the heal time, and open the split.
    pub(super) fn on_partition_start(&mut self, now: SimTime) {
        let Some(p) = &self.partition else { return };
        if self.partition_idle() || self.metrics.partition_episodes >= p.cfg.max_episodes {
            return; // run drained or episode budget spent
        }
        let cfg = p.cfg;
        let n = self.cluster.num_nodes();
        // At least one node cut away, never the whole cluster: the
        // master always keeps a majority side.
        let k = ((cfg.split_fraction * n as f64).round() as usize).clamp(1, n - 1);
        let mut picks = self.partition_rng.choose_distinct(n, k);
        picks.sort_unstable();
        let minority: Vec<NodeId> = picks.into_iter().map(NodeId::new).collect();
        let mode = if !self.partition_rng.chance(cfg.asymmetric_prob) {
            CutMode::Both
        } else if self.partition_rng.chance(cfg.inbound_cut_prob) {
            CutMode::MinorityInbound
        } else {
            CutMode::MinorityOutbound
        };
        let flapping = cfg.flap_prob > 0.0 && self.partition_rng.chance(cfg.flap_prob);
        let heal_in = Exponential::with_mean(cfg.mean_heal_secs).sample(&mut self.partition_rng);
        let flap_in = flapping
            .then(|| Exponential::with_mean(cfg.mean_flap_secs).sample(&mut self.partition_rng));

        let p = self.partition.as_mut().expect("layer checked above"); // lint: allow(panic) — guarded by the let-else at the top
        p.connectivity.split(&minority, mode);
        p.episode_seq += 1;
        p.flapping = flapping;
        // A reconvergence window still open from the previous episode is
        // superseded: the cluster is disturbed again.
        p.awaiting_reconverge = None;
        let episode = p.episode_seq;
        self.metrics.partition_episodes += 1;
        self.queue.schedule(
            now + SimDuration::from_secs_f64(heal_in),
            Event::PartitionHeal,
        );
        if let Some(gap) = flap_in {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(gap),
                Event::PartitionFlap { episode },
            );
        }
    }

    /// The active episode heals: connectivity returns, ghost dispatches
    /// are reconciled, belief reconvergence is tracked from this
    /// instant, paced re-replication is armed, and the next episode's
    /// arrival is drawn (the inter-episode gap is measured heal → next
    /// split).
    pub(super) fn on_partition_heal(&mut self, now: SimTime) {
        let Some(p) = &mut self.partition else { return };
        debug_assert!(
            p.connectivity.split_active(),
            "heal without an active episode"
        );
        let minority = p.connectivity.minority_nodes();
        p.connectivity.heal();
        p.flapping = false;
        self.drain_lost_dispatches(now);
        let p = self.partition.as_mut().expect("layer checked above"); // lint: allow(panic) — guarded by the let-else at the top
        p.awaiting_reconverge = Some((now, minority));
        self.arm_repair_tick(now);
        self.schedule_next_partition(now);
    }

    /// A flapping episode's cut toggles. Events carry their episode and
    /// are fenced once it heals, so a healed run's queue drains.
    pub(super) fn on_partition_flap(&mut self, episode: u64, now: SimTime) {
        let Some(p) = &mut self.partition else { return };
        if !p.connectivity.split_active() || episode != p.episode_seq {
            return; // stale flap from a healed episode
        }
        let suspend = p.connectivity.cutting();
        p.connectivity.set_suspended(suspend);
        let mean_flap = p.cfg.mean_flap_secs;
        if suspend {
            // The links briefly came back: reconcile every dispatch lost
            // so far, exactly as a heal would.
            self.drain_lost_dispatches(now);
        }
        let gap = Exponential::with_mean(mean_flap).sample(&mut self.partition_rng);
        self.queue.schedule(
            now + SimDuration::from_secs_f64(gap),
            Event::PartitionFlap { episode },
        );
    }

    /// Draws the next episode's arrival (called at heal). Nothing is
    /// scheduled once the run has drained, the episode budget is spent,
    /// or the arrival lands beyond the horizon.
    fn schedule_next_partition(&mut self, now: SimTime) {
        let Some(p) = &self.partition else { return };
        if self.partition_idle() || self.metrics.partition_episodes >= p.cfg.max_episodes {
            return;
        }
        let cfg = p.cfg;
        let gap = Exponential::with_mean(cfg.mean_time_between_partitions_secs)
            .sample(&mut self.partition_rng);
        let next = now + SimDuration::from_secs_f64(gap);
        if next.as_secs_f64() <= cfg.horizon_secs {
            self.queue.schedule(next, Event::PartitionStart);
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

    /// Reconnect reconciliation: every dispatch lost on the wire is
    /// rolled back attempt-exactly (the node never ran it, so no epoch
    /// bump is needed — no Finish exists to fence) and its task
    /// re-queued. Called whenever cut links come back: flap suspension
    /// and heal.
    fn drain_lost_dispatches(&mut self, now: SimTime) {
        let Some(p) = &mut self.partition else { return };
        if p.lost_dispatches.is_empty() {
            return;
        }
        let lost = std::mem::take(&mut p.lost_dispatches);
        let mut displaced = BTreeSet::new();
        for e in lost {
            let st = &mut self.exec_state[e.index()];
            if st.dead {
                continue; // belief-killed meanwhile; rollback already done
            }
            let Some(running) = st.running.take() else {
                continue;
            };
            st.idle_since = now;
            if running.remote_input {
                self.remote_reads_in_flight = self
                    .remote_reads_in_flight
                    .checked_sub(1)
                    .expect("remote-read counter underflow"); // lint: allow(panic) — the counter was incremented when the launch was accounted
            }
            self.metrics.partition_work_discarded += 1;
            if self.on_attempt_killed(&running, now) {
                displaced.insert((running.job_idx, running.stage, running.task));
            }
        }
        if !displaced.is_empty() {
            self.open_disruptions.push((now, displaced));
        }
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
            let st = &self.exec_state[e.index()];
            if !st.dead && st.running.is_some() {
                self.metrics.partition_work_discarded += 1;
            }
        }
    }

    /// Whether an open split currently suppresses new health-detector
    /// quarantines: with part of the cluster unreachable the
    /// peer-relative comparison pool is skewed, and the cut has already
    /// removed capacity the guard must not remove more of.
    pub(super) fn partition_suppresses_quarantine(&self) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|p| p.connectivity.split_active())
    }

    /// After a heal, watches the master's beliefs about the former
    /// minority until they settle: every rejoined node is either
    /// genuinely down (suspicion is then the *correct* belief) or fully
    /// reinstated on both channels with all its executors believed
    /// alive. The heal → settled interval is the time-to-reconverge
    /// metric.
    pub(super) fn check_partition_reconverge(&mut self, now: SimTime) {
        let Some(p) = &self.partition else { return };
        let Some((healed_at, minority)) = &p.awaiting_reconverge else {
            return;
        };
        let healed_at = *healed_at;
        let settled = minority.iter().all(|&node| {
            if self.node_down[node.index()].is_some() {
                return true;
            }
            let Some(d) = &self.detector else { return true };
            if d.exec_suspected[node.index()] || d.dfs_suspected[node.index()] {
                return false;
            }
            self.cluster
                .executors_on(node)
                .iter()
                .all(|&e| !self.exec_state[e.index()].dead)
        });
        if settled {
            self.metrics
                .partition_reconverge_secs
                .push(now.saturating_since(healed_at).as_secs_f64());
            self.partition
                .as_mut()
                .expect("layer checked above") // lint: allow(panic) — guarded by the let-else at the top
                .awaiting_reconverge = None;
        }
    }
}
