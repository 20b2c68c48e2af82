//! Timeout-based failure detection over a lossy control plane.
//!
//! In oracle mode the driver *knows* a machine died the instant it does.
//! With a [`ControlPlaneConfig`](crate::ControlPlaneConfig) that knowledge
//! is replaced by belief: every node emits heartbeats through a channel
//! that drops and delays them, and the master only ever *suspects* a node
//! after a full suspicion timeout of silence. Belief can be wrong in both
//! directions, and the machinery here keeps the simulation consistent
//! anyway:
//!
//! * **False suspicion** — heartbeats were merely lost. The node's
//!   executors are killed *in the master's belief* (their work is
//!   re-queued, their epochs bumped) and the DataNode's replicas are
//!   re-replicated, exactly as a real master would over-react. The next
//!   heartbeat that gets through reinstates the node; epoch fencing
//!   guarantees no completion from the disowned incarnation is accepted.
//! * **Late detection** — the node is down but not yet suspected. Tasks
//!   may be launched onto it (*doomed launches*); they hold executors
//!   until lease expiry or suspicion cleans them up. The master's locality
//!   accounting stays attempt-exact throughout via
//!   [`Driver::rebind_attempt`](super::Driver::rebind_attempt).
//!
//! Two channels are modeled per node — the executor runtime and the
//! DataNode — because an executor-only fault silences the first while the
//! second keeps beating. Each channel carries a *physical epoch* stamped
//! at emission: a heartbeat whose epoch no longer matches predates a
//! fail/recover transition and is discarded, so a pre-crash heartbeat can
//! never vouch for a dead node.
//!
//! Suspicion timers follow the classic re-arm pattern: one deadline per
//! (node, channel) is armed at `last_heartbeat + timeout`; when it fires
//! early (a heartbeat arrived meanwhile) it re-arms at the earliest
//! instant it could still trip, so exactly one deadline per channel is
//! ever in flight. Leases share one global timer armed at the earliest
//! expiry — a new grant's expiry can never precede an armed deadline
//! because every armed deadline is at most one lease duration away.

use std::collections::BTreeSet;

use custody_cluster::{ExecutorId, LeaseTable};
use custody_dfs::NodeId;
use custody_simcore::dist::{Distribution, Exponential};
use custody_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::config::ControlPlaneConfig;

use super::{Driver, Event, FaultKind, TaskKey};
use custody_cluster::ClusterState;

/// Which per-node heartbeat emitter a heartbeat came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HbChannel {
    /// The executor runtime — silenced by any fault on the node.
    Executor,
    /// The DataNode — survives executor-only faults.
    DataNode,
}

/// Which suspicion timer fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadlineKind {
    /// The executor channel has possibly been silent for the timeout.
    ExecSuspect,
    /// The DataNode channel has possibly been silent for the timeout.
    DfsSuspect,
}

/// The master's belief state plus the physical-truth bookkeeping needed
/// to score it (detection latency, false suspicions, data loss).
///
/// Belief lives in `exec_suspected` / `dfs_suspected` / the executors'
/// `dead` flags; physical truth lives in `Driver::node_down` and the
/// `phys_*` fields here. The invariant auditor checks the two sides stay
/// coupled exactly as documented on each field.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DetectorState {
    /// The control-plane parameters (non-perfect by construction).
    pub cp: ControlPlaneConfig,
    /// Heartbeat drop and delay draws (the `"control-plane"` stream).
    rng: SimRng,
    /// Latest executor-channel heartbeat arrival per node.
    pub last_exec_hb: Vec<SimTime>,
    /// Latest DataNode-channel heartbeat arrival per node.
    pub last_dfs_hb: Vec<SimTime>,
    /// Belief: the node's executors are considered dead.
    pub exec_suspected: Vec<bool>,
    /// Belief: the node's DataNode is considered dead (its replicas were
    /// dropped and re-replication ran).
    pub dfs_suspected: Vec<bool>,
    /// Physical truth: the node's disk contents are actually gone (a
    /// machine fault destroyed them). A blip the detector never noticed
    /// resets this at recovery — the disk came back intact.
    pub data_lost: Vec<bool>,
    /// When the node last went physically down (for detection latency).
    pub phys_down_at: Vec<SimTime>,
    /// Physical incarnation of the executor channel; bumped on every
    /// fail *and* recover so in-flight heartbeats from the old
    /// incarnation are discarded on arrival.
    pub phys_epoch_exec: Vec<u64>,
    /// Physical incarnation of the DataNode channel (machine faults only).
    pub phys_epoch_dfs: Vec<u64>,
    /// Whether a `HeartbeatTick` is pending for the node. Ticks stop when
    /// the machine is down (nothing can emit) or the run has drained;
    /// recovery restarts them iff stopped.
    pub hb_tick_active: Vec<bool>,
    /// Whether a `DetectorDeadline{ExecSuspect}` is pending per node.
    /// Invariant while the run is live: armed ⟺ not suspected.
    pub exec_deadline_armed: Vec<bool>,
    /// Whether a `DetectorDeadline{DfsSuspect}` is pending per node.
    pub dfs_deadline_armed: Vec<bool>,
    /// Per-executor: belief-killed by lease revocation (as opposed to
    /// node suspicion). The next heartbeat from its node reinstates it.
    pub revoked: Vec<bool>,
    /// Live executor grants and their expiry times.
    pub leases: LeaseTable,
    /// When the single pending `LeaseExpiry` event fires, if any.
    pub lease_deadline_at: Option<SimTime>,
}

impl DetectorState {
    /// Seeds the `"control-plane"` stream and arms every node's first
    /// heartbeat tick and both suspicion deadlines. `None` for a perfect
    /// control plane, which folds to the oracle: no heartbeat events
    /// exist at all.
    pub(crate) fn new(
        cp: ControlPlaneConfig,
        seed: u64,
        cluster: &ClusterState,
        queue: &mut EventQueue<Event>,
    ) -> Option<Self> {
        if cp.is_perfect() {
            return None;
        }
        let num_nodes = cluster.num_nodes();
        let tick = SimTime::ZERO + SimDuration::from_secs_f64(cp.heartbeat_interval_secs);
        let deadline = SimTime::ZERO + SimDuration::from_secs_f64(cp.suspicion_timeout_secs);
        for n in 0..num_nodes {
            let node = NodeId::new(n);
            queue.schedule(tick, Event::HeartbeatTick { node });
            for kind in [DeadlineKind::ExecSuspect, DeadlineKind::DfsSuspect] {
                queue.schedule(deadline, Event::DetectorDeadline { node, kind });
            }
        }
        Some(DetectorState {
            cp,
            rng: SimRng::for_stream(seed, "control-plane"),
            last_exec_hb: vec![SimTime::ZERO; num_nodes],
            last_dfs_hb: vec![SimTime::ZERO; num_nodes],
            exec_suspected: vec![false; num_nodes],
            dfs_suspected: vec![false; num_nodes],
            data_lost: vec![false; num_nodes],
            phys_down_at: vec![SimTime::ZERO; num_nodes],
            phys_epoch_exec: vec![0; num_nodes],
            phys_epoch_dfs: vec![0; num_nodes],
            hb_tick_active: vec![true; num_nodes],
            exec_deadline_armed: vec![true; num_nodes],
            dfs_deadline_armed: vec![true; num_nodes],
            revoked: vec![false; cluster.num_executors()],
            leases: LeaseTable::new(),
            lease_deadline_at: None,
        })
    }

    /// One lossy, delayed hop through the control plane: `None` if the
    /// heartbeat was dropped, else its network delay.
    fn channel_hop(&mut self) -> Option<SimDuration> {
        if self.rng.chance(self.cp.drop_probability) {
            return None;
        }
        // Exponential::with_mean rejects a zero mean; zero delay is a
        // legal config meaning "lossy but instant".
        let delay = if self.cp.mean_delay_secs > 0.0 {
            Exponential::with_mean(self.cp.mean_delay_secs).sample(&mut self.rng)
        } else {
            0.0
        };
        Some(SimDuration::from_secs_f64(delay))
    }

    fn timeout(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.cp.suspicion_timeout_secs)
    }

    /// Physical failure in detector mode: record truth and bump the
    /// channels' incarnation epochs so in-flight heartbeats from the dead
    /// incarnation are fenced — and change *nothing* about the master's
    /// belief. Only heartbeat silence does that.
    pub(super) fn phys_fail(&mut self, node: NodeId, now: SimTime, kind: FaultKind) {
        self.phys_down_at[node.index()] = now;
        self.phys_epoch_exec[node.index()] += 1;
        if kind == FaultKind::Machine {
            self.phys_epoch_dfs[node.index()] += 1;
            self.data_lost[node.index()] = true;
        }
    }

    /// Physical recovery in detector mode: a fresh incarnation starts
    /// beating. A blip the master never suspected needs no belief change
    /// at all (and if the blip was a machine fault it never noticed, the
    /// disk came back intact: nothing was re-replicated, nothing is
    /// lost). Returns whether the node's heartbeat tick had stopped and
    /// must be restarted.
    pub(super) fn phys_recover(&mut self, node: NodeId, kind: FaultKind) -> bool {
        if kind == FaultKind::Machine && !self.dfs_suspected[node.index()] {
            self.data_lost[node.index()] = false;
        }
        self.phys_epoch_exec[node.index()] += 1;
        if kind == FaultKind::Machine {
            self.phys_epoch_dfs[node.index()] += 1;
        }
        !std::mem::replace(&mut self.hb_tick_active[node.index()], true)
    }
}

impl Driver {
    /// Bumps the epoch of every executor on `node` at a physical fail or
    /// recover in detector mode: the incarnation running any current
    /// attempt is gone, so its Finish (if ever scheduled) must not be
    /// accepted, and attempts the master launched into it are reaped as
    /// ghosts by the next heartbeat.
    pub(super) fn fence_executors_on(&mut self, node: NodeId) {
        for &e in self.cluster.executors_on(node) {
            self.exec_state[e.index()].epoch += 1;
        }
    }

    /// A node's heartbeat emitter fires: put one heartbeat per live
    /// channel on the wire (each independently dropped/delayed) and
    /// schedule the next tick.
    pub(super) fn on_heartbeat_tick(&mut self, node: NodeId, now: SimTime) {
        let idle = self.drained();
        let machine_down = self.node_down[node.index()] == Some(FaultKind::Machine);
        let exec_up = self.node_down[node.index()].is_none();
        // Partition cut: the node still emits (the drop/delay draws below
        // happen identically, keeping the "control-plane" stream aligned),
        // but a heartbeat that cannot cross the cut is lost on the wire.
        let reaches_master = self
            .partition
            .as_ref()
            .is_none_or(|p| p.connectivity.node_reaches_master(node));
        let Some(d) = &mut self.detector else {
            unreachable!("heartbeat tick without a detector") // lint: allow(panic) — heartbeat ticks exist only in detector mode
        };
        if idle || machine_down {
            // A down machine emits nothing; recovery restarts the tick.
            d.hb_tick_active[node.index()] = false;
            return;
        }
        // The DataNode still beats through an executor-only fault.
        let channels = [
            (
                HbChannel::Executor,
                exec_up,
                d.phys_epoch_exec[node.index()],
            ),
            (HbChannel::DataNode, true, d.phys_epoch_dfs[node.index()]),
        ];
        for (channel, beating, phys_epoch) in channels {
            if !beating {
                continue;
            }
            if let Some(delay) = d.channel_hop() {
                if reaches_master {
                    let arrive = Event::HeartbeatArrive {
                        node,
                        channel,
                        phys_epoch,
                    };
                    self.queue.schedule(now + delay, arrive);
                }
            }
        }
        self.queue.schedule(
            now + SimDuration::from_secs_f64(d.cp.heartbeat_interval_secs),
            Event::HeartbeatTick { node },
        );
    }

    /// An executor-channel heartbeat reaches the master: renew the node's
    /// leases, reinstate belief-dead executors, and reap ghost attempts
    /// left over from incarnations that died while the master looked away.
    pub(super) fn on_exec_heartbeat(&mut self, node: NodeId, phys_epoch: u64, now: SimTime) {
        let d = self.detector.as_mut().expect("heartbeat without detector"); // lint: allow(panic) — heartbeat events exist only in detector mode
        if phys_epoch != d.phys_epoch_exec[node.index()] {
            return; // emitted by an incarnation that has since died
        }
        d.last_exec_hb[node.index()] = d.last_exec_hb[node.index()].max(now);
        let renew_to = now + SimDuration::from_secs_f64(d.cp.lease_duration_secs);
        let timeout = d.timeout();
        let was_suspected = d.exec_suspected[node.index()];
        let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
        let mut reinstated = false;
        for &e in &executors {
            d.leases.renew(e, renew_to);
            let st = &mut self.exec_state[e.index()];
            if st.dead {
                // Belief-dead can only mean suspected or lease-revoked;
                // this heartbeat proves the incarnation alive either way.
                debug_assert!(was_suspected || d.revoked[e.index()]);
                debug_assert!(st.running.is_none() && st.owner.is_none());
                st.dead = false;
                st.idle_since = now;
                self.pool.insert(e.index());
                d.revoked[e.index()] = false;
                reinstated = true;
            }
        }
        if was_suspected {
            d.exec_suspected[node.index()] = false;
            // Suspicion left the deadline disarmed; restart the watch.
            debug_assert!(!d.exec_deadline_armed[node.index()]);
            d.exec_deadline_armed[node.index()] = true;
            self.queue.schedule(
                now + timeout,
                Event::DetectorDeadline {
                    node,
                    kind: DeadlineKind::ExecSuspect,
                },
            );
        }
        if reinstated {
            self.cache.mark_pool_changed();
        }
        // Ghost reaping: a running attempt whose launch epoch no longer
        // matches belongs to an incarnation that restarted underneath the
        // master (a blip too short to suspect, or a doomed launch onto a
        // down node that has since recovered). Its Finish is fenced or
        // was never scheduled; re-queue the task now.
        let mut displaced: BTreeSet<TaskKey> = BTreeSet::new();
        for &e in &executors {
            let st = &self.exec_state[e.index()];
            if !st.dead && st.running.is_some_and(|r| r.launch_epoch != st.epoch) {
                self.abandon_attempt(e, now, &mut displaced);
            }
        }
        if !displaced.is_empty() {
            self.open_disruptions.push((now, displaced));
        }
    }

    /// A DataNode-channel heartbeat reaches the master: a falsely (or
    /// stalely) suspected DataNode is reinstated — with its data if the
    /// disk actually survived, empty if the suspicion was right and the
    /// node came back wiped.
    pub(super) fn on_dfs_heartbeat(&mut self, node: NodeId, phys_epoch: u64, now: SimTime) {
        let d = self.detector.as_mut().expect("heartbeat without detector"); // lint: allow(panic) — heartbeat events exist only in detector mode
        if phys_epoch != d.phys_epoch_dfs[node.index()] {
            return;
        }
        d.last_dfs_hb[node.index()] = d.last_dfs_hb[node.index()].max(now);
        if !d.dfs_suspected[node.index()] {
            return;
        }
        d.dfs_suspected[node.index()] = false;
        let survived = !d.data_lost[node.index()];
        // Whatever incarnation is beating now has an intact (possibly
        // empty) disk going forward.
        d.data_lost[node.index()] = false;
        debug_assert!(!d.dfs_deadline_armed[node.index()]);
        d.dfs_deadline_armed[node.index()] = true;
        let timeout = d.timeout();
        self.queue.schedule(
            now + timeout,
            Event::DetectorDeadline {
                node,
                kind: DeadlineKind::DfsSuspect,
            },
        );
        let readded = self.namenode.reinstate_node(node, survived);
        if readded > 0 {
            // Replicas reappeared; unlaunched tasks may prefer them —
            // and a tombstoned block may have just regained an intact
            // copy, un-parking its waiting tasks.
            self.refresh_all_preferred();
            self.durability_recheck_unavailable();
        }
    }

    /// A suspicion timer fires. If the channel really has been silent for
    /// the whole timeout the node is suspected; otherwise re-arm at the
    /// earliest instant the timeout could still trip.
    pub(super) fn on_detector_deadline(&mut self, node: NodeId, kind: DeadlineKind, now: SimTime) {
        let idle = self.drained();
        let d = self.detector.as_mut().expect("deadline without detector"); // lint: allow(panic) — deadline events exist only in detector mode
        let timeout = d.timeout();
        let n = node.index();
        let (armed, last_hb, suspected) = match kind {
            DeadlineKind::ExecSuspect => (
                &mut d.exec_deadline_armed[n],
                d.last_exec_hb[n],
                &mut d.exec_suspected[n],
            ),
            DeadlineKind::DfsSuspect => (
                &mut d.dfs_deadline_armed[n],
                d.last_dfs_hb[n],
                &mut d.dfs_suspected[n],
            ),
        };
        debug_assert!(*armed, "deadline fired while disarmed");
        *armed = false;
        if idle {
            return; // the run has drained; stop the timer chain
        }
        if last_hb + timeout > now {
            // A heartbeat arrived since this deadline was set.
            *armed = true;
            self.queue
                .schedule(last_hb + timeout, Event::DetectorDeadline { node, kind });
            return;
        }
        debug_assert!(!*suspected);
        *suspected = true;
        let down_at = d.phys_down_at[node.index()];
        match kind {
            DeadlineKind::ExecSuspect => self.suspect_executors(node, down_at, now),
            DeadlineKind::DfsSuspect => {
                let lost = d.data_lost[node.index()];
                self.suspect_datanode(node, down_at, lost, now);
            }
        }
    }

    /// The master gave up on a node's executors: belief-kill them all,
    /// re-queueing their work. Scored as detection latency (from the
    /// node's physical failure at `down_at`) if the node is really down,
    /// as a false suspicion if it is not.
    fn suspect_executors(&mut self, node: NodeId, down_at: SimTime, now: SimTime) {
        if self.node_down[node.index()].is_some() {
            self.metrics
                .detection_latency_secs
                .push(now.saturating_since(down_at).as_secs_f64());
        } else {
            self.metrics.false_suspicions += 1;
        }
        // Work still physically running behind the cut is about to be
        // fenced and re-run: score it as partition-discarded.
        let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
        self.note_minority_discards(&executors);
        self.kill_executors_on(node, now);
        self.cache.mark_pool_changed();
    }

    /// The master gave up on a node's DataNode: drop its replicas and
    /// re-replicate, exactly as HDFS does on DataNode timeout. Blocks
    /// whose last replica lived there are only *actually* lost if the
    /// disk is physically gone (`lost`).
    fn suspect_datanode(&mut self, node: NodeId, down_at: SimTime, lost: bool, now: SimTime) {
        if self.node_down[node.index()] == Some(FaultKind::Machine) {
            self.metrics
                .detection_latency_secs
                .push(now.saturating_since(down_at).as_secs_f64());
        } else {
            self.metrics.false_suspicions += 1;
        }
        let pinned = self.namenode.suspect_node(node);
        if lost {
            self.metrics.blocks_lost += pinned.len();
        }
        // Suspicion storms (a whole minority timing out together) and
        // corruption drops share the unified repair queue: paced batches
        // whenever a pacing layer is active, the historical instant
        // restore otherwise.
        self.schedule_repair(now);
        self.refresh_all_preferred();
    }

    /// The earliest lease may have expired: revoke every lease that ran
    /// out without renewal (belief-killing the executor and re-queueing
    /// its task), then re-arm at the new earliest expiry.
    pub(super) fn on_lease_expiry(&mut self, now: SimTime) {
        let d = self
            .detector
            .as_mut()
            .expect("lease expiry without detector"); // lint: allow(panic) — lease expiries exist only in detector mode
        debug_assert_eq!(d.lease_deadline_at, Some(now), "stale lease timer");
        d.lease_deadline_at = None;
        // One atomic revocation sweep: the table drops every expired
        // lease before any kill runs, so a mid-sweep observer (the
        // auditor, a checkpoint) never sees a half-dropped table.
        let expired = d.leases.take_expired(now);
        for &e in &expired {
            d.revoked[e.index()] = true;
        }
        // Re-arm at the new earliest expiry. The kills below drop only
        // the leases just taken, so it is already final here.
        if let Some(next) = d.leases.next_expiry() {
            d.lease_deadline_at = Some(next);
            self.queue.schedule(next, Event::LeaseExpiry);
        }
        // Leases expiring under a cut fence live minority work.
        self.note_minority_discards(&expired);
        let mut displaced: BTreeSet<TaskKey> = BTreeSet::new();
        for &e in &expired {
            self.metrics.leases_revoked += 1;
            // Drops the lease as part of the kill.
            self.kill_executor(e, now, &mut displaced);
        }
        if !displaced.is_empty() {
            self.open_disruptions.push((now, displaced));
        }
        if !expired.is_empty() {
            self.cache.mark_pool_changed();
        }
    }
}
