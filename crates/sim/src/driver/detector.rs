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

use super::{unrouted, Driver, Event, FaultKind, TaskKey};
use custody_cluster::ClusterState;

/// The control plane's events (see their handling in
/// `Driver::on_detector_event`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DetectorEvent {
    /// A node's heartbeat emitter fires.
    HeartbeatTick { node: NodeId },
    /// A heartbeat reaches the master. `phys_epoch` is the channel's
    /// physical incarnation at emission: a mismatch marks it stale.
    HeartbeatArrive {
        node: NodeId,
        channel: HbChannel,
        phys_epoch: u64,
    },
    /// A suspicion timer fires.
    Deadline { node: NodeId, kind: DeadlineKind },
    /// The earliest-expiring lease may have run out.
    LeaseExpiry,
}

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
    /// Whether a `Deadline { kind: ExecSuspect }` is pending per node.
    /// Invariant while the run is live: armed ⟺ not suspected.
    pub exec_deadline_armed: Vec<bool>,
    /// Whether a `Deadline { kind: DfsSuspect }` is pending per node.
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
            queue.schedule(tick, Event::Detector(DetectorEvent::HeartbeatTick { node }));
            for kind in [DeadlineKind::ExecSuspect, DeadlineKind::DfsSuspect] {
                queue.schedule(
                    deadline,
                    Event::Detector(DetectorEvent::Deadline { node, kind }),
                );
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

    /// Routes one control-plane event: the detector is taken from its
    /// field once, then the event's effects on the rest of the driver
    /// follow.
    pub(super) fn on_detector_event(&mut self, ev: DetectorEvent, now: SimTime) {
        // The self-rescheduling timers stop once the run drains.
        let drained = matches!(
            ev,
            DetectorEvent::HeartbeatTick { .. } | DetectorEvent::Deadline { .. }
        ) && self.drained();
        let Some(d) = &mut self.detector else {
            unrouted(Event::Detector(ev))
        };
        let timeout = d.timeout();
        match ev {
            // A node's heartbeat emitter fires: put one heartbeat per
            // live channel on the wire (each independently
            // dropped/delayed) and schedule the next tick.
            DetectorEvent::HeartbeatTick { node } => {
                let n = node.index();
                let down = self.node_down[n];
                if drained || down == Some(FaultKind::Machine) {
                    // A down machine emits nothing; recovery restarts the
                    // tick.
                    d.hb_tick_active[n] = false;
                    return;
                }
                // Partition cut: the node still emits (the drop/delay
                // draws below happen identically, keeping the
                // "control-plane" stream aligned), but a heartbeat that
                // cannot cross the cut is lost on the wire.
                let reaches_master = self
                    .partition
                    .as_ref()
                    .is_none_or(|p| p.connectivity.node_reaches_master(node));
                // The DataNode still beats through an executor-only fault.
                let channels = [
                    (HbChannel::Executor, down.is_none(), d.phys_epoch_exec[n]),
                    (HbChannel::DataNode, true, d.phys_epoch_dfs[n]),
                ];
                for (channel, beating, phys_epoch) in channels {
                    if !beating {
                        continue;
                    }
                    if let Some(delay) = d.channel_hop() {
                        if reaches_master {
                            let arrive = DetectorEvent::HeartbeatArrive {
                                node,
                                channel,
                                phys_epoch,
                            };
                            self.queue.schedule(now + delay, Event::Detector(arrive));
                        }
                    }
                }
                let tick = DetectorEvent::HeartbeatTick { node };
                let interval = SimDuration::from_secs_f64(d.cp.heartbeat_interval_secs);
                self.queue.schedule(now + interval, Event::Detector(tick));
            }
            // An executor-channel heartbeat reaches the master: renew the
            // node's leases, reinstate belief-dead executors, and reap
            // ghost attempts left over from incarnations that died while
            // the master looked away.
            DetectorEvent::HeartbeatArrive {
                node,
                channel: HbChannel::Executor,
                phys_epoch,
            } => {
                let n = node.index();
                if phys_epoch != d.phys_epoch_exec[n] {
                    return; // emitted by an incarnation that has since died
                }
                d.last_exec_hb[n] = d.last_exec_hb[n].max(now);
                let renew_to = now + SimDuration::from_secs_f64(d.cp.lease_duration_secs);
                let was_suspected = d.exec_suspected[n];
                let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
                let mut reinstated = false;
                for &e in &executors {
                    d.leases.renew(e, renew_to);
                    let st = &mut self.exec_state[e.index()];
                    if st.dead {
                        // Belief-dead can only mean suspected or
                        // lease-revoked; this heartbeat proves the
                        // incarnation alive either way.
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
                    d.exec_suspected[n] = false;
                    // Suspicion left the deadline disarmed; restart the
                    // watch.
                    debug_assert!(!d.exec_deadline_armed[n]);
                    d.exec_deadline_armed[n] = true;
                    let kind = DeadlineKind::ExecSuspect;
                    let deadline = DetectorEvent::Deadline { node, kind };
                    self.queue
                        .schedule(now + timeout, Event::Detector(deadline));
                }
                if reinstated {
                    self.cache.mark_pool_changed();
                }
                // Ghost reaping: a running attempt whose launch epoch no
                // longer matches belongs to an incarnation that restarted
                // underneath the master (a blip too short to suspect, or
                // a doomed launch onto a down node that has since
                // recovered). Its Finish is fenced or was never
                // scheduled; re-queue the task now.
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
            // A DataNode-channel heartbeat reaches the master: a falsely
            // (or stalely) suspected DataNode is reinstated — with its
            // data if the disk actually survived, empty if the suspicion
            // was right and the node came back wiped.
            DetectorEvent::HeartbeatArrive {
                node,
                channel: HbChannel::DataNode,
                phys_epoch,
            } => {
                let n = node.index();
                if phys_epoch != d.phys_epoch_dfs[n] {
                    return;
                }
                d.last_dfs_hb[n] = d.last_dfs_hb[n].max(now);
                if !d.dfs_suspected[n] {
                    return;
                }
                d.dfs_suspected[n] = false;
                let survived = !d.data_lost[n];
                // Whatever incarnation is beating now has an intact
                // (possibly empty) disk going forward.
                d.data_lost[n] = false;
                debug_assert!(!d.dfs_deadline_armed[n]);
                d.dfs_deadline_armed[n] = true;
                let kind = DeadlineKind::DfsSuspect;
                let deadline = DetectorEvent::Deadline { node, kind };
                self.queue
                    .schedule(now + timeout, Event::Detector(deadline));
                if self.namenode.reinstate_node(node, survived) > 0 {
                    // Replicas reappeared; unlaunched tasks may prefer
                    // them — and a tombstoned block may have just regained
                    // an intact copy, un-parking its waiting tasks.
                    self.refresh_all_preferred();
                    self.durability_recheck_unavailable();
                }
            }
            // A suspicion timer fires. If the channel really has been
            // silent for the whole timeout the node is suspected;
            // otherwise re-arm at the earliest instant the timeout could
            // still trip.
            DetectorEvent::Deadline { node, kind } => {
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
                if drained {
                    return; // the run has drained; stop the timer chain
                }
                if last_hb + timeout > now {
                    // A heartbeat arrived since this deadline was set.
                    *armed = true;
                    let deadline = DetectorEvent::Deadline { node, kind };
                    self.queue
                        .schedule(last_hb + timeout, Event::Detector(deadline));
                    return;
                }
                debug_assert!(!*suspected);
                *suspected = true;
                // Scored as detection latency (from the node's physical
                // failure) if the channel is really down, as a false
                // suspicion if it is not.
                let really_down = match kind {
                    DeadlineKind::ExecSuspect => self.node_down[n].is_some(),
                    DeadlineKind::DfsSuspect => self.node_down[n] == Some(FaultKind::Machine),
                };
                if really_down {
                    let latency = now.saturating_since(d.phys_down_at[n]);
                    self.metrics
                        .detection_latency_secs
                        .push(latency.as_secs_f64());
                } else {
                    self.metrics.false_suspicions += 1;
                }
                let lost = d.data_lost[n];
                match kind {
                    DeadlineKind::ExecSuspect => self.suspect_executors(node, now),
                    DeadlineKind::DfsSuspect => self.suspect_datanode(node, lost, now),
                }
            }
            // The earliest lease may have expired: revoke every lease that
            // ran out without renewal (belief-killing the executor and
            // re-queueing its task), then re-arm at the new earliest
            // expiry.
            DetectorEvent::LeaseExpiry => {
                debug_assert_eq!(d.lease_deadline_at, Some(now), "stale lease timer");
                d.lease_deadline_at = None;
                // One atomic revocation sweep: the table drops every
                // expired lease before any kill runs, so a mid-sweep
                // observer (the auditor, a checkpoint) never sees a
                // half-dropped table.
                let expired = d.leases.take_expired(now);
                for &e in &expired {
                    d.revoked[e.index()] = true;
                }
                // Re-arm at the new earliest expiry. The kills below drop
                // only the leases just taken, so it is already final here.
                if let Some(next) = d.leases.next_expiry() {
                    d.lease_deadline_at = Some(next);
                    self.queue
                        .schedule(next, Event::Detector(DetectorEvent::LeaseExpiry));
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
    }

    /// The master gave up on a node's executors: belief-kill them all,
    /// re-queueing their work.
    fn suspect_executors(&mut self, node: NodeId, now: SimTime) {
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
    fn suspect_datanode(&mut self, node: NodeId, lost: bool, now: SimTime) {
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
}
