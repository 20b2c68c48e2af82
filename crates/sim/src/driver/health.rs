//! Gray failures: fail-slow nodes, transient task faults, and the
//! peer-relative health detector.
//!
//! Crash-stop failures are binary and the detector of `detector.rs` sees
//! them as *silence*. Gray failures are worse: a node whose disk, NIC or
//! CPU silently degrades keeps heartbeating, so the control plane sees a
//! perfectly healthy machine — while every task it runs takes several
//! times longer, and data-aware allocation keeps steering "local" work
//! onto it. This module models both sides of that problem:
//!
//! * **Physical truth** — a seeded subset of nodes develops slowdown
//!   episodes ([`Sickness`]) with a *cause* that decides which service-time
//!   component inflates: a sick disk multiplies local reads, a sick NIC
//!   multiplies remote reads and shuffles, a sick CPU multiplies compute.
//!   Episodes either persist or remit and relapse. All draws come from
//!   the dedicated `"failslow"` stream so every other seeded schedule is
//!   untouched.
//! * **Belief** — when detection is on, the master compares each node's
//!   mean task service time against the cluster median of per-node means
//!   (no oracle access: only completed-task observations). Nodes whose
//!   ratio crosses the configured thresholds walk the graceful-degradation
//!   state machine of [`HealthState`]: healthy → suspect (demoted in the
//!   allocator's pick order) → quarantined (excluded from placement and
//!   speculation) → probation (a few probe tasks earn re-admission or a
//!   fresh quarantine).
//!
//! Belief can be wrong in both directions and the driver scores it:
//! `false_quarantines` counts nodes quarantined while physically fine,
//! `quarantine_latency_secs` measures onset-to-quarantine for the true
//! positives. The peer-relative scheme is deliberately blind to a
//! uniformly slow cluster — with no healthy peers the median itself
//! shifts — which is the documented limitation of real-world fail-slow
//! detectors this reproduces.

use std::collections::VecDeque;

use custody_cluster::HealthState;
use custody_core::HealthCost;
use custody_dfs::NodeId;
use custody_scheduler::RetryPolicy;
use custody_simcore::dist::{Distribution, Exponential};
use custody_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::config::FailSlowConfig;
use crate::metrics::RunMetrics;

use super::{schedule_arrival, unrouted, Driver, Event, FaultKind};

/// The gray-failure layer's events (see `Driver::on_health_event`).
/// Onsets and remissions carry the node's drawn cause, so only a
/// profiled node can ever sicken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum HealthEvent {
    Onset { node: NodeId, cause: SlowCause },
    Remit { node: NodeId, cause: SlowCause },
    ProbationStart { node: NodeId },
}

/// Which component of a sick node degraded — decides which service-time
/// term the slowdown factor multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlowCause {
    /// Degraded disk: local input reads slow down.
    Disk,
    /// Degraded NIC: remote reads and shuffles slow down.
    Nic,
    /// Throttled CPU: compute slows down.
    Cpu,
}

/// An active fail-slow episode on one node (ground truth, invisible to
/// the detector).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sickness {
    /// What degraded.
    pub cause: SlowCause,
    /// When the episode began.
    pub since: SimTime,
}

/// The detector's belief about one node, derived purely from observed
/// task service times.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeBelief {
    /// Current position in the graceful-degradation state machine.
    pub state: HealthState,
    /// Sliding window of completed-task service times on this node.
    pub samples: VecDeque<f64>,
    /// Probe launches granted since probation began (placement on a
    /// probation node is capped at the configured probe count, so one
    /// flapping node cannot soak up real work between re-quarantines).
    pub probes_started: usize,
    /// Probe completions served since probation began.
    pub probes_done: usize,
    /// When the node was last quarantined.
    pub quarantined_at: SimTime,
    /// The node's bucketed health cost (soft demotion): refreshed from
    /// the peer ratio on every observation, fed to the allocator for
    /// demoted states. Neutral while healthy or quarantined.
    pub cost: HealthCost,
}

/// The whole gray-failure layer: configuration, per-node physical
/// sickness, and per-node belief. Lives on the driver only when the
/// configured [`FailSlowConfig`] actually injects something —
/// [`FailSlowConfig::is_inert`] keeps the layer off entirely, making an
/// inert config event-for-event identical to no config at all.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HealthLayer {
    /// The gray-failure parameters (non-inert by construction).
    pub cfg: FailSlowConfig,
    /// Physical truth per node: its active episode, `None` while it
    /// runs at full speed.
    pub sickness: Vec<Option<Sickness>>,
    /// Belief per node (only advanced when detection is on).
    pub belief: Vec<NodeBelief>,
    /// The retry policy transient faults consume budget against.
    pub retry: RetryPolicy,
    /// Fail-slow draws: sick set, causes, onsets, episode lengths (the
    /// `"failslow"` stream).
    rng: SimRng,
    /// Transient-fault coins and retry-backoff jitter (the
    /// `"task-faults"` stream).
    pub fault_rng: SimRng,
    /// Bumped whenever a belief's state, cost or `probes_started`
    /// changes: equal readings mean `Driver::node_schedulable` and the
    /// demotion cost table are unchanged in between.
    pub generation: u64,
}

impl HealthLayer {
    /// Seeds the `"failslow"` and `"task-faults"` streams, draws the
    /// sick-node set, their causes and their first onsets, and schedules
    /// a health `Onset` per sick node (within the horizon). `None` for an
    /// inert config: the layer never exists, so the run is
    /// event-for-event the oracle.
    pub(crate) fn new(
        cfg: FailSlowConfig,
        seed: u64,
        num_nodes: usize,
        queue: &mut custody_simcore::EventQueue<Event>,
    ) -> Option<Self> {
        if cfg.is_inert() {
            return None;
        }
        let mut rng = SimRng::for_stream(seed, "failslow");
        let num_sick = ((cfg.sick_fraction * num_nodes as f64).round() as usize).min(num_nodes);
        for n in rng.choose_distinct(num_nodes, num_sick) {
            let u = rng.unit();
            let cause = if u < cfg.disk_fraction {
                SlowCause::Disk
            } else if u < cfg.disk_fraction + cfg.nic_fraction {
                SlowCause::Nic
            } else {
                SlowCause::Cpu
            };
            schedule_arrival(
                queue,
                &mut rng,
                cfg.mean_onset_secs,
                cfg.horizon_secs,
                None,
                Event::Health(HealthEvent::Onset {
                    node: NodeId::new(n),
                    cause,
                }),
            );
        }
        Some(HealthLayer {
            cfg,
            sickness: vec![None; num_nodes],
            belief: vec![
                NodeBelief {
                    state: HealthState::Healthy,
                    samples: VecDeque::new(),
                    probes_started: 0,
                    probes_done: 0,
                    quarantined_at: SimTime::ZERO,
                    cost: HealthCost::neutral(cfg.cost_scale),
                };
                num_nodes
            ],
            retry: RetryPolicy::new(
                cfg.retry_budget,
                SimDuration::from_secs_f64(cfg.retry_backoff_secs),
                cfg.retry_jitter,
            ),
            rng,
            fault_rng: SimRng::for_stream(seed, "task-faults"),
            generation: 0,
        })
    }

    /// Whether the node's slowdown is currently active (physical truth).
    pub(crate) fn slow_active(&self, node: NodeId) -> bool {
        self.sickness[node.index()].is_some()
    }

    /// Whether the node's active slowdown is a degraded disk — the
    /// replicas corruption arrivals bias toward.
    pub(super) fn disk_slow_active(&self, node: NodeId) -> bool {
        self.sickness[node.index()].is_some_and(|s| s.cause == SlowCause::Disk)
    }

    /// Scales one attempt's service-time components by the node's active
    /// slowdown. `local_read` marks a node-local input read (disk-bound);
    /// everything else crossing the wire (remote reads, shuffles) is
    /// NIC-bound. Compute is scaled independently.
    pub(crate) fn scaled(
        &self,
        node: NodeId,
        local_read: bool,
        io: SimDuration,
        compute: SimDuration,
    ) -> (SimDuration, SimDuration) {
        let Some(s) = self.sickness[node.index()] else {
            return (io, compute);
        };
        let (io_factor, compute_factor) = match s.cause {
            SlowCause::Disk if local_read => (self.cfg.disk_factor, 1.0),
            SlowCause::Disk => (1.0, 1.0),
            SlowCause::Nic if !local_read => (self.cfg.nic_factor, 1.0),
            SlowCause::Nic => (1.0, 1.0),
            SlowCause::Cpu => (1.0, self.cfg.cpu_factor),
        };
        (
            SimDuration::from_secs_f64(io.as_secs_f64() * io_factor),
            SimDuration::from_secs_f64(compute.as_secs_f64() * compute_factor),
        )
    }

    /// Per-attempt transient-fault probability on `node` (elevated while
    /// the node's slowdown is active), capped at one.
    pub(crate) fn fault_probability(&self, node: NodeId) -> f64 {
        let p = if self.slow_active(node) {
            self.cfg.transient_fault_prob * self.cfg.sick_fault_multiplier
        } else {
            self.cfg.transient_fault_prob
        };
        p.min(1.0)
    }

    /// Mean of the node's sample window, if it holds at least `min`
    /// samples.
    fn node_mean(&self, node: usize, min: usize) -> Option<f64> {
        let s = &self.belief[node].samples;
        if s.len() < min {
            return None;
        }
        Some(s.iter().sum::<f64>() / s.len() as f64)
    }

    /// The node's service-time ratio against its peers: node mean divided
    /// by the median of its *peers'* means. The node itself is excluded
    /// from the peer pool — in a small cluster a single slow node would
    /// otherwise drag the median toward itself and suppress its own ratio
    /// — and every peer is gated on the one `cfg.min_samples` threshold
    /// (`node_min` gates only the node's own mean, so probation can judge
    /// on its short probe window). `None` until the node and at least one
    /// peer are measurable.
    pub(super) fn peer_ratio(&self, node: usize, node_min: usize) -> Option<f64> {
        let mine = self.node_mean(node, node_min)?;
        let mut means: Vec<f64> = (0..self.belief.len())
            .filter(|&n| n != node)
            .filter_map(|n| self.node_mean(n, self.cfg.min_samples))
            .collect();
        if means.is_empty() {
            return None; // no peers to be relative to yet
        }
        means.sort_by(f64::total_cmp);
        let median = median_of_sorted(&means);
        if median <= 0.0 {
            return None;
        }
        Some(mine / median)
    }

    /// Records one service-time sample for `node` and returns the belief
    /// state the detector now wants for it, if that is a change.
    /// `Quarantined` is a request the capacity guard may still refuse.
    fn observe(&mut self, node: NodeId, service_secs: f64) -> Option<HealthState> {
        let cfg = self.cfg;
        let b = &mut self.belief[node.index()];
        b.samples.push_back(service_secs);
        while b.samples.len() > cfg.window {
            b.samples.pop_front();
        }
        if b.state == HealthState::Probation {
            b.probes_done += 1;
        }
        let ratio = |min| self.peer_ratio(node.index(), min);
        let b = &self.belief[node.index()];
        match b.state {
            HealthState::Healthy => ratio(cfg.min_samples)
                .filter(|&r| r >= cfg.suspect_ratio)
                .map(|_| HealthState::Suspect),
            HealthState::Suspect => match ratio(cfg.min_samples) {
                Some(r) if r >= cfg.quarantine_ratio => Some(HealthState::Quarantined),
                Some(r) if r < cfg.suspect_ratio => Some(HealthState::Healthy),
                _ => None,
            },
            // In-flight tasks keep completing after quarantine; only the
            // probation timer moves a quarantined node.
            HealthState::Quarantined => None,
            // Judge on the probe window alone (any sample count).
            HealthState::Probation if b.probes_done >= cfg.probation_probes => match ratio(1) {
                Some(r) if r >= cfg.suspect_ratio => Some(HealthState::Quarantined),
                _ => Some(HealthState::Healthy),
            },
            HealthState::Probation => None,
        }
    }

    /// Takes one legal belief transition.
    fn transition(&mut self, node: NodeId, next: HealthState) {
        let b = &mut self.belief[node.index()];
        debug_assert!(
            b.state.can_transition_to(next),
            "illegal health transition {} -> {}",
            b.state.name(),
            next.name()
        );
        b.state = next;
        self.generation += 1;
    }

    /// Quarantines `node` unless doing so would leave half the live
    /// cluster or less schedulable — the capacity guard real quarantine
    /// systems ship with, so a skewed median can never starve the run.
    /// Scores the verdict against physical truth into `metrics` and
    /// returns the probation delay, or `None` when the guard refused.
    fn quarantine(
        &mut self,
        node: NodeId,
        now: SimTime,
        node_down: &[Option<FaultKind>],
        metrics: &mut RunMetrics,
    ) -> Option<SimDuration> {
        // Count live (not crashed) nodes and how many of them currently
        // accept placements; a crashed node must not pad either side.
        let alive = node_down.iter().filter(|d| d.is_none()).count();
        let schedulable = self
            .belief
            .iter()
            .zip(node_down)
            .filter(|(b, down)| b.state.is_schedulable() && down.is_none())
            .count();
        if !quarantine_capacity_allows(schedulable, alive) {
            return None; // capacity guard: keep over half the live cluster
        }
        let last_quarantine = self.belief[node.index()].quarantined_at;
        self.belief[node.index()].quarantined_at = now;
        self.transition(node, HealthState::Quarantined);
        metrics.nodes_quarantined += 1;
        match self.sickness[node.index()] {
            // Detection latency is scored once per episode: a flapping
            // re-quarantine of an already-caught slowdown says nothing
            // about how fast the detector notices.
            Some(s) if last_quarantine < s.since || last_quarantine == SimTime::ZERO => metrics
                .quarantine_latency_secs
                .push(now.saturating_since(s.since).as_secs_f64()),
            Some(_) => {}
            None => metrics.false_quarantines += 1,
        }
        Some(SimDuration::from_secs_f64(self.cfg.probation_delay_secs))
    }

    /// Feeds one completed attempt's service time into the detector
    /// (detection on only) and advances the node's belief state machine.
    /// `split` marks an open partition, during which quarantines back
    /// off.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn observe_service(
        &mut self,
        node: NodeId,
        service_secs: f64,
        now: SimTime,
        split: bool,
        node_down: &[Option<FaultKind>],
        metrics: &mut RunMetrics,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.cfg.detection {
            return;
        }
        match self.observe(node, service_secs) {
            // Peer-relative service-time readings are poisoned while a
            // split is open (the comparison pool is skewed and the cut
            // already removes capacity); back off until the heal.
            Some(HealthState::Quarantined) if !split => {
                if let Some(delay) = self.quarantine(node, now, node_down, metrics) {
                    let probation = HealthEvent::ProbationStart { node };
                    queue.schedule(now + delay, Event::Health(probation));
                }
            }
            Some(HealthState::Quarantined) | None => {}
            Some(next) => self.transition(node, next),
        }
        self.refresh_cost(node);
    }

    /// Re-buckets the node's health cost from its current belief state
    /// and peer ratio (demotion on only). Suspects are priced at their
    /// measured ratio, probationers at the suspect threshold (weak
    /// evidence: the old window was discarded), healthy and quarantined
    /// nodes at neutral. A new bucket moves the generation: costs reorder
    /// placements, so a round must not be replayed across one.
    fn refresh_cost(&mut self, node: NodeId) {
        let cfg = self.cfg;
        if !(cfg.detection && cfg.demotion) {
            return;
        }
        let next = match self.belief[node.index()].state {
            HealthState::Suspect => {
                let ratio = self
                    .peer_ratio(node.index(), cfg.min_samples)
                    .unwrap_or(cfg.suspect_ratio);
                HealthCost::from_ratio(ratio, cfg.cost_scale, cfg.cost_cap_ratio)
            }
            HealthState::Probation => {
                HealthCost::from_ratio(cfg.suspect_ratio, cfg.cost_scale, cfg.cost_cap_ratio)
            }
            HealthState::Healthy | HealthState::Quarantined => HealthCost::neutral(cfg.cost_scale),
        };
        let b = &mut self.belief[node.index()];
        if b.cost != next {
            b.cost = next;
            self.generation += 1;
        }
    }

    /// The per-node cost vector for the allocator (soft demotion): every
    /// demoted-state node with its current bucketed cost. Quarantined
    /// nodes are excluded from placement outright and healthy ones carry
    /// full credit implicitly, so neither appears.
    pub(crate) fn health_costs(&self) -> Vec<(NodeId, HealthCost)> {
        self.belief
            .iter()
            .enumerate()
            .filter(|(_, b)| b.state.is_demoted())
            .map(|(n, b)| (NodeId::new(n), b.cost))
            .collect()
    }
}

/// Median of an ascending-sorted slice, midpoint-of-the-two-middles on
/// even counts. The health detector uses this convention because its
/// ratios feed the cost model, where a lower-middle median would bias
/// every even-sized peer pool pessimistic;
/// `custody_scheduler::SpeculationPolicy` deliberately keeps its own
/// pinned lower-middle convention for duration thresholds (see that
/// module's tests).
fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n.is_multiple_of(2) {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    } else {
        sorted[n / 2]
    }
}

/// The quarantine capacity guard: may a node be quarantined when
/// `schedulable` of `alive` live nodes currently accept placements?
/// Requires strictly more than half the live cluster to remain
/// schedulable *after* the quarantine — `2·(schedulable − 1) > alive` —
/// with checked arithmetic so `schedulable == 0` refuses instead of
/// underflowing.
fn quarantine_capacity_allows(schedulable: usize, alive: usize) -> bool {
    2 * schedulable.saturating_sub(1) > alive
}

impl Driver {
    /// Routes one gray-failure event.
    pub(super) fn on_health_event(&mut self, ev: HealthEvent, now: SimTime) {
        // Episodes stop changing once the run drains.
        let drained = !matches!(ev, HealthEvent::ProbationStart { .. }) && self.drained();
        let Some(h) = &mut self.health else {
            unrouted(Event::Health(ev))
        };
        match ev {
            // A node's slowdown sets in. Episodic configs draw the
            // episode length and schedule the remission; persistent ones
            // never remit.
            HealthEvent::Onset { node, cause } => {
                if drained {
                    return; // a late onset changes nothing
                }
                let episode = &mut h.sickness[node.index()];
                debug_assert!(episode.is_none(), "overlapping fail-slow episodes");
                *episode = Some(Sickness { cause, since: now });
                self.metrics.failslow_onsets += 1;
                if h.cfg.mean_episode_secs > 0.0 {
                    let len = Exponential::with_mean(h.cfg.mean_episode_secs).sample(&mut h.rng);
                    self.queue.schedule(
                        now + SimDuration::from_secs_f64(len),
                        Event::Health(HealthEvent::Remit { node, cause }),
                    );
                }
            }
            // An episodic slowdown remits; the node may relapse after a
            // healthy gap (drawn now, scheduled only within the horizon).
            HealthEvent::Remit { node, cause } => {
                let episode = h.sickness[node.index()].take();
                debug_assert!(episode.is_some(), "remission of an inactive episode");
                if drained {
                    return;
                }
                schedule_arrival(
                    &mut self.queue,
                    &mut h.rng,
                    h.cfg.mean_remission_secs,
                    h.cfg.horizon_secs,
                    Some(now),
                    Event::Health(HealthEvent::Onset { node, cause }),
                );
            }
            // A quarantined node's cool-off elapsed: it enters probation
            // — back in the (demoted) pick order, earning re-admission
            // through probe completions.
            HealthEvent::ProbationStart { node } => {
                let b = &mut h.belief[node.index()];
                debug_assert_eq!(
                    b.state,
                    HealthState::Quarantined,
                    "probation of a node not quarantined"
                );
                debug_assert!(b.state.can_transition_to(HealthState::Probation));
                b.state = HealthState::Probation;
                b.probes_started = 0;
                b.probes_done = 0;
                // Judge probation on probe completions alone: the old
                // window is what got the node quarantined and must not
                // retry the verdict.
                b.samples.clear();
                h.generation += 1;
                h.refresh_cost(node);
                self.ledger.touch();
            }
        }
    }

    /// Whether the detector currently allows placement on `node`.
    /// Quarantine excludes outright; probation admits only up to the
    /// configured probe count — a still-slow node is re-judged on a few
    /// sacrificial tasks, not a fresh batch of real work.
    pub(super) fn node_schedulable(&self, node: NodeId) -> bool {
        match &self.health {
            Some(h) if h.cfg.detection => {
                let b = &h.belief[node.index()];
                match b.state {
                    HealthState::Quarantined => false,
                    HealthState::Probation => b.probes_started < h.cfg.probation_probes,
                    HealthState::Healthy | HealthState::Suspect => true,
                }
            }
            _ => true,
        }
    }

    /// Counts a launch on a probation node as a probe, and asserts the
    /// quarantine exclusion held (the auditor's launch-time invariant).
    pub(super) fn note_health_launch(&mut self, node: NodeId) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        if !h.cfg.detection {
            return;
        }
        let cap = h.cfg.probation_probes;
        let b = &mut h.belief[node.index()];
        assert!(
            b.state != HealthState::Quarantined,
            "task launched on quarantined {node}"
        );
        if b.state == HealthState::Probation {
            b.probes_started += 1;
            h.generation += 1;
            self.metrics.probes_launched += 1;
            if b.probes_started >= cap {
                // The node just stopped accepting placements; the cached
                // idle view must not replay it as available.
                self.ledger.touch();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(nodes: usize, cfg: FailSlowConfig) -> HealthLayer {
        let mut queue = custody_simcore::EventQueue::new();
        HealthLayer::new(cfg.with_sick_fraction(0.0), 0, nodes, &mut queue)
            .expect("transient faults keep the layer active")
    }

    fn feed(h: &mut HealthLayer, node: usize, samples: &[f64]) {
        h.belief[node].samples.extend(samples.iter().copied());
    }

    /// Small-cluster regression: with the node's own mean in the peer
    /// pool, two limping nodes among three would each see a median
    /// dragged up to their own mean and score a suppressed ratio of 1.0.
    /// Excluding self, node 0's peers are {10, 1} → median 5.5 →
    /// ratio ≈ 1.82, enough to cross a 1.5 suspect threshold.
    #[test]
    fn slow_node_does_not_suppress_its_own_ratio() {
        let mut h = layer(3, FailSlowConfig::default());
        feed(&mut h, 0, &[10.0; 4]);
        feed(&mut h, 1, &[10.0; 4]);
        feed(&mut h, 2, &[1.0; 4]);
        let ratio = h.peer_ratio(0, h.cfg.min_samples).expect("measurable");
        assert!(
            (ratio - 10.0 / 5.5).abs() < 1e-9,
            "self-exclusive midpoint median: got {ratio}"
        );
        assert!(ratio >= h.cfg.suspect_ratio);
    }

    /// Peers are gated on the one `min_samples` threshold; `node_min`
    /// gates only the node's own mean (probation judges on a short probe
    /// window). A short-windowed peer is not a peer yet.
    #[test]
    fn peer_pool_uses_one_threshold_and_needs_a_peer() {
        let mut h = layer(2, FailSlowConfig::default());
        feed(&mut h, 0, &[10.0; 4]);
        feed(&mut h, 1, &[1.0; 2]); // below min_samples = 4
        assert_eq!(h.peer_ratio(0, 1), None, "no measurable peer");
        feed(&mut h, 1, &[1.0; 2]); // now at min_samples
        let ratio = h.peer_ratio(0, 1).expect("peer measurable");
        assert!((ratio - 10.0).abs() < 1e-9);
    }

    /// The health median is the midpoint of the two middles on even
    /// counts (the speculation policy pins its own lower-middle
    /// convention separately).
    #[test]
    fn health_median_is_midpoint_on_even_counts() {
        assert_eq!(median_of_sorted(&[1.0, 2.0]), 1.5);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_of_sorted(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median_of_sorted(&[7.0]), 7.0);
    }

    /// Guard boundaries at alive ∈ {1, 2, 3}: quarantining must leave
    /// strictly more than half the live cluster schedulable, and
    /// `schedulable == 0` refuses instead of underflowing.
    #[test]
    fn capacity_guard_boundaries() {
        assert!(!quarantine_capacity_allows(0, 1), "underflow case refuses");
        assert!(!quarantine_capacity_allows(1, 1));
        assert!(!quarantine_capacity_allows(1, 2));
        assert!(
            !quarantine_capacity_allows(2, 2),
            "would leave exactly half"
        );
        assert!(!quarantine_capacity_allows(2, 3));
        assert!(quarantine_capacity_allows(3, 3), "leaves 2 of 3: over half");
        assert!(
            !quarantine_capacity_allows(3, 4),
            "would leave exactly half"
        );
        assert!(quarantine_capacity_allows(4, 4));
    }

    /// The cost vector covers exactly the demoted states, at the node's
    /// current bucket.
    #[test]
    fn health_costs_cover_demoted_states_only() {
        let mut h = layer(4, FailSlowConfig::default());
        h.belief[1].state = HealthState::Suspect;
        h.belief[1].cost = HealthCost::from_ratio(2.0, 8, 4.0);
        h.belief[2].state = HealthState::Quarantined;
        h.belief[3].state = HealthState::Probation;
        h.belief[3].cost = HealthCost::from_ratio(1.5, 8, 4.0);
        let costs = h.health_costs();
        assert_eq!(
            costs,
            vec![
                (NodeId::new(1), HealthCost::from_ratio(2.0, 8, 4.0)),
                (NodeId::new(3), HealthCost::from_ratio(1.5, 8, 4.0)),
            ]
        );
    }
}
