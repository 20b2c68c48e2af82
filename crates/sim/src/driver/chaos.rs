//! Stochastic crash-recovery chaos: one exponential arrival process on
//! the dedicated `"chaos"` stream draws machine losses, executor-only
//! losses and network-degradation windows (see [`ChaosConfig`]).
//!
//! * `Fault` — the process fires: the next arrival is drawn, then the
//!   fault flavour, victim and downtime.
//! * `Recover` — a chaos-failed machine rejoins (scripted failures never
//!   do).
//!
//! In detector mode a fault changes only physical truth; the master
//! learns of it through heartbeat silence (see the `detector` module).

use custody_cluster::ExecutorId;
use custody_dfs::NodeId;
use custody_simcore::dist::{Distribution, Exponential};
use custody_simcore::{EventQueue, SimDuration, SimRng, SimTime};

use crate::config::ChaosConfig;

use super::{schedule_arrival, unrouted, DetectorEvent, Driver, Event, FaultKind};

/// The chaos layer's events (see the module docs). A recovery carries
/// the kind of fault it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ChaosEvent {
    Fault,
    Recover { node: NodeId, kind: FaultKind },
}

/// Live chaos state: the config, its stream, and the open degradation
/// window.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ChaosLayer {
    cfg: ChaosConfig,
    /// Fault arrivals, flavours, victims, downtimes and window lengths.
    rng: SimRng,
    /// Remote input reads are slowed while `now < degraded_until`.
    degraded_until: SimTime,
}

impl ChaosLayer {
    /// Seeds the `"chaos"` stream and schedules the first fault arrival.
    pub(super) fn new(cfg: ChaosConfig, seed: u64, queue: &mut EventQueue<Event>) -> Self {
        let mut rng = SimRng::for_stream(seed, "chaos");
        schedule_arrival(
            queue,
            &mut rng,
            cfg.mean_time_between_faults_secs,
            cfg.horizon_secs,
            None,
            Event::Chaos(ChaosEvent::Fault),
        );
        ChaosLayer {
            cfg,
            rng,
            degraded_until: SimTime::ZERO,
        }
    }
}

impl Driver {
    /// The stochastic fault process fires: schedule the next arrival and
    /// draw one of the three fault flavours. Node faults that would
    /// exceed the concurrent-down cap (or leave fewer than two machines
    /// up) fizzle, keeping the simulation live.
    pub(super) fn on_chaos_fault(&mut self, now: SimTime) {
        let Some(chaos) = &mut self.chaos else {
            unrouted(Event::Chaos(ChaosEvent::Fault))
        };
        let cfg = chaos.cfg;
        schedule_arrival(
            &mut self.queue,
            &mut chaos.rng,
            cfg.mean_time_between_faults_secs,
            cfg.horizon_secs,
            Some(now),
            Event::Chaos(ChaosEvent::Fault),
        );
        if chaos.rng.chance(cfg.degraded_fraction) {
            // Transient network degradation: remote reads launched while
            // the window is open pay the configured slowdown.
            let window =
                Exponential::with_mean(cfg.mean_degraded_window_secs).sample(&mut chaos.rng);
            chaos.degraded_until = chaos
                .degraded_until
                .max(now + SimDuration::from_secs_f64(window));
            self.metrics.degraded_windows += 1;
            return;
        }
        let exec_only = chaos.rng.chance(cfg.executor_only_fraction);
        let up: Vec<NodeId> = (0..self.node_down.len())
            .filter(|&n| self.node_down[n].is_none())
            .map(NodeId::new)
            .collect();
        let down = self.node_down.len() - up.len();
        if up.len() <= 1 || down >= cfg.max_down {
            return; // too much of the cluster is already down
        }
        let victim = up[chaos.rng.below(up.len())];
        let downtime = Exponential::with_mean(cfg.mean_downtime_secs).sample(&mut chaos.rng);
        let kind = if exec_only {
            self.on_executor_fault(victim, now);
            FaultKind::ExecutorsOnly
        } else {
            self.on_node_fail(victim, now);
            FaultKind::Machine
        };
        self.queue.schedule(
            now + SimDuration::from_secs_f64(downtime),
            Event::Chaos(ChaosEvent::Recover { node: victim, kind }),
        );
    }

    /// Applies the transient network-degradation penalty to a remote
    /// read launched while a chaos degradation window is open.
    pub(super) fn maybe_degrade(
        &self,
        io_time: SimDuration,
        remote: bool,
        now: SimTime,
    ) -> SimDuration {
        match &self.chaos {
            Some(c) if remote && now < c.degraded_until => {
                SimDuration::from_secs_f64(io_time.as_secs_f64() * c.cfg.degraded_remote_factor)
            }
            _ => io_time,
        }
    }

    /// An executor-only fault: the machine's executor processes die but
    /// its DataNode (and replicas) survive, so nothing is re-replicated
    /// and preferred nodes are unchanged.
    fn on_executor_fault(&mut self, node: NodeId, now: SimTime) {
        self.metrics.executor_faults += 1;
        self.node_down[node.index()] = Some(FaultKind::ExecutorsOnly);
        if let Some(d) = &mut self.detector {
            d.phys_fail(node, now, FaultKind::ExecutorsOnly);
            self.fence_executors_on(node);
            return;
        }
        self.kill_executors_on(node, now);
        self.cache.mark_pool_changed();
    }

    /// A machine a chaos fault of `kind` took down rejoins: its executors
    /// return empty and idle, and after a full machine loss the NameNode
    /// may place new replicas there again. Replica locations do not
    /// change at recovery (the machine rejoins holding nothing it did not
    /// already serve), so no preferred-node refresh is needed.
    pub(super) fn on_node_recover(&mut self, node: NodeId, kind: FaultKind, now: SimTime) {
        if self.perma_down[node.index()] {
            return; // a scripted failure made this outage permanent
        }
        // Chaos only strikes up nodes, and only a scripted failure (which
        // makes the outage permanent) changes a down node's fault kind.
        let down = self.node_down[node.index()].take();
        assert_eq!(
            down,
            Some(kind),
            "recovering {node} from a fault it is not down with"
        );
        if let Some(d) = &mut self.detector {
            // A fresh incarnation starts beating; the master learns of it
            // only through heartbeats.
            let restart_tick = d.phys_recover(node, kind);
            self.fence_executors_on(node);
            if restart_tick {
                self.queue
                    .schedule(now, Event::Detector(DetectorEvent::HeartbeatTick { node }));
            }
            self.metrics.nodes_recovered += 1;
            return;
        }
        if kind == FaultKind::Machine {
            self.namenode.recover_node(node);
        }
        let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
        for e in executors {
            let state = &mut self.exec_state[e.index()];
            debug_assert!(state.dead && state.running.is_none() && state.owner.is_none());
            state.dead = false;
            state.idle_since = now;
            self.pool.insert(e.index());
        }
        self.metrics.nodes_recovered += 1;
        self.cache.mark_pool_changed();
    }
}
