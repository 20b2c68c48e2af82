//! Scripted escalation: a scripted `NodeFailure` that lands on a node a
//! chaos executor-only fault already holds down turns that outage into a
//! permanent machine loss. The DataNode dies with it (its replicas drop
//! and re-replication runs), and the chaos recovery aimed at the node is
//! ignored, so an escalated outage never recovers.
//!
//! Chaos here draws only executor-only faults with downtimes far longer
//! than the run, so the scripted failures find chaos-downed nodes. The
//! run is checked with the oracle and with a modeled control plane; the
//! pinned counters catch any drift in the escalation path.

use custody_dfs::NodeId;
use custody_sim::{
    ChaosConfig, ControlPlaneConfig, NodeFailure, RunMetrics, SimConfig, Simulation,
};
use custody_simcore::SimTime;

/// Chaos that only ever kills executors, for long, on up to three nodes
/// at once, plus scripted machine losses after the first chaos faults.
fn escalation_config(control_plane: Option<ControlPlaneConfig>) -> SimConfig {
    let mut chaos = ChaosConfig::default()
        .with_mean_time_between_faults(4.0)
        .with_horizon(60.0)
        .with_max_down(3);
    chaos.executor_only_fraction = 1.0;
    chaos.degraded_fraction = 0.0;
    chaos.mean_downtime_secs = 400.0;
    let failures = [(10, 0), (10, 3), (10, 6), (16, 8), (16, 5)]
        .into_iter()
        .map(|(at, node)| NodeFailure {
            at: SimTime::from_secs(at),
            node: NodeId::new(node),
        })
        .collect();
    let cfg = SimConfig::small_demo(17)
        .with_chaos(chaos)
        .with_failures(failures);
    match control_plane {
        Some(cp) => cfg.with_control_plane(cp),
        None => cfg,
    }
}

/// The counters the escalation path moves, in a fixed order: machine
/// losses, executor-only faults, recoveries, blocks lost, replicas
/// repaired, false suspicions, detection-latency samples and events.
fn counters(m: &RunMetrics) -> [usize; 8] {
    [
        m.nodes_failed,
        m.executor_faults,
        m.nodes_recovered,
        m.blocks_lost,
        m.replicas_repaired,
        m.false_suspicions,
        m.detection_latency_secs.count(),
        m.events_processed,
    ]
}

/// Runs the escalation scenario audited after every event and checks
/// that escalation fired: every job completes and an escalated
/// executor-only fault never recovers.
fn run_escalation(control_plane: Option<ControlPlaneConfig>) -> RunMetrics {
    let cfg = escalation_config(control_plane).with_audit(true);
    let out = Simulation::run(&cfg).cluster_metrics;
    assert_eq!(out.jobs_completed, 12, "jobs lost under escalation");
    assert!(
        out.nodes_recovered < out.executor_faults,
        "no executor-only fault was escalated: {} of {} recovered",
        out.nodes_recovered,
        out.executor_faults
    );
    out
}

#[test]
fn oracle_escalation_drops_the_datanode_for_good() {
    let out = run_escalation(None);
    assert_eq!(counters(&out), [5, 3, 1, 0, 1112, 0, 0, 662]);
}

#[test]
fn detector_escalation_silences_the_datanode_for_good() {
    // A slow channel keeps DataNode heartbeats in flight when a node
    // escalates; its incarnation must end there, or they would vouch for
    // a dead disk.
    let cp = ControlPlaneConfig {
        mean_delay_secs: 0.8,
        ..ControlPlaneConfig::default()
    };
    let out = run_escalation(Some(cp));
    assert_eq!(counters(&out), [5, 3, 1, 0, 1114, 0, 11, 1752]);
}
