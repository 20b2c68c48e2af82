//! Imperfect failure detection: the modeled control plane (lossy
//! heartbeats, suspicion timeouts, leases, epoch fencing) and master
//! checkpoint/recovery must keep every driver invariant intact.
//!
//! These tests run in debug mode, so the driver's invariant auditor
//! re-checks belief coherence (suspicion/lease/death coupling, fencing)
//! after *every* event — on top of the assertions below.

use custody_sim::{AllocatorKind, ChaosConfig, ControlPlaneConfig, SimConfig, Simulation};

/// Lossy heartbeats under chaos: every allocator completes all jobs with
/// the per-event auditor green, and no stale completion ever slips past
/// epoch fencing.
#[test]
fn lossy_heartbeats_complete_under_chaos_and_audit() {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(12.0)
        .with_horizon(200.0);
    let cp = ControlPlaneConfig::default();
    for kind in AllocatorKind::ALL {
        let cfg = SimConfig::small_demo(37)
            .with_allocator(kind)
            .with_chaos(chaos)
            .with_control_plane(cp);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "{kind} lost jobs under detector");
        assert_eq!(
            out.unfenced_stale_finishes, 0,
            "{kind}: stale completion slipped past fencing"
        );
    }
}

/// With heavy heartbeat loss the detector must raise false suspicions —
/// and survive its own mistakes: work re-queued, node reinstated, no
/// invariant violated, every job still completes.
#[test]
fn false_suspicions_are_survivable() {
    let cp = ControlPlaneConfig::default()
        .with_drop_probability(0.5)
        .with_suspicion_timeout(3.5);
    let mut total_false = 0;
    for seed in [5, 11, 23, 47] {
        let cfg = SimConfig::small_demo(seed).with_control_plane(cp);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "seed {seed} lost jobs");
        assert_eq!(out.unfenced_stale_finishes, 0);
        // No machine ever went down, so every suspicion was false and no
        // detection latency was ever measured.
        assert_eq!(out.nodes_failed, 0);
        assert_eq!(out.detection_latency_secs.count(), 0, "seed {seed}");
        total_false += out.false_suspicions;
    }
    assert!(
        total_false > 0,
        "a 50% drop rate never produced a false suspicion — detector too lenient"
    );
}

/// Outages shorter than the suspicion timeout with a lossless channel:
/// the detector never notices (no suspicion, no false positive), the
/// disk comes back intact (no blocks lost, no re-replication), and the
/// ghost-reaping path re-queues the work killed by the blip.
#[test]
fn sub_timeout_blips_go_unsuspected() {
    let mut chaos = ChaosConfig::default()
        .with_mean_time_between_faults(10.0)
        .with_horizon(150.0);
    chaos.mean_downtime_secs = 0.8; // well under the 5 s suspicion timeout
    let cp = ControlPlaneConfig::default().with_drop_probability(0.0);
    let cfg = SimConfig::small_demo(53)
        .with_chaos(chaos)
        .with_control_plane(cp);
    let out = Simulation::run(&cfg).cluster_metrics;
    assert_eq!(out.jobs_completed, 12);
    assert!(
        out.nodes_failed + out.executor_faults > 0,
        "no faults drawn"
    );
    assert_eq!(
        out.false_suspicions, 0,
        "lossless channel, sub-timeout blips"
    );
    assert_eq!(out.blocks_lost, 0, "a blip must not lose data");
    assert_eq!(out.unfenced_stale_finishes, 0);
}

/// Long outages must be *truly* detected: suspicion fires while the node
/// is physically down, so detection latency is measured and bounded by
/// timeout + heartbeat staleness, and the DFS re-replicates.
#[test]
fn long_outages_are_detected_with_bounded_latency() {
    let mut chaos = ChaosConfig::default()
        .with_mean_time_between_faults(15.0)
        .with_horizon(150.0);
    chaos.mean_downtime_secs = 40.0; // far beyond the suspicion timeout
    chaos.executor_only_fraction = 0.0;
    let cp = ControlPlaneConfig::default().with_drop_probability(0.0);
    let cfg = SimConfig::small_demo(61)
        .with_chaos(chaos)
        .with_control_plane(cp);
    let out = Simulation::run(&cfg).cluster_metrics;
    assert_eq!(out.jobs_completed, 12);
    assert!(out.nodes_failed > 0, "no machine faults drawn");
    assert!(
        out.detection_latency_secs.count() > 0,
        "long outages must be detected"
    );
    // A lossless detector needs at most timeout + one heartbeat interval
    // + scheduling slack to notice a silent channel.
    let worst = out.detection_latency_secs.max().expect("count > 0");
    assert!(
        worst <= cp.suspicion_timeout_secs + 2.0 * cp.heartbeat_interval_secs,
        "detection latency {worst} exceeds the lossless bound"
    );
    assert_eq!(out.unfenced_stale_finishes, 0);
}

/// Large network delays push heartbeats across fail/recover transitions;
/// the physical-epoch stamp must discard them rather than let a pre-crash
/// heartbeat vouch for a dead (or restarted) node.
#[test]
fn stale_epoch_heartbeats_are_discarded() {
    let mut chaos = ChaosConfig::default()
        .with_mean_time_between_faults(8.0)
        .with_horizon(150.0);
    chaos.mean_downtime_secs = 6.0;
    let cp = ControlPlaneConfig {
        mean_delay_secs: 2.0, // delays comparable to outages
        drop_probability: 0.2,
        ..ControlPlaneConfig::default()
    };
    for seed in [7, 29] {
        let cfg = SimConfig::small_demo(seed)
            .with_chaos(chaos)
            .with_control_plane(cp);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "seed {seed}");
        assert_eq!(out.unfenced_stale_finishes, 0, "seed {seed}");
    }
}

/// Master checkpoint/recovery: a run whose master crashes on *every*
/// chaos arrival (recovering via checkpoint + WAL replay, convergence-
/// checked internally on each crash) must end bit-identical to the same
/// run without crashes — recovery is invisible in every metric.
#[test]
fn master_crash_recovery_converges_to_the_uncrashed_run() {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(10.0)
        .with_horizon(150.0);
    let cp = ControlPlaneConfig::default().with_checkpoints(5.0);
    let base = SimConfig::small_demo(43).with_chaos(chaos);
    let calm = Simulation::run(&base.clone().with_control_plane(cp)).cluster_metrics;
    let crashy = Simulation::run(&base.with_control_plane(cp.with_master_crash_fraction(1.0)))
        .cluster_metrics;
    assert!(crashy.master_recoveries > 0, "no crash was ever drawn");
    assert_eq!(calm.master_recoveries, 0);
    let mut crashy_scrubbed = crashy.clone();
    crashy_scrubbed.master_recoveries = 0;
    crashy_scrubbed.adopt_host_measurements(&calm);
    assert_eq!(
        calm, crashy_scrubbed,
        "master recovery changed an observable metric"
    );
}

/// The `with_speculation_enabled` convenience switch is exactly the
/// default speculation policy.
#[test]
fn speculation_enable_switch_matches_default_policy() {
    use custody_scheduler::speculation::SpeculationConfig;
    let base = SimConfig::small_demo(31);
    let mut via_switch =
        Simulation::run(&base.clone().with_speculation_enabled(true)).cluster_metrics;
    let via_config = Simulation::run(&base.clone().with_speculation(SpeculationConfig::default()))
        .cluster_metrics;
    via_switch.adopt_host_measurements(&via_config);
    assert_eq!(via_switch, via_config);
    let off = Simulation::run(&base.with_speculation_enabled(false)).cluster_metrics;
    assert_eq!(off.tasks_speculated, 0);
}
