//! Silent replica corruption: latent bit-rot, verified reads, the
//! background scrubber, and the unified prioritized repair pipeline
//! must keep every driver invariant intact.
//!
//! These tests run in debug mode, so the driver's invariant auditor
//! re-checks belief coherence — including invariant group 14
//! (durability discipline: ledger balance, tombstone justification,
//! onset/mark agreement, and the completion-side verified-read gate)
//! — after *every* event, on top of the assertions below.

use custody_sim::{
    AllocatorKind, ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig,
    PartitionConfig, SimConfig, Simulation, WorkloadKind,
};
use custody_workload::ApplicationSpec;

/// A hostile corruption profile for the small demo cluster: a real
/// latent population plus fast ongoing arrivals, scrubbed at the
/// default cadence.
fn rotten() -> CorruptionConfig {
    CorruptionConfig::default()
        .with_latent_fraction(0.1)
        .with_mean_time_between_corruptions(15.0)
}

/// Verified reads are the first line of defense: with scrubbing off,
/// every detection must come from a task reading its input, the read
/// must fail (never silently complete), and the retried task must land
/// on an intact replica. Every job still completes on every seed —
/// the default replication factor leaves clean copies to repair from.
#[test]
fn verified_reads_catch_latent_rot_without_scrubbing() {
    let mut cc = CorruptionConfig::default()
        .with_latent_fraction(0.25)
        .with_mean_time_between_corruptions(0.0)
        .with_scrub_interval(0.0);
    cc.retry_budget = 32;
    assert!(!cc.scrub_enabled());
    let mut detected = 0;
    for seed in [5, 11, 23, 47] {
        let out = Simulation::run(&SimConfig::small_demo(seed).with_corruption(cc)).cluster_metrics;
        assert_eq!(
            out.jobs_completed + out.jobs_failed,
            12,
            "seed {seed}: job accounting broke"
        );
        assert_eq!(
            out.scrub_detections, 0,
            "seed {seed}: scrub detection with scrubbing disabled"
        );
        assert!(
            out.corrupt_reads_detected >= out.corruption_detection_secs.count(),
            "seed {seed}: more latency samples than read detections"
        );
        detected += out.corrupt_reads_detected;
    }
    assert!(
        detected > 0,
        "no verified read ever caught corruption — the test tests nothing"
    );
}

/// The background scrubber discovers latent rot that no task happens
/// to read, and the prioritized repair queue restores redundancy from
/// the surviving clean copies.
#[test]
fn scrubber_discovers_and_repair_restores() {
    let cc = CorruptionConfig::default()
        .with_latent_fraction(0.2)
        .with_mean_time_between_corruptions(0.0)
        .with_scrub_interval(5.0);
    let (mut scrubbed, mut repaired) = (0, 0);
    for seed in [7, 13, 29] {
        let out = Simulation::run(&SimConfig::small_demo(seed).with_corruption(cc)).cluster_metrics;
        assert_eq!(
            out.jobs_completed + out.jobs_failed,
            12,
            "seed {seed}: job accounting broke"
        );
        scrubbed += out.scrub_detections;
        repaired += out.replicas_repaired;
    }
    assert!(scrubbed > 0, "the scrubber never detected anything");
    assert!(repaired > 0, "no dropped replica was ever re-replicated");
}

/// Graceful degradation at total loss: with every replica of every
/// block latently corrupt there is nothing intact to read or repair
/// from. No task may ever complete on rotten data; waiting work parks
/// and fails cleanly at the unavailability deadline instead of
/// panicking or hanging, and the end-of-run ledger shows the loss.
#[test]
fn total_corruption_fails_cleanly_at_the_deadline() {
    let mut cc = CorruptionConfig::default()
        .with_latent_fraction(1.0)
        .with_mean_time_between_corruptions(0.0)
        .with_scrub_interval(2.0)
        .with_unavailability_deadline(10.0);
    // A huge retry budget so unavailability — not retry exhaustion —
    // is what ends each job.
    cc.retry_budget = 10_000;
    for seed in [3, 17] {
        let out = Simulation::run(&SimConfig::small_demo(seed).with_corruption(cc)).cluster_metrics;
        assert_eq!(out.jobs_completed, 0, "seed {seed}: a job completed on rot");
        assert_eq!(out.jobs_failed, 12, "seed {seed}: a job escaped or hung");
        assert!(
            out.jobs_failed_unavailable > 0,
            "seed {seed}: no job was failed by the unavailability deadline"
        );
        assert_eq!(
            out.replicas_repaired, 0,
            "seed {seed}: repaired a block with no clean source"
        );
        assert!(
            out.blocks_permanently_lost > 0,
            "seed {seed}: total corruption lost nothing?"
        );
        assert_eq!(out.blocks_recovered, 0, "seed {seed}");
    }
}

/// Ongoing corruption correlated with fail-slow disks: the `disk_bias`
/// knob steers arrivals at gray-failing disk nodes, the scrubber and
/// verified reads race to detect, and the paced repair queue restores
/// redundancy — all while the gray-failure layer quarantines and
/// probes. Detection accounting must stay coherent throughout.
#[test]
fn disk_biased_bursts_ride_the_gray_failure_layer() {
    let fs = FailSlowConfig::default().with_sick_fraction(0.3);
    let mut cc = rotten().with_disk_bias(1.0);
    cc.retry_budget = 32;
    let mut corrupted = 0;
    for seed in [5, 23, 47] {
        let out = Simulation::run(
            &SimConfig::small_demo(seed)
                .with_failslow(fs)
                .with_corruption(cc),
        )
        .cluster_metrics;
        assert_eq!(
            out.jobs_completed + out.jobs_failed,
            12,
            "seed {seed}: job accounting broke"
        );
        assert!(
            out.corruption_detection_secs.count()
                <= out.corrupt_reads_detected + out.scrub_detections,
            "seed {seed}: latency samples exceed detections"
        );
        corrupted += out.replicas_corrupted;
    }
    assert!(corrupted > 0, "no corruption arrival was ever drawn");
}

/// The composed storm: chaos crash/recovery cycles, gray failures,
/// network partitions, and silent corruption all riding the same runs.
/// The per-event auditor — including group 14's guarantee that no
/// completed task ever read a corrupted replica — must stay green, and
/// every job must either complete exactly once or fail cleanly.
#[test]
fn composed_chaos_failslow_partition_corruption_fuzz() {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(150.0);
    let fs = FailSlowConfig::default().with_sick_fraction(0.2);
    let pc = PartitionConfig::default()
        .with_split_fraction(0.4)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(12.0);
    for kind in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
        for seed in [5, 23, 47] {
            let cfg = SimConfig::small_demo(seed)
                .with_allocator(kind)
                .with_chaos(chaos)
                .with_failslow(fs)
                .with_partition(pc)
                .with_corruption(rotten());
            let out = Simulation::run(&cfg).cluster_metrics;
            assert_eq!(
                out.jobs_completed + out.jobs_failed,
                12,
                "{kind} seed {seed}: job accounting broke under the composed storm"
            );
            assert_eq!(out.unfenced_stale_finishes, 0, "{kind} seed {seed}");
            // Standing tombstones (unavailable − recovered) all have
            // zero intact replicas, so the permanent-loss gauge covers
            // them.
            assert!(
                out.blocks_unavailable <= out.blocks_recovered + out.blocks_permanently_lost,
                "{kind} seed {seed}: the unavailability ledger leaked"
            );
        }
    }
}

/// Master crashes over a rotting store: every recovery replays the WAL
/// from the last checkpoint and must converge on the whole durability
/// state — corruption ground truth, tombstones, the scrub cursor, the
/// `"corruption"` stream, the armed repair tick and every run counter —
/// or the convergence check panics. Crashes only strike on chaos-fault
/// pops, so chaos rides along. Audited, so it checks the same in release
/// builds.
#[test]
fn master_recovery_converges_on_durability_state() {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(8.0)
        .with_horizon(150.0);
    let cp = ControlPlaneConfig::default()
        .with_checkpoints(10.0)
        .with_master_crash_fraction(0.5);
    // Scrub ticks every 5 s so most replayed WAL windows hold one.
    let mut cc = rotten().with_scrub_interval(5.0);
    cc.retry_budget = 32;
    let (mut recoveries, mut corrupted) = (0, 0);
    for seed in [5, 23, 47] {
        let cfg = SimConfig::small_demo(seed)
            .with_chaos(chaos)
            .with_control_plane(cp)
            .with_corruption(cc)
            .with_audit(true);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(
            out.jobs_completed + out.jobs_failed,
            12,
            "seed {seed}: job accounting broke across master recoveries"
        );
        recoveries += out.master_recoveries;
        corrupted += out.replicas_corrupted;
    }
    assert!(
        recoveries > 0,
        "no master crash fired — the test tests nothing"
    );
    assert!(corrupted > 0, "no replica rotted — the test tests nothing");
}

/// The composed storm at the scale the project claims: 1000 nodes,
/// 16 WordCount applications × 4 jobs, every fault layer live at once
/// (the benchmark's `fault_storm_125` layer settings, with every chaos
/// fault also crashing the master), audited after every event. Every
/// job completes or fails cleanly, no stale finish slips past the
/// epoch fence, and each layer actually fires.
///
/// About a minute in an audited release build on a 2-core host, so it
/// is ignored by default; run it with
/// `cargo test --release -p custody-sim --test durability_invariants -- --ignored`.
#[test]
#[ignore = "1k-node audited soak; run with --ignored in release"]
fn audited_thousand_node_composed_storm() {
    const HORIZON_SECS: f64 = 120.0;
    const RETRY_BUDGET: usize = 12;
    let mut failslow = FailSlowConfig::default()
        .with_sick_fraction(0.1)
        .with_transient_fault_prob(0.02)
        .with_retry_budget(RETRY_BUDGET);
    failslow.horizon_secs = HORIZON_SECS;
    let mut partition = PartitionConfig::default()
        .with_split_fraction(0.1)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(30.0);
    partition.horizon_secs = HORIZON_SECS;
    let mut corruption = CorruptionConfig::default()
        .with_latent_fraction(0.005)
        .with_mean_time_between_corruptions(10.0);
    corruption.horizon_secs = HORIZON_SECS;
    corruption.retry_budget = RETRY_BUDGET;
    let mut chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(HORIZON_SECS)
        .with_max_down(20);
    chaos.executor_only_fraction = 0.75;
    let mut cfg = SimConfig::paper(WorkloadKind::WordCount, 1000, AllocatorKind::Custody, 11)
        .with_chaos(chaos)
        .with_control_plane(
            ControlPlaneConfig::default()
                .with_checkpoints(30.0)
                .with_master_crash_fraction(1.0),
        )
        .with_failslow(failslow)
        .with_partition(partition)
        .with_corruption(corruption)
        .with_audit(true);
    cfg.campaign.apps = (0..16)
        .map(|i| ApplicationSpec {
            name: format!("wordcount-app-{i}"),
            workload: WorkloadKind::WordCount,
        })
        .collect();
    cfg.campaign = cfg.campaign.with_jobs_per_app(4);

    let out = Simulation::run(&cfg).cluster_metrics;
    assert_eq!(
        out.jobs_completed + out.jobs_failed,
        64,
        "a job neither completed nor failed cleanly"
    );
    assert_eq!(out.unfenced_stale_finishes, 0);
    for (layer, fired) in [
        ("chaos machine losses", out.nodes_failed),
        ("master recoveries", out.master_recoveries),
        ("fail-slow onsets", out.failslow_onsets),
        ("partition episodes", out.partition_episodes),
        ("replica corruptions", out.replicas_corrupted),
    ] {
        assert!(fired >= 1, "{layer}: the layer never fired");
    }
}
