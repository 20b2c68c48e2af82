//! Golden determinism: auditing must be invisible in the results. For a
//! fixed seed, a run with the invariant auditor on — which re-derives
//! every skipped allocation round from scratch without touching driver
//! state — must produce exactly the `RunMetrics` of a run with it off.
//! Host-measured fields are excluded: they measure the machine, not the
//! simulation.

use custody_sim::{AllocatorKind, ChaosConfig, RunMetrics, SimConfig, Simulation, WorkloadKind};

/// Runs `cfg` audited and unaudited, requires identical metrics, and
/// returns the audited run's.
fn run_pair(cfg: SimConfig, label: &str) -> RunMetrics {
    let audited = Simulation::run(&cfg.clone().with_audit(true)).cluster_metrics;
    let mut plain = Simulation::run(&cfg.with_audit(false)).cluster_metrics;
    plain.adopt_host_measurements(&audited);
    assert_eq!(audited, plain, "{label}: audited and unaudited runs differ");
    audited
}

#[test]
fn small_demo_identical_for_every_allocator() {
    for kind in AllocatorKind::ALL {
        for seed in [1, 9, 42] {
            run_pair(
                SimConfig::small_demo(seed).with_allocator(kind),
                &format!("{kind} seed {seed}"),
            );
        }
    }
}

#[test]
fn quickstart_paper_config_identical() {
    // The README quickstart: a paper-shaped WordCount campaign.
    let cfg = SimConfig::paper(WorkloadKind::WordCount, 25, AllocatorKind::Custody, 7);
    run_pair(cfg, "paper wordcount 25 nodes");
}

#[test]
fn failure_injection_identical() {
    use custody_sim::NodeFailure;
    let mut cfg = SimConfig::small_demo(11);
    cfg.failures = vec![NodeFailure {
        at: custody_simcore::SimTime::from_secs(5),
        node: custody_dfs::NodeId::new(0),
    }];
    run_pair(cfg, "failure injection");
}

#[test]
fn chaos_injection_identical_for_every_allocator() {
    // Stochastic crash/recovery cycles, executor-only faults, and
    // degradation windows all draw from their own RNG stream, so the
    // audited run must replay the exact same fault schedule.
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(8.0)
        .with_horizon(120.0);
    for kind in AllocatorKind::ALL {
        run_pair(
            SimConfig::small_demo(13)
                .with_allocator(kind)
                .with_chaos(chaos),
            &format!("chaos {kind}"),
        );
    }
}

#[test]
fn detector_and_master_crashes_identical() {
    // The full control plane: lossy heartbeats, suspicion, leases,
    // checkpoints, and master crashes on top of chaos — all its RNG
    // draws come from dedicated streams, so the audited run must replay
    // the exact same belief evolution and recovery schedule.
    use custody_sim::ControlPlaneConfig;
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(9.0)
        .with_horizon(120.0);
    let cp = ControlPlaneConfig::default()
        .with_checkpoints(10.0)
        .with_master_crash_fraction(0.5);
    for kind in [AllocatorKind::Custody, AllocatorKind::DynamicOffer] {
        let m = run_pair(
            SimConfig::small_demo(19)
                .with_allocator(kind)
                .with_chaos(chaos)
                .with_control_plane(cp),
            &format!("detector {kind}"),
        );
        // Heartbeat events mostly change nothing the allocator sees, so
        // rounds repeat unchanged: the audited skip check must fire, and
        // master recoveries must replay the skips too.
        assert!(m.rounds_skipped > 0, "detector {kind}: no round skipped");
        assert!(m.master_recoveries > 0, "detector {kind}: no master crash");
    }
}

#[test]
fn failslow_identical_for_every_allocator() {
    // The gray-failure layer draws from its own "failslow" and
    // "task-faults" streams; the audited run must replay the same
    // sickness schedule, fault coins, retries and belief transitions.
    use custody_sim::FailSlowConfig;
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.3)
        .with_transient_fault_prob(0.05);
    for kind in AllocatorKind::ALL {
        run_pair(
            SimConfig::small_demo(23)
                .with_allocator(kind)
                .with_failslow(fs),
            &format!("failslow {kind}"),
        );
    }
}

#[test]
fn failslow_identical_across_health_cost_knobs() {
    // Every health-cost configuration axis — demotion on or off, the
    // bucket scale, and the peer-ratio cap — must leave the audit
    // invisible: demotion feeds per-node cost vectors into the allocator
    // each round, and a skipped round must never replay a stale cost
    // table (the audited skip check re-prices it).
    use custody_sim::FailSlowConfig;
    let base = FailSlowConfig::default()
        .with_sick_fraction(0.3)
        .with_transient_fault_prob(0.05);
    for (fs, label) in [
        (base.with_demotion(true), "soft demotion"),
        (base.with_demotion(false), "demotion off"),
        (base.with_cost_scale(2), "coarse cost scale"),
        (base.with_cost_scale(32), "fine cost scale"),
        (base.with_cost_cap_ratio(1.5), "tight cost cap"),
        (base.with_cost_cap_ratio(16.0), "loose cost cap"),
    ] {
        run_pair(
            SimConfig::small_demo(23).with_failslow(fs),
            &format!("health-cost knob: {label}"),
        );
    }
}

#[test]
fn chaos_plus_failslow_identical() {
    // Chaos and gray failures together churn the replica map, the
    // executor pool, and the per-round idle set harder than either alone:
    // node crashes and recoveries resize and re-populate the dense
    // interner-backed round state and drive the namenode change journal
    // through add/remove/reinstate cycles while fail-slow quarantines
    // shuffle which executors are offered. Every skipped round must still
    // survive its audit, and auditing must change no metric.
    use custody_sim::FailSlowConfig;
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(8.0)
        .with_horizon(120.0);
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.3)
        .with_transient_fault_prob(0.05);
    for seed in [5, 29] {
        run_pair(
            SimConfig::small_demo(seed)
                .with_chaos(chaos)
                .with_failslow(fs),
            &format!("chaos + failslow seed {seed}"),
        );
    }
}

#[test]
fn partition_identical_across_every_knob() {
    // The partition layer draws from its own "partition" stream (episode
    // gaps, minority membership, asymmetry coins, flap schedules, heal
    // times), and its deferral/ghost-reconciliation machinery reroutes
    // heartbeats, dispatches, and Finish reports. Every configuration
    // knob must leave the audit invisible.
    use custody_sim::PartitionConfig;
    let base = PartitionConfig::default()
        .with_split_fraction(0.4)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(12.0);
    let mut inbound = base;
    inbound.asymmetric_prob = 1.0;
    inbound.inbound_cut_prob = 1.0;
    let mut outbound = base;
    outbound.asymmetric_prob = 1.0;
    outbound.inbound_cut_prob = 0.0;
    let mut flappy = base;
    flappy.flap_prob = 1.0;
    flappy.mean_flap_secs = 1.0;
    let mut slow_restore = base;
    slow_restore.restore_batch = 1;
    slow_restore.restore_interval_secs = 2.0;
    let mut quick_redelivery = base;
    quick_redelivery.redelivery_secs = 0.25;
    for (pc, label) in [
        (base, "symmetric cuts"),
        (base.with_split_fraction(0.6), "majority-sized split"),
        (base.with_mean_heal(2.0), "quick heals"),
        (
            base.with_mean_time_between_partitions(6.0),
            "frequent episodes",
        ),
        (base.with_max_episodes(1), "single episode"),
        (inbound, "inbound-only cuts"),
        (outbound, "outbound-only cuts"),
        (flappy, "flapping links"),
        (slow_restore, "paced restore"),
        (quick_redelivery, "quick redelivery"),
    ] {
        run_pair(
            SimConfig::small_demo(31).with_partition(pc),
            &format!("partition knob: {label}"),
        );
    }
}

#[test]
fn chaos_plus_failslow_plus_partition_identical() {
    // The full storm: crash/recovery cycles, gray failures, and network
    // cuts all churning beliefs at once. Deferred Finishes, ghost
    // dispatches, paced restore ticks, and reconvergence tracking must
    // all replay identically when rounds are skipped.
    use custody_sim::{FailSlowConfig, PartitionConfig};
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(120.0);
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.2)
        .with_transient_fault_prob(0.05);
    let pc = PartitionConfig::default()
        .with_split_fraction(0.4)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(12.0);
    for seed in [5, 29] {
        run_pair(
            SimConfig::small_demo(seed)
                .with_chaos(chaos)
                .with_failslow(fs)
                .with_partition(pc),
            &format!("chaos + failslow + partition seed {seed}"),
        );
    }
}

#[test]
fn corruption_identical_across_every_knob() {
    // The durability layer draws from its own "corruption" stream
    // (latent seeding coins, arrival gaps, victim picks, retry jitter),
    // and its verified reads, scrub ticks, tombstones, and prioritized
    // repair batches all reshape the replica map and the runnable set.
    // Every configuration knob must leave the audit invisible.
    use custody_sim::CorruptionConfig;
    let base = CorruptionConfig::default()
        .with_latent_fraction(0.15)
        .with_mean_time_between_corruptions(15.0);
    let mut big_retry = base;
    big_retry.retry_budget = 64;
    let mut slow_repair = base;
    slow_repair.repair_batch = 1;
    slow_repair.repair_interval_secs = 2.0;
    let mut narrow_scrub = base;
    narrow_scrub.scrub_blocks_per_tick = 2;
    for (cc, label) in [
        (base, "latent + arrivals"),
        (base.with_latent_fraction(0.0), "arrivals only"),
        (base.with_mean_time_between_corruptions(0.0), "latent only"),
        (base.with_scrub_interval(0.0), "scrubbing off"),
        (base.with_scrub_interval(2.0), "fast scrub"),
        (narrow_scrub, "narrow scrub window"),
        (base.with_disk_bias(0.0), "unbiased arrivals"),
        (base.with_unavailability_deadline(5.0), "quick deadline"),
        (big_retry, "deep retry budget"),
        (slow_repair, "paced trickle repair"),
    ] {
        run_pair(
            SimConfig::small_demo(37).with_corruption(cc),
            &format!("corruption knob: {label}"),
        );
    }
}

#[test]
fn chaos_plus_failslow_plus_partition_plus_corruption_identical() {
    // The complete storm: crash/recovery cycles, gray failures, network
    // cuts, and silent rot all churning the replica map and the runnable
    // set at once. Verified-read faults, scrub detections, tombstone
    // parking, and the unified repair queue must all replay identically
    // when rounds are skipped.
    use custody_sim::{CorruptionConfig, FailSlowConfig, PartitionConfig};
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(120.0);
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.2)
        .with_transient_fault_prob(0.05);
    let pc = PartitionConfig::default()
        .with_split_fraction(0.4)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(12.0);
    let cc = CorruptionConfig::default()
        .with_latent_fraction(0.1)
        .with_mean_time_between_corruptions(15.0)
        .with_disk_bias(1.0);
    for seed in [5, 29] {
        run_pair(
            SimConfig::small_demo(seed)
                .with_chaos(chaos)
                .with_failslow(fs)
                .with_partition(pc)
                .with_corruption(cc),
            &format!("full storm seed {seed}"),
        );
    }
}

#[test]
fn chaos_with_speculation_identical() {
    use custody_scheduler::speculation::SpeculationConfig;
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(10.0)
        .with_horizon(100.0);
    let mut cfg = SimConfig::small_demo(17)
        .with_chaos(chaos)
        .with_speculation(SpeculationConfig {
            quantile: 0.25,
            multiplier: 1.0,
        });
    cfg.cluster.num_nodes = 6;
    run_pair(cfg, "chaos + speculation");
}

#[test]
fn speculation_under_failslow_detection_matches_recorded_values() {
    // Pins speculation across commits, which the audited/unaudited pairs
    // above cannot: with health detection on, stragglers on measurably
    // slow nodes are cloned first, and in this run that pick differs from
    // the first-in-order one (a first-in-order pick moves the re-queue,
    // failure and event counts). The values are recorded from a run; a
    // change that moves any of them changed simulated behaviour.
    use custody_scheduler::speculation::SpeculationConfig;
    use custody_sim::FailSlowConfig;
    let fs = FailSlowConfig::default()
        .with_sick_fraction(0.4)
        .with_transient_fault_prob(0.02)
        .with_retry_budget(3);
    let mut cfg = SimConfig::small_demo(55)
        .with_failslow(fs)
        .with_speculation(SpeculationConfig {
            quantile: 0.5,
            multiplier: 1.2,
        });
    cfg.campaign = cfg.campaign.with_jobs_per_app(6);
    let m = run_pair(cfg, "speculation under fail-slow detection");
    assert_eq!(
        (
            m.tasks_speculated,
            m.clones_won,
            m.clones_lost,
            m.tasks_requeued,
            m.jobs_failed,
            m.events_processed,
        ),
        (4, 1, 3, 55, 5, 1334)
    );
}
