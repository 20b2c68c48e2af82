//! Network partitions: asymmetric connectivity, split-brain fencing, and
//! paced heal/rejoin reconciliation must keep every driver invariant
//! intact.
//!
//! These tests run in debug mode, so the driver's invariant auditor
//! re-checks belief coherence — including invariant group 13 (partition
//! accounting: ghost dispatches only on unreachable busy executors,
//! fenced ≤ deferred, counters zero without the layer) — after *every*
//! event, on top of the assertions below.

use custody_sim::{
    AllocatorKind, ChaosConfig, FailSlowConfig, PartitionConfig, SimConfig, Simulation,
};

/// An aggressive partition profile for the small demo cluster: episodes
/// arrive fast, cuts last past the suspicion timeout, and both
/// asymmetry and flapping stay in play.
fn stormy() -> PartitionConfig {
    PartitionConfig::default()
        .with_split_fraction(0.4)
        .with_mean_heal(8.0)
        .with_mean_time_between_partitions(12.0)
}

/// Belief coherence under purely *asymmetric* cuts: every episode drops
/// only one direction (minority→master or master→minority), which is
/// where split-brain beliefs are easiest to corrupt — leases stay
/// renewed while dispatches vanish, or Finishes vanish while dispatches
/// arrive. The per-event auditor must stay green and every job must
/// complete exactly once on every seed.
#[test]
fn asymmetric_cuts_keep_beliefs_coherent() {
    let mut pc = stormy();
    pc.asymmetric_prob = 1.0;
    let mut episodes = 0;
    for seed in [5, 11, 23, 47, 59] {
        let cfg = SimConfig::small_demo(seed).with_partition(pc);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "seed {seed} lost jobs");
        assert_eq!(
            out.unfenced_stale_finishes, 0,
            "seed {seed}: a split-brain completion slipped past fencing"
        );
        episodes += out.partition_episodes;
    }
    assert!(episodes > 0, "no partition episode was ever drawn");
}

/// The no-double-completion regression: a fenced minority node keeps
/// running stale work through the cut and reports Finishes after its
/// lease was revoked and the attempt reassigned. Those reports must be
/// deferred while unreachable, then *fenced* at redelivery — counted,
/// never double-completed. `jobs_completed` staying exactly at the
/// campaign size is the proof: a double-counted Finish would overshoot,
/// a swallowed one would undershoot.
#[test]
fn fenced_minority_finishes_never_double_complete() {
    let mut fenced_total = 0;
    for seed in [3, 7, 19, 42] {
        let cfg = SimConfig::small_demo(seed).with_partition(stormy());
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "seed {seed}: completion miscount");
        assert_eq!(out.unfenced_stale_finishes, 0, "seed {seed}");
        assert!(
            out.partition_finishes_fenced <= out.partition_finishes_deferred,
            "seed {seed}: fenced more Finishes than were ever deferred"
        );
        assert!(
            out.partition_finishes_fenced <= out.stale_finishes_fenced,
            "seed {seed}: a partition-fenced Finish bypassed the epoch fence"
        );
        fenced_total += out.partition_finishes_fenced;
    }
    assert!(
        fenced_total > 0,
        "no minority Finish was ever fenced — the regression test tests nothing"
    );
}

/// Flapping links: episodes that cut and restore repeatedly before
/// healing must reconcile ghost dispatches at *every* reconnect and
/// still drain cleanly (the driver asserts at end of run that no ghost
/// or deferred entry survives).
#[test]
fn flapping_links_reconcile_at_every_reconnect() {
    let mut pc = stormy();
    pc.flap_prob = 1.0;
    pc.mean_flap_secs = 1.0;
    let mut episodes = 0;
    for seed in [13, 29, 61] {
        let cfg = SimConfig::small_demo(seed).with_partition(pc);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "seed {seed} lost jobs");
        assert_eq!(out.unfenced_stale_finishes, 0, "seed {seed}");
        episodes += out.partition_episodes;
    }
    assert!(episodes > 0, "no flapping episode was ever drawn");
}

/// During a partition the peer-relative health detector reads poisoned
/// evidence (minority executors look silent or slow for network
/// reasons), so the quarantine guard backs off: a run whose only
/// anomaly is the partition must never quarantine a node.
#[test]
fn partitions_do_not_trigger_quarantine() {
    // Fail-slow detection on, but zero sick fraction: every slowness
    // signal the detector sees is partition-induced.
    let fs = FailSlowConfig::default().with_sick_fraction(0.0);
    let cfg = SimConfig::small_demo(17)
        .with_failslow(fs)
        .with_partition(stormy());
    let out = Simulation::run(&cfg).cluster_metrics;
    assert_eq!(out.jobs_completed, 12);
    assert!(out.partition_episodes > 0, "no episode drawn");
    assert_eq!(
        out.nodes_quarantined, 0,
        "a partition-induced anomaly was quarantined as a gray failure"
    );
    assert_eq!(out.false_quarantines, 0);
}

/// The composed storm: chaos (crash/recovery cycles), gray failures
/// (fail-slow onsets + transient task faults), and network partitions
/// all riding the same runs. The per-event auditor must stay green and
/// every surviving job must complete exactly once across seeds and
/// allocators.
#[test]
fn composed_chaos_failslow_partition_fuzz() {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(150.0);
    let fs = FailSlowConfig::default().with_sick_fraction(0.2);
    for kind in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
        for seed in [5, 23, 47] {
            let cfg = SimConfig::small_demo(seed)
                .with_allocator(kind)
                .with_chaos(chaos)
                .with_failslow(fs)
                .with_partition(stormy());
            let out = Simulation::run(&cfg).cluster_metrics;
            // Retry budgets may fail a job under the storm, but nothing
            // may complete twice or hang: completed + failed covers the
            // whole campaign.
            assert_eq!(
                out.jobs_completed + out.jobs_failed,
                12,
                "{kind} seed {seed}: job accounting broke under the composed storm"
            );
            assert_eq!(out.unfenced_stale_finishes, 0, "{kind} seed {seed}");
        }
    }
}
