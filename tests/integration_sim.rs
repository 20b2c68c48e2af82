//! End-to-end simulation properties across crates: completion,
//! determinism, metric sanity, and the paper's headline comparison on
//! seeded small/medium clusters.

use custody::core::AllocatorKind;
use custody::scheduler::SchedulerKind;
use custody::sim::{PlacementKind, QuotaMode, SimConfig, Simulation};
use custody::simcore::{SimDuration, SimTime};
use custody::workload::{Campaign, DatasetMode, WorkloadKind};

fn demo(allocator: AllocatorKind, seed: u64) -> SimConfig {
    SimConfig::small_demo(seed).with_allocator(allocator)
}

#[test]
fn every_allocator_completes_every_job() {
    for allocator in AllocatorKind::ALL {
        for seed in [1, 2, 3] {
            let out = Simulation::run(&demo(allocator, seed));
            assert_eq!(
                out.cluster_metrics.jobs_completed, 12,
                "{allocator} seed {seed}"
            );
            assert!(out.cluster_metrics.makespan > SimTime::ZERO);
        }
    }
}

#[test]
fn ablation_variants_complete_too() {
    for allocator in [
        AllocatorKind::CustodyFairIntra,
        AllocatorKind::CustodyNaiveInter,
    ] {
        let out = Simulation::run(&demo(allocator, 4));
        assert_eq!(out.cluster_metrics.jobs_completed, 12, "{allocator}");
    }
}

#[test]
fn identical_configs_give_identical_outcomes() {
    for allocator in [AllocatorKind::Custody, AllocatorKind::DynamicOffer] {
        let a = Simulation::run(&demo(allocator, 5)).cluster_metrics;
        let b = Simulation::run(&demo(allocator, 5)).cluster_metrics;
        assert_eq!(a.makespan, b.makespan, "{allocator}");
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.allocation_rounds, b.allocation_rounds);
        assert_eq!(a.input_locality().samples(), b.input_locality().samples());
        assert_eq!(
            a.job_completion_secs().samples(),
            b.job_completion_secs().samples()
        );
    }
}

#[test]
fn different_seeds_change_outcomes() {
    let a = Simulation::run(&demo(AllocatorKind::Custody, 6)).cluster_metrics;
    let b = Simulation::run(&demo(AllocatorKind::Custody, 7)).cluster_metrics;
    assert_ne!(a.makespan, b.makespan);
}

/// The paper's headline claim, at test scale: Custody's input-task
/// locality beats the Spark-standalone baseline on the shared schedule,
/// across seeds and workloads.
#[test]
fn custody_dominates_baseline_locality() {
    for workload in WorkloadKind::ALL {
        for seed in [11, 12] {
            let mut cfg = SimConfig::paper(workload, 20, AllocatorKind::Custody, seed);
            cfg.campaign = cfg.campaign.with_jobs_per_app(4);
            let custody = Simulation::run(&cfg).cluster_metrics;
            let spark = Simulation::run(&cfg.clone().with_allocator(AllocatorKind::StaticSpread))
                .cluster_metrics;
            let (c, s) = (
                custody.input_locality().mean(),
                spark.input_locality().mean(),
            );
            assert!(
                c >= s - 1e-9,
                "{workload} seed {seed}: custody {c:.3} < spark {s:.3}"
            );
        }
    }
}

/// Custody's JCT does not regress against the baseline at paper-like
/// scale (it should improve; we assert no regression to keep the test
/// robust to modelling constants).
#[test]
fn custody_jct_never_regresses_at_scale() {
    let mut cfg = SimConfig::paper(WorkloadKind::Sort, 50, AllocatorKind::Custody, 21);
    cfg.campaign = cfg.campaign.with_jobs_per_app(6);
    let custody = Simulation::run(&cfg).cluster_metrics;
    let spark =
        Simulation::run(&cfg.clone().with_allocator(AllocatorKind::StaticSpread)).cluster_metrics;
    assert!(custody.job_completion_secs().mean() <= spark.job_completion_secs().mean() + 1e-9);
}

#[test]
fn metrics_are_within_physical_bounds() {
    let out = Simulation::run(&demo(AllocatorKind::Custody, 8)).cluster_metrics;
    let loc = out.input_locality();
    assert!(loc.min().unwrap() >= 0.0 && loc.max().unwrap() <= 1.0);
    assert!(out.job_completion_secs().min().unwrap() > 0.0);
    assert!(out.input_stage_secs().min().unwrap() > 0.0);
    assert!(out.scheduler_delay_secs().min().unwrap() >= 0.0);
    // A job cannot finish faster than its input stage.
    for app in &out.per_app {
        assert!(app.job_completion_secs.mean() >= app.input_stage_secs.mean());
        assert!(app.local_jobs <= app.jobs_completed);
        assert_eq!(app.jobs_completed, app.input_locality.count());
    }
}

#[test]
fn fixed_quota_decay_shape_holds() {
    // The §VI-C regime: with constant per-app capacity, baseline locality
    // decays as the cluster grows while Custody stays pinned high.
    let run = |n: usize, allocator: AllocatorKind| {
        let mut cfg = SimConfig::paper(WorkloadKind::Sort, n, allocator, 31)
            .with_quota(QuotaMode::FixedPerApp(8));
        cfg.campaign = cfg.campaign.with_jobs_per_app(4);
        Simulation::run(&cfg)
            .cluster_metrics
            .input_locality()
            .mean()
    };
    let spark_small = run(15, AllocatorKind::StaticSpread);
    let spark_large = run(60, AllocatorKind::StaticSpread);
    assert!(
        spark_large < spark_small - 0.1,
        "baseline should decay: {spark_small:.3} -> {spark_large:.3}"
    );
    let custody_small = run(15, AllocatorKind::Custody);
    let custody_large = run(60, AllocatorKind::Custody);
    assert!(custody_small > 0.9 && custody_large > 0.9);
}

#[test]
fn zero_wait_scheduler_reduces_delay_but_costs_baseline_locality() {
    let base = {
        let mut cfg =
            SimConfig::paper(WorkloadKind::WordCount, 20, AllocatorKind::StaticSpread, 41);
        cfg.campaign = cfg.campaign.with_jobs_per_app(4);
        cfg
    };
    let waiting = Simulation::run(&base).cluster_metrics;
    let eager = Simulation::run(
        &base
            .clone()
            .with_scheduler(SchedulerKind::Delay(SimDuration::ZERO)),
    )
    .cluster_metrics;
    assert!(
        eager.input_locality().mean() <= waiting.input_locality().mean() + 1e-9,
        "waiting should buy locality for the baseline"
    );
}

#[test]
fn shared_pool_and_popularity_placement_run_clean() {
    let mut cfg = SimConfig::small_demo(51).with_placement(PlacementKind::Popularity);
    cfg.campaign =
        Campaign::mixed()
            .with_jobs_per_app(2)
            .with_dataset_mode(DatasetMode::SharedPool {
                pool_size: 2,
                skew: 1.0,
            });
    let out = Simulation::run(&cfg);
    assert_eq!(out.cluster_metrics.jobs_completed, 8);
}

/// Extension workloads run clean and show the expected structure: the
/// map-only SQL scan gains the most from locality (its job *is* its input
/// stage), while k-means' compute-heavy iterations dilute the gain.
#[test]
fn extension_workloads_run_and_order_sensibly() {
    let mut gains = std::collections::HashMap::new();
    for workload in [WorkloadKind::SqlScan, WorkloadKind::KMeans] {
        let mut cfg = SimConfig::paper(workload, 30, AllocatorKind::Custody, 77);
        cfg.campaign = cfg.campaign.with_jobs_per_app(4);
        let custody = Simulation::run(&cfg).cluster_metrics;
        let spark = Simulation::run(&cfg.clone().with_allocator(AllocatorKind::StaticSpread))
            .cluster_metrics;
        assert_eq!(custody.jobs_completed, 16, "{workload}");
        assert_eq!(spark.jobs_completed, 16, "{workload}");
        let c = custody.job_completion_secs().mean();
        let b = spark.job_completion_secs().mean();
        gains.insert(workload, (b - c) / b);
    }
    assert!(
        gains[&WorkloadKind::SqlScan] > gains[&WorkloadKind::KMeans],
        "map-only scan should benefit most: {gains:?}"
    );
}

#[test]
fn single_app_cluster_runs() {
    let mut cfg = SimConfig::small_demo(61);
    cfg.campaign.apps.truncate(1);
    let out = Simulation::run(&cfg);
    assert_eq!(out.cluster_metrics.jobs_completed, 3);
    assert_eq!(out.cluster_metrics.per_app.len(), 1);
}

#[test]
fn tiny_cluster_more_apps_than_executors() {
    // 1 node × 2 executors, 4 apps: quota clamps to 1; everything must
    // still drain.
    let mut cfg = SimConfig::small_demo(71);
    cfg.cluster.num_nodes = 1;
    cfg.campaign = cfg.campaign.with_jobs_per_app(1);
    let out = Simulation::run(&cfg);
    assert_eq!(out.cluster_metrics.jobs_completed, 4);
}
