//! Canned experiments: one function per paper figure.
//!
//! Each function sweeps the relevant axis (workload × cluster size ×
//! allocator), runs the simulations, and returns structured results the
//! bench harness prints and EXPERIMENTS.md records. Scale factors let
//! tests run the same code on small clusters quickly.

use custody_core::AllocatorKind;
use custody_simcore::stats::Summary;
use custody_workload::WorkloadKind;

use crate::config::SimConfig;
use crate::driver::Simulation;
use crate::metrics::RunMetrics;

/// The cluster sizes of §VI-A1 (experiments "separately run on clusters
/// with 25, \[50\] and 100 nodes").
pub const PAPER_CLUSTER_SIZES: [usize; 3] = [25, 50, 100];

/// The baseline the paper compares against: Spark's standalone cluster
/// manager.
pub const PAPER_BASELINE: AllocatorKind = AllocatorKind::StaticSpread;

/// One (workload, cluster size) comparison cell.
#[derive(Debug, Clone)]
pub struct ComparisonCell {
    /// Workload under test.
    pub workload: WorkloadKind,
    /// Cluster size (nodes).
    pub num_nodes: usize,
    /// Custody's metrics.
    pub custody: RunMetrics,
    /// The baseline's metrics.
    pub baseline: RunMetrics,
}

impl ComparisonCell {
    /// Per-job input-locality summaries (fractions): `(custody, baseline)`.
    pub fn locality(&self) -> (Summary, Summary) {
        (
            self.custody.input_locality(),
            self.baseline.input_locality(),
        )
    }

    /// Absolute locality improvement in percentage points (the Fig. 7
    /// annotation, e.g. "+56.04%" for Sort at 100 nodes).
    pub fn locality_gain_points(&self) -> f64 {
        (self.custody.input_locality().mean() - self.baseline.input_locality().mean()) * 100.0
    }

    /// Relative JCT reduction in percent (the Fig. 8 annotation, e.g.
    /// "19.55%" for Sort at 100 nodes).
    pub fn jct_reduction_pct(&self) -> f64 {
        let c = self.custody.job_completion_secs().mean();
        let b = self.baseline.job_completion_secs().mean();
        if b == 0.0 {
            0.0
        } else {
            (b - c) / b * 100.0
        }
    }

    /// Relative input-stage-time reduction in percent (Fig. 9).
    pub fn input_stage_reduction_pct(&self) -> f64 {
        let c = self.custody.input_stage_secs().mean();
        let b = self.baseline.input_stage_secs().mean();
        if b == 0.0 {
            0.0
        } else {
            (b - c) / b * 100.0
        }
    }

    /// Scheduler delays in seconds: `(custody mean, baseline mean)`
    /// (Fig. 10).
    pub fn scheduler_delays(&self) -> (f64, f64) {
        (
            self.custody.scheduler_delay_secs().mean(),
            self.baseline.scheduler_delay_secs().mean(),
        )
    }
}

/// Runs one (workload, size) cell: Custody vs the baseline on the same
/// submission schedule and placement. `jobs_per_app` scales run length
/// (the paper uses 30).
pub fn run_cell(
    workload: WorkloadKind,
    num_nodes: usize,
    jobs_per_app: usize,
    seed: u64,
) -> ComparisonCell {
    let mut base_cfg = SimConfig::paper(workload, num_nodes, AllocatorKind::Custody, seed);
    base_cfg.campaign = base_cfg.campaign.with_jobs_per_app(jobs_per_app);
    let custody = Simulation::run(&base_cfg).cluster_metrics;
    let baseline =
        Simulation::run(&base_cfg.clone().with_allocator(PAPER_BASELINE)).cluster_metrics;
    ComparisonCell {
        workload,
        num_nodes,
        custody,
        baseline,
    }
}

/// Figs. 7 & 8 sweep: all three workloads × the given cluster sizes, run
/// in parallel across all cores (cells are independent simulations).
/// Returns cells in (size-major, workload-minor) order.
pub fn locality_and_jct_sweep(
    sizes: &[usize],
    jobs_per_app: usize,
    seed: u64,
) -> Vec<ComparisonCell> {
    let grid: Vec<(usize, WorkloadKind)> = sizes
        .iter()
        .flat_map(|&n| WorkloadKind::ALL.into_iter().map(move |w| (n, w)))
        .collect();
    custody_simcore::par_map(&grid, |&(n, workload)| {
        run_cell(workload, n, jobs_per_app, seed)
    })
}

/// One cell of the chaos sweep: Custody vs the baseline riding through
/// the same stochastic crash/recovery schedule at one fault rate.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Mean time between faults (seconds) for this cell.
    pub mtbf_secs: f64,
    /// Custody's metrics under chaos.
    pub custody: RunMetrics,
    /// The baseline's metrics under chaos.
    pub baseline: RunMetrics,
}

impl ChaosCell {
    /// Locality degradation versus the given no-fault reference, in
    /// percentage points: `(custody, baseline)`. Positive = locality
    /// lost to the fault process.
    pub fn locality_degradation_points(
        &self,
        custody_calm: &RunMetrics,
        baseline_calm: &RunMetrics,
    ) -> (f64, f64) {
        (
            (custody_calm.input_locality().mean() - self.custody.input_locality().mean()) * 100.0,
            (baseline_calm.input_locality().mean() - self.baseline.input_locality().mean()) * 100.0,
        )
    }

    /// Mean fault-to-stable time (seconds from a disruptive fault until
    /// every task it displaced was running again): `(custody, baseline)`.
    pub fn recovery_secs(&self) -> (f64, f64) {
        (
            self.custody.requeue_drain_secs.mean(),
            self.baseline.requeue_drain_secs.mean(),
        )
    }
}

/// The chaos sweep: Custody vs the baseline across increasing fault
/// rates (decreasing MTBF) on one cluster, plus a calm (chaos-off)
/// reference pair at the front. All cells share the submission schedule,
/// placement, and — per MTBF — the fault schedule. Returns
/// `(custody_calm, baseline_calm, cells)`; cells are run in parallel.
pub fn chaos_sweep(
    num_nodes: usize,
    jobs_per_app: usize,
    mtbfs_secs: &[f64],
    seed: u64,
) -> (RunMetrics, RunMetrics, Vec<ChaosCell>) {
    let mut base = SimConfig::paper(
        WorkloadKind::WordCount,
        num_nodes,
        AllocatorKind::Custody,
        seed,
    );
    base.campaign = base.campaign.with_jobs_per_app(jobs_per_app);
    let calm = base.clone();
    let grid: Vec<f64> = mtbfs_secs.to_vec();
    let base_for_cells = base.clone();
    let mut cells = custody_simcore::par_map(&grid, move |&mtbf| {
        let chaos = crate::config::ChaosConfig::default().with_mean_time_between_faults(mtbf);
        let cfg = base_for_cells.clone().with_chaos(chaos);
        ChaosCell {
            mtbf_secs: mtbf,
            custody: Simulation::run(&cfg).cluster_metrics,
            baseline: Simulation::run(&cfg.clone().with_allocator(PAPER_BASELINE)).cluster_metrics,
        }
    });
    cells.sort_by(|a, b| b.mtbf_secs.total_cmp(&a.mtbf_secs));
    let custody_calm = Simulation::run(&calm).cluster_metrics;
    let baseline_calm = Simulation::run(&calm.with_allocator(PAPER_BASELINE)).cluster_metrics;
    (custody_calm, baseline_calm, cells)
}

/// One cell of the detector sweep: the full modeled control plane at one
/// heartbeat-drop probability, riding the same chaos schedule as every
/// other cell.
#[derive(Debug, Clone)]
pub struct DetectorCell {
    /// Per-heartbeat drop probability for this cell.
    pub drop_probability: f64,
    /// Metrics with the detector in the loop.
    pub metrics: RunMetrics,
}

/// The detector sweep: one chaotic run with oracle failure knowledge
/// (instant, perfect detection) as the reference, then the same chaos
/// schedule re-run with the modeled control plane at each heartbeat-drop
/// probability. Master checkpointing and crash/recovery stay on
/// throughout the modeled cells, so every row also exercises WAL replay.
/// Returns `(oracle, cells)`; cells are run in parallel and ordered by
/// increasing drop probability.
pub fn detector_sweep(
    num_nodes: usize,
    jobs_per_app: usize,
    drops: &[f64],
    seed: u64,
) -> (RunMetrics, Vec<DetectorCell>) {
    let mut base = SimConfig::paper(
        WorkloadKind::WordCount,
        num_nodes,
        AllocatorKind::Custody,
        seed,
    );
    base.campaign = base.campaign.with_jobs_per_app(jobs_per_app);
    let chaos = crate::config::ChaosConfig::default()
        .with_mean_time_between_faults(30.0)
        .with_horizon(240.0);
    let base = base.with_chaos(chaos);
    let grid: Vec<f64> = drops.to_vec();
    let base_for_cells = base.clone();
    let mut cells = custody_simcore::par_map(&grid, move |&drop| {
        let cp = crate::config::ControlPlaneConfig::default()
            .with_drop_probability(drop)
            .with_checkpoints(15.0)
            .with_master_crash_fraction(0.25);
        let cfg = base_for_cells.clone().with_control_plane(cp);
        DetectorCell {
            drop_probability: drop,
            metrics: Simulation::run(&cfg).cluster_metrics,
        }
    });
    cells.sort_by(|a, b| a.drop_probability.total_cmp(&b.drop_probability));
    let oracle = Simulation::run(&base).cluster_metrics;
    (oracle, cells)
}

/// One detection variant of a fail-slow cell, aggregated over the sweep
/// seeds (the trade detection makes is noisy per seed — which node
/// sickens decides how much quarantine pays — so each variant merges
/// several independent runs).
#[derive(Debug, Clone)]
pub struct FailSlowVariant {
    /// Per-job completion times merged across seeds (completed jobs).
    pub jct: Summary,
    /// Per-job input-locality fractions merged across seeds.
    pub locality: Summary,
    /// Total fail-slow onsets across seeds.
    pub onsets: usize,
    /// Total quarantines across seeds.
    pub quarantines: usize,
    /// Total false quarantines across seeds.
    pub false_quarantines: usize,
    /// Onset-to-quarantine latencies merged across seeds.
    pub quarantine_latency: Summary,
    /// Total jobs that exhausted their retry budget across seeds.
    pub jobs_failed: usize,
    /// Total transient-fault retries across seeds.
    pub task_retries: usize,
}

impl FailSlowVariant {
    fn accumulate(runs: &[RunMetrics]) -> Self {
        let mut v = FailSlowVariant {
            jct: Summary::new(),
            locality: Summary::new(),
            onsets: 0,
            quarantines: 0,
            false_quarantines: 0,
            quarantine_latency: Summary::new(),
            jobs_failed: 0,
            task_retries: 0,
        };
        for m in runs {
            v.jct.merge(&m.job_completion_secs());
            v.locality.merge(&m.input_locality());
            v.onsets += m.failslow_onsets;
            v.quarantines += m.nodes_quarantined;
            v.false_quarantines += m.false_quarantines;
            v.quarantine_latency.merge(&m.quarantine_latency_secs);
            v.jobs_failed += m.jobs_failed;
            v.task_retries += m.task_retries;
        }
        v
    }
}

/// One cell of the fail-slow sweep: one sick fraction, four variants —
/// {Custody, baseline} × {detection on, off} — all riding identical
/// physical sickness schedules per seed (belief never feeds back into
/// the `"failslow"` stream).
#[derive(Debug, Clone)]
pub struct FailSlowCell {
    /// Fraction of nodes that develop a slowdown in this cell.
    pub sick_fraction: f64,
    /// Custody with the health detector on.
    pub custody_on: FailSlowVariant,
    /// Custody with detection disabled (slowdowns invisible).
    pub custody_off: FailSlowVariant,
    /// The baseline with the health detector on.
    pub baseline_on: FailSlowVariant,
    /// The baseline with detection disabled.
    pub baseline_off: FailSlowVariant,
}

impl FailSlowCell {
    /// Mean-JCT reduction from turning detection on, in percent:
    /// `(custody, baseline)`. Positive = quarantine + demotion paid off.
    pub fn detection_jct_gain_pct(&self) -> (f64, f64) {
        let gain = |on: &FailSlowVariant, off: &FailSlowVariant| {
            let (a, b) = (on.jct.mean(), off.jct.mean());
            if b == 0.0 {
                0.0
            } else {
                (b - a) / b * 100.0
            }
        };
        (
            gain(&self.custody_on, &self.custody_off),
            gain(&self.baseline_on, &self.baseline_off),
        )
    }
}

/// The severe gray-failure template the sweep injects: brutal slowdown
/// factors and a quick detector, so the cells measure the detection
/// trade-off rather than waiting out gentle defaults.
fn severe_failslow(sick_fraction: f64, detection: bool) -> crate::config::FailSlowConfig {
    let mut fs = crate::config::FailSlowConfig::default()
        .with_sick_fraction(sick_fraction)
        .with_detection(detection);
    fs.mean_onset_secs = 3.0;
    fs.disk_factor = 20.0;
    fs.nic_factor = 20.0;
    fs.cpu_factor = 20.0;
    // An aggressive detector: a short window flushes pre-onset samples
    // fast (low detection latency), and a long probation delay keeps a
    // confirmed-slow node out instead of flapping through re-admission
    // probes that each run 10x slow — the right call against the
    // persistent slowdowns this sweep injects.
    fs.min_samples = 3;
    fs.window = 8;
    fs.suspect_ratio = 1.4;
    fs.quarantine_ratio = 2.4;
    fs.probation_delay_secs = 60.0;
    fs
}

/// The fail-slow sweep: gray failures at increasing sick fractions on a
/// deliberately congested cluster, each cell comparing Custody vs the
/// baseline with the peer-relative detector on vs off. Every variant is
/// averaged over `seeds` (which sick node a seed draws decides how much
/// quarantine pays, so single runs are noisy). Cells are run in parallel
/// and ordered by increasing sick fraction.
pub fn failslow_sweep(
    num_nodes: usize,
    jobs_per_app: usize,
    sick_fractions: &[f64],
    seeds: &[u64],
) -> Vec<FailSlowCell> {
    let grid: Vec<(f64, AllocatorKind, bool)> = sick_fractions
        .iter()
        .flat_map(|&f| {
            [
                (f, AllocatorKind::Custody, true),
                (f, AllocatorKind::Custody, false),
                (f, PAPER_BASELINE, true),
                (f, PAPER_BASELINE, false),
            ]
        })
        .collect();
    let seeds = seeds.to_vec();
    let variants = custody_simcore::par_map(&grid, move |&(fraction, kind, detection)| {
        let runs: Vec<RunMetrics> = seeds
            .iter()
            .map(|&seed| {
                let mut cfg = SimConfig::paper(WorkloadKind::WordCount, num_nodes, kind, seed)
                    .with_failslow(severe_failslow(fraction, detection));
                cfg.campaign = cfg.campaign.with_jobs_per_app(jobs_per_app);
                Simulation::run(&cfg).cluster_metrics
            })
            .collect();
        FailSlowVariant::accumulate(&runs)
    });
    let mut cells: Vec<FailSlowCell> = sick_fractions
        .iter()
        .zip(variants.chunks_exact(4))
        .map(|(&fraction, chunk)| FailSlowCell {
            sick_fraction: fraction,
            custody_on: chunk[0].clone(),
            custody_off: chunk[1].clone(),
            baseline_on: chunk[2].clone(),
            baseline_off: chunk[3].clone(),
        })
        .collect();
    cells.sort_by(|a, b| a.sick_fraction.total_cmp(&b.sick_fraction));
    cells
}

/// One cell of the demotion sweep: one sick fraction, two Custody
/// variants riding identical physical sickness schedules — soft demotion
/// (suspect nodes cost more in the allocator's rational key) vs. demotion
/// off (suspects placed as if healthy). Detection is on in both; only
/// whether the allocator uses the belief differs.
#[derive(Debug, Clone)]
pub struct DemotionCell {
    /// Fraction of nodes that develop a slowdown in this cell.
    pub sick_fraction: f64,
    /// Cost-based soft demotion.
    pub soft: FailSlowVariant,
    /// Demotion off.
    pub off: FailSlowVariant,
}

impl DemotionCell {
    /// Mean-JCT gain of soft demotion over none, in percent; positive
    /// means pricing sick capacity beats ignoring the detector's belief.
    pub fn soft_gain_pct(&self) -> f64 {
        let (s, o) = (self.soft.jct.mean(), self.off.jct.mean());
        if o == 0.0 {
            0.0
        } else {
            (o - s) / o * 100.0
        }
    }

    /// Mean-locality gain of soft demotion over none, in points.
    pub fn soft_locality_gain_points(&self) -> f64 {
        (self.soft.locality.mean() - self.off.locality.mean()) * 100.0
    }
}

/// Gray failures tuned to the suspect band: slow enough for the
/// detector to demote (peer ratios 2–4x vs the 1.4 suspect threshold)
/// but with the quarantine threshold pushed out of reach, so a sick
/// node stays *demoted-but-usable* for the whole run — the classic
/// lingering gray failure that never looks dead enough to banish — and
/// the sweep isolates what the allocator does with that belief. The
/// severe profile's 20x factors plus its 2.4 quarantine ratio would
/// rocket every sick node straight into quarantine, which every demotion
/// setting treats identically. The three fault kinds get *different*
/// factors: a heterogeneously sick cluster is exactly where a graded
/// cost model pays — it can prefer the mildly limping CPU over the badly
/// limping disk.
fn lingering_failslow(sick_fraction: f64) -> crate::config::FailSlowConfig {
    let mut fs = severe_failslow(sick_fraction, true);
    fs.disk_factor = 4.0;
    fs.nic_factor = 3.0;
    fs.cpu_factor = 2.0;
    fs.quarantine_ratio = 8.0;
    fs
}

/// The demotion sweep: saturated Custody batches with lingering
/// suspect-band gray failures at increasing sick fractions, soft
/// demotion vs. none per cell. Saturation is the regime where the
/// distinction matters — a busy batch cannot afford to starve 10–30% of
/// its capacity, so pricing sick nodes into the cost model (graded
/// filler order, health-weighted locality credit, healthiest-replica
/// pick) must earn its keep against treating them as healthy. Cells run
/// in parallel and are ordered by increasing sick fraction.
pub fn demotion_sweep(
    num_nodes: usize,
    jobs_per_app: usize,
    sick_fractions: &[f64],
    seeds: &[u64],
) -> Vec<DemotionCell> {
    let grid: Vec<(f64, bool)> = sick_fractions
        .iter()
        .flat_map(|&f| [(f, true), (f, false)])
        .collect();
    let seeds = seeds.to_vec();
    let variants = custody_simcore::par_map(&grid, move |&(fraction, demotion)| {
        let runs: Vec<RunMetrics> = seeds
            .iter()
            .map(|&seed| {
                let mut cfg = SimConfig::paper(
                    WorkloadKind::WordCount,
                    num_nodes,
                    AllocatorKind::Custody,
                    seed,
                )
                .with_failslow(lingering_failslow(fraction).with_demotion(demotion));
                cfg.campaign = cfg.campaign.with_jobs_per_app(jobs_per_app);
                Simulation::run(&cfg).cluster_metrics
            })
            .collect();
        FailSlowVariant::accumulate(&runs)
    });
    let mut cells: Vec<DemotionCell> = sick_fractions
        .iter()
        .zip(variants.chunks_exact(2))
        .map(|(&fraction, chunk)| DemotionCell {
            sick_fraction: fraction,
            soft: chunk[0].clone(),
            off: chunk[1].clone(),
        })
        .collect();
    cells.sort_by(|a, b| a.sick_fraction.total_cmp(&b.sick_fraction));
    cells
}

/// One cell of the partition sweep: Custody vs the baseline riding
/// through the same seeded partition schedule (same splits, same
/// asymmetry coins, same heal times) at one (split fraction, mean heal)
/// point.
#[derive(Debug, Clone)]
pub struct PartitionCell {
    /// Fraction of nodes cut off per episode in this cell.
    pub split_fraction: f64,
    /// Mean episode duration (seconds) before the cut heals.
    pub mean_heal_secs: f64,
    /// Custody's metrics under partitions.
    pub custody: RunMetrics,
    /// The baseline's metrics under partitions.
    pub baseline: RunMetrics,
}

impl PartitionCell {
    /// Relative mean-JCT inflation versus the given partition-free
    /// reference, in percent: `(custody, baseline)`. Positive = time
    /// lost to split-brain fencing and rejoin reconciliation.
    pub fn jct_stretch_pct(
        &self,
        custody_calm: &RunMetrics,
        baseline_calm: &RunMetrics,
    ) -> (f64, f64) {
        let stretch = |cell: &RunMetrics, calm: &RunMetrics| {
            let (a, b) = (
                cell.job_completion_secs().mean(),
                calm.job_completion_secs().mean(),
            );
            if b == 0.0 {
                0.0
            } else {
                (a - b) / b * 100.0
            }
        };
        (
            stretch(&self.custody, custody_calm),
            stretch(&self.baseline, baseline_calm),
        )
    }

    /// Mean heal-to-reconverge time in seconds (from a cut healing until
    /// the master's beliefs about every former-minority node settled):
    /// `(custody, baseline)`.
    pub fn reconverge_secs(&self) -> (f64, f64) {
        (
            self.custody.partition_reconverge_secs.mean(),
            self.baseline.partition_reconverge_secs.mean(),
        )
    }

    /// Total split-brain Finish reports fenced after redelivery:
    /// `(custody, baseline)`. Every one of these is a double-completion
    /// that fencing prevented.
    pub fn fenced_finishes(&self) -> (usize, usize) {
        (
            self.custody.partition_finishes_fenced,
            self.baseline.partition_finishes_fenced,
        )
    }
}

/// The partition-injection profile the sweep runs: episodes arrive fast
/// enough that short benchmark runs see several, with asymmetric cuts
/// and flapping both in play so the fencing and reconciliation paths
/// all get exercised.
fn sweep_partition(split_fraction: f64, mean_heal_secs: f64) -> crate::config::PartitionConfig {
    crate::config::PartitionConfig::default()
        .with_split_fraction(split_fraction)
        .with_mean_heal(mean_heal_secs)
        .with_mean_time_between_partitions(12.0)
}

/// The partition sweep: Custody vs the baseline across a grid of
/// (split fraction × mean heal time) on one cluster, plus a
/// partition-free reference pair at the front. The reference runs the
/// same modeled control plane (partitions require heartbeats to cut),
/// so each cell isolates what the cuts themselves cost. All cells share
/// the submission schedule and placement, and — per grid point — the
/// partition schedule. Returns `(custody_calm, baseline_calm, cells)`;
/// cells are run in parallel and ordered split-major, heal-minor.
pub fn partition_sweep(
    num_nodes: usize,
    jobs_per_app: usize,
    split_fractions: &[f64],
    heals_secs: &[f64],
    seed: u64,
) -> (RunMetrics, RunMetrics, Vec<PartitionCell>) {
    let mut base = SimConfig::paper(
        WorkloadKind::WordCount,
        num_nodes,
        AllocatorKind::Custody,
        seed,
    );
    base.campaign = base.campaign.with_jobs_per_app(jobs_per_app);
    // The calm reference carries the same control plane the partition
    // cells run on; only the cuts are absent.
    let calm = base
        .clone()
        .with_control_plane(crate::config::ControlPlaneConfig::default());
    let grid: Vec<(f64, f64)> = split_fractions
        .iter()
        .flat_map(|&f| heals_secs.iter().map(move |&h| (f, h)))
        .collect();
    let base_for_cells = base.clone();
    let mut cells = custody_simcore::par_map(&grid, move |&(fraction, heal)| {
        let cfg = base_for_cells
            .clone()
            .with_partition(sweep_partition(fraction, heal));
        PartitionCell {
            split_fraction: fraction,
            mean_heal_secs: heal,
            custody: Simulation::run(&cfg).cluster_metrics,
            baseline: Simulation::run(&cfg.clone().with_allocator(PAPER_BASELINE)).cluster_metrics,
        }
    });
    cells.sort_by(|a, b| {
        a.split_fraction
            .total_cmp(&b.split_fraction)
            .then(a.mean_heal_secs.total_cmp(&b.mean_heal_secs))
    });
    let custody_calm = Simulation::run(&calm).cluster_metrics;
    let baseline_calm = Simulation::run(&calm.with_allocator(PAPER_BASELINE)).cluster_metrics;
    (custody_calm, baseline_calm, cells)
}

/// One cell of the durability sweep: the scrubber + prioritized repair
/// pipeline on vs off, riding the same latent-rot seeding and ongoing
/// corruption arrival process at one injected corruption rate.
#[derive(Debug, Clone)]
pub struct DurabilityCell {
    /// Fraction of replicas latently corrupted at t=0 in this cell.
    pub latent_fraction: f64,
    /// Metrics with background scrubbing and prioritized repair.
    pub scrub_on: RunMetrics,
    /// Metrics with scrubbing disabled: verified reads are the only
    /// detection path, so rot a task never happens to read lingers.
    pub scrub_off: RunMetrics,
}

impl DurabilityCell {
    /// Blocks with zero intact replicas at end of run:
    /// `(scrub_on, scrub_off)`. The sweep's headline: scrubbing must
    /// dominate (never lose more, usually strictly fewer).
    pub fn permanently_lost(&self) -> (usize, usize) {
        (
            self.scrub_on.blocks_permanently_lost,
            self.scrub_off.blocks_permanently_lost,
        )
    }

    /// Mean corruption-onset-to-detection latency in seconds:
    /// `(scrub_on, scrub_off)`.
    pub fn detection_secs(&self) -> (f64, f64) {
        (
            self.scrub_on.corruption_detection_secs.mean(),
            self.scrub_off.corruption_detection_secs.mean(),
        )
    }

    /// Relative mean-JCT inflation versus the corruption-free reference,
    /// in percent: `(scrub_on, scrub_off)` — the overhead verified reads,
    /// retries, and repair traffic cost each variant.
    pub fn jct_overhead_pct(&self, calm: &RunMetrics) -> (f64, f64) {
        let overhead = |cell: &RunMetrics| {
            let (a, b) = (
                cell.job_completion_secs().mean(),
                calm.job_completion_secs().mean(),
            );
            if b == 0.0 {
                0.0
            } else {
                (a - b) / b * 100.0
            }
        };
        (overhead(&self.scrub_on), overhead(&self.scrub_off))
    }
}

/// The corruption-injection profile the sweep runs: a latent population
/// plus fast ongoing arrivals, a deep retry budget so jobs survive the
/// rot they can survive, and default scrub/repair pacing when on.
fn sweep_corruption(latent_fraction: f64, scrub: bool) -> crate::config::CorruptionConfig {
    let mut cc = crate::config::CorruptionConfig::default()
        .with_latent_fraction(latent_fraction)
        .with_mean_time_between_corruptions(3.0)
        .with_scrub_interval(if scrub { 5.0 } else { 0.0 });
    // A provisioned scrubber: wide enough to cover the whole namespace
    // every tick or two even on the paper clusters, so rot is found well
    // before the arrival process can finish off a block's remaining
    // copies. Both variants get the same provisioned repair pacing —
    // only detection differs between them.
    cc.scrub_blocks_per_tick = 2048;
    cc.repair_batch = 16;
    cc.retry_budget = 64;
    cc
}

/// The durability sweep: the background scrubber + unified prioritized
/// repair pipeline on vs off across a grid of injected latent-corruption
/// rates (each also running the same ongoing arrival process), plus a
/// corruption-free reference at the front. All cells share the cluster,
/// submission schedule, and placement; per rate, both variants seed the
/// same latent marks. Returns `(calm, cells)`; cells are run in parallel
/// and ordered by increasing rate.
pub fn durability_sweep(
    num_nodes: usize,
    jobs_per_app: usize,
    latent_fractions: &[f64],
    seed: u64,
) -> (RunMetrics, Vec<DurabilityCell>) {
    let mut base = SimConfig::paper(
        WorkloadKind::WordCount,
        num_nodes,
        AllocatorKind::Custody,
        seed,
    );
    base.campaign = base.campaign.with_jobs_per_app(jobs_per_app);
    let base_for_cells = base.clone();
    let grid: Vec<f64> = latent_fractions.to_vec();
    let mut cells = custody_simcore::par_map(&grid, move |&latent| {
        let with = |scrub: bool| {
            let cfg = base_for_cells
                .clone()
                .with_corruption(sweep_corruption(latent, scrub));
            Simulation::run(&cfg).cluster_metrics
        };
        DurabilityCell {
            latent_fraction: latent,
            scrub_on: with(true),
            scrub_off: with(false),
        }
    });
    cells.sort_by(|a, b| a.latent_fraction.total_cmp(&b.latent_fraction));
    let calm = Simulation::run(&base).cluster_metrics;
    (calm, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_runs_and_compares() {
        let cell = run_cell(WorkloadKind::WordCount, 10, 2, 11);
        assert_eq!(cell.custody.jobs_completed, 8);
        assert_eq!(cell.baseline.jobs_completed, 8);
        let (c, b) = cell.locality();
        assert!(c.count() == 8 && b.count() == 8);
        // Shape check: Custody never does worse on locality.
        assert!(cell.locality_gain_points() >= -1e-9);
    }

    #[test]
    fn sweep_covers_grid() {
        let cells = locality_and_jct_sweep(&[8, 12], 1, 12);
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].num_nodes, 8);
        assert_eq!(cells[5].num_nodes, 12);
        assert_eq!(cells[1].workload, WorkloadKind::WordCount);
    }

    #[test]
    fn detector_sweep_runs_and_orders_cells() {
        let (oracle, cells) = detector_sweep(10, 2, &[0.05, 0.4], 17);
        assert_eq!(cells.len(), 2);
        assert!(cells[0].drop_probability < cells[1].drop_probability);
        assert_eq!(oracle.false_suspicions, 0);
        assert_eq!(oracle.jobs_completed, 8);
        for cell in &cells {
            assert_eq!(cell.metrics.jobs_completed, 8);
            assert_eq!(cell.metrics.unfenced_stale_finishes, 0);
        }
    }

    #[test]
    fn failslow_sweep_runs_and_orders_cells() {
        let cells = failslow_sweep(6, 1, &[0.3, 0.0], &[21, 22]);
        assert_eq!(cells.len(), 2);
        // Ordered healthy → sick (increasing fraction).
        assert!(cells[0].sick_fraction < cells[1].sick_fraction);
        // No sick nodes: nothing to detect on either variant.
        assert_eq!(cells[0].custody_on.onsets, 0);
        assert_eq!(cells[0].custody_on.quarantines, 0);
        // Sick cell: slowdowns set in, and only detection-on variants
        // may quarantine.
        let sick = &cells[1];
        assert!(sick.custody_on.onsets > 0, "no slowdown drawn");
        assert_eq!(sick.custody_off.quarantines, 0);
        assert_eq!(sick.baseline_off.quarantines, 0);
        let (c, b) = sick.detection_jct_gain_pct();
        assert!(c.is_finite() && b.is_finite());
    }

    #[test]
    fn demotion_sweep_runs_and_orders_cells() {
        let cells = demotion_sweep(6, 2, &[0.3, 0.0], &[21, 22]);
        assert_eq!(cells.len(), 2);
        // Ordered healthy → sick (increasing fraction).
        assert!(cells[0].sick_fraction < cells[1].sick_fraction);
        // No sick nodes: both variants see identical clusters and the
        // detector never fires, so the gap is exactly zero.
        assert_eq!(cells[0].soft.onsets, 0);
        assert_eq!(cells[0].soft.jct.mean(), cells[0].off.jct.mean());
        assert!(cells[0].soft_gain_pct().abs() < 1e-9);
        // Sick cell: slowdowns set in on both variants, comparisons stay
        // finite.
        let sick = &cells[1];
        assert!(sick.soft.onsets > 0, "no slowdown drawn");
        assert!(sick.off.onsets > 0, "no slowdown drawn");
        assert!(sick.soft_gain_pct().is_finite());
        assert!(sick.soft_locality_gain_points().is_finite());
    }

    #[test]
    fn partition_sweep_runs_and_orders_cells() {
        let (custody_calm, baseline_calm, cells) = partition_sweep(10, 4, &[0.2, 0.4], &[8.0], 19);
        assert_eq!(cells.len(), 2);
        // Ordered gentle → harsh (increasing split fraction).
        assert!(cells[0].split_fraction < cells[1].split_fraction);
        // The calm reference never saw a cut.
        assert_eq!(custody_calm.partition_episodes, 0);
        assert_eq!(baseline_calm.partition_episodes, 0);
        assert_eq!(custody_calm.jobs_completed, 16);
        assert_eq!(baseline_calm.jobs_completed, 16);
        for cell in &cells {
            // Split-brain fencing never lets work double-complete, and
            // every job still finishes once the cuts heal.
            assert_eq!(cell.custody.jobs_completed, 16);
            assert_eq!(cell.baseline.jobs_completed, 16);
            assert_eq!(cell.custody.unfenced_stale_finishes, 0);
            assert_eq!(cell.baseline.unfenced_stale_finishes, 0);
            let (c, b) = cell.jct_stretch_pct(&custody_calm, &baseline_calm);
            assert!(c.is_finite() && b.is_finite());
            let (rc, rb) = cell.reconverge_secs();
            assert!(rc >= 0.0 && rb >= 0.0);
        }
        // At least one run in the sweep actually cut the network.
        assert!(
            cells
                .iter()
                .any(|c| c.custody.partition_episodes > 0 || c.baseline.partition_episodes > 0),
            "partition sweep drew no episodes"
        );
    }

    #[test]
    fn durability_sweep_runs_and_orders_cells() {
        let (calm, cells) = durability_sweep(10, 4, &[0.3, 0.15], 19);
        assert_eq!(cells.len(), 2);
        // Ordered gentle → harsh (increasing rate).
        assert!(cells[0].latent_fraction < cells[1].latent_fraction);
        // The reference never saw rot.
        assert_eq!(calm.replicas_corrupted, 0);
        assert_eq!(calm.jobs_completed, 16);
        for cell in &cells {
            for m in [&cell.scrub_on, &cell.scrub_off] {
                // No job may ever hang or double-complete under rot.
                assert_eq!(m.jobs_completed + m.jobs_failed, 16);
                assert!(m.replicas_corrupted > 0, "no corruption injected");
            }
            // Scrubbing is the only detector that finds rot nobody reads.
            assert!(cell.scrub_on.scrub_detections > 0, "scrubber idle");
            assert_eq!(cell.scrub_off.scrub_detections, 0);
            // The headline: scrub + prioritized repair dominates on
            // permanent loss at every injected rate.
            let (on, off) = cell.permanently_lost();
            assert!(
                on < off,
                "scrubbing did not dominate at rate {}: {on} vs {off} lost",
                cell.latent_fraction
            );
            // Scrubbing also restores redundancy rot merely endangered.
            assert!(
                cell.scrub_on.blocks_at_risk < cell.scrub_off.blocks_at_risk,
                "scrubbing left as many blocks at risk as not scrubbing"
            );
            let (jo, _) = cell.jct_overhead_pct(&calm);
            assert!(jo.is_finite());
        }
    }

    #[test]
    fn chaos_sweep_runs_and_orders_cells() {
        let (custody_calm, baseline_calm, cells) = chaos_sweep(10, 2, &[40.0, 15.0], 13);
        assert_eq!(cells.len(), 2);
        // Ordered calm → stormy (decreasing MTBF).
        assert!(cells[0].mtbf_secs > cells[1].mtbf_secs);
        assert_eq!(custody_calm.nodes_failed, 0);
        assert_eq!(baseline_calm.jobs_completed, 8);
        for cell in &cells {
            assert_eq!(cell.custody.jobs_completed, 8);
            assert_eq!(cell.baseline.jobs_completed, 8);
            let (c, b) = cell.locality_degradation_points(&custody_calm, &baseline_calm);
            assert!(c.is_finite() && b.is_finite());
            let (rc, rb) = cell.recovery_secs();
            assert!(rc >= 0.0 && rb >= 0.0);
        }
    }
}
