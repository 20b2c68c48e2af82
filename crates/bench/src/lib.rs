#![warn(missing_docs)]

//! # custody-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation section (§VI) from the simulator, plus the ablation
//! studies DESIGN.md calls out.
//!
//! Two entry points:
//!
//! * the `figures` binary — `cargo run --release -p custody-bench --bin
//!   figures -- all` prints every figure's rows;
//! * the Criterion benches under `benches/` — one per figure/ablation,
//!   each printing its table once and then timing the underlying
//!   simulation or algorithm.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator,
//! not 100 Linode VMs); the *shape* — who wins, by roughly what factor,
//! and how trends move with cluster size — is the reproduction target.
//! EXPERIMENTS.md records paper-vs-measured for every row.

pub mod scale;
pub use scale::{scale_config, synthetic_round_view};

use custody_core::theory::{exact_max_local_jobs, greedy_local_jobs, roundrobin_local_jobs};
use custody_core::AllocatorKind;
use custody_sim::experiment::{locality_and_jct_sweep, ComparisonCell, PAPER_CLUSTER_SIZES};
use custody_sim::report::{pct_mean_std, render_table};
use custody_sim::{PlacementKind, QuotaMode, SimConfig, Simulation, WorkloadKind};
use custody_simcore::SimRng;

/// Options shared by all figure generators.
#[derive(Debug, Clone)]
pub struct FigureOptions {
    /// Jobs per application (the paper uses 30).
    pub jobs_per_app: usize,
    /// Master seed.
    pub seed: u64,
    /// Cluster sizes to sweep.
    pub sizes: Vec<usize>,
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions {
            jobs_per_app: 30,
            seed: 42,
            sizes: PAPER_CLUSTER_SIZES.to_vec(),
        }
    }
}

impl FigureOptions {
    /// A scaled-down variant for quick checks and CI.
    pub fn quick() -> Self {
        FigureOptions {
            jobs_per_app: 5,
            seed: 42,
            sizes: vec![25, 50, 100],
        }
    }
}

/// Runs the Fig. 7/8 sweep once (shared by both figures).
pub fn run_sweep(opts: &FigureOptions) -> Vec<ComparisonCell> {
    locality_and_jct_sweep(&opts.sizes, opts.jobs_per_app, opts.seed)
}

/// Fig. 7: data locality of input tasks, Custody vs the Spark baseline,
/// per workload and cluster size.
pub fn fig7_table(cells: &[ComparisonCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let (cu, ba) = c.locality();
            vec![
                c.num_nodes.to_string(),
                c.workload.name().to_string(),
                pct_mean_std(&cu),
                pct_mean_std(&ba),
                format!("{:+.2} pp", c.locality_gain_points()),
            ]
        })
        .collect();
    format!(
        "Fig. 7 — % local input tasks (mean ± std per job)\n{}",
        render_table(
            &["nodes", "workload", "custody", "spark-static", "gain"],
            &rows
        )
    )
}

/// Fig. 7 companion: the fixed-per-app-capacity regime in which the
/// baseline's locality decays with cluster size exactly as §VI-C
/// describes, while Custody stays insensitive.
pub fn fig7_fixed_quota_table(opts: &FigureOptions) -> String {
    let quota = QuotaMode::FixedPerApp(12);
    let mut rows = Vec::new();
    for &n in &opts.sizes {
        {
            let workload = WorkloadKind::Sort;
            let mut cfg =
                SimConfig::paper(workload, n, AllocatorKind::Custody, opts.seed).with_quota(quota);
            cfg.campaign = cfg.campaign.with_jobs_per_app(opts.jobs_per_app);
            let custody = Simulation::run(&cfg).cluster_metrics;
            let baseline =
                Simulation::run(&cfg.clone().with_allocator(AllocatorKind::StaticSpread))
                    .cluster_metrics;
            rows.push(vec![
                n.to_string(),
                workload.name().to_string(),
                pct_mean_std(&custody.input_locality()),
                pct_mean_std(&baseline.input_locality()),
                format!(
                    "{:+.2} pp",
                    (custody.input_locality().mean() - baseline.input_locality().mean()) * 100.0
                ),
            ]);
        }
    }
    format!(
        "Fig. 7 (fixed per-app capacity = 12 executors) — baseline locality decays with size\n{}",
        render_table(
            &["nodes", "workload", "custody", "spark-static", "gain"],
            &rows
        )
    )
}

/// Where the driver's time went: cumulative allocator wall time, executed
/// rounds, and rounds skipped outright, aggregated
/// over a sweep's runs. Printed by the `figures` binary so regressions in
/// allocator cost show up next to the figures they would distort.
pub fn allocator_cost_summary(cells: &[ComparisonCell]) -> String {
    let line = |name: &str, pick: &dyn Fn(&ComparisonCell) -> &custody_sim::RunMetrics| {
        let wall: f64 = cells.iter().map(|c| pick(c).allocator_wall_secs).sum();
        let rounds: usize = cells.iter().map(|c| pick(c).allocation_rounds).sum();
        let skipped: usize = cells.iter().map(|c| pick(c).rounds_skipped).sum();
        format!(
            "  {name:<14} {:>9.1} ms allocator wall  {rounds:>8} rounds ({:.2} µs/round)  {skipped} skipped\n",
            wall * 1e3,
            wall * 1e6 / rounds.max(1) as f64,
        )
    };
    format!(
        "Allocator cost across the sweep ({} runs per system):\n{}{}",
        cells.len(),
        line("custody", &|c| &c.custody),
        line("spark-static", &|c| &c.baseline),
    )
}

/// Fig. 8: average job completion times.
pub fn fig8_table(cells: &[ComparisonCell]) -> String {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.num_nodes.to_string(),
                c.workload.name().to_string(),
                format!("{:.2} s", c.custody.job_completion_secs().mean()),
                format!("{:.2} s", c.baseline.job_completion_secs().mean()),
                format!("{:+.2} %", c.jct_reduction_pct()),
            ]
        })
        .collect();
    format!(
        "Fig. 8 — average job completion time\n{}",
        render_table(
            &["nodes", "workload", "custody", "spark-static", "reduction"],
            &rows
        )
    )
}

/// Fig. 9: average completion time of map (input) stages in the largest
/// cluster.
pub fn fig9_table(cells: &[ComparisonCell]) -> String {
    let largest = cells.iter().map(|c| c.num_nodes).max().unwrap_or(0);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .filter(|c| c.num_nodes == largest)
        .map(|c| {
            vec![
                c.workload.name().to_string(),
                format!("{:.2} s", c.custody.input_stage_secs().mean()),
                format!("{:.2} s", c.baseline.input_stage_secs().mean()),
                format!("{:+.2} %", c.input_stage_reduction_pct()),
            ]
        })
        .collect();
    format!(
        "Fig. 9 — average input (map) stage completion time, {largest}-node cluster\n{}",
        render_table(&["workload", "custody", "spark-static", "reduction"], &rows)
    )
}

/// Fig. 10: average scheduler delay vs cluster size (aggregated across
/// workloads, as the paper plots one curve per system).
pub fn fig10_table(cells: &[ComparisonCell]) -> String {
    let mut rows = Vec::new();
    let mut sizes: Vec<usize> = cells.iter().map(|c| c.num_nodes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for n in sizes {
        let of_size: Vec<&ComparisonCell> = cells.iter().filter(|c| c.num_nodes == n).collect();
        let mean = |f: &dyn Fn(&ComparisonCell) -> f64| {
            of_size.iter().map(|c| f(c)).sum::<f64>() / of_size.len().max(1) as f64
        };
        let custody = mean(&|c: &ComparisonCell| c.scheduler_delays().0);
        let baseline = mean(&|c: &ComparisonCell| c.scheduler_delays().1);
        let custody_q = mean(&|c: &ComparisonCell| c.custody.queueing_delay_secs().mean());
        let baseline_q = mean(&|c: &ComparisonCell| c.baseline.queueing_delay_secs().mean());
        rows.push(vec![
            n.to_string(),
            format!("{:.1} ms", custody * 1000.0),
            format!("{:.1} ms", baseline * 1000.0),
            format!("{:.2} s", custody_q),
            format!("{:.2} s", baseline_q),
        ]);
    }
    format!(
        "Fig. 10 — average scheduler delay (locality wait while an executor idled),\n\
         plus total queueing delay (runnable → launch) for context\n{}",
        render_table(
            &[
                "nodes",
                "custody",
                "spark-static",
                "custody-queue",
                "spark-queue"
            ],
            &rows
        )
    )
}

/// One ablation comparison at the paper's 100-node scale.
fn ablation_run(
    workload: WorkloadKind,
    allocator: AllocatorKind,
    opts: &FigureOptions,
    placement: PlacementKind,
) -> custody_sim::RunMetrics {
    let mut cfg = SimConfig::paper(workload, 100, allocator, opts.seed).with_placement(placement);
    cfg.campaign = cfg.campaign.with_jobs_per_app(opts.jobs_per_app);
    Simulation::run(&cfg).cluster_metrics
}

/// One ablation comparison under locality scarcity — the Fig. 3/4 regime
/// where "the resources in a cluster ... may become too scarce to satisfy
/// the locality requirements from all the jobs" (§IV-A): single-replica
/// blocks (each block lives on exactly one node, like the worked
/// examples), a tight 8-executor quota per application, and a zero-wait
/// task scheduler so locality missed at allocation time is never
/// recovered by waiting. Here the allocation *strategy* alone decides
/// which jobs end up local.
fn scarce_run(
    workload: WorkloadKind,
    allocator: AllocatorKind,
    opts: &FigureOptions,
) -> custody_sim::RunMetrics {
    use custody_scheduler::SchedulerKind;
    let mut cfg = SimConfig::paper(workload, 50, allocator, opts.seed)
        .with_quota(QuotaMode::FixedPerApp(8))
        .with_scheduler(SchedulerKind::LocalityFirst);
    cfg.cluster = cfg.cluster.with_replication(1);
    cfg.campaign = cfg.campaign.with_jobs_per_app(opts.jobs_per_app);
    Simulation::run(&cfg).cluster_metrics
}

/// Ablation: priority vs fairness-based intra-application allocation
/// (Fig. 4/5 at scale).
pub fn ablation_intra_table(opts: &FigureOptions) -> String {
    let mut rows = Vec::new();
    for workload in WorkloadKind::ALL {
        let prio = scarce_run(workload, AllocatorKind::Custody, opts);
        let fair = scarce_run(workload, AllocatorKind::CustodyFairIntra, opts);
        rows.push(vec![
            workload.name().to_string(),
            format!("{:.1} %", prio.min_local_job_fraction() * 100.0),
            format!("{:.1} %", fair.min_local_job_fraction() * 100.0),
            format!("{:.2} s", prio.job_completion_secs().mean()),
            format!("{:.2} s", fair.job_completion_secs().mean()),
        ]);
    }
    let end_to_end = render_table(
        &[
            "workload",
            "min-local-jobs prio",
            "min-local-jobs fair",
            "jct prio",
            "jct fair",
        ],
        &rows,
    );
    // One-shot allocation rounds (the Fig. 4 setting proper): random
    // instances with a tight budget, priority vs round-robin fairness.
    let mut rng = SimRng::seed_from_u64(opts.seed);
    let (mut prio_jobs, mut fair_jobs) = (0usize, 0usize);
    let trials = 1000;
    for _ in 0..trials {
        let num_exec = 8;
        let jobs: Vec<Vec<Vec<usize>>> = (0..2 + rng.below(3))
            .map(|_| {
                let tasks = 1 + rng.below(4);
                (0..tasks)
                    .map(|_| {
                        let replicas = 1 + rng.below(2);
                        rng.choose_distinct(num_exec, replicas)
                    })
                    .collect()
            })
            .collect();
        let budget = 2 + rng.below(4);
        prio_jobs += greedy_local_jobs(&jobs, num_exec, budget).local_jobs;
        fair_jobs += roundrobin_local_jobs(&jobs, num_exec, budget).local_jobs;
    }
    format!(
        "Ablation (intra-app): fewest-tasks-first priority vs round-robin fairness, scarce quota (8 executors/app, 50 nodes)\n{end_to_end}\n\
         One-shot allocation rounds ({trials} random instances, tight budget): \
         fully-local jobs priority {prio_jobs} vs fairness {fair_jobs} ({:+.1} %)\n",
        100.0 * (prio_jobs as f64 - fair_jobs as f64) / fair_jobs.max(1) as f64
    )
}

/// Ablation: min-locality vs naive count-fair inter-application selection
/// (Fig. 3 at scale). Reports the fairness of the locality distribution.
pub fn ablation_inter_table(opts: &FigureOptions) -> String {
    let mut rows = Vec::new();
    for workload in WorkloadKind::ALL {
        let locality = scarce_run(workload, AllocatorKind::Custody, opts);
        let naive = scarce_run(workload, AllocatorKind::CustodyNaiveInter, opts);
        let jain = |m: &custody_sim::RunMetrics| {
            custody_core::fairness::jain_index(&m.local_job_fractions()).unwrap_or(0.0)
        };
        rows.push(vec![
            workload.name().to_string(),
            format!("{:.1} %", locality.min_local_job_fraction() * 100.0),
            format!("{:.1} %", naive.min_local_job_fraction() * 100.0),
            format!("{:.4}", jain(&locality)),
            format!("{:.4}", jain(&naive)),
        ]);
    }
    format!(
        "Ablation (inter-app): min-locality vs naive count-fair selection, scarce quota (8 executors/app, 50 nodes)\n{}",
        render_table(
            &[
                "workload",
                "min-local-jobs custody",
                "min-local-jobs naive",
                "jain custody",
                "jain naive"
            ],
            &rows
        )
    )
}

/// Ablation: replica placement policies under Custody (§VII: popularity-
/// based replication "will further enhance the performance of Custody").
pub fn ablation_placement_table(opts: &FigureOptions) -> String {
    let mut rows = Vec::new();
    for placement in [PlacementKind::Random, PlacementKind::Popularity] {
        for allocator in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
            let m = ablation_run(WorkloadKind::Sort, allocator, opts, placement);
            rows.push(vec![
                placement.name().to_string(),
                allocator.name().to_string(),
                pct_mean_std(&m.input_locality()),
                format!("{:.2} s", m.job_completion_secs().mean()),
            ]);
        }
    }
    format!(
        "Ablation (placement): replica placement × allocator, Sort, 100 nodes\n{}",
        render_table(&["placement", "allocator", "locality", "jct"], &rows)
    )
}

/// Ablation: delay-scheduling wait threshold sweep with and without
/// Custody (§V interaction).
pub fn ablation_delay_table(opts: &FigureOptions) -> String {
    use custody_scheduler::SchedulerKind;
    use custody_simcore::SimDuration;
    let mut rows = Vec::new();
    for wait_ms in [0u64, 1_000, 3_000, 10_000] {
        for allocator in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
            let mut cfg = SimConfig::paper(WorkloadKind::Sort, 100, allocator, opts.seed)
                .with_scheduler(SchedulerKind::Delay(SimDuration::from_millis(wait_ms)));
            cfg.campaign = cfg.campaign.with_jobs_per_app(opts.jobs_per_app);
            let m = Simulation::run(&cfg).cluster_metrics;
            rows.push(vec![
                format!("{:.1} s", wait_ms as f64 / 1000.0),
                allocator.name().to_string(),
                pct_mean_std(&m.input_locality()),
                format!("{:.2} s", m.job_completion_secs().mean()),
                format!("{:.1} ms", m.scheduler_delay_secs().mean() * 1000.0),
            ]);
        }
    }
    format!(
        "Ablation (delay scheduling): locality-wait threshold × allocator, Sort, 100 nodes\n{}",
        render_table(
            &["wait", "allocator", "locality", "jct", "sched-delay"],
            &rows
        )
    )
}

/// Ablation: speculative execution (the §IV-B straggler-mitigation
/// extension) on a congested cluster, with and without Custody — does
/// cloning stragglers recover what locality misses?
pub fn ablation_speculation_table(opts: &FigureOptions) -> String {
    use custody_scheduler::speculation::SpeculationConfig;
    let mut rows = Vec::new();
    for speculation in [None, Some(SpeculationConfig::default())] {
        for allocator in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
            let mut cfg = SimConfig::paper(WorkloadKind::Sort, 25, allocator, opts.seed);
            cfg.campaign = cfg.campaign.with_jobs_per_app(opts.jobs_per_app);
            cfg.speculation = speculation;
            let m = Simulation::run(&cfg).cluster_metrics;
            rows.push(vec![
                if speculation.is_some() { "on" } else { "off" }.to_string(),
                allocator.name().to_string(),
                format!("{:.2} s", m.job_completion_secs().mean()),
                format!("{:.2} s", m.input_stage_secs().mean()),
                m.tasks_speculated.to_string(),
            ]);
        }
    }
    format!(
        "Ablation (speculation): straggler cloning × allocator, Sort, congested 25 nodes\n{}",
        render_table(
            &["speculation", "allocator", "jct", "input-stage", "clones"],
            &rows
        )
    )
}

/// Chaos sweep: Custody vs the Spark baseline under an increasingly
/// violent stochastic fault process (node crash/recovery cycles,
/// executor-only faults, transient network degradation). Reports
/// locality degradation relative to a calm run, fault counts, and the
/// fault-to-stable recovery time — the §VII fault-tolerance story.
pub fn chaos_table(opts: &FigureOptions) -> String {
    use custody_sim::experiment::chaos_sweep;
    // The congested regime: the smallest paper cluster is where faults
    // actually displace running tasks (larger clusters shrug them off).
    let nodes = opts.sizes.iter().copied().min().unwrap_or(25).min(25);
    let mtbfs = [120.0, 60.0, 30.0, 15.0];
    let (custody_calm, baseline_calm, cells) =
        chaos_sweep(nodes, opts.jobs_per_app, &mtbfs, opts.seed);
    let mut rows = vec![vec![
        "calm".to_string(),
        pct_mean_std(&custody_calm.input_locality()),
        pct_mean_std(&baseline_calm.input_locality()),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]];
    for cell in &cells {
        let (dc, db) = cell.locality_degradation_points(&custody_calm, &baseline_calm);
        let (rc, rb) = cell.recovery_secs();
        let m = &cell.custody;
        rows.push(vec![
            format!("{:.0} s", cell.mtbf_secs),
            pct_mean_std(&m.input_locality()),
            pct_mean_std(&cell.baseline.input_locality()),
            format!("{dc:+.2} / {db:+.2} pp"),
            format!(
                "{}+{} dn, {} up, {} req",
                m.nodes_failed, m.executor_faults, m.nodes_recovered, m.tasks_requeued
            ),
            format!("{rc:.1} / {rb:.1} s"),
        ]);
    }
    format!(
        "Chaos sweep — locality under stochastic faults, WordCount, {nodes} nodes\n\
         (degradation = locality lost vs the calm run; recovery = mean fault-to-stable time)\n{}",
        render_table(
            &[
                "mtbf",
                "custody",
                "spark-static",
                "degradation c/s",
                "faults (custody)",
                "recovery c/s"
            ],
            &rows
        )
    )
}

/// Partition sweep: Custody vs the Spark baseline under seeded network
/// partitions — clean splits, asymmetric cuts, and flapping links over a
/// grid of (split fraction × mean heal time). Reports JCT stretch
/// relative to a partition-free run on the same control plane, the
/// split-brain fencing counters (deferred and fenced minority Finish
/// reports, minority work discarded at reconnect), and the mean
/// heal-to-reconverge time — the rejoin-reconciliation story.
pub fn partition_table(opts: &FigureOptions) -> String {
    use custody_sim::experiment::partition_sweep;
    // The congested regime again: on the smallest paper cluster a cut
    // actually strands running work behind the split.
    let nodes = opts.sizes.iter().copied().min().unwrap_or(25).min(25);
    let splits = [0.2, 0.4];
    let heals = [5.0, 15.0];
    let (custody_calm, baseline_calm, cells) =
        partition_sweep(nodes, opts.jobs_per_app, &splits, &heals, opts.seed);
    let mut rows = vec![vec![
        "calm".to_string(),
        "-".to_string(),
        format!(
            "{:.2} / {:.2} s",
            custody_calm.job_completion_secs().mean(),
            baseline_calm.job_completion_secs().mean()
        ),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]];
    for cell in &cells {
        let (sc, sb) = cell.jct_stretch_pct(&custody_calm, &baseline_calm);
        let (rc, rb) = cell.reconverge_secs();
        let (fc, fb) = cell.fenced_finishes();
        let m = &cell.custody;
        rows.push(vec![
            format!("{:.0} %", cell.split_fraction * 100.0),
            format!("{:.0} s", cell.mean_heal_secs),
            format!(
                "{:.2} / {:.2} s",
                m.job_completion_secs().mean(),
                cell.baseline.job_completion_secs().mean()
            ),
            format!("{sc:+.1} / {sb:+.1} %"),
            format!(
                "{} ep, {} def",
                m.partition_episodes, m.partition_finishes_deferred
            ),
            format!("{fc} / {fb} fenced, {} disc", m.partition_work_discarded),
            format!("{rc:.1} / {rb:.1} s"),
        ]);
    }
    format!(
        "Partition sweep — network cuts by split fraction and heal time, WordCount, {nodes} nodes\n\
         (stretch = mean-JCT inflation vs the partition-free run; fenced = split-brain Finish\n\
         reports the epoch fence rejected; reconverge = heal-to-settled belief time)\n{}",
        render_table(
            &[
                "split",
                "heal",
                "jct c/s",
                "stretch c/s",
                "episodes (custody)",
                "fencing c/s",
                "reconverge c/s"
            ],
            &rows
        )
    )
}

/// Durability sweep: the background scrubber + unified prioritized
/// repair pipeline on vs off across injected latent-corruption rates,
/// each also running the same ongoing arrival process. Reports blocks
/// permanently lost and left at risk, the mean corruption-onset-to-
/// detection latency, repair traffic, and the mean-JCT overhead relative
/// to a corruption-free run — the data-durability story: scrubbing
/// dominates on loss at every rate, and the overhead it costs is the
/// price of that durability.
pub fn durability_table(opts: &FigureOptions) -> String {
    use custody_sim::experiment::durability_sweep;
    // The congested regime: on the smallest paper cluster every block
    // hosts live work, so rot is felt rather than shrugged off.
    let nodes = opts.sizes.iter().copied().min().unwrap_or(25).min(25);
    let rates = [0.15, 0.2, 0.3];
    let (calm, cells) = durability_sweep(nodes, opts.jobs_per_app, &rates, opts.seed);
    let mut rows = vec![vec![
        "calm".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.2} s", calm.job_completion_secs().mean()),
        "-".to_string(),
    ]];
    for cell in &cells {
        let (lo, lf) = cell.permanently_lost();
        let (dl, df) = cell.detection_secs();
        let (jo, jf) = cell.jct_overhead_pct(&calm);
        rows.push(vec![
            format!("{:.0} %", cell.latent_fraction * 100.0),
            format!("{lo} / {lf}"),
            format!(
                "{} / {}",
                cell.scrub_on.blocks_at_risk, cell.scrub_off.blocks_at_risk
            ),
            format!("{dl:.1} / {df:.1} s"),
            format!(
                "{} / {}",
                cell.scrub_on.replicas_repaired, cell.scrub_off.replicas_repaired
            ),
            format!(
                "{:.2} / {:.2} s",
                cell.scrub_on.job_completion_secs().mean(),
                cell.scrub_off.job_completion_secs().mean()
            ),
            format!("{jo:+.1} / {jf:+.1} %"),
        ]);
    }
    format!(
        "Durability sweep — scrub + prioritized repair on/off by latent rot rate, WordCount, {nodes} nodes\n\
         (lost = blocks with zero intact replicas at end of run; at risk = down to a sole intact copy;\n\
         detect = mean onset-to-detection latency; overhead = mean-JCT inflation vs the rot-free run)\n{}",
        render_table(
            &[
                "rot",
                "lost on/off",
                "at risk on/off",
                "detect on/off",
                "repairs on/off",
                "jct on/off",
                "overhead on/off"
            ],
            &rows
        )
    )
}

/// Detector sweep: the modeled control plane (lossy heartbeats,
/// suspicion timeouts, leases, epoch fencing, master checkpoint/WAL
/// recovery) vs oracle failure knowledge, on the same chaos schedule.
/// Shows what imperfect detection costs — false suspicions, detection
/// latency, lease revocations, lost blocks — and what it does to the
/// paper's headline metrics.
pub fn detector_table(opts: &FigureOptions) -> String {
    use custody_sim::experiment::detector_sweep;
    let nodes = opts.sizes.iter().copied().min().unwrap_or(25).min(25);
    let drops = [0.0, 0.05, 0.2, 0.5];
    let (oracle, cells) = detector_sweep(nodes, opts.jobs_per_app, &drops, opts.seed);
    let row = |label: String, m: &custody_sim::RunMetrics| {
        vec![
            label,
            pct_mean_std(&m.input_locality()),
            format!("{:.2} s", m.job_completion_secs().mean()),
            m.false_suspicions.to_string(),
            if m.detection_latency_secs.count() > 0 {
                format!(
                    "{:.2} s ({})",
                    m.detection_latency_secs.mean(),
                    m.detection_latency_secs.count()
                )
            } else {
                "-".to_string()
            },
            m.leases_revoked.to_string(),
            m.blocks_lost.to_string(),
            m.master_recoveries.to_string(),
        ]
    };
    let mut rows = vec![row("oracle".to_string(), &oracle)];
    for cell in &cells {
        rows.push(row(
            format!("{:.0} %", cell.drop_probability * 100.0),
            &cell.metrics,
        ));
    }
    format!(
        "Detector sweep — oracle vs modeled control plane by heartbeat drop rate,\n\
         WordCount, {nodes} nodes (checkpoints + master crashes on in every modeled row)\n{}",
        render_table(
            &[
                "hb drop",
                "locality",
                "jct",
                "false-susp",
                "det-latency",
                "leases-rev",
                "blocks-lost",
                "recoveries"
            ],
            &rows
        )
    )
}

/// Fail-slow sweep: gray failures (limping disks, NICs, CPUs plus
/// transient task faults) at increasing sick fractions, Custody vs the
/// baseline, with the peer-relative health detector on vs off. Shows
/// what detection buys (JCT with quarantine + demotion vs riding the
/// slowdown out) and what it costs (false quarantines, capacity held in
/// probation). Every variant is averaged over five seeds — which node
/// sickens decides how much quarantine pays, so single runs are noisy.
pub fn failslow_table(opts: &FigureOptions) -> String {
    use custody_sim::experiment::failslow_sweep;
    // The latency-sensitive regime: a small cluster with headroom. In a
    // deeply queued batch, makespan is pure throughput and excluding a
    // half-useful slow node always costs; with spare capacity the
    // exclusion is free and detection shows its real value — killing
    // stragglers before they stretch every job's tail.
    let nodes = opts.sizes.iter().copied().min().unwrap_or(10).min(10);
    let fractions = [0.0, 0.1, 0.2, 0.3];
    let seeds = [
        opts.seed,
        opts.seed + 1,
        opts.seed + 2,
        opts.seed + 3,
        opts.seed + 4,
    ];
    let cells = failslow_sweep(nodes, opts.jobs_per_app.min(8), &fractions, &seeds);
    let mut rows = Vec::new();
    for cell in &cells {
        let (gc, gb) = cell.detection_jct_gain_pct();
        let on = &cell.custody_on;
        rows.push(vec![
            format!("{:.0} %", cell.sick_fraction * 100.0),
            format!(
                "{:.2} / {:.2} s",
                on.jct.mean(),
                cell.custody_off.jct.mean()
            ),
            format!(
                "{:.2} / {:.2} s",
                cell.baseline_on.jct.mean(),
                cell.baseline_off.jct.mean()
            ),
            format!("{gc:+.1} / {gb:+.1} %"),
            pct_mean_std(&on.locality),
            format!("{} ({} false)", on.quarantines, on.false_quarantines),
            if on.quarantine_latency.count() > 0 {
                format!("{:.1} s", on.quarantine_latency.mean())
            } else {
                "-".to_string()
            },
            format!("{} retry, {} failed", on.task_retries, on.jobs_failed),
        ]);
    }
    format!(
        "Fail-slow sweep — gray failures by sick fraction, WordCount, {nodes} nodes,\n\
         5 seeds per cell (jct on/off = health detection enabled/disabled; gain = mean-JCT\n\
         reduction from detection, positive = quarantine paid off)\n{}",
        render_table(
            &[
                "sick",
                "custody jct on/off",
                "spark jct on/off",
                "det gain c/s",
                "locality (on)",
                "quarantines",
                "q-latency",
                "faults (custody on)"
            ],
            &rows
        )
    )
}

/// Demotion sweep: busy Custody batches under lingering suspect-band
/// gray failures (2–4x slowdowns that never look dead enough to
/// quarantine), comparing cost-based soft demotion (suspect nodes get a
/// worse rational key but stay offerable, graded by how sick they look)
/// against demotion off (suspects placed as if healthy). The per-cell
/// effect is small — a work-conserving cluster self-paces its slow
/// executors — so every variant is averaged over 24 seeds; what remains
/// is the steering gain: soft places local tasks on the healthy replica
/// and prefers the mildly limping CPU over the badly limping disk.
pub fn demotion_table(opts: &FigureOptions) -> String {
    use custody_sim::experiment::demotion_sweep;
    let nodes = 20;
    let fractions = [0.0, 0.1, 0.2, 0.3];
    let seeds: Vec<u64> = (0..24).map(|i| opts.seed + i).collect();
    let cells = demotion_sweep(nodes, opts.jobs_per_app.max(8), &fractions, &seeds);
    let mut rows = Vec::new();
    for cell in &cells {
        rows.push(vec![
            format!("{:.0} %", cell.sick_fraction * 100.0),
            format!("{:.2} s", cell.soft.jct.mean()),
            format!("{:.2} s", cell.off.jct.mean()),
            format!("{:+.1} %", cell.soft_gain_pct()),
            format!("{:+.2} pp", cell.soft_locality_gain_points()),
            cell.soft.onsets.to_string(),
            format!("{} / {}", cell.soft.task_retries, cell.off.task_retries),
        ]);
    }
    format!(
        "Demotion sweep — soft (cost-based) demotion of suspect nodes vs none,\n\
         WordCount, {nodes} nodes, 24 seeds per cell, quarantine out of reach (gain =\n\
         mean-JCT reduction from soft demotion, positive = pricing beat ignoring)\n{}",
        render_table(
            &[
                "sick",
                "soft jct",
                "off jct",
                "soft gain",
                "locality Δ",
                "onsets",
                "retries s/o"
            ],
            &rows
        )
    )
}

/// Theory check: the greedy strategy of Algorithm 2 vs the exact optima
/// on random intra-application instances.
///
/// Two guarantees are verified empirically:
/// * **task level** — the greedy matching is maximal within its budget,
///   so it matches at least half of `min(budget, Hopcroft–Karp optimum)`
///   tasks (the classic maximal-matching ½ bound, which underlies the
///   paper's 2-approximation for the weighted objective of Eq. 9);
/// * **job level** — aggregate quality vs the exhaustive optimum. No
///   per-instance factor is guaranteed for whole-job counts (a partial
///   match of a small job can block a completable big one), which the
///   report shows honestly.
pub fn theory_quality_table(trials: usize, seed: u64) -> String {
    use custody_core::theory::hopcroft_karp;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut worst_task_ratio: f64 = 1.0;
    let mut greedy_jobs_total = 0usize;
    let mut exact_jobs_total = 0usize;
    for _ in 0..trials {
        let num_exec = 8;
        let num_jobs = 2 + rng.below(4);
        let jobs: Vec<Vec<Vec<usize>>> = (0..num_jobs)
            .map(|_| {
                let tasks = 1 + rng.below(3);
                (0..tasks)
                    .map(|_| {
                        let replicas = 1 + rng.below(2);
                        rng.choose_distinct(num_exec, replicas)
                    })
                    .collect()
            })
            .collect();
        let budget = 2 + rng.below(num_exec - 1);
        let greedy = greedy_local_jobs(&jobs, num_exec, budget);
        let exact_jobs = exact_max_local_jobs(&jobs, num_exec, budget);
        greedy_jobs_total += greedy.local_jobs;
        exact_jobs_total += exact_jobs;
        let adj: Vec<Vec<usize>> = jobs.iter().flat_map(|j| j.iter().cloned()).collect();
        let (hk, _) = hopcroft_karp(&adj, num_exec);
        let task_bound = hk.min(budget);
        if task_bound > 0 {
            worst_task_ratio = worst_task_ratio.min(greedy.local_tasks as f64 / task_bound as f64);
        }
    }
    format!(
        "Theory — greedy (Algorithm 2) vs exact optima over {trials} random instances\n\
         local jobs (aggregate): greedy {greedy_jobs_total} vs exhaustive {exact_jobs_total} \
         ({:.1} % of optimum)\n\
         local tasks: worst greedy/min(budget, Hopcroft-Karp) ratio {:.2} (maximal-matching bound 0.50)\n",
        100.0 * greedy_jobs_total as f64 / exact_jobs_total.max(1) as f64,
        worst_task_ratio
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FigureOptions {
        FigureOptions {
            jobs_per_app: 1,
            seed: 7,
            sizes: vec![10],
        }
    }

    #[test]
    fn sweep_and_tables_render() {
        let cells = run_sweep(&tiny());
        assert_eq!(cells.len(), 3);
        let f7 = fig7_table(&cells);
        assert!(f7.contains("Fig. 7"));
        assert!(f7.contains("pagerank"));
        let f8 = fig8_table(&cells);
        assert!(f8.contains("reduction"));
        let f9 = fig9_table(&cells);
        assert!(f9.contains("10-node"));
        let f10 = fig10_table(&cells);
        assert!(f10.contains("ms"));
    }

    #[test]
    fn theory_quality_is_within_bound() {
        let t = theory_quality_table(50, 3);
        assert!(t.contains("bound 0.50"));
        // Parse the worst task-level ratio and check the maximal-matching
        // 1/2 bound.
        let ratio: f64 = t
            .split("ratio ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.trim().parse().ok())
            .expect("table contains ratio");
        assert!(ratio >= 0.5 - 1e-9, "greedy fell below 1/2: {ratio}");
    }
}
