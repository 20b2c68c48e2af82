//! The scenario table: every simulated figure and table of the
//! evaluation, and the one runner that executes them.
//!
//! A [`Scenario`] is rows of simulation configs — per row `[variant][seed]`,
//! e.g. Custody vs the baseline or scrubbing on vs off — plus the
//! [`View`]s printed from their results. [`run`] executes every config of
//! a scenario in one parallel map and regroups the metrics in row, variant
//! and seed order; [`render`] formats one view. [`scenarios`] is the table
//! the `figures` binary prints, in print order: a new sweep is one more
//! entry there.

use custody_core::fairness::jain_index;
use custody_core::AllocatorKind;
use custody_scheduler::SchedulerKind;
use custody_simcore::stats::Summary;
use custody_simcore::SimDuration;
use custody_workload::WorkloadKind;

use crate::config::{
    ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig, PartitionConfig,
    PlacementKind, QuotaMode, SimConfig,
};
use crate::driver::Simulation;
use crate::metrics::RunMetrics;
use crate::report::{gain_pct, pct_mean_std, reduction_pct, render_table};

/// The cluster sizes of §VI-A1 (experiments "separately run on clusters
/// with 25, \[50\] and 100 nodes").
pub const PAPER_CLUSTER_SIZES: [usize; 3] = [25, 50, 100];

/// The baseline the paper compares against: Spark's standalone cluster
/// manager.
pub const PAPER_BASELINE: AllocatorKind = AllocatorKind::StaticSpread;

/// One row of a scenario: the cells labelling it and its configs.
#[derive(Debug, Clone)]
pub struct Row {
    /// Label cells, one per [`Scenario::keys`] header.
    pub key: Vec<String>,
    /// Configs as `[variant][seed]`.
    pub runs: Vec<Vec<SimConfig>>,
}

/// One row's metrics, shaped like its [`Row::runs`].
#[derive(Debug, Clone)]
pub struct RowResult {
    /// The row's label cells.
    pub key: Vec<String>,
    /// Metrics as `[variant][seed]`.
    pub runs: Vec<Vec<RunMetrics>>,
}

impl RowResult {
    /// Variant `v`'s first-seed run (its only run in single-seed
    /// scenarios).
    pub fn run(&self, v: usize) -> &RunMetrics {
        &self.runs[v][0]
    }

    /// Variant `v`'s per-run summaries merged in seed order.
    pub fn merged(&self, v: usize, f: impl Fn(&RunMetrics) -> Summary) -> Summary {
        let mut s = Summary::new();
        for m in &self.runs[v] {
            s.merge(&f(m));
        }
        s
    }

    /// Variant `v`'s per-run counts summed over seeds.
    pub fn total(&self, v: usize, f: impl Fn(&RunMetrics) -> usize) -> usize {
        self.runs[v].iter().map(f).sum()
    }
}

/// How a column formats one row.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// From the row's own results.
    Plain(fn(&RowResult) -> String),
    /// Against the first row, the reference ("calm") the others are
    /// scored against; `-` on the reference row itself.
    Scored(fn(&RowResult, &RowResult) -> String),
}

/// One value column of a table view.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Header text.
    pub header: &'static str,
    /// Formats the column's cell in each row.
    pub cell: Cell,
}

/// What a view prints.
#[derive(Debug, Clone)]
pub enum Body {
    /// Title lines, then a table of the row keys and these columns.
    Table {
        /// Title lines.
        title: String,
        /// Value columns after the key columns.
        columns: Vec<Column>,
    },
    /// A free-form summary over every row's results.
    Text(fn(&[RowResult]) -> String),
}

/// One printed output of a scenario.
#[derive(Debug, Clone)]
pub struct View {
    /// The `figures` targets that print it.
    pub targets: &'static [&'static str],
    /// What it prints.
    pub body: Body,
}

/// One entry of the scenario table.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Headers of the key columns that label each row.
    pub keys: Vec<&'static str>,
    /// Rows in display order.
    pub rows: Vec<Row>,
    /// Outputs in print order.
    pub views: Vec<View>,
}

impl Scenario {
    /// A scenario that prints one table, selected by `targets`.
    fn table(
        targets: &'static [&'static str],
        title: String,
        keys: Vec<&'static str>,
        rows: Vec<Row>,
        columns: Vec<Column>,
    ) -> Self {
        Scenario {
            keys,
            rows,
            views: vec![table(targets, title, columns)],
        }
    }
}

/// Runs every config of `scenario` in one parallel map and regroups the
/// metrics per row as `[variant][seed]`.
pub fn run(scenario: &Scenario) -> Vec<RowResult> {
    let configs: Vec<&SimConfig> = scenario
        .rows
        .iter()
        .flat_map(|row| row.runs.iter().flatten())
        .collect();
    let mut metrics =
        custody_simcore::par_map(&configs, |cfg| Simulation::run(cfg).cluster_metrics).into_iter();
    scenario
        .rows
        .iter()
        .map(|row| RowResult {
            key: row.key.clone(),
            runs: row
                .runs
                .iter()
                .map(|seeds| metrics.by_ref().take(seeds.len()).collect())
                .collect(),
        })
        .collect()
}

/// Formats `view` of `scenario` from its [`run`] results.
pub fn render(scenario: &Scenario, view: &View, results: &[RowResult]) -> String {
    let (title, columns) = match &view.body {
        Body::Text(summary) => return summary(results),
        Body::Table { title, columns } => (title, columns),
    };
    let headers: Vec<&str> = scenario
        .keys
        .iter()
        .copied()
        .chain(columns.iter().map(|c| c.header))
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let cells = columns.iter().map(|c| match c.cell {
                Cell::Plain(f) => f(r),
                Cell::Scored(f) if i > 0 => f(r, &results[0]),
                Cell::Scored(_) => dash(),
            });
            r.key.iter().cloned().chain(cells).collect()
        })
        .collect();
    format!("{title}\n{}", render_table(&headers, &rows))
}

/// The scenario table, in print order.
pub fn scenarios(jobs_per_app: usize, seed: u64) -> Vec<Scenario> {
    let seeds = |n: u64| (0..n).map(|i| seed + i).collect::<Vec<u64>>();
    vec![
        paper_grid(&PAPER_CLUSTER_SIZES, jobs_per_app, seed),
        fixed_quota(&PAPER_CLUSTER_SIZES, jobs_per_app, seed),
        intra(50, jobs_per_app, seed),
        inter(50, jobs_per_app, seed),
        placement(100, jobs_per_app, seed),
        delay(100, jobs_per_app, seed),
        speculation(25, jobs_per_app, seed),
        // The congested regime: on the smallest paper cluster faults
        // actually displace running tasks, a cut strands running work
        // behind the split, and every block hosts live work so rot is
        // felt (larger clusters shrug all three off).
        chaos(25, jobs_per_app, seed),
        partition(25, jobs_per_app, seed),
        durability(25, jobs_per_app, seed),
        detector(25, jobs_per_app, seed),
        // The latency-sensitive regime: a small cluster with headroom. In
        // a deeply queued batch, makespan is pure throughput and excluding
        // a half-useful slow node always costs; with spare capacity the
        // exclusion is free and detection shows its real value — killing
        // stragglers before they stretch every job's tail. Five seeds:
        // which node sickens decides how much quarantine pays, so single
        // runs are noisy.
        failslow(10, jobs_per_app.min(8), &seeds(5)),
        // The per-cell effect is small — a work-conserving cluster
        // self-paces its slow executors — so every variant is averaged
        // over 24 seeds.
        demotion(20, jobs_per_app.max(8), &seeds(24)),
    ]
}

fn col(header: &'static str, cell: fn(&RowResult) -> String) -> Column {
    let cell = Cell::Plain(cell);
    Column { header, cell }
}

fn scored(header: &'static str, cell: fn(&RowResult, &RowResult) -> String) -> Column {
    let cell = Cell::Scored(cell);
    Column { header, cell }
}

fn table(targets: &'static [&'static str], title: String, columns: Vec<Column>) -> View {
    let body = Body::Table { title, columns };
    View { targets, body }
}

fn text(targets: &'static [&'static str], summary: fn(&[RowResult]) -> String) -> View {
    let body = Body::Text(summary);
    View { targets, body }
}

/// The paper's configuration under Custody with `jobs_per_app` jobs per
/// application (the paper uses 30). Other variants swap the allocator,
/// keeping everything else identical.
fn paper(workload: WorkloadKind, num_nodes: usize, jobs_per_app: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(workload, num_nodes, AllocatorKind::Custody, seed);
    cfg.campaign = cfg.campaign.with_jobs_per_app(jobs_per_app);
    cfg
}

/// Variants 0 and 1: `cfg` under Custody and under the paper's baseline,
/// on the same submission schedule and placement.
fn versus_baseline(cfg: SimConfig) -> Vec<Vec<SimConfig>> {
    let baseline = cfg.clone().with_allocator(PAPER_BASELINE);
    vec![vec![cfg], vec![baseline]]
}

/// Two single-variant rows keyed `setting`, one per allocator (Custody,
/// then the baseline).
fn each_allocator(setting: &str, cfg: &SimConfig) -> [Row; 2] {
    [AllocatorKind::Custody, PAPER_BASELINE].map(|allocator| Row {
        key: vec![setting.to_string(), allocator.name().to_string()],
        runs: vec![vec![cfg.clone().with_allocator(allocator)]],
    })
}

fn dash() -> String {
    "-".to_string()
}

fn secs(x: f64) -> String {
    format!("{x:.2} s")
}

fn ms(secs: f64) -> String {
    format!("{:.1} ms", secs * 1000.0)
}

fn locality(r: &RowResult, v: usize) -> Summary {
    r.merged(v, RunMetrics::input_locality)
}

fn jct(r: &RowResult, v: usize) -> f64 {
    r.merged(v, RunMetrics::job_completion_secs).mean()
}

fn input_stage(r: &RowResult, v: usize) -> f64 {
    r.merged(v, RunMetrics::input_stage_secs).mean()
}

/// Variant 0's locality gain over variant 1, in points (the Fig. 7
/// annotation, e.g. "+56.04%" for Sort at 100 nodes).
fn locality_gain(r: &RowResult) -> String {
    let gain = (locality(r, 0).mean() - locality(r, 1).mean()) * 100.0;
    format!("{gain:+.2} pp")
}

fn locality_columns() -> Vec<Column> {
    vec![
        col("custody", |r| pct_mean_std(&locality(r, 0))),
        col("spark-static", |r| pct_mean_std(&locality(r, 1))),
        col("gain", locality_gain),
    ]
}

/// Figs. 7–10: all three workloads × `sizes` (ascending), Custody vs the
/// baseline, in size-major, workload-minor order.
fn paper_grid(sizes: &[usize], jobs_per_app: usize, seed: u64) -> Scenario {
    let rows = sizes
        .iter()
        .flat_map(|&n| {
            WorkloadKind::ALL.into_iter().map(move |w| Row {
                key: vec![n.to_string(), w.name().to_string()],
                runs: versus_baseline(paper(w, n, jobs_per_app, seed)),
            })
        })
        .collect();
    let fig7 = "Fig. 7 — % local input tasks (mean ± std per job)";
    let fig8 = vec![
        col("custody", |r| secs(jct(r, 0))),
        col("spark-static", |r| secs(jct(r, 1))),
        col("reduction", |r| {
            format!("{:+.2} %", reduction_pct(jct(r, 0), jct(r, 1)))
        }),
    ];
    Scenario {
        keys: vec!["nodes", "workload"],
        rows,
        views: vec![
            table(&["fig7"], fig7.into(), locality_columns()),
            table(
                &["fig8"],
                "Fig. 8 — average job completion time".into(),
                fig8,
            ),
            text(&["fig9"], fig9),
            text(&["fig10"], fig10),
            text(&["fig7", "fig8", "fig9", "fig10"], allocator_cost),
        ],
    }
}

/// Fig. 9: average completion time of map (input) stages in the largest
/// (last) cluster size of the paper grid.
fn fig9(grid: &[RowResult]) -> String {
    let largest = grid.last().map_or("0", |r| r.key[0].as_str());
    let rows: Vec<Vec<String>> = grid
        .iter()
        .filter(|r| r.key[0] == largest)
        .map(|r| {
            let (c, b) = (input_stage(r, 0), input_stage(r, 1));
            let reduction = format!("{:+.2} %", reduction_pct(c, b));
            vec![r.key[1].clone(), secs(c), secs(b), reduction]
        })
        .collect();
    format!(
        "Fig. 9 — average input (map) stage completion time, {largest}-node cluster\n{}",
        render_table(&["workload", "custody", "spark-static", "reduction"], &rows)
    )
}

/// Fig. 10: average scheduler delay per cluster size of the paper grid,
/// averaged across workloads (the paper plots one curve per system).
fn fig10(grid: &[RowResult]) -> String {
    let rows: Vec<Vec<String>> = grid
        .chunk_by(|a, b| a.key[0] == b.key[0])
        .map(|cells| {
            let mean = |f: fn(&RunMetrics) -> Summary, v: usize| {
                cells.iter().map(|r| r.merged(v, f).mean()).sum::<f64>() / cells.len() as f64
            };
            let (delay, queue) = (
                RunMetrics::scheduler_delay_secs,
                RunMetrics::queueing_delay_secs,
            );
            vec![
                cells[0].key[0].clone(),
                ms(mean(delay, 0)),
                ms(mean(delay, 1)),
                format!("{:.2} s", mean(queue, 0)),
                format!("{:.2} s", mean(queue, 1)),
            ]
        })
        .collect();
    let headers = [
        "nodes",
        "custody",
        "spark-static",
        "custody-queue",
        "spark-queue",
    ];
    format!(
        "Fig. 10 — average scheduler delay (locality wait while an executor idled),\n\
         plus total queueing delay (runnable → launch) for context\n{}",
        render_table(&headers, &rows)
    )
}

/// Where the driver's time went across the paper grid: cumulative
/// allocator wall time, executed rounds and rounds skipped outright, so
/// regressions in allocator cost show up next to the figures they would
/// distort.
fn allocator_cost(grid: &[RowResult]) -> String {
    let line = |name: &str, v: usize| {
        let wall: f64 = grid.iter().map(|r| r.run(v).allocator_wall_secs).sum();
        let rounds: usize = grid.iter().map(|r| r.run(v).allocation_rounds).sum();
        let skipped: usize = grid.iter().map(|r| r.run(v).rounds_skipped).sum();
        format!(
            "  {name:<14} {:>9.1} ms allocator wall  {rounds:>8} rounds ({:.2} µs/round)  {skipped} skipped\n",
            wall * 1e3,
            wall * 1e6 / rounds.max(1) as f64,
        )
    };
    format!(
        "Allocator cost across the sweep ({} runs per system):\n{}{}",
        grid.len(),
        line("custody", 0),
        line("spark-static", 1),
    )
}

/// Fig. 7 companion: the fixed-per-app-capacity regime in which the
/// baseline's locality decays with cluster size exactly as §VI-C
/// describes, while Custody stays insensitive.
fn fixed_quota(sizes: &[usize], jobs_per_app: usize, seed: u64) -> Scenario {
    let workload = WorkloadKind::Sort;
    let rows = sizes
        .iter()
        .map(|&n| Row {
            key: vec![n.to_string(), workload.name().to_string()],
            runs: versus_baseline(
                paper(workload, n, jobs_per_app, seed).with_quota(QuotaMode::FixedPerApp(12)),
            ),
        })
        .collect();
    Scenario::table(
        &["fig7-fixed", "fig7"],
        "Fig. 7 (fixed per-app capacity = 12 executors) — baseline locality decays with size"
            .into(),
        vec!["nodes", "workload"],
        rows,
        locality_columns(),
    )
}

/// One row per workload under locality scarcity, Custody (variant 0) vs
/// `other` (variant 1) — the Fig. 3/4 regime where "the resources in a
/// cluster ... may become too scarce to satisfy the locality
/// requirements from all the jobs" (§IV-A): single-replica blocks (each
/// block lives on exactly one node, like the worked examples), a tight
/// 8-executor quota per application, and a zero-wait task scheduler so
/// locality missed at allocation time is never recovered by waiting.
/// Here the allocation *strategy* alone decides which jobs end up local.
fn scarce_rows(num_nodes: usize, other: AllocatorKind, jobs_per_app: usize, seed: u64) -> Vec<Row> {
    let scarce = |w, allocator| {
        let mut cfg = paper(w, num_nodes, jobs_per_app, seed)
            .with_allocator(allocator)
            .with_quota(QuotaMode::FixedPerApp(8))
            .with_scheduler(SchedulerKind::Delay(SimDuration::ZERO));
        cfg.cluster = cfg.cluster.with_replication(1);
        vec![cfg]
    };
    WorkloadKind::ALL
        .into_iter()
        .map(|w| Row {
            key: vec![w.name().to_string()],
            runs: vec![scarce(w, AllocatorKind::Custody), scarce(w, other)],
        })
        .collect()
}

fn min_local_jobs(m: &RunMetrics) -> String {
    format!("{:.1} %", m.min_local_job_fraction() * 100.0)
}

/// Ablation: priority vs fairness-based intra-application allocation
/// (Fig. 4/5 at scale).
fn intra(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    Scenario::table(
        &["ablation-intra", "ablations"],
        format!(
            "Ablation (intra-app): fewest-tasks-first priority vs round-robin fairness, \
             scarce quota (8 executors/app, {num_nodes} nodes)"
        ),
        vec!["workload"],
        scarce_rows(
            num_nodes,
            AllocatorKind::CustodyFairIntra,
            jobs_per_app,
            seed,
        ),
        vec![
            col("min-local-jobs prio", |r| min_local_jobs(r.run(0))),
            col("min-local-jobs fair", |r| min_local_jobs(r.run(1))),
            col("jct prio", |r| secs(jct(r, 0))),
            col("jct fair", |r| secs(jct(r, 1))),
        ],
    )
}

/// Ablation: min-locality vs naive count-fair inter-application selection
/// (Fig. 3 at scale), with the fairness of the locality distribution.
fn inter(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    fn jain(m: &RunMetrics) -> String {
        format!("{:.4}", jain_index(&m.local_job_fractions()).unwrap_or(0.0))
    }
    Scenario::table(
        &["ablation-inter", "ablations"],
        format!(
            "Ablation (inter-app): min-locality vs naive count-fair selection, \
             scarce quota (8 executors/app, {num_nodes} nodes)"
        ),
        vec!["workload"],
        scarce_rows(
            num_nodes,
            AllocatorKind::CustodyNaiveInter,
            jobs_per_app,
            seed,
        ),
        vec![
            col("min-local-jobs custody", |r| min_local_jobs(r.run(0))),
            col("min-local-jobs naive", |r| min_local_jobs(r.run(1))),
            col("jain custody", |r| jain(r.run(0))),
            col("jain naive", |r| jain(r.run(1))),
        ],
    )
}

/// Ablation: replica placement policies under Custody and the baseline
/// (§VII: popularity-based replication "will further enhance the
/// performance of Custody").
fn placement(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let base = paper(WorkloadKind::Sort, num_nodes, jobs_per_app, seed);
    Scenario::table(
        &["ablation-placement", "ablations"],
        format!("Ablation (placement): replica placement × allocator, Sort, {num_nodes} nodes"),
        vec!["placement", "allocator"],
        [PlacementKind::Random, PlacementKind::Popularity]
            .into_iter()
            .flat_map(|p| each_allocator(p.name(), &base.clone().with_placement(p)))
            .collect(),
        vec![
            col("locality", |r| pct_mean_std(&locality(r, 0))),
            col("jct", |r| secs(jct(r, 0))),
        ],
    )
}

/// Ablation: delay-scheduling wait threshold with and without Custody
/// (§V interaction).
fn delay(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let base = paper(WorkloadKind::Sort, num_nodes, jobs_per_app, seed);
    Scenario::table(
        &["ablation-delay", "ablations"],
        format!(
            "Ablation (delay scheduling): locality-wait threshold × allocator, Sort, \
             {num_nodes} nodes"
        ),
        vec!["wait", "allocator"],
        [0u64, 1_000, 3_000, 10_000]
            .into_iter()
            .flat_map(|wait| {
                let cfg = base
                    .clone()
                    .with_scheduler(SchedulerKind::Delay(SimDuration::from_millis(wait)));
                each_allocator(&format!("{:.1} s", wait as f64 / 1000.0), &cfg)
            })
            .collect(),
        vec![
            col("locality", |r| pct_mean_std(&locality(r, 0))),
            col("jct", |r| secs(jct(r, 0))),
            col("sched-delay", |r| {
                ms(r.merged(0, RunMetrics::scheduler_delay_secs).mean())
            }),
        ],
    )
}

/// Ablation: speculative execution (the §IV-B straggler-mitigation
/// extension) on a congested cluster, with and without Custody — does
/// cloning stragglers recover what locality misses?
fn speculation(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let base = paper(WorkloadKind::Sort, num_nodes, jobs_per_app, seed);
    Scenario::table(
        &["ablation-speculation", "ablations"],
        format!(
            "Ablation (speculation): straggler cloning × allocator, Sort, congested \
             {num_nodes} nodes"
        ),
        vec!["speculation", "allocator"],
        [("off", false), ("on", true)]
            .into_iter()
            .flat_map(|(label, on)| {
                each_allocator(label, &base.clone().with_speculation_enabled(on))
            })
            .collect(),
        vec![
            col("jct", |r| secs(jct(r, 0))),
            col("input-stage", |r| secs(input_stage(r, 0))),
            col("clones", |r| r.total(0, |m| m.tasks_speculated).to_string()),
        ],
    )
}

/// Chaos sweep: Custody vs the baseline under an increasingly violent
/// stochastic fault process (node crash/recovery cycles, executor-only
/// faults, transient network degradation) at decreasing MTBF, after a
/// calm (chaos-off) reference. All rows share the submission schedule
/// and placement, and — per MTBF — the fault schedule. Reports locality
/// degradation vs the calm run, fault counts, and the fault-to-stable
/// recovery time — the §VII fault-tolerance story.
fn chaos(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let base = paper(WorkloadKind::WordCount, num_nodes, jobs_per_app, seed);
    let mut rows = vec![Row {
        key: vec!["calm".into()],
        runs: versus_baseline(base.clone()),
    }];
    rows.extend([120.0, 60.0, 30.0, 15.0].map(|mtbf| {
        let chaos = ChaosConfig::default().with_mean_time_between_faults(mtbf);
        Row {
            key: vec![format!("{mtbf:.0} s")],
            runs: versus_baseline(base.clone().with_chaos(chaos)),
        }
    }));
    Scenario::table(
        &["chaos"],
        format!(
            "Chaos sweep — locality under stochastic faults, WordCount, {num_nodes} nodes\n\
             (degradation = locality lost vs the calm run; recovery = mean fault-to-stable time)"
        ),
        vec!["mtbf"],
        rows,
        vec![
            col("custody", |r| pct_mean_std(&locality(r, 0))),
            col("spark-static", |r| pct_mean_std(&locality(r, 1))),
            scored("degradation c/s", |r, calm| {
                let lost = |v| (locality(calm, v).mean() - locality(r, v).mean()) * 100.0;
                format!("{:+.2} / {:+.2} pp", lost(0), lost(1))
            }),
            scored("faults (custody)", |r, _| {
                let m = r.run(0);
                format!(
                    "{}+{} dn, {} up, {} req",
                    m.nodes_failed, m.executor_faults, m.nodes_recovered, m.tasks_requeued
                )
            }),
            scored("recovery c/s", |r, _| {
                let recovery = |v| r.run(v).requeue_drain_secs.mean();
                format!("{:.1} / {:.1} s", recovery(0), recovery(1))
            }),
        ],
    )
}

/// The partition-injection profile the sweep runs: episodes arrive fast
/// enough that short benchmark runs see several, with asymmetric cuts
/// and flapping both in play so the fencing and reconciliation paths
/// all get exercised.
fn sweep_partition(split_fraction: f64, mean_heal_secs: f64) -> PartitionConfig {
    PartitionConfig::default()
        .with_split_fraction(split_fraction)
        .with_mean_heal(mean_heal_secs)
        .with_mean_time_between_partitions(12.0)
}

/// Partition sweep: Custody vs the baseline under seeded network
/// partitions — clean splits, asymmetric cuts and flapping links — over a
/// grid of split fraction × mean heal time (split-major), after a
/// partition-free reference. Every row shares the submission schedule
/// and placement, and — per grid point — the partition schedule. Reports
/// JCT stretch vs the reference, the split-brain fencing counters
/// (deferred and fenced minority Finish reports, minority work discarded
/// at reconnect), and the mean heal-to-reconverge time — the
/// rejoin-reconciliation story.
fn partition(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let base = paper(WorkloadKind::WordCount, num_nodes, jobs_per_app, seed);
    // The calm reference carries the same control plane the partition
    // rows run on (partitions require heartbeats to cut); only the cuts
    // are absent, so each row isolates what the cuts themselves cost.
    let calm = base
        .clone()
        .with_control_plane(ControlPlaneConfig::default());
    let mut rows = vec![Row {
        key: vec!["calm".into(), dash()],
        runs: versus_baseline(calm),
    }];
    for split in [0.2, 0.4] {
        for heal in [5.0, 15.0] {
            rows.push(Row {
                key: vec![format!("{:.0} %", split * 100.0), format!("{heal:.0} s")],
                runs: versus_baseline(base.clone().with_partition(sweep_partition(split, heal))),
            });
        }
    }
    Scenario::table(
        &["partition"],
        format!(
            "Partition sweep — network cuts by split fraction and heal time, WordCount, \
             {num_nodes} nodes\n\
             (stretch = mean-JCT inflation vs the partition-free run; fenced = split-brain Finish\n\
             reports the epoch fence rejected; reconverge = heal-to-settled belief time)"
        ),
        vec!["split", "heal"],
        rows,
        vec![
            col("jct c/s", |r| {
                format!("{:.2} / {:.2} s", jct(r, 0), jct(r, 1))
            }),
            scored("stretch c/s", |r, calm| {
                let stretch = |v| gain_pct(jct(r, v), jct(calm, v));
                format!("{:+.1} / {:+.1} %", stretch(0), stretch(1))
            }),
            scored("episodes (custody)", |r, _| {
                let m = r.run(0);
                format!(
                    "{} ep, {} def",
                    m.partition_episodes, m.partition_finishes_deferred
                )
            }),
            scored("fencing c/s", |r, _| {
                let (c, b) = (r.run(0), r.run(1));
                format!(
                    "{} / {} fenced, {} disc",
                    c.partition_finishes_fenced,
                    b.partition_finishes_fenced,
                    c.partition_work_discarded
                )
            }),
            scored("reconverge c/s", |r, _| {
                let reconverge = |v| r.run(v).partition_reconverge_secs.mean();
                format!("{:.1} / {:.1} s", reconverge(0), reconverge(1))
            }),
        ],
    )
}

/// The corruption-injection profile the sweep runs: a latent population
/// plus fast ongoing arrivals, a deep retry budget so jobs survive the
/// rot they can survive, and default scrub/repair pacing when on.
fn sweep_corruption(latent_fraction: f64, scrub: bool) -> CorruptionConfig {
    let mut cc = CorruptionConfig::default()
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

/// Durability sweep: the background scrubber + unified prioritized
/// repair pipeline on (variant 0) vs off (variant 1) across injected
/// latent-corruption rates, each also running the same ongoing arrival
/// process, after a corruption-free reference. All rows share the
/// cluster, submission schedule and placement; per rate, both variants
/// seed the same latent marks. Reports blocks permanently lost and left
/// at risk, the mean onset-to-detection latency, repair traffic, and the
/// mean-JCT overhead vs the reference — the data-durability story:
/// scrubbing dominates on loss at every rate, and the overhead it costs
/// is the price of that durability.
fn durability(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let base = paper(WorkloadKind::WordCount, num_nodes, jobs_per_app, seed);
    let mut rows = vec![Row {
        key: vec!["calm".into()],
        runs: vec![vec![base.clone()]],
    }];
    rows.extend([0.15, 0.2, 0.3].map(|latent| {
        Row {
            key: vec![format!("{:.0} %", latent * 100.0)],
            runs: [true, false]
                .map(|scrub| {
                    vec![base
                        .clone()
                        .with_corruption(sweep_corruption(latent, scrub))]
                })
                .into(),
        }
    }));
    Scenario::table(
        &["durability"],
        format!(
            "Durability sweep — scrub + prioritized repair on/off by latent rot rate, \
             WordCount, {num_nodes} nodes\n\
             (lost = blocks with zero intact replicas at end of run; at risk = down to a sole intact copy;\n\
             detect = mean onset-to-detection latency; overhead = mean-JCT inflation vs the rot-free run)"
        ),
        vec!["rot"],
        rows,
        vec![
            scored("lost on/off", |r, _| {
                let lost = |v| r.run(v).blocks_permanently_lost;
                format!("{} / {}", lost(0), lost(1))
            }),
            scored("at risk on/off", |r, _| {
                format!("{} / {}", r.run(0).blocks_at_risk, r.run(1).blocks_at_risk)
            }),
            scored("detect on/off", |r, _| {
                let detect = |v| r.run(v).corruption_detection_secs.mean();
                format!("{:.1} / {:.1} s", detect(0), detect(1))
            }),
            scored("repairs on/off", |r, _| {
                format!("{} / {}", r.run(0).replicas_repaired, r.run(1).replicas_repaired)
            }),
            // The reference row has the one corruption-free variant.
            col("jct on/off", |r| match r.runs.len() {
                1 => secs(jct(r, 0)),
                _ => format!("{:.2} / {:.2} s", jct(r, 0), jct(r, 1)),
            }),
            scored("overhead on/off", |r, calm| {
                let overhead = |v| gain_pct(jct(r, v), jct(calm, 0));
                format!("{:+.1} / {:+.1} %", overhead(0), overhead(1))
            }),
        ],
    )
}

/// Detector sweep: one chaotic run with oracle failure knowledge
/// (instant, perfect detection) first, then the same chaos schedule
/// re-run with the modeled control plane (lossy heartbeats, suspicion
/// timeouts, leases, epoch fencing) at increasing heartbeat-drop
/// probabilities. Master checkpointing and crash/recovery stay on in
/// every modeled row, so each also exercises WAL replay. Shows what
/// imperfect detection costs — false suspicions, detection latency,
/// lease revocations, lost blocks — and what it does to the paper's
/// headline metrics.
fn detector(num_nodes: usize, jobs_per_app: usize, seed: u64) -> Scenario {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(30.0)
        .with_horizon(240.0);
    let oracle = paper(WorkloadKind::WordCount, num_nodes, jobs_per_app, seed).with_chaos(chaos);
    let mut rows = vec![Row {
        key: vec!["oracle".into()],
        runs: vec![vec![oracle.clone()]],
    }];
    rows.extend([0.0, 0.05, 0.2, 0.5].map(|drop| {
        let cp = ControlPlaneConfig::default()
            .with_drop_probability(drop)
            .with_checkpoints(15.0)
            .with_master_crash_fraction(0.25);
        Row {
            key: vec![format!("{:.0} %", drop * 100.0)],
            runs: vec![vec![oracle.clone().with_control_plane(cp)]],
        }
    }));
    Scenario::table(
        &["detector"],
        format!(
            "Detector sweep — oracle vs modeled control plane by heartbeat drop rate,\n\
             WordCount, {num_nodes} nodes (checkpoints + master crashes on in every modeled row)"
        ),
        vec!["hb drop"],
        rows,
        vec![
            col("locality", |r| pct_mean_std(&locality(r, 0))),
            col("jct", |r| secs(jct(r, 0))),
            col("false-susp", |r| r.run(0).false_suspicions.to_string()),
            col("det-latency", |r| {
                let latency = &r.run(0).detection_latency_secs;
                match latency.count() {
                    0 => dash(),
                    n => format!("{:.2} s ({n})", latency.mean()),
                }
            }),
            col("leases-rev", |r| r.run(0).leases_revoked.to_string()),
            col("blocks-lost", |r| r.run(0).blocks_lost.to_string()),
            col("recoveries", |r| r.run(0).master_recoveries.to_string()),
        ],
    )
}

/// The severe gray-failure template the sweep injects: brutal slowdown
/// factors and a quick detector, so the cells measure the detection
/// trade-off rather than waiting out gentle defaults.
fn severe_failslow(sick_fraction: f64, detection: bool) -> FailSlowConfig {
    let mut fs = FailSlowConfig::default()
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

/// One row per sick fraction with one variant per entry of `variants`,
/// each run on every seed of `seeds`.
fn sick_rows<T: Copy>(
    seeds: &[u64],
    variants: &[T],
    config: impl Fn(f64, T, u64) -> SimConfig,
) -> Vec<Row> {
    [0.0, 0.1, 0.2, 0.3]
        .into_iter()
        .map(|fraction| Row {
            key: vec![format!("{:.0} %", fraction * 100.0)],
            runs: variants
                .iter()
                .map(|&v| seeds.iter().map(|&s| config(fraction, v, s)).collect())
                .collect(),
        })
        .collect()
}

/// Fail-slow sweep: gray failures (limping disks, NICs, CPUs plus
/// transient task faults) at increasing sick fractions on a congested
/// cluster. Four variants per row — Custody with the peer-relative health
/// detector on, off, then the baseline on, off — ride identical physical
/// sickness schedules per seed (belief never feeds back into the
/// `"failslow"` stream), each averaged over `seeds`. Shows what detection
/// buys (JCT with quarantine + demotion vs riding the slowdown out) and
/// what it costs (false quarantines, capacity held in probation).
fn failslow(num_nodes: usize, jobs_per_app: usize, seeds: &[u64]) -> Scenario {
    let variants = [
        (AllocatorKind::Custody, true),
        (AllocatorKind::Custody, false),
        (PAPER_BASELINE, true),
        (PAPER_BASELINE, false),
    ];
    let rows = sick_rows(seeds, &variants, |fraction, (kind, detection), seed| {
        paper(WorkloadKind::WordCount, num_nodes, jobs_per_app, seed)
            .with_allocator(kind)
            .with_failslow(severe_failslow(fraction, detection))
    });
    Scenario::table(
        &["failslow"],
        format!(
            "Fail-slow sweep — gray failures by sick fraction, WordCount, {num_nodes} nodes,\n\
             {} seeds per cell (jct on/off = health detection enabled/disabled; gain = mean-JCT\n\
             reduction from detection, positive = quarantine paid off)",
            seeds.len()
        ),
        vec!["sick"],
        rows,
        vec![
            col("custody jct on/off", |r| {
                format!("{:.2} / {:.2} s", jct(r, 0), jct(r, 1))
            }),
            col("spark jct on/off", |r| {
                format!("{:.2} / {:.2} s", jct(r, 2), jct(r, 3))
            }),
            col("det gain c/s", |r| {
                let gain = |on, off| reduction_pct(jct(r, on), jct(r, off));
                format!("{:+.1} / {:+.1} %", gain(0, 1), gain(2, 3))
            }),
            col("locality (on)", |r| pct_mean_std(&locality(r, 0))),
            col("quarantines", |r| {
                let quarantined = r.total(0, |m| m.nodes_quarantined);
                format!(
                    "{quarantined} ({} false)",
                    r.total(0, |m| m.false_quarantines)
                )
            }),
            col("q-latency", |r| {
                let latency = r.merged(0, |m| m.quarantine_latency_secs.clone());
                match latency.count() {
                    0 => dash(),
                    _ => format!("{:.1} s", latency.mean()),
                }
            }),
            col("faults (custody on)", |r| {
                let retries = r.total(0, |m| m.task_retries);
                format!("{retries} retry, {} failed", r.total(0, |m| m.jobs_failed))
            }),
        ],
    )
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
fn lingering_failslow(sick_fraction: f64) -> FailSlowConfig {
    let mut fs = severe_failslow(sick_fraction, true);
    fs.disk_factor = 4.0;
    fs.nic_factor = 3.0;
    fs.cpu_factor = 2.0;
    fs.quarantine_ratio = 8.0;
    fs
}

/// Demotion sweep: saturated Custody batches with lingering suspect-band
/// gray failures at increasing sick fractions, soft demotion (variant 0:
/// suspect nodes get a worse rational key but stay offerable, graded by
/// how sick they look) vs none (variant 1: suspects placed as if
/// healthy), each averaged over `seeds`. Detection is on in both; only
/// whether the allocator uses the belief differs. Saturation is the
/// regime where the distinction matters — a busy batch cannot afford to
/// starve 10–30% of its capacity, so pricing sick nodes into the cost
/// model (graded filler order, health-weighted locality credit,
/// healthiest-replica pick) must earn its keep against treating them as
/// healthy.
fn demotion(num_nodes: usize, jobs_per_app: usize, seeds: &[u64]) -> Scenario {
    let rows = sick_rows(seeds, &[true, false], |fraction, demotion, seed| {
        paper(WorkloadKind::WordCount, num_nodes, jobs_per_app, seed)
            .with_failslow(lingering_failslow(fraction).with_demotion(demotion))
    });
    Scenario::table(
        &["demotion"],
        format!(
            "Demotion sweep — soft (cost-based) demotion of suspect nodes vs none,\n\
             WordCount, {num_nodes} nodes, {} seeds per cell, quarantine out of reach (gain =\n\
             mean-JCT reduction from soft demotion, positive = pricing beat ignoring)",
            seeds.len()
        ),
        vec!["sick"],
        rows,
        vec![
            col("soft jct", |r| secs(jct(r, 0))),
            col("off jct", |r| secs(jct(r, 1))),
            col("soft gain", |r| {
                format!("{:+.1} %", reduction_pct(jct(r, 0), jct(r, 1)))
            }),
            col("locality Δ", locality_gain),
            col("onsets", |r| r.total(0, |m| m.failslow_onsets).to_string()),
            col("retries s/o", |r| {
                let retries = |v| r.total(v, |m| m.task_retries);
                format!("{} / {}", retries(0), retries(1))
            }),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_runs_and_renders_a_rectangular_table() {
        for mut scenario in scenarios(1, 7) {
            // Tiny scale: 8-node clusters, one job per application, at
            // most two seeds per variant.
            for seeds in scenario.rows.iter_mut().flat_map(|row| &mut row.runs) {
                seeds.truncate(2);
                for cfg in seeds {
                    cfg.cluster.num_nodes = 8;
                    cfg.campaign = cfg.campaign.clone().with_jobs_per_app(1);
                }
            }
            let results = run(&scenario);
            for view in &scenario.views {
                let out = render(&scenario, view, &results);
                let title = match &view.body {
                    Body::Text(_) => {
                        assert!(!out.trim().is_empty(), "{:?}", view.targets);
                        continue;
                    }
                    Body::Table { title, .. } => title,
                };
                // `render_table` pads every cell to its column's width, so
                // a row with more or fewer cells than the header renders
                // as a line of a different length. One line per row plus
                // the header and its rule.
                let widths: Vec<usize> = out
                    .lines()
                    .skip(title.lines().count())
                    .map(|line| line.chars().count())
                    .collect();
                assert_eq!(widths.len(), results.len() + 2, "{out}");
                assert!(widths.iter().all(|&w| w == widths[0]), "{out}");
            }
        }
    }

    #[test]
    fn regrouped_results_equal_sequential_runs() {
        let scenario = demotion(6, 1, &[21, 22]);
        let results = run(&scenario);
        for (row, result) in scenario.rows.iter().zip(&results) {
            assert_eq!(result.runs.len(), row.runs.len());
            for (configs, metrics) in row.runs.iter().zip(&result.runs) {
                assert_eq!(metrics.len(), configs.len());
                for (cfg, parallel) in configs.iter().zip(metrics) {
                    let mut sequential = Simulation::run(cfg).cluster_metrics;
                    sequential.adopt_host_measurements(parallel);
                    assert_eq!(&sequential, parallel);
                }
            }
        }
    }

    #[test]
    fn calm_chaos_run_sees_no_failures() {
        let results = run(&chaos(10, 2, 13));
        assert_eq!(results[0].key, ["calm"]);
        for v in 0..2 {
            assert_eq!(results[0].run(v).nodes_failed, 0);
        }
        for r in &results {
            assert_eq!(r.run(0).jobs_completed, 8);
            assert_eq!(r.run(1).jobs_completed, 8);
        }
        assert!(results[1..].iter().any(|r| r.run(0).nodes_failed > 0));
    }

    #[test]
    fn detector_oracle_has_no_false_suspicions() {
        let results = run(&detector(10, 2, 17));
        let oracle = results[0].run(0);
        assert_eq!(oracle.false_suspicions, 0);
        assert_eq!(oracle.jobs_completed, 8);
        for r in &results[1..] {
            assert_eq!(r.run(0).jobs_completed, 8);
            assert_eq!(r.run(0).unfenced_stale_finishes, 0);
        }
    }

    #[test]
    fn detection_off_never_quarantines() {
        let results = run(&failslow(6, 1, &[21, 22]));
        // No sick nodes: nothing to detect.
        assert_eq!(results[0].total(0, |m| m.failslow_onsets), 0);
        assert_eq!(results[0].total(0, |m| m.nodes_quarantined), 0);
        // Only the detection-on variants (0 and 2) may quarantine.
        for r in &results {
            for off in [1, 3] {
                assert_eq!(r.total(off, |m| m.nodes_quarantined), 0, "{:?}", r.key);
            }
        }
        let sick = &results[results.len() - 1];
        assert!(
            sick.total(0, |m| m.failslow_onsets) > 0,
            "no slowdown drawn"
        );
    }

    #[test]
    fn healthy_demotion_gap_is_exactly_zero() {
        let results = run(&demotion(6, 2, &[21, 22]));
        // No sick nodes: both variants see identical clusters and the
        // detector never fires, so the gap is exactly zero.
        let healthy = &results[0];
        assert_eq!(healthy.total(0, |m| m.failslow_onsets), 0);
        assert_eq!(jct(healthy, 0), jct(healthy, 1));
        let sick = &results[results.len() - 1];
        for v in 0..2 {
            assert!(
                sick.total(v, |m| m.failslow_onsets) > 0,
                "no slowdown drawn"
            );
        }
    }

    #[test]
    fn partitions_never_double_complete_work() {
        let results = run(&partition(10, 2, 19));
        for v in 0..2 {
            assert_eq!(results[0].run(v).partition_episodes, 0);
        }
        for r in &results {
            for v in 0..2 {
                // Split-brain fencing never lets work double-complete, and
                // every job still finishes once the cuts heal.
                assert_eq!(r.run(v).jobs_completed, 8, "{:?}", r.key);
                assert_eq!(r.run(v).unfenced_stale_finishes, 0, "{:?}", r.key);
            }
        }
        assert!(
            results[1..]
                .iter()
                .any(|r| r.run(0).partition_episodes > 0 || r.run(1).partition_episodes > 0),
            "partition sweep drew no episodes"
        );
    }

    #[test]
    fn scrubbing_beats_no_scrubbing() {
        let results = run(&durability(10, 4, 19));
        let calm = results[0].run(0);
        assert_eq!(calm.replicas_corrupted, 0);
        assert_eq!(calm.jobs_completed, 16);
        for r in &results[1..] {
            let (on, off) = (r.run(0), r.run(1));
            for m in [on, off] {
                // No job may ever hang or double-complete under rot.
                assert_eq!(m.jobs_completed + m.jobs_failed, 16);
                assert!(m.replicas_corrupted > 0, "no corruption injected");
            }
            // Scrubbing is the only detector that finds rot nobody reads.
            assert!(on.scrub_detections > 0, "scrubber idle");
            assert_eq!(off.scrub_detections, 0);
            assert!(
                on.blocks_permanently_lost < off.blocks_permanently_lost,
                "scrubbing did not dominate at rot {:?}: {} vs {} lost",
                r.key,
                on.blocks_permanently_lost,
                off.blocks_permanently_lost
            );
            assert!(
                on.blocks_at_risk < off.blocks_at_risk,
                "scrubbing left as many blocks at risk as not scrubbing at rot {:?}",
                r.key
            );
        }
    }
}
