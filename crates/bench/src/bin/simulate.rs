//! Run one simulation from the command line.
//!
//! ```text
//! cargo run --release -p custody-bench --bin simulate -- \
//!     --workload sort --nodes 50 --allocator custody --jobs 10 --seed 42 \
//!     [--baseline spark-static] [--racks 4] [--placement rack-aware] \
//!     [--quota 12] [--scheduler delay:3000|fifo|locality-first] \
//!     [--fail 10:3] [--chaos <mtbf-secs>[:<downtime-secs>]] [--audit] \
//!     [--detector <drop-prob>[:<suspicion-secs>]] [--checkpoint <secs>] \
//!     [--master-crash <prob>] [--speculation] \
//!     [--failslow <sick-fraction>[:<fault-prob>]] [--no-quarantine] \
//!     [--partition <split-fraction>[:<mean-heal-secs>]] \
//!     [--corruption <latent-fraction>[:<scrub-interval-secs>]] \
//!     [--demotion soft|off] [--retry-budget <n>] \
//!     [--trace out.tsv] [--analyze]
//! ```
//!
//! With `--baseline <allocator>` the same configuration is run twice and
//! the comparison printed; `--trace` writes the per-task TSV log. Every
//! bad argument — an unknown flag or name, a value that does not parse,
//! a time past the simulated clock, or a configuration
//! `SimConfig::validate` rejects — is a one-line usage error with exit
//! code 2. A trace file that cannot be written is a one-line error with
//! exit code 1.

use custody_core::AllocatorKind;
use custody_dfs::NodeId;
use custody_scheduler::speculation::SpeculationConfig;
use custody_scheduler::SchedulerKind;
use custody_sim::report::summary_row;
use custody_sim::{
    ChaosConfig, ControlPlaneConfig, CorruptionConfig, FailSlowConfig, NodeFailure,
    PartitionConfig, PlacementKind, QuotaMode, SimConfig, Simulation, WorkloadKind,
};
use custody_simcore::{SimDuration, SimTime};
use std::str::FromStr;

fn parse_workload(s: &str) -> WorkloadKind {
    match s {
        "pagerank" => WorkloadKind::PageRank,
        "wordcount" => WorkloadKind::WordCount,
        "sort" => WorkloadKind::Sort,
        "sqlscan" => WorkloadKind::SqlScan,
        "kmeans" => WorkloadKind::KMeans,
        other => usage_error(&format!(
            "unknown workload {other:?} (pagerank|wordcount|sort|sqlscan|kmeans)"
        )),
    }
}

fn parse_allocator(s: &str) -> AllocatorKind {
    match s {
        "custody" => AllocatorKind::Custody,
        "spark-static" => AllocatorKind::StaticSpread,
        "static-random" => AllocatorKind::StaticRandom,
        "dynamic-offer" => AllocatorKind::DynamicOffer,
        "custody-fair-intra" => AllocatorKind::CustodyFairIntra,
        "custody-naive-inter" => AllocatorKind::CustodyNaiveInter,
        other => usage_error(&format!(
            "unknown allocator {other:?} (custody|spark-static|static-random|dynamic-offer|\
             custody-fair-intra|custody-naive-inter)"
        )),
    }
}

fn parse_placement(s: &str) -> PlacementKind {
    match s {
        "random" => PlacementKind::Random,
        "round-robin" => PlacementKind::RoundRobin,
        "popularity" => PlacementKind::Popularity,
        "rack-aware" => PlacementKind::RackAware,
        other => usage_error(&format!(
            "unknown placement {other:?} (random|round-robin|popularity|rack-aware)"
        )),
    }
}

fn parse_scheduler(s: &str) -> SchedulerKind {
    if let Some(ms) = s.strip_prefix("delay:") {
        let usage = "--scheduler delay:<milliseconds>";
        let us = micros(usage, parse(usage, ms), 1_000);
        return SchedulerKind::Delay(SimDuration::from_micros(us));
    }
    match s {
        "delay" => SchedulerKind::spark_default(),
        "fifo" => SchedulerKind::Fifo,
        "locality-first" => SchedulerKind::LocalityFirst,
        other => usage_error(&format!(
            "unknown scheduler {other:?} (delay|delay:<ms>|fifo|locality-first)"
        )),
    }
}

/// Reports a bad command line and exits with the usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("simulate: {msg}");
    std::process::exit(2);
}

/// Parses the value `v` given as `what`, or exits with a usage error.
fn parse<T: FromStr>(what: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{what}: cannot parse {v:?}")))
}

/// Converts `value` units of `micros_per_unit` µs each to µs — the
/// simulator's u64 clock — or exits with a usage error quoting `usage`
/// when the product does not fit.
fn micros(usage: &str, value: u64, micros_per_unit: u64) -> u64 {
    value
        .checked_mul(micros_per_unit)
        .unwrap_or_else(|| usage_error(&format!("{usage}: {value} is past the simulated clock")))
}

/// Parses an `<a>[:<b>]` value, or exits with a usage error quoting
/// `usage`.
fn pair<A: FromStr, B: FromStr>(usage: &str, v: &str) -> (A, Option<B>) {
    match v.split_once(':') {
        Some((a, b)) => (parse(usage, a), Some(parse(usage, b))),
        None => (parse(usage, v), None),
    }
}

fn main() {
    let mut workload = WorkloadKind::Sort;
    let mut nodes = 25usize;
    let mut allocator = AllocatorKind::Custody;
    let mut baseline: Option<AllocatorKind> = None;
    let mut jobs = 10usize;
    let mut seed = 42u64;
    let mut racks = 1usize;
    let mut placement = PlacementKind::Random;
    let mut quota: Option<usize> = None;
    let mut scheduler = SchedulerKind::spark_default();
    let mut failures: Vec<NodeFailure> = Vec::new();
    let mut chaos: Option<ChaosConfig> = None;
    let mut control_plane: Option<ControlPlaneConfig> = None;
    let mut checkpoint_secs: Option<f64> = None;
    let mut master_crash: Option<f64> = None;
    let mut audit = false;
    let mut speculation = false;
    let mut failslow: Option<FailSlowConfig> = None;
    let mut partition: Option<PartitionConfig> = None;
    let mut corruption: Option<CorruptionConfig> = None;
    let mut no_quarantine = false;
    let mut demotion: Option<bool> = None;
    let mut retry_budget: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut analyze = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = parse_workload(&val()),
            "--nodes" => nodes = parse("--nodes <n>", &val()),
            "--allocator" => allocator = parse_allocator(&val()),
            "--baseline" => baseline = Some(parse_allocator(&val())),
            "--jobs" => jobs = parse("--jobs <n>", &val()),
            "--seed" => seed = parse("--seed <n>", &val()),
            "--racks" => racks = parse("--racks <n>", &val()),
            "--placement" => placement = parse_placement(&val()),
            "--quota" => quota = Some(parse("--quota <n>", &val())),
            "--scheduler" => scheduler = parse_scheduler(&val()),
            "--fail" => {
                let usage = "--fail <secs>:<node>";
                let (t, n) = pair(usage, &val());
                let n = n.unwrap_or_else(|| usage_error(usage));
                failures.push(NodeFailure {
                    at: SimTime::from_micros(micros(usage, t, 1_000_000)),
                    node: NodeId::new(n),
                });
            }
            "--chaos" => {
                let (mtbf, downtime) = pair("--chaos <mtbf-secs>[:<downtime-secs>]", &val());
                let mut c = ChaosConfig::default().with_mean_time_between_faults(mtbf);
                if let Some(d) = downtime {
                    c.mean_downtime_secs = d;
                }
                chaos = Some(c);
            }
            "--detector" => {
                let (drop, timeout) = pair("--detector <drop-prob>[:<suspicion-secs>]", &val());
                let cp = ControlPlaneConfig::default().with_drop_probability(drop);
                control_plane = Some(timeout.map_or(cp, |t| cp.with_suspicion_timeout(t)));
            }
            "--checkpoint" => checkpoint_secs = Some(parse("--checkpoint <secs>", &val())),
            "--master-crash" => master_crash = Some(parse("--master-crash <prob>", &val())),
            "--audit" => audit = true,
            "--speculation" => speculation = true,
            "--failslow" => {
                let (sick, fault) = pair("--failslow <sick-fraction>[:<fault-prob>]", &val());
                let fs = FailSlowConfig::default().with_sick_fraction(sick);
                failslow = Some(fault.map_or(fs, |p| fs.with_transient_fault_prob(p)));
            }
            "--partition" => {
                let (split, heal) = pair("--partition <split-fraction>[:<mean-heal-secs>]", &val());
                let pc = PartitionConfig::default().with_split_fraction(split);
                partition = Some(heal.map_or(pc, |h| pc.with_mean_heal(h)));
            }
            "--corruption" => {
                let usage = "--corruption <latent-fraction>[:<scrub-interval-secs>]";
                let (latent, scrub) = pair(usage, &val());
                let cc = CorruptionConfig::default().with_latent_fraction(latent);
                corruption = Some(scrub.map_or(cc, |s| cc.with_scrub_interval(s)));
            }
            "--no-quarantine" => no_quarantine = true,
            "--demotion" => {
                demotion = Some(match val().as_str() {
                    "soft" => true,
                    "off" => false,
                    other => usage_error(&format!("unknown demotion mode {other:?} (soft|off)")),
                });
            }
            "--retry-budget" => {
                retry_budget = Some(parse("--retry-budget <n>", &val()));
            }
            "--trace" => trace_path = Some(val()),
            "--analyze" => analyze = true,
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    if racks == 0 {
        usage_error("--racks must be at least 1");
    }

    let mut cfg = SimConfig::paper(workload, nodes, allocator, seed)
        .with_scheduler(scheduler)
        .with_placement(placement)
        .with_failures(failures);
    cfg.campaign = cfg.campaign.with_jobs_per_app(jobs);
    cfg.cluster = cfg.cluster.with_racks(racks);
    if let Some(q) = quota {
        cfg = cfg.with_quota(QuotaMode::FixedPerApp(q));
    }
    if let Some(c) = chaos {
        cfg = cfg.with_chaos(c);
    }
    if audit {
        cfg = cfg.with_audit(true);
    }
    if speculation {
        cfg = cfg.with_speculation(SpeculationConfig::default());
    }
    if checkpoint_secs.is_some() || master_crash.is_some() {
        let mut cp = control_plane.unwrap_or_default();
        if let Some(secs) = checkpoint_secs {
            cp = cp.with_checkpoints(secs);
        }
        if let Some(p) = master_crash {
            cp = cp.with_master_crash_fraction(p);
        }
        control_plane = Some(cp);
    }
    if let Some(cp) = control_plane {
        cfg = cfg.with_control_plane(cp);
    }
    if no_quarantine || demotion.is_some() || retry_budget.is_some() {
        let mut fs = failslow.unwrap_or_else(|| {
            usage_error("--no-quarantine / --demotion / --retry-budget modify --failslow")
        });
        if no_quarantine {
            fs = fs.with_detection(false);
        }
        if let Some(on) = demotion {
            fs = fs.with_demotion(on);
        }
        if let Some(budget) = retry_budget {
            fs = fs.with_retry_budget(budget);
        }
        failslow = Some(fs);
    }
    if let Some(fs) = failslow {
        cfg = cfg.with_failslow(fs);
    }
    if let Some(pc) = partition {
        cfg = cfg.with_partition(pc);
    }
    if let Some(cc) = corruption {
        cfg = cfg.with_corruption(cc);
    }

    if let Err(e) = cfg.validate() {
        usage_error(&format!("invalid configuration: {e}"));
    }

    println!("{}\n", cfg.label());
    let (outcome, trace) = Simulation::run_traced(&cfg);
    println!(
        "{}",
        summary_row(allocator.name(), &outcome.cluster_metrics)
    );
    let m = &outcome.cluster_metrics;
    println!(
        "jobs {}  makespan {}  events {}  alloc-rounds {}  requeued {}  clones {}",
        m.jobs_completed,
        m.makespan,
        m.events_processed,
        m.allocation_rounds,
        m.tasks_requeued,
        m.tasks_speculated,
    );
    if m.nodes_failed + m.executor_faults + m.degraded_windows > 0 {
        println!(
            "faults: {} node, {} executor-only, {} degradation windows  recovered {}  \
             clone races {}W/{}L  fault-to-stable {:.1} s mean ({} disruptions)  peak queue {}",
            m.nodes_failed,
            m.executor_faults,
            m.degraded_windows,
            m.nodes_recovered,
            m.clones_won,
            m.clones_lost,
            m.requeue_drain_secs.mean(),
            m.requeue_drain_secs.count(),
            m.peak_queue_len,
        );
    }
    if m.blocks_lost > 0 {
        println!(
            "data loss: {} blocks unrecoverable (sole replica on a failed machine)",
            m.blocks_lost
        );
    }
    if control_plane.is_some() {
        println!(
            "detector: {} false suspicions  detection latency {:.2} s mean / {:.2} s max ({})  \
             leases revoked {}  stale finishes fenced {} ({} unfenced)",
            m.false_suspicions,
            m.detection_latency_secs.mean(),
            m.detection_latency_secs.max().unwrap_or(0.0),
            m.detection_latency_secs.count(),
            m.leases_revoked,
            m.stale_finishes_fenced,
            m.unfenced_stale_finishes,
        );
        if m.master_recoveries > 0 {
            println!(
                "master: {} crash/recovery cycles, each replayed from checkpoint + WAL and \
                 convergence-checked",
                m.master_recoveries
            );
        }
    }
    if failslow.is_some() {
        println!(
            "gray failures: {} onsets  {} task faults ({} retried, {} jobs failed)  \
             {} quarantined ({} false)  quarantine latency {:.1} s mean ({})  {} probes",
            m.failslow_onsets,
            m.task_faults_injected,
            m.task_retries,
            m.jobs_failed,
            m.nodes_quarantined,
            m.false_quarantines,
            m.quarantine_latency_secs.mean(),
            m.quarantine_latency_secs.count(),
            m.probes_launched,
        );
    }
    if partition.is_some() {
        println!(
            "partitions: {} episodes  {} minority finishes deferred ({} fenced stale)  \
             {} minority attempts discarded at reconnect  reconverge {:.1} s mean ({})",
            m.partition_episodes,
            m.partition_finishes_deferred,
            m.partition_finishes_fenced,
            m.partition_work_discarded,
            m.partition_reconverge_secs.mean(),
            m.partition_reconverge_secs.count(),
        );
    }
    if corruption.is_some() {
        println!(
            "corruption: {} replicas rotted  detected {} by read / {} by scrub  \
             latency {:.1} s mean ({})  {} repaired  {} blocks unavailable ({} recovered)  \
             lost {} / at risk {}  {} jobs failed unavailable",
            m.replicas_corrupted,
            m.corrupt_reads_detected,
            m.scrub_detections,
            m.corruption_detection_secs.mean(),
            m.corruption_detection_secs.count(),
            m.replicas_repaired,
            m.blocks_unavailable,
            m.blocks_recovered,
            m.blocks_permanently_lost,
            m.blocks_at_risk,
            m.jobs_failed_unavailable,
        );
    }
    println!(
        "allocator: {:.3} ms wall total ({:.2} µs/round)  rounds skipped {}",
        m.allocator_wall_secs * 1e3,
        m.allocator_wall_secs * 1e6 / m.allocation_rounds.max(1) as f64,
        m.rounds_skipped,
    );
    println!(
        "host: event-pop {:.3} ms wall  demand maintenance {:.3} ms wall  peak RSS {:.1} MiB",
        m.event_pop_wall_secs * 1e3,
        m.demand_wall_secs * 1e3,
        m.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );

    if let Some(base) = baseline {
        let other = Simulation::run(&cfg.clone().with_allocator(base));
        println!("{}", summary_row(base.name(), &other.cluster_metrics));
    }

    if analyze {
        use custody_sim::analysis::{concurrency_timeline, node_utilization, sparkline};
        let bucket = SimDuration::from_secs(1);
        let timeline = concurrency_timeline(&trace, bucket);
        println!("\nconcurrent tasks (1s buckets):");
        println!("  {}", sparkline(&timeline));
        let util = node_utilization(&trace, nodes, cfg.cluster.executors_per_node);
        let mean = util.iter().sum::<f64>() / util.len().max(1) as f64;
        let max = util.iter().copied().fold(0.0_f64, f64::max);
        println!(
            "node utilization: mean {:.1} %  max {:.1} %  (over {} nodes)",
            mean * 100.0,
            max * 100.0,
            util.len()
        );
    }

    if let Some(path) = trace_path {
        if let Err(e) = std::fs::write(&path, trace.to_tsv()) {
            eprintln!("simulate: cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        println!("trace: {} task records -> {path}", trace.len());
    }
}
