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
//! the comparison printed; `--trace` writes the per-task TSV log. An
//! unknown `--demotion` mode is a usage error (exit code 2).

use custody_core::AllocatorKind;
use custody_dfs::NodeId;
use custody_scheduler::speculation::SpeculationConfig;
use custody_scheduler::SchedulerKind;
use custody_sim::report::summary_row;
use custody_sim::{NodeFailure, PlacementKind, QuotaMode, SimConfig, Simulation, WorkloadKind};
use custody_simcore::{SimDuration, SimTime};

fn parse_workload(s: &str) -> WorkloadKind {
    match s {
        "pagerank" => WorkloadKind::PageRank,
        "wordcount" => WorkloadKind::WordCount,
        "sort" => WorkloadKind::Sort,
        "sqlscan" => WorkloadKind::SqlScan,
        "kmeans" => WorkloadKind::KMeans,
        other => panic!("unknown workload {other:?} (pagerank|wordcount|sort|sqlscan|kmeans)"),
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
        other => panic!("unknown allocator {other:?}"),
    }
}

fn parse_placement(s: &str) -> PlacementKind {
    match s {
        "random" => PlacementKind::Random,
        "round-robin" => PlacementKind::RoundRobin,
        "popularity" => PlacementKind::Popularity,
        "rack-aware" => PlacementKind::RackAware,
        other => panic!("unknown placement {other:?}"),
    }
}

fn parse_scheduler(s: &str) -> SchedulerKind {
    if let Some(ms) = s.strip_prefix("delay:") {
        let ms: u64 = ms.parse().expect("delay:<milliseconds>");
        return SchedulerKind::Delay(SimDuration::from_millis(ms));
    }
    match s {
        "delay" => SchedulerKind::spark_default(),
        "fifo" => SchedulerKind::Fifo,
        "locality-first" => SchedulerKind::LocalityFirst,
        other => panic!("unknown scheduler {other:?}"),
    }
}

/// Reports a bad command line and exits with the usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("simulate: {msg}");
    std::process::exit(2);
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
    let mut chaos: Option<custody_sim::ChaosConfig> = None;
    let mut control_plane: Option<custody_sim::ControlPlaneConfig> = None;
    let mut checkpoint_secs: Option<f64> = None;
    let mut master_crash: Option<f64> = None;
    let mut audit = false;
    let mut speculation = false;
    let mut failslow: Option<custody_sim::FailSlowConfig> = None;
    let mut partition: Option<custody_sim::PartitionConfig> = None;
    let mut corruption: Option<custody_sim::CorruptionConfig> = None;
    let mut no_quarantine = false;
    let mut demotion: Option<bool> = None;
    let mut retry_budget: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut analyze = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = parse_workload(&val()),
            "--nodes" => nodes = val().parse().expect("--nodes <n>"),
            "--allocator" => allocator = parse_allocator(&val()),
            "--baseline" => baseline = Some(parse_allocator(&val())),
            "--jobs" => jobs = val().parse().expect("--jobs <n>"),
            "--seed" => seed = val().parse().expect("--seed <n>"),
            "--racks" => racks = val().parse().expect("--racks <n>"),
            "--placement" => placement = parse_placement(&val()),
            "--quota" => quota = Some(val().parse().expect("--quota <n>")),
            "--scheduler" => scheduler = parse_scheduler(&val()),
            "--fail" => {
                let v = val();
                let (t, n) = v.split_once(':').expect("--fail <secs>:<node>");
                failures.push(NodeFailure {
                    at: SimTime::from_secs(t.parse().expect("seconds")),
                    node: NodeId::new(n.parse().expect("node index")),
                });
            }
            "--chaos" => {
                let v = val();
                let (mtbf, downtime) = match v.split_once(':') {
                    Some((m, d)) => (
                        m.parse().expect("--chaos <mtbf-secs>[:<downtime-secs>]"),
                        d.parse().expect("downtime seconds"),
                    ),
                    None => (v.parse().expect("--chaos <mtbf-secs>"), 30.0),
                };
                let mut c = custody_sim::ChaosConfig::default().with_mean_time_between_faults(mtbf);
                c.mean_downtime_secs = downtime;
                chaos = Some(c);
            }
            "--detector" => {
                let v = val();
                let cp = custody_sim::ControlPlaneConfig::default();
                control_plane = Some(match v.split_once(':') {
                    Some((drop, timeout)) => cp
                        .with_drop_probability(
                            drop.parse()
                                .expect("--detector <drop-prob>[:<suspicion-secs>]"),
                        )
                        .with_suspicion_timeout(timeout.parse().expect("suspicion seconds")),
                    None => cp.with_drop_probability(v.parse().expect("--detector <drop-prob>")),
                });
            }
            "--checkpoint" => checkpoint_secs = Some(val().parse().expect("--checkpoint <secs>")),
            "--master-crash" => master_crash = Some(val().parse().expect("--master-crash <prob>")),
            "--audit" => audit = true,
            "--speculation" => speculation = true,
            "--failslow" => {
                let v = val();
                let fs = custody_sim::FailSlowConfig::default();
                failslow = Some(match v.split_once(':') {
                    Some((sick, fault)) => fs
                        .with_sick_fraction(
                            sick.parse()
                                .expect("--failslow <sick-fraction>[:<fault-prob>]"),
                        )
                        .with_transient_fault_prob(fault.parse().expect("fault probability")),
                    None => fs.with_sick_fraction(v.parse().expect("--failslow <sick-fraction>")),
                });
            }
            "--partition" => {
                let v = val();
                let pc = custody_sim::PartitionConfig::default();
                partition = Some(match v.split_once(':') {
                    Some((split, heal)) => pc
                        .with_split_fraction(
                            split
                                .parse()
                                .expect("--partition <split-fraction>[:<mean-heal-secs>]"),
                        )
                        .with_mean_heal(heal.parse().expect("mean heal seconds")),
                    None => {
                        pc.with_split_fraction(v.parse().expect("--partition <split-fraction>"))
                    }
                });
            }
            "--corruption" => {
                let v = val();
                let cc = custody_sim::CorruptionConfig::default();
                corruption = Some(match v.split_once(':') {
                    Some((latent, scrub)) => cc
                        .with_latent_fraction(
                            latent
                                .parse()
                                .expect("--corruption <latent-fraction>[:<scrub-interval-secs>]"),
                        )
                        .with_scrub_interval(scrub.parse().expect("scrub interval seconds")),
                    None => {
                        cc.with_latent_fraction(v.parse().expect("--corruption <latent-fraction>"))
                    }
                });
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
                retry_budget = Some(val().parse().expect("--retry-budget <n>"));
            }
            "--trace" => trace_path = Some(val()),
            "--analyze" => analyze = true,
            other => panic!("unknown flag {other:?}"),
        }
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
        let mut fs =
            failslow.expect("--no-quarantine / --demotion / --retry-budget modify --failslow");
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
        std::fs::write(&path, trace.to_tsv()).expect("write trace");
        println!("trace: {} task records -> {path}", trace.len());
    }
}
