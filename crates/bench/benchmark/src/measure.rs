//! One benchmark run: set-up replays, the timed simulations, the
//! allocator-core replay, the correctness gates, and the metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use custody_bench::synthetic_round_view;
use custody_core::custody::{reference_allocate, reference_allocate_with_costs};
use custody_core::{CustodyAllocator, ExecutorAllocator, HealthCost};
use custody_dfs::{DatasetId, NodeId};
use custody_sim::{RunMetrics, SimConfig, Simulation};
use custody_simcore::dist::Zipf;
use custody_simcore::stats::Summary;
use custody_simcore::SimRng;
use custody_workload::{DatasetMode, SubmissionSchedule};

use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::Sim;

/// End-to-end metrics, printed with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 10] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("locality_pct", "%"),
    ("local_jobs_pct", "%"),
    ("min_app_local_jobs_pct", "%"),
    ("jct_mean_s", "sim_s"),
    ("jct_p50_s", "sim_s"),
    ("jct_p90_s", "sim_s"),
];

/// Per-layer metrics, printed by a traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sim.run_s", "s"),
    ("sim.alloc_s", "s"),
    ("sim.alloc_us_per_round", "us"),
    ("sim.demand_s", "s"),
    ("sim.other_s", "s"),
    ("sim.other_pct", "%"),
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("sim.rounds", "count"),
    ("sim.rounds_skipped", "count"),
    ("sim.round_skip_pct", "%"),
    ("simcore.event_pop_s", "s"),
    ("simcore.peak_queue_len", "count"),
    ("cluster.build_s", "s"),
    ("dfs.create_dataset_s", "s"),
    ("dfs.blocks", "count"),
    ("dfs.us_per_block", "us"),
    ("workload.generate_s", "s"),
    ("workload.schedule_s", "s"),
    ("core.round_ms", "ms"),
    ("core.grants", "count"),
    ("core.reference_round_ms", "ms"),
    ("core.speedup_vs_reference", "x"),
    ("core.costed_round_ms", "ms"),
    ("core.cost_slowdown", "x"),
    ("scheduler.delay_p50_s", "sim_s"),
    ("scheduler.delay_p90_s", "sim_s"),
    ("scheduler.queueing_p90_s", "sim_s"),
    ("scheduler.tasks_requeued", "count"),
    ("scheduler.task_retries", "count"),
    ("chaos.nodes_failed", "count"),
    ("detector.false_suspicions", "count"),
    ("detector.leases_revoked", "count"),
    ("checkpoint.master_recoveries", "count"),
    ("health.failslow_onsets", "count"),
    ("health.nodes_quarantined", "count"),
    ("health.false_quarantines", "count"),
    ("partition.episodes", "count"),
    ("partition.work_discarded", "count"),
    ("durability.replicas_corrupted", "count"),
    ("durability.corrupt_reads", "count"),
    ("durability.scrub_detections", "count"),
    ("dfs.replicas_repaired", "count"),
    ("dfs.blocks_unavailable", "count"),
    ("dfs.blocks_permanently_lost", "count"),
    ("trace.overhead_pct", "%"),
];

/// Reads one simulated count out of a run's metrics.
type Count = fn(&RunMetrics) -> usize;

/// Simulated counts summed over a pass's measured simulations.
const COUNTS: [(&str, Count); 17] = [
    ("scheduler.tasks_requeued", |m| m.tasks_requeued),
    ("scheduler.task_retries", |m| m.task_retries),
    ("chaos.nodes_failed", |m| m.nodes_failed),
    ("detector.false_suspicions", |m| m.false_suspicions),
    ("detector.leases_revoked", |m| m.leases_revoked),
    ("checkpoint.master_recoveries", |m| m.master_recoveries),
    ("health.failslow_onsets", |m| m.failslow_onsets),
    ("health.nodes_quarantined", |m| m.nodes_quarantined),
    ("health.false_quarantines", |m| m.false_quarantines),
    ("partition.episodes", |m| m.partition_episodes),
    ("partition.work_discarded", |m| m.partition_work_discarded),
    ("durability.replicas_corrupted", |m| m.replicas_corrupted),
    ("durability.corrupt_reads", |m| m.corrupt_reads_detected),
    ("durability.scrub_detections", |m| m.scrub_detections),
    ("dfs.replicas_repaired", |m| m.replicas_repaired),
    ("dfs.blocks_unavailable", |m| m.blocks_unavailable),
    ("dfs.blocks_permanently_lost", |m| m.blocks_permanently_lost),
];

/// (span name, per-layer metric) pairs summed per set-up replay.
const SETUP_SPANS: [(&str, &str); 4] = [
    ("cluster.build", "cluster.build_s"),
    ("dfs.create_dataset", "dfs.create_dataset_s"),
    ("workload.generate_job", "workload.generate_s"),
    ("workload.schedule", "workload.schedule_s"),
];

/// Largest cluster the allocator-core replay builds its view from: a
/// grant-heavy round grows faster than linearly with nodes, and the
/// reference check has to stay cheap enough to run on every invocation.
const CORE_VIEW_CAP: usize = 4096;
/// Timed production rounds behind each `core.*_round_ms` median.
const CORE_SAMPLES: usize = 9;
/// Set-up replays in a traced run (each records one span per call).
const TRACED_SETUP_REPLAYS: usize = 3;

/// What one run measured.
pub struct Report {
    /// Jobs submitted over every timed simulation.
    pub attempted: u64,
    /// Of those, jobs that failed.
    pub failed: u64,
    /// Correctness-gate failures; empty when the run is correct.
    pub errors: Vec<String>,
    /// (name, unit, value) in registry order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// One timed pass over the workload's simulations.
struct Pass {
    /// Host time of the `Simulation::run` calls, tracing included.
    wall: f64,
    alloc: f64,
    demand: f64,
    pop: f64,
    /// Total duration of the `sim.run` spans (traced passes only).
    sim_spans: f64,
    digest: u64,
}

/// Jobs and gate failures over every pass.
#[derive(Default)]
struct Gates {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Gates {
    /// Each job accounted for, and no stale finish past the fence.
    fn check(&mut self, cfg: &SimConfig, m: &RunMetrics) {
        let submitted = cfg.campaign.total_jobs();
        self.attempted += submitted as u64;
        self.failed += m.jobs_failed as u64;
        if m.jobs_completed + m.jobs_failed != submitted {
            self.errors.push(format!(
                "{}: {} completed + {} failed != {submitted} submitted",
                cfg.label(),
                m.jobs_completed,
                m.jobs_failed
            ));
        }
        if m.unfenced_stale_finishes != 0 {
            self.errors.push(format!(
                "{}: {} stale finishes slipped past the epoch fence",
                cfg.label(),
                m.unfenced_stale_finishes
            ));
        }
    }
}

/// Model samples pooled over a set of simulations.
#[derive(Default)]
struct Pool {
    locality: Summary,
    jct: Summary,
    local_jobs: usize,
    completed: usize,
    min_app_local_sum: f64,
    runs: usize,
}

impl Pool {
    fn add(&mut self, m: &RunMetrics) {
        self.locality.merge(&m.input_locality());
        self.jct.merge(&m.job_completion_secs());
        self.local_jobs += m.per_app.iter().map(|a| a.local_jobs).sum::<usize>();
        self.completed += m.jobs_completed;
        self.min_app_local_sum += m.min_local_job_fraction();
        self.runs += 1;
    }

    fn locality_pct(&self) -> f64 {
        self.locality.mean() * 100.0
    }
}

/// What the metrics need from the first pass. Each simulation's
/// `RunMetrics` is folded in and dropped, so the benchmark holds little
/// memory of its own while the peak is measured.
#[derive(Default)]
struct FirstPass {
    /// Also pool per-task delays (traced runs only: they are large).
    tasks: bool,
    events: usize,
    rounds: usize,
    skipped: usize,
    peak_queue: usize,
    custody: Pool,
    baseline: Pool,
    delays: Summary,
    queueing: Summary,
    counts: [usize; COUNTS.len()],
}

impl FirstPass {
    fn add(&mut self, sim: &Sim, m: &RunMetrics) {
        self.events += m.events_processed;
        self.rounds += m.allocation_rounds;
        self.skipped += m.rounds_skipped;
        self.peak_queue = self.peak_queue.max(m.peak_queue_len);
        if sim.baseline {
            self.baseline.add(m);
            return;
        }
        self.custody.add(m);
        for (count, (_, field)) in self.counts.iter_mut().zip(COUNTS) {
            *count += field(m);
        }
        if self.tasks {
            self.delays.merge(&m.scheduler_delay_secs());
            self.queueing.merge(&m.queueing_delay_secs());
        }
    }
}

/// Host times of the set-up replays.
struct Setup {
    walls: Vec<f64>,
    /// Per-layer metric → its total in each traced replay.
    layers: BTreeMap<&'static str, Vec<f64>>,
    blocks: usize,
}

/// Runs `sims` as one benchmark run: `setup_replays` set-up replays,
/// then timed passes until `seconds` have elapsed, then the core replay.
/// With `tracer` enabled every other pass is traced and the report holds
/// the per-layer metrics; otherwise it holds the end-to-end ones.
pub fn run(sims: &[Sim], setup_replays: usize, seconds: f64, tracer: &mut Tracer) -> Report {
    let traced = tracer.enabled();
    let replays = if traced {
        TRACED_SETUP_REPLAYS.min(setup_replays)
    } else {
        setup_replays
    };
    let setup = replay_setups(sims, replays.max(1), tracer);

    // Timed passes; in a traced run untraced and traced passes alternate.
    let mut gates = Gates::default();
    let mut first = FirstPass {
        tasks: traced,
        ..FirstPass::default()
    };
    let mut untraced = Tracer::new(false);
    let mut plain = Vec::new();
    let mut traced_passes = Vec::new();
    let started = Instant::now();
    loop {
        let keep = plain.is_empty().then_some(&mut first);
        plain.push(run_pass(sims, &mut untraced, &mut gates, keep));
        if traced {
            traced_passes.push(run_pass(sims, tracer, &mut gates, None));
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let peak_rss = custody_sim::metrics::peak_rss_bytes();
    let digest = plain[0].digest;
    for pass in plain.iter().chain(&traced_passes) {
        if pass.digest != digest {
            gates.errors.push(format!(
                "nondeterministic: sim_digest {:016x} differs from the first pass's {digest:016x}",
                pass.digest
            ));
        }
    }
    let mut errors = std::mem::take(&mut gates.errors);
    let core = core_replay(&sims[0].cfg, tracer, &mut errors);

    let custody = &first.custody;
    let mut notes = vec![
        format!(
            "{} simulations, {} timed passes{}, {} jobs per pass, sim_digest {digest:016x}",
            sims.len(),
            plain.len(),
            if traced {
                format!(" + {} traced", traced_passes.len())
            } else {
                String::new()
            },
            sims.iter()
                .map(|s| s.cfg.campaign.total_jobs())
                .sum::<usize>(),
        ),
        format!(
            "pass wall times (s): {}",
            plain
                .iter()
                .map(|r| format!("{:.3}", r.wall))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "jct percentiles over {} jobs: p90 leaves {} beyond",
            custody.jct.count(),
            custody.jct.count() - (0.9 * custody.jct.count() as f64).ceil() as usize
        ),
    ];
    let base = &first.baseline;
    if base.runs > 0 {
        notes.push(format!(
            "custody vs static baseline: locality {:+.2} pts ({:.2}% vs {:.2}%), \
             mean jct reduced {:.2}% ({:.3} s vs {:.3} s)",
            custody.locality_pct() - base.locality_pct(),
            custody.locality_pct(),
            base.locality_pct(),
            (base.jct.mean() - custody.jct.mean()) / base.jct.mean() * 100.0,
            custody.jct.mean(),
            base.jct.mean()
        ));
    }

    let run_s = median_of(plain.iter().map(|p| p.wall));
    let mut tail = |s: &Summary, q: f64, what: &str| {
        tail_percentile(s.samples(), q).unwrap_or_else(|e| {
            errors.push(format!("{what}: {e}"));
            0.0
        })
    };
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if traced {
        let median = |f: fn(&Pass) -> f64| median_of(traced_passes.iter().map(f));
        let sim_run_s = median(|p| p.sim_spans);
        let alloc = median(|p| p.alloc);
        let other = median(|p| p.sim_spans - p.alloc - p.pop);
        notes.push(format!(
            "sim.run children + self time = {sim_run_s:.4} s; untraced run_s = {run_s:.4} s"
        ));
        let create_s = median_of(setup.layers["dfs.create_dataset_s"].iter().copied());
        values.extend([
            ("sim.run_s", sim_run_s),
            ("sim.alloc_s", alloc),
            (
                "sim.alloc_us_per_round",
                alloc * 1e6 / first.rounds.max(1) as f64,
            ),
            ("sim.demand_s", median(|p| p.demand)),
            ("sim.other_s", other),
            ("sim.other_pct", other / sim_run_s * 100.0),
            ("sim.events", first.events as f64),
            (
                "sim.us_per_event",
                sim_run_s * 1e6 / first.events.max(1) as f64,
            ),
            ("sim.rounds", first.rounds as f64),
            ("sim.rounds_skipped", first.skipped as f64),
            (
                "sim.round_skip_pct",
                first.skipped as f64 * 100.0 / (first.rounds + first.skipped).max(1) as f64,
            ),
            ("simcore.event_pop_s", median(|p| p.pop)),
            ("simcore.peak_queue_len", first.peak_queue as f64),
            ("dfs.create_dataset_s", create_s),
            ("dfs.blocks", setup.blocks as f64),
            (
                "dfs.us_per_block",
                create_s * 1e6 / setup.blocks.max(1) as f64,
            ),
            ("core.round_ms", core.round_ms),
            ("core.grants", core.grants as f64),
            ("core.reference_round_ms", core.reference_ms),
            (
                "core.speedup_vs_reference",
                core.reference_ms / core.round_ms,
            ),
            ("core.costed_round_ms", core.costed_ms),
            ("core.cost_slowdown", core.costed_ms / core.round_ms),
            (
                "scheduler.delay_p50_s",
                tail(&first.delays, 0.5, "scheduler delay"),
            ),
            (
                "scheduler.delay_p90_s",
                tail(&first.delays, 0.9, "scheduler delay"),
            ),
            (
                "scheduler.queueing_p90_s",
                tail(&first.queueing, 0.9, "queueing delay"),
            ),
            (
                "trace.overhead_pct",
                (median(|p| p.wall) - run_s) / run_s * 100.0,
            ),
        ]);
        for ((name, _), count) in COUNTS.iter().zip(first.counts) {
            values.insert(name, count as f64);
        }
        for (metric, totals) in &setup.layers {
            values.insert(metric, median_of(totals.iter().copied()));
        }
    } else {
        values.extend([
            ("run_s", run_s),
            ("setup_s", median_of(setup.walls.iter().copied())),
            ("events_per_s", first.events as f64 / run_s),
            ("peak_rss_mib", peak_rss as f64 / (1024.0 * 1024.0)),
            ("locality_pct", custody.locality_pct()),
            (
                "local_jobs_pct",
                custody.local_jobs as f64 * 100.0 / custody.completed.max(1) as f64,
            ),
            (
                "min_app_local_jobs_pct",
                custody.min_app_local_sum * 100.0 / custody.runs.max(1) as f64,
            ),
            ("jct_mean_s", custody.jct.mean()),
            ("jct_p50_s", tail(&custody.jct, 0.5, "job completion time")),
            ("jct_p90_s", tail(&custody.jct, 0.9, "job completion time")),
        ]);
    }

    let registry: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(registry.len());
    for &(name, unit) in registry {
        match values.remove(name) {
            Some(v) if v.is_finite() => metrics.push((name, unit, v)),
            Some(v) => errors.push(format!("metric {name} is not finite: {v}")),
            None => errors.push(format!("metric {name} was not computed")),
        }
    }
    errors.extend(values.keys().map(|k| format!("metric {k} is not declared")));
    Report {
        attempted: gates.attempted,
        failed: gates.failed,
        errors,
        metrics,
        notes,
    }
}

/// `replays` set-up replays of every simulation of `sims`.
fn replay_setups(sims: &[Sim], replays: usize, tracer: &mut Tracer) -> Setup {
    let mut setup = Setup {
        walls: Vec::with_capacity(replays),
        layers: BTreeMap::new(),
        blocks: 0,
    };
    for _ in 0..replays {
        let root = tracer.enter("setup");
        let started = Instant::now();
        setup.blocks = sims.iter().map(|s| replay_setup(&s.cfg, tracer)).sum();
        setup.walls.push(started.elapsed().as_secs_f64());
        if let Some(root) = tracer.exit(root) {
            for (span, metric) in SETUP_SPANS {
                let total = tracer.total_under(root, span);
                setup.layers.entry(metric).or_default().push(total);
            }
        }
    }
    setup
}

/// Replays the set-up `Simulation::run` performs before its first event
/// through the same public calls, in the same order and with the same
/// RNG streams, for both dataset modes. Returns the blocks created.
/// Set-up private to the simulator (fault-layer state) is not replayed.
fn replay_setup(cfg: &SimConfig, tr: &mut Tracer) -> usize {
    let (cluster, mut namenode) = tr.span("cluster.build", || {
        (cfg.cluster.build_cluster(), cfg.cluster.build_namenode())
    });
    let mut placement = cfg.placement.build_for(&cfg.cluster);
    let mut placement_rng = SimRng::for_stream(cfg.seed, "placement");
    let campaign = &cfg.campaign;
    for (i, app) in campaign.apps.iter().enumerate() {
        let mut gen_rng = SimRng::for_stream(cfg.seed, &format!("jobs/app-{i}"));
        let generate = |tr: &mut Tracer, seq: usize, rng: &mut SimRng| {
            tr.span("workload.generate_job", || {
                app.workload.generate_job(seq, rng)
            })
        };
        match campaign.dataset_mode {
            DatasetMode::FreshPerJob => {
                for seq in 0..campaign.jobs_per_app {
                    let spec = generate(tr, seq, &mut gen_rng);
                    tr.span("dfs.create_dataset", || {
                        namenode.create_dataset(
                            format!("{}/{}", app.name, spec.name),
                            spec.input_bytes,
                            cfg.cluster_block_size(),
                            placement.as_mut(),
                            &mut placement_rng,
                        )
                    });
                }
            }
            DatasetMode::SharedPool { pool_size, skew } => {
                let pool: Vec<DatasetId> = (0..pool_size)
                    .map(|p| {
                        let probe = generate(tr, p, &mut gen_rng);
                        tr.span("dfs.create_dataset", || {
                            namenode.create_dataset(
                                format!("{}/pool-{p}", app.name),
                                probe.input_bytes,
                                cfg.cluster_block_size(),
                                placement.as_mut(),
                                &mut placement_rng,
                            )
                        })
                    })
                    .collect();
                let zipf = Zipf::new(pool.len(), skew);
                for seq in 0..campaign.jobs_per_app {
                    let mut spec = generate(tr, seq, &mut gen_rng);
                    let ds = pool[zipf.sample_rank(&mut gen_rng)];
                    spec.input_bytes = namenode.dataset(ds).total_bytes;
                    black_box(spec);
                }
            }
        }
    }
    let schedule = tr.span("workload.schedule", || {
        SubmissionSchedule::generate(campaign, cfg.seed)
    });
    black_box((&cluster, &schedule));
    namenode.num_blocks()
}

/// One pass over `sims`, gating every simulation. The first pass also
/// folds each simulation's metrics into `first`.
fn run_pass(
    sims: &[Sim],
    tr: &mut Tracer,
    gates: &mut Gates,
    mut first: Option<&mut FirstPass>,
) -> Pass {
    let mut pass = Pass {
        wall: 0.0,
        alloc: 0.0,
        demand: 0.0,
        pop: 0.0,
        sim_spans: 0.0,
        digest: FNV_OFFSET,
    };
    let root = tr.enter("pass");
    for sim in sims {
        let started = Instant::now();
        let open = tr.enter("sim.run");
        let m = Simulation::run(&sim.cfg).cluster_metrics;
        if let Some(id) = tr.exit(open) {
            // The program's own host timers become the children of the
            // call they were measured in. Demand maintenance runs inside
            // view building, so it nests under the allocator.
            let alloc = tr.add_measured(id, "sim.alloc", 0.0, secs(m.allocator_wall_secs));
            tr.add_measured(alloc, "sim.demand", 0.0, secs(m.demand_wall_secs));
            tr.add_measured(
                id,
                "simcore.event_pop",
                m.allocator_wall_secs,
                secs(m.event_pop_wall_secs),
            );
            pass.sim_spans += tr.spans()[id].dur;
        }
        pass.wall += started.elapsed().as_secs_f64();
        pass.alloc += m.allocator_wall_secs;
        pass.demand += m.demand_wall_secs;
        pass.pop += m.event_pop_wall_secs;
        pass.digest = fnv1a(pass.digest, simulated_state(&m).as_bytes());
        gates.check(&sim.cfg, &m);
        if let Some(first) = first.as_deref_mut() {
            first.add(sim, &m);
        }
    }
    tr.exit(root);
    pass
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `m` with its host measurements zeroed, as text: what two runs of the
/// same configuration must agree on.
fn simulated_state(m: &RunMetrics) -> String {
    let mut m = m.clone();
    m.allocator_wall_secs = 0.0;
    m.event_pop_wall_secs = 0.0;
    m.demand_wall_secs = 0.0;
    m.peak_rss_bytes = 0;
    format!("{m:?}")
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// The allocator-core replay's timings; zero when untraced.
struct Core {
    grants: usize,
    round_ms: f64,
    reference_ms: f64,
    costed_ms: f64,
}

/// One grant-heavy allocation round sized like `cfg`'s cluster (capped
/// at [`CORE_VIEW_CAP`] nodes), checked against the reference
/// specification with and without a sick-cluster cost table. The checks
/// run on every invocation; a traced run also times the rounds.
fn core_replay(cfg: &SimConfig, tr: &mut Tracer, errors: &mut Vec<String>) -> Core {
    let nodes = cfg.cluster.num_nodes.min(CORE_VIEW_CAP);
    let apps = cfg.campaign.num_apps();
    let view = synthetic_round_view(nodes, apps, cfg.seed);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let costs = sick_cost_table(nodes);
    let mut custody = CustodyAllocator::new();
    let mut costed = CustodyAllocator::new();

    let grants = custody.allocate(&view, &mut rng);
    let open = tr.enter("core.reference_allocate");
    let reference = reference_allocate(&view);
    let reference_id = tr.exit(open);
    if grants.is_empty() || grants != reference {
        errors.push(format!(
            "core {nodes}x{apps}: {} grants differ from the reference's {}",
            grants.len(),
            reference.len()
        ));
    }
    costed.set_node_health_costs(&costs);
    let costed_grants = costed.allocate(&view, &mut rng);
    let costed_reference = tr.span("core.reference_allocate_with_costs", || {
        reference_allocate_with_costs(&view, &costs)
    });
    if costed_grants != costed_reference {
        errors.push(format!(
            "core {nodes}x{apps}: costed grants differ from reference_allocate_with_costs"
        ));
    }
    let mut core = Core {
        grants: grants.len(),
        round_ms: 0.0,
        reference_ms: 0.0,
        costed_ms: 0.0,
    };
    let Some(reference_id) = reference_id else {
        return core;
    };
    let sample = |tr: &mut Tracer, name, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..CORE_SAMPLES)
            .filter_map(|_| {
                let open = tr.enter(name);
                f();
                tr.exit(open).map(|id| tr.spans()[id].dur * 1e3)
            })
            .collect();
        median(&samples).unwrap_or(f64::NAN)
    };
    core.round_ms = sample(tr, "core.allocate", &mut || {
        black_box(custody.allocate(&view, &mut rng));
    });
    // The costed round re-feeds the cost vector, as the simulator does
    // every round while the health layer is active.
    core.costed_ms = sample(tr, "core.costed_allocate", &mut || {
        costed.set_node_health_costs(&costs);
        black_box(costed.allocate(&view, &mut rng));
    });
    core.reference_ms = tr.spans()[reference_id].dur * 1e3;
    core
}

/// A sick cluster: every tenth node carries a non-neutral health cost,
/// spread across the credit buckets.
fn sick_cost_table(nodes: usize) -> Vec<(NodeId, HealthCost)> {
    let scale = 8;
    (0..nodes)
        .map(|n| {
            let cost = if n % 10 == 3 {
                HealthCost::from_ratio(1.5 + (n % 7) as f64 * 0.5, scale, 4.0)
            } else {
                HealthCost::neutral(scale)
            };
            (NodeId::new(n), cost)
        })
        .collect()
}
