//! The discrete-event simulation driver.
//!
//! Event types:
//!
//! * `Submit` — a user submits a job to an application (the moment Custody
//!   extracts the job's input information from the NameNode, §IV-C).
//! * `Finish` — a task completes on an executor.
//! * `NodeFail` — a scripted machine failure (permanent).
//! * `ChaosFault` — the stochastic fault process fires: a machine loss,
//!   an executor-only loss, or a network degradation window.
//! * `NodeRecover` — a chaos-failed machine rejoins: its executors return
//!   to the idle pool and (for full machine losses) the NameNode may
//!   place replicas there again.
//! * `Wake` — a delayed-offer retry (delay scheduling declined an offer
//!   and asked to be re-offered later).
//!
//! With a [`ControlPlaneConfig`] the oracle is
//! replaced by a modeled control plane and four more event types appear:
//! `HeartbeatTick` (a node emits lossy/delayed heartbeats), `HeartbeatArrive`
//! (one reaches the master), `DetectorDeadline` (a suspicion timer fires),
//! and `Checkpoint`/`LeaseExpiry` (master snapshots and lease revocation).
//! The detector and checkpoint submodules hold that logic.
//!
//! With a [`FailSlowConfig`](crate::FailSlowConfig) the gray-failure layer
//! adds three more: `FailSlowOnset`/`FailSlowRemit` (a node's silent
//! slowdown begins or remits) and `ProbationStart` (a quarantined node's
//! cool-off elapsed). The health submodule holds that logic.
//!
//! With a [`PartitionConfig`](crate::PartitionConfig) the connectivity
//! layer adds four more: `PartitionStart`/`PartitionHeal` (a minority
//! group is cut away from the master side and later rejoins),
//! `PartitionFlap` (a flapping episode's cut toggles) and `RestoreTick`
//! (paced re-replication). The partition submodule holds that logic.
//!
//! After every event the driver runs its dispatch loop, which iterates to
//! a fixed point over three steps:
//!
//! 1. **Release** — applications with no runnable work return their idle
//!    executors ("Custody adds a new type of message to make the driver
//!    proactively inform the cluster manager that a specific executor can
//!    be released", §V).
//! 2. **Allocate** — one allocation round through the configured cluster
//!    manager over the current idle pool.
//! 3. **Offer** — each application's idle executors are offered to its
//!    task scheduler, which launches tasks (paying local or remote read
//!    time) or declines while delay scheduling waits for locality.

use std::collections::BTreeSet;

use custody_cluster::{ClusterState, ExecutorId};
use custody_core::{AllocationView, AppState, ExecutorAllocator, ExecutorInfo};
use custody_dfs::{DatasetId, NameNode};
use custody_scheduler::speculation::{SpeculationConfig, SpeculationPolicy};
use custody_scheduler::{Placement, RunnableTask, TaskScheduler};
use custody_simcore::dist::{Distribution, Exponential, TruncatedNormal, Zipf};
use custody_simcore::{DenseSet, EventQueue, SimDuration, SimRng, SimTime};
use custody_workload::{AppId, DatasetMode, JobId, JobSpec, SubmissionSchedule};

use crate::config::{ChaosConfig, ControlPlaneConfig, SimConfig};
use crate::demand::DemandCache;
use crate::job::{RuntimeJob, TaskState};
use crate::metrics::{AppMetrics, RunMetrics, SimOutcome};
use crate::trace::{TaskRecord, TaskTrace};

pub mod audit;
mod checkpoint;
mod detector;
mod durability;
mod health;
mod partition;

use detector::{DeadlineKind, DetectorState, HbChannel};
use durability::DurabilityLayer;
use health::HealthLayer;
use partition::PartitionLayer;

/// Entry point: runs a configuration to completion.
pub struct Simulation;

impl Simulation {
    /// Runs `config` and returns the collected metrics. Deterministic:
    /// identical configs produce identical outcomes.
    pub fn run(config: &SimConfig) -> SimOutcome {
        Driver::new(config).run().0
    }

    /// Runs `config` and additionally returns the per-task trace
    /// (completion order; winning attempts only).
    pub fn run_traced(config: &SimConfig) -> (SimOutcome, TaskTrace) {
        let mut driver = Driver::new(config);
        driver.trace = Some(TaskTrace::new());
        driver.run()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Submit {
        app: AppId,
        seq: usize,
    },
    /// A task completes on an executor. `epoch` is the executor's
    /// incarnation at launch time: a completion scheduled before the
    /// executor died (and possibly recovered) is stale and ignored.
    Finish {
        executor: ExecutorId,
        epoch: u64,
    },
    NodeFail {
        node: custody_dfs::NodeId,
    },
    NodeRecover {
        node: custody_dfs::NodeId,
    },
    /// The stochastic fault process fires; the fault kind is drawn when
    /// the event is handled.
    ChaosFault,
    Wake,
    /// A node's heartbeat emitter fires: one lossy, delayed heartbeat per
    /// live channel goes on the wire and the next tick is scheduled.
    HeartbeatTick {
        node: custody_dfs::NodeId,
    },
    /// A heartbeat reaches the master. `phys_epoch` is the channel's
    /// physical incarnation at emission; a mismatch means the heartbeat
    /// predates a fail/recover transition and is discarded as stale.
    HeartbeatArrive {
        node: custody_dfs::NodeId,
        channel: HbChannel,
        phys_epoch: u64,
    },
    /// A suspicion timer fires: if the watched channel has been silent for
    /// the full timeout the node is suspected, otherwise the timer
    /// re-arms at the earliest instant it could trip.
    DetectorDeadline {
        node: custody_dfs::NodeId,
        kind: DeadlineKind,
    },
    /// The earliest-expiring lease may have run out: revoke every lease
    /// that expired without renewal.
    LeaseExpiry,
    /// Periodic master checkpoint (WAL-enabled runs only).
    Checkpoint,
    /// A node's fail-slow condition sets in (gray-failure layer).
    FailSlowOnset {
        node: custody_dfs::NodeId,
    },
    /// An episodic fail-slow condition remits; the node may relapse.
    FailSlowRemit {
        node: custody_dfs::NodeId,
    },
    /// A quarantined node's cool-off elapsed: probation begins.
    ProbationStart {
        node: custody_dfs::NodeId,
    },
    /// A partition episode opens: a minority group is cut away from the
    /// master side (the shape is drawn when the event is handled).
    PartitionStart,
    /// The active partition episode heals and reconciliation begins.
    PartitionHeal,
    /// A flapping episode's cut toggles on/off. `episode` fences flap
    /// events that outlive the episode that scheduled them.
    PartitionFlap {
        episode: u64,
    },
    /// One paced batch of re-replication debt is paid — the unified
    /// repair queue's tick (partition-layer and durability-layer runs
    /// replace the instant restore storm with these).
    RestoreTick,
    /// The stochastic corruption process fires: one more replica
    /// silently rots (the victim is drawn when the event is handled).
    CorruptionArrive,
    /// The background scrubber examines its next window of blocks,
    /// surfacing latent corruption.
    ScrubTick,
    /// A block with no intact replica has been unavailable for the full
    /// grace period: jobs still waiting on it fail cleanly.
    UnavailabilityDeadline {
        block: custody_dfs::BlockId,
    },
}

/// Identifies one task: (global job index, stage index, task index).
type TaskKey = (usize, usize, usize);

/// Why a node is currently down — recovery must know whether the
/// NameNode was involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Whole machine lost: replicas dropped, DataNode decommissioned.
    Machine,
    /// Executor processes lost; the DataNode (and its replicas) survived.
    ExecutorsOnly,
}

/// What the previous call to [`Driver::allocation_round`] did — consulted
/// by the round-skip logic: when nothing the allocator can see has changed
/// since, the round's outcome is replayed instead of recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LastRound {
    /// No round has run yet.
    None,
    /// The idle pool was empty (early return, uncounted).
    EmptyPool,
    /// Pool non-empty but no application wanted anything (early return,
    /// uncounted).
    NoDemand,
    /// The round executed, was counted, and granted this many executors.
    Counted(usize),
}

/// One in-flight attempt of a task. The task *record*
/// ([`crate::job::RuntimeTask`]) describes exactly one attempt — the
/// record-bound one; a speculative clone carries its own locality and
/// launch time here so accounting can be moved attempt-exactly when the
/// record-bound attempt dies or loses its race.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunningTask {
    job_idx: usize,
    stage: usize,
    task: usize,
    remote_input: bool,
    /// This attempt's data-locality (`Some` for input-stage attempts).
    local: Option<bool>,
    /// When this attempt launched.
    launched_at: SimTime,
    /// Whether this attempt is a speculative clone.
    is_clone: bool,
    /// The replica this attempt reads its input from (`Some` for
    /// input-stage attempts with a resolvable source). The completion is
    /// checksum-verified against this replica when the durability layer
    /// is active: a corrupt source fails the read instead of finishing.
    read_from: Option<custody_dfs::NodeId>,
    /// The executor's epoch when this attempt launched. In detector mode
    /// a mismatch against the executor's current epoch marks a ghost: an
    /// attempt that launched into an incarnation that has since died
    /// (including a doomed launch onto a believed-alive but physically
    /// down executor, which never schedules a `Finish`).
    launch_epoch: u64,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct SpecState {
    config: SpeculationConfig,
    policies: std::collections::BTreeMap<(usize, usize), SpeculationPolicy>,
    cloned: std::collections::BTreeSet<(usize, usize, usize)>,
    launches: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ExecState {
    owner: Option<AppId>,
    running: Option<RunningTask>,
    /// The executor's host machine has failed; stale `Finish` events for
    /// tasks killed by the failure are ignored.
    dead: bool,
    /// Incarnation counter, bumped every time the executor dies. A
    /// `Finish` event whose epoch does not match is a completion of a
    /// task killed by a failure — possibly fired after the executor
    /// recovered and started something else — and is dropped.
    epoch: u64,
    /// When the executor last became idle (start of run or last task
    /// finish). A launched task's *scheduler delay* is how long it was
    /// runnable while this executor sat idle — the delay-scheduling wait
    /// of Fig. 10, as opposed to capacity queueing.
    idle_since: SimTime,
}

#[derive(Clone)]
struct AppRuntime {
    scheduler: Box<dyn TaskScheduler>,
    /// Indices into `Driver::jobs`, in submission order.
    jobs: Vec<usize>,
    quota: usize,
    /// Executor indices this application currently holds. A bitset keyed
    /// by `ExecutorId::index()`: iteration is ascending, identical to the
    /// `BTreeSet<ExecutorId>` it replaced.
    held: DenseSet,
    /// Pre-generated job specs (and their datasets), indexed by seq.
    specs: Vec<(JobSpec, DatasetId)>,
    // Locality accounting for the allocator view.
    total_jobs: usize,
    local_jobs: usize,
    total_tasks: usize,
    local_tasks: usize,
    metrics: AppMetrics,
}

#[derive(Clone)]
struct Driver {
    queue: EventQueue<Event>,
    namenode: NameNode,
    cluster: ClusterState,
    allocator: Box<dyn ExecutorAllocator>,
    apps: Vec<AppRuntime>,
    jobs: Vec<RuntimeJob>,
    exec_state: Vec<ExecState>,
    /// Idle, unowned executors, as a bitset keyed by
    /// `ExecutorId::index()` (ascending iteration, so allocator views are
    /// built in the same order the old tree set produced).
    pool: DenseSet,
    alloc_rng: SimRng,
    fail_rng: SimRng,
    noise: TruncatedNormal,
    noise_rng: SimRng,
    /// Pending wake timestamps (deduplicated).
    wakes: BTreeSet<SimTime>,
    /// `Wake` events in the queue; the auditor checks it always equals
    /// `wakes.len()`, so a decline burst can never flood the queue.
    pending_wakes: usize,
    /// Speculative-execution state, if enabled: per-(job, stage) policy
    /// plus the set of tasks that already have a clone in flight.
    speculation: Option<SpecState>,
    /// Stochastic fault injection, if enabled.
    chaos: Option<ChaosConfig>,
    chaos_rng: SimRng,
    /// The modeled control plane, if configured. `Some` with a *perfect*
    /// config (no drops, no timeout) still folds to oracle behavior —
    /// `detector` stays `None` and no heartbeat events exist.
    control_plane: Option<ControlPlaneConfig>,
    /// Failure-detector belief state (`None` in oracle/perfect mode).
    detector: Option<DetectorState>,
    /// Heartbeat drop and delay draws.
    control_rng: SimRng,
    /// Master-crash draws. A dedicated stream so a crash-fraction sweep
    /// shares every other schedule with the crash-free run.
    crash_rng: SimRng,
    /// The gray-failure layer, if configured and non-inert: per-node
    /// physical sickness plus the peer-relative health detector's belief.
    health: Option<HealthLayer>,
    /// Fail-slow draws (sick set, causes, onsets, episode lengths). A
    /// dedicated stream so a sick-fraction sweep perturbs nothing else.
    failslow_rng: SimRng,
    /// Transient-fault coins and retry-backoff jitter.
    taskfault_rng: SimRng,
    /// The connectivity layer, if configured and non-inert: the current
    /// reachability relation plus split-brain reconciliation state.
    partition: Option<PartitionLayer>,
    /// Partition episode draws (minority, mode, flap, heal, arrivals).
    /// A dedicated stream so a split-fraction sweep perturbs nothing
    /// else.
    partition_rng: SimRng,
    /// The data-durability layer, if configured and non-inert: latent
    /// corruption ground truth, the tombstoned-block set, and the
    /// scrubber's cursor.
    durability: Option<DurabilityLayer>,
    /// Corruption draws (latent seeding, arrivals, victim picks, read
    /// retry jitter). A dedicated stream so a corruption-rate sweep
    /// perturbs nothing else.
    corruption_rng: SimRng,
    /// Whether a unified-repair `RestoreTick` is pending (at most one
    /// in flight across all repair triggers).
    repair_armed: bool,
    /// Tasks re-queued by a transient fault may not relaunch before their
    /// backoff gate; entries are dropped at launch.
    retry_gates: std::collections::BTreeMap<TaskKey, SimTime>,
    /// The last master checkpoint: a full driver snapshot recovery
    /// replays the WAL on top of.
    checkpoint: Option<Box<Driver>>,
    /// Events handled since the last checkpoint, in pop order — the
    /// write-ahead log master recovery replays.
    wal: Vec<(SimTime, u64, Event)>,
    /// Why each node is currently down (`None` = up). Scripted failures
    /// stay down forever; chaos faults schedule a `NodeRecover`.
    node_down: Vec<Option<FaultKind>>,
    /// Scripted (permanent) failures: a chaos `NodeRecover` aimed at a
    /// node the script also killed is ignored.
    perma_down: Vec<bool>,
    /// Remote input reads are slowed while `now < degraded_until`.
    degraded_until: SimTime,
    remote_reads_in_flight: usize,
    /// The run's counters, incremented in place; `finish` fills in the
    /// end-of-run fields and hands the struct out whole.
    metrics: RunMetrics,
    /// Open fault disruptions: (fault time, tasks it displaced that have
    /// not relaunched yet). Drained sets record their drain time into
    /// `requeue_drain_secs` — the recovery-time-to-stable-locality metric.
    open_disruptions: Vec<(SimTime, BTreeSet<TaskKey>)>,
    /// Run the invariant auditor after every event (always in debug
    /// builds; `SimConfig::audit` opts release builds in).
    audit_enabled: bool,
    /// Optional per-task trace collector.
    trace: Option<TaskTrace>,
    /// Per-job demand cache + change tracking.
    cache: DemandCache,
    /// Outcome of the previous allocation round.
    last_round: LastRound,
    /// Wall-clock spent building views and allocating.
    alloc_wall: std::time::Duration,
    /// Wall-clock spent popping the event queue.
    event_wall: std::time::Duration,
    /// Wall-clock spent on demand maintenance: demand-cache refresh plus
    /// journal-driven preferred-node re-resolution. Refreshes run inside
    /// view building, so this overlaps (is not additive with)
    /// `alloc_wall`.
    demand_wall: std::time::Duration,
    /// Reused buffer for collecting idle held executors per app
    /// (release + offer passes), avoiding a fresh Vec per app per pass.
    idle_scratch: Vec<ExecutorId>,
    /// Reused buffer for the offer pass's runnable-task lists.
    runnable_scratch: Vec<RunnableTask>,
    /// Reused buffer for journal-affected job indices (preferred refresh).
    affected_scratch: Vec<usize>,
}

impl Driver {
    fn new(config: &SimConfig) -> Self {
        let cluster = config.cluster.build_cluster();
        let mut namenode = config.cluster.build_namenode();
        let mut placement = config.placement.build_for(&config.cluster);
        let mut placement_rng = SimRng::for_stream(config.seed, "placement");

        // Pre-generate job specs and register datasets, per application.
        let campaign = &config.campaign;
        let quota = config.quota_per_app().min(cluster.num_executors());
        let mut apps: Vec<AppRuntime> = Vec::with_capacity(campaign.num_apps());
        for (i, app_spec) in campaign.apps.iter().enumerate() {
            let mut gen_rng = SimRng::for_stream(config.seed, &format!("jobs/app-{i}"));
            let specs = match campaign.dataset_mode {
                DatasetMode::FreshPerJob => (0..campaign.jobs_per_app)
                    .map(|seq| {
                        let spec = app_spec.workload.generate_job(seq, &mut gen_rng);
                        let ds = namenode.create_dataset(
                            format!("{}/{}", app_spec.name, spec.name),
                            spec.input_bytes,
                            config.cluster_block_size(),
                            placement.as_mut(),
                            &mut placement_rng,
                        );
                        (spec, ds)
                    })
                    .collect(),
                DatasetMode::SharedPool { pool_size, skew } => {
                    let pool: Vec<DatasetId> = (0..pool_size)
                        .map(|p| {
                            let probe = app_spec.workload.generate_job(p, &mut gen_rng);
                            namenode.create_dataset(
                                format!("{}/pool-{p}", app_spec.name),
                                probe.input_bytes,
                                config.cluster_block_size(),
                                placement.as_mut(),
                                &mut placement_rng,
                            )
                        })
                        .collect();
                    let zipf = Zipf::new(pool.len(), skew);
                    (0..campaign.jobs_per_app)
                        .map(|seq| {
                            let mut spec = app_spec.workload.generate_job(seq, &mut gen_rng);
                            let ds = pool[zipf.sample_rank(&mut gen_rng)];
                            spec.input_bytes = namenode.dataset(ds).total_bytes;
                            (spec, ds)
                        })
                        .collect()
                }
            };
            apps.push(AppRuntime {
                scheduler: config.scheduler.build(),
                jobs: Vec::new(),
                quota,
                held: DenseSet::new(),
                specs,
                total_jobs: 0,
                local_jobs: 0,
                total_tasks: 0,
                local_tasks: 0,
                metrics: AppMetrics::new(AppId::new(i), app_spec.name.clone(), app_spec.workload),
            });
        }

        // Submission schedule → events.
        let mut queue = EventQueue::new();
        let schedule = SubmissionSchedule::generate(campaign, config.seed);
        for s in schedule.submissions() {
            queue.schedule(
                s.time,
                Event::Submit {
                    app: s.app,
                    seq: s.seq,
                },
            );
        }
        // Scripted failures.
        for f in &config.failures {
            assert!(
                f.node.index() < cluster.num_nodes(),
                "failure targets unknown {}",
                f.node
            );
            queue.schedule(f.at, Event::NodeFail { node: f.node });
        }
        // Stochastic faults: seed the first arrival of the chaos process.
        let mut chaos_rng = SimRng::for_stream(config.seed, "chaos");
        if let Some(chaos) = &config.chaos {
            chaos.validate();
            let gap =
                Exponential::with_mean(chaos.mean_time_between_faults_secs).sample(&mut chaos_rng);
            if gap <= chaos.horizon_secs {
                queue.schedule(
                    SimTime::ZERO + SimDuration::from_secs_f64(gap),
                    Event::ChaosFault,
                );
            }
        }

        // Control plane: heartbeat ticks, suspicion deadlines, checkpoints.
        let control_plane = config.control_plane;
        let detector = match &control_plane {
            Some(cp) => {
                cp.validate();
                if cp.is_perfect() {
                    None // folds to oracle behavior: no heartbeat events
                } else {
                    let tick =
                        SimTime::ZERO + SimDuration::from_secs_f64(cp.heartbeat_interval_secs);
                    let deadline =
                        SimTime::ZERO + SimDuration::from_secs_f64(cp.suspicion_timeout_secs);
                    for n in 0..cluster.num_nodes() {
                        let node = custody_dfs::NodeId::new(n);
                        queue.schedule(tick, Event::HeartbeatTick { node });
                        for kind in [DeadlineKind::ExecSuspect, DeadlineKind::DfsSuspect] {
                            queue.schedule(deadline, Event::DetectorDeadline { node, kind });
                        }
                    }
                    Some(DetectorState::new(
                        *cp,
                        cluster.num_nodes(),
                        cluster.num_executors(),
                    ))
                }
            }
            None => None,
        };
        if let Some(cp) = &control_plane {
            if cp.wal_enabled() {
                queue.schedule(
                    SimTime::ZERO + SimDuration::from_secs_f64(cp.checkpoint_interval_secs),
                    Event::Checkpoint,
                );
            }
        }

        // Gray-failure layer: draw the sick set and schedule onsets. An
        // inert config (nothing to inject) keeps the layer off entirely,
        // so it degenerates to the oracle event-for-event.
        let mut failslow_rng = SimRng::for_stream(config.seed, "failslow");
        let health = match &config.failslow {
            Some(fs) => {
                fs.validate();
                if fs.is_inert() {
                    None
                } else {
                    Some(HealthLayer::new(
                        *fs,
                        cluster.num_nodes(),
                        &mut failslow_rng,
                        &mut queue,
                    ))
                }
            }
            None => None,
        };

        // Connectivity layer: validate, and seed the first episode's
        // arrival. An inert config (split fraction 0) keeps the layer
        // off entirely — no events, no `"partition"` draws — so it
        // degenerates to the oracle event-for-event.
        let mut partition_rng = SimRng::for_stream(config.seed, "partition");
        let partition = match &config.partition {
            Some(pc) => {
                pc.validate();
                if pc.is_inert() {
                    None
                } else {
                    assert!(
                        detector.is_some(),
                        "partitions require a modeled (non-perfect) control plane: \
                         they are precisely the faults only a belief-based detector can mis-see"
                    );
                    let gap = Exponential::with_mean(pc.mean_time_between_partitions_secs)
                        .sample(&mut partition_rng);
                    if gap <= pc.horizon_secs {
                        queue.schedule(
                            SimTime::ZERO + SimDuration::from_secs_f64(gap),
                            Event::PartitionStart,
                        );
                    }
                    Some(PartitionLayer::new(*pc, cluster.num_nodes()))
                }
            }
            None => None,
        };

        // Data-durability layer: validate, seed the latent bit-rot, and
        // schedule the first corruption arrival and scrub tick. An inert
        // config (nothing to inject) keeps the layer off entirely — no
        // events, no `"corruption"` draws — so it degenerates to the
        // oracle bit-for-bit.
        let mut corruption_rng = SimRng::for_stream(config.seed, "corruption");
        let mut replicas_corrupted = 0;
        let durability = match &config.corruption {
            Some(cc) => {
                cc.validate();
                if cc.is_inert() {
                    None
                } else {
                    let mut layer = DurabilityLayer::new(*cc);
                    // Latent bit-rot present from t=0: each initial
                    // replica flips the seeded coin, in (block, holder)
                    // order.
                    for b in 0..namenode.num_blocks() {
                        let block = custody_dfs::BlockId::new(b);
                        let holders: Vec<custody_dfs::NodeId> = namenode.locations(block).to_vec();
                        for node in holders {
                            if corruption_rng.chance(cc.latent_fraction)
                                && namenode.mark_corrupt(block, node)
                            {
                                layer.onset.insert((block, node), SimTime::ZERO);
                                replicas_corrupted += 1;
                            }
                        }
                    }
                    if cc.mean_time_between_corruptions_secs > 0.0 {
                        let gap = Exponential::with_mean(cc.mean_time_between_corruptions_secs)
                            .sample(&mut corruption_rng);
                        if gap <= cc.horizon_secs {
                            queue.schedule(
                                SimTime::ZERO + SimDuration::from_secs_f64(gap),
                                Event::CorruptionArrive,
                            );
                        }
                    }
                    if cc.scrub_enabled() {
                        queue.schedule(
                            SimTime::ZERO + SimDuration::from_secs_f64(cc.scrub_interval_secs),
                            Event::ScrubTick,
                        );
                    }
                    Some(layer)
                }
            }
            None => None,
        };

        let num_nodes = cluster.num_nodes();
        let cache = DemandCache::new(campaign.num_apps(), &cluster);
        // Dataset creation placed initial replicas directly; the change
        // journal tracks mutations *after* this point (jobs resolve their
        // preferred nodes from scratch at submission anyway).
        namenode.clear_changed_blocks();
        Driver {
            queue,
            exec_state: vec![ExecState::default(); cluster.num_executors()],
            pool: (0..cluster.num_executors()).collect(),
            namenode,
            cluster,
            allocator: config.allocator.build(),
            apps,
            jobs: Vec::new(),
            alloc_rng: SimRng::for_stream(config.seed, "allocator"),
            fail_rng: SimRng::for_stream(config.seed, "failures"),
            noise: TruncatedNormal::new(1.0, 0.05, 0.85, 1.15),
            noise_rng: SimRng::for_stream(config.seed, "task-noise"),
            wakes: BTreeSet::new(),
            pending_wakes: 0,
            speculation: config.speculation.map(|sc| SpecState {
                config: sc,
                policies: std::collections::BTreeMap::new(),
                cloned: std::collections::BTreeSet::new(),
                launches: 0,
            }),
            chaos: config.chaos,
            chaos_rng,
            control_plane,
            detector,
            control_rng: SimRng::for_stream(config.seed, "control-plane"),
            crash_rng: SimRng::for_stream(config.seed, "master-crash"),
            health,
            failslow_rng,
            taskfault_rng: SimRng::for_stream(config.seed, "task-faults"),
            partition,
            partition_rng,
            durability,
            corruption_rng,
            repair_armed: false,
            retry_gates: std::collections::BTreeMap::new(),
            checkpoint: None,
            wal: Vec::new(),
            node_down: vec![None; num_nodes],
            perma_down: vec![false; num_nodes],
            degraded_until: SimTime::ZERO,
            remote_reads_in_flight: 0,
            metrics: RunMetrics {
                replicas_corrupted,
                ..RunMetrics::default()
            },
            open_disruptions: Vec::new(),
            audit_enabled: cfg!(debug_assertions) || config.audit,
            trace: None,
            cache,
            last_round: LastRound::None,
            alloc_wall: std::time::Duration::ZERO,
            event_wall: std::time::Duration::ZERO,
            demand_wall: std::time::Duration::ZERO,
            idle_scratch: Vec::new(),
            runnable_scratch: Vec::new(),
            affected_scratch: Vec::new(),
        }
    }

    fn run(mut self) -> (SimOutcome, TaskTrace) {
        if self.wal_enabled() {
            // Genesis checkpoint: recovery is possible from the first event.
            self.checkpoint = Some(Box::new(self.clone_for_checkpoint()));
        }
        loop {
            let pop_started = std::time::Instant::now();
            let Some(ev) = self.queue.pop() else { break };
            self.event_wall += pop_started.elapsed();
            if self.maybe_crash_master(&ev) {
                self.master_crash_recover(&ev);
            }
            if self.wal_enabled() {
                self.wal.push((ev.time, ev.seq, ev.event));
            }
            self.handle_event(ev.event, ev.time);
            if self.audit_enabled {
                self.audit();
            }
            if matches!(ev.event, Event::Checkpoint) && self.wal_enabled() {
                // Snapshot *after* the Checkpoint event's own dispatch so
                // the WAL restarts empty from exactly this state.
                self.wal.clear();
                self.checkpoint = Some(Box::new(self.clone_for_checkpoint()));
            }
        }
        self.finish()
    }

    /// Handles one popped event — the unit the WAL records and master
    /// recovery replays. Dispatch (release/allocate/offer) runs after
    /// every event, exactly as in the main loop.
    fn handle_event(&mut self, event: Event, now: SimTime) {
        self.metrics.events_processed += 1;
        match event {
            Event::Submit { app, seq } => self.on_submit(app, seq, now),
            Event::Finish { executor, epoch } => self.on_finish(executor, epoch, now),
            Event::NodeFail { node } => self.on_scripted_fail(node, now),
            Event::NodeRecover { node } => self.on_node_recover(node, now),
            Event::ChaosFault => self.on_chaos_fault(now),
            Event::Wake => {
                self.wakes.remove(&now);
                self.pending_wakes -= 1;
            }
            Event::HeartbeatTick { node } => self.on_heartbeat_tick(node, now),
            Event::HeartbeatArrive {
                node,
                channel,
                phys_epoch,
            } => self.on_heartbeat_arrive(node, channel, phys_epoch, now),
            Event::DetectorDeadline { node, kind } => self.on_detector_deadline(node, kind, now),
            Event::LeaseExpiry => self.on_lease_expiry(now),
            Event::Checkpoint => self.on_checkpoint_tick(now),
            Event::FailSlowOnset { node } => self.on_failslow_onset(node, now),
            Event::FailSlowRemit { node } => self.on_failslow_remit(node, now),
            Event::ProbationStart { node } => self.on_probation_start(node, now),
            Event::PartitionStart => self.on_partition_start(now),
            Event::PartitionHeal => self.on_partition_heal(now),
            Event::PartitionFlap { episode } => self.on_partition_flap(episode, now),
            Event::RestoreTick => self.on_restore_tick(now),
            Event::CorruptionArrive => self.on_corruption_arrive(now),
            Event::ScrubTick => self.on_scrub_tick(now),
            Event::UnavailabilityDeadline { block } => self.on_unavailability_deadline(block, now),
        }
        self.dispatch(now);
        if self.partition.is_some() {
            // Heal reconciliation: record the heal → settled-beliefs
            // interval the first time the rejoined minority looks clean.
            self.check_partition_reconverge(now);
        }
        self.metrics.peak_queue_len = self.metrics.peak_queue_len.max(self.queue.len());
    }

    /// Whether this run keeps a checkpoint + WAL (master recovery).
    fn wal_enabled(&self) -> bool {
        self.control_plane.is_some_and(|cp| cp.wal_enabled())
    }

    /// Draws the master-crash coin for this event. Only `ChaosFault` pops
    /// can crash the master, and only when checkpointing is on; the draw
    /// comes from a dedicated stream so a `master_crash_fraction` sweep
    /// perturbs nothing else.
    fn maybe_crash_master(&mut self, ev: &custody_simcore::ScheduledEvent<Event>) -> bool {
        let Some(cp) = &self.control_plane else {
            return false;
        };
        if !cp.wal_enabled()
            || cp.master_crash_fraction <= 0.0
            || !matches!(ev.event, Event::ChaosFault)
        {
            return false;
        }
        self.crash_rng.chance(cp.master_crash_fraction)
    }

    /// Re-arms the periodic checkpoint while the run still has events —
    /// the tick must not keep an otherwise-finished simulation alive.
    fn on_checkpoint_tick(&mut self, now: SimTime) {
        let cp = self
            .control_plane
            .expect("checkpoint event without a control plane"); // lint: allow(panic) — checkpoint events are only scheduled with a control plane configured
        if !self.queue.is_empty() {
            self.queue.schedule(
                now + SimDuration::from_secs_f64(cp.checkpoint_interval_secs),
                Event::Checkpoint,
            );
        }
    }

    /// Records a winning task completion into the trace, if enabled.
    fn trace_completion(&mut self, running: RunningTask, executor: ExecutorId, now: SimTime) {
        if self.trace.is_none() {
            return;
        }
        let job = &self.jobs[running.job_idx];
        let t = &job.stages[running.stage].tasks[running.task];
        let record = TaskRecord {
            app: job.app,
            job: job.id,
            stage: running.stage,
            task: running.task,
            node: self.cluster.node_of(executor).index(),
            runnable_at: t.runnable_since.expect("was runnable"), // lint: allow(panic) — runnable_since is stamped when the task becomes runnable
            launched_at: t.launched_at.expect("was launched"), // lint: allow(panic) — launched_at is stamped at launch
            finished_at: now,
            local: t.local == Some(true),
        };
        self.trace.as_mut().expect("checked").push(record); // lint: allow(panic) — trace presence was checked at the top of the function
    }

    fn on_submit(&mut self, app: AppId, seq: usize, now: SimTime) {
        let a = &mut self.apps[app.index()];
        let (spec, dataset) = a.specs[seq].clone();
        let job_id = JobId::new(self.jobs.len());
        let job = RuntimeJob::instantiate(
            job_id,
            app,
            a.metrics.workload,
            &spec,
            dataset,
            &self.namenode,
            now,
        );
        a.total_jobs += 1;
        a.total_tasks += job.num_input_tasks();
        a.jobs.push(self.jobs.len());
        self.jobs.push(job);
        self.cache
            .note_job_added(self.jobs.last().expect("just pushed")); // lint: allow(panic) — a job was pushed on the line above
                                                                     // A job arriving after a block tombstoned (and after its
                                                                     // deadline fired) still gets a bounded wait.
        self.durability_note_submit(now);
    }

    fn on_finish(&mut self, executor: ExecutorId, epoch: u64, now: SimTime) {
        let stale = {
            let state = &self.exec_state[executor.index()];
            state.dead || state.epoch != epoch
        };
        if let Some(p) = &mut self.partition {
            let node = self.cluster.node_of(executor);
            if !stale && !p.connectivity.node_reaches_master(node) {
                // The report cannot cross the cut: the worker's RPC
                // retry loop bounces it until a delivery succeeds
                // (a heal is always pending, so it always drains).
                if p.deferred.insert((executor.index(), epoch)) {
                    self.metrics.partition_finishes_deferred += 1;
                }
                self.queue.schedule(
                    now + SimDuration::from_secs_f64(p.cfg.redelivery_secs),
                    Event::Finish { executor, epoch },
                );
                return;
            }
            if p.deferred.remove(&(executor.index(), epoch)) && stale {
                // A deferred minority report finally crossed, but its
                // epoch went stale while it bounced: the master already
                // re-ran the work elsewhere — rejected and counted,
                // never double-completed.
                self.metrics.partition_finishes_fenced += 1;
            }
        }
        let state = &mut self.exec_state[executor.index()];
        if state.dead || state.epoch != epoch {
            // Stale completion for a task killed by a failure (or, in
            // detector mode, fenced out by a belief-kill's epoch bump).
            self.metrics.stale_finishes_fenced += 1;
            return;
        }
        let Some(running) = state.running.take() else {
            if self.detector.is_some() {
                // A stale finish that slipped past epoch fencing — never
                // expected; the auditor asserts this stays zero.
                self.metrics.unfenced_stale_finishes += 1;
                return;
            }
            panic!("finish on idle executor"); // lint: allow(panic) — driver invariant: Finish events target executors with a running task
        };
        state.idle_since = now;
        if running.remote_input {
            self.remote_reads_in_flight = self
                .remote_reads_in_flight
                .checked_sub(1)
                .expect("remote-read counter underflow"); // lint: allow(panic) — the counter was incremented when the remote read started
        }
        // Verified read: the completed input read is checksum-verified
        // against its source replica. A mismatch means the read *failed*
        // — the task never completes; the corruption surfaces to the
        // NameNode (dropping the bad replica through the change journal)
        // and the attempt dies like a transient fault, charged against
        // the durability retry policy.
        if self.durability.is_some() {
            if let Some(src) = running.read_from {
                let block = self.jobs[running.job_idx].stages[0].tasks[running.task]
                    .block
                    .expect("input attempt has a block"); // lint: allow(panic) — read_from is only set for input-stage attempts
                if self.namenode.is_replica_corrupt(block, src) {
                    self.metrics.corrupt_reads_detected += 1;
                    self.detect_corrupt(block, src, now);
                    self.on_corrupt_read_fault(running, now);
                    return;
                }
            }
        }
        if self.health.is_some() {
            let node = self.cluster.node_of(executor);
            // Transient-fault coin, drawn for every physical completion
            // (clone losers included) so the "task-faults" stream advances
            // identically regardless of speculation-race outcomes.
            let p = self
                .health
                .as_ref()
                .expect("checked above") // lint: allow(panic) — guarded by the enclosing branch
                .fault_probability(node);
            if self.taskfault_rng.chance(p) {
                self.on_task_fault(running, now);
                return;
            }
            // A completion that survived the coin is a service-time
            // observation for the peer-relative detector.
            self.observe_service(
                node,
                now.saturating_since(running.launched_at).as_secs_f64(),
                now,
            );
        }
        if self.jobs[running.job_idx].stages[running.stage].tasks[running.task].state
            == crate::job::TaskState::Done
        {
            // The other attempt of a speculated task won the race.
            if running.is_clone {
                self.metrics.clones_lost += 1;
            }
            return;
        }
        // This attempt wins; the task record must describe it (a winning
        // clone takes over the locality and launch-time accounting from
        // the original attempt it beat).
        self.rebind_attempt(&running);
        if running.is_clone {
            self.metrics.clones_won += 1;
        }
        // Auditor invariant 14, completion half: no task ever completes
        // off a corrupted replica — the verified-read gate above diverts
        // every such attempt before it can reach here.
        debug_assert!(
            running.read_from.is_none()
                || !self.namenode.is_replica_corrupt(
                    self.jobs[running.job_idx].stages[0].tasks[running.task]
                        .block
                        .expect("input attempt has a block"), // lint: allow(panic) — read_from is only set for input-stage attempts
                    running.read_from.expect("checked above"), // lint: allow(panic) — guarded by the is_none disjunct
                ),
            "completed task read a corrupted replica"
        );
        let job = &mut self.jobs[running.job_idx];
        let total = job.stages[running.stage].tasks.len();
        job.mark_done(running.stage, running.task, now);
        self.cache.mark_job(running.job_idx);
        if let Some(spec) = &mut self.speculation {
            let config = spec.config;
            spec.policies
                .entry((running.job_idx, running.stage))
                .or_insert_with(|| SpeculationPolicy::new(config, total))
                .record_completion(now.saturating_since(running.launched_at));
        }
        self.trace_completion(running, executor, now);
        let job = &mut self.jobs[running.job_idx];
        if job.is_finished() {
            let app = &mut self.apps[job.app.index()];
            let locality = job
                .input_locality()
                .expect("finished job has launched all inputs"); // lint: allow(panic) — a job only finishes after launching all of its inputs
            app.metrics.jobs_completed += 1;
            if locality == 1.0 {
                app.metrics.local_jobs += 1;
            }
            app.metrics.input_locality.push(locality);
            app.metrics
                .job_completion_secs
                .push(job.completion_time().expect("finished").as_secs_f64()); // lint: allow(panic) — completion time is set when the job finishes
            app.metrics.input_stage_secs.push(
                job.input_stage()
                    .duration()
                    .expect("input stage complete") // lint: allow(panic) — stage completeness was checked above
                    .as_secs_f64(),
            );
        }
    }

    /// Accounting hook: called when a job's input stage fully launches,
    /// so Algorithm 1's historical fractions advance. Guarded by the
    /// job's `settled_local` flag so a failure-induced re-queue and
    /// relaunch cannot double-credit.
    fn settle_input_accounting(&mut self, job_idx: usize) {
        let job = &mut self.jobs[job_idx];
        let stage = &job.stages[0];
        if !job.settled_local && stage.launched == stage.tasks.len() {
            let all_local = stage.tasks.iter().all(|t| t.local == Some(true));
            if all_local {
                job.settled_local = true;
                self.apps[job.app.index()].local_jobs += 1;
            }
        }
    }

    /// Makes the task record describe `attempt` (locality + launch time),
    /// moving the per-app locality accounting by the exact difference.
    /// No-op when the record already describes it.
    fn rebind_attempt(&mut self, attempt: &RunningTask) {
        let (j, s, t) = (attempt.job_idx, attempt.stage, attempt.task);
        let app_idx = self.jobs[j].app.index();
        let record = &mut self.jobs[j].stages[s].tasks[t];
        debug_assert_eq!(record.state, TaskState::Running);
        let old_local = record.local;
        if record.launched_at == Some(attempt.launched_at) && old_local == attempt.local {
            return;
        }
        record.launched_at = Some(attempt.launched_at);
        record.local = attempt.local;
        self.cache.mark_job(j);
        if s == 0 && old_local != attempt.local {
            if old_local == Some(true) {
                self.apps[app_idx].local_tasks -= 1;
            }
            if attempt.local == Some(true) {
                self.apps[app_idx].local_tasks += 1;
            }
            if self.jobs[j].settled_local && attempt.local != Some(true) {
                self.jobs[j].settled_local = false;
                self.apps[app_idx].local_jobs -= 1;
            }
            self.settle_input_accounting(j);
        }
    }

    /// An in-flight attempt died with its executor. Exactly one of three
    /// things happens, each with attempt-exact accounting:
    ///
    /// * the task already finished (this attempt had lost a speculation
    ///   race) — nothing to roll back;
    /// * a twin attempt is still running — the task record is rebound to
    ///   the survivor, moving the locality credit to the attempt that
    ///   will actually finish;
    /// * this was the last attempt — the task is re-queued and the
    ///   record-bound launch accounting rolled back exactly. Returns
    ///   `true` only in this case.
    fn on_attempt_killed(&mut self, running: &RunningTask, now: SimTime) -> bool {
        let key = (running.job_idx, running.stage, running.task);
        if self.jobs[key.0].stages[key.1].tasks[key.2].state == TaskState::Done {
            if running.is_clone {
                self.metrics.clones_lost += 1;
            }
            return false;
        }
        let twin = self.exec_state.iter().find_map(|st| {
            if st.dead {
                return None;
            }
            st.running.filter(|r| (r.job_idx, r.stage, r.task) == key)
        });
        if let Some(twin) = twin {
            // The survivor carries on and owns the record from here.
            self.rebind_attempt(&twin);
            if running.is_clone {
                self.metrics.clones_lost += 1;
            }
            return false;
        }
        // Last attempt: the record describes it (any earlier twin death
        // rebound the record to this attempt), so the rollback is exact.
        debug_assert_eq!(
            self.jobs[key.0].stages[key.1].tasks[key.2].launched_at,
            Some(running.launched_at),
            "record-bound attempt mismatch at re-queue"
        );
        let app_idx = self.jobs[key.0].app.index();
        let was_local = self.jobs[key.0].mark_requeued(key.1, key.2, now);
        if key.1 == 0 {
            // The record's preferred snapshot may predate replica churn
            // that happened while the attempt ran (launched tasks keep
            // their snapshot); the re-queued task chases the current map,
            // like any other unlaunched task.
            let t = &mut self.jobs[key.0].stages[0].tasks[key.2];
            let fresh = self
                .namenode
                .locations(t.block.expect("input task has a block")); // lint: allow(panic) — input tasks always carry a block id
            if t.preferred[..] != fresh[..] {
                t.preferred = fresh.into();
            }
        }
        self.cache.mark_job(key.0);
        if key.1 == 0 {
            if was_local {
                self.apps[app_idx].local_tasks -= 1;
            }
            if self.jobs[key.0].settled_local {
                self.jobs[key.0].settled_local = false;
                self.apps[app_idx].local_jobs -= 1;
            }
        }
        if let Some(spec) = &mut self.speculation {
            // The relaunched attempt may be speculated afresh.
            spec.cloned.remove(&key);
        }
        if running.is_clone {
            self.metrics.clones_lost += 1;
        }
        self.metrics.tasks_requeued += 1;
        true
    }

    /// A transient fault killed the attempt that was about to complete.
    /// Attempt death is handled exactly like an executor loss (clone
    /// losers drain, twins take over the record, last attempts re-queue);
    /// only a re-queue consumes the job's retry budget — within it, the
    /// task is gated behind exponential backoff with jitter; beyond it,
    /// the whole job fails cleanly.
    fn on_task_fault(&mut self, running: RunningTask, now: SimTime) {
        self.metrics.task_faults_injected += 1;
        if !self.on_attempt_killed(&running, now) {
            return; // a twin survives (or the race was already lost)
        }
        let j = running.job_idx;
        let policy = self.health.as_ref().expect("fault without layer").retry; // lint: allow(panic) — fault events are only scheduled when the health layer is configured
        if policy.exhausted(self.jobs[j].retries) {
            self.fail_job(j, now);
            return;
        }
        self.jobs[j].retries += 1;
        self.metrics.task_retries += 1;
        let attempt = self.jobs[j].retries;
        let backoff = policy.backoff(attempt, &mut self.taskfault_rng);
        self.retry_gates
            .insert((j, running.stage, running.task), now + backoff);
    }

    /// A job exhausted its retry budget: every live attempt it still has
    /// is killed (epoch-fenced so in-flight completions are dropped as
    /// stale) and the job leaves the system as failed — its tasks stop
    /// counting as demand and its executors free up immediately.
    fn fail_job(&mut self, j: usize, now: SimTime) {
        for e in 0..self.exec_state.len() {
            let st = &mut self.exec_state[e];
            if st.dead {
                continue;
            }
            let Some(r) = st.running else { continue };
            if r.job_idx != j {
                continue;
            }
            st.running = None;
            st.epoch += 1; // fence the attempt's in-flight Finish
            st.idle_since = now;
            if r.remote_input {
                self.remote_reads_in_flight = self
                    .remote_reads_in_flight
                    .checked_sub(1)
                    .expect("remote-read counter underflow"); // lint: allow(panic) — the counter was incremented when the remote read started
            }
            // Roll the attempt back exactly; a failed job's task records
            // must hold no launch credit (the auditor re-derives them).
            self.on_attempt_killed(&r, now);
            self.partition_forget_ghost(custody_cluster::ExecutorId::new(e));
        }
        self.retry_gates.retain(|&(job, _, _), _| job != j);
        // A failed job's displaced tasks will never relaunch, so their
        // disruption entries must not outlive the job (a parked task
        // failed by the unavailability deadline would otherwise trip the
        // end-of-run drain assert). A set emptied by job death never
        // stabilized, so it scores no drain time.
        self.open_disruptions.retain_mut(|(_, set)| {
            set.retain(|&(job, _, _)| job != j);
            !set.is_empty()
        });
        self.jobs[j].mark_failed(now);
        self.metrics.jobs_failed += 1;
        self.cache.mark_job(j);
    }

    /// Kills one live executor (physically in oracle mode, in the
    /// master's belief in detector mode): the running attempt dies with
    /// attempt-exact rollback, the owner loses the executor, the idle
    /// pool shrinks, and any lease is dropped. Displaced-task keys are
    /// accumulated into `displaced` for disruption tracking.
    fn kill_executor(&mut self, e: ExecutorId, now: SimTime, displaced: &mut BTreeSet<TaskKey>) {
        let state = &mut self.exec_state[e.index()];
        if state.dead {
            return;
        }
        state.dead = true;
        state.epoch += 1;
        if let Some(running) = state.running.take() {
            if running.remote_input {
                self.remote_reads_in_flight = self
                    .remote_reads_in_flight
                    .checked_sub(1)
                    .expect("remote-read counter underflow"); // lint: allow(panic) — the counter was incremented when the remote read started
            }
            if self.on_attempt_killed(&running, now) {
                displaced.insert((running.job_idx, running.stage, running.task));
            }
        }
        if let Some(owner) = self.exec_state[e.index()].owner.take() {
            self.apps[owner.index()].held.remove(e.index());
        }
        self.pool.remove(e.index());
        if let Some(d) = &mut self.detector {
            d.leases.drop_lease(e);
        }
        // A ghost dispatch on this executor was just rolled back here.
        self.partition_forget_ghost(e);
    }

    /// Kills every live executor on `node`. Displaced tasks are tracked
    /// as one open disruption for the recovery-time-to-stable-locality
    /// metric.
    fn kill_executors_on(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
        let mut displaced = BTreeSet::new();
        for e in executors {
            self.kill_executor(e, now, &mut displaced);
        }
        if !displaced.is_empty() {
            self.open_disruptions.push((now, displaced));
        }
    }

    /// A machine dies: its replicas vanish (HDFS immediately re-replicates
    /// under-replicated blocks elsewhere), its executors are lost until
    /// the machine recovers (scripted failures never do), tasks running
    /// on them are re-queued, and unlaunched input tasks re-resolve their
    /// preferred nodes against the post-failure replica map.
    fn on_node_fail(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        self.metrics.nodes_failed += 1;
        self.node_down[node.index()] = Some(FaultKind::Machine);
        if self.detector.is_some() {
            // The master learns nothing here: only heartbeat silence
            // (suspicion, lease expiry) changes its belief.
            self.phys_fail(node, now, FaultKind::Machine);
            return;
        }
        self.metrics.blocks_lost += self.namenode.fail_node(node).len();
        // Crash repair goes through the unified scheduler: instant in
        // bare-oracle runs, paced (and priority-ordered) whenever a
        // pacing layer is active — crash debt no longer jumps the queue
        // ahead of partition-heal or corruption debt.
        self.schedule_repair(now);

        self.kill_executors_on(node, now);
        self.refresh_all_preferred();
        self.cache.mark_pool_changed();
    }

    /// Re-resolves preferred nodes after the replica map changed. The
    /// NameNode journals every replica mutation; draining the journal
    /// through the demand cache's block → watching-jobs index re-resolves
    /// exactly the unfinished jobs that read a changed block — not the
    /// whole job table — dirtying exactly the jobs whose lists actually
    /// moved (re-queues mark their own jobs). The invariant auditor
    /// cross-checks this precision after every event.
    fn refresh_all_preferred(&mut self) {
        let started = std::time::Instant::now();
        let changed = self.namenode.take_changed_blocks();
        if !changed.is_empty() {
            let mut affected = std::mem::take(&mut self.affected_scratch);
            self.cache.jobs_watching(&changed, &mut affected);
            for &j in &affected {
                if !self.jobs[j].is_finished() && self.jobs[j].refresh_preferred(&self.namenode) {
                    self.cache.mark_job(j);
                }
            }
            affected.clear();
            self.affected_scratch = affected;
        }
        self.demand_wall += started.elapsed();
    }

    /// A scripted [`NodeFailure`](crate::config::NodeFailure) fires: the
    /// node goes down for good. If a chaos fault already holds the node
    /// down, the script makes that outage permanent — escalating an
    /// executor-only fault to a full machine loss (replicas drop now).
    fn on_scripted_fail(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        match self.node_down[node.index()] {
            None => self.on_node_fail(node, now),
            Some(FaultKind::ExecutorsOnly) => {
                self.node_down[node.index()] = Some(FaultKind::Machine);
                self.metrics.nodes_failed += 1;
                if let Some(d) = &mut self.detector {
                    // Escalation destroys the disk; the DFS channel gets
                    // a fresh incarnation and the master finds out via
                    // heartbeat silence.
                    d.phys_epoch_dfs[node.index()] += 1;
                    d.data_lost[node.index()] = true;
                    d.phys_down_at[node.index()] = now;
                } else {
                    self.metrics.blocks_lost += self.namenode.fail_node(node).len();
                    self.schedule_repair(now);
                    self.refresh_all_preferred();
                }
            }
            Some(FaultKind::Machine) => {}
        }
        self.perma_down[node.index()] = true;
    }

    /// An executor-only fault: the machine's executor processes die but
    /// its DataNode (and replicas) survive, so nothing is re-replicated
    /// and preferred nodes are unchanged.
    fn on_executor_fault(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        self.metrics.executor_faults += 1;
        self.node_down[node.index()] = Some(FaultKind::ExecutorsOnly);
        if self.detector.is_some() {
            self.phys_fail(node, now, FaultKind::ExecutorsOnly);
            return;
        }
        self.kill_executors_on(node, now);
        self.cache.mark_pool_changed();
    }

    /// A chaos-failed machine rejoins: its executors return empty and
    /// idle, and after a full machine loss the NameNode may place new
    /// replicas there again. Replica locations do not change at recovery
    /// (the machine rejoins holding nothing it did not already serve), so
    /// no preferred-node refresh is needed.
    fn on_node_recover(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        if self.perma_down[node.index()] {
            return; // a scripted failure made this outage permanent
        }
        let kind = self.node_down[node.index()]
            .take()
            .expect("recovering a node that is up"); // lint: allow(panic) — recover events are only scheduled for down nodes
        if self.detector.is_some() {
            self.phys_recover(node, kind, now);
            self.metrics.nodes_recovered += 1;
            return;
        }
        if kind == FaultKind::Machine {
            self.namenode.recover_node(node);
        }
        let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
        for e in executors {
            let state = &mut self.exec_state[e.index()];
            debug_assert!(state.dead && state.running.is_none() && state.owner.is_none());
            state.dead = false;
            state.idle_since = now;
            self.pool.insert(e.index());
        }
        self.metrics.nodes_recovered += 1;
        self.cache.mark_pool_changed();
    }

    /// The stochastic fault process fires: schedule the next arrival and
    /// draw one of the three fault flavours. Node faults that would
    /// exceed the concurrent-down cap (or leave fewer than two machines
    /// up) fizzle, keeping the simulation live.
    fn on_chaos_fault(&mut self, now: SimTime) {
        let chaos = self.chaos.expect("chaos event without chaos config"); // lint: allow(panic) — chaos events are only scheduled when chaos is configured
        let gap =
            Exponential::with_mean(chaos.mean_time_between_faults_secs).sample(&mut self.chaos_rng);
        let next = now + SimDuration::from_secs_f64(gap);
        if next.as_secs_f64() <= chaos.horizon_secs {
            self.queue.schedule(next, Event::ChaosFault);
        }
        if self.chaos_rng.chance(chaos.degraded_fraction) {
            // Transient network degradation: remote reads launched while
            // the window is open pay the configured slowdown.
            let window =
                Exponential::with_mean(chaos.mean_degraded_window_secs).sample(&mut self.chaos_rng);
            self.degraded_until = self
                .degraded_until
                .max(now + SimDuration::from_secs_f64(window));
            self.metrics.degraded_windows += 1;
            return;
        }
        let exec_only = self.chaos_rng.chance(chaos.executor_only_fraction);
        let up: Vec<custody_dfs::NodeId> = (0..self.node_down.len())
            .filter(|&n| self.node_down[n].is_none())
            .map(custody_dfs::NodeId::new)
            .collect();
        let down = self.node_down.len() - up.len();
        if up.len() <= 1 || down >= chaos.max_down {
            return; // too much of the cluster is already down
        }
        let victim = up[self.chaos_rng.below(up.len())];
        let downtime = Exponential::with_mean(chaos.mean_downtime_secs).sample(&mut self.chaos_rng);
        if exec_only {
            self.on_executor_fault(victim, now);
        } else {
            self.on_node_fail(victim, now);
        }
        self.queue.schedule(
            now + SimDuration::from_secs_f64(downtime),
            Event::NodeRecover { node: victim },
        );
    }

    /// A task launched; if an open fault disruption displaced it, strike
    /// it off — a disruption whose displaced set drains records the
    /// fault-to-stable time.
    fn note_relaunch(&mut self, key: TaskKey, now: SimTime) {
        let mut i = 0;
        while i < self.open_disruptions.len() {
            let (at, set) = &mut self.open_disruptions[i];
            set.remove(&key);
            if set.is_empty() {
                let at = *at;
                self.open_disruptions.remove(i);
                self.metrics
                    .requeue_drain_secs
                    .push(now.saturating_since(at).as_secs_f64());
            } else {
                i += 1;
            }
        }
    }

    fn dispatch(&mut self, now: SimTime) {
        self.release_idle_executors();
        self.allocation_round(now);
        let (_launched, min_retry) = self.offer_pass(now);
        if let Some(retry) = min_retry {
            self.schedule_wake(now + retry);
        }
        // Keep a wake armed for the earliest future retry gate: an
        // earlier wake may fire (and be consumed) before the gate opens,
        // and the gated task would otherwise never be re-offered.
        if let Some(&gate) = self.retry_gates.values().filter(|&&g| g > now).min() {
            self.schedule_wake(gate);
        }
    }

    /// Step 1: every idle executor returns to the pool so the next
    /// allocation round re-places it with full, current information —
    /// the paper's proactive-release message (§V): "Custody can keep
    /// track of all the idle executors and dynamically allocate executors
    /// once new jobs are submitted". Static allocators re-grant released
    /// executors to their fixed owners, so their semantics are unchanged.
    fn release_idle_executors(&mut self) -> usize {
        let mut released = 0;
        let mut idle = std::mem::take(&mut self.idle_scratch);
        for i in 0..self.apps.len() {
            idle.clear();
            idle.extend(
                self.apps[i]
                    .held
                    .iter()
                    .map(ExecutorId::new)
                    .filter(|e| self.exec_state[e.index()].running.is_none()),
            );
            for &e in &idle {
                self.apps[i].held.remove(e.index());
                self.exec_state[e.index()].owner = None;
                self.pool.insert(e.index());
                if let Some(d) = &mut self.detector {
                    d.leases.drop_lease(e); // released before expiry
                }
                released += 1;
            }
        }
        idle.clear();
        self.idle_scratch = idle;
        if released > 0 {
            self.cache.mark_pool_changed();
        }
        released
    }

    /// Step 2: one allocation round through the cluster manager.
    ///
    /// A round whose inputs are unchanged since the previous *zero-grant*
    /// round is skipped: the allocator is a deterministic function of the
    /// view (none of the allocators draw randomness on a zero-grant call —
    /// `StaticRandom` draws once on its first call, `DynamicOffer`
    /// advances its cursor only on grants), so re-running it would grant
    /// nothing again. The skip replays the previous round's counting so
    /// metrics stay bit-identical; with the auditor on, every skip is
    /// re-derived first (`audit_skipped_round`).
    fn allocation_round(&mut self, now: SimTime) -> usize {
        if self.pool.is_empty() {
            self.last_round = LastRound::EmptyPool;
            return 0;
        }
        if self.cache.is_quiescent() {
            match self.last_round {
                // Same non-empty pool, same demand: the allocator would
                // see the identical view it granted nothing from.
                LastRound::Counted(0) => {
                    if self.audit_enabled {
                        self.audit_skipped_round();
                    }
                    self.metrics.allocation_rounds += 1;
                    self.metrics.rounds_skipped += 1;
                    return 0;
                }
                // Same pool, still nothing wanted: the early return would
                // fire again without reaching the allocator.
                LastRound::NoDemand => {
                    if self.audit_enabled {
                        self.audit_skipped_round();
                    }
                    self.metrics.rounds_skipped += 1;
                    return 0;
                }
                // A granting round dirties the pool and `EmptyPool` with a
                // now non-empty pool implies a pool change, so these are
                // unreachable while quiescent; execute normally if hit.
                _ => {}
            }
        }
        let started = std::time::Instant::now();
        self.cache.begin_round();
        self.refresh_demand();
        let view = self.view();
        if view.total_demand() == 0 {
            self.alloc_wall += started.elapsed();
            self.last_round = LastRound::NoDemand;
            return 0;
        }
        self.metrics.allocation_rounds += 1;
        if let Some(costs) = self.demotion_costs() {
            self.allocator.set_node_health_costs(&costs);
        }
        let assignments = self.allocator.allocate(&view, &mut self.alloc_rng);
        self.alloc_wall += started.elapsed();
        if cfg!(debug_assertions) {
            custody_core::allocator::validate_assignments(&view, &assignments);
        }
        let granted = assignments.len();
        for a in assignments {
            let removed = self.pool.remove(a.executor.index());
            assert!(removed, "allocator granted non-pooled executor");
            self.exec_state[a.executor.index()].owner = Some(a.app);
            self.apps[a.app.index()].held.insert(a.executor.index());
            if let Some(d) = &mut self.detector {
                // Every grant is a time-bounded lease; the host node's
                // heartbeats renew it, silence revokes it.
                let expiry = now + SimDuration::from_secs_f64(d.cp.lease_duration_secs);
                d.leases.grant(a.executor, expiry);
                if d.lease_deadline_at.is_none() {
                    d.lease_deadline_at = Some(expiry);
                    self.queue.schedule(expiry, Event::LeaseExpiry);
                }
            }
        }
        if granted > 0 {
            self.cache.mark_pool_changed();
        }
        self.last_round = LastRound::Counted(granted);
        granted
    }

    /// The per-node health costs the allocator prices placements with
    /// when demotion is on: suspect/probation nodes cost more — locality
    /// on them earns less credit and the filler visits them last —
    /// instead of vanishing. Allocators that ignore the hint (the
    /// data-unaware baselines) are free to.
    fn demotion_costs(&self) -> Option<Vec<(custody_dfs::NodeId, custody_core::HealthCost)>> {
        self.health
            .as_ref()
            .filter(|h| h.cfg.detection && h.cfg.demotion)
            .map(HealthLayer::health_costs)
    }

    /// Recomputes the demand of every job dirtied since the last refresh.
    fn refresh_demand(&mut self) {
        let started = std::time::Instant::now();
        self.cache.refresh(&self.jobs);
        self.demand_wall += started.elapsed();
    }

    /// The allocator's view of the idle pool and every application's
    /// cached demand (fresh after [`refresh_demand`](Self::refresh_demand)).
    fn view(&self) -> AllocationView {
        // Quarantined nodes' executors stay pooled but invisible: the
        // allocator can only grant what the view offers, so nothing is
        // ever placed on a node the health detector has excluded.
        let idle: Vec<ExecutorInfo> = self
            .pool
            .iter()
            .map(ExecutorId::new)
            .map(|id| ExecutorInfo {
                id,
                node: self.cluster.node_of(id),
            })
            .filter(|info| self.node_schedulable(info.node))
            .collect();
        let apps = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppState {
                app: AppId::new(i),
                quota: a.quota,
                held: a.held.len(),
                local_jobs: a.local_jobs,
                total_jobs: a.total_jobs,
                local_tasks: a.local_tasks,
                total_tasks: a.total_tasks,
                pending_jobs: self.cache.active_demands(i),
            })
            .collect();
        AllocationView {
            idle,
            all_executors: self.cache.all_executors().to_vec(),
            apps,
        }
    }

    /// Step 3: offer idle held executors to their applications' task
    /// schedulers. Returns `(tasks launched, earliest decline retry)`.
    fn offer_pass(&mut self, now: SimTime) -> (usize, Option<SimDuration>) {
        let mut launched_total = 0;
        let mut min_retry: Option<SimDuration> = None;
        let mut idle = std::mem::take(&mut self.idle_scratch);
        loop {
            let mut launched_this_pass = 0;
            for i in 0..self.apps.len() {
                idle.clear();
                idle.extend(
                    self.apps[i]
                        .held
                        .iter()
                        .map(ExecutorId::new)
                        .filter(|e| self.exec_state[e.index()].running.is_none()),
                );
                for &e in &idle {
                    let mut runnable = std::mem::take(&mut self.runnable_scratch);
                    self.runnable_tasks(i, now, &mut runnable);
                    if runnable.is_empty() {
                        self.runnable_scratch = runnable;
                        if self.try_speculate(i, e, now) {
                            launched_this_pass += 1;
                            continue;
                        }
                        break;
                    }
                    let node = self.cluster.node_of(e);
                    let placement = self.apps[i].scheduler.on_offer(node, &runnable, now);
                    self.runnable_scratch = runnable;
                    match placement {
                        Placement::NoWork => break,
                        Placement::Decline { retry_after } => {
                            // The executor would idle through the
                            // locality wait — the moment Spark launches
                            // speculative copies of stragglers instead.
                            if self.try_speculate(i, e, now) {
                                launched_this_pass += 1;
                            } else {
                                min_retry = Some(match min_retry {
                                    Some(r) => r.min(retry_after),
                                    None => retry_after,
                                });
                            }
                        }
                        Placement::Launch {
                            job,
                            stage,
                            task_index,
                            local,
                        } => {
                            self.launch(i, e, job, stage, task_index, local, now);
                            launched_this_pass += 1;
                        }
                    }
                }
            }
            launched_total += launched_this_pass;
            if launched_this_pass == 0 {
                idle.clear();
                self.idle_scratch = idle;
                return (launched_total, min_retry);
            }
        }
    }

    /// Collects the runnable, unlaunched tasks of app `i` into `out`, in
    /// (job, stage, task) order. Tasks re-queued by a transient fault stay
    /// invisible until their backoff gate passes (dispatch keeps a wake
    /// armed for the earliest gate, so a gated task can never starve).
    /// Takes a caller-owned buffer so the offer pass reuses one
    /// allocation across offers instead of building a fresh Vec per idle
    /// executor.
    fn runnable_tasks(&self, i: usize, now: SimTime, out: &mut Vec<RunnableTask>) {
        out.clear();
        for &j in &self.apps[i].jobs {
            let job = &self.jobs[j];
            if job.is_finished() {
                continue;
            }
            for (s, stage) in job.stages.iter().enumerate() {
                if stage.ready_at.is_none() || stage.is_complete() {
                    continue;
                }
                for (t, task) in stage.tasks.iter().enumerate() {
                    if self.retry_gates.get(&(j, s, t)).is_some_and(|&g| now < g) {
                        continue; // backing off after a transient fault
                    }
                    if s == 0 {
                        // A task whose input block has no intact replica
                        // parks: it stays runnable but is never offered,
                        // until repair/reinstatement lifts the tombstone
                        // or the unavailability deadline fails the job.
                        if let Some(d) = &self.durability {
                            if task.block.is_some_and(|b| d.unavailable.contains(&b)) {
                                continue;
                            }
                        }
                    }
                    if task.state == TaskState::Runnable {
                        out.push(RunnableTask {
                            job: job.id,
                            stage: s,
                            task_index: t,
                            preferred_nodes: if s == 0 {
                                task.preferred.clone()
                            } else {
                                [].into()
                            },
                            runnable_since: task.runnable_since.expect("runnable task"), // lint: allow(panic) — the task was drawn from the runnable set
                        });
                    }
                }
            }
        }
    }

    /// Attempts to launch a speculative copy of a straggling task of app
    /// `i` on idle executor `e`. Returns whether a clone was launched.
    ///
    /// Among the stragglers that qualify, the clone source is the task
    /// whose original attempt runs on the node with the highest
    /// peer-relative health penalty — clone off the slowest node first,
    /// the same bucketed model the allocator's soft demotion uses. With
    /// detection off (or no measurable ratios) every penalty is zero and
    /// the pick degenerates to the first straggler in deterministic
    /// (job, stage, task) order, exactly the penalty-blind behaviour.
    fn try_speculate(&mut self, i: usize, e: ExecutorId, now: SimTime) -> bool {
        if self.speculation.is_none() {
            return false;
        }
        // Collect every straggler without a clone, in deterministic
        // (job, stage, task) order.
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for &j in &self.apps[i].jobs {
            if self.jobs[j].is_finished() {
                continue;
            }
            for (st, stage) in self.jobs[j].stages.iter().enumerate() {
                if stage.ready_at.is_none() || stage.is_complete() {
                    continue;
                }
                for (t, task) in stage.tasks.iter().enumerate() {
                    if task.state != crate::job::TaskState::Running {
                        continue;
                    }
                    let key = (j, st, t);
                    let spec = self.speculation.as_mut().expect("checked above"); // lint: allow(panic) — guarded by the enclosing branch
                    if spec.cloned.contains(&key) {
                        continue;
                    }
                    let Some(policy) = spec.policies.get_mut(&(j, st)) else {
                        continue;
                    };
                    let started = task.launched_at.expect("running task"); // lint: allow(panic) — running tasks have a launch timestamp
                    if policy.should_speculate(started, now) {
                        candidates.push(key);
                    }
                }
            }
        }
        if candidates.is_empty() {
            return false;
        }
        // Price each candidate by its original attempt's host node.
        let penalties: Vec<u32> = candidates
            .iter()
            .map(|&(j, st, t)| {
                let node = self.exec_state.iter().enumerate().find_map(|(ei, es)| {
                    es.running.as_ref().and_then(|r| {
                        (r.job_idx == j && r.stage == st && r.task == t && !r.is_clone)
                            .then(|| self.cluster.node_of(ExecutorId::new(ei)))
                    })
                });
                match (&self.health, node) {
                    (Some(h), Some(n)) if h.cfg.detection => h
                        .peer_ratio(n.index(), h.cfg.min_samples)
                        .map(|r| {
                            custody_core::HealthCost::from_ratio(
                                r,
                                h.cfg.cost_scale,
                                h.cfg.cost_cap_ratio,
                            )
                            .penalty()
                        })
                        .unwrap_or(0),
                    _ => 0,
                }
            })
            .collect();
        let choice = custody_scheduler::speculation::pick_clone_source(&penalties)
            .expect("candidates are non-empty"); // lint: allow(panic) — candidates were checked non-empty above
        let (j, st, t) = candidates[choice];
        let spec = self.speculation.as_mut().expect("checked above"); // lint: allow(panic) — guarded by the enclosing branch
        spec.cloned.insert((j, st, t));
        spec.launches += 1;
        // Launch the clone on `e` without touching the task record: the
        // first attempt to finish wins (`on_finish` ignores the loser).
        let node = self.cluster.node_of(e);
        let network = self.cluster.network().clone();
        let stage_ref = &self.jobs[j].stages[st];
        let is_input = st == 0;
        let local = is_input && stage_ref.tasks[t].preferred.contains(&node);
        let (io_time, remote_input, read_from) = if is_input {
            let block = stage_ref.tasks[t].block.expect("input task has block"); // lint: allow(panic) — input tasks always carry a block id
            let bytes = self.namenode.block(block).size_bytes;
            let locality = self.classify_locality(node, &stage_ref.tasks[t].preferred);
            (
                network.read_time_at(bytes, locality, self.remote_reads_in_flight),
                locality == custody_cluster::DataLocality::Remote,
                self.read_source(block, node, local),
            )
        } else {
            (
                network.shuffle_time(stage_ref.shuffle_bytes_per_task),
                false,
                None,
            )
        };
        let io_time = self.maybe_degrade(io_time, remote_input, now);
        let compute = SimDuration::from_secs_f64(
            stage_ref.compute_per_task.as_secs_f64() * self.noise.sample(&mut self.noise_rng),
        );
        // Clones pay the host node's fail-slow penalty too, and are
        // never placed on quarantined nodes (asserted inside).
        let (io_time, compute) = match &self.health {
            Some(h) => h.scaled(node, is_input && local, io_time, compute),
            None => (io_time, compute),
        };
        self.note_health_launch(node);
        if remote_input {
            self.remote_reads_in_flight += 1;
        }
        self.exec_state[e.index()].running = Some(RunningTask {
            job_idx: j,
            stage: st,
            task: t,
            remote_input,
            local: is_input.then_some(local),
            launched_at: now,
            is_clone: true,
            read_from,
            launch_epoch: self.exec_state[e.index()].epoch,
        });
        // A doomed launch — onto a believed-alive but physically down
        // executor — never completes; lease expiry or a post-recovery
        // heartbeat's ghost check cleans it up. A dispatch lost crossing
        // a partition cut never ran at all: reconnect reconciliation
        // rolls it back.
        if self.node_down[node.index()].is_none() && self.partition_dispatch_arrives(e, node) {
            self.queue.schedule(
                now + io_time + compute,
                Event::Finish {
                    executor: e,
                    epoch: self.exec_state[e.index()].epoch,
                },
            );
        }
        true
    }

    /// Applies the transient network-degradation penalty to a remote
    /// read launched while a chaos degradation window is open.
    fn maybe_degrade(&self, io_time: SimDuration, remote: bool, now: SimTime) -> SimDuration {
        if remote && now < self.degraded_until {
            let factor = self
                .chaos
                .expect("degradation window without chaos config") // lint: allow(panic) — degradation windows are only scheduled when chaos is configured
                .degraded_remote_factor;
            SimDuration::from_secs_f64(io_time.as_secs_f64() * factor)
        } else {
            io_time
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        &mut self,
        app_idx: usize,
        executor: ExecutorId,
        job: JobId,
        stage: usize,
        task: usize,
        local: bool,
        now: SimTime,
    ) {
        // JobId is the global index into self.jobs by construction.
        let job_idx = job.index();
        debug_assert_eq!(self.jobs[job_idx].id, job);
        self.cache.mark_job(job_idx);
        let node = self.cluster.node_of(executor);

        // Trust but verify the scheduler's locality claim for input tasks.
        let is_input = stage == 0;
        let actual_local = is_input
            && self.jobs[job_idx].stages[0].tasks[task]
                .preferred
                .contains(&node);
        debug_assert!(
            !is_input || actual_local == local,
            "scheduler locality flag mismatch"
        );

        // Quarantine exclusion is enforced upstream (view filtering);
        // this asserts it held and counts probation probes.
        self.note_health_launch(node);
        self.retry_gates.remove(&(job_idx, stage, task));

        let idle_since = self.exec_state[executor.index()].idle_since;
        let runnable_since = self.jobs[job_idx].stages[stage].tasks[task]
            .runnable_since
            .expect("launching a runnable task"); // lint: allow(panic) — the task was drawn from the runnable set
        let queueing =
            self.jobs[job_idx].mark_launched(stage, task, now, is_input.then_some(actual_local));
        // Delay-scheduling wait: overlap of [runnable, launch] with the
        // executor's idle period.
        let wait_start = idle_since.max(runnable_since);
        let sched_delay = now.saturating_since(wait_start);
        self.apps[app_idx]
            .metrics
            .scheduler_delay_secs
            .push(sched_delay.as_secs_f64());
        self.apps[app_idx]
            .metrics
            .queueing_delay_secs
            .push(queueing.as_secs_f64());

        if is_input {
            if actual_local {
                self.apps[app_idx].local_tasks += 1;
            }
            self.settle_input_accounting(job_idx);
        }

        // Duration: read/shuffle + compute × noise.
        let network = self.cluster.network().clone();
        let stage_ref = &self.jobs[job_idx].stages[stage];
        let (io_time, remote_input, read_from) = if is_input {
            let block = stage_ref.tasks[task].block.expect("input task has block"); // lint: allow(panic) — input tasks always carry a block id
            let bytes = self.namenode.block(block).size_bytes;
            let locality = self.classify_locality(node, &stage_ref.tasks[task].preferred);
            (
                network.read_time_at(bytes, locality, self.remote_reads_in_flight),
                locality == custody_cluster::DataLocality::Remote,
                self.read_source(block, node, actual_local),
            )
        } else {
            (
                network.shuffle_time(stage_ref.shuffle_bytes_per_task),
                false,
                None,
            )
        };
        let io_time = self.maybe_degrade(io_time, remote_input, now);
        let compute = SimDuration::from_secs_f64(
            stage_ref.compute_per_task.as_secs_f64() * self.noise.sample(&mut self.noise_rng),
        );
        // An active fail-slow condition inflates the cause-matched
        // component: disk → local reads, NIC → remote reads and shuffles,
        // CPU → compute.
        let (io_time, compute) = match &self.health {
            Some(h) => h.scaled(node, is_input && actual_local, io_time, compute),
            None => (io_time, compute),
        };
        if remote_input {
            self.remote_reads_in_flight += 1;
        }
        self.exec_state[executor.index()].running = Some(RunningTask {
            job_idx,
            stage,
            task,
            remote_input,
            local: is_input.then_some(actual_local),
            launched_at: now,
            is_clone: false,
            read_from,
            launch_epoch: self.exec_state[executor.index()].epoch,
        });
        // Doomed launches (detector mode: executor believed alive but
        // physically down) never complete — see `try_speculate` — and a
        // dispatch lost crossing a partition cut never ran at all.
        if self.node_down[node.index()].is_none() && self.partition_dispatch_arrives(executor, node)
        {
            self.queue.schedule(
                now + io_time + compute,
                Event::Finish {
                    executor,
                    epoch: self.exec_state[executor.index()].epoch,
                },
            );
        }
        if !self.open_disruptions.is_empty() {
            self.note_relaunch((job_idx, stage, task), now);
        }
    }

    /// The replica a launched input attempt reads from: the executor's
    /// own node for a local read, otherwise the first registered holder
    /// on a live machine — falling back to the first holder outright
    /// when only pinned copies on decommissioned machines remain (they
    /// keep serving sole copies on borrowed time).
    fn read_source(
        &self,
        block: custody_dfs::BlockId,
        node: custody_dfs::NodeId,
        local: bool,
    ) -> Option<custody_dfs::NodeId> {
        if local {
            return Some(node);
        }
        let locs = self.namenode.locations(block);
        locs.iter()
            .copied()
            .find(|&n| !self.namenode.is_node_failed(n))
            .or_else(|| locs.first().copied())
    }

    /// Locality tier of reading from one of `preferred` on `node`:
    /// node-local beats rack-local beats a core-fabric transfer. The
    /// rack tier only exists on multi-rack topologies — in a flat
    /// cluster (the paper's setting) every cross-node read crosses the
    /// shared fabric.
    fn classify_locality(
        &self,
        node: custody_dfs::NodeId,
        preferred: &[custody_dfs::NodeId],
    ) -> custody_cluster::DataLocality {
        if preferred.contains(&node) {
            custody_cluster::DataLocality::NodeLocal
        } else if self.cluster.num_racks() > 1
            && preferred.iter().any(|&p| self.cluster.same_rack(p, node))
        {
            custody_cluster::DataLocality::RackLocal
        } else {
            custody_cluster::DataLocality::Remote
        }
    }

    fn schedule_wake(&mut self, at: SimTime) {
        // Skip if an earlier-or-equal wake is already pending.
        if self.wakes.range(..=at).next_back().is_some() {
            return;
        }
        self.wakes.insert(at);
        self.pending_wakes += 1;
        self.queue.schedule(at, Event::Wake);
    }

    fn finish(self) -> (SimOutcome, TaskTrace) {
        let makespan = self.queue.now();
        // Sanity: every submitted job must have completed.
        for job in &self.jobs {
            assert!(
                job.is_finished(),
                "{} ({}) did not finish — executor leak or deadlock",
                job.id,
                job.name
            );
        }
        for (e, state) in self.exec_state.iter().enumerate() {
            assert!(
                state.running.is_none(),
                "executor {e} still busy at the end of the run"
            );
        }
        assert!(
            self.open_disruptions.is_empty(),
            "displaced tasks never relaunched"
        );
        if let Some(p) = &self.partition {
            // Heals are scheduled at episode open, so no run can end
            // mid-split; reconnect reconciliation and the redelivery
            // loop must have drained every ghost and bounced report.
            assert!(
                !p.connectivity.split_active(),
                "a partition episode never healed"
            );
            assert!(
                p.lost_dispatches.is_empty(),
                "ghost dispatches never reconciled after heal"
            );
            assert!(
                p.deferred.is_empty(),
                "deferred Finish reports never delivered after heal"
            );
        }
        let mut m = self.metrics;
        m.tasks_speculated = self.speculation.as_ref().map_or(0, |s| s.launches);
        // End-of-run metric self-consistency: every clone's race resolved
        // one way or the other, and recoveries never outnumber the faults
        // that caused them. `nodes_recovered` counts executor-only fault
        // recoveries as well as machine recoveries, so the bound is the
        // sum — not `nodes_failed` alone (executor-only chaos runs have
        // `nodes_failed == 0` with recoveries present).
        assert!(
            m.clones_won + m.clones_lost <= m.tasks_speculated,
            "clone races resolved ({} + {}) exceed clones launched ({})",
            m.clones_won,
            m.clones_lost,
            m.tasks_speculated,
        );
        assert!(
            m.nodes_recovered <= m.nodes_failed + m.executor_faults,
            "{} recoveries exceed {} machine + {} executor-only faults",
            m.nodes_recovered,
            m.nodes_failed,
            m.executor_faults,
        );
        // Partition accounting closes over the whole run: every fenced
        // minority Finish was first deferred and then hit the epoch
        // fence, reconvergence is measured at most once per episode, and
        // a run without the layer has nothing on any partition counter.
        assert!(
            m.partition_finishes_fenced <= m.partition_finishes_deferred,
            "{} partition-fenced Finishes exceed {} ever deferred",
            m.partition_finishes_fenced,
            m.partition_finishes_deferred,
        );
        assert!(
            m.partition_finishes_fenced <= m.stale_finishes_fenced,
            "a partition-fenced Finish bypassed the epoch fence",
        );
        assert!(
            m.partition_reconverge_secs.count() <= m.partition_episodes,
            "{} reconvergences measured for {} episodes",
            m.partition_reconverge_secs.count(),
            m.partition_episodes,
        );
        if let Some(p) = &self.partition {
            assert!(
                m.partition_episodes <= p.cfg.max_episodes,
                "{} episodes exceed the configured cap {}",
                m.partition_episodes,
                p.cfg.max_episodes,
            );
        } else {
            assert_eq!(m.partition_episodes, 0, "episodes without a layer");
            assert_eq!(m.partition_finishes_deferred, 0);
            assert_eq!(m.partition_work_discarded, 0);
        }
        // Durability ledger at end of run: split the damage into
        // at-risk (exactly one intact copy left), unavailable
        // (tombstoned, still no intact copy), and permanently lost
        // (no intact copy at all, detected or not). Without the layer
        // every corruption counter must be untouched.
        match &self.durability {
            Some(d) => {
                assert_eq!(
                    m.blocks_unavailable,
                    m.blocks_recovered + d.unavailable.len(),
                    "unavailability ledger out of balance at end of run"
                );
                for b in 0..self.namenode.num_blocks() {
                    match self
                        .namenode
                        .clean_replica_count(custody_dfs::BlockId::new(b))
                    {
                        0 => m.blocks_permanently_lost += 1,
                        1 => m.blocks_at_risk += 1,
                        _ => {}
                    }
                }
            }
            None => {
                assert_eq!(m.replicas_corrupted, 0, "corruption without a layer");
                assert_eq!(m.corrupt_reads_detected, 0);
                assert_eq!(m.scrub_detections, 0);
                assert_eq!(m.blocks_unavailable, 0);
                assert_eq!(m.blocks_recovered, 0);
                assert_eq!(m.jobs_failed_unavailable, 0);
            }
        }
        m.per_app = self.apps.into_iter().map(|a| a.metrics).collect();
        m.jobs_completed = m.per_app.iter().map(|a| a.jobs_completed).sum();
        m.makespan = makespan;
        m.allocator_wall_secs = self.alloc_wall.as_secs_f64();
        m.event_pop_wall_secs = self.event_wall.as_secs_f64();
        m.demand_wall_secs = self.demand_wall.as_secs_f64();
        m.peak_rss_bytes = crate::metrics::peak_rss_bytes();
        let outcome = SimOutcome {
            label: String::new(),
            cluster_metrics: m,
        };
        (outcome, self.trace.unwrap_or_default())
    }
}

/// Block-size accessor kept on the config so the driver reads one source
/// of truth.
impl SimConfig {
    /// The block size datasets are split into (the paper's 128 MB).
    pub fn cluster_block_size(&self) -> u64 {
        custody_dfs::DEFAULT_BLOCK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementKind;
    use custody_core::AllocatorKind;
    use custody_workload::{Campaign, WorkloadKind};

    fn small(allocator: AllocatorKind, seed: u64) -> SimConfig {
        SimConfig::small_demo(seed).with_allocator(allocator)
    }

    #[test]
    fn small_demo_completes_all_jobs() {
        let out = Simulation::run(&small(AllocatorKind::Custody, 1));
        assert_eq!(out.cluster_metrics.jobs_completed, 12);
        assert!(out.cluster_metrics.makespan > SimTime::ZERO);
        assert!(out.cluster_metrics.allocation_rounds > 0);
    }

    #[test]
    fn all_allocators_complete_all_jobs() {
        for kind in AllocatorKind::ALL {
            let out = Simulation::run(&small(kind, 2));
            assert_eq!(out.cluster_metrics.jobs_completed, 12, "{kind} lost jobs");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Simulation::run(&small(AllocatorKind::Custody, 3));
        let b = Simulation::run(&small(AllocatorKind::Custody, 3));
        assert_eq!(a.cluster_metrics.makespan, b.cluster_metrics.makespan);
        assert_eq!(
            a.cluster_metrics.input_locality().mean(),
            b.cluster_metrics.input_locality().mean()
        );
        assert_eq!(
            a.cluster_metrics.events_processed,
            b.cluster_metrics.events_processed
        );
    }

    #[test]
    fn custody_beats_static_locality_on_demo() {
        let custody = Simulation::run(&small(AllocatorKind::Custody, 4));
        let spark = Simulation::run(&small(AllocatorKind::StaticSpread, 4));
        let c = custody.cluster_metrics.input_locality().mean();
        let s = spark.cluster_metrics.input_locality().mean();
        assert!(c >= s, "custody locality {c:.3} should be ≥ static {s:.3}");
    }

    #[test]
    fn locality_fractions_within_bounds() {
        let out = Simulation::run(&small(AllocatorKind::Custody, 5));
        let loc = out.cluster_metrics.input_locality();
        assert!(loc.min().unwrap() >= 0.0);
        assert!(loc.max().unwrap() <= 1.0);
        for f in out.cluster_metrics.local_job_fractions() {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn scheduler_delays_are_recorded() {
        let out = Simulation::run(&small(AllocatorKind::StaticRandom, 6));
        let d = out.cluster_metrics.scheduler_delay_secs();
        assert!(d.count() > 0);
        assert!(d.min().unwrap() >= 0.0);
    }

    #[test]
    fn popularity_placement_also_completes() {
        let cfg = small(AllocatorKind::Custody, 7).with_placement(PlacementKind::Popularity);
        let out = Simulation::run(&cfg);
        assert_eq!(out.cluster_metrics.jobs_completed, 12);
    }

    #[test]
    fn shared_pool_datasets_complete() {
        let mut cfg = small(AllocatorKind::Custody, 8);
        cfg.campaign = cfg.campaign.with_dataset_mode(DatasetMode::SharedPool {
            pool_size: 2,
            skew: 1.0,
        });
        let out = Simulation::run(&cfg);
        assert_eq!(out.cluster_metrics.jobs_completed, 12);
    }

    #[test]
    fn fifo_scheduler_completes() {
        let cfg =
            small(AllocatorKind::Custody, 9).with_scheduler(custody_scheduler::SchedulerKind::Fifo);
        let out = Simulation::run(&cfg);
        assert_eq!(out.cluster_metrics.jobs_completed, 12);
    }

    #[test]
    fn node_failures_requeue_and_still_complete() {
        use crate::config::NodeFailure;
        use custody_dfs::NodeId;
        let mut cfg = small(AllocatorKind::Custody, 11);
        cfg.failures = vec![
            NodeFailure {
                at: SimTime::from_secs(5),
                node: NodeId::new(0),
            },
            NodeFailure {
                at: SimTime::from_secs(9),
                node: NodeId::new(7),
            },
        ];
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12, "all jobs survive two failures");
        assert_eq!(out.nodes_failed, 2);
        // The mid-run failures almost certainly killed something; at
        // minimum the counter must be consistent.
        assert!(out.tasks_requeued < 1000);
        let loc = out.input_locality();
        assert!(loc.min().unwrap() >= 0.0 && loc.max().unwrap() <= 1.0);
    }

    #[test]
    fn failure_runs_are_deterministic() {
        use crate::config::NodeFailure;
        use custody_dfs::NodeId;
        let mut cfg = small(AllocatorKind::StaticSpread, 12);
        cfg.failures = vec![NodeFailure {
            at: SimTime::from_secs(4),
            node: NodeId::new(3),
        }];
        let a = Simulation::run(&cfg).cluster_metrics;
        let b = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tasks_requeued, b.tasks_requeued);
    }

    #[test]
    fn failure_before_start_only_shrinks_cluster() {
        use crate::config::NodeFailure;
        use custody_dfs::NodeId;
        let mut cfg = small(AllocatorKind::Custody, 13);
        cfg.failures = vec![NodeFailure {
            at: SimTime::from_micros(1),
            node: NodeId::new(9),
        }];
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        assert_eq!(out.tasks_requeued, 0, "nothing was running yet");
    }

    #[test]
    #[should_panic(expected = "failure targets unknown")]
    fn failure_on_unknown_node_rejected() {
        use crate::config::NodeFailure;
        use custody_dfs::NodeId;
        let mut cfg = small(AllocatorKind::Custody, 14);
        cfg.failures = vec![NodeFailure {
            at: SimTime::from_secs(1),
            node: NodeId::new(99),
        }];
        let _ = Simulation::run(&cfg);
    }

    #[test]
    fn speculation_completes_and_launches_clones() {
        use custody_scheduler::speculation::SpeculationConfig;
        // Aggressive speculation on a congested cluster so clones fire.
        let mut cfg = small(AllocatorKind::StaticSpread, 25).with_speculation(SpeculationConfig {
            quantile: 0.25,
            multiplier: 1.0,
        });
        cfg.cluster.num_nodes = 4;
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        assert!(
            out.tasks_speculated > 0,
            "aggressive config should clone something"
        );
    }

    #[test]
    fn speculation_never_loses_jobs_with_default_config() {
        use custody_scheduler::speculation::SpeculationConfig;
        let cfg = small(AllocatorKind::Custody, 16).with_speculation(SpeculationConfig::default());
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        // Metrics stay physical.
        let loc = out.input_locality();
        assert!(loc.max().unwrap() <= 1.0);
    }

    #[test]
    fn speculation_with_failures_still_completes() {
        use crate::config::NodeFailure;
        use custody_dfs::NodeId;
        use custody_scheduler::speculation::SpeculationConfig;
        let mut cfg = small(AllocatorKind::Custody, 17).with_speculation(SpeculationConfig {
            quantile: 0.25,
            multiplier: 1.0,
        });
        cfg.failures = vec![NodeFailure {
            at: SimTime::from_secs(6),
            node: NodeId::new(2),
        }];
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
    }

    #[test]
    fn racked_cluster_with_rack_aware_placement_completes() {
        // Averaged over seeds: single racked-10-node runs are noisy.
        let mut custody_sum = 0.0;
        let mut spark_sum = 0.0;
        for seed in [18, 19, 20] {
            for (kind, acc) in [
                (AllocatorKind::Custody, &mut custody_sum),
                (AllocatorKind::StaticSpread, &mut spark_sum),
            ] {
                let mut cfg = small(kind, seed).with_placement(PlacementKind::RackAware);
                cfg.cluster = cfg.cluster.with_racks(3);
                let out = Simulation::run(&cfg).cluster_metrics;
                assert_eq!(out.jobs_completed, 12, "{kind} seed {seed}");
                *acc += out.input_locality().mean();
            }
        }
        assert!(
            custody_sum >= spark_sum - 1e-9,
            "custody {custody_sum:.3} vs spark {spark_sum:.3} (sum of 3 seeds)"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_is_consistent() {
        let cfg = small(AllocatorKind::Custody, 21);
        let plain = Simulation::run(&cfg).cluster_metrics;
        let (traced, trace) = Simulation::run_traced(&cfg);
        assert_eq!(plain.makespan, traced.cluster_metrics.makespan);
        trace.check_invariants();
        assert!(!trace.is_empty());
        // Trace-level locality equals the metrics' task-weighted locality.
        let inputs: usize = trace.records().iter().filter(|r| r.stage == 0).count();
        let local: usize = trace
            .records()
            .iter()
            .filter(|r| r.stage == 0 && r.local)
            .count();
        let from_trace = local as f64 / inputs as f64;
        assert!((from_trace - trace.input_locality()).abs() < 1e-12);
        // Round-trip through TSV.
        let back = crate::trace::TaskTrace::from_tsv(&trace.to_tsv()).expect("roundtrip");
        assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn mixed_campaign_completes() {
        let mut cfg = SimConfig::small_demo(10);
        cfg.campaign = Campaign::mixed().with_jobs_per_app(2);
        let out = Simulation::run(&cfg);
        assert_eq!(out.cluster_metrics.jobs_completed, 8);
        // One metrics record per app, with the right workloads.
        assert_eq!(out.cluster_metrics.per_app.len(), 4);
        assert_eq!(
            out.cluster_metrics.per_app[1].workload,
            WorkloadKind::WordCount
        );
    }

    fn chaotic(allocator: AllocatorKind, seed: u64) -> SimConfig {
        small(allocator, seed).with_chaos(
            crate::config::ChaosConfig::default()
                .with_mean_time_between_faults(8.0)
                .with_horizon(120.0),
        )
    }

    #[test]
    fn chaos_runs_complete_under_every_allocator() {
        for kind in AllocatorKind::ALL {
            let out = Simulation::run(&chaotic(kind, 30)).cluster_metrics;
            assert_eq!(out.jobs_completed, 12, "{kind} lost jobs under chaos");
            assert!(
                out.nodes_failed + out.executor_faults + out.degraded_windows > 0,
                "{kind}: an 8s-MTBF process injected nothing"
            );
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let a = Simulation::run(&chaotic(AllocatorKind::Custody, 31)).cluster_metrics;
        let b = Simulation::run(&chaotic(AllocatorKind::Custody, 31)).cluster_metrics;
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.nodes_failed, b.nodes_failed);
        assert_eq!(a.nodes_recovered, b.nodes_recovered);
        assert_eq!(a.executor_faults, b.executor_faults);
        assert_eq!(a.tasks_requeued, b.tasks_requeued);
        assert_eq!(a.peak_queue_len, b.peak_queue_len);
        assert_eq!(a.requeue_drain_secs.count(), b.requeue_drain_secs.count());
    }

    #[test]
    fn chaos_recovers_failed_nodes() {
        // Short downtimes inside a long run: every chaos-failed node
        // must rejoin, and rejoined machines accept replicas again.
        let mut chaos = crate::config::ChaosConfig::default()
            .with_mean_time_between_faults(6.0)
            .with_horizon(200.0);
        chaos.mean_downtime_secs = 5.0;
        chaos.degraded_fraction = 0.0;
        chaos.executor_only_fraction = 0.0;
        let cfg = small(AllocatorKind::Custody, 32).with_chaos(chaos);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        assert!(out.nodes_failed > 0, "no faults drawn");
        assert_eq!(
            out.nodes_recovered, out.nodes_failed,
            "every chaos failure schedules a recovery"
        );
    }

    #[test]
    fn executor_only_faults_leave_replicas_alone() {
        let mut chaos = crate::config::ChaosConfig::default()
            .with_mean_time_between_faults(6.0)
            .with_horizon(150.0);
        chaos.executor_only_fraction = 1.0;
        chaos.degraded_fraction = 0.0;
        let cfg = small(AllocatorKind::Custody, 33).with_chaos(chaos);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        assert!(out.executor_faults > 0);
        assert_eq!(out.nodes_failed, 0, "process faults must not drop replicas");
        assert_eq!(out.nodes_recovered, out.executor_faults);
    }

    #[test]
    fn degradation_windows_slow_remote_reads() {
        // Degradation-only chaos: compare against the same config with
        // chaos off. Locality decisions are unchanged (the window only
        // scales remote read times), so the makespan can only grow.
        let mut chaos = crate::config::ChaosConfig::default().with_horizon(300.0);
        chaos.mean_time_between_faults_secs = 4.0;
        chaos.degraded_fraction = 1.0;
        chaos.degraded_remote_factor = 10.0;
        chaos.mean_degraded_window_secs = 40.0;
        let base = small(AllocatorKind::StaticRandom, 34);
        let plain = Simulation::run(&base).cluster_metrics;
        let degraded = Simulation::run(&base.clone().with_chaos(chaos)).cluster_metrics;
        assert_eq!(degraded.jobs_completed, 12);
        assert!(degraded.degraded_windows > 0);
        assert_eq!(degraded.nodes_failed, 0);
        assert!(
            degraded.makespan >= plain.makespan,
            "10x-slower remote reads cannot shorten the run"
        );
    }

    #[test]
    fn clone_race_with_node_failure_stays_consistent() {
        // Regression for the attempt-rollback rewrite: aggressive
        // speculation (clone races everywhere) plus chaos failures and
        // recoveries. The old code panicked re-queueing a Done task when
        // a node died under a speculation loser, and double-counted
        // locality when the record-bound attempt was not the one killed.
        // The per-event auditor turns any such drift into a panic here.
        use custody_scheduler::speculation::SpeculationConfig;
        for seed in [35, 36, 37] {
            let mut cfg =
                chaotic(AllocatorKind::Custody, seed).with_speculation(SpeculationConfig {
                    quantile: 0.25,
                    multiplier: 1.0,
                });
            cfg.cluster.num_nodes = 6;
            let out = Simulation::run(&cfg).cluster_metrics;
            assert_eq!(out.jobs_completed, 12, "seed {seed}");
            assert_eq!(
                out.clones_won + out.clones_lost,
                out.tasks_speculated,
                "every clone either wins or loses (seed {seed})"
            );
        }
    }

    #[test]
    fn wake_dedup_bounds_the_event_queue() {
        // A congested cluster with declining schedulers used to enqueue
        // one wake per declined offer; the dedup set plus the pending
        // counter keep the queue near the task/submission population.
        let mut cfg = small(AllocatorKind::Custody, 38);
        cfg.cluster.num_nodes = 3;
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        assert!(
            out.peak_queue_len < 1000,
            "queue peaked at {} — wake flood?",
            out.peak_queue_len
        );
    }

    fn failslow(allocator: AllocatorKind, seed: u64) -> SimConfig {
        small(allocator, seed)
            .with_failslow(crate::config::FailSlowConfig::default().with_sick_fraction(0.3))
    }

    #[test]
    fn failslow_runs_complete_or_fail_cleanly() {
        for kind in AllocatorKind::ALL {
            let out = Simulation::run(&failslow(kind, 50)).cluster_metrics;
            assert_eq!(
                out.jobs_completed + out.jobs_failed,
                12,
                "{kind} lost a job without failing it cleanly"
            );
        }
    }

    #[test]
    fn failslow_runs_are_deterministic() {
        let a = Simulation::run(&failslow(AllocatorKind::Custody, 51)).cluster_metrics;
        let b = Simulation::run(&failslow(AllocatorKind::Custody, 51)).cluster_metrics;
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.failslow_onsets, b.failslow_onsets);
        assert_eq!(a.task_faults_injected, b.task_faults_injected);
        assert_eq!(a.task_retries, b.task_retries);
        assert_eq!(a.nodes_quarantined, b.nodes_quarantined);
        assert_eq!(a.jobs_failed, b.jobs_failed);
    }

    #[test]
    fn detection_quarantines_a_limping_node() {
        // One persistently CPU-sick node with a brutal slowdown on a
        // congested cluster: the peer-relative detector must notice.
        let mut fs = crate::config::FailSlowConfig::default()
            .with_sick_fraction(0.2)
            .with_transient_fault_prob(0.0);
        fs.mean_onset_secs = 2.0;
        fs.cpu_factor = 12.0;
        fs.disk_factor = 12.0;
        fs.nic_factor = 12.0;
        fs.min_samples = 3;
        // Seed chosen so the sick node is one StaticSpread actually
        // uses (an idle node produces no observations to judge).
        let mut cfg = small(AllocatorKind::StaticSpread, 54).with_failslow(fs);
        cfg.cluster.num_nodes = 5;
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 12);
        assert!(out.failslow_onsets > 0, "no slowdown ever set in");
        assert!(
            out.nodes_quarantined > 0,
            "a 12x-slower node escaped quarantine"
        );
        assert!(
            out.quarantine_latency_secs.count() + out.false_quarantines <= out.nodes_quarantined,
            "scored quarantines exceed quarantines taken"
        );
        assert!(
            out.quarantine_latency_secs.count() > 0,
            "a true quarantine must score its detection latency"
        );
    }

    #[test]
    fn exhausted_retry_budget_fails_jobs_cleanly() {
        // Every attempt faults: with a zero budget the first fault per
        // job fails it — nothing completes, nothing deadlocks.
        let fs = crate::config::FailSlowConfig::default()
            .with_sick_fraction(0.0)
            .with_transient_fault_prob(1.0)
            .with_retry_budget(0);
        let cfg = small(AllocatorKind::Custody, 54).with_failslow(fs);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert_eq!(out.jobs_completed, 0);
        assert_eq!(out.jobs_failed, 12);
        assert_eq!(out.task_retries, 0, "a zero budget allows no retries");
        assert!(out.task_faults_injected >= 12);
    }

    #[test]
    fn transient_faults_retry_within_budget() {
        let fs = crate::config::FailSlowConfig::default()
            .with_sick_fraction(0.0)
            .with_transient_fault_prob(0.08);
        let cfg = small(AllocatorKind::Custody, 55).with_failslow(fs);
        let out = Simulation::run(&cfg).cluster_metrics;
        assert!(out.task_faults_injected > 0, "an 8% fault rate hit nothing");
        assert!(
            out.task_retries > 0,
            "faults were injected but none retried"
        );
        assert_eq!(
            out.jobs_completed + out.jobs_failed,
            12,
            "every job either completed or failed cleanly"
        );
    }

    #[test]
    #[should_panic(expected = "local_tasks drifted")]
    fn auditor_catches_corrupted_accounting() {
        let mut driver = Driver::new(&small(AllocatorKind::Custody, 39));
        // Pump a few events so jobs and launches exist, then corrupt a
        // counter the way a buggy rollback would.
        for _ in 0..40 {
            let Some(ev) = driver.queue.pop() else { break };
            driver.metrics.events_processed += 1;
            let now = ev.time;
            match ev.event {
                Event::Submit { app, seq } => driver.on_submit(app, seq, now),
                Event::Finish { executor, epoch } => driver.on_finish(executor, epoch, now),
                _ => {}
            }
            driver.dispatch(now);
        }
        driver.apps[0].local_tasks += 1;
        driver.audit();
    }
}
