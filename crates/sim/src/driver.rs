//! The discrete-event simulation driver.
//!
//! Core events:
//!
//! * `Submit` — a user submits a job to an application (the moment Custody
//!   extracts the job's input information from the NameNode, §IV-C).
//! * `Finish` — a task completes on an executor.
//! * `NodeFail` — a scripted machine failure (permanent).
//! * `Wake` — a delayed-offer retry (delay scheduling declined an offer
//!   and asked to be re-offered later).
//! * `RestoreTick` — one paced batch of the unified repair queue, shared
//!   by the partition and durability layers.
//!
//! Each optional fault layer is one `Option` field on the driver that
//! owns its config, its named RNG streams and its start-up; one `Event`
//! variant wrapping the layer's own event enum; and one submodule that
//! holds its handlers. An event is routed once: the layer's router takes
//! the layer from its field a single time and hands it to the handlers,
//! which never look it up again.
//!
//! * `Event::Chaos` (`chaos`): `Fault` (a crash, executor-only or
//!   degradation draw) and the `Recover` it schedules.
//! * `Event::Detector` (`detector`) models the control plane:
//!   `HeartbeatTick`, `HeartbeatArrive`, `Deadline` and `LeaseExpiry`.
//! * `Event::Checkpoint` (`checkpoint`): the master's periodic snapshot;
//!   the module also keeps checkpoint/WAL crash recovery.
//! * `Event::Health` (`health`) handles gray failures: `Onset`, `Remit`
//!   and `ProbationStart`.
//! * `Event::Partition` (`partition`) handles connectivity splits:
//!   `Start`, `Heal` and `Flap`.
//! * `Event::Durability` (`durability`) handles silent corruption:
//!   `CorruptionArrive`, `ScrubTick` and `UnavailabilityDeadline`.
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

use std::collections::{BTreeMap, BTreeSet};

use custody_cluster::{ClusterState, ExecutorId};
use custody_core::{
    AllocationView, AllocatorKind, AppState, Assignment, ExecutorAllocator, ExecutorInfo,
    HealthCost,
};
use custody_dfs::{DatasetId, NameNode, NodeId};
use custody_scheduler::speculation::{SpeculationConfig, SpeculationPolicy};
use custody_scheduler::{Placement, RetryPolicy, RunnableTask, TaskScheduler};
use custody_simcore::dist::{Distribution, Exponential, TruncatedNormal, Zipf};
use custody_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use custody_workload::{AppId, DatasetMode, JobId, JobSpec, SubmissionSchedule};

use crate::config::{ControlPlaneConfig, SimConfig};
use crate::demand::DemandCache;
use crate::job::{RuntimeJob, TaskState};
use crate::metrics::{AppMetrics, RunMetrics, SimOutcome};
use crate::trace::{TaskRecord, TaskTrace};

pub mod audit;
mod chaos;
mod checkpoint;
mod detector;
mod durability;
mod health;
mod ledger;
mod partition;

use chaos::{ChaosEvent, ChaosLayer};
use checkpoint::MasterLog;
use detector::{DetectorEvent, DetectorState, HbChannel};
use durability::{DurabilityEvent, DurabilityLayer};
use health::{HealthEvent, HealthLayer};
use ledger::ExecutorLedger;
use partition::{PartitionEvent, PartitionLayer};

/// Entry point: runs a configuration to completion.
pub struct Simulation;

impl Simulation {
    /// Runs `config` and returns the collected metrics. Deterministic:
    /// identical configs produce identical outcomes.
    ///
    /// # Panics
    ///
    /// On a config [`SimConfig::validate`] rejects; front ends taking
    /// outside input validate first and report the error.
    pub fn run(config: &SimConfig) -> SimOutcome {
        Self::driver(config).run().0
    }

    /// Runs `config` and additionally returns the per-task trace
    /// (completion order; winning attempts only). Panics like
    /// [`run`](Self::run).
    pub fn run_traced(config: &SimConfig) -> (SimOutcome, TaskTrace) {
        let mut driver = Self::driver(config);
        driver.trace = Some(TaskTrace::new());
        driver.run()
    }

    fn driver(config: &SimConfig) -> Driver {
        if let Err(e) = config.validate() {
            panic!("invalid simulation config: {e}"); // lint: allow(panic) — a bad config is a caller bug here; callers holding outside input check `SimConfig::validate` first
        }
        Driver::new(config)
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
    Wake,
    /// One paced batch of re-replication debt is paid — the unified
    /// repair queue's tick (partition-layer and durability-layer runs
    /// replace the instant restore storm with these).
    RestoreTick,
    /// Periodic master checkpoint (WAL-enabled runs only).
    Checkpoint,
    Chaos(ChaosEvent),
    Detector(DetectorEvent),
    Health(HealthEvent),
    Partition(PartitionEvent),
    Durability(DurabilityEvent),
}

/// A layer's event popped while the layer is absent. Unreachable: only a
/// layer schedules its own events, and a layer built at start-up lives
/// for the whole run (master recovery carries every layer over).
fn unrouted(event: Event) -> ! {
    unreachable!("{event:?} popped without its fault layer") // lint: allow(panic) — layer events are scheduled only by their layer, which exists for the whole run
}

/// A task lifecycle transition from the wrong state: the driver asked to
/// launch, finish or re-queue a task its own bookkeeping says cannot be.
fn lifecycle_bug(action: &str, key: TaskKey, state: TaskState) -> ! {
    let (j, s, t) = key;
    // lint: allow(panic) — driver invariant: the runnable set, the attempt table and the record agree (auditor invariants 4 and 6)
    panic!("{action} job {j} stage {s} task {t} in state {state:?}")
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

impl FaultKind {
    /// Whether a node down with this fault is silent on `channel`: a
    /// machine loss stops both the executor runtime and the DataNode, an
    /// executor-only fault the executor runtime alone. Every decision
    /// about which of a node's halves a fault takes down is this one.
    fn silences(self, channel: HbChannel) -> bool {
        match self {
            FaultKind::Machine => true,
            FaultKind::ExecutorsOnly => channel == HbChannel::Executor,
        }
    }
}

/// What the last allocation round decided.
#[derive(Debug, Clone, Default, PartialEq)]
enum Decision {
    /// Nothing to reuse: no round has run yet, or the idle pool was empty
    /// (early return, uncounted).
    #[default]
    None,
    /// Pool non-empty but no application wanted anything (early return,
    /// uncounted).
    DemandFree,
    /// The round was counted and granted these, in the order `allocate`
    /// returned them (possibly none).
    Grants(Vec<Assignment>),
}

/// The last allocation round's decision and the demand and health stamps
/// it was decided on (the executor ledger keeps the pool's), kept so that
/// a later round on the same inputs reuses the decision instead of
/// recomputing it (see [`Driver::allocation_round`]).
#[derive(Debug, Clone, Default, PartialEq)]
struct KeptRound {
    decision: Decision,
    /// The demand cache's generation when the round ran.
    demand_generation: u64,
    /// The health layer's generation when the round ran.
    health_generation: u64,
    /// Audited runs only: the counted round's idle list and per-app held
    /// counts, which a round reusing its grants must see again.
    idle: Vec<ExecutorInfo>,
    held: Vec<usize>,
}

/// One offer the app's scheduler declined: the decline's absolute
/// deadline, and until when the memo vouches for it — the deadline, or an
/// earlier retry gate whose opening changes the runnable list.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Declined {
    deadline: SimTime,
    until: SimTime,
}

/// The nodes an app's scheduler declined under one runnable-list
/// generation. By the [`TaskScheduler::on_offer`] decline contract, the
/// same node offered the same list before the deadline declines again
/// with the same deadline and leaves the scheduler unchanged, so such an
/// offer need not be made.
#[derive(Debug, Clone, Default, PartialEq)]
struct DeclineMemo {
    /// The app's runnable-list generation the entries were recorded under
    /// (see [`Driver::runnable_generation`]).
    generation: (u64, u64),
    nodes: BTreeMap<NodeId, Declined>,
}

impl DeclineMemo {
    /// The deadline of a decline that still holds for `node` at `now`.
    fn hit(&self, generation: (u64, u64), node: NodeId, now: SimTime) -> Option<SimTime> {
        if self.generation != generation {
            return None;
        }
        let declined = self.nodes.get(&node)?;
        (now < declined.until).then_some(declined.deadline)
    }

    /// Records a decline of `node` under `generation`, dropping entries of
    /// an older one.
    fn record(&mut self, generation: (u64, u64), node: NodeId, declined: Declined) {
        if self.generation != generation {
            self.generation = generation;
            self.nodes.clear();
        }
        self.nodes.insert(node, declined);
    }
}

/// How often dispatch took one of its two exact short-cuts. Driver-private
/// and not part of [`RunMetrics`]: they say how much work was saved, not
/// what was simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Shortcuts {
    /// Allocation rounds that replayed the kept grants.
    rounds_replayed: usize,
    /// Offers answered from a decline memo.
    offers_memoized: usize,
}

/// One in-flight attempt of a task. The task *record*
/// ([`crate::job::RuntimeTask`]) describes exactly one attempt — the
/// record-bound one; a speculative clone carries its own locality and
/// launch time here so the record can be rebound attempt-exactly when the
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
    /// Whether a clone of this attempt was launched (never cloned twice).
    cloned: bool,
    /// The input block and the replica this attempt reads it from
    /// (`Some` for input-stage attempts with a resolvable source). The
    /// completion is checksum-verified against this replica when the
    /// durability layer is active: a corrupt source fails the read
    /// instead of finishing.
    read_from: Option<(custody_dfs::BlockId, custody_dfs::NodeId)>,
    /// The executor's epoch when this attempt launched. In detector mode
    /// a mismatch against the executor's current epoch marks a ghost: an
    /// attempt that launched into an incarnation that has since died
    /// (including a doomed launch onto a believed-alive but physically
    /// down executor, which never schedules a `Finish`).
    launch_epoch: u64,
}

/// What killing one in-flight attempt does to its task, decided before
/// any state changes so a faulting layer can charge its retry policy
/// while it still holds the layer.
#[derive(Debug, Clone, Copy)]
enum Kill {
    /// The task already finished: this attempt had lost a speculation
    /// race, so there is nothing to roll back.
    RaceLost,
    /// A twin attempt is still running and takes over the record (and
    /// its locality credit).
    Twin(RunningTask),
    /// This was the last attempt: the task re-queues and the record-bound
    /// launch is rolled back exactly.
    Requeue,
}

impl Kill {
    /// Decides what killing `attempt`, already off its executor, does. A
    /// twin runs on an executor of the same app (auditor invariant 1).
    fn of(
        attempt: &RunningTask,
        jobs: &[RuntimeJob],
        ledger: &ExecutorLedger,
        exec_state: &[ExecState],
    ) -> Kill {
        let key = (attempt.job_idx, attempt.stage, attempt.task);
        if let TaskState::Done { .. } = jobs[key.0].stages[key.1].tasks[key.2].state {
            return Kill::RaceLost;
        }
        let held = ledger.held(jobs[key.0].app.index());
        let same_task = |r: &RunningTask| (r.job_idx, r.stage, r.task) == key;
        let twin = |e: usize| exec_state[e].running.filter(same_task);
        held.iter().find_map(twin).map_or(Kill::Requeue, Kill::Twin)
    }

    /// Charges a faulted attempt's kill against the faulting layer's
    /// `retry` policy: a re-queue within `job`'s budget consumes one retry
    /// and returns its backoff gate, jitter drawn from `rng`. `None` when
    /// there is nothing to charge or the budget is exhausted.
    fn charge(
        self,
        job: &mut RuntimeJob,
        retry: RetryPolicy,
        rng: &mut SimRng,
        now: SimTime,
    ) -> Option<SimTime> {
        if !matches!(self, Kill::Requeue) || retry.exhausted(job.retries) {
            return None;
        }
        job.retries += 1;
        Some(now + retry.backoff(job.retries, rng))
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct SpecState {
    config: SpeculationConfig,
    /// Per-(job, stage) policies of running jobs; a job's go when it ends.
    policies: std::collections::BTreeMap<(usize, usize), SpeculationPolicy>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ExecState {
    running: Option<RunningTask>,
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
    /// Pre-generated job specs (and their datasets), indexed by seq.
    specs: Vec<(JobSpec, DatasetId)>,
    metrics: AppMetrics,
    /// Offers the scheduler declined under the current runnable list.
    declines: DeclineMemo,
}

#[derive(Clone)]
struct Driver {
    queue: EventQueue<Event>,
    namenode: NameNode,
    cluster: ClusterState,
    allocator: Box<dyn ExecutorAllocator>,
    /// Which allocator `allocator` is; the auditor builds a fresh one of
    /// the same kind to check a Custody allocator's kept round.
    allocator_kind: AllocatorKind,
    apps: Vec<AppRuntime>,
    jobs: Vec<RuntimeJob>,
    exec_state: Vec<ExecState>,
    /// The idle pool, each executor's owner and death, each app's held
    /// set, and the pool's generation; their only writer.
    ledger: ExecutorLedger,
    /// The allocator's stream. The static-random partition is drawn from
    /// it when the allocator is built; `allocate` is handed it, but no
    /// allocator draws there.
    alloc_rng: SimRng,
    fail_rng: SimRng,
    noise: TruncatedNormal,
    noise_rng: SimRng,
    /// Pending wake timestamps (deduplicated); the auditor checks they
    /// are exactly the times of the queued `Wake` events, so a decline
    /// burst can never flood the queue.
    wakes: BTreeSet<SimTime>,
    /// Speculative-execution state, if enabled: the config and the
    /// per-(job, stage) policies.
    speculation: Option<SpecState>,
    /// Each fault layer is `Some` only when configured and not inert: it
    /// owns its config, its RNG streams (dedicated, so sweeping one layer
    /// perturbs no other schedule) and its live state.
    chaos: Option<ChaosLayer>,
    /// The modeled control plane's belief state (`None` in oracle mode,
    /// a perfect control plane included).
    detector: Option<DetectorState>,
    /// The gray-failure layer: physical sickness plus the peer-relative
    /// health detector's belief.
    health: Option<HealthLayer>,
    /// The connectivity layer: the reachability relation plus split-brain
    /// reconciliation state.
    partition: Option<PartitionLayer>,
    /// The data-durability layer: latent corruption ground truth, the
    /// tombstoned-block set, and the scrubber's cursor.
    durability: Option<DurabilityLayer>,
    /// Whether a unified-repair `RestoreTick` is pending (at most one
    /// in flight across all repair triggers).
    repair_armed: bool,
    /// Tasks re-queued by a transient fault may not relaunch before their
    /// backoff gate; entries are dropped at launch.
    retry_gates: std::collections::BTreeMap<TaskKey, SimTime>,
    /// Master checkpoint, WAL and crash draws (checkpointing runs only).
    master: Option<MasterLog>,
    /// Why each node is currently down (`None` = up). Scripted failures
    /// stay down forever; chaos faults schedule a chaos `Recover`.
    node_down: Vec<Option<FaultKind>>,
    /// Scripted (permanent) failures: a chaos `Recover` aimed at a
    /// node the script also killed is ignored.
    perma_down: Vec<bool>,
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
    /// The allocator's view, kept for the whole run: the only home of each
    /// app's allocator-facing state, updated in place. Its idle half is
    /// filled only during a round that can grant.
    view: AllocationView,
    /// Which jobs' entries in `view` are stale, and the demand generation.
    cache: DemandCache,
    /// The last round's decision, for round reuse.
    kept_round: KeptRound,
    /// The health-cost table installed in the allocator, with the health
    /// generation it was built at (demotion runs only).
    health_costs: Option<(u64, Vec<(NodeId, HealthCost)>)>,
    /// Replayed rounds and memoized offers.
    shortcuts: Shortcuts,
    /// Wall-clock spent in allocation rounds: demand refresh, idle list
    /// and `allocate`.
    alloc_wall: std::time::Duration,
    /// Wall-clock spent popping the event queue.
    event_wall: std::time::Duration,
    /// Wall-clock spent on demand maintenance: demand-cache refresh plus
    /// journal-driven preferred-node re-resolution. Refreshes run inside
    /// allocation rounds, so this overlaps (is not additive with)
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
                specs,
                metrics: AppMetrics::new(AppId::new(i), app_spec.name.clone(), app_spec.workload),
                declines: DeclineMemo::default(),
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
            queue.schedule(f.at, Event::NodeFail { node: f.node });
        }
        // Fault layers, each seeding its own streams and first events.
        // The order fixes the initial events' queue sequence numbers.
        let seed = config.seed;
        let num_nodes = cluster.num_nodes();
        let chaos = config
            .chaos
            .map(|cfg| ChaosLayer::new(cfg, seed, &mut queue));
        let detector = config
            .control_plane
            .and_then(|cp| DetectorState::new(cp, seed, &cluster, &mut queue));
        let checkpointing = config.control_plane.filter(ControlPlaneConfig::wal_enabled);
        if let Some(cp) = checkpointing {
            MasterLog::schedule_first(cp, &mut queue);
        }
        let health = config
            .failslow
            .and_then(|cfg| HealthLayer::new(cfg, seed, num_nodes, &mut queue));
        let partition = config
            .partition
            .and_then(|cfg| PartitionLayer::new(cfg, seed, num_nodes, &mut queue));
        let durability = config
            .corruption
            .and_then(|cfg| DurabilityLayer::new(cfg, seed, &mut namenode, &mut queue));
        // Until the first detection every onset on record is latent rot.
        let replicas_corrupted = durability.as_ref().map_or(0, |d| d.onset.len());

        let view = AllocationView {
            idle: Vec::new(),
            apps: AppId::iter_upto(apps.len())
                .map(|app| AppState {
                    app,
                    quota,
                    held: 0,
                    local_jobs: 0,
                    total_jobs: 0,
                    local_tasks: 0,
                    total_tasks: 0,
                    pending_jobs: Vec::new(),
                })
                .collect(),
        };
        // The static baselines fix their partitions from the executor
        // inventory here, once; it never enters a per-round view.
        let inventory: Vec<ExecutorInfo> = cluster
            .executors()
            .iter()
            .map(|e| ExecutorInfo {
                id: e.id,
                node: e.node,
            })
            .collect();
        let mut alloc_rng = SimRng::for_stream(config.seed, "allocator");
        let allocator = config
            .allocator
            .build(&inventory, apps.len(), &mut alloc_rng);
        // Dataset creation placed initial replicas directly; the change
        // journal tracks mutations *after* this point (jobs resolve their
        // preferred nodes from scratch at submission anyway).
        namenode.clear_changed_blocks();
        let mut driver = Driver {
            queue,
            exec_state: vec![ExecState::default(); cluster.num_executors()],
            ledger: ExecutorLedger::new(cluster.num_executors(), apps.len()),
            namenode,
            cluster,
            allocator,
            allocator_kind: config.allocator,
            apps,
            jobs: Vec::new(),
            alloc_rng,
            fail_rng: SimRng::for_stream(config.seed, "failures"),
            noise: TruncatedNormal::new(1.0, 0.05, 0.85, 1.15),
            noise_rng: SimRng::for_stream(config.seed, "task-noise"),
            wakes: BTreeSet::new(),
            speculation: config.speculation.map(|config| SpecState {
                config,
                ..SpecState::default()
            }),
            chaos,
            detector,
            health,
            partition,
            durability,
            repair_armed: false,
            retry_gates: std::collections::BTreeMap::new(),
            master: None,
            node_down: vec![None; num_nodes],
            perma_down: vec![false; num_nodes],
            remote_reads_in_flight: 0,
            metrics: RunMetrics {
                replicas_corrupted,
                ..RunMetrics::default()
            },
            open_disruptions: Vec::new(),
            audit_enabled: cfg!(debug_assertions) || config.audit,
            trace: None,
            view,
            cache: DemandCache::default(),
            kept_round: KeptRound::default(),
            health_costs: None,
            shortcuts: Shortcuts::default(),
            alloc_wall: std::time::Duration::ZERO,
            event_wall: std::time::Duration::ZERO,
            demand_wall: std::time::Duration::ZERO,
            idle_scratch: Vec::new(),
            runnable_scratch: Vec::new(),
            affected_scratch: Vec::new(),
        };
        let master = checkpointing.map(|cp| MasterLog::genesis(cp, seed, &driver));
        driver.master = master;
        driver
    }

    fn run(mut self) -> (SimOutcome, TaskTrace) {
        while self.step() {}
        self.finish()
    }

    /// Pops and handles the next event; `false` once the queue is empty.
    fn step(&mut self) -> bool {
        let pop_started = std::time::Instant::now();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.event_wall += pop_started.elapsed();
        self.maybe_crash_master(&ev);
        if let Some(log) = &mut self.master {
            log.wal.push((ev.time, ev.seq, ev.event));
        }
        self.handle_event(ev.event, ev.time);
        if self.audit_enabled {
            self.audit();
        }
        if ev.event == Event::Checkpoint {
            // Snapshot *after* the Checkpoint event's own dispatch so
            // the WAL restarts empty from exactly this state.
            self.take_checkpoint();
        }
        true
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
            Event::Wake => {
                self.wakes.remove(&now);
            }
            Event::RestoreTick => self.on_restore_tick(now),
            Event::Checkpoint => self.on_checkpoint_tick(now),
            Event::Chaos(ChaosEvent::Fault) => self.on_chaos_fault(now),
            Event::Chaos(ChaosEvent::Recover { node, kind }) => {
                self.on_node_recover(node, kind, now)
            }
            Event::Detector(ev) => self.on_detector_event(ev, now),
            Event::Health(ev) => self.on_health_event(ev, now),
            Event::Partition(ev) => self.on_partition_event(ev, now),
            Event::Durability(ev) => self.on_durability_event(ev, now),
        }
        self.dispatch(now);
        // Heal reconciliation: record the heal → settled-beliefs interval
        // the first time the rejoined minority looks clean.
        self.check_partition_reconverge(now);
        self.metrics.peak_queue_len = self.metrics.peak_queue_len.max(self.queue.len());
    }

    /// Every job submitted and finished. The self-rescheduling fault
    /// events (heartbeats, suspicion timers, fail-slow episodes,
    /// partition and corruption arrivals, scrub ticks) stop here so the
    /// queue can drain: nothing they could do would change an outcome.
    fn drained(&self) -> bool {
        self.jobs.len() == self.apps.iter().map(|a| a.specs.len()).sum::<usize>()
            && self.jobs.iter().all(|j| j.is_finished())
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
        a.jobs.push(self.jobs.len());
        self.cache.note_job_added(&job);
        // A job arriving after a block tombstoned (and after its
        // deadline fired) still gets a bounded wait.
        self.durability_note_submit(&job, now);
        self.jobs.push(job);
    }

    fn on_finish(&mut self, executor: ExecutorId, epoch: u64, now: SimTime) {
        let stale =
            self.ledger.is_dead(executor) || self.exec_state[executor.index()].epoch != epoch;
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
        if stale {
            // Stale completion for a task killed by a failure (or, in
            // detector mode, fenced out by a belief-kill's epoch bump).
            self.metrics.stale_finishes_fenced += 1;
            return;
        }
        let state = &mut self.exec_state[executor.index()];
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
        self.end_remote_read(&running);
        // Verified read: the completed input read is checksum-verified
        // against its source replica. A mismatch means the read *failed*
        // — the task never completes; the corruption surfaces to the
        // NameNode (dropping the bad replica through the change journal)
        // and the attempt dies like a transient fault, charged against
        // the durability retry policy.
        if let (Some(d), Some((block, src))) = (&mut self.durability, running.read_from) {
            if self.namenode.is_replica_corrupt(block, src) {
                self.metrics.corrupt_reads_detected += 1;
                let dropped = d.detect(
                    block,
                    src,
                    now,
                    &mut self.namenode,
                    &mut self.metrics,
                    &mut self.queue,
                );
                let kill = Kill::of(&running, &self.jobs, &self.ledger, &self.exec_state);
                let gate = kill.charge(&mut self.jobs[running.job_idx], d.retry, &mut d.rng, now);
                if dropped {
                    self.refresh_all_preferred();
                    self.schedule_repair(now);
                }
                self.on_attempt_fault(&running, kill, gate, now);
                return;
            }
        }
        if let Some(h) = &mut self.health {
            let node = self.cluster.node_of(executor);
            // Transient-fault coin, drawn for every physical completion
            // (clone losers included) so the "task-faults" stream advances
            // identically regardless of speculation-race outcomes.
            let p = h.fault_probability(node);
            if h.fault_rng.chance(p) {
                self.metrics.task_faults_injected += 1;
                let kill = Kill::of(&running, &self.jobs, &self.ledger, &self.exec_state);
                let job = &mut self.jobs[running.job_idx];
                let gate = kill.charge(job, h.retry, &mut h.fault_rng, now);
                self.on_attempt_fault(&running, kill, gate, now);
                return;
            }
            // A completion that survived the coin is a service-time
            // observation for the peer-relative detector.
            let split = self
                .partition
                .as_ref()
                .is_some_and(|p| p.connectivity.split_active());
            let service_secs = now.saturating_since(running.launched_at).as_secs_f64();
            h.observe_service(
                node,
                service_secs,
                now,
                split,
                &self.node_down,
                &mut self.metrics,
                &mut self.queue,
            );
        }
        let key = (running.job_idx, running.stage, running.task);
        if let TaskState::Done { .. } = self.jobs[key.0].stages[key.1].tasks[key.2].state {
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
            running
                .read_from
                .is_none_or(|(block, src)| !self.namenode.is_replica_corrupt(block, src)),
            "completed task read a corrupted replica"
        );
        let total = self.jobs[key.0].stages[key.1].tasks.len();
        let (runnable_at, job_done) = self.jobs[key.0]
            .mark_done(key.1, key.2, now)
            .unwrap_or_else(|state| lifecycle_bug("finishing", key, state));
        self.cache.mark_job(key.0);
        if let Some(spec) = &mut self.speculation {
            let config = spec.config;
            spec.policies
                .entry((key.0, key.1))
                .or_insert_with(|| SpeculationPolicy::new(config, total))
                .record_completion(now.saturating_since(running.launched_at));
        }
        if let Some(trace) = &mut self.trace {
            let job = &self.jobs[key.0];
            trace.push(TaskRecord {
                app: job.app,
                job: job.id,
                stage: key.1,
                task: key.2,
                node: self.cluster.node_of(executor).index(),
                runnable_at,
                launched_at: running.launched_at,
                finished_at: now,
                local: running.local == Some(true),
            });
        }
        if let Some(job) = job_done {
            let app = &mut self.apps[self.jobs[key.0].app.index()];
            app.metrics.jobs_completed += 1;
            if job.input_locality == 1.0 {
                app.metrics.local_jobs += 1;
            }
            app.metrics.input_locality.push(job.input_locality);
            app.metrics
                .job_completion_secs
                .push(job.completion_time.as_secs_f64());
            app.metrics
                .input_stage_secs
                .push(job.input_stage_time.as_secs_f64());
            self.end_job(key.0);
        }
    }

    /// Job `j` finished or failed: its scheduler state and speculation
    /// policies go, as none of its tasks is offered or speculated again.
    fn end_job(&mut self, j: usize) {
        let job = &self.jobs[j];
        self.apps[job.app.index()].scheduler.on_job_end(job.id);
        if let Some(spec) = &mut self.speculation {
            spec.policies.retain(|&(job, _), _| job != j);
        }
    }

    /// Makes the task record describe `attempt` (locality + launch time)
    /// and marks the job, so the app's locality history follows the
    /// record. No-op when the record already describes it.
    fn rebind_attempt(&mut self, attempt: &RunningTask) {
        let key = (attempt.job_idx, attempt.stage, attempt.task);
        let (j, s, t) = key;
        let record = &mut self.jobs[j].stages[s].tasks[t];
        let TaskState::Running {
            since,
            launched_at,
            local: old_local,
        } = record.state
        else {
            lifecycle_bug("rebinding an attempt of", key, record.state)
        };
        if launched_at == attempt.launched_at && old_local == attempt.local {
            return;
        }
        record.state = TaskState::Running {
            since,
            launched_at: attempt.launched_at,
            local: attempt.local,
        };
        self.cache.mark_job(j);
    }

    /// An in-flight attempt died: carries out `kill`, decided for it by
    /// [`Kill::of`], with attempt-exact accounting. Returns whether the
    /// task re-queued.
    fn apply_kill(&mut self, running: &RunningTask, kill: Kill, now: SimTime) -> bool {
        if running.is_clone {
            self.metrics.clones_lost += 1;
        }
        match kill {
            Kill::RaceLost => return false,
            // The survivor carries on and owns the record from here.
            Kill::Twin(twin) => {
                self.rebind_attempt(&twin);
                return false;
            }
            Kill::Requeue => {}
        }
        // Last attempt: the record describes it (any earlier twin death
        // rebound the record to this attempt), so the rollback is exact.
        let key = (running.job_idx, running.stage, running.task);
        let job = &mut self.jobs[key.0];
        debug_assert!(
            matches!(job.stages[key.1].tasks[key.2].state,
                TaskState::Running { launched_at, .. } if launched_at == running.launched_at),
            "record-bound attempt mismatch at re-queue"
        );
        job.mark_requeued(key.1, key.2, now)
            .unwrap_or_else(|state| lifecycle_bug("re-queueing", key, state));
        if key.1 == 0 {
            // The record's preferred snapshot may predate replica churn
            // that happened while the attempt ran (launched tasks keep
            // their snapshot); the re-queued task chases the current map,
            // like any other unlaunched task.
            job.refresh_task_preferred(key.2, &self.namenode);
        }
        self.cache.mark_job(key.0);
        self.metrics.tasks_requeued += 1;
        true
    }

    /// A transient fault, or a failed verified read, killed the attempt
    /// that was about to complete. Attempt death is handled exactly like
    /// an executor loss (clone losers drain, twins take over the record,
    /// last attempts re-queue); only a re-queue consumes the job's retry
    /// budget, which the faulting layer charged through [`Kill::charge`]
    /// with its own policy and stream: within it, the task is gated
    /// behind `gate`; beyond it, the whole job fails cleanly.
    fn on_attempt_fault(
        &mut self,
        running: &RunningTask,
        kill: Kill,
        gate: Option<SimTime>,
        now: SimTime,
    ) {
        if !self.apply_kill(running, kill, now) {
            return; // a twin survives (or the race was already lost)
        }
        let key = (running.job_idx, running.stage, running.task);
        match gate {
            Some(at) => {
                self.metrics.task_retries += 1;
                self.retry_gates.insert(key, at);
            }
            None => self.fail_job(key.0, now),
        }
    }

    /// A job exhausted its retry budget: every live attempt it still has
    /// is killed (epoch-fenced so in-flight completions are dropped as
    /// stale) and the job leaves the system as failed — its tasks stop
    /// counting as demand and its executors free up immediately.
    fn fail_job(&mut self, j: usize, now: SimTime) {
        let held = self.ledger.held(self.jobs[j].app.index());
        let runs_j = |e: &usize| self.exec_state[*e].running.is_some_and(|r| r.job_idx == j);
        let busy: Vec<usize> = held.iter().filter(runs_j).collect();
        for e in busy.into_iter().map(ExecutorId::new) {
            // Fence the attempt's in-flight Finish, then roll the attempt
            // back exactly: a failed job's task records must hold no
            // launch credit (the auditor re-derives them). Its disruption
            // entries are dropped below.
            self.exec_state[e.index()].epoch += 1;
            self.abandon_attempt(e, now, &mut BTreeSet::new());
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
        self.end_job(j);
    }

    /// Kills one live executor (physically in oracle mode, in the
    /// master's belief in detector mode): the running attempt dies with
    /// attempt-exact rollback, the owner loses the executor, the idle
    /// pool shrinks, and any lease is dropped. Displaced-task keys are
    /// accumulated into `displaced` for disruption tracking.
    fn kill_executor(&mut self, e: ExecutorId, now: SimTime, displaced: &mut BTreeSet<TaskKey>) {
        if !self.ledger.kill(e) {
            return;
        }
        self.exec_state[e.index()].epoch += 1;
        self.abandon_attempt(e, now, displaced);
        if let Some(d) = &mut self.detector {
            d.leases.drop_lease(e);
        }
    }

    /// Takes the attempt running on executor `e` off it (the executor
    /// idles from `now`) and rolls it back attempt-exactly, recording a
    /// re-queued task in `displaced`. Any ghost-dispatch record of `e` is
    /// dropped, as the rollback settles it. Returns whether an attempt
    /// was running.
    fn abandon_attempt(
        &mut self,
        e: ExecutorId,
        now: SimTime,
        displaced: &mut BTreeSet<TaskKey>,
    ) -> bool {
        self.partition_forget_ghost(e);
        let st = &mut self.exec_state[e.index()];
        let Some(r) = st.running.take() else {
            return false;
        };
        st.idle_since = now;
        self.end_remote_read(&r);
        let kill = Kill::of(&r, &self.jobs, &self.ledger, &self.exec_state);
        if self.apply_kill(&r, kill, now) {
            displaced.insert((r.job_idx, r.stage, r.task));
        }
        true
    }

    /// Kills every live executor on `node`, as one disruption.
    fn kill_executors_on(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        let executors: Vec<ExecutorId> = self.cluster.executors_on(node).to_vec();
        self.disrupt(now, |d, displaced| {
            for e in executors {
                d.kill_executor(e, now, displaced);
            }
        });
    }

    /// Runs `kill`, which rolls attempts back and collects the tasks it
    /// re-queues, and tracks those tasks, if any, as one open disruption
    /// for the recovery-time-to-stable-locality metric.
    fn disrupt(&mut self, now: SimTime, kill: impl FnOnce(&mut Self, &mut BTreeSet<TaskKey>)) {
        let mut displaced = BTreeSet::new();
        kill(self, &mut displaced);
        if !displaced.is_empty() {
            self.open_disruptions.push((now, displaced));
        }
    }

    /// The one node-down transition: `node` goes down with `kind`,
    /// whether up until now or held down by an executor-only fault that a
    /// scripted failure escalates. Only what `kind` newly silences falls.
    /// A falling DataNode's replicas vanish (HDFS re-replicates
    /// under-replicated blocks elsewhere) and unlaunched input tasks
    /// re-resolve their preferred nodes against the new replica map;
    /// falling executors are lost until the node recovers (scripted
    /// failures never do) and the tasks running on them are re-queued.
    fn on_node_fault(&mut self, node: custody_dfs::NodeId, kind: FaultKind, now: SimTime) {
        let was = self.node_down[node.index()].replace(kind);
        let falls = |channel| kind.silences(channel) && !was.is_some_and(|w| w.silences(channel));
        let executors_fall = falls(HbChannel::Executor);
        let datanode_falls = falls(HbChannel::DataNode);
        match kind {
            FaultKind::Machine => self.metrics.nodes_failed += 1,
            FaultKind::ExecutorsOnly => self.metrics.executor_faults += 1,
        }
        if let Some(d) = &mut self.detector {
            // The master learns nothing here: only heartbeat silence
            // (suspicion, lease expiry) changes its belief.
            d.phys_fail(node, now, was, kind);
            if executors_fall {
                self.fence_executors_on(node);
            }
            return;
        }
        if datanode_falls {
            self.metrics.blocks_lost += self.namenode.fail_node(node).len();
            // Crash repair goes through the unified scheduler: instant in
            // bare-oracle runs, paced (and priority-ordered) whenever a
            // pacing layer is active.
            self.schedule_repair(now);
        }
        if executors_fall {
            self.kill_executors_on(node, now);
        }
        if datanode_falls {
            self.refresh_all_preferred();
        }
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
    /// machine goes down for good. If a chaos fault already holds the
    /// node down, the script makes that outage permanent — escalating an
    /// executor-only fault to a full machine loss (replicas drop now).
    fn on_scripted_fail(&mut self, node: custody_dfs::NodeId, now: SimTime) {
        if self.node_down[node.index()] != Some(FaultKind::Machine) {
            self.on_node_fault(node, FaultKind::Machine, now);
        }
        self.perma_down[node.index()] = true;
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
        let next_gate = self.next_retry_gate(now);
        let gates = self.retry_gates.len();
        if let Some(retry) = self.offer_pass(now, next_gate) {
            self.schedule_wake(now + retry);
        }
        // Keep a wake armed for the earliest future retry gate: an
        // earlier wake may fire (and be consumed) before the gate opens,
        // and the gated task would otherwise never be re-offered. The
        // offer pass only drops gates, at launch; if it dropped one, it
        // may have been the earliest.
        let next_gate = if self.retry_gates.len() == gates {
            next_gate
        } else {
            self.next_retry_gate(now)
        };
        if let Some(gate) = next_gate {
            self.schedule_wake(gate);
        }
    }

    /// The earliest retry gate still closed at `now`.
    fn next_retry_gate(&self, now: SimTime) -> Option<SimTime> {
        self.retry_gates
            .values()
            .copied()
            .filter(|&g| g > now)
            .min()
    }

    /// Step 1: every idle executor returns to the pool so the next
    /// allocation round re-places it with full, current information —
    /// the paper's proactive-release message (§V): "Custody can keep
    /// track of all the idle executors and dynamically allocate executors
    /// once new jobs are submitted". Static allocators re-grant released
    /// executors to their fixed owners, so their semantics are unchanged.
    fn release_idle_executors(&mut self) {
        let mut idle = std::mem::take(&mut self.idle_scratch);
        for i in 0..self.apps.len() {
            self.idle_held(i, &mut idle);
            self.ledger.release_idle(i, &idle);
            if let Some(d) = &mut self.detector {
                for &e in &idle {
                    d.leases.drop_lease(e); // released before expiry
                }
            }
        }
        idle.clear();
        self.idle_scratch = idle;
    }

    /// Step 2: one allocation round through the cluster manager.
    ///
    /// The round reads the driver's kept view: the demand cache refreshes
    /// the dirtied jobs' entries into its apps half, and the idle half is
    /// filled only when some app wants an executor, then emptied again.
    ///
    /// **Round reuse.** The paper re-runs the allocator only when jobs
    /// arrive or finish (§V); the driver gets the same effect exactly by
    /// reusing the last round's decision when nothing it read has moved.
    /// Every allocator but `DynamicOffer` is a function of the view and the
    /// installed health costs (no allocator draws in `allocate`, and
    /// `DynamicOffer` advances its cursor only on grants). A round's inputs
    /// are the kept round's when no job was added or marked (the demand
    /// generation), the executor ledger's generation did not move (no pool
    /// change but the release step's), and the executors released since
    /// are exactly the kept grants, all back in the pool. Then:
    ///
    /// * **Demand-free** — the early return would fire again: skipped,
    ///   uncounted, as one `rounds_skipped`.
    /// * **Zero grants** — the allocator would see the view it granted
    ///   nothing from: skipped, counted as a round and as skipped.
    /// * **Grants** — replayed through the same grant loop (leases,
    ///   `held`, round counter), skipping only the idle list and
    ///   `allocate`, when the health generation did not move either and
    ///   the allocator is `replayable`.
    ///
    /// With the auditor on, every reuse is re-derived first
    /// (`audit_reused_round`).
    fn allocation_round(&mut self, now: SimTime) {
        if self.ledger.pool().is_empty() {
            self.kept_round.decision = Decision::None;
            return;
        }
        // The view's held counts are written here, for this round only.
        for (i, app) in self.view.apps.iter_mut().enumerate() {
            app.held = self.ledger.held(i).len();
        }
        let started = std::time::Instant::now();
        if self.inputs_unchanged() {
            let replayable = self.kept_round.health_generation == self.health_generation()
                && self.allocator.replayable();
            match &mut self.kept_round.decision {
                Decision::DemandFree => {
                    if self.audit_enabled {
                        self.audit_reused_round(None);
                    }
                    self.metrics.rounds_skipped += 1;
                    return;
                }
                Decision::Grants(grants) if grants.is_empty() => {
                    if self.audit_enabled {
                        self.audit_reused_round(Some(&[]));
                    }
                    self.metrics.allocation_rounds += 1;
                    self.metrics.rounds_skipped += 1;
                    return;
                }
                Decision::Grants(grants) if replayable => {
                    let grants = std::mem::take(grants);
                    if self.audit_enabled {
                        self.audit_reused_round(Some(&grants));
                    }
                    self.metrics.allocation_rounds += 1;
                    self.shortcuts.rounds_replayed += 1;
                    self.alloc_wall += started.elapsed();
                    self.grant(&grants, now);
                    self.kept_round.decision = Decision::Grants(grants);
                    return;
                }
                Decision::Grants(_) | Decision::None => {}
            }
        }
        self.refresh_demand();
        // Demand first: most dispatches find no app wanting an executor,
        // and the idle list is the one part of the view that costs
        // O(pool), so it is built only for a round that can grant.
        if no_demand(&self.view.apps) {
            self.alloc_wall += started.elapsed();
            // Grants nothing, and ends the round like any other.
            self.ledger.grant(&[]);
            self.keep_round(Decision::DemandFree, Vec::new(), Vec::new());
            return;
        }
        self.view.idle = self.idle_executors();
        self.metrics.allocation_rounds += 1;
        self.install_health_costs();
        let assignments = self.allocator.allocate(&self.view, &mut self.alloc_rng);
        self.alloc_wall += started.elapsed();
        if cfg!(debug_assertions) {
            custody_core::allocator::validate_assignments(&self.view, &assignments);
        }
        if self.audit_enabled {
            let costs = self.health_costs.as_ref().map(|(_, c)| &c[..]);
            self.audit_kept_round(&self.view, &assignments, costs);
        }
        // The view's idle half is never kept stale between rounds.
        let idle = std::mem::take(&mut self.view.idle);
        let (idle, held) = if self.audit_enabled {
            (idle, self.view.apps.iter().map(|a| a.held).collect())
        } else {
            (Vec::new(), Vec::new())
        };
        self.grant(&assignments, now);
        self.keep_round(Decision::Grants(assignments), idle, held);
    }

    /// Whether this round's inputs are exactly the kept round's (see
    /// [`allocation_round`](Self::allocation_round)). Every kept grant is
    /// back in the pool and nothing else was released, so the released
    /// set is the grants; `held` is then what that round saw too (the
    /// auditor checks it).
    fn inputs_unchanged(&self) -> bool {
        let kept = &self.kept_round;
        let grants: &[Assignment] = match &kept.decision {
            Decision::Grants(grants) => grants,
            Decision::None | Decision::DemandFree => &[],
        };
        kept.demand_generation == self.cache.generation()
            && self.ledger.unchanged_since_round(grants)
    }

    /// Records this round's decision with the stamps it was decided on.
    fn keep_round(&mut self, decision: Decision, idle: Vec<ExecutorInfo>, held: Vec<usize>) {
        self.kept_round = KeptRound {
            decision,
            demand_generation: self.cache.generation(),
            health_generation: self.health_generation(),
            idle,
            held,
        };
    }

    /// Applies one round's grants in the ledger, with a lease per grant.
    fn grant(&mut self, grants: &[Assignment], now: SimTime) {
        self.ledger.grant(grants);
        let Some(d) = &mut self.detector else { return };
        // Every grant is a time-bounded lease; the host node's heartbeats
        // renew it, silence revokes it.
        let expiry = now + SimDuration::from_secs_f64(d.cp.lease_duration_secs);
        for a in grants {
            d.leases.grant(a.executor, expiry);
        }
        if d.lease_deadline_at.is_none() && !grants.is_empty() {
            d.lease_deadline_at = Some(expiry);
            self.queue
                .schedule(expiry, Event::Detector(DetectorEvent::LeaseExpiry));
        }
    }

    /// The health layer's generation (0 without the layer).
    fn health_generation(&self) -> u64 {
        self.health.as_ref().map_or(0, |h| h.generation)
    }

    /// Installs the demotion cost table in the allocator when demotion is
    /// on and the health generation moved since the installed one: the
    /// allocator keeps a table until the next install.
    fn install_health_costs(&mut self) {
        let generation = self.health_generation();
        if self
            .health_costs
            .as_ref()
            .is_some_and(|(g, _)| *g == generation)
        {
            return;
        }
        if let Some(costs) = self.demotion_costs() {
            self.allocator.set_node_health_costs(&costs);
            self.health_costs = Some((generation, costs));
        }
    }

    /// The per-node health costs the allocator prices placements with
    /// when demotion is on: suspect/probation nodes cost more — locality
    /// on them earns less credit and the filler visits them last —
    /// instead of vanishing. Allocators that ignore the hint (the
    /// data-unaware baselines) are free to.
    fn demotion_costs(&self) -> Option<Vec<(NodeId, HealthCost)>> {
        self.health
            .as_ref()
            .filter(|h| h.cfg.detection && h.cfg.demotion)
            .map(HealthLayer::health_costs)
    }

    /// Recomputes, into the kept view, the demand of every job dirtied
    /// since the last refresh.
    fn refresh_demand(&mut self) {
        let started = std::time::Instant::now();
        self.cache.refresh(&self.jobs, &mut self.view.apps);
        self.demand_wall += started.elapsed();
    }

    /// The idle half of the allocator's view: the pooled executors it may
    /// grant, in executor-id order.
    fn idle_executors(&self) -> Vec<ExecutorInfo> {
        let pool = self.ledger.pool();
        let mut idle = Vec::with_capacity(pool.len());
        let pooled = pool.iter().map(ExecutorId::new).map(|id| ExecutorInfo {
            id,
            node: self.cluster.node_of(id),
        });
        // Quarantined nodes' executors stay pooled but invisible: the
        // allocator can only grant what the view offers, so nothing is
        // ever placed on a node the health detector has excluded. Only a
        // detector with detection on excludes anything, so every other
        // run copies the pool without a per-executor health lookup.
        if self.health.as_ref().is_some_and(|h| h.cfg.detection) {
            idle.extend(pooled.filter(|info| self.node_schedulable(info.node)));
        } else {
            idle.extend(pooled);
        }
        idle
    }

    /// Collects app `i`'s held executors that run nothing into `out`.
    fn idle_held(&self, i: usize, out: &mut Vec<ExecutorId>) {
        out.clear();
        out.extend(
            self.ledger
                .held(i)
                .iter()
                .map(ExecutorId::new)
                .filter(|e| self.exec_state[e.index()].running.is_none()),
        );
    }

    /// Step 3: offer idle held executors to their applications' task
    /// schedulers. Returns the earliest decline retry.
    ///
    /// An offer its app's decline memo answers is not made: the node was
    /// declined under the same runnable list (no job of the app added or
    /// marked, no block parked or unparked) and its deadline has not
    /// passed, nor has `next_gate`, the earliest retry gate still closed
    /// when it was declined. By the [`TaskScheduler::on_offer`] decline
    /// contract the scheduler would decline again with the same deadline
    /// and stay unchanged, so the `Decline` arm runs on the memoized
    /// deadline: wakes and speculative clones are exactly those of the
    /// offer. With the auditor on, every memoized offer is re-made on a
    /// copy of the scheduler (`audit_memo_hit`). The runnable list is
    /// built lazily, on the first offer the memo does not answer.
    fn offer_pass(&mut self, now: SimTime, next_gate: Option<SimTime>) -> Option<SimDuration> {
        let mut min_retry: Option<SimDuration> = None;
        let mut idle = std::mem::take(&mut self.idle_scratch);
        loop {
            let mut launched_this_pass = 0;
            for i in 0..self.apps.len() {
                self.idle_held(i, &mut idle);
                // One runnable list per app per pass: only a launch
                // changes it. A decline leaves every task as it was, and a
                // speculative clone copies a task that is already running.
                let mut runnable = std::mem::take(&mut self.runnable_scratch);
                let mut collected = false;
                for &e in &idle {
                    let node = self.cluster.node_of(e);
                    let generation = self.runnable_generation(i);
                    let placement = match self.apps[i].declines.hit(generation, node, now) {
                        Some(deadline) => {
                            if self.audit_enabled {
                                self.audit_memo_hit(i, node, deadline, now);
                            }
                            self.shortcuts.offers_memoized += 1;
                            Placement::Decline {
                                retry_after: deadline.saturating_since(now),
                            }
                        }
                        None => {
                            if !collected {
                                self.runnable_tasks(i, now, &mut runnable);
                                collected = true;
                            }
                            let placement = self.apps[i].scheduler.on_offer(node, &runnable, now);
                            if let Placement::Decline { retry_after } = placement {
                                let deadline = now + retry_after;
                                let until = next_gate.map_or(deadline, |g| g.min(deadline));
                                let declined = Declined { deadline, until };
                                self.apps[i].declines.record(generation, node, declined);
                            }
                            placement
                        }
                    };
                    match placement {
                        // Nothing runnable: the executor may still clone
                        // a straggler; once none qualifies, the app's
                        // other idle executors get nothing either.
                        Placement::NoWork => {
                            if self.try_speculate(i, e, now) {
                                launched_this_pass += 1;
                            } else {
                                break;
                            }
                        }
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
                            collected = false;
                        }
                    }
                }
                self.runnable_scratch = runnable;
            }
            if launched_this_pass == 0 {
                idle.clear();
                self.idle_scratch = idle;
                return min_retry;
            }
        }
    }

    /// App `i`'s runnable-list generation: its runnable list can change
    /// only when one of its jobs is added or marked (the demand cache's
    /// app generation), when the durability layer parks or unparks a
    /// block (every app's list may hide or show a task), or when a retry
    /// gate opens (which the memo bounds by time instead).
    fn runnable_generation(&self, i: usize) -> (u64, u64) {
        let parked = self.durability.as_ref().map_or(0, |d| d.parked_generation);
        (self.cache.app_generation(i), parked)
    }

    /// Collects the runnable, unlaunched tasks of app `i` into `out`, in
    /// (job, stage, task) order, so each task set is one contiguous run
    /// (the [`custody_scheduler::TaskScheduler::on_offer`] contract).
    /// Tasks re-queued by a transient fault stay invisible until their
    /// backoff gate passes (dispatch keeps a wake armed for the earliest
    /// gate, so a gated task can never starve). Takes a caller-owned
    /// buffer so the offer pass reuses one allocation across offers
    /// instead of building a fresh Vec per idle executor.
    fn runnable_tasks(&self, i: usize, now: SimTime, out: &mut Vec<RunnableTask>) {
        out.clear();
        let gated = !self.retry_gates.is_empty();
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
                    let TaskState::Runnable { since } = task.state else {
                        continue;
                    };
                    if gated && self.retry_gates.get(&(j, s, t)).is_some_and(|&g| now < g) {
                        continue; // backing off after a transient fault
                    }
                    if s == 0 {
                        // A task whose input block has no intact replica
                        // parks: it stays runnable but is never offered,
                        // until repair/reinstatement lifts the tombstone
                        // or the unavailability deadline fails the job.
                        if let Some(d) = &self.durability {
                            if d.unavailable.contains(&job.input_blocks[t]) {
                                continue;
                            }
                        }
                    }
                    out.push(RunnableTask {
                        job: job.id,
                        stage: s,
                        task_index: t,
                        preferred_nodes: task.preferred.clone(),
                        runnable_since: since,
                    });
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
        let Some(spec) = &mut self.speculation else {
            return false;
        };
        // Every straggler without a clone, in (job, stage, task) order: an
        // uncloned original attempt on one of the app's executors. It is
        // its task's record-bound attempt, so the task runs since its launch.
        let held = self.ledger.held(i);
        let mut candidates: Vec<(TaskKey, ExecutorId)> = held
            .iter()
            .filter_map(|e| Some((self.exec_state[e].running?, ExecutorId::new(e))))
            .filter(|(r, _)| !r.is_clone && !r.cloned)
            .filter(|(r, _)| {
                let policy = spec.policies.get(&(r.job_idx, r.stage));
                policy.is_some_and(|p| p.should_speculate(r.launched_at, now))
            })
            .map(|(r, host)| ((r.job_idx, r.stage, r.task), host))
            .collect();
        candidates.sort_unstable_by_key(|&(key, _)| key);
        // Price each candidate by its original attempt's host node.
        let penalties: Vec<u32> = candidates
            .iter()
            .map(|&(_, host)| match &self.health {
                Some(h) if h.cfg.detection => h
                    .peer_ratio(self.cluster.node_of(host).index(), h.cfg.min_samples)
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
            })
            .collect();
        let Some(choice) = custody_scheduler::speculation::pick_clone_source(&penalties) else {
            return false; // no straggler qualifies
        };
        let ((j, st, t), host) = candidates[choice];
        if let Some(original) = &mut self.exec_state[host.index()].running {
            original.cloned = true;
        }
        self.metrics.tasks_speculated += 1;
        // Launch the clone on `e` without touching the task record: the
        // first attempt to finish wins (`on_finish` ignores the loser).
        // Clones pay the host node's fail-slow penalty too, and are never
        // placed on quarantined nodes (asserted inside).
        self.note_health_launch(self.cluster.node_of(e));
        self.start_attempt(e, (j, st, t), true, now);
        true
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
        let key = (job_idx, stage, task);
        let runnable_since = self.jobs[job_idx]
            .mark_launched(stage, task, now, is_input.then_some(actual_local))
            .unwrap_or_else(|state| lifecycle_bug("launching", key, state));
        let queueing = now.saturating_since(runnable_since);
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

        self.start_attempt(executor, (job_idx, stage, task), false, now);
        if !self.open_disruptions.is_empty() {
            self.note_relaunch((job_idx, stage, task), now);
        }
    }

    /// Starts an attempt of task `key` on executor `e`: prices its read
    /// or shuffle plus compute × noise and makes it the executor's running
    /// attempt. Its `Finish` is scheduled unless the launch is doomed
    /// (detector mode: the executor is believed alive but physically
    /// down; lease expiry or a post-recovery heartbeat's ghost check
    /// cleans it up) or the dispatch is lost crossing a partition cut
    /// (reconnect reconciliation rolls it back).
    fn start_attempt(&mut self, e: ExecutorId, key: TaskKey, is_clone: bool, now: SimTime) {
        let (j, stage, task) = key;
        let node = self.cluster.node_of(e);
        let network = self.cluster.network().clone();
        let stage_ref = &self.jobs[j].stages[stage];
        let is_input = stage == 0;
        let local = is_input && stage_ref.tasks[task].preferred.contains(&node);
        let (io_time, remote_input, read_from) = if is_input {
            let block = self.jobs[j].input_blocks[task];
            let bytes = self.namenode.block(block).size_bytes;
            let locality = self.classify_locality(node, &stage_ref.tasks[task].preferred);
            (
                network.read_time_at(bytes, locality, self.remote_reads_in_flight),
                locality == custody_cluster::DataLocality::Remote,
                self.read_source(block, node, local).map(|src| (block, src)),
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
            Some(h) => h.scaled(node, local, io_time, compute),
            None => (io_time, compute),
        };
        if remote_input {
            self.remote_reads_in_flight += 1;
        }
        let epoch = self.exec_state[e.index()].epoch;
        self.exec_state[e.index()].running = Some(RunningTask {
            job_idx: j,
            stage,
            task,
            remote_input,
            local: is_input.then_some(local),
            launched_at: now,
            is_clone,
            cloned: false,
            read_from,
            launch_epoch: epoch,
        });
        if self.node_down[node.index()].is_none() && self.partition_dispatch_arrives(e, node) {
            self.queue.schedule(
                now + io_time + compute,
                Event::Finish { executor: e, epoch },
            );
        }
    }

    /// An attempt left its executor: release its remote read, if any.
    fn end_remote_read(&mut self, attempt: &RunningTask) {
        if attempt.remote_input {
            self.remote_reads_in_flight = self
                .remote_reads_in_flight
                .checked_sub(1)
                .expect("remote-read counter underflow"); // lint: allow(panic) — the counter was incremented when the remote read started
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
        // Partition and durability accounting close over the whole run:
        // their per-event audits hold at its end, audited or not.
        self.audit_partition();
        self.audit_durability();
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
        // Every job ended, and per-job state ends with its job.
        assert!(
            self.speculation
                .as_ref()
                .is_none_or(|s| s.policies.is_empty()),
            "speculation policies outlive their jobs"
        );
        let mut m = self.metrics;
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
        // Reconvergence is measured at most once per episode.
        assert!(
            m.partition_reconverge_secs.count() <= m.partition_episodes,
            "{} reconvergences measured for {} episodes",
            m.partition_reconverge_secs.count(),
            m.partition_episodes,
        );
        // Durability ledger at end of run: split the damage into
        // at-risk (exactly one intact copy left) and permanently lost
        // (no intact copy at all, detected or not).
        if self.durability.is_some() {
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

/// Whether no application wants an executor: a round over these apps
/// grants nothing, whatever the idle pool holds. The one definition of a
/// demand-free round, for running it and for auditing its skip.
fn no_demand(apps: &[AppState]) -> bool {
    apps.iter().all(|a| !a.wants_executor())
}

/// Draws the next arrival of a Poisson fault process — an exponential
/// gap of mean `mean_secs` — returning its instant unless it lands past
/// `horizon_secs`. A first arrival (`after = None`) counts the gap from
/// t = 0 and tests the raw gap against the horizon; a re-arm
/// (`after = Some(now)`) tests the arrival instant, rounded to whole µs.
fn next_arrival(
    rng: &mut SimRng,
    mean_secs: f64,
    horizon_secs: f64,
    after: Option<SimTime>,
) -> Option<SimTime> {
    let gap = Exponential::with_mean(mean_secs).sample(rng);
    let at = after.unwrap_or(SimTime::ZERO) + SimDuration::from_secs_f64(gap);
    let due = match after {
        None => gap,
        Some(_) => at.as_secs_f64(),
    };
    (due <= horizon_secs).then_some(at)
}

/// Schedules `event` at the [`next_arrival`] of a fault process. Chaos
/// faults, partition episodes and corruption arrivals arm their first
/// and later arrivals through this; fail-slow onsets and relapses do
/// too.
fn schedule_arrival(
    queue: &mut EventQueue<Event>,
    rng: &mut SimRng,
    mean_secs: f64,
    horizon_secs: f64,
    after: Option<SimTime>,
    event: Event,
) {
    if let Some(at) = next_arrival(rng, mean_secs, horizon_secs, after) {
        queue.schedule(at, event);
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

    /// `Simulation::run` refuses a config `SimConfig::validate` rejects
    /// (the config tests cover every rejection message).
    #[test]
    #[should_panic(expected = "invalid simulation config: failures: failure targets unknown")]
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

    /// Every dispatch short-cut fires on an audited composed-fault run
    /// (lossy heartbeats, fail-slow nodes with detection and demotion,
    /// latent corruption): rounds are skipped, rounds replay their kept
    /// grants and offers are answered from decline memos, each re-derived
    /// by the auditor.
    #[test]
    fn composed_faults_replay_rounds_and_memoize_declines() {
        use crate::config::{ControlPlaneConfig, CorruptionConfig, FailSlowConfig};
        let cfg = small(AllocatorKind::Custody, 40)
            .with_control_plane(ControlPlaneConfig::default())
            .with_failslow(FailSlowConfig::default().with_sick_fraction(0.3))
            .with_corruption(CorruptionConfig::default().with_latent_fraction(0.1))
            .with_audit(true);
        let mut driver = Driver::new(&cfg);
        while driver.step() {}
        let Shortcuts {
            rounds_replayed,
            offers_memoized,
        } = driver.shortcuts;
        assert!(rounds_replayed > 0, "no round replayed its grants");
        assert!(offers_memoized > 0, "no offer was answered from a memo");
        let out = driver.finish().0.cluster_metrics;
        assert_eq!(out.jobs_completed + out.jobs_failed, 12);
        assert!(out.rounds_skipped > 0, "no round was skipped");
        assert!(
            out.allocation_rounds > rounds_replayed,
            "replays are counted among the rounds"
        );
    }

    /// Parking hides a task from every app's runnable list without
    /// marking its job, so it must invalidate decline memos. With single
    /// replicas and fast scrubbing, scrub detections tombstone blocks whose
    /// tasks some app's memo was recorded with; the seeds are ones where a
    /// stale memo would answer an offer the scheduler no longer declines
    /// the same way, which the auditor's memo check reports.
    #[test]
    fn parked_blocks_invalidate_decline_memos() {
        use crate::config::CorruptionConfig;
        let shared = DatasetMode::SharedPool {
            pool_size: 2,
            skew: 1.0,
        };
        for (seed, mode, latent, mean_gap) in [
            (12, DatasetMode::FreshPerJob, 0.3, 2.0),
            (3, shared, 0.6, 5.0),
        ] {
            let mut cc = CorruptionConfig::default()
                .with_latent_fraction(latent)
                .with_mean_time_between_corruptions(mean_gap)
                .with_scrub_interval(1.0);
            cc.scrub_blocks_per_tick = 2;
            cc.retry_budget = 64;
            let mut cfg = small(AllocatorKind::Custody, seed)
                .with_corruption(cc)
                .with_audit(true);
            cfg.cluster = cfg.cluster.with_replication(1);
            cfg.campaign = cfg.campaign.with_dataset_mode(mode);
            let mut driver = Driver::new(&cfg);
            while driver.step() {}
            assert!(driver.shortcuts.offers_memoized > 0, "seed {seed}");
            let out = driver.finish().0.cluster_metrics;
            assert!(out.blocks_unavailable > 0, "seed {seed}: nothing parked");
            assert_eq!(out.jobs_completed + out.jobs_failed, 12, "seed {seed}");
        }
    }

    /// A node entering probation becomes schedulable again, and with
    /// demotion off no cost changes with it: only the health generation
    /// tells a replayed round that its idle list grew. Brutal slowdowns on
    /// a small cluster quarantine nodes and start probations while rounds
    /// replay; the auditor compares each replay's idle list with the kept
    /// round's.
    #[test]
    fn probation_start_refuses_a_replay_without_demotion() {
        use crate::config::FailSlowConfig;
        let mut fs = FailSlowConfig::default()
            .with_sick_fraction(0.3)
            .with_transient_fault_prob(0.0)
            .with_demotion(false);
        fs.mean_onset_secs = 2.0;
        fs.cpu_factor = 12.0;
        fs.disk_factor = 12.0;
        fs.nic_factor = 12.0;
        fs.min_samples = 3;
        fs.probation_delay_secs = 2.0;
        let mut replayed = 0;
        for seed in [2, 5, 6] {
            let mut cfg = small(AllocatorKind::StaticSpread, seed)
                .with_failslow(fs)
                .with_audit(true);
            cfg.cluster.num_nodes = 6;
            let mut driver = Driver::new(&cfg);
            while driver.step() {}
            replayed += driver.shortcuts.rounds_replayed;
            let out = driver.finish().0.cluster_metrics;
            assert!(
                out.nodes_quarantined > 0,
                "seed {seed}: nothing quarantined"
            );
            assert_eq!(out.jobs_completed, 12, "seed {seed}");
        }
        assert!(replayed > 0, "no round replayed its grants");
    }

    /// A fail-slow run with detection, stepped until `ready` holds.
    fn failslow_driver_until(ready: fn(&Driver) -> bool) -> Driver {
        use crate::config::FailSlowConfig;
        let cfg = small(AllocatorKind::StaticSpread, 3)
            .with_failslow(FailSlowConfig::default().with_sick_fraction(0.3));
        let mut driver = Driver::new(&cfg);
        while !ready(&driver) {
            assert!(driver.step(), "the run ended first");
        }
        driver
    }

    /// A health change that moves no other stamp, as a speculative clone
    /// probing a probation node below its cap does, leaves the allocator's
    /// view alone: a zero-grant round is still skipped, as the pinned
    /// round counts require. Only a replay reads the health generation.
    #[test]
    fn zero_grant_skip_ignores_the_health_generation() {
        let mut driver = failslow_driver_until(|d| {
            d.kept_round.decision == Decision::Grants(Vec::new()) && d.inputs_unchanged()
        });
        let m = &driver.metrics;
        let counts = (m.allocation_rounds + 1, m.rounds_skipped + 1);
        if let Some(h) = &mut driver.health {
            h.generation += 1;
        }
        driver.allocation_round(driver.queue.now());
        let m = &driver.metrics;
        assert_eq!((m.allocation_rounds, m.rounds_skipped), counts);
    }

    /// A probe that fills a probation node's quota hides the node's pooled
    /// executors from the allocator. When the probe is a speculative clone
    /// nothing is released or marked, so the probe must move the pool
    /// stamp itself. The kept round is forged to a zero-grant decision
    /// over the current view, which the next round would otherwise skip.
    #[test]
    fn probe_cap_refuses_a_zero_grant_skip() {
        use custody_cluster::HealthState;
        let mut driver = failslow_driver_until(|d| !d.idle_executors().is_empty());
        let idle = driver.idle_executors();
        let node = idle[0].node;
        let held = (0..driver.apps.len()).map(|i| driver.ledger.held(i).len());
        let held = held.collect();
        driver.refresh_demand();
        driver.ledger.grant(&[]);
        driver.keep_round(Decision::Grants(Vec::new()), idle, held);
        assert!(driver.inputs_unchanged());
        if let Some(h) = &mut driver.health {
            let b = &mut h.belief[node.index()];
            b.state = HealthState::Probation;
            b.probes_started = h.cfg.probation_probes - 1;
        }
        let skipped = driver.metrics.rounds_skipped;
        driver.note_health_launch(node);
        driver.allocation_round(driver.queue.now());
        assert_eq!(driver.metrics.rounds_skipped, skipped, "round skipped");
    }

    /// When a twin of another locality takes over a running input task's
    /// record, the rebind is all the kill changes about the job: no task
    /// re-queues, so only the rebind's own mark keeps the job's locality
    /// credit and demand fresh. Aggressive speculation on a small cluster
    /// runs a clone beside its original; an executor-only fault on the
    /// original's node, running nothing else of the job, kills the
    /// original, and the audit must find the job fresh.
    #[test]
    fn twin_of_another_locality_takes_over_the_record() {
        use custody_scheduler::speculation::SpeculationConfig;
        // An original input attempt with a live clone of another
        // locality on another node, its node running nothing else of the
        // job: that node and the clone.
        fn split_twins(d: &Driver) -> Option<(custody_dfs::NodeId, RunningTask)> {
            d.exec_state.iter().enumerate().find_map(|(e, st)| {
                let original = st.running.filter(|r| r.stage == 0 && r.cloned)?;
                let key = (original.job_idx, original.stage, original.task);
                let node = d.cluster.node_of(ExecutorId::new(e));
                let clone = d.exec_state.iter().enumerate().find_map(|(c, other)| {
                    let r = other.running.filter(|r| r.is_clone)?;
                    let elsewhere = d.cluster.node_of(ExecutorId::new(c)) != node;
                    ((r.job_idx, r.stage, r.task) == key && elsewhere).then_some(r)
                })?;
                let alone = d.cluster.executors_on(node).iter().all(|o| {
                    o.index() == e
                        || d.exec_state[o.index()]
                            .running
                            .is_none_or(|r| r.job_idx != original.job_idx)
                });
                (clone.local != original.local && alone).then_some((node, clone))
            })
        }
        for seed in 25..45 {
            let mut cfg =
                small(AllocatorKind::StaticSpread, seed).with_speculation(SpeculationConfig {
                    quantile: 0.25,
                    multiplier: 1.0,
                });
            cfg.cluster.num_nodes = 4;
            let mut driver = Driver::new(&cfg);
            while driver.step() {
                let Some((node, clone)) = split_twins(&driver) else {
                    continue;
                };
                driver.refresh_demand();
                driver.on_node_fault(node, FaultKind::ExecutorsOnly, driver.queue.now());
                let record = driver.jobs[clone.job_idx].stages[0].tasks[clone.task].state;
                assert!(
                    matches!(record, TaskState::Running { local, .. } if local == clone.local),
                    "the clone did not take over the record"
                );
                driver.audit();
                return;
            }
        }
        panic!("no clone of another locality ran beside its original");
    }

    /// A driver a few events into a run, so jobs, grants and launches
    /// exist, with every job's demand entry fresh in the kept view.
    fn pumped_driver() -> Driver {
        let mut driver = Driver::new(&small(AllocatorKind::Custody, 39));
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
        driver.refresh_demand();
        driver
    }

    /// One case per corruption of the kept view, the way a buggy update
    /// or rollback would leave it; the auditor must name each.
    macro_rules! auditor_catches {
        ($($name:ident: $expected:literal => $corrupt:expr;)+) => {$(
            #[test]
            #[should_panic(expected = $expected)]
            fn $name() {
                let mut driver = pumped_driver();
                let corrupt: fn(&mut Driver) = $corrupt;
                corrupt(&mut driver);
                driver.audit();
            }
        )+};
    }

    auditor_catches! {
        auditor_catches_corrupted_accounting: "local_tasks drifted" =>
            |d| d.view.apps[0].local_tasks += 1;
        auditor_catches_unmarked_locality_change: "stale locality credit" =>
            |d| {
                // A running input task turns local or remote, on its
                // record and its attempt alike, without its job marked.
                let st = d.exec_state.iter_mut().find(|st| {
                    st.running.is_some_and(|r| r.stage == 0)
                });
                let r = st.and_then(|st| st.running.as_mut()).expect("some input task runs");
                r.local = r.local.map(|local| !local);
                let record = &mut d.jobs[r.job_idx].stages[0].tasks[r.task].state;
                if let TaskState::Running { local, .. } = record {
                    *local = r.local;
                }
            };
        auditor_catches_corrupted_held_count: "but the executor disagrees" =>
            |d| {
                // An executor in an app's held set whose owner says another.
                let e = d.exec_state.iter().position(|st| st.running.is_some());
                let e = ExecutorId::new(e.expect("some executor is busy"));
                let from = d.ledger.owner(e).expect("a busy executor is held").index();
                d.ledger.corrupt_owner(e, Some(AppId::new((from + 1) % d.apps.len())));
            };
        auditor_catches_corrupted_pending_job: "stale demand cache" =>
            |d| {
                let app = d.view.apps.iter_mut().find(|a| !a.pending_jobs.is_empty());
                app.expect("some app has pending demand").pending_jobs[0].pending_tasks += 1;
            };
        auditor_catches_attempt_on_another_apps_executor: "without being held by it" =>
            |d| {
                // Moved through the ledger's own methods, so the ledger
                // stays consistent and only the attempt check can object.
                let e = d.exec_state.iter().position(|st| st.running.is_some());
                let e = ExecutorId::new(e.expect("some executor is busy"));
                let from = d.ledger.owner(e).expect("a busy executor is held");
                let to = AppId::new((from.index() + 1) % d.apps.len());
                d.ledger.release_idle(from.index(), &[e]);
                d.ledger.grant(&[Assignment { executor: e, app: to, for_task: None }]);
            };
        auditor_catches_wake_without_event: "queued Wake events out of sync" =>
            |d| {
                d.wakes.insert(SimTime::from_secs(100_000));
            };
    }
}
