//! Simulation configuration.

use std::collections::BTreeSet;

use custody_cluster::ClusterSpec;
use custody_core::AllocatorKind;
use custody_dfs::NodeId;
use custody_dfs::{
    PlacementPolicy, PopularityPlacement, RackAwarePlacement, RandomPlacement, RoundRobinPlacement,
};
use custody_scheduler::speculation::SpeculationConfig;
use custody_scheduler::SchedulerKind;
use custody_simcore::SimTime;
use custody_workload::{Campaign, WorkloadKind};

/// Which replica-placement policy the file system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// HDFS-default uniform random (the paper's evaluation setting).
    Random,
    /// Deterministic round-robin (worked examples).
    RoundRobin,
    /// Least-loaded-first spreading (Scarlett-style extension).
    Popularity,
    /// HDFS's default rack-aware policy (needs `ClusterSpec::with_racks`).
    RackAware,
}

impl PlacementKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementKind::Random => "random",
            PlacementKind::RoundRobin => "round-robin",
            PlacementKind::Popularity => "popularity",
            PlacementKind::RackAware => "rack-aware",
        }
    }

    /// Instantiates the policy for the given cluster topology.
    pub fn build_for(self, cluster: &ClusterSpec) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementKind::Random => Box::new(RandomPlacement),
            PlacementKind::RoundRobin => Box::<RoundRobinPlacement>::default(),
            PlacementKind::Popularity => Box::new(PopularityPlacement),
            PlacementKind::RackAware => Box::new(RackAwarePlacement::new(
                cluster
                    .rack_assignment()
                    .into_iter()
                    .map(|r| r.index())
                    .collect(),
            )),
        }
    }
}

/// How much of the cluster each application may hold (σ_i).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaMode {
    /// σ_i = total executors / number of applications — per-app capacity
    /// grows with the cluster.
    EqualShare,
    /// σ_i fixed regardless of cluster size — the regime where the
    /// paper's Fig. 7 baseline decay is most pronounced: a data-unaware
    /// manager picking a *constant-size* executor set from an ever-larger
    /// cluster is ever less likely "to select the set of executors that
    /// store the right data blocks" (§VI-C).
    FixedPerApp(usize),
}

/// A scripted machine failure: at `at`, `node` dies — its executors are
/// lost, its running tasks are re-queued, and its block replicas vanish
/// (HDFS re-replicates the under-replicated blocks immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFailure {
    /// When the machine fails.
    pub at: SimTime,
    /// The machine.
    pub node: NodeId,
}

/// A configuration no run can be built from: one line naming the
/// rejecting section (`"chaos: …"`, `"cluster: …"`, ...) and why.
/// [`SimConfig::validate`] gathers every section's checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// `Ok` when `ok` holds, else a [`ConfigError`] prefixed with `section`.
fn ensure(ok: bool, section: &str, message: &str) -> Result<(), ConfigError> {
    if ok {
        Ok(())
    } else {
        Err(ConfigError(format!("{section}: {message}")))
    }
}

/// A time the simulator turns into a `SimDuration` or a distribution
/// mean (a mean, interval, timeout or duration): finite and positive.
fn positive_time(secs: f64) -> bool {
    secs.is_finite() && secs > 0.0
}

/// A time whose zero switches its feature off: finite and non-negative.
fn non_negative_time(secs: f64) -> bool {
    secs.is_finite() && secs >= 0.0
}

/// A slowdown factor applied to a duration: finite and at least one.
fn slowdown(factor: f64) -> bool {
    factor.is_finite() && factor >= 1.0
}

/// Stochastic fault injection: a seeded chaos process that, unlike the
/// scripted [`NodeFailure`] list, keeps churning the cluster for as long
/// as its horizon lasts. Three fault flavours are drawn from one
/// exponential inter-arrival process:
///
/// * **machine loss** — the node's replicas vanish (HDFS re-replicates),
///   its executors die, and it rejoins after an exponential downtime,
///   empty and placeable again;
/// * **executor-only loss** — the node's executor processes die (running
///   tasks are re-queued) but its disk and replicas survive;
/// * **network degradation** — remote input reads slow down by a constant
///   factor for an exponential window (no state is lost).
///
/// All draws come from the config seed's `"chaos"` stream, so chaos runs
/// are as deterministic as scripted ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Mean seconds between fault injections (exponential inter-arrival).
    pub mean_time_between_faults_secs: f64,
    /// Mean seconds a crashed machine stays down before rejoining.
    pub mean_downtime_secs: f64,
    /// Probability a node fault kills only the executors, leaving the
    /// DataNode (and its replicas) intact.
    pub executor_only_fraction: f64,
    /// Probability a fault is a transient network degradation window
    /// instead of a node loss.
    pub degraded_fraction: f64,
    /// Remote input reads take this many times longer while a
    /// degradation window is open (≥ 1).
    pub degraded_remote_factor: f64,
    /// Mean seconds a degradation window stays open.
    pub mean_degraded_window_secs: f64,
    /// No new faults are injected after this simulated time (pending
    /// recoveries still drain), bounding the run.
    pub horizon_secs: f64,
    /// At most this many nodes may be down simultaneously; fault draws
    /// that would exceed it (or leave fewer than two nodes up) fizzle.
    pub max_down: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            mean_time_between_faults_secs: 60.0,
            mean_downtime_secs: 30.0,
            executor_only_fraction: 0.25,
            degraded_fraction: 0.15,
            degraded_remote_factor: 2.5,
            mean_degraded_window_secs: 20.0,
            horizon_secs: 600.0,
            max_down: 2,
        }
    }
}

impl ChaosConfig {
    /// Sets the mean fault inter-arrival time (the sweep axis of the
    /// chaos experiments).
    pub fn with_mean_time_between_faults(mut self, secs: f64) -> Self {
        self.mean_time_between_faults_secs = secs;
        self
    }

    /// Sets the injection horizon.
    pub fn with_horizon(mut self, secs: f64) -> Self {
        self.horizon_secs = secs;
        self
    }

    /// Sets the concurrent-down-node cap.
    pub fn with_max_down(mut self, max_down: usize) -> Self {
        self.max_down = max_down;
        self
    }

    /// Checks that every field is physically sensible.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ensure = |ok, message| ensure(ok, "chaos", message);
        ensure(
            positive_time(self.mean_time_between_faults_secs),
            "mean time between faults must be positive and finite",
        )?;
        ensure(
            positive_time(self.mean_downtime_secs),
            "mean downtime must be positive and finite",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.executor_only_fraction),
            "executor-only fraction must be a probability",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.degraded_fraction),
            "degraded fraction must be a probability",
        )?;
        ensure(
            slowdown(self.degraded_remote_factor),
            "degradation must slow reads by a finite factor of at least one",
        )?;
        ensure(
            positive_time(self.mean_degraded_window_secs),
            "mean degradation window must be positive and finite",
        )?;
        ensure(self.horizon_secs >= 0.0, "horizon must be non-negative")
    }
}

/// Gray-failure injection: fail-slow nodes and transient task faults.
///
/// Crash-stop chaos ([`ChaosConfig`]) and the suspicion-timeout detector
/// ([`ControlPlaneConfig`]) model the binary dead/alive world. This layer
/// models the *gray* middle: a node whose disk, NIC or CPU silently
/// degrades keeps heartbeating — the control plane sees nothing — yet a
/// "local" executor on such a limping node can be slower than a remote
/// one on a healthy node, poisoning data-aware allocation.
///
/// Two independent mechanisms, both seeded off dedicated RNG streams so
/// golden determinism holds:
///
/// * **fail-slow nodes** — a seeded subset of nodes develops a slowdown
///   after an exponential onset, with a *cause* dimension that decides
///   what gets slower: a sick disk multiplies local reads, a sick NIC
///   multiplies remote reads and shuffles, a sick CPU multiplies compute.
///   Episodes either persist forever or remit and relapse (drawn from the
///   `"failslow"` stream);
/// * **transient task faults** — each task attempt fails outright with a
///   seeded probability (elevated on sick nodes), consuming one unit of
///   its job's retry budget and re-queueing after exponential backoff
///   with jitter (drawn from the `"task-faults"` stream). A job that
///   exhausts its budget fails cleanly instead of retrying forever.
///
/// When [`detection`](Self::detection) is on, the driver also runs the
/// peer-relative fail-slow detector of `driver/health.rs`: per-node task
/// service times are compared against the cluster median (belief, no
/// oracle access) and sufficiently slow nodes walk a graceful-degradation
/// state machine healthy → suspect → quarantined → probation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailSlowConfig {
    /// Fraction of nodes that (eventually) develop a fail-slow condition.
    pub sick_fraction: f64,
    /// Mean seconds until a sick node's slowdown sets in (exponential).
    pub mean_onset_secs: f64,
    /// Mean seconds a slowdown episode lasts before remitting; `0` makes
    /// slowdowns persistent (they never remit).
    pub mean_episode_secs: f64,
    /// Mean healthy seconds between episodes once a slowdown has
    /// remitted (episodic mode only).
    pub mean_remission_secs: f64,
    /// No new slowdown episodes begin after this simulated time (open
    /// episodes still remit), bounding episodic chains.
    pub horizon_secs: f64,
    /// Probability a sick node's cause is a degraded disk (slows local
    /// input reads).
    pub disk_fraction: f64,
    /// Probability the cause is a degraded NIC (slows remote reads and
    /// shuffles); the remaining probability is a throttled CPU.
    pub nic_fraction: f64,
    /// Local input reads on a disk-sick node take this many times longer
    /// (≥ 1).
    pub disk_factor: f64,
    /// Remote reads and shuffles on a NIC-sick node take this many times
    /// longer (≥ 1).
    pub nic_factor: f64,
    /// Compute on a CPU-sick node takes this many times longer (≥ 1).
    pub cpu_factor: f64,
    /// Per-attempt probability a task fails transiently on a healthy
    /// node.
    pub transient_fault_prob: f64,
    /// Transient-fault probability is multiplied by this on a node whose
    /// slowdown is currently active (gray failures correlate).
    pub sick_fault_multiplier: f64,
    /// Total transient-fault retries a single job may consume before it
    /// fails cleanly.
    pub retry_budget: usize,
    /// Base of the exponential retry backoff: retry *n* of a task waits
    /// `retry_backoff_secs * 2^(n-1)`, jittered.
    pub retry_backoff_secs: f64,
    /// Backoff jitter fraction in `[0, 1]`: each wait is scaled by a
    /// uniform factor in `[1 - jitter, 1 + jitter]`.
    pub retry_jitter: f64,
    /// Run the peer-relative fail-slow detector (quarantine machinery).
    /// Off, the layer injects slowdowns and faults but never reacts —
    /// the ablation baseline of the fail-slow sweep.
    pub detection: bool,
    /// Soft demotion: feed suspect/probation nodes into the allocator as
    /// bucketed health *costs* — locality on them earns less credit and
    /// the filler visits them last — instead of treating them as healthy.
    /// Quarantine exclusion past [`quarantine_ratio`](Self::quarantine_ratio)
    /// is unconditional whenever detection is on.
    pub demotion: bool,
    /// Completed-task samples a node needs before the detector judges it.
    pub min_samples: usize,
    /// Sliding window of per-node service-time samples the detector keeps.
    pub window: usize,
    /// Node mean service time above cluster median × this ⇒ suspect.
    pub suspect_ratio: f64,
    /// Node mean service time above cluster median × this ⇒ quarantined.
    pub quarantine_ratio: f64,
    /// Seconds a quarantined node waits before probation re-admits it.
    pub probation_delay_secs: f64,
    /// Probe-task completions a probation node must serve before the
    /// detector re-judges it (back to healthy or back to quarantine).
    pub probation_probes: usize,
    /// Bucket scale `S` of the health-cost grid: a node at peer ratio `m`
    /// earns credit `round(S/m)` of `S` per local task.
    pub cost_scale: u32,
    /// Peer ratios above this are clamped before bucketing, bounding how
    /// cheaply a still-schedulable node can be priced.
    pub cost_cap_ratio: f64,
}

impl Default for FailSlowConfig {
    fn default() -> Self {
        FailSlowConfig {
            sick_fraction: 0.2,
            mean_onset_secs: 20.0,
            mean_episode_secs: 0.0,
            mean_remission_secs: 60.0,
            horizon_secs: 600.0,
            disk_fraction: 0.4,
            nic_fraction: 0.4,
            disk_factor: 6.0,
            nic_factor: 6.0,
            cpu_factor: 4.0,
            transient_fault_prob: 0.02,
            sick_fault_multiplier: 4.0,
            retry_budget: 8,
            retry_backoff_secs: 0.5,
            retry_jitter: 0.2,
            detection: true,
            demotion: true,
            min_samples: 4,
            window: 20,
            suspect_ratio: 1.5,
            quarantine_ratio: 2.5,
            probation_delay_secs: 15.0,
            probation_probes: 3,
            cost_scale: 8,
            cost_cap_ratio: 4.0,
        }
    }
}

impl FailSlowConfig {
    /// Sets the fraction of nodes that develop fail-slow (the sweep axis).
    pub fn with_sick_fraction(mut self, fraction: f64) -> Self {
        self.sick_fraction = fraction;
        self
    }

    /// Turns the peer-relative detector (and quarantine) on or off.
    pub fn with_detection(mut self, detection: bool) -> Self {
        self.detection = detection;
        self
    }

    /// Sets the per-attempt transient-fault probability.
    pub fn with_transient_fault_prob(mut self, p: f64) -> Self {
        self.transient_fault_prob = p;
        self
    }

    /// Sets the per-job retry budget.
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Makes slowdowns episodic with the given mean episode length
    /// (`0` restores persistent slowdowns).
    pub fn with_episodes(mut self, mean_episode_secs: f64) -> Self {
        self.mean_episode_secs = mean_episode_secs;
        self
    }

    /// Enables or disables soft demotion of suspect/probation nodes in
    /// the allocator (quarantine exclusion stays on whenever detection
    /// is).
    pub fn with_demotion(mut self, demotion: bool) -> Self {
        self.demotion = demotion;
        self
    }

    /// Sets the health-cost bucket scale.
    pub fn with_cost_scale(mut self, scale: u32) -> Self {
        self.cost_scale = scale;
        self
    }

    /// Sets the peer-ratio clamp of the health-cost bucketing.
    pub fn with_cost_cap_ratio(mut self, cap: f64) -> Self {
        self.cost_cap_ratio = cap;
        self
    }

    /// A configuration that injects nothing — no node ever sickens and no
    /// attempt ever faults — degenerates to the oracle: the driver keeps
    /// the whole layer inert, so such a run is event-for-event identical
    /// to one with no fail-slow configuration at all (the gray-failure
    /// analogue of [`ControlPlaneConfig::is_perfect`]).
    pub fn is_inert(&self) -> bool {
        self.sick_fraction == 0.0 && self.transient_fault_prob == 0.0
    }

    /// Checks that every field is physically sensible.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ensure = |ok, message| ensure(ok, "failslow", message);
        ensure(
            (0.0..=1.0).contains(&self.sick_fraction),
            "sick fraction must be a probability",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.transient_fault_prob),
            "transient fault probability must be a probability",
        )?;
        if self.is_inert() {
            return Ok(()); // oracle degeneration: nothing else applies
        }
        ensure(
            positive_time(self.mean_onset_secs),
            "mean onset must be positive and finite",
        )?;
        ensure(
            non_negative_time(self.mean_episode_secs),
            "mean episode must be non-negative and finite",
        )?;
        if self.mean_episode_secs > 0.0 {
            ensure(
                positive_time(self.mean_remission_secs),
                "episodic slowdowns need a positive mean remission, and a finite one",
            )?;
        }
        ensure(self.horizon_secs >= 0.0, "horizon must be non-negative")?;
        ensure(
            (0.0..=1.0).contains(&self.disk_fraction)
                && (0.0..=1.0).contains(&self.nic_fraction)
                && self.disk_fraction + self.nic_fraction <= 1.0,
            "cause fractions must be probabilities summing to at most one",
        )?;
        ensure(
            slowdown(self.disk_factor) && slowdown(self.nic_factor) && slowdown(self.cpu_factor),
            "fail-slow cannot speed a node up, and its factors must be finite",
        )?;
        ensure(
            self.sick_fault_multiplier >= 1.0,
            "sick nodes cannot fault less than healthy ones",
        )?;
        ensure(
            non_negative_time(self.retry_backoff_secs),
            "retry backoff must be non-negative and finite",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.retry_jitter),
            "retry jitter must be a fraction",
        )?;
        if self.detection {
            ensure(self.min_samples > 0, "detector needs at least one sample")?;
            ensure(
                self.window >= self.min_samples,
                "sample window must hold min_samples",
            )?;
            ensure(
                self.suspect_ratio > 1.0,
                "suspect ratio must exceed one (the median itself)",
            )?;
            ensure(
                self.quarantine_ratio >= self.suspect_ratio,
                "quarantine ratio must be at least the suspect ratio",
            )?;
            ensure(
                positive_time(self.probation_delay_secs),
                "probation delay must be positive and finite",
            )?;
            ensure(
                self.probation_probes > 0,
                "probation needs at least one probe",
            )?;
            if self.demotion {
                ensure(
                    (1..=64).contains(&self.cost_scale),
                    "cost scale must be in 1..=64",
                )?;
                ensure(
                    self.cost_cap_ratio >= 1.0,
                    "cost cap ratio cannot be below one",
                )?;
            }
        }
        Ok(())
    }
}

/// The modeled master ↔ worker control plane: heartbeats over a lossy,
/// delayed channel, a timeout failure detector, time-bounded executor
/// leases, and (optionally) master checkpoint/recovery.
///
/// With a control plane configured the driver no longer learns about
/// faults by oracle. Every node runs two logical heartbeat channels —
/// executor and DataNode — whose messages are independently dropped with
/// [`drop_probability`](Self::drop_probability) and delayed by an
/// exponential with mean [`mean_delay_secs`](Self::mean_delay_secs) (all
/// draws from the seed's `"control-plane"` stream). The master *suspects*
/// a channel silent for [`suspicion_timeout_secs`](Self::suspicion_timeout_secs),
/// fences the suspect's work via epoch bumps, and undoes a false
/// suspicion when a fresher heartbeat arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlPlaneConfig {
    /// Seconds between heartbeat emissions per node and channel.
    pub heartbeat_interval_secs: f64,
    /// Probability each heartbeat message is lost in transit.
    pub drop_probability: f64,
    /// Mean of the exponential per-message network delay.
    pub mean_delay_secs: f64,
    /// A channel silent for this long is suspected failed.
    pub suspicion_timeout_secs: f64,
    /// Executors are granted under leases of this length, renewed by every
    /// executor heartbeat from their host; an expired lease is revoked.
    /// Must sit between the heartbeat interval and the suspicion timeout.
    pub lease_duration_secs: f64,
    /// Master snapshot period; `0` disables checkpointing (and the WAL).
    pub checkpoint_interval_secs: f64,
    /// Probability a chaos fault arrival additionally crashes the *master*
    /// (recovered from the last checkpoint + WAL replay). Draws come from
    /// the dedicated `"master-crash"` stream, so crash-on and crash-off
    /// runs share every other schedule. Requires checkpointing.
    pub master_crash_fraction: f64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        ControlPlaneConfig {
            heartbeat_interval_secs: 1.0,
            drop_probability: 0.05,
            mean_delay_secs: 0.05,
            suspicion_timeout_secs: 5.0,
            lease_duration_secs: 3.0,
            checkpoint_interval_secs: 0.0,
            master_crash_fraction: 0.0,
        }
    }
}

impl ControlPlaneConfig {
    /// Sets the per-message drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the suspicion timeout.
    pub fn with_suspicion_timeout(mut self, secs: f64) -> Self {
        self.suspicion_timeout_secs = secs;
        self
    }

    /// Enables master checkpointing with the given snapshot period.
    pub fn with_checkpoints(mut self, interval_secs: f64) -> Self {
        self.checkpoint_interval_secs = interval_secs;
        self
    }

    /// Sets the probability that a chaos fault also crashes the master.
    pub fn with_master_crash_fraction(mut self, p: f64) -> Self {
        self.master_crash_fraction = p;
        self
    }

    /// A *perfect* control plane — nothing dropped, instant suspicion —
    /// degenerates to the oracle: the driver bypasses the detector
    /// entirely, so such a run is event-for-event identical to one with no
    /// control plane at all. Checkpointing still works independently.
    pub fn is_perfect(&self) -> bool {
        self.drop_probability == 0.0 && self.suspicion_timeout_secs == 0.0
    }

    /// Whether checkpoint/WAL-based master recovery is on.
    pub fn wal_enabled(&self) -> bool {
        self.checkpoint_interval_secs > 0.0
    }

    /// Checks that the configuration is physically sensible.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ensure = |ok, message| ensure(ok, "control-plane", message);
        ensure(
            non_negative_time(self.mean_delay_secs),
            "mean delay must be non-negative and finite",
        )?;
        ensure(
            non_negative_time(self.checkpoint_interval_secs),
            "checkpoint interval must be non-negative and finite",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.master_crash_fraction),
            "master-crash fraction must be a probability",
        )?;
        if self.master_crash_fraction > 0.0 {
            ensure(
                self.wal_enabled(),
                "master crashes need checkpointing to recover from",
            )?;
        }
        if self.is_perfect() {
            return Ok(()); // oracle degeneration: timing relations don't apply
        }
        ensure(
            positive_time(self.heartbeat_interval_secs),
            "heartbeat interval must be positive and finite",
        )?;
        ensure(
            (0.0..1.0).contains(&self.drop_probability),
            "drop probability must be in [0, 1)",
        )?;
        ensure(
            self.suspicion_timeout_secs > self.heartbeat_interval_secs,
            "suspicion timeout must exceed the heartbeat interval",
        )?;
        ensure(
            positive_time(self.suspicion_timeout_secs),
            "suspicion timeout must be finite",
        )?;
        ensure(
            self.lease_duration_secs > self.heartbeat_interval_secs
                && self.lease_duration_secs < self.suspicion_timeout_secs,
            "lease duration must sit between heartbeat interval and suspicion timeout",
        )
    }
}

/// Network-partition injection: episodes of lost connectivity between a
/// minority group of machines and the (master-side) majority.
///
/// Chaos kills machines and fail-slow degrades them; a partition does
/// neither — the minority stays alive and keeps running whatever it was
/// doing, it just cannot exchange (some) messages with the master. Three
/// episode shapes, all drawn from the dedicated `"partition"` stream:
///
/// * **clean split** — nothing crosses the cut in either direction:
///   minority heartbeats go silent (the detector eventually suspects and
///   fences them) while their in-flight work keeps running unreported;
/// * **asymmetric links** — with probability
///   [`asymmetric_prob`](Self::asymmetric_prob) only one direction is
///   cut: either the minority's *outbound* messages vanish (the master
///   keeps dispatching work the minority can never report) or its
///   *inbound* ones do (the master hears healthy heartbeats from nodes
///   its dispatches never reach);
/// * **flapping** — with probability [`flap_prob`](Self::flap_prob) an
///   episode's cut toggles on and off with mean period
///   [`mean_flap_secs`](Self::mean_flap_secs), the regime that stresses
///   suspicion hysteresis hardest.
///
/// On heal the driver reconciles: resumed heartbeats reinstate the
/// minority's executors, ghost dispatches are fenced and re-queued,
/// deferred minority Finish reports are delivered into the epoch fence
/// (rejected-and-counted, never double-completed), and any
/// re-replication debt is paid in paced batches instead of one storm.
///
/// Requires a modeled control plane ([`ControlPlaneConfig`], not
/// perfect): partitions are precisely the faults only a belief-based
/// detector can mis-see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Mean seconds between partition episodes (exponential
    /// inter-arrival, measured heal → next split).
    pub mean_time_between_partitions_secs: f64,
    /// Mean seconds an episode lasts before healing (exponential).
    pub mean_heal_secs: f64,
    /// Fraction of the cluster cut away per episode (at least one node,
    /// never the whole cluster); `0` makes the layer inert.
    pub split_fraction: f64,
    /// Probability an episode cuts only one direction instead of both.
    pub asymmetric_prob: f64,
    /// Given an asymmetric episode, probability the *inbound* direction
    /// (master → minority) is the one cut; otherwise outbound is.
    pub inbound_cut_prob: f64,
    /// Probability an episode flaps (its cut toggles on/off) instead of
    /// holding steady until heal.
    pub flap_prob: f64,
    /// Mean seconds between flap toggles within a flapping episode.
    pub mean_flap_secs: f64,
    /// No new episodes begin after this simulated time (open episodes
    /// still heal), bounding the run.
    pub horizon_secs: f64,
    /// At most this many episodes per run (a second bound for short
    /// campaigns).
    pub max_episodes: usize,
    /// Seconds between redelivery attempts of a Finish report whose
    /// executor cannot currently reach the master (the worker's RPC
    /// retry loop).
    pub redelivery_secs: f64,
    /// Blocks restored per paced re-replication batch after a DataNode
    /// suspicion or heal (replaces the instant full
    /// `restore_replication` storm while this layer is active).
    pub restore_batch: usize,
    /// Seconds between paced re-replication batches.
    pub restore_interval_secs: f64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            mean_time_between_partitions_secs: 45.0,
            mean_heal_secs: 15.0,
            split_fraction: 0.3,
            asymmetric_prob: 0.25,
            inbound_cut_prob: 0.5,
            flap_prob: 0.2,
            mean_flap_secs: 2.0,
            horizon_secs: 600.0,
            max_episodes: 4,
            redelivery_secs: 1.0,
            restore_batch: 4,
            restore_interval_secs: 0.5,
        }
    }
}

impl PartitionConfig {
    /// Sets the cut-away fraction (the sweep axis; `0` disables).
    pub fn with_split_fraction(mut self, fraction: f64) -> Self {
        self.split_fraction = fraction;
        self
    }

    /// Sets the mean episode duration (the other sweep axis).
    pub fn with_mean_heal(mut self, secs: f64) -> Self {
        self.mean_heal_secs = secs;
        self
    }

    /// Sets the mean inter-episode gap.
    pub fn with_mean_time_between_partitions(mut self, secs: f64) -> Self {
        self.mean_time_between_partitions_secs = secs;
        self
    }

    /// Sets the probability an episode is asymmetric (one-way).
    pub fn with_asymmetric_prob(mut self, p: f64) -> Self {
        self.asymmetric_prob = p;
        self
    }

    /// Sets the probability an episode flaps.
    pub fn with_flap_prob(mut self, p: f64) -> Self {
        self.flap_prob = p;
        self
    }

    /// Sets the episode cap.
    pub fn with_max_episodes(mut self, n: usize) -> Self {
        self.max_episodes = n;
        self
    }

    /// A configuration that never cuts anything degenerates to the
    /// oracle: the driver keeps the whole layer inert (no events, no
    /// `"partition"` draws), so such a run is event-for-event identical
    /// to one with no partition configuration at all — the connectivity
    /// analogue of [`FailSlowConfig::is_inert`].
    pub fn is_inert(&self) -> bool {
        self.split_fraction == 0.0
    }

    /// Checks that every field is physically sensible.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ensure = |ok, message| ensure(ok, "partition", message);
        ensure(
            (0.0..1.0).contains(&self.split_fraction),
            "split fraction must be in [0, 1) — someone must stay with the master",
        )?;
        if self.is_inert() {
            return Ok(()); // oracle degeneration: nothing else applies
        }
        ensure(
            positive_time(self.mean_time_between_partitions_secs),
            "mean time between partitions must be positive and finite",
        )?;
        ensure(
            positive_time(self.mean_heal_secs),
            "mean heal must be positive and finite",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.asymmetric_prob),
            "asymmetric probability must be a probability",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.inbound_cut_prob),
            "inbound-cut probability must be a probability",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.flap_prob),
            "flap probability must be a probability",
        )?;
        if self.flap_prob > 0.0 {
            ensure(
                positive_time(self.mean_flap_secs),
                "flapping episodes need a positive mean flap period, and a finite one",
            )?;
        }
        ensure(self.horizon_secs >= 0.0, "horizon must be non-negative")?;
        ensure(self.max_episodes > 0, "need at least one episode")?;
        ensure(
            positive_time(self.redelivery_secs),
            "redelivery interval must be positive and finite",
        )?;
        ensure(self.restore_batch > 0, "restore batch must be positive")?;
        ensure(
            positive_time(self.restore_interval_secs),
            "restore interval must be positive and finite",
        )
    }
}

/// Data-durability fault injection: silent replica corruption (bit-rot),
/// checksum-verified reads, a background scrubber, and the paced repair
/// pipeline that heals what the two detection paths uncover.
///
/// Chaos kills machines, fail-slow degrades them, partitions unplug them;
/// corruption rots the *data itself* while every machine stays healthy.
/// All randomness comes from the dedicated `"corruption"` stream: a
/// seeded latent fraction of replicas starts the run already rotten, and
/// further corruption arrives over time (exponential inter-arrival),
/// optionally biased toward replicas on fail-slow *disk* nodes — the
/// canonical bit-rot vector in the gray-failure literature.
///
/// Corruption is silent until detected. Detection happens two ways:
///
/// * **verified reads** — a task that read a corrupted replica fails its
///   checksum at completion time, consumes a retry, and reports the bad
///   replica so the NameNode drops it (journaled, so demand caches
///   re-resolve preferred locations);
/// * **background scrubbing** — paced scrub ticks walk the block space
///   and surface latent damage nothing has read yet.
///
/// Every detection feeds the unified repair queue, prioritized by
/// remaining-live-replica count (sole copies first) under the paced
/// `repair_batch` / `repair_interval_secs` bandwidth budget. A block
/// whose last intact copy is gone becomes *unavailable*: its waiting
/// tasks park, and only past
/// [`unavailability_deadline_secs`](Self::unavailability_deadline_secs)
/// do their jobs fail cleanly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// Fraction of replicas that start the run latently corrupted
    /// (seeded bit-rot, one independent coin per replica).
    pub latent_fraction: f64,
    /// Mean seconds between corruption arrivals over the run
    /// (exponential inter-arrival); `0` disables ongoing corruption.
    pub mean_time_between_corruptions_secs: f64,
    /// No new corruption arrives after this simulated time, bounding
    /// the run.
    pub horizon_secs: f64,
    /// Probability an arrival is steered at a replica on a currently
    /// fail-slow *disk* node when one exists (bursts correlated with the
    /// gray-failure layer); otherwise, and when no disk node is sick,
    /// the victim is uniform over all intact replicas.
    pub disk_bias: f64,
    /// Seconds between background scrub ticks; `0` disables scrubbing
    /// (verified reads become the only detection path).
    pub scrub_interval_secs: f64,
    /// Blocks examined per scrub tick (the scrub bandwidth budget).
    pub scrub_blocks_per_tick: usize,
    /// Replicas created per paced repair batch (shared by every repair
    /// trigger: chaos crashes, partition heals, corruption drops).
    pub repair_batch: usize,
    /// Seconds between paced repair batches.
    pub repair_interval_secs: f64,
    /// Seconds an unavailable block's waiting jobs park before failing
    /// cleanly.
    pub unavailability_deadline_secs: f64,
    /// Retry budget for jobs whose tasks fail verified reads (the same
    /// budget semantics as [`FailSlowConfig::retry_budget`]).
    pub retry_budget: usize,
    /// Base backoff before a verified-read retry becomes runnable again.
    pub retry_backoff_secs: f64,
    /// Multiplicative jitter on the backoff, drawn from the
    /// `"corruption"` stream.
    pub retry_jitter: f64,
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        CorruptionConfig {
            latent_fraction: 0.01,
            mean_time_between_corruptions_secs: 120.0,
            horizon_secs: 600.0,
            disk_bias: 0.5,
            scrub_interval_secs: 20.0,
            scrub_blocks_per_tick: 16,
            repair_batch: 4,
            repair_interval_secs: 0.5,
            unavailability_deadline_secs: 60.0,
            retry_budget: 8,
            retry_backoff_secs: 0.5,
            retry_jitter: 0.2,
        }
    }
}

impl CorruptionConfig {
    /// Sets the seeded latent bit-rot fraction (the sweep axis).
    pub fn with_latent_fraction(mut self, fraction: f64) -> Self {
        self.latent_fraction = fraction;
        self
    }

    /// Sets the mean gap between ongoing corruption arrivals (`0`
    /// disables arrivals).
    pub fn with_mean_time_between_corruptions(mut self, secs: f64) -> Self {
        self.mean_time_between_corruptions_secs = secs;
        self
    }

    /// Sets the scrub cadence (`0` disables the scrubber).
    pub fn with_scrub_interval(mut self, secs: f64) -> Self {
        self.scrub_interval_secs = secs;
        self
    }

    /// Sets the disk-node bias of ongoing arrivals.
    pub fn with_disk_bias(mut self, p: f64) -> Self {
        self.disk_bias = p;
        self
    }

    /// Sets the unavailability deadline.
    pub fn with_unavailability_deadline(mut self, secs: f64) -> Self {
        self.unavailability_deadline_secs = secs;
        self
    }

    /// A configuration that corrupts nothing degenerates to the oracle:
    /// the driver keeps the whole layer inert (no events, no
    /// `"corruption"` draws), so such a run is event-for-event identical
    /// to one with no corruption configuration at all — the durability
    /// analogue of [`PartitionConfig::is_inert`].
    pub fn is_inert(&self) -> bool {
        self.latent_fraction == 0.0 && self.mean_time_between_corruptions_secs == 0.0
    }

    /// Whether the background scrubber runs.
    pub fn scrub_enabled(&self) -> bool {
        self.scrub_interval_secs > 0.0
    }

    /// Checks that every field is physically sensible.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let ensure = |ok, message| ensure(ok, "corruption", message);
        ensure(
            (0.0..=1.0).contains(&self.latent_fraction),
            "latent fraction must be a probability",
        )?;
        ensure(
            non_negative_time(self.mean_time_between_corruptions_secs),
            "mean time between corruptions must be non-negative and finite",
        )?;
        if self.is_inert() {
            return Ok(()); // oracle degeneration: nothing else applies
        }
        ensure(self.horizon_secs >= 0.0, "horizon must be non-negative")?;
        ensure(
            (0.0..=1.0).contains(&self.disk_bias),
            "disk bias must be a probability",
        )?;
        ensure(
            non_negative_time(self.scrub_interval_secs),
            "scrub interval must be non-negative and finite",
        )?;
        if self.scrub_enabled() {
            ensure(
                self.scrub_blocks_per_tick > 0,
                "an enabled scrubber must examine at least one block per tick",
            )?;
        }
        ensure(self.repair_batch > 0, "repair batch must be positive")?;
        ensure(
            positive_time(self.repair_interval_secs),
            "repair interval must be positive and finite",
        )?;
        ensure(
            positive_time(self.unavailability_deadline_secs),
            "unavailability deadline must be positive and finite",
        )?;
        ensure(self.retry_budget > 0, "retry budget must be positive")?;
        ensure(
            positive_time(self.retry_backoff_secs),
            "retry backoff must be positive and finite",
        )?;
        ensure(
            (0.0..=1.0).contains(&self.retry_jitter),
            "retry jitter must be a fraction",
        )
    }
}

/// Everything that determines a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The physical cluster.
    pub cluster: ClusterSpec,
    /// Applications and their job streams.
    pub campaign: Campaign,
    /// The cluster manager under test.
    pub allocator: AllocatorKind,
    /// The per-application task scheduler.
    pub scheduler: SchedulerKind,
    /// Block replica placement.
    pub placement: PlacementKind,
    /// Per-application executor quota.
    pub quota: QuotaMode,
    /// Scripted machine failures (failure-injection experiments).
    pub failures: Vec<NodeFailure>,
    /// Stochastic fault injection with recovery; `None` disables it.
    pub chaos: Option<ChaosConfig>,
    /// Modeled heartbeat/lease control plane; `None` keeps the oracle
    /// failure knowledge of earlier versions.
    pub control_plane: Option<ControlPlaneConfig>,
    /// Gray-failure layer: fail-slow nodes, transient task faults and the
    /// peer-relative health detector; `None` disables all three.
    pub failslow: Option<FailSlowConfig>,
    /// Network-partition layer: connectivity splits, asymmetric links and
    /// flapping; `None` keeps the cluster fully connected. Requires a
    /// non-perfect [`control_plane`](Self::control_plane).
    pub partition: Option<PartitionConfig>,
    /// Data-durability layer: silent replica corruption, verified reads,
    /// background scrubbing and paced prioritized repair; `None` keeps
    /// stored data incorruptible.
    pub corruption: Option<CorruptionConfig>,
    /// Run the invariant auditor after every event even in release
    /// builds. Debug builds (and therefore the test suite) always audit.
    pub audit: bool,
    /// Speculative execution (straggler mitigation, §IV-B); `None`
    /// disables it (the paper's evaluation setting).
    pub speculation: Option<SpeculationConfig>,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's experiment configuration: `num_nodes` paper-spec nodes,
    /// four applications of `workload` submitting 30 jobs each, delay
    /// scheduling, random 3-way replication.
    pub fn paper(
        workload: WorkloadKind,
        num_nodes: usize,
        allocator: AllocatorKind,
        seed: u64,
    ) -> Self {
        SimConfig {
            cluster: ClusterSpec::paper(num_nodes),
            campaign: Campaign::paper(workload),
            allocator,
            scheduler: SchedulerKind::spark_default(),
            placement: PlacementKind::Random,
            quota: QuotaMode::EqualShare,
            failures: Vec::new(),
            chaos: None,
            control_plane: None,
            failslow: None,
            partition: None,
            corruption: None,
            audit: false,
            speculation: None,
            seed,
        }
    }

    /// A small fast configuration for tests, examples and doctests:
    /// 10 nodes, four WordCount apps, 3 jobs each.
    pub fn small_demo(seed: u64) -> Self {
        SimConfig {
            cluster: ClusterSpec::paper(10),
            campaign: Campaign::paper(WorkloadKind::WordCount).with_jobs_per_app(3),
            allocator: AllocatorKind::Custody,
            scheduler: SchedulerKind::spark_default(),
            placement: PlacementKind::Random,
            quota: QuotaMode::EqualShare,
            failures: Vec::new(),
            chaos: None,
            control_plane: None,
            failslow: None,
            partition: None,
            corruption: None,
            audit: false,
            speculation: None,
            seed,
        }
    }

    /// Swaps the allocator, keeping everything else identical — the
    /// comparison the whole paper is built on.
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Swaps the task scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Swaps the placement policy.
    pub fn with_placement(mut self, placement: PlacementKind) -> Self {
        self.placement = placement;
        self
    }

    /// Swaps the quota mode.
    pub fn with_quota(mut self, quota: QuotaMode) -> Self {
        self.quota = quota;
        self
    }

    /// Adds scripted machine failures.
    pub fn with_failures(mut self, failures: Vec<NodeFailure>) -> Self {
        self.failures = failures;
        self
    }

    /// Enables stochastic fault injection.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Enables the modeled heartbeat/lease control plane.
    pub fn with_control_plane(mut self, cp: ControlPlaneConfig) -> Self {
        self.control_plane = Some(cp);
        self
    }

    /// Enables the gray-failure layer (fail-slow nodes, transient task
    /// faults, peer-relative health detection).
    pub fn with_failslow(mut self, failslow: FailSlowConfig) -> Self {
        self.failslow = Some(failslow);
        self
    }

    /// Enables the network-partition layer. A non-perfect control plane
    /// is required (and installed by default if none is configured):
    /// only a belief-based detector can mis-see a partition.
    pub fn with_partition(mut self, partition: PartitionConfig) -> Self {
        if !partition.is_inert() && self.control_plane.is_none() {
            self.control_plane = Some(ControlPlaneConfig::default());
        }
        self.partition = Some(partition);
        self
    }

    /// Enables the data-durability layer (silent corruption, verified
    /// reads, scrubbing, paced prioritized repair).
    pub fn with_corruption(mut self, corruption: CorruptionConfig) -> Self {
        self.corruption = Some(corruption);
        self
    }

    /// Forces the invariant auditor on in release builds (debug builds
    /// always audit).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Enables speculative execution.
    pub fn with_speculation(mut self, config: SpeculationConfig) -> Self {
        self.speculation = Some(config);
        self
    }

    /// Enables (or disables) speculative execution with the default
    /// straggler policy — the `with_speculation(true)` convenience form.
    pub fn with_speculation_enabled(mut self, enabled: bool) -> Self {
        self.speculation = enabled.then(SpeculationConfig::default);
        self
    }

    /// Resolves the per-application quota for this configuration.
    pub fn quota_per_app(&self) -> usize {
        match self.quota {
            QuotaMode::EqualShare => {
                (self.cluster.total_executors() / self.campaign.num_apps().max(1)).max(1)
            }
            QuotaMode::FixedPerApp(n) => n.max(1),
        }
    }

    /// Checks the cluster, the scripted failures and every fault layer
    /// at once. [`Simulation::run`](crate::Simulation::run) refuses an
    /// `Err`; command-line front ends report it instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(
            self.cluster.num_nodes > 0 && self.cluster.executors_per_node > 0,
            "cluster",
            "a cluster needs at least one node hosting at least one executor",
        )?;
        for f in &self.failures {
            let message = format!("failure targets unknown {}", f.node);
            ensure(
                f.node.index() < self.cluster.num_nodes,
                "failures",
                &message,
            )?;
        }
        let down: BTreeSet<NodeId> = self.failures.iter().map(|f| f.node).collect();
        ensure(
            down.len() < self.cluster.num_nodes,
            "failures",
            "scripted failures take down every node: no executor would be left to finish the campaign",
        )?;
        self.chaos.as_ref().map_or(Ok(()), ChaosConfig::validate)?;
        self.control_plane
            .as_ref()
            .map_or(Ok(()), ControlPlaneConfig::validate)?;
        self.failslow
            .as_ref()
            .map_or(Ok(()), FailSlowConfig::validate)?;
        if let Some(pc) = &self.partition {
            pc.validate()?;
            ensure(
                pc.is_inert() || self.control_plane.is_some_and(|cp| !cp.is_perfect()),
                "partition",
                "partitions require a modeled (non-perfect) control plane: \
                 they are precisely the faults only a belief-based detector can mis-see",
            )?;
        }
        self.corruption
            .as_ref()
            .map_or(Ok(()), CorruptionConfig::validate)
    }

    /// One-line description for reports.
    pub fn label(&self) -> String {
        format!(
            "{} nodes={} apps={} jobs/app={} sched={} placement={} seed={}",
            self.allocator.name(),
            self.cluster.num_nodes,
            self.campaign.num_apps(),
            self.campaign.jobs_per_app,
            self.scheduler.name(),
            self.placement.name(),
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_setup() {
        let c = SimConfig::paper(WorkloadKind::Sort, 100, AllocatorKind::Custody, 1);
        assert_eq!(c.cluster.num_nodes, 100);
        assert_eq!(c.campaign.total_jobs(), 120);
        assert_eq!(c.allocator, AllocatorKind::Custody);
        assert_eq!(c.placement, PlacementKind::Random);
    }

    #[test]
    fn builders_swap_components() {
        let c = SimConfig::small_demo(7)
            .with_allocator(AllocatorKind::StaticSpread)
            .with_scheduler(SchedulerKind::Fifo)
            .with_placement(PlacementKind::RoundRobin);
        assert_eq!(c.allocator, AllocatorKind::StaticSpread);
        assert_eq!(c.scheduler, SchedulerKind::Fifo);
        assert_eq!(c.placement, PlacementKind::RoundRobin);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn label_mentions_allocator_and_size() {
        let c = SimConfig::small_demo(3);
        let l = c.label();
        assert!(l.contains("custody"));
        assert!(l.contains("nodes=10"));
        assert!(l.contains("seed=3"));
    }

    #[test]
    fn chaos_builders_and_validation() {
        let c = SimConfig::small_demo(1)
            .with_chaos(
                ChaosConfig::default()
                    .with_mean_time_between_faults(12.0)
                    .with_horizon(90.0)
                    .with_max_down(3),
            )
            .with_audit(true);
        assert!(c.audit);
        let chaos = c.chaos.expect("chaos set");
        assert_eq!(chaos.mean_time_between_faults_secs, 12.0);
        assert_eq!(chaos.horizon_secs, 90.0);
        assert_eq!(chaos.max_down, 3);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(ChaosConfig::default().validate(), Ok(()));
    }

    #[test]
    fn failslow_builders_and_validation() {
        let c = SimConfig::small_demo(1).with_failslow(
            FailSlowConfig::default()
                .with_sick_fraction(0.3)
                .with_detection(false)
                .with_transient_fault_prob(0.05)
                .with_retry_budget(4)
                .with_episodes(25.0),
        );
        let fs = c.failslow.expect("failslow set");
        assert_eq!(fs.sick_fraction, 0.3);
        assert!(!fs.detection);
        assert_eq!(fs.transient_fault_prob, 0.05);
        assert_eq!(fs.retry_budget, 4);
        assert_eq!(fs.mean_episode_secs, 25.0);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(FailSlowConfig::default().validate(), Ok(()));
    }

    #[test]
    fn inert_failslow_degenerates() {
        let inert = FailSlowConfig {
            sick_fraction: 0.0,
            transient_fault_prob: 0.0,
            // Nonsense timing fields are tolerated exactly because the
            // config is inert — mirrors the perfect-control-plane early
            // return.
            mean_onset_secs: 0.0,
            ..FailSlowConfig::default()
        };
        assert!(inert.is_inert());
        assert_eq!(inert.validate(), Ok(()));
        assert!(!FailSlowConfig::default().is_inert());
    }

    #[test]
    fn partition_builders_and_validation() {
        let c = SimConfig::small_demo(1).with_partition(
            PartitionConfig::default()
                .with_split_fraction(0.4)
                .with_mean_heal(8.0)
                .with_mean_time_between_partitions(30.0)
                .with_asymmetric_prob(1.0)
                .with_flap_prob(0.5)
                .with_max_episodes(2),
        );
        let p = c.partition.expect("partition set");
        assert_eq!(p.split_fraction, 0.4);
        assert_eq!(p.mean_heal_secs, 8.0);
        assert_eq!(p.mean_time_between_partitions_secs, 30.0);
        assert_eq!(p.asymmetric_prob, 1.0);
        assert_eq!(p.flap_prob, 0.5);
        assert_eq!(p.max_episodes, 2);
        // An active partition config auto-installs a modeled control
        // plane when none was configured.
        assert!(c.control_plane.is_some());
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(PartitionConfig::default().validate(), Ok(()));
    }

    #[test]
    fn inert_partition_degenerates() {
        let inert = PartitionConfig {
            split_fraction: 0.0,
            // Nonsense timing fields are tolerated exactly because the
            // config is inert — mirrors the inert-failslow early return.
            mean_heal_secs: 0.0,
            redelivery_secs: 0.0,
            ..PartitionConfig::default()
        };
        assert!(inert.is_inert());
        assert!(!PartitionConfig::default().is_inert());
        // Inert partitions don't force a control plane into the config,
        // and need none.
        let c = SimConfig::small_demo(1).with_partition(inert);
        assert!(c.control_plane.is_none());
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn corruption_builders_and_validation() {
        let c = SimConfig::small_demo(1).with_corruption(
            CorruptionConfig::default()
                .with_latent_fraction(0.05)
                .with_mean_time_between_corruptions(60.0)
                .with_scrub_interval(10.0)
                .with_disk_bias(1.0)
                .with_unavailability_deadline(30.0),
        );
        let k = c.corruption.expect("corruption set");
        assert_eq!(k.latent_fraction, 0.05);
        assert_eq!(k.mean_time_between_corruptions_secs, 60.0);
        assert_eq!(k.scrub_interval_secs, 10.0);
        assert_eq!(k.disk_bias, 1.0);
        assert_eq!(k.unavailability_deadline_secs, 30.0);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(CorruptionConfig::default().validate(), Ok(()));
        assert!(CorruptionConfig::default().scrub_enabled());
    }

    #[test]
    fn inert_corruption_degenerates() {
        let inert = CorruptionConfig {
            latent_fraction: 0.0,
            mean_time_between_corruptions_secs: 0.0,
            // Nonsense sub-fields are tolerated exactly because the
            // config is inert — mirrors the inert-partition early return.
            repair_interval_secs: 0.0,
            retry_budget: 0,
            ..CorruptionConfig::default()
        };
        assert!(inert.is_inert());
        assert_eq!(inert.validate(), Ok(()));
        assert!(!CorruptionConfig::default().is_inert());
        // Latent-only and arrivals-only configs are both active.
        assert!(!CorruptionConfig {
            mean_time_between_corruptions_secs: 0.0,
            ..CorruptionConfig::default()
        }
        .is_inert());
        assert!(!CorruptionConfig {
            latent_fraction: 0.0,
            ..CorruptionConfig::default()
        }
        .is_inert());
    }

    #[test]
    fn corruption_validation_accepts_full_rot() {
        // Total latent corruption is a legitimate graceful-degradation
        // stress: everything tombstones, jobs fail at the deadline.
        let full = CorruptionConfig {
            latent_fraction: 1.0,
            ..CorruptionConfig::default()
        };
        assert_eq!(full.validate(), Ok(()));
    }

    /// Every check `SimConfig::validate` gathers rejects its bad input
    /// with an `Err` naming the problem: one row per rejected config.
    #[test]
    fn validation_rejects_bad_configs() {
        let demo = || SimConfig::small_demo(1);
        let mut empty_cluster = demo();
        empty_cluster.cluster.num_nodes = 0;
        let mut detectorless_partition = demo();
        detectorless_partition.partition = Some(PartitionConfig::default());
        let perfect = ControlPlaneConfig {
            drop_probability: 0.0,
            suspicion_timeout_secs: 0.0,
            ..ControlPlaneConfig::default()
        };
        let inf = f64::INFINITY;
        let modeled = ControlPlaneConfig::default().with_drop_probability(0.1);
        let rows: Vec<(SimConfig, &str)> = vec![
            (empty_cluster, "at least one node"),
            (
                demo().with_failures(vec![NodeFailure {
                    at: SimTime::from_secs(1),
                    node: NodeId::new(99),
                }]),
                "failure targets unknown node-99",
            ),
            (
                demo().with_failures(
                    (0..demo().cluster.num_nodes)
                        .flat_map(|n| [0, 5].map(|at| (at, n)))
                        .map(|(at, n)| NodeFailure {
                            at: SimTime::from_secs(at),
                            node: NodeId::new(n),
                        })
                        .collect(),
                ),
                "no executor would be left to finish the campaign",
            ),
            (
                demo().with_chaos(ChaosConfig {
                    degraded_fraction: 1.5,
                    ..ChaosConfig::default()
                }),
                "probability",
            ),
            (
                demo()
                    .with_control_plane(ControlPlaneConfig::default().with_suspicion_timeout(0.1)),
                "exceed the heartbeat interval",
            ),
            (
                demo().with_failslow(FailSlowConfig::default().with_sick_fraction(2.0)),
                "probability",
            ),
            (
                demo().with_failslow(FailSlowConfig {
                    disk_factor: 0.5,
                    ..FailSlowConfig::default()
                }),
                "speed a node up",
            ),
            (
                demo().with_partition(PartitionConfig::default().with_split_fraction(1.0)),
                "stay with the master",
            ),
            (
                demo().with_partition(PartitionConfig {
                    flap_prob: 0.5,
                    mean_flap_secs: 0.0,
                    ..PartitionConfig::default()
                }),
                "positive mean flap period",
            ),
            (
                detectorless_partition,
                "modeled (non-perfect) control plane",
            ),
            (
                demo()
                    .with_control_plane(perfect)
                    .with_partition(PartitionConfig::default()),
                "modeled (non-perfect) control plane",
            ),
            (
                demo().with_corruption(CorruptionConfig::default().with_latent_fraction(1.5)),
                "must be a probability",
            ),
            (
                demo().with_corruption(CorruptionConfig {
                    scrub_blocks_per_tick: 0,
                    ..CorruptionConfig::default()
                }),
                "at least one block per tick",
            ),
            // Non-finite times are rejected here rather than panicking
            // where the simulator turns them into durations or means.
            (
                demo().with_chaos(ChaosConfig::default().with_mean_time_between_faults(inf)),
                "mean time between faults must be positive and finite",
            ),
            (
                demo().with_chaos(ChaosConfig {
                    mean_downtime_secs: inf,
                    ..ChaosConfig::default()
                }),
                "mean downtime must be positive and finite",
            ),
            (
                demo()
                    .with_control_plane(modeled)
                    .with_partition(PartitionConfig::default().with_mean_heal(inf)),
                "mean heal must be positive and finite",
            ),
            (
                demo().with_control_plane(modeled.with_checkpoints(inf)),
                "checkpoint interval must be non-negative and finite",
            ),
            (
                demo().with_control_plane(modeled.with_suspicion_timeout(inf)),
                "suspicion timeout must be finite",
            ),
            (
                demo().with_corruption(CorruptionConfig::default().with_scrub_interval(inf)),
                "scrub interval must be non-negative and finite",
            ),
            (
                demo().with_failslow(FailSlowConfig {
                    mean_onset_secs: f64::NAN,
                    ..FailSlowConfig::default().with_sick_fraction(0.2)
                }),
                "mean onset must be positive and finite",
            ),
        ];
        for (cfg, fragment) in rows {
            match cfg.validate() {
                Err(e) => assert!(
                    e.to_string().contains(fragment),
                    "expected {fragment:?}, got {e}"
                ),
                Ok(()) => panic!("accepted a config that should fail with {fragment:?}"),
            }
        }
    }

    #[test]
    fn placement_kinds_build() {
        let spec = ClusterSpec::paper(4).with_racks(2);
        assert_eq!(PlacementKind::Random.build_for(&spec).name(), "random");
        assert_eq!(
            PlacementKind::RoundRobin.build_for(&spec).name(),
            "round-robin"
        );
        assert_eq!(
            PlacementKind::Popularity.build_for(&spec).name(),
            "popularity"
        );
        assert_eq!(
            PlacementKind::RackAware.build_for(&spec).name(),
            "rack-aware"
        );
    }
}
