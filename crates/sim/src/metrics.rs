//! Metric collection: exactly what the paper's figures report.
//!
//! * **Fig. 7** — per-job percentage of data-local input tasks
//!   (mean ± standard deviation per workload).
//! * **Fig. 8** — average job completion time.
//! * **Fig. 9** — average completion time of the map (input) stage.
//! * **Fig. 10** — average scheduler delay: "the time period between the
//!   task is submitted to the system and the task is actually launched
//!   onto an idle executor".

use custody_simcore::stats::Summary;
use custody_simcore::SimTime;
use custody_workload::{AppId, WorkloadKind};

/// Metrics of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppMetrics {
    /// The application.
    pub app: AppId,
    /// Display name.
    pub name: String,
    /// The workload the application ran.
    pub workload: WorkloadKind,
    /// Jobs that ran to completion.
    pub jobs_completed: usize,
    /// Completed jobs whose every input task was data-local.
    pub local_jobs: usize,
    /// Per-job fraction of local input tasks, in `[0, 1]`.
    pub input_locality: Summary,
    /// Per-job completion time in seconds.
    pub job_completion_secs: Summary,
    /// Per-job input-stage duration in seconds.
    pub input_stage_secs: Summary,
    /// Per-task scheduler delay in seconds: how long a launched task
    /// waited *while an executor sat idle* — the cost of delay
    /// scheduling's locality wait, the quantity Fig. 10 plots. Excludes
    /// capacity queueing (no executor available), which
    /// [`queueing_delay_secs`](Self::queueing_delay_secs) reports.
    pub scheduler_delay_secs: Summary,
    /// Per-task total wait from runnable to launch, in seconds (includes
    /// waiting for any executor to free up).
    pub queueing_delay_secs: Summary,
}

impl AppMetrics {
    /// Creates an empty record.
    pub fn new(app: AppId, name: String, workload: WorkloadKind) -> Self {
        AppMetrics {
            app,
            name,
            workload,
            jobs_completed: 0,
            local_jobs: 0,
            input_locality: Summary::new(),
            job_completion_secs: Summary::new(),
            input_stage_secs: Summary::new(),
            scheduler_delay_secs: Summary::new(),
            queueing_delay_secs: Summary::new(),
        }
    }

    /// Fraction of completed jobs with perfect input locality — the U_ij
    /// average of Eq. 6.
    pub fn local_job_fraction(&self) -> f64 {
        if self.jobs_completed == 0 {
            0.0
        } else {
            self.local_jobs as f64 / self.jobs_completed as f64
        }
    }
}

/// Metrics of one whole run. The driver increments the counters in place
/// during the run and fills in the end-of-run fields when it finishes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Per-application breakdown, app-id order.
    pub per_app: Vec<AppMetrics>,
    /// Total jobs completed.
    pub jobs_completed: usize,
    /// Time of the last event.
    pub makespan: SimTime,
    /// Allocation rounds executed.
    pub allocation_rounds: usize,
    /// Allocation rounds skipped because neither the idle pool nor any
    /// application's demand changed since the last zero-grant round
    /// (their outcome is replayed, not recomputed).
    pub rounds_skipped: usize,
    /// Cumulative wall-clock time spent in allocation rounds that were
    /// not skipped, in seconds: the demand-cache refresh into the kept
    /// view, the idle list (rounds that can grant) and the allocator call.
    /// Real time, not simulated time — varies across machines and runs,
    /// so it is excluded from determinism comparisons.
    pub allocator_wall_secs: f64,
    /// Cumulative wall-clock time spent popping the event queue, in
    /// seconds. Real time — excluded from determinism comparisons.
    pub event_pop_wall_secs: f64,
    /// Cumulative wall-clock time spent on demand maintenance
    /// (demand-cache refreshes plus journal-driven preferred-node
    /// re-resolution), in seconds. Cache refreshes run at the start of
    /// each allocation round, so that part overlaps — is not additive
    /// with — [`allocator_wall_secs`](Self::allocator_wall_secs); the
    /// re-resolution runs in the event handlers that change the replica
    /// map, outside it. Real time — excluded from determinism
    /// comparisons.
    pub demand_wall_secs: f64,
    /// Peak resident set size of the whole process at the end of the run
    /// (Linux `VmHWM`), in bytes; 0 where unavailable. A process-wide
    /// high-water mark, not a per-run delta — excluded from determinism
    /// comparisons.
    pub peak_rss_bytes: u64,
    /// Events processed.
    pub events_processed: usize,
    /// Machines that failed during the run (failure injection).
    pub nodes_failed: usize,
    /// Machines that rejoined the cluster after a chaos fault.
    pub nodes_recovered: usize,
    /// Executor-only faults injected (processes died, disk survived).
    pub executor_faults: usize,
    /// Network degradation windows opened.
    pub degraded_windows: usize,
    /// Tasks re-queued because their executor died or their attempt hit
    /// a transient fault with no surviving twin.
    pub tasks_requeued: usize,
    /// Speculative task copies launched (straggler mitigation).
    pub tasks_speculated: usize,
    /// Speculative clones that finished first (won their race).
    pub clones_won: usize,
    /// Speculative clones that died or lost their race.
    pub clones_lost: usize,
    /// Recovery time to stable locality: for each fault that displaced
    /// running tasks, the seconds from the fault until every displaced
    /// task was running again.
    pub requeue_drain_secs: Summary,
    /// Largest event-queue length observed (bounded-queue guard for the
    /// wake-dedup logic).
    pub peak_queue_len: usize,
    /// Blocks whose last replica lived on a failed (or suspected) node —
    /// data the DFS could not re-replicate and jobs must read degraded.
    pub blocks_lost: usize,
    /// Detector suspicions raised against nodes that were actually alive
    /// (a heartbeat was merely lost or late).
    pub false_suspicions: usize,
    /// Seconds from a node's physical failure to the detector suspecting
    /// it, per true suspicion (the detection latency the paper's lease
    /// and heartbeat timeouts trade off against false positives).
    pub detection_latency_secs: Summary,
    /// Executor leases revoked because they expired without renewal.
    pub leases_revoked: usize,
    /// Master crash/recovery cycles survived via checkpoint + WAL replay.
    pub master_recoveries: usize,
    /// Finish events fenced because the executor's epoch had advanced
    /// (the attempt belonged to a revoked or restarted incarnation).
    pub stale_finishes_fenced: usize,
    /// Finish events from a stale incarnation that slipped past fencing —
    /// always zero unless fencing is broken (the auditor asserts on it).
    pub unfenced_stale_finishes: usize,
    /// Fail-slow episodes that began (a node's disk/NIC/CPU degraded).
    pub failslow_onsets: usize,
    /// Transient task faults injected (attempts that failed outright).
    pub task_faults_injected: usize,
    /// Faulted attempts re-queued for retry within their job's budget.
    pub task_retries: usize,
    /// Jobs that failed cleanly after exhausting their retry budget.
    pub jobs_failed: usize,
    /// Healthy→…→quarantined transitions taken by the health detector
    /// (re-quarantines from probation included).
    pub nodes_quarantined: usize,
    /// Quarantines of nodes whose slowdown was *not* physically active at
    /// quarantine time — the detector's false positives.
    pub false_quarantines: usize,
    /// Seconds from a slowdown's physical onset to the node's quarantine,
    /// scored once per detected episode (re-quarantines of an
    /// already-caught slowdown say nothing about detection speed).
    pub quarantine_latency_secs: Summary,
    /// Probe tasks launched on probation nodes to earn re-admission.
    pub probes_launched: usize,
    /// Network-partition episodes that opened (minority cut away from
    /// the master side).
    pub partition_episodes: usize,
    /// Finish reports deferred because their node could not reach the
    /// master across a partition cut (each bouncing report counted once).
    pub partition_finishes_deferred: usize,
    /// Deferred Finish reports ultimately rejected by the epoch fence on
    /// delivery — split-brain work the master had already re-run; never
    /// double-completed.
    pub partition_finishes_fenced: usize,
    /// Live minority attempts discarded because of a partition: ghost
    /// dispatches rolled back at reconnect plus running work fenced by
    /// belief-driven kills of unreachable nodes.
    pub partition_work_discarded: usize,
    /// Seconds from a partition's heal to the master's beliefs about the
    /// rejoined minority settling, per reconverged episode.
    pub partition_reconverge_secs: Summary,
    /// Replicas that silently rotted (latent seeding plus stochastic
    /// arrivals) — ground truth, whether or not ever detected.
    pub replicas_corrupted: usize,
    /// Corrupt replicas discovered because a task's verified read failed
    /// its checksum.
    pub corrupt_reads_detected: usize,
    /// Corrupt replicas discovered by the background scrubber.
    pub scrub_detections: usize,
    /// Seconds from a replica's rot onset to its detection, scored once
    /// per detected mark — the scrubber's detection-latency metric.
    pub corruption_detection_secs: Summary,
    /// Replicas re-created by the unified repair pipeline (instant
    /// oracle restores and paced priority batches both).
    pub replicas_repaired: usize,
    /// Blocks that lost their last intact replica and were tombstoned
    /// (waiting tasks park instead of reading rotten bytes).
    pub blocks_unavailable: usize,
    /// Tombstoned blocks that regained an intact replica (a falsely
    /// suspected holder rejoined with its data) before their deadline.
    pub blocks_recovered: usize,
    /// Blocks ending the run with exactly one intact replica — the
    /// at-risk slice of the durability ledger.
    pub blocks_at_risk: usize,
    /// Blocks ending the run with no intact replica at all, detected or
    /// not — the permanently-lost slice of the durability ledger.
    pub blocks_permanently_lost: usize,
    /// Jobs failed cleanly because a block they need stayed unavailable
    /// past the configured deadline.
    pub jobs_failed_unavailable: usize,
}

impl RunMetrics {
    /// Merged per-job input locality across applications.
    pub fn input_locality(&self) -> Summary {
        let mut s = Summary::new();
        for a in &self.per_app {
            s.merge(&a.input_locality);
        }
        s
    }

    /// Merged per-job completion times (seconds).
    pub fn job_completion_secs(&self) -> Summary {
        let mut s = Summary::new();
        for a in &self.per_app {
            s.merge(&a.job_completion_secs);
        }
        s
    }

    /// Merged per-job input-stage durations (seconds).
    pub fn input_stage_secs(&self) -> Summary {
        let mut s = Summary::new();
        for a in &self.per_app {
            s.merge(&a.input_stage_secs);
        }
        s
    }

    /// Merged per-task scheduler delays (seconds).
    pub fn scheduler_delay_secs(&self) -> Summary {
        let mut s = Summary::new();
        for a in &self.per_app {
            s.merge(&a.scheduler_delay_secs);
        }
        s
    }

    /// Merged per-task queueing delays (seconds).
    pub fn queueing_delay_secs(&self) -> Summary {
        let mut s = Summary::new();
        for a in &self.per_app {
            s.merge(&a.queueing_delay_secs);
        }
        s
    }

    /// Per-application local-job fractions — the max-min fairness vector
    /// of Eq. 6.
    pub fn local_job_fractions(&self) -> Vec<f64> {
        self.per_app
            .iter()
            .map(AppMetrics::local_job_fraction)
            .collect()
    }

    /// The minimum local-job fraction across applications (the paper's
    /// fairness objective).
    pub fn min_local_job_fraction(&self) -> f64 {
        self.local_job_fractions()
            .into_iter()
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Overwrite every host-measured field (wall-clock timers, peak RSS)
    /// with `other`'s values. These measure the machine the run happened
    /// on, not the run itself, so tests that compare two runs for
    /// simulation-level equality adopt one side's values before
    /// `assert_eq!`.
    pub fn adopt_host_measurements(&mut self, other: &RunMetrics) {
        self.allocator_wall_secs = other.allocator_wall_secs;
        self.event_pop_wall_secs = other.event_pop_wall_secs;
        self.demand_wall_secs = other.demand_wall_secs;
        self.peak_rss_bytes = other.peak_rss_bytes;
    }
}

/// Peak resident set size of the current process in bytes, read from
/// Linux's `/proc/self/status` `VmHWM` line; 0 on platforms without it.
/// Used for the scale bench's memory column and
/// [`RunMetrics::peak_rss_bytes`].
pub fn peak_rss_bytes() -> u64 {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
                return kb * 1024;
            }
        }
    }
    0
}

/// A finished simulation: configuration label plus metrics.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Human-readable configuration description.
    pub label: String,
    /// The collected metrics.
    pub cluster_metrics: RunMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app_metrics(local: usize, total: usize) -> AppMetrics {
        let mut m = AppMetrics::new(AppId::new(0), "a".into(), WorkloadKind::Sort);
        m.jobs_completed = total;
        m.local_jobs = local;
        for i in 0..total {
            m.input_locality.push(if i < local { 1.0 } else { 0.5 });
            m.job_completion_secs.push(10.0 + i as f64);
        }
        m
    }

    #[test]
    fn local_job_fraction() {
        assert_eq!(app_metrics(2, 4).local_job_fraction(), 0.5);
        assert_eq!(
            AppMetrics::new(AppId::new(0), "x".into(), WorkloadKind::Sort).local_job_fraction(),
            0.0
        );
    }

    #[test]
    fn run_metrics_merge_across_apps() {
        let run = RunMetrics {
            per_app: vec![app_metrics(1, 2), app_metrics(2, 2)],
            jobs_completed: 4,
            makespan: SimTime::from_secs(100),
            allocation_rounds: 10,
            events_processed: 50,
            ..Default::default()
        };
        assert_eq!(run.input_locality().count(), 4);
        assert_eq!(run.job_completion_secs().count(), 4);
        assert_eq!(run.local_job_fractions(), vec![0.5, 1.0]);
        assert_eq!(run.min_local_job_fraction(), 0.5);
    }

    #[test]
    fn min_fraction_of_empty_run_is_capped() {
        let run = RunMetrics::default();
        assert_eq!(run.min_local_job_fraction(), 1.0);
    }
}
