#![warn(missing_docs)]

//! # custody-scheduler
//!
//! In-application task schedulers.
//!
//! Custody allocates *executors to applications*; each application's own
//! task scheduler then places *tasks on executors*. "In our experiments,
//! all the applications use the standard delay scheduling of Spark to
//! accept resource offers and schedule tasks" (§V) — so this crate
//! implements delay scheduling \[22\] plus a locality-oblivious policy:
//!
//! * [`DelayScheduler`] — a task set declines non-local slots until it
//!   has waited past a threshold, then runs anywhere. A zero threshold
//!   prefers local slots but never waits.
//! * [`FifoScheduler`] — launches the earliest-runnable task on whatever
//!   executor is offered, never waiting for locality.
//!
//! The interface is offer-based like Spark/Mesos: the runtime offers one
//! free executor (identified by its host node) to the scheduler, which
//! either launches a runnable task or declines, optionally asking to be
//! re-offered after a wait. A decline holds until that wait ends. The
//! runtime tells the scheduler when a job finishes or fails, so, like
//! Spark dropping a finished `TaskSetManager`, it keeps state only for
//! running jobs.
//!
//! [`speculation`] implements the straggler-mitigation extension the paper
//! points to (§IV-B: "we can further utilize existing straggler mitigation
//! schemes").

pub mod delay;
pub mod fifo;
pub mod retry;
pub mod speculation;

pub use delay::DelayScheduler;
pub use fifo::FifoScheduler;
pub use retry::RetryPolicy;

use custody_dfs::NodeId;
use custody_simcore::{SimDuration, SimTime};
use custody_workload::JobId;

/// A task the application could launch right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnableTask {
    /// Owning job.
    pub job: JobId,
    /// Stage index within the job (0 = input stage).
    pub stage: usize,
    /// Task index within the stage.
    pub task_index: usize,
    /// Nodes where this task would be data-local. Empty for downstream
    /// tasks, which have no meaningful locality preference.
    /// Shared handle into the runtime's per-task state — cloning a
    /// `RunnableTask` never deep-copies the node list.
    pub preferred_nodes: std::sync::Arc<[NodeId]>,
    /// When the task became runnable (starts the delay-scheduling clock).
    pub runnable_since: SimTime,
}

impl RunnableTask {
    /// True for input tasks with a data-locality preference.
    pub fn has_preference(&self) -> bool {
        !self.preferred_nodes.is_empty()
    }

    /// Whether running on `node` would be data-local.
    pub fn local_on(&self, node: NodeId) -> bool {
        self.preferred_nodes.contains(&node)
    }
}

/// The scheduler's verdict on one executor offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Launch this task on the offered executor.
    Launch {
        /// Owning job.
        job: JobId,
        /// Stage index.
        stage: usize,
        /// Task index within the stage.
        task_index: usize,
        /// Whether the placement is data-local (always `false` for tasks
        /// without preferences).
        local: bool,
    },
    /// Decline the offer; re-offer no earlier than `retry_after` from now
    /// (a task is still hoping for a local slot).
    Decline {
        /// Minimum wait before the next offer can succeed non-locally.
        retry_after: SimDuration,
    },
    /// Nothing runnable.
    NoWork,
}

/// An application-level task scheduler; `Debug` dumps its whole state.
pub trait TaskScheduler: std::fmt::Debug {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Offers a free executor on `node` at time `now`; `runnable` lists
    /// the tasks that could launch. Each task set — one (job, stage) — is
    /// one contiguous run of `runnable`, its tasks in ascending index.
    /// Returns [`Placement::NoWork`] exactly when `runnable` is empty.
    ///
    /// After `Decline { retry_after }` at `now`, the same `node` and
    /// `runnable` offered at any `t < now + retry_after` decline again with
    /// the same deadline and leave the scheduler unchanged.
    /// [`FifoScheduler`] never declines. The simulation driver relies on
    /// this: it does not make an offer its decline memo answers, and its
    /// auditor re-makes each such offer on a copy of the scheduler.
    fn on_offer(&mut self, node: NodeId, runnable: &[RunnableTask], now: SimTime) -> Placement;

    /// Notice that `job` finished or failed: none of its tasks will be
    /// offered again, so state kept for it can go.
    fn on_job_end(&mut self, _job: JobId) {}

    /// Deep-copies the scheduler, internal state included. Master
    /// checkpointing snapshots each application's scheduler so replayed
    /// offers reproduce the exact same placements.
    fn clone_box(&self) -> Box<dyn TaskScheduler>;
}

impl Clone for Box<dyn TaskScheduler> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Which task scheduler an application runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Delay scheduling with the given wait threshold; zero prefers
    /// local slots but never waits.
    Delay(SimDuration),
    /// Locality-oblivious FIFO.
    Fifo,
}

impl SchedulerKind {
    /// The paper's configuration: delay scheduling with Spark's default
    /// 3-second locality wait.
    pub fn spark_default() -> Self {
        SchedulerKind::Delay(SimDuration::from_secs(3))
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Delay(_) => "delay",
            SchedulerKind::Fifo => "fifo",
        }
    }

    /// Instantiates the scheduler.
    pub fn build(self) -> Box<dyn TaskScheduler> {
        match self {
            SchedulerKind::Delay(wait) => Box::new(DelayScheduler::new(wait)),
            SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runnable_task_preference_queries() {
        let t = RunnableTask {
            job: JobId::new(0),
            stage: 0,
            task_index: 0,
            preferred_nodes: [NodeId::new(2), NodeId::new(5)].into(),
            runnable_since: SimTime::ZERO,
        };
        assert!(t.has_preference());
        assert!(t.local_on(NodeId::new(5)));
        assert!(!t.local_on(NodeId::new(3)));
        let d = RunnableTask {
            preferred_nodes: [].into(),
            ..t
        };
        assert!(!d.has_preference());
        assert!(!d.local_on(NodeId::new(2)));
    }

    #[test]
    fn kinds_build() {
        assert_eq!(SchedulerKind::spark_default().name(), "delay");
        assert_eq!(SchedulerKind::Fifo.build().name(), "fifo");
    }
}
