//! Locality-oblivious FIFO scheduling.
//!
//! Launches the earliest-runnable task (ties broken by job, stage, then
//! index) on whatever executor is offered, never waiting for locality. A
//! launch is reported local only when the offered node happens to hold
//! the task's input, so the locality a FIFO run shows is what the
//! executor allocation alone placed.

use custody_dfs::NodeId;
use custody_simcore::SimTime;

use crate::{Placement, RunnableTask, TaskScheduler};

/// Pure FIFO task scheduling.
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler {
    _private: (),
}

impl FifoScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TaskScheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn on_offer(&mut self, node: NodeId, runnable: &[RunnableTask], _now: SimTime) -> Placement {
        match runnable
            .iter()
            .min_by_key(|t| (t.runnable_since, t.job, t.stage, t.task_index))
        {
            None => Placement::NoWork,
            Some(task) => Placement::Launch {
                job: task.job,
                stage: task.stage,
                task_index: task.task_index,
                local: task.local_on(node),
            },
        }
    }

    fn clone_box(&self) -> Box<dyn TaskScheduler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use custody_workload::JobId;

    fn task(job: usize, idx: usize, nodes: &[usize], since: u64) -> RunnableTask {
        RunnableTask {
            job: JobId::new(job),
            stage: 0,
            task_index: idx,
            preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            runnable_since: SimTime::from_secs(since),
        }
    }

    #[test]
    fn launches_earliest_regardless_of_locality() {
        let mut s = FifoScheduler::new();
        // The earlier task is non-local; FIFO takes it anyway.
        let tasks = vec![task(0, 0, &[9], 0), task(0, 1, &[0], 1)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(2));
        assert_eq!(
            p,
            Placement::Launch {
                job: JobId::new(0),
                stage: 0,
                task_index: 0,
                local: false
            }
        );
    }

    #[test]
    fn reports_accidental_locality() {
        let mut s = FifoScheduler::new();
        let tasks = vec![task(0, 0, &[0], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::ZERO);
        assert!(matches!(p, Placement::Launch { local: true, .. }));
    }

    #[test]
    fn no_work_when_empty() {
        let mut s = FifoScheduler::new();
        assert_eq!(
            s.on_offer(NodeId::new(0), &[], SimTime::ZERO),
            Placement::NoWork
        );
    }

    #[test]
    fn never_declines() {
        let mut s = FifoScheduler::new();
        let tasks = vec![task(0, 0, &[5], 100)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(100));
        assert!(matches!(p, Placement::Launch { .. }));
    }
}
