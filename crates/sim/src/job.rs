//! Runtime state of jobs, stages and tasks inside a simulation.
//!
//! A [`RuntimeJob`] is an instantiated
//! [`JobSpec`]: its input dataset exists, its input tasks read the
//! dataset's blocks in order (the job keeps that block list, so each
//! task's replica nodes can be re-resolved through the NameNode), and
//! downstream stage widths are resolved. The DAG unlock logic lives here
//! so it can be tested without the event loop.

use std::sync::Arc;

use custody_dfs::{BlockId, DatasetId, NameNode, NodeId};
use custody_simcore::{SimDuration, SimTime};
use custody_workload::{AppId, JobId, JobSpec, WorkloadKind};

/// Lifecycle of one task. Each state carries exactly what is read while
/// the task is in it. A running task's record describes one attempt, the
/// record-bound one; a speculative clone carries its own launch data in
/// the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting for upstream stages.
    Blocked,
    /// Ready to launch.
    Runnable {
        /// When the task (last) became runnable.
        since: SimTime,
    },
    /// Executing.
    Running {
        /// When the task became runnable.
        since: SimTime,
        /// When the record-bound attempt launched.
        launched_at: SimTime,
        /// The attempt's data-locality (`Some` for input tasks).
        local: Option<bool>,
    },
    /// Finished.
    Done {
        /// The winning attempt's data-locality (`Some` for input tasks).
        local: Option<bool>,
    },
}

/// One task's runtime record.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeTask {
    /// Lifecycle state.
    pub state: TaskState,
    /// Nodes where this task is data-local (input-stage tasks only).
    /// Shared (`Arc`) so building an allocation view every round clones a
    /// pointer, not the replica list.
    pub preferred: Arc<[NodeId]>,
}

impl RuntimeTask {
    fn blocked() -> Self {
        RuntimeTask {
            state: TaskState::Blocked,
            preferred: [].into(),
        }
    }
}

/// A completed job's metrics, as [`RuntimeJob::mark_done`] reports them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCompletion {
    /// Fraction of input tasks launched data-locally.
    pub input_locality: f64,
    /// Submission → last stage finished.
    pub completion_time: SimDuration,
    /// Submission → last input task finished.
    pub input_stage_time: SimDuration,
}

/// One stage's runtime record.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStage {
    /// Stage label.
    pub name: String,
    /// Pure computation per task.
    pub compute_per_task: SimDuration,
    /// Network bytes each task fetches before computing (downstream
    /// stages; zero for the input stage, whose read cost depends on
    /// locality).
    pub shuffle_bytes_per_task: u64,
    /// Upstream stage indices.
    pub deps: Vec<usize>,
    /// Dependencies not yet complete.
    pub deps_remaining: usize,
    /// Task records.
    pub tasks: Vec<RuntimeTask>,
    /// Completed task count.
    pub completed: usize,
    /// Launched task count (running or done).
    pub launched: usize,
    /// When the stage became runnable.
    pub ready_at: Option<SimTime>,
    /// When the stage's last task finished.
    pub finished_at: Option<SimTime>,
}

impl RuntimeStage {
    /// All tasks finished.
    pub fn is_complete(&self) -> bool {
        self.completed == self.tasks.len()
    }

    /// Tasks not yet launched.
    pub fn unlaunched(&self) -> usize {
        self.tasks.len() - self.launched
    }

    fn make_runnable(&mut self, now: SimTime) {
        self.ready_at = Some(now);
        for t in &mut self.tasks {
            debug_assert_eq!(t.state, TaskState::Blocked);
            t.state = TaskState::Runnable { since: now };
        }
    }
}

/// One job's runtime record.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeJob {
    /// Globally unique id.
    pub id: JobId,
    /// Owning application.
    pub app: AppId,
    /// Workload the job belongs to.
    pub workload: WorkloadKind,
    /// Job label.
    pub name: String,
    /// The input dataset.
    pub dataset: DatasetId,
    /// The dataset's blocks in order: input task `i` reads block `i`.
    /// A dataset's block list never changes, only where its replicas
    /// live.
    pub input_blocks: Vec<BlockId>,
    /// Stage records; index 0 is the input stage.
    pub stages: Vec<RuntimeStage>,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time of the last stage.
    pub finished_at: Option<SimTime>,
    /// Whether the job has been credited as fully-locally-launched in the
    /// allocator's accounting (undone if a failure re-queues an input
    /// task).
    pub settled_local: bool,
    /// Transient-fault retries this job has consumed (bounded by the
    /// gray-failure layer's per-job retry budget).
    pub retries: usize,
    /// Whether the job failed cleanly (retry budget exhausted). A failed
    /// job counts as finished — it leaves the system — but contributes no
    /// completion metrics and no demand.
    pub failed: bool,
}

impl RuntimeJob {
    /// Instantiates a job from its spec: binds input tasks to the blocks
    /// of `dataset` (locations resolved through the NameNode — the query
    /// Custody performs at submission), resolves downstream stages, and
    /// marks the input stage runnable at `now`.
    pub fn instantiate(
        id: JobId,
        app: AppId,
        workload: WorkloadKind,
        spec: &JobSpec,
        dataset: DatasetId,
        namenode: &NameNode,
        now: SimTime,
    ) -> Self {
        let input_blocks = namenode.dataset(dataset).blocks.clone();
        let input_tasks: Vec<RuntimeTask> = input_blocks
            .iter()
            .map(|&b| RuntimeTask {
                preferred: namenode.locations(b).into(),
                ..RuntimeTask::blocked()
            })
            .collect();
        let mut stages = vec![RuntimeStage {
            name: "input".into(),
            compute_per_task: spec.input_compute_per_block,
            shuffle_bytes_per_task: 0,
            deps: Vec::new(),
            deps_remaining: 0,
            tasks: input_tasks,
            completed: 0,
            launched: 0,
            ready_at: None,
            finished_at: None,
        }];
        for resolved in spec.resolve_stages(input_blocks.len()) {
            stages.push(RuntimeStage {
                name: resolved.name,
                compute_per_task: resolved.compute_per_task,
                shuffle_bytes_per_task: resolved.shuffle_bytes_per_task,
                deps_remaining: resolved.deps.len(),
                deps: resolved.deps,
                tasks: (0..resolved.num_tasks)
                    .map(|_| RuntimeTask::blocked())
                    .collect(),
                completed: 0,
                launched: 0,
                ready_at: None,
                finished_at: None,
            });
        }
        stages[0].make_runnable(now);
        RuntimeJob {
            id,
            app,
            workload,
            name: spec.name.clone(),
            dataset,
            input_blocks,
            stages,
            submitted_at: now,
            finished_at: None,
            settled_local: false,
            retries: 0,
            failed: false,
        }
    }

    /// True when the job has left the system: every stage completed, or
    /// the job failed cleanly.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// The input (map) stage.
    pub fn input_stage(&self) -> &RuntimeStage {
        &self.stages[0]
    }

    /// Number of input tasks (µ for single-job analysis, τ contribution).
    pub fn num_input_tasks(&self) -> usize {
        self.stages[0].tasks.len()
    }

    /// Input tasks whose launch was data-local.
    pub fn local_input_tasks(&self) -> usize {
        self.stages[0]
            .tasks
            .iter()
            .filter(|t| {
                matches!(
                    t.state,
                    TaskState::Running {
                        local: Some(true),
                        ..
                    } | TaskState::Done { local: Some(true) }
                )
            })
            .count()
    }

    /// Tasks not yet launched across currently runnable stages — the
    /// job's immediate executor demand. A failed job demands nothing.
    pub fn pending_tasks(&self) -> usize {
        if self.failed {
            return 0;
        }
        self.stages
            .iter()
            .filter(|s| s.ready_at.is_some() && !s.is_complete())
            .map(RuntimeStage::unlaunched)
            .sum()
    }

    /// Fails the job cleanly: it leaves the system at `now` with whatever
    /// task state it has (running attempts must already have been killed
    /// or re-queued by the caller), demanding no further executors.
    pub fn mark_failed(&mut self, now: SimTime) {
        assert!(!self.is_finished(), "failing a job that already finished");
        self.failed = true;
        self.finished_at = Some(now);
    }

    /// Marks a runnable task launched at `now` with launch locality
    /// `local`, returning when it became runnable; `Err` with the task's
    /// state, unchanged, if it was not runnable.
    pub fn mark_launched(
        &mut self,
        stage: usize,
        task: usize,
        now: SimTime,
        local: Option<bool>,
    ) -> Result<SimTime, TaskState> {
        let t = &mut self.stages[stage].tasks[task];
        let TaskState::Runnable { since } = t.state else {
            return Err(t.state);
        };
        t.state = TaskState::Running {
            since,
            launched_at: now,
            local,
        };
        self.stages[stage].launched += 1;
        Ok(since)
    }

    /// Marks a running task done, returning when it became runnable and,
    /// when it was the job's last task, the job's metrics. Unlocks
    /// dependent stages whose dependencies all completed, making their
    /// tasks runnable at `now`, and sets `finished_at` when the job
    /// completes. `Err` with the task's state, unchanged, if it was not
    /// running.
    pub fn mark_done(
        &mut self,
        stage: usize,
        task: usize,
        now: SimTime,
    ) -> Result<(SimTime, Option<JobCompletion>), TaskState> {
        let t = &mut self.stages[stage].tasks[task];
        let TaskState::Running { since, local, .. } = t.state else {
            return Err(t.state);
        };
        t.state = TaskState::Done { local };
        self.stages[stage].completed += 1;
        let mut job = None;
        if self.stages[stage].is_complete() {
            self.stages[stage].finished_at = Some(now);
            for i in 0..self.stages.len() {
                if self.stages[i].ready_at.is_none() && self.stages[i].deps.contains(&stage) {
                    self.stages[i].deps_remaining -= 1;
                    if self.stages[i].deps_remaining == 0 {
                        self.stages[i].make_runnable(now);
                    }
                }
            }
            // The job is done once every stage has a finish time (the
            // input stage was ready at submission).
            let all_done = self.stages.iter().all(|s| s.finished_at.is_some());
            if let Some(input_done) = self.stages[0].finished_at.filter(|_| all_done) {
                self.finished_at = Some(now);
                job = Some(JobCompletion {
                    input_locality: self.local_input_tasks() as f64
                        / self.num_input_tasks().max(1) as f64,
                    completion_time: now.saturating_since(self.submitted_at),
                    input_stage_time: input_done.saturating_since(self.submitted_at),
                });
            }
        }
        Ok((since, job))
    }

    /// Re-queues a running task after its executor died: the task becomes
    /// runnable again at `now` with a fresh locality slate. Returns
    /// whether the killed attempt had been counted data-local; `Err` with
    /// the task's state, unchanged, if it was not running.
    pub fn mark_requeued(
        &mut self,
        stage: usize,
        task: usize,
        now: SimTime,
    ) -> Result<bool, TaskState> {
        let t = &mut self.stages[stage].tasks[task];
        let TaskState::Running { local, .. } = t.state else {
            return Err(t.state);
        };
        t.state = TaskState::Runnable { since: now };
        self.stages[stage].launched -= 1;
        Ok(local == Some(true))
    }

    /// Re-resolves one input task's preferred nodes from the NameNode.
    /// Returns whether the list changed.
    pub fn refresh_task_preferred(&mut self, task: usize, namenode: &NameNode) -> bool {
        let fresh = namenode.locations(self.input_blocks[task]);
        let t = &mut self.stages[0].tasks[task];
        let changed = t.preferred[..] != fresh[..];
        if changed {
            t.preferred = fresh.into();
        }
        changed
    }

    /// Refreshes unlaunched input tasks' preferred nodes from the
    /// NameNode — after a failure changes replica locations, they should
    /// chase the surviving/new replicas (what Spark does on the next
    /// scheduling round). Returns whether any task's preferred list
    /// actually changed, so the caller can dirty exactly the affected
    /// demand-cache entries.
    pub fn refresh_preferred(&mut self, namenode: &NameNode) -> bool {
        let mut changed = false;
        for task in 0..self.num_input_tasks() {
            if matches!(
                self.stages[0].tasks[task].state,
                TaskState::Blocked | TaskState::Runnable { .. }
            ) {
                changed |= self.refresh_task_preferred(task, namenode);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use custody_dfs::{RoundRobinPlacement, DEFAULT_BLOCK_SIZE};
    use custody_simcore::SimRng;
    use custody_workload::{ShuffleVolume, StageSpec, StageWidth};

    fn setup() -> (NameNode, DatasetId) {
        let mut nn = NameNode::new(4, 1 << 40, 1);
        let mut rng = SimRng::seed_from_u64(0);
        let ds = nn.create_dataset(
            "d",
            2 * DEFAULT_BLOCK_SIZE,
            DEFAULT_BLOCK_SIZE,
            &mut RoundRobinPlacement::default(),
            &mut rng,
        );
        (nn, ds)
    }

    fn two_stage_spec() -> JobSpec {
        JobSpec {
            name: "test".into(),
            input_bytes: 2 * DEFAULT_BLOCK_SIZE,
            input_compute_per_block: SimDuration::from_secs(1),
            downstream: vec![StageSpec {
                name: "reduce".into(),
                width: StageWidth::Fixed(1),
                compute_per_task: SimDuration::from_secs(1),
                shuffle: ShuffleVolume::PerTaskBytes(100),
                deps: vec![0],
            }],
        }
    }

    fn job() -> RuntimeJob {
        let (nn, ds) = setup();
        RuntimeJob::instantiate(
            JobId::new(0),
            AppId::new(0),
            WorkloadKind::WordCount,
            &two_stage_spec(),
            ds,
            &nn,
            SimTime::from_secs(10),
        )
    }

    fn runnable(secs: u64) -> TaskState {
        TaskState::Runnable {
            since: SimTime::from_secs(secs),
        }
    }

    #[test]
    fn instantiation_binds_blocks_and_locations() {
        let j = job();
        assert_eq!(j.num_input_tasks(), 2);
        assert_eq!(j.input_blocks.len(), 2);
        assert_eq!(j.stages.len(), 2);
        let t0 = &j.stages[0].tasks[0];
        assert_eq!(t0.state, runnable(10));
        assert_eq!(t0.preferred[..], [NodeId::new(0)]);
        assert_eq!(j.stages[0].tasks[1].preferred[..], [NodeId::new(1)]);
        assert_eq!(j.stages[1].tasks.len(), 1);
        assert_eq!(j.stages[1].tasks[0].state, TaskState::Blocked);
        assert_eq!(j.pending_tasks(), 2, "only the input stage is runnable");
    }

    #[test]
    fn launch_and_finish_lifecycle() {
        let mut j = job();
        let t = SimTime::from_secs;
        assert_eq!(j.mark_launched(0, 0, t(12), Some(true)), Ok(t(10)));
        assert_eq!(
            j.stages[0].tasks[0].state,
            TaskState::Running {
                since: t(10),
                launched_at: t(12),
                local: Some(true)
            }
        );
        assert_eq!(j.pending_tasks(), 1);
        assert_eq!(j.mark_done(0, 0, t(13)), Ok((t(10), None)), "job not done");
        assert_eq!(
            j.stages[0].tasks[0].state,
            TaskState::Done { local: Some(true) }
        );
        assert_eq!(j.stages[1].ready_at, None, "stage not complete yet");
        j.mark_launched(0, 1, t(13), Some(false)).unwrap();
        assert_eq!(j.mark_done(0, 1, t(14)), Ok((t(10), None)));
        assert_eq!(j.stages[1].tasks[0].state, runnable(14), "reduce unlocked");
        assert_eq!(j.stages[1].ready_at, Some(t(14)));
        assert_eq!(j.pending_tasks(), 1);
        assert_eq!(j.local_input_tasks(), 1);
        assert!(!j.is_finished());
        j.mark_launched(1, 0, t(14), None).unwrap();
        let (_, done) = j.mark_done(1, 0, t(15)).unwrap();
        assert!(j.is_finished());
        assert_eq!(
            done,
            Some(JobCompletion {
                input_locality: 0.5,
                completion_time: SimDuration::from_secs(5),
                input_stage_time: SimDuration::from_secs(4),
            })
        );
    }

    #[test]
    fn local_input_tasks_count_local_launches() {
        let mut j = job();
        let t = SimTime::from_secs(10);
        assert_eq!(j.local_input_tasks(), 0);
        j.mark_launched(0, 0, t, Some(true)).unwrap();
        j.mark_launched(0, 1, t, Some(false)).unwrap();
        assert_eq!(j.local_input_tasks(), 1);
        j.mark_done(0, 0, t).unwrap();
        assert_eq!(
            j.local_input_tasks(),
            1,
            "a finished task keeps its locality"
        );
        j.mark_requeued(0, 1, t).unwrap();
        assert_eq!(j.local_input_tasks(), 1);
    }

    /// A transition from the wrong state is refused and leaves the
    /// record untouched.
    #[test]
    fn transitions_from_the_wrong_state_are_refused() {
        let mut j = job();
        let t = SimTime::from_secs(10);
        assert_eq!(j.mark_done(0, 0, t), Err(runnable(10)));
        assert_eq!(j.mark_requeued(0, 0, t), Err(runnable(10)));
        assert_eq!(j.mark_launched(1, 0, t, None), Err(TaskState::Blocked));
        j.mark_launched(0, 0, t, Some(true)).unwrap();
        let running = j.stages[0].tasks[0].state;
        assert_eq!(j.mark_launched(0, 0, t, Some(true)), Err(running));
        assert_eq!(j.stages[0].launched, 1);
        j.mark_done(0, 0, t).unwrap();
        let done = TaskState::Done { local: Some(true) };
        assert_eq!(j.mark_done(0, 0, t), Err(done));
        assert_eq!(j.mark_requeued(0, 0, t), Err(done));
        assert_eq!(j.stages[0].completed, 1);
    }

    #[test]
    fn requeue_resets_task_and_reports_locality() {
        let mut j = job();
        j.mark_launched(0, 0, SimTime::from_secs(11), Some(true))
            .unwrap();
        assert_eq!(j.stages[0].launched, 1);
        assert_eq!(j.mark_requeued(0, 0, SimTime::from_secs(12)), Ok(true));
        assert_eq!(j.stages[0].launched, 0);
        let t = &j.stages[0].tasks[0];
        assert_eq!(t.state, runnable(12));
        // Relaunch non-locally this time.
        let since = j.mark_launched(0, 0, SimTime::from_secs(13), Some(false));
        assert_eq!(since, Ok(SimTime::from_secs(12)));
        assert_eq!(j.mark_requeued(0, 0, SimTime::from_secs(14)), Ok(false));
    }

    #[test]
    fn failed_job_is_finished_and_demands_nothing() {
        let mut j = job();
        assert_eq!(j.pending_tasks(), 2);
        j.mark_failed(SimTime::from_secs(20));
        assert!(j.failed);
        assert!(j.is_finished());
        assert_eq!(j.pending_tasks(), 0, "failed jobs leave the demand pool");
        assert_eq!(j.finished_at, Some(SimTime::from_secs(20)));
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn failing_a_finished_job_panics() {
        let mut j = job();
        let t = SimTime::from_secs(11);
        j.mark_launched(0, 0, t, Some(true)).unwrap();
        j.mark_launched(0, 1, t, Some(true)).unwrap();
        j.mark_done(0, 0, t).unwrap();
        j.mark_done(0, 1, t).unwrap();
        j.mark_launched(1, 0, t, None).unwrap();
        j.mark_done(1, 0, t).unwrap();
        assert!(j.is_finished());
        j.mark_failed(SimTime::from_secs(12));
    }

    #[test]
    fn refresh_preferred_follows_namenode() {
        let (mut nn, ds) = setup();
        let mut j = RuntimeJob::instantiate(
            JobId::new(0),
            AppId::new(0),
            WorkloadKind::WordCount,
            &two_stage_spec(),
            ds,
            &nn,
            SimTime::ZERO,
        );
        let b = j.input_blocks[0];
        assert_eq!(b, nn.dataset(ds).blocks[0]);
        assert!(!j.refresh_preferred(&nn), "nothing moved yet");
        assert!(nn.add_replica(b, NodeId::new(3)));
        assert!(j.refresh_preferred(&nn), "task 0 gained a replica");
        assert_eq!(
            j.stages[0].tasks[0].preferred[..],
            [NodeId::new(0), NodeId::new(3)]
        );
        // Launched tasks keep their snapshot.
        j.mark_launched(0, 1, SimTime::ZERO, Some(true)).unwrap();
        let before = j.stages[0].tasks[1].preferred.clone();
        assert!(!j.refresh_preferred(&nn), "no further changes");
        assert_eq!(j.stages[0].tasks[1].preferred, before);
    }

    #[test]
    fn diamond_dag_unlocks_once() {
        let (nn, ds) = setup();
        let spec = JobSpec {
            name: "diamond".into(),
            input_bytes: 2 * DEFAULT_BLOCK_SIZE,
            input_compute_per_block: SimDuration::ZERO,
            downstream: vec![
                StageSpec {
                    name: "a".into(),
                    width: StageWidth::Fixed(1),
                    compute_per_task: SimDuration::ZERO,
                    shuffle: ShuffleVolume::PerTaskBytes(0),
                    deps: vec![0],
                },
                StageSpec {
                    name: "b".into(),
                    width: StageWidth::Fixed(1),
                    compute_per_task: SimDuration::ZERO,
                    shuffle: ShuffleVolume::PerTaskBytes(0),
                    deps: vec![0],
                },
                StageSpec {
                    name: "join".into(),
                    width: StageWidth::Fixed(1),
                    compute_per_task: SimDuration::ZERO,
                    shuffle: ShuffleVolume::PerTaskBytes(0),
                    deps: vec![1, 2],
                },
            ],
        };
        let mut j = RuntimeJob::instantiate(
            JobId::new(1),
            AppId::new(0),
            WorkloadKind::Sort,
            &spec,
            ds,
            &nn,
            SimTime::ZERO,
        );
        let t = SimTime::from_secs(1);
        let ready = |j: &RuntimeJob| -> Vec<bool> {
            j.stages.iter().map(|s| s.ready_at.is_some()).collect()
        };
        j.mark_launched(0, 0, t, Some(true)).unwrap();
        j.mark_launched(0, 1, t, Some(true)).unwrap();
        j.mark_done(0, 0, t).unwrap();
        assert_eq!(ready(&j), [true, false, false, false]);
        j.mark_done(0, 1, t).unwrap();
        assert_eq!(ready(&j), [true, true, true, false], "both branches unlock");
        j.mark_launched(1, 0, t, None).unwrap();
        j.mark_done(1, 0, t).unwrap();
        assert_eq!(ready(&j), [true, true, true, false], "join still blocked");
        j.mark_launched(2, 0, t, None).unwrap();
        j.mark_done(2, 0, t).unwrap();
        assert_eq!(j.stages[3].deps_remaining, 0, "join unlocked exactly once");
        assert_eq!(j.stages[3].tasks[0].state, TaskState::Runnable { since: t });
        assert!(!j.is_finished());
        j.mark_launched(3, 0, t, None).unwrap();
        assert!(j.mark_done(3, 0, t).unwrap().1.is_some());
        assert!(j.is_finished());
    }
}
