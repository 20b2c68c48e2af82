//! Delay scheduling (Zaharia et al., EuroSys 2010 — the paper's \[22\]),
//! implemented the way Spark's `TaskSetManager` actually does it.
//!
//! The locality-wait clock is **per task set** (one job stage), not per
//! task. Each set starts at the `NODE_LOCAL` level; when the set has gone
//! longer than the wait threshold without launching a local task, it
//! *downgrades* to `ANY` and its remaining tasks accept whatever executor
//! is offered. A local launch resets the set back to `NODE_LOCAL`. This
//! cascade is why a single unlucky stall can send a burst of tasks
//! non-local — the per-job locality variance visible in the paper's
//! Fig. 7 ("some jobs only have less than 35 % of local tasks").
//!
//! A set is one contiguous run of the runnable list (the
//! [`TaskScheduler::on_offer`] contract), so an offer walks the runs as
//! they are listed and never regroups the list. Sets are served in FIFO
//! order of their oldest task (earliest `runnable_since`, then lowest
//! index), ties broken by job id, then stage.
//!
//! Offer handling, in Spark's order:
//!
//! 1. A data-local task (earliest set first, FIFO within a set) launches
//!    immediately and resets its set's clock and level.
//! 2. A preference-free task (downstream stages) launches immediately —
//!    waiting buys nothing.
//! 3. Otherwise only non-local placements remain: the earliest set whose
//!    clock has expired launches its oldest task at `ANY`; if every set is
//!    still within its wait, the offer is declined with the time until the
//!    earliest expiry.

use std::collections::BTreeMap;

use custody_dfs::NodeId;
use custody_simcore::{SimDuration, SimTime};
use custody_workload::JobId;

use crate::{Placement, RunnableTask, TaskScheduler};

/// Per-task-set delay-scheduling state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SetState {
    /// Last time the set launched a local task (or was first seen).
    clock_start: SimTime,
    /// Whether the set has downgraded to the `ANY` level.
    allow_any: bool,
}

/// Delay scheduling with a fixed locality-wait threshold.
///
/// ```
/// use custody_scheduler::{DelayScheduler, Placement, RunnableTask, TaskScheduler};
/// use custody_dfs::NodeId;
/// use custody_simcore::{SimDuration, SimTime};
/// use custody_workload::JobId;
///
/// let mut sched = DelayScheduler::new(SimDuration::from_secs(3));
/// let task = RunnableTask {
///     job: JobId::new(0), stage: 0, task_index: 0,
///     preferred_nodes: [NodeId::new(5)].into(),
///     runnable_since: SimTime::ZERO,
/// };
/// // Offered the wrong node early: the task holds out for locality.
/// let p = sched.on_offer(NodeId::new(1), &[task.clone()], SimTime::from_secs(1));
/// assert!(matches!(p, Placement::Decline { .. }));
/// // Offered its preferred node: immediate local launch.
/// let p = sched.on_offer(NodeId::new(5), &[task], SimTime::from_secs(1));
/// assert!(matches!(p, Placement::Launch { local: true, .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DelayScheduler {
    wait_threshold: SimDuration,
    /// The offered sets of running jobs; a job's sets go when it ends.
    sets: BTreeMap<(JobId, usize), SetState>,
}

impl DelayScheduler {
    /// Creates the scheduler. A zero threshold yields locality-first
    /// behaviour (prefer local, never wait).
    pub fn new(wait_threshold: SimDuration) -> Self {
        DelayScheduler {
            wait_threshold,
            sets: BTreeMap::new(),
        }
    }

    fn set_state(&mut self, key: (JobId, usize), first_runnable: SimTime) -> &mut SetState {
        self.sets.entry(key).or_insert(SetState {
            clock_start: first_runnable,
            allow_any: false,
        })
    }
}

fn launch(task: &RunnableTask, local: bool) -> Placement {
    Placement::Launch {
        job: task.job,
        stage: task.stage,
        task_index: task.task_index,
        local,
    }
}

/// A task set's key: its (job, stage).
fn set_key(task: &RunnableTask) -> (JobId, usize) {
    (task.job, task.stage)
}

/// The oldest task of a run: earliest `runnable_since`, then lowest index.
fn oldest<'a>(tasks: impl Iterator<Item = &'a RunnableTask>) -> Option<&'a RunnableTask> {
    tasks.min_by_key(|t| (t.runnable_since, t.task_index))
}

impl TaskScheduler for DelayScheduler {
    fn name(&self) -> &'static str {
        "delay"
    }

    fn on_offer(&mut self, node: NodeId, runnable: &[RunnableTask], now: SimTime) -> Placement {
        let mut sets: Vec<(&RunnableTask, &[RunnableTask])> = runnable
            .chunk_by(|a, b| set_key(a) == set_key(b))
            // A chunk is never empty, so every run keeps its oldest task.
            .filter_map(|run| Some((oldest(run.iter())?, run)))
            .collect();
        sets.sort_unstable_by_key(|&(first, _)| (first.runnable_since, first.job, first.stage));
        debug_assert!(
            sets.iter()
                .enumerate()
                .all(|(i, &(a, _))| sets[..i].iter().all(|&(b, _)| set_key(a) != set_key(b))),
            "a task set spans two runs of the runnable list"
        );

        // 1. Local task: earliest set first, FIFO within the set. A local
        //    launch resets the set's clock and level.
        for &(_, run) in &sets {
            if let Some(task) = oldest(run.iter().filter(|t| t.local_on(node))) {
                let state = self.set_state(set_key(task), task.runnable_since);
                state.clock_start = now;
                state.allow_any = false;
                return launch(task, true);
            }
        }

        // 2. Preference-free task (no locality to wait for).
        if let Some(task) = runnable
            .iter()
            .filter(|t| !t.has_preference())
            .min_by_key(|t| (t.runnable_since, t.job, t.stage, t.task_index))
        {
            return launch(task, false);
        }

        // 3. Non-local placements: the first expired set launches its
        //    oldest task, others wait. Every set reaching the end recorded
        //    its expiry, so only an empty list finds none.
        let mut retry_after: Option<SimDuration> = None;
        for (first, _) in sets {
            let threshold = self.wait_threshold;
            let state = self.set_state(set_key(first), first.runnable_since);
            if !state.allow_any {
                let waited = now.saturating_since(state.clock_start);
                if waited < threshold {
                    let remaining = threshold - waited;
                    retry_after = Some(retry_after.map_or(remaining, |r| r.min(remaining)));
                    continue;
                }
                state.allow_any = true;
            }
            return launch(first, false);
        }
        retry_after.map_or(Placement::NoWork, |retry_after| Placement::Decline {
            retry_after,
        })
    }

    fn on_job_end(&mut self, job: JobId) {
        self.sets.retain(|&(j, _), _| j != job);
    }

    fn clone_box(&self) -> Box<dyn TaskScheduler> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(
        job: usize,
        stage: usize,
        idx: usize,
        nodes: &[usize],
        since_secs: u64,
    ) -> RunnableTask {
        RunnableTask {
            job: JobId::new(job),
            stage,
            task_index: idx,
            preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
            runnable_since: SimTime::from_secs(since_secs),
        }
    }

    fn sched() -> DelayScheduler {
        DelayScheduler::new(SimDuration::from_secs(3))
    }

    #[test]
    fn empty_is_no_work() {
        let mut s = sched();
        assert_eq!(
            s.on_offer(NodeId::new(0), &[], SimTime::ZERO),
            Placement::NoWork
        );
    }

    #[test]
    fn local_task_launches_immediately() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0), task(0, 0, 1, &[0], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(1));
        assert_eq!(
            p,
            Placement::Launch {
                job: JobId::new(0),
                stage: 0,
                task_index: 1,
                local: true
            }
        );
    }

    #[test]
    fn earlier_set_wins_local_slot() {
        let mut s = sched();
        let tasks = vec![task(1, 0, 0, &[0], 5), task(0, 0, 1, &[0], 2)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(6));
        assert!(matches!(
            p,
            Placement::Launch { job, local: true, .. } if job == JobId::new(0)
        ));
    }

    #[test]
    fn preference_free_task_fills_nonlocal_slot() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0), task(0, 1, 1, &[], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::ZERO);
        assert_eq!(
            p,
            Placement::Launch {
                job: JobId::new(0),
                stage: 1,
                task_index: 1,
                local: false
            }
        );
    }

    #[test]
    fn declines_within_threshold() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(1));
        assert_eq!(
            p,
            Placement::Decline {
                retry_after: SimDuration::from_secs(2)
            }
        );
    }

    #[test]
    fn downgrades_after_threshold() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(3));
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
    fn downgrade_cascades_across_the_set() {
        let mut s = sched();
        let tasks: Vec<RunnableTask> = (0..4).map(|i| task(0, 0, i, &[9], 0)).collect();
        // First non-local launch needed a 3s wait...
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(3));
        assert!(matches!(
            p,
            Placement::Launch {
                task_index: 0,
                local: false,
                ..
            }
        ));
        // ...but the rest of the set launches anywhere immediately.
        let p = s.on_offer(NodeId::new(1), &tasks[1..], SimTime::from_secs(3));
        assert!(matches!(
            p,
            Placement::Launch {
                task_index: 1,
                local: false,
                ..
            }
        ));
    }

    #[test]
    fn local_launch_resets_the_level() {
        let mut s = sched();
        let tasks: Vec<RunnableTask> = vec![task(0, 0, 0, &[0], 0), task(0, 0, 1, &[9], 0)];
        // Downgrade the set.
        let p = s.on_offer(NodeId::new(5), &tasks, SimTime::from_secs(3));
        assert!(matches!(p, Placement::Launch { local: false, .. }));
        // A local launch for task 0 resets the clock...
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(3));
        assert!(matches!(
            p,
            Placement::Launch {
                task_index: 0,
                local: true,
                ..
            }
        ));
        // ...so the remaining non-local task must wait a fresh 3 s.
        let p = s.on_offer(NodeId::new(5), &tasks[1..], SimTime::from_secs(4));
        assert_eq!(
            p,
            Placement::Decline {
                retry_after: SimDuration::from_secs(2)
            }
        );
    }

    #[test]
    fn zero_threshold_never_declines() {
        let mut s = DelayScheduler::new(SimDuration::ZERO);
        let tasks = vec![task(0, 0, 0, &[1], 10)];
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(10));
        assert!(matches!(p, Placement::Launch { local: false, .. }));
    }

    #[test]
    fn independent_sets_have_independent_clocks() {
        let mut s = sched();
        // Set (job 0) runnable at t=0; set (job 1) at t=4.
        let tasks = vec![task(0, 0, 0, &[9], 0), task(1, 0, 0, &[9], 4)];
        // At t=3.5 job 0's set expired, job 1's did not.
        let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_millis(3_500));
        assert!(matches!(p, Placement::Launch { job, .. } if job == JobId::new(0)));
        let p = s.on_offer(NodeId::new(0), &tasks[1..], SimTime::from_millis(3_600));
        assert!(matches!(p, Placement::Decline { .. }));
    }

    #[test]
    fn job_end_drops_exactly_that_jobs_sets() {
        let mut s = sched();
        let tasks = vec![
            task(0, 0, 0, &[9], 0),
            task(0, 1, 0, &[9], 0),
            task(1, 0, 0, &[5], 1),
            task(1, 0, 1, &[9], 1),
        ];
        // A local launch restarts job 1's clock at 2 s; then every set
        // declines a non-local offer.
        let p = s.on_offer(NodeId::new(5), &tasks, SimTime::from_secs(2));
        assert!(matches!(p, Placement::Launch { job, local: true, .. } if job == JobId::new(1)));
        let p = s.on_offer(
            NodeId::new(0),
            &[&tasks[..2], &tasks[3..]].concat(),
            SimTime::from_secs(2),
        );
        assert_eq!(
            p,
            Placement::Decline {
                retry_after: SimDuration::from_secs(1)
            }
        );
        s.on_job_end(JobId::new(0));
        assert_eq!(
            s.sets.keys().copied().collect::<Vec<_>>(),
            [(JobId::new(1), 0)]
        );
        // Job 1's set still counts from 2 s, not from its tasks' 1 s.
        let p = s.on_offer(NodeId::new(0), &tasks[3..], SimTime::from_millis(3_500));
        assert_eq!(
            p,
            Placement::Decline {
                retry_after: SimDuration::from_millis(1_500)
            }
        );
    }

    #[test]
    fn retry_after_counts_down() {
        let mut s = sched();
        let tasks = vec![task(0, 0, 0, &[1], 0)];
        for (now_ms, expect_ms) in [(0u64, 3000u64), (1000, 2000), (2999, 1)] {
            let p = s.on_offer(NodeId::new(0), &tasks, SimTime::from_millis(now_ms));
            assert_eq!(
                p,
                Placement::Decline {
                    retry_after: SimDuration::from_millis(expect_ms)
                }
            );
        }
    }
}

/// The regrouping implementation: it rebuilds the task sets from the
/// whole runnable list on every offer and assumes no order in the list.
/// Kept as the oracle the run-walking scheduler must agree with.
#[cfg(test)]
mod regrouping {
    use super::*;

    #[derive(Debug, Clone)]
    pub(super) struct RegroupingDelayScheduler {
        wait_threshold: SimDuration,
        sets: BTreeMap<(JobId, usize), SetState>,
    }

    impl RegroupingDelayScheduler {
        pub(super) fn new(wait_threshold: SimDuration) -> Self {
            RegroupingDelayScheduler {
                wait_threshold,
                sets: BTreeMap::new(),
            }
        }

        fn set_state(&mut self, key: (JobId, usize), first_runnable: SimTime) -> &mut SetState {
            self.sets.entry(key).or_insert(SetState {
                clock_start: first_runnable,
                allow_any: false,
            })
        }

        pub(super) fn on_offer(
            &mut self,
            node: NodeId,
            runnable: &[RunnableTask],
            now: SimTime,
        ) -> Placement {
            if runnable.is_empty() {
                return Placement::NoWork;
            }
            let sets = sets_in_order(runnable);

            // 1. Local task: earliest set first, FIFO within the set. A local
            //    launch resets the set's clock and level.
            for &(key, _) in &sets {
                let candidate = runnable
                    .iter()
                    .filter(|t| (t.job, t.stage) == key && t.local_on(node))
                    .min_by_key(|t| (t.runnable_since, t.task_index));
                if let Some(task) = candidate {
                    let state = self.set_state(key, task.runnable_since);
                    state.clock_start = now;
                    state.allow_any = false;
                    return launch(task, true);
                }
            }

            // 2. Preference-free task (no locality to wait for).
            if let Some(task) = runnable
                .iter()
                .filter(|t| !t.has_preference())
                .min_by_key(|t| (t.runnable_since, t.job, t.stage, t.task_index))
            {
                return launch(task, false);
            }

            // 3. Non-local placements: expired sets launch, others wait.
            let mut earliest_expiry: Option<SimDuration> = None;
            for &(key, first_runnable) in &sets {
                let threshold = self.wait_threshold;
                let state = self.set_state(key, first_runnable);
                if !state.allow_any {
                    let waited = now.saturating_since(state.clock_start);
                    if waited >= threshold {
                        state.allow_any = true;
                    } else {
                        let remaining = threshold - waited;
                        earliest_expiry = Some(match earliest_expiry {
                            Some(e) => e.min(remaining),
                            None => remaining,
                        });
                        continue;
                    }
                }
                let task = runnable
                    .iter()
                    .filter(|t| (t.job, t.stage) == key)
                    .min_by_key(|t| (t.runnable_since, t.task_index))
                    .expect("set has at least one task");
                return launch(task, false);
            }
            Placement::Decline {
                retry_after: earliest_expiry.expect("some set must be waiting"),
            }
        }
    }

    /// Task sets in FIFO order: keyed by the earliest `runnable_since` in the
    /// set, then job id, then stage.
    fn sets_in_order(runnable: &[RunnableTask]) -> Vec<((JobId, usize), SimTime)> {
        let mut earliest: BTreeMap<(JobId, usize), SimTime> = BTreeMap::new();
        for t in runnable {
            let e = earliest.entry((t.job, t.stage)).or_insert(t.runnable_since);
            *e = (*e).min(t.runnable_since);
        }
        let mut sets: Vec<((JobId, usize), SimTime)> = earliest.into_iter().collect();
        sets.sort_by_key(|&((job, stage), since)| (since, job, stage));
        sets
    }
}

#[cfg(test)]
mod sequence_tests {
    use super::regrouping::RegroupingDelayScheduler;
    use super::*;
    use custody_simcore::SimRng;

    const NODES: usize = 30;

    /// Random offer sequences: live task sets come and go, launched tasks
    /// leave the list, and some return later with a fresh
    /// `runnable_since`, as a re-queued task does. Each offer lists the
    /// sets as contiguous runs in shuffled order.
    struct Sequence {
        rng: SimRng,
        now: SimTime,
        next_job: usize,
        /// Next unused stage per job.
        next_stage: BTreeMap<JobId, usize>,
        live: Vec<RunnableTask>,
        launched: Vec<RunnableTask>,
    }

    impl Sequence {
        fn new(seed: u64) -> Self {
            Sequence {
                rng: SimRng::seed_from_u64(seed),
                now: SimTime::ZERO,
                next_job: 0,
                next_stage: BTreeMap::new(),
                live: Vec::new(),
                launched: Vec::new(),
            }
        }

        fn live_sets(&self) -> BTreeMap<(JobId, usize), Vec<RunnableTask>> {
            let mut sets: BTreeMap<(JobId, usize), Vec<RunnableTask>> = BTreeMap::new();
            for t in &self.live {
                sets.entry((t.job, t.stage)).or_default().push(t.clone());
            }
            sets
        }

        /// Adds one set of 1–8 tasks: a new job's, or another stage of a
        /// job already seen. About one set in seven is preference-free.
        fn add_set(&mut self) {
            let job = if self.next_job > 0 && self.rng.chance(0.3) {
                JobId::new(self.rng.below(self.next_job))
            } else {
                self.next_job += 1;
                JobId::new(self.next_job - 1)
            };
            let stage = self.next_stage.entry(job).or_insert(0);
            let this_stage = *stage;
            *stage += 1;
            let free = self.rng.chance(0.15);
            for task_index in 0..1 + self.rng.below(8) {
                let preferred_nodes: std::sync::Arc<[NodeId]> = if free {
                    [].into()
                } else {
                    let k = 1 + self.rng.below(3);
                    self.rng
                        .choose_distinct(NODES, k)
                        .into_iter()
                        .map(NodeId::new)
                        .collect()
                };
                self.live.push(RunnableTask {
                    job,
                    stage: this_stage,
                    task_index,
                    preferred_nodes,
                    runnable_since: self.now,
                });
            }
        }

        /// Advances the clock, changes the live sets, and returns the
        /// runnable list for the next offer.
        fn step(&mut self) -> Vec<RunnableTask> {
            self.now += SimDuration::from_millis(self.rng.below(400) as u64);
            while self.live.is_empty() || (self.live_sets().len() < 6 && self.rng.chance(0.2)) {
                self.add_set();
            }
            if !self.launched.is_empty() && self.rng.chance(0.15) {
                let i = self.rng.below(self.launched.len());
                let mut task = self.launched.swap_remove(i);
                task.runnable_since = self.now;
                self.live.push(task);
            }
            let mut sets: Vec<Vec<RunnableTask>> = self.live_sets().into_values().collect();
            self.rng.shuffle(&mut sets);
            sets.into_iter()
                .flat_map(|mut set| {
                    set.sort_by_key(|t| t.task_index);
                    set
                })
                .collect()
        }

        fn remove(&mut self, job: JobId, stage: usize, task_index: usize) {
            let i = self
                .live
                .iter()
                .position(|t| (t.job, t.stage, t.task_index) == (job, stage, task_index))
                .expect("launched task is live");
            self.launched.push(self.live.swap_remove(i));
        }
    }

    #[test]
    fn agrees_with_the_regrouping_scheduler() {
        for seed in 0..6u64 {
            let wait = [0, 500, 3_000][seed as usize % 3];
            let mut sched = DelayScheduler::new(SimDuration::from_millis(wait));
            let mut oracle = RegroupingDelayScheduler::new(SimDuration::from_millis(wait));
            let mut seq = Sequence::new(seed);
            let (mut launches, mut declines) = (0, 0);
            for offer in 0..500 {
                let runnable = seq.step();
                let node = NodeId::new(seq.rng.below(NODES));
                let expected = oracle.on_offer(node, &runnable, seq.now);
                let got = sched.on_offer(node, &runnable, seq.now);
                assert_eq!(got, expected, "seed {seed} offer {offer}: {runnable:?}");
                match got {
                    Placement::Launch {
                        job,
                        stage,
                        task_index,
                        ..
                    } => {
                        launches += 1;
                        seq.remove(job, stage, task_index);
                    }
                    Placement::Decline { .. } => declines += 1,
                    Placement::NoWork => unreachable!("the list is never empty"),
                }
            }
            assert!(launches > 100, "seed {seed}: only {launches} launches");
            if wait > 0 {
                assert!(declines > 10, "seed {seed}: only {declines} declines");
            }
        }
    }

    /// The decline contract of [`TaskScheduler::on_offer`]: re-offering
    /// the declined list to the same node anywhere before the deadline
    /// declines again with that deadline and changes nothing.
    #[test]
    fn a_decline_holds_until_its_deadline() {
        for seed in 0..6u64 {
            let wait = [500, 3_000][seed as usize % 2];
            let mut sched = DelayScheduler::new(SimDuration::from_millis(wait));
            let mut seq = Sequence::new(seed);
            let mut declines = 0;
            for offer in 0..500 {
                let runnable = seq.step();
                let node = NodeId::new(seq.rng.below(NODES));
                match sched.on_offer(node, &runnable, seq.now) {
                    Placement::Launch {
                        job,
                        stage,
                        task_index,
                        ..
                    } => seq.remove(job, stage, task_index),
                    Placement::Decline { retry_after } => {
                        declines += 1;
                        let deadline = seq.now + retry_after;
                        let snapshot = sched.clone();
                        for _ in 0..3 {
                            let ahead = seq.rng.below(retry_after.as_micros() as usize);
                            let t = seq.now + SimDuration::from_micros(ahead as u64);
                            assert_eq!(
                                sched.on_offer(node, &runnable, t),
                                Placement::Decline {
                                    retry_after: deadline - t
                                },
                                "seed {seed} offer {offer}: re-offer at {t:?}"
                            );
                            assert_eq!(sched, snapshot, "seed {seed} offer {offer}: state moved");
                        }
                    }
                    Placement::NoWork => unreachable!("the list is never empty"),
                }
            }
            assert!(declines > 10, "seed {seed}: only {declines} declines");
        }
    }

    #[test]
    fn empty_list_is_no_work_without_state() {
        let mut sched = DelayScheduler::new(SimDuration::from_secs(3));
        assert_eq!(
            sched.on_offer(NodeId::new(0), &[], SimTime::from_secs(1)),
            Placement::NoWork
        );
        assert!(sched.sets.is_empty());
    }
}
