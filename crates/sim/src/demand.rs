//! Incremental demand bookkeeping for the allocation loop.
//!
//! The driver runs an allocation round after every event. Rebuilding every
//! application's demand each time means rescanning every stage of every
//! job — O(total tasks) work per event — even though a single event
//! touches exactly one job (and often changes no demand at all). The
//! driver keeps one [`AllocationView`](custody_core::AllocationView) for
//! the whole run, and [`DemandCache`] writes each job's [`JobDemand`] into
//! its app's `pending_jobs` in that view, recomputing only the jobs a
//! state transition actually dirtied:
//!
//! * **submit** — a new job appears (dirty, no entry yet).
//! * **launch** — an input task leaves the unsatisfied list and the app's
//!   locality accounting may advance.
//! * **finish** — downstream stages may unlock (new pending tasks) or the
//!   job may complete (its entry disappears).
//! * **re-queue / node failure / recovery** — tasks return to the
//!   runnable set and unfinished jobs' preferred nodes are re-resolved
//!   against the post-failure replica map; exactly the jobs whose tasks
//!   re-queued or whose preferred lists actually changed are dirtied
//!   (the invariant auditor cross-checks this precision after every
//!   event).
//!
//! Dirty jobs sit in an explicit work list, so a refresh costs O(dirtied)
//! rather than O(all jobs) — at 100k nodes × thousands of jobs the
//! difference is the allocation loop's hot path. Replica-map churn is
//! routed through a **block → watching jobs** index registered at
//! submission: when the NameNode journals a changed block, only the jobs
//! actually reading that block get their preferred lists re-resolved.
//!
//! Every add or mark bumps the cache's *generation*, and the owning
//! application's, whether or not the job was already dirty. The driver
//! stamps each allocation round with the first: a round whose demand
//! generation has not moved reads the same demand, one of the inputs
//! round reuse compares (see `Driver::allocation_round`). The offer pass
//! keys its decline memo on the second, as an app's runnable list can
//! only change when one of its jobs is added or marked.

use custody_core::{AppState, JobDemand, TaskDemand};
use custody_dfs::BlockId;

use crate::job::{RuntimeJob, TaskState};

/// Computes one job's allocator-facing demand; `None` when the job wants
/// nothing (finished, or no runnable stage has unlaunched tasks). Single
/// source of truth shared by the cache's refresh and its audit, so the
/// two can never drift.
pub(crate) fn job_demand_of(job: &RuntimeJob) -> Option<JobDemand> {
    let pending = job.pending_tasks();
    if job.is_finished() || pending == 0 {
        return None;
    }
    let stage = job.input_stage();
    let unsatisfied_inputs: Vec<TaskDemand> = stage
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.state, TaskState::Runnable { .. }))
        .map(|(idx, t)| TaskDemand {
            task_index: idx,
            preferred_nodes: t.preferred.clone(),
        })
        .collect();
    let satisfied_inputs = job.local_input_tasks();
    Some(JobDemand {
        job: job.id,
        unsatisfied_inputs,
        pending_tasks: pending,
        total_inputs: stage.tasks.len(),
        satisfied_inputs,
    })
}

/// Which jobs' demand entries in the kept view are stale, plus the
/// generations that say whether any moved.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DemandCache {
    /// Jobs whose demand entry is stale, indexed by global job index.
    dirty: Vec<bool>,
    /// The dirty jobs, each exactly once (guarded by `dirty`), in marking
    /// order — the refresh work list.
    dirty_list: Vec<usize>,
    /// Jobs whose input stage reads each block, indexed by raw block id.
    /// Registered once at submission (input blocks never change), so
    /// replica churn on a block dirties exactly its readers.
    watchers: Vec<Vec<u32>>,
    /// Bumped by every add or mark of any job.
    generation: u64,
    /// Each job's application index, indexed by global job index.
    job_app: Vec<usize>,
    /// Per application index, bumped by every add or mark of one of its
    /// jobs.
    app_generation: Vec<u64>,
}

impl DemandCache {
    /// Registers a newly submitted job (global job indices are dense and
    /// contiguous, so one push per submission keeps the vectors aligned)
    /// and indexes it as a watcher of its input blocks.
    pub fn note_job_added(&mut self, job: &RuntimeJob) {
        let j = self.dirty.len();
        self.dirty.push(true);
        self.dirty_list.push(j);
        self.generation += 1;
        let app = job.app.index();
        if app >= self.app_generation.len() {
            self.app_generation.resize(app + 1, 0);
        }
        self.job_app.push(app);
        self.app_generation[app] += 1;
        for block in &job.input_blocks {
            let b = block.index();
            if b >= self.watchers.len() {
                self.watchers.resize(b + 1, Vec::new());
            }
            // Adjacent duplicates only (tasks of one job, same block);
            // consumers dedup across blocks anyway.
            if self.watchers[b].last() != Some(&(j as u32)) {
                self.watchers[b].push(j as u32);
            }
        }
    }

    /// Marks one job's cached demand stale and moves the generation and
    /// its application's.
    pub fn mark_job(&mut self, job_idx: usize) {
        if !self.dirty[job_idx] {
            self.dirty[job_idx] = true;
            self.dirty_list.push(job_idx);
        }
        self.generation += 1;
        self.app_generation[self.job_app[job_idx]] += 1;
    }

    /// The demand generation: equal readings mean no job was added or
    /// marked in between.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Application `app`'s generation: equal readings mean none of its
    /// jobs was added or marked in between.
    pub fn app_generation(&self, app: usize) -> u64 {
        self.app_generation.get(app).copied().unwrap_or(0)
    }

    /// The jobs whose input stage reads any of `blocks`, ascending and
    /// deduplicated, collected into `out`.
    pub fn jobs_watching(&self, blocks: &[BlockId], out: &mut Vec<usize>) {
        out.clear();
        for &b in blocks {
            if let Some(ws) = self.watchers.get(b.index()) {
                out.extend(ws.iter().map(|&j| j as usize));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// No job's cached demand is stale: a view built now needs no refresh.
    pub fn is_fresh(&self) -> bool {
        self.dirty_list.is_empty()
    }

    /// Recomputes every dirty job's demand into its app's `pending_jobs`
    /// — replaced, inserted or removed — in O(jobs dirtied since the last
    /// refresh). Global job ids are assigned in submission order, so each
    /// list stays sorted by id and the entry is found by binary search.
    pub fn refresh(&mut self, jobs: &[RuntimeJob], apps: &mut [AppState]) {
        debug_assert_eq!(self.dirty.len(), jobs.len(), "one slot per job");
        let mut dirty_list = std::mem::take(&mut self.dirty_list);
        for j in dirty_list.drain(..) {
            self.dirty[j] = false;
            let job = &jobs[j];
            let pending = &mut apps[job.app.index()].pending_jobs;
            let found = pending.binary_search_by_key(&job.id, |d| d.job);
            match (found, job_demand_of(job)) {
                (Ok(pos), Some(fresh)) => pending[pos] = fresh,
                (Err(pos), Some(fresh)) => pending.insert(pos, fresh),
                (Ok(pos), None) => {
                    pending.remove(pos);
                }
                (Err(_), None) => {}
            }
        }
        self.dirty_list = dirty_list;
    }

    /// Invariant audit: every *clean* job's entry in `apps` must be
    /// exactly the demand a from-scratch recomputation would produce (no
    /// entry when it wants nothing). This is what catches a missed
    /// `mark_job` — e.g. a failure path that re-queued a task or changed a
    /// preferred list without dirtying the job.
    pub fn audit(&self, jobs: &[RuntimeJob], apps: &[AppState]) {
        assert_eq!(self.dirty.len(), jobs.len(), "one cache slot per job");
        for (j, job) in jobs.iter().enumerate() {
            if self.dirty[j] {
                assert!(
                    self.dirty_list.contains(&j),
                    "job {j} is dirty but missing from the work list"
                );
                continue;
            }
            let pending = &apps[job.app.index()].pending_jobs;
            let cached = pending
                .binary_search_by_key(&job.id, |d| d.job)
                .ok()
                .map(|pos| &pending[pos]);
            assert_eq!(
                cached,
                job_demand_of(job).as_ref(),
                "stale demand cache for job {j}: a mutation was not marked"
            );
        }
    }
}
