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
//!   locality history may advance.
//! * **rebind** — a twin attempt of another locality takes over a
//!   running task's record.
//! * **finish** — downstream stages may unlock (new pending tasks) or the
//!   job may complete (its entry disappears).
//! * **re-queue / node failure / recovery** — tasks return to the
//!   runnable set and unfinished jobs' preferred nodes are re-resolved
//!   against the post-failure replica map; exactly the jobs whose tasks
//!   re-queued or whose preferred lists actually changed are dirtied
//!   (the invariant auditor cross-checks this precision after every
//!   event).
//!
//! The cache is also the only writer of each application's locality
//! history in the view — Algorithm 1's `total_jobs`, `total_tasks`,
//! `local_tasks` and `local_jobs`. It keeps every job's last [`Credit`]
//! to those counters, and a refresh moves the app's counters from a
//! dirty job's old credit to the one its task records give now, so the
//! history is derived from the records rather than kept by hand.
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

/// Computes one job's allocator-facing demand, given `satisfied_inputs`,
/// its input tasks launched data-locally; `None` when the job wants
/// nothing (finished, or no runnable stage has unlaunched tasks). Single
/// source of truth shared by the cache's refresh and its audit, so the
/// two can never drift.
pub(crate) fn job_demand_of(job: &RuntimeJob, satisfied_inputs: usize) -> Option<JobDemand> {
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
    Some(JobDemand {
        job: job.id,
        unsatisfied_inputs,
        pending_tasks: pending,
        total_inputs: stage.tasks.len(),
        satisfied_inputs,
    })
}

/// One job's share of its application's locality history: the job, its
/// input tasks, those launched data-locally, and the job again as a local
/// job when every input task was. A job with no input task is never
/// local.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Credit {
    pub total_jobs: usize,
    pub total_tasks: usize,
    pub local_tasks: usize,
    pub local_jobs: usize,
}

impl Credit {
    /// `job`'s credit, `local` of its input tasks launched data-locally.
    fn of(job: &RuntimeJob, local: usize) -> Self {
        let tasks = job.num_input_tasks();
        Credit {
            total_jobs: 1,
            total_tasks: tasks,
            local_tasks: local,
            local_jobs: usize::from(tasks > 0 && local == tasks),
        }
    }

    /// Moves `app`'s history from crediting `self` to crediting `new`.
    fn move_to(self, new: Credit, app: &mut AppState) {
        app.total_jobs = app.total_jobs - self.total_jobs + new.total_jobs;
        app.total_tasks = app.total_tasks - self.total_tasks + new.total_tasks;
        app.local_tasks = app.local_tasks - self.local_tasks + new.local_tasks;
        app.local_jobs = app.local_jobs - self.local_jobs + new.local_jobs;
    }
}

/// Which jobs' demand entries and credits in the kept view are stale,
/// plus the generations that say whether any moved.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DemandCache {
    /// Jobs whose demand entry and credit are stale, indexed by global
    /// job index.
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
    /// Each job's credit to its app's history as of its last refresh,
    /// indexed by global job index.
    credit: Vec<Credit>,
}

impl DemandCache {
    /// Registers a newly submitted job (global job indices are dense and
    /// contiguous, so one push per submission keeps the vectors aligned),
    /// not yet credited to its app's history, and indexes it as a watcher
    /// of its input blocks.
    pub fn note_job_added(&mut self, job: &RuntimeJob) {
        let j = self.dirty.len();
        self.dirty.push(true);
        self.credit.push(Credit::default());
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

    /// Marks one job's cached demand and credit stale and moves the
    /// generation and its application's.
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

    /// Recomputes every dirty job's credit into its app's history and its
    /// demand into its app's `pending_jobs` — replaced, inserted or
    /// removed — in O(jobs dirtied since the last refresh). Global job ids
    /// are assigned in submission order, so each list stays sorted by id
    /// and the entry is found by binary search.
    pub fn refresh(&mut self, jobs: &[RuntimeJob], apps: &mut [AppState]) {
        debug_assert_eq!(self.dirty.len(), jobs.len(), "one slot per job");
        let mut dirty_list = std::mem::take(&mut self.dirty_list);
        for j in dirty_list.drain(..) {
            self.dirty[j] = false;
            let job = &jobs[j];
            let app = &mut apps[job.app.index()];
            let local = job.local_input_tasks();
            let credit = Credit::of(job, local);
            self.credit[j].move_to(credit, app);
            self.credit[j] = credit;
            let pending = &mut app.pending_jobs;
            let found = pending.binary_search_by_key(&job.id, |d| d.job);
            match (found, job_demand_of(job, local)) {
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

    /// The sum of the credits recorded for `jobs` (global job indices):
    /// what their app's history in the view must read.
    pub fn credited(&self, jobs: &[usize]) -> Credit {
        jobs.iter().fold(Credit::default(), |sum, &j| {
            let c = self.credit[j];
            Credit {
                total_jobs: sum.total_jobs + c.total_jobs,
                total_tasks: sum.total_tasks + c.total_tasks,
                local_tasks: sum.local_tasks + c.local_tasks,
                local_jobs: sum.local_jobs + c.local_jobs,
            }
        })
    }

    /// Invariant audit: every *clean* job's recorded credit and its entry
    /// in `apps` must be exactly what a from-scratch recomputation would
    /// produce (no entry when it wants nothing). This is what catches a
    /// missed `mark_job` — e.g. a failure path that re-queued a task,
    /// rebound a record or changed a preferred list without dirtying the
    /// job.
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
            let local = job.local_input_tasks();
            assert_eq!(
                self.credit[j],
                Credit::of(job, local),
                "stale locality credit for job {j}: a mutation was not marked"
            );
            let pending = &apps[job.app.index()].pending_jobs;
            let cached = pending
                .binary_search_by_key(&job.id, |d| d.job)
                .ok()
                .map(|pos| &pending[pos]);
            assert_eq!(
                cached,
                job_demand_of(job, local).as_ref(),
                "stale demand cache for job {j}: a mutation was not marked"
            );
        }
    }
}
