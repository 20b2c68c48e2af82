//! Incremental demand bookkeeping for the allocation loop.
//!
//! The driver runs an allocation round after every event. Rebuilding the
//! whole [`AllocationView`](custody_core::AllocationView) each time means
//! rescanning every stage of every job — O(total tasks) work per event —
//! even though a single event touches exactly one job (and often changes
//! no demand at all). [`DemandCache`] keeps the per-job
//! [`JobDemand`] records alive across rounds and recomputes only the jobs
//! a state transition actually dirtied:
//!
//! * **submit** — a new job appears (new cache slot, dirty).
//! * **launch** — an input task leaves the unsatisfied list and the app's
//!   locality accounting may advance.
//! * **finish** — downstream stages may unlock (new pending tasks) or the
//!   job may complete (demand disappears).
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
//! The cache also tracks two change flags — app demand and idle-pool
//! membership — consulted by the driver's round-skip logic: when neither
//! has changed since the last zero-grant round, re-running the allocator
//! is provably idempotent and the round is skipped outright.

use custody_cluster::ClusterState;
use custody_core::{ExecutorInfo, JobDemand, TaskDemand};
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

/// Per-job demand records kept alive across allocation rounds, plus the
/// change tracking that drives round skipping.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DemandCache {
    /// Cached demand, indexed by global job index; `None` = wants nothing.
    demand: Vec<Option<JobDemand>>,
    /// Jobs whose cached demand is stale.
    dirty: Vec<bool>,
    /// The dirty jobs, each exactly once (guarded by `dirty`), in marking
    /// order — the refresh work list.
    dirty_list: Vec<usize>,
    /// Per-app lists of job indices with live demand, kept sorted (global
    /// job indices are assigned in submission order), so view assembly
    /// walks only jobs that actually want executors.
    active: Vec<Vec<usize>>,
    /// Jobs whose input stage reads each block, indexed by raw block id.
    /// Registered once at submission (input blocks never change), so
    /// replica churn on a block dirties exactly its readers.
    watchers: Vec<Vec<u32>>,
    /// The cluster's full executor list (the cluster never changes shape).
    all_executors: Vec<ExecutorInfo>,
    /// Some job's demand (or app accounting) changed since the last
    /// executed round.
    demand_changed: bool,
    /// Idle-pool membership changed since the last executed round.
    pool_changed: bool,
}

impl DemandCache {
    pub fn new(num_apps: usize, cluster: &ClusterState) -> Self {
        DemandCache {
            demand: Vec::new(),
            dirty: Vec::new(),
            dirty_list: Vec::new(),
            active: vec![Vec::new(); num_apps],
            watchers: Vec::new(),
            all_executors: cluster
                .executors()
                .iter()
                .map(|e| ExecutorInfo {
                    id: e.id,
                    node: e.node,
                })
                .collect(),
            demand_changed: true,
            pool_changed: true,
        }
    }

    /// Registers a newly submitted job (global job indices are dense and
    /// contiguous, so one push per submission keeps the vectors aligned)
    /// and indexes it as a watcher of its input blocks.
    pub fn note_job_added(&mut self, job: &RuntimeJob) {
        let j = self.demand.len();
        self.demand.push(None);
        self.dirty.push(true);
        self.dirty_list.push(j);
        self.demand_changed = true;
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

    /// Marks one job's cached demand stale.
    pub fn mark_job(&mut self, job_idx: usize) {
        if !self.dirty[job_idx] {
            self.dirty[job_idx] = true;
            self.dirty_list.push(job_idx);
        }
        self.demand_changed = true;
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

    /// Records that the idle pool gained or lost an executor.
    pub fn mark_pool_changed(&mut self) {
        self.pool_changed = true;
    }

    /// Neither demand nor pool changed since the last executed round, so
    /// re-running the allocator would reproduce its exact outcome.
    pub fn is_quiescent(&self) -> bool {
        !self.demand_changed && !self.pool_changed
    }

    /// No job's cached demand is stale: a view built now needs no refresh.
    pub fn is_fresh(&self) -> bool {
        self.dirty_list.is_empty()
    }

    /// Resets the change flags at the start of an executed round; grants
    /// made inside the round re-set the pool flag.
    pub fn begin_round(&mut self) {
        self.demand_changed = false;
        self.pool_changed = false;
    }

    /// Recomputes every dirty job's demand and maintains the per-app
    /// active lists — O(jobs dirtied since the last refresh).
    pub fn refresh(&mut self, jobs: &[RuntimeJob]) {
        debug_assert_eq!(self.demand.len(), jobs.len(), "one slot per job");
        let mut dirty_list = std::mem::take(&mut self.dirty_list);
        for j in dirty_list.drain(..) {
            self.dirty[j] = false;
            let job = &jobs[j];
            let fresh = job_demand_of(job);
            let list = &mut self.active[job.app.index()];
            match (list.binary_search(&j), fresh.is_some()) {
                (Err(pos), true) => list.insert(pos, j),
                (Ok(pos), false) => {
                    list.remove(pos);
                }
                _ => {}
            }
            self.demand[j] = fresh;
        }
        self.dirty_list = dirty_list;
    }

    /// The app's live job demands, in submission order. Call
    /// [`refresh`](Self::refresh) first.
    pub fn active_demands(&self, app_idx: usize) -> Vec<JobDemand> {
        self.active[app_idx]
            .iter()
            .map(|&j| {
                self.demand[j]
                    .clone()
                    .expect("active job has cached demand") // lint: allow(panic) — the cache entry is created when the job activates
            })
            .collect()
    }

    /// Invariant audit: every *clean* slot must hold exactly the demand a
    /// from-scratch recomputation would produce, and the active lists must
    /// agree with it. This is what catches a missed `mark_job` — e.g. a
    /// failure path that re-queued a task or changed a preferred list
    /// without dirtying the job.
    pub fn audit(&self, jobs: &[RuntimeJob]) {
        assert_eq!(self.demand.len(), jobs.len(), "one cache slot per job");
        for (j, job) in jobs.iter().enumerate() {
            if self.dirty[j] {
                assert!(
                    self.dirty_list.contains(&j),
                    "job {j} is dirty but missing from the work list"
                );
                continue;
            }
            let fresh = job_demand_of(job);
            assert_eq!(
                self.demand[j], fresh,
                "stale demand cache for job {j}: a mutation was not marked"
            );
            assert_eq!(
                self.active[job.app.index()].binary_search(&j).is_ok(),
                fresh.is_some(),
                "active list out of sync for job {j}"
            );
        }
    }

    /// The cluster's full executor list.
    pub fn all_executors(&self) -> &[ExecutorInfo] {
        &self.all_executors
    }
}
