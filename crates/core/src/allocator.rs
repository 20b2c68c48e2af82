//! The allocator interface: what every cluster manager sees and decides.
//!
//! An allocation round happens whenever jobs arrive or executors are
//! released ("Custody is invoked whenever new jobs are submitted into the
//! system or existing jobs finish and leave the system", §V). The runtime
//! builds an [`AllocationView`] — the idle executors plus each
//! application's demand and locality history — and the
//! [`ExecutorAllocator`] returns a list of [`Assignment`]s.
//!
//! The view deliberately contains everything the paper says Custody knows:
//! per-task preferred nodes (NameNode replica locations), per-app quotas
//! (σ_i from the cluster manager), held-executor counts (ζ_i), and the
//! locality achieved so far (the inputs to Algorithm 1's `MINLOCALITY`).
//! Data-unaware baselines simply ignore the preferred-node fields. It
//! carries only per-round state: the static baselines receive the
//! cluster's executor inventory once, at construction
//! ([`crate::AllocatorKind::build`]).

use std::sync::Arc;

use custody_cluster::ExecutorId;
use custody_dfs::NodeId;
use custody_simcore::SimRng;
use custody_workload::{AppId, JobId};

/// An idle executor offered to the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorInfo {
    /// The executor.
    pub id: ExecutorId,
    /// Its host node — which determines the blocks it can read locally.
    pub node: NodeId,
}

/// One unsatisfied input task's data demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskDemand {
    /// Index of the task within its job's input stage.
    pub task_index: usize,
    /// Nodes storing replicas of the task's input block, sorted by id.
    /// Shared (`Arc`) because the same list travels from the runtime's
    /// per-task state through every allocation round the task stays
    /// pending in — views and rounds clone the handle, never the list.
    pub preferred_nodes: Arc<[NodeId]>,
}

/// One job's outstanding demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDemand {
    /// The job.
    pub job: JobId,
    /// Input tasks not yet matched to a local executor.
    pub unsatisfied_inputs: Vec<TaskDemand>,
    /// Total tasks of this job still wanting an executor (input tasks,
    /// local or not, plus downstream tasks); bounds how many executors the
    /// job can productively hold.
    pub pending_tasks: usize,
    /// Total input tasks the job has (µ_ij) — the priority key of
    /// Algorithm 2 sorts by unsatisfied count, and ties in analysis use
    /// the job size.
    pub total_inputs: usize,
    /// Input tasks of this job already assured locality by earlier rounds.
    /// A job counts as (projected) local when
    /// `satisfied_inputs + newly satisfied == total_inputs`.
    pub satisfied_inputs: usize,
}

/// One application's state at allocation time.
#[derive(Debug, Clone, PartialEq)]
pub struct AppState {
    /// The application.
    pub app: AppId,
    /// σ_i — the most executors the cluster manager lets this app hold.
    pub quota: usize,
    /// ζ_i — executors currently held.
    pub held: usize,
    /// Jobs that have completed (or fully scheduled) with perfect input
    /// locality so far.
    pub local_jobs: usize,
    /// Jobs observed so far (denominator of the local-job percentage).
    pub total_jobs: usize,
    /// Input tasks that achieved locality so far.
    pub local_tasks: usize,
    /// Input tasks observed so far.
    pub total_tasks: usize,
    /// Jobs with outstanding demand, in submission order.
    pub pending_jobs: Vec<JobDemand>,
}

impl AppState {
    /// How many more executors this app can usefully take: bounded by both
    /// the quota headroom and the outstanding tasks.
    pub fn outstanding_demand(&self) -> usize {
        let pending: usize = self.pending_jobs.iter().map(|j| j.pending_tasks).sum();
        pending.min(self.quota.saturating_sub(self.held))
    }

    /// True if the app both may and wants to take another executor.
    pub fn wants_executor(&self) -> bool {
        self.outstanding_demand() > 0
    }
}

/// The allocator's input: the idle pool and every application's demand at
/// one decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationView {
    /// Idle executors available for (re-)assignment, in executor-id order.
    pub idle: Vec<ExecutorInfo>,
    /// Per-application state, in app-id order.
    pub apps: Vec<AppState>,
}

impl AllocationView {
    /// Looks up an app's state.
    pub fn app(&self, id: AppId) -> &AppState {
        &self.apps[id.index()]
    }
}

/// One executor-to-application grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The executor being granted.
    pub executor: ExecutorId,
    /// The receiving application.
    pub app: AppId,
    /// If the allocator claimed this executor to make a specific input
    /// task local, that task — "Custody can submit both the list of
    /// executors and the scheduling suggestions to the cluster manager"
    /// (§V). Task schedulers may ignore it.
    pub for_task: Option<(JobId, usize)>,
}

/// A cluster manager's executor-allocation policy.
pub trait ExecutorAllocator {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides which idle executors go to which applications.
    ///
    /// Contract (checked by [`validate_assignments`]):
    /// * each returned executor appears at most once and was idle;
    /// * no app is granted more executors than `quota - held`.
    ///
    /// Whether an app receives executors beyond its outstanding demand is
    /// policy: static managers park an application's full partition with
    /// it for its lifetime; Custody and Mesos-style offers grant only what
    /// the demand justifies.
    ///
    /// No allocator draws from `rng` here — the one random choice, the
    /// static-random partition, is drawn at construction — so a call is a
    /// deterministic function of the view and the allocator's state.
    fn allocate(&mut self, view: &AllocationView, rng: &mut SimRng) -> Vec<Assignment>;

    /// Installs per-node health costs for this and later rounds (soft
    /// demotion): instead of excluding suspect nodes outright, locality
    /// bought on them earns less credit and the filler visits them last,
    /// so their capacity stays usable under saturation. The table stays
    /// until the next call; an empty slice clears it. The default ignores
    /// the hint — correct for data-unaware baselines, and a no-op when the
    /// health layer is off.
    fn set_node_health_costs(&mut self, _costs: &[(NodeId, crate::cost::HealthCost)]) {}

    /// Whether [`allocate`](Self::allocate) is a function of the view and
    /// the installed health costs alone, so that a caller may replay an
    /// earlier call's grants on an identical view instead of calling
    /// again. An allocator whose state moves on grants (an offer cursor)
    /// returns `false`.
    fn replayable(&self) -> bool {
        true
    }

    /// Deep-copies the allocator, internal state included (static
    /// partitions, offer cursors). Master checkpointing snapshots the
    /// allocator so a recovered master replays identical grants.
    fn clone_box(&self) -> Box<dyn ExecutorAllocator>;
}

impl Clone for Box<dyn ExecutorAllocator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Checks the allocator contract; panics with a diagnostic on violation.
/// Used by the simulation driver in debug builds and by property tests.
pub fn validate_assignments(view: &AllocationView, assignments: &[Assignment]) {
    use std::collections::BTreeMap;
    let idle: std::collections::BTreeSet<ExecutorId> = view.idle.iter().map(|e| e.id).collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut per_app: BTreeMap<AppId, usize> = BTreeMap::new();
    for a in assignments {
        assert!(idle.contains(&a.executor), "{} was not idle", a.executor);
        assert!(seen.insert(a.executor), "{} granted twice", a.executor);
        *per_app.entry(a.app).or_insert(0) += 1;
    }
    for (app, &count) in &per_app {
        let state = view.app(*app);
        assert!(
            count <= state.quota.saturating_sub(state.held),
            "{app} granted {count} executors but headroom is {}",
            state.quota.saturating_sub(state.held)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(job: usize, unsatisfied: usize, pending: usize) -> JobDemand {
        JobDemand {
            job: JobId::new(job),
            unsatisfied_inputs: (0..unsatisfied)
                .map(|i| TaskDemand {
                    task_index: i,
                    preferred_nodes: [NodeId::new(i)].into(),
                })
                .collect(),
            pending_tasks: pending,
            total_inputs: unsatisfied,
            satisfied_inputs: 0,
        }
    }

    fn app_state(app: usize, quota: usize, held: usize) -> AppState {
        AppState {
            app: AppId::new(app),
            quota,
            held,
            local_jobs: 0,
            total_jobs: 0,
            local_tasks: 0,
            total_tasks: 0,
            pending_jobs: vec![],
        }
    }

    #[test]
    fn outstanding_demand_bounded_by_quota_and_tasks() {
        let mut s = app_state(0, 4, 3);
        s.pending_jobs = vec![demand(0, 2, 5)];
        assert_eq!(s.outstanding_demand(), 1, "quota headroom binds");
        s.held = 0;
        assert_eq!(s.outstanding_demand(), 4, "quota binds");
        s.pending_jobs = vec![demand(0, 1, 2)];
        assert_eq!(s.outstanding_demand(), 2, "pending tasks bind");
        s.pending_jobs.clear();
        assert_eq!(s.outstanding_demand(), 0);
        assert!(!s.wants_executor());
    }

    #[test]
    fn view_looks_apps_up_by_id() {
        let view = AllocationView {
            idle: vec![],
            apps: vec![app_state(0, 2, 0), app_state(1, 2, 1)],
        };
        assert_eq!(view.app(AppId::new(1)).held, 1);
    }

    #[test]
    fn validate_accepts_legal_assignment() {
        let mut a = app_state(0, 2, 0);
        a.pending_jobs = vec![demand(0, 1, 2)];
        let idle = vec![
            ExecutorInfo {
                id: ExecutorId::new(0),
                node: NodeId::new(0),
            },
            ExecutorInfo {
                id: ExecutorId::new(1),
                node: NodeId::new(1),
            },
        ];
        let view = AllocationView {
            idle,
            apps: vec![a],
        };
        validate_assignments(
            &view,
            &[Assignment {
                executor: ExecutorId::new(0),
                app: AppId::new(0),
                for_task: None,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "granted twice")]
    fn validate_rejects_duplicate_grant() {
        let mut a = app_state(0, 4, 0);
        a.pending_jobs = vec![demand(0, 2, 4)];
        let idle = vec![ExecutorInfo {
            id: ExecutorId::new(0),
            node: NodeId::new(0),
        }];
        let view = AllocationView {
            idle,
            apps: vec![a],
        };
        let g = Assignment {
            executor: ExecutorId::new(0),
            app: AppId::new(0),
            for_task: None,
        };
        validate_assignments(&view, &[g, g]);
    }

    #[test]
    #[should_panic(expected = "was not idle")]
    fn validate_rejects_non_idle_grant() {
        let view = AllocationView {
            idle: vec![],
            apps: vec![app_state(0, 4, 0)],
        };
        validate_assignments(
            &view,
            &[Assignment {
                executor: ExecutorId::new(0),
                app: AppId::new(0),
                for_task: None,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn validate_rejects_quota_violation() {
        let mut a = app_state(0, 1, 1);
        a.pending_jobs = vec![demand(0, 2, 4)];
        let idle = vec![ExecutorInfo {
            id: ExecutorId::new(0),
            node: NodeId::new(0),
        }];
        let view = AllocationView {
            idle,
            apps: vec![a],
        };
        validate_assignments(
            &view,
            &[Assignment {
                executor: ExecutorId::new(0),
                app: AppId::new(0),
                for_task: None,
            }],
        );
    }
}
