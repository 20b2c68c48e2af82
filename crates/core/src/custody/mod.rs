//! The Custody two-level data-aware allocator (§IV of the paper).
//!
//! Each allocation round runs two phases over a mutable [`Round`] state:
//!
//! 1. **Locality phase** — the inter-application loop of Algorithm 1
//!    drives the intra-application matching of Algorithm 2: repeatedly
//!    select the application with the lowest (projected) percentage of
//!    local jobs and let it claim idle executors that store its pending
//!    input blocks, prioritising the job with the fewest unsatisfied input
//!    tasks. After every grant the minimum-locality app is re-evaluated
//!    (the `flag` of Algorithm 2), so no application races ahead.
//! 2. **Filler phase** — Algorithm 2's trailing loop (lines 17–20): once
//!    no more locality can be bought, remaining idle executors are granted
//!    to applications that still have runnable tasks, least-localized
//!    application first, one executor at a time. Tasks "that cannot
//!    achieve data locality [are offered] the current idle executors"
//!    so they still run; the filler is bounded by each application's
//!    outstanding demand rather than filling blindly to σ_i, so executors
//!    no application can use stay idle for the next round.

pub mod inter;
pub mod intra;
pub mod reference;
mod round;

pub use reference::{reference_allocate, reference_allocate_with_costs};
pub use round::Round;

use custody_dfs::NodeId;
use custody_simcore::SimRng;

use crate::allocator::{AllocationView, Assignment, ExecutorAllocator};
use crate::cost::HealthCost;

/// Intra-application strategy (the Fig. 4/5 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraPolicy {
    /// The paper's strategy: satisfy the job with the fewest unsatisfied
    /// input tasks completely before moving on (greedy 2-approximation).
    #[default]
    PriorityFewestFirst,
    /// The fairness-based strawman of Fig. 4: give each job one local
    /// task in turn, so every job gets a fraction of its demand and none
    /// escapes its network-bound straggler.
    RoundRobinFair,
}

/// Inter-application strategy (the Fig. 3 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterPolicy {
    /// The paper's strategy: the application with the lowest percentage
    /// of local jobs picks next (Algorithm 1).
    #[default]
    MinLocality,
    /// The naive fairness of existing managers: balance executor *counts*
    /// only — the application holding the fewest executors picks next.
    NaiveCountFair,
}

/// The Custody cluster manager.
///
/// The paper's Fig. 1 in six lines: two applications whose jobs read
/// blocks on disjoint nodes each receive exactly the executors that can
/// read their data locally.
///
/// ```
/// use custody_core::{AllocationView, AppState, CustodyAllocator,
///                    ExecutorAllocator, ExecutorInfo, JobDemand, TaskDemand};
/// use custody_cluster::ExecutorId;
/// use custody_dfs::NodeId;
/// use custody_simcore::SimRng;
/// use custody_workload::{AppId, JobId};
///
/// let executors: Vec<ExecutorInfo> = (0..4)
///     .map(|i| ExecutorInfo { id: ExecutorId::new(i), node: NodeId::new(i) })
///     .collect();
/// let app = |id: usize, nodes: [usize; 2]| AppState {
///     app: AppId::new(id), quota: 2, held: 0,
///     local_jobs: 0, total_jobs: 1, local_tasks: 0, total_tasks: 2,
///     pending_jobs: vec![JobDemand {
///         job: JobId::new(id),
///         unsatisfied_inputs: nodes.iter().enumerate().map(|(t, &n)| TaskDemand {
///             task_index: t, preferred_nodes: [NodeId::new(n)].into(),
///         }).collect(),
///         pending_tasks: 2, total_inputs: 2, satisfied_inputs: 0,
///     }],
/// };
/// let view = AllocationView {
///     idle: executors,
///     apps: vec![app(0, [0, 1]), app(1, [2, 3])],
/// };
/// let out = CustodyAllocator::new().allocate(&view, &mut SimRng::seed_from_u64(0));
/// // Every grant is pinned to a task on its own node: 100% locality.
/// assert_eq!(out.len(), 4);
/// assert!(out.iter().all(|a| a.for_task.is_some()));
/// ```
#[derive(Debug, Default, Clone)]
pub struct CustodyAllocator {
    intra: IntraPolicy,
    inter: InterPolicy,
    /// The round state, kept across calls: each call reconciles it with
    /// the new view, rebuilding only the jobs whose demand changed, so its
    /// buffers are allocated once and its grants equal a fresh
    /// allocator's. It also holds the health-cost table installed by
    /// [`ExecutorAllocator::set_node_health_costs`].
    round: Round,
}

impl CustodyAllocator {
    /// Creates the allocator with the paper's policies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the intra-application policy (ablations).
    pub fn with_intra(mut self, intra: IntraPolicy) -> Self {
        self.intra = intra;
        self
    }

    /// Overrides the inter-application policy (ablations).
    pub fn with_inter(mut self, inter: InterPolicy) -> Self {
        self.inter = inter;
        self
    }
}

impl ExecutorAllocator for CustodyAllocator {
    fn name(&self) -> &'static str {
        match (self.inter, self.intra) {
            (InterPolicy::MinLocality, IntraPolicy::PriorityFewestFirst) => "custody",
            (InterPolicy::MinLocality, IntraPolicy::RoundRobinFair) => "custody-fair-intra",
            (InterPolicy::NaiveCountFair, IntraPolicy::PriorityFewestFirst) => {
                "custody-naive-inter"
            }
            (InterPolicy::NaiveCountFair, IntraPolicy::RoundRobinFair) => "custody-naive-both",
        }
    }

    fn allocate(&mut self, view: &AllocationView, _rng: &mut SimRng) -> Vec<Assignment> {
        self.round.reset(view, self.inter, self.intra);
        self.round.locality_phase();
        self.round.filler_phase();
        self.round.finish()
    }

    fn set_node_health_costs(&mut self, costs: &[(NodeId, HealthCost)]) {
        self.round.set_health_costs(costs);
    }

    fn clone_box(&self) -> Box<dyn ExecutorAllocator> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{validate_assignments, AppState, ExecutorInfo, JobDemand, TaskDemand};
    use crate::custody::{InterPolicy, IntraPolicy};
    use custody_cluster::ExecutorId;
    use custody_dfs::NodeId;
    use custody_workload::{AppId, JobId};

    /// One single-slot executor per node, node i ↔ executor i.
    fn toy_executors(n: usize) -> Vec<ExecutorInfo> {
        (0..n)
            .map(|i| ExecutorInfo {
                id: ExecutorId::new(i),
                node: NodeId::new(i),
            })
            .collect()
    }

    fn task(task_index: usize, nodes: &[usize]) -> TaskDemand {
        TaskDemand {
            task_index,
            preferred_nodes: nodes.iter().map(|&n| NodeId::new(n)).collect(),
        }
    }

    /// Plumbing check: repeated rounds through the reset-in-place
    /// allocate path give the same grants.
    #[test]
    fn repeated_allocate_reuses_scratch_deterministically() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![
                fresh_app(0, 2, vec![job(0, vec![task(0, &[0]), task(1, &[1])])]),
                fresh_app(1, 2, vec![job(1, vec![task(0, &[2]), task(1, &[3])])]),
            ],
        };
        let mut alloc = CustodyAllocator::new();
        let mut rng = SimRng::seed_from_u64(0);
        let first = alloc.allocate(&view, &mut rng);
        for _ in 0..3 {
            assert_eq!(alloc.allocate(&view, &mut rng), first);
        }
    }

    fn job(id: usize, tasks: Vec<TaskDemand>) -> JobDemand {
        let n = tasks.len();
        JobDemand {
            job: JobId::new(id),
            unsatisfied_inputs: tasks,
            pending_tasks: n,
            total_inputs: n,
            satisfied_inputs: 0,
        }
    }

    fn fresh_app(id: usize, quota: usize, jobs: Vec<JobDemand>) -> AppState {
        let total_tasks = jobs.iter().map(|j| j.total_inputs).sum();
        AppState {
            app: AppId::new(id),
            quota,
            held: 0,
            local_jobs: 0,
            total_jobs: jobs.len(),
            local_tasks: 0,
            total_tasks,
            pending_jobs: jobs,
        }
    }

    fn run(view: &AllocationView) -> Vec<Assignment> {
        let mut alloc = CustodyAllocator::new();
        let mut rng = SimRng::seed_from_u64(0);
        let out = alloc.allocate(view, &mut rng);
        validate_assignments(view, &out);
        out
    }

    fn app_of(assignments: &[Assignment], exec: usize) -> Option<AppId> {
        assignments
            .iter()
            .find(|a| a.executor == ExecutorId::new(exec))
            .map(|a| a.app)
    }

    /// Fig. 1: four nodes/blocks/executors, two apps, one 2-task job each.
    /// App 1's tasks want blocks on nodes 0 and 1; app 2's want nodes 2
    /// and 3. Custody must give executors {0,1} to app 1 and {2,3} to
    /// app 2 — 100 % locality for both.
    #[test]
    fn fig1_motivating_example() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![
                fresh_app(0, 2, vec![job(0, vec![task(0, &[0]), task(1, &[1])])]),
                fresh_app(1, 2, vec![job(1, vec![task(0, &[2]), task(1, &[3])])]),
            ],
        };
        let out = run(&view);
        assert_eq!(out.len(), 4);
        assert_eq!(app_of(&out, 0), Some(AppId::new(0)));
        assert_eq!(app_of(&out, 1), Some(AppId::new(0)));
        assert_eq!(app_of(&out, 2), Some(AppId::new(1)));
        assert_eq!(app_of(&out, 3), Some(AppId::new(1)));
    }

    /// Fig. 3: both apps want blocks on nodes 0 and 1 (their two
    /// single-task jobs), blocks on nodes 2/3 belong to nobody. Naive
    /// fairness could give both hot executors to one app; Custody's
    /// locality-aware fairness must split them, one local job each.
    #[test]
    fn fig3_locality_fairness_splits_hot_executors() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![
                fresh_app(
                    0,
                    2,
                    vec![job(0, vec![task(0, &[0])]), job(1, vec![task(0, &[1])])],
                ),
                fresh_app(
                    1,
                    2,
                    vec![job(2, vec![task(0, &[0])]), job(3, vec![task(0, &[1])])],
                ),
            ],
        };
        let out = run(&view);
        // Each app gets exactly one of the two hot executors {0, 1}.
        let hot_to_0 = [0, 1]
            .iter()
            .filter(|&&e| app_of(&out, e) == Some(AppId::new(0)))
            .count();
        assert_eq!(hot_to_0, 1, "hot executors must be split: {out:?}");
    }

    /// Fig. 4: one app, two 2-task jobs, budget σ = 2 executors. Job 1
    /// wants nodes {0, 1}; job 2 wants nodes {2, 3}. The priority strategy
    /// must give *both* executors to one job (perfect locality) rather
    /// than one to each.
    #[test]
    fn fig4_priority_satisfies_whole_job() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![fresh_app(
                0,
                2,
                vec![
                    job(0, vec![task(0, &[0]), task(1, &[1])]),
                    job(1, vec![task(0, &[2]), task(1, &[3])]),
                ],
            )],
        };
        let out = run(&view);
        assert_eq!(out.len(), 2);
        let for_jobs: Vec<JobId> = out.iter().filter_map(|a| a.for_task.map(|t| t.0)).collect();
        assert_eq!(for_jobs.len(), 2);
        assert_eq!(
            for_jobs[0], for_jobs[1],
            "both executors must serve the same job: {out:?}"
        );
    }

    /// Fewest-remaining-tasks priority: a 1-task job outranks a 3-task job
    /// when the budget only covers one of them fully.
    #[test]
    fn smaller_job_gets_priority() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![fresh_app(
                0,
                1,
                vec![
                    job(0, vec![task(0, &[0]), task(1, &[1]), task(2, &[2])]),
                    job(1, vec![task(0, &[3])]),
                ],
            )],
        };
        let out = run(&view);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].for_task.unwrap().0, JobId::new(1));
        assert_eq!(out[0].executor, ExecutorId::new(3));
    }

    /// Apps with worse historical locality pick first when contending for
    /// the same executor.
    #[test]
    fn historical_locality_orders_apps() {
        let execs = toy_executors(1);
        let mut lucky = fresh_app(0, 1, vec![job(0, vec![task(0, &[0])])]);
        lucky.local_jobs = 9;
        lucky.total_jobs = 10;
        lucky.local_tasks = 9;
        lucky.total_tasks = 10;
        let mut unlucky = fresh_app(1, 1, vec![job(1, vec![task(0, &[0])])]);
        unlucky.local_jobs = 1;
        unlucky.total_jobs = 10;
        unlucky.local_tasks = 1;
        unlucky.total_tasks = 10;
        let view = AllocationView {
            idle: execs,
            apps: vec![lucky, unlucky],
        };
        let out = run(&view);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].app, AppId::new(1), "unlucky app must win: {out:?}");
    }

    /// The filler phase hands out executors nobody's data lives on, so
    /// non-local tasks still run — bounded by demand.
    #[test]
    fn filler_grants_unwanted_executors_up_to_demand() {
        let execs = toy_executors(3);
        // One job, one task wanting node 99 (no executor there): demand 1.
        let view = AllocationView {
            idle: execs,
            apps: vec![fresh_app(0, 3, vec![job(0, vec![task(0, &[99])])])],
        };
        let out = run(&view);
        assert_eq!(out.len(), 1, "demand-bounded filler: {out:?}");
        assert_eq!(out[0].app, AppId::new(0));
        assert_eq!(out[0].for_task, None);
    }

    /// Quota is a hard ceiling even when plenty of local executors exist.
    #[test]
    fn quota_limits_grants() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![fresh_app(
                0,
                2,
                vec![job(
                    0,
                    vec![task(0, &[0]), task(1, &[1]), task(2, &[2]), task(3, &[3])],
                )],
            )],
        };
        let out = run(&view);
        assert_eq!(out.len(), 2);
    }

    /// No demand → no grants, regardless of idle executors.
    #[test]
    fn idle_cluster_no_demand() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![fresh_app(0, 4, vec![])],
        };
        assert!(run(&view).is_empty());
    }

    /// Fig. 4 under the fairness strawman: each job receives one local
    /// task instead of one job receiving both — the outcome the paper's
    /// priority strategy exists to avoid.
    #[test]
    fn fair_intra_splits_across_jobs() {
        let execs = toy_executors(4);
        let view = AllocationView {
            idle: execs,
            apps: vec![fresh_app(
                0,
                2,
                vec![
                    job(0, vec![task(0, &[0]), task(1, &[1])]),
                    job(1, vec![task(0, &[2]), task(1, &[3])]),
                ],
            )],
        };
        let mut alloc = CustodyAllocator::new().with_intra(IntraPolicy::RoundRobinFair);
        let mut rng = SimRng::seed_from_u64(0);
        let out = alloc.allocate(&view, &mut rng);
        validate_assignments(&view, &out);
        assert_eq!(out.len(), 2);
        let jobs: Vec<JobId> = out.iter().filter_map(|a| a.for_task.map(|t| t.0)).collect();
        assert_eq!(jobs.len(), 2);
        assert_ne!(
            jobs[0], jobs[1],
            "fairness spreads one task per job: {out:?}"
        );
    }

    /// Naive count-fair inter selection ignores locality history; the
    /// default selection honours it (see also
    /// `tests/paper_examples.rs::fig3_min_locality_beats_count_fairness_on_history`).
    #[test]
    fn naive_inter_ties_break_by_app_id() {
        let execs = toy_executors(1);
        let mut a0 = fresh_app(0, 2, vec![job(0, vec![task(0, &[0])])]);
        a0.held = 1;
        a0.local_jobs = 5;
        a0.total_jobs = 5;
        let mut a1 = fresh_app(1, 2, vec![job(1, vec![task(0, &[0])])]);
        a1.held = 1;
        a1.local_jobs = 0;
        a1.total_jobs = 5;
        let view = AllocationView {
            idle: execs,
            apps: vec![a0, a1],
        };
        let mut naive = CustodyAllocator::new().with_inter(InterPolicy::NaiveCountFair);
        let mut rng = SimRng::seed_from_u64(0);
        let out = naive.allocate(&view, &mut rng);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].app, AppId::new(0), "held counts tie; id breaks it");
    }

    /// Allocator names reflect the policy combination.
    #[test]
    fn names_reflect_policies() {
        assert_eq!(CustodyAllocator::new().name(), "custody");
        assert_eq!(
            CustodyAllocator::new()
                .with_intra(IntraPolicy::RoundRobinFair)
                .name(),
            "custody-fair-intra"
        );
        assert_eq!(
            CustodyAllocator::new()
                .with_inter(InterPolicy::NaiveCountFair)
                .name(),
            "custody-naive-inter"
        );
        assert_eq!(
            CustodyAllocator::new()
                .with_inter(InterPolicy::NaiveCountFair)
                .with_intra(IntraPolicy::RoundRobinFair)
                .name(),
            "custody-naive-both"
        );
    }

    /// The trait-level health-cost hint steers the filler to the cheapest
    /// node, and clearing the table restores the original pick.
    #[test]
    fn health_cost_hint_steers_filler_and_clears() {
        let execs = toy_executors(2);
        let view = AllocationView {
            idle: execs,
            // Preferred node 9 exists nowhere: pure filler traffic.
            apps: vec![fresh_app(0, 1, vec![job(0, vec![task(0, &[9])])])],
        };
        let mut alloc = CustodyAllocator::new();
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(
            alloc.allocate(&view, &mut rng)[0].executor,
            ExecutorId::new(0)
        );
        alloc.set_node_health_costs(&[
            (
                NodeId::new(0),
                crate::HealthCost {
                    credit: 3,
                    scale: 8,
                },
            ),
            (NodeId::new(1), crate::HealthCost::neutral(8)),
        ]);
        assert_eq!(
            alloc.allocate(&view, &mut rng)[0].executor,
            ExecutorId::new(1),
            "suspect node 0 is visited last"
        );
        alloc.set_node_health_costs(&[]);
        assert_eq!(
            alloc.allocate(&view, &mut rng)[0].executor,
            ExecutorId::new(0)
        );
    }

    /// Replica choice: a task with three replicas takes an executor from a
    /// node another app does not need, leaving the contested node free.
    #[test]
    fn replica_choice_avoids_contested_nodes() {
        let execs = toy_executors(2);
        let view = AllocationView {
            idle: execs,
            apps: vec![
                // App 0's task can run on node 0 or 1.
                fresh_app(0, 1, vec![job(0, vec![task(0, &[0, 1])])]),
                // App 1's task only works on node 0.
                fresh_app(1, 1, vec![job(1, vec![task(0, &[0])])]),
            ],
        };
        let out = run(&view);
        assert_eq!(out.len(), 2);
        assert_eq!(app_of(&out, 0), Some(AppId::new(1)), "{out:?}");
        assert_eq!(app_of(&out, 1), Some(AppId::new(0)), "{out:?}");
    }
}
