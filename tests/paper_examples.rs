//! Exact reproductions of the paper's worked examples (Figs. 1–5),
//! exercised through the public facade API.

use custody::cluster::ExecutorId;
use custody::core::theory::{greedy_local_jobs, max_concurrent_rate, roundrobin_local_jobs};
use custody::core::{
    AllocationView, AllocatorKind, AppState, CustodyAllocator, ExecutorAllocator, ExecutorInfo,
    InterPolicy, JobDemand, TaskDemand,
};
use custody::dfs::NodeId;
use custody::simcore::SimRng;
use custody::workload::{AppId, JobId};

fn executors(n: usize) -> Vec<ExecutorInfo> {
    (0..n)
        .map(|i| ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(i),
        })
        .collect()
}

fn job(id: usize, task_nodes: &[usize]) -> JobDemand {
    JobDemand {
        job: JobId::new(id),
        unsatisfied_inputs: task_nodes
            .iter()
            .enumerate()
            .map(|(t, &n)| TaskDemand {
                task_index: t,
                preferred_nodes: vec![NodeId::new(n)].into(),
            })
            .collect(),
        pending_tasks: task_nodes.len(),
        total_inputs: task_nodes.len(),
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

/// Counts how many of an app's demanded tasks could run locally under the
/// produced assignment. Every executor is idle in these views, so the idle
/// list is the whole inventory, indexed by executor id.
fn local_tasks(view: &AllocationView, out: &[custody::core::Assignment], app: usize) -> usize {
    let nodes: Vec<NodeId> = out
        .iter()
        .filter(|a| a.app == AppId::new(app))
        .map(|a| view.idle[a.executor.index()].node)
        .collect();
    // Greedy one-to-one matching of tasks to granted nodes.
    let mut free = nodes.clone();
    view.apps[app]
        .pending_jobs
        .iter()
        .flat_map(|j| &j.unsatisfied_inputs)
        .filter(|t| {
            if let Some(pos) = free.iter().position(|n| t.preferred_nodes.contains(n)) {
                free.swap_remove(pos);
                true
            } else {
                false
            }
        })
        .count()
}

/// Fig. 1: data-aware allocation achieves 100 % locality for both apps;
/// the flow-network bound confirms rate 1 is feasible.
#[test]
fn fig1_custody_achieves_perfect_locality() {
    let execs = executors(4);
    let view = AllocationView {
        idle: execs,
        apps: vec![
            fresh_app(0, 2, vec![job(0, &[0, 1])]),
            fresh_app(1, 2, vec![job(1, &[2, 3])]),
        ],
    };
    assert!((max_concurrent_rate(&view) - 1.0).abs() < 1e-9);

    let mut rng = SimRng::seed_from_u64(0);
    let out = AllocatorKind::Custody
        .build(&view.idle, view.apps.len(), &mut rng)
        .allocate(&view, &mut rng);
    assert_eq!(local_tasks(&view, &out, 0), 2);
    assert_eq!(local_tasks(&view, &out, 1), 2);
}

/// Fig. 1: the data-unaware round-robin baseline strands half the tasks.
#[test]
fn fig1_round_robin_baseline_gets_half() {
    let execs = executors(4);
    let view = AllocationView {
        idle: execs,
        apps: vec![
            fresh_app(0, 2, vec![job(0, &[0, 1])]),
            fresh_app(1, 2, vec![job(1, &[2, 3])]),
        ],
    };
    let mut rng = SimRng::seed_from_u64(0);
    let out = AllocatorKind::StaticSpread
        .build(&view.idle, view.apps.len(), &mut rng)
        .allocate(&view, &mut rng);
    assert_eq!(out.len(), 4);
    // Spread deals node 0 → app 0, node 1 → app 1, node 2 → app 0,
    // node 3 → app 1: exactly one useful executor per app.
    assert_eq!(local_tasks(&view, &out, 0), 1);
    assert_eq!(local_tasks(&view, &out, 1), 1);
}

/// Fig. 3: under locality-aware fairness each application secures exactly
/// one of the two contested hot executors.
#[test]
fn fig3_hot_executors_split_between_apps() {
    let execs = executors(4);
    let mk_app = |id: usize| fresh_app(id, 2, vec![job(id * 2, &[0]), job(id * 2 + 1, &[1])]);
    let view = AllocationView {
        idle: execs,
        apps: vec![mk_app(0), mk_app(1)],
    };
    let mut rng = SimRng::seed_from_u64(0);
    let out = CustodyAllocator::new().allocate(&view, &mut rng);
    let hot_of = |app: usize| {
        out.iter()
            .filter(|a| a.app == AppId::new(app) && a.executor.index() <= 1)
            .count()
    };
    assert_eq!(hot_of(0), 1, "{out:?}");
    assert_eq!(hot_of(1), 1, "{out:?}");
    // Both policies agree on the *count* split; only min-locality
    // guarantees it. Verify the guarantee by checking the locality vector
    // max-min dominates the (2, 0) alternative.
    assert!(custody::core::fairness::maxmin_dominates(
        &[1.0, 1.0],
        &[2.0, 0.0]
    ));
}

/// Fig. 3 under naive count-fairness is *allowed* to starve one app; the
/// min-locality policy is not. Verify the policies differ on a crafted
/// view where executor counts tie but locality does not.
#[test]
fn fig3_min_locality_beats_count_fairness_on_history() {
    let execs = executors(1);
    // App 0 historically perfect, app 1 historically starved; both want
    // the single idle executor's node and both hold one executor already.
    let mut lucky = fresh_app(0, 2, vec![job(0, &[0])]);
    lucky.held = 1;
    lucky.local_jobs = 5;
    lucky.total_jobs = 5;
    lucky.local_tasks = 5;
    lucky.total_tasks = 6;
    let mut starved = fresh_app(1, 2, vec![job(1, &[0])]);
    starved.held = 1;
    starved.local_jobs = 0;
    starved.total_jobs = 5;
    starved.local_tasks = 0;
    starved.total_tasks = 6;
    let view = AllocationView {
        idle: execs,
        apps: vec![lucky, starved],
    };
    let mut rng = SimRng::seed_from_u64(0);
    let custody = CustodyAllocator::new().allocate(&view, &mut rng);
    assert_eq!(custody.len(), 1);
    assert_eq!(
        custody[0].app,
        AppId::new(1),
        "min-locality favours starved app"
    );
    let naive = CustodyAllocator::new()
        .with_inter(InterPolicy::NaiveCountFair)
        .allocate(&view, &mut rng);
    assert_eq!(naive[0].app, AppId::new(0), "count-fair ties break by id");
}

/// Fig. 4: priority fully satisfies one job; fairness satisfies none.
#[test]
fn fig4_priority_vs_fairness_matching() {
    let jobs = vec![
        vec![vec![0], vec![1]], // job 1 on executors 0, 1
        vec![vec![2], vec![3]], // job 2 on executors 2, 3
    ];
    let prio = greedy_local_jobs(&jobs, 4, 2);
    assert_eq!(prio.local_jobs, 1);
    assert_eq!(prio.local_tasks, 2);
    let fair = roundrobin_local_jobs(&jobs, 4, 2);
    assert_eq!(fair.local_jobs, 0);
    assert_eq!(fair.local_tasks, 2);
}

/// Fig. 5: the completion-time arithmetic — local read 0.5 units, remote
/// 2.0. Fairness: both jobs bottlenecked at 2.0 (avg 2.0). Priority:
/// job 1 at 0.5, job 2 at 2.0 (avg 1.25).
#[test]
fn fig5_completion_time_arithmetic() {
    let local = 0.5;
    let remote = 2.0;
    let fairness_avg = f64::midpoint(f64::max(local, remote), f64::max(local, remote));
    let priority_avg = f64::midpoint(local, remote);
    assert!((fairness_avg - 2.0).abs() < 1e-12);
    assert!((priority_avg - 1.25).abs() < 1e-12);
    assert!(priority_avg < fairness_avg);
}

/// Fig. 2's instance: demands 2 and 1 are simultaneously routable, so the
/// fractional concurrent-flow rate is 1.
#[test]
fn fig2_flow_network_rate() {
    let execs = executors(3);
    let mut app1 = fresh_app(0, 2, vec![]);
    app1.pending_jobs = vec![JobDemand {
        job: JobId::new(0),
        unsatisfied_inputs: vec![
            TaskDemand {
                task_index: 0,
                preferred_nodes: vec![NodeId::new(0)].into(),
            },
            TaskDemand {
                task_index: 1,
                preferred_nodes: vec![NodeId::new(0), NodeId::new(1)].into(),
            },
        ],
        pending_tasks: 2,
        total_inputs: 2,
        satisfied_inputs: 0,
    }];
    app1.total_jobs = 1;
    app1.total_tasks = 2;
    let mut app2 = fresh_app(1, 1, vec![]);
    app2.pending_jobs = vec![JobDemand {
        job: JobId::new(1),
        unsatisfied_inputs: vec![TaskDemand {
            task_index: 0,
            preferred_nodes: vec![NodeId::new(1), NodeId::new(2)].into(),
        }],
        pending_tasks: 1,
        total_inputs: 1,
        satisfied_inputs: 0,
    }];
    app2.total_jobs = 1;
    app2.total_tasks = 1;
    let view = AllocationView {
        idle: execs,
        apps: vec![app1, app2],
    };
    assert!((max_concurrent_rate(&view) - 1.0).abs() < 1e-9);
    // And Custody realizes it.
    let mut rng = SimRng::seed_from_u64(0);
    let out = CustodyAllocator::new().allocate(&view, &mut rng);
    assert_eq!(local_tasks(&view, &out, 0), 2);
    assert_eq!(local_tasks(&view, &out, 1), 1);
}
