//! Exhaustive solver for the full two-level problem (Eq. 6) on tiny
//! instances.
//!
//! Enumerates every executor→application assignment (respecting quotas),
//! computes each application's best achievable number of *fully local
//! jobs* under that assignment (via the exhaustive job-level matcher),
//! and maximizes the minimum local-job fraction across applications —
//! the exact objective Custody's two-level heuristic approximates.
//! Exponential in executors × applications: validation use only.

use custody_dfs::NodeId;

use crate::allocator::AllocationView;
use crate::theory::matching::exact_max_local_jobs;

/// Upper size limits to keep the enumeration tractable.
const MAX_EXECUTORS: usize = 8;
const MAX_APPS: usize = 3;

/// Computes the optimal (maximum) min-local-job fraction over all
/// quota-respecting executor assignments. Apps without jobs count as
/// fully satisfied. Panics if the instance exceeds the enumeration caps.
pub fn optimal_min_local_job_fraction(view: &AllocationView) -> f64 {
    let n = view.idle.len();
    let a = view.apps.len();
    assert!(n <= MAX_EXECUTORS, "instance too large: {n} executors");
    assert!(a <= MAX_APPS, "instance too large: {a} apps");
    if a == 0 {
        return 1.0;
    }

    // Pre-index: for each app, job task preferences as node lists.
    let mut best = 0.0_f64;
    // Assignment vector: executor i → app index in 0..a, or `a` = unused.
    let total = (a + 1).pow(n as u32);
    for code in 0..total {
        let mut c = code;
        let mut assigned: Vec<usize> = Vec::with_capacity(n);
        let mut counts = vec![0usize; a];
        let mut legal = true;
        for _ in 0..n {
            let owner = c % (a + 1);
            c /= a + 1;
            if owner < a {
                counts[owner] += 1;
                if counts[owner] > view.apps[owner].quota {
                    legal = false;
                    break;
                }
            }
            assigned.push(owner);
        }
        if !legal {
            continue;
        }
        // Evaluate: per app, exhaustive best local-job count with its set.
        let mut worst = 1.0_f64;
        for (ai, app) in view.apps.iter().enumerate() {
            if app.pending_jobs.is_empty() {
                continue;
            }
            // This app's executors, with a node→local-indices map. A
            // sorted vec (instances are capped at 8 executors) keeps
            // iteration and lookup order deterministic, unlike a HashMap.
            let mut node_execs: Vec<(NodeId, Vec<usize>)> = Vec::new();
            let mut count = 0usize;
            for (ei, &owner) in assigned.iter().enumerate() {
                if owner == ai {
                    let node = view.idle[ei].node;
                    match node_execs.binary_search_by_key(&node, |(n, _)| *n) {
                        Ok(pos) => node_execs[pos].1.push(count),
                        Err(pos) => node_execs.insert(pos, (node, vec![count])),
                    }
                    count += 1;
                }
            }
            let jobs: Vec<Vec<Vec<usize>>> = app
                .pending_jobs
                .iter()
                .map(|j| {
                    j.unsatisfied_inputs
                        .iter()
                        .map(|t| {
                            t.preferred_nodes
                                .iter()
                                .flat_map(|p| {
                                    node_execs
                                        .binary_search_by_key(p, |(n, _)| *n)
                                        .map(|pos| node_execs[pos].1.clone())
                                        .unwrap_or_default()
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let local = exact_max_local_jobs(&jobs, count, count);
            worst = worst.min(local as f64 / app.pending_jobs.len() as f64);
        }
        best = best.max(worst);
        if best >= 1.0 {
            return 1.0;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::{AppState, ExecutorInfo, JobDemand, TaskDemand};
    use custody_cluster::ExecutorId;
    use custody_workload::{AppId, JobId};

    fn exec(i: usize, node: usize) -> ExecutorInfo {
        ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(node),
        }
    }

    fn one_task_job(id: usize, node: usize) -> JobDemand {
        JobDemand {
            job: JobId::new(id),
            unsatisfied_inputs: vec![TaskDemand {
                task_index: 0,
                preferred_nodes: vec![NodeId::new(node)].into(),
            }],
            pending_tasks: 1,
            total_inputs: 1,
            satisfied_inputs: 0,
        }
    }

    fn app(id: usize, quota: usize, jobs: Vec<JobDemand>) -> AppState {
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

    #[test]
    fn fig1_optimum_is_one() {
        let execs: Vec<ExecutorInfo> = (0..4).map(|i| exec(i, i)).collect();
        let view = AllocationView {
            idle: execs,
            apps: vec![
                app(0, 2, vec![one_task_job(0, 0), one_task_job(1, 1)]),
                app(1, 2, vec![one_task_job(2, 2), one_task_job(3, 3)]),
            ],
        };
        assert_eq!(optimal_min_local_job_fraction(&view), 1.0);
    }

    #[test]
    fn fig3_optimum_splits_hot_executors() {
        // Both apps want nodes 0 and 1; each can satisfy one of its two
        // single-task jobs: optimum min = 0.5.
        let execs: Vec<ExecutorInfo> = (0..4).map(|i| exec(i, i)).collect();
        let view = AllocationView {
            idle: execs,
            apps: vec![
                app(0, 2, vec![one_task_job(0, 0), one_task_job(1, 1)]),
                app(1, 2, vec![one_task_job(2, 0), one_task_job(3, 1)]),
            ],
        };
        assert!((optimal_min_local_job_fraction(&view) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn starvation_instance_is_zero() {
        // Two apps, one executor, both need it: someone gets nothing.
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![
                app(0, 1, vec![one_task_job(0, 0)]),
                app(1, 1, vec![one_task_job(1, 0)]),
            ],
        };
        assert_eq!(optimal_min_local_job_fraction(&view), 0.0);
    }

    #[test]
    fn no_apps_is_trivially_one() {
        let execs = vec![exec(0, 0)];
        let view = AllocationView {
            idle: execs,
            apps: vec![],
        };
        assert_eq!(optimal_min_local_job_fraction(&view), 1.0);
    }

    #[test]
    fn quota_constrains_the_optimum() {
        // One app, two jobs on distinct nodes, but quota 1: only one job
        // can ever be local.
        let execs = vec![exec(0, 0), exec(1, 1)];
        let view = AllocationView {
            idle: execs,
            apps: vec![app(0, 1, vec![one_task_job(0, 0), one_task_job(1, 1)])],
        };
        assert!((optimal_min_local_job_fraction(&view) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "instance too large")]
    fn oversized_instance_rejected() {
        let execs: Vec<ExecutorInfo> = (0..9).map(|i| exec(i, i)).collect();
        let view = AllocationView {
            idle: execs,
            apps: vec![app(0, 9, vec![])],
        };
        let _ = optimal_min_local_job_fraction(&view);
    }
}
