//! Shared scaffolding for `sim_scale` and the repository benchmark.
//!
//! Two builders live here so both harnesses measure the same shapes:
//!
//! * [`synthetic_round_view`] — a grant-heavy single allocation round
//!   (every executor idle, demand sized to drain the pool);
//! * [`scale_config`] — a paper-shaped WordCount campaign at an
//!   arbitrary cluster size × application count.

use std::sync::Arc;

use custody_cluster::ExecutorId;
use custody_core::{AllocationView, AppState, ExecutorInfo, JobDemand, TaskDemand};
use custody_dfs::NodeId;
use custody_sim::{AllocatorKind, SimConfig, WorkloadKind};
use custody_simcore::SimRng;
use custody_workload::{AppId, ApplicationSpec, JobId};

/// A grant-heavy round: one idle executor per node, per-app quotas that
/// together cover the whole pool, and enough pending tasks (3 replicas,
/// random placement) that both the locality and filler phases run hot.
pub fn synthetic_round_view(nodes: usize, apps: usize, seed: u64) -> AllocationView {
    let mut rng = SimRng::seed_from_u64(seed);
    let executors: Vec<ExecutorInfo> = (0..nodes)
        .map(|i| ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(i),
        })
        .collect();
    let quota = nodes.div_ceil(apps);
    let mut job_counter = 0;
    let app_states: Vec<AppState> = (0..apps)
        .map(|i| {
            let mut pending_jobs = Vec::new();
            let mut demand = 0;
            // Demand slightly over quota so the app stays hungry all round.
            while demand < quota + quota / 4 + 1 {
                let total_inputs = 4 + rng.below(9);
                let unsatisfied_inputs: Vec<TaskDemand> = (0..total_inputs)
                    .map(|t| {
                        let mut prefs: Vec<NodeId> =
                            (0..3).map(|_| NodeId::new(rng.below(nodes))).collect();
                        prefs.sort_unstable();
                        prefs.dedup();
                        TaskDemand {
                            task_index: t,
                            preferred_nodes: Arc::from(prefs),
                        }
                    })
                    .collect();
                pending_jobs.push(JobDemand {
                    job: JobId::new(job_counter),
                    unsatisfied_inputs,
                    pending_tasks: total_inputs,
                    total_inputs,
                    satisfied_inputs: 0,
                });
                job_counter += 1;
                demand += total_inputs;
            }
            let total_jobs = 10 + rng.below(10);
            let total_tasks = total_jobs * 8;
            AppState {
                app: AppId::new(i),
                quota,
                held: 0,
                local_jobs: rng.below(total_jobs),
                total_jobs,
                local_tasks: rng.below(total_tasks),
                total_tasks,
                pending_jobs,
            }
        })
        .collect();
    AllocationView {
        idle: executors,
        apps: app_states,
    }
}

/// A paper-shaped WordCount campaign at `nodes` nodes × `apps`
/// applications submitting `jobs_per_app` jobs each — the end-to-end
/// configuration the `sim_scale` grid sweeps.
pub fn scale_config(nodes: usize, apps: usize, jobs_per_app: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(WorkloadKind::WordCount, nodes, AllocatorKind::Custody, seed);
    cfg.campaign.apps = (0..apps)
        .map(|i| ApplicationSpec {
            name: format!("wordcount-app-{i}"),
            workload: WorkloadKind::WordCount,
        })
        .collect();
    cfg.campaign = cfg.campaign.with_jobs_per_app(jobs_per_app);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_view_is_grant_heavy() {
        let view = synthetic_round_view(50, 4, 7);
        assert_eq!(view.idle.len(), 50);
        let demand: usize = view
            .apps
            .iter()
            .flat_map(|a| &a.pending_jobs)
            .map(|j| j.pending_tasks)
            .sum();
        assert!(demand > 50, "demand must oversubscribe the pool");
    }

    #[test]
    fn scale_config_shapes_the_campaign() {
        let cfg = scale_config(200, 16, 3, 42);
        assert_eq!(cfg.cluster.num_nodes, 200);
        assert_eq!(cfg.campaign.num_apps(), 16);
        assert_eq!(cfg.campaign.jobs_per_app, 3);
    }
}
