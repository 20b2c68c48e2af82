//! Cross-validation of the theory module: the max-flow, matching and
//! concurrent-flow implementations must agree with each other and bound
//! the greedy strategies, on randomized instances.

use custody::cluster::ExecutorId;
use custody::core::theory::{
    exact_max_local_jobs, greedy_local_jobs, hopcroft_karp, max_concurrent_rate,
    max_min_locality_vector, optimal_min_local_job_fraction, Dinic, FlowNetwork,
};
use custody::core::{
    AllocationView, AppState, CustodyAllocator, ExecutorAllocator, ExecutorInfo, JobDemand,
    TaskDemand,
};
use custody::dfs::NodeId;
use custody::simcore::SimRng;
use custody::workload::{AppId, JobId};

/// Builds a random single-replica bipartite instance as both an
/// adjacency list (for Hopcroft–Karp) and a Dinic network; their optima
/// must agree.
#[test]
fn hopcroft_karp_agrees_with_maxflow() {
    let mut rng = SimRng::seed_from_u64(1);
    for trial in 0..100 {
        let left = 1 + rng.below(12);
        let right = 1 + rng.below(12);
        let adj: Vec<Vec<usize>> = (0..left)
            .map(|_| {
                let deg = rng.below(right.min(4) + 1);
                rng.choose_distinct(right, deg)
            })
            .collect();
        let (hk, matching) = hopcroft_karp(&adj, right);

        let mut d = Dinic::new();
        let s = d.add_node();
        let l0 = d.add_nodes(left);
        let r0 = d.add_nodes(right);
        let t = d.add_node();
        for (u, nbrs) in adj.iter().enumerate() {
            d.add_edge(s, l0 + u, 1.0);
            for &v in nbrs {
                d.add_edge(l0 + u, r0 + v, 1.0);
            }
        }
        for v in 0..right {
            d.add_edge(r0 + v, t, 1.0);
        }
        let flow = d.max_flow(s, t).round() as usize;
        assert_eq!(hk, flow, "trial {trial}: HK {hk} vs flow {flow}");

        // The returned matching must be consistent: distinct right
        // vertices, edges from the adjacency.
        let mut used = vec![false; right];
        for (u, m) in matching.iter().enumerate() {
            if let Some(v) = m {
                assert!(adj[u].contains(v), "matched non-edge");
                assert!(!used[*v], "right vertex matched twice");
                used[*v] = true;
            }
        }
        assert_eq!(matching.iter().flatten().count(), hk);
    }
}

/// The greedy never reports more local jobs than the exhaustive optimum,
/// and never matches more tasks than Hopcroft–Karp allows.
#[test]
fn greedy_bounded_by_exact_optima() {
    let mut rng = SimRng::seed_from_u64(2);
    for _ in 0..200 {
        let num_exec = 2 + rng.below(8);
        let num_jobs = 1 + rng.below(5);
        let jobs: Vec<Vec<Vec<usize>>> = (0..num_jobs)
            .map(|_| {
                let tasks = 1 + rng.below(3);
                (0..tasks)
                    .map(|_| {
                        let replicas = 1 + rng.below(num_exec.min(3));
                        rng.choose_distinct(num_exec, replicas)
                    })
                    .collect()
            })
            .collect();
        let budget = 1 + rng.below(num_exec);
        let greedy = greedy_local_jobs(&jobs, num_exec, budget);
        let exact = exact_max_local_jobs(&jobs, num_exec, budget);
        assert!(greedy.local_jobs <= exact);
        let adj: Vec<Vec<usize>> = jobs.iter().flat_map(|j| j.iter().cloned()).collect();
        let (hk, _) = hopcroft_karp(&adj, num_exec);
        assert!(greedy.local_tasks <= hk.min(budget));
        assert_eq!(greedy.local_tasks, greedy.executors_used);
    }
}

fn random_view(rng: &mut SimRng, nodes: usize, apps: usize) -> AllocationView {
    let executors: Vec<ExecutorInfo> = (0..nodes)
        .map(|i| ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(i),
        })
        .collect();
    let apps = (0..apps)
        .map(|a| {
            let num_jobs = 1 + rng.below(3);
            let pending_jobs: Vec<JobDemand> = (0..num_jobs)
                .map(|j| {
                    let tasks: Vec<TaskDemand> = (0..1 + rng.below(3))
                        .map(|t| TaskDemand {
                            task_index: t,
                            preferred_nodes: {
                                let k = 1 + rng.below(nodes.min(3));
                                let mut v: Vec<NodeId> = rng
                                    .choose_distinct(nodes, k)
                                    .into_iter()
                                    .map(NodeId::new)
                                    .collect();
                                v.sort_unstable();
                                v.into()
                            },
                        })
                        .collect();
                    let n = tasks.len();
                    JobDemand {
                        job: JobId::new(a * 10 + j),
                        unsatisfied_inputs: tasks,
                        pending_tasks: n,
                        total_inputs: n,
                        satisfied_inputs: 0,
                    }
                })
                .collect();
            let total_tasks = pending_jobs.iter().map(|j| j.total_inputs).sum();
            AppState {
                app: AppId::new(a),
                quota: 1 + rng.below(nodes),
                held: 0,
                local_jobs: 0,
                total_jobs: pending_jobs.len(),
                local_tasks: 0,
                total_tasks,
                pending_jobs,
            }
        })
        .collect();
    AllocationView {
        idle: executors,
        apps,
    }
}

/// The fractional concurrent-flow rate λ* upper-bounds the locality rate
/// Custody actually achieves for its worst-off application, on any
/// instance (λ* is a relaxation).
#[test]
fn concurrent_rate_upper_bounds_custody() {
    let mut rng = SimRng::seed_from_u64(3);
    for trial in 0..100 {
        let nodes = 2 + rng.below(8);
        let num_apps = 1 + rng.below(3);
        let view = random_view(&mut rng, nodes, num_apps);
        let rate = max_concurrent_rate(&view);
        let mut alloc_rng = SimRng::seed_from_u64(trial);
        let out = CustodyAllocator::new().allocate(&view, &mut alloc_rng);
        // Per app: matched local tasks (executors granted for specific
        // tasks) / total demanded tasks.
        let mut worst: f64 = 1.0;
        for app in &view.apps {
            let demanded: usize = app.pending_jobs.iter().map(|j| j.total_inputs).sum();
            if demanded == 0 {
                continue;
            }
            let matched = out
                .iter()
                .filter(|x| x.app == app.app && x.for_task.is_some())
                .count();
            worst = worst.min(matched as f64 / demanded as f64);
        }
        assert!(
            worst <= rate + 1e-6,
            "trial {trial}: custody min-rate {worst:.4} exceeds λ* {rate:.4}"
        );
    }
}

/// Progressive filling is consistent with the bottleneck rate (its
/// minimum equals λ*) and the total-flow bound (its weighted sum cannot
/// exceed the plain max-flow), and Custody's total locality stays within
/// the max-flow bound.
#[test]
fn waterfill_and_custody_respect_flow_bounds() {
    let mut rng = SimRng::seed_from_u64(5);
    for trial in 0..60 {
        let nodes = 2 + rng.below(6);
        let num_apps = 1 + rng.below(3);
        let view = random_view(&mut rng, nodes, num_apps);
        let mut net = FlowNetwork::from_view(&view);
        let max_total = net.max_total_local_tasks() as f64;
        let rates = max_min_locality_vector(&view);
        // Weighted sum of the fair vector ≤ unconstrained max flow.
        let weighted: f64 = rates
            .iter()
            .zip(net.demands())
            .map(|(r, &d)| r * d as f64)
            .sum();
        assert!(
            weighted <= max_total + 1e-3,
            "trial {trial}: waterfill routes {weighted} > max flow {max_total}"
        );
        // min(vector) == λ*.
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let lambda = max_concurrent_rate(&view);
        assert!((min - lambda).abs() < 1e-3, "trial {trial}");
        // Custody's total for-task grants ≤ max flow.
        let mut alloc_rng = SimRng::seed_from_u64(trial);
        let out = CustodyAllocator::new().allocate(&view, &mut alloc_rng);
        let custody_total = out.iter().filter(|a| a.for_task.is_some()).count() as f64;
        assert!(custody_total <= max_total + 1e-9, "trial {trial}");
    }
}

/// Custody's one-round outcome never exceeds the exhaustive two-level
/// optimum of Eq. 6, and on average lands close to it (tiny instances).
#[test]
fn custody_vs_global_optimum_on_tiny_instances() {
    let mut rng = SimRng::seed_from_u64(6);
    let mut custody_total = 0.0;
    let mut optimum_total = 0.0;
    for trial in 0..60 {
        let nodes = 2 + rng.below(5); // ≤ 6 executors
        let num_apps = 1 + rng.below(2); // ≤ 2 apps
        let view = random_view(&mut rng, nodes, num_apps);
        let optimum = optimal_min_local_job_fraction(&view);
        let mut alloc_rng = SimRng::seed_from_u64(trial);
        let out = CustodyAllocator::new().allocate(&view, &mut alloc_rng);
        // Custody's achieved min-local-job fraction under this round.
        let mut worst = 1.0_f64;
        for app in &view.apps {
            if app.pending_jobs.is_empty() {
                continue;
            }
            let mut per_job: std::collections::HashMap<JobId, usize> =
                std::collections::HashMap::new();
            for a in out.iter().filter(|a| a.app == app.app) {
                if let Some((job, _)) = a.for_task {
                    *per_job.entry(job).or_insert(0) += 1;
                }
            }
            let local_jobs = app
                .pending_jobs
                .iter()
                .filter(|j| per_job.get(&j.job).copied().unwrap_or(0) == j.total_inputs)
                .count();
            worst = worst.min(local_jobs as f64 / app.pending_jobs.len() as f64);
        }
        assert!(
            worst <= optimum + 1e-9,
            "trial {trial}: custody {worst} beat the optimum {optimum}?!"
        );
        custody_total += worst;
        optimum_total += optimum;
    }
    // Aggregate quality: the greedy two-level heuristic should capture
    // most of the optimum on random instances.
    assert!(
        custody_total >= 0.6 * optimum_total,
        "custody sum {custody_total:.2} vs optimum sum {optimum_total:.2}"
    );
}

/// The flow network's rate-1 total equals Hopcroft–Karp on the flattened
/// task–executor bipartite graph (both are the max number of
/// simultaneously local tasks).
#[test]
fn flow_total_matches_bipartite_matching() {
    let mut rng = SimRng::seed_from_u64(4);
    for _ in 0..100 {
        let nodes = 2 + rng.below(8);
        let num_apps = 1 + rng.below(3);
        let view = random_view(&mut rng, nodes, num_apps);
        let mut net = FlowNetwork::from_view(&view);
        let flow_total = net.max_total_local_tasks();

        // Flatten: one left vertex per task, right = executors (== nodes
        // here, single executor per node).
        let mut adj: Vec<Vec<usize>> = Vec::new();
        for app in &view.apps {
            for job in &app.pending_jobs {
                for task in &job.unsatisfied_inputs {
                    adj.push(task.preferred_nodes.iter().map(|n| n.index()).collect());
                }
            }
        }
        let (hk, _) = hopcroft_karp(&adj, nodes);
        assert_eq!(flow_total, hk);
    }
}
