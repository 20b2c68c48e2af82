//! Property test: the production Custody allocator (lazy-deletion heap,
//! cached per-node demand, recycled scratch buffers) must agree
//! grant-for-grant with the scan-everything reference specification
//! (`custody_core::custody::reference_allocate`) on randomized round
//! states — including histories where two apps have *equal* locality
//! fractions with different denominators (1/2 vs 2/4), the case a
//! float-keyed ordering could get wrong.

use std::sync::Arc;

use custody_cluster::ExecutorId;
use custody_core::allocator::validate_assignments;
use custody_core::custody::{reference_allocate, reference_allocate_with_costs};
use custody_core::{
    AllocationView, AppState, CustodyAllocator, ExecutorAllocator, ExecutorInfo, HealthCost,
    JobDemand, TaskDemand,
};
use custody_dfs::NodeId;
use custody_simcore::SimRng;
use custody_workload::{AppId, JobId};

/// Builds a random allocation view: `nodes` nodes hosting a random number
/// of executors (a random subset idle), `apps` applications with random
/// quotas, held counts, locality histories, and pending jobs whose tasks
/// prefer 1–3 random nodes (sorted, deduped, sometimes dangling).
fn random_view(rng: &mut SimRng, nodes: usize, apps: usize) -> AllocationView {
    let mut executors = Vec::new();
    for n in 0..nodes {
        for _ in 0..rng.below(3) {
            executors.push(ExecutorInfo {
                id: ExecutorId::new(executors.len()),
                node: NodeId::new(n),
            });
        }
    }
    let idle: Vec<ExecutorInfo> = executors
        .iter()
        .filter(|_| rng.chance(0.6))
        .copied()
        .collect();

    let mut job_counter = 0;
    let app_states: Vec<AppState> = (0..apps)
        .map(|i| {
            let pending_jobs: Vec<JobDemand> = (0..rng.below(4))
                .map(|_| {
                    let job = JobId::new(job_counter);
                    job_counter += 1;
                    let total_inputs = 1 + rng.below(4);
                    let satisfied_inputs = rng.below(total_inputs);
                    let unsatisfied_inputs: Vec<TaskDemand> = (satisfied_inputs..total_inputs)
                        .map(|t| {
                            let mut prefs: Vec<NodeId> = (0..1 + rng.below(3))
                                .map(|_| {
                                    // Occasionally prefer a node with no
                                    // executors at all (dangling replica).
                                    NodeId::new(rng.below(nodes + 2))
                                })
                                .collect();
                            prefs.sort_unstable();
                            prefs.dedup();
                            TaskDemand {
                                task_index: t,
                                preferred_nodes: Arc::from(prefs),
                            }
                        })
                        .collect();
                    // Downstream tasks inflate pending beyond the inputs.
                    let pending_tasks = unsatisfied_inputs.len() + rng.below(3);
                    JobDemand {
                        job,
                        unsatisfied_inputs,
                        pending_tasks: pending_tasks.max(1),
                        total_inputs,
                        satisfied_inputs,
                    }
                })
                .collect();
            // Half the time draw histories from a small set of fractions so
            // equal-value, different-denominator collisions (1/2 vs 2/4,
            // 1/3 vs 3/9) actually occur and exercise the exact comparison.
            let (local_jobs, total_jobs, local_tasks, total_tasks) = if rng.chance(0.5) {
                let pairs = [(1, 2), (2, 4), (1, 3), (3, 9), (0, 1), (0, 0), (2, 2)];
                let (jn, jd) = *rng.pick(&pairs);
                let (tn, td) = *rng.pick(&pairs);
                (jn, jd, tn, td)
            } else {
                let total_jobs = rng.below(20);
                let total_tasks = total_jobs * (1 + rng.below(4));
                (
                    if total_jobs == 0 {
                        0
                    } else {
                        rng.below(total_jobs + 1)
                    },
                    total_jobs,
                    if total_tasks == 0 {
                        0
                    } else {
                        rng.below(total_tasks + 1)
                    },
                    total_tasks,
                )
            };
            let quota = rng.below(8);
            AppState {
                app: AppId::new(i),
                quota,
                held: rng.below(quota + 1),
                local_jobs,
                total_jobs,
                local_tasks,
                total_tasks,
                pending_jobs,
            }
        })
        .collect();

    AllocationView {
        idle,
        apps: app_states,
    }
}

/// 500 random views across several cluster shapes: the heap-based round
/// and the naive rescan must produce the identical assignment sequence.
#[test]
fn production_round_matches_reference_on_random_views() {
    let mut rng = SimRng::seed_from_u64(0xC057_0DA7);
    // One long-lived allocator so recycled scratch buffers carry state
    // across views — reuse bugs would surface as divergence here.
    let mut production = CustodyAllocator::new();
    for case in 0..500 {
        let nodes = *rng.pick(&[3, 6, 12, 30]);
        let apps = 1 + rng.below(6);
        let view = random_view(&mut rng, nodes, apps);
        let mut alloc_rng = SimRng::seed_from_u64(case);
        let fast = production.allocate(&view, &mut alloc_rng);
        validate_assignments(&view, &fast);
        let slow = reference_allocate(&view);
        assert_eq!(
            slow, fast,
            "case {case}: heap-based round diverged from the reference \
             specification on {nodes} nodes / {apps} apps: {view:?}"
        );
    }
}

/// Scale-out shape: 2,000-node views. The small shapes above never grow
/// the dense round's interner, per-slot idle lists, or bitset universes
/// past a few dozen slots; these views force reallocation-at-capacity
/// and long skip-ahead cursor walks while the reference rescan keeps it
/// honest grant-for-grant.
#[test]
fn production_round_matches_reference_at_2k_nodes() {
    let mut rng = SimRng::seed_from_u64(0x5CA1_E007);
    let mut production = CustodyAllocator::new();
    for case in 0..4 {
        let apps = 4 + rng.below(13);
        let view = random_view(&mut rng, 2_000, apps);
        let mut alloc_rng = SimRng::seed_from_u64(case);
        let fast = production.allocate(&view, &mut alloc_rng);
        validate_assignments(&view, &fast);
        let slow = reference_allocate(&view);
        assert_eq!(
            slow, fast,
            "case {case}: dense round diverged from the reference at 2k nodes"
        );
    }
}

/// A random health-cost table over a random subset of nodes (sometimes
/// empty, sometimes covering dangling nodes, credits drawn across the
/// whole bucket range including neutral).
fn random_costs(rng: &mut SimRng, nodes: usize, scale: u32) -> Vec<(NodeId, HealthCost)> {
    let mut costs = Vec::new();
    for n in 0..nodes + 2 {
        if rng.chance(0.4) {
            costs.push((
                NodeId::new(n),
                HealthCost {
                    credit: 1 + rng.below(scale as usize) as u32,
                    scale,
                },
            ));
        }
    }
    costs
}

/// Health-extended keys: random cost tables on random views — the
/// cost-aware production round (weighted heap keys, penalty-first replica
/// choice, tiered filler cursors) must agree grant-for-grant with the
/// cost-aware reference rescan.
#[test]
fn production_round_matches_reference_with_health_costs() {
    let mut rng = SimRng::seed_from_u64(0x50F7_C057);
    let mut production = CustodyAllocator::new();
    for case in 0..300 {
        let nodes = *rng.pick(&[3, 6, 12, 30]);
        let apps = 1 + rng.below(6);
        let scale = *rng.pick(&[2u32, 8, 16]);
        let view = random_view(&mut rng, nodes, apps);
        let costs = random_costs(&mut rng, nodes, scale);
        production.set_node_health_costs(&costs);
        let mut alloc_rng = SimRng::seed_from_u64(case);
        let fast = production.allocate(&view, &mut alloc_rng);
        validate_assignments(&view, &fast);
        let slow = reference_allocate_with_costs(&view, &costs);
        assert_eq!(
            slow, fast,
            "case {case}: cost-aware round diverged from the reference on \
             {nodes} nodes / {apps} apps / scale {scale}: {costs:?} {view:?}"
        );
    }
}

/// Oracle degeneration at 1k nodes: an all-healthy (neutral) cost vector
/// must reproduce the costless allocation bit-identically — the weighted
/// key scales both sides of every exact-rational comparison by the same
/// factor, the tiered filler collapses to the plain scan, and replica
/// penalties are uniformly zero.
#[test]
fn neutral_cost_vector_degenerates_to_costless_allocation_at_1k_nodes() {
    let mut rng = SimRng::seed_from_u64(0xA11_4EA1);
    let mut costless = CustodyAllocator::new();
    let mut costed = CustodyAllocator::new();
    for case in 0..6 {
        let apps = 4 + rng.below(13);
        let view = random_view(&mut rng, 1_000, apps);
        let neutral: Vec<(NodeId, HealthCost)> = (0..1_000)
            .map(|n| (NodeId::new(n), HealthCost::neutral(8)))
            .collect();
        costed.set_node_health_costs(&neutral);
        let plain = costless.allocate(&view, &mut SimRng::seed_from_u64(case));
        let weighted = costed.allocate(&view, &mut SimRng::seed_from_u64(case));
        assert_eq!(
            plain, weighted,
            "case {case}: neutral multiplier vector changed an allocation"
        );
        assert_eq!(
            reference_allocate_with_costs(&view, &neutral),
            plain,
            "case {case}: neutral reference diverged"
        );
    }
}

/// Degenerate shapes the random generator rarely hits: no idle executors,
/// no apps, demand with no executors anywhere, all-satisfied histories.
#[test]
fn production_round_matches_reference_on_edge_views() {
    let empty = AllocationView {
        idle: vec![],
        apps: vec![],
    };
    assert_eq!(
        reference_allocate(&empty),
        CustodyAllocator::new().allocate(&empty, &mut SimRng::seed_from_u64(1))
    );

    let mut rng = SimRng::seed_from_u64(7);
    for (nodes, apps) in [(1, 1), (1, 4), (2, 1)] {
        for _ in 0..50 {
            let mut view = random_view(&mut rng, nodes, apps);
            if rng.chance(0.5) {
                view.idle.clear();
            }
            let fast = CustodyAllocator::new().allocate(&view, &mut SimRng::seed_from_u64(2));
            assert_eq!(reference_allocate(&view), fast, "{view:?}");
        }
    }
}
