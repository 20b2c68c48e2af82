//! Ablation — inter-application strategy (Fig. 3): minimum-locality
//! selection vs naive executor-count fairness. Prints the comparison,
//! then times a full Custody allocation round at 100-node scale.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_cluster::ExecutorId;
use custody_core::{
    AllocationView, AppState, CustodyAllocator, ExecutorAllocator, ExecutorInfo, JobDemand,
    TaskDemand,
};
use custody_dfs::NodeId;
use custody_simcore::SimRng;
use custody_workload::{AppId, JobId};

/// A 100-node, 4-app view with ~50 pending tasks per app.
fn big_view(seed: u64) -> AllocationView {
    let mut rng = SimRng::seed_from_u64(seed);
    let executors: Vec<ExecutorInfo> = (0..200)
        .map(|i| ExecutorInfo {
            id: ExecutorId::new(i),
            node: NodeId::new(i / 2),
        })
        .collect();
    let apps = (0..4)
        .map(|a| {
            let pending_jobs = (0..5)
                .map(|j| {
                    let tasks: Vec<TaskDemand> = (0..10)
                        .map(|t| TaskDemand {
                            task_index: t,
                            preferred_nodes: rng
                                .choose_distinct(100, 3)
                                .into_iter()
                                .map(NodeId::new)
                                .collect(),
                        })
                        .collect();
                    JobDemand {
                        job: JobId::new(a * 10 + j),
                        pending_tasks: tasks.len(),
                        total_inputs: tasks.len(),
                        satisfied_inputs: 0,
                        unsatisfied_inputs: tasks,
                    }
                })
                .collect();
            AppState {
                app: AppId::new(a),
                quota: 50,
                held: 0,
                local_jobs: 0,
                total_jobs: 5,
                local_tasks: 0,
                total_tasks: 50,
                pending_jobs,
            }
        })
        .collect();
    AllocationView {
        idle: executors.clone(),
        all_executors: executors,
        apps,
    }
}

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "ablation-inter");

    let view = big_view(1);
    let mut rng = SimRng::seed_from_u64(2);
    let mut g = c.benchmark_group("ablation_inter");
    g.bench_function("custody_round_200_executors", |b| {
        let mut alloc = CustodyAllocator::new();
        b.iter(|| alloc.allocate(&view, &mut rng))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
