//! Ablation — delay-scheduling wait threshold (§V interaction). Prints
//! the sweep, then times the delay scheduler's offer path.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_dfs::NodeId;
use custody_scheduler::{DelayScheduler, RunnableTask, TaskScheduler};
use custody_simcore::{SimDuration, SimRng, SimTime};
use custody_workload::JobId;

fn runnable(seed: u64, n: usize) -> Vec<RunnableTask> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|i| RunnableTask {
            job: JobId::new(i / 20),
            stage: 0,
            task_index: i % 20,
            preferred_nodes: rng
                .choose_distinct(100, 3)
                .into_iter()
                .map(NodeId::new)
                .collect(),
            runnable_since: SimTime::from_millis(i as u64),
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "ablation-delay");

    let tasks = runnable(1, 200);
    let mut g = c.benchmark_group("ablation_delay");
    g.bench_function("offer_200_runnable_tasks", |b| {
        let mut s = DelayScheduler::new(SimDuration::from_secs(3));
        b.iter(|| s.on_offer(NodeId::new(0), &tasks, SimTime::from_secs(1)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
