//! Ablation — intra-application strategy (Fig. 4/5): fewest-tasks-first
//! priority vs round-robin fairness. Prints the comparison, then times
//! the two one-shot matching strategies on a synthetic instance.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_core::theory::{greedy_local_jobs, roundrobin_local_jobs};
use custody_simcore::SimRng;

fn instance(seed: u64) -> Vec<Vec<Vec<usize>>> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..20)
        .map(|_| {
            let tasks = 1 + rng.below(8);
            (0..tasks)
                .map(|_| {
                    let replicas = 1 + rng.below(3);
                    rng.choose_distinct(64, replicas)
                })
                .collect()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "ablation-intra");

    let jobs = instance(1);
    let mut g = c.benchmark_group("ablation_intra");
    g.bench_function("priority_matching_20_jobs", |b| {
        b.iter(|| greedy_local_jobs(&jobs, 64, 40))
    });
    g.bench_function("roundrobin_matching_20_jobs", |b| {
        b.iter(|| roundrobin_local_jobs(&jobs, 64, 40))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
