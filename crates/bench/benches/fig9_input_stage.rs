//! Fig. 9 — average completion time of map (input) stages in the 100-node
//! cluster. Prints the regenerated figure rows, then times the underlying
//! 100-node simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_sim::{AllocatorKind, SimConfig, Simulation, WorkloadKind};

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "fig9");

    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.bench_function("run_sort_100_custody", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::paper(WorkloadKind::Sort, 100, AllocatorKind::Custody, 5);
            cfg.campaign = cfg.campaign.with_jobs_per_app(3);
            Simulation::run(&cfg)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
