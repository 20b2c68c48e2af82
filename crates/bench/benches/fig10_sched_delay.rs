//! Fig. 10 — average scheduler delay vs cluster size. Prints the
//! regenerated figure rows, then times the dispatch-heavy 25-node
//! (congested) configuration where delay accounting is hottest.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_sim::{AllocatorKind, SimConfig, Simulation, WorkloadKind};

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "fig10");

    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("run_wordcount_25_congested", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::paper(WorkloadKind::WordCount, 25, AllocatorKind::Custody, 7);
            cfg.campaign = cfg.campaign.with_jobs_per_app(3);
            Simulation::run(&cfg)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
