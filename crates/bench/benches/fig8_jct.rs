//! Fig. 8 — average job completion times: Custody vs Spark standalone.
//! Prints the regenerated figure rows, then times full campaign runs.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_sim::{AllocatorKind, SimConfig, Simulation, WorkloadKind};

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "fig8");

    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    for kind in [AllocatorKind::Custody, AllocatorKind::StaticSpread] {
        g.bench_function(format!("run_wordcount_50_{kind}"), |b| {
            b.iter(|| {
                let mut cfg = SimConfig::paper(WorkloadKind::WordCount, 50, kind, 3);
                cfg.campaign = cfg.campaign.with_jobs_per_app(3);
                Simulation::run(&cfg)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
