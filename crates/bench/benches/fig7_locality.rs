//! Fig. 7 — data locality of input tasks: Custody vs Spark standalone,
//! three workloads × three cluster sizes. Prints the regenerated figure
//! rows, then times one comparison cell end-to-end.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_sim::experiment::PAPER_BASELINE;
use custody_sim::{AllocatorKind, SimConfig, SimOutcome, Simulation, WorkloadKind};

/// One comparison cell: Custody and the baseline on the same submission
/// schedule and placement, two jobs per application.
fn cell(workload: WorkloadKind, nodes: usize) -> [SimOutcome; 2] {
    let mut cfg = SimConfig::paper(workload, nodes, AllocatorKind::Custody, 1);
    cfg.campaign = cfg.campaign.with_jobs_per_app(2);
    let baseline = cfg.clone().with_allocator(PAPER_BASELINE);
    [Simulation::run(&cfg), Simulation::run(&baseline)]
}

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "fig7");

    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("cell_sort_25_nodes", |b| {
        b.iter(|| cell(WorkloadKind::Sort, 25))
    });
    g.bench_function("cell_pagerank_100_nodes", |b| {
        b.iter(|| cell(WorkloadKind::PageRank, 100))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
