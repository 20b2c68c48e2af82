//! Chaos sweep — locality and recovery under stochastic faults. Prints
//! the Custody-vs-baseline degradation table, then times a full chaotic
//! run (fault injection + recovery + re-replication on the hot path)
//! and the same run with the invariant auditor forced on, so the
//! auditor's overhead is tracked release-to-release.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_sim::{AllocatorKind, ChaosConfig, SimConfig, Simulation, WorkloadKind};

fn chaotic_config(audit: bool) -> SimConfig {
    let chaos = ChaosConfig::default()
        .with_mean_time_between_faults(20.0)
        .with_horizon(200.0);
    let mut cfg = SimConfig::paper(WorkloadKind::WordCount, 25, AllocatorKind::Custody, 42)
        .with_chaos(chaos)
        .with_audit(audit);
    cfg.campaign = cfg.campaign.with_jobs_per_app(5);
    cfg
}

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "chaos");

    let mut g = c.benchmark_group("chaos_sweep");
    g.sample_size(10);
    g.bench_function("chaotic_run_25_nodes", |b| {
        let cfg = chaotic_config(false);
        b.iter(|| Simulation::run(&cfg))
    });
    g.bench_function("chaotic_run_25_nodes_audited", |b| {
        let cfg = chaotic_config(true);
        b.iter(|| Simulation::run(&cfg))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
