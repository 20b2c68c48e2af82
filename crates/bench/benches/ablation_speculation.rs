//! Ablation — speculative execution (§IV-B extension). Prints the
//! comparison, then times the straggler-detection policy.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_scheduler::speculation::{SpeculationConfig, SpeculationPolicy};
use custody_simcore::{SimDuration, SimTime};

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "ablation-speculation");

    let mut g = c.benchmark_group("ablation_speculation");
    g.bench_function("should_speculate_1000_completions", |b| {
        let mut p = SpeculationPolicy::new(SpeculationConfig::default(), 1000);
        for i in 0..900 {
            p.record_completion(SimDuration::from_millis(900 + i % 200));
        }
        b.iter(|| p.should_speculate(SimTime::ZERO, SimTime::from_secs(5)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
