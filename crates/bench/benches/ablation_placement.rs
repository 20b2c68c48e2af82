//! Ablation — replica placement (§VII): random 3-way vs popularity-based
//! placement under Custody and the baseline. Prints the comparison, then
//! times dataset creation under each policy.

use criterion::{criterion_group, criterion_main, Criterion};
use custody_bench::{print_figures, FigureOptions};
use custody_dfs::{NameNode, PopularityPlacement, RandomPlacement, DEFAULT_BLOCK_SIZE};
use custody_simcore::SimRng;

fn bench(c: &mut Criterion) {
    print_figures(&FigureOptions::quick(), |t| t == "ablation-placement");

    let mut g = c.benchmark_group("ablation_placement");
    g.bench_function("create_dataset_random_8gb", |b| {
        b.iter(|| {
            let mut nn = NameNode::new(100, 384_000_000_000, 3);
            let mut rng = SimRng::seed_from_u64(1);
            nn.create_dataset(
                "d",
                8_000_000_000,
                DEFAULT_BLOCK_SIZE,
                &mut RandomPlacement,
                &mut rng,
            )
        })
    });
    g.bench_function("create_dataset_popularity_8gb", |b| {
        b.iter(|| {
            let mut nn = NameNode::new(100, 384_000_000_000, 3);
            let mut rng = SimRng::seed_from_u64(1);
            nn.create_dataset(
                "d",
                8_000_000_000,
                DEFAULT_BLOCK_SIZE,
                &mut PopularityPlacement,
                &mut rng,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
