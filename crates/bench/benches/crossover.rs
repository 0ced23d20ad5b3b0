//! Micro-benchmarks for the three crossover mechanisms (Table 4's "state-
//! aware is slightly cheaper per solve" claim depends on operator cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaplan_domains::SlidingTile;
use gaplan_ga::crossover::crossover;
use gaplan_ga::{CrossoverKind, Decoder, Evaluated, Fitness, GaConfig, Genome};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluated(tile: &SlidingTile, genome: Genome, cfg: &GaConfig) -> Evaluated<Vec<u8>> {
    let mut dec = Decoder::new();
    let start = gaplan_core::Domain::initial_state(tile);
    let (decoded, _) = dec.evaluate(tile, &start, genome.genes(), cfg, None, None);
    Evaluated::new(genome, decoded, Fitness::default())
}

fn bench_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossover");
    group.sample_size(50);

    let tile = SlidingTile::new(4, SlidingTile::standard_goal(4));
    let cfg = GaConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let a = evaluated(&tile, Genome::random(&mut rng, 320), &cfg);
    let b = evaluated(&tile, Genome::random(&mut rng, 320), &cfg);

    for kind in [CrossoverKind::Random, CrossoverKind::StateAware, CrossoverKind::Mixed, CrossoverKind::TwoPoint] {
        group.bench_with_input(BenchmarkId::new("tile4_len320", kind.name()), &kind, |bch, &k| {
            let mut rng = StdRng::seed_from_u64(11);
            bch.iter(|| crossover(&mut rng, k, &a, &b, 320));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crossover);
criterion_main!(benches);
