//! Micro-benchmarks for the decode hot path: gene → valid-operation mapping
//! across the three domain families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaplan_domains::{Hanoi, SlidingTile};
use gaplan_ga::{Decoder, GaConfig, Genome};
use gaplan_grid::image_pipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    group.sample_size(30);

    let cfg = GaConfig::default();
    let mut rng = StdRng::seed_from_u64(1);

    for n in [5usize, 7] {
        let hanoi = Hanoi::new(n);
        let len = 5 * ((1usize << n) - 1);
        let genome = Genome::random(&mut rng, len);
        group.bench_with_input(BenchmarkId::new("hanoi", format!("n{n}_len{len}")), &genome, |b, g| {
            let mut dec = Decoder::new();
            let start = gaplan_core::Domain::initial_state(&hanoi);
            b.iter(|| dec.evaluate(&hanoi, &start, g.genes(), &cfg, None, None));
        });
    }

    for n in [3usize, 4] {
        let tile = SlidingTile::new(n, SlidingTile::standard_goal(n));
        let len = 5 * (n * n * (n * n).ilog2() as usize);
        let genome = Genome::random(&mut rng, len);
        group.bench_with_input(BenchmarkId::new("tile", format!("n{n}_len{len}")), &genome, |b, g| {
            let mut dec = Decoder::new();
            let start = gaplan_core::Domain::initial_state(&tile);
            b.iter(|| dec.evaluate(&tile, &start, g.genes(), &cfg, None, None));
        });
    }

    let sc = image_pipeline();
    let genome = Genome::random(&mut rng, 16);
    group.bench_function("grid_len16", |b| {
        let mut dec = Decoder::new();
        let start = gaplan_core::Domain::initial_state(&sc.world);
        b.iter(|| dec.evaluate(&sc.world, &start, genome.genes(), &cfg, None, None));
    });

    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
