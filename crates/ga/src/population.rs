//! Population initialization and (optionally parallel) evaluation.

use gaplan_core::{Domain, SuccessorCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::arena::{PopulationArena, NO_PARENT};
use crate::config::{EvalMode, GaConfig};
use crate::decode::{Decoder, PrefixRef};
use crate::genome::Genome;
use crate::individual::Evaluated;

/// A genome queued for evaluation from scratch. Bred children carry their
/// reusable prefix as arena provenance instead (see [`evaluate_arena`]).
#[derive(Debug, Clone, Default)]
pub struct Candidate {
    /// The genome to evaluate.
    pub genome: Genome,
}

impl Candidate {
    /// A candidate decoded with no reusable prefix.
    pub fn fresh(genome: Genome) -> Candidate {
        Candidate { genome }
    }
}

/// Generate the random initial population (paper §3.2): uniform random
/// genes, lengths drawn uniformly from the spread interval around
/// `cfg.initial_len` (see `GaConfig::initial_len_spread` for why a spread
/// is essential).
pub fn init_population<R: Rng + ?Sized>(rng: &mut R, cfg: &GaConfig) -> Vec<Genome> {
    let nominal = cfg.initial_len as f64;
    let lo = ((nominal * (1.0 - cfg.initial_len_spread)).floor() as usize).max(1);
    let hi = ((nominal * (1.0 + cfg.initial_len_spread)).ceil() as usize).min(cfg.max_len).max(lo);
    (0..cfg.population_size)
        .map(|_| {
            let len = rng.gen_range(lo..=hi);
            Genome::random(rng, len)
        })
        .collect()
}

/// Evaluate a set of genomes from `start`, producing [`Evaluated`]
/// individuals in the same order.
///
/// Evaluation is a pure function of each genome, so the parallel path
/// (rayon, one [`Decoder`] per worker via `map_init`) is bitwise-identical
/// to the sequential path — parallelism changes wall-clock, never results.
pub fn evaluate_all<D: Domain>(
    domain: &D,
    start: &D::State,
    genomes: Vec<Genome>,
    cfg: &GaConfig,
) -> Vec<Evaluated<D::State>> {
    evaluate_candidates(domain, start, genomes.into_iter().map(Candidate::fresh).collect(), cfg, None)
}

/// [`evaluate_all`] through the shared evaluation layer: all workers probe
/// one shared [`SuccessorCache`]. The cache is a pure optimization — results
/// are bitwise-identical to the plain path (and between serial and parallel
/// modes).
pub fn evaluate_candidates<D: Domain>(
    domain: &D,
    start: &D::State,
    candidates: Vec<Candidate>,
    cfg: &GaConfig,
    cache: Option<&SuccessorCache<D::State>>,
) -> Vec<Evaluated<D::State>> {
    if cfg.eval == EvalMode::Parallel {
        candidates
            .into_par_iter()
            .map_init(Decoder::new, |dec, cand| {
                let (decoded, fitness) = dec.evaluate(domain, start, cand.genome.genes(), cfg, cache, None);
                Evaluated::new(cand.genome, decoded, fitness)
            })
            .collect()
    } else {
        let mut dec = Decoder::new();
        candidates
            .into_iter()
            .map(|cand| {
                let (decoded, fitness) = dec.evaluate(domain, start, cand.genome.genes(), cfg, cache, None);
                Evaluated::new(cand.genome, decoded, fitness)
            })
            .collect()
    }
}

/// Evaluate an arena-backed generation: each individual's genes live in the
/// shared flat buffer, and its provenance is resolved to a *borrowed* prefix
/// hint against `parents` (the previous, already-evaluated generation) — no
/// per-individual hint allocation. Results are bitwise-identical to
/// [`evaluate_candidates`] over equivalent candidates, in both eval modes.
pub fn evaluate_arena<D: Domain>(
    domain: &D,
    start: &D::State,
    arena: &PopulationArena,
    parents: &[Evaluated<D::State>],
    cfg: &GaConfig,
    cache: Option<&SuccessorCache<D::State>>,
) -> Vec<Evaluated<D::State>> {
    let eval_one = |dec: &mut Decoder, i: usize| {
        let genes = arena.genes(i);
        let prov = arena.prov(i);
        let hint = if prov.parent == NO_PARENT {
            None
        } else {
            let donor = &parents[prov.parent as usize];
            Some(PrefixRef::new(&donor.ops, &donor.match_keys, &donor.step_goals, prov.prefix as usize))
        };
        let (decoded, fitness) = dec.evaluate(domain, start, genes, cfg, cache, hint);
        Evaluated::new(Genome::from_genes(genes.to_vec()), decoded, fitness)
    };
    if cfg.eval == EvalMode::Parallel {
        (0..arena.len()).into_par_iter().map_init(Decoder::new, |dec, i| eval_one(dec, i)).collect()
    } else {
        let mut dec = Decoder::new();
        (0..arena.len()).map(|i| eval_one(&mut dec, i)).collect()
    }
}

/// Deterministic RNG for a phase, derived from the config seed and phase
/// index.
pub fn phase_rng(cfg: &GaConfig, phase: u32) -> StdRng {
    StdRng::seed_from_u64(crate::rng::derive_seed(cfg.seed, u64::from(phase)))
}

/// Deterministic RNG for one island of a phase. With a single island this is
/// exactly [`phase_rng`] — the island-model run is byte-identical to the
/// historical single-population path. With `K > 1` islands, each island gets
/// an independent stream split off the phase seed (`derive_seed(phase_seed,
/// island + 1)`; the `+ 1` keeps island 0 distinct from the phase stream
/// itself, so no island aliases the K=1 run).
pub fn island_rng(cfg: &GaConfig, phase: u32, island: u32) -> StdRng {
    if cfg.islands <= 1 {
        phase_rng(cfg, phase)
    } else {
        let phase_seed = crate::rng::derive_seed(cfg.seed, u64::from(phase));
        StdRng::seed_from_u64(crate::rng::derive_seed(phase_seed, u64::from(island) + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_core::strips::{StripsBuilder, StripsProblem};

    fn chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 0..n {
            b.op(&format!("step{i}"), &[&format!("s{i}")], &[&format!("s{}", i + 1)], &[&format!("s{i}")], 1.0)
                .unwrap();
        }
        b.init(&["s0"]).unwrap();
        b.goal(&[&format!("s{n}")]).unwrap();
        b.build().unwrap()
    }

    fn small_cfg() -> GaConfig {
        GaConfig { population_size: 30, initial_len: 8, max_len: 16, seed: 99, ..GaConfig::default() }
    }

    #[test]
    fn init_population_lengths_follow_spread() {
        let cfg = small_cfg(); // initial_len 8, spread 0.5 -> lengths in [4, 12]
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        assert_eq!(pop.len(), 30);
        assert!(pop.iter().all(|g| (4..=12).contains(&g.len())), "lengths out of range");
        // both parities must be present (the tile-puzzle parity trap)
        assert!(pop.iter().any(|g| g.len() % 2 == 0));
        assert!(pop.iter().any(|g| g.len() % 2 == 1));
        // not all identical
        assert!(pop.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn zero_spread_gives_fixed_lengths() {
        let mut cfg = small_cfg();
        cfg.initial_len_spread = 0.0;
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        assert!(pop.iter().all(|g| g.len() == 8));
    }

    #[test]
    fn spread_respects_max_len() {
        let mut cfg = small_cfg();
        cfg.initial_len = 16;
        cfg.max_len = 16; // upper end of the spread would be 24
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        assert!(pop.iter().all(|g| g.len() <= 16));
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree() {
        let d = chain(6);
        let mut cfg = small_cfg();
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);

        cfg.eval = EvalMode::Parallel;
        let par = evaluate_all(&d, &d.initial_state(), pop.clone(), &cfg);
        cfg.eval = EvalMode::Serial;
        let seq = evaluate_all(&d, &d.initial_state(), pop, &cfg);

        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.genome, s.genome);
            assert_eq!(p.ops, s.ops);
            assert_eq!(p.fitness.total, s.fitness.total);
            assert_eq!(p.final_state, s.final_state);
        }
    }

    #[test]
    fn shared_cache_changes_nothing_serial_or_parallel() {
        use gaplan_core::SuccessorCache;
        let d = chain(6);
        let mut cfg = small_cfg();
        let mut rng = phase_rng(&cfg, 0);
        let pop = init_population(&mut rng, &cfg);
        let plain = evaluate_all(&d, &d.initial_state(), pop.clone(), &cfg);

        let cache = SuccessorCache::new(1024);
        for eval in [EvalMode::Serial, EvalMode::Parallel] {
            cfg.eval = eval;
            let cands: Vec<Candidate> = pop.iter().cloned().map(Candidate::fresh).collect();
            let cached = evaluate_candidates(&d, &d.initial_state(), cands, &cfg, Some(&cache));
            for (p, c) in plain.iter().zip(&cached) {
                assert_eq!(p.genome, c.genome);
                assert_eq!(p.ops, c.ops);
                assert_eq!(p.match_keys, c.match_keys);
                assert_eq!(p.fitness.total.to_bits(), c.fitness.total.to_bits());
                assert_eq!(p.final_state, c.final_state);
            }
        }
        assert!(cache.stats().hits > 0, "populations share states; the cache must hit");
    }

    #[test]
    fn evaluation_preserves_order() {
        let d = chain(3);
        let cfg = small_cfg();
        let genomes =
            vec![Genome::from_genes(vec![0.1]), Genome::from_genes(vec![0.2, 0.3]), Genome::from_genes(vec![])];
        let evald = evaluate_all(&d, &d.initial_state(), genomes.clone(), &cfg);
        for (g, e) in genomes.iter().zip(&evald) {
            assert_eq!(g, &e.genome);
        }
    }

    #[test]
    fn phase_rng_streams_are_independent() {
        let cfg = small_cfg();
        let a: Vec<u64> = {
            let mut r = phase_rng(&cfg, 0);
            (0..4).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = phase_rng(&cfg, 1);
            (0..4).map(|_| r.gen()).collect()
        };
        assert_ne!(a, b);
        let a2: Vec<u64> = {
            let mut r = phase_rng(&cfg, 0);
            (0..4).map(|_| r.gen()).collect()
        };
        assert_eq!(a, a2);
    }
}
