//! Single-individual metaheuristics over the same indirect encoding: the
//! paper's opening sentence groups "genetic algorithms, neural networks,
//! and simulated annealing" as the heuristic methods of choice, so this
//! module provides the simulated-annealing and (1+1)-EA comparators that
//! share the GA's genome, decoder and fitness — isolating the value of
//! *populations and crossover* from the value of the encoding itself.

use gaplan_core::Domain;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::GaConfig;
use crate::decode::Decoder;
use crate::genome::Genome;
use crate::individual::Evaluated;
use crate::mutation::{length_mutate, mutate};
use crate::rng::derive_seed;

/// Configuration for [`simulated_annealing`] and [`one_plus_one`].
#[derive(Debug, Clone)]
pub struct AnnealConfig {
    /// Evaluation budget (comparable to `population × generations` of a GA
    /// run).
    pub evaluations: u64,
    /// Starting temperature (in fitness units; the paper-scale fitness is
    /// in `[0, 1]`, so temperatures around 0.05–0.2 are reasonable).
    pub start_temperature: f64,
    /// Geometric cooling factor applied every evaluation.
    pub cooling: f64,
    /// Per-gene mutation probability of the proposal move.
    pub mutation_rate: f64,
    /// Per-proposal probability of a length insertion/deletion.
    pub length_mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            evaluations: 100_000,
            start_temperature: 0.1,
            cooling: 0.999_95,
            mutation_rate: 0.05,
            length_mutation_rate: 0.2,
            seed: 0xA11EA1,
        }
    }
}

/// The outcome of a single-individual search.
#[derive(Debug, Clone)]
pub struct AnnealResult<S> {
    /// Best individual encountered.
    pub best: Evaluated<S>,
    /// Evaluations consumed.
    pub evaluations: u64,
    /// Evaluation index at which the best individual first solved, if ever.
    pub first_solution_eval: Option<u64>,
}

fn propose<R: Rng + ?Sized>(rng: &mut R, genome: &Genome, cfg: &AnnealConfig, max_len: usize) -> Genome {
    let mut child = genome.clone();
    mutate(rng, &mut child, cfg.mutation_rate);
    length_mutate(rng, &mut child, cfg.length_mutation_rate, max_len);
    child
}

/// Simulated annealing over genomes: propose a mutated neighbour, accept
/// improvements always and regressions with probability
/// `exp(Δfitness / temperature)`; cool geometrically.
///
/// `ga_cfg` supplies the shared decoding/fitness settings (`initial_len`,
/// `max_len`, weights, goal evaluation) — only its population/crossover
/// machinery is unused.
pub fn simulated_annealing<D: Domain>(domain: &D, ga_cfg: &GaConfig, cfg: &AnnealConfig) -> AnnealResult<D::State> {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0));
    let mut decoder = Decoder::new();
    let start = domain.initial_state();

    let mut current_genome = Genome::random(&mut rng, ga_cfg.initial_len);
    let (decoded, fitness) = decoder.evaluate(domain, &start, current_genome.genes(), ga_cfg, None, None);
    let mut current = Evaluated::new(current_genome.clone(), decoded, fitness);
    let mut best = current.clone();
    let mut first_solution_eval = if best.solves() { Some(0) } else { None };

    let mut temperature = cfg.start_temperature.max(1e-12);
    for eval in 1..cfg.evaluations {
        let candidate_genome = propose(&mut rng, &current_genome, cfg, ga_cfg.max_len);
        let (decoded, fitness) = decoder.evaluate(domain, &start, candidate_genome.genes(), ga_cfg, None, None);
        let candidate = Evaluated::new(candidate_genome.clone(), decoded, fitness);

        let delta = candidate.fitness.total - current.fitness.total;
        let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp();
        if accept {
            current = candidate;
            current_genome = candidate_genome;
        }
        if (current.fitness.goal, current.fitness.total) > (best.fitness.goal, best.fitness.total) {
            best = current.clone();
            if best.solves() && first_solution_eval.is_none() {
                first_solution_eval = Some(eval);
            }
        }
        temperature *= cfg.cooling;
    }
    AnnealResult { best, evaluations: cfg.evaluations, first_solution_eval }
}

/// The (1+1)-EA: like annealing with temperature zero — only improvements
/// (or ties) are accepted. The minimal evolutionary baseline.
pub fn one_plus_one<D: Domain>(domain: &D, ga_cfg: &GaConfig, cfg: &AnnealConfig) -> AnnealResult<D::State> {
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 1));
    let mut decoder = Decoder::new();
    let start = domain.initial_state();

    let mut current_genome = Genome::random(&mut rng, ga_cfg.initial_len);
    let (decoded, fitness) = decoder.evaluate(domain, &start, current_genome.genes(), ga_cfg, None, None);
    let mut current = Evaluated::new(current_genome.clone(), decoded, fitness);
    let mut first_solution_eval = if current.solves() { Some(0) } else { None };

    for eval in 1..cfg.evaluations {
        let candidate_genome = propose(&mut rng, &current_genome, cfg, ga_cfg.max_len);
        let (decoded, fitness) = decoder.evaluate(domain, &start, candidate_genome.genes(), ga_cfg, None, None);
        let candidate = Evaluated::new(candidate_genome.clone(), decoded, fitness);
        if candidate.fitness.total >= current.fitness.total {
            current = candidate;
            current_genome = candidate_genome;
            if current.solves() && first_solution_eval.is_none() {
                first_solution_eval = Some(eval);
            }
        }
    }
    AnnealResult { best: current, evaluations: cfg.evaluations, first_solution_eval }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaplan_core::strips::{StripsBuilder, StripsProblem};

    fn graded_chain(n: usize) -> StripsProblem {
        let mut b = StripsBuilder::new();
        for i in 0..=n {
            b.condition(&format!("s{i}")).unwrap();
        }
        for i in 1..=n {
            b.condition(&format!("r{i}")).unwrap();
        }
        for i in 0..n {
            b.op(
                &format!("fwd{i}"),
                &[&format!("s{i}")],
                &[&format!("s{}", i + 1), &format!("r{}", i + 1)],
                &[&format!("s{i}")],
                1.0,
            )
            .unwrap();
        }
        for i in 1..=n {
            b.op(&format!("bwd{i}"), &[&format!("s{i}")], &[&format!("s{}", i - 1)], &[&format!("s{i}")], 1.0).unwrap();
        }
        b.init(&["s0"]).unwrap();
        let goal: Vec<String> = (1..=n).map(|i| format!("r{i}")).collect();
        let refs: Vec<&str> = goal.iter().map(String::as_str).collect();
        b.goal(&refs).unwrap();
        b.build().unwrap()
    }

    fn ga_cfg() -> GaConfig {
        GaConfig { initial_len: 10, max_len: 20, ..GaConfig::default() }
    }

    fn anneal_cfg() -> AnnealConfig {
        AnnealConfig { evaluations: 20_000, seed: 9, ..AnnealConfig::default() }
    }

    #[test]
    fn annealing_solves_graded_chain() {
        let d = graded_chain(8);
        let r = simulated_annealing(&d, &ga_cfg(), &anneal_cfg());
        assert!(r.best.solves(), "fitness {}", r.best.fitness.goal);
        assert!(r.first_solution_eval.is_some());
        assert_eq!(r.evaluations, 20_000);
    }

    #[test]
    fn one_plus_one_solves_graded_chain() {
        let d = graded_chain(8);
        let r = one_plus_one(&d, &ga_cfg(), &anneal_cfg());
        assert!(r.best.solves(), "fitness {}", r.best.fitness.goal);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = graded_chain(6);
        let a = simulated_annealing(&d, &ga_cfg(), &anneal_cfg());
        let b = simulated_annealing(&d, &ga_cfg(), &anneal_cfg());
        assert_eq!(a.best.genome, b.best.genome);
        assert_eq!(a.first_solution_eval, b.first_solution_eval);
    }

    #[test]
    fn annealing_and_ea_use_independent_streams() {
        let d = graded_chain(6);
        let a = simulated_annealing(&d, &ga_cfg(), &anneal_cfg());
        let b = one_plus_one(&d, &ga_cfg(), &anneal_cfg());
        // same seed value, different derived streams
        assert!(a.best.genome != b.best.genome || a.first_solution_eval != b.first_solution_eval);
    }

    #[test]
    fn best_never_regresses() {
        let d = graded_chain(10);
        let small = AnnealConfig { evaluations: 2_000, ..anneal_cfg() };
        let r1 = simulated_annealing(&d, &ga_cfg(), &small);
        let big = AnnealConfig { evaluations: 20_000, ..anneal_cfg() };
        let r2 = simulated_annealing(&d, &ga_cfg(), &big);
        assert!(r2.best.fitness.goal >= r1.best.fitness.goal - 1e-9);
    }
}
