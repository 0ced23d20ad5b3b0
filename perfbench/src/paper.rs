//! `paper_solve`: the paper's own workload on the typed library path.
//!
//! Hanoi-7 and tile-4x4 (state-aware crossover) are solved with
//! `MultiPhase::run`, using exactly the `GaConfig` that `gaplan hanoi 7
//! --seed S` and `gaplan tile 4 --crossover state-aware --seed S` build,
//! for each `(instance, seed)` of [`RECORDED`]. A run solves whole passes
//! over that list, so every run does the same solves; the workload seed only rotates
//! the order. Each plan must match its recorded fingerprint.

use std::time::{Duration, Instant};

use gaplan_core::Domain;
use gaplan_domains::{Hanoi, SlidingTile};
use gaplan_ga::{CrossoverKind, GaConfig, MultiPhase};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::plan_fingerprint;

/// A paper instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instance {
    /// Towers of Hanoi, 7 disks, multi-phase GA.
    Hanoi7,
    /// 4x4 sliding tile, state-aware crossover.
    Tile4,
}

impl Instance {
    /// Instance name as used in the ledger.
    pub fn name(self) -> &'static str {
        match self {
            Instance::Hanoi7 => "hanoi-7",
            Instance::Tile4 => "tile-4x4",
        }
    }
}

/// One pass of the workload: every `(instance, CLI --seed)` with the
/// fingerprint of the plan it must produce.
/// A change to them means the GA's plans changed.
/// An odd count keeps the median solve time inside one instance's cluster.
pub const RECORDED: [(Instance, u64, u64); 5] = [
    (Instance::Hanoi7, 2003, 0xa87f_9036_926d_a29e),
    (Instance::Tile4, 2003, 0x7ad8_fc5c_056c_be74),
    (Instance::Hanoi7, 7, 0xa5ad_7ed7_0fc4_8ae6),
    (Instance::Tile4, 7, 0x41d1_8c54_4819_3df1),
    (Instance::Hanoi7, 11, 0x54ac_cc3e_fbeb_2626),
];

/// One finished solve.
#[derive(Debug, Clone)]
pub struct Solve {
    /// Which instance.
    pub instance: Instance,
    /// GA seed.
    pub seed: u64,
    /// Wall time of `MultiPhase::run`.
    pub wall: Duration,
    /// Did the plan reach the goal?
    pub solved: bool,
    /// Goal fitness of the plan's final state.
    pub goal_fitness: f64,
    /// Plan length.
    pub plan_len: usize,
    /// Fingerprint of the plan's operation names.
    pub fingerprint: u64,
}

/// The `GaConfig` the CLI builds with no flags but `--seed` (see
/// `ga_config_from_flags` in `src/bin/gaplan.rs`).
pub fn cli_config(initial_len: usize, seed: u64) -> GaConfig {
    GaConfig {
        population_size: 200,
        generations_per_phase: 100,
        max_phases: 5,
        initial_len,
        max_len: 5 * initial_len,
        seed,
        ..GaConfig::default()
    }
}

/// `gaplan hanoi 7 --seed S`'s domain and config.
pub fn hanoi7(seed: u64) -> (Hanoi, GaConfig) {
    let hanoi = Hanoi::new(7);
    let cfg = cli_config(hanoi.optimal_len(), seed).multi_phase();
    (hanoi, cfg)
}

/// `gaplan tile 4 --crossover state-aware --seed S`'s domain and config.
pub fn tile4(seed: u64) -> (SlidingTile, GaConfig) {
    let puzzle = SlidingTile::random_solvable(4, &mut StdRng::seed_from_u64(seed));
    let cells = 16f64;
    let mut cfg = cli_config((cells * cells.log2()).ceil() as usize, seed);
    cfg.crossover = CrossoverKind::StateAware;
    (puzzle, cfg)
}

fn solve_typed<D: Domain>(instance: Instance, seed: u64, domain: &D, cfg: GaConfig) -> Solve {
    let started = Instant::now();
    let r = MultiPhase::new(domain, cfg).run();
    let wall = started.elapsed();
    let names: Vec<String> = r.plan.ops().iter().map(|&op| domain.op_name(op)).collect();
    Solve {
        instance,
        seed,
        wall,
        solved: r.solved,
        goal_fitness: r.goal_fitness,
        plan_len: r.plan.len(),
        fingerprint: plan_fingerprint(names.iter().map(String::as_str)),
    }
}

/// Solve one instance on the typed path.
pub fn solve(instance: Instance, seed: u64) -> Solve {
    match instance {
        Instance::Hanoi7 => {
            let (d, cfg) = hanoi7(seed);
            solve_typed(instance, seed, &d, cfg)
        }
        Instance::Tile4 => {
            let (d, cfg) = tile4(seed);
            solve_typed(instance, seed, &d, cfg)
        }
    }
}

/// One pass over every `(instance, seed)`, rotated by `rotation`.
pub fn pass_order(rotation: u64) -> Vec<(Instance, u64)> {
    let n = RECORDED.len();
    (0..n).map(|i| RECORDED[(i + rotation as usize) % n]).map(|(inst, seed, _)| (inst, seed)).collect()
}

/// The recorded fingerprint of `(instance, seed)`.
pub fn recorded(instance: Instance, seed: u64) -> Option<u64> {
    RECORDED.iter().find(|(i, s, _)| *i == instance && *s == seed).map(|r| r.2)
}
