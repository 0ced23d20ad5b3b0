//! The four workloads and their seeded request streams.
//!
//! A request stream is a pure function of `(workload, seed, index)`: job
//! `i` is generated from its own RNG, so the same seed yields a
//! byte-identical stream no matter how many jobs a run gets through or how
//! the connections interleave them. The program under test sees only the
//! generated request lines.

use std::io;
use std::path::Path;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library `MultiPhase::run` on the paper's instances.
    PaperSolve,
    /// Closed loop over 64 skewed keys: answered by coalescing and cache.
    ServeHot,
    /// Open loop at about half of capacity with unique keys: every job runs
    /// the GA.
    ServeCold,
    /// `ServeCold`'s job shape past capacity with overload control on.
    ServeOverload,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` gates `ServeHot` and
    /// `ServeOverload` only: `PaperSolve`'s times and `ServeCold`'s p99
    /// latency were too unsteady on the reference host (see README).
    pub const ALL: [Workload; 4] =
        [Workload::PaperSolve, Workload::ServeHot, Workload::ServeCold, Workload::ServeOverload];

    /// Parse a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSolve => "paper_solve",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::ServeOverload => "serve_overload",
        }
    }
}

/// Distinct keys of `serve_hot`; key 0 is the hot key.
pub const HOT_KEYS: u64 = 64;
/// Probability that a `serve_hot` request uses the hot key.
pub const HOT_SKEW: f64 = 0.6;
/// `serve_hot` keys at or above this are DSL pairs, the rest Hanoi-4.
pub const HOT_FIRST_DSL_KEY: u64 = HOT_KEYS - 8;
/// Client connections (one thread each), never more than the 2 cores of
/// the reference host.
pub const CONNS: usize = 2;
/// Outstanding requests per connection in the `serve_hot` closed loop.
pub const HOT_INFLIGHT: usize = 16;
/// Fixed open-loop arrival rates, jobs/s. Absolute, not calibrated per
/// run, so a slower program shows as higher latency rather than as a
/// gentler load. Derived from the mix's capacity as `perfbench --capacity`
/// measures it on a 2-core x86-64 VM with `--workers 2`: 85–134 jobs/s,
/// depending on how busy the VM's host is. `COLD_RATE` is about half of
/// that, so the queue stays short even when the host is slow.
pub const COLD_RATE: f64 = 50.0;
/// About 2.5x the mix's capacity: brownout cuts the GA budget of the jobs
/// it degrades, so at 2x the server still answered 97% in time and its
/// latency swung with the controllers' state; at 2.5x the controls stay
/// engaged.
pub const OVERLOAD_RATE: f64 = 300.0;
/// The large Hanoi job: its generation 0 alone outlasts its deadline.
pub const LARGE_DISKS: usize = 11;
/// Deadline of the large Hanoi job, ms.
pub const LARGE_DEADLINE_MS: u64 = 15;
/// Deadline of every other `serve_cold` job, ms: loose enough that a
/// healthy server meets it.
pub const COLD_DEADLINE_MS: u64 = 1000;
/// Deadline of every other `serve_overload` job, ms (the BENCH_overload
/// configuration).
pub const OVERLOAD_DEADLINE_MS: u64 = 400;
/// The open-loop mix comes in blocks of [`MIX_BLOCK`] consecutive jobs
/// with fixed class counts, so every run of every seed offers the same
/// mix: [`MIX_LARGE`] large Hanoi jobs at evenly spaced slots, and the
/// small classes in a seeded order over the remaining slots.
pub const MIX_BLOCK: u64 = 200;
/// Large Hanoi jobs per block.
pub const MIX_LARGE: u64 = 1;
/// Hanoi-4 jobs per block.
pub const MIX_HANOI4: usize = 100;
/// Tile-3x3 jobs per block; the rest of the block is DSL pairs.
pub const MIX_TILE3: usize = 50;
/// GA overrides of the `serve_hot` jobs: `gaplan loadgen`'s job line.
pub const SMALL_GA: GaShape = GaShape { population: 48, generations: 40, phases: 2 };
/// GA overrides of the open loops' small jobs, half `SMALL_GA`'s
/// generations so the offered rate yields enough replies per run.
pub const OPEN_GA: GaShape = GaShape { population: 48, generations: 20, phases: 2 };
/// Population the service's default config gives the large Hanoi job.
pub const LARGE_POPULATION: usize = 200;

/// The `ga` overrides a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaShape {
    /// Population per phase.
    pub population: usize,
    /// Generations per phase.
    pub generations: u32,
    /// Phases.
    pub phases: u32,
}

/// What kind of problem a job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// Hanoi-4 with a small GA.
    Hanoi4,
    /// A tile-3x3 shuffle with a small GA.
    Tile3,
    /// One of the shipped DSL pairs with a small GA.
    Dsl,
    /// Hanoi-[`LARGE_DISKS`] with the default GA and a tight deadline.
    Large,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Request id, unique within a run.
    pub id: u64,
    /// Plan key: equal keys ask for the identical computation.
    pub key: u64,
    /// Problem kind.
    pub class: JobClass,
    /// Deadline carried by the request, if any.
    pub deadline_ms: Option<u64>,
    /// GA population the job runs with (before any brownout scaling).
    pub population: usize,
    /// The request line, without its newline.
    pub line: String,
}

/// A shipped DSL domain/problem pair, pre-escaped as JSON strings.
#[derive(Debug, Clone)]
pub struct DslPair {
    /// `<domain>-<n>`, e.g. `logistics-1`.
    pub name: String,
    /// Domain source text.
    pub domain: String,
    /// Problem source text.
    pub problem: String,
    spec_json: String,
}

/// The shipped DSL pairs (`examples/domains/*.gap` × `data/*-{1,2}.gap`).
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The eight pairs, in name order.
    pub pairs: Vec<DslPair>,
}

impl Corpus {
    /// Load the pairs from a gaplan checkout at `root`.
    pub fn load(root: &Path) -> io::Result<Corpus> {
        let mut pairs = Vec::new();
        for domain in ["blocks", "elevator", "gridflow", "logistics"] {
            let dsrc = std::fs::read_to_string(root.join("examples/domains").join(format!("{domain}.gap")))?;
            for n in 1..=2 {
                let psrc = std::fs::read_to_string(root.join("data").join(format!("{domain}-{n}.gap")))?;
                let mut spec_json = String::from("{\"Dsl\":{\"domain\":");
                serde::json::write_json_string(&mut spec_json, &dsrc);
                spec_json.push_str(",\"problem\":");
                serde::json::write_json_string(&mut spec_json, &psrc);
                spec_json.push_str("}}");
                pairs.push(DslPair { name: format!("{domain}-{n}"), domain: dsrc.clone(), problem: psrc, spec_json });
            }
        }
        Ok(Corpus { pairs })
    }
}

/// splitmix64 finalizer: decorrelates nearby seeds and indices.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn job_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(index)))
}

/// GA seed of `key` under the run `seed`: equal keys plan identically.
pub fn ga_seed(seed: u64, key: u64) -> u64 {
    mix64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ key) >> 1
}

/// Due time of open-loop job `index` relative to the start of the run.
pub fn due_offset(rate: f64, index: u64) -> Duration {
    Duration::from_secs_f64(index as f64 / rate)
}

/// Request `index` (0-based) of `workload`'s stream under `seed`.
/// `paper_solve` has no request stream and panics here.
pub fn job(workload: Workload, seed: u64, index: u64, corpus: &Corpus) -> Job {
    let id = index + 1;
    let mut rng = job_rng(seed, index);
    match workload {
        Workload::PaperSolve => panic!("paper_solve runs in-process and has no request stream"),
        Workload::ServeHot => {
            // The first pass names every key once, so every run serves
            // the same key set; after that the loadgen's two-point skew.
            let key = if index < HOT_KEYS {
                index
            } else if rng.gen::<f64>() < HOT_SKEW {
                0
            } else {
                rng.gen_range(1..HOT_KEYS)
            };
            let (class, problem) = if key >= HOT_FIRST_DSL_KEY {
                let pair = &corpus.pairs[((key - HOT_FIRST_DSL_KEY) as usize) % corpus.pairs.len()];
                (JobClass::Dsl, pair.spec_json.as_str())
            } else {
                (JobClass::Hanoi4, HANOI4_SPEC)
            };
            // The key set is the same problem set for every seed; the
            // seed shapes only the traffic over it.
            small_job(id, key, class, problem, None, SMALL_GA, ga_seed(0, key))
        }
        Workload::ServeCold | Workload::ServeOverload => {
            let deadline = if workload == Workload::ServeCold { COLD_DEADLINE_MS } else { OVERLOAD_DEADLINE_MS };
            // Unique keys: every job is its own computation.
            let key = index;
            let gseed = ga_seed(seed, key);
            let slot = index % MIX_BLOCK;
            if slot.is_multiple_of(MIX_BLOCK / MIX_LARGE) && slot / (MIX_BLOCK / MIX_LARGE) < MIX_LARGE {
                return large_job(id, key, gseed);
            }
            match small_class(seed, index) {
                JobClass::Hanoi4 => small_job(id, key, JobClass::Hanoi4, HANOI4_SPEC, Some(deadline), OPEN_GA, gseed),
                JobClass::Tile3 => {
                    let shuffle: u64 = rng.gen_range(0..16);
                    let spec = format!("{{\"Tile\":{{\"side\":3,\"shuffle_seed\":{shuffle}}}}}");
                    small_job(id, key, JobClass::Tile3, &spec, Some(deadline), OPEN_GA, gseed)
                }
                _ => {
                    let pair = &corpus.pairs[rng.gen_range(0..corpus.pairs.len())];
                    small_job(id, key, JobClass::Dsl, &pair.spec_json, Some(deadline), OPEN_GA, gseed)
                }
            }
        }
    }
}

/// Class of small-job slot `index`: the block's small slots, in order,
/// take a seeded permutation of the block's fixed small-class counts.
fn small_class(seed: u64, index: u64) -> JobClass {
    let block = index / MIX_BLOCK;
    let slot = index % MIX_BLOCK;
    let stride = MIX_BLOCK / MIX_LARGE;
    let larges_before = (slot.div_ceil(stride)).min(MIX_LARGE);
    let small_slot = (slot - larges_before) as usize;
    let smalls = (MIX_BLOCK - MIX_LARGE) as usize;
    let mut classes: Vec<JobClass> = (0..smalls)
        .map(|i| match i {
            i if i < MIX_HANOI4 => JobClass::Hanoi4,
            i if i < MIX_HANOI4 + MIX_TILE3 => JobClass::Tile3,
            _ => JobClass::Dsl,
        })
        .collect();
    classes.shuffle(&mut job_rng(seed ^ 0x006d_6978, block));
    classes[small_slot]
}

const HANOI4_SPEC: &str = "{\"Hanoi\":{\"disks\":4}}";

fn small_job(
    id: u64,
    key: u64,
    class: JobClass,
    problem: &str,
    deadline_ms: Option<u64>,
    ga: GaShape,
    gseed: u64,
) -> Job {
    let deadline = deadline_ms.map(|d| format!(",\"deadline_ms\":{d}")).unwrap_or_default();
    let line = format!(
        "{{\"cmd\":\"plan\",\"id\":{id},\"problem\":{problem}{deadline},\"ga\":{{\"population\":{},\
         \"generations\":{},\"phases\":{},\"seed\":{gseed}}}}}",
        ga.population, ga.generations, ga.phases
    );
    Job { id, key, class, deadline_ms, population: ga.population, line }
}

fn large_job(id: u64, key: u64, gseed: u64) -> Job {
    let line = format!(
        "{{\"cmd\":\"plan\",\"id\":{id},\"problem\":{{\"Hanoi\":{{\"disks\":{LARGE_DISKS}}}}},\
         \"deadline_ms\":{LARGE_DEADLINE_MS},\"ga\":{{\"seed\":{gseed}}}}}"
    );
    Job { id, key, class: JobClass::Large, deadline_ms: Some(LARGE_DEADLINE_MS), population: LARGE_POPULATION, line }
}

/// `line` (a plan request as generated here) with its id replaced by `id`.
pub fn with_id(line: &str, id: u64) -> String {
    const HEAD: &str = "{\"cmd\":\"plan\",\"id\":";
    let rest = line.strip_prefix(HEAD).expect("generated plan lines start with cmd and id");
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    format!("{HEAD}{id}{}", &rest[digits..])
}

/// Job `n` outside every workload's key space, for set-up probes and
/// warm-up: same shapes as the stream, ids and GA seeds of their own, and
/// the same on every run so set-up does the same work.
pub fn warmup_job(n: u64, class: JobClass, corpus: &Corpus) -> Job {
    let id = (1 << 62) + n;
    let key = u64::MAX - n;
    let gseed = ga_seed(0x5741_524d, n);
    match class {
        JobClass::Hanoi4 => small_job(id, key, class, HANOI4_SPEC, None, OPEN_GA, gseed),
        JobClass::Tile3 => {
            small_job(id, key, class, "{\"Tile\":{\"side\":3,\"shuffle_seed\":0}}", None, OPEN_GA, gseed)
        }
        JobClass::Dsl => {
            let pair = &corpus.pairs[(n as usize) % corpus.pairs.len()];
            small_job(id, key, class, &pair.spec_json, None, OPEN_GA, gseed)
        }
        JobClass::Large => large_job(id, key, gseed),
    }
}
