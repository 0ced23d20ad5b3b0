//! Workload runners: set up, measure, check correctness, and (traced)
//! attribute time to layers.

use std::collections::HashMap;
use std::io::{self, BufRead};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gaplan_core::Domain;
use gaplan_ga::population::{evaluate_candidates, init_population, Candidate};
use gaplan_ga::GaConfig;
use gaplan_service::{parse_command, BuiltProblem, Command, ProblemSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::Value;

use crate::client::{self, LoopResult, Pace, Status};
use crate::ga_trace::{GaTally, TallySubscriber};
use crate::layers;
use crate::mix::{self, Corpus, JobClass, Workload};
use crate::paper::{self, Instance};
use crate::report::{num, Ledger, LedgerRow, Metrics};
use crate::server::{self, Server};
use crate::stats::{fnv1a, full_windows, interquartile_mean, mean, median, percentile, window_percentile, window_rate};
use crate::steal::{self, Sampler};

/// Fresh server set-ups per serving run; `setup_s` is their median.
const SERVE_SETUP_REPS: usize = 7;
/// Set-ups per `paper_solve` run, which take milliseconds each.
const PAPER_SETUP_REPS: usize = 31;
/// Untimed `paper_solve` set-ups run first, s: an idle vCPU takes tens of
/// ms to come up to speed, which made the first timed set-ups of some runs
/// twice as slow as the rest.
const PAPER_SETUP_WARM_S: f64 = 0.3;
/// Window of `serve_hot`'s windowed throughput and latency, s.
const RATE_WINDOW_S: f64 = 1.0;
/// Window of the open loops' windowed latency, s, by due time: 1200 jobs
/// at the overload rate, so each window's p99 has 12 samples beyond it.
const OPEN_WINDOW_S: f64 = 4.0;
/// Outstanding requests per connection when measuring capacity: enough to
/// keep both workers busy without a standing queue that hits deadlines.
const CAPACITY_INFLIGHT: usize = 4;
/// Largest generator lateness (p99, ms) at which an open-loop run is valid.
const MAX_SEND_LAG_P99_MS: f64 = 25.0;
/// Replies checked against an in-process library solve, per run.
const VERIFY_SAMPLE: usize = 24;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of a timed one.
    pub trace: bool,
    /// Checkout root (DSL sources live under it).
    pub root: PathBuf,
    /// The `gaplan` binary under test.
    pub gaplan: PathBuf,
    /// Scratch directory for trace files.
    pub work_dir: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent or solves run).
    pub attempted: u64,
    /// Operations that failed outright: lost, duplicated, undecodable or
    /// `Error` replies.
    pub failed: u64,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
    /// Every metric measured.
    pub metrics: Metrics,
    /// Time ledger of a traced run.
    pub ledger: Option<Ledger>,
    /// The full workload configuration, for the stamp.
    pub config: Vec<(&'static str, Value)>,
    /// Order-independent fingerprint of the verified plans.
    pub plans_hash: u64,
}

/// Run `s.workload`.
pub fn run(s: &Settings) -> io::Result<Outcome> {
    match s.workload {
        Workload::PaperSolve => Ok(paper_solve(s)),
        w => serve(s, w),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- paper

fn paper_solve(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let rotation = s.seed % paper::RECORDED.len() as u64;
    out.config = vec![
        ("instances", Value::Str("hanoi-7 (multi-phase), tile-4x4 (state-aware)".into())),
        (
            "solves",
            Value::Arr(paper::RECORDED.iter().map(|r| Value::Str(format!("{} --seed {}", r.0.name(), r.1))).collect()),
        ),
        ("ga", Value::Str("gaplan CLI defaults: population 200, 100 generations x 5 phases".into())),
        ("rotation", Value::Int(rotation.into())),
    ];

    // Set-up: build every solve's instance and config and evaluate its
    // generation 0. Timed only once the CPU is warm.
    let setup = || {
        let started = Instant::now();
        for (inst, seed) in paper::pass_order(rotation) {
            match inst {
                Instance::Hanoi7 => {
                    let (d, cfg) = paper::hanoi7(seed);
                    gen0(&d, &cfg);
                }
                Instance::Tile4 => {
                    let (d, cfg) = paper::tile4(seed);
                    gen0(&d, &cfg);
                }
            }
        }
        started.elapsed().as_secs_f64()
    };
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < PAPER_SETUP_WARM_S {
        setup();
    }
    let setups: Vec<f64> = (0..PAPER_SETUP_REPS).map(|_| setup()).collect();
    eprintln!("perfbench: set-ups {setups:.4?} s");
    out.metrics.set("setup_s", median(&setups).unwrap_or(0.0));

    let check = |out: &mut Outcome, solve: &paper::Solve| {
        if paper::recorded(solve.instance, solve.seed) != Some(solve.fingerprint) {
            out.violations.push(format!(
                "{} seed {}: plan fingerprint {:#018x} differs from the recorded one",
                solve.instance.name(),
                solve.seed,
                solve.fingerprint
            ));
        }
    };
    let pass = |out: &mut Outcome| -> (Vec<paper::Solve>, Duration) {
        let started = Instant::now();
        let solves: Vec<_> = paper::pass_order(rotation).into_iter().map(|(i, seed)| paper::solve(i, seed)).collect();
        let wall = started.elapsed();
        for solve in &solves {
            check(out, solve);
        }
        (solves, wall)
    };

    if !s.trace {
        // Whole passes only, so every run does the same solves. The
        // throughput is the interquartile mean of the pass rates: one slow
        // pass moves it little, and drift across the run is averaged.
        let mut solves = Vec::new();
        let mut pass_rates = Vec::new();
        let mut elapsed = Duration::ZERO;
        while elapsed < Duration::from_secs(s.seconds) {
            let (mut batch, wall) = pass(&mut out);
            pass_rates.push(batch.len() as f64 / wall.as_secs_f64());
            solves.append(&mut batch);
            elapsed += wall;
        }
        out.attempted = solves.len() as u64;
        // Latency of each of the pass's solves is the interquartile mean of
        // its times over the passes; the percentiles are taken over those.
        let mut walls: HashMap<(&str, u64), Vec<f64>> = HashMap::new();
        for x in &solves {
            walls.entry((x.instance.name(), x.seed)).or_default().push(ms(x.wall));
        }
        let walls: Vec<f64> = walls.values().filter_map(|w| interquartile_mean(w)).collect();
        let solved: Vec<&paper::Solve> = solves.iter().filter(|x| x.solved).collect();
        out.metrics.set("jobs_per_s", interquartile_mean(&pass_rates).unwrap_or(0.0));
        out.metrics.set("latency_p50_ms", percentile(&walls, 0.5).unwrap_or(0.0));
        out.metrics.set("latency_p99_ms", percentile(&walls, 0.99).unwrap_or(0.0));
        // No deadline: every finished solve is good output.
        out.metrics.set("goodput_ratio", 1.0);
        out.metrics
            .set("goal_fitness_mean", mean(&solves.iter().map(|x| x.goal_fitness).collect::<Vec<_>>()).unwrap_or(0.0));
        let lens: Vec<f64> = if solved.is_empty() {
            solves.iter().map(|x| x.plan_len as f64).collect()
        } else {
            solved.iter().map(|x| x.plan_len as f64).collect()
        };
        out.metrics.set("plan_len_mean", mean(&lens).unwrap_or(0.0));
        out.metrics.set("solved_ratio", solved.len() as f64 / solves.len() as f64);
        out.metrics.set("peak_rss_mb", server::peak_rss_mb("/proc/self/status").unwrap_or(0.0));
        out.metrics.set("bench.failed_ratio", 1.0 - solved.len() as f64 / solves.len() as f64);
        let distinct: std::collections::BTreeSet<String> =
            solves.iter().map(|x| format!("{}:{}:{}", x.instance.name(), x.seed, x.fingerprint)).collect();
        out.plans_hash = distinct.iter().fold(0, |h, x| h ^ fnv1a(x.as_bytes()));
        return out;
    }

    // Traced: one untraced pass, one pass with a GA tally installed.
    let (plain, plain_wall) = pass(&mut out);
    let tally_sub = Arc::new(TallySubscriber::default());
    let (traced, traced_wall) = {
        let _guard = gaplan_obs::install(tally_sub.clone());
        pass(&mut out)
    };
    out.attempted = (plain.len() + traced.len()) as u64;
    let t = tally_sub.tally();
    out.metrics.set("obs.trace_overhead_ratio", traced_wall.as_secs_f64() / plain_wall.as_secs_f64());
    let individuals = t.gens * paper::cli_config(1, 0).population_size as u64;
    ga_layers(&mut out.metrics, &t, individuals);

    let (hanoi, hcfg) = paper::hanoi7(paper::RECORDED[0].1);
    let (tile, tcfg) = paper::tile4(paper::RECORDED[0].1);
    let (hs, hp) = layers::snapshot_eval_us(&hanoi, &hcfg);
    let (ts, tp) = layers::snapshot_eval_us(&tile, &tcfg);
    out.metrics.set("ga.eval_serial_us_per_ind", (hs + ts) / 2.0);
    out.metrics.set("ga.eval_parallel_gain", (hs + ts) / (hp + tp));

    let hb = BuiltProblem::Hanoi { domain: hanoi, disks: 7 };
    let tb = BuiltProblem::Tile { domain: tile, side: 4, shuffle_seed: paper::RECORDED[1].1 };
    let mut erased = Duration::ZERO;
    let mut typed = Duration::ZERO;
    for (b, cfg) in [(&hb, &hcfg), (&tb, &tcfg)] {
        match layers::dyn_vs_typed(b, cfg) {
            Ok((e, t)) => {
                erased += e;
                typed += t;
            }
            Err(e) => out.violations.push(e),
        }
    }
    out.metrics.set("service.dyn_over_typed", erased.as_secs_f64() / typed.as_secs_f64().max(1e-9));

    let total = ms(traced_wall);
    let ledger = Ledger {
        basis: "ms of wall time, one traced pass",
        rows: vec![
            LedgerRow { layer: "ga.eval (decode+fitness)", value: t.eval_ns as f64 / 1e6 },
            LedgerRow { layer: "ga.breed (select+xover+mut)", value: t.breed_ns() as f64 / 1e6 },
            LedgerRow { layer: "ga.migration", value: t.migration_ns as f64 / 1e6 },
            LedgerRow { layer: "ga.run outside phases", value: t.run_ns.saturating_sub(t.phase_ns) as f64 / 1e6 },
        ],
        end_to_end: total,
    };
    out.metrics.set("bench.unattributed_share", ledger.unattributed_share());
    out.ledger = Some(ledger);
    out
}

/// Evaluate a random generation 0 of `cfg` on `domain`.
fn gen0<D: Domain>(domain: &D, cfg: &GaConfig) {
    let genomes = init_population(&mut StdRng::seed_from_u64(cfg.seed), cfg);
    let cands = genomes.into_iter().map(Candidate::fresh).collect();
    std::hint::black_box(evaluate_candidates(domain, &domain.initial_state(), cands, cfg, None));
}

/// Per-layer GA metrics from a tally over `individuals` evaluations.
fn ga_layers(m: &mut Metrics, t: &GaTally, individuals: u64) {
    if t.gens == 0 {
        return;
    }
    m.set("ga.gen_ms", t.phase_ns as f64 / 1e6 / t.gens as f64);
    m.set("ga.eval_share", t.eval_ns as f64 / t.phase_ns.max(1) as f64);
    m.set("ga.eval_us_per_ind", t.eval_ns as f64 / 1e3 / individuals.max(1) as f64);
    m.set("ga.breed_us_per_child", t.breed_ns() as f64 / 1e3 / t.children.max(1) as f64);
    m.set("ga.xover.fallback_ratio", t.fallback as f64 / t.children.max(1) as f64);
    let lookups = t.cache_hits + t.cache_misses;
    m.set("core.succ_cache.hit_ratio", t.cache_hits as f64 / lookups.max(1) as f64);
    m.set("core.succ_cache.evictions", t.cache_evictions as f64);
}

// ---------------------------------------------------------------- serve

fn server_args(w: Workload) -> Vec<String> {
    let mut args = vec!["--workers", "2"];
    if w == Workload::ServeOverload {
        args.extend(["--cache", "1", "--target-ms", "50", "--brownout", "0.25"]);
    }
    args.into_iter().map(String::from).collect()
}

fn pace(w: Workload, seconds: f64) -> Pace {
    match w {
        Workload::ServeHot => Pace::Closed { inflight: mix::HOT_INFLIGHT, duration: Duration::from_secs_f64(seconds) },
        Workload::ServeCold => Pace::Open { rate: mix::COLD_RATE, jobs: (mix::COLD_RATE * seconds) as u64 },
        _ => Pace::Open { rate: mix::OVERLOAD_RATE, jobs: (mix::OVERLOAD_RATE * seconds) as u64 },
    }
}

fn serve_config(w: Workload) -> Vec<(&'static str, Value)> {
    let s = |v: &str| Value::Str(v.to_string());
    let mut c = vec![
        ("server", s(&format!("gaplan serve {}", server_args(w).join(" ")))),
        ("conns", Value::Int(mix::CONNS as i128)),
    ];
    match w {
        Workload::ServeHot => c.extend([
            ("loop", s("closed")),
            ("inflight_per_conn", Value::Int(mix::HOT_INFLIGHT as i128)),
            ("keys", Value::Int(mix::HOT_KEYS.into())),
            ("skew", num(mix::HOT_SKEW)),
            ("mix", s("keys 0-55 Hanoi-4, keys 56-63 the 8 shipped DSL pairs; GA population 48, 40 gens x 2 phases")),
        ]),
        _ => c.extend([
            ("loop", s("open")),
            ("rate_per_s", num(if w == Workload::ServeCold { mix::COLD_RATE } else { mix::OVERLOAD_RATE })),
            ("keys", s("unique")),
            (
                "mix",
                s(&format!(
                    "per {} jobs: {} Hanoi-{} (default GA, deadline {} ms), {} Hanoi-4, {} tile-3x3, rest DSL pairs, \
                     all three with GA population {}, {} gens x {} phases; others' deadline {} ms",
                    mix::MIX_BLOCK,
                    mix::MIX_LARGE,
                    mix::LARGE_DISKS,
                    mix::LARGE_DEADLINE_MS,
                    mix::MIX_HANOI4,
                    mix::MIX_TILE3,
                    mix::OPEN_GA.population,
                    mix::OPEN_GA.generations,
                    mix::OPEN_GA.phases,
                    if w == Workload::ServeCold { mix::COLD_DEADLINE_MS } else { mix::OVERLOAD_DEADLINE_MS }
                )),
            ),
        ]),
    }
    c
}

/// Start a server, answer a first plan request and warm it up; time all of
/// it.
fn start_server(s: &Settings, corpus: &Corpus, extra: &[String], n: u64) -> io::Result<(Server, Duration)> {
    let started = Instant::now();
    let mut args = server_args(s.workload);
    args.extend_from_slice(extra);
    let srv = Server::spawn(&s.gaplan, &args)?;
    let probe = mix::warmup_job(n, JobClass::Hanoi4, corpus);
    let reply = srv.request(&probe.line)?;
    if !reply.contains("\"status\":\"Done\"") {
        return Err(io::Error::other(format!("set-up probe failed: {reply}")));
    }
    warm_up(s, &srv, corpus)?;
    Ok((srv, started.elapsed()))
}

/// Fill lazy state before timing: the hot key set, or one job of every
/// open-loop class (which grounds the DSL pairs).
fn warm_up(s: &Settings, srv: &Server, corpus: &Corpus) -> io::Result<()> {
    let lines: Vec<String> = match s.workload {
        Workload::ServeHot => (0..mix::HOT_KEYS).map(|i| mix::job(s.workload, s.seed, i, corpus).line).collect(),
        _ => (0..corpus.pairs.len() as u64)
            .map(|n| mix::warmup_job(100 + n, JobClass::Dsl, corpus).line)
            .chain([JobClass::Tile3, JobClass::Large].map(|c| mix::warmup_job(200, c, corpus).line))
            .collect(),
    };
    // Warm-up ids must not collide with the stream's.
    let lines: Vec<String> =
        lines.iter().enumerate().map(|(n, line)| mix::with_id(line, (1 << 61) + n as u64)).collect();
    srv.pipeline(&lines)
}

struct Measured {
    res: LoopResult,
    /// Server counters accrued by the measured traffic alone.
    metrics: Value,
    rss_mb: f64,
    noop_per_s: Option<f64>,
    /// Bytes of the server's trace file written before the measured
    /// traffic (set-up and warm-up).
    trace_offset: u64,
    /// The host's steal time through the measured traffic.
    steal: Vec<steal::Sample>,
}

/// Drive the measured traffic on a warmed-up server. With `noop`, also measure
/// the transport-plus-session ceiling afterwards.
fn measure(
    s: &Settings,
    srv: Server,
    corpus: &Corpus,
    seconds: f64,
    noop: bool,
    trace: Option<&std::path::Path>,
) -> io::Result<Measured> {
    let before = srv.metrics()?;
    let trace_offset = match trace {
        Some(path) => std::fs::metadata(path)?.len(),
        None => 0,
    };
    let sampler = Sampler::start();
    let res = client::drive(srv.addr(), s.workload, s.seed, pace(s.workload, seconds), corpus);
    let steal = sampler.finish();
    let res = res?;
    let metrics = server::delta(&before, &srv.metrics()?);
    let rss_mb = srv.peak_rss_mb()?;
    let noop_per_s =
        if noop { Some(layers::noop_per_s(srv.addr(), mix::HOT_INFLIGHT, Duration::from_secs(1))?) } else { None };
    srv.shutdown()?;
    Ok(Measured { res, metrics, rss_mb, noop_per_s, trace_offset, steal })
}

fn serve(s: &Settings, w: Workload) -> io::Result<Outcome> {
    let corpus = Corpus::load(&s.root)?;
    let mut out = Outcome { config: serve_config(w), ..Outcome::default() };

    if !s.trace {
        let mut setups = Vec::new();
        let mut kept = None;
        for n in 0..SERVE_SETUP_REPS as u64 {
            let (srv, took) = start_server(s, &corpus, &[], n)?;
            setups.push(took.as_secs_f64());
            if n + 1 < SERVE_SETUP_REPS as u64 {
                srv.shutdown()?;
            } else {
                kept = Some(srv);
            }
        }
        eprintln!("perfbench: set-ups {setups:.4?} s");
        out.metrics.set("setup_s", median(&setups).unwrap_or(0.0));
        let m = measure(s, kept.expect("at least one set-up"), &corpus, s.seconds as f64, false, None)?;
        end_to_end(&mut out, w, &m);
        verify(&mut out, s, &corpus, &m.res);
        return Ok(out);
    }

    // Traced: half the time untraced, half with the server tracing to a
    // file, then layer replays over the traced half's recorded frames.
    let half = (s.seconds as f64 / 2.0).max(2.0);
    let (srv, _) = start_server(s, &corpus, &[], 0)?;
    let plain = measure(s, srv, &corpus, half, w == Workload::ServeHot, None)?;
    let trace_path = s.work_dir.join(format!("trace-{}-{}.jsonl", w.name(), std::process::id()));
    let (srv, _) = start_server(s, &corpus, &["--trace".into(), trace_path.display().to_string()], 1)?;
    let traced = measure(s, srv, &corpus, half, false, Some(&trace_path))?;
    let mut tally = GaTally::default();
    let mut file = std::fs::File::open(&trace_path)?;
    io::Seek::seek(&mut file, io::SeekFrom::Start(traced.trace_offset))?;
    // The first line after the offset may be a fragment; it fails to
    // parse and is skipped.
    for line in io::BufReader::new(file).lines() {
        tally.absorb_line(&line?);
    }
    std::fs::remove_file(&trace_path)?;
    // Both halves are checked; the traced half's figures are kept.
    for half in [&plain, &traced] {
        end_to_end(&mut out, w, half);
        verify(&mut out, s, &corpus, &half.res);
    }
    let m = &mut out.metrics;

    let lat_ms =
        |r: &LoopResult| mean(&r.replies.iter().map(|x| x.latency_ns as f64 / 1e6).collect::<Vec<_>>()).unwrap_or(0.0);
    let overhead = match w {
        Workload::ServeHot => {
            let rate = |r: &LoopResult| r.replies.len() as f64 / r.elapsed.as_secs_f64();
            rate(&plain.res) / rate(&traced.res)
        }
        _ => lat_ms(&traced.res) / lat_ms(&plain.res).max(1e-9),
    };
    m.set("obs.trace_overhead_ratio", overhead);
    if let Some(rate) = plain.noop_per_s {
        m.set("session.noop_per_s", rate);
    }

    let r = &traced.res;
    let jobs = r.sent.len().max(1) as f64;
    let requests = layers::plan_requests(&r.request_lines);
    m.set("net.codec.read_us", layers::codec_read_us(&r.request_lines));
    m.set("net.codec.write_us", layers::codec_write_us(&r.reply_lines));
    m.set("service.proto.parse_us", layers::parse_us(&r.request_lines));
    m.set("service.request.key_us", layers::key_us(&requests));
    m.set("service.reply.encode_us", layers::encode_us(&r.reply_lines));

    let c = |name: &str| server::counter(&traced.metrics, name);
    m.set("service.coalesce.joined_ratio", c("coalesced_jobs") / jobs);
    m.set("service.cache.hit_ratio", c("cache_hits") / jobs);
    m.set("service.computations_per_job", c("cache_misses") / jobs);
    // Queue waits exist only as the server's whole-ms histogram (each
    // sample truncated); worker time comes from the `svc.request` spans,
    // dequeue to reply, at ns precision.
    let wait_sum_ms = server::counter(traced.metrics.get("queue_wait_ms_hist").unwrap_or(&Value::Null), "sum");
    let exec_sum_ms = tally.request_ns as f64 / 1e6;
    m.set("service.queue.wait_ms_mean", server::hist_mean(&traced.metrics, "queue_wait_ms_hist"));
    m.set("service.exec_ms_mean", exec_sum_ms / tally.requests.max(1) as f64);
    m.set("service.server_share", (wait_sum_ms + exec_sum_ms) / jobs / lat_ms(r).max(1e-9));
    m.set("service.overload.shed_ratio", c("jobs_shed") / jobs);
    m.set("service.overload.rejected_ratio", c("jobs_rejected") / jobs);
    m.set("service.overload.degraded_ratio", c("jobs_degraded") / jobs);
    m.set("service.overload.expired_ratio", c("jobs_expired_in_queue") / jobs);
    m.set("service.overload.codel_drops", c("codel_drops"));
    let ground = c("ground_cache_hits") + c("ground_cache_misses");
    m.set("service.ground.hit_ratio", c("ground_cache_hits") / ground.max(1.0));
    m.set("lang.compile_ms", layers::compile_ms(&corpus.pairs));

    m.set(
        "net.bytes_per_job",
        (r.sent.iter().map(|x| x.bytes).sum::<usize>() + r.replies.iter().map(|x| x.bytes).sum::<usize>()) as f64
            / jobs,
    );

    if w != Workload::ServeHot {
        // Serial replays of the run's own small requests.
        let small: Vec<_> = requests
            .iter()
            .filter(|q| !matches!(q.problem, ProblemSpec::Hanoi { disks } if disks == mix::LARGE_DISKS))
            .take(VERIFY_SAMPLE)
            .collect();
        let mut solve_ms = Vec::new();
        let (mut erased, mut typed) = (Duration::ZERO, Duration::ZERO);
        let (mut serial_us, mut parallel_us) = (Vec::new(), Vec::new());
        for (i, q) in small.iter().enumerate() {
            if let Ok((_, _, wall)) = layers::library_solve(q) {
                solve_ms.push(ms(wall));
            }
            if i < 6 {
                if let Ok((b, cfg)) = layers::built(q) {
                    match layers::dyn_vs_typed(&b, &cfg) {
                        Ok((e, t)) => {
                            erased += e;
                            typed += t;
                        }
                        Err(e) => out.violations.push(e),
                    }
                    let (su, pu) = match &b {
                        BuiltProblem::Hanoi { domain, .. } => layers::snapshot_eval_us(domain, &cfg),
                        BuiltProblem::Tile { domain, .. } => layers::snapshot_eval_us(domain, &cfg),
                        BuiltProblem::Dsl(p) => layers::snapshot_eval_us(p.as_ref(), &cfg),
                        _ => continue,
                    };
                    serial_us.push(su);
                    parallel_us.push(pu);
                }
            }
        }
        // GA work as the server's workers ran it (every cold job is its
        // own computation; shed, rejected and expired ones ran none).
        let individuals: u64 =
            r.replies.iter().map(|x| x.total_generations as u64 * r.sent[x.job].population as u64).sum();
        let m = &mut out.metrics;
        ga_layers(m, &tally, individuals);
        m.set("service.solve_ms", mean(&solve_ms).unwrap_or(0.0));
        m.set("service.dyn_over_typed", erased.as_secs_f64() / typed.as_secs_f64().max(1e-9));
        let (su, pu) = (mean(&serial_us).unwrap_or(0.0), mean(&parallel_us).unwrap_or(0.0));
        m.set("ga.eval_serial_us_per_ind", su);
        m.set("ga.eval_parallel_gain", su / pu.max(1e-9));
        let large = ProblemSpec::Hanoi { disks: mix::LARGE_DISKS }.build().map_err(io::Error::other)?;
        m.set("core.budget.gen0_ms", layers::gen0_ms(&large, &large.default_config(), 3));
    }

    let m = &out.metrics;
    let per_job_us = |ms_total: f64| ms_total * 1e3 / jobs;
    let g = |n: &str| m.get(n).unwrap_or(0.0);
    let ledger = Ledger {
        basis: "µs per job, mean",
        rows: vec![
            LedgerRow { layer: "net.codec.read", value: g("net.codec.read_us") },
            LedgerRow { layer: "service.proto.parse", value: g("service.proto.parse_us") },
            LedgerRow { layer: "service.request.key", value: g("service.request.key_us") },
            LedgerRow { layer: "service.queue.wait", value: per_job_us(wait_sum_ms) },
            LedgerRow { layer: "service.exec (worker)", value: per_job_us(exec_sum_ms) },
            LedgerRow { layer: "service.reply.encode", value: g("service.reply.encode_us") },
            LedgerRow { layer: "net.codec.write", value: g("net.codec.write_us") },
        ],
        end_to_end: lat_ms(r) * 1e3,
    };
    out.metrics.set("bench.unattributed_share", ledger.unattributed_share());
    out.ledger = Some(ledger);
    Ok(out)
}

/// Saturated throughput of `s.workload`'s open-loop job stream: the same
/// jobs in a closed loop of [`mix::CONNS`] connections ×
/// [`CAPACITY_INFLIGHT`], so both workers stay busy. The open-loop rates
/// in [`mix`] are derived from this figure.
pub fn capacity(s: &Settings) -> io::Result<f64> {
    let corpus = Corpus::load(&s.root)?;
    let (srv, _) = start_server(s, &corpus, &[], 0)?;
    let pace = Pace::Closed { inflight: CAPACITY_INFLIGHT, duration: Duration::from_secs(s.seconds) };
    let res = client::drive(srv.addr(), s.workload, s.seed, pace, &corpus)?;
    srv.shutdown()?;
    if res.lost + res.duplicates + res.bad_frames > 0 {
        return Err(io::Error::other("replies were lost, duplicated or undecodable"));
    }
    Ok(res.replies.len() as f64 / res.elapsed.as_secs_f64())
}

/// End-to-end metrics of one measured serve run; its attempts and
/// failures add to `out`'s.
fn end_to_end(out: &mut Outcome, w: Workload, m: &Measured) {
    let r = &m.res;
    let sent = r.sent.len().max(1) as f64;
    out.attempted += r.sent.len() as u64;
    let errors = r.replies.iter().filter(|x| x.status == Status::Error).count() as u64;
    out.failed += r.lost + r.duplicates + r.bad_frames + errors;
    for (what, n) in [
        ("lost", r.lost),
        ("duplicate replies", r.duplicates),
        ("undecodable replies", r.bad_frames),
        ("Error replies", errors),
    ] {
        if n > 0 {
            out.violations.push(format!("{n} {what}"));
        }
    }
    let lat: Vec<f64> = r.replies.iter().map(|x| x.latency_ns as f64 / 1e6).collect();
    let met = &mut out.metrics;
    let overall = r.replies.len() as f64 / r.elapsed.as_secs_f64();
    if w == Workload::ServeHot {
        // The closed loop's ~50k replies a second allow per-window figures:
        // the interquartile mean over 1-s windows, timed from the first
        // send, so a stall confined to a few windows moves them little.
        // Only quiet windows count (see `steal::quiet_windows`): a vCPU the
        // host takes away for a few ms stalls every request in flight on
        // it, and at 5% steal that doubled the p99.
        let start = r.replies.iter().filter_map(|x| x.arrived.checked_sub(Duration::from_nanos(x.latency_ns))).min();
        let (at, shares): (Vec<f64>, Vec<Option<f64>>) = match start {
            Some(t0) => {
                let at: Vec<f64> =
                    r.replies.iter().map(|x| x.arrived.saturating_duration_since(t0).as_secs_f64()).collect();
                let n = full_windows(&at, RATE_WINDOW_S).len();
                (at, steal::window_shares(&m.steal, t0, RATE_WINDOW_S, n))
            }
            None => (Vec::new(), Vec::new()),
        };
        let all = full_windows(&at, RATE_WINDOW_S);
        let keep = steal::quiet_windows(&shares);
        eprintln!(
            "perfbench: {} of {} windows measured (steal share above {} in the rest)",
            keep.len(),
            all.len(),
            steal::QUIET_SHARE
        );
        let windows: Vec<Vec<usize>> = keep.iter().map(|&k| all[k].clone()).collect();
        met.set("jobs_per_s", window_rate(&windows, RATE_WINDOW_S).unwrap_or(overall));
        for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
            let windowed = window_percentile(&windows, &lat, q);
            met.set(name, windowed.or_else(|| percentile(&lat, q)).unwrap_or(0.0));
        }
    } else {
        // The open loops' throughput just tracks the offered rate. Their
        // latency percentiles are taken per window of due time and
        // averaged over the windows, so a host stall, which delays every
        // job queued behind it, moves the p99 of a few windows only.
        met.set("jobs_per_s", overall);
        let due: Option<Vec<Instant>> =
            r.replies.iter().map(|x| x.arrived.checked_sub(Duration::from_nanos(x.latency_ns))).collect();
        let at: Vec<f64> = match due.as_ref().and_then(|d| d.iter().min().map(|&t0| (d, t0))) {
            Some((d, t0)) => d.iter().map(|&t| t.duration_since(t0).as_secs_f64()).collect(),
            None => Vec::new(),
        };
        for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
            let windowed = window_percentile(&full_windows(&at, OPEN_WINDOW_S), &lat, q);
            met.set(name, windowed.or_else(|| percentile(&lat, q)).unwrap_or(0.0));
        }
    }
    let good = r
        .replies
        .iter()
        .filter(|x| x.status == Status::Done && r.sent[x.job].deadline_ms.is_none_or(|d| x.latency_ns <= d * 1_000_000))
        .count();
    met.set("goodput_ratio", good as f64 / sent);
    let with_plan = |x: &&client::Reply| matches!(x.status, Status::Done | Status::Timeout);
    if w == Workload::ServeHot {
        // Quality of the distinct plans served: one reply per key.
        let mut first: HashMap<u64, client::Reply> = HashMap::new();
        for x in r.replies.iter().filter(with_plan) {
            first.entry(r.sent[x.job].key).or_insert(*x);
        }
        let per_key: Vec<&client::Reply> = first.values().collect();
        met.set("goal_fitness_mean", mean(&per_key.iter().map(|x| x.goal_fitness).collect::<Vec<_>>()).unwrap_or(0.0));
        met.set(
            "plan_len_mean",
            mean(&per_key.iter().filter(|x| x.solved).map(|x| x.plan_len as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        );
        met.set("solved_ratio", per_key.iter().filter(|x| x.solved).count() as f64 / per_key.len().max(1) as f64);
    } else {
        let planned: Vec<&client::Reply> = r.replies.iter().filter(with_plan).collect();
        met.set("goal_fitness_mean", mean(&planned.iter().map(|x| x.goal_fitness).collect::<Vec<_>>()).unwrap_or(0.0));
        met.set(
            "plan_len_mean",
            mean(&planned.iter().filter(|x| x.solved).map(|x| x.plan_len as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        );
        met.set("solved_ratio", r.replies.iter().filter(|x| x.solved).count() as f64 / sent);
    }
    met.set("peak_rss_mb", m.rss_mb);
    let done = r.replies.iter().filter(|x| x.status == Status::Done).count() as f64;
    met.set("bench.failed_ratio", 1.0 - done / sent);
    let overrun: Vec<f64> = r
        .replies
        .iter()
        .filter(|x| r.sent[x.job].class == JobClass::Large)
        .map(|x| x.latency_ns as f64 / 1e6 - mix::LARGE_DEADLINE_MS as f64)
        .collect();
    if let Some(o) = median(&overrun) {
        met.set("bench.overrun_ms_p50", o);
    }
    if w != Workload::ServeHot {
        let lag: Vec<f64> = r.sent.iter().map(|x| x.lag_ns as f64 / 1e6).collect();
        let lag_p99 = percentile(&lag, 0.99).unwrap_or(0.0);
        met.set("bench.send_lag_ms_p99", lag_p99);
        if lag_p99 > MAX_SEND_LAG_P99_MS {
            out.violations.push(format!("invalid run: generator fell behind (send lag p99 {lag_p99:.1} ms)"));
        }
    }
}

/// Plan consistency: every non-degraded `Done` reply for a key carries the
/// same plan, and a sample of them equals an in-process library solve of
/// the same request.
fn verify(out: &mut Outcome, s: &Settings, corpus: &Corpus, r: &LoopResult) {
    let mut per_key: HashMap<u64, (u64, usize)> = HashMap::new();
    let mut mismatches = 0;
    let mut order: Vec<&client::Reply> = r.replies.iter().filter(|x| x.status == Status::Done && !x.degraded).collect();
    order.sort_by_key(|x| r.sent[x.job].id);
    for x in &order {
        let job = &r.sent[x.job];
        match per_key.get(&job.key) {
            Some(&(fp, _)) if fp != x.plan_fp => mismatches += 1,
            Some(_) => {}
            None => {
                per_key.insert(job.key, (x.plan_fp, x.job));
            }
        }
    }
    if mismatches > 0 {
        out.violations.push(format!("{mismatches} replies disagree with an earlier plan for the same key"));
    }
    // Library check on the lowest-id keys, so the sample (and hence
    // `plans_hash`) is the same on every run of a seed.
    let mut keys: Vec<(u64, u64)> = per_key.iter().map(|(&k, &(_, job))| (r.sent[job].id, k)).collect();
    keys.sort_unstable();
    let sample = if s.workload == Workload::ServeHot { mix::HOT_KEYS as usize } else { VERIFY_SAMPLE };
    let mut hash = 0u64;
    for &(id, key) in keys.iter().take(sample) {
        let served = per_key[&key].0;
        let line = mix::job(s.workload, s.seed, id - 1, corpus).line;
        let Ok(Command::Plan(req)) = parse_command(&line) else {
            out.violations.push(format!("request {id} no longer parses"));
            continue;
        };
        match layers::library_solve(&req) {
            Ok((fp, _, _)) if fp == served => hash ^= fnv1a(format!("{key}:{fp}").as_bytes()),
            Ok(_) => out.violations.push(format!("request {id} (key {key}): served plan differs from the library's")),
            Err(e) => out.violations.push(format!("request {id}: {e}")),
        }
    }
    out.plans_hash = hash;
}
