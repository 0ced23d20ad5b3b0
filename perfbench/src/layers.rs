//! Per-layer timings taken from the benchmark's own code: each replays a
//! traced run's recorded frames or requests through the public function of
//! one layer and reports the mean cost per call.

use std::hint::black_box;
use std::io::{self, BufWriter, Cursor, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gaplan_core::{Budget, Domain};
use gaplan_ga::population::{evaluate_candidates, init_population, Candidate};
use gaplan_ga::{EvalMode, GaConfig, MultiPhase};
use gaplan_net::{write_frame, Frame, FrameReader, DEFAULT_MAX_FRAME};
use gaplan_service::{parse_command, BuiltProblem, Command, PlanRequest, PlanResponse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::de::Deserialize;

use crate::stats::{median, plan_fingerprint};

/// Repeat `pass` (which handles `items` calls) until at least `min` has
/// elapsed; the mean time per call in µs.
fn per_call_us(items: usize, min: Duration, mut pass: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let started = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed() < min {
        pass();
        passes += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / (passes as f64 * items as f64)
}

const REPLAY_MIN: Duration = Duration::from_millis(100);

/// `FrameReader::read_frame` per frame over the recorded request lines.
pub fn codec_read_us(lines: &[String]) -> f64 {
    let mut buf = Vec::new();
    for l in lines {
        buf.extend_from_slice(l.as_bytes());
        buf.push(b'\n');
    }
    per_call_us(lines.len(), REPLAY_MIN, || {
        let mut reader = FrameReader::new(Cursor::new(&buf[..]), DEFAULT_MAX_FRAME);
        while let Ok(Some(frame)) = reader.read_frame() {
            black_box(matches!(frame, Frame::Complete(_)));
        }
    })
}

/// `write_frame` per frame over the recorded reply lines.
pub fn codec_write_us(lines: &[String]) -> f64 {
    let mut out = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    per_call_us(lines.len(), REPLAY_MIN, || {
        out.clear();
        for l in lines {
            write_frame(&mut out, l).expect("writing to memory cannot fail");
        }
        black_box(out.len());
    })
}

/// Recorded request lines parsed into plan requests.
pub fn plan_requests(lines: &[String]) -> Vec<PlanRequest> {
    lines
        .iter()
        .filter_map(|l| match parse_command(l) {
            Ok(Command::Plan(req)) => Some(*req),
            _ => None,
        })
        .collect()
}

/// `parse_command` per recorded request line.
pub fn parse_us(lines: &[String]) -> f64 {
    per_call_us(lines.len(), REPLAY_MIN, || {
        for l in lines {
            black_box(parse_command(black_box(l)).is_ok());
        }
    })
}

/// `PlanRequest::coalesce_key` (which builds the problem) per request.
pub fn key_us(requests: &[PlanRequest]) -> f64 {
    per_call_us(requests.len(), REPLAY_MIN, || {
        for r in requests {
            black_box(r.coalesce_key());
        }
    })
}

/// `PlanResponse` serialization per recorded reply.
pub fn encode_us(lines: &[String]) -> f64 {
    let replies: Vec<PlanResponse> = lines
        .iter()
        .filter_map(|l| serde::json::parse(l).ok())
        .filter_map(|v| PlanResponse::deserialize_json(&v).ok())
        .collect();
    per_call_us(replies.len(), REPLAY_MIN, || {
        for r in &replies {
            black_box(serde_json::to_string(r).expect("responses serialize").len());
        }
    })
}

/// Closed loop of `cancel` commands for unknown ids: what transport plus
/// session sustain without planning. Replies per second over
/// [`crate::mix::CONNS`] connections with `inflight` outstanding each.
pub fn noop_per_s(addr: &str, inflight: usize, duration: Duration) -> io::Result<f64> {
    let started = Instant::now();
    let counts: Vec<io::Result<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..crate::mix::CONNS as u64)
            .map(|c| {
                s.spawn(move || {
                    let stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                    let mut writer = BufWriter::new(stream.try_clone()?);
                    let mut reader = FrameReader::new(stream, DEFAULT_MAX_FRAME);
                    let mut next = (c + 1) << 48;
                    let mut send = |w: &mut BufWriter<TcpStream>| {
                        next += 1;
                        write_frame(w, &format!("{{\"cmd\":\"cancel\",\"id\":{next}}}"))
                    };
                    for _ in 0..inflight {
                        send(&mut writer)?;
                    }
                    writer.flush()?;
                    let (mut replies, mut outstanding) = (0u64, inflight);
                    while outstanding > 0 {
                        match reader.read_frame()? {
                            Some(Frame::Complete(_)) => replies += 1,
                            _ => return Err(io::Error::other("noop loop: bad or missing reply")),
                        }
                        outstanding -= 1;
                        if started.elapsed() < duration {
                            send(&mut writer)?;
                            writer.flush()?;
                            outstanding += 1;
                        }
                    }
                    Ok(replies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("noop thread panicked")).collect()
    });
    let mut total = 0;
    for c in counts {
        total += c?;
    }
    Ok(total as f64 / started.elapsed().as_secs_f64())
}

/// The built problem and effective config a worker would run for `req`.
pub fn built(req: &PlanRequest) -> Result<(BuiltProblem, GaConfig), String> {
    let built = req.problem.build()?;
    let defaults = built.default_config();
    let cfg = match &req.ga {
        Some(ov) => ov.apply(defaults),
        None => defaults,
    };
    Ok((built, cfg))
}

/// `BuiltProblem::solve` without a budget: the plan a worker produces
/// when nothing cuts the run short, and how long it took.
pub fn library_solve(req: &PlanRequest) -> Result<(u64, usize, Duration), String> {
    let (built, cfg) = built(req)?;
    let started = Instant::now();
    let out = built.solve(&cfg, Budget::unlimited());
    let wall = started.elapsed();
    Ok((plan_fingerprint(out.plan_names.iter().map(String::as_str)), out.plan_names.len(), wall))
}

fn typed_run<D: Domain>(domain: &D, cfg: &GaConfig) -> (u64, Duration) {
    let started = Instant::now();
    let r = MultiPhase::new(domain, cfg.clone()).run();
    let wall = started.elapsed();
    let names: Vec<String> = r.plan.ops().iter().map(|&op| domain.op_name(op)).collect();
    (plan_fingerprint(names.iter().map(String::as_str)), wall)
}

/// The same run through the service's type-erased `BuiltProblem::solve`
/// and through the typed engine: `(erased, typed)` wall times, or an error
/// when the two plans differ.
pub fn dyn_vs_typed(built: &BuiltProblem, cfg: &GaConfig) -> Result<(Duration, Duration), String> {
    let started = Instant::now();
    let erased = built.solve(cfg, Budget::unlimited());
    let erased_wall = started.elapsed();
    let erased_fp = plan_fingerprint(erased.plan_names.iter().map(String::as_str));
    let (typed_fp, typed_wall) = match built {
        BuiltProblem::Hanoi { domain, .. } => typed_run(domain, cfg),
        BuiltProblem::Tile { domain, .. } => typed_run(domain, cfg),
        BuiltProblem::Strips(p) => typed_run(p.as_ref(), cfg),
        BuiltProblem::Dsl(p) => typed_run(p.as_ref(), cfg),
        BuiltProblem::Grid(w) => typed_run(w.as_ref(), cfg),
        BuiltProblem::Chaos { .. } => return Err("chaos problems do not plan".into()),
    };
    if erased_fp != typed_fp {
        return Err(format!("BuiltProblem::solve and MultiPhase::run disagree on {:#x}", built.signature()));
    }
    Ok((erased_wall, typed_wall))
}

/// Time to the first budget check: `BuiltProblem::solve` under a budget
/// that has already expired runs generation 0 only. Median of `reps`, ms.
pub fn gen0_ms(built: &BuiltProblem, cfg: &GaConfig, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(built.solve(cfg, Budget::unlimited().with_timeout(Duration::ZERO)));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Mean `gaplan_lang::compile` time per pair, ms.
pub fn compile_ms(pairs: &[crate::mix::DslPair]) -> f64 {
    per_call_us(pairs.len(), REPLAY_MIN, || {
        for p in pairs {
            black_box(gaplan_lang::compile(&p.domain, &p.problem).is_ok());
        }
    }) / 1e3
}

/// Evaluation cost per individual on a random generation-0 population of
/// `cfg`'s size, serial and parallel: `(serial_us, parallel_us)`.
pub fn snapshot_eval_us<D: Domain>(domain: &D, cfg: &GaConfig) -> (f64, f64) {
    let genomes = init_population(&mut StdRng::seed_from_u64(cfg.seed), cfg);
    let start = domain.initial_state();
    let run = |eval: EvalMode| {
        let cfg = GaConfig { eval, ..cfg.clone() };
        per_call_us(genomes.len(), REPLAY_MIN, || {
            let cands = genomes.iter().cloned().map(Candidate::fresh).collect();
            black_box(evaluate_candidates(domain, &start, cands, &cfg, None).len());
        })
    };
    (run(EvalMode::Serial), run(EvalMode::Parallel))
}
