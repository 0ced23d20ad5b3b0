//! The load process's client: closed- and open-loop TCP drivers with
//! exact per-request latency samples.
//!
//! Every reply is timed individually with a monotonic clock. In the open
//! loop a request is timed from its *due* time, so a stalled generator or
//! a full socket charges its delay to the requests behind it, and the
//! generator's own lateness is kept as a separate sample.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gaplan_net::{write_frame, Frame, FrameReader, DEFAULT_MAX_FRAME};
use serde::json::Value;

use crate::mix::{self, Corpus, Job, JobClass, Workload};
use crate::stats::plan_fingerprint;

/// How long a connection waits without any reply before the requests
/// still pending on it count as lost.
const DRAIN_IDLE: Duration = Duration::from_secs(30);
/// Raw request and reply lines kept per connection for the traced run's
/// layer replays.
const KEEP_LINES: usize = 2048;

/// Terminal status of a reply, as on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ran to completion.
    Done,
    /// Deadline cut the run; best-so-far plan.
    Timeout,
    /// Refused at admission.
    Rejected,
    /// Shed by backpressure or CoDel.
    Shed,
    /// Expired while queued.
    DeadlineExpired,
    /// Failed to build or panicked.
    Error,
    /// Anything else (`Cancelled` is never requested).
    Other,
}

impl Status {
    fn parse(s: &str) -> Status {
        match s {
            "Done" => Status::Done,
            "Timeout" => Status::Timeout,
            "Rejected" => Status::Rejected,
            "Shed" => Status::Shed,
            "DeadlineExpired" => Status::DeadlineExpired,
            "Error" => Status::Error,
            _ => Status::Other,
        }
    }
}

/// What the client keeps of one sent request.
#[derive(Debug, Clone, Copy)]
pub struct SentJob {
    /// Request id.
    pub id: u64,
    /// Plan key.
    pub key: u64,
    /// Problem kind.
    pub class: JobClass,
    /// Deadline the request carried.
    pub deadline_ms: Option<u64>,
    /// GA population requested.
    pub population: usize,
    /// Request frame bytes (newline included).
    pub bytes: usize,
    /// Generator lateness: send time minus due time (0 in a closed loop).
    pub lag_ns: u64,
}

/// One reply, matched to its request.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Index of the request in [`LoopResult::sent`].
    pub job: usize,
    /// Reply time minus send time (closed loop) or due time (open loop).
    pub latency_ns: u64,
    /// When the reply arrived.
    pub arrived: Instant,
    /// Terminal status.
    pub status: Status,
    /// Did the plan reach the goal?
    pub solved: bool,
    /// Goal fitness of the plan.
    pub goal_fitness: f64,
    /// Plan length.
    pub plan_len: usize,
    /// Fingerprint of the plan's operation names.
    pub plan_fp: u64,
    /// Brownout ran the job at a reduced budget.
    pub degraded: bool,
    /// Generations the job evolved.
    pub total_generations: u32,
    /// Reply frame bytes (newline included).
    pub bytes: usize,
}

/// Everything one load run observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Requests sent, in per-connection send order.
    pub sent: Vec<SentJob>,
    /// Replies matched to a sent request.
    pub replies: Vec<Reply>,
    /// Requests that never got a reply.
    pub lost: u64,
    /// Replies matching no pending request (a second answer, or an id
    /// never sent).
    pub duplicates: u64,
    /// Reply frames that failed to decode or parse.
    pub bad_frames: u64,
    /// First measured send to last reply.
    pub elapsed: Duration,
    /// A sample of raw request lines, for layer replays.
    pub request_lines: Vec<String>,
    /// A sample of raw reply lines, for layer replays.
    pub reply_lines: Vec<String>,
}

impl LoopResult {
    fn absorb(&mut self, mut other: LoopResult) {
        let offset = self.sent.len();
        self.sent.append(&mut other.sent);
        self.replies.extend(other.replies.into_iter().map(|mut r| {
            r.job += offset;
            r
        }));
        self.lost += other.lost;
        self.duplicates += other.duplicates;
        self.bad_frames += other.bad_frames;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.request_lines.append(&mut other.request_lines);
        self.reply_lines.append(&mut other.reply_lines);
    }
}

/// How the stream is offered to the server.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each connection keeps `inflight` requests outstanding until
    /// `duration` has passed, then drains.
    Closed {
        /// Outstanding requests per connection.
        inflight: usize,
        /// Sending stops after this long.
        duration: Duration,
    },
    /// Job `i` is due at `i / rate` seconds; `jobs` jobs in total.
    Open {
        /// Arrivals per second over all connections.
        rate: f64,
        /// Jobs in the run.
        jobs: u64,
    },
}

/// Drive `workload`'s stream at `addr`.
///
/// The closed loop uses [`mix::CONNS`] connections, one thread each;
/// connection `c` sends the jobs whose index is congruent to `c`. The open
/// loop uses one connection with a sender thread, which sleeps until each
/// job is due, and a receiver thread, which timestamps each reply as it
/// arrives (socket read timeouts are too coarse to pace sends).
pub fn drive(addr: &str, workload: Workload, seed: u64, pace: Pace, corpus: &Corpus) -> io::Result<LoopResult> {
    match pace {
        Pace::Closed { inflight, duration } => closed_loop(addr, workload, seed, inflight, duration, corpus),
        Pace::Open { rate, jobs } => open_loop(addr, workload, seed, rate, jobs, corpus),
    }
}

fn connect(addr: &str) -> io::Result<(BufWriter<TcpStream>, FrameReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok((BufWriter::new(stream.try_clone()?), FrameReader::new(stream.try_clone()?, DEFAULT_MAX_FRAME), stream))
}

type Pending = HashMap<u64, (usize, Instant)>;

/// Book `job` as sent at `origin` (before writing it, so its reply can
/// never arrive first) and write it.
fn send(
    result: &mut LoopResult,
    pending: &mut Pending,
    writer: &mut BufWriter<TcpStream>,
    job: Job,
    origin: Instant,
    lag_ns: u64,
) -> io::Result<()> {
    let idx = result.sent.len();
    result.sent.push(SentJob {
        id: job.id,
        key: job.key,
        class: job.class,
        deadline_ms: job.deadline_ms,
        population: job.population,
        bytes: job.line.len() + 1,
        lag_ns,
    });
    pending.insert(job.id, (idx, origin));
    write_frame(writer, &job.line)?;
    if result.request_lines.len() < KEEP_LINES {
        result.request_lines.push(job.line);
    }
    Ok(())
}

/// Match one reply line, received at `now`, to its pending request.
fn record(result: &mut LoopResult, pending: &Mutex<Pending>, line: String, now: Instant) {
    let Ok(value) = serde::json::parse(&line) else {
        result.bad_frames += 1;
        return;
    };
    let Some(id) = uint(&value, "id") else {
        result.bad_frames += 1;
        return;
    };
    let Some((job, origin)) = pending.lock().expect("pending lock poisoned").remove(&id) else {
        result.duplicates += 1;
        return;
    };
    let names = match value.get("plan") {
        Some(Value::Arr(items)) => items.iter().filter_map(Value::as_str).collect(),
        _ => Vec::new(),
    };
    result.replies.push(Reply {
        job,
        latency_ns: now.saturating_duration_since(origin).as_nanos() as u64,
        arrived: now,
        status: Status::parse(value.get("status").and_then(Value::as_str).unwrap_or("")),
        solved: matches!(value.get("solved"), Some(Value::Bool(true))),
        goal_fitness: match value.get("goal_fitness") {
            Some(Value::Float(f)) => *f,
            Some(Value::Int(i)) => *i as f64,
            _ => 0.0,
        },
        plan_len: names.len(),
        plan_fp: plan_fingerprint(names),
        degraded: matches!(value.get("degraded"), Some(Value::Bool(true))),
        total_generations: uint(&value, "total_generations").unwrap_or(0) as u32,
        bytes: line.len() + 1,
    });
    if result.reply_lines.len() < KEEP_LINES {
        result.reply_lines.push(line);
    }
}

/// Read one frame into `result`. `Ok(false)` on a read timeout.
fn receive(reader: &mut FrameReader<TcpStream>, result: &mut LoopResult, pending: &Mutex<Pending>) -> io::Result<bool> {
    match reader.read_frame() {
        Ok(Some(Frame::Complete(line))) => {
            record(result, pending, line, Instant::now());
            Ok(true)
        }
        Ok(Some(Frame::Reject(_))) => {
            result.bad_frames += 1;
            Ok(true)
        }
        Ok(None) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => Ok(false),
        Err(e) => Err(e),
    }
}

fn closed_loop(
    addr: &str,
    workload: Workload,
    seed: u64,
    inflight: usize,
    duration: Duration,
    corpus: &Corpus,
) -> io::Result<LoopResult> {
    let conns = mix::CONNS as u64;
    let started = Instant::now();
    let stop_at = started + duration;
    let results: Vec<io::Result<LoopResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let (mut writer, mut reader, stream) = connect(addr)?;
                    stream.set_read_timeout(Some(DRAIN_IDLE))?;
                    let pending = Mutex::new(Pending::new());
                    let mut result = LoopResult::default();
                    let mut k = 0;
                    while Instant::now() < stop_at {
                        while pending.lock().expect("pending lock poisoned").len() < inflight {
                            let job = mix::job(workload, seed, c + k * conns, corpus);
                            k += 1;
                            let mut p = pending.lock().expect("pending lock poisoned");
                            send(&mut result, &mut p, &mut writer, job, Instant::now(), 0)?;
                        }
                        writer.flush()?;
                        if !matches!(receive(&mut reader, &mut result, &pending), Ok(true)) {
                            break;
                        }
                    }
                    // Collect what is still owed; a silent server loses it.
                    while !pending.lock().expect("pending lock poisoned").is_empty() {
                        if !matches!(receive(&mut reader, &mut result, &pending), Ok(true)) {
                            break;
                        }
                    }
                    result.lost += pending.lock().expect("pending lock poisoned").len() as u64;
                    result.elapsed = started.elapsed();
                    Ok(result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client connection thread panicked")).collect()
    });
    let mut merged = LoopResult::default();
    for r in results {
        merged.absorb(r?);
    }
    Ok(merged)
}

fn open_loop(
    addr: &str,
    workload: Workload,
    seed: u64,
    rate: f64,
    jobs: u64,
    corpus: &Corpus,
) -> io::Result<LoopResult> {
    let (mut writer, mut reader, stream) = connect(addr)?;
    // Idle ticks let the receiver notice the end of the run.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let pending = Mutex::new(Pending::new());
    let sending_done = AtomicBool::new(false);
    let started = Instant::now();
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut result = LoopResult::default();
            let mut last_progress = Instant::now();
            loop {
                match receive(&mut reader, &mut result, &pending) {
                    Ok(true) => last_progress = Instant::now(),
                    Ok(false) if !sending_done.load(Ordering::SeqCst) => last_progress = Instant::now(),
                    Ok(false) if last_progress.elapsed() < DRAIN_IDLE => {}
                    _ => break,
                }
                if sending_done.load(Ordering::SeqCst) && pending.lock().expect("pending lock poisoned").is_empty() {
                    break;
                }
            }
            result
        });
        let sender = (|| -> io::Result<LoopResult> {
            let mut result = LoopResult::default();
            for k in 0..jobs {
                let job = mix::job(workload, seed, k, corpus);
                let due = started + mix::due_offset(rate, k);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let lag = Instant::now().saturating_duration_since(due);
                let mut p = pending.lock().expect("pending lock poisoned");
                send(&mut result, &mut p, &mut writer, job, due, lag.as_nanos() as u64)?;
                drop(p);
                writer.flush()?;
            }
            Ok(result)
        })();
        sending_done.store(true, Ordering::SeqCst);
        (sender, receiver.join().expect("receiver thread panicked"))
    });
    let mut result = sent?;
    result.replies = received.replies;
    result.duplicates = received.duplicates;
    result.bad_frames = received.bad_frames;
    result.reply_lines = received.reply_lines;
    result.lost = pending.lock().expect("pending lock poisoned").len() as u64;
    result.elapsed = started.elapsed();
    Ok(result)
}

fn uint(value: &Value, field: &str) -> Option<u64> {
    match value.get(field) {
        Some(Value::Int(i)) => u64::try_from(*i).ok(),
        _ => None,
    }
}
