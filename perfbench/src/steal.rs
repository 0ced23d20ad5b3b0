//! The host's steal time through a run: the CPU time the hypervisor
//! withheld from the VM, read from `/proc/stat`. Windows of a run in which
//! the host took CPU away can then be told apart from quiet ones.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a [`Sampler`] reads `/proc/stat`.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// A window with at most this steal share counts as quiet.
pub const QUIET_SHARE: f64 = 0.01;

/// Aggregate steal ticks and total ticks of all CPUs since boot.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// One reading of [`cpu_ticks`].
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was read.
    pub at: Instant,
    /// Steal ticks.
    pub steal: u64,
    /// Total ticks.
    pub total: u64,
}

/// Reads [`cpu_ticks`] every [`SAMPLE_EVERY`] on a thread of its own.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Start sampling.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some((steal, total)) = cpu_ticks() {
                    samples.push(Sample { at: Instant::now(), steal, total });
                }
                if flag.load(Ordering::SeqCst) {
                    return samples;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Sampler { stop, handle }
    }

    /// Stop sampling and return the samples, in time order.
    pub fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("steal sampler panicked")
    }
}

/// Steal share of window `k`, `[t0 + k * window, t0 + (k + 1) * window)`,
/// for `k < n`: steal ticks over total ticks between the last sample at or
/// before the window's start and the first at or after its end. `None`
/// when the samples do not cover the window.
pub fn window_shares(samples: &[Sample], t0: Instant, window: f64, n: usize) -> Vec<Option<f64>> {
    (0..n)
        .map(|k| {
            let start = t0 + Duration::from_secs_f64(k as f64 * window);
            let end = t0 + Duration::from_secs_f64((k + 1) as f64 * window);
            let a = samples.iter().rev().find(|s| s.at <= start)?;
            let b = samples.iter().find(|s| s.at >= end)?;
            (b.total > a.total).then(|| (b.steal - a.steal) as f64 / (b.total - a.total) as f64)
        })
        .collect()
}

/// The indices of the windows to measure: every window whose steal share is
/// at most [`QUIET_SHARE`], or, when fewer than half are, the half with the
/// least steal (ties to the earlier window). All windows when any share is
/// unknown.
pub fn quiet_windows(shares: &[Option<f64>]) -> Vec<usize> {
    let Some(known) = shares.iter().copied().collect::<Option<Vec<f64>>>() else {
        return (0..shares.len()).collect();
    };
    let quiet: Vec<usize> = (0..known.len()).filter(|&k| known[k] <= QUIET_SHARE).collect();
    if 2 * quiet.len() >= known.len() {
        return quiet;
    }
    let mut order: Vec<usize> = (0..known.len()).collect();
    order.sort_by(|&a, &b| known[a].total_cmp(&known[b]));
    order.truncate(known.len().div_ceil(2));
    order.sort_unstable();
    order
}
