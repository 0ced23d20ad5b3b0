//! Exact order statistics over recorded samples.
//!
//! Every latency the benchmark reports is computed here from the full list
//! of per-request samples: no buckets, so the reported percentile is a
//! value that was actually observed.

/// The `q`-quantile of `samples` by the nearest-rank rule: the smallest
/// sample such that at least `q * n` samples are less than or equal to it.
/// `q` is clamped to `[0, 1]`; an empty slice yields `None`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, q))
}

/// [`percentile`] over an already ascending, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median by the nearest-rank rule (the lower middle for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The events at times `at` (seconds from the start of the measurement),
/// as indices into `at`, grouped by the consecutive full windows of
/// `window` seconds after 0. A trailing partial window is left out.
pub fn full_windows(at: &[f64], window: f64) -> Vec<Vec<usize>> {
    let span = at.iter().copied().fold(0.0, f64::max);
    let mut windows = vec![Vec::new(); (span / window).floor() as usize];
    for (i, &t) in at.iter().enumerate() {
        if let Some(w) = windows.get_mut((t / window).floor() as usize) {
            w.push(i);
        }
    }
    windows
}

/// Events per second over `windows` of `window` seconds each (as from
/// [`full_windows`]): the [`interquartile_mean`] of their counts, `None`
/// when there are none. A stall confined to a few windows moves the result
/// little, and slow drift across the run is averaged rather than sampled at
/// one window.
pub fn window_rate(windows: &[Vec<usize>], window: f64) -> Option<f64> {
    let counts: Vec<f64> = windows.iter().map(|w| w.len() as f64).collect();
    interquartile_mean(&counts).map(|c| c / window)
}

/// [`interquartile_mean`] over the non-empty `windows` (indices into
/// `values`, as from [`full_windows`]) of each window's exact `q`-quantile.
pub fn window_percentile(windows: &[Vec<usize>], values: &[f64], q: f64) -> Option<f64> {
    let per_window: Vec<f64> =
        windows.iter().filter_map(|w| percentile(&w.iter().map(|&i| values[i]).collect::<Vec<_>>(), q)).collect();
    interquartile_mean(&per_window)
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest `n / 4` (rounded down); with fewer than four
/// samples, the mean of all. As robust to a few outliers as the median, but
/// it averages the middle half instead of picking one sample, so it varies
/// less from run to run. `None` for an empty slice.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// FNV-1a over `bytes`: the plan fingerprint hash, matching the one
/// `gaplan loadgen` folds into its `plans_hash`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Fingerprint of a plan given as operation names, independent of how the
/// names were transported (JSON reply or in-process solve).
pub fn plan_fingerprint<'a>(names: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for name in names {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}
