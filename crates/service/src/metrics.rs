//! Service metrics: lock-free counters updated by workers, the submit path
//! and the transports, snapshotted into a serializable [`MetricsSnapshot`].
//!
//! Every counter is declared once, as one row of the table in the
//! `metrics_table!` invocation below: a name and a doc comment. The row
//! becomes a [`Counter`] cell in [`Counters`] (where call sites count with
//! `inc`/`add`) and a `u64` field of [`MetricsSnapshot`] with the same
//! name and doc, so adding a counter is a one-line table edit plus its
//! call site. The table's `derived` rows are snapshot-only fields computed
//! when the snapshot is taken: rates, EWMAs, histogram roll-ups and the
//! service-level gauges [`crate::PlanService::metrics`] fills in.
//!
//! The snapshot is the body of both the `metrics` and the `health` wire
//! commands. Besides the counters, two log2-bucket [`Histogram`]s track
//! latency distributions — per-job wall time and queue wait — rolled up
//! into [`HistogramSummary`] values and their percentile fields.

use std::sync::atomic::{AtomicU64, Ordering};

use gaplan_obs::Histogram;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One cell of the counter table: a monotonic counter, or a gauge that
/// also moves down. All updates use relaxed ordering — a counter publishes
/// no other data, and a snapshot is a statistical view, not a
/// synchronization point.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower a gauge by one, saturating at zero: a decrement that races
    /// ahead of its increment must never wrap the gauge to `u64::MAX`.
    pub fn dec(&self) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
    }

    /// Raise a running maximum to at least `v`.
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Expands the counter table into [`Counters`] (one [`Counter`] per row)
/// and [`MetricsSnapshot`] (one `u64` per row, then the `derived` fields),
/// carrying each row's doc comment to both.
macro_rules! metrics_table {
    (
        counters { $( $(#[$doc:meta])* $name:ident, )* }
        derived { $( $(#[$ddoc:meta])* $dname:ident: $dty:ty, )* }
    ) => {
        /// The live counter cells, one per table row.
        #[derive(Debug, Default)]
        pub struct Counters {
            $( $(#[$doc])* pub $name: Counter, )*
        }

        /// Serializable point-in-time view of [`Metrics`]: the body of
        /// both the `metrics` and the `health` wire commands.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
            $( $(#[$ddoc])* pub $dname: $dty, )*
        }

        impl Counters {
            /// Every counter's current value; derived fields stay zero.
            fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $( $name: self.$name.get(), )* ..MetricsSnapshot::default() }
            }
        }
    };
}

metrics_table! {
    counters {
        /// Jobs accepted onto the queue.
        jobs_submitted,
        /// Jobs that produced a response (including timeouts/cancellations).
        jobs_completed,
        /// Completed jobs whose plan reached the goal.
        jobs_solved,
        /// Jobs stopped by their deadline.
        jobs_timed_out,
        /// Jobs stopped by cancellation.
        jobs_cancelled,
        /// Submissions rejected before queueing.
        jobs_rejected,
        /// Jobs whose problem failed to build, or that panicked on every
        /// attempt.
        jobs_errored,
        /// Jobs answered from the plan cache.
        cache_hits,
        /// Jobs that ran the GA.
        cache_misses,
        /// Plan-cache entries evicted (LRU) to make room for new plans.
        cache_evictions,
        /// `Dsl` jobs that reused an already-grounded domain.
        ground_cache_hits,
        /// `Dsl` jobs that parsed, checked and grounded from scratch.
        ground_cache_misses,
        /// Records appended to the job journal (submits + terminal replies).
        journal_appends,
        /// Intact journal records decoded during startup replay.
        journal_replayed,
        /// Bytes of corrupt journal tail truncated during recovery.
        journal_truncated_bytes,
        /// Jobs currently queued (submitted, not yet dequeued by a worker).
        queue_depth,
        /// Sum of per-job wall times, milliseconds.
        total_wall_ms,
        /// Largest single-job wall time, milliseconds.
        max_wall_ms,
        /// Faults deliberately injected by chaos jobs.
        faults_injected,
        /// Job panics a worker caught (or died to).
        panics_caught,
        /// Panicked jobs re-attempted under the retry policy.
        jobs_retried,
        /// Dead worker threads the supervisor replaced.
        workers_respawned,
        /// Jobs shed: the queue stayed full past the admission timeout, the
        /// connection's reply backlog stayed full, or CoDel dropped the job
        /// from the queue head.
        jobs_shed,
        /// Service-backed replans that got no answer (dead/rejecting service).
        replans_failed,
        /// Worker threads currently alive (gauge).
        workers_alive,
        /// Jobs that joined an identical in-flight computation (singleflight).
        coalesced_jobs,
        /// TCP connections accepted since startup.
        conns_accepted,
        /// TCP connections currently open (gauge).
        conns_open,
        /// TCP connections that vanished with jobs still in flight.
        conns_dropped,
        /// Idle/stalled connections reaped by the per-connection read timeout.
        conns_reaped,
        /// Inbound frames rejected for exceeding the per-frame size cap.
        frames_oversize,
        /// Inbound frames rejected as malformed (bad UTF-8 / unparseable).
        frames_malformed,
        /// Submissions rejected at admission as deadline-unmeetable (subset of
        /// `jobs_rejected`).
        jobs_rejected_deadline,
        /// Jobs fast-failed at dequeue because their deadline had passed.
        jobs_expired_in_queue,
        /// Jobs run with a brownout-scaled (degraded) GA budget.
        jobs_degraded,
        /// Jobs shed from the queue head by the CoDel controller.
        codel_drops,
        /// In-flight request-id resubmissions with an identical payload folded
        /// into the existing computation (idempotent client retries).
        retries_joined,
        /// In-flight request-id resubmissions rejected because the payload
        /// differed (subset of `jobs_rejected`).
        retries_conflict,
        /// Transient accept-loop errors retried with backoff.
        accepts_retried,
    }
    derived {
        /// `cache_hits / (cache_hits + cache_misses)`, 0 when no lookups yet.
        cache_hit_rate: f64,
        /// `total_wall_ms / jobs_completed`, 0 before the first completion.
        mean_wall_ms: f64,
        /// Queue-wait EWMA at snapshot time, milliseconds (gauge; the
        /// overload controllers' pressure signal).
        queue_wait_ewma_ms: u64,
        /// Execution-time EWMA at snapshot time, milliseconds (gauge).
        exec_ewma_ms: u64,
        /// Distribution of per-job wall times, milliseconds.
        wall_ms_hist: HistogramSummary,
        /// Distribution of submission-to-dequeue queue waits, milliseconds.
        queue_wait_ms_hist: HistogramSummary,
        /// Median per-job wall time so far (`wall_ms_hist.p50`).
        wall_ms_p50: u64,
        /// 99th-percentile per-job wall time so far (`wall_ms_hist.p99`).
        wall_ms_p99: u64,
        /// 99th-percentile queue wait so far (`queue_wait_ms_hist.p99`).
        queue_wait_ms_p99: u64,
        /// Worker threads the service was configured with.
        workers_configured: u64,
        /// Jobs queued or running (cancellable ids).
        active_jobs: u64,
    }
}

/// Live metrics: the counter table plus the EWMA and histogram state the
/// derived snapshot fields are computed from.
#[derive(Debug, Default)]
pub struct Metrics {
    /// The counter cells. Plain events are counted on these directly; the
    /// methods on [`Metrics`] cover updates that follow a rule.
    pub counters: Counters,
    /// EWMA of queue wait, microseconds (α = 1/4); 0 until the first
    /// nonzero sample. Stored as plain bits — the racy read-modify-write
    /// is fine for a statistical signal.
    queue_wait_ewma_us: AtomicU64,
    /// EWMA of on-worker execution time, microseconds (α = 1/4).
    exec_ewma_us: AtomicU64,
    /// Per-job submission-to-completion wall time, milliseconds.
    wall_ms_hist: Mutex<Histogram>,
    /// Per-job submission-to-dequeue wait, milliseconds.
    queue_wait_ms_hist: Mutex<Histogram>,
}

impl Metrics {
    /// Fresh all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A worker dequeued a job after it waited `wait_ms` on the queue.
    pub fn on_dequeue(&self, wait_ms: u64) {
        self.counters.queue_depth.dec();
        self.queue_wait_ms_hist.lock().record(wait_ms);
        ewma_update(&self.queue_wait_ewma_us, wait_ms.saturating_mul(1000));
    }

    /// A worker spent `exec_ms` actually running a job (dequeue to reply,
    /// excluding queue wait). Feeds the execution-time EWMA the admission
    /// controller uses to translate queue depth into an expected wait.
    pub fn on_exec(&self, exec_ms: u64) {
        ewma_update(&self.exec_ewma_us, exec_ms.saturating_mul(1000));
    }

    /// Queue-wait EWMA, milliseconds (rounded down; α = 1/4).
    pub fn queue_wait_ewma_ms(&self) -> u64 {
        self.queue_wait_ewma_us.load(Ordering::Relaxed) / 1000
    }

    /// Execution-time EWMA, milliseconds (rounded down; α = 1/4).
    pub fn exec_ewma_ms(&self) -> u64 {
        self.exec_ewma_us.load(Ordering::Relaxed) / 1000
    }

    /// A job finished; `wall_ms` is submission-to-completion time.
    pub fn on_complete(&self, wall_ms: u64, solved: bool) {
        self.counters.jobs_completed.inc();
        if solved {
            self.counters.jobs_solved.inc();
        }
        self.counters.total_wall_ms.add(wall_ms);
        self.counters.max_wall_ms.max(wall_ms);
        self.wall_ms_hist.lock().record(wall_ms);
    }

    /// A submission was rejected at admission because its deadline was
    /// provably unmeetable given the estimated queue wait. Also counts
    /// toward `jobs_rejected` (it is a pre-queue rejection).
    pub fn on_rejected_deadline(&self) {
        self.counters.jobs_rejected.inc();
        self.counters.jobs_rejected_deadline.inc();
    }

    /// A resubmission reused an in-flight request id with a *different*
    /// payload and was rejected. Also counts toward `jobs_rejected`.
    pub fn on_retry_conflict(&self) {
        self.counters.jobs_rejected.inc();
        self.counters.retries_conflict.inc();
    }

    /// A TCP connection was accepted.
    pub fn on_conn_accept(&self) {
        self.counters.conns_accepted.inc();
        self.counters.conns_open.inc();
    }

    /// A TCP connection closed; `dropped` means the peer vanished with
    /// jobs still in flight (as opposed to a clean quit/EOF).
    pub fn on_conn_close(&self, dropped: bool) {
        self.counters.conns_open.dec();
        if dropped {
            self.counters.conns_dropped.inc();
        }
    }

    /// Consistent-enough point-in-time copy of every counter, with the
    /// derived fields computed. `workers_configured` and `active_jobs`
    /// belong to the service, not the counters, and stay 0 here.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = self.counters.snapshot();
        let lookups = s.cache_hits + s.cache_misses;
        s.cache_hit_rate = if lookups > 0 { s.cache_hits as f64 / lookups as f64 } else { 0.0 };
        s.mean_wall_ms = if s.jobs_completed > 0 { s.total_wall_ms as f64 / s.jobs_completed as f64 } else { 0.0 };
        s.queue_wait_ewma_ms = self.queue_wait_ewma_ms();
        s.exec_ewma_ms = self.exec_ewma_ms();
        s.wall_ms_hist = HistogramSummary::of(&self.wall_ms_hist.lock());
        s.queue_wait_ms_hist = HistogramSummary::of(&self.queue_wait_ms_hist.lock());
        s.wall_ms_p50 = s.wall_ms_hist.p50;
        s.wall_ms_p99 = s.wall_ms_hist.p99;
        s.queue_wait_ms_p99 = s.queue_wait_ms_hist.p99;
        s
    }
}

/// Racy-but-fine EWMA step: `cell ← (3·cell + sample) / 4`, with the
/// first nonzero sample adopted outright so the average doesn't have to
/// climb from zero. Lost updates under contention only soften the signal.
fn ewma_update(cell: &AtomicU64, sample_us: u64) {
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 { sample_us } else { (old.saturating_mul(3).saturating_add(sample_us)) / 4 };
    cell.store(new, Ordering::Relaxed);
}

/// One non-empty log2 bucket of a [`HistogramSummary`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub upper: u64,
    /// Samples that landed in it.
    pub count: u64,
}

/// Serializable roll-up of a [`Histogram`]. Percentiles are bucket upper
/// bounds, so every field is an exact integer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Bucket upper bound of the median sample.
    pub p50: u64,
    /// Bucket upper bound of the 90th-percentile sample.
    pub p90: u64,
    /// Bucket upper bound of the 99th-percentile sample.
    pub p99: u64,
    /// Non-empty buckets in ascending order.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSummary {
    /// Roll up a live histogram.
    pub fn of(h: &Histogram) -> Self {
        HistogramSummary {
            count: h.count(),
            sum: h.sum(),
            p50: h.quantile_upper(0.5),
            p90: h.quantile_upper(0.9),
            p99: h.quantile_upper(0.99),
            buckets: h.nonzero_buckets().into_iter().map(|(upper, count)| BucketCount { upper, count }).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_into_snapshot() {
        let m = Metrics::new();
        let c = &m.counters;
        c.jobs_submitted.inc();
        c.queue_depth.inc();
        c.jobs_submitted.inc();
        c.queue_depth.inc();
        m.on_dequeue(3);
        c.cache_misses.inc();
        m.on_complete(40, true);
        m.on_dequeue(7);
        c.cache_hits.inc();
        m.on_complete(10, false);
        c.jobs_rejected.inc();
        c.cache_evictions.inc();
        c.ground_cache_misses.inc();
        c.ground_cache_hits.inc();
        c.ground_cache_hits.inc();
        c.journal_appends.inc();
        c.journal_appends.inc();
        c.journal_replayed.add(5);
        c.journal_truncated_bytes.add(17);
        c.coalesced_jobs.inc();
        m.on_conn_accept();
        m.on_conn_accept();
        m.on_conn_close(true);
        c.frames_oversize.inc();
        c.frames_malformed.inc();
        m.on_rejected_deadline();
        c.jobs_expired_in_queue.inc();
        c.jobs_degraded.inc();
        c.codel_drops.inc();
        c.conns_reaped.inc();
        c.retries_joined.inc();
        m.on_retry_conflict();
        c.accepts_retried.inc();
        m.on_exec(20);
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 2);
        assert_eq!(s.jobs_completed, 2);
        assert_eq!(s.jobs_solved, 1);
        // A plain reject + on_rejected_deadline + on_retry_conflict (the
        // latter two also count as rejects).
        assert_eq!(s.jobs_rejected, 3);
        assert_eq!(s.jobs_rejected_deadline, 1);
        assert_eq!(s.jobs_expired_in_queue, 1);
        assert_eq!(s.jobs_degraded, 1);
        assert_eq!(s.codel_drops, 1);
        assert_eq!(s.conns_reaped, 1);
        assert_eq!(s.retries_joined, 1);
        assert_eq!(s.retries_conflict, 1);
        assert_eq!(s.accepts_retried, 1);
        // EWMA (α = 1/4): waits 3 then 7 → 3 then (3·3+7)/4 = 4 ms.
        assert_eq!(s.queue_wait_ewma_ms, 4);
        assert_eq!(s.exec_ewma_ms, 20);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.cache_evictions, 1);
        assert_eq!(s.ground_cache_hits, 2);
        assert_eq!(s.ground_cache_misses, 1);
        assert_eq!(s.journal_appends, 2);
        assert_eq!(s.journal_replayed, 5);
        assert_eq!(s.journal_truncated_bytes, 17);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.coalesced_jobs, 1);
        assert_eq!(s.conns_accepted, 2);
        assert_eq!(s.conns_open, 1);
        assert_eq!(s.conns_dropped, 1);
        assert_eq!(s.frames_oversize, 1);
        assert_eq!(s.frames_malformed, 1);
        assert_eq!(s.total_wall_ms, 50);
        assert_eq!(s.max_wall_ms, 40);
        assert!((s.mean_wall_ms - 25.0).abs() < 1e-12);
        // Histograms roll up alongside the counters: wall times 40 and 10
        // land in buckets [32,63] and [8,15]; waits 3 and 7 in [2,3], [4,7].
        assert_eq!(s.wall_ms_hist.count, 2);
        assert_eq!(s.wall_ms_hist.sum, 50);
        assert_eq!(s.wall_ms_hist.p99, 63);
        assert_eq!(
            s.wall_ms_hist.buckets,
            vec![BucketCount { upper: 15, count: 1 }, BucketCount { upper: 63, count: 1 }]
        );
        assert_eq!(s.queue_wait_ms_hist.count, 2);
        assert_eq!(s.queue_wait_ms_hist.sum, 10);
        assert_eq!(s.wall_ms_p50, 15);
        assert_eq!(s.wall_ms_p99, 63);
        assert_eq!(s.queue_wait_ms_p99, 7);
    }

    #[test]
    fn gauges_saturate_at_zero() {
        let m = Metrics::new();
        m.on_dequeue(0);
        m.on_conn_close(false);
        m.counters.workers_alive.dec();
        let s = m.snapshot();
        assert_eq!((s.queue_depth, s.conns_open, s.workers_alive), (0, 0, 0));
    }

    #[test]
    fn snapshot_serializes() {
        let s = Metrics::new().snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
