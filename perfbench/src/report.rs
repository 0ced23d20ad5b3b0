//! Metric names, the result stamp and the output lines.
//!
//! The tables here are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run reports every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric (0 where the workload does not exercise that
//! layer), and a test checks that `BENCHMARK.json` names the same metrics
//! with the same units.

use serde::json::{write_value, Value};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("goodput_ratio", "ratio"),
    ("goal_fitness_mean", "fitness"),
    ("plan_len_mean", "ops"),
    ("solved_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("net.codec.read_us", "us"),
    ("net.codec.write_us", "us"),
    ("net.bytes_per_job", "bytes"),
    ("session.noop_per_s", "1/s"),
    ("service.proto.parse_us", "us"),
    ("service.request.key_us", "us"),
    ("service.reply.encode_us", "us"),
    ("service.coalesce.joined_ratio", "ratio"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.computations_per_job", "ratio"),
    ("service.queue.wait_ms_mean", "ms"),
    ("service.exec_ms_mean", "ms"),
    ("service.server_share", "ratio"),
    ("service.solve_ms", "ms"),
    ("service.dyn_over_typed", "ratio"),
    ("service.overload.shed_ratio", "ratio"),
    ("service.overload.rejected_ratio", "ratio"),
    ("service.overload.degraded_ratio", "ratio"),
    ("service.overload.expired_ratio", "ratio"),
    ("service.overload.codel_drops", "count"),
    ("service.ground.hit_ratio", "ratio"),
    ("lang.compile_ms", "ms"),
    ("core.budget.gen0_ms", "ms"),
    ("ga.gen_ms", "ms"),
    ("ga.eval_share", "ratio"),
    ("ga.eval_us_per_ind", "us"),
    ("ga.eval_serial_us_per_ind", "us"),
    ("ga.eval_parallel_gain", "ratio"),
    ("ga.breed_us_per_child", "us"),
    ("ga.xover.fallback_ratio", "ratio"),
    ("core.succ_cache.hit_ratio", "ratio"),
    ("core.succ_cache.evictions", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("bench.failed_ratio", "ratio"),
    ("bench.overrun_ms_p50", "ms"),
    ("bench.send_lag_ms_p99", "ms"),
    ("bench.unattributed_share", "ratio"),
];

/// Unit of a metric named in either table.
pub fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// Measured values by name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Set (or overwrite) `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every `(name, value)` set so far.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// One row of a workload's time ledger.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// Layer the time was spent in.
    pub layer: &'static str,
    /// Time, in the ledger's unit.
    pub value: f64,
}

/// Where a traced run's end-to-end time went.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// What one ledger unit is, e.g. `µs per job`.
    pub basis: &'static str,
    /// Measured layer rows.
    pub rows: Vec<LedgerRow>,
    /// End-to-end time in the same unit.
    pub end_to_end: f64,
}

impl Ledger {
    /// Sum of the layer rows.
    pub fn attributed(&self) -> f64 {
        self.rows.iter().map(|r| r.value).sum()
    }

    /// Share of the end-to-end time no row accounts for.
    pub fn unattributed_share(&self) -> f64 {
        if self.end_to_end > 0.0 {
            (1.0 - self.attributed() / self.end_to_end).max(0.0)
        } else {
            0.0
        }
    }

    /// Human-readable table.
    pub fn render(&self, workload: &str) -> String {
        let mut out = format!("ledger {workload} ({}):\n", self.basis);
        for r in &self.rows {
            let share = if self.end_to_end > 0.0 { r.value / self.end_to_end } else { 0.0 };
            out.push_str(&format!("  {:<28} {:>14.3}  {:>6.1}%\n", r.layer, r.value, 100.0 * share));
        }
        out.push_str(&format!("  {:<28} {:>14.3}\n", "sum of rows", self.attributed()));
        out.push_str(&format!("  {:<28} {:>14.3}\n", "end-to-end", self.end_to_end));
        out.push_str(&format!("  {:<28} {:>14.1}%\n", "unattributed", 100.0 * self.unattributed_share()));
        out
    }
}

/// A JSON number, with non-finite values written as 0.
pub fn num(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metric_obj(names: &[(&str, &str)], metrics: &Metrics, default: Option<f64>) -> Value {
    Value::Obj(
        names
            .iter()
            .filter_map(|(name, unit)| {
                let v = metrics.get(name).or(default)?;
                Some((name.to_string(), obj(vec![("value", num(v)), ("unit", Value::Str(unit.to_string()))])))
            })
            .collect(),
    )
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics, traced: bool) -> String {
    let metrics =
        if traced { metric_obj(&PER_LAYER, metrics, Some(0.0)) } else { metric_obj(&END_TO_END, metrics, None) };
    let mut out = String::new();
    write_value(
        &mut out,
        &obj(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Int(attempted.into())),
            ("failed", Value::Int(failed.into())),
            ("metrics", metrics),
        ]),
    );
    out
}

/// Every metric set, as `{"name": {"value", "unit"}}`.
pub fn all_metrics(metrics: &Metrics) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(n, v)| (n.to_string(), obj(vec![("value", num(v)), ("unit", Value::Str(unit(n).to_string()))])))
            .collect(),
    )
}
