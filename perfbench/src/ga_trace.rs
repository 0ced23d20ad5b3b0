//! Totals of the GA's own obs events (`ga.gen`, `ga.xover`, `ga.cache`,
//! `ga.migration` and the `ga.phase` / `ga.run` spans) and of the service
//! workers' `svc.request` spans, collected either
//! in-process through an installed [`Subscriber`] or from a `--trace`
//! JSON-lines file written by `gaplan serve`.

use std::sync::Mutex;

use gaplan_obs::{Event, FieldValue, Subscriber};
use serde::json::Value;

/// Summed GA telemetry.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GaTally {
    /// `ga.gen` events: generations evaluated.
    pub gens: u64,
    /// Σ `ga.gen.eval_wall_ns`.
    pub eval_ns: u64,
    /// Σ `ga.phase` span wall time.
    pub phase_ns: u64,
    /// Σ `ga.run` span wall time.
    pub run_ns: u64,
    /// Σ `ga.migration.wall_ns`.
    pub migration_ns: u64,
    /// Σ `ga.xover.children`.
    pub children: u64,
    /// Σ `ga.xover.fallback`: state-aware crossovers that found no match.
    pub fallback: u64,
    /// Σ `ga.cache.hits`.
    pub cache_hits: u64,
    /// Σ `ga.cache.misses`.
    pub cache_misses: u64,
    /// Σ `ga.cache.evictions`.
    pub cache_evictions: u64,
    /// `svc.request` spans: jobs a service worker dequeued.
    pub requests: u64,
    /// Σ `svc.request` span wall time: dequeue to reply.
    pub request_ns: u64,
}

impl GaTally {
    fn add(&mut self, name: &str, field: &dyn Fn(&str) -> u64) {
        match name {
            "ga.gen" => {
                self.gens += 1;
                self.eval_ns += field("eval_wall_ns");
            }
            "ga.xover" => {
                self.children += field("children");
                self.fallback += field("fallback");
            }
            "ga.cache" => {
                self.cache_hits += field("hits");
                self.cache_misses += field("misses");
                self.cache_evictions += field("evictions");
            }
            "ga.migration" => self.migration_ns += field("wall_ns"),
            _ => {}
        }
    }

    fn add_span(&mut self, span: &str, wall_ns: u64) {
        match span {
            "ga.phase" => self.phase_ns += wall_ns,
            "ga.run" => self.run_ns += wall_ns,
            "svc.request" => {
                self.requests += 1;
                self.request_ns += wall_ns;
            }
            _ => {}
        }
    }

    /// Fold one line of a `gaplan` JSON-lines trace.
    pub fn absorb_line(&mut self, line: &str) {
        // Only GA events and span exits matter; skip the rest unparsed.
        if !(line.starts_with("{\"ev\":\"ga.") || line.starts_with("{\"ev\":\"span_exit\"")) {
            return;
        }
        let Ok(value) = serde::json::parse(line) else { return };
        let field = |k: &str| match value.get(k) {
            Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
            _ => 0,
        };
        match value.get("ev").and_then(Value::as_str) {
            Some("span_exit") => {
                if let Some(span) = value.get("span").and_then(Value::as_str) {
                    self.add_span(span, field("wall_ns"));
                }
            }
            Some(name) => self.add(name, &field),
            None => {}
        }
    }

    /// Breeding time: phase time not spent evaluating or migrating.
    pub fn breed_ns(&self) -> u64 {
        self.phase_ns.saturating_sub(self.eval_ns + self.migration_ns)
    }
}

/// An in-process subscriber that keeps only a [`GaTally`].
#[derive(Debug, Default)]
pub struct TallySubscriber(Mutex<GaTally>);

impl TallySubscriber {
    /// The totals so far.
    pub fn tally(&self) -> GaTally {
        self.0.lock().expect("tally lock poisoned").clone()
    }
}

impl Subscriber for TallySubscriber {
    fn on_event(&self, event: &Event) {
        let field = |k: &str| {
            event.fields().iter().find(|(name, _)| *name == k).map_or(0, |(_, v)| {
                if let FieldValue::U64(n) = v {
                    *n
                } else {
                    0
                }
            })
        };
        self.0.lock().expect("tally lock poisoned").add(event.name(), &field);
    }

    fn on_span_exit(&self, name: &'static str, wall_ns: u64) {
        self.0.lock().expect("tally lock poisoned").add_span(name, wall_ns);
    }
}
