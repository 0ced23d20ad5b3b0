//! Process-wide cache of grounded DSL domains.
//!
//! Building a [`crate::ProblemSpec::Dsl`] means lexing, parsing, type
//! checking and grounding two source files — work that is identical for
//! every request carrying the same `(domain, problem)` text, and which the
//! session thread repeats via [`crate::PlanRequest::cache_key`] before a
//! worker ever sees the job. This module memoizes `compile` keyed by a
//! signature of the two texts, so a hot domain is ground once and then
//! served as a cheap `Arc` clone. Compile *failures* are cached too: a
//! malformed domain resubmitted in a tight loop costs one hash lookup, not
//! a re-parse.
//!
//! The cache is a plain bounded map with clear-on-full (the same policy as
//! the worker succ-cache pool): grounded domains are a few hundred KB at
//! most and `CAPACITY` distinct texts per process is already far beyond any
//! realistic working set, so LRU bookkeeping isn't worth its locking.

use std::sync::{Arc, Mutex, OnceLock};

use gaplan_core::strips::StripsProblem;
use gaplan_core::SigBuilder;
use rustc_hash::FxHashMap;

use crate::metrics::Metrics;

/// Distinct (domain, problem) texts cached per process.
const CAPACITY: usize = 128;

type CacheMap = FxHashMap<u64, Result<Arc<StripsProblem>, String>>;

fn cache() -> &'static Mutex<CacheMap> {
    static CACHE: OnceLock<Mutex<CacheMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(FxHashMap::default()))
}

/// Stable signature of the raw source pair — the ground-cache key. Note
/// this is *textual*: two formattings of the same domain ground twice (and
/// then collide in the plan cache via the structural problem signature).
pub fn text_signature(domain: &str, problem: &str) -> u64 {
    let mut s = SigBuilder::new();
    s.tag("dsl-text-v1").str(domain).str(problem);
    s.finish()
}

/// Compile (or fetch) the grounded domain for a source pair. Counts a
/// ground-cache hit/miss on `metrics` when provided; probe-only callers
/// (the session thread computing cache keys) pass `None` so the same
/// request is not double-counted.
pub fn ground_cached(domain: &str, problem: &str, metrics: Option<&Metrics>) -> Result<Arc<StripsProblem>, String> {
    let key = text_signature(domain, problem);
    if let Some(cached) = cache().lock().unwrap().get(&key) {
        if let Some(m) = metrics {
            m.counters.ground_cache_hits.inc();
        }
        return cached.clone();
    }
    // Compile outside the lock: grounding can take milliseconds and other
    // (domain, problem) pairs shouldn't serialize behind it. A racing
    // duplicate insert is deterministic, so last-write-wins is harmless.
    let result = match gaplan_lang::compile(domain, problem) {
        Ok(c) => Ok(Arc::new(c.strips)),
        Err(e) => Err(e.summary()),
    };
    if let Some(m) = metrics {
        m.counters.ground_cache_misses.inc();
    }
    let mut map = cache().lock().unwrap();
    if map.len() >= CAPACITY {
        map.clear();
    }
    map.insert(key, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOM: &str = "domain d\ntype t\npred p(x: t)\naction go(x: t)\n  pre: p(x)\n  del: p(x)\n";
    const PROB: &str = "problem q domain d\nobjects a: t\ninit: p(a)\ngoal: p(a)\n";

    #[test]
    fn hit_counts_and_identity() {
        let m = Metrics::new();
        let first = ground_cached(DOM, PROB, Some(&m)).unwrap();
        let second = ground_cached(DOM, PROB, Some(&m)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second build must be served from the cache");
        let s = m.snapshot();
        assert_eq!(s.ground_cache_misses, 1);
        assert_eq!(s.ground_cache_hits, 1);
    }

    #[test]
    fn failures_are_cached() {
        let m = Metrics::new();
        let bad = "domain broken\n!";
        assert!(ground_cached(bad, PROB, Some(&m)).is_err());
        assert!(ground_cached(bad, PROB, Some(&m)).is_err());
        assert_eq!(m.snapshot().ground_cache_hits, 1);
    }

    #[test]
    fn uncounted_probe_leaves_metrics_alone() {
        let m = Metrics::new();
        let _ = ground_cached(DOM, "problem q2 domain d\nobjects b: t\ninit: p(b)\ngoal: p(b)\n", None);
        assert_eq!(m.snapshot().ground_cache_misses, 0);
    }
}
