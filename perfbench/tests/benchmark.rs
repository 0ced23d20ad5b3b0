//! Tests of the benchmark itself: its inputs, its statistics and its
//! contract with `BENCHMARK.json`.

use std::path::PathBuf;

use perfbench::ga_trace::GaTally;
use perfbench::mix::{self, Corpus, Workload};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stats::{full_windows, interquartile_mean, median, percentile, window_percentile, window_rate};
use perfbench::steal::{quiet_windows, window_shares, Sample};
use serde::json::Value;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repository").to_path_buf()
}

fn stream(workload: Workload, seed: u64, n: u64, corpus: &Corpus) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..n {
        bytes.extend_from_slice(mix::job(workload, seed, i, corpus).line.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn same_seed_yields_a_byte_identical_request_stream() {
    let corpus = Corpus::load(&root()).expect("shipped DSL pairs load");
    for w in [Workload::ServeHot, Workload::ServeCold, Workload::ServeOverload] {
        let a = stream(w, 42, 2000, &corpus);
        assert_eq!(a, stream(w, 42, 2000, &corpus), "{}", w.name());
        assert_ne!(a, stream(w, 43, 2000, &corpus), "{}: the seed must matter", w.name());
    }
}

#[test]
fn every_generated_request_parses_and_ids_are_unique() {
    let corpus = Corpus::load(&root()).expect("shipped DSL pairs load");
    for w in [Workload::ServeHot, Workload::ServeCold] {
        let mut ids = std::collections::HashSet::new();
        for i in 0..500 {
            let job = mix::job(w, 7, i, &corpus);
            assert!(gaplan_service::parse_command(&job.line).is_ok(), "{}", job.line);
            assert!(ids.insert(job.id));
        }
    }
    let line = mix::job(Workload::ServeHot, 7, 3, &corpus).line;
    let moved = mix::with_id(&line, 99);
    assert!(moved.starts_with("{\"cmd\":\"plan\",\"id\":99,\"problem\""), "{moved}");
    assert_eq!(moved.len(), line.len() - 1 + 2);
}

#[test]
fn hot_stream_names_every_key_then_skews_to_the_hot_key() {
    let corpus = Corpus::load(&root()).expect("shipped DSL pairs load");
    let keys: Vec<u64> = (0..20_000).map(|i| mix::job(Workload::ServeHot, 5, i, &corpus).key).collect();
    assert_eq!(keys[..mix::HOT_KEYS as usize], (0..mix::HOT_KEYS).collect::<Vec<_>>()[..]);
    let hot = keys.iter().filter(|&&k| k == 0).count() as f64 / keys.len() as f64;
    assert!((hot - mix::HOT_SKEW).abs() < 0.02, "hot share {hot}");
}

#[test]
fn percentile_is_exact_on_a_known_sample() {
    // 1..=100 shuffled: the nearest-rank q-quantile of 1..=n is ceil(q*n).
    let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
    samples.reverse();
    samples.swap(3, 71);
    assert_eq!(percentile(&samples, 0.5), Some(50.0));
    assert_eq!(percentile(&samples, 0.9), Some(90.0));
    assert_eq!(percentile(&samples, 0.99), Some(99.0));
    assert_eq!(percentile(&samples, 0.991), Some(100.0));
    assert_eq!(percentile(&samples, 1.0), Some(100.0));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(percentile(&[2.5, 0.5, 9.0], 0.5), Some(2.5));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn windowed_statistics_use_full_windows_only() {
    // Windows [0,1) [1,2) [2,3) hold 4, 1 and 3 events; the partial
    // window [3,3.5] is left out.
    let at = [0.1, 0.2, 0.5, 0.9, 1.5, 2.0, 2.1, 2.2, 3.0, 3.5];
    assert_eq!(window_rate(&full_windows(&at, 1.0), 1.0), Some(8.0 / 3.0));
    // Half-second windows hold 2, 2, 0, 1, 3, 0 and 1 events; the middle
    // five average 1.2 events, 2.4 a second.
    assert_eq!(window_rate(&full_windows(&at, 0.5), 0.5), Some(2.4));
    assert_eq!(window_rate(&full_windows(&[0.2, 0.4], 1.0), 1.0), None);
    // Per-window maxima 40, 5 and 8 (the 90 falls in the partial window).
    let values = [10.0, 40.0, 30.0, 20.0, 5.0, 8.0, 6.0, 7.0, 90.0, 1.0];
    assert_eq!(window_percentile(&full_windows(&at, 1.0), &values, 1.0), Some(53.0 / 3.0));
    // Per-window medians 20, 5 and 7.
    assert_eq!(window_percentile(&full_windows(&at, 1.0), &values, 0.5), Some(32.0 / 3.0));
}

#[test]
fn interquartile_mean_averages_the_middle_half() {
    // Eight samples: the two lowest and the two highest are dropped.
    assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), Some(3.5));
    // Fewer than four samples: nothing is dropped.
    assert_eq!(interquartile_mean(&[1.0, 2.0, 30.0]), Some(11.0));
    assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
    assert_eq!(interquartile_mean(&[]), None);
}

#[test]
fn steal_shares_are_taken_per_window_from_the_samples_around_it() {
    let t0 = std::time::Instant::now();
    let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
    let samples: Vec<Sample> = [(0, 0, 0), (500, 1, 100), (1000, 2, 200), (1500, 12, 300), (2000, 22, 400)]
        .into_iter()
        .map(|(ms, steal, total)| Sample { at: at(ms), steal, total })
        .collect();
    // The third window ends after the last sample.
    assert_eq!(window_shares(&samples, t0, 1.0, 3), vec![Some(0.01), Some(0.1), None]);
}

#[test]
fn quiet_windows_leave_out_the_ones_the_host_took_cpu_from() {
    // Every window quiet: all are kept.
    assert_eq!(quiet_windows(&[Some(0.0), Some(0.005), Some(0.01)]), vec![0, 1, 2]);
    // Three of five quiet: those three.
    assert_eq!(quiet_windows(&[Some(0.0), Some(0.3), Some(0.01), Some(0.02), Some(0.0)]), vec![0, 2, 4]);
    // Two of five quiet: the three with the least steal, ties to the earlier.
    assert_eq!(quiet_windows(&[Some(0.2), Some(0.0), Some(0.05), Some(0.05), Some(0.005)]), vec![1, 2, 4]);
    // A share unknown: all are kept.
    assert_eq!(quiet_windows(&[Some(0.5), None]), vec![0, 1]);
}

#[test]
fn benchmark_json_names_the_metrics_the_benchmark_prints() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    let doc = serde::json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default().to_string();
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    let own = |t: &[(&str, &str)]| t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = match doc.get("workloads") {
        Some(Value::Arr(items)) => {
            items.iter().map(|w| w.get("name").and_then(Value::as_str).unwrap_or_default().to_string()).collect()
        }
        _ => panic!("BENCHMARK.json has no workloads"),
    };
    let ungated = [Workload::PaperSolve, Workload::ServeCold];
    let gated: Vec<String> =
        Workload::ALL.iter().filter(|w| !ungated.contains(w)).map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, gated);
}

#[test]
fn ga_tally_reads_the_server_trace_format() {
    let mut t = GaTally::default();
    for line in [
        r#"{"ev":"span_enter","span":"ga.phase"}"#,
        r#"{"ev":"ga.gen","phase":0,"gen":0,"best_total":0.5,"eval_wall_ns":700}"#,
        r#"{"ev":"ga.xover","phase":0,"gen":0,"children":40,"fallback":4,"unchanged":1,"skipped":0}"#,
        r#"{"ev":"ga.cache","phase":0,"hits":9,"misses":3,"evictions":2,"capacity":64}"#,
        r#"{"ev":"span_exit","span":"ga.phase","wall_ns":1000}"#,
        r#"{"ev":"svc.reply","id":1,"status":"Done"}"#,
        r#"{"ev":"span_exit","span":"svc.request","wall_ns":5000}"#,
        r#"{"ev":"span_exit","span":"svc.request","wall_ns":2500}"#,
        r#"{"ev":"ga.gen","phase":0,"ge"#,
    ] {
        t.absorb_line(line);
    }
    assert_eq!((t.gens, t.eval_ns, t.phase_ns, t.breed_ns()), (1, 700, 1000, 300));
    assert_eq!((t.children, t.fallback), (40, 4));
    assert_eq!((t.cache_hits, t.cache_misses, t.cache_evictions), (9, 3, 2));
    assert_eq!((t.requests, t.request_ns), (2, 7500));
}
