//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//!            --root DIR --gaplan BIN --work-dir DIR [--capacity]`
//!
//! Runs one workload and prints, in order: the time ledger (traced runs),
//! a `record:` line stamping the result with rev, host, cores, toolchain,
//! profile, seed and the full workload config, and finally the one-line
//! JSON result. Exits 1 when any output was incorrect, 2 on bad usage or
//! when the run could not be carried out. Normally started through
//! `perfbench/run.py`, which builds everything first.
//!
//! With `--capacity`, an open-loop workload's job stream is instead driven
//! closed-loop until both workers saturate, and only the resulting
//! `capacity: N jobs/s` line is printed: the figure the open-loop rates are
//! derived from.

use std::path::{Path, PathBuf};
use std::process::{exit, Command};

use perfbench::bench::{self, Settings};
use perfbench::mix::Workload;
use perfbench::report::{self, num, obj};
use perfbench::stats::fnv1a;
use perfbench::steal;
use serde::json::{write_value, Value};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload paper_solve|serve_hot|serve_cold|serve_overload --seed N --seconds S \
         --trace 0|1 --root DIR --gaplan BIN --work-dir DIR [--capacity]"
    );
    exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> T {
    flag(args, name).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage(&format!("{name} is missing or invalid")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").and_then(Workload::parse).unwrap_or_else(|| usage("unknown --workload"));
    let trace: u8 = required(&args, "--trace");
    let seconds: u64 = required(&args, "--seconds");
    if trace > 1 || !(1..=60).contains(&seconds) {
        usage("--trace must be 0 or 1 and --seconds in 1..=60");
    }
    let settings = Settings {
        workload,
        seed: required(&args, "--seed"),
        seconds,
        trace: trace == 1,
        root: PathBuf::from(required::<String>(&args, "--root")),
        gaplan: PathBuf::from(required::<String>(&args, "--gaplan")),
        work_dir: PathBuf::from(required::<String>(&args, "--work-dir")),
    };
    if args.iter().any(|a| a == "--capacity") {
        if !matches!(workload, Workload::ServeCold | Workload::ServeOverload) {
            usage("--capacity needs an open-loop workload");
        }
        match bench::capacity(&settings) {
            Ok(rate) => println!("capacity: {rate:.1} jobs/s"),
            Err(e) => {
                eprintln!("perfbench: capacity run failed: {e}");
                exit(2);
            }
        }
        return;
    }
    let cpu_before = steal::cpu_ticks();
    let outcome = match bench::run(&settings) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", workload.name());
            exit(2);
        }
    };
    let steal_share = match (cpu_before, steal::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    if let Some(ledger) = &outcome.ledger {
        print!("{}", ledger.render(workload.name()));
    }
    for v in &outcome.violations {
        eprintln!("perfbench: CORRECTNESS: {v}");
    }
    let mut record = String::from("record: ");
    write_value(&mut record, &stamp(&settings, &outcome, steal_share));
    println!("{record}");
    let correct = outcome.violations.is_empty();
    println!(
        "{}",
        report::result_line(correct, outcome.attempted.max(1), outcome.failed, &outcome.metrics, settings.trace)
    );
    if !correct {
        exit(1);
    }
}

/// `{rev, host, cores, config, end_to_end, layers[]}` plus the toolchain,
/// build profile, seed and the host's CPU steal share during the run.
fn stamp(s: &Settings, o: &bench::Outcome, steal: Option<f64>) -> Value {
    let str_v = |v: String| Value::Str(v);
    let mut config: Vec<(&str, Value)> = vec![
        ("workload", str_v(s.workload.name().into())),
        ("seed", Value::Int(s.seed.into())),
        ("seconds", Value::Int(s.seconds.into())),
        ("traced", Value::Bool(s.trace)),
    ];
    config.extend(o.config.iter().map(|(k, v)| (*k, v.clone())));
    let (end_to_end, layers): (Vec<_>, Vec<_>) =
        o.metrics.iter().partition(|(n, _)| report::END_TO_END.iter().any(|(e, _)| e == n) || n.starts_with("bench."));
    let layer_rows = layers
        .into_iter()
        .map(|(n, v)| obj(vec![("name", str_v(n.into())), ("value", num(v)), ("unit", str_v(report::unit(n).into()))]))
        .collect();
    let mut e2e = report::Metrics::default();
    for (n, v) in end_to_end {
        e2e.set(n, v);
    }
    obj(vec![
        ("rev", str_v(rev(&s.root))),
        ("host", str_v(host())),
        ("cores", Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128)),
        ("host_steal_share", steal.map_or(Value::Null, num)),
        ("rustc", str_v(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()))),
        ("profile", str_v(if cfg!(debug_assertions) { "debug" } else { "release (lto=thin, codegen-units=1)" }.into())),
        ("config", obj(config)),
        ("end_to_end", report::all_metrics(&e2e)),
        ("layers", Value::Arr(layer_rows)),
        ("plans_hash", str_v(format!("{:#018x}", o.plans_hash))),
        ("correct", Value::Bool(o.violations.is_empty())),
        ("violations", Value::Arr(o.violations.iter().cloned().map(Value::Str).collect())),
    ])
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The git revision when the checkout is a repository; otherwise a hash
/// of the program's sources, so equal code still stamps equal.
fn rev(root: &Path) -> String {
    if let Some(r) = command_line("git", &["-C", &root.display().to_string(), "rev-parse", "HEAD"]) {
        return r;
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.strip_prefix(root).unwrap_or(&f).to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    format!("src-{:016x}", fnv1a(&bytes))
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}
