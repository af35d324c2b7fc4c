//! Modes that run the benchmark as child processes (one process per run,
//! so every run pays its own setup and has its own peak memory): the
//! self-test and the steadiness report used to set the bounds.

use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::{DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use pathrep_obs::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

/// Measuring time of each self-test run.
const SELF_TEST_SECONDS: &str = "5";

/// A parsed result line.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(workload: &str, seed: u64, seconds: &str, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = parse(last)?;
    let flag = |name: &str| matches!(doc.field(name), Ok(JsonValue::Bool(true)));
    let metrics = match doc.field("metrics")? {
        JsonValue::Object(fields) => fields
            .iter()
            .map(|(name, m)| {
                Ok((
                    name.clone(),
                    m.field("value")?.number()?,
                    m.field("unit")?.string()?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("metrics is not an object".into()),
    };
    Ok(RunResult {
        correct: flag("correct"),
        attempted: doc.field("attempted")?.number()?,
        failed: doc.field("failed")?.number()?,
        metrics,
    })
}

/// `(name, unit, bound, lower_is_better)` of each end-to-end metric in
/// `BENCHMARK.json`, when the file is present.
fn declared_bounds() -> Option<Vec<(String, String, f64, bool)>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let doc = parse(&text).ok()?;
    doc.field("end_to_end")
        .ok()?
        .array()
        .ok()?
        .iter()
        .map(|m| {
            Some((
                m.field("name").ok()?.string().ok()?,
                m.field("unit").ok()?.string().ok()?,
                m.field("bound").ok()?.number().ok()?,
                m.field("better").ok()?.string().ok()? == "lower",
            ))
        })
        .collect()
}

fn declared_names(list: &str) -> Option<Vec<(String, String)>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let doc = parse(&text).ok()?;
    doc.field(list)
        .ok()?
        .array()
        .ok()?
        .iter()
        .map(|m| {
            Some((
                m.field("name").ok()?.string().ok()?,
                m.field("unit").ok()?.string().ok()?,
            ))
        })
        .collect()
}

fn check_run(r: &RunResult, trace: bool) -> Result<(), String> {
    if !r.correct || r.failed != 0.0 || r.attempted < 1.0 {
        return Err(format!(
            "correct={} attempted={} failed={}",
            r.correct, r.attempted, r.failed
        ));
    }
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|m| m.0).collect();
    if names != want {
        return Err(format!("metrics {names:?}, expected {want:?}"));
    }
    for (name, value, _) in &r.metrics {
        if !value.is_finite() || (!trace && *value <= 0.0) {
            return Err(format!("{name} = {value}"));
        }
    }
    Ok(())
}

/// Both frozen seeds prepare every workload, traced and untraced, and
/// pass every check; `BENCHMARK.json` (when present) names exactly the
/// metrics the program prints.
pub fn self_test() -> Result<(), String> {
    let mut failures = 0;
    for (list, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        if let Some(declared) = declared_names(list) {
            let ours: Vec<(String, String)> = metrics
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            if declared != ours {
                println!("FAIL BENCHMARK.json {list} differs from the metrics printed");
                failures += 1;
            }
        }
    }
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let verdict = run_child(workload, seed, SELF_TEST_SECONDS, trace)
                    .and_then(|r| check_run(&r, trace));
                let label = format!("{workload} seed {seed} trace {}", u8::from(trace));
                match verdict {
                    Ok(()) => println!("PASS {label}"),
                    Err(e) => {
                        println!("FAIL {label}: {e}");
                        failures += 1;
                    }
                }
            }
        }
    }
    if failures > 0 {
        return Err(format!("self-test: {failures} failure(s)"));
    }
    println!("self-test passed");
    Ok(())
}

/// Runs each workload `runs` times (seeds `seed..seed+runs`) in each of
/// `sets` sets and prints every metric's median, quartiles, min and max,
/// the quartile spread as a share of the median against the metric's
/// bound, and how far each later set's median moved from the first.
pub fn steadiness(
    runs: usize,
    sets: usize,
    workload: Option<&str>,
    seconds: f64,
    seed: u64,
    trace: bool,
) -> Result<(), String> {
    let workloads: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let bounds = declared_bounds().unwrap_or_default();
    let seconds = seconds.to_string();
    let mut failed_runs = 0;
    for w in &workloads {
        // metric -> per-set values
        let mut values: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
        for set in 0..sets {
            for i in 0..runs {
                let s = seed.wrapping_add(i as u64);
                match run_child(w, s, &seconds, trace) {
                    Ok(r) => {
                        if let Err(e) = check_run(&r, trace) {
                            println!("# {w} set {set} seed {s}: {e}");
                            failed_runs += 1;
                        }
                        for (name, value, _) in r.metrics {
                            let per_set =
                                values.entry(name).or_insert_with(|| vec![Vec::new(); sets]);
                            per_set[set].push(value);
                        }
                    }
                    Err(e) => {
                        println!("# {w} set {set} seed {s}: run failed: {e}");
                        failed_runs += 1;
                    }
                }
            }
        }
        println!(
            "{w}: {runs} runs x {sets} set(s), seeds {seed}..{}, {seconds} s each",
            seed.wrapping_add(runs as u64)
        );
        println!(
            "  {:<28} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>6} {:>8}",
            "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound", "moved"
        );
        for (name, per_set) in &values {
            let bound = bounds.iter().find(|b| &b.0 == name);
            let first = median(&per_set[0]);
            for (set, v) in per_set.iter().enumerate() {
                if v.is_empty() {
                    continue;
                }
                let (q1, q3) = quartiles(v);
                let med = median(v);
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let spread = if med != 0.0 {
                    (q3 - q1) / med.abs()
                } else {
                    0.0
                };
                // Worsening of this set's median against the first set's,
                // as a share of the first (negative = better).
                let moved = match bound {
                    Some(b) if first != 0.0 => {
                        let d = (med - first) / first.abs();
                        if b.3 {
                            d
                        } else {
                            -d
                        }
                    }
                    _ => 0.0,
                };
                println!(
                    "  {name:<28} {set:>3} {med:>12.5} {q1:>12.5} {q3:>12.5} {lo:>12.5} {hi:>12.5} {spread:>8.4} {:>6} {moved:>8.4}",
                    bound.map_or("-".to_owned(), |b| format!("{:.2}", b.2)),
                );
            }
        }
    }
    if failed_runs > 0 {
        return Err(format!(
            "{failed_runs} run(s) failed or did not pass their checks"
        ));
    }
    Ok(())
}
