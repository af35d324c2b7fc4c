//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test
//! perfbench --steadiness RUNS [--sets K] [--workload <name>] [--seconds S] [--seed N] [--trace 0|1]
//! ```
//!
//! A run prints its metrics one per line, then the host record, then the
//! result line (the last line of standard output). See README.md.

mod floor;
mod flow;
mod quiet;
mod report;
mod signoff;
mod stats;
mod tools;
mod tracer;

use flow::Flow;
use report::{result_line, write_trace_files, Outcome};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;
/// Held-out seed: claims must also hold on a seed no change was written
/// against. `--self-test` runs both.
pub const HELD_OUT_SEED: u64 = 7;
/// Default measuring time of one run (the value `BENCHMARK.json` passes).
pub const DEFAULT_SECONDS: f64 = 30.0;
/// Shortest run: test_floor needs a whole 0.5 s window in each of its
/// open- and closed-loop rounds.
const MIN_SECONDS: f64 = 5.0;
/// `pathrep-par` workers every run uses. On a 2-vCPU host two workers
/// draw hypervisor steal that scatters a pass's time by tens of percent
/// run to run (see README.md); the traced run's `par.speedup` measures
/// the library's default worker count against this.
pub const BENCH_WORKERS: usize = 1;
/// Where runs write traces, per-layer files and scratch artifacts,
/// relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

pub const WORKLOADS: &[&str] = &["signoff_dense", "signoff_sparse", "test_floor"];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Mode {
    Run(RunArgs),
    SelfTest,
    Steadiness {
        runs: usize,
        sets: usize,
        workload: Option<String>,
        seconds: f64,
        seed: u64,
        trace: bool,
    },
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut self_test = false;
    let mut steadiness = None;
    let mut sets = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?;
                if !(MIN_SECONDS..=3600.0).contains(&seconds) {
                    return Err(format!(
                        "--seconds must be in [{MIN_SECONDS}, 3600], got {value}"
                    ));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--steadiness" => steadiness = Some(value.parse().map_err(bad)?),
            "--sets" => sets = value.parse().map_err(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w} (expected one of {WORKLOADS:?})"
            ));
        }
    }
    if self_test {
        return Ok(Mode::SelfTest);
    }
    if let Some(runs) = steadiness {
        return Ok(Mode::Steadiness {
            runs,
            sets,
            workload,
            seconds,
            seed,
            trace,
        });
    }
    Ok(Mode::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn run(args: &RunArgs) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    pathrep_par::set_threads(BENCH_WORKERS);
    let outcome: Outcome = match args.workload.as_str() {
        "signoff_dense" => signoff::run(Flow::Dense, args.seed, args.seconds, args.trace, OUT_DIR),
        "signoff_sparse" => {
            signoff::run(Flow::Sparse, args.seed, args.seconds, args.trace, OUT_DIR)
        }
        "test_floor" => floor::run(args.seed, args.seconds, args.trace, OUT_DIR),
        other => return Err(format!("unknown workload {other}")),
    };
    let units = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for &(name, unit) in units {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1);
        println!("{name:<30} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    let env = stats::environment(args.seed, &args.workload);
    println!("# env {}", env.render());
    if args.trace {
        let stem = format!("{}-seed{}", args.workload, args.seed);
        match write_trace_files(OUT_DIR, &stem, &outcome, &env) {
            Ok((trace, layers)) => println!("# trace {trace}\n# layers {layers}"),
            Err(e) => return Err(format!("cannot write trace files: {e}")),
        }
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|mode| match mode {
        Mode::Run(a) => run(&a),
        Mode::SelfTest => tools::self_test(),
        Mode::Steadiness {
            runs,
            sets,
            workload,
            seconds,
            seed,
            trace,
        } => tools::steadiness(runs, sets, workload.as_deref(), seconds, seed, trace),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
