//! The signoff workloads: repeated design-time passes, each followed by
//! a burst of its certified artifact predicting fabricated dies
//! in-process.

use crate::flow::{self, fabricate, Flow, PassOutput, Reference, Seeds};
use crate::report::{layer_metrics, Ops, Outcome, ServeLayer, Unit};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::tracer::Tracer;
use pathrep_core::predictor::MeasurementPredictor;
use pathrep_linalg::Matrix;
use std::time::{Duration, Instant};

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of an untraced run spent predicting dies with the pass's
/// artifact; the rest runs signoff passes.
const DIE_SHARE: f64 = 0.15;
/// Dies fabricated for the post-silicon phase, and dies per request.
const DIES: usize = 256;
pub const LOT: usize = 8;

/// Runs `f` at the library's default `pathrep-par` worker count (runs
/// otherwise use [`crate::BENCH_WORKERS`]); returns its result and that
/// count.
pub fn at_default_workers<R>(f: impl FnOnce() -> R) -> (R, usize) {
    pathrep_par::set_threads(0);
    let workers = pathrep_par::threads();
    let out = f();
    pathrep_par::set_threads(crate::BENCH_WORKERS);
    (out, workers)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Setup: the step-by-step front end checked against the library's
/// pipeline, and the reference rank. Repeated [`SETUP_REPS`] times.
fn setup(flow: Flow, seeds: Seeds, tr: &mut Tracer, ops: &mut Ops) -> (Reference, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut reference = Reference { rank: None };
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let checked = tr.span("setup", |tr| {
            let fe = flow::front_end(flow, seeds, tr)?;
            flow::check_front_end(flow, seeds, &fe)
        });
        times.push(secs(t0.elapsed()));
        if let Ok(r) = &checked {
            reference = *r;
        }
        ops.record("front end matches the pipeline", checked.map(|_| ()));
    }
    (reference, times)
}

/// What every pass of a run shares.
struct Runner<'a> {
    flow: Flow,
    seeds: Seeds,
    reference: Reference,
    artifact_path: &'a str,
    tr: &'a mut Tracer,
    ops: &'a mut Ops,
}

impl Runner<'_> {
    /// Runs passes until `budget` has elapsed (at least one), adding a
    /// traced unit per pass to `units` when given. Returns each pass's
    /// wall time and the last successful output.
    fn passes(
        &mut self,
        budget: Duration,
        mut units: Option<&mut Vec<Unit>>,
    ) -> (Vec<f64>, Option<PassOutput>) {
        let start = Instant::now();
        let mut times = Vec::new();
        let mut last = None;
        while times.is_empty() || start.elapsed() < budget {
            let t0 = Instant::now();
            let (out, breakdown, counters) = Unit::trace("pass", self.tr, |tr| {
                flow::pass(
                    self.flow,
                    self.seeds,
                    self.reference,
                    self.artifact_path,
                    tr,
                )
            });
            times.push(secs(t0.elapsed()));
            match out {
                Ok(out) => {
                    if let Some(units) = units.as_deref_mut() {
                        units.push(Unit {
                            breakdown,
                            counters,
                            facts: out.facts.clone(),
                        });
                    }
                    self.ops.record("signoff pass", Ok(()));
                    last = Some(out);
                }
                Err(e) => self.ops.record("signoff pass", Err(e)),
            }
        }
        (times, last)
    }
}

/// In-process post-silicon phase: lots of [`LOT`] fabricated dies through
/// the artifact's fused `predict_batch`, closed loop, each reply checked
/// bit for bit against per-die `predict`. It runs in short bursts, one
/// after each pass, so its figures sample the host over the whole run.
struct DiePhase {
    predictor: MeasurementPredictor,
    lots: Vec<Matrix>,
    expected: Vec<Vec<f64>>,
    next: usize,
    latencies: Vec<f64>,
    p50: Vec<f64>,
    rate: Vec<f64>,
}

impl DiePhase {
    fn new(out: &PassOutput, seeds: Seeds) -> Result<Self, String> {
        let dies = fabricate(&out.front_end.model, &out.artifact, DIES, seeds.dies)?;
        let width = out.artifact.predictor.measurement_count();
        let lots = dies
            .measured
            .chunks(LOT)
            .map(|rows| {
                Matrix::from_vec(rows.len(), width, rows.concat()).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(DiePhase {
            predictor: out.artifact.predictor.clone(),
            lots,
            expected: dies.expected,
            next: 0,
            latencies: Vec::new(),
            p50: Vec::new(),
            rate: Vec::new(),
        })
    }

    fn burst(&mut self, duration: Duration, ops: &mut Ops) {
        self.latencies.clear();
        let mut dies = 0;
        let start = Instant::now();
        while start.elapsed() < duration || self.latencies.is_empty() {
            let k = self.next;
            self.next = (k + 1) % self.lots.len();
            let t0 = Instant::now();
            let reply = self
                .predictor
                .predict_batch(std::hint::black_box(&self.lots[k]));
            self.latencies.push(secs(t0.elapsed()) * 1e3);
            let verdict = reply.map_err(|e| e.to_string()).and_then(|m| {
                dies += m.nrows();
                let exact = (0..m.nrows()).all(|q| {
                    let want = &self.expected[k * LOT + q];
                    m.row(q)
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                exact
                    .then_some(())
                    .ok_or_else(|| "batched prediction differs from predict".to_owned())
            });
            ops.record("die prediction", verdict);
        }
        self.rate.push(dies as f64 / secs(start.elapsed()));
        self.p50.push(quantile(&self.latencies, 0.50));
    }
}

pub fn run(flow: Flow, seed: u64, seconds: f64, traced: bool, dir: &str) -> Outcome {
    let seeds = Seeds::new(seed);
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut ops = Ops::default();
    let artifact_path = format!("{dir}/signoff-{}.artifact", std::process::id());
    pathrep_obs::set_enabled(false);
    let (reference, setup_times) = setup(flow, seeds, &mut tr, &mut ops);
    let budget = Duration::from_secs_f64(seconds);
    let mut notes = vec![format!("setup_s: median of {} setups", setup_times.len())];

    let mut runner = Runner {
        flow,
        seeds,
        reference,
        artifact_path: &artifact_path,
        tr: &mut tr,
        ops: &mut ops,
    };
    let metrics = if traced {
        let (untraced, _) = runner.passes(budget.mul_f64(0.4), None);
        pathrep_obs::set_enabled(true);
        let mut units = Vec::new();
        let (traced_times, _) = runner.passes(budget.mul_f64(0.4), Some(&mut units));
        pathrep_obs::set_enabled(false);
        let ((default_pass, _), workers) =
            at_default_workers(|| runner.passes(Duration::ZERO, None));
        let untraced_s = median(&untraced);
        notes.push(format!(
            "passes: {} untraced, {} traced, {} at {workers} workers",
            untraced.len(),
            traced_times.len(),
            default_pass.len()
        ));
        layer_metrics(
            &units,
            &ServeLayer::default(),
            workers,
            untraced_s / median(&default_pass),
            median(&traced_times) / untraced_s - 1.0,
        )
    } else {
        let start = Instant::now();
        let mut times = Vec::new();
        let mut dies: Option<DiePhase> = None;
        while times.is_empty() || start.elapsed() < budget {
            let (pass_times, last) = runner.passes(Duration::ZERO, None);
            times.extend(&pass_times);
            if dies.is_none() {
                if let Some(out) = &last {
                    dies = DiePhase::new(out, seeds)
                        .map_err(|e| runner.ops.record("fabricate dies", Err(e)))
                        .ok();
                }
            }
            if let Some(d) = dies.as_mut() {
                let share = DIE_SHARE / (1.0 - DIE_SHARE);
                d.burst(Duration::from_secs_f64(pass_times[0] * share), runner.ops);
            }
        }
        notes.push(format!("signoff_s: median of {} passes", times.len()));
        let (p50, rate) = dies.map_or((0.0, 0.0), |d| (median(&d.p50), median(&d.rate)));
        notes.push(format!(
            "die_*: medians over {} bursts (one after each pass) of in-process \
             requests of {LOT} dies, closed loop",
            times.len()
        ));
        vec![
            ("setup_s", median(&setup_times)),
            ("signoff_s", median(&times)),
            ("die_p50_ms", p50),
            ("dies_per_s", rate),
            ("peak_rss_mb", peak_rss_mb()),
            ("success_frac", ops.success_frac()),
        ]
    };
    let _ = std::fs::remove_file(&artifact_path);
    Outcome {
        ops,
        metrics,
        notes,
        tracer: tr,
    }
}
