//! Metric names, operation accounting, the per-layer aggregation and the
//! result line.

use crate::flow::Facts;
use crate::stats::median;
use crate::tracer::{Breakdown, Tracer};
use pathrep_obs::json::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("signoff_s", "s"),
    ("die_p50_ms", "ms"),
    ("dies_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("success_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.generate_ms", "ms"),
    ("circuit.segments_ms", "ms"),
    ("circuit.gates", "count"),
    ("ssta.yield_mc_ms", "ms"),
    ("ssta.extract_ms", "ms"),
    ("ssta.sparse_model_ms", "ms"),
    ("ssta.paths", "count"),
    ("ssta.a_nnz", "count"),
    ("variation.delay_model_ms", "ms"),
    ("variation.vars", "count"),
    ("linalg.svd_calls", "count"),
    ("linalg.svd_flops", "flop"),
    ("linalg.qr_flops", "flop"),
    ("linalg.sketch_calls", "count"),
    ("linalg.spmv_flops", "flop"),
    ("core.exact_ms", "ms"),
    ("core.approx_ms", "ms"),
    ("core.approx_evals", "count"),
    ("core.sketch_attempts", "count"),
    ("core.uncertified_selections", "count"),
    ("core.paths_selected", "count"),
    ("core.eps_claimed", "frac"),
    ("core.eps_certified", "frac"),
    ("convopt.hybrid_ms", "ms"),
    ("convopt.admm_iters", "count"),
    ("convopt.measurements", "count"),
    ("eval.mc_ms", "ms"),
    ("eval.mc_samples", "count"),
    ("eval.mc_max_err", "frac"),
    ("par.workers", "count"),
    ("par.speedup", "x"),
    ("serve.artifact_save_ms", "ms"),
    ("serve.artifact_load_ms", "ms"),
    ("serve.load_model_ms", "ms"),
    ("serve.rtt_binary_p50_us", "us"),
    ("serve.rtt_json_p50_us", "us"),
    ("serve.rows_per_batch", "rows"),
    ("serve.queue_high_water", "count"),
    ("serve.errors", "count"),
    ("serve.shards", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.die_p90_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.pass_ms", "ms"),
];

/// Operations attempted and failed. A failed check fails its operation;
/// the run goes on.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Failures printed to stderr per process, so a broken build cannot
/// flood the log.
const MAX_SHOWN_FAILURES: u64 = 20;

impl Ops {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= MAX_SHOWN_FAILURES {
                eprintln!("perfbench: check failed: {what}: {e}");
            }
        }
    }

    /// `1 − failed / attempted`.
    pub fn success_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn merge(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One traced unit of work (a signoff pass, or test_floor's artifact
/// build in setup): its span breakdown, the `pathrep-obs` counters it
/// moved and its facts.
pub struct Unit {
    pub breakdown: Breakdown,
    pub counters: BTreeMap<String, u64>,
    pub facts: Facts,
}

impl Unit {
    /// Runs `work` inside a root span `name` and collects its span
    /// breakdown; when `pathrep-obs` is on, also the counters it moved
    /// (from a freshly reset registry).
    pub fn trace<R>(
        name: &'static str,
        tr: &mut Tracer,
        work: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Breakdown, BTreeMap<String, u64>) {
        let traced = pathrep_obs::enabled();
        if traced {
            pathrep_obs::reset();
        }
        let out = tr.span(name, work);
        let root = tr
            .last_index(name)
            .expect("the root span was just recorded");
        let counters = if traced {
            let snap = pathrep_obs::registry().snapshot();
            snap.counters
                .iter()
                .map(|c| (c.name.clone(), c.value))
                .collect()
        } else {
            BTreeMap::new()
        };
        (out, tr.breakdown(root), counters)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Serving-layer figures (zero on the signoff workloads, which start no
/// daemon).
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    pub rtt_binary_p50_us: f64,
    pub rtt_json_p50_us: f64,
    pub rows_per_batch: f64,
    pub queue_high_water: f64,
    pub errors: f64,
    pub shards: f64,
    pub lag_p99_ms: f64,
    pub die_p90_ms: f64,
}

/// Builds every [`PER_LAYER`] metric: span times and counters are medians
/// over the traced units.
pub fn layer_metrics(
    units: &[Unit],
    serve: &ServeLayer,
    par_workers: usize,
    par_speedup: f64,
    trace_overhead: f64,
) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let span = |name: &'static str| med(&|u: &Unit| u.breakdown.ms(name));
    let counter = |name: &'static str| med(&|u: &Unit| u.counter(name));
    let values: Vec<(&'static str, f64)> = vec![
        ("circuit.generate_ms", span("circuit.generate")),
        ("circuit.segments_ms", span("circuit.segments")),
        ("circuit.gates", med(&|u| u.facts.gates)),
        ("ssta.yield_mc_ms", span("ssta.yield_mc")),
        ("ssta.extract_ms", span("ssta.extract")),
        ("ssta.sparse_model_ms", span("ssta.sparse_model")),
        ("ssta.paths", med(&|u| u.facts.paths)),
        ("ssta.a_nnz", med(&|u| u.facts.a_nnz)),
        ("variation.delay_model_ms", span("variation.delay_model")),
        ("variation.vars", med(&|u| u.facts.vars)),
        ("linalg.svd_calls", counter("linalg.svd.calls")),
        ("linalg.svd_flops", counter("work.svd.flops")),
        ("linalg.qr_flops", counter("work.qr_factor.flops")),
        ("linalg.sketch_calls", counter("linalg.sketch.calls")),
        (
            "linalg.spmv_flops",
            med(&|u| u.counter("work.spmv.flops") + u.counter("work.spmm.flops")),
        ),
        ("core.exact_ms", span("core.exact")),
        ("core.approx_ms", span("core.approx")),
        (
            "core.approx_evals",
            med(&|u| u.counter("core.approx.evaluations") + u.counter("core.sketch.evaluations")),
        ),
        ("core.sketch_attempts", med(&|u| u.facts.sketch_attempts)),
        ("core.uncertified_selections", med(&|u| u.facts.uncertified)),
        ("core.paths_selected", med(&|u| u.facts.paths_selected)),
        ("core.eps_claimed", med(&|u| u.facts.eps_claimed)),
        ("core.eps_certified", med(&|u| u.facts.eps_certified)),
        ("convopt.hybrid_ms", span("convopt.hybrid")),
        ("convopt.admm_iters", counter("convopt.admm.iterations")),
        ("convopt.measurements", med(&|u| u.facts.measurements)),
        ("eval.mc_ms", span("eval.mc")),
        ("eval.mc_samples", counter("eval.mc.samples")),
        ("eval.mc_max_err", med(&|u| u.facts.mc_max_err)),
        ("par.workers", par_workers as f64),
        ("par.speedup", par_speedup),
        ("serve.artifact_save_ms", span("serve.artifact_save")),
        ("serve.artifact_load_ms", span("serve.artifact_load")),
        ("serve.load_model_ms", span("serve.load_model")),
        ("serve.rtt_binary_p50_us", serve.rtt_binary_p50_us),
        ("serve.rtt_json_p50_us", serve.rtt_json_p50_us),
        ("serve.rows_per_batch", serve.rows_per_batch),
        ("serve.queue_high_water", serve.queue_high_water),
        ("serve.errors", serve.errors),
        ("serve.shards", serve.shards),
        ("obs.trace_overhead_frac", trace_overhead),
        ("loadgen.lag_p99_ms", serve.lag_p99_ms),
        ("loadgen.die_p90_ms", serve.die_p90_ms),
        (
            "bench.unattributed_ms",
            med(&|u| u.breakdown.unattributed_ms),
        ),
        ("bench.pass_ms", med(&|u| u.breakdown.wall_ms)),
    ];
    debug_assert!(values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|m| m.0)));
    values
}

/// What one run of a workload produced.
pub struct Outcome {
    pub ops: Ops,
    /// `(name, value)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and other context, printed before the result line.
    pub notes: Vec<String>,
    /// The run's spans (written out by traced runs).
    pub tracer: Tracer,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

fn metrics_json(metrics: &[(&'static str, f64)]) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|&(name, value)| {
                (
                    name.to_owned(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Number(value)),
                        ("unit".into(), JsonValue::String(unit_of(name).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: the last line of standard output.
pub fn result_line(outcome: &Outcome) -> String {
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(outcome.ops.failed == 0)),
        (
            "attempted".into(),
            JsonValue::Number(outcome.ops.attempted as f64),
        ),
        (
            "failed".into(),
            JsonValue::Number(outcome.ops.failed as f64),
        ),
        ("metrics".into(), metrics_json(&outcome.metrics)),
    ])
    .render()
}

/// Writes the traced run's files: the spans as Chrome trace JSON and the
/// per-layer numbers with the host record.
pub fn write_trace_files(
    dir: &str,
    stem: &str,
    outcome: &Outcome,
    env: &JsonValue,
) -> std::io::Result<(String, String)> {
    let trace_path = format!("{dir}/{stem}.trace.json");
    let layers_path = format!("{dir}/{stem}.layers.json");
    std::fs::write(&trace_path, outcome.tracer.chrome_trace())?;
    let doc = JsonValue::Object(vec![
        ("env".into(), env.clone()),
        ("correct".into(), JsonValue::Bool(outcome.ops.failed == 0)),
        (
            "attempted".into(),
            JsonValue::Number(outcome.ops.attempted as f64),
        ),
        (
            "failed".into(),
            JsonValue::Number(outcome.ops.failed as f64),
        ),
        ("metrics".into(), metrics_json(&outcome.metrics)),
        (
            "notes".into(),
            JsonValue::Array(
                outcome
                    .notes
                    .iter()
                    .map(|n| JsonValue::String(n.clone()))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&layers_path, doc.render())?;
    Ok((trace_path, layers_path))
}
