//! The design-time half of the paper's flow, built step by step from the
//! layers' public functions so that every call can carry its own span:
//! netlist spec → circuit → yield MC → path extraction → segments →
//! `A = G·Σ` → selection → certified predictor → artifact on disk.

use crate::tracer::Tracer;
use pathrep_circuit::generator::{CircuitGenerator, PlacedCircuit};
use pathrep_circuit::paths::{decompose_into_segments, Path};
use pathrep_core::approx::{approx_select, ApproxConfig, ApproxSelection};
use pathrep_core::exact::{exact_select, ExactSelection, RANK_TOL};
use pathrep_core::hybrid::{hybrid_select, HybridConfig, HybridInputs};
use pathrep_core::predictor::{MeasurementPredictor, DEFAULT_KAPPA};
use pathrep_core::sketch::{sketch_approx_select, SketchApproxConfig};
use pathrep_eval::metrics::{evaluate, McConfig, MeasurementPlan};
use pathrep_eval::pipeline::{prepare, prepare_sparse, PipelineConfig, SparsePipelineConfig};
use pathrep_eval::suite::{BenchmarkSpec, Suite};
use pathrep_serve::{ModelArtifact, SelectionMeta};
use pathrep_ssta::extract::{CriticalPathExtractor, ExtractConfig};
use pathrep_ssta::yield_est::{monte_carlo_circuit_yield, nominal_circuit_delay};
use pathrep_ssta::SparseDelayModel;
use pathrep_variation::sensitivity::DelayModel;

/// Algorithm 1 tolerance ε (fraction of `T_cons`).
pub const EPSILON: f64 = 0.05;
/// Algorithm 3 tolerances ε and ε′ (the Table-2 setting).
pub const HYBRID_EPSILON: f64 = 0.08;
pub const HYBRID_EPSILON_PRIME: f64 = 0.06;
/// Theorem 1 makes the exact predictor's error zero; rounding leaves
/// less than this (as a fraction of `T_cons`).
pub const EXACT_EPS_TOL: f64 = 1e-6;
/// Monte-Carlo samples for the validation of the approx predictor.
pub const MC_SAMPLES: usize = 2_000;
/// k-best target paths of the sparse instance.
pub const K_PATHS: usize = 800;

/// Which design-time flow a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// s1423-class instance, dense `A`, exact + approx + hybrid selection.
    Dense,
    /// 120k-gate instance, CSR `A`, sketched Algorithm 1.
    Sparse,
}

/// Everything the benchmark's `--seed` feeds: the yield-MC, MC-validation
/// and die-fabrication seeds. The netlists stay the suite's own instances,
/// so every seed does the same amount of work (see README.md). The
/// program sees only the inputs these produce.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub yield_mc: u64,
    pub mc_validate: u64,
    pub dies: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        Seeds {
            yield_mc: PipelineConfig::default().seed.wrapping_add(seed),
            mc_validate: McConfig::default().seed.wrapping_add(seed),
            dies: 0x0D1E_5EED_u64.wrapping_add(seed),
        }
    }
}

pub fn dense_spec() -> BenchmarkSpec {
    Suite::by_name("s1423").expect("s1423 is in the suite")
}

/// The Table-2 regime: tightened constraint and scaled random variation,
/// where segment measurement (Algorithm 3) pays off.
pub fn dense_config(seeds: Seeds) -> PipelineConfig {
    PipelineConfig {
        t_cons_factor: 0.98,
        max_paths: 400,
        random_scale: 3.0,
        seed: seeds.yield_mc,
        ..PipelineConfig::default()
    }
}

pub fn sparse_spec() -> BenchmarkSpec {
    Suite::large()
}

pub fn sparse_config() -> SparsePipelineConfig {
    SparsePipelineConfig {
        t_cons_factor: 1.0,
        k_paths: K_PATHS,
    }
}

/// The delay model of either front end.
pub enum Model {
    Dense(DelayModel),
    Sparse(SparseDelayModel),
}

impl Model {
    pub fn variable_count(&self) -> usize {
        match self {
            Model::Dense(dm) => dm.variable_count(),
            Model::Sparse(dm) => dm.variable_count(),
        }
    }

    /// Path delays of one fabricated die, `d = µ + A·x`.
    pub fn path_delays(&self, x: &[f64]) -> Result<Vec<f64>, String> {
        match self {
            Model::Dense(dm) => dm.path_delays(x),
            Model::Sparse(dm) => dm.path_delays(x),
        }
        .map_err(|e| e.to_string())
    }

    fn nnz(&self) -> usize {
        match self {
            Model::Dense(dm) => dm.a().as_slice().iter().filter(|v| **v != 0.0).count(),
            Model::Sparse(dm) => dm.a().nnz(),
        }
    }
}

/// One front end's output.
pub struct FrontEnd {
    pub gates: usize,
    pub t_cons: f64,
    pub paths: Vec<Path>,
    pub model: Model,
}

fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn generate(spec: &BenchmarkSpec, tr: &mut Tracer) -> Result<PlacedCircuit, String> {
    tr.span("circuit.generate", |_| {
        CircuitGenerator::new(spec.generator_config()).generate()
    })
    .map_err(s)
}

/// The dense front end, call for call what `pipeline::prepare` does.
pub fn dense_front_end(seeds: Seeds, tr: &mut Tracer) -> Result<FrontEnd, String> {
    let spec = dense_spec();
    let cfg = dense_config(seeds);
    let circuit = generate(&spec, tr)?;
    let model = spec.variation_model().with_random_scale(cfg.random_scale);
    let t_cons = tr.span("ssta.nominal", |_| nominal_circuit_delay(&circuit)) * cfg.t_cons_factor;
    let circuit_yield = tr.span("ssta.yield_mc", |_| {
        monte_carlo_circuit_yield(&circuit, &model, t_cons, cfg.yield_samples, cfg.seed)
    });
    let threshold = (cfg.yield_loss_fraction * (1.0 - circuit_yield)).max(1e-9);
    let extract_cfg = ExtractConfig::new(t_cons, threshold).with_max_paths(cfg.max_paths);
    let paths: Vec<Path> = tr.span("ssta.extract", |_| {
        CriticalPathExtractor::new(&circuit, &model, extract_cfg)
            .extract()
            .into_iter()
            .map(|e| e.path)
            .collect()
    });
    if paths.is_empty() {
        return Err(format!("no critical path at t_cons {t_cons:.1} ps"));
    }
    let dec = tr
        .span("circuit.segments", |_| decompose_into_segments(&paths))
        .map_err(s)?;
    let dm = tr
        .span("variation.delay_model", |_| {
            DelayModel::build(&circuit, &paths, &dec, &model)
        })
        .map_err(s)?;
    Ok(FrontEnd {
        gates: circuit.netlist().gate_count(),
        t_cons,
        paths,
        model: Model::Dense(dm),
    })
}

/// The sparse front end, call for call what `pipeline::prepare_sparse`
/// does.
pub fn sparse_front_end(tr: &mut Tracer) -> Result<FrontEnd, String> {
    let spec = sparse_spec();
    let cfg = sparse_config();
    let circuit = generate(&spec, tr)?;
    let model = spec.variation_model();
    let t_cons = tr.span("ssta.nominal", |_| nominal_circuit_delay(&circuit)) * cfg.t_cons_factor;
    let paths: Vec<Path> = tr.span("ssta.extract", |_| {
        CriticalPathExtractor::new(&circuit, &model, ExtractConfig::new(t_cons, 1e-6))
            .extract_k_best(cfg.k_paths)
            .into_iter()
            .map(|e| e.path)
            .collect()
    });
    if paths.is_empty() {
        return Err(format!(
            "k-best extraction found no path at t_cons {t_cons:.1} ps"
        ));
    }
    let dec = tr
        .span("circuit.segments", |_| decompose_into_segments(&paths))
        .map_err(s)?;
    let dm = tr
        .span("ssta.sparse_model", |_| {
            SparseDelayModel::build(&circuit, &paths, &dec, &model)
        })
        .map_err(s)?;
    Ok(FrontEnd {
        gates: circuit.netlist().gate_count(),
        t_cons,
        paths,
        model: Model::Sparse(dm),
    })
}

pub fn front_end(flow: Flow, seeds: Seeds, tr: &mut Tracer) -> Result<FrontEnd, String> {
    match flow {
        Flow::Dense => dense_front_end(seeds, tr),
        Flow::Sparse => sparse_front_end(tr),
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What setup hands the passes: reference values computed independently
/// of the flow under test.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// `rank(A)` from a full SVD (dense flow only).
    pub rank: Option<usize>,
}

/// Checks that the step-by-step front end reproduces the library's own
/// pipeline bit for bit (same `A`, `µ`, `T_cons`), and computes the
/// reference rank.
pub fn check_front_end(flow: Flow, seeds: Seeds, fe: &FrontEnd) -> Result<Reference, String> {
    match (&fe.model, flow) {
        (Model::Dense(dm), Flow::Dense) => {
            let pb = prepare(&dense_spec(), &dense_config(seeds)).map_err(s)?;
            let a = pb.delay_model.a();
            if pb.t_cons.to_bits() != fe.t_cons.to_bits()
                || a.shape() != dm.a().shape()
                || !same_bits(a.as_slice(), dm.a().as_slice())
                || !same_bits(pb.delay_model.mu_paths(), dm.mu_paths())
            {
                return Err("dense front end differs from pipeline::prepare".into());
            }
            let svd = pathrep_linalg::svd::Svd::compute(a).map_err(s)?;
            Ok(Reference {
                rank: Some(svd.rank(RANK_TOL).max(1)),
            })
        }
        (Model::Sparse(dm), Flow::Sparse) => {
            let pb = prepare_sparse(&sparse_spec(), &sparse_config()).map_err(s)?;
            let (a, b) = (pb.delay_model.a(), dm.a());
            let rows_equal = a.shape() == b.shape()
                && (0..a.nrows()).all(|r| {
                    let ((ca, va), (cb, vb)) = (a.row(r), b.row(r));
                    ca == cb && same_bits(va, vb)
                });
            if pb.t_cons.to_bits() != fe.t_cons.to_bits()
                || !rows_equal
                || !same_bits(pb.delay_model.mu_paths(), dm.mu_paths())
            {
                return Err("sparse front end differs from pipeline::prepare_sparse".into());
            }
            Ok(Reference { rank: None })
        }
        _ => Err("front end does not match the flow".into()),
    }
}

/// Per-pass facts the traced run reports beside its span times.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub gates: f64,
    pub paths: f64,
    pub a_nnz: f64,
    pub vars: f64,
    pub sketch_attempts: f64,
    pub uncertified: f64,
    pub paths_selected: f64,
    pub eps_claimed: f64,
    pub eps_certified: f64,
    pub measurements: f64,
    pub mc_max_err: f64,
}

impl Facts {
    fn of(fe: &FrontEnd) -> Self {
        Facts {
            gates: fe.gates as f64,
            paths: fe.paths.len() as f64,
            a_nnz: fe.model.nnz() as f64,
            vars: fe.model.variable_count() as f64,
            ..Facts::default()
        }
    }
}

/// A finished pass: its facts, its front end and the certified artifact
/// it saved (the input of the post-silicon phase).
pub struct PassOutput {
    pub facts: Facts,
    pub front_end: FrontEnd,
    pub artifact: ModelArtifact,
}

/// `predictor.epsilon(t_cons)` must equal the claimed `ε_r` bit for bit
/// and stay within the tolerance.
fn certify(what: &str, claimed: f64, certified: f64, epsilon: f64) -> Result<(), String> {
    if claimed.to_bits() != certified.to_bits() {
        return Err(format!(
            "{what}: claimed eps_r {claimed:e} != certified {certified:e}"
        ));
    }
    if certified > epsilon {
        return Err(format!(
            "{what}: certified eps_r {certified:e} > eps {epsilon}"
        ));
    }
    Ok(())
}

/// Exact mode (Theorem 1) selects `r = rank(A)` paths and predicts the
/// rest with zero error.
pub fn check_exact(sel: &ExactSelection, reference: Reference, t_cons: f64) -> Result<(), String> {
    if let Some(rank) = reference.rank {
        if sel.rank != rank || sel.selected.len() != rank {
            return Err(format!(
                "exact: selected {} paths at rank {}, rank(A) = {rank}",
                sel.selected.len(),
                sel.rank
            ));
        }
    }
    let eps = sel.predictor.epsilon(t_cons);
    if eps > EXACT_EPS_TOL {
        return Err(format!(
            "exact: certified eps_r {eps:e} > {EXACT_EPS_TOL:e}"
        ));
    }
    Ok(())
}

pub fn approx_artifact(label: &str, sel: ApproxSelection, t_cons: f64) -> ModelArtifact {
    let config = ApproxConfig::new(EPSILON, t_cons);
    ModelArtifact {
        label: label.to_owned(),
        selection: SelectionMeta {
            epsilon: EPSILON,
            epsilon_r: sel.epsilon_r,
            eta: config.eta,
            rank: sel.rank,
            effective_rank: sel.effective_rank,
            t_cons,
            selected: sel.selected,
            remaining: sel.remaining,
        },
        guard_band_phi: sel.epsilon_r * t_cons,
        predictor: sel.predictor,
    }
}

pub fn exact_artifact(label: &str, sel: ExactSelection, t_cons: f64) -> ModelArtifact {
    let epsilon_r = sel.predictor.epsilon(t_cons);
    ModelArtifact {
        label: label.to_owned(),
        selection: SelectionMeta {
            epsilon: EXACT_EPS_TOL,
            epsilon_r,
            eta: 1.0,
            rank: sel.rank,
            effective_rank: sel.rank,
            t_cons,
            selected: sel.selected,
            remaining: sel.remaining,
        },
        guard_band_phi: epsilon_r * t_cons,
        predictor: sel.predictor,
    }
}

/// Saves `artifact` to `path`, loads it back and checks the round trip is
/// bit-identical.
pub fn save_and_reload(
    artifact: &ModelArtifact,
    path: &str,
    tr: &mut Tracer,
) -> Result<(), String> {
    let id = tr
        .span("serve.artifact_save", |_| artifact.save(path))
        .map_err(s)?;
    let (loaded, loaded_id) = tr
        .span("serve.artifact_load", |_| ModelArtifact::load(path))
        .map_err(s)?;
    if loaded_id != id || loaded.to_bytes() != artifact.to_bytes() {
        return Err(format!(
            "artifact round trip through {path} is not bit-identical"
        ));
    }
    Ok(())
}

/// One signoff pass: netlist spec to a certified artifact saved on disk,
/// with every output checked.
pub fn pass(
    flow: Flow,
    seeds: Seeds,
    reference: Reference,
    artifact_path: &str,
    tr: &mut Tracer,
) -> Result<PassOutput, String> {
    let fe = front_end(flow, seeds, tr)?;
    let mut facts = Facts::of(&fe);
    let t_cons = fe.t_cons;
    let (artifact, failures) = match &fe.model {
        Model::Dense(dm) => dense_selection(dm, t_cons, seeds, reference, &mut facts, tr)?,
        Model::Sparse(dm) => sparse_selection(dm, t_cons, &mut facts, tr)?,
    };
    let saved = save_and_reload(&artifact, artifact_path, tr);
    let failures: Vec<String> = failures.into_iter().chain(saved.err()).collect();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok(PassOutput {
        facts,
        front_end: fe,
        artifact,
    })
}

/// Exact, approx (ε = 0.05) and hybrid (ε = 0.08, ε′ = 0.06) selection,
/// then MC validation of the approx predictor. Returns the approx
/// artifact and the failed checks.
fn dense_selection(
    dm: &DelayModel,
    t_cons: f64,
    seeds: Seeds,
    reference: Reference,
    facts: &mut Facts,
    tr: &mut Tracer,
) -> Result<(ModelArtifact, Vec<String>), String> {
    let (a, mu) = (dm.a(), dm.mu_paths());
    let mut failures = Vec::new();
    let exact = tr
        .span("core.exact", |_| exact_select(a, mu, DEFAULT_KAPPA))
        .map_err(s)?;
    failures.extend(check_exact(&exact, reference, t_cons).err());

    let approx = tr
        .span("core.approx", |_| {
            approx_select(a, mu, &ApproxConfig::new(EPSILON, t_cons))
        })
        .map_err(s)?;
    facts.paths_selected = approx.selected.len() as f64;
    facts.eps_claimed = approx.epsilon_r;
    facts.eps_certified = approx.predictor.epsilon(t_cons);
    facts.uncertified += f64::from(u8::from(facts.eps_certified > EPSILON));
    failures.extend(certify("approx", facts.eps_claimed, facts.eps_certified, EPSILON).err());

    let inputs = HybridInputs {
        g: dm.g(),
        sigma: dm.sigma(),
        a,
        mu_segments: dm.mu_segments(),
        mu_paths: mu,
    };
    let hybrid = tr
        .span("convopt.hybrid", |_| {
            hybrid_select(
                &inputs,
                &HybridConfig::new(HYBRID_EPSILON, HYBRID_EPSILON_PRIME, t_cons),
            )
        })
        .map_err(s)?;
    facts.measurements = hybrid.measurement_count() as f64;
    let hybrid_certified = hybrid.predictor.epsilon(t_cons);
    facts.uncertified += f64::from(u8::from(hybrid_certified > HYBRID_EPSILON));
    failures.extend(certify("hybrid", hybrid.epsilon_r, hybrid_certified, HYBRID_EPSILON).err());

    let mc = McConfig {
        n_samples: MC_SAMPLES,
        seed: seeds.mc_validate,
        threads: 0,
    };
    let plan = MeasurementPlan::Paths {
        selected: &approx.selected,
        predictor: &approx.predictor,
    };
    let metrics = tr
        .span("eval.mc", |_| evaluate(dm, &plan, &approx.remaining, &mc))
        .map_err(s)?;
    facts.mc_max_err = metrics.per_path_max.iter().copied().fold(0.0, f64::max);

    Ok((approx_artifact("signoff_dense", approx, t_cons), failures))
}

/// Sketched Algorithm 1 under a user's retry-until-certified policy:
/// start at the library's default sketch width and double it while the
/// certified error exceeds ε, until the width reaches `min(m, n)`.
fn sparse_selection(
    dm: &SparseDelayModel,
    t_cons: f64,
    facts: &mut Facts,
    tr: &mut Tracer,
) -> Result<(ModelArtifact, Vec<String>), String> {
    let (a, mu) = (dm.a(), dm.mu_paths());
    let limit = a.nrows().min(a.ncols());
    let mut config = SketchApproxConfig::new(EPSILON, t_cons);
    tr.span("core.approx", |tr| loop {
        let sel = tr
            .span("core.sketch_attempt", |_| {
                sketch_approx_select(a, mu, &config)
            })
            .map_err(s)?;
        let certified = sel.predictor.epsilon(t_cons);
        facts.sketch_attempts += 1.0;
        if facts.sketch_attempts == 1.0 {
            facts.eps_claimed = sel.epsilon_r;
            facts.eps_certified = certified;
        }
        let verdict = certify("sketch approx", sel.epsilon_r, certified, EPSILON);
        if verdict.is_ok() {
            facts.paths_selected = sel.selected.len() as f64;
            let artifact = sketch_artifact(sel, &config, t_cons);
            return Ok((artifact, Vec::new()));
        }
        facts.uncertified += 1.0;
        if config.sketch.sketch_cols >= limit {
            return Err(format!(
                "no certified predictor up to sketch width {}: {}",
                config.sketch.sketch_cols,
                verdict.unwrap_err()
            ));
        }
        config.sketch.sketch_cols *= 2;
    })
}

fn sketch_artifact(
    sel: pathrep_core::sketch::SketchSelection,
    config: &SketchApproxConfig,
    t_cons: f64,
) -> ModelArtifact {
    ModelArtifact {
        label: "signoff_sparse".to_owned(),
        selection: SelectionMeta {
            epsilon: config.epsilon,
            epsilon_r: sel.epsilon_r,
            eta: sel.energy_capture,
            rank: sel.rank,
            effective_rank: sel.rank,
            t_cons,
            selected: sel.selected,
            remaining: sel.remaining,
        },
        guard_band_phi: sel.epsilon_r * t_cons,
        predictor: sel.predictor,
    }
}

/// Fabricated dies for post-silicon prediction: `x ~ N(0, I)` through
/// `VariationSampler`, `d = µ + A·x`. Each die carries its measured
/// delays (the artifact's selected paths) and the true delays of the
/// predicted paths.
pub struct Dies {
    pub measured: Vec<Vec<f64>>,
    pub truth: Vec<Vec<f64>>,
    /// `predictor.predict` of each die, computed offline.
    pub expected: Vec<Vec<f64>>,
}

pub fn fabricate(
    model: &Model,
    artifact: &ModelArtifact,
    count: usize,
    seed: u64,
) -> Result<Dies, String> {
    let mut sampler =
        pathrep_variation::sampler::VariationSampler::new(model.variable_count(), seed);
    let sel = &artifact.selection;
    let mut dies = Dies {
        measured: Vec::with_capacity(count),
        truth: Vec::with_capacity(count),
        expected: Vec::with_capacity(count),
    };
    for _ in 0..count {
        let d = model.path_delays(&sampler.draw())?;
        let measured: Vec<f64> = sel.selected.iter().map(|&i| d[i]).collect();
        dies.expected
            .push(artifact.predictor.predict(&measured).map_err(s)?);
        dies.truth
            .push(sel.remaining.iter().map(|&i| d[i]).collect());
        dies.measured.push(measured);
    }
    Ok(dies)
}

/// Largest relative error of `predicted` against `truth`.
pub fn max_rel_err(predicted: &[f64], truth: &[f64]) -> f64 {
    predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs() / t.abs().max(1e-12))
        .fold(0.0, f64::max)
}

/// Running per-path error moments of served predictions, for the check
/// that `κ·std` of the error stays within `ε·T_cons`.
pub struct ErrorAudit {
    n: usize,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
}

impl ErrorAudit {
    pub fn new(targets: usize) -> Self {
        ErrorAudit {
            n: 0,
            sum: vec![0.0; targets],
            sumsq: vec![0.0; targets],
        }
    }

    pub fn add(&mut self, predicted: &[f64], truth: &[f64]) {
        self.n += 1;
        for ((p, t), (s1, s2)) in predicted
            .iter()
            .zip(truth)
            .zip(self.sum.iter_mut().zip(self.sumsq.iter_mut()))
        {
            let e = p - t;
            *s1 += e;
            *s2 += e * e;
        }
    }

    pub fn merge(&mut self, other: &ErrorAudit) {
        self.n += other.n;
        for (a, b) in self.sum.iter_mut().zip(&other.sum) {
            *a += b;
        }
        for (a, b) in self.sumsq.iter_mut().zip(&other.sumsq) {
            *a += b;
        }
    }

    /// Checks `κ·max_i std_i ≤ ε·T_cons·(1 + 5/√(2(n−1)))`: the factor
    /// allows five standard errors of a sample standard deviation over `n`
    /// dies. Needs at least 30 dies.
    pub fn check(
        &self,
        predictor: &MeasurementPredictor,
        epsilon: f64,
        t_cons: f64,
    ) -> Result<(), String> {
        if self.n < 30 {
            return Err(format!("error audit needs 30 dies, got {}", self.n));
        }
        let n = self.n as f64;
        let worst = self
            .sum
            .iter()
            .zip(&self.sumsq)
            .map(|(s1, s2)| ((s2 - s1 * s1 / n) / (n - 1.0)).max(0.0).sqrt())
            .fold(0.0, f64::max);
        let bound = epsilon * t_cons * (1.0 + 5.0 / (2.0 * (n - 1.0)).sqrt());
        let kstd = predictor.kappa() * worst;
        if kstd > bound {
            return Err(format!(
                "served error kappa*std {kstd:.4} ps > eps*T_cons bound {bound:.4} ps over {} dies",
                self.n
            ));
        }
        Ok(())
    }
}
