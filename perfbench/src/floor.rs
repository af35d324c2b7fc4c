//! The test_floor workload: post-silicon serving. Setup signs off an
//! exact (Theorem 1) and an approx (Algorithm 1) artifact, starts the
//! daemon with `ServerConfig::default()` on an ephemeral port and
//! fabricates the dies. The timed region drives two connections — binary
//! `predict_batch` lots of 8 dies on the exact model, JSON single-die
//! `predict` on the approx model — first open loop at a fixed rate, then
//! closed loop. The open loop runs on one CPU kept busy by an
//! idle-priority spinner ([`QuietCpu`]).

use crate::flow::{self, fabricate, Dies, ErrorAudit, Facts, Flow, Seeds, EPSILON};
use crate::quiet::QuietCpu;
use crate::report::{layer_metrics, Ops, Outcome, ServeLayer, Unit};
use crate::signoff::{at_default_workers, LOT};
use crate::stats::{
    median, median_rate, peak_rss_mb, quantile, window_count, window_of, windowed_latency, windows,
    Sample, WINDOW_S,
};
use crate::tracer::Tracer;
use pathrep_core::approx::{approx_select, ApproxConfig};
use pathrep_core::exact::{exact_select, ExactSelection};
use pathrep_core::predictor::DEFAULT_KAPPA;
use pathrep_serve::{Client, ModelArtifact, Server, ServerConfig, ServerHandle, WireProtocol};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Open-loop request rates per connection, frozen at about a quarter of
/// each connection's closed-loop capacity at the default seed on a 2-vCPU
/// x86-64 VM (3,300–4,000 binary lots/s, 2,200–3,000 JSON requests/s);
/// at half, latency followed the host's load (see README.md).
pub const BINARY_LOTS_PER_S: f64 = 800.0;
pub const JSON_REQS_PER_S: f64 = 650.0;
/// Setups per run: `setup_s` is their median. `signoff_s` is the median
/// of their artifact builds and, untraced, of one more signoff pass after
/// each serving phase, so that its samples span the whole run.
const SETUPS: usize = 9;
/// Open/closed-loop rounds of an untraced run.
const CYCLES: usize = 5;
/// Dies fabricated in setup (a multiple of [`LOT`]); requests cycle
/// through them.
const DIES: usize = 1024;
/// Relative tolerance within which the exact model must reproduce the
/// fabricated path delays.
pub const EXACT_REL_TOL: f64 = 1e-6;

struct Served {
    id: String,
    artifact: ModelArtifact,
    dies: Dies,
}

struct Floor {
    handle: ServerHandle,
    addr: SocketAddr,
    exact: Served,
    approx: Served,
    t_cons: f64,
}

impl Floor {
    fn shutdown(self) -> pathrep_serve::ServerStats {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.shutdown();
        }
        self.handle.join()
    }
}

/// One setup: sign off both artifacts (the floor's signoff pass, timed
/// into `signoff_s`), check them, start the daemon, load the models and
/// fabricate the dies. The whole setup is one traced unit.
fn setup_once(
    seeds: Seeds,
    dir: &str,
    tr: &mut Tracer,
    ops: &mut Ops,
    units: &mut Vec<Unit>,
) -> Result<(Floor, f64), String> {
    let (built, breakdown, counters) = Unit::trace("setup", tr, |tr| build(seeds, dir, tr, ops));
    let (floor, signoff_s, facts) = built?;
    units.push(Unit {
        breakdown,
        counters,
        facts,
    });
    Ok((floor, signoff_s))
}

/// The floor's signoff: the dense front end, exact and approx selection,
/// both artifacts saved to and reloaded from `paths`.
struct Signed {
    fe: flow::FrontEnd,
    exact: ExactSelection,
    exact_art: ModelArtifact,
    approx_art: ModelArtifact,
    saved: Result<(), String>,
}

fn sign_off(seeds: Seeds, paths: &[String; 2], tr: &mut Tracer) -> Result<Signed, String> {
    let fe = flow::dense_front_end(seeds, tr)?;
    let flow::Model::Dense(dm) = &fe.model else {
        unreachable!("the dense front end builds a dense model")
    };
    let (a, mu, t_cons) = (dm.a(), dm.mu_paths(), fe.t_cons);
    let exact = tr
        .span("core.exact", |_| exact_select(a, mu, DEFAULT_KAPPA))
        .map_err(|e| e.to_string())?;
    let approx = tr
        .span("core.approx", |_| {
            approx_select(a, mu, &ApproxConfig::new(EPSILON, t_cons))
        })
        .map_err(|e| e.to_string())?;
    let exact_art = flow::exact_artifact("test_floor_exact", exact.clone(), t_cons);
    let approx_art = flow::approx_artifact("test_floor_approx", approx, t_cons);
    let saved = flow::save_and_reload(&exact_art, &paths[0], tr).and(flow::save_and_reload(
        &approx_art,
        &paths[1],
        tr,
    ));
    Ok(Signed {
        fe,
        exact,
        exact_art,
        approx_art,
        saved,
    })
}

fn artifact_paths(dir: &str) -> [String; 2] {
    let pid = std::process::id();
    [
        format!("{dir}/floor-{pid}-exact.artifact"),
        format!("{dir}/floor-{pid}-approx.artifact"),
    ]
}

fn remove(paths: &[String; 2]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

fn build(
    seeds: Seeds,
    dir: &str,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<(Floor, f64, Facts), String> {
    let paths = artifact_paths(dir);
    let t0 = Instant::now();
    let signed = tr.span("signoff", |tr| sign_off(seeds, &paths, tr));
    let signoff_s = t0.elapsed().as_secs_f64();
    let Signed {
        fe,
        exact,
        exact_art,
        approx_art,
        saved,
    } = signed?;
    ops.record("artifact round trip", saved);
    let reference = tr.span("bench.check", |_| {
        flow::check_front_end(Flow::Dense, seeds, &fe)
    });
    ops.record(
        "front end matches the pipeline",
        reference.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    if let Ok(reference) = reference {
        ops.record(
            "exact selection",
            flow::check_exact(&exact, reference, fe.t_cons),
        );
    }
    let sel = &approx_art.selection;
    let certified = approx_art.predictor.epsilon(fe.t_cons);
    ops.record(
        "approx selection",
        if sel.epsilon_r.to_bits() == certified.to_bits() && certified <= EPSILON {
            Ok(())
        } else {
            Err(format!(
                "claimed {:e}, certified {certified:e}",
                sel.epsilon_r
            ))
        },
    );
    let mut facts = Facts {
        gates: fe.gates as f64,
        paths: fe.paths.len() as f64,
        vars: fe.model.variable_count() as f64,
        paths_selected: sel.selected.len() as f64,
        eps_claimed: sel.epsilon_r,
        eps_certified: certified,
        ..Facts::default()
    };
    if let flow::Model::Dense(dm) = &fe.model {
        facts.a_nnz = dm.a().as_slice().iter().filter(|v| **v != 0.0).count() as f64;
    }

    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let handle = tr
        .span("serve.bind", |_| {
            Server::bind(config).and_then(Server::spawn)
        })
        .map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let mut control = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut load = |path: &str, tr: &mut Tracer| {
        tr.span("serve.load_model", |_| control.load_model(path))
            .map(|m| m.model)
            .map_err(|e| e.to_string())
    };
    let exact_id = load(&paths[0], tr)?;
    let approx_id = load(&paths[1], tr)?;
    let (exact_dies, approx_dies) = tr.span("dies.fabricate", |_| {
        Ok::<_, String>((
            fabricate(&fe.model, &exact_art, DIES, seeds.dies)?,
            fabricate(&fe.model, &approx_art, DIES, seeds.dies)?,
        ))
    })?;
    remove(&paths);
    let floor = Floor {
        handle,
        addr,
        exact: Served {
            id: exact_id,
            artifact: exact_art,
            dies: exact_dies,
        },
        approx: Served {
            id: approx_id,
            artifact: approx_art,
            dies: approx_dies,
        },
        t_cons: fe.t_cons,
    };
    Ok((floor, signoff_s, facts))
}

/// A signoff pass between serving rounds, timed into `signoff_s`: it
/// must reproduce the served artifacts byte for byte.
fn resign(floor: &Floor, seeds: Seeds, dir: &str, ops: &mut Ops) -> Option<f64> {
    let paths = artifact_paths(dir);
    let t0 = Instant::now();
    let signed = sign_off(seeds, &paths, &mut Tracer::new(t0, 0));
    let signoff_s = t0.elapsed().as_secs_f64();
    remove(&paths);
    let verdict = signed.and_then(|s| {
        ops.record("artifact round trip", s.saved);
        if s.exact_art.to_bytes() == floor.exact.artifact.to_bytes()
            && s.approx_art.to_bytes() == floor.approx.artifact.to_bytes()
        {
            Ok(())
        } else {
            Err("signoff pass differs from the served artifacts".into())
        }
    });
    let ok = verdict.is_ok();
    ops.record("signoff pass reproduces the artifacts", verdict);
    ok.then_some(signoff_s)
}

/// One connection's side of the load.
struct Side {
    client: Client,
    binary: bool,
    tracer: Tracer,
    ops: Ops,
    /// The current open-loop phase's requests (their number is set by
    /// the rate, not by the program's speed).
    samples: Vec<Sample>,
    /// Dies completed per window of the current closed-loop phase.
    window_dies: Vec<usize>,
    /// Send-to-reply times of the current closed-loop phase, kept when
    /// traced.
    rtt_ms: Vec<f64>,
    next_die: usize,
    /// Served approx-model error moments over the first pass through the
    /// dies.
    audit: ErrorAudit,
}

impl Side {
    fn connect(
        addr: SocketAddr,
        binary: bool,
        tracer: Tracer,
        targets: usize,
    ) -> Result<Self, String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        client.set_protocol(if binary {
            WireProtocol::Binary
        } else {
            WireProtocol::Json
        });
        Ok(Side {
            client,
            binary,
            tracer,
            ops: Ops::default(),
            samples: Vec::new(),
            window_dies: Vec::new(),
            rtt_ms: Vec::new(),
            next_die: 0,
            audit: ErrorAudit::new(targets),
        })
    }

    /// Sends one request of this side's kind and checks every reply row
    /// bit for bit against the offline predictor. Returns the dies it
    /// carried.
    fn request(&mut self, served: &Served) -> usize {
        let first = self.next_die % DIES;
        let count = if self.binary { LOT } else { 1 };
        let rows = &served.dies.measured[first..first + count];
        let reply = if self.binary {
            self.client.predict_batch(&served.id, rows)
        } else {
            self.client.predict(&served.id, &rows[0]).map(|r| vec![r])
        };
        let verdict = reply.map_err(|e| e.to_string()).and_then(|rows| {
            if rows.len() != count {
                return Err(format!("{} rows for {count} dies", rows.len()));
            }
            for (q, row) in rows.iter().enumerate() {
                let die = first + q;
                let want = &served.dies.expected[die];
                if row.len() != want.len()
                    || row
                        .iter()
                        .zip(want)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Err(format!(
                        "die {die}: served prediction differs from offline predict"
                    ));
                }
                let truth = &served.dies.truth[die];
                if self.binary {
                    let err = flow::max_rel_err(row, truth);
                    if err > EXACT_REL_TOL {
                        return Err(format!("die {die}: exact model off by {err:e} (relative)"));
                    }
                } else if self.next_die < DIES {
                    self.audit.add(row, truth);
                }
            }
            Ok(())
        });
        self.ops.record(
            if self.binary {
                "binary predict_batch"
            } else {
                "json predict"
            },
            verdict,
        );
        self.next_die += count;
        count
    }

    /// Drives requests from `start` until `end`: on a fixed schedule when
    /// `period` is set (open loop), back to back otherwise (closed loop).
    fn drive(&mut self, served: &Served, period: Option<Duration>, start: Instant, end: Instant) {
        self.samples.clear();
        self.rtt_ms.clear();
        self.window_dies = vec![0; window_count(end - start)];
        let traced = pathrep_obs::enabled();
        let name = if self.binary {
            "serve.predict_batch"
        } else {
            "serve.predict"
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        for k in 0u32.. {
            let scheduled = match period {
                Some(p) => start + p * k,
                None => Instant::now(),
            };
            if scheduled >= end {
                break;
            }
            if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let dies = self.request(served);
            let done = Instant::now();
            if period.is_some() {
                self.samples.push(Sample {
                    at_s: (scheduled - start).as_secs_f64(),
                    latency_ms: ms(done - scheduled),
                    lag_ms: ms(sent - scheduled),
                    dies,
                });
            } else if let Some(count) = self.window_dies.get_mut(window_of(done - start)) {
                *count += dies;
            }
            if traced {
                let from = if period.is_some() { scheduled } else { sent };
                self.tracer.record(name, from, done);
                if period.is_none() {
                    self.rtt_ms.push(ms(done - sent));
                }
            }
        }
    }
}

/// Runs one phase of `duration` on both connections at once; each side's
/// `samples` then hold its requests. An open-loop phase runs on one quiet
/// CPU.
fn phase(floor: &Floor, sides: &mut [Side; 2], open: bool, duration: Duration) {
    // Started before the load threads, which inherit its one-CPU mask.
    let _quiet = open.then(QuietCpu::start);
    let start = Instant::now();
    let end = start + duration;
    let [bin, json] = sides;
    let bin_period = open.then(|| Duration::from_secs_f64(1.0 / BINARY_LOTS_PER_S));
    let json_period = open.then(|| Duration::from_secs_f64(1.0 / JSON_REQS_PER_S));
    std::thread::scope(|s| {
        let a = s.spawn(|| bin.drive(&floor.exact, bin_period, start, end));
        let b = s.spawn(|| json.drive(&floor.approx, json_period, start, end));
        a.join().expect("binary load thread");
        b.join().expect("json load thread");
    });
}

/// Median over windows of the dies both sides completed per second.
fn closed_rate_of(sides: &[Side; 2]) -> f64 {
    let per_window: Vec<usize> = sides[0]
        .window_dies
        .iter()
        .zip(&sides[1].window_dies)
        .map(|(a, b)| a + b)
        .collect();
    median_rate(&per_window)
}

pub fn run(seed: u64, seconds: f64, traced: bool, dir: &str) -> Outcome {
    let seeds = Seeds::new(seed);
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut ops = Ops::default();
    let mut units = Vec::new();
    pathrep_obs::set_enabled(traced);
    let mut setup_times = Vec::new();
    let mut signoff_times = Vec::new();
    let mut floor: Option<Floor> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = floor.take() {
            previous.shutdown();
        }
        let t0 = Instant::now();
        let built = setup_once(seeds, dir, &mut tr, &mut ops, &mut units);
        setup_times.push(t0.elapsed().as_secs_f64());
        match built {
            Ok((f, signoff_s)) => {
                signoff_times.push(signoff_s);
                floor = Some(f);
            }
            Err(e) => ops.record("setup", Err(e)),
        }
    }
    pathrep_obs::set_enabled(false);
    let setup_signoffs = signoff_times.len();
    let mut notes = vec![format!("setup_s: median of {} setups", setup_times.len())];
    let Some(floor) = floor else {
        ops.record("test_floor", Err("no setup succeeded".into()));
        return Outcome {
            ops,
            metrics: Vec::new(),
            notes,
            tracer: tr,
        };
    };
    let targets = floor.approx.artifact.predictor.target_count();
    let sides = Side::connect(floor.addr, true, tr.sibling(1), targets)
        .and_then(|b| Ok([b, Side::connect(floor.addr, false, tr.sibling(2), targets)?]));
    let mut sides = match sides {
        Ok(s) => s,
        Err(e) => {
            ops.record("connect", Err(e));
            floor.shutdown();
            return Outcome {
                ops,
                metrics: Vec::new(),
                notes,
                tracer: tr,
            };
        }
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut serve = ServeLayer::default();
    let (mut par_speedup, mut overhead, mut par_workers) = (0.0, 0.0, 0);
    let (mut p50, mut closed_rate) = (0.0, 0.0);
    if traced {
        let d = budget.mul_f64(0.25);
        phase(&floor, &mut sides, false, d);
        let untraced_rate = closed_rate_of(&sides);
        pathrep_obs::set_enabled(true);
        phase(&floor, &mut sides, true, d);
        let lags: Vec<f64> = sides
            .iter()
            .flat_map(|s| s.samples.iter().map(|x| x.lag_ms))
            .collect();
        serve.lag_p99_ms = quantile(&lags, 0.99);
        serve.die_p90_ms =
            windowed_latency(&windows(sides.iter().flat_map(|s| &s.samples), d), 0.90);
        phase(&floor, &mut sides, false, d);
        let traced_rate = closed_rate_of(&sides);
        serve.rtt_binary_p50_us = median(&sides[0].rtt_ms) * 1e3;
        serve.rtt_json_p50_us = median(&sides[1].rtt_ms) * 1e3;
        pathrep_obs::set_enabled(false);
        let d = budget.mul_f64(0.15);
        let (default_rate, workers) = at_default_workers(|| {
            phase(&floor, &mut sides, false, d);
            closed_rate_of(&sides)
        });
        par_workers = workers;
        par_speedup = default_rate / untraced_rate;
        overhead = untraced_rate / traced_rate - 1.0;
    } else {
        // Open and closed loop alternate in CYCLES rounds, with a signoff
        // pass after each phase, so all three sample the host over the
        // whole run.
        let d = budget.mul_f64(0.5 / CYCLES as f64);
        let mut open = Vec::new();
        let mut closed = Vec::new();
        let mut requests = [0usize; 2];
        for _ in 0..CYCLES {
            phase(&floor, &mut sides, true, d);
            open.extend(windows(sides.iter().flat_map(|s| &s.samples), d));
            signoff_times.extend(resign(&floor, seeds, dir, &mut ops));
            phase(&floor, &mut sides, false, d);
            closed.extend(
                sides[0]
                    .window_dies
                    .iter()
                    .zip(&sides[1].window_dies)
                    .map(|(a, b)| a + b),
            );
            requests[0] += sides[0].window_dies.iter().sum::<usize>() / LOT;
            requests[1] += sides[1].window_dies.iter().sum::<usize>();
            signoff_times.extend(resign(&floor, seeds, dir, &mut ops));
        }
        p50 = windowed_latency(&open, 0.50);
        closed_rate = median_rate(&closed);
        notes.push(format!(
            "die_*: medians over {} windows of {WINDOW_S} s, {} dies, open loop at \
             {BINARY_LOTS_PER_S} binary lots/s + {JSON_REQS_PER_S} json requests/s \
             on one CPU beside an idle-priority spinner",
            open.len(),
            open.iter().flatten().map(|s| s.dies).sum::<usize>()
        ));
        let closed_s = d.as_secs_f64() * CYCLES as f64;
        notes.push(format!(
            "dies_per_s: median over {} windows; closed loop: {:.0} binary lots/s, {:.0} json requests/s",
            closed.len(),
            requests[0] as f64 / closed_s,
            requests[1] as f64 / closed_s
        ));
    }
    notes.push(format!(
        "signoff_s: median of {} artifact builds, {setup_signoffs} of them in setup",
        signoff_times.len()
    ));
    let mut audit = ErrorAudit::new(targets);
    for side in sides {
        ops.merge(&side.ops);
        audit.merge(&side.audit);
        tr.absorb(side.tracer);
    }
    ops.record(
        "approx served error within eps",
        audit.check(&floor.approx.artifact.predictor, EPSILON, floor.t_cons),
    );
    let stats = floor.shutdown();
    serve.shards = ServerConfig::default().shards as f64;
    serve.rows_per_batch = stats.predictions as f64 / stats.batches.max(1) as f64;
    serve.queue_high_water = stats.queue_high_water as f64;
    serve.errors = stats.errors as f64;
    ops.record(
        "daemon served without errors",
        if stats.errors == 0 {
            Ok(())
        } else {
            Err(format!("{} errors", stats.errors))
        },
    );
    let metrics = if traced {
        layer_metrics(&units, &serve, par_workers, par_speedup, overhead)
    } else {
        vec![
            ("setup_s", median(&setup_times)),
            ("signoff_s", median(&signoff_times)),
            ("die_p50_ms", p50),
            ("dies_per_s", closed_rate),
            ("peak_rss_mb", peak_rss_mb()),
            ("success_frac", ops.success_frac()),
        ]
    };
    Outcome {
        ops,
        metrics,
        notes,
        tracer: tr,
    }
}
