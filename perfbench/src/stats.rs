//! Order statistics, the process's peak memory and the host record every
//! result carries.

use pathrep_obs::json::JsonValue;
use std::path::Path;
use std::time::Duration;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so the spread printed here is
/// the one the acceptance rule computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld + 1;
    let n = 4;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Length of the windows a timed phase is cut into: latency percentiles
/// and throughput are medians over windows, so a stall of the host moves
/// a few windows, not the result.
pub const WINDOW_S: f64 = 0.5;

/// One open-loop request's timing within a phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Scheduled send time, in seconds since the phase began.
    pub at_s: f64,
    /// Reply time minus scheduled send time.
    pub latency_ms: f64,
    /// How late the request was sent.
    pub lag_ms: f64,
    pub dies: usize,
}

/// Splits a phase of `duration` into [`WINDOW_S`] windows by each
/// sample's `at_s` (complete windows only).
pub fn windows<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    duration: Duration,
) -> Vec<Vec<Sample>> {
    let mut out = vec![Vec::new(); window_count(duration)];
    for sample in samples {
        if let Some(w) = out.get_mut((sample.at_s / WINDOW_S) as usize) {
            w.push(*sample);
        }
    }
    out
}

/// Median over windows of each window's `q`-quantile of request latency.
/// Every request counts once, whatever the dies it carries: weighted by
/// dies, the 8-die binary lots would push any upper quantile into their
/// own far tail.
pub fn windowed_latency(windows: &[Vec<Sample>], q: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(&w.iter().map(|s| s.latency_ms).collect::<Vec<_>>(), q))
        .collect();
    median(&per_window)
}

/// The window `at` (time since the phase began) falls in.
pub fn window_of(at: Duration) -> usize {
    (at.as_secs_f64() / WINDOW_S) as usize
}

/// Complete windows in a phase of `duration`.
pub fn window_count(duration: Duration) -> usize {
    (duration.as_secs_f64() / WINDOW_S).floor().max(1.0) as usize
}

/// Median over windows of dies completed per second.
pub fn median_rate(dies_per_window: &[usize]) -> f64 {
    let rates: Vec<f64> = dies_per_window
        .iter()
        .map(|&d| d as f64 / WINDOW_S)
        .collect();
    median(&rates)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.lines().next().unwrap_or("").trim().to_owned())
        .unwrap_or_default()
}

/// The commit of the checkout when it is a git work tree; otherwise an
/// FNV-1a digest of the library sources, which identifies the code built
/// from an exported tree just as well.
fn code_identity() -> String {
    let head = first_line(".git/HEAD");
    if let Some(reference) = head.strip_prefix("ref: ") {
        let commit = first_line(&format!(".git/{reference}"));
        if !commit.is_empty() {
            return commit;
        }
    } else if !head.is_empty() {
        return head;
    }
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Host and build record: enough to trace a bimodal row to its host.
pub fn environment(seed: u64, workload: &str) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loadavg: Vec<JsonValue> = first_line("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .filter_map(|v| v.parse::<f64>().ok())
        .map(JsonValue::Number)
        .collect();
    let s = |v: &str| JsonValue::String(v.to_owned());
    JsonValue::Object(vec![
        ("workload".into(), s(workload)),
        ("seed".into(), JsonValue::Number(seed as f64)),
        ("nproc".into(), JsonValue::Number(nproc as f64)),
        (
            "par.workers".into(),
            JsonValue::Number(pathrep_par::threads() as f64),
        ),
        (
            "par.default_workers".into(),
            JsonValue::Number(crate::signoff::at_default_workers(|| ()).1 as f64),
        ),
        (
            "serve.shards".into(),
            JsonValue::Number(pathrep_serve::ServerConfig::default().shards as f64),
        ),
        (
            "kernel".into(),
            s(&first_line("/proc/sys/kernel/osrelease")),
        ),
        ("loadavg".into(), JsonValue::Array(loadavg)),
        ("commit".into(), s(&code_identity())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }
}
