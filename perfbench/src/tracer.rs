//! The benchmark's own spans: one record per call into a layer, kept in
//! memory and written out as Chrome trace JSON when the run ends.
//!
//! Spans are recorded in every run (two clock reads per layer call);
//! only the traced run also switches `pathrep-obs` on and writes them.

use pathrep_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// Most spans one recorder keeps; later ones are counted, not stored.
const MAX_SPANS: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Recording thread (0 = main).
    pub tid: u32,
}

impl SpanRec {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A per-thread span recorder sharing one time origin with its siblings.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    dropped: u64,
}

impl Tracer {
    pub fn new(origin: Instant, tid: u32) -> Self {
        Tracer {
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder for another thread on the same time axis.
    pub fn sibling(&self, tid: u32) -> Self {
        Tracer::new(self.origin, tid)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; nested calls become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        if idx >= MAX_SPANS {
            self.dropped += 1;
            return f(self);
        }
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            tid: self.tid,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed span (used where the caller holds the
    /// clock readings, e.g. a request timed from its scheduled send time).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(0);
        self.spans.push(SpanRec {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            tid: self.tid,
        });
    }

    /// Index of the most recently opened span named `name`.
    pub fn last_index(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Appends another recorder's spans (re-basing their parent links).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Wall time of span `root`, the summed duration of each span name
    /// below it, and the part of its wall time its direct children leave
    /// uncovered.
    pub fn breakdown(&self, root: usize) -> Breakdown {
        let root_span = &self.spans[root];
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut covered_ms = 0.0;
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if !self.descends_from(i, root) {
                continue;
            }
            *by_name.entry(s.name).or_insert(0.0) += s.dur_ms();
            if s.parent == Some(root) {
                covered_ms += s.dur_ms();
            }
        }
        Breakdown {
            wall_ms: root_span.dur_ms(),
            unattributed_ms: (root_span.dur_ms() - covered_ms).max(0.0),
            by_name,
        }
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Chrome Trace Event JSON: one complete (`"X"`) event per span, with
    /// the span's index and its parent's index under `args`.
    pub fn chrome_trace(&self) -> String {
        let pid = f64::from(std::process::id());
        let events: Vec<JsonValue> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![("id".to_owned(), JsonValue::Number(i as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), JsonValue::Number(p as f64)));
                    args.push((
                        "parent_name".to_owned(),
                        JsonValue::String(self.spans[p].name.to_owned()),
                    ));
                }
                JsonValue::Object(vec![
                    ("name".to_owned(), JsonValue::String(s.name.to_owned())),
                    ("ph".to_owned(), JsonValue::String("X".to_owned())),
                    ("ts".to_owned(), JsonValue::Number(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_owned(),
                        JsonValue::Number((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_owned(), JsonValue::Number(pid)),
                    ("tid".to_owned(), JsonValue::Number(f64::from(s.tid))),
                    ("args".to_owned(), JsonValue::Object(args)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("traceEvents".to_owned(), JsonValue::Array(events)),
            (
                "otherData".to_owned(),
                JsonValue::Object(vec![(
                    "spans_dropped".to_owned(),
                    JsonValue::Number(self.dropped as f64),
                )]),
            ),
        ])
        .render()
    }
}

/// Per-name span totals under one root span.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub wall_ms: f64,
    pub unattributed_ms: f64,
    pub by_name: BTreeMap<&'static str, f64>,
}

impl Breakdown {
    pub fn ms(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }
}
