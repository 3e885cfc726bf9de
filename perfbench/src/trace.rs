//! Benchmark-side spans around calls into the system's layers.
//!
//! Each client thread owns a [`Tracer`]. A span records its name, start,
//! end, parent span and op id. Per-name totals (count, duration, self
//! time) are kept for every span; the spans themselves are kept in
//! memory up to [`KEPT_SPANS`] per tracer and written as JSON lines when
//! the run ends. A disabled tracer costs one branch per span boundary,
//! so untraced runs share the traced code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the span file, per tracer; later spans still count in
/// the totals.
pub const KEPT_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if it was kept.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(bool);

struct OpenSpan {
    name: &'static str,
    start_ns: u64,
    covered_ns: u64,
    kept: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
    open: Vec<OpenSpan>,
    totals: BTreeMap<&'static str, SpanTotals>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: &'static str) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next op: later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(false);
        }
        let start_ns = self.now_ns();
        let kept = (self.spans.len() < KEPT_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|p| p.kept),
                op: self.op,
            });
            self.spans.len() - 1
        });
        self.open.push(OpenSpan {
            name,
            start_ns,
            covered_ns: 0,
            kept,
        });
        Open(true)
    }

    pub fn end(&mut self, open: Open) {
        if !open.0 {
            return;
        }
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("spans nest");
        let d = end_ns - span.start_ns;
        let t = self.totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += d;
        // Children of one thread never overlap, so the covered part of
        // a span is the sum of its children's durations.
        t.self_ns += d.saturating_sub(span.covered_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.covered_ns += d;
        }
        if let Some(i) = span.kept {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }
}

/// Per-name totals over every tracer of a run.
pub fn totals(tracers: &[Tracer]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (name, t) in tracers.iter().flat_map(|tr| tr.totals.iter()) {
        let e = out.entry(name).or_default();
        e.count += t.count;
        e.total_ns += t.total_ns;
        e.self_ns += t.self_ns;
    }
    out
}

/// Write every kept span as one JSON line.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"thread\":\"{}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"op\":{}}}",
                t.thread, s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
    }
    w.flush()
}
