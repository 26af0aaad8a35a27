//! The benchmark's own tracer. Spans are recorded around the calls the
//! benchmark makes into fairsel's public functions; nothing inside the
//! program is instrumented. Spans stay in memory and are written out once,
//! when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span. Every span of one op carries that op's id; `parent`
/// is the id of the enclosing span (0 for the op's root).
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Per-client span recorder. When `on` is false every call is a no-op
/// apart from running the timed closure, so untraced ops pay nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    next_id: u64,
    stack: Vec<(u64, &'static str, f64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// `client` keeps span ids unique across the clients of one run.
    pub fn new(epoch: Instant, client: u64) -> Self {
        Self {
            on: false,
            epoch,
            op: 0,
            next_id: client << 48,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Start op `op`, traced or not; opens its root span `name`.
    pub fn begin_op(&mut self, op: u64, traced: bool, name: &'static str) {
        self.on = traced;
        self.op = op;
        self.stack.clear();
        self.open(name);
    }

    /// Close the op's root span; returns the spans of this op (empty when
    /// untraced).
    pub fn end_op(&mut self) -> &[Span] {
        if !self.on {
            return &[];
        }
        while !self.stack.is_empty() {
            self.close();
        }
        let first = self
            .spans
            .iter()
            .rposition(|s| s.op != self.op)
            .map_or(0, |i| i + 1);
        &self.spans[first..]
    }

    pub fn open(&mut self, name: &'static str) {
        if self.on {
            self.next_id += 1;
            let start = self.now_us();
            self.stack.push((self.next_id, name, start));
        }
    }

    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_us();
        if let Some((id, name, start)) = self.stack.pop() {
            let parent = self.stack.last().map_or(0, |s| s.0);
            self.spans.push(Span {
                op: self.op,
                id,
                parent,
                name,
                start_us: start,
                end_us: end,
            });
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Record an interval measured elsewhere (the server's own clock, or
    /// a replay) as a span of the current op, ending now.
    pub fn record(&mut self, name: &'static str, ms: f64) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        let end = self.now_us();
        self.spans.push(Span {
            op: self.op,
            id: self.next_id,
            parent: self.stack.last().map_or(0, |s| s.0),
            name,
            start_us: end - ms * 1e3,
            end_us: end,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer sums over the traced ops of a run. Times are in ms and
/// counts are plain numbers; metrics report the mean per traced op.
#[derive(Default, Debug, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    pub ops: u64,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn mean(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.sum(name) / self.ops as f64
        }
    }

    /// Fold one traced op in: its wall time under `op` and each child
    /// span's duration under the span's name.
    pub fn add_op(&mut self, spans: &[Span], wall_ms: f64) {
        self.ops += 1;
        self.add("op", wall_ms);
        for s in spans.iter().filter(|s| s.parent != 0) {
            self.add(s.name, s.ms());
        }
    }

    pub fn merge(&mut self, other: &Layers) {
        self.ops += other.ops;
        for (k, v) in &other.sums {
            self.add(k, *v);
        }
    }
}

/// Write spans as JSON lines (one object per span).
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.op, s.id, s.parent, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}
