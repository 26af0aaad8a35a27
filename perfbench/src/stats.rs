//! Run bookkeeping shared by the workloads: how long a run measures, the
//! per-op log, order statistics and the process's peak memory.

use crate::spans::{Layers, Span};
use std::time::{Duration, Instant};

/// How much a timed phase does: run until a wall-clock deadline, or a
/// fixed number of ops per client (the self-test uses the latter so
/// counts repeat exactly).
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Seconds(f64),
    Ops(u64),
}

impl Budget {
    /// Whether a client that has measured for `elapsed` and finished
    /// `done` ops should issue another.
    pub fn more(&self, elapsed: Duration, done: u64) -> bool {
        match *self {
            Budget::Seconds(s) => elapsed < Duration::from_secs_f64(s),
            Budget::Ops(n) => done < n,
        }
    }
}

/// One timed op.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Unique within a run; a traced op's spans carry it.
    pub id: u64,
    /// Caller-side latency, inputs in hand to report returned.
    pub ms: f64,
    /// CI tests the selection asked the engine for.
    pub requested: u64,
    pub traced: bool,
    pub ok: bool,
}

/// Everything one client (or the whole run, after merging) recorded.
#[derive(Default)]
pub struct Log {
    pub ops: Vec<Op>,
    pub layers: Layers,
    pub spans: Vec<Span>,
}

impl Log {
    pub fn push(&mut self, op: Op) {
        if !op.ok {
            eprintln!("op {} failed its correctness check", self.ops.len());
        }
        self.ops.push(op);
    }

    pub fn merge(&mut self, other: Log) {
        self.ops.extend(other.ops);
        self.layers.merge(&other.layers);
        self.spans.extend(other.spans);
    }
}

/// The outcome of one workload run, before it becomes metrics.
pub struct RunResult {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident memory when set-up ended, in MB.
    pub setup_rss_mb: f64,
    /// Wall time of the timed phase, in seconds (all clients together).
    pub timed_s: f64,
    pub log: Log,
}

/// Run `make` `reps` times, timing each, and keep the last state;
/// `release` disposes of each earlier one off the clock. Returns the
/// state, the set-up times in seconds and the peak RSS when set-up ends.
pub fn set_up<S>(
    reps: usize,
    mut make: impl FnMut() -> S,
    mut release: impl FnMut(S),
) -> (S, Vec<f64>, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut state: Option<S> = None;
    for _ in 0..reps.max(1) {
        if let Some(old) = state.take() {
            release(old);
        }
        let (s, ms) = timed(&mut make);
        times.push(ms / 1e3);
        state = Some(s);
    }
    (state.expect("at least one set-up"), times, peak_rss_mb())
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}
