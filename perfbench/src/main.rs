//! fairsel-perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-gtest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds` seconds in a fresh
//! process, so process-wide state (the span sink a server turns on, the
//! engine pool's busy counter) never leaks from one workload into
//! another. Inputs are drawn from `--seed`. Every op is checked against a
//! reference computed outside the timed phase; a mismatch, an error or a
//! `Busy` answer counts as a failed op.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! traced and untraced ops and prints the per-layer metrics, measured by
//! spans the benchmark records around its calls into fairsel's public
//! functions (spans are written to `perfbench/out/`). The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! `cargo test --manifest-path perfbench/Cargo.toml` runs the self-test.

mod cold;
mod inputs;
mod oracle;
mod pipeline;
mod serve;
mod spans;
mod stats;

use stats::{median, peak_rss_mb, quantile, Budget, RunResult};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Options every workload run takes.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Engine worker threads (and warm-serve clients): the core count,
    /// as the CLI defaults to.
    pub workers: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Damage one reference so its ops must fail (self-test only).
    pub corrupt_reference: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdGTest,
    ColdFisherZ,
    WarmServe,
    AppendStream,
    OraclePlan,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::ColdGTest,
    Workload::ColdFisherZ,
    Workload::WarmServe,
    Workload::AppendStream,
    Workload::OraclePlan,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdGTest => "cold-gtest",
            Workload::ColdFisherZ => "cold-fisherz",
            Workload::WarmServe => "warm-serve",
            Workload::AppendStream => "append-stream",
            Workload::OraclePlan => "oracle-plan",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The layers whose times partition one op's wall time.
    fn ledger(self) -> &'static [&'static str] {
        match self {
            Workload::ColdGTest | Workload::ColdFisherZ => cold::LEDGER,
            Workload::WarmServe => serve::WARM_LEDGER,
            Workload::AppendStream => serve::APPEND_LEDGER,
            Workload::OraclePlan => oracle::LEDGER,
        }
    }

    /// Run at full size, or at the self-test's tiny size.
    pub fn run(self, tiny: bool, opts: &RunOpts) -> RunResult {
        use pipeline::Tester;
        match self {
            Workload::ColdGTest | Workload::ColdFisherZ => {
                let tester = if self == Workload::ColdGTest {
                    Tester::GTest
                } else {
                    Tester::FisherZ
                };
                cold::run(tester, if tiny { cold::TINY } else { cold::FULL }, opts)
            }
            Workload::WarmServe => serve::warm(
                if tiny {
                    serve::WARM_TINY
                } else {
                    serve::WARM_FULL
                },
                opts.workers,
                opts,
            ),
            Workload::AppendStream => serve::append(
                if tiny {
                    serve::APPEND_TINY
                } else {
                    serve::APPEND_FULL
                },
                opts,
            ),
            Workload::OraclePlan => {
                oracle::run(if tiny { oracle::TINY } else { oracle::FULL }, opts)
            }
        }
    }
}

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("select_p50_ms", "ms"),
    ("select_p90_ms", "ms"),
    ("selects_per_s", "1/s"),
    ("ci_tests_per_select", "count"),
    ("setup_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// Times and counts are means per traced op; a layer a workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("table.csv_parse_ms", "ms"),
    ("table.split_ms", "ms"),
    ("table.encode_ms", "ms"),
    ("table.codec_ms", "ms"),
    ("table.encode_hit_rate", "ratio"),
    ("table.encode_lookups", "count"),
    ("server.fingerprint_ms", "ms"),
    ("server.round_trip_ms", "ms"),
    ("server.append_ms", "ms"),
    ("server.handler_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.req_bytes", "B"),
    ("server.resp_bytes", "B"),
    ("server.session_build_ms", "ms"),
    ("server.warm_child_ms", "ms"),
    ("server.evictions", "count"),
    ("server.warm_children", "count"),
    ("core.select_ms", "ms"),
    ("core.planner_ms", "ms"),
    ("core.render_ms", "ms"),
    ("engine.ci_wall_ms", "ms"),
    ("engine.issued", "count"),
    ("engine.cache_hits", "count"),
    ("engine.pool_utilisation", "ratio"),
    ("engine.memo_patched", "count"),
    ("engine.memo_invalidated", "count"),
    ("citest.gtest_us_per_test", "us"),
    ("citest.fisherz_us_per_test", "us"),
    ("citest.oracle_us_per_test", "us"),
    ("citest.oracle_build_ms", "ms"),
    ("ml.featurize_ms", "ms"),
    ("ml.fit_ms", "ms"),
    ("ml.predict_ms", "ms"),
    ("ml.metrics_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("obs.peak_rss_mb", "MB"),
    ("obs.traced_ops", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// End-to-end metric values of a `--trace 0` run.
pub fn end_to_end(r: &RunResult) -> BTreeMap<&'static str, f64> {
    let ms: Vec<f64> = r.log.ops.iter().map(|o| o.ms).collect();
    let n = r.log.ops.len().max(1) as f64;
    let requested: f64 = r.log.ops.iter().map(|o| o.requested as f64).sum();
    BTreeMap::from([
        ("setup_s", median(&r.setup_s)),
        ("select_p50_ms", quantile(&ms, 0.5)),
        ("select_p90_ms", quantile(&ms, 0.9)),
        ("selects_per_s", r.log.ops.len() as f64 / r.timed_s),
        ("ci_tests_per_select", requested / n),
        ("setup_rss_mb", r.setup_rss_mb),
    ])
}

/// Per-layer metric values of a `--trace 1` run.
pub fn per_layer(w: Workload, r: &RunResult) -> BTreeMap<&'static str, f64> {
    let l = &r.log.layers;
    let ratio = |num: &str, den: &str| {
        let d = l.sum(den);
        if d > 0.0 {
            l.sum(num) / d
        } else {
            0.0
        }
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix("_ms") {
            v.insert(name, l.mean(layer));
        }
    }
    for name in [
        "table.encode_lookups",
        "server.req_bytes",
        "server.resp_bytes",
        "server.evictions",
        "server.warm_children",
        "engine.issued",
        "engine.cache_hits",
        "engine.memo_patched",
        "engine.memo_invalidated",
    ] {
        v.insert(name, l.mean(name));
    }
    v.insert(
        "table.encode_hit_rate",
        ratio("table.encode_hits", "table.encode_lookups"),
    );
    v.insert(
        "engine.pool_utilisation",
        ratio("engine.pool_busy", "engine.pool_capacity"),
    );
    for (metric, tester) in [
        ("citest.gtest_us_per_test", "gtest"),
        ("citest.fisherz_us_per_test", "fisherz"),
        ("citest.oracle_us_per_test", "oracle"),
    ] {
        let wall = format!("citest.{tester}.wall");
        let issued = format!("citest.{tester}.issued");
        v.insert(metric, ratio(&wall, &issued) * 1e3);
    }
    if v["core.select_ms"] > 0.0 {
        v.insert(
            "core.planner_ms",
            v["core.select_ms"] - v["engine.ci_wall_ms"],
        );
    }
    if w == Workload::WarmServe {
        v.insert(
            "server.wire_ms",
            v["server.round_trip_ms"] - v["server.handler_ms"] - v["server.queue_wait_ms"],
        );
    }
    let claimed: f64 = w
        .ledger()
        .iter()
        .map(|layer| v[format!("{layer}_ms").as_str()])
        .sum();
    v.insert("unattributed_ms", l.mean("op") - claimed);
    v.insert("obs.peak_rss_mb", peak_rss_mb());
    v.insert("obs.traced_ops", l.ops as f64);
    let of = |traced: bool| -> Vec<f64> {
        r.log
            .ops
            .iter()
            .filter(|o| o.traced == traced)
            .map(|o| o.ms)
            .collect()
    };
    let (on, off) = (median(&of(true)), median(&of(false)));
    v.insert(
        "obs.trace_overhead_pct",
        if off > 0.0 {
            (on - off) / off * 100.0
        } else {
            0.0
        },
    );
    v
}

/// The result line: the metrics of `table`, in its order.
fn result_json(r: &RunResult, values: &BTreeMap<&str, f64>, table: &[(&str, &str)]) -> String {
    let failed = r.log.ops.iter().filter(|o| !o.ok).count();
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .filter(|x| x.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        r.log.ops.len(),
        metrics.join(",")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
            eprintln!(
                "fairsel-perfbench: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
        workers: fairsel_engine::default_workers(),
        setup_reps: 3,
        corrupt_reference: false,
    };
    let w = args.workload;
    let r = w.run(false, &opts);
    let (values, table) = if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        if let Err(e) = spans::write_spans(&path, w.name(), &r.log.spans) {
            eprintln!("writing {}: {e}", path.display());
        }
        (per_layer(w, &r), PER_LAYER)
    } else {
        (end_to_end(&r), END_TO_END)
    };
    for (name, unit) in table {
        eprintln!(
            "{:<28} {:>14.4} {unit}",
            name,
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", result_json(&r, &values, table));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod selftest;
