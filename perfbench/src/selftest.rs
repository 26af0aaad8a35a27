//! The benchmark's self-test, at tiny sizes:
//! * the metric tables match `BENCHMARK.json`, and every run prints every
//!   metric by name with its unit;
//! * counts (`ci_tests_per_select`, engine and memo-ledger counters)
//!   repeat exactly across two runs;
//! * a deliberately corrupted reference is caught as a failed op.

use super::*;
use fairsel_server::Json;

fn opts(trace: bool, corrupt_reference: bool) -> RunOpts {
    RunOpts {
        seed: 7,
        budget: Budget::Ops(4),
        trace,
        workers: 2,
        setup_reps: 1,
        corrupt_reference,
    }
}

fn spec() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = spec.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get_str("name").expect("metric name").to_owned(),
                m.get_str("unit").expect("metric unit").to_owned(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let spec = spec();
    assert_eq!(names_and_units(&spec, "end_to_end"), owned(END_TO_END));
    assert_eq!(names_and_units(&spec, "per_layer"), owned(PER_LAYER));
    let Some(Json::Arr(workloads)) = spec.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let listed: Vec<&str> = workloads.iter().filter_map(|w| w.get_str("name")).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = w.run(true, &opts(trace, false));
            let (values, table) = if trace {
                (per_layer(w, &r), PER_LAYER)
            } else {
                (end_to_end(&r), END_TO_END)
            };
            let line = result_json(&r, &values, table);
            let out = Json::parse(&line).expect("the result line is JSON");
            assert_eq!(out.get_bool("correct"), Some(true), "{} {line}", w.name());
            assert_eq!(out.get_u64("failed"), Some(0), "{}", w.name());
            assert!(out.get_u64("attempted").unwrap_or(0) >= 1, "{}", w.name());
            let metrics = out.get("metrics").expect("metrics object");
            let Json::Obj(printed) = metrics else {
                panic!("metrics is not an object");
            };
            assert_eq!(
                printed.len(),
                table.len(),
                "{}: extra or missing metrics",
                w.name()
            );
            for (name, unit) in table {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
                assert!(m.get_num("value").is_some_and(f64::is_finite), "{name}");
                assert_eq!(m.get_str("unit"), Some(*unit), "{name}");
            }
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(values[name] > 0.0, "{}: {name} reads 0", w.name());
                }
            }
        }
    }
}

#[test]
fn counts_repeat_exactly() {
    let counters = [
        "engine.issued",
        "engine.cache_hits",
        "engine.memo_patched",
        "engine.memo_invalidated",
        "server.warm_children",
        "table.encode_lookups",
    ];
    for w in WORKLOADS {
        let runs: Vec<RunResult> = (0..2).map(|_| w.run(true, &opts(true, false))).collect();
        let requested = |r: &RunResult| {
            let mut v: Vec<(u64, u64)> = r.log.ops.iter().map(|o| (o.id, o.requested)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(requested(&runs[0]), requested(&runs[1]), "{}", w.name());
        let (a, b) = (per_layer(w, &runs[0]), per_layer(w, &runs[1]));
        for name in counters {
            assert_eq!(a[name], b[name], "{}: {name} differs", w.name());
        }
        if w == Workload::AppendStream {
            assert!(a["engine.memo_patched"] > 0.0, "children are born warm");
        }
    }
}

#[test]
fn corrupted_reference_is_a_failed_op() {
    for w in WORKLOADS {
        let r = w.run(true, &opts(false, true));
        let line = result_json(&r, &end_to_end(&r), END_TO_END);
        let out = Json::parse(&line).expect("the result line is JSON");
        assert_eq!(out.get_bool("correct"), Some(false), "{}", w.name());
        assert!(out.get_u64("failed").unwrap_or(0) >= 1, "{}", w.name());
    }
}
