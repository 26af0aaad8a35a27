//! The two workloads that go through an in-process `fairsel_server`
//! bound on `127.0.0.1:0`, as `fairsel select --remote` and
//! `fairsel append` reach it.
//!
//! * `warm-serve`: `clients` callers in a closed loop select, by
//!   fingerprint, datasets the server already holds warm. No CI test is
//!   issued, so client parse and fingerprint, the server and the `ml`
//!   fit do the work.
//! * `append-stream`: one caller appends a 256-row batch to the head of
//!   a chain and re-selects on the child. Chains run past the registry's
//!   16 slots, so warm-child birth, sufficient-statistic patching and
//!   LRU eviction all take part.

use crate::inputs;
use crate::pipeline::{self, Tester, SPLIT_SEED, TRAIN_FRAC};
use crate::spans::{Layers, Tracer};
use crate::stats::{self, timed, Log, Op, RunResult};
use crate::RunOpts;
use fairsel_core::{ClassifierKind, PipelineConfig, PipelineResult, Problem};
use fairsel_engine::CiSession;
use fairsel_server::{
    append_rows, fingerprint_table, put_dataset, request, request_raw, DatasetRef, Json,
    MaxGroupSpec, Request, Response, ServeConfig, Server, ServerHandle, WorkloadRequest,
};
use fairsel_table::{csv, EncodedTable, Table, DEFAULT_CACHE_CAP};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn start_server() -> (ServerHandle, String) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let handle = server.spawn();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn put(addr: &str, table: &Table) -> u64 {
    match put_dataset(addr, &fairsel_table::encode_table(table)).expect("put reaches the server") {
        Response::Ok { body, .. } => parse_fp(&body).expect("put answers a fingerprint"),
        other => panic!("put failed: {other:?}"),
    }
}

fn parse_fp(body: &str) -> Option<u64> {
    u64::from_str_radix(body.trim(), 16).ok()
}

/// The fp-addressed select frame `fairsel select --remote` sends.
fn select_payload(fp: u64, classifier: &str, workers: usize) -> String {
    Request::Select(WorkloadRequest {
        dataset: DatasetRef::Fp(fp),
        algo: "grpsel".into(),
        tester: Tester::GTest.name().into(),
        alpha: pipeline::ALPHA,
        workers,
        max_group: MaxGroupSpec::Auto,
        speculate: false,
        train_frac: TRAIN_FRAC,
        seed: SPLIT_SEED,
        classifier: classifier.into(),
    })
    .to_json()
    .to_string()
}

/// Frame size of a response as the server wrote it.
fn frame_bytes(resp: &Response) -> f64 {
    (resp.to_json().to_string().len() + 4) as f64
}

fn server_stats(addr: &str) -> Json {
    match request(addr, &Request::Stats).expect("stats reaches the server") {
        Response::Ok { stats: Some(s), .. } => s,
        other => panic!("stats failed: {other:?}"),
    }
}

/// `(sum_us, count)` of one of the server's latency histograms.
fn hist(stats: &Json, name: &str) -> (f64, f64) {
    let h = stats.get("histograms").and_then(|h| h.get(name));
    let field = |k: &str| h.and_then(|h| h.get_num(k)).unwrap_or(0.0);
    (field("sum_us"), field("count"))
}

/// Mean of a histogram over the interval between two stats snapshots, ms.
fn hist_mean_ms(before: &Json, after: &Json, name: &str) -> f64 {
    let (s0, c0) = hist(before, name);
    let (s1, c1) = hist(after, name);
    if c1 > c0 {
        (s1 - s0) / (c1 - c0) / 1e3
    } else {
        0.0
    }
}

fn num(stats: &Json, key: &str) -> f64 {
    stats.get_num(key).unwrap_or(0.0)
}

// ---------------------------------------------------------------- warm

#[derive(Clone, Copy, Debug)]
pub struct WarmSizes {
    pub datasets: usize,
    pub features: usize,
    pub rows: usize,
}

pub const WARM_FULL: WarmSizes = WarmSizes {
    datasets: 16,
    features: 32,
    rows: 8_000,
};

/// Replays per dataset in a traced run (see `warm`).
const REPLAYS: usize = 4;

pub const WARM_TINY: WarmSizes = WarmSizes {
    datasets: 2,
    features: 8,
    rows: 600,
};

/// Layers that partition a warm op's wall time. `server.wire` is the
/// round trip less the server's handler and queue time; the handler is
/// represented by the in-process replay of its layers.
pub const WARM_LEDGER: &[&str] = &[
    "table.csv_parse",
    "server.fingerprint",
    "server.wire",
    "server.queue_wait",
    "core.select",
    "ml.featurize",
    "ml.fit",
    "ml.predict",
    "ml.metrics",
    "core.render",
];

/// A dataset's warm local state, for replaying the server's layers.
struct Replay {
    train: Table,
    test: Table,
    problem: Problem,
    cfg: PipelineConfig,
    session: CiSession<Box<dyn fairsel_ci::CiTestBatch + Send + Sync>>,
}

impl Replay {
    fn new(text: &str, workers: usize) -> Replay {
        let table = csv::from_csv_string(text).expect("generated CSV parses");
        let (train, test) = pipeline::split(&table);
        let cfg = pipeline::config(ClassifierKind::Logistic, workers, train.n_rows());
        let enc = Arc::new(EncodedTable::from_arc_with_cap(
            Arc::new(train.clone()),
            DEFAULT_CACHE_CAP,
        ));
        let tester: Box<dyn fairsel_ci::CiTestBatch + Send + Sync> =
            Box::new(fairsel_ci::GTest::over(enc, pipeline::ALPHA));
        let mut replay = Replay {
            problem: Problem::from_table(&train),
            train,
            test,
            cfg,
            session: CiSession::new(tester),
        };
        let mut off = Tracer::new(Instant::now(), 0);
        replay.run(&mut off);
        replay
    }

    /// What `Registry::select` does for a warm session, one span per
    /// layer; returns the rendered report.
    fn run(&mut self, t: &mut Tracer) -> String {
        let (selection, engine) =
            pipeline::select_in(t, &mut self.session, &self.problem, &self.cfg);
        let model_cols = pipeline::model_columns(&self.problem, &selection.selected());
        let report = pipeline::score(
            t,
            &self.train,
            &self.test,
            &self.problem,
            &model_cols,
            &self.cfg,
        );
        let out = PipelineResult {
            selection,
            model_cols,
            report,
            engine,
        };
        t.time("core.render", || {
            fairsel_core::render_pipeline_report(&out, &self.train, &self.cfg, self.test.n_rows())
        })
    }
}

/// Cumulative engine counters of one dataset's server session, as of
/// the response with the most sessions served.
#[derive(Clone, Copy, Default)]
struct Served {
    served: u64,
    requested: f64,
    issued: f64,
    hits: f64,
}

impl Served {
    fn of(stats: &Json, served: u64) -> Served {
        Served {
            served,
            requested: num(stats, "requested"),
            issued: num(stats, "issued"),
            hits: num(stats, "cache_hits"),
        }
    }
}

pub fn warm(sizes: WarmSizes, clients: usize, opts: &RunOpts) -> RunResult {
    let workers = opts.workers;
    let set_up = || {
        let texts: Vec<String> = (0..sizes.datasets)
            .map(|i| inputs::dataset_csv(opts.seed, 3, i as u64, sizes.features, sizes.rows))
            .collect();
        let (handle, addr) = start_server();
        let mut warmed = Vec::new();
        for text in &texts {
            let table = csv::from_csv_string(text).expect("generated CSV parses");
            let fp = put(&addr, &table);
            let payload = select_payload(fp, "logistic", workers);
            match request_raw(&addr, payload.as_bytes()).expect("warm-up select") {
                Response::Ok {
                    stats: Some(s),
                    cache: Some(c),
                    ..
                } => warmed.push(Served::of(&s, c.sessions_served)),
                other => panic!("warm-up select failed: {other:?}"),
            }
        }
        (texts, handle, addr, warmed)
    };
    let ((texts, handle, addr, warmed), setup_s, setup_rss_mb) =
        stats::set_up(opts.setup_reps, set_up, |s| s.1.shutdown());

    // References, outside the timed phase: the local pipeline's report.
    let mut refs: Vec<String> = texts
        .iter()
        .map(|t| pipeline::select(t, Tester::GTest, ClassifierKind::Logistic, workers).report)
        .collect();
    if opts.corrupt_reference {
        refs[0].push('!');
    }
    let last_served: Mutex<Vec<Served>> = Mutex::new(warmed.clone());

    let before = server_stats(&addr);
    let start = Instant::now();
    // Each client returns its log and the (op id, dataset) of its traced
    // ops, whose server-side layers are replayed after the timed phase.
    let client = |c: usize| -> (Log, Vec<(u64, usize)>) {
        let mut log = Log::default();
        let mut replay = Vec::new();
        let mut tracer = Tracer::new(start, c as u64);
        let mut i = 0u64;
        while opts.budget.more(start.elapsed(), i) {
            let k = ((i / 2) as usize * clients + c) % texts.len();
            let traced = opts.trace && i % 2 == 1;
            let id = i * clients as u64 + c as u64;
            tracer.begin_op(id, traced, "op");
            let (resp, ms) = timed(|| {
                let table = tracer.time("table.csv_parse", || {
                    csv::from_csv_string(&texts[k]).expect("generated CSV parses")
                });
                let fp = tracer.time("server.fingerprint", || fingerprint_table(&table));
                tracer.time("server.round_trip", || {
                    let payload = select_payload(fp, "logistic", workers);
                    let resp = request_raw(&addr, payload.as_bytes());
                    (resp, payload.len())
                })
            });
            let (resp, req_len) = resp;
            let mut op = Op {
                id,
                ms,
                requested: 0,
                traced,
                ok: false,
            };
            if let Ok(Response::Ok {
                body,
                stats: Some(s),
                cache: Some(cache),
            }) = &resp
            {
                let served = Served::of(s, cache.sessions_served);
                op.requested = (served.requested / served.served.max(1) as f64).round() as u64;
                op.ok = *body == refs[k];
                let mut last = last_served.lock().expect("no client panics holding it");
                if served.served > last[k].served {
                    last[k] = served;
                }
            }
            if traced {
                let l = &mut log.layers;
                l.add_op(tracer.end_op(), ms);
                l.add("server.req_bytes", (req_len + 4) as f64);
                if let Ok(r) = &resp {
                    l.add("server.resp_bytes", frame_bytes(r));
                }
                replay.push((id, k));
            }
            log.push(op);
            i += 1;
        }
        log.spans = tracer.into_spans();
        (log, replay)
    };
    let mut log = Log::default();
    let mut replay = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client(c))).collect();
        for h in handles {
            let (l, r) = h.join().expect("client thread");
            log.merge(l);
            replay.extend(r);
        }
    });
    let timed_s = start.elapsed().as_secs_f64();
    let after = server_stats(&addr);
    handle.shutdown();

    if opts.trace {
        // The handler's layers, replayed in-process on the same inputs
        // through the same public calls. The first `REPLAYS` traced ops
        // of each dataset are replayed, and every traced op of that
        // dataset is charged their mean. A replayed report that differs
        // from the reference fails its op.
        let mut states: Vec<Replay> = texts.iter().map(|t| Replay::new(t, workers)).collect();
        let mut tracer = Tracer::new(start, clients as u64);
        for (k, state) in states.iter_mut().enumerate() {
            let ops: Vec<u64> = replay.iter().filter(|r| r.1 == k).map(|r| r.0).collect();
            let mut sums = Layers::default();
            for &id in ops.iter().take(REPLAYS) {
                tracer.begin_op(id, true, "server.replay");
                let replayed = state.run(&mut tracer);
                sums.ops += 1;
                for s in tracer.end_op().iter().filter(|s| s.parent != 0) {
                    sums.add(s.name, s.ms());
                }
                if replayed != refs[k] {
                    eprintln!("replay of op {id} differs from the reference");
                    if let Some(op) = log.ops.iter_mut().find(|o| o.id == id) {
                        op.ok = false;
                    }
                }
            }
            for name in WARM_LEDGER.iter().chain(&["engine.ci_wall"]) {
                log.layers.add(name, sums.mean(name) * ops.len() as f64);
            }
        }
        log.spans.extend(tracer.into_spans());
        let l = &mut log.layers;
        set_mean(
            l,
            "server.handler",
            hist_mean_ms(&before, &after, "request_wall/select"),
        );
        set_mean(
            l,
            "server.queue_wait",
            hist_mean_ms(&before, &after, "queue_wait"),
        );
        // Server-side engine work per select, from the sessions' own
        // cumulative counters (the in-process replay issues none either).
        let last = last_served.into_inner().expect("clients joined");
        let (mut selects, mut issued, mut hits) = (0.0, 0.0, 0.0);
        for (w, l) in warmed.iter().zip(&last) {
            selects += (l.served - w.served) as f64;
            issued += l.issued - w.issued;
            hits += l.hits - w.hits;
        }
        if selects > 0.0 {
            set_mean(l, "engine.issued", issued / selects);
            set_mean(l, "engine.cache_hits", hits / selects);
        }
    }
    RunResult {
        setup_s,
        setup_rss_mb,
        timed_s,
        log,
    }
}

/// Record a run-wide mean as a layer (stored so `Layers::mean` returns it).
fn set_mean(l: &mut Layers, name: &'static str, mean: f64) {
    let cur = l.sum(name);
    l.add(name, mean * l.ops as f64 - cur);
}

// -------------------------------------------------------------- append

#[derive(Clone, Copy, Debug)]
pub struct AppendSizes {
    /// Base datasets; chains cycle through them.
    pub bases: usize,
    pub features: usize,
    pub base_rows: usize,
    pub batch_rows: usize,
    /// Appends per chain before the next chain starts from a base.
    pub chain: usize,
}

pub const APPEND_FULL: AppendSizes = AppendSizes {
    bases: 6,
    features: 32,
    base_rows: 16_000,
    batch_rows: 256,
    chain: 18,
};

pub const APPEND_TINY: AppendSizes = AppendSizes {
    bases: 2,
    features: 8,
    base_rows: 600,
    batch_rows: 64,
    chain: 3,
};

/// Layers that partition an append op's wall time: the select round
/// trip is represented by the server's own session-build span and the
/// engine's tester wall time, so what else the select costs shows as
/// unattributed.
pub const APPEND_LEDGER: &[&str] = &[
    "table.codec",
    "server.append",
    "server.session_build",
    "engine.ci_wall",
];

struct Stream {
    base: Table,
    batches: Vec<Table>,
}

pub fn append(sizes: AppendSizes, opts: &RunOpts) -> RunResult {
    let workers = opts.workers;
    let set_up = || {
        let streams: Vec<Stream> = (0..sizes.bases)
            .map(|b| {
                let (model, mut r) = inputs::corpus_model(opts.seed, 5, b as u64, sizes.features);
                let base = model.sample(&mut r, sizes.base_rows);
                let batches = (0..sizes.chain)
                    .map(|_| model.sample(&mut r, sizes.batch_rows))
                    .collect();
                Stream { base, batches }
            })
            .collect();
        let (handle, addr) = start_server();
        let head = start_chain(&addr, &streams[0].base, workers);
        (streams, handle, addr, head)
    };
    let ((streams, handle, addr, mut head), setup_s, setup_rss_mb) =
        stats::set_up(opts.setup_reps, set_up, |s| s.1.shutdown());

    let mut log = Log::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    // Each op's (chain base, position), report and ledger verdict; the
    // reports are checked after the timed phase.
    let mut done: Vec<(usize, usize, String, u64)> = Vec::new();
    let mut server_spans: BTreeMap<u64, (String, u64, f64)> = BTreeMap::new();
    let before = server_stats(&addr);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let (mut base, mut pos) = (0usize, 0usize);
    let mut i = 0u64;
    while opts.budget.more(start.elapsed() - paused, i) {
        if pos == sizes.chain {
            // Next chain: not part of any op, so off the clock.
            let t0 = Instant::now();
            base = (base + 1) % streams.len();
            head = start_chain(&addr, &streams[base].base, workers);
            pos = 0;
            paused += t0.elapsed();
            continue;
        }
        let traced = opts.trace && i % 2 == 1;
        let batch = &streams[base].batches[pos];
        tracer.begin_op(i, traced, "op");
        let ((appended, selected), ms) = timed(|| {
            let bytes = tracer.time("table.codec", || fairsel_table::encode_row_batch(batch));
            let appended = tracer.time("server.append", || append_rows(&addr, head, &bytes));
            let child = match &appended {
                Ok(Response::Ok { body, .. }) => parse_fp(body),
                _ => None,
            };
            let selected = child.map(|fp| {
                tracer.time("server.round_trip", || {
                    let payload = select_payload(fp, "nb", workers);
                    (
                        fp,
                        request_raw(&addr, payload.as_bytes()),
                        payload.len(),
                        bytes.len(),
                    )
                })
            });
            (appended, selected)
        });
        let spans = tracer.end_op().to_vec();
        let mut op = Op {
            id: i,
            ms,
            requested: 0,
            traced,
            ok: false,
        };
        let mut report = (String::new(), 0);
        if let Some((
            fp,
            Ok(Response::Ok {
                body,
                stats: Some(s),
                ..
            }),
            req_len,
            batch_len,
        )) = &selected
        {
            op.requested = num(s, "requested") as u64;
            let (patched, invalidated) = (num(s, "memo_patched"), num(s, "memo_invalidated"));
            op.ok = patched + invalidated == num(s, "memoized_before");
            report = (body.clone(), *fp);
            head = *fp;
            if traced {
                let l = &mut log.layers;
                l.add_op(&spans, ms);
                l.add("engine.issued", num(s, "issued"));
                l.add("engine.cache_hits", num(s, "cache_hits"));
                l.add("engine.ci_wall", num(s, "wall_ms"));
                l.add("engine.memo_patched", patched);
                l.add("engine.memo_invalidated", invalidated);
                l.add("citest.gtest.wall", num(s, "wall_ms"));
                l.add("citest.gtest.issued", num(s, "issued"));
                let append_req = Request::Append { fp: 0 }.to_json().to_string().len() + 4;
                l.add(
                    "server.req_bytes",
                    (append_req + batch_len + 4 + req_len + 4) as f64,
                );
                if let (Ok(a), Some((_, Ok(r), ..))) = (&appended, &selected) {
                    l.add("server.resp_bytes", frame_bytes(a) + frame_bytes(r));
                }
            }
        }
        if traced {
            fetch_spans(&addr, &mut server_spans);
        }
        done.push((base, pos, report.0, report.1));
        log.push(op);
        pos += 1;
        i += 1;
    }
    let timed_s = (start.elapsed() - paused).as_secs_f64();
    let after = server_stats(&addr);
    if opts.trace {
        fetch_spans(&addr, &mut server_spans);
    }
    handle.shutdown();

    // References, outside the timed phase: a local cold run on each
    // concatenated table the chains reached.
    let mut jobs: Vec<((usize, usize), Table)> = Vec::new();
    for (b, stream) in streams.iter().enumerate() {
        let reached = done.iter().filter(|d| d.0 == b).map(|d| d.1 + 1).max();
        let mut table = stream.base.clone();
        for (p, batch) in stream.batches.iter().enumerate().take(reached.unwrap_or(0)) {
            table = table.concat(batch).expect("batches share the schema");
            jobs.push(((b, p), table.clone()));
        }
    }
    let mut refs: HashMap<(usize, usize), String> = HashMap::new();
    let per_thread = jobs.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(per_thread)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|(key, table)| {
                            let (train, test) = pipeline::split(table);
                            let sel = pipeline::select_table(
                                &train,
                                &test,
                                Tester::GTest,
                                ClassifierKind::NaiveBayes,
                                1,
                            );
                            (*key, sel.report)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            refs.extend(h.join().expect("reference thread"));
        }
    });
    if opts.corrupt_reference {
        if let Some(r) = refs.get_mut(&(0, 0)) {
            r.push('!');
        }
    }
    for (op, (b, p, report, _)) in log.ops.iter_mut().zip(&done) {
        if refs.get(&(*b, *p)) != Some(report) {
            if op.ok {
                eprintln!("append op at chain {b} position {p}: report differs from a cold run");
            }
            op.ok = false;
        }
    }

    if opts.trace {
        let l = &mut log.layers;
        let ops = log.ops.len().max(1) as f64;
        set_mean(
            l,
            "server.evictions",
            (num(&after, "dataset_evictions") - num(&before, "dataset_evictions")) / ops,
        );
        set_mean(
            l,
            "server.warm_children",
            (num(&after, "warm_children") - num(&before, "warm_children")) / ops,
        );
        // The server's own session spans, matched to ops by child
        // fingerprint (each child session is built exactly once).
        let (mut build, mut warm) = (0.0, 0.0);
        let traced: HashSet<u64> = log
            .ops
            .iter()
            .zip(&done)
            .filter(|(o, _)| o.traced)
            .map(|(_, d)| d.3)
            .collect();
        for (name, fp, ms) in server_spans.values() {
            if traced.contains(fp) {
                match name.as_str() {
                    "session.build" => build += ms,
                    "session.warm_child" => warm += ms,
                    _ => {}
                }
            }
        }
        set_mean(l, "server.session_build", build / l.ops.max(1) as f64);
        set_mean(l, "server.warm_child", warm / l.ops.max(1) as f64);
    }
    log.spans = tracer.into_spans();
    RunResult {
        setup_s,
        setup_rss_mb,
        timed_s,
        log,
    }
}

/// Upload a chain's base and answer it once, so the chain appends into
/// a warm session; returns its fingerprint.
fn start_chain(addr: &str, base: &Table, workers: usize) -> u64 {
    let fp = put(addr, base);
    let payload = select_payload(fp, "nb", workers);
    match request_raw(addr, payload.as_bytes()).expect("chain warm-up select") {
        Response::Ok { .. } => fp,
        other => panic!("chain warm-up select failed: {other:?}"),
    }
}

/// Collect the server's session spans still in its trace ring, keyed by
/// span id: `(name, dataset fingerprint, ms)`.
fn fetch_spans(addr: &str, into: &mut BTreeMap<u64, (String, u64, f64)>) {
    let resp = request(addr, &Request::Trace { last: 1024 }).expect("trace reaches the server");
    let Response::Ok { stats: Some(s), .. } = resp else {
        return;
    };
    let Some(Json::Arr(spans)) = s.get("spans") else {
        return;
    };
    for sp in spans {
        let span = || {
            let name = sp.get_str("name")?;
            let fp = sp.get("kv")?.get_str("fingerprint").and_then(parse_fp)?;
            Some((
                sp.get_u64("id")?,
                (name.to_owned(), fp, sp.get_num("dur_us")? / 1e3),
            ))
        };
        if let Some((id, v)) = span() {
            into.insert(id, v);
        }
    }
}
