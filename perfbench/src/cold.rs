//! `cold-gtest` / `cold-fisherz`: one caller in a closed loop turns the
//! CSV text of a dataset, drawn round-robin from a pool, into a report
//! with a fresh session — what `fairsel select --max-group auto
//! --classifier nb` does locally. CI tester kernels, encoding and the
//! engine pool do most of the work; the classifier does almost none.

use crate::inputs;
use crate::pipeline::{self, Tester};
use crate::spans::Tracer;
use crate::stats::{self, timed, Log, Op, RunResult};
use crate::RunOpts;
use fairsel_core::ClassifierKind;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Datasets in the rotating pool.
    pub pool: usize,
    pub features: usize,
    pub rows: usize,
}

pub const FULL: Sizes = Sizes {
    pool: 8,
    features: 32,
    rows: 20_000,
};

pub const TINY: Sizes = Sizes {
    pool: 2,
    features: 8,
    rows: 600,
};

/// The layers that partition a cold op's wall time.
pub const LEDGER: &[&str] = &[
    "table.csv_parse",
    "table.split",
    "table.encode",
    "core.select",
    "ml.featurize",
    "ml.fit",
    "ml.predict",
    "ml.metrics",
    "core.render",
];

pub fn run(tester: Tester, sizes: Sizes, opts: &RunOpts) -> RunResult {
    let purpose = match tester {
        Tester::GTest => 1,
        Tester::FisherZ => 2,
    };
    let workers = opts.workers;
    let set_up = || -> Vec<String> {
        let pool: Vec<String> = (0..sizes.pool)
            .map(|i| inputs::dataset_csv(opts.seed, purpose, i as u64, sizes.features, sizes.rows))
            .collect();
        // Warm-up: one select, so thread and allocator start-up is not
        // charged to the first timed op.
        pipeline::select(&pool[0], tester, ClassifierKind::NaiveBayes, workers);
        pool
    };
    let (pool, setup_s, setup_rss_mb) = stats::set_up(opts.setup_reps, set_up, drop);

    // References, outside the timed phase: the same select at workers = 1.
    let mut refs: Vec<String> = pool
        .iter()
        .map(|text| pipeline::select(text, tester, ClassifierKind::NaiveBayes, 1).report)
        .collect();
    if opts.corrupt_reference {
        refs[0].push('!');
    }

    let mut log = Log::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let (wall_key, issued_key) = match tester {
        Tester::GTest => ("citest.gtest.wall", "citest.gtest.issued"),
        Tester::FisherZ => ("citest.fisherz.wall", "citest.fisherz.issued"),
    };
    let start = Instant::now();
    let mut i = 0u64;
    while opts.budget.more(start.elapsed(), i) {
        let k = (i / 2) as usize % pool.len();
        let traced = opts.trace && i % 2 == 1;
        let text = &pool[k];
        let (sel, ms) = if traced {
            tracer.begin_op(i, true, "op");
            let out = timed(|| {
                pipeline::select_traced(
                    &mut tracer,
                    text,
                    tester,
                    ClassifierKind::NaiveBayes,
                    workers,
                )
            });
            let spans = tracer.end_op();
            log.layers.add_op(spans, out.1);
            let select_ms: f64 = spans
                .iter()
                .filter(|s| s.name == "core.select")
                .map(|s| s.ms())
                .sum();
            let e = &out.0.engine;
            let l = &mut log.layers;
            l.add("engine.issued", e.issued as f64);
            l.add("engine.cache_hits", e.cache_hits as f64);
            l.add("table.encode_hits", e.encode_cache_hits as f64);
            l.add(
                "table.encode_lookups",
                (e.encode_cache_hits + e.encode_cache_misses) as f64,
            );
            l.add("engine.pool_busy", out.0.pool_busy_us as f64 / 1e3);
            l.add("engine.pool_capacity", select_ms * workers as f64);
            l.add(wall_key, e.wall_ms);
            l.add(issued_key, e.issued as f64);
            out
        } else {
            timed(|| pipeline::select(text, tester, ClassifierKind::NaiveBayes, workers))
        };
        log.push(Op {
            id: i,
            ms,
            requested: sel.engine.requested,
            traced,
            ok: sel.report == refs[k],
        });
        i += 1;
    }
    let timed_s = start.elapsed().as_secs_f64();
    log.spans = tracer.into_spans();
    RunResult {
        setup_s,
        setup_rss_mb,
        timed_s,
        log,
    }
}
