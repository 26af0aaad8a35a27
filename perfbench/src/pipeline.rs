//! The local `fairsel select` path, as the CLI runs it: CSV text in,
//! rendered report out. The untraced form calls `run_pipeline_batched`;
//! the traced form calls the same public functions that entry point is
//! built from, one span each, and must render the same bytes.

use crate::spans::Tracer;
use fairsel_ci::{CiTestBatch, FisherZ, GTest};
use fairsel_core::{
    grpsel_batched_in, render_pipeline_report, run_pipeline_batched, ClassifierKind,
    PipelineConfig, PipelineResult, Problem, SelectConfig, SelectionAlgo,
};
use fairsel_engine::{CiSession, EngineStats};
use fairsel_ml::{Classifier, FairnessReport, Featurizer, LogisticRegression, NaiveBayes};
use fairsel_table::{csv, ColId, EncodedTable, Table, DEFAULT_CACHE_CAP};
use std::sync::Arc;

/// Significance level of the data testers (the CLI default).
pub const ALPHA: f64 = 0.01;
/// Train share of the row-stable split (the CLI default).
pub const TRAIN_FRAC: f64 = 0.7;
/// Split / GrpSel partition / model seed (the CLI default).
pub const SPLIT_SEED: u64 = 0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tester {
    GTest,
    FisherZ,
}

impl Tester {
    pub fn name(self) -> &'static str {
        match self {
            Tester::GTest => "gtest",
            Tester::FisherZ => "fisherz",
        }
    }

    fn over(self, enc: Arc<EncodedTable>) -> Box<dyn CiTestBatch + Send + Sync> {
        match self {
            Tester::GTest => Box::new(GTest::over(enc, ALPHA)),
            Tester::FisherZ => Box::new(FisherZ::over(enc, ALPHA)),
        }
    }
}

/// The pipeline config `fairsel select --max-group auto` builds.
pub fn config(classifier: ClassifierKind, workers: usize, train_rows: usize) -> PipelineConfig {
    PipelineConfig {
        select: SelectConfig {
            max_group: Some(SelectConfig::auto_max_group(train_rows)),
            ..SelectConfig::default()
        },
        algo: SelectionAlgo::GrpSel {
            seed: Some(SPLIT_SEED),
        },
        classifier,
        workers,
        model_seed: SPLIT_SEED,
    }
}

/// What a local select returns to the benchmark.
pub struct Selected {
    pub report: String,
    pub engine: EngineStats,
    /// Growth of the process-wide worker-pool busy counter, in µs.
    pub pool_busy_us: u64,
}

fn pool_busy_us() -> u64 {
    fairsel_obs::counter("engine_pool_busy_us").get()
}

/// Split a parsed table the way the CLI and the server registry do.
pub fn split(table: &Table) -> (Table, Table) {
    let s = table.split_rows_stable(SPLIT_SEED, TRAIN_FRAC);
    (s.train, s.test)
}

/// `fairsel select` on CSV text, through `run_pipeline_batched`.
pub fn select(text: &str, tester: Tester, classifier: ClassifierKind, workers: usize) -> Selected {
    let table = csv::from_csv_string(text).expect("generated CSV parses");
    let (train, test) = split(&table);
    select_table(&train, &test, tester, classifier, workers)
}

/// The untraced select on an already split table.
pub fn select_table(
    train: &Table,
    test: &Table,
    tester: Tester,
    classifier: ClassifierKind,
    workers: usize,
) -> Selected {
    let cfg = config(classifier, workers, train.n_rows());
    let enc = Arc::new(EncodedTable::from_arc_with_cap(
        Arc::new(train.clone()),
        DEFAULT_CACHE_CAP,
    ));
    let busy0 = pool_busy_us();
    let out = run_pipeline_batched(tester.over(enc), train, test, &cfg);
    let pool_busy_us = pool_busy_us() - busy0;
    Selected {
        report: render_pipeline_report(&out, train, &cfg, test.n_rows()),
        engine: out.engine,
        pool_busy_us,
    }
}

/// The same select, decomposed into its public calls with one span each:
/// `table.csv_parse`, `table.split`, `table.encode`, `core.select` (with
/// `engine.ci_wall` inside), the `ml.*` layers and `core.render`.
pub fn select_traced(
    t: &mut Tracer,
    text: &str,
    tester: Tester,
    classifier: ClassifierKind,
    workers: usize,
) -> Selected {
    let table = t.time("table.csv_parse", || {
        csv::from_csv_string(text).expect("generated CSV parses")
    });
    let (train, test) = t.time("table.split", || split(&table));
    let cfg = config(classifier, workers, train.n_rows());
    let mut session = t.time("table.encode", || {
        let enc = Arc::new(EncodedTable::from_arc_with_cap(
            Arc::new(train.clone()),
            DEFAULT_CACHE_CAP,
        ));
        CiSession::new(tester.over(enc))
    });
    let busy0 = pool_busy_us();
    let problem = Problem::from_table(&train);
    let (selection, engine) = select_in(t, &mut session, &problem, &cfg);
    let pool_busy_us = pool_busy_us() - busy0;
    let model_cols = model_columns(&problem, &selection.selected());
    let report = score(t, &train, &test, &problem, &model_cols, &cfg);
    let out = PipelineResult {
        selection,
        model_cols,
        report,
        engine,
    };
    let report = t.time("core.render", || {
        render_pipeline_report(&out, &train, &cfg, test.n_rows())
    });
    Selected {
        report,
        engine: out.engine,
        pool_busy_us,
    }
}

/// `grpsel_batched_in` under a `core.select` span; the session's tester
/// wall time is recorded inside it as `engine.ci_wall`. Returns the
/// selection and this call's engine stats.
pub fn select_in<T: CiTestBatch>(
    t: &mut Tracer,
    session: &mut CiSession<T>,
    problem: &Problem,
    cfg: &PipelineConfig,
) -> (fairsel_core::Selection, EngineStats) {
    let before = session.stats().clone();
    t.open("core.select");
    let seed = match cfg.algo {
        SelectionAlgo::GrpSel { seed } => seed,
        SelectionAlgo::SeqSel => None,
    };
    let selection = grpsel_batched_in(session, problem, &cfg.select, seed, cfg.workers.max(1));
    session.refresh_encode_stats();
    let engine = session.stats().clone();
    t.record("engine.ci_wall", engine.wall_ms - before.wall_ms);
    t.close();
    (selection, engine)
}

/// Admissible ∪ selected, ascending: the columns the model trains on.
pub fn model_columns(problem: &Problem, selected: &[ColId]) -> Vec<ColId> {
    let mut cols = problem.admissible.clone();
    cols.extend(selected);
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Featurize, fit, predict and score, one span per `ml` layer — the
/// calls the pipeline makes after selection.
pub fn score(
    t: &mut Tracer,
    train: &Table,
    test: &Table,
    problem: &Problem,
    model_cols: &[ColId],
    cfg: &PipelineConfig,
) -> FairnessReport {
    let codes = |table: &Table| -> Vec<u32> {
        table
            .col(problem.target)
            .codes()
            .expect("the target is categorical")
            .to_vec()
    };
    let y_train = codes(train);
    let y_test = codes(test);
    let y_pred = match cfg.classifier {
        ClassifierKind::NaiveBayes => {
            let mut nb = NaiveBayes::new(model_cols.to_vec());
            t.time("ml.fit", || nb.fit_table(train, &y_train));
            t.time("ml.predict", || nb.predict_table(test))
        }
        _ if model_cols.is_empty() => {
            let ones = y_train.iter().filter(|&&v| v == 1).count() * 2;
            vec![u32::from(ones > y_train.len()); test.n_rows()]
        }
        ClassifierKind::Logistic => {
            let (x_train, x_test) = t.time("ml.featurize", || {
                let f = Featurizer::fit(train, model_cols);
                (f.transform(train), f.transform(test))
            });
            let mut model = LogisticRegression::default_model();
            t.time("ml.fit", || model.fit(&x_train, &y_train, None));
            t.time("ml.predict", || model.predict(&x_test))
        }
        other => panic!("the benchmark drives nb and logistic only, not {other:?}"),
    };
    t.time("ml.metrics", || {
        let (s_codes, _) = test.joint_codes(&problem.sensitive);
        let (a_codes, _) = test.joint_codes(&problem.admissible);
        FairnessReport::compute(&y_test, &y_pred, &s_codes, &a_codes)
    })
}
