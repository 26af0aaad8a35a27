//! `oracle-plan`: one caller in a closed loop runs GrpSel over the
//! d-separation oracle of a wide synthetic DAG, with no data. Inside the
//! data workloads the planner, memo and d-separation work is microseconds;
//! here it is the whole op, and the CI count traces the paper's curve.

use crate::inputs;
use crate::spans::Tracer;
use crate::stats::{self, timed, Log, Op, RunResult};
use crate::RunOpts;
use fairsel_ci::{OracleCi, VarId};
use fairsel_core::{grpsel_batched_in, theorem1_classification, Problem, SelectConfig};
use fairsel_engine::CiSession;
use fairsel_graph::Dag;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// DAGs in the rotating pool.
    pub pool: usize,
    pub features: usize,
}

pub const FULL: Sizes = Sizes {
    pool: 4,
    features: 2048,
};

pub const TINY: Sizes = Sizes {
    pool: 2,
    features: 64,
};

pub const LEDGER: &[&str] = &["citest.oracle_build", "core.select"];

struct Instance {
    dag: Dag,
    problem: Problem,
    partition: u64,
}

pub fn run(sizes: Sizes, opts: &RunOpts) -> RunResult {
    let workers = opts.workers;
    let cfg = SelectConfig::default();
    let set_up = || -> Vec<Instance> {
        let pool: Vec<Instance> = (0..sizes.pool)
            .map(|i| {
                let (dag, roles, partition) =
                    inputs::oracle_dag(opts.seed, i as u64, sizes.features);
                Instance {
                    dag,
                    problem: Problem::from_roles(&roles),
                    partition,
                }
            })
            .collect();
        let first = &pool[0];
        let mut session = CiSession::new(OracleCi::from_dag(first.dag.clone()));
        grpsel_batched_in(
            &mut session,
            &first.problem,
            &cfg,
            Some(first.partition),
            workers,
        );
        pool
    };
    let (pool, setup_s, setup_rss_mb) = stats::set_up(opts.setup_reps, set_up, drop);

    // References, outside the timed phase: Theorem 1's CI-identifiable
    // features, which GrpSel under a perfect oracle must return.
    let mut refs: Vec<Vec<VarId>> = pool
        .iter()
        .map(|inst| theorem1_classification(&inst.dag, &inst.problem, &cfg).ci_identifiable())
        .collect();
    if opts.corrupt_reference {
        refs[0].push(usize::MAX);
    }

    let mut log = Log::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let start = Instant::now();
    let mut i = 0u64;
    while opts.budget.more(start.elapsed(), i) {
        let k = (i / 2) as usize % pool.len();
        let traced = opts.trace && i % 2 == 1;
        let inst = &pool[k];
        let dag = inst.dag.clone();
        tracer.begin_op(i, traced, "op");
        let ((selected, stats), ms) = timed(|| {
            let mut session = tracer.time("citest.oracle_build", || {
                CiSession::new(OracleCi::from_dag(dag))
            });
            let before = session.stats().clone();
            tracer.open("core.select");
            let sel = grpsel_batched_in(
                &mut session,
                &inst.problem,
                &cfg,
                Some(inst.partition),
                workers,
            );
            let stats = session.stats().clone();
            tracer.record("engine.ci_wall", stats.wall_ms - before.wall_ms);
            tracer.close();
            (sel.selected(), stats)
        });
        let spans = tracer.end_op();
        if traced {
            let l = &mut log.layers;
            l.add_op(spans, ms);
            l.add("engine.issued", stats.issued as f64);
            l.add("engine.cache_hits", stats.cache_hits as f64);
            l.add("citest.oracle.wall", stats.wall_ms);
            l.add("citest.oracle.issued", stats.issued as f64);
        }
        log.push(Op {
            id: i,
            ms,
            requested: stats.requested,
            traced,
            ok: selected == refs[k],
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
