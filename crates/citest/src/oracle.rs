//! Oracle CI testers backed by ground-truth d-separation.
//!
//! Under the faithfulness assumption (Assumption 1), conditional
//! independence in the data coincides with d-separation in the generating
//! graph, so a tester that answers queries straight from the graph is the
//! *ideal* CI test. The complexity experiments (Figures 4-5) count tests
//! issued against this oracle; [`NoisyOracleCi`] additionally flips each
//! answer with a small probability to model the spurious correlations that
//! finite-sample testers produce when too many tests are run (§5.3,
//! "Advantages of Group-testing").

use crate::{CiOutcome, CiTest, VarId};
use fairsel_graph::{d_separated, Dag, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact d-separation oracle. Variable `i` maps to graph node `vars[i]`.
pub struct OracleCi {
    dag: Dag,
    vars: Vec<NodeId>,
}

impl OracleCi {
    /// Oracle with an explicit variable → node mapping.
    pub fn new(dag: Dag, vars: Vec<NodeId>) -> Self {
        assert!(
            vars.iter().all(|v| v.index() < dag.len()),
            "variable map references missing node"
        );
        Self { dag, vars }
    }

    /// Oracle where variable `i` is node `i`.
    pub fn from_dag(dag: Dag) -> Self {
        let vars = dag.nodes().collect();
        Self { dag, vars }
    }

    /// The underlying graph.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    fn map(&self, vs: &[VarId]) -> Vec<NodeId> {
        vs.iter().map(|&v| self.vars[v]).collect()
    }

    /// Answer a query through a shared reference (d-separation is a pure
    /// function of the graph, so no mutation is ever needed).
    pub fn ci_ref(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        let sep = d_separated(&self.dag, &self.map(x), &self.map(y), &self.map(z));
        CiOutcome::decided(sep)
    }
}

impl CiTest for OracleCi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_ref(x, y, z)
    }

    fn n_vars(&self) -> usize {
        self.vars.len()
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// The oracle has no per-group work to amortize, but implementing the
/// batch trait (per-query `eval_z_group` default) lets it drop into every
/// batched entry point — e.g. `fairsel select --dag`, which routes the oracle through
/// the same pipeline as the data testers.
impl crate::CiTestBatch for OracleCi {
    fn ci_shared(&self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        self.ci_ref(x, y, z)
    }
}

/// Oracle with per-test error: each answer is flipped independently with
/// probability `flip_prob`. With `q` tests, the expected number of
/// spurious answers is `q · flip_prob` — which is precisely why GrpSel's
/// `O(k log n)` tests yield fewer spurious results than SeqSel's `O(n)`
/// (the paper's §5.3 spuriousness experiment).
pub struct NoisyOracleCi {
    inner: OracleCi,
    flip_prob: f64,
    rng: StdRng,
    flips: u64,
}

impl NoisyOracleCi {
    pub fn new(inner: OracleCi, flip_prob: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&flip_prob), "flip_prob in [0,1)");
        Self {
            inner,
            flip_prob,
            rng: StdRng::seed_from_u64(seed),
            flips: 0,
        }
    }

    /// How many answers have been flipped so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }
}

impl CiTest for NoisyOracleCi {
    fn ci(&mut self, x: &[VarId], y: &[VarId], z: &[VarId]) -> CiOutcome {
        let truth = self.inner.ci(x, y, z);
        if self.rng.gen::<f64>() < self.flip_prob {
            self.flips += 1;
            CiOutcome::decided(!truth.independent)
        } else {
            truth
        }
    }

    fn n_vars(&self) -> usize {
        self.inner.n_vars()
    }

    fn name(&self) -> &'static str {
        "noisy-oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingCi;
    use fairsel_graph::DagBuilder;

    fn chain() -> Dag {
        DagBuilder::new()
            .nodes(["a", "b", "c"])
            .edge("a", "b")
            .edge("b", "c")
            .build()
    }

    #[test]
    fn oracle_answers_match_dsep() {
        let mut o = OracleCi::from_dag(chain());
        assert!(!o.ci(&[0], &[2], &[]).independent);
        assert!(o.ci(&[0], &[2], &[1]).independent);
        assert_eq!(o.n_vars(), 3);
    }

    #[test]
    fn oracle_with_submapping() {
        // Map variables [0,1] onto nodes a and c only.
        let dag = chain();
        let a = dag.expect_node("a");
        let c = dag.expect_node("c");
        let mut o = OracleCi::new(dag, vec![a, c]);
        assert_eq!(o.n_vars(), 2);
        assert!(!o.ci(&[0], &[1], &[]).independent);
    }

    #[test]
    #[should_panic(expected = "missing node")]
    fn bad_mapping_panics() {
        OracleCi::new(chain(), vec![NodeId(99)]);
    }

    #[test]
    fn noisy_oracle_flip_rate() {
        let mut noisy = NoisyOracleCi::new(OracleCi::from_dag(chain()), 0.25, 7);
        let trials = 4000;
        for _ in 0..trials {
            noisy.ci(&[0], &[2], &[1]);
        }
        let rate = noisy.flips() as f64 / trials as f64;
        assert!(
            (0.20..=0.30).contains(&rate),
            "flip rate {rate} far from 0.25"
        );
    }

    #[test]
    fn zero_noise_is_exact() {
        let mut noisy = NoisyOracleCi::new(OracleCi::from_dag(chain()), 0.0, 7);
        for _ in 0..100 {
            assert!(noisy.ci(&[0], &[2], &[1]).independent);
        }
        assert_eq!(noisy.flips(), 0);
    }

    #[test]
    fn counting_composes_with_oracle() {
        let mut counted = CountingCi::new(OracleCi::from_dag(chain()));
        counted.ci(&[0], &[1], &[]);
        counted.ci(&[0], &[2], &[1]);
        assert_eq!(counted.count(), 2);
    }
}
