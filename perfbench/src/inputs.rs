//! Seeded input generation. Every input is drawn from the workload seed;
//! fairsel only ever sees what is generated here: CSV text, codec bytes
//! and DAGs.

use fairsel_datasets::synthetic::{synthetic_instance, synthetic_scm, SyntheticConfig};
use fairsel_datasets::{sample_table, SyntheticInstance};
use fairsel_graph::Dag;
use fairsel_scm::DiscreteScm;
use fairsel_table::{Role, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `synthetic_scm` panics when the target has more than this many
/// parents (its CPT would need `2^parents` rows). With 32 features the
/// target's parents are the biased features plus a random share of the
/// rest, so an unlucky draw can exceed it; such instances are redrawn
/// rather than passed on. `fairsel gen --synthetic 64 --biased 0.15` and
/// `--synthetic 32 --biased 0.5` hit this limit.
pub const MAX_TARGET_PARENTS: usize = 22;

/// Edge strength of the generated structural models (the CLI default).
const STRENGTH: f64 = 1.5;

/// A deterministic stream of generators: one per (seed, purpose, index).
fn rng(seed: u64, purpose: u64, index: u64) -> StdRng {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
        ^ purpose.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ index.wrapping_mul(0x1656_67B1_9E37_79F9);
    StdRng::seed_from_u64(mix)
}

/// A fairness-structured model over binary features, [`BIASED_SHARE`]
/// of which carry sensitive information to the target.
pub struct DataModel {
    scm: DiscreteScm,
    roles: Vec<Role>,
}

fn target_parents(inst: &SyntheticInstance) -> usize {
    inst.dag
        .nodes()
        .filter(|&v| inst.roles[v.index()] == Role::Target)
        .map(|v| inst.dag.parents(v).len())
        .max()
        .unwrap_or(0)
}

impl DataModel {
    /// Draw a model; instances over [`MAX_TARGET_PARENTS`] are redrawn.
    fn draw(rng: &mut StdRng, features: usize) -> DataModel {
        let cfg = SyntheticConfig {
            n_features: features,
            biased_fraction: BIASED_SHARE,
            ..SyntheticConfig::default()
        };
        let inst = loop {
            let inst = synthetic_instance(rng, &cfg);
            if target_parents(&inst) <= MAX_TARGET_PARENTS {
                break inst;
            }
        };
        let scm = synthetic_scm(rng, &inst, STRENGTH);
        DataModel {
            scm,
            roles: inst.roles,
        }
    }

    pub fn sample(&self, rng: &mut StdRng, rows: usize) -> Table {
        sample_table(&self.scm, &self.roles, rows, rng)
    }
}

/// The structural models of the data workloads come from a fixed corpus:
/// model `index` of a workload is the same in every run, and the run
/// seed draws the rows. Random structures would make a run's cost depend
/// on which graphs its seed happened to draw, a spread far wider than
/// the regressions the benchmark must resolve.
const CORPUS_SEED: u64 = 0x0066_6169_7273_656c;

/// Model `index` of a workload's corpus, and a row generator for it
/// drawn from the run seed.
pub fn corpus_model(seed: u64, purpose: u64, index: u64, features: usize) -> (DataModel, StdRng) {
    let model = DataModel::draw(&mut rng(CORPUS_SEED, purpose, index), features);
    (model, rng(seed, purpose, index))
}

/// One sampled dataset as a client holds it: CSV text.
pub fn dataset_csv(seed: u64, purpose: u64, index: u64, features: usize, rows: usize) -> String {
    let (model, mut r) = corpus_model(seed, purpose, index, features);
    fairsel_table::csv::to_csv_string(&model.sample(&mut r, rows))
}

/// Share of biased features in the data workloads.
const BIASED_SHARE: f64 = 0.2;

/// DAG `index` of the oracle workload's corpus, with its roles (no
/// data), and the GrpSel partition seed the run seed draws for it: the
/// oracle has no rows to sample, so the seed shuffles the initial
/// partition instead.
pub fn oracle_dag(seed: u64, index: u64, features: usize) -> (Dag, Vec<Role>, u64) {
    let cfg = SyntheticConfig {
        n_features: features,
        biased_fraction: 0.05,
        ..SyntheticConfig::default()
    };
    let inst = synthetic_instance(&mut rng(CORPUS_SEED, 4, index), &cfg);
    (inst.dag, inst.roles, rng(seed, 4, index).gen())
}
