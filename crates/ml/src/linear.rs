//! L2-regularized logistic regression fit by IRLS (Newton–Raphson).
//!
//! This is the paper's primary classifier (§5.1 uses sklearn's logistic
//! regression with default settings). IRLS converges in a handful of
//! iterations on the ≤ few-hundred-dimensional design matrices the
//! featurizer produces, and it is fully deterministic — important because
//! the experiment harness compares eight pipelines on identical splits.
//!
//! The featurizer's designs are mostly zeros (0/1 indicators and one-hot
//! blocks), so each Newton step visits only a row's nonzero columns: the
//! decision value, the gradient and the upper triangle of XᵀWX are summed
//! over nonzero entries and nonzero pairs. The result is bit-identical to
//! the dense loop it replaced. Summation-order invariant: every
//! accumulator still receives its terms row by row in ascending order,
//! and a skipped term is a product with an exact zero, i.e. ±0. No
//! accumulator can hold −0 (each starts at +0, and a round-to-nearest sum
//! is −0 only when both addends are), and `x + (±0) == x` bit for bit for
//! every other `x`, so skipping changes no sum. The sample weights `sw`
//! enter each row's residual and working weight exactly as before, and
//! the working weight is clamped positive. This holds while coefficients
//! stay finite (a non-finite coefficient times 0 would be NaN, not ±0);
//! the L2 ridge keeps every Newton step finite.

use crate::{check_fit_inputs, Classifier};
use fairsel_math::Mat;

/// Logistic regression configuration.
#[derive(Clone, Debug)]
pub struct LogisticConfig {
    /// L2 penalty (like sklearn's `1/C`; default 1.0).
    pub l2: f64,
    /// Maximum Newton iterations.
    pub max_iter: usize,
    /// Stop when the max absolute coefficient update drops below this.
    pub tol: f64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        Self {
            l2: 1.0,
            max_iter: 50,
            tol: 1e-8,
        }
    }
}

/// Fitted logistic-regression model.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    cfg: LogisticConfig,
    /// Coefficients, one per feature (empty before `fit`).
    weights: Vec<f64>,
    intercept: f64,
}

impl LogisticRegression {
    pub fn new(cfg: LogisticConfig) -> Self {
        Self {
            cfg,
            weights: Vec::new(),
            intercept: 0.0,
        }
    }

    /// Model with default hyperparameters.
    pub fn default_model() -> Self {
        Self::new(LogisticConfig::default())
    }

    /// Fitted coefficients (per feature dimension).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fitted intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// |coefficient| per feature dimension — the feature-importance proxy
    /// used by the SPred baseline.
    pub fn importance(&self) -> Vec<f64> {
        self.weights.iter().map(|w| w.abs()).collect()
    }

    fn decision(&self, x: &Mat, row: usize) -> f64 {
        let mut z = self.intercept;
        for (j, &w) in self.weights.iter().enumerate() {
            z += w * x[(row, j)];
        }
        z
    }
}

/// Numerically-stable logistic function.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &Mat, y: &[u32], sample_weights: Option<&[f64]>) {
        check_fit_inputs(x, y, sample_weights);
        let n = x.rows();
        let d = x.cols();
        // Design with intercept as an extra trailing column.
        let dim = d + 1;
        let mut beta = vec![0.0; dim];
        let unit = vec![1.0; n];
        let sw = sample_weights.unwrap_or(&unit);
        // Each row's nonzero feature columns, ascending, built once: the
        // terms the Newton loop skips are products with an exact zero.
        let mut nz_start = Vec::with_capacity(n + 1);
        let mut nz_cols: Vec<usize> = Vec::new();
        nz_start.push(0);
        for i in 0..n {
            let row = x.row(i);
            nz_cols.extend((0..d).filter(|&j| row[j] != 0.0));
            nz_start.push(nz_cols.len());
        }

        for _ in 0..self.cfg.max_iter {
            // p_i, and the IRLS working weights w_i = sw_i · p_i (1 - p_i).
            let mut grad = vec![0.0; dim];
            // Row-major dim × dim; only the upper triangle is summed.
            let mut hess = vec![0.0; dim * dim];
            for i in 0..n {
                let xi = x.row(i);
                let nz = &nz_cols[nz_start[i]..nz_start[i + 1]];
                let mut z = beta[d];
                for &j in nz {
                    z += beta[j] * xi[j];
                }
                let p = sigmoid(z);
                let r = sw[i] * (y[i] as f64 - p);
                let w = (sw[i] * p * (1.0 - p)).max(1e-10);
                for &j in nz {
                    grad[j] += r * xi[j];
                }
                grad[d] += r;
                for (a, &j) in nz.iter().enumerate() {
                    let xw = w * xi[j];
                    if xw == 0.0 {
                        continue;
                    }
                    let hj = &mut hess[j * dim..(j + 1) * dim];
                    for &k in &nz[a..] {
                        hj[k] += xw * xi[k];
                    }
                    hj[d] += xw;
                }
                hess[d * dim + d] += w;
            }
            let mut hess = Mat::from_vec(dim, dim, hess);
            // Symmetrize, add ridge (not on the intercept), add penalty grad.
            for j in 0..dim {
                for k in 0..j {
                    hess[(j, k)] = hess[(k, j)];
                }
            }
            for j in 0..d {
                hess[(j, j)] += self.cfg.l2;
                grad[j] -= self.cfg.l2 * beta[j];
            }
            hess[(d, d)] += 1e-8; // keep SPD when all weights degenerate

            let g = Mat::from_vec(dim, 1, grad);
            let step = match hess.solve_spd(&g) {
                Some(s) => s,
                None => break, // Hessian collapsed; keep current estimate
            };
            let mut max_step = 0.0f64;
            for j in 0..dim {
                beta[j] += step[(j, 0)];
                max_step = max_step.max(step[(j, 0)].abs());
            }
            if max_step < self.cfg.tol {
                break;
            }
        }
        self.intercept = beta[d];
        beta.truncate(d);
        self.weights = beta;
    }

    fn predict_proba(&self, x: &Mat) -> Vec<f64> {
        assert_eq!(x.cols(), self.weights.len(), "predict: dimension mismatch");
        (0..x.rows())
            .map(|i| sigmoid(self.decision(x, i)))
            .collect()
    }

    fn name(&self) -> &'static str {
        "logistic-regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsel_math::assert_close;
    use fairsel_math::dist::sample_std_normal;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense IRLS loop the sparse fit replaced, kept as the oracle the
    /// bit-identity property test compares against. Returns
    /// `(weights, intercept)`.
    fn fit_dense(
        cfg: &LogisticConfig,
        x: &Mat,
        y: &[u32],
        sample_weights: Option<&[f64]>,
    ) -> (Vec<f64>, f64) {
        let n = x.rows();
        let d = x.cols();
        let dim = d + 1;
        let mut beta = vec![0.0; dim];
        let unit = vec![1.0; n];
        let sw = sample_weights.unwrap_or(&unit);
        for _ in 0..cfg.max_iter {
            let mut grad = vec![0.0; dim];
            let mut hess = Mat::zeros(dim, dim);
            for i in 0..n {
                let mut z = beta[d];
                for j in 0..d {
                    z += beta[j] * x[(i, j)];
                }
                let p = sigmoid(z);
                let r = sw[i] * (y[i] as f64 - p);
                let w = (sw[i] * p * (1.0 - p)).max(1e-10);
                for j in 0..d {
                    grad[j] += r * x[(i, j)];
                }
                grad[d] += r;
                for j in 0..d {
                    let xw = w * x[(i, j)];
                    if xw == 0.0 {
                        continue;
                    }
                    for k in j..d {
                        hess[(j, k)] += xw * x[(i, k)];
                    }
                    hess[(j, d)] += xw;
                }
                hess[(d, d)] += w;
            }
            for j in 0..dim {
                for k in 0..j {
                    hess[(j, k)] = hess[(k, j)];
                }
            }
            for j in 0..d {
                hess[(j, j)] += cfg.l2;
                grad[j] -= cfg.l2 * beta[j];
            }
            hess[(d, d)] += 1e-8;
            let g = Mat::from_vec(dim, 1, grad);
            let step = match hess.solve_spd(&g) {
                Some(s) => s,
                None => break,
            };
            let mut max_step = 0.0f64;
            for j in 0..dim {
                beta[j] += step[(j, 0)];
                max_step = max_step.max(step[(j, 0)].abs());
            }
            if max_step < cfg.tol {
                break;
            }
        }
        let intercept = beta[d];
        beta.truncate(d);
        (beta, intercept)
    }

    /// A random design in the featurizer's shapes: 0/1 indicators,
    /// one-hot blocks with the first level dropped, and standardized
    /// numeric columns carrying negative values and exact (±0) zeros.
    /// Labels follow a random logistic model over the design.
    fn random_design(rng: &mut StdRng) -> (Mat, Vec<u32>) {
        let n = rng.gen_range(20..300);
        let mut cols: Vec<Vec<f64>> = Vec::new();
        for _ in 0..rng.gen_range(0..6) {
            let p = rng.gen_range(0.05..0.95);
            cols.push(
                (0..n)
                    .map(|_| f64::from(u8::from(rng.gen_bool(p))))
                    .collect(),
            );
        }
        for _ in 0..rng.gen_range(0..4) {
            let arity = rng.gen_range(3..6);
            let levels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..arity)).collect();
            for level in 1..arity {
                cols.push(
                    levels
                        .iter()
                        .map(|&v| f64::from(u8::from(v == level)))
                        .collect(),
                );
            }
        }
        for _ in 0..rng.gen_range(0..4) {
            let raw: Vec<f64> = (0..n).map(|_| sample_std_normal(rng)).collect();
            let mean = raw.iter().sum::<f64>() / n as f64;
            let var = raw.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
            let sd = var.sqrt().max(1e-12);
            cols.push(
                raw.iter()
                    .map(|v| match rng.gen_range(0..10) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (v - mean) / sd,
                    })
                    .collect(),
            );
        }
        if cols.is_empty() {
            cols.push((0..n).map(|i| f64::from(u8::from(i % 3 == 0))).collect());
        }
        let d = cols.len();
        let coef: Vec<f64> = (0..d).map(|_| 2.0 * sample_std_normal(rng)).collect();
        let mut data = Vec::with_capacity(n * d);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let mut z = sample_std_normal(rng);
            for (col, c) in cols.iter().zip(&coef) {
                data.push(col[i]);
                z += c * col[i];
            }
            y.push(u32::from(z > 0.0));
        }
        (Mat::from_vec(n, d, data), y)
    }

    /// The sparse fit reproduces the dense oracle bit for bit over random
    /// designs, unweighted and with sample weights (exact zeros included).
    #[test]
    fn sparse_fit_matches_dense_oracle_bits() {
        let mut rng = StdRng::seed_from_u64(0x1e55);
        for case in 0..48 {
            let (x, y) = random_design(&mut rng);
            let weights: Vec<f64> = (0..x.rows())
                .map(|_| match rng.gen_range(0..8) {
                    0 => 0.0,
                    _ => rng.gen_range(0.1..3.0),
                })
                .collect();
            let cfg = LogisticConfig {
                l2: [1.0, 0.1, 10.0][case % 3],
                ..Default::default()
            };
            for sw in [None, Some(weights.as_slice())] {
                let mut lr = LogisticRegression::new(cfg.clone());
                lr.fit(&x, &y, sw);
                let (w, b) = fit_dense(&cfg, &x, &y, sw);
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    (bits(lr.weights()), lr.intercept().to_bits()),
                    (bits(&w), b.to_bits()),
                    "case {case} ({}x{}, weighted {})",
                    x.rows(),
                    x.cols(),
                    sw.is_some()
                );
            }
        }
    }

    /// Linearly separable-ish data: y = 1{2·x0 − x1 + 0.5 + ε > 0}.
    fn synthetic(n: usize, seed: u64) -> (Mat, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = sample_std_normal(&mut rng);
            let b = sample_std_normal(&mut rng);
            data.push(a);
            data.push(b);
            let score = 2.0 * a - b + 0.5 + 0.3 * sample_std_normal(&mut rng);
            y.push(u32::from(score > 0.0));
        }
        (Mat::from_vec(n, 2, data), y)
    }

    #[test]
    fn sigmoid_stability() {
        assert_close!(sigmoid(0.0), 0.5, 1e-12);
        assert_close!(sigmoid(800.0), 1.0, 1e-12);
        assert_close!(sigmoid(-800.0), 0.0, 1e-12);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn learns_separating_direction() {
        let (x, y) = synthetic(2000, 1);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &y, None);
        assert!(
            lr.weights()[0] > 0.5,
            "w0 should be positive: {:?}",
            lr.weights()
        );
        assert!(
            lr.weights()[1] < -0.2,
            "w1 should be negative: {:?}",
            lr.weights()
        );
        let preds = lr.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(p, t)| p == t).count() as f64 / y.len() as f64;
        assert!(acc > 0.93, "training accuracy {acc} too low");
    }

    #[test]
    fn generalizes_to_fresh_sample() {
        let (xtr, ytr) = synthetic(2000, 2);
        let (xte, yte) = synthetic(1000, 3);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&xtr, &ytr, None);
        let preds = lr.predict(&xte);
        let acc = preds.iter().zip(&yte).filter(|(p, t)| p == t).count() as f64 / yte.len() as f64;
        assert!(acc > 0.9, "test accuracy {acc} too low");
    }

    #[test]
    fn deterministic_fit() {
        let (x, y) = synthetic(500, 4);
        let mut a = LogisticRegression::default_model();
        let mut b = LogisticRegression::default_model();
        a.fit(&x, &y, None);
        b.fit(&x, &y, None);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    fn strong_l2_shrinks_weights() {
        let (x, y) = synthetic(500, 5);
        let mut loose = LogisticRegression::new(LogisticConfig {
            l2: 0.01,
            ..Default::default()
        });
        let mut tight = LogisticRegression::new(LogisticConfig {
            l2: 1000.0,
            ..Default::default()
        });
        loose.fit(&x, &y, None);
        tight.fit(&x, &y, None);
        assert!(tight.weights()[0].abs() < loose.weights()[0].abs() * 0.2);
    }

    #[test]
    fn sample_weights_shift_the_fit() {
        // Duplicate-by-weight should match duplicate-by-row.
        let x = Mat::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = vec![0, 0, 1, 1];
        let w = vec![1.0, 1.0, 3.0, 1.0];
        let mut weighted = LogisticRegression::default_model();
        weighted.fit(&x, &y, Some(&w));
        let x_dup = Mat::from_rows(&[&[0.0], &[1.0], &[2.0], &[2.0], &[2.0], &[3.0]]);
        let y_dup = vec![0, 0, 1, 1, 1, 1];
        let mut duped = LogisticRegression::default_model();
        duped.fit(&x_dup, &y_dup, None);
        assert_close!(weighted.weights()[0], duped.weights()[0], 1e-5);
        assert_close!(weighted.intercept(), duped.intercept(), 1e-5);
    }

    #[test]
    fn constant_labels_predict_constant() {
        let (x, _) = synthetic(200, 6);
        let y = vec![1u32; 200];
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &y, None);
        let proba = lr.predict_proba(&x);
        assert!(
            proba.iter().all(|&p| p > 0.9),
            "all-ones data should predict ~1"
        );
    }

    #[test]
    fn importance_is_abs_weights() {
        let (x, y) = synthetic(500, 7);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &y, None);
        let imp = lr.importance();
        assert_close!(imp[0], lr.weights()[0].abs(), 1e-12);
        assert!(imp[0] > imp[1], "x0 is the stronger feature");
    }

    #[test]
    #[should_panic(expected = "labels must be binary")]
    fn rejects_nonbinary_labels() {
        let x = Mat::from_rows(&[&[1.0]]);
        let mut lr = LogisticRegression::default_model();
        lr.fit(&x, &[2], None);
    }
}
