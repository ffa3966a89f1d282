//! ε-Support Vector Regression.
//!
//! §II-A of the paper: "the data structure of the regression problem is
//! identical to that of the classification problem; the only difference is
//! that y_i ∈ R". The dual is solved by the same SMO machinery on the
//! standard 2n-variable extension (LIBSVM's ε-SVR formulation): variables
//! `α_i` (pseudo-label +1, linear term ε − y_i) and `α_i*` (pseudo-label
//! −1, linear term ε + y_i), box `[0, C]`, equality Σ(α − α*) = 0.
//!
//! The regression function is `f(x) = Σ (α_i − α_i*) K(X_i, x) + b`, so a
//! trained regressor reuses [`SvmModel`] with coefficients `β_i = α_i −
//! α_i*` and [`SvmModel::decision_function`] as the predicted value.

// Same conventions as smo.rs: paper-shaped set conditions, parallel-array
// loops, and NaN-rejecting `!(x > 0)` validation.
#![allow(clippy::nonminimal_bool, clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]

use crate::cache::{KernelCache, Slot, DEFAULT_CACHE_BYTES};
use crate::problem::finite_row_norms;
use crate::{KernelKind, SvmError, SvmModel};
use dls_sparse::{MatrixFormat, RowScratch, Scalar};

/// α within this distance of a bound is treated as exactly at the bound.
const ALPHA_EPS: Scalar = 1e-12;

/// Hyperparameters for ε-SVR training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvrParams {
    /// Regularization constant `C`.
    pub c: Scalar,
    /// Width of the ε-insensitive tube: errors below ε are not penalised.
    pub epsilon: Scalar,
    /// Kernel function.
    pub kernel: KernelKind,
    /// Convergence tolerance τ.
    pub tolerance: Scalar,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for SvrParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            epsilon: 0.1,
            kernel: KernelKind::default(),
            tolerance: 1e-3,
            max_iterations: 100_000,
        }
    }
}

impl SvrParams {
    /// Validates the hyperparameters.
    pub fn validate(&self) -> Result<(), SvmError> {
        if !(self.c > 0.0) {
            return Err(SvmError::InvalidParameter(format!("C must be > 0, got {}", self.c)));
        }
        self.kernel.validate()?;
        if !(self.epsilon >= 0.0) {
            return Err(SvmError::InvalidParameter(format!(
                "epsilon must be >= 0, got {}",
                self.epsilon
            )));
        }
        if !(self.tolerance > 0.0) {
            return Err(SvmError::InvalidParameter("tolerance must be > 0".into()));
        }
        if self.max_iterations == 0 {
            return Err(SvmError::InvalidParameter("max_iterations must be > 0".into()));
        }
        Ok(())
    }
}

/// Solver statistics for a regression run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvrStats {
    /// SMO iterations executed.
    pub iterations: usize,
    /// Whether the duality gap closed.
    pub converged: bool,
    /// Support vectors (samples with `α_i − α_i* != 0`).
    pub n_support_vectors: usize,
}

/// Trains an ε-SVR model. `y` holds real-valued targets. A row whose
/// squared norm is not finite is refused, as by classification SMO.
pub fn train_svr<M: MatrixFormat>(
    x: &M,
    y: &[Scalar],
    params: &SvrParams,
) -> Result<(SvmModel, SvrStats), SvmError> {
    params.validate()?;
    let n = x.rows();
    if y.len() != n {
        return Err(SvmError::LabelLengthMismatch { rows: n, labels: y.len() });
    }
    if n == 0 {
        return Err(SvmError::InvalidParameter("empty training set".into()));
    }
    let c = params.c;
    let eps = params.epsilon;

    let norms_sq = finite_row_norms(x)?;

    // Extended problem: index t < n is α_t (pseudo-label +1); t >= n is
    // α*_{t-n} (pseudo-label −1).
    let m2 = 2 * n;
    let ext_y = |t: usize| -> Scalar {
        if t < n {
            1.0
        } else {
            -1.0
        }
    };
    let base = |t: usize| -> usize {
        if t < n {
            t
        } else {
            t - n
        }
    };

    let mut alpha = vec![0.0 as Scalar; m2];
    // f_t = gradient of the dual objective = p_t at α = 0.
    let mut f: Vec<Scalar> =
        (0..m2).map(|t| if t < n { eps - y[t] } else { eps + y[t - n] }).collect();

    // Base kernel rows (n of them serve all 2n variables), cached as in
    // classification SMO and computed in place on a miss.
    let mut cache = KernelCache::with_budget(DEFAULT_CACHE_BYTES, n);
    let mut scratch = RowScratch::new();
    let mut smsv_ws = Vec::new();
    let mut kernel_row = |cache: &mut KernelCache, i: usize| -> Slot {
        cache.lookup(i).unwrap_or_else(|| {
            let slot = cache.claim(i);
            let row = cache.row_mut(slot);
            x.smsv_view(x.row_view_in(i, &mut scratch), row, &mut smsv_ws);
            params.kernel.apply_row(row, &norms_sq, norms_sq[i]);
            slot
        })
    };

    let mut iterations = 0usize;
    let mut converged = false;

    loop {
        // Maximal violating pair over the extended index set. With the
        // Keerthi sets expressed through pseudo-labels: f here is the
        // gradient, and optimality is max_{I_up}(−y f) <= min_{I_dn}(−y f).
        let (mut high, mut low) = (usize::MAX, usize::MAX);
        let (mut b_high, mut b_low) = (Scalar::INFINITY, Scalar::NEG_INFINITY);
        for t in 0..m2 {
            let a = alpha[t];
            let yt = ext_y(t);
            let can_up = a < c - ALPHA_EPS; // α can grow
            let can_dn = a > ALPHA_EPS; // α can shrink
                                        // Moving α_t up changes Σ y α by y_t; the violating-pair view
                                        // uses v_t = y_t f_t.
            let v = yt * f[t];
            // I_high: indices whose v can decrease the objective when the
            // variable moves in +y direction.
            let in_high = (yt > 0.0 && can_up) || (yt < 0.0 && can_dn);
            let in_low = (yt > 0.0 && can_dn) || (yt < 0.0 && can_up);
            if in_high && v < b_high {
                b_high = v;
                high = t;
            }
            if in_low && v > b_low {
                b_low = v;
                low = t;
            }
        }
        if high == usize::MAX || low == usize::MAX || b_low - b_high <= 2.0 * params.tolerance {
            converged = true;
            break;
        }
        if iterations >= params.max_iterations {
            break;
        }
        iterations += 1;

        let (bi, bj) = (base(high), base(low));
        let (high_slot, low_slot) = (kernel_row(&mut cache, bi), kernel_row(&mut cache, bj));
        let (k_high, k_low) = (cache.row(high_slot), cache.row(low_slot));
        let (yh, yl) = (ext_y(high), ext_y(low));
        let s = yh * yl;
        let eta = (k_high[bi] + k_low[bj] - 2.0 * k_high[bj]).max(1e-12);

        // Same two-variable solution as classification SMO, in the
        // extended coordinates.
        let (l_bound, h_bound) = if s < 0.0 {
            ((alpha[low] - alpha[high]).max(0.0), (c + alpha[low] - alpha[high]).min(c))
        } else {
            ((alpha[low] + alpha[high] - c).max(0.0), (alpha[low] + alpha[high]).min(c))
        };
        let unclipped = alpha[low] + yl * (yh * f[high] - yl * f[low]) / eta;
        let alpha_low_new = unclipped.clamp(l_bound, h_bound);
        let delta_low = alpha_low_new - alpha[low];
        if delta_low.abs() < 1e-14 {
            break;
        }
        let delta_high = -s * delta_low;
        alpha[low] = alpha_low_new;
        alpha[high] = (alpha[high] + delta_high).clamp(0.0, c);

        // Gradient update: f_t += Δ(β) K over base indices, with extended
        // signs folded in: β changes by y_h Δα_high at bi and y_l Δα_low
        // at bj; f_t = Σ β K(base(t)) + p_t, and the extended gradient is
        // y_t-free in this representation.
        let (dh, dl) = (yh * delta_high, yl * delta_low);
        for t in 0..m2 {
            let bt = base(t);
            f[t] += dh * k_high[bt] + dl * k_low[bt];
        }
    }

    // KKT interval midpoint for b, in v = y f coordinates.
    let (mut b_high, mut b_low) = (Scalar::INFINITY, Scalar::NEG_INFINITY);
    for t in 0..m2 {
        let a = alpha[t];
        let yt = ext_y(t);
        let can_up = a < c - ALPHA_EPS;
        let can_dn = a > ALPHA_EPS;
        let v = yt * f[t];
        let in_high = (yt > 0.0 && can_up) || (yt < 0.0 && can_dn);
        let in_low = (yt > 0.0 && can_dn) || (yt < 0.0 && can_up);
        if in_high {
            b_high = b_high.min(v);
        }
        if in_low {
            b_low = b_low.max(v);
        }
    }
    let bias = -(b_high + b_low) / 2.0;

    let mut svs = Vec::new();
    let mut coefs = Vec::new();
    for i in 0..n {
        let beta = alpha[i] - alpha[i + n];
        if beta.abs() > ALPHA_EPS {
            svs.push(x.row_sparse(i));
            coefs.push(beta);
        }
    }
    let stats = SvrStats { iterations, converged, n_support_vectors: svs.len() };
    Ok((SvmModel::new(params.kernel, svs, coefs, bias), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::{CsrMatrix, SparseVec, TripletMatrix};

    fn line_data(slope: f64, intercept: f64, n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut t = TripletMatrix::new(n, 1);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let xv = i as f64 / (n - 1) as f64 * 4.0 - 2.0;
            if xv != 0.0 {
                t.push(i, 0, xv);
            }
            y.push(slope * xv + intercept);
        }
        (CsrMatrix::from_triplets(&t.compact()), y)
    }

    #[test]
    fn fits_a_line_within_the_tube() {
        let (x, y) = line_data(2.0, 1.0, 21);
        let params =
            SvrParams { kernel: KernelKind::Linear, c: 100.0, epsilon: 0.05, ..Default::default() };
        let (model, stats) = train_svr(&x, &y, &params).unwrap();
        assert!(stats.converged, "converged with gap");
        for i in 0..x.rows() {
            let pred = model.decision_function(&x.row_sparse(i));
            assert!(
                (pred - y[i]).abs() <= params.epsilon + 0.05,
                "sample {i}: pred {pred} vs {} (tube {})",
                y[i],
                params.epsilon
            );
        }
    }

    #[test]
    fn gaussian_kernel_fits_a_sine() {
        let n = 30;
        let mut t = TripletMatrix::new(n, 1);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let xv = i as f64 / (n - 1) as f64 * std::f64::consts::TAU;
            t.push(i, 0, xv);
            y.push(xv.sin());
        }
        let x = CsrMatrix::from_triplets(&t.compact());
        let params = SvrParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 50.0,
            epsilon: 0.05,
            max_iterations: 200_000,
            ..Default::default()
        };
        let (model, stats) = train_svr(&x, &y, &params).unwrap();
        assert!(stats.converged);
        let mse: f64 = (0..n)
            .map(|i| {
                let e = model.decision_function(&x.row_sparse(i)) - y[i];
                e * e
            })
            .sum::<f64>()
            / n as f64;
        assert!(mse < 0.02, "MSE {mse}");
    }

    /// Recorded before kernel rows were served from the cache (each was a
    /// fresh `smsv` into a fresh vector): the cache changes where a row
    /// lives, not one bit of it.
    #[test]
    fn cached_rows_leave_iterations_and_model_unchanged() {
        let n = 30;
        let mut t = TripletMatrix::new(n, 1);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let xv = i as f64 / (n - 1) as f64 * std::f64::consts::TAU;
            t.push(i, 0, xv);
            y.push(xv.sin());
        }
        let x = CsrMatrix::from_triplets(&t.compact());
        let fnv = |coefs: &[f64]| {
            coefs
                .iter()
                .flat_map(|c| c.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
                    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        let pins = [
            (
                KernelKind::Gaussian { gamma: 2.0 },
                50.0,
                248,
                19,
                0xbfa9622a648aacbau64,
                0x9090579bb2e1b358u64,
            ),
            (KernelKind::Linear, 1.0, 2_000, 4, 0xbfe01e1e7b83c0b6, 0x7fd089d4a89d77b9),
        ];
        for (kernel, c, iterations, svs, bias_bits, coef_hash) in pins {
            let params =
                SvrParams { kernel, c, epsilon: 0.05, max_iterations: 2_000, ..Default::default() };
            let (model, stats) = train_svr(&x, &y, &params).unwrap();
            assert_eq!(
                (stats.iterations, stats.n_support_vectors),
                (iterations, svs),
                "{kernel:?}"
            );
            assert_eq!(model.bias().to_bits(), bias_bits, "{kernel:?}");
            assert_eq!(fnv(model.coefficients()), coef_hash, "{kernel:?}");
        }
    }

    #[test]
    fn flat_targets_need_no_support_vectors() {
        // Constant y within the tube: zero function + correct bias fits.
        let (x, _) = line_data(1.0, 0.0, 9);
        let y = vec![3.0; 9];
        let params = SvrParams { kernel: KernelKind::Linear, epsilon: 0.5, ..Default::default() };
        let (model, stats) = train_svr(&x, &y, &params).unwrap();
        assert!(stats.converged);
        let pred = model.decision_function(&SparseVec::new(1, vec![0], vec![0.5]));
        assert!((pred - 3.0).abs() <= 0.5 + 1e-6, "pred {pred}");
    }

    #[test]
    fn epsilon_controls_sv_count() {
        let (x, y) = line_data(1.5, 0.0, 25);
        // A tube wide enough to contain every target around a constant
        // needs no support vectors at all; a tight tube on a sloped line
        // must use some.
        let tight =
            SvrParams { kernel: KernelKind::Linear, c: 100.0, epsilon: 0.01, ..Default::default() };
        let covering = SvrParams { epsilon: 10.0, ..tight };
        let (_, s_tight) = train_svr(&x, &y, &tight).unwrap();
        let (_, s_cover) = train_svr(&x, &y, &covering).unwrap();
        assert_eq!(s_cover.n_support_vectors, 0, "covering tube needs no SVs");
        assert!(s_tight.n_support_vectors > 0, "tight tube on sloped data needs SVs");
    }

    #[test]
    fn validates_parameters() {
        let (x, y) = line_data(1.0, 0.0, 5);
        assert!(train_svr(&x, &y, &SvrParams { c: 0.0, ..Default::default() }).is_err());
        assert!(train_svr(&x, &y, &SvrParams { epsilon: -1.0, ..Default::default() }).is_err());
        assert!(train_svr(&x, &y[..3], &SvrParams::default()).is_err());
    }
}
