//! The standard kernel functions (paper Table I).
//!
//! | Kernel     | `K(X_i, X_j)`                      |
//! |------------|------------------------------------|
//! | Linear     | `X_iᵀ X_j`                         |
//! | Polynomial | `(a X_iᵀ X_j + r)^d`               |
//! | Gaussian   | `exp(−γ ‖X_i − X_j‖²)`             |
//! | Sigmoid    | `tanh(a X_iᵀ X_j + r)`             |
//!
//! All four are computable from the inner product plus the two squared
//! norms, so one SMSV per selected sample yields a whole kernel row.

use crate::SvmError;
use dls_sparse::Scalar;

/// Kernel function selector with its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelKind {
    /// `X_iᵀ X_j`
    Linear,
    /// `(a·X_iᵀX_j + r)^degree`
    Polynomial {
        /// Scale applied to the inner product.
        a: Scalar,
        /// Additive constant.
        r: Scalar,
        /// Polynomial degree.
        degree: u32,
    },
    /// `exp(-gamma * ||X_i - X_j||^2)`
    Gaussian {
        /// Width parameter γ.
        gamma: Scalar,
    },
    /// `tanh(a·X_iᵀX_j + r)`
    Sigmoid {
        /// Scale applied to the inner product.
        a: Scalar,
        /// Additive constant.
        r: Scalar,
    },
}

impl KernelKind {
    /// Evaluates the kernel given the inner product `dot = X_iᵀ X_j` and the
    /// squared norms of both vectors.
    #[inline]
    pub fn apply(&self, dot: Scalar, norm_i_sq: Scalar, norm_j_sq: Scalar) -> Scalar {
        match *self {
            KernelKind::Linear => dot,
            KernelKind::Polynomial { a, r, degree } => (a * dot + r).powi(degree as i32),
            KernelKind::Gaussian { gamma } => {
                let dist_sq = (norm_i_sq + norm_j_sq - 2.0 * dot).max(0.0);
                (-gamma * dist_sq).exp()
            }
            KernelKind::Sigmoid { a, r } => (a * dot + r).tanh(),
        }
    }

    /// Applies the kernel to a whole row of inner products in place:
    /// `dots[i] = K(X_i, X_j)` given `dots[i] = X_i · X_j` on entry.
    pub fn apply_row(&self, dots: &mut [Scalar], norms_sq: &[Scalar], norm_j_sq: Scalar) {
        debug_assert_eq!(dots.len(), norms_sq.len());
        match *self {
            KernelKind::Linear => {}
            _ => {
                for (d, &ni) in dots.iter_mut().zip(norms_sq) {
                    *d = self.apply(*d, ni, norm_j_sq);
                }
            }
        }
    }

    /// Checks the hyperparameters both solvers validate: γ finite and > 0,
    /// `a` and `r` finite. Written so that NaN fails every check.
    pub fn validate(&self) -> Result<(), SvmError> {
        let ok = match *self {
            KernelKind::Linear => true,
            KernelKind::Gaussian { gamma } => gamma > 0.0 && gamma.is_finite(),
            KernelKind::Polynomial { a, r, .. } | KernelKind::Sigmoid { a, r } => {
                a.is_finite() && r.is_finite()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(SvmError::InvalidParameter(format!(
                "{self:?}: gamma must be finite and > 0, a and r finite"
            )))
        }
    }

    /// Short lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Linear => "linear",
            KernelKind::Polynomial { .. } => "polynomial",
            KernelKind::Gaussian { .. } => "gaussian",
            KernelKind::Sigmoid { .. } => "sigmoid",
        }
    }
}

impl Default for KernelKind {
    /// Defaults to the Gaussian kernel with γ = 0.5, LIBSVM's customary
    /// starting point for normalised data.
    fn default() -> Self {
        KernelKind::Gaussian { gamma: 0.5 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_the_dot_product() {
        assert_eq!(KernelKind::Linear.apply(3.5, 9.0, 4.0), 3.5);
    }

    #[test]
    fn polynomial_matches_formula() {
        let k = KernelKind::Polynomial { a: 2.0, r: 1.0, degree: 3 };
        assert_eq!(k.apply(2.0, 0.0, 0.0), 125.0);
    }

    #[test]
    fn gaussian_of_identical_points_is_one() {
        let k = KernelKind::Gaussian { gamma: 0.7 };
        // identical vectors: dist² = n + n − 2n = 0
        assert_eq!(k.apply(5.0, 5.0, 5.0), 1.0);
    }

    #[test]
    fn gaussian_decays_with_distance() {
        let k = KernelKind::Gaussian { gamma: 1.0 };
        let near = k.apply(0.9, 1.0, 1.0);
        let far = k.apply(0.0, 1.0, 1.0);
        assert!(near > far);
        assert!((far - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn gaussian_clamps_negative_distance() {
        // Rounded inner products can make dist² slightly negative; the
        // kernel must clamp rather than return > 1.
        let k = KernelKind::Gaussian { gamma: 1.0 };
        assert!(k.apply(1.0 + 1e-9, 1.0, 1.0) <= 1.0);
    }

    #[test]
    fn sigmoid_matches_tanh() {
        let k = KernelKind::Sigmoid { a: 0.5, r: -1.0 };
        assert!((k.apply(4.0, 0.0, 0.0) - 1.0f64.tanh()).abs() < 1e-12);
    }

    #[test]
    fn apply_row_matches_pointwise() {
        let k = KernelKind::Gaussian { gamma: 0.3 };
        let norms = [1.0, 4.0, 9.0];
        let mut dots = [0.5, 1.0, -2.0];
        let expect: Vec<f64> = dots.iter().zip(&norms).map(|(&d, &n)| k.apply(d, n, 2.0)).collect();
        k.apply_row(&mut dots, &norms, 2.0);
        assert_eq!(dots.to_vec(), expect);
    }

    #[test]
    fn names() {
        assert_eq!(KernelKind::default().name(), "gaussian");
        assert_eq!(KernelKind::Linear.name(), "linear");
    }
}
