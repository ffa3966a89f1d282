//! Trained SVM model: support vectors, dual coefficients and bias.

use crate::KernelKind;
use dls_sparse::{
    AnyMatrix, Format, MatrixFormat, Scalar, SparseVec, TripletMatrix, MAX_SMSV_BLOCK,
};

/// A trained binary SVM.
///
/// Stores only the support vectors (rows with `α_i > 0`), their dual
/// coefficients `α_i y_i`, and the bias, so prediction is
/// `sign(Σ_s coef_s · K(SV_s, x) + b)`.
#[derive(Debug, Clone)]
pub struct SvmModel {
    kernel: KernelKind,
    support_vectors: Vec<SparseVec>,
    /// `α_i y_i` per support vector.
    coefficients: Vec<Scalar>,
    /// Cached squared norms of the support vectors (for Gaussian kernels).
    sv_norms_sq: Vec<Scalar>,
    bias: Scalar,
}

impl SvmModel {
    /// Assembles a model from training outputs.
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn new(
        kernel: KernelKind,
        support_vectors: Vec<SparseVec>,
        coefficients: Vec<Scalar>,
        bias: Scalar,
    ) -> Self {
        assert_eq!(support_vectors.len(), coefficients.len(), "SV/coef mismatch");
        let sv_norms_sq = support_vectors.iter().map(SparseVec::norm_sq).collect();
        Self { kernel, support_vectors, coefficients, sv_norms_sq, bias }
    }

    /// The kernel the model was trained with.
    #[inline]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// Number of support vectors.
    #[inline]
    pub fn n_support_vectors(&self) -> usize {
        self.support_vectors.len()
    }

    /// The support vectors.
    #[inline]
    pub fn support_vectors(&self) -> &[SparseVec] {
        &self.support_vectors
    }

    /// The dual coefficients `α_i y_i`.
    #[inline]
    pub fn coefficients(&self) -> &[Scalar] {
        &self.coefficients
    }

    /// The bias term `b`.
    #[inline]
    pub fn bias(&self) -> Scalar {
        self.bias
    }

    /// Signed decision value `Σ coef_s K(SV_s, x) + b`.
    pub fn decision_function(&self, x: &SparseVec) -> Scalar {
        let x_norm_sq = x.norm_sq();
        let mut acc = self.bias;
        for ((sv, &coef), &sv_norm) in
            self.support_vectors.iter().zip(&self.coefficients).zip(&self.sv_norms_sq)
        {
            let dot = sv.dot(x);
            acc += coef * self.kernel.apply(dot, sv_norm, x_norm_sq);
        }
        acc
    }

    /// Predicted label: `+1.0` or `-1.0`. Zero decision values map to `+1`.
    pub fn predict_label(&self, x: &SparseVec) -> Scalar {
        if self.decision_function(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The support vectors lowered to a row matrix (`n_sv × dim`), the
    /// shape the blocked SMSV kernels consume: one `smsv` against it yields
    /// `dot(SV_s, x)` for every support vector at once.
    ///
    /// Returns `None` for models with no support vectors (their decision
    /// function is the constant bias).
    pub fn support_matrix(&self, format: Format) -> Option<AnyMatrix> {
        let dim = self.support_vectors.first()?.dim();
        let mut t = TripletMatrix::with_capacity(
            self.support_vectors.len(),
            dim,
            self.support_vectors.iter().map(SparseVec::nnz).sum(),
        );
        for (i, sv) in self.support_vectors.iter().enumerate() {
            for (j, v) in sv.iter() {
                t.push(i, j, v);
            }
        }
        Some(AnyMatrix::from_triplets(format, &t.compact()))
    }

    /// Decision values for a batch of samples, routed through the blocked
    /// SMSV engine: queries are processed in chunks of up to
    /// [`MAX_SMSV_BLOCK`], each chunk amortising one sweep of the support-
    /// vector matrix across all of its vectors. The caller holds the
    /// [`PredictWorkspace`]; in steady state (same model, stable batch
    /// sizes) no allocation happens beyond the returned `Vec`.
    ///
    /// Results are bit-identical to [`SvmModel::decision_function`] on each
    /// sample individually: the blocked kernels accumulate each product in
    /// the same per-row order regardless of how requests are batched.
    pub fn predict_batch(&self, xs: &[SparseVec], ws: &mut PredictWorkspace) -> Vec<Scalar> {
        let matrix = ws.matrix.take().filter(|_| ws.cached_for == Some(self.fingerprint()));
        let matrix = match matrix {
            Some(m) => m,
            None => {
                ws.cached_for = Some(self.fingerprint());
                match self.support_matrix(PredictWorkspace::CACHE_FORMAT) {
                    Some(m) => m,
                    None => return vec![self.bias; xs.len()],
                }
            }
        };
        let out = self.predict_batch_with(&matrix, xs, ws);
        ws.matrix = Some(matrix);
        out
    }

    /// [`SvmModel::predict_batch`] against a caller-provided support-vector
    /// row matrix (as built by [`SvmModel::support_matrix`], possibly
    /// re-formatted by a scheduler or wrapped for telemetry). Only the
    /// workspace scratch buffers are used, never its cached matrix.
    ///
    /// # Panics
    /// Panics if `sv_rows` does not have one row per support vector.
    pub fn predict_batch_with<M: MatrixFormat>(
        &self,
        sv_rows: &M,
        xs: &[SparseVec],
        ws: &mut PredictWorkspace,
    ) -> Vec<Scalar> {
        let nsv = self.support_vectors.len();
        if nsv == 0 {
            return vec![self.bias; xs.len()];
        }
        assert_eq!(sv_rows.rows(), nsv, "support matrix row count mismatch");
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(MAX_SMSV_BLOCK) {
            let need = chunk.len() * nsv;
            if ws.dots.len() < need {
                ws.dots.resize(need, 0.0);
            }
            sv_rows.smsv_block(chunk, &mut ws.dots[..need], &mut ws.smsv_ws);
            for (b, x) in chunk.iter().enumerate() {
                let dots = &mut ws.dots[b * nsv..(b + 1) * nsv];
                self.kernel.apply_row(dots, &self.sv_norms_sq, x.norm_sq());
                let mut acc = self.bias;
                for (&d, &coef) in dots.iter().zip(&self.coefficients) {
                    acc += coef * d;
                }
                out.push(acc);
            }
        }
        out
    }

    /// A cheap identity for workspace cache validation: SV count, dimension
    /// and the bit pattern of the first coefficient. Collisions only matter
    /// when one workspace is reused across *different* models of identical
    /// shape — documented misuse of [`PredictWorkspace`].
    fn fingerprint(&self) -> (usize, usize, u64) {
        (
            self.support_vectors.len(),
            self.support_vectors.first().map_or(0, SparseVec::dim),
            self.coefficients.first().map_or(0, |c| c.to_bits()),
        )
    }
}

/// Caller-held scratch for [`SvmModel::predict_batch`]: the lowered
/// support-vector matrix (built once per model, cached), the block of dot
/// products, and the SMSV scatter workspace. Reuse one workspace per model
/// per thread; it is cheap to construct but expensive to warm.
#[derive(Debug, Default)]
pub struct PredictWorkspace {
    matrix: Option<AnyMatrix>,
    cached_for: Option<(usize, usize, u64)>,
    dots: Vec<Scalar>,
    smsv_ws: Vec<Scalar>,
}

impl PredictWorkspace {
    /// Format the cached support matrix is materialised in. CSR has a true
    /// blocked kernel and tolerates any sparsity pattern, making it the
    /// safe default; callers wanting a scheduled format use
    /// [`SvmModel::predict_batch_with`].
    pub const CACHE_FORMAT: Format = Format::Csr;

    /// A fresh, cold workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, at: usize) -> SparseVec {
        SparseVec::new(dim, vec![at], vec![1.0])
    }

    #[test]
    fn linear_decision_function() {
        // One positive SV at e0 with coef +2, one negative at e1 with coef -2,
        // zero bias: f(x) = 2 x0 - 2 x1.
        let model =
            SvmModel::new(KernelKind::Linear, vec![unit(2, 0), unit(2, 1)], vec![2.0, -2.0], 0.0);
        assert_eq!(model.decision_function(&unit(2, 0)), 2.0);
        assert_eq!(model.decision_function(&unit(2, 1)), -2.0);
        assert_eq!(model.predict_label(&unit(2, 0)), 1.0);
        assert_eq!(model.predict_label(&unit(2, 1)), -1.0);
    }

    #[test]
    fn bias_shifts_decisions() {
        let model = SvmModel::new(KernelKind::Linear, vec![unit(2, 0)], vec![1.0], -0.5);
        assert_eq!(model.decision_function(&SparseVec::zeros(2)), -0.5);
        assert_eq!(model.predict_label(&SparseVec::zeros(2)), -1.0);
    }

    #[test]
    fn gaussian_uses_cached_norms() {
        let model =
            SvmModel::new(KernelKind::Gaussian { gamma: 1.0 }, vec![unit(3, 0)], vec![1.0], 0.0);
        // K of the SV with itself is exactly 1.
        assert!((model.decision_function(&unit(3, 0)) - 1.0).abs() < 1e-12);
        // Distant point has tiny kernel value.
        let far = SparseVec::new(3, vec![2], vec![10.0]);
        assert!(model.decision_function(&far) < 1e-10);
    }

    #[test]
    fn zero_decision_maps_to_the_positive_label() {
        let model = SvmModel::new(KernelKind::Linear, vec![unit(2, 0)], vec![1.0], 0.0);
        assert_eq!(model.decision_function(&unit(2, 1)), 0.0);
        assert_eq!(model.predict_label(&unit(2, 1)), 1.0);
    }

    /// A model with irregular support vectors exercising merge/scatter dot
    /// products, plus a query set larger than one SMSV block.
    fn wide_model(kernel: KernelKind) -> (SvmModel, Vec<SparseVec>) {
        let dim = 13;
        let svs: Vec<SparseVec> = (0..9)
            .map(|s| {
                let idx: Vec<usize> = (0..dim).filter(|j| (j + s) % 3 != 0).collect();
                let vals: Vec<Scalar> =
                    idx.iter().map(|&j| ((s * 31 + j * 7) % 11) as Scalar * 0.3 - 1.1).collect();
                SparseVec::new(dim, idx, vals)
            })
            .collect();
        let coefs: Vec<Scalar> = (0..9).map(|s| (s as Scalar - 4.0) * 0.25).collect();
        let model = SvmModel::new(kernel, svs, coefs, 0.125);
        let xs: Vec<SparseVec> = (0..MAX_SMSV_BLOCK + 5)
            .map(|q| {
                let idx: Vec<usize> = (0..dim).filter(|j| (j * 5 + q) % 4 != 1).collect();
                let vals: Vec<Scalar> =
                    idx.iter().map(|&j| ((q * 13 + j) % 7) as Scalar * 0.5 - 1.5).collect();
                SparseVec::new(dim, idx, vals)
            })
            .collect();
        (model, xs)
    }

    #[test]
    fn predict_batch_is_bit_identical_to_per_vector_decisions() {
        for kernel in [KernelKind::Linear, KernelKind::Gaussian { gamma: 0.7 }] {
            let (model, xs) = wide_model(kernel);
            let mut ws = PredictWorkspace::new();
            let batched = model.predict_batch(&xs, &mut ws);
            assert_eq!(batched.len(), xs.len());
            for (x, &got) in xs.iter().zip(&batched) {
                let want = model.decision_function(x);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{}: batched {got} != per-vector {want}",
                    kernel.name()
                );
            }
            // Batch composition does not change individual results.
            let singles: Vec<Scalar> = xs
                .iter()
                .map(|x| model.predict_batch(std::slice::from_ref(x), &mut ws)[0])
                .collect();
            assert_eq!(singles, batched);
        }
    }

    #[test]
    fn predict_batch_with_matches_cached_path_across_formats() {
        let (model, xs) = wide_model(KernelKind::Gaussian { gamma: 0.4 });
        let mut ws = PredictWorkspace::new();
        let want = model.predict_batch(&xs, &mut ws);
        for fmt in [Format::Csr, Format::Den, Format::Ell, Format::Coo] {
            let m = model.support_matrix(fmt).unwrap();
            let got = model.predict_batch_with(&m, &xs, &mut ws);
            // Kernel traversal order per product is row-major in every
            // format, so values agree to the last bit.
            assert_eq!(got, want, "{fmt:?}");
        }
    }

    #[test]
    fn predict_batch_on_empty_model_is_the_bias() {
        let model = SvmModel::new(KernelKind::Linear, vec![], vec![], 0.75);
        let mut ws = PredictWorkspace::new();
        assert_eq!(model.predict_batch(&[unit(4, 1), unit(4, 2)], &mut ws), vec![0.75, 0.75]);
        assert!(model.support_matrix(Format::Csr).is_none());
        assert_eq!(model.predict_batch(&[], &mut ws), Vec::<Scalar>::new());
    }

    #[test]
    fn workspace_rebuilds_when_the_model_changes() {
        let (model_a, xs) = wide_model(KernelKind::Linear);
        let model_b = SvmModel::new(KernelKind::Linear, vec![unit(13, 0)], vec![2.0], 0.0);
        let mut ws = PredictWorkspace::new();
        let a1 = model_a.predict_batch(&xs, &mut ws);
        let b = model_b.predict_batch(&xs, &mut ws); // different model, same workspace
        let a2 = model_a.predict_batch(&xs, &mut ws);
        assert_eq!(a1, a2);
        assert_eq!(b[0], 2.0 * xs[0].get(0));
    }

    #[test]
    fn accessors() {
        let model = SvmModel::new(KernelKind::Linear, vec![unit(2, 0)], vec![1.5], 0.25);
        assert_eq!(model.n_support_vectors(), 1);
        assert_eq!(model.coefficients(), &[1.5]);
        assert_eq!(model.bias(), 0.25);
        assert_eq!(model.kernel(), KernelKind::Linear);
        assert_eq!(model.support_vectors().len(), 1);
    }
}
