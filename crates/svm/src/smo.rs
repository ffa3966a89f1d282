//! Sequential Minimal Optimization (paper Algorithm 1, equations 3–6).
//!
//! Each iteration selects the maximal-violating pair `(high, low)`
//! (Keerthi's first-order rule), solves the two-variable QP analytically,
//! and updates the optimality vector `f_i = Σ_j α_j y_j K(X_i, X_j) − y_i`.
//! The two kernel rows needed per iteration are produced by two SMSV
//! products — `X · X_high` and `X · X_low` — which is the layout-sensitive
//! bottleneck the scheduler in `dls-core` optimises.

// The Keerthi index-set conditions are written exactly as the paper/LIBSVM
// state them (clippy would "simplify" them into unrecognisable forms), the
// solver loops index several parallel arrays at once, and parameter checks
// use `!(x > 0)` deliberately so NaN fails validation.
#![allow(clippy::nonminimal_bool, clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]

use crate::cache::{KernelCache, Slot, DEFAULT_CACHE_BYTES};
use crate::problem::finite_row_norms;
use crate::{KernelKind, SvmError, SvmModel, SvmProblem};
use dls_sparse::{MatrixFormat, RowScratch, Scalar};

/// α within this distance of a bound is treated as exactly at the bound.
const ALPHA_EPS: Scalar = 1e-12;

/// Hyperparameters for SMO training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Regularization constant `C` balancing generality and accuracy: the
    /// box constraint `0 ≤ α_i ≤ C` of every sample.
    pub c: Scalar,
    /// Kernel function (Table I).
    pub kernel: KernelKind,
    /// Convergence tolerance τ: stop once `b_low ≤ b_high + 2τ`.
    pub tolerance: Scalar,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Byte budget for the kernel-row LRU cache. The cache always holds the
    /// two rows an iteration needs, so 0 leaves just those: (almost) every
    /// fetch is then a miss, computed in place.
    pub cache_bytes: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            kernel: KernelKind::default(),
            tolerance: 1e-3,
            max_iterations: 100_000,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }
}

impl SmoParams {
    /// Validates the hyperparameters.
    pub fn validate(&self) -> Result<(), SvmError> {
        if !(self.c > 0.0) {
            return Err(SvmError::InvalidParameter(format!("C must be > 0, got {}", self.c)));
        }
        self.kernel.validate()?;
        if !(self.tolerance > 0.0) {
            return Err(SvmError::InvalidParameter(format!(
                "tolerance must be > 0, got {}",
                self.tolerance
            )));
        }
        if self.max_iterations == 0 {
            return Err(SvmError::InvalidParameter("max_iterations must be > 0".into()));
        }
        Ok(())
    }
}

/// Counters and convergence info from one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoStats {
    /// SMO iterations executed.
    pub iterations: usize,
    /// Whether the duality-gap criterion was met.
    pub converged: bool,
    /// Final `b_low − b_high` gap.
    pub final_gap: Scalar,
    /// Support vectors in the returned model.
    pub n_support_vectors: usize,
    /// SMSV products actually executed (cache misses).
    pub smsv_count: u64,
    /// Kernel rows served from cache.
    pub cache_hits: u64,
}

/// Trains a binary SVM, returning only the model.
pub fn train<M: MatrixFormat>(
    x: &M,
    y: &[Scalar],
    params: &SmoParams,
) -> Result<SvmModel, SvmError> {
    train_with_stats(x, y, params).map(|(m, _)| m)
}

/// Trains a binary SVM, returning the model plus solver statistics.
pub fn train_with_stats<M: MatrixFormat>(
    x: &M,
    y: &[Scalar],
    params: &SmoParams,
) -> Result<(SvmModel, SmoStats), SvmError> {
    let mut state = SmoState::new(x, y, params)?;
    state.run_segment(x, params, usize::MAX);
    Ok(state.finalize(x, params))
}

/// What one [`SmoState::run_segment`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentReport {
    /// Iterations executed in this segment.
    pub iterations: usize,
    /// SMSV products executed in this segment (cache misses only).
    pub smsv_count: u64,
    /// Whether the duality-gap criterion was met during the segment.
    pub converged: bool,
    /// Whether the solver stalled on a numerically degenerate pair.
    pub stalled: bool,
    /// `b_low − b_high` after the segment's last selection pass.
    pub gap: Scalar,
}

/// Status bit: the sample is in Keerthi's I_high (may be picked as `high`).
const IN_HIGH: u8 = 1;
/// Status bit: the sample is in I_low (may be picked as `low`).
const IN_LOW: u8 = 2;
/// Both bits: 0 < α < C, the only way to be in both sets.
const FREE: u8 = IN_HIGH | IN_LOW;

/// The I_high / I_low membership of a sample with multiplier `a`, label
/// `yi` and box constraint `c` (LIBSVM's `alpha_status`). It changes only
/// when α does, so the solver keeps it in a byte per sample and recomputes
/// the two that an iteration touched.
#[inline]
fn status_of(a: Scalar, yi: Scalar, c: Scalar) -> u8 {
    let free = a > ALPHA_EPS && a < c - ALPHA_EPS;
    let at_zero = a <= ALPHA_EPS;
    let in_high = free || (yi > 0.0 && at_zero) || (yi < 0.0 && !at_zero && !free);
    let in_low = free || (yi > 0.0 && !at_zero && !free) || (yi < 0.0 && at_zero);
    (u8::from(in_high) * IN_HIGH) | (u8::from(in_low) * IN_LOW)
}

/// The maximal violating pair: `b_high = f[high]` is the minimum of `f`
/// over I_high, `b_low = f[low]` the maximum over I_low, the lowest index
/// winning a tie. An empty set leaves its index at `usize::MAX`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Selection {
    high: usize,
    low: usize,
    b_high: Scalar,
    b_low: Scalar,
}

impl Selection {
    const EMPTY: Self = Self {
        high: usize::MAX,
        low: usize::MAX,
        b_high: Scalar::INFINITY,
        b_low: Scalar::NEG_INFINITY,
    };

    /// Lets sample `i` compete for both ends. Branch-free: outside a set it
    /// competes with that set's identity, which a strict comparison never
    /// accepts, so the compiler is free to use conditional moves.
    #[inline(always)]
    fn consider(&mut self, i: usize, fi: Scalar, status: u8) {
        let up = if status & IN_HIGH != 0 { fi } else { Scalar::INFINITY };
        let down = if status & IN_LOW != 0 { fi } else { Scalar::NEG_INFINITY };
        if up < self.b_high {
            self.b_high = up;
            self.high = i;
        }
        if down > self.b_low {
            self.b_low = down;
            self.low = i;
        }
    }
}

/// Lines 6–10 of Algorithm 1 as a pass of their own: the maximal violating
/// pair over all samples. It picks the first iteration's pair; every later
/// one comes out of [`update_and_select`].
fn select(f: &[Scalar], status: &[u8]) -> Selection {
    let mut sel = Selection::EMPTY;
    for (i, (&fi, &st)) in f.iter().zip(status).enumerate() {
        sel.consider(i, fi, st);
    }
    sel
}

/// Independent accumulators in stage one of the fused pass.
const LANES: usize = 4;
/// Rows the fused pass reduces before touching the selection.
const CHUNK: usize = 64;
/// Added to `f[i]` by status: 0 inside I_high, +∞ outside, so that a plain
/// minimum over the sums is the minimum over I_high.
const UP_PENALTY: [Scalar; 4] = [Scalar::INFINITY, 0.0, Scalar::INFINITY, 0.0];
/// The same for the maximum over I_low.
const DOWN_PENALTY: [Scalar; 4] = [Scalar::NEG_INFINITY, Scalar::NEG_INFINITY, 0.0, 0.0];

/// Equation (4) fused with the *next* iteration's selection: one pass adds
/// the two scaled kernel rows to `f` and lets each new `f[i]` compete for
/// the maximal violating pair.
///
/// The sweep works in two stages, because a running minimum *with its
/// index* is one long chain of dependent compares and conditional moves
/// (about 8 cycles a row here). Stage one updates a chunk of `f` and
/// reduces it to the chunk's minimum over I_high and maximum over I_low
/// with no index and [`LANES`] independent accumulators (about 3 cycles a
/// row). Only a chunk whose extremes beat the running `b_high` or `b_low`
/// goes through stage two, the row-by-row [`Selection::consider`] — so
/// ties still fall to the lowest index, and a skipped chunk is one that
/// `consider` would have left the selection unchanged on, exactly: a
/// penalty of 0 keeps `f[i]`'s value, one of ±∞ gives ±∞ or NaN, and
/// neither of those ever wins a strict comparison.
fn update_and_select(
    f: &mut [Scalar],
    status: &[u8],
    k_high: &[Scalar],
    k_low: &[Scalar],
    (dh_yh, dl_yl): (Scalar, Scalar),
) -> Selection {
    let mut sel = Selection::EMPTY;
    let n = f.len();
    let (status, k_high, k_low) = (&status[..n], &k_high[..n], &k_low[..n]);
    let body = n - n % CHUNK;
    for base in (0..body).step_by(CHUNK) {
        let f = &mut f[base..base + CHUNK];
        let (st, kh, kl) =
            (&status[base..base + CHUNK], &k_high[base..base + CHUNK], &k_low[base..base + CHUNK]);
        let mut lo = [Scalar::INFINITY; LANES];
        let mut hi = [Scalar::NEG_INFINITY; LANES];
        for step in (0..CHUNK).step_by(LANES) {
            for l in 0..LANES {
                let j = step + l;
                f[j] += dh_yh * kh[j] + dl_yl * kl[j];
                let s = usize::from(st[j] & FREE);
                let (up, down) = (f[j] + UP_PENALTY[s], f[j] + DOWN_PENALTY[s]);
                lo[l] = if up < lo[l] { up } else { lo[l] };
                hi[l] = if down > hi[l] { down } else { hi[l] };
            }
        }
        let lo = lo.iter().fold(Scalar::INFINITY, |m, &v| if v < m { v } else { m });
        let hi = hi.iter().fold(Scalar::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        if lo < sel.b_high || hi > sel.b_low {
            for (j, (&fj, &stj)) in f.iter().zip(st).enumerate() {
                sel.consider(base + j, fj, stj);
            }
        }
    }
    for i in body..n {
        f[i] += dh_yh * k_high[i] + dl_yl * k_low[i];
        sel.consider(i, f[i], status[i]);
    }
    sel
}

/// Resumable SMO solver state.
///
/// [`train`] runs one segment to the end; no product path stops early.
/// Segments are a test seam: `trajectory_pin.rs` and `zero_alloc.rs` stop
/// after a budget of iterations to pin the trajectory and count steady-state
/// allocations. Everything in the state — `α`, the optimality vector `f`,
/// row norms and the kernel-row cache — depends only on the matrix
/// *content*, never its layout, which those tests check by resuming in
/// another format.
pub struct SmoState {
    y: Vec<Scalar>,
    alpha: Vec<Scalar>,
    f: Vec<Scalar>,
    norms_sq: Vec<Scalar>,
    /// [`status_of`] every sample, kept in step with `alpha`.
    status: Vec<u8>,
    iterations: usize,
    smsv_count: u64,
    cache: KernelCache,
    converged: bool,
    stalled: bool,
    gap: Scalar,
    /// The selection the next iteration starts from: [`select`]'s at α = 0,
    /// then the one the last iteration's fused pass left behind.
    pending: Selection,
    /// Row-view scratch for the working-set row being fetched; with
    /// `smsv_ws`, the dense scatter workspace of `smsv_view`, it keeps the
    /// steady-state loop free of heap allocation.
    scratch: RowScratch,
    smsv_ws: Vec<Scalar>,
}

impl SmoState {
    /// Validates inputs and initialises solver state at `α = 0`.
    ///
    /// Refuses, naming the row, a sample whose squared norm is not finite:
    /// a NaN or ±∞ feature value would turn every kernel value it touches
    /// into NaN or ±∞, and the solver would "converge" on garbage.
    pub fn new<M: MatrixFormat>(x: &M, y: &[Scalar], params: &SmoParams) -> Result<Self, SvmError> {
        params.validate()?;
        let problem = SvmProblem::new(x, y)?;
        let y = problem.labels().to_vec();

        // Row norms once: every Gaussian kernel row needs them.
        let norms_sq = finite_row_norms(x)?;

        // f_i = Σ_j α_j y_j K_ij − y_i  starts at −y_i since α = 0 (eq. 3).
        let f: Vec<Scalar> = y.iter().map(|&yi| -yi).collect();
        let status: Vec<u8> = y.iter().map(|&yi| status_of(0.0, yi, params.c)).collect();

        Ok(Self {
            alpha: vec![0.0 as Scalar; y.len()],
            pending: select(&f, &status),
            f,
            status,
            iterations: 0,
            smsv_count: 0,
            cache: KernelCache::with_budget(params.cache_bytes, y.len()),
            converged: false,
            stalled: false,
            gap: Scalar::INFINITY,
            scratch: RowScratch::new(),
            smsv_ws: Vec::new(),
            norms_sq,
            y,
        })
    }

    /// Total iterations executed so far, across all segments.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Total SMSV products executed so far (cache misses only).
    pub fn smsv_count(&self) -> u64 {
        self.smsv_count
    }

    /// Whether the duality-gap criterion has been met.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Current `b_low − b_high` duality gap.
    pub fn gap(&self) -> Scalar {
        self.gap
    }

    /// Whether training can make further progress: false once converged,
    /// stalled, or out of the iteration budget.
    pub fn can_continue(&self, params: &SmoParams) -> bool {
        !self.converged && !self.stalled && self.iterations < params.max_iterations
    }

    /// The cache slot holding the kernel row of `row`. A hit hands the
    /// resident slot out; a miss runs one SMSV straight into a claimed slot.
    fn kernel_row<M: MatrixFormat>(&mut self, x: &M, params: &SmoParams, row: usize) -> Slot {
        if let Some(slot) = self.cache.lookup(row) {
            return slot;
        }
        self.smsv_count += 1;
        let slot = self.cache.claim(row);
        let dest = self.cache.row_mut(slot);
        x.smsv_view(x.row_view_in(row, &mut self.scratch), dest, &mut self.smsv_ws);
        params.kernel.apply_row(dest, &self.norms_sq, self.norms_sq[row]);
        slot
    }

    /// Runs at most `budget` SMO iterations (bounded also by
    /// `params.max_iterations` globally), stopping early on convergence.
    ///
    /// `x` must hold the same matrix *content* on every call, but its
    /// storage format is free to change between calls. `params` must be the
    /// ones the state was built with, apart from `max_iterations`: cached
    /// kernel rows and status bytes outlive a call.
    ///
    /// An iteration makes one pass over the rows: [`update_and_select`]
    /// applies equation (4) and picks the next maximal violating pair from
    /// the updated `f` in the same sweep, reading both kernel rows by
    /// reference out of their cache slots.
    pub fn run_segment<M: MatrixFormat>(
        &mut self,
        x: &M,
        params: &SmoParams,
        budget: usize,
    ) -> SegmentReport {
        let start_iterations = self.iterations;
        let start_smsv = self.smsv_count;

        while !self.converged && !self.stalled {
            let Selection { high, low, b_high, b_low } = self.pending;
            debug_assert_eq!(
                self.pending,
                select(&self.f, &self.status),
                "the fused pass and a plain selection pass must agree"
            );
            self.gap = b_low - b_high;
            if high == usize::MAX || low == usize::MAX || self.gap <= 2.0 * params.tolerance {
                self.converged = true;
                break;
            }
            if self.iterations >= params.max_iterations
                || self.iterations - start_iterations >= budget
            {
                break;
            }
            self.iterations += 1;

            // Two SMSVs per iteration (the paper's §III-A bottleneck).
            // `high` is then the most recently used row and the cache holds
            // at least two, so fetching `low` cannot evict it.
            let high_at = self.kernel_row(x, params, high);
            let low_at = self.kernel_row(x, params, low);
            let (k_high, k_low) = (self.cache.row(high_at), self.cache.row(low_at));

            let (yh, yl) = (self.y[high], self.y[low]);
            let s = yh * yl;
            // η = K_hh + K_ll − 2 K_hl; guard non-PSD kernels (sigmoid)
            // and numerically degenerate pairs.
            let eta = (k_high[high] + k_low[low] - 2.0 * k_high[low]).max(1e-12);

            // Equation (5) with b_high = f_high, b_low = f_low at
            // selection time, then clip α_low to the feasible segment.
            let c = params.c;
            let (l_bound, h_bound) = if s < 0.0 {
                (
                    (self.alpha[low] - self.alpha[high]).max(0.0),
                    (c + self.alpha[low] - self.alpha[high]).min(c),
                )
            } else {
                (
                    (self.alpha[low] + self.alpha[high] - c).max(0.0),
                    (self.alpha[low] + self.alpha[high]).min(c),
                )
            };
            let unclipped = self.alpha[low] + yl * (self.f[high] - self.f[low]) / eta;
            let alpha_low_new = unclipped.clamp(l_bound, h_bound);
            let delta_low = alpha_low_new - self.alpha[low];
            if delta_low.abs() < 1e-14 {
                // Numerically stalled pair: no further progress possible.
                self.stalled = true;
                break;
            }
            // Equation (6): Δα_high = −y_low y_high Δα_low.
            let delta_high = -s * delta_low;
            self.alpha[low] = alpha_low_new;
            self.alpha[high] = (self.alpha[high] + delta_high).clamp(0.0, c);
            self.status[low] = status_of(self.alpha[low], yl, c);
            self.status[high] = status_of(self.alpha[high], yh, c);

            self.pending = update_and_select(
                &mut self.f,
                &self.status,
                k_high,
                k_low,
                (delta_high * yh, delta_low * yl),
            );
        }

        SegmentReport {
            iterations: self.iterations - start_iterations,
            smsv_count: self.smsv_count - start_smsv,
            converged: self.converged,
            stalled: self.stalled,
            gap: self.gap,
        }
    }

    /// Extracts the model and cumulative statistics from the current state.
    pub fn finalize<M: MatrixFormat>(&self, x: &M, params: &SmoParams) -> (SvmModel, SmoStats) {
        let n = self.y.len();
        // Bias from the KKT interval: b = −(b_high + b_low)/2.
        let (mut b_high, mut b_low) = (Scalar::INFINITY, Scalar::NEG_INFINITY);
        for i in 0..n {
            if self.status[i] & IN_HIGH != 0 {
                b_high = b_high.min(self.f[i]);
            }
            if self.status[i] & IN_LOW != 0 {
                b_low = b_low.max(self.f[i]);
            }
        }
        let bias = -(b_high + b_low) / 2.0;

        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..n {
            if self.alpha[i] > ALPHA_EPS {
                support_vectors.push(x.row_sparse(i));
                coefficients.push(self.alpha[i] * self.y[i]);
            }
        }
        let stats = SmoStats {
            iterations: self.iterations,
            converged: self.converged,
            final_gap: self.gap,
            n_support_vectors: support_vectors.len(),
            smsv_count: self.smsv_count,
            cache_hits: self.cache.hits(),
        };
        let model = SvmModel::new(params.kernel, support_vectors, coefficients, bias);
        (model, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::{CsrMatrix, MatrixFormat, SparseVec, TripletMatrix};

    /// Two well-separated clusters on a line: x < 0 labelled −1, x > 0 +1.
    fn separable_1d() -> (CsrMatrix, Vec<Scalar>) {
        let points = [-3.0, -2.5, -2.0, -1.5, 1.5, 2.0, 2.5, 3.0];
        let mut t = TripletMatrix::new(points.len(), 1);
        for (i, &p) in points.iter().enumerate() {
            t.push(i, 0, p);
        }
        let labels = points.iter().map(|&p| if p > 0.0 { 1.0 } else { -1.0 }).collect();
        (CsrMatrix::from_triplets(&t.compact()), labels)
    }

    /// XOR in 2D: not linearly separable, needs the Gaussian kernel.
    fn xor_2d() -> (CsrMatrix, Vec<Scalar>) {
        let pts = [(0.0, 0.0, -1.0), (1.0, 1.0, -1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)];
        let mut t = TripletMatrix::new(4, 2);
        for (i, &(a, b, _)) in pts.iter().enumerate() {
            if a != 0.0 {
                t.push(i, 0, a);
            }
            if b != 0.0 {
                t.push(i, 1, b);
            }
        }
        (CsrMatrix::from_triplets(&t.compact()), pts.iter().map(|p| p.2).collect())
    }
    #[test]
    fn linear_kernel_separates_clusters() {
        let (x, y) = separable_1d();
        let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let (model, stats) = train_with_stats(&x, &y, &params).unwrap();
        assert!(stats.converged, "gap {}", stats.final_gap);
        for i in 0..x.rows() {
            assert_eq!(model.predict_label(&x.row_sparse(i)), y[i], "sample {i}");
        }
        // Margin midpoint is 0: points beyond the clusters classify correctly.
        assert_eq!(model.predict_label(&SparseVec::new(1, vec![0], vec![10.0])), 1.0);
        assert_eq!(model.predict_label(&SparseVec::new(1, vec![0], vec![-10.0])), -1.0);
    }

    #[test]
    fn gaussian_kernel_solves_xor() {
        let (x, y) = xor_2d();
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 10.0,
            ..Default::default()
        };
        let (model, stats) = train_with_stats(&x, &y, &params).unwrap();
        assert!(stats.converged);
        for i in 0..4 {
            assert_eq!(model.predict_label(&x.row_sparse(i)), y[i], "XOR corner {i}");
        }
    }

    #[test]
    fn alphas_respect_box_constraint_via_dual_coefs() {
        let (x, y) = separable_1d();
        let params = SmoParams { kernel: KernelKind::Linear, c: 0.5, ..Default::default() };
        let (model, _) = train_with_stats(&x, &y, &params).unwrap();
        for &coef in model.coefficients() {
            assert!(coef.abs() <= 0.5 + 1e-9, "coef {coef} violates C");
        }
        // Dual feasibility: Σ α_i y_i = Σ coef_i = 0.
        let sum: Scalar = model.coefficients().iter().sum();
        assert!(sum.abs() < 1e-9, "Σ α y = {sum}");
    }

    #[test]
    fn cache_serves_repeated_rows() {
        let (x, y) = xor_2d();
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 10.0,
            ..Default::default()
        };
        let (_, stats) = train_with_stats(&x, &y, &params).unwrap();
        // 4 distinct rows at most can miss; everything else must hit.
        assert!(stats.smsv_count <= 4);
        if stats.iterations > 2 {
            assert!(stats.cache_hits > 0);
        }
    }

    #[test]
    fn max_iterations_caps_work() {
        let (x, y) = xor_2d();
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 10.0,
            max_iterations: 1,
            ..Default::default()
        };
        let (_, stats) = train_with_stats(&x, &y, &params).unwrap();
        assert_eq!(stats.iterations, 1);
        assert!(!stats.converged);
    }

    #[test]
    fn all_formats_train_identically() {
        use dls_sparse::{AnyMatrix, Format};
        let (x, y) = separable_1d();
        let t = x.to_triplets().compact();
        let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let (reference, ref_stats) = train_with_stats(&x, &y, &params).unwrap();
        for fmt in Format::ALL {
            let m = AnyMatrix::from_triplets(fmt, &t);
            let (model, stats) = train_with_stats(&m, &y, &params).unwrap();
            assert_eq!(stats.iterations, ref_stats.iterations, "{fmt}");
            assert!((model.bias() - reference.bias()).abs() < 1e-9, "{fmt}");
            for i in 0..x.rows() {
                assert_eq!(model.predict_label(&x.row_sparse(i)), y[i], "{fmt} sample {i}");
            }
        }
    }

    #[test]
    fn invalid_params_are_rejected() {
        let (x, y) = separable_1d();
        let bad_c = SmoParams { c: 0.0, ..Default::default() };
        assert!(train(&x, &y, &bad_c).is_err());
        let bad_tol = SmoParams { tolerance: -1.0, ..Default::default() };
        assert!(train(&x, &y, &bad_tol).is_err());
        let bad_iter = SmoParams { max_iterations: 0, ..Default::default() };
        assert!(train(&x, &y, &bad_iter).is_err());
    }

    /// Non-finite kernel parameters and feature values used to "converge"
    /// to a NaN bias or a garbage model; both solvers refuse them now.
    #[test]
    fn non_finite_inputs_are_refused() {
        use crate::{train_svr, SvrParams};
        let (x, y) = separable_1d();
        for kernel in [
            KernelKind::Gaussian { gamma: Scalar::NAN },
            KernelKind::Gaussian { gamma: Scalar::INFINITY },
            KernelKind::Gaussian { gamma: -1.0 },
            KernelKind::Polynomial { a: Scalar::NAN, r: 1.0, degree: 2 },
            KernelKind::Sigmoid { a: Scalar::NAN, r: 0.0 },
        ] {
            let smo = train(&x, &y, &SmoParams { kernel, ..Default::default() });
            assert!(matches!(smo, Err(SvmError::InvalidParameter(_))), "{kernel:?}: {smo:?}");
            let svr = train_svr(&x, &y, &SvrParams { kernel, ..Default::default() });
            assert!(matches!(svr, Err(SvmError::InvalidParameter(_))), "{kernel:?}: {svr:?}");
        }
        for bad in [Scalar::NAN, Scalar::INFINITY, Scalar::NEG_INFINITY] {
            let mut t = TripletMatrix::new(x.rows(), 2);
            for &(r, c, v) in x.to_triplets().entries() {
                t.push(r, c, v);
            }
            t.push(2, 1, bad);
            let x = CsrMatrix::from_triplets(&t.compact());
            let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
            let err = train(&x, &y, &params).unwrap_err();
            assert!(matches!(err, SvmError::NonFiniteRow { index: 2, .. }), "{bad}: {err:?}");
            assert!(err.to_string().contains("row 2"), "{err}");
            let svr = train_svr(&x, &y, &SvrParams::default()).unwrap_err();
            assert!(matches!(svr, SvmError::NonFiniteRow { index: 2, .. }), "{bad}: {svr:?}");
        }
    }

    #[test]
    fn rejects_bad_labels() {
        let (x, _) = separable_1d();
        let err = train(&x, &[1.0; 8], &SmoParams::default()).unwrap_err();
        assert_eq!(err, SvmError::SingleClass);
    }

    #[test]
    fn segmented_training_matches_monolithic() {
        let (x, y) = xor_2d();
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 10.0,
            ..Default::default()
        };
        let (reference, ref_stats) = train_with_stats(&x, &y, &params).unwrap();

        // Same training driven two iterations at a time.
        let mut state = SmoState::new(&x, &y, &params).unwrap();
        let mut segments = 0;
        while state.can_continue(&params) {
            let rep = state.run_segment(&x, &params, 2);
            segments += 1;
            assert!(rep.iterations <= 2);
            assert!(segments < 10_000, "segment loop must terminate");
        }
        let (model, stats) = state.finalize(&x, &params);
        assert_eq!(stats.iterations, ref_stats.iterations);
        assert_eq!(stats.smsv_count, ref_stats.smsv_count);
        assert_eq!(stats.converged, ref_stats.converged);
        assert!((model.bias() - reference.bias()).abs() < 1e-12);
        for i in 0..4 {
            assert_eq!(model.predict_label(&x.row_sparse(i)), y[i]);
        }
    }

    #[test]
    fn format_switch_between_segments_preserves_training() {
        use dls_sparse::{AnyMatrix, Format};
        let (csr, y) = separable_1d();
        let t = csr.to_triplets().compact();
        let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let (reference, ref_stats) = train_with_stats(&csr, &y, &params).unwrap();

        // Start on a deliberately poor format, then convert mid-training:
        // state depends on matrix content only, so the run must continue
        // seamlessly and reach the same solution.
        let dia = AnyMatrix::from_triplets(Format::Dia, &t);
        let mut state = SmoState::new(&dia, &y, &params).unwrap();
        state.run_segment(&dia, &params, 1);
        let better = dia.convert(Format::Csr);
        while state.can_continue(&params) {
            state.run_segment(&better, &params, 3);
        }
        let (model, stats) = state.finalize(&better, &params);
        assert!(stats.converged);
        assert_eq!(stats.iterations, ref_stats.iterations);
        assert!((model.bias() - reference.bias()).abs() < 1e-9);
        for i in 0..csr.rows() {
            assert_eq!(model.predict_label(&csr.row_sparse(i)), y[i]);
        }
    }

    /// The two-stage sweep and "update, then a plain selection pass" are
    /// the same function: same `f` bits, same
    /// pair, on sizes around the chunk boundaries and on values chosen to
    /// tie (a coarse grid), to be signed zeros, infinities and NaN.
    #[test]
    fn fused_pass_is_update_then_select() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed >> 11
        };
        for n in [1, 2, 63, 64, 65, 127, 128, 200, 321] {
            for round in 0..20 {
                let grid = |r: u64| (r % 7) as Scalar * 0.25 - 0.75;
                let mut f: Vec<Scalar> = (0..n).map(|_| grid(next())).collect();
                let k_high: Vec<Scalar> = (0..n).map(|_| grid(next())).collect();
                let k_low: Vec<Scalar> = (0..n).map(|_| grid(next())).collect();
                let status: Vec<u8> =
                    (0..n).map(|_| [IN_HIGH, IN_LOW, FREE][(next() % 3) as usize]).collect();
                if round % 4 == 3 {
                    for special in [-0.0, Scalar::NAN, Scalar::INFINITY, Scalar::NEG_INFINITY] {
                        f[(next() % n as u64) as usize] = special;
                    }
                }
                let deltas = (grid(next()), grid(next()));

                let mut want_f = f.clone();
                for i in 0..n {
                    want_f[i] += deltas.0 * k_high[i] + deltas.1 * k_low[i];
                }
                let want = select(&want_f, &status);

                let got = update_and_select(&mut f, &status, &k_high, &k_low, deltas);
                let bits = |v: &[Scalar]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&f), bits(&want_f), "n={n} round {round}");
                assert_eq!((got.high, got.low), (want.high, want.low), "n={n} round {round}");
                assert_eq!(got.b_high.to_bits(), want.b_high.to_bits(), "n={n} round {round}");
                assert_eq!(got.b_low.to_bits(), want.b_low.to_bits(), "n={n} round {round}");
            }
        }
    }

    /// Every point is stored three times with the same label, so the
    /// copies' `f` values are equal bit for bit for the whole run and nearly
    /// every selection is a real tie. 150 rows: two chunks of the dense
    /// fused pass and its tail.
    #[test]
    fn real_ties_fall_to_the_lowest_index() {
        let (points, copies) = (50, 3);
        let n = points * copies;
        let mut t = TripletMatrix::new(n, 2);
        let mut y = vec![0.0; n];
        for i in 0..points {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let jitter = (i as f64 * 0.77).sin();
            for row in (i..n).step_by(points) {
                t.push(row, 0, sign * 0.5 + jitter * 0.9);
                t.push(row, 1, (i as f64 * 0.31).cos());
                y[row] = sign;
            }
        }
        let x = CsrMatrix::from_triplets(&t.compact());
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 0.7 },
            c: 10.0,
            ..Default::default()
        };
        let mut state = SmoState::new(&x, &y, &params).unwrap();

        // At α = 0 every +1 row ties at f = −1 and every −1 row at f = +1.
        state.run_segment(&x, &params, 1);
        let moved: Vec<usize> = (0..n).filter(|&i| state.alpha[i] != 0.0).collect();
        assert_eq!(moved, [0, 1], "the first +1 row and the first −1 row");

        let mut ties = 0;
        while state.can_continue(&params) {
            state.run_segment(&x, &params, 1);
            let sel = state.pending;
            for i in 0..n {
                if state.status[i] & IN_HIGH != 0 && state.f[i] == sel.b_high {
                    assert!(
                        i >= sel.high,
                        "iteration {}: high {} over {i}",
                        state.iterations,
                        sel.high
                    );
                    ties += usize::from(i > sel.high);
                }
                if state.status[i] & IN_LOW != 0 && state.f[i] == sel.b_low {
                    assert!(
                        i >= sel.low,
                        "iteration {}: low {} over {i}",
                        state.iterations,
                        sel.low
                    );
                    ties += usize::from(i > sel.low);
                }
            }
        }
        assert!(state.converged && state.iterations > 100, "{} iterations", state.iterations);
        assert!(ties > state.iterations, "only {ties} ties in {} iterations", state.iterations);
    }

    #[test]
    fn zero_budget_segment_is_a_no_op() {
        let (x, y) = separable_1d();
        let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let mut state = SmoState::new(&x, &y, &params).unwrap();
        let rep = state.run_segment(&x, &params, 0);
        assert_eq!(rep.iterations, 0);
        assert!(!rep.converged);
        assert!(state.can_continue(&params));
    }

    #[test]
    fn stats_count_iterations_and_svs() {
        let (x, y) = separable_1d();
        let params = SmoParams { kernel: KernelKind::Linear, ..Default::default() };
        let (model, stats) = train_with_stats(&x, &y, &params).unwrap();
        assert!(stats.iterations >= 1);
        assert_eq!(stats.n_support_vectors, model.n_support_vectors());
        assert!(stats.n_support_vectors >= 2, "at least one SV per class");
    }
}
