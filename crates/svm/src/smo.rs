//! Sequential Minimal Optimization (paper Algorithm 1, equations 3–6).
//!
//! Each iteration selects the maximal-violating pair `(high, low)`, solves
//! the two-variable QP analytically, and updates the optimality vector
//! `f_i = Σ_j α_j y_j K(X_i, X_j) − y_i`. The two kernel rows needed per
//! iteration are produced by two SMSV products — `X · X_high` and
//! `X · X_low` — which is the layout-sensitive bottleneck the scheduler in
//! `dls-core` optimises.
//!
//! Working-set selection is first-order by default (Keerthi's maximal
//! violating pair); the second-order rule of Fan, Chen & Lin (the paper's
//! reference \[29\], used inside LIBSVM) is available as an option.

// The Keerthi index-set conditions are written exactly as the paper/LIBSVM
// state them (clippy would "simplify" them into unrecognisable forms), the
// solver loops index several parallel arrays at once, and parameter checks
// use `!(x > 0)` deliberately so NaN fails validation.
#![allow(clippy::nonminimal_bool, clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]

use crate::cache::{KernelCache, Slot, DEFAULT_CACHE_BYTES};
use crate::{KernelKind, SvmError, SvmModel, SvmProblem};
use dls_sparse::parallel::SmsvPool;
use dls_sparse::{MatrixFormat, RowScratch, Scalar, SparseVec};

/// α within this distance of a bound is treated as exactly at the bound.
const ALPHA_EPS: Scalar = 1e-12;

/// Working-set selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkingSetSelection {
    /// Maximal violating pair (first-order), as in Algorithm 1.
    #[default]
    FirstOrder,
    /// Second-order selection of the `low` index (Fan, Chen & Lin 2005).
    SecondOrder,
}

/// Hyperparameters for SMO training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoParams {
    /// Regularization constant `C` balancing generality and accuracy.
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
    /// Working-set selection rule.
    pub selection: WorkingSetSelection,
    /// Worker threads for the SMSV kernel rows (1 = serial). Mirrors the
    /// paper's OpenMP parallelisation of the SMO bottleneck.
    pub threads: usize,
    /// Shrinking heuristic (Joachims' SVMlight technique, the paper's
    /// related-work reference \[2\]): bound variables that cannot join any
    /// violating pair are dropped from the active set, so kernel rows are
    /// only evaluated on active samples. On apparent convergence the full
    /// optimality vector is reconstructed and the final gap is verified on
    /// all samples, so the returned model is unaffected.
    pub shrinking: bool,
    /// Class-weight multiplier for the positive class (LIBSVM's `-w1`):
    /// positive samples use box constraint `C · positive_weight`, negatives
    /// plain `C`. Values > 1 push the boundary toward the negative class —
    /// the standard handle for imbalanced data.
    pub positive_weight: Scalar,
    /// Kernel rows prefetched per cache miss with one blocked SMSV sweep
    /// (`smsv_block`): the missed row plus up to `block_size − 1` likely-
    /// next working-set candidates. `1` reproduces the classic one-row-per-
    /// miss behaviour exactly. Ignored when `threads > 1` (the worker pool
    /// splits single rows instead).
    pub block_size: usize,
}

impl Default for SmoParams {
    fn default() -> Self {
        Self {
            c: 1.0,
            kernel: KernelKind::default(),
            tolerance: 1e-3,
            max_iterations: 100_000,
            cache_bytes: DEFAULT_CACHE_BYTES,
            selection: WorkingSetSelection::FirstOrder,
            threads: 1,
            shrinking: false,
            positive_weight: 1.0,
            block_size: 1,
        }
    }
}

impl SmoParams {
    /// Validates the hyperparameters.
    pub fn validate(&self) -> Result<(), SvmError> {
        if !(self.c > 0.0) {
            return Err(SvmError::InvalidParameter(format!("C must be > 0, got {}", self.c)));
        }
        if !(self.tolerance > 0.0) {
            return Err(SvmError::InvalidParameter(format!(
                "tolerance must be > 0, got {}",
                self.tolerance
            )));
        }
        if self.max_iterations == 0 {
            return Err(SvmError::InvalidParameter("max_iterations must be > 0".into()));
        }
        if self.threads == 0 {
            return Err(SvmError::InvalidParameter("threads must be >= 1".into()));
        }
        if !(self.positive_weight > 0.0) {
            return Err(SvmError::InvalidParameter(format!(
                "positive_weight must be > 0, got {}",
                self.positive_weight
            )));
        }
        if self.block_size == 0 {
            return Err(SvmError::InvalidParameter("block_size must be >= 1".into()));
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
pub fn train<M: MatrixFormat + Sync>(
    x: &M,
    y: &[Scalar],
    params: &SmoParams,
) -> Result<SvmModel, SvmError> {
    train_with_stats(x, y, params).map(|(m, _)| m)
}

/// Trains a binary SVM, returning the model plus solver statistics.
pub fn train_with_stats<M: MatrixFormat + Sync>(
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
/// `yi` and box constraint `ci` (LIBSVM's `alpha_status`). It changes only
/// when α does, so the solver keeps it in a byte per sample and recomputes
/// the two that an iteration touched.
#[inline]
fn status_of(a: Scalar, yi: Scalar, ci: Scalar) -> u8 {
    let free = a > ALPHA_EPS && a < ci - ALPHA_EPS;
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
/// pair over the active samples. The loop runs it before its first
/// iteration and after the active set changed; in between, the selection
/// comes out of [`update_and_select`].
fn select(f: &[Scalar], status: &[u8], active: &[usize]) -> Selection {
    let mut sel = Selection::EMPTY;
    for &i in active {
        sel.consider(i, f[i], status[i]);
    }
    sel
}

/// Independent accumulators in stage one of the dense fused pass.
const LANES: usize = 4;
/// Rows the dense fused pass reduces before touching the selection.
const CHUNK: usize = 64;
/// Added to `f[i]` by status: 0 inside I_high, +∞ outside, so that a plain
/// minimum over the sums is the minimum over I_high.
const UP_PENALTY: [Scalar; 4] = [Scalar::INFINITY, 0.0, Scalar::INFINITY, 0.0];
/// The same for the maximum over I_low.
const DOWN_PENALTY: [Scalar; 4] = [Scalar::NEG_INFINITY, Scalar::NEG_INFINITY, 0.0, 0.0];

/// Equation (4) fused with the *next* iteration's selection: one pass adds
/// the two scaled kernel rows to `f` and lets each new `f[i]` compete for
/// the maximal violating pair. `active` is `None` while nothing is shrunk
/// (a dense sweep over `0..n`); shrunk samples keep stale `f` values until
/// reconstruction.
///
/// The dense sweep works in two stages, because a running minimum *with
/// its index* is one long chain of dependent compares and conditional
/// moves (about 8 cycles a row here). Stage one updates a chunk of `f` and
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
    active: Option<&[usize]>,
) -> Selection {
    let mut sel = Selection::EMPTY;
    if let Some(active) = active {
        for &i in active {
            f[i] += dh_yh * k_high[i] + dl_yl * k_low[i];
            sel.consider(i, f[i], status[i]);
        }
        return sel;
    }
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

/// A kernel row evaluated only at the active indices, for the iterations
/// after shrinking has made the active set small (see
/// [`partial_kernel_row`]).
#[derive(Default)]
struct PartialRow {
    /// Length n once used; zero outside `touched`.
    row: Vec<Scalar>,
    /// Indices written by the last fill; zeroing exactly these restores the
    /// buffer without an O(n) sweep.
    touched: Vec<usize>,
}

/// Which of an iteration's two kernel rows: index into `SmoState::partial`.
const HIGH: usize = 0;
const LOW: usize = 1;

/// An iteration's kernel row, wherever [`SmoState::kernel_row`] put it.
fn row_at<'a>(cache: &'a KernelCache, partial: &'a PartialRow, at: Option<Slot>) -> &'a [Scalar] {
    at.map_or(&partial.row, |slot| cache.row(slot))
}

/// Resumable SMO solver state.
///
/// The training loop is exposed in segments so a caller can interleave it
/// with other work — most importantly the reactive layout scheduler in
/// `dls-core`, which re-converts the data matrix to a different storage
/// format *between* segments. Everything in the state — `α`, the
/// optimality vector `f`, row norms and the kernel-row cache — depends
/// only on the matrix *content*, never its layout, so the same state
/// continues seamlessly across a format change.
pub struct SmoState {
    y: Vec<Scalar>,
    alpha: Vec<Scalar>,
    f: Vec<Scalar>,
    norms_sq: Vec<Scalar>,
    /// [`status_of`] every sample, kept in step with `alpha`.
    status: Vec<u8>,
    active: Vec<usize>,
    do_shrink: bool,
    shrink_every: usize,
    iterations: usize,
    smsv_count: u64,
    cache: KernelCache,
    converged: bool,
    stalled: bool,
    gap: Scalar,
    /// The selection the next iteration starts from, left behind by the
    /// last iteration's fused pass. `None` before the first iteration and
    /// whenever the active set changed since (shrink, un-shrink): the loop
    /// then runs [`select`].
    pending: Option<Selection>,
    /// The [`HIGH`] and [`LOW`] rows of an iteration on the partial-row path.
    partial: [PartialRow; 2],
    ws: SmoWorkspace,
}

/// Buffers reused across iterations and segments so the steady-state SMO
/// loop performs no heap allocation at all.
struct SmoWorkspace {
    /// Row-view scratch for the working-set row being fetched.
    scratch_a: RowScratch,
    /// Row-view scratch for the inner row of partial kernel products.
    scratch_b: RowScratch,
    /// Dense scatter workspace shared by every `smsv_view`/`smsv_block`.
    smsv_ws: Vec<Scalar>,
    /// Row indices gathered for one blocked prefetch.
    block_rows: Vec<usize>,
    /// Owned right-hand sides handed to `smsv_block`.
    block_vecs: Vec<SparseVec>,
    /// Vector-major output of `smsv_block` (`b × n`).
    block_out: Vec<Scalar>,
    /// Dense mirror of `active`, maintained incrementally by the shrink
    /// pass so `reconstruct_f` never rebuilds it.
    is_active: Vec<bool>,
    /// Support-vector rows materialised at most once, ever: row *content*
    /// is format-independent, so a mid-training layout switch does not
    /// invalidate them.
    sv_rows: Vec<Option<SparseVec>>,
    /// Scratch list of support-vector indices for `reconstruct_f`.
    svs: Vec<usize>,
    /// Persistent worker pool, spawned lazily when `threads > 1` and kept
    /// across iterations and segments (replaces a spawn/join per SMSV).
    pool: Option<SmsvPool>,
}

impl SmoWorkspace {
    fn new(n: usize) -> Self {
        Self {
            scratch_a: RowScratch::new(),
            scratch_b: RowScratch::new(),
            smsv_ws: Vec::new(),
            block_rows: Vec::new(),
            block_vecs: Vec::new(),
            block_out: Vec::new(),
            is_active: vec![true; n],
            sv_rows: vec![None; n],
            svs: Vec::new(),
            pool: None,
        }
    }
}

/// Per-sample box constraint: C_i = C · w(y_i).
#[inline]
fn c_of(params: &SmoParams, yi: Scalar) -> Scalar {
    if yi > 0.0 {
        params.c * params.positive_weight
    } else {
        params.c
    }
}

impl SmoState {
    /// Validates inputs and initialises solver state at `α = 0`.
    pub fn new<M: MatrixFormat + Sync>(
        x: &M,
        y: &[Scalar],
        params: &SmoParams,
    ) -> Result<Self, SvmError> {
        params.validate()?;
        let problem = SvmProblem::new(x, y)?;
        let n = problem.n_samples();
        let y = problem.labels().to_vec();

        // Precompute row norms once: every Gaussian kernel row needs them.
        let mut norms_sq = vec![0.0; n];
        x.row_norms_sq(&mut norms_sq);

        // f_i = Σ_j α_j y_j K_ij − y_i  starts at −y_i since α = 0 (eq. 3).
        let f: Vec<Scalar> = y.iter().map(|&yi| -yi).collect();

        Ok(Self {
            alpha: vec![0.0 as Scalar; n],
            f,
            norms_sq,
            status: y.iter().map(|&yi| status_of(0.0, yi, c_of(params, yi))).collect(),
            // Active set for the shrinking heuristic: indices still
            // eligible for working-set selection and f updates.
            active: (0..n).collect(),
            do_shrink: params.shrinking,
            // Iterations between shrink passes (LIBSVM uses min(n, 1000)).
            shrink_every: n.clamp(16, 1000),
            iterations: 0,
            smsv_count: 0,
            cache: KernelCache::with_budget(params.cache_bytes, n),
            converged: false,
            stalled: false,
            gap: Scalar::INFINITY,
            pending: None,
            partial: Default::default(),
            ws: SmoWorkspace::new(n),
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

    /// Produces the kernel row of `row` for the current iteration and says
    /// where it is: in a slot of the LRU row cache, or — `None` — in
    /// `self.partial[side]`. Once the active set has shrunk well below n,
    /// rows are evaluated only at active positions (per-row sparse dots),
    /// which is where shrinking actually saves work; partial rows bypass
    /// the cache to keep it full-row-only.
    fn kernel_row<M: MatrixFormat + Sync>(
        &mut self,
        x: &M,
        params: &SmoParams,
        row: usize,
        side: usize,
    ) -> Option<Slot> {
        if self.active.len() * 4 < self.y.len() {
            partial_kernel_row(
                x,
                row,
                &self.active,
                &self.norms_sq,
                params,
                &mut self.smsv_count,
                &mut self.ws,
                &mut self.partial[side],
            );
            return None;
        }
        Some(fetch_full_row(
            x,
            row,
            params,
            &self.status,
            &self.active,
            &self.norms_sq,
            &mut self.cache,
            &mut self.ws,
            &mut self.smsv_count,
        ))
    }

    /// Runs at most `budget` SMO iterations (bounded also by
    /// `params.max_iterations` globally), stopping early on convergence.
    ///
    /// `x` must hold the same matrix *content* on every call, but its
    /// storage format is free to change between calls. `params` must be the
    /// ones the state was built with, apart from `max_iterations`, `threads`
    /// and `block_size`: cached kernel rows and status bytes outlive a call.
    ///
    /// An iteration makes one pass over the rows: [`update_and_select`]
    /// applies equation (4) and picks the next maximal violating pair from
    /// the updated `f` in the same sweep, reading both kernel rows by
    /// reference out of their cache slots.
    pub fn run_segment<M: MatrixFormat + Sync>(
        &mut self,
        x: &M,
        params: &SmoParams,
        budget: usize,
    ) -> SegmentReport {
        let n = self.y.len();
        let start_iterations = self.iterations;
        let start_smsv = self.smsv_count;

        // Persistent worker pool: spawned once here and reused across every
        // iteration and segment (recreated only if `threads` changed).
        if params.threads > 1 && self.ws.pool.as_ref().is_none_or(|p| p.threads() != params.threads)
        {
            self.ws.pool = Some(SmsvPool::new(params.threads));
        }

        while !self.converged && !self.stalled {
            let sel =
                *self.pending.get_or_insert_with(|| select(&self.f, &self.status, &self.active));
            debug_assert_eq!(
                sel,
                select(&self.f, &self.status, &self.active),
                "the fused pass and a plain selection pass must agree"
            );
            let Selection { high, mut low, b_high, b_low } = sel;
            self.gap = b_low - b_high;
            if high == usize::MAX || low == usize::MAX || self.gap <= 2.0 * params.tolerance {
                if self.active.len() < n {
                    // Apparent convergence on the shrunk problem:
                    // reconstruct the full optimality vector and verify on
                    // all samples.
                    reconstruct_f(
                        x,
                        &self.y,
                        &self.alpha,
                        &self.norms_sq,
                        params,
                        &self.ws.is_active,
                        &mut self.ws.sv_rows,
                        &mut self.ws.svs,
                        &mut self.ws.scratch_a,
                        &mut self.f,
                    );
                    self.active.clear();
                    self.active.extend(0..n);
                    self.ws.is_active.fill(true);
                    self.do_shrink = false;
                    self.pending = None;
                    continue;
                }
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
            let high_at = self.kernel_row(x, params, high, HIGH);

            // Optional second-order refinement of `low` using the high row.
            if params.selection == WorkingSetSelection::SecondOrder {
                let k_high = row_at(&self.cache, &self.partial[HIGH], high_at);
                let mut best = Scalar::NEG_INFINITY;
                for &j in &self.active {
                    if self.status[j] & IN_LOW == 0 {
                        continue;
                    }
                    let diff = self.f[j] - b_high;
                    if diff <= params.tolerance {
                        continue;
                    }
                    let eta = (k_high[high] + self_k(&self.norms_sq, params, j) - 2.0 * k_high[j])
                        .max(1e-12);
                    let gain = diff * diff / eta;
                    if gain > best {
                        best = gain;
                        low = j;
                    }
                }
            }

            // `high` is the most recently used row and the cache holds at
            // least two, so fetching `low` leaves it resident; a blocked
            // prefetch as wide as the whole cache does evict it, and then
            // its slot is the spare, readable until the next claim.
            let low_at = self.kernel_row(x, params, low, LOW);
            let k_high = row_at(&self.cache, &self.partial[HIGH], high_at);
            let k_low = row_at(&self.cache, &self.partial[LOW], low_at);

            let (yh, yl) = (self.y[high], self.y[low]);
            let s = yh * yl;
            // η = K_hh + K_ll − 2 K_hl; guard non-PSD kernels (sigmoid)
            // and numerically degenerate pairs.
            let eta = (k_high[high] + k_low[low] - 2.0 * k_high[low]).max(1e-12);

            // Equation (5) with b_high = f_high, b_low = f_low at
            // selection time, then clip α_low to the feasible segment.
            let (c_high, c_low) = (c_of(params, yh), c_of(params, yl));
            let (l_bound, h_bound) = if s < 0.0 {
                (
                    (self.alpha[low] - self.alpha[high]).max(0.0),
                    (c_high + self.alpha[low] - self.alpha[high]).min(c_low),
                )
            } else {
                (
                    (self.alpha[low] + self.alpha[high] - c_high).max(0.0),
                    (self.alpha[low] + self.alpha[high]).min(c_low),
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
            self.alpha[high] = (self.alpha[high] + delta_high).clamp(0.0, c_high);
            self.status[low] = status_of(self.alpha[low], yl, c_low);
            self.status[high] = status_of(self.alpha[high], yh, c_high);

            self.pending = Some(update_and_select(
                &mut self.f,
                &self.status,
                k_high,
                k_low,
                (delta_high * yh, delta_low * yl),
                (self.active.len() < n).then_some(self.active.as_slice()),
            ));

            // Periodic shrink: drop bound variables that cannot join any
            // violating pair against the current [b_high, b_low] window.
            if self.do_shrink
                && self.iterations.is_multiple_of(self.shrink_every)
                && self.active.len() > 2
            {
                let (status, f) = (&self.status, &self.f);
                let is_active = &mut self.ws.is_active;
                let before = self.active.len();
                self.active.retain(|&i| {
                    // I_high-only at bound: can only violate as a future
                    // `high` with f[i] < b_low; I_low-only symmetric.
                    let keep = match status[i] {
                        FREE => true,
                        IN_HIGH => f[i] < b_low,
                        _ => f[i] > b_high,
                    };
                    if !keep {
                        is_active[i] = false;
                    }
                    keep
                });
                if self.active.len() < before {
                    self.pending = None;
                }
            }
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
    pub fn finalize<M: MatrixFormat + Sync>(
        &self,
        x: &M,
        params: &SmoParams,
    ) -> (SvmModel, SmoStats) {
        let n = self.y.len();
        // Bias from the KKT interval: b = −(b_high + b_low)/2, the interval
        // endpoints taken over every sample, shrunk or not.
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

/// The cache slot holding the full kernel row `row`.
///
/// A hit hands the resident slot out. On a miss, one SMSV computes the row
/// straight into a claimed slot — via the persistent worker pool when
/// `threads > 1`, via the borrowed-view kernel otherwise — and, when
/// `block_size > 1` (serial mode only), up to `block_size − 1` additional
/// not-yet-cached working-set candidates are prefetched with a single
/// blocked SMSV sweep over the matrix.
#[allow(clippy::too_many_arguments)]
fn fetch_full_row<M: MatrixFormat + Sync>(
    x: &M,
    row: usize,
    params: &SmoParams,
    status: &[u8],
    active: &[usize],
    norms_sq: &[Scalar],
    cache: &mut KernelCache,
    ws: &mut SmoWorkspace,
    smsv_count: &mut u64,
) -> Slot {
    if let Some(slot) = cache.lookup(row) {
        return slot;
    }
    let n = norms_sq.len();
    let block = if params.threads > 1 { 1 } else { params.block_size };
    let b_max = block.min(cache.capacity());
    if b_max <= 1 {
        *smsv_count += 1;
        let slot = cache.claim(row);
        let dest = cache.row_mut(slot);
        let xr = x.row_view_in(row, &mut ws.scratch_a);
        match ws.pool.as_ref().filter(|_| params.threads > 1) {
            Some(pool) => pool.smsv_generic(x, xr, dest),
            None => x.smsv_view(xr, dest, &mut ws.smsv_ws),
        }
        params.kernel.apply_row(dest, norms_sq, norms_sq[row]);
        return slot;
    }
    // Blocked prefetch: the missed row plus free, uncached working-set
    // candidates (free α ⇒ likely future high/low selections).
    ws.block_rows.clear();
    ws.block_rows.push(row);
    for &i in active {
        if ws.block_rows.len() >= b_max {
            break;
        }
        if i != row && status[i] == FREE && !cache.contains(i) {
            ws.block_rows.push(i);
        }
    }
    let b = ws.block_rows.len();
    ws.block_vecs.clear();
    for &i in &ws.block_rows {
        ws.block_vecs.push(x.row_sparse(i));
    }
    ws.block_out.clear();
    ws.block_out.resize(n * b, 0.0);
    *smsv_count += b as u64;
    x.smsv_block(&ws.block_vecs, &mut ws.block_out, &mut ws.smsv_ws);
    // Claim the prefetched rows first and the target row *last*, so it ends
    // up the most recently used and the prefetches cannot evict it.
    let mut slot = None;
    for (&i, chunk) in ws.block_rows.iter().zip(ws.block_out.chunks_exact(n)).rev() {
        let claimed = cache.claim(i);
        let dest = cache.row_mut(claimed);
        dest.copy_from_slice(chunk);
        params.kernel.apply_row(dest, norms_sq, norms_sq[i]);
        slot = Some(claimed);
    }
    slot.expect("the block holds at least the missed row")
}

/// K(X_j, X_j) for the second-order rule without materialising row j.
fn self_k(norms_sq: &[Scalar], params: &SmoParams, j: usize) -> Scalar {
    params.kernel.apply(norms_sq[j], norms_sq[j], norms_sq[j])
}

/// Kernel row evaluated only at the active indices (plus the row's own
/// diagonal), used once shrinking has made the active set small. Entries
/// outside the active set are left at zero and are never read: the f
/// update, the selection pass and the η computation all index into the
/// active set only.
///
/// The output buffer is reused across calls: only the entries written last
/// time are zeroed, and rows are read through borrowed views — no
/// allocation on any call after the first.
#[allow(clippy::too_many_arguments)]
fn partial_kernel_row<M: MatrixFormat>(
    x: &M,
    row: usize,
    active: &[usize],
    norms_sq: &[Scalar],
    params: &SmoParams,
    smsv_count: &mut u64,
    ws: &mut SmoWorkspace,
    out: &mut PartialRow,
) {
    *smsv_count += 1;
    out.row.resize(norms_sq.len(), 0.0);
    for &i in &out.touched {
        out.row[i] = 0.0;
    }
    out.touched.clear();
    let xr = x.row_view_in(row, &mut ws.scratch_a);
    for &i in active {
        let dot = x.row_view_in(i, &mut ws.scratch_b).dot(xr);
        out.row[i] = params.kernel.apply(dot, norms_sq[i], norms_sq[row]);
        out.touched.push(i);
    }
    if out.row[row] == 0.0 {
        // The row itself may already be shrunk; η still needs K(row,row).
        out.row[row] = params.kernel.apply(xr.norm_sq(), norms_sq[row], norms_sq[row]);
        out.touched.push(row);
    }
}

/// Recomputes `f_i = Σ_j α_j y_j K_ij − y_i` for every index *not* in the
/// active set (whose f went stale while shrunk), using one sparse dot per
/// (inactive sample, support vector) pair.
///
/// `is_active` is the dense mirror maintained by the shrink pass, and
/// support-vector rows are materialised into `sv_rows` at most once ever —
/// repeated reconstructions (one per shrink/unshrink cycle) reuse them.
#[allow(clippy::too_many_arguments)]
fn reconstruct_f<M: MatrixFormat>(
    x: &M,
    y: &[Scalar],
    alpha: &[Scalar],
    norms_sq: &[Scalar],
    params: &SmoParams,
    is_active: &[bool],
    sv_rows: &mut [Option<SparseVec>],
    svs: &mut Vec<usize>,
    scratch: &mut RowScratch,
    f: &mut [Scalar],
) {
    svs.clear();
    svs.extend((0..f.len()).filter(|&j| alpha[j] > ALPHA_EPS));
    for &j in svs.iter() {
        if sv_rows[j].is_none() {
            sv_rows[j] = Some(x.row_sparse(j));
        }
    }
    for i in 0..f.len() {
        if is_active[i] {
            continue;
        }
        let xi = x.row_view_in(i, scratch);
        let mut acc = -y[i];
        for &j in svs.iter() {
            let row_j = sv_rows[j].as_ref().expect("materialised above");
            let k = params.kernel.apply(xi.dot(row_j.as_view()), norms_sq[i], norms_sq[j]);
            acc += alpha[j] * y[j] * k;
        }
        f[i] = acc;
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
    fn second_order_selection_also_converges() {
        let (x, y) = xor_2d();
        let params = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 10.0,
            selection: WorkingSetSelection::SecondOrder,
            ..Default::default()
        };
        let (model, stats) = train_with_stats(&x, &y, &params).unwrap();
        assert!(stats.converged);
        for i in 0..4 {
            assert_eq!(model.predict_label(&x.row_sparse(i)), y[i]);
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
    fn positive_weight_shifts_the_boundary() {
        use dls_sparse::TripletMatrix;
        // Overlapping clusters: class +1 centred at +0.5, −1 at −0.5, with
        // the midpoint ambiguous. Weighting the positive class pushes the
        // decision boundary toward the negatives, so an ambiguous point
        // near zero flips to +1.
        let mut t = TripletMatrix::new(20, 1);
        let mut y = Vec::new();
        for i in 0..20 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let v = sign * 0.5 + ((i as f64) * 0.61).sin() * 0.6;
            t.push(i, 0, v);
            y.push(sign);
        }
        let x = dls_sparse::CsrMatrix::from_triplets(&t.compact());
        let balanced = SmoParams { kernel: KernelKind::Linear, c: 1.0, ..Default::default() };
        let weighted = SmoParams { positive_weight: 20.0, ..balanced };
        let (mb, _) = train_with_stats(&x, &y, &balanced).unwrap();
        let (mw, _) = train_with_stats(&x, &y, &weighted).unwrap();
        // Positive-class recall with the heavy weight must be at least as
        // good as balanced, and the decision value at the origin moves up.
        let probe = dls_sparse::SparseVec::zeros(1);
        assert!(
            mw.decision_function(&probe) >= mb.decision_function(&probe) - 1e-9,
            "weighted boundary must favour positives: {} vs {}",
            mw.decision_function(&probe),
            mb.decision_function(&probe)
        );
        let recall = |m: &crate::SvmModel| {
            let mut hit = 0;
            let mut tot = 0;
            for i in 0..20 {
                if y[i] > 0.0 {
                    tot += 1;
                    if m.predict_label(&x.row_sparse(i)) > 0.0 {
                        hit += 1;
                    }
                }
            }
            hit as f64 / tot as f64
        };
        assert!(recall(&mw) >= recall(&mb), "weighting must not hurt positive recall");
    }

    #[test]
    fn weighted_coefficients_respect_per_class_boxes() {
        let (x, y) = separable_1d();
        let params = SmoParams {
            kernel: KernelKind::Linear,
            c: 0.5,
            positive_weight: 4.0,
            ..Default::default()
        };
        let (model, _) = train_with_stats(&x, &y, &params).unwrap();
        for (&coef, sv) in model.coefficients().iter().zip(model.support_vectors()) {
            let _ = sv;
            if coef > 0.0 {
                assert!(coef <= 0.5 * 4.0 + 1e-9, "positive coef {coef}");
            } else {
                assert!(-coef <= 0.5 + 1e-9, "negative coef {coef}");
            }
        }
        assert!(train(&x, &y, &SmoParams { positive_weight: 0.0, ..params }).is_err());
    }

    #[test]
    fn shrinking_preserves_the_solution() {
        use dls_sparse::TripletMatrix;
        // A bigger problem so shrinking actually kicks in (shrink_every
        // scales with n).
        let n = 60;
        let mut t = TripletMatrix::new(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let jitter = (i as f64 * 0.77).sin();
            t.push(i, 0, sign * 2.0 + jitter * 0.5);
            t.push(i, 1, jitter);
            y.push(sign);
        }
        let x = dls_sparse::CsrMatrix::from_triplets(&t.compact());
        let plain = SmoParams { kernel: KernelKind::Gaussian { gamma: 0.5 }, ..Default::default() };
        let shrunk = SmoParams { shrinking: true, ..plain };
        let (m1, s1) = train_with_stats(&x, &y, &plain).unwrap();
        let (m2, s2) = train_with_stats(&x, &y, &shrunk).unwrap();
        assert!(s1.converged && s2.converged);
        // Same decisions everywhere; bias within the solver tolerance.
        assert!((m1.bias() - m2.bias()).abs() < 1e-2, "{} vs {}", m1.bias(), m2.bias());
        for i in 0..n {
            let r = x.row_sparse(i);
            assert_eq!(m1.predict_label(&r), m2.predict_label(&r), "row {i}");
        }
    }

    #[test]
    fn shrinking_final_gap_is_verified_on_full_set() {
        let (x, y) = separable_1d();
        let params =
            SmoParams { kernel: KernelKind::Linear, shrinking: true, ..Default::default() };
        let (_, stats) = train_with_stats(&x, &y, &params).unwrap();
        assert!(stats.converged);
        assert!(stats.final_gap <= 2.0 * params.tolerance + 1e-12);
    }

    #[test]
    fn threaded_kernel_rows_give_identical_results() {
        let (x, y) = xor_2d();
        let serial = SmoParams {
            kernel: KernelKind::Gaussian { gamma: 2.0 },
            c: 10.0,
            ..Default::default()
        };
        let threaded = SmoParams { threads: 4, ..serial };
        let (m1, s1) = train_with_stats(&x, &y, &serial).unwrap();
        let (m2, s2) = train_with_stats(&x, &y, &threaded).unwrap();
        assert_eq!(s1.iterations, s2.iterations);
        assert!((m1.bias() - m2.bias()).abs() < 1e-12);
        for i in 0..4 {
            assert_eq!(m1.predict_label(&x.row_sparse(i)), m2.predict_label(&x.row_sparse(i)));
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
        let bad_threads = SmoParams { threads: 0, ..Default::default() };
        assert!(train(&x, &y, &bad_threads).is_err());
        let bad_block = SmoParams { block_size: 0, ..Default::default() };
        assert!(train(&x, &y, &bad_block).is_err());
    }

    #[test]
    fn blocked_prefetch_trains_identically() {
        use dls_sparse::{AnyMatrix, Format};
        let (csr, y) = separable_1d();
        let t = csr.to_triplets().compact();
        let base = SmoParams { kernel: KernelKind::Gaussian { gamma: 0.5 }, ..Default::default() };
        let (reference, ref_stats) = train_with_stats(&csr, &y, &base).unwrap();
        for block_size in [2, 4, 32] {
            let blocked = SmoParams { block_size, ..base };
            for fmt in Format::ALL {
                let m = AnyMatrix::from_triplets(fmt, &t);
                let (model, stats) = train_with_stats(&m, &y, &blocked).unwrap();
                assert_eq!(stats.iterations, ref_stats.iterations, "{fmt} b={block_size}");
                assert!(
                    (model.bias() - reference.bias()).abs() < 1e-9,
                    "{fmt} b={block_size}: {} vs {}",
                    model.bias(),
                    reference.bias()
                );
                // Prefetching can only add SMSVs, never change decisions.
                assert!(stats.smsv_count >= ref_stats.smsv_count, "{fmt} b={block_size}");
                for i in 0..csr.rows() {
                    assert_eq!(model.predict_label(&csr.row_sparse(i)), y[i], "{fmt}");
                }
            }
        }
    }

    #[test]
    fn blocked_prefetch_reduces_cache_misses() {
        use dls_sparse::TripletMatrix;
        // A problem large enough that many distinct rows get fetched.
        let n = 40;
        let mut t = TripletMatrix::new(n, 3);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let jitter = (i as f64 * 0.77).sin();
            t.push(i, 0, sign + jitter * 0.9);
            t.push(i, 1, jitter);
            t.push(i, 2, (i as f64 * 0.31).cos() * 0.5);
            y.push(sign);
        }
        let x = dls_sparse::CsrMatrix::from_triplets(&t.compact());
        let base = SmoParams { kernel: KernelKind::Gaussian { gamma: 1.0 }, ..Default::default() };
        let blocked = SmoParams { block_size: 8, ..base };
        let (_, s1) = train_with_stats(&x, &y, &base).unwrap();
        let (_, s2) = train_with_stats(&x, &y, &blocked).unwrap();
        assert_eq!(s1.iterations, s2.iterations);
        // Prefetched rows turn later misses into hits.
        assert!(
            s2.cache_hits >= s1.cache_hits,
            "blocked hits {} < unblocked {}",
            s2.cache_hits,
            s1.cache_hits
        );
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

    /// The dense two-stage sweep, the indexed sweep and "update, then a
    /// plain selection pass" are the same function: same `f` bits, same
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
                let all: Vec<usize> = (0..n).collect();

                let mut want_f = f.clone();
                for i in 0..n {
                    want_f[i] += deltas.0 * k_high[i] + deltas.1 * k_low[i];
                }
                let want = select(&want_f, &status, &all);

                let mut indexed_f = f.clone();
                let indexed =
                    update_and_select(&mut indexed_f, &status, &k_high, &k_low, deltas, Some(&all));
                let dense = update_and_select(&mut f, &status, &k_high, &k_low, deltas, None);
                let bits = |v: &[Scalar]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&f), bits(&want_f), "n={n} round {round}");
                assert_eq!(bits(&indexed_f), bits(&want_f), "n={n} round {round}");
                for got in [dense, indexed] {
                    assert_eq!((got.high, got.low), (want.high, want.low), "n={n} round {round}");
                    assert_eq!(got.b_high.to_bits(), want.b_high.to_bits(), "n={n} round {round}");
                    assert_eq!(got.b_low.to_bits(), want.b_low.to_bits(), "n={n} round {round}");
                }
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
            let sel = state.pending.expect("a segment leaves its selection behind");
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
