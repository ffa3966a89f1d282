//! Low-overhead SMSV telemetry: how fast the kernels *actually* ran, not
//! what the cost model predicted. [`SmsvCounters`] is a set of
//! per-format atomic counters — calls, nanoseconds, bytes touched — cheap
//! enough to leave on in production: one `Instant` pair and three relaxed
//! atomic adds per SMSV call. [`InstrumentedMatrix`] wraps an [`AnyMatrix`]
//! and feeds the counters from the hot path while delegating every kernel
//! to the statically dispatched inner format.

use crate::{
    AnyMatrix, Format, MatrixFormat, RowScratch, Scalar, SparseVec, SparseVecView, TripletMatrix,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log2 buckets in the block-size histogram: bucket `k` counts
/// `smsv_block` calls with `2^k <= B < 2^(k+1)` (last bucket is open-ended).
pub const BLOCK_HIST_BUCKETS: usize = 8;

/// Index of a format in the counter arrays, in [`Format::ALL`] order.
#[inline]
pub fn format_index(format: Format) -> usize {
    Format::ALL.iter().position(|&f| f == format).expect("ALL covers every format")
}

/// Monotonic per-format totals for one kernel family.
#[derive(Debug, Default)]
pub(crate) struct FormatCounters {
    /// Number of kernel invocations.
    pub calls: AtomicU64,
    /// Total wall-clock nanoseconds inside the kernel.
    pub nanos: AtomicU64,
    /// Estimated bytes of matrix storage streamed (storage bytes × calls;
    /// one SMSV sweep touches the whole representation once).
    pub bytes: AtomicU64,
}

impl FormatCounters {
    #[inline]
    fn record(&self, nanos: u64, bytes: u64) {
        self.record_many(1, nanos, bytes);
    }

    /// Records `calls` logical kernel invocations that shared one timed
    /// region — how a blocked SMSV reports its B products.
    #[inline]
    fn record_many(&self, calls: u64, nanos: u64, bytes: u64) {
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// A point-in-time reading of one format's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSample {
    /// Kernel invocations so far.
    pub calls: u64,
    /// Nanoseconds spent so far.
    pub nanos: u64,
    /// Bytes streamed so far.
    pub bytes: u64,
}

impl CounterSample {
    /// Element-wise difference `self - earlier`, saturating at zero.
    pub(crate) fn delta(&self, earlier: &CounterSample) -> CounterSample {
        CounterSample {
            calls: self.calls.saturating_sub(earlier.calls),
            nanos: self.nanos.saturating_sub(earlier.nanos),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// Shared per-format SMSV counters. Cloning the `Arc` shares the totals;
/// all updates are relaxed atomics, so readers may lag by a call or two —
/// fine for reports, which read after the work or poll deltas.
#[derive(Debug, Default)]
pub struct SmsvCounters {
    by_format: [FormatCounters; Format::ALL.len()],
    /// Heap allocations the zero-copy engine skipped: one per borrowed row
    /// view or workspace-reusing kernel call that would previously have
    /// materialised an owned vector.
    allocs_avoided: AtomicU64,
    /// Histogram of `smsv_block` block sizes, log2-bucketed.
    block_hist: [AtomicU64; BLOCK_HIST_BUCKETS],
}

impl SmsvCounters {
    /// Fresh zeroed counters behind an `Arc`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one SMSV call in `format`.
    #[inline]
    pub(crate) fn record(&self, format: Format, nanos: u64, bytes: u64) {
        self.by_format[format_index(format)].record(nanos, bytes);
    }

    /// Records `calls` SMSV products served by one timed blocked kernel
    /// invocation in `format`.
    #[inline]
    pub(crate) fn record_many(&self, format: Format, calls: u64, nanos: u64, bytes: u64) {
        self.by_format[format_index(format)].record_many(calls, nanos, bytes);
    }

    /// Counts `n` heap allocations avoided by the zero-copy paths.
    #[inline]
    pub(crate) fn record_allocs_avoided(&self, n: u64) {
        self.allocs_avoided.fetch_add(n, Ordering::Relaxed);
    }

    /// Total heap allocations the zero-copy engine has avoided so far.
    pub(crate) fn allocs_avoided(&self) -> u64 {
        self.allocs_avoided.load(Ordering::Relaxed)
    }

    /// Records one `smsv_block` call covering `block` right-hand sides.
    #[inline]
    pub(crate) fn record_block(&self, block: usize) {
        let bucket = (usize::BITS - 1 - block.max(1).leading_zeros()) as usize;
        self.block_hist[bucket.min(BLOCK_HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// The block-size histogram: bucket `k` counts calls with
    /// `2^k <= B < 2^(k+1)` (last bucket open-ended).
    pub(crate) fn block_histogram(&self) -> [u64; BLOCK_HIST_BUCKETS] {
        let mut out = [0u64; BLOCK_HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.block_hist.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Reads one format's totals.
    pub(crate) fn sample(&self, format: Format) -> CounterSample {
        let c = &self.by_format[format_index(format)];
        CounterSample {
            calls: c.calls.load(Ordering::Relaxed),
            nanos: c.nanos.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
        }
    }

    /// Reads every format's totals, in [`Format::ALL`] order.
    pub(crate) fn sample_all(&self) -> [CounterSample; Format::ALL.len()] {
        let mut out = [CounterSample::default(); Format::ALL.len()];
        for (slot, &f) in out.iter_mut().zip(Format::ALL.iter()) {
            *slot = self.sample(f);
        }
        out
    }
}

/// A point-in-time copy of *every* counter an [`SmsvCounters`] holds:
/// per-format totals, allocations avoided, and the block-size histogram.
///
/// Snapshots are plain data, so they compose without touching the live
/// atomics: [`SmsvSnapshot::delta`] subtracts an earlier reading. An
/// aggregator that keeps the last snapshot per source and merges only the
/// deltas ([`SmsvCounters::merge_snapshot`]) counts every event exactly
/// once, no matter how often it polls — the pattern `dls-serve` uses to
/// fold per-model counters into one process-wide view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmsvSnapshot {
    /// Per-format totals, in [`Format::ALL`] order.
    pub by_format: [CounterSample; Format::ALL.len()],
    /// Heap allocations avoided by the zero-copy paths.
    pub allocs_avoided: u64,
    /// Block-size histogram, log2-bucketed as in [`SmsvCounters`].
    pub block_hist: [u64; BLOCK_HIST_BUCKETS],
}

impl SmsvSnapshot {
    /// Element-wise difference `self - earlier`, saturating at zero.
    /// Both readings must come from the same (monotone) counters for the
    /// result to mean "what happened in between".
    pub fn delta(&self, earlier: &SmsvSnapshot) -> SmsvSnapshot {
        let mut out = SmsvSnapshot::default();
        for ((o, new), old) in
            out.by_format.iter_mut().zip(self.by_format.iter()).zip(earlier.by_format.iter())
        {
            *o = new.delta(old);
        }
        out.allocs_avoided = self.allocs_avoided.saturating_sub(earlier.allocs_avoided);
        for ((o, new), old) in
            out.block_hist.iter_mut().zip(self.block_hist.iter()).zip(earlier.block_hist.iter())
        {
            *o = new.saturating_sub(*old);
        }
        out
    }

    /// Total calls across every format.
    pub fn total_calls(&self) -> u64 {
        self.by_format.iter().map(|s| s.calls).sum()
    }

    /// Total `smsv_block` invocations that covered more than one
    /// right-hand side (buckets 1.., i.e. `B >= 2`).
    pub fn multi_vector_blocks(&self) -> u64 {
        self.block_hist[1..].iter().sum()
    }
}

impl SmsvCounters {
    /// Atomically-read copy of every counter (relaxed loads; readers may
    /// lag in-flight updates by a call, which the delta discipline absorbs).
    pub fn snapshot(&self) -> SmsvSnapshot {
        SmsvSnapshot {
            by_format: self.sample_all(),
            allocs_avoided: self.allocs_avoided(),
            block_hist: self.block_histogram(),
        }
    }

    /// Adds a snapshot (usually a delta) into these counters.
    pub fn merge_snapshot(&self, snap: &SmsvSnapshot) {
        for (&f, s) in Format::ALL.iter().zip(snap.by_format.iter()) {
            if s.calls > 0 || s.nanos > 0 || s.bytes > 0 {
                self.by_format[format_index(f)].record_many(s.calls, s.nanos, s.bytes);
            }
        }
        if snap.allocs_avoided > 0 {
            self.record_allocs_avoided(snap.allocs_avoided);
        }
        for (bucket, &n) in self.block_hist.iter().zip(snap.block_hist.iter()) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// An [`AnyMatrix`] that meters its SMSV calls into shared [`SmsvCounters`].
///
/// The SMSV kernel family (`smsv`, `smsv_view`, `smsv_block`) — what the
/// SMO loop hammers — is timed; `row_view_in` and `smsv_view` additionally
/// bump the allocs-avoided counter, and `smsv_block` feeds the block-size
/// histogram. The remaining trait methods delegate untouched. The per-call
/// bytes estimate is precomputed at wrap time so the hot path adds no
/// traversal.
#[derive(Debug, Clone)]
pub struct InstrumentedMatrix {
    inner: AnyMatrix,
    counters: Arc<SmsvCounters>,
    smsv_bytes: u64,
}

impl InstrumentedMatrix {
    /// Wraps `inner`, metering into `counters`.
    pub fn new(inner: AnyMatrix, counters: Arc<SmsvCounters>) -> Self {
        let smsv_bytes = inner.storage_bytes() as u64;
        Self { inner, counters, smsv_bytes }
    }

    /// The shared counters this wrapper feeds.
    #[inline]
    pub fn counters(&self) -> &Arc<SmsvCounters> {
        &self.counters
    }
}

impl MatrixFormat for InstrumentedMatrix {
    #[inline]
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    #[inline]
    fn cols(&self) -> usize {
        self.inner.cols()
    }

    #[inline]
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    #[inline]
    fn format(&self) -> Format {
        self.inner.format()
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> Scalar {
        self.inner.get(i, j)
    }

    #[inline]
    fn row_sparse(&self, i: usize) -> SparseVec {
        self.inner.row_sparse(i)
    }

    #[inline]
    fn row_view_in<'a>(&'a self, i: usize, scratch: &'a mut RowScratch) -> SparseVecView<'a> {
        // Each borrowed view replaces a `row_sparse` heap allocation.
        self.counters.record_allocs_avoided(1);
        self.inner.row_view_in(i, scratch)
    }

    fn smsv(&self, v: &SparseVec, out: &mut [Scalar]) {
        let start = Instant::now();
        self.inner.smsv(v, out);
        let nanos = start.elapsed().as_nanos() as u64;
        self.counters.record(self.inner.format(), nanos, self.smsv_bytes);
    }

    fn smsv_view(&self, v: SparseVecView<'_>, out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        let start = Instant::now();
        self.inner.smsv_view(v, out, workspace);
        let nanos = start.elapsed().as_nanos() as u64;
        self.counters.record(self.inner.format(), nanos, self.smsv_bytes);
        // The reused workspace replaces `smsv`'s internal scratch allocation.
        self.counters.record_allocs_avoided(1);
    }

    fn smsv_block(&self, vs: &[SparseVec], out: &mut [Scalar], workspace: &mut Vec<Scalar>) {
        let start = Instant::now();
        self.inner.smsv_block(vs, out, workspace);
        let nanos = start.elapsed().as_nanos() as u64;
        // Every format's blocked kernel streams the matrix once per chunk.
        self.counters.record_many(self.inner.format(), vs.len() as u64, nanos, self.smsv_bytes);
        self.counters.record_block(vs.len());
    }

    #[inline]
    fn row_norms_sq(&self, out: &mut [Scalar]) {
        self.inner.row_norms_sq(out)
    }

    #[inline]
    fn to_triplets(&self) -> TripletMatrix {
        self.inner.to_triplets()
    }

    #[inline]
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    #[inline]
    fn storage_elems(&self) -> usize {
        self.inner.storage_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn small() -> TripletMatrix {
        TripletMatrix::from_entries(4, 4, vec![(0, 0, 1.0), (1, 1, 2.0), (2, 3, 3.0), (3, 2, 4.0)])
            .unwrap()
            .compact()
    }

    #[test]
    fn smsv_calls_and_bytes_are_counted() {
        let t = small();
        let counters = SmsvCounters::shared();
        let m =
            InstrumentedMatrix::new(AnyMatrix::from_triplets(Format::Csr, &t), counters.clone());
        let v = m.row_sparse(0);
        let mut out = vec![0.0; 4];
        for _ in 0..5 {
            m.smsv(&v, &mut out);
        }
        let s = counters.sample(Format::Csr);
        assert_eq!(s.calls, 5);
        assert_eq!(s.bytes, 5 * m.storage_bytes() as u64);
        assert_eq!(counters.sample(Format::Coo).calls, 0);
        assert_eq!(counters.snapshot().total_calls(), 5);
    }

    #[test]
    fn view_paths_count_avoided_allocations() {
        let t = small();
        let counters = SmsvCounters::shared();
        let m =
            InstrumentedMatrix::new(AnyMatrix::from_triplets(Format::Csr, &t), counters.clone());
        let mut scratch = RowScratch::new();
        let mut ws = Vec::new();
        let mut out = vec![0.0; 4];
        let v = m.row_sparse(0);
        let view = m.row_view_in(0, &mut scratch).to_owned();
        assert_eq!(view.indices(), v.indices());
        m.smsv_view(v.as_view(), &mut out, &mut ws);
        // One avoided alloc from row_view_in, one from smsv_view.
        assert_eq!(counters.allocs_avoided(), 2);
        assert_eq!(counters.sample(Format::Csr).calls, 1);
    }

    #[test]
    fn block_histogram_buckets_by_power_of_two() {
        let t = small();
        let counters = SmsvCounters::shared();
        let m =
            InstrumentedMatrix::new(AnyMatrix::from_triplets(Format::Csr, &t), counters.clone());
        let vs: Vec<SparseVec> = (0..4).map(|i| m.row_sparse(i)).collect();
        let mut ws = Vec::new();
        let mut out = vec![0.0; 4 * 4];
        m.smsv_block(&vs, &mut out, &mut ws);
        m.smsv_block(&vs[..1], &mut out[..4], &mut ws);
        let hist = counters.block_histogram();
        assert_eq!(hist[2], 1); // block of 4 -> bucket log2(4) = 2
        assert_eq!(hist[0], 1); // block of 1 -> bucket 0
                                // Blocked CSR kernel: one matrix sweep, but 4 + 1 SMSV calls.
        assert_eq!(counters.sample(Format::Csr).calls, 5);
        assert_eq!(counters.sample(Format::Csr).bytes, 2 * m.storage_bytes() as u64);
    }

    #[test]
    fn results_match_uninstrumented() {
        let t = small();
        let plain = AnyMatrix::from_triplets(Format::Ell, &t);
        let metered = InstrumentedMatrix::new(plain.clone(), SmsvCounters::shared());
        let v = plain.row_sparse(2);
        let (mut a, mut b) = (vec![0.0; 4], vec![0.0; 4]);
        plain.smsv(&v, &mut a);
        metered.smsv(&v, &mut b);
        assert_eq!(a, b);
        assert_eq!(metered.format(), Format::Ell);
        assert_eq!(metered.nnz(), plain.nnz());
    }

    #[test]
    fn sample_delta_subtracts_and_saturates() {
        let earlier = CounterSample { calls: 10, nanos: 1_000, bytes: 4_000 };
        let later = CounterSample { calls: 30, nanos: 5_000, bytes: 12_000 };
        assert_eq!(later.delta(&earlier), CounterSample { calls: 20, nanos: 4_000, bytes: 8_000 });
        assert_eq!(earlier.delta(&later), CounterSample::default());
    }

    /// Counters with a distinctive, per-source pattern in every field.
    fn loaded_counters(seed: u64) -> SmsvCounters {
        let c = SmsvCounters::default();
        for (k, &f) in Format::ALL.iter().enumerate() {
            let k = k as u64 + 1;
            for _ in 0..(seed % 3 + 1) {
                c.record(f, seed * 10 + k, seed * 100 + k);
            }
        }
        c.record_allocs_avoided(seed + 1);
        c.record_block((seed as usize % 6) + 1);
        c.record_block(1);
        c
    }

    #[test]
    fn snapshot_delta_isolates_new_activity() {
        let t = small();
        let counters = SmsvCounters::shared();
        let m =
            InstrumentedMatrix::new(AnyMatrix::from_triplets(Format::Csr, &t), counters.clone());
        let v = m.row_sparse(0);
        let mut out = vec![0.0; 4];
        m.smsv(&v, &mut out);
        let first = counters.snapshot();
        m.smsv(&v, &mut out);
        m.smsv(&v, &mut out);
        let second = counters.snapshot();
        let d = second.delta(&first);
        let csr = format_index(Format::Csr);
        assert_eq!(d.by_format[csr].calls, 2);
        assert_eq!(first.by_format[csr].calls, 1);
        assert_eq!(second.total_calls(), 3);
        // Self-delta is zero everywhere.
        assert_eq!(second.delta(&second), SmsvSnapshot::default());
    }

    #[test]
    fn delta_merging_never_double_counts() {
        // The serve aggregation pattern: poll two live sources repeatedly,
        // merging only deltas; the aggregate must equal the final totals.
        let sources = [loaded_counters(4), loaded_counters(7)];
        let global = SmsvCounters::default();
        let mut last = [SmsvSnapshot::default(); 2];
        for round in 0..3 {
            for (src, last) in sources.iter().zip(last.iter_mut()) {
                if round > 0 {
                    src.record(Format::Ell, 5, 9); // new activity between polls
                    src.record_block(4);
                }
                let now = src.snapshot();
                global.merge_snapshot(&now.delta(last));
                *last = now;
            }
        }
        // Each source's final totals, summed field by field here rather than
        // through `merge_snapshot`, so a field it drops or swaps shows.
        let (a, b) = (sources[0].snapshot(), sources[1].snapshot());
        let mut expected = SmsvSnapshot::default();
        for (e, (x, y)) in expected.by_format.iter_mut().zip(a.by_format.iter().zip(&b.by_format)) {
            e.calls = x.calls + y.calls;
            e.nanos = x.nanos + y.nanos;
            e.bytes = x.bytes + y.bytes;
        }
        expected.allocs_avoided = a.allocs_avoided + b.allocs_avoided;
        for (e, (x, y)) in
            expected.block_hist.iter_mut().zip(a.block_hist.iter().zip(&b.block_hist))
        {
            *e = x + y;
        }
        assert_eq!(global.snapshot(), expected);
        assert!(expected.multi_vector_blocks() >= 4); // the B=4 blocks recorded above
    }

    #[test]
    fn format_index_is_a_bijection() {
        let mut seen = [false; Format::ALL.len()];
        for f in Format::ALL {
            let i = format_index(f);
            assert!(!seen[i]);
            seen[i] = true;
        }
    }
}
