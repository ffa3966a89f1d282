//! Analytic cost-model selector (Equation 7 of the paper).
//!
//! `time ≳ transferred memory / memory bandwidth`: the per-iteration SMSV
//! streams the whole stored representation once, so predicted time is the
//! Table II storage volume (in bytes) divided by the per-format effective
//! bandwidth of §III-B.

use crate::bandwidth::BandwidthProfile;
use crate::report::{FormatScore, SelectionReport};
use crate::scheduler::FormatSelector;
use dls_sparse::storage::predicted_storage_elems;
use dls_sparse::{Format, MatrixFeatures, Scalar, TripletMatrix, MAX_SMSV_BLOCK};

/// Selector that minimises predicted SMSV time over [`Format::BASIC`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModelSelector {
    /// Per-format effective bandwidth used as the denominator of Eq. (7).
    pub bandwidth: BandwidthProfile,
    /// Kernel block size the consumer will use for batched SMSV
    /// (`smsv_block`). `0` or `1` models the unblocked per-vector kernel;
    /// larger values amortise the matrix stream over `block` right-hand
    /// sides.
    pub block: usize,
    /// Learned per-format tuned block sizes, indexed by each format's
    /// position in [`Format::ALL`]. A present non-zero entry overrides the
    /// uniform `block` when pricing that format, so amortisation is priced
    /// at the block size the kernel will actually run with rather than a
    /// fixed engine-wide constant.
    pub blocks: Option<[usize; Format::ALL.len()]>,
}

impl CostModelSelector {
    /// Creates a selector with a custom bandwidth profile.
    pub fn with_bandwidth(bandwidth: BandwidthProfile) -> Self {
        Self { bandwidth, ..Default::default() }
    }

    /// Models a consumer that batches `block` SMSVs per matrix sweep.
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }

    /// Supplies learned per-format tuned block sizes (indexed by each
    /// format's position in [`Format::ALL`]); a zero entry keeps the
    /// uniform `block` for that format.
    pub fn with_block_hints(mut self, blocks: [usize; Format::ALL.len()]) -> Self {
        self.blocks = Some(blocks);
        self
    }

    /// The block size used to price `format`: the tuned per-format hint
    /// when one is present, the uniform consumer `block` otherwise.
    pub fn effective_block(&self, format: Format) -> usize {
        let hint = self.blocks.and_then(|bs| {
            let k = Format::ALL.iter().position(|&f| f == format)?;
            (bs[k] > 0).then_some(bs[k])
        });
        hint.unwrap_or(self.block).max(1)
    }

    /// Predicted seconds for one SMSV sweep in `format`.
    ///
    /// Storage *elements* are converted to bytes: the value array streams
    /// 8-byte scalars and index arrays 8-byte words, so elements × 8 is the
    /// transferred volume Equation (7) divides by bandwidth.
    /// With `block > 1` the matrix stream is amortised over the block: per
    /// SMSV the transferred volume drops to `storage / block` plus the
    /// per-vector workspace traffic (scatter + gather of one dense column
    /// vector, `2·n` words) that cannot be amortised.
    pub fn predicted_time(&self, format: Format, f: &MatrixFeatures) -> f64 {
        let elems = predicted_storage_elems(format, f);
        let bytes = elems * std::mem::size_of::<Scalar>() as f64;
        let b = self.effective_block(format);
        if b > 1 {
            let vector_bytes = 2.0 * f.n as f64 * std::mem::size_of::<Scalar>() as f64;
            (bytes / b as f64 + vector_bytes) / self.bandwidth.bytes_per_sec(format)
        } else {
            bytes / self.bandwidth.bytes_per_sec(format)
        }
    }

    /// Predicted times for every basic format (lower is better).
    pub fn score_all(&self, f: &MatrixFeatures) -> Vec<FormatScore> {
        Format::BASIC
            .iter()
            .map(|&fmt| FormatScore::new(fmt, self.predicted_time(fmt, f)))
            .collect()
    }
}

impl FormatSelector for CostModelSelector {
    fn select(&self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let _ = t;
        let scores = self.score_all(f);
        let FormatScore { format: chosen, score: best } = scores
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).expect("finite times"))
            .copied()
            .expect("five candidates");
        // Batching consumers run the chosen format at the block the model
        // priced; a selector that never priced blocking still reports the
        // engine default so downstream coalescing is not throttled.
        let block = if self.block > 1 || self.blocks.is_some() {
            self.effective_block(chosen)
        } else {
            MAX_SMSV_BLOCK
        };
        SelectionReport {
            chosen,
            block,
            features: *f,
            scores,
            reason: format!("cost model: {:.2e} s predicted via Eq. (7) storage/bandwidth", best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_data::{generate, DatasetSpec};

    fn features_of(name: &str, scale: usize) -> MatrixFeatures {
        let spec = DatasetSpec::by_name(name).unwrap().scaled(scale);
        MatrixFeatures::from_triplets(&generate(&spec, 42))
    }

    #[test]
    fn dia_wins_on_diagonal_matrices() {
        let f = features_of("trefethen", 1);
        let sel = CostModelSelector::default();
        let scores = sel.score_all(&f);
        let best =
            scores.iter().min_by(|a, b| a.score.partial_cmp(&b.score).unwrap()).unwrap().format;
        assert_eq!(best, Format::Dia);
    }

    #[test]
    fn den_wins_on_dense_matrices() {
        let f = features_of("leukemia", 1);
        let sel = CostModelSelector::default();
        let best = sel
            .score_all(&f)
            .iter()
            .min_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap()
            .format;
        assert_eq!(best, Format::Den, "DEN stores MN vs CSR's 2MN+M on dense data");
    }

    #[test]
    fn predicted_time_scales_with_storage() {
        let f = features_of("adult", 1);
        let sel = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        // With flat bandwidth the ordering must follow pure storage size.
        let t_coo = sel.predicted_time(Format::Coo, &f);
        let t_csr = sel.predicted_time(Format::Csr, &f);
        assert!(t_csr < t_coo, "CSR stores 2nnz+M+1 < COO's 3nnz");
    }

    #[test]
    fn ell_padding_penalised() {
        // mnist: mdim 291 vs adim 148 → ELL stores ~2x the useful data.
        let f = features_of("mnist", 1);
        let sel = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        assert!(
            sel.predicted_time(Format::Ell, &f) > sel.predicted_time(Format::Csr, &f),
            "padded ELL must cost more than CSR on imbalanced rows"
        );
    }

    #[test]
    fn report_is_consistent() {
        use crate::scheduler::FormatSelector;
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t = generate(spec, 1);
        let f = MatrixFeatures::from_triplets(&t);
        let r = CostModelSelector::default().select(&t, &f);
        assert_eq!(r.chosen, Format::Dia);
        let chosen_score = r.score_of(r.chosen).unwrap();
        for s in &r.scores {
            assert!(chosen_score <= s.score);
        }
        assert!(r.reason.contains("cost model"));
    }

    #[test]
    fn blocking_cheapens_formats_with_blocked_kernels() {
        let f = features_of("adult", 1);
        let flat = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        let blocked = flat.with_block(8);
        // Every format has a true blocked kernel, CSC included (its merged
        // column sweep streams shared columns once per block).
        for fmt in Format::ALL {
            assert!(
                blocked.predicted_time(fmt, &f) < flat.predicted_time(fmt, &f),
                "{fmt}: amortised sweep must be cheaper"
            );
        }
        // block = 1 must be exactly the unblocked model.
        assert_eq!(
            flat.with_block(1).predicted_time(Format::Csr, &f),
            flat.predicted_time(Format::Csr, &f)
        );
    }

    #[test]
    fn block_hints_override_uniform_block_per_format() {
        let f = features_of("adult", 1);
        let flat = CostModelSelector::with_bandwidth(BandwidthProfile::FLAT);
        let mut hints = [0usize; Format::ALL.len()];
        let csr_at = Format::ALL.iter().position(|&x| x == Format::Csr).unwrap();
        hints[csr_at] = 4;
        let sel = flat.with_block(32).with_block_hints(hints);
        assert_eq!(sel.effective_block(Format::Csr), 4);
        // Zero entries fall back to the uniform block.
        assert_eq!(sel.effective_block(Format::Ell), 32);
        // Pricing CSR at block 4 must cost more than at block 32.
        assert!(
            sel.predicted_time(Format::Csr, &f)
                > flat.with_block(32).predicted_time(Format::Csr, &f)
        );
        // The report carries the tuned block of the chosen format.
        use crate::scheduler::FormatSelector;
        let spec = dls_data::DatasetSpec::by_name("adult").unwrap();
        let t = dls_data::generate(spec, 1);
        let r = sel.select(&t, &f);
        assert_eq!(r.block, sel.effective_block(r.chosen));
    }
}
