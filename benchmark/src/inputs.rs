//! Inputs, made from `--seed` and nothing else.
//!
//! Every matrix is a synthetic twin of a Table V dataset (`dls_data`
//! generates a matrix whose nine influencing parameters match the
//! paper's); the program under test sees only what is generated here.

use dls_data::labels::linear_teacher_labels;
use dls_data::{generate, DatasetSpec, PAPER_DATASETS};
use dls_sparse::{Format, SparseVec, TripletMatrix};
use dls_svm::{KernelKind, SvmModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The eight twins of the SVM workloads, each with the basic format the
/// paper's rules give it: one per sparse format (two for COO) and three
/// the scheduler stores dense.
pub const SVM_TWINS: [(&str, Format); 8] = [
    ("adult", Format::Ell),
    ("aloi", Format::Csr),
    ("mnist", Format::Coo),
    ("sector", Format::Coo),
    ("trefethen", Format::Dia),
    ("connect-4", Format::Den),
    ("gisette", Format::Den),
    ("leukemia", Format::Den),
];

/// Row-count divisor per dataset, the same the repository's repro
/// binaries use (`dls_bench::workloads::default_scale`): the dense giants
/// shrink hard, the sparse sets run at or near Table V size. At these
/// scales a pass over the dense group costs about what a pass over the
/// sparse group does.
pub fn default_scale(name: &str) -> usize {
    match name {
        "gisette" => 8,
        "epsilon" => 400,
        "dna" => 2_000,
        "sector" => 4,
        _ => 1,
    }
}

/// A seed for one named sub-stream of the run's randomness (SplitMix64
/// finaliser over seed and stream).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The twin of `name` at `default_scale(name) * extra_scale`.
///
/// # Panics
/// Panics on a name that is not in Table V: the names are fixed in this
/// crate, not read from outside.
pub fn twin(name: &str, extra_scale: usize, seed: u64) -> TripletMatrix {
    let spec = DatasetSpec::by_name(name)
        .unwrap_or_else(|| panic!("no Table V dataset named {name}"))
        .scaled(default_scale(name) * extra_scale);
    generate(&spec, seed)
}

/// ±1 labels from a linear teacher with 5% label noise.
pub fn labels(t: &TripletMatrix, seed: u64) -> Vec<f64> {
    linear_teacher_labels(t, 0.05, seed)
}

/// The same matrix as a caller that never sorted it would hand it over:
/// entries pushed in shuffled order, so `schedule()` has to compact first.
pub fn uncompacted(t: &TripletMatrix, seed: u64) -> TripletMatrix {
    let mut entries = t.entries().to_vec();
    entries.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut out = TripletMatrix::with_capacity(t.rows(), t.cols(), entries.len());
    for (r, c, v) in entries {
        out.push(r, c, v);
    }
    assert!(!out.is_compact() || out.nnz() < 2, "shuffled pushes must leave work for compact()");
    out
}

/// The `schedule_sweep` pool: every Table V twin at four derived seeds,
/// the fourth of each submitted un-compacted (a quarter of the pool).
pub fn schedule_pool(seed: u64) -> Vec<(String, TripletMatrix)> {
    let mut pool = Vec::with_capacity(PAPER_DATASETS.len() * 4);
    for (d, spec) in PAPER_DATASETS.iter().enumerate() {
        for k in 0..4u64 {
            let s = derive(seed, (d as u64) * 4 + k);
            let t = twin(spec.name, 1, s);
            let t = if k == 3 { uncompacted(&t, s) } else { t };
            pool.push((format!("{}#{k}", spec.name), t));
        }
    }
    pool
}

/// A model to host: every row of the twin is a support vector with a
/// seeded coefficient in ±(0, 1]. Built rather than trained so that its
/// size — and with it the kernel work per request — is the same at every
/// seed; the served kernels cannot tell the difference.
pub fn hosted_model(t: &TripletMatrix, seed: u64) -> SvmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let svs: Vec<SparseVec> = (0..t.rows()).map(|i| t.row_sparse(i)).collect();
    let coefs: Vec<f64> = (0..t.rows())
        .map(|_| {
            let c = 1.0 - rng.gen::<f64>();
            if rng.gen::<f64>() < 0.5 {
                -c
            } else {
                c
            }
        })
        .collect();
    let bias = rng.gen::<f64>() - 0.5;
    SvmModel::new(KernelKind::default(), svs, coefs, bias)
}

/// `n` query vectors: rows of the twin, spread over its height.
pub fn queries(t: &TripletMatrix, n: usize) -> Vec<SparseVec> {
    let rows = t.rows();
    (0..n.min(rows)).map(|k| t.row_sparse(k * rows / n.min(rows))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = schedule_pool(7);
        let b = schedule_pool(7);
        assert_eq!(a.len(), 44);
        for ((na, ta), (nb, tb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(ta.entries(), tb.entries());
        }
        let c = schedule_pool(8);
        assert_ne!(a[0].1.entries(), c[0].1.entries());
    }

    #[test]
    fn a_quarter_of_the_pool_is_uncompacted() {
        let pool = schedule_pool(3);
        assert_eq!(pool.iter().filter(|(_, t)| !t.is_compact()).count(), 11);
    }

    #[test]
    fn uncompacted_keeps_the_content() {
        let t = twin("aloi", 4, 5);
        let u = uncompacted(&t, 5);
        assert!(!u.is_compact());
        assert_eq!(u.compact().entries(), t.entries());
    }

    #[test]
    fn hosted_model_uses_every_row() {
        let t = twin("adult", 16, 1);
        let m = hosted_model(&t, 1);
        assert_eq!(m.n_support_vectors(), t.rows());
        assert_eq!(hosted_model(&t, 1).coefficients(), m.coefficients());
        assert_ne!(hosted_model(&t, 2).coefficients(), m.coefficients());
    }
}
