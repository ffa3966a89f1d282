//! Label generation for synthetic training problems.
//!
//! The twins need labels that are actually learnable, so classes are
//! assigned by a random linear teacher with optional label noise — an SVM
//! can then meaningfully converge on them.

use dls_sparse::{Scalar, TripletMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assigns ±1 labels with a random linear teacher `sign(x · w − median)`.
///
/// The threshold is the median of the teacher scores, so the classes are
/// balanced regardless of the data distribution. `noise` flips each label
/// independently with that probability.
pub fn linear_teacher_labels(t: &TripletMatrix, noise: f64, seed: u64) -> Vec<Scalar> {
    assert!((0.0..=0.5).contains(&noise), "noise must be in [0, 0.5]");
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..t.cols()).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();

    let mut scores = vec![0.0; t.rows()];
    for &(r, c, v) in t.entries() {
        scores[r] += v * w[c];
    }
    let mut sorted = scores.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = sorted[sorted.len() / 2];

    scores
        .iter()
        .map(|&s| {
            let mut y = if s > median { 1.0 } else { -1.0 };
            if noise > 0.0 && rng.gen::<f64>() < noise {
                y = -y;
            }
            y
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::DatasetSpec;
    use crate::synth::generate;

    #[test]
    fn labels_are_balanced_and_binary() {
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(10);
        let t = generate(&spec, 1);
        let y = linear_teacher_labels(&t, 0.0, 2);
        assert_eq!(y.len(), t.rows());
        let pos = y.iter().filter(|&&l| l == 1.0).count();
        let neg = y.len() - pos;
        assert!(y.iter().all(|&l| l == 1.0 || l == -1.0));
        // Median split keeps classes within a couple of samples of balance
        // (ties at the median all fall on one side).
        assert!(pos > 0 && neg > 0);
        assert!((pos as i64 - neg as i64).unsigned_abs() as usize <= y.len() / 3);
    }

    #[test]
    fn labels_are_deterministic_per_seed() {
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(20);
        let t = generate(&spec, 1);
        assert_eq!(linear_teacher_labels(&t, 0.0, 5), linear_teacher_labels(&t, 0.0, 5));
        assert_ne!(linear_teacher_labels(&t, 0.0, 5), linear_teacher_labels(&t, 0.0, 6));
    }

    #[test]
    fn noise_flips_some_labels() {
        let spec = DatasetSpec::by_name("adult").unwrap().scaled(5);
        let t = generate(&spec, 1);
        let clean = linear_teacher_labels(&t, 0.0, 7);
        let noisy = linear_teacher_labels(&t, 0.3, 7);
        let flips = clean.iter().zip(&noisy).filter(|(a, b)| a != b).count();
        assert!(flips > 0, "30% noise must flip something");
    }

    #[test]
    #[should_panic(expected = "noise")]
    fn rejects_bad_noise() {
        let t = TripletMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        let _ = linear_teacher_labels(&t, 0.9, 1);
    }
}
