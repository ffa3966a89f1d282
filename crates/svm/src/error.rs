//! SVM training errors.

use std::fmt;

/// Errors raised while setting up or running SMO training.
#[derive(Debug, Clone, PartialEq)]
pub enum SvmError {
    /// Label vector length differs from the number of samples.
    LabelLengthMismatch {
        /// Number of matrix rows.
        rows: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// A label other than +1/-1 was supplied to the binary solver.
    NonBinaryLabel {
        /// Index of the offending sample.
        index: usize,
        /// The label value found.
        value: f64,
    },
    /// Training data contains only one class, so no separating problem exists.
    SingleClass,
    /// A sample's squared norm is not finite: it holds a NaN or ±∞ feature
    /// value, or values so large that their squares overflow.
    NonFiniteRow {
        /// Index of the offending sample (0-based).
        index: usize,
        /// Its squared norm.
        norm_sq: f64,
    },
    /// A hyperparameter is out of its valid range.
    InvalidParameter(String),
}

impl fmt::Display for SvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvmError::LabelLengthMismatch { rows, labels } => {
                write!(f, "matrix has {rows} rows but {labels} labels were supplied")
            }
            SvmError::NonBinaryLabel { index, value } => {
                write!(f, "label at index {index} is {value}, expected +1 or -1")
            }
            SvmError::SingleClass => write!(f, "training data contains a single class"),
            SvmError::NonFiniteRow { index, norm_sq } => write!(
                f,
                "row {index} has squared norm {norm_sq}: every feature value must be finite"
            ),
            SvmError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for SvmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SvmError::LabelLengthMismatch { rows: 10, labels: 9 };
        assert!(e.to_string().contains("10 rows"));
        let e = SvmError::NonBinaryLabel { index: 3, value: 2.0 };
        assert!(e.to_string().contains("index 3"));
        assert!(SvmError::SingleClass.to_string().contains("single class"));
        let e = SvmError::NonFiniteRow { index: 2, norm_sq: f64::NAN };
        assert!(e.to_string().contains("row 2"));
        assert!(SvmError::InvalidParameter("C".into()).to_string().contains('C'));
    }
}
