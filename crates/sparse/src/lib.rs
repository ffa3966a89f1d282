#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dls-sparse
//!
//! Storage formats and kernels for machine-learning data matrices.
//!
//! This crate implements the five basic storage formats studied by the
//! paper — [`DenseMatrix`] (DEN), [`CsrMatrix`] (CSR), [`CooMatrix`] (COO),
//! [`EllMatrix`] (ELL) and [`DiaMatrix`] (DIA) — plus [`CscMatrix`], the
//! one derived format of §III-A that earned its place. Every format
//! implements [`MatrixFormat`], whose central operation is
//! [`MatrixFormat::smsv`]: the sparse-matrix × sparse-vector product that
//! dominates each SMO iteration of SVM training.
//!
//! The nine influencing parameters of Table IV are computed by
//! [`features::MatrixFeatures`], and the Table II storage-space model lives
//! in [`storage`].

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod error;
pub mod features;
pub mod format;
pub mod ops;
pub mod sparsevec;
pub mod storage;
pub mod telemetry;
pub mod triplet;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dia::DiaMatrix;
pub use ell::EllMatrix;
pub use error::SparseError;
pub use features::MatrixFeatures;
pub use format::{AnyMatrix, Format, MatrixFormat, MAX_SMSV_BLOCK};
pub use sparsevec::{RowScratch, SparseVec, SparseVecView};
pub use telemetry::{
    CounterSample, InstrumentedMatrix, SmsvCounters, SmsvSnapshot, BLOCK_HIST_BUCKETS,
};
pub use triplet::TripletMatrix;

/// Scalar type used throughout the library. LIBSVM and the paper's
/// implementation both use double precision.
pub type Scalar = f64;
