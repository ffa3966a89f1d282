#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dls-data
//!
//! Dataset substrate for the reproduction.
//!
//! The paper evaluates on eleven real-world datasets (Table V). Those exact
//! files are not redistributable here, so [`specs`] records every Table V
//! statistic and [`synth`] generates *synthetic twins*: matrices whose nine
//! influencing parameters (M, N, nnz, ndig, dnnz, mdim, adim, vdim, density)
//! match the paper's, which is all the decision system and the format
//! kernels ever observe.
//!
//! [`controlled`] generates the parameter-sweep matrices of Figures 2–4
//! (fixed M, N, nnz with varying ndig / mdim / vdim), and [`libsvm`] reads
//! and writes the LIBSVM text format so real datasets can be dropped in.

pub mod controlled;
pub mod labels;
pub mod libsvm;
pub mod preprocess;
pub mod specs;
pub mod split;
pub mod synth;

pub use preprocess::{FeatureScaler, ScaleRange};
pub use specs::{DatasetSpec, Structure, PAPER_DATASETS};
pub use split::{stratified_split, Split};
pub use synth::generate;
