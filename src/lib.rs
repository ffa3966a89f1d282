#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dls — Data Layout Scheduling for machine learning datasets
//!
//! Umbrella crate re-exporting the whole workspace. This is a reproduction
//! of You & Demmel, *Runtime Data Layout Scheduling for Machine Learning
//! Dataset* (ICPP 2017).
//!
//! ## Quick start
//!
//! ```
//! use dls::prelude::*;
//!
//! // A small dataset: rows = samples, cols = features.
//! let mut t = TripletMatrix::new(4, 3);
//! t.push(0, 0, 1.0);
//! t.push(1, 1, 1.0);
//! t.push(2, 0, -1.0);
//! t.push(3, 2, -1.0);
//! let t = t.compact();
//!
//! // Let the runtime scheduler pick the storage format.
//! let scheduled = LayoutScheduler::new().schedule(&t);
//! println!("selected format: {}", scheduled.format());
//!
//! // Train an SVM on the scheduled layout.
//! let labels = vec![1.0, 1.0, -1.0, -1.0];
//! let params = SmoParams::default();
//! let model = train(scheduled.matrix(), &labels, &params).unwrap();
//! assert_eq!(model.predict_label(&t.row_sparse(0)), 1.0);
//! ```

pub use dls_baseline as baseline;
pub use dls_core as core;
pub use dls_data as data;
pub use dls_dnn as dnn;
pub use dls_hw as hw;
pub use dls_learn as learn;
pub use dls_serve as serve;
pub use dls_sparse as sparse;
pub use dls_svm as svm;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use dls_core::{
        CostModelSelector, EmpiricalSelector, FixedSelector, FormatScore, FormatSelector,
        LayoutScheduler, LearnedSelector, RuleBasedSelector, ScheduledMatrix, SelectionReport,
        SelectionStrategy, TrainedModel, TuningCache,
    };
    pub use dls_data::{controlled, specs, synth::generate, DatasetSpec};
    pub use dls_dnn::{Network, SgdConfig, Trainer};
    pub use dls_hw::{Platform, PriceModel};
    pub use dls_learn::{train_selector, LabelMode, TrainConfig};
    pub use dls_sparse::{
        AnyMatrix, CooMatrix, CsrMatrix, DenseMatrix, DiaMatrix, EllMatrix, Format,
        InstrumentedMatrix, MatrixFeatures, MatrixFormat, SmsvCounters, SparseVec, TripletMatrix,
    };
    pub use dls_svm::{train, KernelKind, SmoParams, SvmModel};
}
