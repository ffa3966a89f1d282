#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # dls-core
//!
//! The paper's primary contribution: a **runtime data-layout scheduler**
//! that inspects a machine-learning data matrix, extracts the nine
//! influencing parameters of Table IV, and selects the storage format —
//! DEN, CSR, COO, ELL or DIA — that the SMO kernels should run on.
//!
//! Every selection strategy lives here:
//!
//! * [`RuleBasedSelector`] — the paper's decision system: ordered rules over
//!   the influencing parameters (DIA fitness, density, ELL padding, row
//!   imbalance for the COO/CSR choice).
//! * [`CostModelSelector`] — analytic: predicted storage traffic divided by
//!   the per-format effective bandwidth (Equation 7 of the paper).
//! * [`EmpiricalSelector`] — micro-benchmark: materialise each candidate on
//!   a row sample and time real SMSV products, pick the fastest.
//! * [`LearnedSelector`] — a trained CART model ([`tree`]) over the
//!   featurised parameters ([`features`]), loaded from its JSON document
//!   ([`persist`]). `dls-learn` builds the training data and trains it.
//!
//! [`LayoutScheduler`] wires a strategy to the conversion machinery and
//! produces a [`ScheduledMatrix`] ready for `dls_svm::train`.

pub mod bandwidth;
pub mod cost;
pub mod decision;
pub mod empirical;
pub mod features;
pub mod json;
pub mod learned;
pub mod persist;
pub mod report;
pub mod scheduler;
pub mod telemetry;
pub mod tree;
pub mod tuning_cache;

pub use bandwidth::BandwidthProfile;
pub use cost::CostModelSelector;
pub use decision::RuleBasedSelector;
pub use empirical::EmpiricalSelector;
pub use features::{featurize, FEATURE_NAMES, NUM_FEATURES};
pub use learned::LearnedSelector;
pub use persist::{
    BlockModel, BlockSample, ModelError, ModelMeta, TrainedModel, MIN_MODEL_VERSION, MODEL_VERSION,
};
pub use report::{FormatScore, SelectionReport};
pub use scheduler::{
    FixedSelector, FormatSelector, LayoutScheduler, ScheduledMatrix, SelectionStrategy,
};
pub use tree::{gini, DecisionTree, Node, RegressionTree, Target, Tree, TreeParams};
pub use tuning_cache::TuningCache;
