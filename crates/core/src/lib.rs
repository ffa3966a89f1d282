#![warn(missing_docs)]

//! # dls-core
//!
//! The paper's primary contribution: a **runtime data-layout scheduler**
//! that inspects a machine-learning data matrix, extracts the nine
//! influencing parameters of Table IV, and selects the storage format —
//! DEN, CSR, COO, ELL or DIA — that the SMO kernels should run on.
//!
//! Three interchangeable selection strategies are provided:
//!
//! * [`RuleBasedSelector`] — the paper's decision system: ordered rules over
//!   the influencing parameters (DIA fitness, density, ELL padding, row
//!   imbalance for the COO/CSR choice).
//! * [`CostModelSelector`] — analytic: predicted storage traffic divided by
//!   the per-format effective bandwidth (Equation 7 of the paper).
//! * [`EmpiricalSelector`] — micro-benchmark: materialise each candidate on
//!   a row sample and time real SMSV products, pick the fastest.
//!
//! [`LayoutScheduler`] wires a strategy to the conversion machinery and
//! produces a [`ScheduledMatrix`] ready for `dls_svm::train`.

pub mod bandwidth;
pub mod cost;
pub mod decision;
pub mod empirical;
pub mod json;
pub mod machine;
pub mod monitor;
pub mod reactive;
pub mod report;
pub mod scheduler;
pub mod swap;
pub mod tuning_cache;

pub use bandwidth::BandwidthProfile;
pub use cost::CostModelSelector;
pub use decision::RuleBasedSelector;
pub use empirical::EmpiricalSelector;
pub use machine::MachineProfile;
pub use monitor::{FormatTelemetry, KernelMonitor, TelemetrySnapshot, WindowRecord};
pub use reactive::{
    MispredictDetector, ReactiveConfig, ReactiveReport, ReactiveScheduler, SwitchEvent,
};
pub use report::{FormatScore, SelectionReport};
pub use scheduler::{
    FixedSelector, FormatSelector, LayoutScheduler, ScheduledMatrix, SelectionStrategy,
};
pub use swap::SwappableSelector;
pub use tuning_cache::{FeatureFingerprint, TuningCache};
