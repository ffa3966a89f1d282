#![warn(missing_docs)]

//! # dls-bench
//!
//! Reproduction harness. Each paper table/figure has a `repro_*` binary
//! (see `src/bin/`). This library holds the shared pieces: scaled
//! workload construction, timing utilities, and table formatting.

pub mod csv;
pub mod timing;
pub mod workloads;

pub use csv::{csv_dir_from_env, CsvWriter};
pub use timing::{
    normalise_to_slowest, time_smo_iterations, time_smo_iterations_telemetry, time_smsv,
};
pub use workloads::{fig1_workloads, table6_workloads, workload, Workload};
