//! Fixtures shared by the loopback tests: one small Gaussian-kernel model,
//! its queries, and a server hosting it.
#![allow(dead_code)] // each test binary uses its own subset

use dls_core::LayoutScheduler;
use dls_serve::{start, ModelRegistry, ServedModel, ServerConfig, ServerHandle};
use dls_sparse::SparseVec;
use dls_svm::{KernelKind, SvmModel};
use std::time::{Duration, Instant};

pub const DIM: usize = 16;

/// A small but non-trivial Gaussian-kernel model; `salt` shifts its
/// support vectors, so two hosted models answer differently.
pub fn test_model(salt: usize) -> SvmModel {
    let svs: Vec<SparseVec> = (0..6)
        .map(|i| {
            SparseVec::new(
                DIM,
                vec![i, i + 5, i + 10],
                vec![1.0 + (i + salt) as f64, -0.5 * i as f64 - 1.0, 0.25],
            )
        })
        .collect();
    let coefs = vec![1.0, -1.0, 0.5, -0.5, 0.75, -0.25];
    SvmModel::new(KernelKind::Gaussian { gamma: 0.125 }, svs, coefs, 0.375)
}

pub fn query(seed: usize) -> SparseVec {
    SparseVec::new(DIM, vec![seed % DIM], vec![1.0 + (seed % 7) as f64 * 0.5])
}

/// A server hosting `test_model(0)` as "m".
pub fn serve(config: ServerConfig) -> ServerHandle {
    let registry =
        ModelRegistry::new().with(ServedModel::new("m", test_model(0), &LayoutScheduler::new()));
    start(registry, LayoutScheduler::new(), config).expect("bind loopback")
}

/// Polls the first model's predict queue until it holds `want` jobs.
pub fn wait_for_depth(handle: &ServerHandle, want: usize) {
    let started = Instant::now();
    while handle.executor().queue_depths()[0].1 < want {
        assert!(started.elapsed() < Duration::from_secs(10), "queue never reached depth {want}");
        std::thread::yield_now();
    }
}
