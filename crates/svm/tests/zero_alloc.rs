//! Proof that the steady-state SMO loop is allocation-free, hit or miss.
//!
//! A counting global allocator wraps the system allocator. With the default
//! cache, after a warm-up phase has filled the kernel-row cache with every
//! working-set row, a measured segment of real SMO iterations must perform
//! exactly zero heap allocations — the borrowed row views, the reusable
//! SMSV workspace and the cache's slots leave nothing to allocate. With
//! `cache_bytes: 0` the same must hold while every row is a miss: a missed
//! row is computed into a recycled slot, not cloned into the cache.
//!
//! This file must stay the *only* test in its binary: the allocation
//! counter is process-global, and a concurrently running test would
//! pollute it.

use dls_sparse::{AnyMatrix, Format, TripletMatrix};
use dls_svm::{KernelKind, SmoParams, SmoState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s `GlobalAlloc` guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System` with the caller's pointer and layout unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System` with the caller's pointer, layout and size unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System` with the caller's layout unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Overlapping 1-D clusters: slow to converge, so the working set keeps
/// cycling through the same boundary rows long after the cache is warm.
fn twin_clusters(n: usize) -> (TripletMatrix, Vec<f64>) {
    let mut t = TripletMatrix::new(n, 2);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        let jitter = (i as f64 * 0.77).sin();
        t.push(i, 0, sign * 0.5 + jitter * 0.9);
        t.push(i, 1, (i as f64 * 0.31).cos());
        y.push(sign);
    }
    (t.compact(), y)
}

/// Allocations made while `run` runs.
fn allocations_in<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = run();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn steady_state_smo_iterations_do_not_allocate() {
    all_hits();
    all_misses();
}

fn all_hits() {
    let (t, y) = twin_clusters(48);
    let params = SmoParams {
        kernel: KernelKind::Gaussian { gamma: 0.7 },
        c: 10.0,
        tolerance: 1e-6, // tight: keeps the solver iterating long enough
        ..Default::default()
    };

    for fmt in [Format::Csr, Format::Den] {
        let x = AnyMatrix::from_triplets(fmt, &t);
        let mut state = SmoState::new(&x, &y, &params).unwrap();

        // Warm up until one whole segment runs without a single cache miss
        // — from then on every kernel row is served from the cache.
        let mut warm = false;
        for _ in 0..200 {
            assert!(state.can_continue(&params), "{fmt}: converged before steady state");
            let rep = state.run_segment(&x, &params, 25);
            if rep.smsv_count == 0 {
                warm = true;
                break;
            }
        }
        assert!(warm, "{fmt}: never reached a miss-free segment");

        let (allocations, rep) = allocations_in(|| state.run_segment(&x, &params, 25));
        assert!(rep.iterations > 0, "{fmt}: measured segment did no work");
        assert_eq!(
            allocations, 0,
            "{fmt}: {allocations} allocations in {} steady-state iterations",
            rep.iterations
        );
    }
}

/// `cache_bytes: 0` leaves the two rows an iteration needs (and the spare
/// buffer an eviction parks). Once those three exist, a segment in which
/// every single fetch misses — two SMSVs per iteration — allocates nothing.
fn all_misses() {
    let (t, y) = twin_clusters(48);
    let params = SmoParams {
        kernel: KernelKind::Gaussian { gamma: 0.7 },
        c: 10.0,
        tolerance: 1e-6,
        cache_bytes: 0,
        ..Default::default()
    };

    for fmt in [Format::Csr, Format::Den] {
        let x = AnyMatrix::from_triplets(fmt, &t);
        let mut state = SmoState::new(&x, &y, &params).unwrap();
        // The first rows: slots, scratches and the SMSV workspace grow here.
        state.run_segment(&x, &params, 4);

        let (mut segments, mut all_miss_segments) = (0, 0);
        while state.can_continue(&params) {
            let (allocations, rep) = allocations_in(|| state.run_segment(&x, &params, 5));
            assert_eq!(
                allocations, 0,
                "{fmt}: segment {segments} allocated with {} SMSVs in {} iterations",
                rep.smsv_count, rep.iterations
            );
            segments += 1;
            all_miss_segments +=
                u32::from(rep.iterations == 5 && rep.smsv_count == 2 * rep.iterations as u64);
        }
        assert!(all_miss_segments > 0, "{fmt}: none of {segments} segments missed on every fetch");
    }
}
