//! Proof that `schedule()` copies nothing it only needs to read.
//!
//! A counting global allocator wraps the system allocator and adds up the
//! bytes requested while a call runs. Scheduling a compact matrix may
//! allocate the layout it returns plus tables of O(M + N) words, never a
//! second entry list (24 bytes per non-zero); scheduling an un-compacted
//! one may add at most two entry lists' worth for the sort; selecting
//! without building allocates O(M + N) and nothing that grows with nnz.
//! A timer on a noisy host can miss a re-introduced `clone()`; this cannot.
//!
//! This file must stay the *only* test in its binary: the counter is
//! process-global, and a concurrently running test would pollute it.

use dls_core::LayoutScheduler;
use dls_data::{generate, DatasetSpec};
use dls_sparse::{Format, MatrixFormat, TripletMatrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static BYTES: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s `GlobalAlloc` guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System` with the caller's pointer and layout unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System` with the caller's pointer, layout and size unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System` with the caller's layout unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes requested from the allocator while `run` runs.
fn bytes_allocated_in<T>(run: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = run();
    (BYTES.load(Ordering::Relaxed) - before, out)
}

/// Bytes of one copy of the entry list.
fn entry_list_bytes(t: &TripletMatrix) -> usize {
    std::mem::size_of_val(t.entries())
}

/// What a call may allocate besides the layout and sort buffers: a few
/// tables of one word per row and per column, and the report's strings.
fn table_allowance(t: &TripletMatrix) -> usize {
    4 * std::mem::size_of::<usize>() * (t.rows() + t.cols()) + 8 * 1024
}

/// The same entries pushed last to first.
fn reversed(t: &TripletMatrix) -> TripletMatrix {
    let mut out = TripletMatrix::with_capacity(t.rows(), t.cols(), t.nnz());
    for &(r, c, v) in t.entries().iter().rev() {
        out.push(r, c, v);
    }
    assert!(!out.is_compact());
    out
}

#[test]
fn schedule_allocates_the_layout_and_little_else() {
    let scheduler = LayoutScheduler::new();
    // One twin per sparse format the rules pick: the constructors that
    // used to clone their input.
    for (name, format) in [
        ("adult", Format::Ell),
        ("aloi", Format::Csr),
        ("mnist", Format::Coo),
        ("trefethen", Format::Dia),
    ] {
        let t = generate(DatasetSpec::by_name(name).unwrap(), 11);
        assert!(t.is_compact());
        let (entries, tables) = (entry_list_bytes(&t), table_allowance(&t));
        // A copy of the entries has to stand out from the allowance.
        assert!(entries > 2 * tables, "{name}: too few entries to catch a copy");

        let (bytes, scheduled) = bytes_allocated_in(|| scheduler.schedule(&t));
        assert_eq!(scheduled.format(), format, "{name}");
        let layout = scheduled.matrix().storage_bytes();
        assert!(
            bytes <= layout + tables,
            "{name}: compact input allocated {bytes} B for a {layout} B layout \
             (+{tables} B of tables allowed; the entry list is {entries} B)"
        );

        let (bytes, report) = bytes_allocated_in(|| scheduler.select_only(&t));
        assert_eq!(report.chosen, format, "{name}");
        assert!(bytes <= tables, "{name}: select_only allocated {bytes} B, allowed {tables} B");

        let shuffled = reversed(&t);
        let (bytes, scheduled) = bytes_allocated_in(|| scheduler.schedule(&shuffled));
        assert_eq!(scheduled.format(), format, "{name}");
        assert!(
            bytes <= 2 * entries + layout + tables,
            "{name}: un-compacted input allocated {bytes} B; two entry lists ({entries} B each), \
             the layout ({layout} B) and {tables} B of tables are allowed"
        );
    }
}
