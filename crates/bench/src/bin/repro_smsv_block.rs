//! Measures the zero-copy batched SMSV engine and emits `BENCH_smsv.json`.
//!
//! For every format on three Figure-1 workload twins this reports, per
//! SMSV product: the best-of time of the classic allocating kernel
//! (`smsv`), the borrowed-view kernel with a reused workspace
//! (`smsv_view`), and the blocked kernel (`smsv_block`) swept over every
//! candidate block size B ∈ {1, 2, 4, 8, 16, 32}. The winning candidate is
//! the cell's `tuned_block`; `blocked_speedup` compares the allocating
//! kernel against the blocked kernel at that tuned block. Heap allocations
//! per call are counted by a wrapping global allocator — steady-state
//! `smsv_view`/`smsv_block` must allocate zero times; that is the
//! engine's whole point.
//!
//! Usage: `repro_smsv_block [reps] [out.json] [--check]`
//! (defaults: 15, `BENCH_smsv.json` in the current directory).
//! `--check` exits non-zero unless every format's geomean blocked speedup
//! stays at or above 0.95x, the COO path clears 1.0x, and CSR's, ELL's and
//! COO's B=2 cost per product (geomean over the three twins) stays at or
//! below their B=1 cost — the CI smoke gate against blocked-kernel
//! regressions, a lane loop at a runtime width among them. DEN's ratio is
//! printed beside them.

use dls_bench::workload;
use dls_core::json::JsonValue;
use dls_sparse::{AnyMatrix, Format, MatrixFormat, SparseVec, MAX_SMSV_BLOCK};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

/// Formats whose B=2 cost per product `--check` holds at or below B=1's.
/// DEN is printed but not floored: on these sparse twins both widths take
/// its per-vector gather, so the ratio sits at 1.00 ± 0.03.
const B2_FLOORED: [Format; 3] = [Format::Csr, Format::Ell, Format::Coo];

/// Candidate block sizes, mirroring `dls_learn::BLOCK_CANDIDATES`.
const BLOCKS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One timed call of `f`, in ns.
fn call_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// Allocations of one call of `f` after a warm-up call.
fn allocs_per_call(mut f: impl FnMut()) -> u64 {
    f(); // warm up: one-time buffer growth is not steady state
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp()
    }
}

struct Row {
    dataset: &'static str,
    format: Format,
    smsv_ns: f64,
    view_ns: f64,
    /// Per-product blocked ns at each `BLOCKS` candidate, in order.
    sweep_ns: [f64; BLOCKS.len()],
    tuned_block: usize,
    allocs_smsv: u64,
    allocs_view: u64,
    allocs_block: u64,
}

impl Row {
    /// Best (smallest) per-product blocked ns across the sweep.
    fn best_block_ns(&self) -> f64 {
        let i = BLOCKS.iter().position(|&b| b == self.tuned_block).unwrap();
        self.sweep_ns[i]
    }

    fn blocked_speedup(&self) -> f64 {
        self.smsv_ns / self.best_block_ns()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let reps: usize = positional.first().and_then(|s| s.parse().ok()).unwrap_or(15);
    let out_path =
        positional.get(1).map(|s| s.to_string()).unwrap_or_else(|| "BENCH_smsv.json".into());
    let inner = 4;

    println!("# Zero-copy batched SMSV engine — best of {reps} reps, B swept over {BLOCKS:?}");
    println!(
        "{:<11} {:<5} {:>11} {:>11} {:>13} {:>5} {:>7} {:>7} {:>7}  {:>8}",
        "dataset",
        "fmt",
        "smsv ns",
        "view ns",
        "blk ns/prod",
        "B*",
        "al/smsv",
        "al/view",
        "al/blk",
        "speedup"
    );

    let mut rows = Vec::new();
    for name in ["adult", "mnist", "trefethen"] {
        let w = workload(name, 42);
        for fmt in Format::ALL {
            let m = AnyMatrix::from_triplets(fmt, &w.matrix);
            let v = m.row_sparse(0);
            let mut out = vec![0.0; m.rows()];
            let mut block_out = vec![0.0; m.rows() * MAX_SMSV_BLOCK];
            let mut ws = Vec::new();

            // The single-vector series rotate their destination across the
            // same chunks the blocked kernel writes: in the real consumer
            // (kernel-cache fill) every product lands in a distinct row
            // buffer, so a single always-hot `out` would flatter them.
            let nrows = m.rows();

            // Identical right-hand sides across the sweep: the blocked /
            // unblocked ratio then measures kernel structure alone, not
            // RHS nnz variation.
            let vss: Vec<Vec<SparseVec>> = BLOCKS.iter().map(|&b| vec![v.clone(); b]).collect();

            // Every cycle round-robins ALL series with each call timed
            // individually, and each series keeps its fastest single
            // call. Interference on a shared single-core
            // host is strictly additive, so the minimum is the
            // least-polluted estimate of true cost — and per-call
            // interleaving means the series being ratioed sample the
            // same machine conditions microseconds apart. Series timed
            // in separate windows drift independently under cgroup
            // throttling and frequency scaling, which can flip a
            // blocked/unblocked ratio that is structurally >= 1.
            let mut smsv_ns = f64::INFINITY;
            let mut view_ns = f64::INFINITY;
            let mut sweep_ns = [f64::INFINITY; BLOCKS.len()];
            let mut k = 0;
            for _ in 0..reps * inner {
                smsv_ns = smsv_ns.min(call_ns(|| {
                    let dst = &mut block_out
                        [(k % MAX_SMSV_BLOCK) * nrows..(k % MAX_SMSV_BLOCK + 1) * nrows];
                    k += 1;
                    m.smsv(&v, dst)
                }));
                view_ns = view_ns.min(call_ns(|| {
                    let dst = &mut block_out
                        [(k % MAX_SMSV_BLOCK) * nrows..(k % MAX_SMSV_BLOCK + 1) * nrows];
                    k += 1;
                    m.smsv_view(v.as_view(), dst, &mut ws)
                }));
                for (slot, vs) in sweep_ns.iter_mut().zip(&vss) {
                    let b = vs.len();
                    let dst = &mut block_out[..nrows * b];
                    *slot = slot.min(call_ns(|| m.smsv_block(vs, dst, &mut ws)) / b as f64);
                }
            }
            // `smsv_view` and a B=1 `smsv_block` run the same width-1
            // sweep, so the view series is one more sample set of the
            // same code path — pool it into the B=1 candidate for a
            // tighter minimum.
            sweep_ns[0] = sweep_ns[0].min(view_ns);
            // Argmin with ties going to the larger block: deeper coalescing
            // amortises scheduling overhead the timer cannot see.
            let mut tuned = BLOCKS[0];
            let mut best = sweep_ns[0];
            for (&b, &ns) in BLOCKS.iter().zip(&sweep_ns).skip(1) {
                if ns <= best {
                    best = ns;
                    tuned = b;
                }
            }

            let vs: Vec<SparseVec> = vec![v.clone(); tuned];
            let allocs_smsv = allocs_per_call(|| m.smsv(&v, &mut out));
            let allocs_view = allocs_per_call(|| m.smsv_view(v.as_view(), &mut out, &mut ws));
            let allocs_block =
                allocs_per_call(|| m.smsv_block(&vs, &mut block_out[..m.rows() * tuned], &mut ws));

            let row = Row {
                dataset: name,
                format: fmt,
                smsv_ns,
                view_ns,
                sweep_ns,
                tuned_block: tuned,
                allocs_smsv,
                allocs_view,
                allocs_block,
            };
            println!(
                "{:<11} {:<5} {:>11.0} {:>11.0} {:>13.0} {:>5} {:>7} {:>7} {:>7}  {:>7.2}x",
                name,
                fmt.name(),
                smsv_ns,
                view_ns,
                row.best_block_ns(),
                tuned,
                allocs_smsv,
                allocs_view,
                allocs_block,
                row.blocked_speedup()
            );
            rows.push(row);
        }
    }

    // Geomean summary: per format across datasets, then overall.
    println!("\n# blocked speedup geomeans (smsv ns / tuned-block ns per product):");
    let mut format_geo = Vec::new();
    for fmt in Format::ALL {
        let g = geomean(rows.iter().filter(|r| r.format == fmt).map(Row::blocked_speedup));
        let blocks: Vec<String> = rows
            .iter()
            .filter(|r| r.format == fmt)
            .map(|r| format!("{}:{}", r.dataset, r.tuned_block))
            .collect();
        println!("#   {:<5} {:>5.2}x  tuned {}", fmt.name(), g, blocks.join(" "));
        format_geo.push((fmt, g));
    }
    let overall = geomean(rows.iter().map(Row::blocked_speedup));
    println!("#   {:<5} {:>5.2}x", "all", overall);

    let results = rows.iter().map(|r| {
        let sweep = BLOCKS
            .iter()
            .zip(&r.sweep_ns)
            .map(|(&b, &ns)| JsonValue::obj([(format!("{b}"), JsonValue::from(ns))]));
        JsonValue::obj([
            ("dataset", JsonValue::from(r.dataset)),
            ("format", JsonValue::from(r.format.name())),
            ("smsv_ns", JsonValue::from(r.smsv_ns)),
            ("smsv_view_ns", JsonValue::from(r.view_ns)),
            ("smsv_block_ns_per_product", JsonValue::from(r.best_block_ns())),
            ("tuned_block", JsonValue::from(r.tuned_block)),
            ("block_sweep_ns_per_product", JsonValue::arr(sweep)),
            ("allocs_per_smsv", JsonValue::from(r.allocs_smsv)),
            ("allocs_per_smsv_view", JsonValue::from(r.allocs_view)),
            ("allocs_per_smsv_block", JsonValue::from(r.allocs_block)),
            ("blocked_speedup", JsonValue::from(r.blocked_speedup())),
        ])
    });
    let geo = format_geo
        .iter()
        .map(|(f, g)| JsonValue::obj([(f.name(), JsonValue::from(*g))]))
        .chain([JsonValue::obj([("all", JsonValue::from(overall))])]);
    let doc = JsonValue::obj([
        ("blocks", JsonValue::arr(BLOCKS.iter().map(|&b| JsonValue::from(b)))),
        ("results", JsonValue::arr(results)),
        ("blocked_speedup_geomean", JsonValue::arr(geo)),
    ]);
    std::fs::write(&out_path, doc.to_json_pretty()).expect("write json");
    println!("\n# wrote {out_path}");
    println!("# smsv_view and steady-state smsv_block must report 0 allocations per call.");

    if check {
        let mut failures = Vec::new();
        for &(fmt, g) in &format_geo {
            let floor = match fmt {
                Format::Coo => 1.0,
                _ => 0.95,
            };
            if g < floor {
                failures.push(format!("{} geomean {:.3}x < {:.2}x", fmt.name(), g, floor));
            }
        }
        for fmt in [Format::Csr, Format::Ell, Format::Den, Format::Coo] {
            let at =
                |k: usize| geomean(rows.iter().filter(|r| r.format == fmt).map(|r| r.sweep_ns[k]));
            let (b1, b2) = (at(0), at(1));
            println!("#   {:<5} B=2 / B=1 per product {:.2}", fmt.name(), b2 / b1);
            if B2_FLOORED.contains(&fmt) && b2 > b1 {
                failures
                    .push(format!("{} B=2 costs {b2:.0} ns per product > B=1 {b1:.0}", fmt.name()));
            }
        }
        if failures.is_empty() {
            println!("# --check passed: every format clears its floors.");
        } else {
            eprintln!("# --check FAILED:");
            for f in &failures {
                eprintln!("#   {f}");
            }
            std::process::exit(1);
        }
    }
}
