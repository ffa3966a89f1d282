//! Facts about the machine a run happened on, and the memory-bandwidth
//! ceiling the kernel rates are read against.

use dls_core::json::JsonValue;
use std::time::Instant;

/// Host facts recorded with every run.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// Size of the highest-level cache sysfs reports for cpu0; 0 if unknown.
    pub llc_bytes: u64,
}

impl Host {
    /// Reads the facts; anything unreadable degrades to `unknown` / 0.
    pub fn read() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self { nproc, cpu_model, llc_bytes: llc_bytes() }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("nproc", JsonValue::Num(self.nproc as f64)),
            ("cpu_model", JsonValue::Str(self.cpu_model.clone())),
            ("llc_bytes", JsonValue::Num(self.llc_bytes as f64)),
        ])
    }
}

fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let size = size.trim();
        let (digits, unit) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1u64 << 20),
            Some('G') => (&size[..size.len() - 1], 1u64 << 30),
            _ => (size, 1),
        };
        if let Ok(n) = digits.parse::<u64>() {
            if level >= best.0 {
                best = (level, n * unit);
            }
        }
    }
    best.1
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of each of the three triad arrays. Four times the reported LLC
/// would be the textbook size, but a VM reports the host's whole shared L3
/// (260 MiB here, so 1 GiB per array); the arrays are capped at this size
/// and the report says how they compare with the LLC.
pub const TRIAD_ARRAY_BYTES: usize = 128 << 20;

/// STREAM triad `a[i] = b[i] + s * c[i]`: best-of-`reps` GB/s, counting the
/// three arrays' bytes once each (computed bytes, not measured traffic).
pub fn triad_gbps(reps: usize) -> f64 {
    let n = TRIAD_ARRAY_BYTES / std::mem::size_of::<f64>();
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let s = std::hint::black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    (3 * TRIAD_ARRAY_BYTES) as f64 / best / 1e9
}
