//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics with the end-to-end metric each should move.
//!
//! `/BENCHMARK.json` carries the same lists for the driver; a unit test
//! keeps the two in step.

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it is in the set.
    pub why: &'static str,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndInfo {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it is on each workload, in [`WORKLOADS`] order.
    pub means: [&'static str; 5],
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerInfo {
    /// Name; the part before the first dot is the layer (a crate of the
    /// repository, or `mem` / `gen` / `trace` for the harness's own).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The workload whose traced run measures it; 0 elsewhere.
    pub on: &'static str,
    /// The end-to-end metric it should move, and where it should not.
    pub moves: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "svm_miss",
        why: "schedule + linear SMO with the kernel cache off on eight twins: every iteration pays its two SMSVs, so the format kernels do most of the work, with all five basic formats on the path",
    },
    WorkloadInfo {
        name: "svm_cached",
        why: "the same eight datasets with the default 64 MiB cache, as dls train runs them: the cache absorbs over 90% of kernel rows, so SMO bookkeeping dominates; an SMO-loop change must move it",
    },
    WorkloadInfo {
        name: "schedule_sweep",
        why: "LayoutScheduler::new().schedule() over 44 twins, a quarter un-compacted: scanning and building layouts, not sweeping them; the overhead the paper says must stay small",
    },
    WorkloadInfo {
        name: "serve_small",
        why: "single-vector Interactive predicts on two tiny models over two connections, open loop then closed loop: kernel work is a few us, so front end, codec, queue and gather wait do the work",
    },
    WorkloadInfo {
        name: "serve_mixed",
        why: "a waiting Batch caller (32 vectors, depth 2) beside an open-loop Interactive stream on one full-size model: the blocked kernel dominates and a gain for one class that costs the other shows",
    },
];

/// The end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: [EndToEndInfo; 5] = [
    EndToEndInfo {
        name: "unit_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        means: [
            "time per SMO iteration, schedule() included: each twin's quiet decile over passes, geomean over the eight twins",
            "time per SMO iteration, schedule() included: each twin's quiet decile over passes, geomean over the eight twins",
            "schedule() latency: each matrix's quiet decile over passes, geomean over the 44 matrices",
            "p50 latency from due time at 500 req/s open loop: quiet decile over windows of 250 requests of each window's p50 (issue: lat_p50_ms)",
            "p50 latency from due time of the Interactive stream, by the same windows",
        ],
    },
    EndToEndInfo {
        name: "tail_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        means: [
            "the slowest twin's time per SMO iteration (the bandwidth-bound end)",
            "the slowest twin's time per SMO iteration",
            "the slowest matrix's schedule() latency (the largest un-compacted one)",
            "p95 of the same latencies: quiet decile over the windows of each window's p95 (issue: lat_p99_ms)",
            "p95 of the Interactive latencies, by the same windows (issue: interactive_p99_ms)",
        ],
    },
    EndToEndInfo {
        name: "rate_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        means: [
            "SMO iterations per second over a pass: the twins' median iteration counts at their quiet cost per iteration (weights the twins by the time they take)",
            "SMO iterations per second over a pass, likewise",
            "non-zeros scheduled per second: pool nnz / pass time, quiet decile over passes (issue: schedule_mnnz_per_s x 1e6)",
            "answered requests per second, closed loop at depth 16 on each connection, quiet decile of 250 ms windows (issue: sat_rps)",
            "Batch vectors answered per second, quiet decile of 250 ms windows (issue: batch_vps)",
        ],
    },
    EndToEndInfo {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        means: ["VmHWM of the run's process at exit"; 5],
    },
    EndToEndInfo {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        means: [
            "generating the eight twins at half their rows: median of 3 to 9 set-ups",
            "generating the eight twins: median of 3 to 9 set-ups",
            "generating the 44-matrix pool: median of 3 to 9 set-ups",
            "generating twins, building two models, starting the server (incl. its calibration): median of 3 to 9",
            "generating the twin, building the model, starting the server (incl. its calibration): median of 3 to 9",
        ],
    },
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    on: &'static str,
    moves: &'static str,
) -> LayerInfo {
    LayerInfo { name, unit, better, on, moves }
}

const SCHED: &str =
    "unit_us and rate_per_s on schedule_sweep; nothing on svm_* (under 1 ms of a training run)";
const SMSV: &str =
    "unit_us / tail_us on svm_miss by about svm.smsv.share; not unit_us on svm_cached";
const BLOCK: &str = "rate_per_s on serve_mixed; not unit_us on serve_small";
const WIRE: &str =
    "rate_per_s on serve_small once the gather wait no longer dominates; nothing on serve_mixed";

/// The per-layer metrics. A traced run prints all of them; one its
/// workload does not exercise reads 0.
pub const PER_LAYER: [LayerInfo; 66] = [
    m("sparse.features.us", "us", "lower", "schedule_sweep", SCHED),
    m("sparse.convert.us", "us", "lower", "schedule_sweep", SCHED),
    m("sparse.convert.mnnz_per_s", "Mnnz/s", "higher", "schedule_sweep", SCHED),
    m("sparse.smsv.ns.ELL", "ns", "lower", "svm_miss", SMSV),
    m("sparse.smsv.ns.CSR", "ns", "lower", "svm_miss", SMSV),
    m("sparse.smsv.ns.COO", "ns", "lower", "svm_miss", SMSV),
    m("sparse.smsv.ns.DIA", "ns", "lower", "svm_miss", SMSV),
    m("sparse.smsv.ns.DEN", "ns", "lower", "svm_miss", SMSV),
    m("sparse.smsv.bytes.ELL", "B", "lower", "svm_miss", "computed from array sizes; sets sparse.smsv.gbps.ELL"),
    m("sparse.smsv.bytes.CSR", "B", "lower", "svm_miss", "computed from array sizes; sets sparse.smsv.gbps.CSR"),
    m("sparse.smsv.bytes.COO", "B", "lower", "svm_miss", "computed from array sizes; sets sparse.smsv.gbps.COO"),
    m("sparse.smsv.bytes.DIA", "B", "lower", "svm_miss", "computed from array sizes; sets sparse.smsv.gbps.DIA"),
    m("sparse.smsv.bytes.DEN", "B", "lower", "svm_miss", "computed from array sizes; sets sparse.smsv.gbps.DEN"),
    m("sparse.smsv.gbps.ELL", "GB/s", "higher", "svm_miss", "read against mem.triad_gbps; moves with sparse.smsv.ns.ELL"),
    m("sparse.smsv.gbps.CSR", "GB/s", "higher", "svm_miss", "read against mem.triad_gbps; moves with sparse.smsv.ns.CSR"),
    m("sparse.smsv.gbps.COO", "GB/s", "higher", "svm_miss", "read against mem.triad_gbps; moves with sparse.smsv.ns.COO"),
    m("sparse.smsv.gbps.DIA", "GB/s", "higher", "svm_miss", "read against mem.triad_gbps; moves with sparse.smsv.ns.DIA"),
    m("sparse.smsv.gbps.DEN", "GB/s", "higher", "svm_miss", "read against mem.triad_gbps; moves with sparse.smsv.ns.DEN"),
    m("sparse.smsv_block.ns.ELL", "ns", "lower", "svm_miss", BLOCK),
    m("sparse.smsv_block.ns.CSR", "ns", "lower", "svm_miss", BLOCK),
    m("sparse.smsv_block.ns.COO", "ns", "lower", "svm_miss", BLOCK),
    m("sparse.smsv_block.ns.DIA", "ns", "lower", "svm_miss", BLOCK),
    m("sparse.smsv_block.ns.DEN", "ns", "lower", "svm_miss", BLOCK),
    m("sparse.smsv_block.b2_over_b1", "ratio", "lower", "svm_miss", "the unexplained B=2 anomaly; above 1 means a block of two costs more per product than two single products"),
    m("mem.triad_gbps", "GB/s", "higher", "svm_miss", "the ceiling sparse.smsv.gbps.* is read against; a host fact, no code change should move it"),
    m("mem.llc_bytes", "B", "higher", "svm_miss", "host fact: matrices smaller than this are cache-resident, and their GB/s is not DRAM bandwidth"),
    m("core.select.us", "us", "lower", "schedule_sweep", "unit_us on schedule_sweep only once a later pipeline makes selection heavier (4-7 us today)"),
    m("core.select.agreement_share", "ratio", "higher", "schedule_sweep", "useful-outcome ratio: picks equal to the measured-best basic format; moves unit_us on svm_miss when a pick changes"),
    m("core.select.regret_mean", "ratio", "lower", "schedule_sweep", "chosen / measured-best SMSV time - 1, mean over the pool; moves unit_us on svm_miss when a pick changes"),
    m("core.schedule.share_of_train", "ratio", "lower", "svm_cached", "Stylianou's overhead fraction: schedule() time / pass time on svm_cached"),
    m("learn.select.us", "us", "lower", "schedule_sweep", "off the default path: moves nothing today, unit_us on schedule_sweep once a learned stage is on it"),
    m("learn.train_quick.ms", "ms", "lower", "schedule_sweep", "off the default path: moves no end-to-end metric"),
    m("svm.smo.iterations", "count", "lower", "svm_miss svm_cached", "exact count from SmoStats over the warm-up pass; unit_us on svm_cached moves with it"),
    m("svm.smsv.calls", "count", "lower", "svm_miss svm_cached", "exact count from SmoStats; with cache hits it is twice the iterations"),
    m("svm.cache.hit_share", "ratio", "higher", "svm_miss svm_cached", "0 on svm_miss by definition; on svm_cached the share of kernel rows the cache absorbs"),
    m("svm.smo.us_per_iter", "us", "lower", "svm_miss svm_cached", "unit_us on the svm workloads"),
    m("svm.smsv.share", "ratio", "lower", "svm_miss svm_cached", "the ceiling on what a kernel change can save: calls x sparse.smsv.ns / training time"),
    m("svm.smo.self_s", "s", "lower", "svm_miss svm_cached", "unit_us on svm_cached (most of it there), little on svm_miss"),
    m("svm.predict_batch.us", "us", "lower", "serve_mixed", "rate_per_s on serve_mixed"),
    m("data.generate.ms", "ms", "lower", "every workload", "setup_s only"),
    m("data.libsvm.read.mb_per_s", "MB/s", "higher", "schedule_sweep", "setup_s only, and only for callers that load files"),
    m("serve.proto.encode_req.ns.small", "ns", "lower", "serve_small", WIRE),
    m("serve.proto.decode_req.ns.small", "ns", "lower", "serve_small", WIRE),
    m("serve.proto.encode_req.ns.batch", "ns", "lower", "serve_mixed", "nothing: under 1% of a 32-vector sweep"),
    m("serve.proto.decode_req.ns.batch", "ns", "lower", "serve_mixed", "nothing: under 1% of a 32-vector sweep"),
    m("serve.proto.encode_resp.ns", "ns", "lower", "serve_small", WIRE),
    m("serve.proto.decode_resp.ns", "ns", "lower", "serve_small", WIRE),
    m("serve.proto.req_bytes.small", "B", "lower", "serve_small", WIRE),
    m("serve.proto.req_bytes.batch", "B", "lower", "serve_mixed", "nothing on this host: loopback"),
    m("serve.registry.predict.us.b1", "us", "lower", "serve_small", "nothing: a few us of a request that waits a millisecond"),
    m("serve.registry.predict.us.b32", "us", "lower", "serve_mixed", "rate_per_s on serve_mixed"),
    m("serve.executor.reply.us.b1", "us", "lower", "serve_small", "unit_us on serve_small"),
    m("serve.executor.reply.us.b32", "us", "lower", "serve_mixed", "rate_per_s on serve_mixed"),
    m("serve.executor.wait.us.b1", "us", "lower", "serve_small", "queue + gather wait (about 1 ms today): unit_us, rate_per_s and serve.max_rate_ok on serve_small"),
    m("serve.wire.us.b1", "us", "lower", "serve_small", WIRE),
    m("serve.wire.us.b32", "us", "lower", "serve_mixed", "nothing on serve_mixed: the sweep dominates"),
    m("serve.stats.mean_block", "count", "higher", "serve_small serve_mixed", "larger blocks raise rate_per_s and lengthen tail_us on serve_mixed"),
    m("serve.stats.busy", "count", "lower", "serve_small serve_mixed", "refusals; on serve_small they come from the ladder's overload rungs"),
    m("serve.stats.timed_out", "count", "lower", "serve_small serve_mixed", "requests the server dropped past their deadline; 0 while no request states one"),
    m("serve.stats.brownout_entries", "count", "lower", "serve_small serve_mixed", "overload episodes; tail_us on serve_mixed while one lasts"),
    m("serve.max_rate_ok", "1/s", "higher", "serve_small", "the highest ladder rung that meets the 5 ms limit without a growing backlog (issue: max_rate_ok); may not drop a rung"),
    m("serve.slo_miss_share", "ratio", "lower", "serve_mixed", "Interactive requests over 5 ms or failed / sent (issue: slo_miss_share)"),
    m("gen.lateness_p99_ms", "ms", "lower", "serve_small serve_mixed", "how late the open-loop generator ran; above 1 ms the generator, not the server, set the numbers"),
    m("trace.overhead_share", "ratio", "lower", "every workload", "traced / untraced unit_us - 1 in the same run"),
    m("trace.spans", "count", "lower", "every workload", "spans written to out/trace_<workload>.json"),
    m("host.nproc", "count", "higher", "every workload", "host fact recorded with the run"),
];

/// Looks a per-layer metric up by name.
pub fn layer(name: &str) -> Option<&'static LayerInfo> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// `--list`: every metric with its unit, bound and prediction.
pub fn print_list() {
    println!("# workloads");
    for w in &WORKLOADS {
        println!("{}\t{}", w.name, w.why);
    }
    println!("# end-to-end metrics: name unit better bound, then what it is on each workload");
    for m in &END_TO_END {
        println!("{}\t{}\t{}\t{:+.0}%", m.name, m.unit, m.better, m.bound * 100.0);
        for (w, means) in WORKLOADS.iter().zip(m.means) {
            println!("\t{}: {means}", w.name);
        }
    }
    println!("# per-layer metrics: name unit better | measured on | should move");
    for l in &PER_LAYER {
        println!("{}\t{}\t{}\t| {}\t| {}", l.name, l.unit, l.better, l.on, l.moves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_core::json::{parse, JsonValue};
    use std::collections::BTreeSet;

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(JsonValue::as_str).unwrap().to_string())
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|l| l.name))
            .collect();
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        for n in all {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200, "{} why is {} chars", w.name, w.why.len());
        }
    }

    #[test]
    fn benchmark_json_carries_the_same_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(names(&doc, "workloads"), WORKLOADS.map(|w| w.name.to_string()));
        assert_eq!(names(&doc, "end_to_end"), END_TO_END.map(|m| m.name.to_string()));
        assert_eq!(names(&doc, "per_layer"), PER_LAYER.map(|l| l.name.to_string()));
        for (m, info) in doc.get("end_to_end").unwrap().as_arr().unwrap().iter().zip(&END_TO_END) {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(info.unit));
            assert_eq!(m.get("better").unwrap().as_str(), Some(info.better));
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(info.bound));
        }
        for (l, info) in doc.get("per_layer").unwrap().as_arr().unwrap().iter().zip(&PER_LAYER) {
            assert_eq!(l.get("unit").unwrap().as_str(), Some(info.unit));
            assert_eq!(l.get("better").unwrap().as_str(), Some(info.better));
        }
        for (w, info) in doc.get("workloads").unwrap().as_arr().unwrap().iter().zip(&WORKLOADS) {
            assert_eq!(w.get("why").unwrap().as_str(), Some(info.why));
        }
    }
}
