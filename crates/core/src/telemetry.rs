//! Renderers for an SMSV counter snapshot ([`SmsvSnapshot`]): the JSON
//! object `dls-serve`'s stats document embeds per model and in aggregate,
//! and the `format,calls,nanos,bytes` CSV rows `dls stats` and the repro
//! binaries print.

use crate::json::JsonValue;
use dls_sparse::{CounterSample, Format, SmsvSnapshot};

/// Column header of [`csv_rows`].
pub const CSV_HEADER: &str = "format,calls,nanos,bytes";

/// The formats that ran (at least one call), with their totals, in
/// [`Format::ALL`] order.
pub fn active(snap: &SmsvSnapshot) -> impl Iterator<Item = (Format, CounterSample)> {
    Format::ALL.into_iter().zip(snap.by_format).filter(|(_, s)| s.calls > 0)
}

/// One kernel snapshot as JSON: per-format calls/nanos/bytes of the
/// formats that ran, the block-size histogram, and the multi-vector block
/// count that proves coalescing.
pub fn kernel_json(snap: &SmsvSnapshot) -> JsonValue {
    let formats = active(snap)
        .map(|(f, s)| {
            JsonValue::obj([
                ("format", JsonValue::from(f.name())),
                ("calls", JsonValue::from(s.calls)),
                ("nanos", JsonValue::from(s.nanos)),
                ("bytes", JsonValue::from(s.bytes)),
            ])
        })
        .collect();
    let hist = snap.block_hist.iter().map(|&n| JsonValue::from(n)).collect();
    JsonValue::obj([
        ("total_calls", JsonValue::from(snap.total_calls())),
        ("allocs_avoided", JsonValue::from(snap.allocs_avoided)),
        ("block_hist", JsonValue::Arr(hist)),
        ("multi_vector_blocks", JsonValue::from(snap.multi_vector_blocks())),
        ("formats", JsonValue::Arr(formats)),
    ])
}

/// One [`CSV_HEADER`] row per format in [`Format::ALL`] order, formats
/// with zero calls included so every run prints the full candidate space.
pub fn csv_rows(snap: &SmsvSnapshot) -> Vec<String> {
    Format::ALL
        .into_iter()
        .zip(snap.by_format)
        .map(|(f, s)| format!("{f},{},{},{}", s.calls, s.nanos, s.bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls_sparse::telemetry::format_index;

    fn hand_filled() -> SmsvSnapshot {
        let mut snap = SmsvSnapshot::default();
        snap.by_format[format_index(Format::Csr)] =
            CounterSample { calls: 3, nanos: 750, bytes: 192 };
        snap.by_format[format_index(Format::Dia)] = CounterSample { calls: 2, nanos: 40, bytes: 8 };
        snap.allocs_avoided = 4;
        snap.block_hist[0] = 5;
        snap
    }

    #[test]
    fn csv_rows_cover_every_format_in_order() {
        let rows = csv_rows(&hand_filled());
        assert_eq!(rows.len(), Format::ALL.len());
        assert_eq!(rows[format_index(Format::Csr)], "CSR,3,750,192");
        assert_eq!(rows[format_index(Format::Dia)], "DIA,2,40,8");
        assert_eq!(rows[format_index(Format::Ell)], "ELL,0,0,0");
        assert_eq!(CSV_HEADER.split(',').count(), rows[0].split(',').count());
        let calls: u64 =
            rows.iter().map(|r| r.split(',').nth(1).unwrap().parse::<u64>().unwrap()).sum();
        assert_eq!(calls, hand_filled().total_calls());
    }

    #[test]
    fn kernel_json_lists_only_formats_that_ran() {
        let doc = kernel_json(&hand_filled());
        assert_eq!(doc.get("total_calls").unwrap().as_u64(), Some(5));
        assert_eq!(doc.get("allocs_avoided").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("multi_vector_blocks").unwrap().as_u64(), Some(0));
        let formats = doc.get("formats").unwrap().as_arr().unwrap();
        let names: Vec<_> = formats.iter().map(|f| f.get("format").unwrap().as_str()).collect();
        assert_eq!(names, [Some("CSR"), Some("DIA")]);
        assert_eq!(formats[0].get("nanos").unwrap().as_u64(), Some(750));
    }
}
