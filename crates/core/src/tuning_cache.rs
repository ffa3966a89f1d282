//! Decision memoization: an OSKI-style tuning database.
//!
//! The paper's related work is Vuduc/Demmel/Yelick's OSKI, whose central
//! idea is that tuning is expensive but *reusable*: matrices with the same
//! structural profile want the same kernel. [`TuningCache`] memoizes
//! selection reports keyed by a quantised fingerprint of the nine
//! influencing parameters, so repeated scheduling of similar datasets
//! (e.g. minibatches or chunked loads of one corpus) skips re-selection —
//! which matters most for the empirical strategy, whose probe is costly.

use crate::json::{self, JsonValue};
use crate::report::{FormatScore, SelectionReport};
use crate::scheduler::FormatSelector;
use dls_sparse::{Format, MatrixFeatures, TripletMatrix};
use std::collections::HashMap;
use std::path::Path;

/// Quantised structural fingerprint of a matrix.
///
/// Continuous parameters are bucketed on a log/linear grid coarse enough
/// that "the same dataset, resampled" collides, and fine enough that
/// different Table V datasets do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct FeatureFingerprint {
    /// log2 bucket of the row count.
    m_log2: u32,
    /// log2 bucket of the column count.
    n_log2: u32,
    /// log2 bucket of nnz.
    nnz_log2: u32,
    /// Density in percent (0–100).
    density_pct: u8,
    /// log2 bucket of the diagonal count.
    ndig_log2: u32,
    /// ELL padding ratio in 5%-steps.
    ell_padding_20th: u8,
    /// Index of dispersion (vdim/adim) log2-bucketed, saturated at 2^15.
    dispersion_log2: u32,
}

impl FeatureFingerprint {
    /// Builds the fingerprint from extracted features.
    fn of(f: &MatrixFeatures) -> Self {
        let log2 = |v: usize| -> u32 { (v.max(1) as f64).log2().round() as u32 };
        let dispersion = if f.adim > 0.0 { f.vdim / f.adim } else { 0.0 };
        Self {
            m_log2: log2(f.m),
            n_log2: log2(f.n),
            nnz_log2: log2(f.nnz),
            density_pct: (f.density * 100.0).round().clamp(0.0, 100.0) as u8,
            ndig_log2: log2(f.ndig),
            ell_padding_20th: (f.ell_padding_ratio() * 20.0).round().clamp(0.0, 20.0) as u8,
            dispersion_log2: log2(dispersion.min(32_768.0) as usize),
        }
    }
}

/// A memoizing wrapper around any [`FormatSelector`].
#[derive(Debug)]
pub struct TuningCache<S> {
    inner: S,
    entries: HashMap<FeatureFingerprint, SelectionReport>,
    hits: u64,
    misses: u64,
}

impl<S: FormatSelector> TuningCache<S> {
    /// Wraps a selector with an empty cache.
    pub fn new(inner: S) -> Self {
        Self { inner, entries: HashMap::new(), hits: 0, misses: 0 }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (i.e. real selector invocations).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct fingerprints stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Selects with memoization. On a hit the cached report is returned
    /// with the *current* matrix's exact features substituted (the chosen
    /// format and scores come from the cached decision).
    pub fn select(&mut self, t: &TripletMatrix, f: &MatrixFeatures) -> SelectionReport {
        let key = FeatureFingerprint::of(f);
        if let Some(cached) = self.entries.get(&key) {
            self.hits += 1;
            let mut report = cached.clone();
            report.features = *f;
            report.reason = format!("{} [memoized]", cached.reason);
            return report;
        }
        self.misses += 1;
        let report = self.inner.select(t, f);
        self.entries.insert(key, report.clone());
        report
    }

    /// Serialises the fingerprint → report map as a JSON document, so a
    /// tuning run survives the process (OSKI's persistent tuning database).
    /// Hit/miss counters are runtime statistics and are not persisted.
    pub fn to_json(&self) -> String {
        // Deterministic output: sort by fingerprint fields, not map order.
        let mut entries: Vec<(&FeatureFingerprint, &SelectionReport)> =
            self.entries.iter().collect();
        entries.sort_by_key(|(fp, _)| **fp);
        let body: Vec<String> = entries
            .into_iter()
            .map(|(fp, report)| {
                format!(
                    "{{\"fingerprint\":{},\"report\":{}}}",
                    fingerprint_json(fp),
                    report_json(report)
                )
            })
            .collect();
        format!("{{\"version\":1,\"entries\":[{}]}}", body.join(","))
    }

    /// Merges entries from a JSON document produced by
    /// [`TuningCache::to_json`] into this cache, returning how many entries
    /// were loaded. Existing entries with the same fingerprint are replaced.
    pub(crate) fn load_json(&mut self, doc: &str) -> Result<usize, String> {
        let v = json::parse(doc)?;
        match v.req("version")?.as_u64() {
            Some(1) => {}
            other => return Err(format!("unsupported tuning-cache version {other:?}")),
        }
        let entries = v.req("entries")?.as_arr().ok_or("\"entries\" must be an array")?;
        let mut loaded = 0usize;
        for e in entries {
            let fp = parse_fingerprint(e.req("fingerprint")?)?;
            let report = parse_report(e.req("report")?)?;
            self.entries.insert(fp, report);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Writes the cache to a file (see [`TuningCache::to_json`]).
    pub fn save_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads and merges entries from a file written by
    /// [`TuningCache::save_file`]. Returns the number of entries loaded.
    pub fn load_file(&mut self, path: impl AsRef<Path>) -> Result<usize, String> {
        let doc = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("read {}: {e}", path.as_ref().display()))?;
        self.load_json(&doc)
    }
}

fn fingerprint_json(fp: &FeatureFingerprint) -> String {
    format!(
        concat!(
            "{{\"m_log2\":{},\"n_log2\":{},\"nnz_log2\":{},\"density_pct\":{},",
            "\"ndig_log2\":{},\"ell_padding_20th\":{},\"dispersion_log2\":{}}}"
        ),
        fp.m_log2,
        fp.n_log2,
        fp.nnz_log2,
        fp.density_pct,
        fp.ndig_log2,
        fp.ell_padding_20th,
        fp.dispersion_log2,
    )
}

/// Reads the fingerprint back, refusing any field outside the range
/// [`FeatureFingerprint::of`] produces: a truncated value would file one
/// matrix class's decision under another's key.
fn parse_fingerprint(v: &JsonValue) -> Result<FeatureFingerprint, String> {
    let field = |key: &str, max: u64| -> Result<u64, String> {
        match v.req(key)?.as_u64() {
            Some(x) if x <= max => Ok(x),
            _ => Err(format!("\"{key}\" must be an integer in 0..={max}")),
        }
    };
    let log2 = |key: &str| field(key, u32::MAX.into()).map(|x| x as u32);
    Ok(FeatureFingerprint {
        m_log2: log2("m_log2")?,
        n_log2: log2("n_log2")?,
        nnz_log2: log2("nnz_log2")?,
        density_pct: field("density_pct", 100)? as u8,
        ndig_log2: log2("ndig_log2")?,
        ell_padding_20th: field("ell_padding_20th", 20)? as u8,
        dispersion_log2: log2("dispersion_log2")?,
    })
}

fn report_json(r: &SelectionReport) -> String {
    let f = &r.features;
    let scores: Vec<String> = r
        .scores
        .iter()
        .map(|s| format!("[{},{}]", json::escape(s.format.name()), json::number(s.score)))
        .collect();
    format!(
        concat!(
            "{{\"chosen\":{},\"block\":{},\"reason\":{},\"scores\":[{}],",
            "\"features\":{{\"m\":{},\"n\":{},\"nnz\":{},\"ndig\":{},\"dnnz\":{},",
            "\"mdim\":{},\"adim\":{},\"vdim\":{},\"density\":{}}}}}"
        ),
        json::escape(r.chosen.name()),
        r.block,
        json::escape(&r.reason),
        scores.join(","),
        f.m,
        f.n,
        f.nnz,
        f.ndig,
        json::number(f.dnnz),
        f.mdim,
        json::number(f.adim),
        json::number(f.vdim),
        json::number(f.density),
    )
}

fn parse_format(v: &JsonValue) -> Result<Format, String> {
    v.as_str().ok_or("format must be a string")?.parse::<Format>()
}

fn parse_report(v: &JsonValue) -> Result<SelectionReport, String> {
    let chosen = parse_format(v.req("chosen")?)?;
    // Documents written before the tuned-block era carry no "block": fall
    // back to the engine default so old caches stay loadable.
    let block = match v.get("block") {
        Some(b) => b.as_usize().ok_or("\"block\" must be a count")?,
        None => dls_sparse::MAX_SMSV_BLOCK,
    };
    let reason = v.req("reason")?.as_str().ok_or("\"reason\" must be a string")?.to_string();
    let scores = v
        .req("scores")?
        .as_arr()
        .ok_or("\"scores\" must be an array")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or("score must be a pair")?;
            Ok(FormatScore::new(
                parse_format(&pair[0])?,
                pair[1].as_f64().ok_or("score must be a number")?,
            ))
        })
        .collect::<Result<Vec<FormatScore>, String>>()?;
    let fv = v.req("features")?;
    let usize_of = |key: &str| -> Result<usize, String> {
        fv.req(key)?.as_usize().ok_or_else(|| format!("\"{key}\" must be a count"))
    };
    let f64_of = |key: &str| -> Result<f64, String> {
        fv.req(key)?.as_f64().ok_or_else(|| format!("\"{key}\" must be a number"))
    };
    let features = MatrixFeatures {
        m: usize_of("m")?,
        n: usize_of("n")?,
        nnz: usize_of("nnz")?,
        ndig: usize_of("ndig")?,
        dnnz: f64_of("dnnz")?,
        mdim: usize_of("mdim")?,
        adim: f64_of("adim")?,
        vdim: f64_of("vdim")?,
        density: f64_of("density")?,
    };
    Ok(SelectionReport { chosen, block, features, scores, reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::RuleBasedSelector;
    use dls_data::{generate, DatasetSpec};

    #[test]
    fn resampled_datasets_share_a_fingerprint() {
        let spec = DatasetSpec::by_name("adult").unwrap();
        let a = MatrixFeatures::from_triplets(&generate(spec, 1));
        let b = MatrixFeatures::from_triplets(&generate(spec, 2));
        assert_eq!(FeatureFingerprint::of(&a), FeatureFingerprint::of(&b));
    }

    #[test]
    fn different_datasets_get_different_fingerprints() {
        let names = ["adult", "mnist", "trefethen", "connect-4", "leukemia"];
        let prints: Vec<FeatureFingerprint> = names
            .iter()
            .map(|n| {
                let spec = DatasetSpec::by_name(n).unwrap();
                FeatureFingerprint::of(&MatrixFeatures::from_triplets(&generate(spec, 1)))
            })
            .collect();
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "{} vs {}", names[i], names[j]);
            }
        }
    }

    #[test]
    fn second_selection_hits_the_cache() {
        let spec = DatasetSpec::by_name("trefethen").unwrap();
        let t1 = generate(spec, 1);
        let t2 = generate(spec, 2);
        let mut cache = TuningCache::new(RuleBasedSelector::default());

        let f1 = MatrixFeatures::from_triplets(&t1);
        let r1 = cache.select(&t1, &f1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);

        let f2 = MatrixFeatures::from_triplets(&t2);
        let r2 = cache.select(&t2, &f2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(r1.chosen, r2.chosen);
        assert!(r2.reason.contains("memoized"));
        // The hit still reports the *new* matrix's features.
        assert_eq!(r2.features.nnz, t2.nnz());
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn json_round_trip_preserves_entries() {
        let mut cache = TuningCache::new(RuleBasedSelector::default());
        for name in ["adult", "trefethen", "mnist", "connect-4"] {
            let t = generate(DatasetSpec::by_name(name).unwrap(), 1);
            let f = MatrixFeatures::from_triplets(&t);
            let _ = cache.select(&t, &f);
        }
        let doc = cache.to_json();
        assert!(doc.starts_with("{\"version\":1,"));

        // A fresh cache over a *different* selector still replays the
        // persisted decisions: hits now come from disk, not re-selection.
        let mut restored = TuningCache::new(crate::cost::CostModelSelector::default());
        assert_eq!(restored.load_json(&doc).unwrap(), 4);
        assert_eq!(restored.len(), 4);
        let t = generate(DatasetSpec::by_name("trefethen").unwrap(), 2);
        let f = MatrixFeatures::from_triplets(&t);
        let r = restored.select(&t, &f);
        assert_eq!(restored.hits(), 1, "restored entry must hit");
        assert!(r.reason.contains("memoized"));
        assert!(r.reason.contains("diagonal"), "decision replays the rule reason: {}", r.reason);
        // Scores and exact float features survive the round trip.
        let doc2 = restored.to_json();
        assert_eq!(doc, doc2, "serialisation is canonical");
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("dls_tuning_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let mut cache = TuningCache::new(RuleBasedSelector::default());
        let t = generate(DatasetSpec::by_name("adult").unwrap(), 1);
        let f = MatrixFeatures::from_triplets(&t);
        let _ = cache.select(&t, &f);
        cache.save_file(&path).unwrap();

        let mut other = TuningCache::new(RuleBasedSelector::default());
        assert_eq!(other.load_file(&path).unwrap(), 1);
        let _ = other.select(&t, &f);
        assert_eq!(other.hits(), 1);
        assert_eq!(other.misses(), 0);
        std::fs::remove_file(&path).unwrap();
        assert!(other.load_file(&path).is_err(), "missing file is a clean error");
    }

    #[test]
    fn load_rejects_malformed_documents() {
        let mut cache = TuningCache::new(RuleBasedSelector::default());
        assert!(cache.load_json("not json").is_err());
        assert!(cache.load_json("{\"version\":99,\"entries\":[]}").is_err());
        assert!(cache.load_json("{\"version\":1}").is_err());
        assert!(cache.load_json("{\"version\":1,\"entries\":[{\"fingerprint\":{}}]}").is_err());
        // Each fingerprint field out of its range is refused by name, not
        // truncated into another matrix class's key.
        let mut donor = TuningCache::new(RuleBasedSelector::default());
        let t = generate(DatasetSpec::by_name("adult").unwrap(), 1);
        let _ = donor.select(&t, &MatrixFeatures::from_triplets(&t));
        let doc = donor.to_json();
        assert_eq!(TuningCache::new(RuleBasedSelector::default()).load_json(&doc), Ok(1));
        for (key, bad) in
            [("density_pct", 300), ("ell_padding_20th", 277), ("m_log2", 4_294_967_299u64)]
        {
            let start = doc.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let end = start + doc[start..].find([',', '}']).unwrap();
            let corrupt = format!("{}{bad}{}", &doc[..start], &doc[end..]);
            let err = cache.load_json(&corrupt).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        assert!(
            cache.is_empty(),
            "failed loads must not partially corrupt the map beyond parsed entries"
        );
    }

    #[test]
    fn distinct_structures_occupy_distinct_slots() {
        let mut cache = TuningCache::new(RuleBasedSelector::default());
        for name in ["adult", "trefethen", "connect-4"] {
            let t = generate(DatasetSpec::by_name(name).unwrap(), 1);
            let f = MatrixFeatures::from_triplets(&t);
            let _ = cache.select(&t, &f);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
    }
}
