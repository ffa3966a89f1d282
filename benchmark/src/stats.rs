//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, with the sample count: a p99
//! read off 200 samples is two points, and this module refuses to print it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [0.9999, 0.999, 0.99, 0.95, 0.90, 0.75];

/// Median, supported tail and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median.
    pub median: f64,
    /// The tail percentile reported, as a fraction (0.99 = p99); 0.5 when
    /// the sample supports nothing above the median.
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

/// Sorts in place and returns the value at fraction `p` (nearest rank).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    sorted_quantile(samples, p)
}

fn sorted_quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank, sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The lowest decile of repeated timings of the same work (nearest rank:
/// the minimum of up to ten repeats, the second smallest of twenty).
///
/// The bounded metrics read this, not the median. This kind of host (a
/// small guest with neighbours) interferes in bursts of about a second,
/// every few seconds in a quiet spell and most of the time in a busy one,
/// and whole minutes run 15-40% slow for the kernels that stream memory.
/// Interference only ever adds time: the median moves with how busy the
/// neighbours are, the low end of the repeats stays with the code as long
/// as a tenth of them ran undisturbed. It is the repository's own habit
/// (`repro_smsv_block` reports minima) with one step of protection
/// against a single lucky sample once there are enough repeats.
pub fn quiet(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.10)
}

/// [`quiet`] for rates, where interference only ever takes away: the top
/// decile (the maximum of up to ten repeats).
pub fn quiet_rate(samples: &[f64]) -> f64 {
    -quiet(&mut samples.iter().map(|r| -r).collect::<Vec<_>>())
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// strictly beyond its rank, or `None` when even p75 has fewer.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| {
        let rank = (p * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= MIN_BEYOND
    })
}

/// Summarises a timing sample (sorts in place).
pub fn summarize(samples: &mut [f64]) -> Summary {
    let median = median(samples);
    let n = samples.len();
    match supported_tail(n) {
        Some(p) => Summary { n, median, tail_p: p, tail: sorted_quantile(samples, p) },
        None => Summary { n, median, tail_p: 0.5, tail: median },
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Largest value.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(supported_tail(1000), Some(0.99));
        // One fewer and p99's rank (990 of 999) leaves only 9.
        assert_eq!(supported_tail(999), Some(0.95));
        assert_eq!(supported_tail(200), Some(0.95));
        assert_eq!(supported_tail(199), Some(0.90));
        assert_eq!(supported_tail(40), Some(0.75));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(100_000), Some(0.9999));
    }

    #[test]
    fn summary_falls_back_to_the_median() {
        let mut few: Vec<f64> = (1..=15).map(f64::from).collect();
        let s = summarize(&mut few);
        assert_eq!((s.n, s.median, s.tail_p, s.tail), (15, 8.0, 0.5, 8.0));
    }

    #[test]
    fn summary_reads_the_supported_percentile() {
        let mut xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&mut xs);
        assert_eq!((s.median, s.tail_p, s.tail), (500.0, 0.99, 990.0));
    }

    #[test]
    fn quiet_reads_the_undisturbed_end() {
        // Nine of twelve repeats are slowed; the low decile still reads an
        // undisturbed one, the median does not.
        let mut times = [10.0, 10.1, 9.9, 12.0, 12.2, 14.0, 15.0, 13.0, 16.0, 14.5, 13.5, 15.5];
        assert_eq!(quiet(&mut times), 10.0, "second smallest of twelve");
        assert!(median(&mut times) >= 13.0);
        // Up to ten repeats it is the minimum; for rates, the maximum.
        assert_eq!(quiet(&mut [3.0, 1.0, 2.0]), 1.0);
        assert_eq!(quiet_rate(&[3.0, 1.0, 2.0]), 3.0);
        let rates: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet(&mut rates.clone()), 2.0);
        assert_eq!(quiet_rate(&rates), 19.0, "second largest of twenty");
    }

    #[test]
    fn geomean_and_max() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(max(&[1.0, 7.0, 3.0]), 7.0);
    }
}
