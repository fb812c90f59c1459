//! Engine-level statistics: instruction counts, SU utilization, and the
//! stream-length distribution of paper Figure 14.

use std::collections::BTreeMap;

/// Lengths below this are counted in a dense table, so recording one is
/// an indexed add on the engine's per-instruction path; longer ones,
/// which are rarer, go to an ordered map.
const SHORT: usize = 1024;

/// Histogram of stream lengths observed by the engine (each `S_READ` /
/// `S_VREAD` operand and each produced output stream contributes one
/// sample).
///
/// It keeps a count per distinct length, not the samples themselves, so
/// its size is bounded by the lengths seen rather than the instructions
/// executed, and recording a length seen before allocates nothing. The
/// CDF, quantiles and mean are exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LengthHistogram {
    /// `short[l]`: samples of length `l < SHORT` (empty until the first).
    short: Vec<u64>,
    /// Samples of each length `>= SHORT`.
    long: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
}

impl LengthHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one stream length.
    pub fn record(&mut self, len: u32) {
        if (len as usize) < SHORT {
            if self.short.is_empty() {
                self.short.resize(SHORT, 0);
            }
            self.short[len as usize] += 1;
        } else {
            *self.long.entry(len).or_default() += 1;
        }
        self.count += 1;
        self.sum += u64::from(len);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Mean length; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(length, samples)` for every observed length, ascending.
    fn bins(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let short = self.short.iter().enumerate().map(|(l, &n)| (l as u32, n));
        short.chain(self.long.iter().map(|(&l, &n)| (l, n))).filter(|&(_, n)| n > 0)
    }

    /// Cumulative distribution: fraction of samples with length <= `len`.
    pub fn cdf_at(&self, len: u32) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let at_most: u64 = self.bins().take_while(|&(l, _)| l <= len).map(|(_, n)| n).sum();
        at_most as f64 / self.count as f64
    }

    /// The CDF sampled at the given points (the Figure 14 series).
    pub fn cdf_series(&self, points: &[u32]) -> Vec<(u32, f64)> {
        points.iter().map(|&p| (p, self.cdf_at(p))).collect()
    }

    /// The `q`-quantile of the lengths (q in [0, 1]): the sample at rank
    /// `round((count - 1) * q)` in sorted order; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u32> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut below = 0;
        self.bins()
            .find(|&(_, n)| {
                below += n;
                below > rank
            })
            .map(|(l, _)| l)
    }

    /// Shortest observed length; `None` when empty.
    pub fn min(&self) -> Option<u32> {
        self.bins().next().map(|(l, _)| l)
    }

    /// Longest observed length; `None` when empty.
    pub fn max(&self) -> Option<u32> {
        match self.long.last_key_value() {
            Some((&l, _)) => Some(l),
            None => self.short.iter().rposition(|&n| n > 0).map(|l| l as u32),
        }
    }
}

/// Counters the engine maintains while executing stream instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineStats {
    /// `S_READ` + `S_VREAD` executed.
    pub reads: u64,
    /// `S_FREE` executed.
    pub frees: u64,
    /// Set-operation instructions executed on SUs (including each nested
    /// step of `S_NESTINTER`).
    pub set_ops: u64,
    /// `S_FETCH` executed.
    pub fetches: u64,
    /// `S_NESTINTER` instructions (each expands to many set ops).
    pub nested: u64,
    /// Value-side operations (`S_VINTER` + `S_VMERGE`).
    pub value_ops: u64,
    /// Total SU-busy cycles (the Figure 10 "Intersection" bucket).
    pub su_busy_cycles: u64,
    /// Total elements moved from S-Cache/scratchpad into SUs.
    pub elements_streamed: u64,
    /// Scratchpad hits on stream initialization.
    pub scratchpad_hits: u64,
    /// Scratchpad misses on stream initialization.
    pub scratchpad_misses: u64,
    /// Value loads issued by VA_gen through the normal hierarchy.
    pub value_loads: u64,
    /// Stream lengths observed (Figure 14).
    pub lengths: LengthHistogram,
}

impl EngineStats {
    /// Scratchpad hit rate in [0, 1].
    pub fn scratchpad_hit_rate(&self) -> f64 {
        let total = self.scratchpad_hits + self.scratchpad_misses;
        if total == 0 {
            0.0
        } else {
            self.scratchpad_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_cdf() {
        let mut h = LengthHistogram::new();
        for l in [1u32, 2, 2, 3, 10] {
            h.record(l);
        }
        assert_eq!(h.count(), 5);
        assert!((h.cdf_at(2) - 0.6).abs() < 1e-12);
        assert!((h.cdf_at(10) - 1.0).abs() < 1e-12);
        assert_eq!(h.cdf_at(0), 0.0);
        assert!((h.mean() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LengthHistogram::new();
        for l in 0..101u32 {
            h.record(l);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(LengthHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_extrema() {
        let mut h = LengthHistogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for l in [7u32, 3, 42, 3] {
            h.record(l);
        }
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(42));
    }

    #[test]
    fn cdf_series_matches_points() {
        let mut h = LengthHistogram::new();
        for l in [5u32, 15, 25] {
            h.record(l);
        }
        let series = h.cdf_series(&[10, 20, 30]);
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((series[2].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recording_after_cdf_resorts() {
        let mut h = LengthHistogram::new();
        h.record(10);
        assert_eq!(h.cdf_at(10), 1.0);
        h.record(1);
        assert_eq!(h.cdf_at(5), 0.5);
    }

    #[test]
    fn histogram_matches_sorted_samples() {
        // The per-length counts answer every query exactly as the sorted
        // sample list does, on both sides of the dense/ordered split.
        let mut h = LengthHistogram::new();
        let mut samples = Vec::new();
        let mut x = 12345u64;
        for i in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let len = match i % 3 {
                0 => (x >> 33) as u32 % 40,
                1 => (x >> 33) as u32 % 3000,
                _ => (x >> 33) as u32,
            };
            h.record(len);
            samples.push(len);
        }
        samples.sort_unstable();
        let n = samples.len();
        assert_eq!(h.count(), n);
        assert_eq!(h.min(), samples.first().copied());
        assert_eq!(h.max(), samples.last().copied());
        let mean = samples.iter().map(|&l| l as f64).sum::<f64>() / n as f64;
        assert_eq!(h.mean().to_bits(), mean.to_bits());
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let idx = ((n - 1) as f64 * q).round() as usize;
            assert_eq!(h.quantile(q), Some(samples[idx]), "q={q}");
        }
        for len in [0, 1, 17, 39, 1023, 1024, 2999, 1 << 20, u32::MAX] {
            let cdf = samples.partition_point(|&l| l <= len) as f64 / n as f64;
            assert_eq!(h.cdf_at(len).to_bits(), cdf.to_bits(), "len={len}");
        }
    }

    #[test]
    fn scratchpad_hit_rate() {
        let mut s = EngineStats::default();
        assert_eq!(s.scratchpad_hit_rate(), 0.0);
        s.scratchpad_hits = 3;
        s.scratchpad_misses = 1;
        assert!((s.scratchpad_hit_rate() - 0.75).abs() < 1e-12);
    }
}
