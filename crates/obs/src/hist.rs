//! A fixed-size geometric histogram: O(1) zero-allocation recording with
//! power-of-two buckets, generalized from the serving latency histogram
//! so every crate shares one implementation.

use mgbr_json::{Json, ToJson};

/// Number of geometric buckets: bucket `i` holds samples with
/// `floor(log2(v)) == i - 1` (bucket 0 holds `0..=1`), so the top bucket
/// covers ≥ 2^38 — for microsecond samples that is ≈ 76 h, far beyond any
/// latency this system measures.
pub const BUCKETS: usize = 40;

/// A fixed-size geometric histogram over `u64` samples (power-of-two
/// buckets).
///
/// Percentiles are reported as the upper bound of the bucket containing
/// the requested quantile, i.e. with ≤ 2× relative resolution — ample for
/// p50/p95/p99 dashboards while keeping `record` an O(1) increment with
/// zero allocation. Serving latencies (`mgbr_serve::ServeMetrics`) are
/// recorded straight into this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeoHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
    /// Last sampled exemplar id per bucket; `0` means "none" (exemplar
    /// ids — e.g. serving request ids — start at 1). Only populated via
    /// [`GeoHistogram::record_exemplar`], so untraced runs never touch it
    /// and their JSON stays byte-identical to pre-exemplar snapshots.
    exemplars: [u64; BUCKETS],
}

impl Default for GeoHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            exemplars: [0; BUCKETS],
        }
    }

    fn bucket_of(v: u64) -> usize {
        // floor(log2(v)) + 1, clamped; 0 and 1 share bucket 0.
        let idx = (64 - v.leading_zeros()) as usize;
        idx.saturating_sub(1).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Records one sample and stamps `id` (must be non-zero; `0` is the
    /// "no exemplar" sentinel) as the bucket's exemplar, so a tail bucket
    /// in an exported snapshot links back to the trace of the request
    /// that landed there.
    pub fn record_exemplar(&mut self, v: u64, id: u64) {
        let b = Self::bucket_of(v);
        self.record(v);
        if id != 0 {
            self.exemplars[b] = id;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))`;
    /// bucket 0 covers `0..=1`, the top bucket is open-ended).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The exemplar id last stamped into bucket `i`, if any.
    pub fn exemplar(&self, i: usize) -> Option<u64> {
        match self.exemplars.get(i) {
            Some(&id) if id != 0 => Some(id),
            _ => None,
        }
    }

    /// Inclusive upper bound of bucket `i` (`None` for the open-ended top
    /// bucket) — the `le` label an exporter should render.
    pub fn bucket_le(i: usize) -> Option<u64> {
        if i + 1 >= BUCKETS {
            None
        } else {
            Some((1u64 << (i + 1)) - 1)
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`): the upper bound of the bucket
    /// containing that sample, capped at the recorded maximum. Returns 0
    /// when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket i covers [2^i, 2^(i+1)) (bucket 0 → [0, 2)).
                let upper = 1u64 << (i + 1).min(63);
                return upper.min(self.max.max(1));
            }
        }
        self.max
    }

    /// Folds another histogram into this one. `other`'s exemplars win
    /// where present (deterministic for a deterministic merge order).
    pub fn merge(&mut self, other: &GeoHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, &b) in self.exemplars.iter_mut().zip(other.exemplars.iter()) {
            if b != 0 {
                *a = b;
            }
        }
    }

    /// Zeroes every bucket and counter.
    pub fn clear(&mut self) {
        *self = Self::new();
    }
}

impl ToJson for GeoHistogram {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("count".to_string(), self.count.to_json()),
            ("mean".to_string(), self.mean().to_json()),
            ("p50".to_string(), self.percentile(0.50).to_json()),
            ("p95".to_string(), self.percentile(0.95).to_json()),
            ("p99".to_string(), self.percentile(0.99).to_json()),
            ("max".to_string(), self.max.to_json()),
        ];
        // Exemplars only exist in traced runs; untraced snapshots keep
        // the exact pre-exemplar shape.
        if self.exemplars.iter().any(|&id| id != 0) {
            let ex: Vec<(String, Json)> = self
                .exemplars
                .iter()
                .enumerate()
                .filter(|(_, &id)| id != 0)
                .map(|(i, &id)| (i.to_string(), id.to_json()))
                .collect();
            pairs.push(("exemplars".to_string(), Json::Obj(ex)));
        }
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_the_distribution() {
        let mut h = GeoHistogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert_eq!(h.count(), 100);
        // p50 lands in the 10-sample bucket: upper bound 16.
        assert!(h.percentile(0.50) <= 16, "{}", h.percentile(0.50));
        assert!(h.percentile(0.95) >= 10_000);
        assert_eq!(h.max(), 10_000);
        assert!((h.mean() - (90.0 * 10.0 + 10.0 * 10_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = GeoHistogram::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_is_additive_and_clear_resets() {
        let mut a = GeoHistogram::new();
        let mut b = GeoHistogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
        a.clear();
        assert_eq!(a, GeoHistogram::new());
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let mut h = GeoHistogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        // u64::MAX lands in the top bucket, whose upper bound is 2^40.
        assert_eq!(h.percentile(1.0), 1u64 << 40);
    }

    #[test]
    fn json_shape() {
        let mut h = GeoHistogram::new();
        h.record(100);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_usize), Some(1));
        assert!(j.get("p99").is_some());
        assert!(
            j.get("exemplars").is_none(),
            "plain record must not grow an exemplars key"
        );
    }

    #[test]
    fn exemplars_stamp_merge_and_export() {
        let mut h = GeoHistogram::new();
        h.record_exemplar(100, 7);
        h.record_exemplar(100, 9); // same bucket: last id wins
        h.record(100_000); // no exemplar for this bucket
        let b = 64 - 100u64.leading_zeros() as usize - 1;
        assert_eq!(h.exemplar(b), Some(9));
        assert_eq!(h.exemplar(0), None);

        let mut other = GeoHistogram::new();
        other.record_exemplar(3, 42);
        h.merge(&other);
        assert_eq!(h.exemplar(1), Some(42));
        assert_eq!(h.exemplar(b), Some(9), "merge keeps unrelated buckets");

        let j = h.to_json();
        let ex = j.get("exemplars").expect("exemplars key present");
        assert_eq!(
            ex.get(&b.to_string()).and_then(Json::as_usize),
            Some(9),
            "exported exemplar resolves to the stamped id"
        );
    }

    #[test]
    fn bucket_le_bounds_are_inclusive_uppers() {
        assert_eq!(GeoHistogram::bucket_le(0), Some(1));
        assert_eq!(GeoHistogram::bucket_le(1), Some(3));
        assert_eq!(GeoHistogram::bucket_le(7), Some(255));
        assert_eq!(GeoHistogram::bucket_le(BUCKETS - 1), None);
        // Every value in bucket i is <= bucket_le(i).
        for v in [0u64, 1, 2, 3, 4, 100, 1023, 1024, 65_535] {
            let b = GeoHistogram::bucket_of(v);
            if let Some(le) = GeoHistogram::bucket_le(b) {
                assert!(v <= le, "v={v} bucket={b} le={le}");
            }
        }
    }
}
