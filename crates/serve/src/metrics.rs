//! Streaming serving metrics: latency percentiles + throughput counters.
//!
//! Latencies are recorded in microseconds into a [`GeoHistogram`]; the
//! JSON export keeps the serving schema (`*_us` keys, see
//! [`latency_json`]).

use mgbr_json::{Json, ToJson};
use mgbr_obs::GeoHistogram;

/// The serving JSON view of a microsecond latency histogram: `count`,
/// `mean_us`, `p50_us`, `p95_us`, `p99_us` and `max_us`. Percentiles are
/// the upper bound of the power-of-two bucket holding the quantile,
/// capped at the recorded maximum (see [`GeoHistogram::percentile`]).
pub fn latency_json(h: &GeoHistogram) -> Json {
    Json::obj([
        ("count", h.count().to_json()),
        ("mean_us", h.mean().to_json()),
        ("p50_us", h.percentile(0.50).to_json()),
        ("p95_us", h.percentile(0.95).to_json()),
        ("p99_us", h.percentile(0.99).to_json()),
        ("max_us", h.max().to_json()),
    ])
}

/// Aggregate serving metrics: request/batch throughput counters plus a
/// per-request latency histogram.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Requests answered successfully.
    pub requests: u64,
    /// Batches executed (so `requests / batches` is the mean coalesced
    /// batch size).
    pub batches: u64,
    /// Requests shed with [`crate::ServeError::Overloaded`] — at-cap
    /// and SLO-early sheds combined.
    pub shed: u64,
    /// The subset of `shed` decided by the SLO admission controller
    /// *before* the queue cap (early sheds).
    pub shed_slo: u64,
    /// Requests whose deadline expired in the queue; answered
    /// [`crate::ServeError::DeadlineExceeded`] without being scored.
    pub deadline_expired: u64,
    /// Model generation stamped by the most recent batch (0 until a
    /// generation-tracked worker has scored; see
    /// [`crate::WorkerPool::swap_model`]).
    pub generation: u64,
    /// Successful artifact hot-swaps (pool-wide; 0 in per-worker
    /// snapshots).
    pub swaps: u64,
    /// SLO burn rate over the short (~256-request) window: the rolling
    /// bad-request ratio (shed + expired + canceled) divided by the 1%
    /// error budget, so `1.0` means failures arrive exactly at budget.
    /// Pool-wide (0 in per-worker snapshots); see `slo.rs`.
    pub burn_rate_short: f64,
    /// SLO burn rate over the long (~4096-request) window — the
    /// confirmation signal that separates sustained burn from a blip.
    pub burn_rate_long: f64,
    /// Enqueue-to-reply latency of answered requests, in microseconds.
    pub latency: GeoHistogram,
}

impl ServeMetrics {
    /// An all-zero metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another metrics block into this one (counters add,
    /// histograms merge bucket-wise, `generation` takes the max — a
    /// worker that has not scored since a swap must not roll the merged
    /// view backwards) — how [`crate::WorkerPool`] aggregates its
    /// per-worker snapshots.
    pub fn merge(&mut self, other: &ServeMetrics) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.shed += other.shed;
        self.shed_slo += other.shed_slo;
        self.deadline_expired += other.deadline_expired;
        self.generation = self.generation.max(other.generation);
        self.swaps += other.swaps;
        // Burn rates are pool-level ratios, not per-worker counters:
        // max keeps the merged view the most pessimistic one seen.
        self.burn_rate_short = self.burn_rate_short.max(other.burn_rate_short);
        self.burn_rate_long = self.burn_rate_long.max(other.burn_rate_long);
        self.latency.merge(&other.latency);
    }

    /// Mean coalesced batch size (0 when no batch has run).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

impl ToJson for ServeMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("requests", self.requests.to_json()),
            ("batches", self.batches.to_json()),
            ("shed", self.shed.to_json()),
            ("shed_slo", self.shed_slo.to_json()),
            ("deadline_expired", self.deadline_expired.to_json()),
            ("generation", self.generation.to_json()),
            ("swaps", self.swaps.to_json()),
            ("burn_rate_short", self.burn_rate_short.to_json()),
            ("burn_rate_long", self.burn_rate_long.to_json()),
            ("mean_batch", self.mean_batch().to_json()),
            ("latency", latency_json(&self.latency)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency_field(m: &ServeMetrics, key: &str) -> f64 {
        m.to_json()
            .get("latency")
            .and_then(|l| l.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("latency.{key} missing"))
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut m = ServeMetrics::new();
        for _ in 0..90 {
            m.latency.record(10);
        }
        for _ in 0..10 {
            m.latency.record(10_000);
        }
        assert_eq!(latency_field(&m, "count"), 100.0);
        // p50 lands in the 10 µs bucket: upper bound 16 µs.
        assert!(latency_field(&m, "p50_us") <= 16.0);
        // p95+ lands in the 10 ms bucket.
        assert!(latency_field(&m, "p95_us") >= 10_000.0);
        assert_eq!(latency_field(&m, "max_us"), 10_000.0);
        let mean = latency_field(&m, "mean_us");
        assert!((mean - (90.0 * 10.0 + 10.0 * 10_000.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let m = ServeMetrics::new();
        assert_eq!(latency_field(&m, "p99_us"), 0.0);
        assert_eq!(latency_field(&m, "mean_us"), 0.0);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = ServeMetrics::new();
        let mut b = ServeMetrics::new();
        a.latency.record(5);
        b.latency.record(500);
        a.merge(&b);
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency.max(), 500);
    }

    #[test]
    fn metrics_json_shape() {
        let mut m = ServeMetrics::new();
        m.requests = 8;
        m.batches = 2;
        m.latency.record(100);
        let j = m.to_json();
        assert_eq!(j.get("requests").and_then(Json::as_usize), Some(8));
        assert_eq!(j.get("mean_batch").and_then(Json::as_f64), Some(4.0));
        assert!(j.get("latency").and_then(|l| l.get("p99_us")).is_some());
    }

    /// Pins the exact key set of a merged pool snapshot: every pool-level
    /// field (`shed_slo`, `swaps`, `generation`, the burn rates) must
    /// survive a merge and serialize — dashboards key off these names.
    #[test]
    fn merged_snapshot_json_shape_is_pinned() {
        let mut merged = ServeMetrics::new();
        let mut w0 = ServeMetrics::new();
        w0.requests = 3;
        w0.batches = 1;
        w0.generation = 2;
        w0.latency.record(50);
        let mut w1 = ServeMetrics::new();
        w1.requests = 1;
        w1.batches = 1;
        w1.deadline_expired = 1;
        merged.merge(&w0);
        merged.merge(&w1);
        // Pool-level overlays, as WorkerPool::metrics applies them.
        merged.shed = 4;
        merged.shed_slo = 2;
        merged.swaps = 1;
        merged.burn_rate_short = 1.5;
        merged.burn_rate_long = 0.25;
        let j = merged.to_json();
        match &j {
            Json::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    [
                        "requests",
                        "batches",
                        "shed",
                        "shed_slo",
                        "deadline_expired",
                        "generation",
                        "swaps",
                        "burn_rate_short",
                        "burn_rate_long",
                        "mean_batch",
                        "latency",
                    ],
                    "merged ServeMetrics JSON shape changed"
                );
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(j.get("shed_slo").and_then(Json::as_usize), Some(2));
        assert_eq!(j.get("swaps").and_then(Json::as_usize), Some(1));
        assert_eq!(j.get("generation").and_then(Json::as_usize), Some(2));
        assert_eq!(j.get("burn_rate_short").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("burn_rate_long").and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn merge_takes_max_burn_rate() {
        let mut a = ServeMetrics::new();
        a.burn_rate_short = 0.5;
        a.burn_rate_long = 2.0;
        let mut b = ServeMetrics::new();
        b.burn_rate_short = 1.5;
        b.burn_rate_long = 1.0;
        a.merge(&b);
        assert_eq!(a.burn_rate_short, 1.5);
        assert_eq!(a.burn_rate_long, 2.0);
    }

    /// Counters add under merge, but `generation` is a high-water mark:
    /// folding in a worker that has not scored since a hot-swap (still
    /// stamping the old generation) must never roll the merged view
    /// backwards.
    #[test]
    fn merge_adds_counters_and_maxes_generation() {
        let mut a = ServeMetrics::new();
        a.requests = 3;
        a.shed = 2;
        a.shed_slo = 1;
        a.deadline_expired = 4;
        a.generation = 7;
        let mut b = ServeMetrics::new();
        b.requests = 5;
        b.shed = 1;
        b.deadline_expired = 1;
        b.generation = 2; // stale worker: pre-swap stamp
        b.swaps = 1;
        a.merge(&b);
        assert_eq!(a.requests, 8);
        assert_eq!(a.shed, 3);
        assert_eq!(a.shed_slo, 1);
        assert_eq!(a.deadline_expired, 5);
        assert_eq!(a.generation, 7, "generation merges as max, not sum");
        assert_eq!(a.swaps, 1);
    }

    /// The export is byte-identical to the format it had while the
    /// latency histogram sat behind a serving-specific wrapper type: the
    /// expected strings were produced by that code for the same samples,
    /// whose percentiles land in many different buckets.
    #[test]
    fn json_export_is_byte_identical_to_the_former_format() {
        assert_eq!(
            ServeMetrics::new().to_json().to_string_compact(),
            "{\"requests\":0,\"batches\":0,\"shed\":0,\"shed_slo\":0,\"deadline_expired\":0,\
             \"generation\":0,\"swaps\":0,\"burn_rate_short\":0,\"burn_rate_long\":0,\
             \"mean_batch\":0,\"latency\":{\"count\":0,\"mean_us\":0,\"p50_us\":0,\"p95_us\":0,\
             \"p99_us\":0,\"max_us\":0}}"
        );
        let mut m = ServeMetrics::new();
        m.requests = 9;
        m.batches = 4;
        m.shed = 3;
        m.shed_slo = 1;
        m.deadline_expired = 2;
        m.generation = 5;
        m.swaps = 4;
        m.burn_rate_short = 1.25;
        m.burn_rate_long = 0.5;
        for us in [0u64, 1, 3, 17, 250, 4_096, 70_000, 5_000, 123_456_789] {
            m.latency.record(us);
        }
        assert_eq!(
            m.to_json().to_string_compact(),
            "{\"requests\":9,\"batches\":4,\"shed\":3,\"shed_slo\":1,\"deadline_expired\":2,\
             \"generation\":5,\"swaps\":4,\"burn_rate_short\":1.25,\"burn_rate_long\":0.5,\
             \"mean_batch\":2.25,\"latency\":{\"count\":9,\"mean_us\":13726239.555555556,\
             \"p50_us\":256,\"p95_us\":123456789,\"p99_us\":123456789,\"max_us\":123456789}}"
        );
    }
}
