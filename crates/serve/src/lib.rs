//! # mgbr-serve
//!
//! Tape-free online inference over frozen MGBR artifacts
//! ([`mgbr_core::FrozenModel`]): single-request scoring, a batching
//! worker pool, pruned top-K retrieval, and streaming serving metrics.
//! `std`-only, like the rest of the workspace.
//!
//! ## Building blocks
//!
//! * [`Scorer`] — scores one `(user, item)` (Task A) or `(user, item,
//!   participant)` (Task B) request, or a batch of independent requests.
//! * [`WorkerPool`] — the serving front-end: N batching workers over one
//!   hot-swappable model. Each worker coalesces queued requests into
//!   batches of up to `max_batch`, waiting at most `max_wait` for
//!   stragglers ([`BatcherConfig`]); a one-worker pool is the classic
//!   single-queue micro-batcher. Shared-queue or hash-partitioned
//!   admission ([`Admission`]), bounded queues that shed with
//!   [`ServeError::Overloaded`] instead of blocking, non-blocking
//!   submission ([`ScoreHandle`]), and graceful drain-on-drop.
//! * **Resilience** — per-request deadlines (expired requests answered
//!   [`ServeError::DeadlineExceeded`], never scored), SLO-aware early
//!   shedding on the exact p99 queue delay, artifact hot-swap through
//!   [`ArtifactSlot`] with generation-stamped replies ([`Reply`]), and a
//!   chaos harness (`chaos` module, test/feature-gated) driving the
//!   `serving_resilience` suite.
//! * [`ItemIndex`] — top-K item retrieval: k-means coarse clustering
//!   over the frozen item embeddings for candidate generation, exact-
//!   score rerank with the deterministic partial-select
//!   `mgbr_tensor::top_k_slice`; `nprobe == n_clusters` is the exhaustive
//!   ranking bit-for-bit, smaller `nprobe` trades measured recall@K
//!   ([`recall_at_k`]) for speedup.
//! * [`ServeMetrics`] — p50/p95/p99 latency ([`mgbr_obs::GeoHistogram`])
//!   and throughput counters, exportable as JSON via `mgbr-json`.
//!
//! ## Determinism
//!
//! The frozen forward is row-local and every kernel it uses is bitwise
//! deterministic at any `MGBR_THREADS` setting, so a request's score is
//! identical bits whether it is served alone, inside a retrieval chunk,
//! or coalesced into a batch with arbitrary neighbors — the property the
//! `serving_parity` golden test pins down.
//!
//! ## Threading model
//!
//! [`FrozenModel`] is immutable and `Send + Sync`: share one instance
//! behind an [`std::sync::Arc`]. [`Scorer`] and [`ItemIndex`] own a
//! per-instance scratch [`mgbr_tensor::Workspace`] and are therefore
//! single-threaded by design — create one per serving thread (cheap:
//! the workspace starts empty and warms up on first use).
//!
//! Errors are typed ([`ServeError`]); this crate's non-test code is
//! panic-free, enforced by a grep gate in `ci.sh`.
//!
//! [`FrozenModel`]: mgbr_core::FrozenModel

mod batcher;
#[cfg(any(test, feature = "chaos"))]
pub mod chaos;
mod index;
mod metrics;
mod pool;
mod scorer;
mod slo;
mod swap;

use std::fmt;

pub use batcher::{BatcherConfig, Reply};
pub use index::{recall_at_k, Hit, IndexConfig, ItemIndex, StalePolicy, SyncedItemIndex};
pub use metrics::{latency_json, ServeMetrics};
pub use pool::{Admission, PoolConfig, ScoreHandle, WorkerPool};
pub use scorer::Scorer;
pub use swap::{ArtifactSlot, SwapReceipt, INITIAL_GENERATION};

/// Typed serving failures. Scoring never panics on untrusted request
/// data — malformed requests, overload, expired deadlines, and rejected
/// artifact swaps all surface here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request references ids outside the model's id spaces.
    BadRequest(String),
    /// A serving knob (e.g. `MGBR_SERVE_WORKERS`, `MGBR_SERVE_SLO_US`)
    /// was set to a value that does not parse or is out of range. The
    /// configuration is rejected outright — never silently defaulted —
    /// so a typo'd deployment fails closed at startup instead of
    /// serving with surprise settings.
    BadConfig(String),
    /// The request was shed without being enqueued: either the queue hit
    /// `capacity`, or the SLO admission controller decided the queue's
    /// recent p99 delay already exceeds the configured SLO (early shed).
    /// `retry_after_hint_us` is the controller's estimate of how far the
    /// queue is past its SLO — the p99 queue delay's overshoot beyond
    /// the SLO, floored at 1 µs, for SLO sheds; 0 (no estimate) for
    /// at-cap sheds — a reasonable client back-off.
    Overloaded {
        /// Configured queue capacity (the bound that applies whether the
        /// shed was at-cap or SLO-early).
        capacity: usize,
        /// Suggested back-off before retrying, in microseconds: the
        /// recent p99 queue delay minus the SLO (min 1) on an SLO shed,
        /// 0 when no estimate exists (at-cap shed).
        retry_after_hint_us: u64,
    },
    /// The request's deadline expired before a worker could score it;
    /// it was answered without being scored.
    DeadlineExceeded,
    /// An artifact offered to [`WorkerPool::swap_model`] failed
    /// validation (corrupt file, failed cross-field checks, or an id
    /// space incompatible with the serving pool). The previous
    /// generation keeps serving untouched.
    SwapRejected(String),
    /// A [`SyncedItemIndex`] query observed that the published artifact
    /// generation moved past the one its index was built against, and
    /// the index is configured to fail closed instead of auto-rebuild.
    /// Carries the stale (built-against) and current generations.
    StaleIndex {
        /// Generation the index was built against.
        built: u64,
        /// Generation currently published by the slot.
        current: u64,
    },
    /// The pool has been shut down; no further requests are accepted.
    ShutDown,
    /// The worker disappeared before answering (reply channel closed).
    Canceled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::BadConfig(msg) => write!(f, "bad serving config: {msg}"),
            ServeError::Overloaded {
                capacity,
                retry_after_hint_us,
            } => {
                write!(
                    f,
                    "overloaded: queue at capacity {capacity}, request shed \
                     (retry after ~{retry_after_hint_us} us)"
                )
            }
            ServeError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request was scored")
            }
            ServeError::SwapRejected(msg) => {
                write!(f, "artifact swap rejected: {msg}")
            }
            ServeError::StaleIndex { built, current } => {
                write!(
                    f,
                    "retrieval index is stale: built against generation {built}, \
                     slot now publishes generation {current} (rebuild required)"
                )
            }
            ServeError::ShutDown => write!(f, "serving is shut down"),
            ServeError::Canceled => write!(f, "request canceled before completion"),
        }
    }
}

impl std::error::Error for ServeError {}
