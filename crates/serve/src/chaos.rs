//! Chaos-injection harness for the serving resilience suite.
//!
//! Compiled only under `cfg(any(test, feature = "chaos"))` — release
//! builds of `mgbr-serve` contain none of this code (gated in `ci.sh`).
//! A [`ChaosInjector`] is shared into a [`crate::WorkerPool`] via
//! [`crate::WorkerPool::new_chaotic`]; each worker consults it at the
//! top of every batch, so the faults land exactly where production
//! failures would:
//!
//! * **Slow-scorer stall** — the worker sleeps inside the scoring
//!   section, inflating queue delays (drives deadline expiry and
//!   SLO-aware shedding).
//! * **Worker death mid-batch** — the scoring section panics. The
//!   worker's containment (catch-unwind + per-request fallback) must
//!   still answer every request in the batch exactly once.
//! * **Clock jumps** — a signed skew is applied to the per-batch
//!   deadline timestamp only, modeling a wall-clock step around the
//!   expiry comparison: a forward jump expires everything queued, a
//!   backward jump must never panic or double-score.
//!
//! Poisoned swap artifacts need no injector: [`poison_artifact`] flips
//! one byte mid-file so the CRC'd loader rejects it, and the swap
//! protocol's validation gate covers semantically broken artifacts.

use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared fault switchboard. All knobs are atomics: tests flip them
/// while the pool is live, workers read them per batch.
#[derive(Debug, Default)]
pub struct ChaosInjector {
    /// Microseconds each scoring section stalls (0 = off).
    stall_us: AtomicU64,
    /// Number of upcoming scoring sections that die (panic); decremented
    /// as each fault fires, so `arm_death(1)` kills exactly one batch.
    die_batches: AtomicU64,
    /// Signed clock skew (µs) applied to the deadline-expiry timestamp.
    skew_us: AtomicI64,
    /// Scoring sections entered so far (counted before any fault fires).
    entered: AtomicU64,
}

impl ChaosInjector {
    /// A quiet injector (all faults off) ready to share with a pool.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Stalls every scoring section by `d` until cleared.
    pub fn stall(&self, d: Duration) {
        self.stall_us.store(
            d.as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Arms the next `batches` scoring sections to die mid-batch.
    pub fn arm_death(&self, batches: u64) {
        self.die_batches.store(batches, Ordering::Relaxed);
    }

    /// Applies a signed clock skew (µs) to deadline-expiry checks:
    /// positive = the clock jumped forward (queued deadlines expire
    /// early), negative = backward (deadlines stop expiring).
    pub fn jump_clock(&self, skew_us: i64) {
        self.skew_us.store(skew_us, Ordering::Relaxed);
    }

    /// Scoring sections the pool's workers have entered so far. A test
    /// that needs a worker provably inside a stalled section waits for
    /// this to move.
    pub fn scoring_sections(&self) -> u64 {
        self.entered.load(Ordering::SeqCst)
    }

    /// Turns every fault off.
    pub fn clear(&self) {
        self.stall_us.store(0, Ordering::Relaxed);
        self.die_batches.store(0, Ordering::Relaxed);
        self.skew_us.store(0, Ordering::Relaxed);
    }

    /// Worker hook: runs at the top of each batched scoring section.
    /// May sleep (stall) or panic (injected worker death). Called
    /// outside every lock, so a fault never poisons queue or metrics
    /// state.
    pub(crate) fn pre_score(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let us = self.stall_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
        loop {
            let n = self.die_batches.load(Ordering::Relaxed);
            if n == 0 {
                return;
            }
            if self
                .die_batches
                .compare_exchange(n, n - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                panic!("chaos: injected worker death mid-batch");
            }
        }
    }

    /// Worker hook: the batch timestamp as the (possibly jumped) clock
    /// would report it, used only for the deadline-expiry comparison.
    /// Saturates at the ends of `Instant`'s range instead of panicking.
    pub(crate) fn skewed(&self, now: Instant) -> Instant {
        let skew = self.skew_us.load(Ordering::Relaxed);
        if skew >= 0 {
            now.checked_add(Duration::from_micros(skew as u64))
                .unwrap_or(now)
        } else {
            now.checked_sub(Duration::from_micros(skew.unsigned_abs()))
                .unwrap_or(now)
        }
    }
}

/// Corrupts the artifact at `path` by flipping one byte in the middle of
/// the file — the CRC-32 footer check must reject the load, so a
/// poisoned artifact can never become the published generation.
pub fn poison_artifact(path: &Path) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "artifact is empty",
        ));
    }
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(path, bytes)
}
