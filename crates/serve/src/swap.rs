//! Hot-swap of frozen artifacts without dropping requests.
//!
//! [`ArtifactSlot`] holds the pool's current `Arc<FrozenModel>` behind a
//! mutex-guarded publish with a monotone **generation counter** (an
//! `arc-swap`-style cell, std-only: readers take the lock only long
//! enough to clone the `Arc`, writers only long enough to store one).
//! Workers check the atomic generation hint once per batch — an
//! uncontended relaxed load — and reload the `Arc` only when it moved,
//! so the steady-state hot path never touches the lock.
//!
//! The swap protocol fails closed: a candidate artifact is validated
//! ([`mgbr_core::FrozenModel::validate`] cross-field checks plus an
//! id-space compatibility check against the live model) **before** it is
//! published. A rejected artifact never becomes the published
//! generation; the old model keeps serving untouched. In-flight batches
//! finish on whatever generation they loaded — a batch is scored
//! entirely on one model snapshot and every reply in it carries that
//! snapshot's generation, so replies are never mixed across generations
//! mid-batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mgbr_core::FrozenModel;

use crate::batcher::lock;
use crate::ServeError;

/// The generation stamped before any swap has happened. Generation 0 is
/// reserved for "no generation": the reply of a worker that vanished
/// before answering (see [`crate::Reply::generation`]).
pub const INITIAL_GENERATION: u64 = 1;

/// Receipt of a successful artifact swap: the generation fence. Every
/// reply scored after the swap is stamped `new_generation` (in-flight
/// batches may still carry `old_generation` — they finished on the old
/// model, never a mix).
#[must_use = "the receipt is the generation fence — callers should record \
              new_generation to correlate replies with the artifact that \
              scored them"]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReceipt {
    /// Generation that was serving before the swap.
    pub old_generation: u64,
    /// Generation now being published (old + 1).
    pub new_generation: u64,
}

/// A shared slot holding the currently published frozen model and its
/// generation. See the module docs for the protocol.
pub struct ArtifactSlot {
    current: Mutex<Arc<FrozenModel>>,
    /// Mirror of the published generation, updated while `current`'s
    /// lock is held — workers poll this without locking.
    generation: AtomicU64,
}

impl ArtifactSlot {
    /// A slot publishing `model` at [`INITIAL_GENERATION`].
    pub fn new(model: Arc<FrozenModel>) -> Self {
        Self {
            current: Mutex::new(model),
            generation: AtomicU64::new(INITIAL_GENERATION),
        }
    }

    /// The published model and its generation, read consistently.
    pub fn load(&self) -> (Arc<FrozenModel>, u64) {
        let guard = lock(&self.current);
        let model = Arc::clone(&guard);
        // Read under the lock: publish stores the counter while holding
        // it, so the pair is consistent.
        let generation = self.generation.load(Ordering::Acquire);
        (model, generation)
    }

    /// Lock-free generation hint for the per-batch staleness check.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Validates `new` and, only if it passes, publishes it as the next
    /// generation. Rejection leaves the slot untouched.
    ///
    /// Validation is two-layered: the artifact's own cross-field checks
    /// (embedding/plan/parameter consistency — the same gate the CRC'd
    /// loader runs), then id-space compatibility with the live model.
    /// Candidates may **grow** either id space (the online loop folds in
    /// cold users/items, so successive generations extend coverage) but
    /// never shrink one: a pool serves every id it has ever admitted,
    /// and silently shrinking the space would turn valid requests into
    /// `BadRequest`.
    pub fn swap(&self, new: Arc<FrozenModel>) -> Result<SwapReceipt, ServeError> {
        new.validate()
            .map_err(|e| ServeError::SwapRejected(format!("artifact failed validation: {e}")))?;
        let mut guard = lock(&self.current);
        if guard.n_users() > new.n_users() || guard.n_items() > new.n_items() {
            return Err(ServeError::SwapRejected(format!(
                "shrinking id spaces: serving {}x{} (users x items), \
                 candidate is {}x{} — already-admitted ids would dangle",
                guard.n_users(),
                guard.n_items(),
                new.n_users(),
                new.n_items()
            )));
        }
        *guard = new;
        let old = self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(SwapReceipt {
            old_generation: old,
            new_generation: old + 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgbr_core::{Mgbr, MgbrConfig};
    use mgbr_data::{synthetic, SyntheticConfig};

    fn frozen(seed: u64) -> Arc<FrozenModel> {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let cfg = MgbrConfig {
            seed,
            ..MgbrConfig::tiny()
        };
        Arc::new(Mgbr::new(cfg, &ds).freeze())
    }

    #[test]
    fn swap_bumps_generation_and_publishes() {
        let slot = ArtifactSlot::new(frozen(1));
        assert_eq!(slot.generation(), INITIAL_GENERATION);
        let receipt = slot.swap(frozen(2)).unwrap();
        assert_eq!(receipt.old_generation, INITIAL_GENERATION);
        assert_eq!(receipt.new_generation, INITIAL_GENERATION + 1);
        let (_, generation) = slot.load();
        assert_eq!(generation, INITIAL_GENERATION + 1);
    }

    #[test]
    fn incompatible_id_space_is_rejected_and_not_published() {
        let slot = ArtifactSlot::new(frozen(1));
        let (before, _) = slot.load();
        // A model over a different synthetic universe: different id
        // spaces, structurally valid on its own.
        let ds = synthetic::generate(&SyntheticConfig {
            n_users: 7,
            ..SyntheticConfig::tiny()
        });
        let other = Arc::new(Mgbr::new(MgbrConfig::tiny(), &ds).freeze());
        let err = slot.swap(other).unwrap_err();
        assert!(matches!(err, ServeError::SwapRejected(_)), "{err}");
        let (after, generation) = slot.load();
        assert_eq!(generation, INITIAL_GENERATION, "generation unchanged");
        assert!(Arc::ptr_eq(&before, &after), "old model still published");
    }

    #[test]
    fn grown_id_space_is_accepted() {
        // The online loop publishes artifacts whose id spaces have grown
        // through fold-in; a swap to a superset space must go through.
        let slot = ArtifactSlot::new(frozen(1));
        let (base, _) = slot.load();
        let mut grown = (*frozen(1)).clone();
        grown.fold_in_user(&[0, 1]).unwrap();
        grown.fold_in_item(&[0]).unwrap();
        let receipt = slot.swap(Arc::new(grown)).unwrap();
        assert_eq!(receipt.new_generation, INITIAL_GENERATION + 1);
        let (now, _) = slot.load();
        assert_eq!(now.n_users(), base.n_users() + 1);
        assert_eq!(now.n_items(), base.n_items() + 1);
        // And the reverse direction (shrink back) is refused.
        let err = slot.swap(frozen(1)).unwrap_err();
        assert!(matches!(err, ServeError::SwapRejected(_)), "{err}");
    }
}
