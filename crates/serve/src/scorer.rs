//! Request-level scoring over a shared frozen model.

use std::sync::Arc;

use mgbr_core::FrozenModel;
use mgbr_tensor::Workspace;

use crate::ServeError;

/// Scores individual requests (or explicit batches of independent
/// requests) against a shared [`FrozenModel`].
///
/// Owns a scratch [`Workspace`], so it is deliberately not shareable
/// across threads — create one `Scorer` per serving thread over the
/// same `Arc<FrozenModel>`.
pub struct Scorer {
    model: Arc<FrozenModel>,
    ws: Workspace,
}

impl Scorer {
    /// Wraps a shared frozen model with a fresh scratch workspace.
    ///
    /// Construction is O(1) and allocation-free: the workspace starts
    /// empty and grows lazily on first use. Hot-swap relies on this —
    /// pool workers rebuild their private `Scorer` around the new
    /// `Arc<FrozenModel>` at a generation boundary without a
    /// measurable stall.
    pub fn new(model: Arc<FrozenModel>) -> Self {
        Self {
            model,
            ws: Workspace::new(),
        }
    }

    /// The underlying frozen model.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// Scratch workspace (shared with the [`crate::ItemIndex`] built on top).
    pub(crate) fn workspace(&self) -> &Workspace {
        &self.ws
    }

    pub(crate) fn check_user(&self, user: usize) -> Result<(), ServeError> {
        if user >= self.model.n_users() {
            return Err(ServeError::BadRequest(format!(
                "user id {user} out of range (n_users = {})",
                self.model.n_users()
            )));
        }
        Ok(())
    }

    fn check_item(&self, item: usize) -> Result<(), ServeError> {
        if item >= self.model.n_items() {
            return Err(ServeError::BadRequest(format!(
                "item id {item} out of range (n_items = {})",
                self.model.n_items()
            )));
        }
        Ok(())
    }

    fn check_participant(&self, p: usize) -> Result<(), ServeError> {
        if p >= self.model.n_users() {
            return Err(ServeError::BadRequest(format!(
                "participant id {p} out of range (n_users = {})",
                self.model.n_users()
            )));
        }
        Ok(())
    }

    /// Task A logit `s(i|u)` for a single `(user, item)` request.
    pub fn score_item(&self, user: usize, item: usize) -> Result<f32, ServeError> {
        Ok(self.score_item_batch(&[(user, item)])?[0])
    }

    /// Task B logit `s(p|u,i)` for a single `(user, item, participant)`
    /// request.
    pub fn score_participant(
        &self,
        user: usize,
        item: usize,
        participant: usize,
    ) -> Result<f32, ServeError> {
        Ok(self.score_participant_batch(&[(user, item, participant)])?[0])
    }

    /// Task A logits for a batch of independent `(user, item)` pairs.
    /// Bitwise identical to scoring each pair alone (row-local forward).
    pub fn score_item_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, ServeError> {
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        for &(u, i) in pairs {
            self.check_user(u)?;
            self.check_item(i)?;
        }
        Ok(self.model.logits_a_pairs(&self.ws, pairs))
    }

    /// Task B logits for a batch of independent `(user, item,
    /// participant)` triples.
    pub fn score_participant_batch(
        &self,
        triples: &[(usize, usize, usize)],
    ) -> Result<Vec<f32>, ServeError> {
        if triples.is_empty() {
            return Ok(Vec::new());
        }
        for &(u, i, p) in triples {
            self.check_user(u)?;
            self.check_item(i)?;
            self.check_participant(p)?;
        }
        Ok(self.model.logits_b_triples(&self.ws, triples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgbr_core::{Mgbr, MgbrConfig};
    use mgbr_data::{synthetic, SyntheticConfig};

    fn frozen() -> Arc<FrozenModel> {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        Arc::new(Mgbr::new(MgbrConfig::tiny(), &ds).freeze())
    }

    #[test]
    fn single_and_batch_scores_agree_bitwise() {
        let scorer = Scorer::new(frozen());
        let pairs = [(0usize, 1usize), (2, 3), (4, 0)];
        let batch = scorer.score_item_batch(&pairs).unwrap();
        for (r, &(u, i)) in pairs.iter().enumerate() {
            assert_eq!(
                scorer.score_item(u, i).unwrap().to_bits(),
                batch[r].to_bits()
            );
        }
        let triples = [(0usize, 1usize, 2usize), (2, 3, 4)];
        let batch_b = scorer.score_participant_batch(&triples).unwrap();
        for (r, &(u, i, p)) in triples.iter().enumerate() {
            assert_eq!(
                scorer.score_participant(u, i, p).unwrap().to_bits(),
                batch_b[r].to_bits()
            );
        }
    }

    #[test]
    fn out_of_range_ids_are_bad_requests_not_panics() {
        let scorer = Scorer::new(frozen());
        let nu = scorer.model().n_users();
        let ni = scorer.model().n_items();
        assert!(matches!(
            scorer.score_item(nu, 0),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            scorer.score_item(0, ni),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            scorer.score_participant(0, 0, nu),
            Err(ServeError::BadRequest(_))
        ));
        // A bad id anywhere in a batch rejects the whole batch.
        assert!(scorer.score_item_batch(&[(0, 0), (nu, 0)]).is_err());
    }

    #[test]
    fn empty_batches_are_ok_and_empty() {
        let scorer = Scorer::new(frozen());
        assert!(scorer.score_item_batch(&[]).unwrap().is_empty());
        assert!(scorer.score_participant_batch(&[]).unwrap().is_empty());
    }
}
