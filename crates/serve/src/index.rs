//! Top-K retrieval: k-means coarse clustering over the frozen item
//! embeddings for candidate generation, then exact-score rerank.
//!
//! An exhaustive scan scores the whole catalog for every query — O(|I|)
//! forwards per request. [`ItemIndex`] clusters the frozen item
//! embeddings once at build time (deterministic Lloyd iterations with
//! farthest-point seeding) and per query:
//!
//! 1. scores each cluster's **medoid item** with the real model (the
//!    coarse stage speaks the model's own scoring function, not a
//!    proxy metric),
//! 2. keeps the `nprobe` best clusters (descending medoid score, ties
//!    toward the lower cluster id),
//! 3. exact-reranks the union of their members — sorted ascending by
//!    id, scored in [`IndexConfig::chunk`]-sized forwards and ranked by
//!    the deterministic partial-select `mgbr_tensor::top_k_slice`.
//!
//! Because candidates are reranked with exact scores under one total
//! order (score descending, id ascending on ties), retrieval with
//! `nprobe == n_clusters` is the exhaustive ranking: the **identical id
//! sequence and bitwise identical scores** to sorting the whole
//! catalog's `FrozenModel::logits_a`, and recall@K is
//! monotone non-decreasing in `nprobe` (candidate sets are nested and
//! any true top-K item that is a candidate survives the rerank) — both
//! properties pinned by `tests/index_properties.rs`. The synthetic
//! generator plants exactly this cluster structure (users/items drawn
//! around shared preference-cluster centers), so small `nprobe` keeps
//! high recall at a fraction of the scored candidates.

use std::sync::Arc;

use mgbr_core::FrozenModel;
use mgbr_tensor::top_k_slice;

use crate::{Scorer, ServeError};

/// One retrieval result: a candidate item id and its pre-sigmoid score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Item id.
    pub id: usize,
    /// The model's Task A logit for this item (σ is monotone, so ranking
    /// by logit is ranking by the Eq. 16 score).
    pub score: f32,
}

/// Knobs for [`ItemIndex::build`].
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Number of k-means clusters (clamped to `1..=n_items`).
    pub n_clusters: usize,
    /// Maximum Lloyd iterations (assignment converges earlier on small
    /// catalogs; iteration count never affects query determinism).
    pub max_iters: usize,
    /// Seed for the farthest-point initialization's first center.
    pub seed: u64,
    /// Candidates scored per forward pass (`0` is treated as 1). Bounds
    /// the scoring workspace to `chunk` rows whatever the catalog size;
    /// results are bitwise independent of it (row-local forward).
    pub chunk: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            n_clusters: 8,
            max_iters: 25,
            seed: 0x1dab5eed,
            chunk: 512,
        }
    }
}

/// Squared L2 distance between two equal-length rows.
fn d2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// A coarse-quantized retrieval index over one frozen model's item
/// catalog. Build once, query from one serving thread (owns the scoring
/// workspace).
pub struct ItemIndex {
    scorer: Scorer,
    chunk: usize,
    /// Member item ids per cluster, ascending. Clusters partition the
    /// catalog: every item appears in exactly one cluster.
    clusters: Vec<Vec<usize>>,
    /// Representative item per cluster: the member closest to the
    /// cluster centroid (ties toward the lower id).
    medoids: Vec<usize>,
}

impl ItemIndex {
    /// Clusters the frozen item embeddings with deterministic k-means:
    /// farthest-point seeding (first center drawn from `cfg.seed`),
    /// Lloyd iterations with ascending-id accumulation order, empty
    /// clusters reseeded to the globally farthest item. The same model
    /// and config always produce the same index.
    pub fn build(model: Arc<FrozenModel>, cfg: IndexConfig) -> Self {
        let items = model.item_embeddings();
        let n = items.rows();
        let w = items.cols();
        let kc = cfg.n_clusters.clamp(1, n.max(1));

        // Farthest-point init: seeded first center, then repeatedly the
        // item farthest from its nearest chosen center (tie → lower id).
        let mut rng = mgbr_tensor::Pcg32::new(cfg.seed, 0x9e37);
        let mut centers: Vec<Vec<f32>> = Vec::with_capacity(kc);
        centers.push(items.row(rng.below(n)).to_vec());
        let mut min_d2: Vec<f32> = (0..n).map(|i| d2(items.row(i), &centers[0])).collect();
        while centers.len() < kc {
            let mut far = 0usize;
            for i in 1..n {
                if min_d2[i] > min_d2[far] {
                    far = i;
                }
            }
            centers.push(items.row(far).to_vec());
            let c = centers.len() - 1;
            for (i, slot) in min_d2.iter_mut().enumerate() {
                let d = d2(items.row(i), &centers[c]);
                if d < *slot {
                    *slot = d;
                }
            }
        }

        // Lloyd iterations: nearest-center assignment (strict `<`, so
        // ties stay with the lower cluster id), ascending-id mean
        // recomputation, farthest-item reseeding for empty clusters.
        let mut assign: Vec<usize> = vec![0; n];
        for _ in 0..cfg.max_iters.max(1) {
            let mut changed = false;
            for (i, slot) in assign.iter_mut().enumerate() {
                let row = items.row(i);
                let mut best = 0usize;
                let mut best_d = d2(row, &centers[0]);
                for (c, center) in centers.iter().enumerate().skip(1) {
                    let d = d2(row, center);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if *slot != best {
                    *slot = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0f32; w]; kc];
            let mut counts = vec![0usize; kc];
            for (i, &c) in assign.iter().enumerate() {
                counts[c] += 1;
                for (s, &x) in sums[c].iter_mut().zip(items.row(i)) {
                    *s += x;
                }
            }
            for c in 0..kc {
                if counts[c] == 0 {
                    // Reseed to the item farthest from its own center.
                    let mut far = 0usize;
                    let mut far_d = -1.0f32;
                    for (i, &a) in assign.iter().enumerate() {
                        let d = d2(items.row(i), &centers[a]);
                        if d > far_d {
                            far_d = d;
                            far = i;
                        }
                    }
                    centers[c] = items.row(far).to_vec();
                    assign[far] = c;
                    changed = true;
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    for (dst, &s) in centers[c].iter_mut().zip(&sums[c]) {
                        *dst = s * inv;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut grouped: Vec<Vec<usize>> = vec![Vec::new(); kc];
        for (i, &c) in assign.iter().enumerate() {
            grouped[c].push(i); // ascending by construction
        }
        // Reseeding keeps clusters populated in practice, but an empty
        // cluster (pathological reseed chain at max_iters) is simply
        // dropped — the remaining clusters still partition the catalog.
        let mut clusters = Vec::with_capacity(kc);
        let mut medoids = Vec::with_capacity(kc);
        for (c, members) in grouped.into_iter().enumerate() {
            let Some(&first) = members.first() else {
                continue;
            };
            let mut best = first;
            let mut best_d = d2(items.row(best), &centers[c]);
            for &i in &members[1..] {
                let d = d2(items.row(i), &centers[c]);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            clusters.push(members);
            medoids.push(best);
        }

        Self {
            scorer: Scorer::new(model),
            chunk: cfg.chunk.max(1),
            clusters,
            medoids,
        }
    }

    /// Number of clusters the catalog was partitioned into.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Member count per cluster (every item is in exactly one cluster).
    pub fn cluster_sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Vec::len).collect()
    }

    /// The representative item id per cluster.
    pub fn medoids(&self) -> &[usize] {
        &self.medoids
    }

    /// The underlying frozen model.
    pub fn model(&self) -> &FrozenModel {
        self.scorer.model()
    }

    /// Task A logits of `user` for `items`, scored `chunk` items per
    /// forward. Both id lists come from the index itself, so only the
    /// user is checked (by the caller).
    fn scores(&self, user: usize, items: &[usize]) -> Vec<f32> {
        let (model, ws) = (self.scorer.model(), self.scorer.workspace());
        let mut scores = Vec::with_capacity(items.len());
        for chunk in items.chunks(self.chunk) {
            scores.extend(model.logits_a(ws, user, chunk));
        }
        scores
    }

    /// Top-`k` items for one initiator, probing the `nprobe` most
    /// promising clusters (`nprobe` is clamped to `1..=n_clusters`;
    /// `nprobe >= n_clusters` is the exhaustive ranking, bit-for-bit).
    /// Returns at most `k` hits, descending by exact score, ties toward
    /// the lower item id.
    pub fn top_items(&self, user: usize, k: usize, nprobe: usize) -> Result<Vec<Hit>, ServeError> {
        self.scorer.check_user(user)?;
        let probe = nprobe.clamp(1, self.n_clusters());
        // Coarse stage: rank clusters by their medoid's exact model
        // score (descending, ties toward the lower cluster id — medoid
        // list position is cluster id).
        let medoid_scores = self.scores(user, &self.medoids);
        let mut candidates = Vec::new();
        for c in top_k_slice(&medoid_scores, probe) {
            candidates.extend_from_slice(&self.clusters[c]);
        }
        // Ascending ids: the rerank's tie order (candidate position)
        // coincides with the exhaustive ranking's (item id).
        candidates.sort_unstable();
        if mgbr_obs::enabled() {
            let reg = mgbr_obs::metrics();
            reg.counter("serve.index.queries").inc();
            reg.histogram("serve.index.probes").record(probe as u64);
            reg.histogram("serve.index.candidates")
                .record(candidates.len() as u64);
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let scores = self.scores(user, &candidates);
        Ok(top_k_slice(&scores, k)
            .into_iter()
            .map(|pos| Hit {
                id: candidates[pos],
                score: scores[pos],
            })
            .collect())
    }
}

/// What a [`SyncedItemIndex`] does when a query observes that the slot's
/// published generation moved past the one the index was built against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalePolicy {
    /// Rebuild the index against the new generation before answering.
    /// The query pays the rebuild (k-means over the new item table);
    /// subsequent queries are fast again.
    Rebuild,
    /// Refuse with [`ServeError::StaleIndex`] and leave the index as
    /// built. The caller decides when to [`SyncedItemIndex::refresh`] —
    /// the right policy when rebuild latency must not land on a
    /// request's critical path.
    FailClosed,
}

/// A caller-owned [`ItemIndex`] subscribed to an [`crate::ArtifactSlot`]'s
/// generation counter.
///
/// The pruned index is built against one frozen artifact; once the slot
/// hot-swaps, cluster assignments, medoids, and rerank scores all refer
/// to a retired model. Instead of silently serving from it, every query
/// first compares the slot's (lock-free) generation hint against the
/// generation this index was built on, and either rebuilds in place or
/// fails closed with a typed [`ServeError::StaleIndex`], per
/// [`StalePolicy`]. Queries are never answered by a stale index.
pub struct SyncedItemIndex {
    slot: Arc<crate::ArtifactSlot>,
    cfg: IndexConfig,
    policy: StalePolicy,
    index: ItemIndex,
    built_generation: u64,
}

impl SyncedItemIndex {
    /// Builds the index against the slot's currently published artifact.
    pub fn build(slot: Arc<crate::ArtifactSlot>, cfg: IndexConfig, policy: StalePolicy) -> Self {
        let (model, generation) = slot.load();
        let index = ItemIndex::build(model, cfg.clone());
        Self {
            slot,
            cfg,
            policy,
            index,
            built_generation: generation,
        }
    }

    /// Generation the current index was built against.
    pub fn built_generation(&self) -> u64 {
        self.built_generation
    }

    /// Whether the slot has published a newer generation than the one
    /// this index was built against (lock-free check).
    pub fn is_stale(&self) -> bool {
        self.slot.generation() != self.built_generation
    }

    /// Rebuilds against the currently published artifact if the index is
    /// stale. Returns `true` when a rebuild happened.
    pub fn refresh(&mut self) -> bool {
        let (model, generation) = self.slot.load();
        if generation == self.built_generation {
            return false;
        }
        self.index = ItemIndex::build(model, self.cfg.clone());
        self.built_generation = generation;
        true
    }

    /// Top-`k` items for one initiator (see [`ItemIndex::top_items`]),
    /// guaranteed to be answered by an index in sync with the slot's
    /// published generation.
    ///
    /// # Errors
    ///
    /// [`ServeError::StaleIndex`] when the generation moved and the
    /// policy is [`StalePolicy::FailClosed`]; otherwise as
    /// [`ItemIndex::top_items`].
    pub fn top_items(
        &mut self,
        user: usize,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Hit>, ServeError> {
        if self.is_stale() {
            match self.policy {
                StalePolicy::Rebuild => {
                    self.refresh();
                }
                StalePolicy::FailClosed => {
                    return Err(ServeError::StaleIndex {
                        built: self.built_generation,
                        current: self.slot.generation(),
                    });
                }
            }
        }
        self.index.top_items(user, k, nprobe)
    }
}

/// Fraction of `exact`'s ids that `pruned` recovered (recall@K against
/// the exhaustive ranking; 1.0 when `exact` is empty).
pub fn recall_at_k(pruned: &[Hit], exact: &[Hit]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let found = exact
        .iter()
        .filter(|e| pruned.iter().any(|p| p.id == e.id))
        .count();
    found as f64 / exact.len() as f64
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

    /// The reference ranking, sharing no code with the index: the whole
    /// catalog scored by one `logits_a` call, sorted by descending score
    /// with ties to the lower id, cut at `k`.
    fn exhaustive(model: &FrozenModel, user: usize, k: usize) -> Vec<(usize, u32)> {
        let items: Vec<usize> = (0..model.n_items()).collect();
        let scores = model.logits_a(&mgbr_tensor::Workspace::new(), user, &items);
        let mut order = items;
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order
            .into_iter()
            .take(k)
            .map(|i| (i, scores[i].to_bits()))
            .collect()
    }

    fn bits(hits: &[Hit]) -> Vec<(usize, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    #[test]
    fn clusters_partition_the_catalog() {
        let model = frozen();
        let n_items = model.n_items();
        let index = ItemIndex::build(model, IndexConfig::default());
        let mut seen = vec![false; n_items];
        for (c, size) in index.cluster_sizes().iter().enumerate() {
            assert!(*size > 0, "cluster {c} is empty");
        }
        let total: usize = index.cluster_sizes().iter().sum();
        assert_eq!(total, n_items);
        for c in 0..index.n_clusters() {
            for &i in &index.clusters[c] {
                assert!(!seen[i], "item {i} in two clusters");
                seen[i] = true;
            }
            assert!(
                index.clusters[c].contains(&index.medoids()[c]),
                "medoid of cluster {c} must be a member"
            );
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn build_is_deterministic() {
        let model = frozen();
        let a = ItemIndex::build(Arc::clone(&model), IndexConfig::default());
        let b = ItemIndex::build(model, IndexConfig::default());
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.medoids, b.medoids);
    }

    #[test]
    fn full_probe_matches_exhaustive_retriever() {
        let model = frozen();
        let index = ItemIndex::build(Arc::clone(&model), IndexConfig::default());
        for user in [0usize, 7, 23] {
            let exact = exhaustive(&model, user, 10);
            let pruned = index.top_items(user, 10, index.n_clusters()).unwrap();
            assert_eq!(bits(&pruned), exact, "user {user}");
        }
    }

    /// Chunking bounds memory, never results: chunk 3 and chunk 1024
    /// give bitwise-equal hits at every probe depth.
    #[test]
    fn chunking_does_not_change_results() {
        let model = frozen();
        let index = |chunk| {
            ItemIndex::build(
                Arc::clone(&model),
                IndexConfig {
                    chunk,
                    ..IndexConfig::default()
                },
            )
        };
        let (narrow, wide) = (index(3), index(1024));
        for nprobe in [1, 2, wide.n_clusters()] {
            let a = narrow.top_items(2, 7, nprobe).unwrap();
            let b = wide.top_items(2, 7, nprobe).unwrap();
            assert_eq!(bits(&a), bits(&b), "nprobe {nprobe}");
        }
    }

    #[test]
    fn nprobe_is_clamped_and_bad_user_is_typed() {
        let model = frozen();
        let nu = model.n_users();
        let index = ItemIndex::build(model, IndexConfig::default());
        // nprobe 0 and nprobe beyond n_clusters both clamp instead of
        // erroring or panicking.
        assert!(!index.top_items(0, 5, 0).unwrap().is_empty());
        assert!(!index.top_items(0, 5, 999).unwrap().is_empty());
        assert!(matches!(
            index.top_items(nu, 5, 1),
            Err(ServeError::BadRequest(_))
        ));
        assert!(index.top_items(0, 0, 2).unwrap().is_empty());
    }

    #[test]
    fn synced_index_fails_closed_on_stale_generation() {
        let slot = Arc::new(crate::ArtifactSlot::new(frozen()));
        let mut synced = SyncedItemIndex::build(
            Arc::clone(&slot),
            IndexConfig::default(),
            StalePolicy::FailClosed,
        );
        assert!(!synced.is_stale());
        assert!(!synced.top_items(0, 5, 2).unwrap().is_empty());

        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let other = MgbrConfig {
            seed: 99,
            ..MgbrConfig::tiny()
        };
        let _ = slot.swap(Arc::new(Mgbr::new(other, &ds).freeze())).unwrap();
        assert!(synced.is_stale());
        let err = synced.top_items(0, 5, 2).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::StaleIndex {
                    built: 1,
                    current: 2
                }
            ),
            "{err}"
        );
        assert!(synced.refresh(), "refresh must rebuild");
        assert!(!synced.refresh(), "second refresh is a no-op");
        assert_eq!(synced.built_generation(), 2);
        assert!(!synced.top_items(0, 5, 2).unwrap().is_empty());
    }

    #[test]
    fn synced_index_rebuild_policy_tracks_the_new_model() {
        let slot = Arc::new(crate::ArtifactSlot::new(frozen()));
        let mut synced = SyncedItemIndex::build(
            Arc::clone(&slot),
            IndexConfig::default(),
            StalePolicy::Rebuild,
        );
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let other = MgbrConfig {
            seed: 7,
            ..MgbrConfig::tiny()
        };
        let next = Arc::new(Mgbr::new(other, &ds).freeze());
        let _ = slot.swap(Arc::clone(&next)).unwrap();
        // The query transparently rebuilds and answers with the new
        // model: full probe must match the new model's exhaustive top-K.
        let pruned = synced.top_items(3, 8, usize::MAX).unwrap();
        assert_eq!(synced.built_generation(), 2);
        assert_eq!(bits(&pruned), exhaustive(&next, 3, 8));
    }

    #[test]
    fn recall_helper_counts_id_overlap() {
        let hit = |id, score| Hit { id, score };
        let exact = [hit(1, 3.0), hit(2, 2.0), hit(3, 1.0)];
        let pruned = [hit(2, 2.0), hit(9, 9.0), hit(3, 1.0)];
        let r = recall_at_k(&pruned, &exact);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(recall_at_k(&pruned, &[]), 1.0);
    }
}
