//! Property suite for the pruned retrieval index: across random
//! generator seeds and **all 6 ablation variants**, full-probe
//! retrieval must return the identical id set and bitwise-identical
//! scores to an exhaustive ranking computed here without any index
//! code; partial-probe recall@K must be monotone non-decreasing in
//! `nprobe`; and pruned retrieval must be bitwise stable across kernel
//! thread counts.

use std::sync::Arc;

use mgbr_core::{FrozenModel, Mgbr, MgbrConfig, MgbrVariant};
use mgbr_data::{synthetic, SyntheticConfig};
use mgbr_serve::{recall_at_k, Hit, IndexConfig, ItemIndex};
use mgbr_tensor::{set_threads, Workspace};

fn frozen(variant: MgbrVariant, seed: u64) -> Arc<FrozenModel> {
    let ds = synthetic::generate(&SyntheticConfig {
        seed,
        ..SyntheticConfig::tiny()
    });
    Arc::new(Mgbr::new(MgbrConfig::tiny().with_variant(variant), &ds).freeze())
}

/// The exhaustive reference ranking: every catalog item scored by one
/// `FrozenModel::logits_a` call, sorted by descending score with ties to
/// the lower id, cut at `k`.
fn exhaustive(model: &FrozenModel, user: usize, k: usize) -> Vec<Hit> {
    let items: Vec<usize> = (0..model.n_items()).collect();
    let scores = model.logits_a(&Workspace::new(), user, &items);
    let mut order = items;
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order
        .into_iter()
        .take(k)
        .map(|id| Hit {
            id,
            score: scores[id],
        })
        .collect()
}

fn index_cfg() -> IndexConfig {
    IndexConfig {
        n_clusters: 5,
        ..IndexConfig::default()
    }
}

/// Full probe == exhaustive, exactly: identical id sequence, bitwise
/// identical scores, for every variant × seed × several users and ks —
/// including k beyond the catalog and tie-heavy small catalogs.
#[test]
fn full_probe_is_bitwise_identical_to_exhaustive_for_all_variants() {
    for variant in MgbrVariant::all() {
        for seed in [7u64, 20260809] {
            let model = frozen(variant, seed);
            let index = ItemIndex::build(Arc::clone(&model), index_cfg());
            assert!(index.n_clusters() >= 1);
            let n_items = model.n_items();
            for user in [0usize, 13, 31, 59] {
                for k in [1usize, 10, n_items, n_items + 5] {
                    let exact = exhaustive(&model, user, k);
                    let pruned = index
                        .top_items(user, k, index.n_clusters())
                        .expect("full probe");
                    assert_eq!(
                        exact.len(),
                        pruned.len(),
                        "{variant:?} seed {seed} user {user} k {k}"
                    );
                    for (e, p) in exact.iter().zip(&pruned) {
                        assert_eq!(e.id, p.id, "{variant:?} seed {seed} user {user} k {k}");
                        assert_eq!(
                            e.score.to_bits(),
                            p.score.to_bits(),
                            "{variant:?} seed {seed} user {user} k {k} id {}",
                            e.id
                        );
                    }
                }
            }
        }
    }
}

/// Recall@K against the exhaustive ranking is monotone non-decreasing
/// in `nprobe` (candidate sets are nested; exact rerank under one total
/// order), reaching exactly 1.0 at full probe.
#[test]
fn partial_probe_recall_is_monotone_in_nprobe() {
    for variant in MgbrVariant::all() {
        let model = frozen(variant, 99);
        let index = ItemIndex::build(Arc::clone(&model), index_cfg());
        for user in [2usize, 17, 44] {
            let exact = exhaustive(&model, user, 10);
            let mut prev = 0.0f64;
            for nprobe in 1..=index.n_clusters() {
                let pruned = index.top_items(user, 10, nprobe).expect("pruned");
                let r = recall_at_k(&pruned, &exact);
                assert!(
                    r >= prev,
                    "{variant:?} user {user}: recall dropped {prev} -> {r} at nprobe {nprobe}"
                );
                prev = r;
            }
            assert_eq!(prev, 1.0, "{variant:?} user {user}: full probe recall");
        }
    }
}

/// Pruned scores come from the same row-local forward, so they are
/// bitwise identical at any kernel thread count, for any nprobe.
#[test]
fn pruned_retrieval_is_bitwise_stable_across_kernel_threads() {
    let model = frozen(MgbrVariant::Full, 5);
    let index = ItemIndex::build(Arc::clone(&model), index_cfg());
    for nprobe in [1usize, 2, index.n_clusters()] {
        let reference: Vec<(usize, u32)> = index
            .top_items(3, 8, nprobe)
            .expect("reference")
            .iter()
            .map(|h| (h.id, h.score.to_bits()))
            .collect();
        for t in [1usize, 2, 4] {
            set_threads(t);
            let got: Vec<(usize, u32)> = index
                .top_items(3, 8, nprobe)
                .expect("retrieval")
                .iter()
                .map(|h| (h.id, h.score.to_bits()))
                .collect();
            assert_eq!(got, reference, "nprobe {nprobe} at {t} threads");
        }
        set_threads(1);
    }
}

/// The index build is fully deterministic: same model, same config →
/// identical clusters and medoids, for every variant.
#[test]
fn index_build_is_deterministic_for_all_variants() {
    for variant in MgbrVariant::all() {
        let model = frozen(variant, 1234);
        let a = ItemIndex::build(Arc::clone(&model), index_cfg());
        let b = ItemIndex::build(Arc::clone(&model), index_cfg());
        assert_eq!(a.cluster_sizes(), b.cluster_sizes(), "{variant:?}");
        assert_eq!(a.medoids(), b.medoids(), "{variant:?}");
        let total: usize = a.cluster_sizes().iter().sum();
        assert_eq!(total, model.n_items(), "{variant:?}: clusters partition");
    }
}

/// Pruning narrows candidates: with few probes the index scores fewer
/// items than the catalog (the point of the coarse quantizer), yet the
/// returned hits are always a subset of the exhaustive ranking's ids
/// with exact scores.
#[test]
fn pruned_hits_carry_exact_scores() {
    let model = frozen(MgbrVariant::Full, 3);
    let index = ItemIndex::build(Arc::clone(&model), index_cfg());
    let sizes = index.cluster_sizes();
    let max_cluster: usize = sizes.iter().copied().max().unwrap_or(0);
    assert!(
        max_cluster < model.n_items(),
        "one probe must scan fewer items than the catalog"
    );
    for user in [0usize, 21] {
        let pruned = index.top_items(user, 5, 1).expect("pruned");
        let full = exhaustive(&model, user, model.n_items());
        for hit in &pruned {
            let exact = full
                .iter()
                .find(|h| h.id == hit.id)
                .expect("pruned id exists in catalog ranking");
            assert_eq!(
                hit.score.to_bits(),
                exact.score.to_bits(),
                "user {user} id {} must carry the exact model score",
                hit.id
            );
        }
    }
}
