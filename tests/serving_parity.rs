//! Golden serving-parity suite: the tape-free frozen path must produce
//! **bitwise identical** scores to the training-path scorer — for every
//! ablation variant, at several thread counts, through the on-disk
//! artifact, and through every serving path (direct scorer, the item
//! index's chunked full probe, a one-worker batching pool).
//!
//! This is the headline invariant of the serving subsystem: if any of
//! these fail, frozen deployments would silently drift from what was
//! evaluated offline.

use std::sync::Arc;

use mgbr_core::{FrozenModel, Mgbr, MgbrConfig, MgbrVariant};
use mgbr_data::{synthetic, SyntheticConfig};
use mgbr_eval::GroupBuyScorer;
use mgbr_serve::{IndexConfig, ItemIndex, PoolConfig, Scorer, WorkerPool};
use mgbr_tensor::{set_threads, Workspace};

fn build(variant: MgbrVariant) -> Mgbr {
    let ds = synthetic::generate(&SyntheticConfig::tiny());
    Mgbr::new(MgbrConfig::tiny().with_variant(variant), &ds)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn golden_frozen_path_matches_training_path_bitwise() {
    // Every variant × thread count × both tasks. Thread count is a pure
    // wall-clock knob (row-banded kernels), so sweeping it here also
    // re-asserts the engine's determinism guarantee on the serve path.
    for variant in MgbrVariant::all() {
        let model = build(variant);
        let scorer = model.scorer();
        let frozen = model.freeze();
        let ws = Workspace::new();
        let items: Vec<u32> = (0..15).collect();
        let idx: Vec<usize> = items.iter().map(|&i| i as usize).collect();
        let parts: Vec<u32> = (0..12).collect();
        let pidx: Vec<usize> = parts.iter().map(|&p| p as usize).collect();

        let ref_a = bits(&scorer.score_items(3, &items));
        let ref_b = bits(&scorer.score_participants(3, 1, &parts));
        for t in [1usize, 2, 4] {
            set_threads(t);
            assert_eq!(
                bits(&frozen.logits_a(&ws, 3, &idx)),
                ref_a,
                "{variant:?} task A at {t} threads"
            );
            assert_eq!(
                bits(&frozen.logits_b(&ws, 3, 1, &pidx)),
                ref_b,
                "{variant:?} task B at {t} threads"
            );
        }
        set_threads(1);
    }
}

#[test]
fn parity_survives_the_on_disk_artifact() {
    // Serving must score from what was *loaded*, so the round trip
    // through bytes is part of the golden contract.
    let model = build(MgbrVariant::Full);
    let scorer = model.scorer();
    let mut buf = Vec::new();
    model.freeze().save(&mut buf).expect("save");
    let loaded = FrozenModel::load(buf.as_slice()).expect("load");
    let ws = Workspace::new();
    let items: Vec<u32> = (0..10).collect();
    let idx: Vec<usize> = items.iter().map(|&i| i as usize).collect();
    for user in 0..5u32 {
        assert_eq!(
            bits(&loaded.logits_a(&ws, user as usize, &idx)),
            bits(&scorer.score_items(user, &items)),
            "user {user}"
        );
    }
}

#[test]
fn fused_serving_plans_match_unfused_through_the_artifact() {
    // The affine-fusion pass is a pure plan rewrite, so it must be
    // bitwise invisible — for every variant, at several thread counts,
    // for both tasks, and on a model loaded back from disk.
    for variant in MgbrVariant::all() {
        let mut buf = Vec::new();
        build(variant).freeze().save(&mut buf).expect("save");
        let fused = FrozenModel::load(buf.as_slice()).expect("load");
        assert!(fused.fused(), "loaded artifacts fuse by default");
        let mut unfused = FrozenModel::load(buf.as_slice()).expect("load");
        unfused.set_fused(false);
        assert!(
            fused.serve_plan_a().ops.len() < unfused.serve_plan_a().ops.len(),
            "{variant:?}: fusion must shrink the Task A plan"
        );

        let ws = Workspace::new();
        let idx: Vec<usize> = (0..15).collect();
        let pidx: Vec<usize> = (0..12).collect();
        for t in [1usize, 2, 4] {
            set_threads(t);
            for user in [0usize, 3, 7] {
                assert_eq!(
                    bits(&fused.logits_a(&ws, user, &idx)),
                    bits(&unfused.logits_a(&ws, user, &idx)),
                    "{variant:?} task A user {user} at {t} threads"
                );
            }
            assert_eq!(
                bits(&fused.logits_b(&ws, 3, 1, &pidx)),
                bits(&unfused.logits_b(&ws, 3, 1, &pidx)),
                "{variant:?} task B at {t} threads"
            );
        }
        set_threads(1);
    }
}

#[test]
fn every_serving_front_end_agrees() {
    // Direct scorer, the index's chunked full probe, and a one-worker
    // batching pool all sit on the same row-local forward, so all must
    // agree bitwise.
    let model = build(MgbrVariant::Full);
    let frozen = Arc::new(model.freeze());
    let direct = Scorer::new(Arc::clone(&frozen));
    let index = ItemIndex::build(
        Arc::clone(&frozen),
        IndexConfig {
            chunk: 4,
            ..IndexConfig::default()
        },
    );
    let pool = WorkerPool::new(
        Arc::clone(&frozen),
        PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        },
    );

    let user = 2usize;
    let hits = index
        .top_items(user, frozen.n_items(), index.n_clusters())
        .expect("retrieval");
    assert_eq!(hits.len(), frozen.n_items());
    for hit in &hits {
        let d = direct.score_item(user, hit.id).expect("direct score");
        let b = pool.score_item(user, hit.id).expect("batched score");
        assert_eq!(hit.score.to_bits(), d.to_bits(), "index item {}", hit.id);
        assert_eq!(b.to_bits(), d.to_bits(), "pool item {}", hit.id);
    }
    // Retrieval order is a valid descending ranking with stable ties.
    for w in hits.windows(2) {
        assert!(
            w[0].score.total_cmp(&w[1].score).is_ge(),
            "retrieval order must be descending"
        );
    }
    // ...and it is the exhaustive ranking: the whole catalog scored by
    // one `logits_a` call, sorted descending with ties to the lower id.
    let items: Vec<usize> = (0..frozen.n_items()).collect();
    let scores = frozen.logits_a(&Workspace::new(), user, &items);
    let mut order = items;
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    let got: Vec<(usize, u32)> = hits.iter().map(|h| (h.id, h.score.to_bits())).collect();
    let want: Vec<(usize, u32)> = order.iter().map(|&i| (i, scores[i].to_bits())).collect();
    assert_eq!(got, want, "full probe must be the exhaustive ranking");
}
