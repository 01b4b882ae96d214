//! Serving quickstart: train a tiny MGBR, freeze it to a serving
//! artifact, load it back, answer one top-K query per task, and score a
//! request through the batching worker pool — with latencies printed.
//!
//! ```sh
//! cargo run --release --example serving_quickstart
//! ```

use std::sync::Arc;
use std::time::Instant;

use mgbr_core::{train, FrozenModel, Mgbr, MgbrConfig, TrainConfig};
use mgbr_data::{filter_min_interactions, split_dataset, synthetic, SyntheticConfig};
use mgbr_json::ToJson;
use mgbr_serve::{IndexConfig, ItemIndex, PoolConfig, Scorer, WorkerPool};
use mgbr_tensor::top_k_slice;

fn main() {
    // 1. Train a tiny model (see examples/quickstart.rs for the full
    //    training walkthrough).
    let raw = synthetic::generate(&SyntheticConfig {
        n_users: 200,
        n_items: 80,
        n_groups: 900,
        ..SyntheticConfig::default()
    });
    let (dataset, _) = filter_min_interactions(&raw, 5);
    let split = split_dataset(&dataset, (7.0, 3.0, 1.0), 42);
    let cfg = MgbrConfig {
        d: 8,
        t_size: 4,
        ..MgbrConfig::repro_scale()
    };
    let mut model = Mgbr::new(cfg, &split.train_dataset());
    let tc = TrainConfig {
        epochs: 3,
        ..TrainConfig::repro_scale()
    };
    train(&mut model, &dataset, &split, &tc).expect("training failed");
    println!(
        "trained MGBR: {} users, {} items, {} parameters",
        model.n_users(),
        model.n_items(),
        model.param_count()
    );

    // 2. Freeze: materialize embeddings + weights into a compact,
    //    checksummed artifact, and round-trip it through disk — exactly
    //    what a model-push to a serving fleet would do.
    let t0 = Instant::now();
    let frozen = model.freeze();
    let path = std::env::temp_dir().join("mgbr_quickstart.frozen");
    frozen.save_atomic(&path).expect("save artifact");
    let loaded = Arc::new(FrozenModel::load_from_file(&path).expect("load artifact"));
    println!(
        "frozen artifact: {} bytes at {} (freeze+save+load took {:.1} ms)",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        path.display(),
        t0.elapsed().as_secs_f64() * 1e3,
    );

    // 3. Task A: top-10 items for initiator 7. Probing every cluster of
    //    the index scores the full catalog through tape-free kernels and
    //    ranks with the deterministic partial-select; fewer probes trade
    //    recall for speed.
    let index = ItemIndex::build(Arc::clone(&loaded), IndexConfig::default());
    let t_a = Instant::now();
    let top_items = index
        .top_items(7, 10, index.n_clusters())
        .expect("task A retrieval");
    let a_us = t_a.elapsed().as_micros();
    println!("\nTask A — top 10 items for initiator 7 ({a_us} µs):");
    for hit in &top_items {
        println!("  item {:>4}  logit {:+.4}", hit.id, hit.score);
    }

    // 4. Task B: top-10 participants to invite into the group
    //    (user 7, best item), every user but the initiator scored in one
    //    batch and ranked with the same partial-select.
    let best_item = top_items[0].id;
    let scorer = Scorer::new(Arc::clone(&loaded));
    let candidates: Vec<usize> = (0..loaded.n_users()).filter(|&p| p != 7).collect();
    let triples: Vec<(usize, usize, usize)> =
        candidates.iter().map(|&p| (7, best_item, p)).collect();
    let t_b = Instant::now();
    let scores = scorer
        .score_participant_batch(&triples)
        .expect("task B scoring");
    let top_parts = top_k_slice(&scores, 10);
    let b_us = t_b.elapsed().as_micros();
    println!("\nTask B — top 10 participants for group (user 7, item {best_item}) ({b_us} µs):");
    for pos in top_parts {
        println!("  user {:>4}  logit {:+.4}", candidates[pos], scores[pos]);
    }

    // 5. Online scoring: the worker pool coalesces concurrent requests
    //    into batched forwards (same bits as the direct scorer), sheds
    //    typed errors under overload, and reports latency percentiles.
    let pool = WorkerPool::new(
        Arc::clone(&loaded),
        PoolConfig::from_env().expect("serving env knobs"),
    );
    let handle = pool.submit_item(7, best_item).expect("admitted");
    let score = handle.wait().expect("scored");
    assert_eq!(
        score.to_bits(),
        scorer.score_item(7, best_item).unwrap().to_bits()
    );
    println!(
        "\nPool ({} workers): s({best_item}|7) = {score:+.4}; metrics {}",
        pool.workers(),
        pool.metrics().to_json().to_string_compact()
    );

    println!(
        "\nScores are bitwise identical to the training-path scorer — \
         see tests/serving_parity.rs for the enforced guarantee."
    );
    let _ = std::fs::remove_file(&path);
}
