//! Serving-path benchmark: trains a model at the configured scale,
//! freezes it, round-trips the artifact through disk, verifies
//! frozen-vs-training-path score parity at several thread counts, then
//! replays a Beibei-shaped synthetic request stream at several batch
//! sizes (plus one closed-loop cell through a one-worker pool), drives
//! the multi-worker [`WorkerPool`] with an **open-loop**
//! (fixed-arrival-rate) load generator against a p99 latency SLO,
//! measures p99/shed-rate through ten artifact hot-swaps under that load
//! (`swap_under_load`), sweeps the pruned [`ItemIndex`] for a
//! recall@K-vs-speedup curve against its exact full probe, and writes
//! everything to `results/BENCH_serve.json`.
//!
//! Knobs: `MGBR_SCALE` (small/default/large), `MGBR_SERVE_REQUESTS`
//! (requests per closed-loop cell, default 2000), `MGBR_SERVE_WORKERS`
//! (pool workers, default 4), `MGBR_SERVE_SLO_US` (open-loop p99 SLO in
//! microseconds, default 5000; when set it also arms the pool's
//! SLO-aware early shedding), `MGBR_SERVE_DEADLINE_US` (default
//! per-request deadline budget; unset = no deadline), `MGBR_THREADS`.
//! Malformed knob values abort the bench (fail closed) instead of
//! silently measuring defaults.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mgbr_bench::{build_meta, write_artifact, ExperimentEnv};
use mgbr_core::{train, FrozenModel, Mgbr, TrainConfig};
use mgbr_eval::GroupBuyScorer;
use mgbr_json::{Json, ToJson};
use mgbr_obs::GeoHistogram;
use mgbr_serve::{
    latency_json, recall_at_k, BatcherConfig, IndexConfig, ItemIndex, PoolConfig, Scorer,
    ServeError, WorkerPool,
};
use mgbr_tensor::{configure_threads, set_threads, Pcg32};

struct Cell {
    batch: usize,
    requests: usize,
    total_secs: f64,
    qps: f64,
    latency: GeoHistogram,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("batch", self.batch.to_json()),
            ("requests", self.requests.to_json()),
            ("total_secs", self.total_secs.to_json()),
            ("qps", self.qps.to_json()),
            ("latency", latency_json(&self.latency)),
        ])
    }
}

/// One open-loop cell: requests admitted at a fixed arrival rate
/// (non-blocking), latency measured enqueue-to-reply per request.
struct PoolCell {
    offered_qps: f64,
    requests: usize,
    served: u64,
    shed: u64,
    achieved_qps: f64,
    latency: GeoHistogram,
    within_slo: bool,
}

impl ToJson for PoolCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("offered_qps", self.offered_qps.to_json()),
            ("requests", self.requests.to_json()),
            ("served", self.served.to_json()),
            ("shed", self.shed.to_json()),
            ("achieved_qps", self.achieved_qps.to_json()),
            ("latency", latency_json(&self.latency)),
            ("within_slo", Json::Bool(self.within_slo)),
        ])
    }
}

/// One row of the recall@K-vs-speedup curve for the pruned index.
struct IndexRow {
    nprobe: usize,
    recall_at_10: f64,
    qps: f64,
    speedup_vs_exhaustive: f64,
}

impl ToJson for IndexRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("nprobe", self.nprobe.to_json()),
            ("recall_at_10", self.recall_at_10.to_json()),
            ("qps", self.qps.to_json()),
            (
                "speedup_vs_exhaustive",
                self.speedup_vs_exhaustive.to_json(),
            ),
        ])
    }
}

struct ServeBench {
    scale: String,
    threads: usize,
    parity_ok: bool,
    parity_thread_counts: Vec<usize>,
    artifact_bytes: usize,
    plan: Json,
    cells: Vec<Cell>,
    batcher: mgbr_serve::ServeMetrics,
    batcher_qps: f64,
    pool_workers: usize,
    slo_us: u64,
    pool_cells: Vec<PoolCell>,
    slo_qps: f64,
    pool_speedup_vs_one_worker: f64,
    swap_under_load: Json,
    index: Json,
    meta: Json,
}

impl ToJson for ServeBench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scale", self.scale.to_json()),
            ("threads", self.threads.to_json()),
            ("parity_ok", Json::Bool(self.parity_ok)),
            (
                "parity_thread_counts",
                Json::Arr(
                    self.parity_thread_counts
                        .iter()
                        .map(|t| t.to_json())
                        .collect(),
                ),
            ),
            ("artifact_bytes", self.artifact_bytes.to_json()),
            ("plan", self.plan.clone()),
            (
                "cells",
                Json::Arr(self.cells.iter().map(ToJson::to_json).collect()),
            ),
            ("batcher", self.batcher.to_json()),
            ("batcher_qps", self.batcher_qps.to_json()),
            ("pool_workers", self.pool_workers.to_json()),
            ("slo_us", self.slo_us.to_json()),
            (
                "pool_cells",
                Json::Arr(self.pool_cells.iter().map(ToJson::to_json).collect()),
            ),
            ("slo_qps", self.slo_qps.to_json()),
            (
                "pool_speedup_vs_one_worker",
                self.pool_speedup_vs_one_worker.to_json(),
            ),
            ("swap_under_load", self.swap_under_load.clone()),
            ("index", self.index.clone()),
            ("meta", self.meta.to_json()),
        ])
    }
}

/// Drives a fresh [`WorkerPool`] open-loop: requests are admitted at
/// their scheduled arrival times `t_i = i / rate` (non-blocking
/// [`WorkerPool::submit_item`]), so a slow server cannot throttle the
/// generator (no coordinated omission). Latency is enqueue-to-reply
/// from the pool's own histogram.
fn run_open_loop(
    model: &Arc<FrozenModel>,
    cfg: &PoolConfig,
    stream: &[(usize, usize)],
    rate: f64,
    n_cell: usize,
    slo_us: u64,
) -> PoolCell {
    let pool = WorkerPool::new(Arc::clone(model), cfg.clone());
    // Warm every worker's scorer workspace before the clock starts (the
    // handful of warmup samples lands in the same histogram; they are
    // noise at the cell's request count).
    for &(u, i) in &stream[..stream.len().min(16)] {
        let _ = pool.score_item(u, i);
    }
    let warm = pool.metrics().requests;

    let mut handles = Vec::with_capacity(n_cell);
    let mut shed = 0u64;
    let t0 = Instant::now();
    for j in 0..n_cell {
        let due = Duration::from_secs_f64(j as f64 / rate);
        // Pace with sleep/yield, not a spin: on small machines a spinning
        // generator would starve the very workers it is load-testing.
        loop {
            let now = t0.elapsed();
            let Some(ahead) = due.checked_sub(now) else {
                break;
            };
            if ahead > Duration::from_micros(200) {
                std::thread::sleep(ahead - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
        let (u, i) = stream[j % stream.len()];
        match pool.submit_item(u, i) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("open-loop submit failed unexpectedly: {e}"),
        }
    }
    let mut served = 0u64;
    for h in handles {
        if h.wait().is_ok() {
            served += 1;
        }
    }
    let total_secs = t0.elapsed().as_secs_f64();
    let m = pool.metrics();
    debug_assert_eq!(m.requests, warm + served);
    let latency = m.latency;
    let within_slo = shed == 0 && latency.percentile(0.99) <= slo_us;
    PoolCell {
        offered_qps: rate,
        requests: n_cell,
        served,
        shed,
        achieved_qps: served as f64 / total_secs.max(1e-12),
        latency,
        within_slo,
    }
}

/// Resilience cell: the open-loop generator keeps offering load while
/// the pool hot-swaps its artifact `n_swaps` times mid-stream
/// (republishing the same model isolates swap cost from model content:
/// full validation + publish + per-worker scorer rebuild). Reported:
/// p99 latency and shed rate through the swap storm — the "hot-swap
/// without dropped requests" contract, measured.
fn run_swap_under_load(
    model: &Arc<FrozenModel>,
    cfg: &PoolConfig,
    stream: &[(usize, usize)],
    rate: f64,
    n_cell: usize,
    n_swaps: usize,
) -> Json {
    let pool = WorkerPool::new(Arc::clone(model), cfg.clone());
    for &(u, i) in &stream[..stream.len().min(16)] {
        let _ = pool.score_item(u, i);
    }
    // n_swaps + 1 segments so every swap point lands strictly inside
    // the stream (j == n_cell is never reached by the loop below).
    let swap_every = (n_cell / n_swaps.max(1).saturating_add(1)).max(1);
    let mut swaps_done = 0usize;
    let mut handles = Vec::with_capacity(n_cell);
    let mut shed = 0u64;
    let t0 = Instant::now();
    for j in 0..n_cell {
        if j > 0 && j % swap_every == 0 && swaps_done < n_swaps {
            let _ = pool.swap_model(Arc::clone(model)).expect("hot swap");
            swaps_done += 1;
        }
        let due = Duration::from_secs_f64(j as f64 / rate);
        loop {
            let now = t0.elapsed();
            let Some(ahead) = due.checked_sub(now) else {
                break;
            };
            if ahead > Duration::from_micros(200) {
                std::thread::sleep(ahead - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
        let (u, i) = stream[j % stream.len()];
        match pool.submit_item(u, i) {
            Ok(h) => handles.push(h),
            Err(ServeError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("swap-under-load submit failed unexpectedly: {e}"),
        }
    }
    let admitted = handles.len() as u64;
    let mut answered_ok = 0u64;
    let mut dropped = 0u64;
    for h in handles {
        match h.wait_reply().result {
            Ok(_) => answered_ok += 1,
            Err(ServeError::Canceled) => dropped += 1,
            Err(_) => {}
        }
    }
    assert_eq!(
        dropped, 0,
        "hot-swap dropped admitted requests (contract violation)"
    );
    let total_secs = t0.elapsed().as_secs_f64();
    let m = pool.metrics();
    let shed_rate = shed as f64 / n_cell.max(1) as f64;
    println!(
        "\nswap_under_load: {n_cell} requests at {rate:.0} qps through {} swaps: \
         p99 {} us, shed rate {shed_rate:.4}, final generation {}",
        m.swaps,
        m.latency.percentile(0.99),
        m.generation,
    );
    Json::obj([
        ("offered_qps", rate.to_json()),
        ("requests", n_cell.to_json()),
        ("swaps", m.swaps.to_json()),
        ("generation", m.generation.to_json()),
        ("admitted", admitted.to_json()),
        ("answered_ok", answered_ok.to_json()),
        ("shed", shed.to_json()),
        ("shed_rate", shed_rate.to_json()),
        ("shed_slo", m.shed_slo.to_json()),
        ("deadline_expired", m.deadline_expired.to_json()),
        (
            "achieved_qps",
            (answered_ok as f64 / total_secs.max(1e-12)).to_json(),
        ),
        ("latency", latency_json(&m.latency)),
    ])
}

/// Frozen scores must be bitwise identical to the training-path scorer
/// at every thread count. Returns false (and prints the offender) on
/// any mismatch.
fn check_parity(model: &Mgbr, frozen: &FrozenModel, thread_counts: &[usize]) -> bool {
    let scorer = model.scorer();
    let ws = mgbr_tensor::Workspace::new();
    let items: Vec<u32> = (0..model.n_items().min(50) as u32).collect();
    let idx: Vec<usize> = items.iter().map(|&i| i as usize).collect();
    let parts: Vec<u32> = (0..model.n_users().min(40) as u32).collect();
    let pidx: Vec<usize> = parts.iter().map(|&p| p as usize).collect();
    let mut ok = true;
    for &t in thread_counts {
        set_threads(t);
        for user in [0usize, model.n_users() / 2, model.n_users() - 1] {
            let frozen_bits: Vec<u32> = frozen
                .logits_a(&ws, user, &idx)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let train_bits: Vec<u32> = scorer
                .score_items(user as u32, &items)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            if frozen_bits != train_bits {
                eprintln!("PARITY MISMATCH: task A, user {user}, threads {t}");
                ok = false;
            }
        }
        let fb: Vec<u32> = frozen
            .logits_b(&ws, 1, 0, &pidx)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let tb: Vec<u32> = scorer
            .score_participants(1, 0, &parts)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        if fb != tb {
            eprintln!("PARITY MISMATCH: task B, threads {t}");
            ok = false;
        }
    }
    configure_threads(0);
    ok
}

/// Replays `n` synthetic Task A requests through a [`Scorer`] in
/// batches of `batch`, timing each batched forward.
fn run_cell(scorer: &Scorer, stream: &[(usize, usize)], batch: usize) -> Cell {
    let mut latency = GeoHistogram::new();
    let t0 = Instant::now();
    for chunk in stream.chunks(batch) {
        let b0 = Instant::now();
        let scores = scorer
            .score_item_batch(chunk)
            .expect("valid request stream");
        assert_eq!(scores.len(), chunk.len());
        let us = b0.elapsed().as_micros() as u64;
        for _ in chunk {
            latency.record(us);
        }
    }
    let total_secs = t0.elapsed().as_secs_f64();
    Cell {
        batch,
        requests: stream.len(),
        total_secs,
        qps: stream.len() as f64 / total_secs.max(1e-12),
        latency,
    }
}

fn main() {
    let env = ExperimentEnv::from_env();
    let n_requests: usize = std::env::var("MGBR_SERVE_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    println!(
        "# Serving benchmark (scale = {}, {n_requests} requests/cell)\n",
        env.scale
    );

    // A briefly-trained model: serving throughput does not depend on
    // weight values, but the artifact should exercise the real path.
    let mut model = Mgbr::new(env.mgbr_config(), &env.split.train_dataset());
    let tc = TrainConfig {
        epochs: 1,
        ..env.mgbr_train_config()
    };
    train(&mut model, &env.full, &env.split, &tc).expect("training failed");

    // Freeze → save → load: serve from the artifact that went to disk.
    let frozen = model.freeze();
    std::fs::create_dir_all("results").expect("create results/");
    let path = std::path::Path::new("results").join("model.frozen");
    frozen.save_atomic(&path).expect("save frozen artifact");
    let artifact_bytes = std::fs::metadata(&path)
        .map(|m| m.len() as usize)
        .unwrap_or(0);
    let loaded = Arc::new(FrozenModel::load_from_file(&path).expect("load frozen artifact"));
    println!(
        "artifact: {} ({artifact_bytes} bytes, variant {})",
        path.display(),
        loaded.variant()
    );

    // Serving-plan footprint: how much the affine-fusion pass shrinks
    // the per-request op list (scores are bit-identical either way —
    // enforced by tests/serving_parity.rs).
    let mut unfused = (*loaded).clone();
    unfused.set_fused(false);
    let plan_stats = Json::obj([
        ("stored_ops", loaded.plan().ops.len().to_json()),
        (
            "serve_a_ops_fused",
            loaded.serve_plan_a().ops.len().to_json(),
        ),
        (
            "serve_a_ops_unfused",
            unfused.serve_plan_a().ops.len().to_json(),
        ),
        (
            "serve_b_ops_fused",
            loaded.serve_plan_b().ops.len().to_json(),
        ),
        (
            "serve_b_ops_unfused",
            unfused.serve_plan_b().ops.len().to_json(),
        ),
    ]);
    println!(
        "serving plans: task A {} -> {} ops, task B {} -> {} ops after fusion",
        unfused.serve_plan_a().ops.len(),
        loaded.serve_plan_a().ops.len(),
        unfused.serve_plan_b().ops.len(),
        loaded.serve_plan_b().ops.len(),
    );

    // Golden invariant: frozen path == training path, at 1/2/4 threads.
    let parity_thread_counts = vec![1usize, 2, 4];
    let parity_ok = check_parity(&model, &loaded, &parity_thread_counts);
    println!(
        "parity (threads {parity_thread_counts:?}): {}",
        if parity_ok {
            "ok (bitwise)"
        } else {
            "MISMATCH"
        }
    );
    if !parity_ok {
        // A serving stack that disagrees with training is worthless; the
        // bench refuses to report throughput numbers for it.
        std::process::exit(1);
    }

    // Beibei-shaped request stream: uniform (user, item) draws at the
    // dataset's id-space scale, fixed seed for reproducibility.
    let mut rng = Pcg32::new(0x5e7e, 0xbeeb);
    let stream: Vec<(usize, usize)> = (0..n_requests)
        .map(|_| {
            (
                (rng.uniform() * model.n_users() as f32) as usize % model.n_users(),
                (rng.uniform() * model.n_items() as f32) as usize % model.n_items(),
            )
        })
        .collect();

    let scorer = Scorer::new(Arc::clone(&loaded));
    // Warmup: populate the workspace pool so allocation noise stays out
    // of the first cell.
    let _ = scorer.score_item_batch(&stream[..stream.len().min(64)]);

    let mut cells = Vec::new();
    println!(
        "\n{:>6} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "batch", "qps", "total_s", "p50_us", "p95_us", "p99_us"
    );
    for batch in [1usize, 8, 64, 256] {
        let cell = run_cell(&scorer, &stream, batch);
        println!(
            "{:>6} {:>10.0} {:>10.3} {:>9} {:>9} {:>9}",
            cell.batch,
            cell.qps,
            cell.total_secs,
            cell.latency.percentile(0.50),
            cell.latency.percentile(0.95),
            cell.latency.percentile(0.99),
        );
        cells.push(cell);
    }

    // Baseline cell: 4 submitter threads through a one-worker pool (the
    // single-queue micro-batcher).
    let batcher = Arc::new(WorkerPool::new(
        Arc::clone(&loaded),
        PoolConfig {
            workers: 1,
            batcher: BatcherConfig {
                max_batch: 64,
                max_wait: Duration::from_micros(200),
                queue_cap: 4096,
                default_deadline: None,
            },
            ..PoolConfig::default()
        },
    ));
    let per_thread = n_requests / 4;
    let b0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..4usize {
        let b = Arc::clone(&batcher);
        let chunk: Vec<(usize, usize)> = stream[t * per_thread..(t + 1) * per_thread].to_vec();
        handles.push(std::thread::spawn(move || {
            for (u, i) in chunk {
                b.score_item(u, i).expect("batched request");
            }
        }));
    }
    for h in handles {
        h.join().expect("submitter thread");
    }
    let batcher_secs = b0.elapsed().as_secs_f64();
    let metrics = batcher.metrics();
    let batcher_qps = metrics.requests as f64 / batcher_secs.max(1e-12);
    println!(
        "\none-worker pool: {} requests in {batcher_secs:.3}s ({batcher_qps:.0} qps, mean batch {:.1}, p99 {} us)",
        metrics.requests,
        metrics.mean_batch(),
        metrics.latency.percentile(0.99),
    );

    // Open-loop multi-worker sweep: offered rate in multiples of the
    // closed-loop one-worker baseline's throughput. The pool wins by
    // coalescing the standing queue into large batches instead of the
    // tiny batches four blocking submitters can form.
    // Fail closed on malformed env knobs: a typo'd MGBR_SERVE_* aborts
    // the bench instead of silently measuring a default configuration.
    let pool_cfg = PoolConfig::from_env().expect("serving env knobs");
    let slo_us: u64 = pool_cfg.slo_us.unwrap_or(5000);
    println!(
        "\n# Open-loop worker pool ({} workers, {:?} admission, p99 SLO {slo_us} us)\n",
        pool_cfg.workers, pool_cfg.admission
    );
    println!(
        "{:>12} {:>12} {:>8} {:>9} {:>9} {:>9}  slo",
        "offered_qps", "achieved", "shed", "p50_us", "p95_us", "p99_us"
    );
    let mut pool_cells = Vec::new();
    for mult in [1.0f64, 2.0, 3.0, 4.0, 6.0, 8.0] {
        let rate = batcher_qps * mult;
        // Run each cell long enough to be measurable (>= 250 ms of
        // offered load), bounded so the sweep stays quick. The floor is
        // itself capped at the ceiling so an oversized MGBR_SERVE_REQUESTS
        // degrades to 200k instead of panicking on clamp(min > max).
        let n_cell = ((rate * 0.25) as usize).clamp(n_requests.min(200_000), 200_000);
        let cell = run_open_loop(&loaded, &pool_cfg, &stream, rate, n_cell, slo_us);
        println!(
            "{:>12.0} {:>12.0} {:>8} {:>9} {:>9} {:>9}  {}",
            cell.offered_qps,
            cell.achieved_qps,
            cell.shed,
            cell.latency.percentile(0.50),
            cell.latency.percentile(0.95),
            cell.latency.percentile(0.99),
            if cell.within_slo { "ok" } else { "MISS" },
        );
        pool_cells.push(cell);
    }
    let slo_qps = pool_cells
        .iter()
        .filter(|c| c.within_slo)
        .map(|c| c.achieved_qps)
        .fold(0.0f64, f64::max);
    let pool_speedup = slo_qps / batcher_qps.max(1e-12);
    println!(
        "\nslo_qps: {slo_qps:.0} ({pool_speedup:.1}x the one-worker pool at p99 <= {slo_us} us)"
    );

    // Resilience: ten hot-swaps while the generator offers the best
    // SLO-sustainable rate found above. The contract under test: no
    // admitted request is dropped, and p99/shed stay bounded through
    // the swap storm.
    let swap_rate = if slo_qps > 0.0 { slo_qps } else { batcher_qps };
    let n_swap_cell = ((swap_rate * 0.5) as usize).clamp(n_requests.min(200_000), 200_000);
    let swap_under_load =
        run_swap_under_load(&loaded, &pool_cfg, &stream, swap_rate, n_swap_cell, 10);

    // Pruned-index sweep: recall@10 vs speedup over the exhaustive scan,
    // one row per nprobe. The exhaustive baseline is the full probe,
    // which scores every item and is exact by construction (pinned
    // bitwise by tests/index_properties.rs).
    let index = ItemIndex::build(Arc::clone(&loaded), IndexConfig::default());
    let q_users: Vec<usize> = stream.iter().take(256).map(|&(u, _)| u).collect();
    let t0 = Instant::now();
    let exact: Vec<Vec<mgbr_serve::Hit>> = q_users
        .iter()
        .map(|&u| {
            index
                .top_items(u, 10, index.n_clusters())
                .expect("full-probe top-k")
        })
        .collect();
    let exhaustive_secs = t0.elapsed().as_secs_f64();
    let exhaustive_qps = q_users.len() as f64 / exhaustive_secs.max(1e-12);
    println!(
        "\n# Pruned index ({} clusters over {} items; exhaustive scan {exhaustive_qps:.0} qps)\n",
        index.n_clusters(),
        loaded.n_items()
    );
    println!(
        "{:>7} {:>11} {:>10} {:>8}",
        "nprobe", "recall@10", "qps", "speedup"
    );
    let mut index_rows = Vec::new();
    for nprobe in 1..=index.n_clusters() {
        let t0 = Instant::now();
        let pruned: Vec<Vec<mgbr_serve::Hit>> = q_users
            .iter()
            .map(|&u| index.top_items(u, 10, nprobe).expect("pruned top-k"))
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        let recall = pruned
            .iter()
            .zip(&exact)
            .map(|(p, e)| recall_at_k(p, e))
            .sum::<f64>()
            / q_users.len() as f64;
        let row = IndexRow {
            nprobe,
            recall_at_10: recall,
            qps: q_users.len() as f64 / secs.max(1e-12),
            speedup_vs_exhaustive: exhaustive_secs / secs.max(1e-12),
        };
        println!(
            "{:>7} {:>11.4} {:>10.0} {:>7.2}x",
            row.nprobe, row.recall_at_10, row.qps, row.speedup_vs_exhaustive
        );
        index_rows.push(row);
    }

    write_artifact(
        "BENCH_serve.json",
        &ServeBench {
            scale: env.scale.to_string(),
            threads: mgbr_tensor::get_threads(),
            parity_ok,
            parity_thread_counts,
            artifact_bytes,
            plan: plan_stats,
            cells,
            batcher: metrics,
            batcher_qps,
            pool_workers: pool_cfg.workers,
            slo_us,
            pool_cells,
            slo_qps,
            pool_speedup_vs_one_worker: pool_speedup,
            swap_under_load,
            index: Json::obj([
                ("n_clusters", index.n_clusters().to_json()),
                ("k", 10usize.to_json()),
                ("queries", q_users.len().to_json()),
                ("exhaustive_qps", exhaustive_qps.to_json()),
                (
                    "rows",
                    Json::Arr(index_rows.iter().map(ToJson::to_json).collect()),
                ),
            ]),
            meta: build_meta(&tc),
        },
    );
}
