//! The benchmark's inputs and its one cold set-up.
//!
//! Every setting here is a constant of the benchmark, spelled out field
//! by field, so an edit to the program's defaults or to the experiment
//! harness cannot move a workload. The catalog, its groups and the 7:3:1
//! split come from fixed seeds, so every run has the same id spaces and
//! graphs. So do the served model (its initialization and pre-training)
//! and its index, so every run serves the same artifact and probes the
//! same clusters. `--seed` varies everything drawn on top of them: the
//! training slice and negatives, the evaluation lists, the request mixes
//! and the users queried, and the online base model and the online
//! stream's cold groups. The workload's [`Shape`](crate::Shape) sets the
//! sizes of the evaluation lists and online segments.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mgbr_core::{
    warm_start, FineTuneConfig, FrozenModel, Mgbr, MgbrConfig, MgbrVariant, WatchdogConfig,
};
use mgbr_data::{
    filter_min_interactions, split_dataset, synthetic, temporal_split, DataSplit, Dataset,
    DealGroup, Sampler, SyntheticConfig, TaskAInstance, TaskBInstance, TemporalSplit, UpdateEvent,
};
use mgbr_graph::GraphViews;
use mgbr_nn::{save_checkpoint, TrainState};
use mgbr_online::{DriftConfig, OnlineConfig, OnlineLoop};
use mgbr_serve::{Admission, BatcherConfig, IndexConfig, ItemIndex, PoolConfig, WorkerPool};
use mgbr_tensor::Pcg32;

use crate::Ctx;

/// Minibatch size of the pre-training and of online fine-tuning.
pub const BATCH: usize = 64;
/// Kernel threads the program runs with.
pub const THREADS: usize = 1;
/// The fixed training slice, as `(participants per group, groups)`: 64
/// groups of two make 64 Task-A and 128 Task-B/auxiliary samples, so
/// every epoch is the same number of full batches whatever the seed
/// (two at a batch of 64, eight at 16).
pub const SLICE_GROUPS: [(usize, usize); 1] = [(2, 64)];
/// Online segments per replay (each of the workload's
/// `segment_groups` two-participant groups).
pub const SEGMENTS: usize = 3;
/// The evaluated test groups: 32 groups, 48 participants, so a pass
/// ranks exactly 32 Task-A and 48 Task-B lists whatever the seed.
pub const EVAL_GROUPS: [(usize, usize); 2] = [(1, 16), (2, 16)];
/// Requests in the serving mix (cycled by every serving phase).
pub const MIX_LEN: usize = 4096;
/// k-means clusters of the retrieval index, and clusters probed.
pub const INDEX_CLUSTERS: usize = 8;
pub const NPROBE: usize = 2;
/// Top-K depth.
pub const TOP_K: usize = 10;
/// Tail-sampling rate of the tracing probe (1 in N requests).
pub const TRACE_SAMPLE: u64 = 64;

/// Seeds of the synthetic catalog and of the 7:3:1 split.
const DATA_SEED: u64 = 2023;
const SPLIT_SEED: u64 = 2024;
/// Seeds of the served model (initialization, then pre-training) and of
/// its index's k-means. On this catalog the clusters are very uneven (a
/// few items next to fifty), so a pruned probe's cost follows them: with
/// a seeded model, pruned top-K throughput moved 2.4-fold between seeds.
const MODEL_SEED: u64 = 2025;
const INDEX_SEED: u64 = 2026;

/// The default reproduction scale.
fn synthetic_config(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        n_users: 500,
        n_items: 200,
        n_groups: 2400,
        n_clusters: 8,
        latent_dim: 8,
        cluster_noise: 0.5,
        popularity_exponent: 0.8,
        activity_exponent: 0.6,
        affinity_weight: 3.0,
        social_weight: 1.5,
        anticipation_weight: 3.5,
        group_size_mean: 3.0,
        max_group_size: 8,
        candidate_pool: 40,
        seed,
    }
}

/// MGBR at the reproduction scale (`d = 16`, `|T| = 8`).
pub fn model_config(seed: u64) -> MgbrConfig {
    MgbrConfig {
        d: 16,
        gcn_layers: 2,
        n_experts: 6,
        mtl_layers: 2,
        alpha_a: 0.1,
        alpha_b: 0.1,
        beta: 1.0,
        beta_a: 0.3,
        beta_b: 0.3,
        t_size: 8,
        mlp_hidden: vec![16],
        gate_softmax: false,
        first_layer_dedup: true,
        up_include_pp_edges: false,
        variant: MgbrVariant::Full,
        seed,
    }
}

pub fn watchdog_config() -> WatchdogConfig {
    WatchdogConfig {
        enabled: true,
        spike_factor: 25.0,
        window: 8,
        backoff: 0.5,
        max_recoveries: 3,
    }
}

fn online_config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        fine_tune: FineTuneConfig {
            rounds: 2,
            lr: 5e-4,
            batch_size: BATCH,
            n_neg: 4,
            grad_clip: Some(5.0),
            seed,
            threads: THREADS,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume: false,
            watchdog: watchdog_config(),
        },
        drift: DriftConfig {
            enabled: true,
            spike_factor: 1.5,
            window: 8,
        },
        checkpoint_dir: None,
        event_batch: 64,
    }
}

/// The one-worker pool both serving paths run through.
pub fn pool_config(trace_sample: Option<u64>) -> PoolConfig {
    PoolConfig {
        workers: 1,
        admission: Admission::Shared,
        batcher: BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_cap: 4096,
            default_deadline: None,
        },
        slo_us: None,
        trace_sample,
    }
}

/// A seed stream derived from the run seed (SplitMix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One serving request: Task A `(u, i)` or Task B `(u, i, p)`.
#[derive(Debug, Clone, Copy)]
pub enum Req {
    A(usize, usize),
    B(usize, usize, usize),
}

impl Req {
    /// The request scored alone through the frozen model.
    pub fn direct(&self, m: &FrozenModel, ws: &mgbr_tensor::Workspace) -> f32 {
        match *self {
            Req::A(u, i) => m.logits_a_pairs(ws, &[(u, i)])[0],
            Req::B(u, i, p) => m.logits_b_triples(ws, &[(u, i, p)])[0],
        }
    }

    pub fn user(&self) -> usize {
        match *self {
            Req::A(u, _) | Req::B(u, _, _) => u,
        }
    }
}

/// A seeded A/B request mix (even odds) drawn from `groups`.
pub fn request_mix(groups: &[DealGroup], n: usize, seed: u64) -> Vec<Req> {
    let mut rng = Pcg32::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let g = &groups[rng.below(groups.len())];
            let (u, i) = (g.initiator as usize, g.item as usize);
            if rng.below(2) == 0 || g.participants.is_empty() {
                Req::A(u, i)
            } else {
                Req::B(
                    u,
                    i,
                    g.participants[rng.below(g.participants.len())] as usize,
                )
            }
        })
        .collect()
}

/// Takes, in order, the first `count` groups with exactly `size`
/// participants for each `(size, count)` of `want`, so a unit's shapes
/// (groups, participants, batches) do not depend on the seed. `None`
/// when `groups` holds too few of some size.
pub fn groups_of_sizes(groups: &[DealGroup], want: &[(usize, usize)]) -> Option<Vec<DealGroup>> {
    let mut left = want.to_vec();
    let mut out = Vec::new();
    for g in groups {
        if let Some(slot) = left
            .iter_mut()
            .find(|(size, count)| *size == g.participants.len() && *count > 0)
        {
            slot.1 -= 1;
            out.push(g.clone());
        }
    }
    left.iter().all(|&(_, count)| count == 0).then_some(out)
}

/// The offline side: random 7:3:1 split, test lists and the model.
pub struct Offline {
    pub full: Dataset,
    pub split: DataSplit,
    /// The fixed training slice each trainer epoch runs over.
    pub slice: DataSplit,
    /// The evaluation pass's lists, 1:`eval_negs` (see [`EVAL_GROUPS`]).
    pub eval_a: Vec<TaskAInstance>,
    pub eval_b: Vec<TaskBInstance>,
    /// The model the train phase keeps training (pre-trained first).
    pub model: Mgbr,
}

/// The serving side: the artifact, its index and the pool.
pub struct Serving {
    pub artifact: Arc<FrozenModel>,
    pub index: ItemIndex,
    pub pool: WorkerPool,
    pub mix: Vec<Req>,
}

/// The online side: the base dataset, the replayed segments and the
/// base checkpoint.
pub struct OnlineSide {
    pub base: Dataset,
    pub segments: Vec<Vec<UpdateEvent>>,
    pub ckpt: PathBuf,
    pub first_loop: Option<OnlineLoop>,
    pub mix: Vec<Req>,
    pub cfg: OnlineConfig,
    pub mcfg: MgbrConfig,
}

pub struct World {
    /// Seconds of fixed pre-training inside the set-up (see
    /// [`crate::train::pretrain`]).
    pub pretrain_s: f64,
    pub off: Offline,
    pub srv: Serving,
    pub onl: OnlineSide,
    /// The pool the online replays publish into.
    pub onl_pool: WorkerPool,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The cold set-up: generate, preprocess, build and pre-train the model,
/// write and reload the serving artifact (CRC-checked), build the index,
/// start the pools and get a first reply, pre-train and save the online
/// base, warm-start the online loop.
pub fn setup(ctx: &mut Ctx) -> Result<World, String> {
    let seed = ctx.seed;
    let eval_negs = ctx.shape.eval_negs;
    let segment_groups = ctx.shape.segment_groups;
    let t = &mut ctx.tracer;

    let raw = t.time("data.generate", 0, || {
        synthetic::generate(&synthetic_config(DATA_SEED))
    });
    let (full, split, tests) = t.time("data.preprocess", 0, || {
        let (full, _) = filter_min_interactions(&raw, 5);
        let split = split_dataset(&full, (7.0, 3.0, 1.0), SPLIT_SEED);
        let mut sampler = Sampler::new(&full, derive(seed, 2));
        let mut held: Vec<DealGroup> = split.test.clone();
        Pcg32::seed_from_u64(derive(seed, 3)).shuffle(&mut held);
        let eval_groups = groups_of_sizes(&held, &EVAL_GROUPS);
        let tests = eval_groups.map(|g| {
            (
                sampler.task_a_instances(&g, eval_negs),
                sampler.task_b_instances(&g, eval_negs),
            )
        });
        (full, split, tests)
    });
    let (eval_a, eval_b) = tests.ok_or("test partition too small for the evaluation lists")?;
    let train_ds = split.train_dataset();
    if t.on() {
        // The views Mgbr::new builds, rebuilt once through the public
        // builder for the per-layer row.
        let views = t.time("graph.views", 0, || {
            GraphViews::build(
                train_ds.n_users,
                train_ds.n_items,
                &train_ds.ui_edges(),
                &train_ds.pi_edges(),
                &train_ds.up_edges(),
            )
        });
        let edges = views.a_ui.nnz() + views.a_pi.nnz() + views.a_up.nnz();
        ctx.report.metric("graph.edges", edges as f64, "count");
    }
    let t = &mut ctx.tracer;
    let mcfg = model_config(MODEL_SEED);
    let mut model = t.time("core.model_new", 0, || Mgbr::new(mcfg.clone(), &train_ds));
    let mut pretrain_s = crate::train::pretrain(&mut model, &full, &split.train, MODEL_SEED)?;

    let mut shuffled = split.train.clone();
    Pcg32::seed_from_u64(derive(seed, 5)).shuffle(&mut shuffled);
    let slice_groups = groups_of_sizes(&shuffled, &SLICE_GROUPS)
        .ok_or("training partition too small for the slice")?;
    let slice = DataSplit {
        n_users: split.n_users,
        n_items: split.n_items,
        train: slice_groups,
        val: Vec::new(),
        test: Vec::new(),
    };

    // Serving: artifact fixture → CRC-checked load → index → pool.
    let artifact_path = ctx.scratch.join("serve.frzn");
    {
        let file = File::create(&artifact_path).map_err(io_err("artifact fixture"))?;
        let mut w = BufWriter::new(file);
        model
            .freeze()
            .save(&mut w)
            .map_err(|e| format!("artifact save: {e}"))?;
        w.flush().map_err(io_err("artifact fixture"))?;
    }
    let artifact = t.time("serve.artifact_load", 0, || {
        FrozenModel::load_from_file(&artifact_path)
    });
    let artifact = Arc::new(artifact.map_err(|e| format!("artifact load: {e}"))?);
    let index = t.time("serve.index_build", 0, || {
        ItemIndex::build(
            Arc::clone(&artifact),
            IndexConfig {
                n_clusters: INDEX_CLUSTERS,
                max_iters: 25,
                seed: INDEX_SEED,
                chunk: 512,
            },
        )
    });
    let pool = WorkerPool::new(Arc::clone(&artifact), pool_config(None));
    let mut held = split.val.clone();
    held.extend(split.test.iter().cloned());
    let mix = request_mix(&held, MIX_LEN, derive(seed, 7));
    let first = match mix[0] {
        Req::A(u, i) => pool.score_item(u, i),
        Req::B(u, i, p) => pool.score_participant(u, i, p),
    };
    first.map_err(|e| format!("first reply: {e}"))?;

    // Online: temporal split, replay segments, base checkpoint fixture.
    let (base, segments, online_mix) = online_stream(&full, segment_groups, seed)?;
    let onl_mcfg = model_config(derive(seed, 8));
    let ckpt = ctx.scratch.join("online-base.ckpt");
    {
        let mut base_model = Mgbr::new(onl_mcfg.clone(), &base);
        pretrain_s +=
            crate::train::pretrain(&mut base_model, &base, &base.groups, derive(seed, 13))?;
        let file = File::create(&ckpt).map_err(io_err("base checkpoint"))?;
        let mut w = BufWriter::new(file);
        save_checkpoint(&base_model.store, &TrainState::new(0), &mut w)
            .map_err(|e| format!("base checkpoint save: {e}"))?;
        w.flush().map_err(io_err("base checkpoint"))?;
    }
    let cfg = online_config(derive(seed, 9));
    let (first_loop, online_pool) = t.time("online.warm_start", 0, || -> Result<_, String> {
        let mut m = Mgbr::new(onl_mcfg.clone(), &base);
        warm_start(&mut m, &ckpt).map_err(|e| format!("warm start: {e}"))?;
        let pool = WorkerPool::new(Arc::new(m.freeze()), pool_config(None));
        let lp = OnlineLoop::new(m, base.clone(), cfg.clone())
            .map_err(|e| format!("online loop: {e}"))?;
        Ok((lp, pool))
    })?;

    Ok(World {
        pretrain_s,
        off: Offline {
            full,
            split,
            slice,
            eval_a,
            eval_b,
            model,
        },
        srv: Serving {
            artifact,
            index,
            pool,
            mix,
        },
        onl: OnlineSide {
            base,
            segments,
            ckpt,
            first_loop: Some(first_loop),
            mix: online_mix,
            cfg,
            mcfg: onl_mcfg,
        },
        onl_pool: online_pool,
    })
}

/// The base dataset, the replayed segments and the read mix.
type OnlineStream = (Dataset, Vec<Vec<UpdateEvent>>, Vec<Req>);

/// The online stream: the 70% temporal prefix is the base; the tail's
/// in-space groups of exactly two participants, in time order, are cut
/// into [`SEGMENTS`] segments of `segment_groups` groups each, plus
/// groups naming two users and one item the base has never seen, so
/// every replay exercises fold-in.
fn online_stream(full: &Dataset, segment_groups: usize, seed: u64) -> Result<OnlineStream, String> {
    let ts = temporal_split(full, 0.7);
    let base = ts.train_dataset();
    let (nu, ni) = (base.n_users, base.n_items);
    let in_space = |g: &DealGroup| {
        (g.initiator as usize) < nu
            && (g.item as usize) < ni
            && g.participants.iter().all(|&p| (p as usize) < nu)
    };
    let stream: Vec<DealGroup> = ts
        .tail
        .iter()
        .filter(|g| g.participants.len() == 2 && in_space(g))
        .take(SEGMENTS * segment_groups)
        .cloned()
        .collect();
    if stream.len() < SEGMENTS * segment_groups {
        return Err("temporal tail too short for the online segments".into());
    }
    let mut rng = Pcg32::seed_from_u64(derive(seed, 10));
    let mut seg_groups: Vec<Vec<DealGroup>> = Vec::with_capacity(SEGMENTS);
    for (k, chunk) in stream.chunks(segment_groups).enumerate() {
        let mut seg = chunk.to_vec();
        // Every cold entity is announced in the first segment, so each
        // replay publishes the same grown id spaces from its first swap
        // on (a pool never accepts a shrinking artifact); later segments
        // add evidence for the fold-in solve.
        let mut t_next = seg.last().map_or(0, |g| g.timestamp) + 1;
        let cold_users: Vec<usize> = if k == 0 {
            vec![nu, nu + 1]
        } else {
            vec![nu + k % 2]
        };
        for cu in cold_users {
            let p1 = rng.below(nu);
            let p2 = (p1 + 1 + rng.below(nu - 1)) % nu;
            let ps = vec![p1 as u32, p2 as u32];
            seg.push(DealGroup::new(cu as u32, rng.below(ni) as u32, ps).at(t_next));
            t_next += 1;
        }
        let u = rng.below(nu);
        seg.push(DealGroup::new(u as u32, ni as u32, vec![((u + 1) % nu) as u32]).at(t_next));
        seg_groups.push(seg);
    }
    // Announcements per segment come from the library's own stream
    // protocol: each segment is the tail of a split whose prefix holds
    // the base and every earlier segment.
    let mut prefix = ts.train.clone();
    let mut segments = Vec::with_capacity(SEGMENTS);
    for seg in &seg_groups {
        let split = TemporalSplit {
            n_users: nu + 2,
            n_items: ni + 1,
            train: prefix.clone(),
            tail: seg.clone(),
        };
        segments.push(split.update_events());
        prefix.extend(seg.iter().cloned());
    }
    let mix = request_mix(&ts.train, MIX_LEN, derive(seed, 11));
    Ok((base, segments, mix))
}
