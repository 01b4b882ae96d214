//! Offline training and ranking evaluation.
//!
//! Units: trainer epochs over a fixed slice of the training groups, at
//! the workload's batch size, on a model built over the full training
//! graph (a step costs what a full-data step costs; epoch-boundary
//! sampling sits outside the trainer's epoch clock), and evaluation
//! passes over fixed test candidate lists. Set-up pre-trains the served
//! model and the online base for a fixed number of epochs here too.

use std::time::{Duration, Instant};

use mgbr_autograd::Tape;
use mgbr_core::loss::{aux_a_loss, aux_b_loss, task_a_loss, task_b_loss, AuxSample};
use mgbr_core::{train, FrozenModel, Mgbr, TrainConfig};
use mgbr_data::{BatchIter, DataSplit, Dataset, DealGroup, Sampler, TaskAInstance, TaskBInstance};
use mgbr_eval::{evaluate_task_a, evaluate_task_b, GroupBuyScorer, MetricAccumulator};
use mgbr_graph::{spmm, GraphViews};
use mgbr_nn::{Adam, Optimizer, StepCtx};
use mgbr_tensor::{matmul, matmul_nt, matmul_tn, Pcg32, Tensor, Workspace};

use crate::stats::fastest_decile;
use crate::world::{derive, watchdog_config, World, BATCH, THREADS};
use crate::{run_units, Ctx};

/// Epochs per `train()` call (the first of each call also warms the
/// tape's buffer pool).
const EPOCHS_PER_CALL: usize = 2;
/// Adam learning rate of the benchmark's training runs.
const LR: f32 = 2e-3;
/// Pre-training: epochs over the first [`PRETRAIN_GROUPS`] groups of a
/// seeded shuffle of the training groups, at a batch of [`BATCH`].
const PRETRAIN_EPOCHS: usize = 1;
const PRETRAIN_GROUPS: usize = 192;
/// Cutoff of the evaluation pass's ranking metrics.
const EVAL_CUTOFF: usize = 10;
/// Random-ranking MRR@10 on a 1:9 list: H₁₀ / 10.
const RANDOM_MRR10: f64 = 0.292_896_825_396_825_4;

fn train_config(seed: u64, epochs: usize, batch_size: usize, threads: usize) -> TrainConfig {
    TrainConfig {
        lr: LR,
        batch_size,
        epochs,
        n_neg: 9,
        grad_clip: Some(5.0),
        seed,
        resample_per_epoch: true,
        adam_warm_restarts: false,
        threads,
        checkpoint_every: 0,
        checkpoint_path: None,
        resume: false,
        watchdog: watchdog_config(),
        numeric_fault: None,
        trace_path: None,
    }
}

/// Pre-trains `model` for [`PRETRAIN_EPOCHS`] epochs over the first
/// [`PRETRAIN_GROUPS`] groups of a seeded shuffle of `groups` (drawn
/// from `full`'s id spaces), so the served artifact, its index and the
/// online base hold trained embeddings. Returns the seconds it took.
pub fn pretrain(
    model: &mut Mgbr,
    full: &Dataset,
    groups: &[DealGroup],
    seed: u64,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut train_groups = groups.to_vec();
    Pcg32::seed_from_u64(seed).shuffle(&mut train_groups);
    train_groups.truncate(PRETRAIN_GROUPS);
    let slice = DataSplit {
        n_users: full.n_users,
        n_items: full.n_items,
        train: train_groups,
        val: Vec::new(),
        test: Vec::new(),
    };
    let tc = train_config(derive(seed, 1), PRETRAIN_EPOCHS, BATCH, THREADS);
    let r = train(model, full, &slice, &tc).map_err(|e| format!("pre-training failed: {e}"))?;
    eprintln!(
        "perfbench: pre-trained {} steps, epoch loss {:?}",
        r.steps, r.epoch_losses
    );
    Ok(t0.elapsed().as_secs_f64())
}

#[derive(Default)]
struct Epochs {
    secs: Vec<f64>,
    losses: Vec<f32>,
    steps: usize,
}

/// Offline training, accumulated over rounds.
#[derive(Default)]
pub struct Training {
    ep: Epochs,
    calls: usize,
    left: f64,
}

impl Training {
    /// `train()` calls for the round's `budget` (see [`run_units`]).
    pub fn round(&mut self, ctx: &mut Ctx, w: &mut World, budget: Duration) -> Result<(), String> {
        run_units(&mut self.left, budget, || {
            let seed = derive(ctx.seed, 100 + self.calls as u64);
            let tc = train_config(seed, EPOCHS_PER_CALL, ctx.shape.train_batch, THREADS);
            if ctx.traced {
                traced_epochs(
                    ctx,
                    &mut w.off.model,
                    &w.off.full,
                    &w.off.slice,
                    &tc,
                    &mut self.ep,
                );
            } else {
                let r = train(&mut w.off.model, &w.off.full, &w.off.slice, &tc)
                    .map_err(|e| format!("training failed: {e}"))?;
                self.ep.secs.extend_from_slice(&r.epoch_secs);
                self.ep.losses.extend_from_slice(&r.epoch_losses);
                self.ep.steps += r.steps;
            }
            self.calls += 1;
            Ok(())
        })
    }

    pub fn finish(self, ctx: &mut Ctx, w: &World) -> Result<(), String> {
        let ep = self.ep;
        let steps_per_epoch = ep.steps as f64 / ep.secs.len() as f64;
        let best = fastest_decile(&ep.secs).ok_or("no training epochs")?;
        if ctx.traced {
            ctx.report
                .metric("train.step_ms", 1e3 * best / steps_per_epoch, "ms");
            layer_probes(ctx, w);
        } else {
            ctx.report
                .metric("train_steps_per_s", steps_per_epoch / best, "steps/s");
        }
        ctx.report.attempted += ep.steps as u64;
        eprintln!(
            "perfbench: train {} epochs, {} steps, fastest-decile epoch {:.1} ms",
            ep.secs.len(),
            ep.steps,
            best * 1e3
        );
        let (first, last) = (ep.losses[0], ep.losses[ep.losses.len() - 1]);
        ctx.report.check(last < first, || {
            format!("epoch loss did not fall: first {first}, last {last}")
        });
        check_pretrained_mrr(ctx, w);
        check_frozen_parity(ctx, w);
        check_thread_invariance(ctx, w)
    }
}

/// Parameters after a call of [`EPOCHS_PER_CALL`] epochs at the
/// workload's batch size are bitwise equal at 1 and at 2 kernel threads.
fn check_thread_invariance(ctx: &mut Ctx, w: &World) -> Result<(), String> {
    let train_ds = w.off.split.train_dataset();
    let run = |threads: usize| -> Result<Vec<Vec<u32>>, String> {
        let mut m = Mgbr::new(w.off.model.cfg.clone(), &train_ds);
        let seed = derive(ctx.seed, 999);
        let tc = train_config(seed, EPOCHS_PER_CALL, ctx.shape.train_batch, threads);
        train(&mut m, &w.off.full, &w.off.slice, &tc)
            .map_err(|e| format!("training failed: {e}"))?;
        Ok(m.store
            .iter()
            .map(|(_, _, t)| t.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect())
    };
    let one = run(1)?;
    let two = run(2)?;
    mgbr_tensor::set_threads(THREADS);
    ctx.report.check(one == two, || {
        "parameters differ between 1 and 2 kernel threads".to_string()
    });
    Ok(())
}

/// The traced leg's training epochs: `train()`'s step rebuilt from the
/// public calls, each wrapped in a span.
fn traced_epochs(
    ctx: &mut Ctx,
    model: &mut Mgbr,
    full: &Dataset,
    slice: &DataSplit,
    tc: &TrainConfig,
    ep: &mut Epochs,
) {
    let t = &mut ctx.tracer;
    let mut adam = Adam::with_lr(tc.lr);
    let mut rng = Pcg32::seed_from_u64(tc.seed);
    let tape = Tape::new();
    let cfg = model.cfg.clone();
    for epoch in 0..tc.epochs {
        let unit0 = ep.steps as u64;
        let data_seed = if epoch > 0 {
            tc.seed.wrapping_add(epoch as u64)
        } else {
            tc.seed
        };
        let (task_a, task_b, aux) = t.time("data.sample", unit0, || {
            let mut s = Sampler::new(full, data_seed);
            let a = s.task_a_instances(&slice.train, tc.n_neg);
            let b = s.task_b_instances(&slice.train, tc.n_neg);
            let mut aux = Vec::new();
            for g in &slice.train {
                for &p in &g.participants {
                    let (ci, cp) = s.aux_corruptions(g.initiator, g.item, cfg.t_size);
                    aux.push(AuxSample {
                        user: g.initiator,
                        item: g.item,
                        participant: p,
                        corrupt_items: ci,
                        corrupt_participants: cp,
                    });
                }
            }
            (a, b, aux)
        });
        let epoch_start = Instant::now();
        let a_batches: Vec<Vec<usize>> =
            BatchIter::new(task_a.len(), tc.batch_size, &mut rng).collect();
        let b_batches: Vec<Vec<usize>> =
            BatchIter::new(task_b.len(), tc.batch_size, &mut rng).collect();
        let x_batches: Vec<Vec<usize>> =
            BatchIter::new(aux.len(), tc.batch_size, &mut rng).collect();
        let n_steps = a_batches.len().max(b_batches.len());
        let mut loss_sum = 0.0f64;
        for step in 0..n_steps {
            let unit = unit0 + step as u64;
            let span = t.open("train.step", unit);
            let ba: Vec<&TaskAInstance> = a_batches[step % a_batches.len()]
                .iter()
                .map(|&j| &task_a[j])
                .collect();
            let bb: Vec<&TaskBInstance> = b_batches[step % b_batches.len()]
                .iter()
                .map(|&j| &task_b[j])
                .collect();
            let bx: Vec<&AuxSample> = x_batches[step % x_batches.len()]
                .iter()
                .map(|&j| &aux[j])
                .collect();
            let sctx = StepCtx::with_tape(&tape, &model.store);
            let emb = t.time("core.multiview", unit, || model.embeddings(&sctx));
            let total = t.time("core.loss_fwd", unit, || {
                let mean_p = emb.participants.mean_rows();
                let mut total = task_a_loss(model, &sctx, &emb, &mean_p, &ba);
                total = total.add(&task_b_loss(model, &sctx, &emb, &bb).scale(cfg.beta));
                total = total.add(&aux_a_loss(model, &sctx, &emb, &bx).scale(cfg.beta_a));
                total = total.add(&aux_b_loss(model, &sctx, &emb, &bx).scale(cfg.beta_b));
                total
            });
            let loss = total.value().scalar();
            loss_sum += f64::from(loss);
            let mut grads = t.time("autograd.backward", unit, || sctx.backward(&total));
            if let Some(clip) = tc.grad_clip {
                t.time("nn.optim", unit, || grads.clip_global_norm(clip));
            }
            t.time("core.watchdog", unit, || {
                model
                    .store
                    .iter()
                    .filter_map(|(id, _, _)| grads.get(id))
                    .any(|g| g.first_non_finite().is_some())
            });
            drop(sctx);
            t.time("nn.optim", unit, || adam.step(&mut model.store, &grads));
            t.time("core.watchdog", unit, || {
                model
                    .store
                    .iter()
                    .any(|(_, _, p)| p.first_non_finite().is_some())
            });
            t.close(span);
        }
        ep.secs.push(epoch_start.elapsed().as_secs_f64());
        ep.losses.push((loss_sum / n_steps as f64) as f32);
        ep.steps += n_steps;
    }
}

/// Per-layer rows measured once per traced run: the step's layer self
/// times, one three-view propagation, and the trainer's GEMM shapes.
fn layer_probes(ctx: &mut Ctx, w: &World) {
    let t = &ctx.tracer;
    let per_step = |name: &str| fastest_decile(&t.self_ns_per_unit(name)).unwrap_or(0.0) / 1e6;
    let rows: [(&'static str, &str); 5] = [
        ("core.multiview_ms", "core.multiview"),
        ("core.loss_fwd_ms", "core.loss_fwd"),
        ("core.watchdog_ms", "core.watchdog"),
        ("autograd.backward_ms", "autograd.backward"),
        ("nn.optim_ms", "nn.optim"),
    ];
    let values: Vec<(&'static str, f64)> = rows.iter().map(|(m, s)| (*m, per_step(s))).collect();
    for (m, v) in values {
        ctx.report.metric(m, v, "ms");
    }

    // One propagation over the three views at the GCN width d.
    let ds = w.off.split.train_dataset();
    let views = GraphViews::build(
        ds.n_users,
        ds.n_items,
        &ds.ui_edges(),
        &ds.pi_edges(),
        &ds.up_edges(),
    );
    let d = w.off.model.cfg.d;
    let mut rng = Pcg32::seed_from_u64(derive(ctx.seed, 200));
    let x_bip = rng.normal_tensor(views.n_bipartite(), d, 0.0, 1.0);
    let x_u = rng.normal_tensor(views.n_users, d, 0.0, 1.0);
    let mut samples = Vec::new();
    for _ in 0..40 {
        let t0 = Instant::now();
        let outs = [
            spmm(&views.a_ui, &x_bip),
            spmm(&views.a_pi, &x_bip),
            spmm(&views.a_up, &x_u),
        ];
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(outs);
    }
    ctx.report.metric(
        "graph.spmm_us",
        fastest_decile(&samples).unwrap_or(0.0),
        "us",
    );

    // The MTL expert-bank GEMM of a Task-A step (batch × (1+9)
    // candidate rows, 6d = 96 inputs, K·d = 96 outputs) and its two
    // backward forms.
    let (m, k, n) = (ctx.shape.train_batch * 10, 6 * d, 6 * d);
    let a = rng.normal_tensor(m, k, 0.0, 1.0);
    let b = rng.normal_tensor(k, n, 0.0, 1.0);
    let bt = rng.normal_tensor(n, k, 0.0, 1.0);
    let dy = rng.normal_tensor(m, n, 0.0, 1.0);
    let flops = 2.0 * (m * k * n) as f64;
    let gflops = |f: &dyn Fn() -> Tensor| {
        let mut s = Vec::new();
        for _ in 0..60 {
            let t0 = Instant::now();
            std::hint::black_box(f());
            s.push(t0.elapsed().as_secs_f64());
        }
        flops / fastest_decile(&s).unwrap_or(f64::INFINITY) / 1e9
    };
    let g_nn = gflops(&|| matmul(&a, &b));
    let g_nt = gflops(&|| matmul_nt(&a, &bt));
    let g_tn = gflops(&|| matmul_tn(&a, &dy));
    ctx.report.metric("tensor.matmul_gflops", g_nn, "GFLOP/s");
    ctx.report
        .metric("tensor.matmul_nt_gflops", g_nt, "GFLOP/s");
    ctx.report
        .metric("tensor.matmul_tn_gflops", g_tn, "GFLOP/s");
    let (fma, stream) = peak_probes();
    eprintln!(
        "perfbench: reference peaks: multiply-add {fma:.2} GFLOP/s, stream copy {stream:.2} GB/s; \
         GEMM {g_nn:.2}/{g_nt:.2}/{g_tn:.2} GFLOP/s = {:.0}%/{:.0}%/{:.0}% of that peak",
        100.0 * g_nn / fma,
        100.0 * g_nt / fma,
        100.0 * g_tn / fma
    );
}

/// Reference peaks for the GEMM rows: a fixed multiply-add loop over 64
/// independent lanes (what the compiler vectorizes for this target) and
/// a 32 MiB streaming copy, both single-core.
fn peak_probes() -> (f64, f64) {
    const LANES: usize = 64;
    let iters = 200_000u64;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut acc = [1.0f32; LANES];
        let (m, c) = (
            std::hint::black_box(0.999_999f32),
            std::hint::black_box(1e-7f32),
        );
        let t0 = Instant::now();
        for _ in 0..iters {
            for a in &mut acc {
                *a = *a * m + c;
            }
        }
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(acc);
    }
    let fma_gflops = 2.0 * (LANES as u64 * iters) as f64 / best / 1e9;
    let n = 8 << 20;
    let src = vec![1.0f32; n];
    let mut dst = vec![0.0f32; n];
    let mut best_copy = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        best_copy = best_copy.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&dst);
    }
    (fma_gflops, 2.0 * 4.0 * n as f64 / best_copy / 1e9)
}

/// One evaluation pass: the Task-A and Task-B candidate lists ranked
/// through the training-path scorer. Returns the number of lists ranked.
fn eval_pass(ctx: &mut Ctx, model: &Mgbr, w: &crate::world::Offline, pass: u64) -> usize {
    let lists = w.eval_a.len() + w.eval_b.len();
    if !ctx.traced {
        let scorer = model.scorer();
        std::hint::black_box((
            evaluate_task_a(&scorer, &w.eval_a, EVAL_CUTOFF),
            evaluate_task_b(&scorer, &w.eval_b, EVAL_CUTOFF),
        ));
        return lists;
    }
    let t = &mut ctx.tracer;
    let span = t.open("eval.pass", pass);
    let scorer = t.time("core.scorer", pass, || model.scorer());
    let mut cands: Vec<u32> = Vec::new();
    let mut acc = MetricAccumulator::new(EVAL_CUTOFF);
    for inst in &w.eval_a {
        cands.clear();
        cands.push(inst.pos_item);
        cands.extend_from_slice(&inst.neg_items);
        let scores = t.time("core.score", pass, || scorer.score_items(inst.user, &cands));
        t.time("eval.rank", pass, || acc.add_scores(&scores));
    }
    std::hint::black_box(acc.finish());
    let mut acc = MetricAccumulator::new(EVAL_CUTOFF);
    for inst in &w.eval_b {
        cands.clear();
        cands.push(inst.pos_participant);
        cands.extend_from_slice(&inst.neg_participants);
        let scores = t.time("core.score", pass, || {
            scorer.score_participants(inst.user, inst.item, &cands)
        });
        t.time("eval.rank", pass, || acc.add_scores(&scores));
    }
    std::hint::black_box(acc.finish());
    t.close(span);
    lists
}

/// Ranking evaluation, accumulated over rounds.
#[derive(Default)]
pub struct Evaluation {
    secs: Vec<f64>,
    lists: usize,
    left: f64,
}

impl Evaluation {
    /// Evaluation passes for the round's `budget` (see [`run_units`]).
    pub fn round(&mut self, ctx: &mut Ctx, w: &World, budget: Duration) -> Result<(), String> {
        run_units(&mut self.left, budget, || {
            let t0 = Instant::now();
            self.lists = eval_pass(ctx, &w.off.model, &w.off, self.secs.len() as u64);
            self.secs.push(t0.elapsed().as_secs_f64());
            ctx.report.attempted += self.lists as u64;
            Ok(())
        })
    }

    pub fn finish(self, ctx: &mut Ctx) -> Result<(), String> {
        let best = fastest_decile(&self.secs).ok_or("no evaluation passes")?;
        if ctx.traced {
            let t = &ctx.tracer;
            let rank_us = fastest_decile(&t.self_ns_per_unit("eval.rank")).unwrap_or(0.0) / 1e3;
            let pass_ms = fastest_decile(&t.total_ns("eval.pass")).unwrap_or(0.0) / 1e6;
            ctx.report.metric("eval.rank_us", rank_us, "us");
            ctx.report.metric("eval.pass_ms", pass_ms, "ms");
        } else {
            ctx.report.metric(
                "eval_rankings_per_s",
                self.lists as f64 / best,
                "rankings/s",
            );
        }
        eprintln!(
            "perfbench: eval {} passes of {} lists, fastest-decile pass {:.1} ms",
            self.secs.len(),
            self.lists,
            best * 1e3
        );
        Ok(())
    }
}

/// MRR@10 on a candidate list, from raw logits, ties counted against
/// the positive (`scores[0]`).
fn mrr10(scores: &[f32]) -> f64 {
    let rank = 1 + scores[1..].iter().filter(|&&s| s >= scores[0]).count();
    if rank <= 10 {
        1.0 / rank as f64
    } else {
        0.0
    }
}

/// The served artifact, frozen from the pre-trained model (a fixed
/// number of steps, see [`pretrain`]), beats random ranking on the 1:9
/// lists of the whole test split for both tasks, MRR@10 recomputed here
/// from its raw logits.
fn check_pretrained_mrr(ctx: &mut Ctx, w: &World) {
    let art = &w.srv.artifact;
    let ws = Workspace::new();
    let mut sampler = Sampler::new(&w.off.full, derive(ctx.seed, 300));
    let a10 = sampler.task_a_instances(&w.off.split.test, 9);
    let b10 = sampler.task_b_instances(&w.off.split.test, 9);
    let mut mrr_a = 0.0;
    for inst in &a10 {
        let items: Vec<usize> = std::iter::once(inst.pos_item)
            .chain(inst.neg_items.iter().copied())
            .map(|i| i as usize)
            .collect();
        mrr_a += mrr10(&art.logits_a(&ws, inst.user as usize, &items));
    }
    let mut mrr_b = 0.0;
    for inst in &b10 {
        let ps: Vec<usize> = std::iter::once(inst.pos_participant)
            .chain(inst.neg_participants.iter().copied())
            .map(|p| p as usize)
            .collect();
        mrr_b += mrr10(&art.logits_b(&ws, inst.user as usize, inst.item as usize, &ps));
    }
    let (mrr_a, mrr_b) = (mrr_a / a10.len() as f64, mrr_b / b10.len() as f64);
    eprintln!(
        "perfbench: pre-trained test MRR@10 task A {mrr_a:.4}, task B {mrr_b:.4} (random {RANDOM_MRR10:.4})"
    );
    ctx.report.check(mrr_a > RANDOM_MRR10, || {
        format!("task A MRR@10 {mrr_a:.4} does not beat random")
    });
    ctx.report.check(mrr_b > RANDOM_MRR10, || {
        format!("task B MRR@10 {mrr_b:.4} does not beat random")
    });
}

/// The model the train phase ended on, frozen, scores bitwise like its
/// training-path scorer on sampled candidate lists.
fn check_frozen_parity(ctx: &mut Ctx, w: &World) {
    let model = &w.off.model;
    let scorer = model.scorer();
    let mut sampler = Sampler::new(&w.off.full, derive(ctx.seed, 301));
    let a10 = sampler.task_a_instances(&w.off.split.test, 9);
    let b10 = sampler.task_b_instances(&w.off.split.test, 9);
    let frozen: FrozenModel = model.freeze();
    let ws = Workspace::new();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut same = true;
    for inst in a10.iter().take(32) {
        let items: Vec<usize> = std::iter::once(inst.pos_item)
            .chain(inst.neg_items.iter().copied())
            .map(|i| i as usize)
            .collect();
        let ids: Vec<u32> = items.iter().map(|&i| i as u32).collect();
        same &= bits(&frozen.logits_a(&ws, inst.user as usize, &items))
            == bits(&scorer.score_items(inst.user, &ids));
    }
    for inst in b10.iter().take(32) {
        let ps: Vec<usize> = std::iter::once(inst.pos_participant)
            .chain(inst.neg_participants.iter().copied())
            .map(|p| p as usize)
            .collect();
        let ids: Vec<u32> = ps.iter().map(|&p| p as u32).collect();
        same &= bits(&frozen.logits_b(&ws, inst.user as usize, inst.item as usize, &ps))
            == bits(&scorer.score_participants(inst.user, inst.item, &ids));
    }
    ctx.report.check(same, || {
        "frozen artifact logits differ from the training-path scorer".to_string()
    });
}
