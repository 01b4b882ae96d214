//! Online learning, with a live read stream beside some replays.
//!
//! Unit: one whole replay of the stream segments (ingest → fine-tune →
//! freeze + fold-in → hot-swap per segment), each replay restarted from
//! the same base checkpoint. Every [`READ_EVERY`]-th replay runs beside a
//! light fixed-rate read stream through the pool it publishes into, so
//! writes sit beside reads and the readers' generations and scores are
//! checked; the other replays run alone and are the timed ones.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mgbr_core::{warm_start, FrozenModel, Mgbr};
use mgbr_online::{ArtifactPublisher, OnlineLoop};
use mgbr_serve::WorkerPool;
use mgbr_tensor::Workspace;

use crate::serve::{open_loop, OpenStats, Verify};
use crate::stats::{fastest_decile, quantile};
use crate::world::{OnlineSide, Req, World};
use crate::{run_units, Ctx};

/// The read stream's light rate (requests/s) and its window.
pub const READ_RATE: f64 = 2_000.0;
const READ_WINDOW: usize = 200;
const MIN_READ_WINDOWS: usize = 2;
/// Every n-th reply is re-scored under its stamped generation.
const SAMPLE_EVERY: usize = 8;
/// Every n-th replay (the first included) runs beside the read stream.
const READ_EVERY: usize = 6;

/// Checks each reply's generation against the pool and keeps a sample
/// for re-scoring once the replays are done.
struct GenCheck<'a> {
    pool: &'a WorkerPool,
    bad_gen: AtomicU64,
    sampled: Mutex<Vec<(usize, u64, u32)>>,
}

impl Verify for GenCheck<'_> {
    fn reply(&self, k: usize, gen0: u64, gen: u64, score: f32) -> bool {
        if gen < gen0 || gen > self.pool.generation() {
            self.bad_gen.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if k.is_multiple_of(SAMPLE_EVERY) {
            self.sampled
                .lock()
                .expect("sample lock poisoned")
                .push((k, gen, score.to_bits()));
        }
        true
    }
}

/// A fresh loop at the base checkpoint (what every replay restarts from).
fn fresh_loop(onl: &OnlineSide) -> Result<OnlineLoop, String> {
    let mut m = Mgbr::new(onl.mcfg.clone(), &onl.base);
    warm_start(&mut m, &onl.ckpt).map_err(|e| format!("warm start: {e}"))?;
    OnlineLoop::new(m, onl.base.clone(), onl.cfg.clone()).map_err(|e| format!("online loop: {e}"))
}

fn artifact_bytes(m: &FrozenModel) -> Result<Vec<u8>, String> {
    let mut v = Vec::new();
    m.save(&mut v).map_err(|e| format!("artifact save: {e}"))?;
    Ok(v)
}

/// Online replays and the read stream beside them, accumulated over
/// rounds.
pub struct OnlineRuns {
    /// Mean segment time of each replay run alone (the timed ones).
    mean_ms: Vec<f64>,
    /// Mean segment time of each replay run beside the read stream.
    read_mean_ms: Vec<f64>,
    segments: u64,
    gen_steps_ok: bool,
    final_bytes: Vec<Vec<u8>>,
    artifacts: BTreeMap<u64, Arc<FrozenModel>>,
    reads: OpenStats,
    bad_gen: u64,
    sampled: Vec<(usize, u64, u32)>,
    left: f64,
}

impl OnlineRuns {
    pub fn new(w: &World) -> Self {
        let (m0, g0) = w.onl_pool.artifact_slot().load();
        Self {
            mean_ms: Vec::new(),
            read_mean_ms: Vec::new(),
            segments: 0,
            gen_steps_ok: true,
            final_bytes: Vec::new(),
            artifacts: BTreeMap::from([(g0, m0)]),
            reads: OpenStats::default(),
            bad_gen: 0,
            sampled: Vec::new(),
            left: 0.0,
        }
    }

    /// Replays for the round's `budget` (see [`run_units`]).
    pub fn round(&mut self, ctx: &mut Ctx, w: &mut World, budget: Duration) -> Result<(), String> {
        let mut left = self.left;
        let done = run_units(&mut left, budget, || {
            let n = self.mean_ms.len() + self.read_mean_ms.len();
            if n.is_multiple_of(READ_EVERY) {
                let ms = self.replay_with_reads(ctx, w)?;
                self.read_mean_ms.push(ms);
            } else {
                let ms = self.replay(ctx, &mut w.onl, &w.onl_pool)?;
                self.mean_ms.push(ms);
            }
            Ok(())
        });
        self.left = left;
        done
    }

    /// One replay with the read stream running through the pool it
    /// publishes into; the stream stops at its next window boundary
    /// after the replay.
    fn replay_with_reads(&mut self, ctx: &mut Ctx, w: &mut World) -> Result<f64, String> {
        let stop = AtomicBool::new(false);
        let pool = &w.onl_pool;
        let check = GenCheck {
            pool,
            bad_gen: AtomicU64::new(0),
            sampled: Mutex::new(Vec::new()),
        };
        let onl = &mut w.onl;
        let mix = &onl.mix.clone();
        let (replayed, reads) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                open_loop(
                    pool,
                    mix,
                    READ_RATE,
                    READ_WINDOW,
                    MIN_READ_WINDOWS,
                    &stop,
                    &check,
                )
            });
            let replayed = self.replay(ctx, onl, pool);
            stop.store(true, Ordering::Relaxed);
            (replayed, reader.join().expect("read stream panicked"))
        });
        self.reads.merge(reads);
        self.bad_gen += check.bad_gen.load(Ordering::Relaxed);
        self.sampled
            .extend(check.sampled.into_inner().expect("sample lock poisoned"));
        replayed
    }

    /// One whole replay from the base checkpoint. Returns its mean
    /// segment time in milliseconds.
    fn replay(
        &mut self,
        ctx: &mut Ctx,
        onl: &mut OnlineSide,
        pool: &WorkerPool,
    ) -> Result<f64, String> {
        let mut online_loop = match onl.first_loop.take() {
            Some(d) => d,
            None => fresh_loop(onl)?,
        };
        let mut publisher = ArtifactPublisher::new(None);
        let mut total_ms = 0.0;
        for seg in &onl.segments {
            let unit = self.segments;
            let before = pool.generation();
            let t0 = Instant::now();
            let new_gen = if ctx.traced {
                let t = &mut ctx.tracer;
                let span = t.open("online.segment", unit);
                t.time("online.ingest", unit, || online_loop.ingest(seg));
                let summary = t.time("online.finetune", unit, || online_loop.update());
                let summary = summary.map_err(|e| format!("update: {e}"))?;
                ctx.report
                    .metric("online.finetune_steps", summary.steps as f64, "steps");
                let frozen = t.time("online.freeze_foldin", unit, || online_loop.frozen());
                let frozen = frozen.map_err(|e| format!("freeze: {e}"))?;
                let receipt = t.time("serve.swap", unit, || pool.swap_model(Arc::new(frozen)));
                t.close(span);
                receipt.map_err(|e| format!("swap: {e}"))?.new_generation
            } else {
                online_loop.ingest(seg);
                online_loop.update().map_err(|e| format!("update: {e}"))?;
                publisher
                    .publish(&online_loop, pool)
                    .map_err(|e| format!("publish: {e}"))?
                    .new_generation
            };
            total_ms += t0.elapsed().as_secs_f64() * 1e3;
            self.gen_steps_ok &= new_gen == before + 1;
            let (m, g) = pool.artifact_slot().load();
            self.gen_steps_ok &= g == new_gen;
            self.artifacts.insert(g, m);
            self.segments += 1;
        }
        let last = self
            .artifacts
            .values()
            .next_back()
            .expect("at least one artifact");
        self.final_bytes.push(artifact_bytes(last)?);
        if online_loop.stats().rollbacks != 0 {
            return Err("an online fine-tune rolled back".into());
        }
        Ok(total_ms / onl.segments.len() as f64)
    }

    pub fn finish(self, ctx: &mut Ctx, w: &World) -> Result<(), String> {
        let segs = w.onl.segments.len();
        let reads = &self.reads;
        let update_ms = fastest_decile(&self.mean_ms).ok_or("no online replays")?;
        let p50 = fastest_decile(&reads.window_p50_us).ok_or("no read-stream windows")?;
        let beside_reads = fastest_decile(&self.read_mean_ms).ok_or("no replays beside reads")?;
        eprintln!(
            "perfbench: online {} replays alone of {segs} segments, fastest-decile mean segment {update_ms:.1} ms; \
             {} replays beside reads, fastest-decile mean segment {beside_reads:.1} ms; \
             reads {} windows at {READ_RATE} requests/s, p50 {p50:.1} us, p99 {:.0} us over {} requests",
            self.mean_ms.len(),
            self.read_mean_ms.len(),
            reads.window_p50_us.len(),
            quantile(&reads.latencies_us, 0.99).unwrap_or(0.0),
            reads.latencies_us.len()
        );
        ctx.report.attempted += self.segments + reads.submitted;
        if ctx.traced {
            let t = &ctx.tracer;
            let fd = |name: &str, scale: f64| {
                fastest_decile(&t.self_ns_per_unit(name)).unwrap_or(0.0) / scale
            };
            let rows = [
                ("online.ingest_us", fd("online.ingest", 1e3), "us"),
                ("online.finetune_ms", fd("online.finetune", 1e6), "ms"),
                (
                    "online.freeze_foldin_ms",
                    fd("online.freeze_foldin", 1e6),
                    "ms",
                ),
                ("serve.swap_us", fd("serve.swap", 1e3), "us"),
                ("online.read_p50_us", p50, "us"),
                (
                    "online.segment_ms",
                    fastest_decile(&t.total_ns("online.segment")).unwrap_or(0.0) / 1e6,
                    "ms",
                ),
            ];
            for (name, v, unit) in rows {
                ctx.report.metric(name, v, unit);
            }
        } else {
            ctx.report.metric("update_ms", update_ms, "ms");
        }

        ctx.report.check(self.gen_steps_ok, || {
            "a publish did not raise the generation by exactly one".into()
        });
        let bad_gen = self.bad_gen;
        ctx.report.check(bad_gen == 0, || {
            format!("{bad_gen} replies carry a generation outside [submitted, latest]")
        });
        ctx.report.failed += reads.failed;
        ctx.report.check(reads.failed == 0, || {
            format!("{} read requests failed", reads.failed)
        });
        let ws = Workspace::new();
        let mix = &w.onl.mix;
        let wrong = self
            .sampled
            .iter()
            .filter(|(k, g, bits)| {
                self.artifacts
                    .get(g)
                    .is_none_or(|m| mix[k % mix.len()].direct(m, &ws).to_bits() != *bits)
            })
            .count();
        let n_sampled = self.sampled.len();
        ctx.report.check(wrong == 0, || {
            format!("{wrong} of {n_sampled} sampled replies differ from their generation's direct score")
        });
        let same = self.final_bytes.windows(2).all(|p| p[0] == p[1]);
        ctx.report
            .check(same, || "replays ended on different artifacts".into());
        let last = self
            .artifacts
            .values()
            .next_back()
            .expect("at least one artifact");
        check_fold_in(ctx, last, mix, &ws)
    }
}

/// Folding one more cold user into the published artifact leaves every
/// existing Task-A score of the sampled users and every sampled Task-B
/// score bitwise unchanged.
fn check_fold_in(
    ctx: &mut Ctx,
    art: &FrozenModel,
    mix: &[Req],
    ws: &Workspace,
) -> Result<(), String> {
    let mut grown = art.clone();
    grown
        .fold_in_user(&[0, 1, 2])
        .map_err(|e| format!("fold-in: {e}"))?;
    let items: Vec<usize> = (0..art.n_items()).collect();
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
    let mut same = grown.n_users() == art.n_users() + 1;
    for u in (0..art.n_users()).step_by(art.n_users().div_ceil(64).max(1)) {
        same &= bits(art.logits_a(ws, u, &items)) == bits(grown.logits_a(ws, u, &items));
    }
    let triples: Vec<(usize, usize, usize)> = mix
        .iter()
        .filter_map(|r| {
            if let Req::B(u, i, p) = *r {
                Some((u, i, p))
            } else {
                None
            }
        })
        .take(256)
        .collect();
    same &= bits(art.logits_b_triples(ws, &triples)) == bits(grown.logits_b_triples(ws, &triples));
    ctx.report.check(same, || {
        "folding in a cold user changed existing scores".into()
    });
    Ok(())
}
