//! Micro-batching: bounded request queues + scoring workers that
//! coalesce concurrent requests into batched forwards.
//!
//! The building blocks here ([`WorkQueue`] and [`run_batch`]) are driven
//! by the workers of [`crate::WorkerPool`], the one serving front-end
//! (a one-worker pool is the single-queue micro-batcher). The locking
//! discipline is strict:
//! **no lock is ever held while calling into the model or delivering
//! replies** — the queue lock covers only enqueue/drain, and the metrics
//! lock is taken once per batch after every reply has been sent, so
//! producers can enqueue (and shed) concurrently with scoring.
//!
//! Resilience contracts layered on top (ISSUE 8):
//!
//! * **Deadlines.** A request may carry a deadline from admission; batch
//!   assembly never waits past the earliest queued deadline, and at
//!   drain time expired requests are answered
//!   [`ServeError::DeadlineExceeded`] instead of scored. Expiry is
//!   decided against **one timestamp per batch** — the hot loop reads no
//!   clocks per request (grep-gated in `ci.sh`).
//! * **Containment.** The scoring section runs under `catch_unwind`: a
//!   worker dying mid-batch (chaos-injected or real) falls back to
//!   contained per-request scoring, so every admitted request is still
//!   answered exactly once and the worker thread survives.
//! * **Generations.** Every reply is stamped with the model generation
//!   that produced it ([`Reply::generation`]); a batch is scored
//!   entirely on one model snapshot, so replies are never mixed across
//!   hot-swap generations mid-batch.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::slo::{BurnRate, DelayTracker};
use crate::{Scorer, ServeError, ServeMetrics};

/// Per-worker batching knobs of [`crate::WorkerPool`].
/// Defaults: batch up to 64 requests, wait at most 200 µs for
/// stragglers, shed beyond 1024 queued, no default deadline.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Largest coalesced batch handed to one forward pass.
    pub max_batch: usize,
    /// How long the worker waits for more requests once it has at least
    /// one (latency ceiling added by coalescing). Capped per batch by
    /// the earliest queued request deadline.
    pub max_wait: Duration,
    /// Queue bound; submissions beyond it are shed with
    /// [`ServeError::Overloaded`] instead of blocking.
    pub queue_cap: usize,
    /// Deadline budget stamped on every admission that does not carry
    /// its own (`None` = requests never expire). Settable via
    /// `MGBR_SERVE_DEADLINE_US` through [`crate::PoolConfig::from_env`].
    pub default_deadline: Option<Duration>,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_wait: Duration::from_micros(200),
            queue_cap: 1024,
            default_deadline: None,
        }
    }
}

/// One answer to one admitted request, stamped with the model
/// generation that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The score, or the typed reason no score was produced.
    pub result: Result<f32, ServeError>,
    /// Generation of the frozen artifact published when the answering
    /// batch ran (see [`crate::WorkerPool::swap_model`]); 0 means the
    /// worker vanished before answering.
    pub generation: u64,
}

pub(crate) enum Request {
    /// Task A: `(user, item)`.
    Item(usize, usize),
    /// Task B: `(user, item, participant)`.
    Participant(usize, usize, usize),
}

/// Per-request trace context, allocated at admission **only while a
/// trace session is live** (one relaxed-atomic `enabled()` check; an
/// untraced run allocates no ids and carries `None`, so the off path is
/// bitwise identical to pre-telemetry serving). The id joins a request's
/// `serve.request` span, its histogram exemplar, and any shed/expiry
/// record into one storyline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqTrace {
    /// Process-unique request id (starts at 1; 0 is the "no exemplar"
    /// sentinel in [`mgbr_obs::GeoHistogram`]).
    pub(crate) id: u64,
    /// Queue index the request was admitted to.
    pub(crate) queue: u64,
    /// Chosen by the deterministic 1-in-N tail sampler at admission.
    /// Unsampled requests still carry their id: a request that *turns*
    /// interesting later (expiry, fallback, swap boundary) is traced
    /// regardless.
    pub(crate) sampled: bool,
}

/// The global request-id well. Only drawn from while tracing is enabled.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// The deterministic tail sampler: picks ~1 in `n` request ids via an
/// FNV-1a mix of the id with a fixed seed (id-stable: re-running a
/// request stream makes the same choices; no RNG state, no clock).
pub(crate) fn tail_sampled(id: u64, n: u64) -> bool {
    const SAMPLE_SEED: u64 = 0x6d67_6272_7472_6163; // "mgbrtrac"
    if n <= 1 {
        return true;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in (id ^ SAMPLE_SEED).to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h % n == 0
}

pub(crate) struct Pending {
    pub(crate) req: Request,
    pub(crate) enqueued: Instant,
    /// Absolute expiry; `None` never expires.
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply: mpsc::Sender<Reply>,
    /// Trace context; `None` whenever tracing is off.
    pub(crate) trace: Option<ReqTrace>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock means a worker panicked mid-batch; the queue/metric
    // data is still structurally valid, so serving continues.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-pool chaos hook threaded into each worker: a no-op unless a
/// test/`chaos`-feature injector is attached (release builds without the
/// feature compile the hook down to nothing).
#[derive(Clone, Default)]
pub(crate) struct ChaosHook {
    #[cfg(any(test, feature = "chaos"))]
    pub(crate) injector: Option<Arc<crate::chaos::ChaosInjector>>,
}

impl ChaosHook {
    /// Stall / worker-death injection at the top of a scoring section.
    #[inline]
    fn pre_score(&self) {
        #[cfg(any(test, feature = "chaos"))]
        if let Some(c) = &self.injector {
            c.pre_score();
        }
    }

    /// The deadline-expiry clock, as the (possibly chaos-jumped) wall
    /// clock would report it. Latency accounting always uses the real
    /// monotonic clock.
    #[inline]
    fn deadline_now(&self, now: Instant) -> Instant {
        #[cfg(any(test, feature = "chaos"))]
        if let Some(c) = &self.injector {
            return c.skewed(now);
        }
        now
    }
}

/// A bounded MPMC request queue with condvar wakeups. One queue feeds
/// one worker in hash-partitioned and one-worker pools; in
/// shared-admission pools several workers drain the same queue.
pub(crate) struct WorkQueue {
    state: Mutex<QueueState>,
    wake: Condvar,
    cap: usize,
    /// Observability gauge name for the queue depth (e.g.
    /// `serve.pool.q0.queue_depth`).
    depth_gauge: String,
}

impl WorkQueue {
    pub(crate) fn new(cap: usize, depth_gauge: String) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            cap,
            depth_gauge,
        }
    }

    /// Enqueues one request, failing fast with [`ServeError::Overloaded`]
    /// when the queue is at capacity and [`ServeError::ShutDown`] after
    /// shutdown. Never blocks beyond the (short) queue lock.
    pub(crate) fn push(&self, p: Pending) -> Result<(), ServeError> {
        let mut st = lock(&self.state);
        if st.shutdown {
            return Err(ServeError::ShutDown);
        }
        if st.queue.len() >= self.cap {
            return Err(ServeError::Overloaded {
                capacity: self.cap,
                retry_after_hint_us: 0,
            });
        }
        st.queue.push_back(p);
        if mgbr_obs::enabled() {
            mgbr_obs::metrics()
                .gauge(&self.depth_gauge)
                .raise_to(st.queue.len() as i64);
        }
        self.wake.notify_one();
        Ok(())
    }

    /// Blocks until at least one request is queued, then coalesces up to
    /// `max_batch` requests, waiting at most `max_wait` for stragglers —
    /// or less, if any queued request's deadline would expire first
    /// (deadline-aware assembly: holding a dying request hostage to the
    /// coalescing window would guarantee its expiry). The bound is
    /// re-derived after every wakeup, so a request *arriving during* the
    /// wait with an earlier deadline shortens it too. Returns
    /// empty only when shut down with nothing left to drain. The queue
    /// lock is released before this returns — scoring the batch never
    /// blocks producers.
    pub(crate) fn collect(&self, max_batch: usize, max_wait: Duration) -> Vec<Pending> {
        let mut st = lock(&self.state);
        while st.queue.is_empty() {
            if st.shutdown {
                return Vec::new();
            }
            st = self.wake.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        let start = Instant::now();
        let straggler_until = start.checked_add(max_wait).unwrap_or(start);
        while st.queue.len() < max_batch && !st.shutdown {
            // Re-derive the wait bound every iteration: a request that
            // arrives *during* the straggler wait may carry an earlier
            // deadline than anything queued at assembly start, and the
            // wait must shorten to it or the worker idles while the
            // newcomer expires. Cheap — the queue lock is already held.
            let mut wait_until = straggler_until;
            if let Some(d) = st.queue.iter().filter_map(|p| p.deadline).min() {
                wait_until = wait_until.min(d);
            }
            let now = Instant::now();
            if now >= wait_until {
                break;
            }
            let (guard, timeout) = self
                .wake
                .wait_timeout(st, wait_until - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.queue.len().min(max_batch);
        let batch: Vec<Pending> = st.queue.drain(..take).collect();
        if !batch.is_empty() {
            // Other workers on the same queue may still have work.
            self.wake.notify_one();
        }
        if mgbr_obs::enabled() {
            mgbr_obs::metrics()
                .gauge(&self.depth_gauge)
                .set(st.queue.len() as i64);
        }
        batch
    }

    /// Marks the queue shut down and wakes every waiting worker. Queued
    /// requests remain drainable (graceful drain-on-drop).
    pub(crate) fn shutdown(&self) {
        let mut st = lock(&self.state);
        st.shutdown = true;
        self.wake.notify_all();
    }
}

/// Everything a batching worker needs besides its queue and scorer:
/// metrics sink, the names of its own instruments (the latency histogram
/// and the deadline counter are pool-wide), the chaos hook, the SLO
/// queue-delay tracker (only when the pool has an SLO) and the burn-rate
/// sink.
pub(crate) struct WorkerCtx {
    pub(crate) metrics: Arc<Mutex<ServeMetrics>>,
    pub(crate) batch_size_hist: String,
    pub(crate) requests_counter: String,
    pub(crate) chaos: ChaosHook,
    pub(crate) delays: Option<Arc<DelayTracker>>,
    /// Worker index within its pool; stamped into `serve.request` spans.
    pub(crate) worker: u64,
    /// Pool-shared SLO burn tracker.
    pub(crate) burn: Arc<BurnRate>,
}

/// Scores one coalesced batch and answers every request in it — exactly
/// one reply per request, no lock held while scoring or replying, no
/// per-request clock reads (one timestamp decides every expiry, one
/// more stamps every latency), and panics contained so a dying scorer
/// can never swallow a batch. `boundary` marks the first batch after a
/// hot-swap (the tail sampler always traces those).
pub(crate) fn run_batch(
    scorer: &Scorer,
    ctx: &WorkerCtx,
    batch: Vec<Pending>,
    generation: u64,
    boundary: bool,
) {
    // The single batch-assembly timestamp: queue delays and deadline
    // expiry for the whole batch are decided against it (the chaos hook
    // may skew the expiry view of it, never the accounting view).
    let now = Instant::now();
    let expiry_now = ctx.chaos.deadline_now(now);
    if let Some(tracker) = &ctx.delays {
        tracker.record_batch(
            now,
            batch.iter().map(|p| {
                now.saturating_duration_since(p.enqueued)
                    .as_micros()
                    .min(u64::MAX as u128) as u64
            }),
        );
    }

    let mut pairs = Vec::new();
    let mut pair_slots = Vec::new();
    let mut triples = Vec::new();
    let mut triple_slots = Vec::new();
    let mut answers: Vec<Option<Result<f32, ServeError>>> = Vec::new();
    answers.resize_with(batch.len(), || None);
    let mut expired = 0u64;
    for (slot, p) in batch.iter().enumerate() {
        if p.deadline.is_some_and(|d| d <= expiry_now) {
            // Expired in the queue: answered, never scored.
            answers[slot] = Some(Err(ServeError::DeadlineExceeded));
            expired += 1;
            continue;
        }
        match p.req {
            Request::Item(u, i) => {
                pairs.push((u, i));
                pair_slots.push(slot);
            }
            Request::Participant(u, i, q) => {
                triples.push((u, i, q));
                triple_slots.push(slot);
            }
        }
    }

    // The scoring section is containment-wrapped: an injected (or real)
    // worker death mid-batch must not leak the batch — fall back to
    // contained per-request scoring so every request is still answered
    // and the worker thread survives to drain the next batch.
    let mut died = false;
    let contained_pair = |u: usize, i: usize| {
        catch_unwind(AssertUnwindSafe(|| scorer.score_item(u, i)))
            .unwrap_or(Err(ServeError::Canceled))
    };
    let contained_triple = |u: usize, i: usize, q: usize| {
        catch_unwind(AssertUnwindSafe(|| scorer.score_participant(u, i, q)))
            .unwrap_or(Err(ServeError::Canceled))
    };
    match catch_unwind(AssertUnwindSafe(|| {
        ctx.chaos.pre_score();
        (
            scorer.score_item_batch(&pairs),
            scorer.score_participant_batch(&triples),
        )
    })) {
        Ok((pair_res, triple_res)) => {
            match pair_res {
                Ok(scores) => {
                    for (&slot, &s) in pair_slots.iter().zip(scores.iter()) {
                        answers[slot] = Some(Ok(s));
                    }
                }
                Err(_) => {
                    // A bad id anywhere rejects the whole sub-batch; fall
                    // back to per-request scoring so only the offender
                    // pays.
                    for (&slot, &(u, i)) in pair_slots.iter().zip(pairs.iter()) {
                        answers[slot] = Some(contained_pair(u, i));
                    }
                }
            }
            match triple_res {
                Ok(scores) => {
                    for (&slot, &s) in triple_slots.iter().zip(scores.iter()) {
                        answers[slot] = Some(Ok(s));
                    }
                }
                Err(_) => {
                    for (&slot, &(u, i, q)) in triple_slots.iter().zip(triples.iter()) {
                        answers[slot] = Some(contained_triple(u, i, q));
                    }
                }
            }
        }
        Err(_) => {
            // Worker death mid-batch: the batched forward never
            // finished. Rescore every live request individually.
            died = true;
            for (&slot, &(u, i)) in pair_slots.iter().zip(pairs.iter()) {
                answers[slot] = Some(contained_pair(u, i));
            }
            for (&slot, &(u, i, q)) in triple_slots.iter().zip(triples.iter()) {
                answers[slot] = Some(contained_triple(u, i, q));
            }
        }
    }

    // Record first (short, uncontended locks — never held across the
    // model call above or the reply sends below), then deliver replies,
    // so a caller who has its answer always sees it reflected in the
    // metrics snapshot. One post-scoring timestamp stamps every latency.
    let done = Instant::now();
    let batch_len = batch.len();
    let served: Vec<u64> = batch
        .iter()
        .zip(answers.iter())
        .filter(|(_, a)| matches!(a, Some(Ok(_))))
        .map(|(p, _)| {
            done.saturating_duration_since(p.enqueued)
                .as_micros()
                .min(u64::MAX as u128) as u64
        })
        .collect();
    // Burn accounting is a serving feature, not a tracing one: it runs
    // traced or not. "Bad" = every answered request that spent error
    // budget (expired, canceled); client errors do not.
    let bad = batch
        .iter()
        .zip(answers.iter())
        .filter(|(_, a)| {
            matches!(
                a,
                None | Some(Err(ServeError::DeadlineExceeded | ServeError::Canceled))
            )
        })
        .count() as u64;
    ctx.burn.record(batch_len as u64, bad);
    if mgbr_obs::enabled() {
        let reg = mgbr_obs::metrics();
        reg.histogram(&ctx.batch_size_hist).record(batch_len as u64);
        if expired > 0 {
            reg.counter("serve.pool.deadline_exceeded").add(expired);
        }
        let requests = reg.counter(&ctx.requests_counter);
        let latency = reg.histogram("serve.pool.latency_us");
        for (p, a) in batch.iter().zip(answers.iter()) {
            if !matches!(a, Some(Ok(_))) {
                continue;
            }
            let us = done
                .saturating_duration_since(p.enqueued)
                .as_micros()
                .min(u64::MAX as u128) as u64;
            requests.inc();
            // Sampled requests leave an exemplar: the tail bucket their
            // latency landed in retains the request id, so an exported
            // p99 bucket resolves to a concrete serve.request span.
            match p.trace {
                Some(t) if t.sampled || boundary || died => latency.record_with_exemplar(us, t.id),
                _ => latency.record(us),
            }
        }
        let (short, _) = ctx.burn.rates();
        reg.gauge("serve.slo.burn_rate")
            .set((short * 1000.0) as i64);
        emit_request_spans(ctx, &batch, &answers, generation, boundary, died, now, done);
    }
    {
        let mut m = lock(&ctx.metrics);
        m.batches += 1;
        m.deadline_expired += expired;
        m.generation = m.generation.max(generation);
        for &us in &served {
            m.requests += 1;
            m.latency.record(us);
        }
    }
    for (p, ans) in batch.into_iter().zip(answers) {
        let _ = p.reply.send(Reply {
            result: ans.unwrap_or(Err(ServeError::Canceled)),
            generation,
        });
    }
}

/// Emits one `serve.request` span per traced request in a finished
/// batch. The tail sampler's always-on triggers fire here: deadline
/// expiry, fallback/cancel after a worker death, and the first batch on
/// a new generation are always traced; healthy requests only when the
/// seeded 1-in-N sampler picked them at admission. Every span carries
/// the full request storyline — id, queue, worker, generation, phase
/// timings (queued / scored / total) — reconstructed from the batch's
/// two existing timestamps, so tracing adds **no** clock reads to the
/// hot loop (grep-gated in ci.sh).
#[allow(clippy::too_many_arguments)]
fn emit_request_spans(
    ctx: &WorkerCtx,
    batch: &[Pending],
    answers: &[Option<Result<f32, ServeError>>],
    generation: u64,
    boundary: bool,
    died: bool,
    now: Instant,
    done: Instant,
) {
    let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
    for (p, ans) in batch.iter().zip(answers.iter()) {
        let Some(t) = p.trace else { continue };
        let (outcome, always) = match ans {
            Some(Ok(_)) => ("ok", died),
            Some(Err(ServeError::DeadlineExceeded)) => ("deadline_exceeded", true),
            Some(Err(ServeError::Canceled)) | None => ("fallback", true),
            Some(Err(_)) => ("error", died),
        };
        if !(always || t.sampled || boundary) {
            continue;
        }
        let queued_us = us(now.saturating_duration_since(p.enqueued));
        let total_us = us(done.saturating_duration_since(p.enqueued));
        let _ = mgbr_obs::span_at("serve.request", "serve", p.enqueued, total_us)
            .arg("request_id", t.id)
            .arg("queue", t.queue)
            .arg("worker", ctx.worker)
            .arg("generation", generation)
            .arg("batch_size", batch.len() as u64)
            .arg("queued_us", queued_us)
            .arg("scored_us", us(done.saturating_duration_since(now)))
            .arg("outcome", outcome)
            .arg("fallback", died)
            .arg("swap_boundary", boundary)
            .arg("deadline", p.deadline.is_some());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosInjector;
    use crate::{PoolConfig, WorkerPool};
    use mgbr_core::{FrozenModel, Mgbr, MgbrConfig};
    use mgbr_data::{synthetic, SyntheticConfig};
    use std::thread;

    fn frozen() -> Arc<FrozenModel> {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        Arc::new(Mgbr::new(MgbrConfig::tiny(), &ds).freeze())
    }

    /// The single-queue micro-batcher: a pool of one batching worker.
    fn one_worker(batcher: BatcherConfig) -> PoolConfig {
        PoolConfig {
            workers: 1,
            batcher,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn batched_scores_match_direct_scorer_bitwise() {
        let model = frozen();
        let direct = Scorer::new(model.clone());
        let batcher = WorkerPool::new(model, one_worker(BatcherConfig::default()));
        for (u, i) in [(0usize, 0usize), (1, 3), (5, 7)] {
            assert_eq!(
                batcher.score_item(u, i).unwrap().to_bits(),
                direct.score_item(u, i).unwrap().to_bits()
            );
        }
        assert_eq!(
            batcher.score_participant(0, 1, 2).unwrap().to_bits(),
            direct.score_participant(0, 1, 2).unwrap().to_bits()
        );
    }

    #[test]
    fn concurrent_submitters_all_get_correct_answers() {
        let model = frozen();
        let direct = Scorer::new(model.clone());
        let batcher = Arc::new(WorkerPool::new(
            model,
            one_worker(BatcherConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(2),
                queue_cap: 256,
                default_deadline: None,
            }),
        ));
        let mut handles = Vec::new();
        for t in 0..4usize {
            let b = Arc::clone(&batcher);
            handles.push(thread::spawn(move || {
                (0..16usize)
                    .map(|j| {
                        let (u, i) = (t, j % 8);
                        (u, i, b.score_item(u, i).unwrap())
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            for (u, i, got) in h.join().unwrap() {
                assert_eq!(got.to_bits(), direct.score_item(u, i).unwrap().to_bits());
            }
        }
        let m = batcher.metrics();
        assert_eq!(m.requests, 64);
        assert!(m.batches >= 1 && m.batches <= 64);
        assert_eq!(m.latency.count(), 64);
    }

    #[test]
    fn bad_ids_get_bad_request_without_poisoning_neighbors() {
        let model = frozen();
        let nu = model.n_users();
        let batcher = Arc::new(WorkerPool::new(
            model,
            one_worker(BatcherConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(5),
                queue_cap: 64,
                default_deadline: None,
            }),
        ));
        let good = {
            let b = Arc::clone(&batcher);
            thread::spawn(move || b.score_item(0, 0))
        };
        let bad = {
            let b = Arc::clone(&batcher);
            thread::spawn(move || b.score_item(nu, 0))
        };
        assert!(good.join().unwrap().is_ok());
        assert!(matches!(
            bad.join().unwrap(),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn overflow_sheds_with_typed_error() {
        // A zero-capacity queue sheds everything.
        let batcher = WorkerPool::new(
            frozen(),
            one_worker(BatcherConfig {
                queue_cap: 0,
                ..BatcherConfig::default()
            }),
        );
        assert!(matches!(
            batcher.score_item(0, 0),
            Err(ServeError::Overloaded { capacity: 0, .. })
        ));
        assert_eq!(batcher.metrics().shed, 1);
    }

    /// The tail sampler is deterministic (same id → same verdict), hits
    /// roughly 1-in-N, and degenerates to sample-everything at N = 1.
    #[test]
    fn tail_sampler_is_deterministic_and_roughly_one_in_n() {
        for id in 0..100u64 {
            assert!(tail_sampled(id, 1));
            assert_eq!(tail_sampled(id, 8), tail_sampled(id, 8));
        }
        let hits = (0..10_000u64).filter(|&id| tail_sampled(id, 8)).count();
        // Expected 1250; allow a wide band — the property is "neither
        // none nor all", not a χ² test.
        assert!((300..5000).contains(&hits), "1-in-8 sampled {hits}/10000");
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(a != 0 && b != 0, "0 is the no-exemplar sentinel");
        assert_ne!(a, b);
    }

    #[test]
    fn drop_drains_gracefully() {
        let batcher = WorkerPool::new(frozen(), one_worker(BatcherConfig::default()));
        let _ = batcher.score_item(0, 0).unwrap();
        drop(batcher); // must not hang or panic
    }

    /// A zero default deadline expires every request before scoring: the
    /// typed `DeadlineExceeded` comes back (exactly one reply), nothing
    /// is scored, and the expiry is counted.
    #[test]
    fn zero_deadline_expires_typed_not_scored() {
        let batcher = WorkerPool::new(
            frozen(),
            one_worker(BatcherConfig {
                default_deadline: Some(Duration::ZERO),
                ..BatcherConfig::default()
            }),
        );
        for _ in 0..4 {
            assert!(matches!(
                batcher.score_item(0, 0),
                Err(ServeError::DeadlineExceeded)
            ));
        }
        let m = batcher.metrics();
        assert_eq!(m.deadline_expired, 4);
        assert_eq!(m.requests, 0, "expired requests are never scored");
        assert_eq!(m.latency.count(), 0);
    }

    /// Regression: the worker must not hold the queue lock while scoring
    /// a coalesced batch. With the only worker stalled *inside* its
    /// scoring section, producers must still be able to enqueue — if the
    /// lock were held across scoring, every submission below would block
    /// until the stall ends.
    #[test]
    fn producers_enqueue_while_worker_is_scoring() {
        const STALL: Duration = Duration::from_secs(2);
        let model = frozen();
        let direct = Scorer::new(Arc::clone(&model));
        let chaos = ChaosInjector::new();
        let pool = WorkerPool::new_chaotic(
            model,
            one_worker(BatcherConfig {
                max_batch: 1, // batch 1: the stall traps exactly one request
                max_wait: Duration::from_micros(1),
                queue_cap: 16,
                default_deadline: None,
            }),
            Arc::clone(&chaos),
        );
        chaos.stall(STALL);
        let first = pool.submit_item(1, 2).expect("admit the first request");
        // Wait until the worker is provably inside the stalled section.
        let entered_by = Instant::now() + Duration::from_secs(5);
        while chaos.scoring_sections() == 0 {
            assert!(Instant::now() < entered_by, "worker never began scoring");
            thread::yield_now();
        }
        // Producers must be able to enqueue concurrently, fast.
        let t0 = Instant::now();
        let waiters: Vec<_> = (0..8usize)
            .map(|j| (j, pool.submit_item(j, j).expect("enqueue while scoring")))
            .collect();
        assert!(
            t0.elapsed() < STALL / 4,
            "enqueue blocked behind a scoring batch: the worker is \
             holding the queue lock across the model call"
        );
        // Lift the stall for every later batch.
        chaos.clear();
        assert_eq!(
            first.wait().unwrap().to_bits(),
            direct.score_item(1, 2).unwrap().to_bits()
        );
        for (j, h) in waiters {
            assert_eq!(
                h.wait().expect("queued request scored").to_bits(),
                direct.score_item(j, j).unwrap().to_bits()
            );
        }
    }
}
