//! Multi-worker serving front-end: N batcher workers over a hot-swappable
//! `Arc<FrozenModel>`, with pluggable admission and SLO-aware shedding.
//!
//! Two admission policies (see [`Admission`]):
//!
//! * **Shared** — one bounded MPMC queue drained by every worker. Idle
//!   workers steal whatever is queued, so load balances itself; the
//!   queue bound applies to the pool as a whole.
//! * **HashPartitioned** — one bounded queue per worker; a request is
//!   routed by an FNV-1a hash of its user id, so a given user always
//!   lands on the same worker (warm per-worker workspace, no cross-
//!   worker reordering for one user). The queue bound applies per
//!   partition, and overload on one partition never blocks another.
//!
//! Either way each worker owns a private [`Scorer`] (workspace) over the
//! published frozen model, coalesces up to `max_batch` requests per
//! forward, and answers every admitted request exactly once — with a
//! score, [`ServeError::DeadlineExceeded`], or (unadmitted)
//! [`ServeError::Overloaded`]. Scores are bitwise identical to
//! single-threaded scoring — worker count, like thread count, is a pure
//! wall-clock knob.
//!
//! Resilience (ISSUE 8):
//!
//! * **Deadlines** — a per-request (or pool-default) budget rides from
//!   admission through batching; expired requests are answered typed,
//!   never scored (see `batcher.rs`).
//! * **SLO-aware shedding** — with `slo_us` set, admission consults the
//!   per-queue [`DelayTracker`] and sheds *before* the hard cap when the
//!   recent exact p99 queue delay already exceeds the SLO, returning
//!   [`ServeError::Overloaded`] with a `retry_after_hint_us` back-off.
//! * **Hot-swap** — [`WorkerPool::swap_model`] validates a candidate
//!   artifact and publishes it through the pool's [`ArtifactSlot`];
//!   workers pick it up at their next batch boundary, in-flight batches
//!   finish on the old model, and every reply carries the generation
//!   that scored it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mgbr_core::FrozenModel;

use crate::batcher::{
    lock, next_request_id, run_batch, tail_sampled, ChaosHook, Pending, Reply, ReqTrace, Request,
    WorkQueue, WorkerCtx,
};
use crate::slo::{BurnRate, DelayTracker};
use crate::swap::ArtifactSlot;
use crate::{BatcherConfig, Scorer, ServeError, ServeMetrics, SwapReceipt};

/// How submissions are routed to the pool's workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// One shared queue; every worker drains it (work-stealing-style
    /// self-balancing). `queue_cap` bounds the whole pool.
    Shared,
    /// One queue per worker, routed by FNV-1a hash of the user id.
    /// `queue_cap` bounds each partition independently.
    HashPartitioned,
}

/// Knobs for [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of scoring workers (clamped to at least 1).
    pub workers: usize,
    /// Admission policy routing submissions to workers.
    pub admission: Admission,
    /// Per-worker coalescing knobs (`queue_cap` is per queue: pool-wide
    /// under [`Admission::Shared`], per partition under
    /// [`Admission::HashPartitioned`]; `default_deadline` is stamped on
    /// every admission that has no explicit budget).
    pub batcher: BatcherConfig,
    /// Queue-delay SLO in microseconds. When set, admission sheds early
    /// — before the queue cap — whenever the recent p99 queue delay on
    /// the target queue exceeds this bound. `None` disables SLO-aware
    /// shedding (the hard cap still applies).
    pub slo_us: Option<u64>,
    /// Tail-sampling rate for per-request `serve.request` spans: sample
    /// ~1 in N healthy requests (deterministic, id-seeded). `None`
    /// disables random sampling; the always-on triggers (shed, deadline
    /// expiry, worker-death fallback, swap boundary) still trace
    /// whenever a trace session is live. Irrelevant — and free — while
    /// tracing is off. Settable via `MGBR_TRACE_SAMPLE`.
    pub trace_sample: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            admission: Admission::Shared,
            batcher: BatcherConfig::default(),
            slo_us: None,
            trace_sample: None,
        }
    }
}

/// Parses env knob `name` as a positive integer. Absent is `Ok(None)`;
/// anything present-but-malformed (non-numeric, negative, zero, empty)
/// is a typed [`ServeError::BadConfig`] — **never** a silent default, so
/// a typo'd deployment fails closed instead of serving misconfigured.
fn env_knob_u64(name: &str) -> Result<Option<u64>, ServeError> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(ServeError::BadConfig(format!(
            "{name} is not valid unicode"
        ))),
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            Ok(_) => Err(ServeError::BadConfig(format!(
                "{name} must be >= 1, got {:?}",
                v.trim()
            ))),
            Err(_) => Err(ServeError::BadConfig(format!(
                "{name} must be a positive integer, got {:?}",
                v.trim()
            ))),
        },
    }
}

impl PoolConfig {
    /// Defaults overridden by environment knobs:
    ///
    /// * `MGBR_SERVE_WORKERS` — worker count,
    /// * `MGBR_SERVE_SLO_US` — queue-delay SLO (enables early shedding),
    /// * `MGBR_SERVE_DEADLINE_US` — default per-request deadline budget,
    /// * `MGBR_TRACE_SAMPLE` — trace ~1 in N requests (tail sampler).
    ///
    /// Fails closed: a knob that is set but malformed (empty, zero,
    /// negative, non-numeric) is [`ServeError::BadConfig`], not a
    /// silently applied default.
    pub fn from_env() -> Result<Self, ServeError> {
        let mut cfg = Self::default();
        if let Some(n) = env_knob_u64("MGBR_SERVE_WORKERS")? {
            cfg.workers = n as usize;
        }
        if let Some(us) = env_knob_u64("MGBR_SERVE_SLO_US")? {
            cfg.slo_us = Some(us);
        }
        if let Some(us) = env_knob_u64("MGBR_SERVE_DEADLINE_US")? {
            cfg.batcher.default_deadline = Some(Duration::from_micros(us));
        }
        if let Some(n) = env_knob_u64("MGBR_TRACE_SAMPLE")? {
            cfg.trace_sample = Some(n);
        }
        Ok(cfg)
    }
}

/// FNV-1a over the little-endian bytes of `x` — the partition hash.
fn fnv1a(x: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An in-flight request admitted to a [`WorkerPool`]: admission was
/// non-blocking; [`ScoreHandle::wait`] blocks until the worker answers.
///
/// Dropping the handle without waiting does **not** cancel the request —
/// it is still scored (and counted) but its answer is discarded, so
/// dropping is only appropriate for fire-and-forget warmup traffic.
#[must_use = "dropping a ScoreHandle discards the reply; every admitted \
              request is still scored — call wait() or wait_reply()"]
pub struct ScoreHandle {
    rx: mpsc::Receiver<Reply>,
}

impl ScoreHandle {
    /// Blocks until the scoring worker answers (exactly once per
    /// admitted request). [`ServeError::Canceled`] only if the worker
    /// disappeared without replying.
    pub fn wait(self) -> Result<f32, ServeError> {
        self.wait_reply().result
    }

    /// Blocks for the full [`Reply`], including the model generation
    /// that produced it — the seam generation-fencing tests and swap
    /// observability need.
    pub fn wait_reply(self) -> Reply {
        self.rx.recv().unwrap_or(Reply {
            result: Err(ServeError::Canceled),
            generation: 0,
        })
    }
}

/// N micro-batching workers over one hot-swappable frozen model.
///
/// See the module docs for the admission policies and resilience
/// guarantees. The blocking [`Self::score_item`] /
/// [`Self::score_participant`] submit and wait; the non-blocking
/// [`Self::submit_item`] / [`Self::submit_participant`] admit a request
/// and return a [`ScoreHandle`] — the seam an open-loop load generator
/// needs. With `workers: 1` the pool is a single-queue micro-batcher.
pub struct WorkerPool {
    queues: Vec<Arc<WorkQueue>>,
    /// Requests shed per queue, all causes (same indexing as `queues`).
    queue_shed: Vec<Arc<AtomicU64>>,
    /// The subset of `queue_shed` decided by the SLO controller.
    queue_shed_slo: Vec<Arc<AtomicU64>>,
    /// Queue-delay trackers feeding SLO admission (same indexing);
    /// empty when the pool has no SLO.
    delays: Vec<Arc<DelayTracker>>,
    slot: Arc<ArtifactSlot>,
    swaps: AtomicU64,
    /// SLO burn-rate tracker shared by admission (sheds) and workers
    /// (batch outcomes).
    burn: Arc<BurnRate>,
    worker_metrics: Vec<Arc<Mutex<ServeMetrics>>>,
    workers: Vec<thread::JoinHandle<()>>,
    n_workers: usize,
    admission: Admission,
    queue_cap: usize,
    default_deadline: Option<Duration>,
    trace_sample: Option<u64>,
}

/// The pool's generation-aware worker loop: drains `queue` until
/// shutdown-and-empty, checking the slot's generation hint once per
/// batch (one uncontended atomic load) and rebuilding the private
/// [`Scorer`] only when a swap was published. The batch in hand then
/// scores entirely on one model snapshot — never a mix of generations.
fn pool_worker_loop(
    queue: Arc<WorkQueue>,
    slot: Arc<ArtifactSlot>,
    ctx: WorkerCtx,
    cfg: BatcherConfig,
) {
    let (model, mut generation) = slot.load();
    let mut scorer = Scorer::new(model);
    loop {
        let batch = queue.collect(cfg.max_batch, cfg.max_wait);
        if batch.is_empty() {
            // Only returned empty on shutdown with a drained queue.
            return;
        }
        // This worker's first batch on a freshly swapped generation is a
        // tail-sampler always-on trigger: swap-adjacent latency is
        // exactly what a p99-regression investigation needs traced.
        let boundary = slot.generation() != generation;
        if boundary {
            let (m, g) = slot.load();
            scorer = Scorer::new(m);
            generation = g;
        }
        run_batch(&scorer, &ctx, batch, generation, boundary);
    }
}

impl WorkerPool {
    /// Spawns `cfg.workers` scoring workers over a shared frozen model.
    pub fn new(model: Arc<FrozenModel>, cfg: PoolConfig) -> Self {
        Self::build(model, cfg, ChaosHook::default())
    }

    /// A pool with a chaos injector wired into every worker's scoring
    /// section — the entry point of the resilience test harness. Only
    /// compiled under `cfg(test)` or the `chaos` feature.
    #[cfg(any(test, feature = "chaos"))]
    pub fn new_chaotic(
        model: Arc<FrozenModel>,
        cfg: PoolConfig,
        injector: Arc<crate::chaos::ChaosInjector>,
    ) -> Self {
        Self::build(
            model,
            cfg,
            ChaosHook {
                injector: Some(injector),
            },
        )
    }

    fn build(model: Arc<FrozenModel>, cfg: PoolConfig, chaos: ChaosHook) -> Self {
        let n_workers = cfg.workers.max(1);
        let batcher = BatcherConfig {
            max_batch: cfg.batcher.max_batch.max(1),
            ..cfg.batcher
        };
        let n_queues = match cfg.admission {
            Admission::Shared => 1,
            Admission::HashPartitioned => n_workers,
        };
        let queues: Vec<Arc<WorkQueue>> = (0..n_queues)
            .map(|q| {
                Arc::new(WorkQueue::new(
                    batcher.queue_cap,
                    format!("serve.pool.q{q}.queue_depth"),
                ))
            })
            .collect();
        let queue_shed: Vec<Arc<AtomicU64>> =
            (0..n_queues).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let queue_shed_slo: Vec<Arc<AtomicU64>> =
            (0..n_queues).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let delays: Vec<Arc<DelayTracker>> = match cfg.slo_us {
            Some(slo_us) => (0..n_queues)
                .map(|_| Arc::new(DelayTracker::new(slo_us)))
                .collect(),
            None => Vec::new(),
        };
        let slot = Arc::new(ArtifactSlot::new(model));
        let burn = Arc::new(BurnRate::new());
        let mut worker_metrics = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let q = match cfg.admission {
                Admission::Shared => 0,
                Admission::HashPartitioned => w,
            };
            let queue = Arc::clone(&queues[q]);
            let metrics = Arc::new(Mutex::new(ServeMetrics::new()));
            worker_metrics.push(Arc::clone(&metrics));
            let ctx = WorkerCtx {
                metrics,
                batch_size_hist: format!("serve.pool.w{w}.batch_size"),
                requests_counter: format!("serve.pool.w{w}.requests"),
                chaos: chaos.clone(),
                delays: delays.get(q).cloned(),
                worker: w as u64,
                burn: Arc::clone(&burn),
            };
            let slot_w = Arc::clone(&slot);
            let wcfg = batcher.clone();
            workers.push(thread::spawn(move || {
                pool_worker_loop(queue, slot_w, ctx, wcfg)
            }));
        }
        Self {
            queues,
            queue_shed,
            queue_shed_slo,
            delays,
            slot,
            swaps: AtomicU64::new(0),
            burn,
            worker_metrics,
            workers,
            n_workers,
            admission: cfg.admission,
            queue_cap: batcher.queue_cap,
            default_deadline: batcher.default_deadline,
            trace_sample: cfg.trace_sample,
        }
    }

    /// Number of scoring workers.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// The admission policy this pool routes with.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// The currently published model generation (starts at
    /// [`crate::INITIAL_GENERATION`], bumps on every successful
    /// [`Self::swap_model`]).
    pub fn generation(&self) -> u64 {
        self.slot.generation()
    }

    /// The pool's artifact slot — the subscription point for
    /// generation-aware sidecars (e.g. [`crate::SyncedItemIndex`],
    /// which rebuilds or fails closed when a swap retires the model its
    /// index was built against).
    pub fn artifact_slot(&self) -> Arc<ArtifactSlot> {
        Arc::clone(&self.slot)
    }

    /// The queue index a request keyed by `user` is routed to: 0 under
    /// [`Admission::Shared`], `fnv1a(user) % workers` under
    /// [`Admission::HashPartitioned`].
    pub fn partition_of(&self, user: usize) -> usize {
        match self.admission {
            Admission::Shared => 0,
            Admission::HashPartitioned => (fnv1a(user as u64) % self.n_workers as u64) as usize,
        }
    }

    /// Validates `new` and, only if it passes, publishes it as the next
    /// generation (see [`ArtifactSlot::swap`] for the protocol). Workers
    /// pick the new model up at their next batch boundary; in-flight
    /// batches finish — and reply — on the generation they loaded, so no
    /// admitted request is dropped or mixed across generations by a
    /// swap. Rejection ([`ServeError::SwapRejected`]) leaves the old
    /// model serving untouched.
    pub fn swap_model(&self, new: Arc<FrozenModel>) -> Result<SwapReceipt, ServeError> {
        let receipt = self.slot.swap(new)?;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        if mgbr_obs::enabled() {
            mgbr_obs::metrics().counter("serve.pool.swaps").inc();
            let _ = mgbr_obs::event("serve.swap", "serve")
                .arg("old_generation", receipt.old_generation)
                .arg("new_generation", receipt.new_generation);
        }
        Ok(receipt)
    }

    /// Loads a frozen artifact from disk (CRC-checked, fail-closed) and
    /// hot-swaps it in via [`Self::swap_model`]. A corrupt or
    /// semantically invalid artifact is [`ServeError::SwapRejected`] and
    /// never becomes the published generation.
    pub fn swap_model_from_file(&self, path: &Path) -> Result<SwapReceipt, ServeError> {
        let model = FrozenModel::load_from_file(path)
            .map_err(|e| ServeError::SwapRejected(format!("artifact load failed: {e}")))?;
        self.swap_model(Arc::new(model))
    }

    /// Counts one shed and — shed being a tail-sampler always-on
    /// trigger — emits its `serve.request` span when a trace session is
    /// live. A shed request never reached a worker: its span has zero
    /// duration, `worker: -1`, and every phase at 0.
    fn shed(&self, q: usize, slo: bool, trace: Option<ReqTrace>, at: Instant) {
        self.queue_shed[q].fetch_add(1, Ordering::Relaxed);
        if slo {
            self.queue_shed_slo[q].fetch_add(1, Ordering::Relaxed);
        }
        // A shed spends error budget whether or not anyone is tracing.
        self.burn.record(1, 1);
        if mgbr_obs::enabled() {
            let reg = mgbr_obs::metrics();
            reg.counter("serve.pool.shed").inc();
            if slo {
                reg.counter("serve.pool.slo_shed").inc();
            }
            let (short, _) = self.burn.rates();
            reg.gauge("serve.slo.burn_rate")
                .set((short * 1000.0) as i64);
            if let Some(t) = trace {
                let _ = mgbr_obs::span_at("serve.request", "serve", at, 0)
                    .arg("request_id", t.id)
                    .arg("queue", t.queue)
                    .arg("worker", -1i64)
                    .arg("generation", self.slot.generation())
                    .arg("queued_us", 0u64)
                    .arg("scored_us", 0u64)
                    .arg("outcome", if slo { "shed_slo" } else { "shed" });
            }
        }
    }

    fn submit(
        &self,
        user: usize,
        req: Request,
        budget: Option<Duration>,
    ) -> Result<ScoreHandle, ServeError> {
        let q = self.partition_of(user);
        // One admission timestamp serves both the SLO check (where it
        // also retires a stale tracker window — the liveness path while
        // everything is being shed) and the enqueue stamp.
        let enqueued = Instant::now();
        // Trace context exists only while a session is live (one relaxed
        // atomic otherwise): the id is allocated here so that *whatever*
        // becomes of the request — shed below, expiry, fallback, or a
        // healthy reply — joins one storyline.
        let trace = if mgbr_obs::enabled() {
            let id = next_request_id();
            Some(ReqTrace {
                id,
                queue: q as u64,
                sampled: self.trace_sample.is_some_and(|n| tail_sampled(id, n)),
            })
        } else {
            None
        };
        // SLO-aware early shed: if the target queue's recent p99 delay
        // already blows the SLO, admitting one more request only makes
        // it later — reject now with a back-off hint instead of scoring
        // it after its usefulness expired. Checked before the hard cap.
        if let Some(hint) = self.delays.get(q).and_then(|t| t.shed_hint_us(enqueued)) {
            self.shed(q, true, trace, enqueued);
            return Err(ServeError::Overloaded {
                capacity: self.queue_cap,
                retry_after_hint_us: hint,
            });
        }
        let (reply, rx) = mpsc::channel();
        let pending = Pending {
            req,
            enqueued,
            deadline: budget
                .or(self.default_deadline)
                .and_then(|b| enqueued.checked_add(b)),
            reply,
            trace,
        };
        if let Err(e) = self.queues[q].push(pending) {
            if matches!(e, ServeError::Overloaded { .. }) {
                self.shed(q, false, trace, enqueued);
            }
            return Err(e);
        }
        Ok(ScoreHandle { rx })
    }

    /// Admits a Task A `(user, item)` request without blocking on the
    /// answer, stamped with the pool's default deadline (if any). Fails
    /// fast with [`ServeError::Overloaded`] on a full queue or an
    /// SLO-breaching backlog (the request was *not* admitted).
    pub fn submit_item(&self, user: usize, item: usize) -> Result<ScoreHandle, ServeError> {
        self.submit(user, Request::Item(user, item), None)
    }

    /// [`Self::submit_item`] with an explicit per-request deadline
    /// budget (overrides the pool default). If the request is still
    /// queued when the budget elapses it is answered
    /// [`ServeError::DeadlineExceeded`] instead of scored.
    pub fn submit_item_with_deadline(
        &self,
        user: usize,
        item: usize,
        budget: Duration,
    ) -> Result<ScoreHandle, ServeError> {
        self.submit(user, Request::Item(user, item), Some(budget))
    }

    /// Admits a Task B `(user, item, participant)` request without
    /// blocking on the answer.
    pub fn submit_participant(
        &self,
        user: usize,
        item: usize,
        participant: usize,
    ) -> Result<ScoreHandle, ServeError> {
        self.submit(user, Request::Participant(user, item, participant), None)
    }

    /// [`Self::submit_participant`] with an explicit per-request
    /// deadline budget (overrides the pool default).
    pub fn submit_participant_with_deadline(
        &self,
        user: usize,
        item: usize,
        participant: usize,
        budget: Duration,
    ) -> Result<ScoreHandle, ServeError> {
        self.submit(
            user,
            Request::Participant(user, item, participant),
            Some(budget),
        )
    }

    /// Task A logit for `(user, item)` through the pool; blocks until a
    /// worker answers.
    pub fn score_item(&self, user: usize, item: usize) -> Result<f32, ServeError> {
        self.submit_item(user, item)?.wait()
    }

    /// Task B logit for `(user, item, participant)` through the pool.
    pub fn score_participant(
        &self,
        user: usize,
        item: usize,
        participant: usize,
    ) -> Result<f32, ServeError> {
        self.submit_participant(user, item, participant)?.wait()
    }

    /// Merged pool metrics: every worker's throughput/latency folded
    /// together; `shed` / `shed_slo` summed over all queues; `swaps`,
    /// the published `generation`, and the SLO burn rates from the pool
    /// itself. `generation` reports the slot's *published* generation
    /// even if no worker has scored on it yet — worker stamps only lag
    /// it, never lead it — so the merged snapshot is consistent with
    /// [`Self::generation`] immediately after a swap.
    pub fn metrics(&self) -> ServeMetrics {
        let mut merged = ServeMetrics::new();
        for m in &self.worker_metrics {
            merged.merge(&lock(m));
        }
        merged.shed = self
            .queue_shed
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum();
        merged.shed_slo = self
            .queue_shed_slo
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum();
        merged.swaps = self.swaps.load(Ordering::Relaxed);
        merged.generation = merged.generation.max(self.slot.generation());
        let (short, long) = self.burn.rates();
        merged.burn_rate_short = short;
        merged.burn_rate_long = long;
        merged
    }

    /// Per-worker metric snapshots (same indexing as worker ids). Under
    /// [`Admission::HashPartitioned`] each entry's shed counts are its
    /// own partition's; under [`Admission::Shared`] the single queue's
    /// counts are attributed to worker 0.
    pub fn per_worker(&self) -> Vec<ServeMetrics> {
        self.worker_metrics
            .iter()
            .enumerate()
            .map(|(w, m)| {
                let mut snap = lock(m).clone();
                let q = match self.admission {
                    Admission::Shared if w == 0 => Some(0),
                    Admission::Shared => None,
                    Admission::HashPartitioned => Some(w),
                };
                snap.shed = q.map_or(0, |q| self.queue_shed[q].load(Ordering::Relaxed));
                snap.shed_slo = q.map_or(0, |q| self.queue_shed_slo[q].load(Ordering::Relaxed));
                snap
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for q in &self.queues {
            q.shutdown();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
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
    fn pool_scores_match_direct_scorer_bitwise_under_both_admissions() {
        let model = frozen();
        let direct = Scorer::new(model.clone());
        for admission in [Admission::Shared, Admission::HashPartitioned] {
            let pool = WorkerPool::new(
                Arc::clone(&model),
                PoolConfig {
                    workers: 3,
                    admission,
                    ..PoolConfig::default()
                },
            );
            for (u, i) in [(0usize, 0usize), (1, 3), (5, 7), (9, 2)] {
                assert_eq!(
                    pool.score_item(u, i).unwrap().to_bits(),
                    direct.score_item(u, i).unwrap().to_bits(),
                    "{admission:?} ({u}, {i})"
                );
            }
            assert_eq!(
                pool.score_participant(2, 1, 4).unwrap().to_bits(),
                direct.score_participant(2, 1, 4).unwrap().to_bits()
            );
            let m = pool.metrics();
            assert_eq!(m.requests, 5);
            assert_eq!(m.shed, 0);
            assert_eq!(m.generation, crate::swap::INITIAL_GENERATION);
        }
    }

    #[test]
    fn partitioned_routing_is_stable_and_in_range() {
        let pool = WorkerPool::new(
            frozen(),
            PoolConfig {
                workers: 4,
                admission: Admission::HashPartitioned,
                ..PoolConfig::default()
            },
        );
        for u in 0..64usize {
            let p = pool.partition_of(u);
            assert!(p < 4);
            assert_eq!(p, pool.partition_of(u), "routing must be deterministic");
        }
        // The hash must actually spread users (not constant).
        let hit: std::collections::HashSet<usize> =
            (0..64usize).map(|u| pool.partition_of(u)).collect();
        assert!(hit.len() > 1, "all users landed on one partition");
    }

    #[test]
    fn zero_cap_pool_sheds_everything_and_counts_it() {
        for admission in [Admission::Shared, Admission::HashPartitioned] {
            let pool = WorkerPool::new(
                frozen(),
                PoolConfig {
                    workers: 2,
                    admission,
                    batcher: BatcherConfig {
                        queue_cap: 0,
                        ..BatcherConfig::default()
                    },
                    ..PoolConfig::default()
                },
            );
            for u in 0..6usize {
                assert!(matches!(
                    pool.score_item(u, 0),
                    Err(ServeError::Overloaded { capacity: 0, .. })
                ));
            }
            let m = pool.metrics();
            assert_eq!(m.shed, 6, "{admission:?}");
            assert_eq!(m.shed_slo, 0, "cap sheds are not SLO sheds");
            let per_worker_shed: u64 = pool.per_worker().iter().map(|m| m.shed).sum();
            assert_eq!(per_worker_shed, 6, "{admission:?}");
        }
    }

    #[test]
    fn drop_with_queued_work_answers_everything() {
        let model = frozen();
        let pool = Arc::new(WorkerPool::new(
            model,
            PoolConfig {
                workers: 2,
                admission: Admission::Shared,
                batcher: BatcherConfig {
                    max_batch: 4,
                    max_wait: Duration::from_millis(1),
                    queue_cap: 1024,
                    default_deadline: None,
                },
                ..PoolConfig::default()
            },
        ));
        let mut handles = Vec::new();
        for u in 0..32usize {
            handles.push(pool.submit_item(u % 8, u % 4).unwrap());
        }
        drop(pool); // drains: every admitted request must still be answered
        for h in handles {
            assert!(h.wait().is_ok());
        }
    }

    #[test]
    fn swap_is_visible_in_generation_and_metrics() {
        let pool = WorkerPool::new(frozen(), PoolConfig::default());
        assert_eq!(pool.generation(), crate::swap::INITIAL_GENERATION);
        let receipt = pool.swap_model(frozen()).unwrap();
        assert_eq!(receipt.new_generation, crate::swap::INITIAL_GENERATION + 1);
        assert_eq!(pool.generation(), receipt.new_generation);
        let m = pool.metrics();
        assert_eq!(m.swaps, 1);
        // The merged snapshot reports the *published* generation even
        // though no worker has scored on it yet (regression: the merge
        // used to lag behind Self::generation until the next batch).
        assert_eq!(m.generation, receipt.new_generation);
        // A request scored after the swap carries the new generation.
        let reply = pool.submit_item(0, 0).unwrap().wait_reply();
        assert!(reply.result.is_ok());
        assert_eq!(reply.generation, receipt.new_generation);
    }

    /// Burn rates work with tracing off — they are a serving feature,
    /// not a tracing one: healthy traffic keeps them at 0, a shed storm
    /// drives the short window above budget, and the merged snapshot
    /// carries both.
    #[test]
    fn burn_rate_tracks_sheds_without_tracing() {
        let pool = WorkerPool::new(
            frozen(),
            PoolConfig {
                workers: 1,
                ..PoolConfig::default()
            },
        );
        for _ in 0..8 {
            let _ = pool.score_item(0, 0).unwrap();
        }
        let m = pool.metrics();
        assert_eq!(m.burn_rate_short, 0.0, "healthy traffic burns nothing");
        assert_eq!(m.burn_rate_long, 0.0);

        // A zero-cap pool sheds everything: burn explodes past budget.
        let shedding = WorkerPool::new(
            frozen(),
            PoolConfig {
                workers: 1,
                batcher: BatcherConfig {
                    queue_cap: 0,
                    ..BatcherConfig::default()
                },
                ..PoolConfig::default()
            },
        );
        for _ in 0..16 {
            assert!(shedding.score_item(0, 0).is_err());
        }
        let m = shedding.metrics();
        assert!(
            m.burn_rate_short > 1.0,
            "all-shed traffic must burn far past budget, got {}",
            m.burn_rate_short
        );
        assert!(m.burn_rate_long > 1.0);
    }

    #[test]
    fn trace_sample_knob_parses_and_fails_closed() {
        // Absent: default None. (Other MGBR_SERVE_* knobs may be absent
        // in the test environment; from_env must still succeed.)
        std::env::remove_var("MGBR_TRACE_SAMPLE");
        assert_eq!(PoolConfig::from_env().unwrap().trace_sample, None);
        std::env::set_var("MGBR_TRACE_SAMPLE", "64");
        assert_eq!(PoolConfig::from_env().unwrap().trace_sample, Some(64));
        std::env::set_var("MGBR_TRACE_SAMPLE", "0");
        assert!(matches!(
            PoolConfig::from_env(),
            Err(ServeError::BadConfig(_))
        ));
        std::env::set_var("MGBR_TRACE_SAMPLE", "every-other");
        assert!(matches!(
            PoolConfig::from_env(),
            Err(ServeError::BadConfig(_))
        ));
        std::env::remove_var("MGBR_TRACE_SAMPLE");
    }
}
