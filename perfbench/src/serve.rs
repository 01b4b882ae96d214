//! Serving through the one-worker pool, and top-K retrieval.
//!
//! Units: windows of requests (closed loop: the workload's fixed number
//! in flight; open loop: the workload's fixed offered rate, each latency
//! timed from the request's due time), and batches of top-K queries at
//! the workload's probe width. One thread submits, one collects.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mgbr_core::FrozenModel;
use mgbr_plan::{Bindings, Executor, Plan, ShapeEnv, TensorBackend};
use mgbr_serve::{recall_at_k, ScoreHandle, Scorer, ServeError, WorkerPool};
use mgbr_tensor::{Tensor, Workspace};

use crate::stats::{fastest_decile, median, quantile};
use crate::world::{pool_config, Req, World, INDEX_CLUSTERS, NPROBE, TOP_K, TRACE_SAMPLE};
use crate::{run_units, Ctx, Workload};

/// Requests per closed-loop window.
const CLOSED_WINDOW: usize = 2048;
/// Seconds of offered load per open-loop window.
const OPEN_WINDOW_S: f64 = 0.1;
/// Users queried: a top-K unit is one query for each of them, so every
/// unit does the same work.
const TOPK_USERS: usize = 64;
/// Minimum windows per round of each loop.
const MIN_WINDOWS: usize = 2;

pub fn submit(pool: &WorkerPool, r: Req) -> Result<ScoreHandle, ServeError> {
    match r {
        Req::A(u, i) => pool.submit_item(u, i),
        Req::B(u, i, p) => pool.submit_participant(u, i, p),
    }
}

/// Sleeps or yields until `due`.
pub fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let rem = due - now;
        if rem > Duration::from_micros(300) {
            std::thread::sleep(rem - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// What the collector checks on each reply.
pub trait Verify: Sync {
    /// `k` is the request's position in the stream, `gen0` the pool
    /// generation when it was submitted. Returns false on a wrong reply.
    fn reply(&self, k: usize, gen0: u64, gen: u64, score: f32) -> bool;
}

/// Replies must equal the precomputed direct score of request `k`.
pub struct Expected<'a>(pub &'a [u32]);

impl Verify for Expected<'_> {
    fn reply(&self, k: usize, _gen0: u64, _gen: u64, score: f32) -> bool {
        self.0[k % self.0.len()] == score.to_bits()
    }
}

/// Outcome of one open-loop stream.
#[derive(Default)]
pub struct OpenStats {
    pub window_p50_us: Vec<f64>,
    pub window_admit_us: Vec<f64>,
    pub latencies_us: Vec<f64>,
    pub lateness_us: Vec<f64>,
    pub submitted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// Runs an open loop at `rate` until `stop` is set and `min_windows`
/// whole windows are done, on two threads of its own.
pub fn open_loop(
    pool: &WorkerPool,
    mix: &[Req],
    rate: f64,
    window: usize,
    min_windows: usize,
    stop: &AtomicBool,
    verify: &dyn Verify,
) -> OpenStats {
    let (tx, rx) = mpsc::channel::<(usize, Instant, u64, ScoreHandle)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut st = OpenStats::default();
            let mut win = Vec::with_capacity(window);
            for (k, due, gen0, h) in rx {
                let reply = h.wait_reply();
                let lat = due.elapsed().as_secs_f64() * 1e6;
                match reply.result {
                    Ok(score) => {
                        if !verify.reply(k, gen0, reply.generation, score) {
                            st.wrong += 1;
                        }
                    }
                    Err(_) => st.failed += 1,
                }
                st.latencies_us.push(lat);
                win.push(lat);
                if win.len() == window {
                    st.window_p50_us.push(median(&win).unwrap_or(0.0));
                    win.clear();
                }
            }
            st
        });
        let period = Duration::from_secs_f64(1.0 / rate);
        let t0 = Instant::now();
        let mut lateness = Vec::new();
        let mut admits = Vec::with_capacity(window);
        let mut window_admit = Vec::new();
        let mut failed = 0u64;
        let mut k = 0usize;
        loop {
            if k.is_multiple_of(window) && k / window >= min_windows && stop.load(Ordering::Relaxed)
            {
                break;
            }
            let due = t0 + period * k as u32;
            pace(due);
            lateness.push(due.elapsed().as_secs_f64() * 1e6);
            let gen0 = pool.generation();
            let ta = Instant::now();
            let h = submit(pool, mix[k % mix.len()]);
            admits.push(ta.elapsed().as_secs_f64() * 1e6);
            if admits.len() == window {
                window_admit.push(median(&admits).unwrap_or(0.0));
                admits.clear();
            }
            match h {
                Ok(h) => {
                    let _ = tx.send((k, due, gen0, h));
                }
                Err(_) => failed += 1,
            }
            k += 1;
        }
        drop(tx);
        let mut st = collector.join().expect("collector thread panicked");
        st.window_admit_us = window_admit;
        st.lateness_us = lateness;
        st.submitted = k as u64;
        st.failed += failed;
        st
    })
}

/// Closed loop with `inflight` requests in flight: returns per-window
/// seconds, requests, failed, wrong.
fn closed_loop(
    pool: &WorkerPool,
    mix: &[Req],
    expected: &[u32],
    inflight: usize,
    budget: Duration,
) -> (Vec<f64>, u64, u64, u64) {
    let (tx, rx) = mpsc::channel::<(usize, ScoreHandle)>();
    let (tok_tx, tok_rx) = mpsc::channel::<()>();
    for _ in 0..inflight {
        let _ = tok_tx.send(());
    }
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut windows = Vec::new();
            let mut mark = Instant::now();
            let (mut n, mut failed, mut wrong) = (0usize, 0u64, 0u64);
            for (k, h) in rx {
                match h.wait() {
                    Ok(score) if expected[k % expected.len()] == score.to_bits() => {}
                    Ok(_) => wrong += 1,
                    Err(_) => failed += 1,
                }
                n += 1;
                if n % CLOSED_WINDOW == 0 {
                    let now = Instant::now();
                    windows.push((now - mark).as_secs_f64());
                    mark = now;
                }
                let _ = tok_tx.send(());
            }
            (windows, failed, wrong)
        });
        let start = Instant::now();
        let mut k = 0usize;
        let mut shed = 0u64;
        loop {
            if k.is_multiple_of(CLOSED_WINDOW)
                && k / CLOSED_WINDOW > MIN_WINDOWS
                && start.elapsed() >= budget
            {
                break;
            }
            if tok_rx.recv().is_err() {
                break;
            }
            match submit(pool, mix[k % mix.len()]) {
                Ok(h) => {
                    let _ = tx.send((k, h));
                }
                Err(_) => shed += 1,
            }
            k += 1;
        }
        drop(tx);
        let (mut windows, failed, wrong) = collector.join().expect("collector thread panicked");
        // The first window includes the pipeline's ramp-up.
        if !windows.is_empty() {
            windows.remove(0);
        }
        (windows, k as u64, failed + shed, wrong)
    })
}

/// Requests answered and batches run by the pool so far.
fn counters(pool: &WorkerPool) -> (u64, u64) {
    let m = pool.metrics();
    (m.requests, m.batches)
}

/// A direct `Scorer` call on a batch of `b` requests of the mix, timed
/// (µs, fastest decile), half Task A and half Task B as in the mix.
fn score_batch_us(artifact: &Arc<FrozenModel>, mix: &[Req], b: usize) -> f64 {
    let scorer = Scorer::new(Arc::clone(artifact));
    let pairs: Vec<(usize, usize)> = mix
        .iter()
        .filter_map(|r| {
            if let Req::A(u, i) = *r {
                Some((u, i))
            } else {
                None
            }
        })
        .take(b)
        .collect();
    let triples: Vec<(usize, usize, usize)> = mix
        .iter()
        .filter_map(|r| {
            if let Req::B(u, i, p) = *r {
                Some((u, i, p))
            } else {
                None
            }
        })
        .take(b)
        .collect();
    let mut a = Vec::new();
    let mut bb = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        std::hint::black_box(scorer.score_item_batch(&pairs).ok());
        a.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        std::hint::black_box(scorer.score_participant_batch(&triples).ok());
        bb.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    0.5 * (fastest_decile(&a).unwrap_or(0.0) + fastest_decile(&bb).unwrap_or(0.0))
}

/// Serving through the pool and top-K retrieval, accumulated over
/// rounds.
pub struct ServeRuns {
    inflight: usize,
    rate: f64,
    open_window: usize,
    nprobe: usize,
    expected: Vec<u32>,
    users: Vec<usize>,
    closed_windows: Vec<f64>,
    closed_sent: u64,
    closed_failed: u64,
    wrong: u64,
    closed_batches: (u64, u64),
    open: OpenStats,
    open_batches: (u64, u64),
    topk_units: Vec<f64>,
    topk_failed: u64,
    topk_left: f64,
}

fn add(a: (u64, u64), before: (u64, u64), after: (u64, u64)) -> (u64, u64) {
    (a.0 + after.0 - before.0, a.1 + after.1 - before.1)
}

impl ServeRuns {
    /// Precomputes every request's direct score and checks the index.
    pub fn new(ctx: &mut Ctx, w: &World) -> Self {
        let srv = &w.srv;
        let ws = Workspace::new();
        let expected = srv
            .mix
            .iter()
            .map(|r| r.direct(&srv.artifact, &ws).to_bits())
            .collect();
        let users: Vec<usize> = {
            let mut seen = std::collections::BTreeSet::new();
            srv.mix
                .iter()
                .map(Req::user)
                .filter(|u| seen.insert(*u))
                .take(TOPK_USERS)
                .collect()
        };
        check_index(ctx, w, &users, &ws);
        eprintln!(
            "perfbench: index cluster sizes {:?}, {:.1} items reranked per query at nprobe {NPROBE}",
            srv.index.cluster_sizes(),
            pruned_candidates(w, &users, &ws)
        );
        Self {
            inflight: ctx.shape.inflight,
            rate: ctx.shape.rate,
            open_window: open_window(ctx.shape.rate),
            nprobe: ctx.shape.nprobe,
            expected,
            users,
            closed_windows: Vec::new(),
            closed_sent: 0,
            closed_failed: 0,
            wrong: 0,
            closed_batches: (0, 0),
            open: OpenStats::default(),
            open_batches: (0, 0),
            topk_units: Vec::new(),
            topk_failed: 0,
            topk_left: 0.0,
        }
    }

    /// One round of closed loop, open loop and top-K queries.
    pub fn round(&mut self, w: &World, budgets: [Duration; 3]) -> Result<(), String> {
        let srv = &w.srv;
        let before = counters(&srv.pool);
        let (windows, sent, failed, wrong) =
            closed_loop(&srv.pool, &srv.mix, &self.expected, self.inflight, budgets[0]);
        self.closed_batches = add(self.closed_batches, before, counters(&srv.pool));
        self.closed_windows.extend(windows);
        self.closed_sent += sent;
        self.closed_failed += failed;
        self.wrong += wrong;

        let before = counters(&srv.pool);
        let stop = AtomicBool::new(false);
        let open = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(budgets[1]);
                stop.store(true, Ordering::Relaxed);
            });
            open_loop(
                &srv.pool,
                &srv.mix,
                self.rate,
                self.open_window,
                MIN_WINDOWS,
                &stop,
                &Expected(&self.expected),
            )
        });
        self.open_batches = add(self.open_batches, before, counters(&srv.pool));
        self.open.merge(open);

        run_units(&mut self.topk_left, budgets[2], || {
            let t0 = Instant::now();
            for &u in &self.users {
                if std::hint::black_box(srv.index.top_items(u, TOP_K, self.nprobe)).is_err() {
                    self.topk_failed += 1;
                }
            }
            self.topk_units.push(t0.elapsed().as_secs_f64());
            Ok(())
        })
    }

    pub fn finish(self, ctx: &mut Ctx, w: &World) -> Result<(), String> {
        let srv = &w.srv;
        let closed_batch = self.closed_batches.0 as f64 / self.closed_batches.1.max(1) as f64;
        let open_batch = self.open_batches.0 as f64 / self.open_batches.1.max(1) as f64;
        let best = fastest_decile(&self.closed_windows).ok_or("no closed-loop windows")?;
        let p50 = fastest_decile(&self.open.window_p50_us).ok_or("no open-loop windows")?;
        let topk_best = fastest_decile(&self.topk_units).ok_or("no top-K units")?;
        let open = &self.open;
        eprintln!(
            "perfbench: closed loop {} windows, {:.0} requests/s, mean batch {closed_batch:.1}; \
             open loop {} windows at {} requests/s, p50 {p50:.1} us, p99 {:.0} us over {} requests, \
             generator lateness p99 {:.0} us, mean batch {open_batch:.2}; top-K {} units, {:.0} queries/s",
            self.closed_windows.len(),
            CLOSED_WINDOW as f64 / best,
            open.window_p50_us.len(),
            self.rate,
            quantile(&open.latencies_us, 0.99).unwrap_or(0.0),
            open.latencies_us.len(),
            quantile(&open.lateness_us, 0.99).unwrap_or(0.0),
            self.topk_units.len(),
            self.users.len() as f64 / topk_best,
        );

        let m = srv.pool.metrics();
        let pool_failed = m.shed + m.deadline_expired;
        let failed = self.closed_failed + open.failed + self.topk_failed;
        ctx.report.failed += failed;
        ctx.report.check(failed == 0 && pool_failed == 0, || {
            format!("serving failures: {failed} replies, pool shed+expired {pool_failed}")
        });
        ctx.report.check(self.wrong + open.wrong == 0, || {
            format!(
                "{} pool replies differ from the request scored alone",
                self.wrong + open.wrong
            )
        });
        let queries = (self.topk_units.len() * self.users.len()) as u64;
        ctx.report.attempted += self.closed_sent + open.submitted + queries;

        if ctx.traced {
            let admit = fastest_decile(&open.window_admit_us).unwrap_or(0.0);
            let b_closed = closed_batch.round().max(1.0) as usize;
            let closed_score = score_batch_us(&srv.artifact, &srv.mix, b_closed);
            let open_score = score_batch_us(
                &srv.artifact,
                &srv.mix,
                open_batch.round().max(1.0) as usize,
            );
            ctx.report.metric("serve.admit_us", admit, "us");
            ctx.report
                .metric("serve.mean_batch", closed_batch, "requests");
            ctx.report
                .metric("serve.score_batch_us", closed_score, "us");
            ctx.report
                .metric("serve.open_mean_batch", open_batch, "requests");
            ctx.report.metric("serve.wait_us", p50 - open_score, "us");
            ctx.report
                .metric("serve.failed", (failed + pool_failed) as f64, "count");
            plan_probe(ctx, &srv.artifact, &srv.mix, b_closed);
            index_probe(ctx, w, &self.users);
            tracing_probe(ctx, w, &self.expected, self.rate)?;
            if ctx.workload == Workload::Heavy {
                rate_sweep(&srv.pool, &srv.mix, &self.expected);
            }
        } else {
            ctx.report.metric(
                "serve_requests_per_s",
                CLOSED_WINDOW as f64 / best,
                "requests/s",
            );
            ctx.report.metric(
                "topk_queries_per_s",
                self.users.len() as f64 / topk_best,
                "queries/s",
            );
            ctx.report.metric("serve_p50_us", p50, "us");
        }
        Ok(())
    }
}

impl OpenStats {
    pub fn merge(&mut self, o: OpenStats) {
        self.window_p50_us.extend(o.window_p50_us);
        self.window_admit_us.extend(o.window_admit_us);
        self.latencies_us.extend(o.latencies_us);
        self.lateness_us.extend(o.lateness_us);
        self.submitted += o.submitted;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }
}

/// Requests per open-loop window at `rate`.
fn open_window(rate: f64) -> usize {
    (rate * OPEN_WINDOW_S).round() as usize
}

/// Open-loop windows the tracing probe runs (2 s).
const TRACED_WINDOWS: usize = 20;

/// The tracing layer, measured in the traced leg only: open-loop windows
/// at the workload's rate through a second one-worker pool with
/// 1-in-[`TRACE_SAMPLE`] tail sampling, under a live `mgbr-obs` trace
/// session. Every reply must still equal the request scored alone, every
/// journal line must parse, and the journal's `serve.request` spans must
/// cover a share of requests within 5σ of the sampling rate. The journal
/// is deleted once checked.
fn tracing_probe(ctx: &mut Ctx, w: &World, expected: &[u32], rate: f64) -> Result<(), String> {
    let srv = &w.srv;
    let path = ctx.scratch.join("journal.jsonl");
    let pool = WorkerPool::new(Arc::clone(&srv.artifact), pool_config(Some(TRACE_SAMPLE)));
    let session = mgbr_obs::trace_to(&path, mgbr_obs::TraceFormat::Jsonl)
        .map_err(|e| format!("trace session: {e}"))?;
    let stop = AtomicBool::new(true);
    let st = open_loop(
        &pool,
        &srv.mix,
        rate,
        open_window(rate),
        TRACED_WINDOWS,
        &stop,
        &Expected(expected),
    );
    drop(session);

    let file = std::fs::File::open(&path).map_err(|e| format!("journal: {e}"))?;
    let bytes = file.metadata().map_err(|e| format!("journal: {e}"))?.len();
    let (mut records, mut spans, mut bad) = (0u64, 0u64, 0u64);
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("journal: {e}"))?;
        records += 1;
        match mgbr_json::Json::parse(&line) {
            Ok(j) if j.get("name").and_then(|n| n.as_str()) == Some("serve.request") => spans += 1,
            Ok(_) => {}
            Err(_) => bad += 1,
        }
    }
    std::fs::remove_file(&path).map_err(|e| format!("journal: {e}"))?;

    let n = st.submitted as f64;
    let p = 1.0 / TRACE_SAMPLE as f64;
    let sigma = (n * p * (1.0 - p)).sqrt();
    let dev = (spans as f64 - n * p).abs();
    let p50 = fastest_decile(&st.window_p50_us).ok_or("no traced windows")?;
    eprintln!(
        "perfbench: traced serving {} requests: {records} journal records, {bytes} bytes, \
         {spans} serve.request spans, fastest-decile window p50 {p50:.1} us",
        st.submitted
    );
    ctx.report.attempted += st.submitted;
    ctx.report.failed += st.failed;
    let (failed, wrong) = (st.failed, st.wrong);
    ctx.report.check(failed == 0 && wrong == 0, || {
        format!("traced serving: {failed} failed, {wrong} differ from the request scored alone")
    });
    ctx.report
        .check(bad == 0, || format!("{bad} journal lines do not parse"));
    ctx.report.check(dev <= 5.0 * sigma + 1.0, || {
        format!("{spans} sampled spans for {n} requests is outside 1/{TRACE_SAMPLE} ± 5σ")
    });
    ctx.report
        .metric("obs.records_per_request", records as f64 / n, "records");
    ctx.report
        .metric("obs.bytes_per_request", bytes as f64 / n, "bytes");
    ctx.report.metric("obs.traced_p50_us", p50, "us");
    Ok(())
}

/// Reference figures for the README, printed and not reported: open-loop
/// p99 at fixed rates with its sample count, generator lateness, and
/// the highest rate whose p99 meets [`P99_LIMIT_US`]. Tail latency is
/// set by host preemption here, so it is never a gated metric.
fn rate_sweep(pool: &WorkerPool, mix: &[Req], expected: &[u32]) {
    const RATES: [f64; 5] = [5_000.0, 10_000.0, 20_000.0, 30_000.0, 40_000.0];
    const P99_LIMIT_US: f64 = 5_000.0;
    let stop = AtomicBool::new(true);
    let mut highest = None;
    for rate in RATES {
        let window = open_window(rate);
        let st = open_loop(pool, mix, rate, window, 20, &stop, &Expected(expected));
        let p99 = quantile(&st.latencies_us, 0.99).unwrap_or(f64::INFINITY);
        eprintln!(
            "perfbench: reference {rate} requests/s for 2 s: p50 {:.0} us, p99 {p99:.0} us over {} \
             requests, {} failed, {} wrong, generator lateness p99 {:.0} us",
            median(&st.latencies_us).unwrap_or(0.0),
            st.latencies_us.len(),
            st.failed,
            st.wrong,
            quantile(&st.lateness_us, 0.99).unwrap_or(0.0),
        );
        if p99 <= P99_LIMIT_US && st.failed == 0 {
            highest = Some(rate);
        }
    }
    eprintln!("perfbench: reference highest rate with p99 <= {P99_LIMIT_US} us: {highest:?}");
}

/// Full-probe top-K equals the benchmark's own descending sort of every
/// item's logit (ties to the lower id), and every pruned hit carries its
/// exact logit.
fn check_index(ctx: &mut Ctx, w: &World, users: &[usize], ws: &Workspace) {
    let srv = &w.srv;
    let all: Vec<usize> = (0..srv.artifact.n_items()).collect();
    let mut full_ok = true;
    let mut pruned_ok = true;
    for &u in users {
        let logits = srv.artifact.logits_a(ws, u, &all);
        let mut order = all.clone();
        order.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]).then(a.cmp(&b)));
        let want: Vec<(usize, u32)> = order[..TOP_K]
            .iter()
            .map(|&i| (i, logits[i].to_bits()))
            .collect();
        match srv.index.top_items(u, TOP_K, INDEX_CLUSTERS) {
            Ok(hits) => {
                let got: Vec<(usize, u32)> =
                    hits.iter().map(|h| (h.id, h.score.to_bits())).collect();
                full_ok &= got == want;
            }
            Err(_) => full_ok = false,
        }
        match srv.index.top_items(u, TOP_K, NPROBE) {
            Ok(hits) => {
                pruned_ok &= hits
                    .iter()
                    .all(|h| h.score.to_bits() == logits[h.id].to_bits())
            }
            Err(_) => pruned_ok = false,
        }
    }
    ctx.report.check(full_ok, || {
        "full-probe top-K differs from the exhaustive sort".to_string()
    });
    ctx.report.check(pruned_ok, || {
        "a pruned top-K hit does not carry its exact logit".to_string()
    });
}

/// Items a pruned query reranks, per user: the members of the [`NPROBE`]
/// clusters whose medoids score highest (ties to the lower cluster id),
/// as the index ranks them.
fn pruned_candidates(w: &World, users: &[usize], ws: &Workspace) -> f64 {
    let srv = &w.srv;
    let medoids = srv.index.medoids().to_vec();
    let sizes = srv.index.cluster_sizes();
    let mut cand = 0usize;
    for &u in users {
        let s = srv.artifact.logits_a(ws, u, &medoids);
        let mut order: Vec<usize> = (0..medoids.len()).collect();
        order.sort_by(|&a, &b| s[b].total_cmp(&s[a]).then(a.cmp(&b)));
        cand += order[..NPROBE.min(order.len())]
            .iter()
            .map(|&c| sizes[c])
            .sum::<usize>();
    }
    cand as f64 / users.len() as f64
}

/// Index rows: probe times, items reranked per query, recall@10.
fn index_probe(ctx: &mut Ctx, w: &World, users: &[usize]) {
    let srv = &w.srv;
    let time_probe = |nprobe: usize| {
        let mut s = Vec::new();
        for _ in 0..10 {
            let t0 = Instant::now();
            for &u in users {
                std::hint::black_box(srv.index.top_items(u, TOP_K, nprobe).ok());
            }
            s.push(t0.elapsed().as_secs_f64() * 1e6 / users.len() as f64);
        }
        fastest_decile(&s).unwrap_or(0.0)
    };
    let probe_us = time_probe(NPROBE);
    let full_us = time_probe(INDEX_CLUSTERS);
    let ws = Workspace::new();
    let cand = pruned_candidates(w, users, &ws);
    let mut recall = 0.0;
    for &u in users {
        if let (Ok(p), Ok(f)) = (
            srv.index.top_items(u, TOP_K, NPROBE),
            srv.index.top_items(u, TOP_K, INDEX_CLUSTERS),
        ) {
            recall += recall_at_k(&p, &f);
        }
    }
    let n = users.len() as f64;
    ctx.report.metric("serve.index_probe_us", probe_us, "us");
    ctx.report
        .metric("serve.index_full_probe_us", full_us, "us");
    ctx.report.metric("serve.index_candidates", cand, "items");
    ctx.report
        .metric("serve.index_recall_at_10", recall / n, "ratio");
}

/// The serving plans stepped op by op with `Executor::run_to` at batch
/// size `b`: per-kind time, input gather, op count, FLOPs.
fn plan_probe(ctx: &mut Ctx, artifact: &FrozenModel, mix: &[Req], b: usize) {
    let params: Vec<&Tensor> = artifact.params().iter().collect();
    let bindings = Bindings::default();
    let ws = Workspace::new();
    let mean_p = artifact.participant_embeddings().mean_rows();
    let mut kind_us: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut gather_us, mut ops, mut flops, mut plan_us) = (0.0, 0.0, 0.0, 0.0);
    for task_a in [true, false] {
        let plan: &Plan = if task_a {
            artifact.serve_plan_a()
        } else {
            artifact.serve_plan_b()
        };
        let reqs: Vec<(usize, usize, usize)> = mix
            .iter()
            .filter_map(|r| match (*r, task_a) {
                (Req::A(u, i), true) => Some((u, i, 0)),
                (Req::B(u, i, p), false) => Some((u, i, p)),
                _ => None,
            })
            .take(b)
            .collect();
        let us: Vec<usize> = reqs.iter().map(|r| r.0).collect();
        let is: Vec<usize> = reqs.iter().map(|r| r.1).collect();
        let ps: Vec<usize> = reqs.iter().map(|r| r.2).collect();
        let mut per_rep: Vec<Vec<f64>> = Vec::new();
        let mut gathers = Vec::new();
        for _ in 0..300 {
            let t0 = Instant::now();
            let e_u = artifact.user_embeddings().gather_rows(&us);
            let e_i = artifact.item_embeddings().gather_rows(&is);
            let e_p = if task_a {
                mean_p.gather_rows(&vec![0; b])
            } else {
                artifact.participant_embeddings().gather_rows(&ps)
            };
            gathers.push(t0.elapsed().as_secs_f64() * 1e6);
            let mut ex = Executor::new(
                plan,
                &[&e_u, &e_i, &e_p],
                &params,
                TensorBackend::new(&ws, &bindings),
            );
            let mut times = Vec::with_capacity(plan.ops.len());
            for i in 0..plan.ops.len() {
                let t0 = Instant::now();
                ex.run_to(i + 1);
                times.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            for out in ex.finish() {
                ws.recycle_tensor(out);
            }
            per_rep.push(times);
        }
        let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for times in &per_rep {
            let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
            for (op, t) in plan.ops.iter().zip(times) {
                *sums.entry(op.kind()).or_default() += t;
            }
            for (k, v) in sums {
                by_kind.entry(k).or_default().push(v);
            }
        }
        for (k, v) in by_kind {
            *kind_us.entry(k).or_default() += 0.5 * fastest_decile(&v).unwrap_or(0.0);
        }
        let totals: Vec<f64> = per_rep.iter().map(|t| t.iter().sum()).collect();
        plan_us += 0.5 * fastest_decile(&totals).unwrap_or(0.0);
        gather_us += 0.5 * fastest_decile(&gathers).unwrap_or(0.0);
        ops += 0.5 * plan.ops.len() as f64;
        let width = artifact.user_embeddings().cols();
        let env = ShapeEnv {
            inputs: vec![(b, width); 3],
            params: artifact
                .params()
                .iter()
                .map(|t| (t.rows(), t.cols()))
                .collect(),
            ..ShapeEnv::default()
        };
        if let Ok(shapes) = plan.infer_shapes(&env) {
            let f: u64 = plan
                .ops
                .iter()
                .map(|op| plan.op_flops(op, &shapes, &env))
                .sum();
            flops += 0.5 * f as f64;
        }
    }
    for (kind, metric) in PLAN_KINDS {
        let v = kind_us.get(kind).copied().unwrap_or(0.0);
        ctx.report.metric(metric, v, "us");
    }
    ctx.report.metric("plan.gather_us", gather_us, "us");
    ctx.report.metric("plan.ops_per_batch", ops, "ops");
    ctx.report
        .metric("plan.flops_per_request", flops / b as f64, "FLOP");
    ctx.report
        .metric("plan.gflops", flops / plan_us / 1e3, "GFLOP/s");
    for k in kind_us.keys() {
        if !PLAN_KINDS.iter().any(|(kind, _)| kind == k) {
            eprintln!("perfbench: serving plan has an unlisted op kind {k}");
        }
    }
}

/// The op kinds of the frozen serving plans (`PlanOp::kind()`) and the
/// per-layer metric each is reported as.
const PLAN_KINDS: [(&str, &str); 6] = [
    ("affine_act", "plan.affine_act_us"),
    ("gemm", "plan.gemm_us"),
    ("mix", "plan.mix_us"),
    ("concat", "plan.concat_us"),
    ("add", "plan.add_us"),
    ("scale", "plan.scale_us"),
];
