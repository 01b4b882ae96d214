//! Observability harness: proves the flight recorder's two guarantees
//! and writes `results/BENCH_obs.json`.
//!
//! 1. **Zero overhead when off** — trains with tracing disabled (best of
//!    three runs) and compares steps/sec against the engine baseline in
//!    `results/BENCH_engine.json`, when that baseline was measured at the
//!    same scale and thread count (target: within 1%).
//! 2. **Read-only when on** — repeats the identical run with the flight
//!    recorder enabled and demands bitwise-identical losses and final
//!    parameters, then validates the trace itself: every JSONL line must
//!    parse, the Chrome export must be well-formed, and the span taxonomy
//!    (multiview → MTL layers → loss → backward → optimizer, plus
//!    checkpoint events) must be covered.
//!
//! The binary exits non-zero on a malformed trace or a determinism
//! violation; the overhead number is recorded (and printed) but not
//! gated, since single-run timing noise on a shared machine routinely
//! exceeds 1%.
//!
//! Knobs: `MGBR_SCALE`, `MGBR_THREADS`, `MGBR_TRACE` (trace file path,
//! default `results/obs_trace.jsonl`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgbr_bench::{build_meta, write_artifact, ExperimentEnv};
use mgbr_core::{train, FrozenModel, Mgbr, TrainConfig};
use mgbr_json::{Json, ToJson};
use mgbr_serve::{PoolConfig, ServeError, WorkerPool};
use mgbr_tensor::Pcg32;

struct ObsBench {
    scale: String,
    threads: usize,
    epochs: usize,
    steps: usize,
    baseline_steps_per_sec: f64,
    baseline_found: bool,
    steps_per_sec_off: f64,
    overhead_pct: f64,
    within_1pct: bool,
    trace_lines: usize,
    chrome_events: usize,
    missing_names: Vec<String>,
    determinism_ok: bool,
    serve: Json,
    meta: Json,
}

impl ToJson for ObsBench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scale", self.scale.to_json()),
            ("threads", self.threads.to_json()),
            ("epochs", self.epochs.to_json()),
            ("steps", self.steps.to_json()),
            (
                "baseline_steps_per_sec",
                self.baseline_steps_per_sec.to_json(),
            ),
            ("baseline_found", Json::Bool(self.baseline_found)),
            ("steps_per_sec_off", self.steps_per_sec_off.to_json()),
            ("overhead_pct", self.overhead_pct.to_json()),
            ("within_1pct", Json::Bool(self.within_1pct)),
            ("trace_lines", self.trace_lines.to_json()),
            ("chrome_events", self.chrome_events.to_json()),
            ("missing_names", self.missing_names.to_json()),
            ("determinism_ok", Json::Bool(self.determinism_ok)),
            ("serve", self.serve.clone()),
            ("meta", self.meta.to_json()),
        ])
    }
}

/// Span/event names a traced training run must cover.
const REQUIRED_NAMES: &[&str] = &[
    "train.start",
    "epoch",
    "step",
    "multiview.forward",
    "mtl.layer",
    "loss.forward",
    "backward",
    "optimizer.step",
    "checkpoint.save",
    "epoch.summary",
];

/// One leg of the serving-path overhead cell.
struct ServeLeg {
    leg: &'static str,
    trace_sample: Option<u64>,
    requests: usize,
    served: u64,
    shed: u64,
    mean_us: f64,
    p99_us: u64,
    spans: usize,
}

impl ToJson for ServeLeg {
    fn to_json(&self) -> Json {
        Json::obj([
            ("leg", self.leg.to_json()),
            ("trace_sample", self.trace_sample.to_json()),
            ("requests", self.requests.to_json()),
            ("served", self.served.to_json()),
            ("shed", self.shed.to_json()),
            ("mean_us", self.mean_us.to_json()),
            ("p99_us", self.p99_us.to_json()),
            ("spans", self.spans.to_json()),
        ])
    }
}

/// Drives a fresh pool open-loop at a fixed arrival rate (the
/// `bench_serve` generator, in miniature): requests are admitted at
/// `t_j = j / rate` without blocking on the server, latency comes from
/// the pool's own enqueue-to-reply histogram.
fn run_serve_leg(
    model: &Arc<FrozenModel>,
    stream: &[(usize, usize)],
    rate: f64,
    n_cell: usize,
    trace_sample: Option<u64>,
    leg: &'static str,
) -> ServeLeg {
    let pool = WorkerPool::new(
        Arc::clone(model),
        PoolConfig {
            workers: 2,
            trace_sample,
            ..PoolConfig::default()
        },
    );
    // Warm every worker's scorer workspace before the clock starts.
    for &(u, i) in &stream[..stream.len().min(16)] {
        let _ = pool.score_item(u, i);
    }
    let mut handles = Vec::with_capacity(n_cell);
    let mut shed = 0u64;
    let t0 = Instant::now();
    for j in 0..n_cell {
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
            Err(e) => panic!("serving leg submit failed unexpectedly: {e}"),
        }
    }
    let mut served = 0u64;
    for h in handles {
        if h.wait().is_ok() {
            served += 1;
        }
    }
    let m = pool.metrics();
    ServeLeg {
        leg,
        trace_sample,
        requests: n_cell,
        served,
        shed,
        mean_us: m.latency.mean(),
        p99_us: m.latency.percentile(0.99),
        spans: 0,
    }
}

/// Counts `serve.request` spans in a JSONL journal (0 if unreadable).
fn count_serve_spans(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|s| {
            s.lines()
                .filter(|l| {
                    Json::parse(l)
                        .ok()
                        .and_then(|r| r.get("name").and_then(Json::as_str).map(String::from))
                        .as_deref()
                        == Some("serve.request")
                })
                .count()
        })
        .unwrap_or(0)
}

fn run_once(env: &ExperimentEnv, tc: &TrainConfig) -> (Vec<f32>, Vec<u32>, usize, f64) {
    let mut model = Mgbr::new(env.mgbr_config(), &env.split.train_dataset());
    let report = train(&mut model, &env.full, &env.split, tc).expect("training failed");
    let params: Vec<u32> = model
        .store
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        .collect();
    // Best single epoch, matching bench_engine's noise-robust estimator:
    // scheduler interference only ever slows an epoch.
    let min_epoch_secs = report
        .epoch_secs
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let steps_per_epoch = report.steps as f64 / report.epoch_secs.len().max(1) as f64;
    let sps = if min_epoch_secs.is_finite() && min_epoch_secs > 0.0 {
        steps_per_epoch / min_epoch_secs
    } else {
        0.0
    };
    (report.epoch_losses, params, report.steps, sps)
}

fn main() {
    // The overhead leg must measure the genuinely-disabled path even when
    // the caller exported MGBR_TRACE; the traced leg reuses the path.
    let trace_env = std::env::var_os("MGBR_TRACE").filter(|v| !v.is_empty());
    std::env::remove_var("MGBR_TRACE");

    let env = ExperimentEnv::from_env();
    let epochs = match env.scale {
        "small" => 2,
        "large" => 2,
        _ => 3,
    };
    let tc = TrainConfig {
        epochs,
        ..env.mgbr_train_config()
    };
    println!(
        "# Observability benchmark (scale = {}, {epochs} epochs)\n",
        env.scale
    );

    // Warmup run: first-touch allocation and page faults stay out of the
    // measured leg (mirrors bench_engine).
    let _ = run_once(
        &env,
        &TrainConfig {
            epochs: 1,
            ..tc.clone()
        },
    );

    // Leg 1: tracing off, timed. Best of three — scheduler noise on a
    // shared box only ever slows a run, so max is the honest estimate of
    // the disabled path.
    let (losses_off, params_off, steps, mut sps_off) = run_once(&env, &tc);
    for _ in 0..2 {
        let (l, p, _, sps) = run_once(&env, &tc);
        assert_eq!(l, losses_off, "untraced legs must be deterministic");
        assert_eq!(p, params_off, "untraced legs must be deterministic");
        sps_off = sps_off.max(sps);
    }

    // The baseline only applies when it was measured at this scale and
    // thread count; otherwise steps/sec are not comparable and the run
    // is self-relative (overhead 0 by construction, baseline_found
    // false in the artifact).
    let baseline = std::fs::read_to_string("results/BENCH_engine.json")
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .filter(|j| {
            j.get("scale").and_then(Json::as_str) == Some(env.scale)
                && j.get("threads").and_then(Json::as_usize) == Some(mgbr_tensor::get_threads())
        })
        .and_then(|j| {
            j.get("best_epoch_steps_per_sec")
                .and_then(Json::as_f64)
                .filter(|&v| v > 0.0)
        });
    let baseline_found = baseline.is_some();
    let baseline_sps = baseline.unwrap_or(sps_off);
    let overhead_pct = if baseline_sps > 0.0 {
        (1.0 - sps_off / baseline_sps) * 100.0
    } else {
        0.0
    };
    let within_1pct = overhead_pct < 1.0;
    println!("steps/sec (tracing off, best epoch of 3 runs): {sps_off:.3}");
    println!(
        "engine baseline:         {baseline_sps:.3}{}",
        if baseline_found {
            ""
        } else {
            " (no comparable BENCH_engine.json; self-relative)"
        }
    );
    println!("overhead vs baseline:    {overhead_pct:+.2}% (target < 1%)");

    // Leg 2: the identical trajectory with the flight recorder on, plus
    // per-epoch checkpointing so checkpoint.save events appear. Neither
    // knob may perturb a single bit of the trajectory.
    let trace_path = trace_env
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/obs_trace.jsonl"));
    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let ckpt_dir = std::env::temp_dir().join(format!("mgbr_bench_obs_{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let tc_traced = TrainConfig {
        trace_path: Some(trace_path.clone()),
        ..tc.clone().with_checkpointing(ckpt_dir.join("obs.ckpt"), 1)
    };
    let (losses_on, params_on, _, _) = run_once(&env, &tc_traced);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let determinism_ok =
        losses_off == losses_on && params_off.len() == params_on.len() && params_off == params_on;
    println!(
        "determinism (traced vs untraced): {}",
        if determinism_ok {
            "ok (bitwise)"
        } else {
            "MISMATCH"
        }
    );

    // Validate the JSONL journal: every line parses, taxonomy covered.
    let jsonl = std::fs::read_to_string(&trace_path).expect("read trace JSONL");
    let mut trace_lines = 0usize;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut parse_ok = true;
    for (i, line) in jsonl.lines().enumerate() {
        match Json::parse(line) {
            Ok(rec) => {
                if let Some(name) = rec.get("name").and_then(Json::as_str) {
                    seen.insert(name.to_string());
                }
            }
            Err(e) => {
                eprintln!("JSONL line {} does not parse: {e}", i + 1);
                parse_ok = false;
            }
        }
        trace_lines += 1;
    }
    let missing_names: Vec<String> = REQUIRED_NAMES
        .iter()
        .filter(|n| !seen.contains(**n))
        .map(|n| n.to_string())
        .collect();
    println!(
        "trace: {} JSONL lines, {} distinct names, missing: {:?}",
        trace_lines,
        seen.len(),
        missing_names
    );

    // Validate the Chrome export: parses, traceEvents non-empty.
    let chrome_path = mgbr_obs::chrome_path_for(&trace_path);
    let chrome_events = std::fs::read_to_string(&chrome_path)
        .ok()
        .and_then(|s| Json::parse(&s).ok())
        .and_then(|j| {
            j.get("traceEvents")
                .and_then(|e| e.as_arr().map(<[Json]>::len))
        })
        .unwrap_or(0);
    println!(
        "chrome export: {} events at {}",
        chrome_events,
        chrome_path.display()
    );

    // --- Serving-path overhead cell ---------------------------------
    // The same open-loop request stream against a fresh 2-worker pool,
    // three conditions: tracing off (the delta between repeats is the
    // noise floor of this box), fully sampled, and tail-sampled 1-in-64.
    // The off legs run with no session alive, so they measure the
    // genuinely disabled path (one relaxed atomic load at admission).
    println!("\n# Serving-path tracing overhead (open loop, 2 workers)");
    let serve_model = Arc::new(Mgbr::new(env.mgbr_config(), &env.split.train_dataset()).freeze());
    let mut rng = Pcg32::new(0x0b5e, 0x5e7e);
    let stream: Vec<(usize, usize)> = (0..256)
        .map(|_| {
            (
                (rng.uniform() * serve_model.n_users() as f32) as usize % serve_model.n_users(),
                (rng.uniform() * serve_model.n_items() as f32) as usize % serve_model.n_items(),
            )
        })
        .collect();
    let (n_serve, rate) = (1200usize, 4000.0f64);
    let off_leg =
        |leg: &'static str| run_serve_leg(&serve_model, &stream, rate, n_serve, None, leg);
    let traced_leg = |sample: u64, leg: &'static str| {
        let scratch =
            std::env::temp_dir().join(format!("mgbr_obs_serve_{}_{leg}.jsonl", std::process::id()));
        let session = mgbr_obs::trace_to(&scratch, mgbr_obs::TraceFormat::Jsonl)
            .expect("create serving trace session");
        let mut cell = run_serve_leg(&serve_model, &stream, rate, n_serve, Some(sample), leg);
        drop(session);
        cell.spans = count_serve_spans(&scratch);
        let _ = std::fs::remove_file(&scratch);
        cell
    };
    // Scheduler noise on a shared box is bursty and only ever slows a
    // leg, so every condition runs several times — interleaved, so a
    // burst cannot pollute all repeats of one condition — and is judged
    // by its best repeat. Five off legs establish the noise floor (the
    // delta between the best two); the traced conditions take the best
    // of two.
    let mut offs = vec![off_leg("off")];
    let on_a = traced_leg(1, "on");
    offs.push(off_leg("off_repeat"));
    let tail_a = traced_leg(64, "tail_sampled");
    offs.push(off_leg("off_repeat2"));
    let on_b = traced_leg(1, "on_repeat");
    offs.push(off_leg("off_repeat3"));
    let tail_b = traced_leg(64, "tail_repeat");
    offs.push(off_leg("off_repeat4"));
    offs.sort_by(|a, b| a.mean_us.total_cmp(&b.mean_us));
    let (off_a, off_b) = (&offs[0], &offs[1]);
    let pick = |a: ServeLeg, b: ServeLeg| if a.mean_us <= b.mean_us { a } else { b };
    let on = pick(on_a, on_b);
    let tail = pick(tail_a, tail_b);
    // The honest disabled-path estimate is the faster of the two off
    // legs (scheduler noise only ever slows a leg); their mutual delta
    // is the noise floor the on-legs are judged against.
    let off_best = off_a.mean_us.min(off_b.mean_us).max(1e-9);
    let off_delta_pct = (off_a.mean_us - off_b.mean_us).abs() / off_best * 100.0;
    let on_overhead_pct = (on.mean_us / off_best - 1.0) * 100.0;
    let tail_overhead_pct = (tail.mean_us / off_best - 1.0) * 100.0;
    // Generous bound: per-request latency on a shared box is orders of
    // magnitude noisier than steps/sec, so the off-leg repeatability
    // check (the actual zero-overhead claim) gets a 50% allowance.
    let off_within_noise = off_delta_pct < 50.0;
    for leg in [off_a, off_b, &on, &tail] {
        println!(
            "{:>13}: mean {:8.1} us  p99 {:6} us  served {}  shed {}  spans {}",
            leg.leg, leg.mean_us, leg.p99_us, leg.served, leg.shed, leg.spans
        );
    }
    println!(
        "off-leg delta: {off_delta_pct:.1}% (noise floor, target < 50%); \
         on: {on_overhead_pct:+.1}%, tail-sampled: {tail_overhead_pct:+.1}%"
    );
    let serve = Json::obj([
        ("workers", 2usize.to_json()),
        ("rate_qps", rate.to_json()),
        ("requests_per_leg", n_serve.to_json()),
        (
            "legs",
            Json::Arr(
                offs.iter()
                    .chain([&on, &tail])
                    .map(ToJson::to_json)
                    .collect(),
            ),
        ),
        ("off_delta_pct", off_delta_pct.to_json()),
        ("off_within_noise", Json::Bool(off_within_noise)),
        ("on_overhead_pct", on_overhead_pct.to_json()),
        ("tail_overhead_pct", tail_overhead_pct.to_json()),
    ]);

    write_artifact(
        "BENCH_obs.json",
        &ObsBench {
            scale: env.scale.to_string(),
            threads: mgbr_tensor::get_threads(),
            epochs,
            steps,
            baseline_steps_per_sec: baseline_sps,
            baseline_found,
            steps_per_sec_off: sps_off,
            overhead_pct,
            within_1pct,
            trace_lines,
            chrome_events,
            missing_names: missing_names.clone(),
            determinism_ok,
            serve,
            meta: build_meta(&tc),
        },
    );

    let structural_ok = parse_ok
        && trace_lines > 0
        && chrome_events > 0
        && missing_names.is_empty()
        && determinism_ok;
    if !structural_ok {
        eprintln!("bench_obs: FAILED (malformed trace or determinism violation)");
        std::process::exit(1);
    }
}
