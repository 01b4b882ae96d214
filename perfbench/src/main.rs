//! Repeatable benchmark of the MGBR workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <light|heavy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the system from seeded inputs (one cold set-up), then
//! runs six measured phases — offline training, ranking evaluation,
//! closed-loop and open-loop serving through a one-worker pool, top-K
//! retrieval, and online replays. The workload decides the inputs of
//! every phase (batch sizes, list lengths, load, probe width, segment
//! size); the phases and their shares of the `--seconds` are the same on
//! both. Every phase checks the program's outputs. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics. The process exits non-zero when any check fails. See
//! `perfbench/README.md`.

mod online;
mod serve;
mod spans;
mod stats;
mod train;
mod world;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Tracer;

/// The benchmark's workloads: the same phases on inputs of two shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Light,
    Heavy,
}

/// The inputs a workload decides, phase by phase.
pub struct Shape {
    /// Training minibatch size.
    pub train_batch: usize,
    /// Negatives in each evaluation list (1:9 or 1:99).
    pub eval_negs: usize,
    /// Requests the closed loop keeps in flight.
    pub inflight: usize,
    /// The open loop's offered rate (requests/s).
    pub rate: f64,
    /// Index clusters each timed top-K query probes.
    pub nprobe: usize,
    /// Two-participant groups per online segment.
    pub segment_groups: usize,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "light" => Some(Self::Light),
            "heavy" => Some(Self::Heavy),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Light => "light",
            Self::Heavy => "heavy",
        }
    }

    /// `light` runs small units at light load, where per-call and
    /// per-request costs (work that does not grow with a batch, plan
    /// dispatch on small batches, the pool's hand-off and coalescing
    /// wait) weigh most; `heavy` runs full units at heavy load, where
    /// kernel throughput weighs most.
    pub fn shape(self) -> Shape {
        match self {
            Self::Light => Shape {
                train_batch: 16,
                eval_negs: 9,
                inflight: 4,
                rate: 2_000.0,
                nprobe: world::NPROBE,
                segment_groups: 8,
            },
            Self::Heavy => Shape {
                train_batch: 64,
                eval_negs: 99,
                inflight: 32,
                rate: 20_000.0,
                nprobe: world::INDEX_CLUSTERS,
                segment_groups: 32,
            },
        }
    }
}

/// Share of `--seconds` each phase measures for, in phase order:
/// train, eval, closed loop, open loop, top-K, online. The same on both
/// workloads: a workload changes the inputs, not the mix of phases.
const SHARES: [f64; 6] = [0.26, 0.08, 0.12, 0.12, 0.12, 0.30];

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a run reports: metrics, operation counts and failed checks.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records a check; a false `ok` fails the run with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON, with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// State shared by the phases of one run.
pub struct Ctx {
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    pub traced: bool,
    pub tracer: Tracer,
    pub report: Report,
    /// Where fixtures, the trace journal and the span dump live: an
    /// ignored directory of the checkout.
    pub scratch: PathBuf,
    seconds: f64,
}

impl Ctx {
    /// The measuring time of phase `i` in one round (see [`SHARES`]).
    pub fn budget(&self, phase: usize) -> Duration {
        Duration::from_secs_f64(self.seconds * SHARES[phase] / f64::from(ROUNDS))
    }
}

/// Removes inherited `MGBR_*` variables: `MGBR_THREADS`, `MGBR_TRACE`
/// and `MGBR_WATCHDOG*` override configuration inside `train()`, and the
/// serving and online knobs override pool and loop settings, so none of
/// them may reach the program.
fn clear_program_env() {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MGBR_"))
        .collect();
    for key in inherited {
        eprintln!("perfbench: ignoring inherited {key}");
        std::env::remove_var(key);
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    clear_program_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <light|heavy> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_scratch").join(format!(
        "{}-{}-{}-{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    // Kernel threads are pinned: results are bitwise identical at any
    // count, and spawning per kernel call makes 2 threads no faster
    // than 1 on a 2-vCPU host.
    mgbr_tensor::set_threads(1);

    let mut ctx = Ctx {
        workload: args.workload,
        shape: args.workload.shape(),
        seed: args.seed,
        traced: args.trace,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
        scratch: scratch.clone(),
        seconds: args.seconds as f64,
    };
    let result = run(&mut ctx, process_start);
    if ctx.traced {
        let path = PathBuf::from(".bench_scratch").join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = ctx.tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    println!("{}", ctx.report.to_json_line());
    if ctx.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs whole units of a phase for one round. `left` carries the
/// phase's unspent time (in seconds) from round to round: the round's
/// `budget` is added to it, units run while another one, as long as the
/// last, would end at most half of it past what is left, and the time
/// spent is taken off. A phase whose units are longer than its share of
/// a round therefore skips some rounds, yet its units stay spread over
/// the whole run and its total stays its share.
pub fn run_units(
    left: &mut f64,
    budget: Duration,
    mut unit: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    *left += budget.as_secs_f64();
    let start = Instant::now();
    let mut last = 0.0;
    while start.elapsed().as_secs_f64() + last / 2.0 <= *left {
        let t = Instant::now();
        unit()?;
        last = t.elapsed().as_secs_f64();
    }
    *left -= start.elapsed().as_secs_f64();
    Ok(())
}

/// Measuring rounds per run. Each round runs every phase for its share
/// of the round, so each metric's units are spread over the whole run
/// and a host slow phase cannot cover all of them.
const ROUNDS: u32 = 8;

/// Set-up, then [`ROUNDS`] rounds of the six phases, then the checks
/// and metrics of each.
fn run(ctx: &mut Ctx, process_start: Instant) -> Result<(), String> {
    let mut w = world::setup(ctx)?;
    // One cold set-up per process, timed from the process's start. The
    // fixed pre-training of the served and the online base models is
    // left out: it is training, which `train_steps_per_s` measures.
    let pretrain_s = w.pretrain_s;
    let setup_s = process_start.elapsed().as_secs_f64() - pretrain_s;
    if ctx.traced {
        for (metric, span) in [
            ("data.generate_ms", "data.generate"),
            ("data.preprocess_ms", "data.preprocess"),
            ("graph.views_ms", "graph.views"),
            ("core.model_new_ms", "core.model_new"),
            ("serve.artifact_load_ms", "serve.artifact_load"),
            ("serve.index_build_ms", "serve.index_build"),
            ("online.warm_start_ms", "online.warm_start"),
        ] {
            let ms = ctx.tracer.total_ns(span).iter().sum::<f64>() / 1e6;
            ctx.report.metric(metric, ms, "ms");
        }
    } else {
        ctx.report.metric("setup_s", setup_s, "s");
    }
    eprintln!("perfbench: set-up {setup_s:.3} s, pre-training {pretrain_s:.3} s");
    let mut training = train::Training::default();
    let mut evaluation = train::Evaluation::default();
    let mut serving = serve::ServeRuns::new(ctx, &w);
    let mut online = online::OnlineRuns::new(&w);
    let mut spent = [0.0f64; 4];
    for _ in 0..ROUNDS {
        let t = Instant::now();
        training.round(ctx, &mut w, ctx.budget(0))?;
        spent[0] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        evaluation.round(ctx, &w, ctx.budget(1))?;
        spent[1] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        serving.round(&w, [ctx.budget(2), ctx.budget(3), ctx.budget(4)])?;
        spent[2] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        online.round(ctx, &mut w, ctx.budget(5))?;
        spent[3] += t.elapsed().as_secs_f64();
    }
    eprintln!(
        "perfbench: rounds took train {:.1} s, eval {:.1} s, serve {:.1} s, online {:.1} s",
        spent[0], spent[1], spent[2], spent[3]
    );
    let t = Instant::now();
    training.finish(ctx, &w)?;
    evaluation.finish(ctx)?;
    serving.finish(ctx, &w)?;
    online.finish(ctx, &w)?;
    eprintln!(
        "perfbench: checks and reports took {:.1} s",
        t.elapsed().as_secs_f64()
    );
    Ok(())
}
