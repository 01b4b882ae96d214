#!/bin/sh
# Local CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; fails fast on the first broken step.
set -e
cd "$(dirname "$0")"

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (warnings are errors) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo build --release ==="
cargo build --release

echo "=== benchmark package builds against the library ==="
# perfbench/ is a detached cargo package (its own [workspace]), so the
# root build and `cargo test` never compile it; a library API change
# could otherwise break the benchmark unseen.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "=== no ignored tests ==="
# Skipped tests rot silently; this repo forbids #[ignore] outright.
if grep -rn '#\[ignore' crates/ tests/ --include='*.rs'; then
  echo "ci.sh: FAILED — remove the #[ignore] attributes listed above" >&2
  exit 1
fi

echo "=== cargo test ==="
cargo test -q

echo "=== checkpoint resume / fault-injection suite ==="
# Covered by the full run above, but executed explicitly so a wiring
# mistake (e.g. the [[test]] entry dropped) fails CI rather than
# silently skipping the crash-safety guarantees.
cargo test -q -p mgbr-bench --test checkpoint_resume

echo "=== watchdog recovery / numeric-fault-injection suite ==="
# Same rationale: the divergence-recovery guarantees must run explicitly.
cargo test -q -p mgbr-bench --test watchdog_recovery

echo "=== serving parity golden suite ==="
# The frozen serving path must stay bitwise identical to the training
# scorer; run explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test serving_parity

echo "=== serving concurrency stress suite ==="
# M producers x N workers under both admission policies: exactly one
# reply per request, typed shed under overload, drain-on-drop, bitwise
# parity with the single-threaded scorer; run explicitly so a dropped
# [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test serving_stress

echo "=== serving resilience / chaos suite ==="
# Deadlines, SLO-aware shedding, hot-swap without dropped requests,
# worker-death containment, clock jumps, fail-closed env knobs; run
# explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test serving_resilience

echo "=== pruned-index property suite ==="
# Full-probe retrieval must stay bitwise identical to the exhaustive
# scan across every ablation variant, and recall@K must be monotone in
# nprobe; run explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test index_properties

echo "=== observability / flight-recorder suite ==="
# Tracing must be bitwise invisible and the journal complete; run
# explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test obs_trace

echo "=== per-request serving telemetry suite ==="
# Shed, deadline-expired, worker-death and swap-boundary requests must
# always journal a serve.request span, and latency exemplars must
# resolve to journaled request ids; run explicitly so a dropped
# [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test serving_trace

echo "=== exporter conformance suite ==="
# Prometheus text exposition must round-trip every metric (cumulative
# buckets, _sum/_count, exemplars) and the JSON export must be
# byte-stable; run explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test obs_export

echo "=== plan round-trip / fail-closed artifact suite ==="
# Plan serialization must round-trip bit-identically and fail closed on
# every corrupted byte and truncation, standalone and inside MGBRFRZN
# artifacts; run explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-bench --test plan_roundtrip

echo "=== online-loop unit + property suites ==="
# Temporal-split determinism, fold-in bitwise neutrality, interrupted
# fine-tune resume, whole-loop determinism at threads 1/2/4; run
# explicitly so a dropped [[test]] entry fails CI.
cargo test -q -p mgbr-online
cargo test -q -p mgbr-bench --test online_loop

echo "=== frozen scorer runs the shared plan, not a hand replay ==="
# The whole point of the execution-plan IR is one forward shared by the
# trainer and the frozen scorer. A hand-replayed forward regrowing in
# freeze.rs would silently fork the two paths again.
if grep -nE 'matmul_into|affine_act_into|mix_col_blocks_into|spmm_into|task_gate|mtl_forward|mlp_forward' \
    crates/core/src/freeze.rs; then
  echo "ci.sh: FAILED — freeze.rs must execute the stored plan via mgbr-plan, not hand-replay the forward" >&2
  exit 1
fi

echo "=== serving smoke: freeze -> serve -> parity + artifact ==="
# End-to-end: train briefly, freeze to disk, reload, serve a synthetic
# request stream. bench_serve exits non-zero on any frozen-vs-training
# score mismatch, and the JSON artifact must be non-empty.
rm -f results/BENCH_serve.json
MGBR_SCALE=small MGBR_SERVE_REQUESTS=1000 ./target/release/bench_serve
if ! [ -s results/BENCH_serve.json ]; then
  echo "ci.sh: FAILED — bench_serve did not produce results/BENCH_serve.json" >&2
  exit 1
fi

echo "=== online-loop smoke: prequential bench, updated must beat static ==="
# bench_online replays the temporal tail prequentially and exits
# non-zero when the updated arm fails to beat the static baseline on
# tail recall@10; the JSON artifact must be non-empty.
rm -f results/BENCH_online.json
MGBR_SCALE=small ./target/release/bench_online
if ! [ -s results/BENCH_online.json ]; then
  echo "ci.sh: FAILED — bench_online did not produce results/BENCH_online.json" >&2
  exit 1
fi

echo "=== trace smoke: traced run -> parseable JSONL + Chrome export ==="
# bench_obs re-trains with the flight recorder on, exits non-zero if any
# JSONL line fails to parse, the Chrome export is malformed, the span
# taxonomy is incomplete, or tracing perturbed a single bit.
rm -f results/BENCH_obs.json results/obs_trace.jsonl results/obs_trace.jsonl.chrome.json
MGBR_SCALE=small MGBR_TRACE=results/obs_trace.jsonl ./target/release/bench_obs
for f in results/BENCH_obs.json results/obs_trace.jsonl results/obs_trace.jsonl.chrome.json; do
  if ! [ -s "$f" ]; then
    echo "ci.sh: FAILED — bench_obs did not produce $f" >&2
    exit 1
  fi
done

echo "=== library code logs through mgbr-obs, not stdout ==="
# println!/eprintln! in non-test library code bypasses the flight
# recorder and pollutes binary output; bench/bin experiment binaries and
# doc comments are exempt.
for f in crates/*/src/*.rs; do
  case "$f" in crates/bench/*) continue ;; esac
  if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -vE '^\s*//' | grep -nE 'println!|eprintln!'; then
    echo "ci.sh: FAILED — $f library code must record events via mgbr-obs, not print" >&2
    exit 1
  fi
done

echo "=== trainer is panic-free outside tests ==="
# The training loop reports failures through TrainError; a panic! or
# .unwrap() sneaking back into its non-test code is a regression.
if sed -n '1,/#\[cfg(test)\]/p' crates/core/src/trainer.rs \
    | grep -nE 'panic!|\.unwrap\(\)'; then
  echo "ci.sh: FAILED — trainer.rs non-test code must use TrainError, not panics" >&2
  exit 1
fi

echo "=== mgbr-serve is panic-free outside tests ==="
# Serving handles untrusted request data; failures must surface as
# ServeError, never as a panic taking a worker down (.expect() included:
# a poisoned lock or closed channel must degrade, not crash the pool).
# chaos.rs is exempt — its injected panic IS the fault under test, and
# the module is cfg-gated out of release builds (checked below).
for f in crates/serve/src/*.rs; do
  case "$f" in crates/serve/src/chaos.rs) continue ;; esac
  if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -nE 'panic!|\.unwrap\(\)|\.expect\('; then
    echo "ci.sh: FAILED — $f non-test code must use ServeError, not panics" >&2
    exit 1
  fi
done

echo "=== mgbr-online is panic-free outside tests ==="
# The online loop runs unattended against live traffic; failures must
# surface as OnlineError (rollback, typed config errors), never as a
# panic killing the learning loop mid-stream.
for f in crates/online/src/*.rs; do
  if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -nE 'panic!|\.unwrap\(\)|\.expect\('; then
    echo "ci.sh: FAILED — $f non-test code must use OnlineError, not panics" >&2
    exit 1
  fi
done

echo "=== chaos harness stays out of release builds ==="
# The chaos module may only compile under cfg(test) or the explicit
# "chaos" feature: the module declaration must carry the gate, the
# feature must never be a default, and only dev-dependencies may enable
# it — so the release build above is provably chaos-free.
if ! grep -B1 'pub mod chaos' crates/serve/src/lib.rs \
    | grep -q 'cfg(any(test, feature = "chaos"))'; then
  echo "ci.sh: FAILED — mod chaos in crates/serve/src/lib.rs must be gated on cfg(any(test, feature = \"chaos\"))" >&2
  exit 1
fi
if grep -nE '^default *=.*chaos' crates/serve/Cargo.toml; then
  echo "ci.sh: FAILED — the chaos feature must never be a default feature of mgbr-serve" >&2
  exit 1
fi
for t in crates/*/Cargo.toml; do
  if awk '/^\[/{in_dep = ($0 == "[dependencies]")} in_dep' "$t" | grep -n 'chaos'; then
    echo "ci.sh: FAILED — $t enables the chaos feature from [dependencies]; only [dev-dependencies] may (release binaries must stay chaos-free)" >&2
    exit 1
  fi
done

echo "=== every emitted span/event name is documented in DESIGN.md ==="
# The observability taxonomy table is the contract monitoring is built
# on; a span or event emitted by library code but missing from the
# table is invisible to anyone reading the docs. Test modules are
# excluded (their probe names are private); plan.* op spans are named
# through PlanOp::span_name, so the string literals in crates/plan are
# swept separately.
taxonomy_ok=1
for name in $(
  { for f in crates/*/src/*.rs; do
      sed -n '1,/#\[cfg(test)\]/p' "$f"
    done | grep -oE '\b(span|span_at|event)\("[a-z][a-z0-9._]*"' \
         | sed -E 's/.*"([^"]*)"/\1/'
    grep -ohE '"plan\.[a-z_]+"' crates/plan/src/*.rs | tr -d '"'
  } | sort -u
); do
  if ! grep -qF "$name" DESIGN.md; then
    echo "ci.sh: span/event \"$name\" is emitted by library code but undocumented in DESIGN.md" >&2
    taxonomy_ok=0
  fi
done
if [ "$taxonomy_ok" -ne 1 ]; then
  echo "ci.sh: FAILED — add the names above to the DESIGN.md observability taxonomy table" >&2
  exit 1
fi

echo "=== one clock read decides each batch (hot-loop gate) ==="
# run_batch must read the clock at most twice per batch (one pre-score
# timestamp deciding every deadline expiry and queue delay, one
# post-score timestamp stamping every latency). Per-request Instant
# reads in the hot loop are a regression: they cost syscalls at high QPS
# and let requests in one batch disagree about "now".
clock_reads=$(sed -n '/^pub(crate) fn run_batch/,/^}/p' crates/serve/src/batcher.rs \
  | grep -cE 'Instant::now\(\)|\.elapsed\(\)' || true)
if [ "$clock_reads" -gt 2 ]; then
  echo "ci.sh: FAILED — run_batch reads the clock $clock_reads times; the batch hot loop allows at most 2 (pre-score + post-score)" >&2
  exit 1
fi
if [ "$clock_reads" -lt 2 ]; then
  echo "ci.sh: FAILED — run_batch clock-read gate found $clock_reads reads; expected exactly 2 (did run_batch move or get renamed?)" >&2
  exit 1
fi

echo "=== ci.sh: all checks passed ==="
