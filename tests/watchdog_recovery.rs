//! Divergence-watchdog property suite.
//!
//! Proves the training-stability subsystem's three headline guarantees
//! end to end, with faults injected through `mgbr_nn::NumericFault`:
//!
//! 1. **Recovery** — a NaN injected at *any* step of a multi-epoch run
//!    still ends with a finite loss and exactly the expected number of
//!    recoveries.
//! 2. **Zero overhead on the trajectory** — with no faults, a
//!    watchdog-enabled run is bitwise identical to a watchdog-disabled
//!    run at 1, 2, and 4 threads.
//! 3. **Fail-closed** — exhausting `max_recoveries` yields
//!    `TrainError::Diverged` carrying the anomaly report, and leaves the
//!    last good checkpoint on disk intact and loadable.

use std::path::PathBuf;

use mgbr_core::{train, AnomalyKind, Mgbr, MgbrConfig, TrainConfig, TrainError, WatchdogConfig};
use mgbr_data::{split_dataset, synthetic, DataSplit, Dataset, SyntheticConfig};
use mgbr_nn::checkpoint::load_checkpoint_from_file;
use mgbr_nn::{NumericFault, ParamStore};

fn fixture() -> (Dataset, DataSplit) {
    let ds = synthetic::generate(&SyntheticConfig::tiny());
    let split = split_dataset(&ds, (7.0, 3.0, 1.0), 11);
    (ds, split)
}

fn params_of(store: &ParamStore) -> Vec<u32> {
    store
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().iter().map(|x| x.to_bits()))
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgbr_watchdog_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Steps per epoch for the tiny fixture under `TrainConfig::tiny`,
/// derived from an instrumented clean run so the fault sweep below can
/// target every step of the run.
fn steps_per_epoch(ds: &Dataset, split: &DataSplit, tc: &TrainConfig) -> usize {
    let mut model = Mgbr::new(MgbrConfig::tiny(), ds);
    let report = train(
        &mut model,
        ds,
        split,
        &TrainConfig {
            epochs: 1,
            ..tc.clone()
        },
    )
    .unwrap();
    report.steps
}

/// Property 1: a NaN gradient injected at every step `k` of a run in turn
/// always recovers — the run completes with finite losses, finite
/// parameters, and exactly one recovery (the one-shot fault cannot
/// refire after the rollback).
#[test]
fn nan_at_any_step_recovers_to_finite_loss() {
    let (ds, split) = fixture();
    let base = TrainConfig::tiny();
    let per_epoch = steps_per_epoch(&ds, &split, &base);
    let epochs = 2usize;
    let total_steps = per_epoch * epochs;
    assert!(total_steps >= 20, "fixture too small to sweep 20 steps");

    // Sweep the full run, capped at 20 evenly-spread steps for runtime.
    let stride = total_steps.div_ceil(20).max(1);
    for k in (0..total_steps).step_by(stride) {
        let tc = TrainConfig {
            epochs,
            numeric_fault: Some(NumericFault::poison_gradient(k, 0, 0, f32::NAN)),
            ..base.clone()
        };
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let report = train(&mut model, &ds, &split, &tc)
            .unwrap_or_else(|e| panic!("fault at step {k} did not recover: {e}"));
        assert_eq!(report.recoveries, 1, "fault at step {k}");
        assert_eq!(report.anomalies.len(), 1, "fault at step {k}");
        assert_eq!(
            report.anomalies[0].kind,
            AnomalyKind::NonFiniteGradient,
            "fault at step {k}"
        );
        assert_eq!(
            report.anomalies[0].step, k,
            "report must carry the faulting step"
        );
        assert_eq!(report.epoch_losses.len(), epochs);
        assert!(
            report.epoch_losses.iter().all(|l| l.is_finite()),
            "fault at step {k}: losses {:?}",
            report.epoch_losses
        );
        assert!(model.store.all_finite(), "fault at step {k}");
    }
}

/// Property 2: with zero faults, enabling the watchdog changes nothing —
/// losses and final parameters are bitwise identical to a
/// watchdog-disabled run, at every thread count. (Skipped when
/// `MGBR_THREADS` pins the thread knob, since `threads` in the config is
/// then ignored by design.)
#[test]
fn fault_free_run_bitwise_identical_to_disabled_watchdog_across_threads() {
    if std::env::var("MGBR_THREADS").is_ok() {
        return;
    }
    let (ds, split) = fixture();
    let run = |threads: usize, wd: WatchdogConfig| {
        let tc = TrainConfig {
            epochs: 2,
            threads,
            watchdog: wd,
            ..TrainConfig::tiny()
        };
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let report = train(&mut model, &ds, &split, &tc).unwrap();
        (report.epoch_losses, params_of(&model.store))
    };
    for threads in [1usize, 2, 4] {
        let (l_on, p_on) = run(threads, WatchdogConfig::default());
        let (l_off, p_off) = run(threads, WatchdogConfig::disabled());
        assert_eq!(l_on, l_off, "losses differ at {threads} threads");
        assert_eq!(p_on, p_off, "parameters differ at {threads} threads");
    }
    mgbr_tensor::set_threads(1);
}

/// Property 3: a persistent fault that refires on every retry exhausts
/// `max_recoveries` and fails closed with `TrainError::Diverged` carrying
/// the anomaly report — while the last good checkpoint written before
/// the divergence stays intact and loadable on disk.
#[test]
fn exhausted_recoveries_fail_closed_and_preserve_checkpoint() {
    let (ds, split) = fixture();
    let dir = scratch("fail_closed");
    let path = dir.join("run.ckpt");
    let _ = std::fs::remove_file(&path);

    // Epoch 0 completes cleanly and checkpoints; the persistent fault
    // poisons epoch 1 on every retry.
    let per_epoch = steps_per_epoch(&ds, &split, &TrainConfig::tiny());
    let max_recoveries = 2usize;
    let tc = TrainConfig {
        epochs: 2,
        watchdog: WatchdogConfig {
            max_recoveries,
            ..WatchdogConfig::default()
        },
        numeric_fault: Some(
            NumericFault::poison_param(per_epoch + 1, 0, 0, f32::INFINITY).persistent(),
        ),
        ..TrainConfig::tiny()
    }
    .with_checkpointing(&path, 1);

    let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
    let err = train(&mut model, &ds, &split, &tc).unwrap_err();
    match &err {
        TrainError::Diverged { report } => {
            assert_eq!(report.kind, AnomalyKind::NonFiniteParam);
            assert_eq!(report.recoveries, max_recoveries);
            assert_eq!(report.epoch, 1, "fault lands in epoch 1");
            assert_eq!(report.step, per_epoch + 1);
            assert!(report.tensor.is_some(), "report names the tensor");
            assert_eq!(report.first_index, Some(0));
        }
        other => panic!("expected Diverged, got {other}"),
    }
    // The error's Display carries the full anomaly context.
    let msg = err.to_string();
    assert!(msg.contains("non-finite parameter"), "{msg}");
    assert!(msg.contains("epoch 1"), "{msg}");

    // The epoch-0 checkpoint is intact: it loads transactionally into a
    // fresh model and carries the pre-divergence training state.
    let mut fresh = Mgbr::new(MgbrConfig::tiny(), &ds);
    let loaded = load_checkpoint_from_file(&mut fresh.store, &path)
        .expect("last good checkpoint must stay loadable");
    let state = loaded.state;
    assert_eq!(state.epoch, 1, "checkpoint covers the one clean epoch");
    assert!(fresh.store.all_finite());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Divergence without any recovery budget (`max_recoveries = 0`) fails
/// closed immediately, and the report says zero recoveries were consumed.
#[test]
fn zero_recovery_budget_fails_on_first_anomaly() {
    let (ds, split) = fixture();
    let tc = TrainConfig {
        epochs: 1,
        watchdog: WatchdogConfig {
            max_recoveries: 0,
            ..WatchdogConfig::default()
        },
        numeric_fault: Some(NumericFault::spike_loss(0, f32::NAN)),
        ..TrainConfig::tiny()
    };
    let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
    let err = train(&mut model, &ds, &split, &tc).unwrap_err();
    match err {
        TrainError::Diverged { report } => {
            assert_eq!(report.kind, AnomalyKind::NonFiniteLoss);
            assert_eq!(report.recoveries, 0);
            assert_eq!(report.step, 0);
        }
        other => panic!("expected Diverged, got {other}"),
    }
}

/// Recovery composes with checkpoint/resume: a run that recovered from a
/// fault still writes checkpoints, and its final parameters stay finite
/// and reloadable.
#[test]
fn recovered_run_checkpoints_remain_usable() {
    let (ds, split) = fixture();
    let dir = scratch("recovered_ckpt");
    let path = dir.join("rec.ckpt");
    let _ = std::fs::remove_file(&path);

    let tc = TrainConfig {
        epochs: 2,
        numeric_fault: Some(NumericFault::poison_gradient(2, 0, 0, f32::NAN)),
        ..TrainConfig::tiny()
    }
    .with_checkpointing(&path, 1);
    let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
    let report = train(&mut model, &ds, &split, &tc).unwrap();
    assert_eq!(report.recoveries, 1);

    let mut fresh = Mgbr::new(MgbrConfig::tiny(), &ds);
    let loaded = load_checkpoint_from_file(&mut fresh.store, &path).unwrap();
    assert_eq!(loaded.state.epoch, 2);
    assert_eq!(params_of(&model.store), params_of(&fresh.store));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property 4: for a NaN injected at step `k`, the anomaly report
/// round-trips through the flight-recorder journal — kind, step, epoch,
/// and recovery count match the in-memory report, and the anomaly event
/// precedes its recovery event. (Events from concurrently-running traced
/// tests may interleave, so the check is subsequence inclusion, not file
/// equality.)
#[test]
fn anomaly_events_round_trip_through_journal_in_order() {
    let (ds, split) = fixture();
    let dir = scratch("journal");
    let base = TrainConfig::tiny();
    let per_epoch = steps_per_epoch(&ds, &split, &base);
    for k in [0usize, 1, per_epoch, per_epoch + 1] {
        let trace = dir.join(format!("k{k}.jsonl"));
        let tc = TrainConfig {
            epochs: 2,
            trace_path: Some(trace.clone()),
            numeric_fault: Some(NumericFault::poison_gradient(k, 0, 0, f32::NAN)),
            ..base.clone()
        };
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let report = train(&mut model, &ds, &split, &tc)
            .unwrap_or_else(|e| panic!("fault at step {k} did not recover: {e}"));
        assert_eq!(report.anomalies.len(), 1, "fault at step {k}");
        let want = &report.anomalies[0];

        let records: Vec<mgbr_json::Json> = std::fs::read_to_string(&trace)
            .unwrap()
            .lines()
            .map(|l| mgbr_json::Json::parse(l).expect("journal line parses"))
            .collect();
        let anomaly_at = records
            .iter()
            .position(|r| {
                r.get("name").and_then(mgbr_json::Json::as_str) == Some("watchdog.anomaly")
                    && r.get("args")
                        .and_then(|a| a.get("step"))
                        .and_then(mgbr_json::Json::as_usize)
                        == Some(want.step)
            })
            .unwrap_or_else(|| panic!("anomaly at step {k} missing from journal"));
        let args = records[anomaly_at].get("args").unwrap();
        assert_eq!(
            args.get("kind").and_then(mgbr_json::Json::as_str),
            Some(want.kind.to_string().as_str()),
            "fault at step {k}"
        );
        assert_eq!(
            args.get("epoch").and_then(mgbr_json::Json::as_usize),
            Some(want.epoch),
            "fault at step {k}"
        );
        assert!(
            records[anomaly_at + 1..].iter().any(|r| {
                r.get("name").and_then(mgbr_json::Json::as_str) == Some("watchdog.recover")
            }),
            "recovery event must follow the anomaly for step {k}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
