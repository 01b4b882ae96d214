//! Crash-safe checkpoint/resume integration suite.
//!
//! Proves the two headline guarantees end to end:
//!
//! 1. **Bitwise-identical continuation** — a run killed at any epoch
//!    boundary and resumed from its checkpoint reaches final parameters
//!    bit-for-bit equal to an uninterrupted run, at any thread count and
//!    with Adam warm restarts on or off.
//! 2. **Fail-closed integrity** — every partial or corrupt checkpoint
//!    (fault-injected via `mgbr_nn::failpoint::IoFault`) is rejected with
//!    a typed `CheckpointError` without mutating the receiving store,
//!    while the previous good checkpoint stays loadable.

use std::path::PathBuf;

use mgbr_core::{train, train_with_validation, Mgbr, MgbrConfig, TrainConfig, TrainError};
use mgbr_data::{split_dataset, synthetic, DataSplit, Dataset, SyntheticConfig};
use mgbr_nn::checkpoint::{
    load_checkpoint, load_checkpoint_from_file, save_checkpoint, save_checkpoint_atomic, AdamState,
    CheckpointError, TrainState,
};
use mgbr_nn::failpoint::{Fault, IoFault};
use mgbr_nn::ParamStore;
use mgbr_tensor::{Pcg32, Tensor};

fn fixture() -> (Dataset, DataSplit) {
    let ds = synthetic::generate(&SyntheticConfig::tiny());
    let split = split_dataset(&ds, (7.0, 3.0, 1.0), 11);
    (ds, split)
}

fn params_of(model: &Mgbr) -> Vec<f32> {
    model
        .store
        .iter()
        .flat_map(|(_, _, t)| t.as_slice().to_vec())
        .collect()
}

/// A unique scratch dir per test so parallel tests never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgbr_resume_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_tc(threads: usize, warm: bool) -> TrainConfig {
    TrainConfig {
        epochs: 4,
        threads,
        adam_warm_restarts: warm,
        ..TrainConfig::tiny()
    }
}

/// Kill-at-epoch-k → resume → bitwise-equal parameters, swept over
/// thread counts and Adam warm restarts. (Skipped when `MGBR_THREADS`
/// pins the thread knob, since `threads` in the config is then ignored
/// by design.)
#[test]
fn killed_and_resumed_matches_uninterrupted_bitwise() {
    if std::env::var("MGBR_THREADS").is_ok() {
        return;
    }
    let (ds, split) = fixture();
    let dir = scratch("kill_resume");

    for threads in [1usize, 2, 4] {
        for warm in [true, false] {
            // Reference: uninterrupted 4-epoch run, no checkpointing.
            let tc_full = base_tc(threads, warm);
            let mut reference = Mgbr::new(MgbrConfig::tiny(), &ds);
            let full_report = train(&mut reference, &ds, &split, &tc_full).unwrap();
            let want = params_of(&reference);

            for kill_at in 1..4usize {
                let path = dir.join(format!("t{threads}_w{warm}_k{kill_at}.ckpt"));
                let _ = std::fs::remove_file(&path);

                // "Killed" run: stops after `kill_at` epochs, checkpointing
                // every epoch.
                let tc_killed = TrainConfig {
                    epochs: kill_at,
                    ..base_tc(threads, warm).with_checkpointing(&path, 1)
                };
                let mut victim = Mgbr::new(MgbrConfig::tiny(), &ds);
                train(&mut victim, &ds, &split, &tc_killed).unwrap();
                assert!(path.exists(), "kill run must leave a checkpoint");

                // Resumed run: fresh process state, full epoch budget.
                let tc_resume = base_tc(threads, warm).with_checkpointing(&path, 1);
                let mut resumed = Mgbr::new(MgbrConfig::tiny(), &ds);
                let resumed_report = train(&mut resumed, &ds, &split, &tc_resume).unwrap();

                assert_eq!(
                    resumed_report.epoch_losses.len(),
                    4 - kill_at,
                    "resume must continue, not retrain, after kill at {kill_at}"
                );
                assert_eq!(
                    full_report.epoch_losses[kill_at..],
                    resumed_report.epoch_losses[..],
                    "resumed losses diverged (threads={threads}, warm={warm}, kill={kill_at})"
                );
                assert_eq!(
                    want,
                    params_of(&resumed),
                    "final parameters diverged (threads={threads}, warm={warm}, kill={kill_at})"
                );
            }
        }
    }
    mgbr_tensor::set_threads(1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint written at one thread count resumes bit-identically at
/// another — the determinism guarantee composes with crash recovery.
#[test]
fn resume_across_thread_counts_is_bitwise_identical() {
    if std::env::var("MGBR_THREADS").is_ok() {
        return;
    }
    let (ds, split) = fixture();
    let dir = scratch("cross_threads");
    let path = dir.join("cross.ckpt");

    let mut reference = Mgbr::new(MgbrConfig::tiny(), &ds);
    train(&mut reference, &ds, &split, &base_tc(1, true)).unwrap();

    let tc_killed = TrainConfig {
        epochs: 2,
        ..base_tc(1, true).with_checkpointing(&path, 1)
    };
    let mut victim = Mgbr::new(MgbrConfig::tiny(), &ds);
    train(&mut victim, &ds, &split, &tc_killed).unwrap();

    // Resume the 1-thread checkpoint on 4 threads.
    let tc_resume = base_tc(4, true).with_checkpointing(&path, 1);
    let mut resumed = Mgbr::new(MgbrConfig::tiny(), &ds);
    train(&mut resumed, &ds, &split, &tc_resume).unwrap();
    assert_eq!(params_of(&reference), params_of(&resumed));

    mgbr_tensor::set_threads(1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Validation training with early stopping also resumes: the checkpointed
/// metric history replays into the stopper and the combined history
/// matches the uninterrupted run exactly.
#[test]
fn validation_training_resumes_with_history() {
    let (ds, split) = fixture();
    let dir = scratch("validation");
    let path = dir.join("val.ckpt");

    let tc_full = TrainConfig {
        epochs: 4,
        ..TrainConfig::tiny()
    };
    let mut reference = Mgbr::new(MgbrConfig::tiny(), &ds);
    let (_, want_history) =
        train_with_validation(&mut reference, &ds, &split, &tc_full, 50, 0.0).unwrap();

    let tc_killed = TrainConfig {
        epochs: 2,
        ..tc_full.clone().with_checkpointing(&path, 1)
    };
    let mut victim = Mgbr::new(MgbrConfig::tiny(), &ds);
    train_with_validation(&mut victim, &ds, &split, &tc_killed, 50, 0.0).unwrap();

    let tc_resume = tc_full.with_checkpointing(&path, 1);
    let mut resumed = Mgbr::new(MgbrConfig::tiny(), &ds);
    let (report, history) =
        train_with_validation(&mut resumed, &ds, &split, &tc_resume, 50, 0.0).unwrap();

    assert_eq!(report.epoch_losses.len(), 2, "only epochs 2..4 re-run");
    let metrics = |h: &[mgbr_core::ValEntry]| h.iter().map(|e| e.metric).collect::<Vec<_>>();
    assert_eq!(
        metrics(&want_history),
        metrics(&history),
        "full metric curve must match bitwise"
    );
    // Provenance: the uninterrupted run evaluated everything itself; the
    // resumed run replayed epochs 0..2 from the checkpoint.
    assert!(want_history.iter().all(|e| !e.replayed));
    let replayed: Vec<bool> = history.iter().map(|e| e.replayed).collect();
    assert_eq!(replayed, vec![true, true, false, false]);
    assert_eq!(params_of(&reference), params_of(&resumed));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming under a different trajectory config must refuse loudly —
/// with a typed error a sweep can catch, not a panic.
#[test]
fn resume_with_mismatched_config_is_typed_error() {
    let (ds, split) = fixture();
    let dir = scratch("fingerprint");
    let path = dir.join("fp.ckpt");
    let tc = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny().with_checkpointing(&path, 1)
    };
    let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
    train(&mut model, &ds, &split, &tc).unwrap();

    let tc_other = TrainConfig {
        seed: tc.seed + 1,
        ..tc
    };
    let mut other = Mgbr::new(MgbrConfig::tiny(), &ds);
    let err = train(&mut other, &ds, &split, &tc_other).unwrap_err();
    assert!(matches!(err, TrainError::ConfigMismatch(_)), "{err}");
    assert!(err.to_string().contains("different TrainConfig"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Format property tests (in-memory, fault-injected via IoFault)
// ---------------------------------------------------------------------------

/// Builds a random store + train state from a seed.
fn random_store_and_state(seed: u64) -> (ParamStore, TrainState) {
    let mut rng = Pcg32::seed_from_u64(seed);
    let n_params = 1 + rng.below(4);
    let mut store = ParamStore::new();
    let mut m = Vec::new();
    let mut v = Vec::new();
    for i in 0..n_params {
        let rows = 1 + rng.below(8);
        let cols = 1 + rng.below(8);
        store.add(format!("p{i}.w"), rng.normal_tensor(rows, cols, 0.0, 1.0));
        if rng.below(2) == 0 {
            m.push(Some(rng.normal_tensor(rows, cols, 0.0, 0.1)));
            v.push(Some(rng.uniform_tensor(rows, cols, 0.0, 0.01)));
        } else {
            m.push(None);
            v.push(None);
        }
    }
    let mut state_rng = Pcg32::seed_from_u64(seed ^ 0xabcd);
    if rng.below(2) == 0 {
        let _ = state_rng.normal(); // park a Box-Muller spare
    }
    let state = TrainState {
        epoch: rng.below(100) as u64,
        step: rng.below(100_000) as u64,
        config_fingerprint: rng.next_u64(),
        rng: Some(state_rng.export_state()),
        val_history: (0..rng.below(6)).map(|i| 0.1 * i as f64).collect(),
        adam: Some(AdamState {
            t: rng.below(10_000) as u64,
            m,
            v,
        }),
    };
    (store, state)
}

fn store_bits(store: &ParamStore) -> Vec<Vec<u32>> {
    store
        .iter()
        .map(|(_, _, t)| t.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Clones a store's registration (names/shapes) with zeroed values.
fn blank_like(store: &ParamStore) -> ParamStore {
    let mut blank = ParamStore::new();
    for (_, name, t) in store.iter() {
        blank.add(name.to_string(), Tensor::zeros(t.rows(), t.cols()));
    }
    blank
}

#[test]
fn v2_roundtrip_is_bit_exact_for_random_stores() {
    for seed in 0..25u64 {
        let (store, state) = random_store_and_state(seed);
        let mut buf = Vec::new();
        save_checkpoint(&store, &state, &mut buf).unwrap();

        let mut restored = blank_like(&store);
        let loaded = load_checkpoint(&mut restored, buf.as_slice()).unwrap();
        assert_eq!(store_bits(&store), store_bits(&restored), "seed {seed}");
        assert_eq!(loaded.state, state, "seed {seed}");
    }
}

/// Offsets to probe: exhaustive for small buffers, strided (plus both
/// edges, where the header and CRC footer live) for large ones.
fn probe_offsets(len: usize, budget: usize) -> Vec<usize> {
    let stride = len.div_ceil(budget).max(1);
    let mut offs: Vec<usize> = (0..len).step_by(stride).collect();
    offs.extend((0..len.min(24)).chain(len.saturating_sub(24)..len));
    offs.sort_unstable();
    offs.dedup();
    offs
}

#[test]
fn any_truncation_fails_closed_without_mutating_store() {
    for seed in 0..5u64 {
        let (store, state) = random_store_and_state(seed);
        // Produce each truncated artifact through the fault-injection
        // writer — the writer "succeeds", the file is torn.
        let mut full = Vec::new();
        save_checkpoint(&store, &state, &mut full).unwrap();

        for cut in probe_offsets(full.len(), 512) {
            let mut sink = IoFault::new(Vec::new(), Fault::Truncate { at: cut as u64 });
            save_checkpoint(&store, &state, &mut sink).unwrap();
            let torn = sink.into_inner();
            assert_eq!(torn.len(), cut, "seed {seed}: tear at {cut}");

            let mut victim = blank_like(&store);
            let before = store_bits(&victim);
            let err = load_checkpoint(&mut victim, torn.as_slice())
                .expect_err("torn checkpoint must not load");
            assert!(
                matches!(
                    err,
                    CheckpointError::Format(_) | CheckpointError::Mismatch(_)
                ),
                "seed {seed}, cut {cut}: unexpected error class: {err}"
            );
            assert_eq!(
                before,
                store_bits(&victim),
                "seed {seed}, cut {cut}: failed load mutated the store"
            );
        }
    }
}

#[test]
fn any_single_bit_flip_fails_closed() {
    for seed in 0..3u64 {
        let (store, state) = random_store_and_state(seed);
        let mut full = Vec::new();
        save_checkpoint(&store, &state, &mut full).unwrap();

        // CRC-32 detects all single-bit errors; probe every bit at the
        // sampled offsets (headers, bodies, and the footer itself).
        for byte in probe_offsets(full.len(), 192) {
            for bit in 0..8u8 {
                let mut sink = IoFault::new(
                    Vec::new(),
                    Fault::BitFlip {
                        at: byte as u64,
                        bit,
                    },
                );
                save_checkpoint(&store, &state, &mut sink).unwrap();
                let corrupt = sink.into_inner();
                assert_ne!(corrupt, full, "fault writer must have flipped a bit");

                let mut victim = blank_like(&store);
                let before = store_bits(&victim);
                let err = load_checkpoint(&mut victim, corrupt.as_slice())
                    .expect_err("corrupt checkpoint must not load");
                assert!(
                    matches!(
                        err,
                        CheckpointError::Format(_) | CheckpointError::Mismatch(_)
                    ),
                    "seed {seed}, byte {byte}, bit {bit}: {err}"
                );
                assert_eq!(before, store_bits(&victim));
            }
        }
    }
}

#[test]
fn injected_write_error_surfaces_as_io() {
    let (store, state) = random_store_and_state(1);
    let mut sink = IoFault::new(Vec::new(), Fault::Error { at: 40 });
    let err = save_checkpoint(&store, &state, &mut sink).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    assert!(sink.fired());
}

/// A crash mid-save (simulated with the fault-injected writer producing a
/// torn temp file) leaves the previous good checkpoint loadable.
#[test]
fn prior_checkpoint_survives_torn_replacement_attempt() {
    let (store, state) = random_store_and_state(7);
    let dir = scratch("prior_survives");
    let path = dir.join("good.ckpt");
    save_checkpoint_atomic(&store, &state, &path).unwrap();

    // A later save crashes mid-write: all the atomic protocol leaves
    // behind is a torn `.tmp` — the real file is untouched.
    let mut sink = IoFault::new(Vec::new(), Fault::Truncate { at: 33 });
    save_checkpoint(&store, &state, &mut sink).unwrap();
    let tmp = dir.join("good.ckpt.tmp");
    std::fs::write(&tmp, sink.into_inner()).unwrap();

    let mut victim = blank_like(&store);
    let err = load_checkpoint_from_file(&mut victim, &tmp).unwrap_err();
    assert!(matches!(err, CheckpointError::Format(_)), "{err}");

    let loaded = load_checkpoint_from_file(&mut victim, &path).unwrap();
    assert_eq!(loaded.state, state);
    assert_eq!(store_bits(&store), store_bits(&victim));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Retired v1 format
// ---------------------------------------------------------------------------

/// Trainer resume demands a current checkpoint: pointing it at a file of
/// the retired v1 layout is a loud typed error, not a silent cold start.
#[test]
fn trainer_resume_from_v1_file_is_typed_error() {
    let (ds, split) = fixture();
    let dir = scratch("v1_resume");
    let path = dir.join("legacy.ckpt");

    // A v1 header (magic, version 1, parameter count) for exactly this
    // model's store.
    let model = Mgbr::new(MgbrConfig::tiny(), &ds);
    let mut v1 = b"MGBRCKPT".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&(model.store.len() as u32).to_le_bytes());
    std::fs::write(&path, v1).unwrap();

    let tc = TrainConfig {
        epochs: 1,
        ..TrainConfig::tiny().with_checkpointing(&path, 1)
    };
    let mut fresh = Mgbr::new(MgbrConfig::tiny(), &ds);
    let err = train(&mut fresh, &ds, &split, &tc).unwrap_err();
    assert!(
        matches!(err, TrainError::Checkpoint(CheckpointError::Format(_))),
        "{err}"
    );
    assert!(err.to_string().contains("unsupported version 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
