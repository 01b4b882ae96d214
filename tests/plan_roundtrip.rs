//! Plan-serialization integration suite.
//!
//! The execution-plan IR travels over two wire formats: the standalone
//! `MGBRPLAN` container ([`mgbr_plan::plan_to_bytes`]) and the plan
//! section embedded in `MGBRFRZN` v2 artifacts. This suite pins down
//! the two guarantees both must keep:
//!
//! 1. **Round-trip fidelity** — a decoded plan is structurally equal to
//!    the original *and* executes bit-identically on the tensor
//!    interpreter, for every ablation variant and for the fused serving
//!    plans (which exercise the `AffineAct` encoding).
//! 2. **Fail-closed loading** — any single corrupted byte and any
//!    truncation yields a typed [`CheckpointError`], never a malformed
//!    plan reaching the interpreter.

use mgbr_core::{FrozenModel, Mgbr, MgbrConfig, MgbrVariant};
use mgbr_data::{synthetic, SyntheticConfig};
use mgbr_nn::CheckpointError;
use mgbr_plan::{execute, plan_from_bytes, plan_to_bytes, Bindings, Plan, TensorBackend};
use mgbr_tensor::{Tensor, Workspace};

fn model(variant: MgbrVariant) -> Mgbr {
    let ds = synthetic::generate(&SyntheticConfig::tiny());
    Mgbr::new(MgbrConfig::tiny().with_variant(variant), &ds)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A deterministic dense probe tensor (no RNG: the values only need to
/// be varied, not random).
fn probe(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|k| ((k * 17 + salt * 29) % 23) as f32 / 23.0 - 0.5)
        .collect();
    Tensor::from_vec(rows, cols, data).unwrap()
}

/// Executes a scoring plan on the tensor interpreter against the frozen
/// model's parameters and returns the outputs' bit patterns.
fn run(plan: &Plan, frozen: &FrozenModel, inputs: &[&Tensor]) -> Vec<Vec<u32>> {
    let ws = Workspace::new();
    let params: Vec<&Tensor> = frozen.params().iter().collect();
    let bindings = Bindings::default();
    execute(plan, inputs, &params, TensorBackend::new(&ws, &bindings))
        .into_iter()
        .map(|t| bits(t.as_slice()))
        .collect()
}

#[test]
fn round_trip_is_bit_identical_for_every_variant() {
    for variant in MgbrVariant::all() {
        let frozen = model(variant).freeze();
        let obj = 2 * frozen.d();
        let (e_u, e_i, e_p) = (probe(4, obj, 0), probe(4, obj, 1), probe(4, obj, 2));
        let inputs = [&e_u, &e_i, &e_p];
        // The stored plan plus both derived serving plans; the latter
        // are affine-fused by default, covering the AffineAct encoding.
        for (tag, plan) in [
            ("stored", frozen.plan()),
            ("serve_a", frozen.serve_plan_a()),
            ("serve_b", frozen.serve_plan_b()),
        ] {
            let back = plan_from_bytes(&plan_to_bytes(plan))
                .unwrap_or_else(|e| panic!("{variant:?}/{tag} failed to round-trip: {e}"));
            assert_eq!(*plan, back, "{variant:?}/{tag} structural round-trip");
            assert_eq!(
                run(plan, &frozen, &inputs),
                run(&back, &frozen, &inputs),
                "{variant:?}/{tag} execution through bytes must be bit-identical"
            );
        }
    }
}

#[test]
fn every_corrupted_plan_byte_fails_closed() {
    let frozen = model(MgbrVariant::Full).freeze();
    let bytes = plan_to_bytes(frozen.plan());
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        match plan_from_bytes(&bad) {
            Err(CheckpointError::Format(_)) => {}
            Err(other) => panic!("byte {i}: expected Format error, got {other:?}"),
            Ok(_) => panic!("byte {i}: corrupted plan must not parse"),
        }
    }
}

#[test]
fn truncated_plans_fail_closed() {
    let frozen = model(MgbrVariant::Full).freeze();
    let bytes = plan_to_bytes(frozen.plan());
    for len in 0..bytes.len() {
        match plan_from_bytes(&bytes[..len]) {
            Err(CheckpointError::Format(_)) => {}
            Err(other) => panic!("prefix {len}: expected Format error, got {other:?}"),
            Ok(_) => panic!("prefix {len}: truncated plan must not parse"),
        }
    }
}

/// Corruption inside a v2 artifact's embedded plan section (or anywhere
/// else) is caught before a `FrozenModel` is handed out.
#[test]
fn corrupted_v2_artifacts_fail_closed() {
    let frozen = model(MgbrVariant::Full).freeze();
    let mut buf = Vec::new();
    frozen.save(&mut buf).unwrap();
    // Sample positions across the whole artifact — header, embeddings,
    // plan section, parameters, and the CRC footer.
    let step = (buf.len() / 97).max(1);
    for i in (0..buf.len()).step_by(step).chain([buf.len() - 1]) {
        let mut bad = buf.clone();
        bad[i] ^= 0xFF;
        assert!(
            matches!(
                FrozenModel::load(&bad[..]),
                Err(CheckpointError::Format(_) | CheckpointError::Mismatch(_))
            ),
            "byte {i}: corrupted artifact must fail closed"
        );
    }
    for len in (0..buf.len()).step_by(step) {
        assert!(
            matches!(
                FrozenModel::load(&buf[..len]),
                Err(CheckpointError::Format(_))
            ),
            "prefix {len}: truncated artifact must fail closed"
        );
    }
}
