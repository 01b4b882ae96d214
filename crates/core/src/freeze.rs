//! Frozen-model export: a tape-free, immutable snapshot of a trained
//! MGBR ready for online serving.
//!
//! [`Mgbr::freeze`] runs the three GCN views once and materializes the
//! final per-object representations (initiator, item and participant
//! embeddings, plus the precomputed Eq. 16 mean-participant row) next to
//! the model's **execution plan** — the very `mgbr_plan::Plan` the
//! trainer executes on the autograd tape — and the flat parameter list
//! backing its slots. Scoring runs that plan through the shared
//! interpreter on `mgbr-plan`'s pooled tensor backend with a
//! caller-provided [`Workspace`] — no autograd tape, no parameter
//! store, no hand-maintained replay of the forward, `Send + Sync`.
//!
//! **Parity guarantee.** Trainer and scorer execute the *same* op list
//! through the *same* interpreter; each interpreter backend realizes
//! each op with the same per-element arithmetic (same GEMM kernel, same
//! k-ascending expert mixing, same stable sigmoid/softmax formulas).
//! Scores are therefore **bitwise identical** to the training path at
//! any `MGBR_THREADS` setting — enforced by this module's tests and the
//! `serving_parity` golden suite. Because the whole scoring pipeline is
//! row-local (no op mixes information across batch rows), scoring
//! requests one-by-one, in chunks, or micro-batched yields identical
//! bits per request.
//!
//! **Serving-plan optimization.** At construction the two single-head
//! serving plans are derived from the stored plan: dead-slot pruning
//! drops the other head's ops, and (by default) the affine-fusion pass
//! folds `gemm → bias → activation` chains into single fused ops. Both
//! passes are bit-neutral — see [`FrozenModel::set_fused`] and the
//! fusion tests.
//!
//! ## Artifact format v2 (little-endian)
//!
//! ```text
//! magic   "MGBRFRZN"          8 bytes
//! version u32                 (2)
//! d u32, k u32                MTL width / experts per bank
//! variant_len u32, bytes      ablation label (UTF-8)
//! n_users u64, n_items u64
//! users / items / participants / mean_participant   shaped tensors
//! plan                        embedded execution plan (mgbr-plan encoding)
//! n_params u32; per param:    shaped tensor (canonical parameter order)
//! crc32 u32                   IEEE CRC-32 over every preceding byte
//! ```
//!
//! Shaped tensor = `rows u32, cols u32, rows·cols f32`. Saves go through
//! [`FrozenModel::save_atomic`] (tmp + fsync + rename, like checkpoint
//! v2); loads parse and CRC-verify the whole artifact before returning,
//! so truncated or bit-flipped files fail closed with a typed
//! [`CheckpointError`]. Any other version, including the retired
//! version 1 (per-module weight fields instead of an embedded plan), is
//! a typed [`CheckpointError::Format`].

use std::io::{self, Read, Write};
use std::path::Path;

use mgbr_nn::{CheckpointError, CrcReader, CrcWriter, StepCtx};
use mgbr_plan::{execute, Bindings, Plan, ShapeEnv, TensorBackend};
use mgbr_tensor::{Tensor, Workspace};

use crate::model::Mgbr;

const FROZEN_MAGIC: &[u8; 8] = b"MGBRFRZN";
const FROZEN_VERSION: u32 = 2;

/// Largest tensor side / element count accepted by the loader before
/// CRC verification (guards against allocating garbage sizes from a
/// corrupt header).
const MAX_DIM: u32 = 1 << 24;
const MAX_ELEMS: u64 = 1 << 28;
/// Parameter-count cap for v2 loads (64 MTL layers can't exceed this).
const MAX_PARAMS: u32 = 1 << 16;

/// An immutable, tape-free snapshot of a trained MGBR.
///
/// Construction: [`Mgbr::freeze`] or [`FrozenModel::load`]. Scoring
/// methods take a caller-owned [`Workspace`] (keep one per serving
/// thread); the model itself is shared freely (`Send + Sync`).
#[derive(Debug, Clone)]
pub struct FrozenModel {
    d: usize,
    k: usize,
    variant: String,
    n_users: usize,
    n_items: usize,
    users: Tensor,
    items: Tensor,
    participants: Tensor,
    mean_participant: Tensor,
    /// The full scoring plan (inputs `[e_u, e_i, e_p]`, outputs
    /// `[logit_a, logit_b]`) — what gets serialized.
    plan: Plan,
    /// Parameters backing `plan`'s slots, in canonical order.
    params: Vec<Tensor>,
    /// `plan` pruned to the Task-A head (optionally affine-fused).
    plan_a: Plan,
    /// `plan` pruned to the Task-B head (optionally affine-fused).
    plan_b: Plan,
    fused: bool,
}

impl Mgbr {
    /// Freezes the current parameters into a serving artifact: runs the
    /// embedding module once over the full graphs and snapshots the
    /// scoring plan together with the weights backing it.
    pub fn freeze(&self) -> FrozenModel {
        let ctx = StepCtx::new(&self.store);
        let emb = self.embeddings(&ctx);
        let users = emb.users.value();
        let items = emb.items.value();
        let participants = emb.participants.value();
        let mean_participant = participants.mean_rows();
        let params = self
            .score_param_ids
            .iter()
            .map(|&id| self.store.get(id).clone())
            .collect();
        FrozenModel::from_parts(
            self.cfg.d,
            self.cfg.n_experts,
            self.cfg.variant.label().to_string(),
            self.n_users(),
            self.n_items(),
            users,
            items,
            participants,
            mean_participant,
            self.score.plan.clone(),
            params,
        )
        .expect("a just-trained model must freeze consistently")
    }
}

// ---------------------------------------------------------------------------
// Workspace helpers (pure copies — parity-safe)
// ---------------------------------------------------------------------------

fn tile(ws: &Workspace, row: &[f32], n: usize) -> Tensor {
    let mut out = ws.take_tensor(n, row.len());
    for r in 0..n {
        out.row_mut(r).copy_from_slice(row);
    }
    out
}

fn gather(ws: &Workspace, src: &Tensor, idx: &[usize]) -> Tensor {
    let mut out = ws.take_tensor(idx.len(), src.cols());
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(src.row(i));
    }
    out
}

// ---------------------------------------------------------------------------
// Fold-in helpers (single-threaded scalar math — trivially bitwise
// deterministic at any thread count)
// ---------------------------------------------------------------------------

/// Deduplicates and ascending-sorts a fold-in anchor set, rejecting ids
/// outside the current row space.
fn normalize_neighbors(
    neighbors: &[usize],
    bound: usize,
    role: &str,
) -> Result<Vec<usize>, CheckpointError> {
    for &n in neighbors {
        if n >= bound {
            return Err(CheckpointError::Mismatch(format!(
                "fold-in anchor {role} {n} outside the current id space of {bound}"
            )));
        }
    }
    let mut sorted = neighbors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    Ok(sorted)
}

/// The closed-form solve `argmin_x Σ_{j∈anchors} ‖x − rows_j‖²`: the
/// mean of the anchor rows, accumulated in ascending-id order (f64
/// accumulator). Empty anchor set → global prior (mean over all rows).
fn solve_row(table: &Tensor, anchors: &[usize]) -> Vec<f32> {
    if anchors.is_empty() {
        return table.mean_rows().as_slice().to_vec();
    }
    let mut acc = vec![0.0f64; table.cols()];
    for &j in anchors {
        for (a, &x) in acc.iter_mut().zip(table.row(j)) {
            *a += f64::from(x);
        }
    }
    let inv = 1.0 / anchors.len() as f64;
    acc.into_iter().map(|a| (a * inv) as f32).collect()
}

/// Returns a copy of `table` with one extra row appended. Existing rows
/// are copied byte-for-byte — gathers over old ids read identical bits.
fn append_row(table: &Tensor, row: &[f32]) -> Tensor {
    let rows = table.rows();
    let mut out = Tensor::zeros(rows + 1, table.cols());
    out.as_mut_slice()[..rows * table.cols()].copy_from_slice(table.as_slice());
    out.row_mut(rows).copy_from_slice(row);
    out
}

impl FrozenModel {
    /// Assembles and validates a frozen model, deriving the per-head
    /// serving plans (affine-fused by default).
    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        d: usize,
        k: usize,
        variant: String,
        n_users: usize,
        n_items: usize,
        users: Tensor,
        items: Tensor,
        participants: Tensor,
        mean_participant: Tensor,
        plan: Plan,
        params: Vec<Tensor>,
    ) -> Result<Self, CheckpointError> {
        let mut model = Self {
            d,
            k,
            variant,
            n_users,
            n_items,
            users,
            items,
            participants,
            mean_participant,
            plan,
            params,
            plan_a: Plan::default(),
            plan_b: Plan::default(),
            fused: true,
        };
        model.validate()?;
        model.derive_serve_plans();
        Ok(model)
    }

    /// Rebuilds the per-head serving plans from the stored plan and the
    /// current `fused` setting.
    fn derive_serve_plans(&mut self) {
        let logit_a = self.plan.outputs[0];
        let logit_b = self.plan.outputs[1];
        let mut plan_a = self.plan.pruned(&[logit_a]);
        let mut plan_b = self.plan.pruned(&[logit_b]);
        if self.fused {
            plan_a = plan_a.fused_affine();
            plan_b = plan_b.fused_affine();
        }
        self.plan_a = plan_a;
        self.plan_b = plan_b;
    }

    /// Whether the serving plans run the affine-fusion pass (default
    /// `true`). Fusion is bit-neutral; the switch exists so tests and
    /// benchmarks can compare both modes.
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// Toggles affine fusion and re-derives the serving plans.
    pub fn set_fused(&mut self, fused: bool) {
        if self.fused != fused {
            self.fused = fused;
            self.derive_serve_plans();
        }
    }

    /// The full stored scoring plan (both heads, unfused).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The derived Task-A serving plan.
    pub fn serve_plan_a(&self) -> &Plan {
        &self.plan_a
    }

    /// The derived Task-B serving plan.
    pub fn serve_plan_b(&self) -> &Plan {
        &self.plan_b
    }

    /// MTL width `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Experts per bank `K`.
    pub fn n_experts(&self) -> usize {
        self.k
    }

    /// `|U|` the model was built for (user and participant id space).
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// `|I|` the model was built for.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The ablation-variant label the model was trained as.
    pub fn variant(&self) -> &str {
        &self.variant
    }

    /// The flat parameter tensors, in the plan's canonical order.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// The frozen per-item representations (`|I| × 2d`): row `i` is
    /// item `i`'s serving embedding — the coarse-quantizer input for
    /// `mgbr-serve`'s pruned retrieval index.
    pub fn item_embeddings(&self) -> &Tensor {
        &self.items
    }

    /// The frozen per-user (initiator) representations (`|U| × 2d`).
    pub fn user_embeddings(&self) -> &Tensor {
        &self.users
    }

    /// The frozen per-participant representations (`|U| × 2d`).
    pub fn participant_embeddings(&self) -> &Tensor {
        &self.participants
    }

    /// Task A logits `MLP_A(g_A^L)` for one initiator over a candidate
    /// item list (Eq. 16 pre-sigmoid; σ is monotone, ranking is
    /// identical). `e_p` is the precomputed mean participant embedding.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or an empty candidate list (workspace
    /// convention: shape errors are programming errors — `mgbr-serve`
    /// validates and returns typed errors instead).
    pub fn logits_a(&self, ws: &Workspace, user: usize, items: &[usize]) -> Vec<f32> {
        assert!(!items.is_empty(), "logits_a: empty candidate list");
        let n = items.len();
        let e_u = tile(ws, self.users.row(user), n);
        let e_i = gather(ws, &self.items, items);
        let e_p = tile(ws, self.mean_participant.row(0), n);
        self.run_head(ws, &self.plan_a, e_u, e_i, e_p)
    }

    /// Task B logits `MLP_B(g_B^L)` for one `(u, i)` context over a
    /// candidate participant list (Eq. 17 pre-sigmoid).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or an empty candidate list.
    pub fn logits_b(
        &self,
        ws: &Workspace,
        user: usize,
        item: usize,
        participants: &[usize],
    ) -> Vec<f32> {
        assert!(!participants.is_empty(), "logits_b: empty candidate list");
        let n = participants.len();
        let e_u = tile(ws, self.users.row(user), n);
        let e_i = tile(ws, self.items.row(item), n);
        let e_p = gather(ws, &self.participants, participants);
        self.run_head(ws, &self.plan_b, e_u, e_i, e_p)
    }

    /// Task A logits for a batch of independent `(user, item)` pairs —
    /// the micro-batching entry point. Row-locality makes the result
    /// bitwise identical to scoring each pair alone.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or an empty batch.
    pub fn logits_a_pairs(&self, ws: &Workspace, pairs: &[(usize, usize)]) -> Vec<f32> {
        assert!(!pairs.is_empty(), "logits_a_pairs: empty batch");
        let users: Vec<usize> = pairs.iter().map(|&(u, _)| u).collect();
        let items: Vec<usize> = pairs.iter().map(|&(_, i)| i).collect();
        let e_u = gather(ws, &self.users, &users);
        let e_i = gather(ws, &self.items, &items);
        let e_p = tile(ws, self.mean_participant.row(0), pairs.len());
        self.run_head(ws, &self.plan_a, e_u, e_i, e_p)
    }

    /// Task B logits for a batch of independent `(user, item,
    /// participant)` triples.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or an empty batch.
    pub fn logits_b_triples(&self, ws: &Workspace, triples: &[(usize, usize, usize)]) -> Vec<f32> {
        assert!(!triples.is_empty(), "logits_b_triples: empty batch");
        let users: Vec<usize> = triples.iter().map(|&(u, _, _)| u).collect();
        let items: Vec<usize> = triples.iter().map(|&(_, i, _)| i).collect();
        let parts: Vec<usize> = triples.iter().map(|&(_, _, p)| p).collect();
        let e_u = gather(ws, &self.users, &users);
        let e_i = gather(ws, &self.items, &items);
        let e_p = gather(ws, &self.participants, &parts);
        self.run_head(ws, &self.plan_b, e_u, e_i, e_p)
    }

    // -----------------------------------------------------------------
    // Cold-start fold-in: id-space growth with frozen parameters
    // -----------------------------------------------------------------

    /// Folds a cold user into the artifact and returns its new id
    /// (`= n_users` before the call; the id spaces grow densely).
    ///
    /// The fold-in is a fixed-graph embedding solve: every model
    /// parameter and every existing row is frozen, and the new row `x`
    /// minimizes the Laplacian-smoothing objective over the entity's
    /// observed edges, `min_x Σ_{j∈N} ‖x − E_j‖²`, whose unique
    /// minimizer is the arithmetic mean of the anchor rows `E_j`
    /// (`N` = same-role neighbors observed co-grouping with the cold
    /// user). With no observed edges yet, the solve degenerates to the
    /// global prior — the mean over all existing rows.
    ///
    /// Users live in two role tensors (initiator and participant); both
    /// get a row, each solved against the same neighbor set in its own
    /// role space. The stored `mean_participant` row is **not**
    /// recomputed: it is part of the frozen Task-A forward, and leaving
    /// its bytes untouched is what keeps every pre-existing entity's
    /// scores bitwise unchanged (pinned by `tests/online_loop.rs`).
    ///
    /// Deterministic: neighbors are deduplicated and accumulated in
    /// ascending-id order, single-threaded — identical bits at any
    /// `MGBR_THREADS` setting.
    pub fn fold_in_user(&mut self, neighbors: &[usize]) -> Result<usize, CheckpointError> {
        let anchors = normalize_neighbors(neighbors, self.n_users, "user")?;
        let user_row = solve_row(&self.users, &anchors);
        let part_row = solve_row(&self.participants, &anchors);
        self.users = append_row(&self.users, &user_row);
        self.participants = append_row(&self.participants, &part_row);
        self.n_users += 1;
        Ok(self.n_users - 1)
    }

    /// Folds a cold item into the artifact and returns its new id
    /// (`= n_items` before the call). Same solve as
    /// [`Self::fold_in_user`] with item-space anchors (items
    /// co-interacted by the cold item's observed buyers).
    pub fn fold_in_item(&mut self, neighbors: &[usize]) -> Result<usize, CheckpointError> {
        let anchors = normalize_neighbors(neighbors, self.n_items, "item")?;
        let item_row = solve_row(&self.items, &anchors);
        self.items = append_row(&self.items, &item_row);
        self.n_items += 1;
        Ok(self.n_items - 1)
    }

    /// Batch fold-in: applies [`Self::fold_in_user`] sequentially, so a
    /// later request may anchor on an id folded in earlier in the same
    /// batch. Fails atomically per request: on error, requests before
    /// the offender are already applied (ids in the returned error are
    /// unchanged by the failed request).
    pub fn fold_in_users(&mut self, batch: &[Vec<usize>]) -> Result<Vec<usize>, CheckpointError> {
        batch.iter().map(|n| self.fold_in_user(n)).collect()
    }

    /// Batch fold-in for items; see [`Self::fold_in_users`].
    pub fn fold_in_items(&mut self, batch: &[Vec<usize>]) -> Result<Vec<usize>, CheckpointError> {
        batch.iter().map(|n| self.fold_in_item(n)).collect()
    }

    /// Executes a serving plan on the pooled tensor backend and returns
    /// the head logits. Input tiles are recycled here; intermediates are
    /// recycled by the interpreter's retirement schedule.
    fn run_head(
        &self,
        ws: &Workspace,
        plan: &Plan,
        e_u: Tensor,
        e_i: Tensor,
        e_p: Tensor,
    ) -> Vec<f32> {
        let params: Vec<&Tensor> = self.params.iter().collect();
        let bindings = Bindings::default();
        let outs = execute(
            plan,
            &[&e_u, &e_i, &e_p],
            &params,
            TensorBackend::new(ws, &bindings),
        );
        ws.recycle_tensor(e_u);
        ws.recycle_tensor(e_i);
        ws.recycle_tensor(e_p);
        let mut outs = outs.into_iter();
        let logit = outs.next().expect("serving plan returns the head logit");
        let v = logit.as_slice().to_vec();
        ws.recycle_tensor(logit);
        v
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn put_tensor<W: Write>(w: &mut CrcWriter<W>, t: &Tensor) -> Result<(), CheckpointError> {
    w.put_u32(t.rows() as u32)?;
    w.put_u32(t.cols() as u32)?;
    w.put_tensor_data(t)
}

fn take_tensor<R: Read>(r: &mut CrcReader<R>) -> Result<Tensor, CheckpointError> {
    let rows = r.take_u32()?;
    let cols = r.take_u32()?;
    if rows == 0 || cols == 0 || rows > MAX_DIM || cols > MAX_DIM {
        return Err(CheckpointError::Format(format!(
            "implausible frozen tensor shape [{rows}x{cols}]"
        )));
    }
    if u64::from(rows) * u64::from(cols) > MAX_ELEMS {
        return Err(CheckpointError::Format(format!(
            "frozen tensor [{rows}x{cols}] exceeds the element cap"
        )));
    }
    r.take_tensor(rows as usize, cols as usize)
}

impl FrozenModel {
    /// Serializes the artifact (body + CRC-32 footer) to `writer`.
    pub fn save<W: Write>(&self, writer: W) -> Result<(), CheckpointError> {
        let mut w = CrcWriter::new(writer);
        w.put(FROZEN_MAGIC)?;
        w.put_u32(FROZEN_VERSION)?;
        w.put_u32(self.d as u32)?;
        w.put_u32(self.k as u32)?;
        w.put_u32(self.variant.len() as u32)?;
        w.put(self.variant.as_bytes())?;
        w.put_u64(self.n_users as u64)?;
        w.put_u64(self.n_items as u64)?;
        put_tensor(&mut w, &self.users)?;
        put_tensor(&mut w, &self.items)?;
        put_tensor(&mut w, &self.participants)?;
        put_tensor(&mut w, &self.mean_participant)?;
        mgbr_plan::put_plan(&mut w, &self.plan)?;
        w.put_u32(self.params.len() as u32)?;
        for p in &self.params {
            put_tensor(&mut w, p)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Atomically saves the artifact to `path` (temp file + fsync +
    /// rename), so a crash mid-save never clobbers a previous good
    /// artifact.
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let result = (|| -> Result<(), CheckpointError> {
            let file = std::fs::File::create(&tmp)?;
            let mut writer = io::BufWriter::new(file);
            self.save(&mut writer)?;
            writer.flush()?;
            writer.get_ref().sync_all()?;
            Ok(())
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                std::fs::File::open(".")
            } else {
                std::fs::File::open(parent)
            };
            if let Ok(dir) = dir {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Parses and CRC-verifies a frozen artifact (version 2). The whole
    /// file is validated before anything is returned — corrupt,
    /// truncated or other-version artifacts fail closed with a typed
    /// error.
    pub fn load<R: Read>(reader: R) -> Result<Self, CheckpointError> {
        let mut r = CrcReader::new(reader);
        let mut magic = [0u8; 8];
        r.take(&mut magic)?;
        if &magic != FROZEN_MAGIC {
            return Err(CheckpointError::Format(
                "not a frozen-model artifact (bad magic)".into(),
            ));
        }
        let version = r.take_u32()?;
        match version {
            FROZEN_VERSION => load_v2(r),
            v => Err(CheckpointError::Format(format!(
                "unsupported frozen-artifact version {v}"
            ))),
        }
    }

    /// Loads a frozen artifact from a file path.
    pub fn load_from_file(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let file = std::fs::File::open(path)?;
        Self::load(io::BufReader::new(file))
    }

    /// Cross-field consistency checks (CRC already guarantees the bytes
    /// are what was written; this guards against semantically broken
    /// artifacts produced by a different writer). The plan is
    /// shape-checked end to end: executed on a one-row batch it must
    /// produce scalar logits for both heads.
    ///
    /// Runs automatically on [`FrozenModel::load`]; public so serving
    /// hot-swap can re-validate a candidate artifact (whatever its
    /// origin) before publishing it to workers.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        let obj = self.users.cols();
        let same_width = self.items.cols() == obj
            && self.participants.cols() == obj
            && self.mean_participant.cols() == obj
            && self.mean_participant.rows() == 1;
        if !same_width {
            return Err(CheckpointError::Mismatch(
                "frozen embedding matrices disagree on object width".into(),
            ));
        }
        if self.users.rows() != self.n_users
            || self.items.rows() != self.n_items
            || self.participants.rows() != self.n_users
        {
            return Err(CheckpointError::Mismatch(
                "frozen embedding row counts disagree with declared id spaces".into(),
            ));
        }
        if self.plan.inputs.len() != 3 || self.plan.outputs.len() != 2 {
            return Err(CheckpointError::Mismatch(format!(
                "frozen plan has {} inputs / {} outputs, expected 3 / 2",
                self.plan.inputs.len(),
                self.plan.outputs.len()
            )));
        }
        if self.params.len() != self.plan.params.len() {
            return Err(CheckpointError::Mismatch(format!(
                "frozen plan declares {} parameter slots but {} tensors are stored",
                self.plan.params.len(),
                self.params.len()
            )));
        }
        let env = ShapeEnv {
            inputs: vec![(1, obj); 3],
            params: self.params.iter().map(|p| (p.rows(), p.cols())).collect(),
            ..ShapeEnv::default()
        };
        let shapes = self
            .plan
            .infer_shapes(&env)
            .map_err(|e| CheckpointError::Mismatch(format!("frozen plan shape check: {e}")))?;
        for (&out, head) in self.plan.outputs.iter().zip(["A", "B"]) {
            match shapes[out.index()] {
                Some((1, 1)) => {}
                other => {
                    return Err(CheckpointError::Mismatch(format!(
                        "head {head} logit has shape {other:?}, expected (1, 1)"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Reads the v2 body (after magic + version).
fn load_v2<R: Read>(mut r: CrcReader<R>) -> Result<FrozenModel, CheckpointError> {
    let d = r.take_u32()? as usize;
    let k = r.take_u32()? as usize;
    if d == 0 || d > MAX_DIM as usize || k == 0 || k > 4096 {
        return Err(CheckpointError::Format(format!(
            "implausible model dims d={d} k={k}"
        )));
    }
    let variant = take_variant(&mut r)?;
    let n_users = usize::try_from(r.take_u64()?)
        .map_err(|_| CheckpointError::Format("n_users overflows usize".into()))?;
    let n_items = usize::try_from(r.take_u64()?)
        .map_err(|_| CheckpointError::Format("n_items overflows usize".into()))?;
    let users = take_tensor(&mut r)?;
    let items = take_tensor(&mut r)?;
    let participants = take_tensor(&mut r)?;
    let mean_participant = take_tensor(&mut r)?;
    let plan = mgbr_plan::take_plan(&mut r)?;
    let n_params = r.take_u32()?;
    if n_params > MAX_PARAMS {
        return Err(CheckpointError::Format(format!(
            "implausible parameter count {n_params}"
        )));
    }
    let params = (0..n_params)
        .map(|_| take_tensor(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    r.verify_crc()?;
    FrozenModel::from_parts(
        d,
        k,
        variant,
        n_users,
        n_items,
        users,
        items,
        participants,
        mean_participant,
        plan,
        params,
    )
}

fn take_variant<R: Read>(r: &mut CrcReader<R>) -> Result<String, CheckpointError> {
    let variant_len = r.take_u32()?;
    if variant_len > 256 {
        return Err(CheckpointError::Format(format!(
            "implausible variant-label length {variant_len}"
        )));
    }
    let mut variant_bytes = vec![0u8; variant_len as usize];
    r.take(&mut variant_bytes)?;
    String::from_utf8(variant_bytes)
        .map_err(|_| CheckpointError::Format("variant label is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MgbrConfig, MgbrVariant};
    use mgbr_data::{synthetic, SyntheticConfig};
    use mgbr_eval::GroupBuyScorer;

    fn model(variant: MgbrVariant) -> Mgbr {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        Mgbr::new(MgbrConfig::tiny().with_variant(variant), &ds)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn frozen_scores_match_training_scorer_bitwise_all_variants() {
        for variant in MgbrVariant::all() {
            let m = model(variant);
            let scorer = m.scorer();
            let frozen = m.freeze();
            let ws = Workspace::new();
            let items: Vec<u32> = (0..12).collect();
            let idx: Vec<usize> = items.iter().map(|&i| i as usize).collect();
            for user in [0usize, 3, 7] {
                assert_eq!(
                    bits(&frozen.logits_a(&ws, user, &idx)),
                    bits(&scorer.score_items(user as u32, &items)),
                    "{variant:?} task A user {user}"
                );
            }
            let parts: Vec<u32> = (1..9).collect();
            let pidx: Vec<usize> = parts.iter().map(|&p| p as usize).collect();
            assert_eq!(
                bits(&frozen.logits_b(&ws, 2, 4, &pidx)),
                bits(&scorer.score_participants(2, 4, &parts)),
                "{variant:?} task B"
            );
        }
    }

    #[test]
    fn fused_and_unfused_serving_plans_agree_bitwise() {
        for variant in MgbrVariant::all() {
            let m = model(variant);
            let fused = m.freeze();
            assert!(fused.fused(), "serving plans fuse by default");
            let mut unfused = fused.clone();
            unfused.set_fused(false);
            assert!(
                unfused.serve_plan_a().ops.len() > fused.serve_plan_a().ops.len(),
                "{variant:?}: fusion must shrink the op list"
            );
            let ws = Workspace::new();
            let idx: Vec<usize> = (0..10).collect();
            for user in [0usize, 5] {
                assert_eq!(
                    bits(&fused.logits_a(&ws, user, &idx)),
                    bits(&unfused.logits_a(&ws, user, &idx)),
                    "{variant:?} task A user {user}"
                );
            }
            assert_eq!(
                bits(&fused.logits_b(&ws, 1, 2, &idx[1..])),
                bits(&unfused.logits_b(&ws, 1, 2, &idx[1..])),
                "{variant:?} task B"
            );
        }
    }

    #[test]
    fn workspace_reuse_does_not_change_scores() {
        // Same workspace across many calls (buffers recycled and
        // re-drawn) must give identical bits to a fresh workspace.
        let m = model(MgbrVariant::Full);
        let frozen = m.freeze();
        let shared_ws = Workspace::new();
        let idx: Vec<usize> = (0..10).collect();
        let first = frozen.logits_a(&shared_ws, 1, &idx);
        for _ in 0..5 {
            let _ = frozen.logits_b(&shared_ws, 0, 0, &[1, 2, 3]);
            assert_eq!(bits(&frozen.logits_a(&shared_ws, 1, &idx)), bits(&first));
        }
        let fresh = Workspace::new();
        assert_eq!(bits(&frozen.logits_a(&fresh, 1, &idx)), bits(&first));
    }

    #[test]
    fn batched_pairs_match_one_by_one() {
        let m = model(MgbrVariant::Full);
        let frozen = m.freeze();
        let ws = Workspace::new();
        let pairs: Vec<(usize, usize)> = vec![(0, 5), (3, 1), (7, 9), (2, 2)];
        let batched = frozen.logits_a_pairs(&ws, &pairs);
        for (r, &(u, i)) in pairs.iter().enumerate() {
            let single = frozen.logits_a_pairs(&ws, &[(u, i)]);
            assert_eq!(batched[r].to_bits(), single[0].to_bits(), "row {r}");
        }
        let triples: Vec<(usize, usize, usize)> = vec![(0, 5, 1), (3, 1, 2), (7, 9, 4)];
        let batched_b = frozen.logits_b_triples(&ws, &triples);
        for (r, &t) in triples.iter().enumerate() {
            let single = frozen.logits_b_triples(&ws, &[t]);
            assert_eq!(batched_b[r].to_bits(), single[0].to_bits(), "row {r}");
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_scores_bitwise() {
        let m = model(MgbrVariant::Full);
        let frozen = m.freeze();
        let mut buf = Vec::new();
        frozen.save(&mut buf).unwrap();
        let loaded = FrozenModel::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.variant(), frozen.variant());
        assert_eq!(loaded.n_users(), frozen.n_users());
        assert_eq!(loaded.n_items(), frozen.n_items());
        assert_eq!(loaded.plan(), frozen.plan(), "the stored plan round-trips");
        let ws = Workspace::new();
        let idx: Vec<usize> = (0..8).collect();
        assert_eq!(
            bits(&loaded.logits_a(&ws, 2, &idx)),
            bits(&frozen.logits_a(&ws, 2, &idx))
        );
        assert_eq!(
            bits(&loaded.logits_b(&ws, 2, 3, &idx[1..])),
            bits(&frozen.logits_b(&ws, 2, 3, &idx[1..]))
        );
    }

    #[test]
    fn atomic_save_then_file_load_roundtrips() {
        let m = model(MgbrVariant::NoShared);
        let frozen = m.freeze();
        let dir = std::env::temp_dir().join(format!("mgbr_frozen_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frozen");
        frozen.save_atomic(&path).unwrap();
        let loaded = FrozenModel::load_from_file(&path).unwrap();
        let ws = Workspace::new();
        assert_eq!(
            bits(&loaded.logits_a(&ws, 0, &[0, 1, 2])),
            bits(&frozen.logits_a(&ws, 0, &[0, 1, 2]))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_artifacts_fail_closed() {
        let m = model(MgbrVariant::Full);
        let frozen = m.freeze();
        let mut buf = Vec::new();
        frozen.save(&mut buf).unwrap();

        // Truncation at several depths.
        for cut in [4usize, 20, buf.len() / 2, buf.len() - 1] {
            let err = FrozenModel::load(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(_)),
                "cut={cut} gave {err:?}"
            );
        }
        // A single bit flip deep in the tensor payload trips the CRC.
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(FrozenModel::load(flipped.as_slice()).is_err());
        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            FrozenModel::load(bad.as_slice()),
            Err(CheckpointError::Format(_))
        ));
        // Unsupported versions, the retired version 1 included.
        for version in [1u32, 99] {
            let mut other = buf.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            let err = FrozenModel::load(other.as_slice()).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Format(m)
                    if m.contains(&format!("unsupported frozen-artifact version {version}"))),
                "version {version}: {err:?}"
            );
        }
    }

    #[test]
    fn fold_in_grows_id_spaces_and_leaves_existing_scores_bitwise() {
        let m = model(MgbrVariant::Full);
        let base = m.freeze();
        let mut grown = base.clone();
        let (nu, ni) = (base.n_users(), base.n_items());
        let new_user = grown.fold_in_user(&[0, 3, 7]).unwrap();
        let new_item = grown.fold_in_item(&[1, 4]).unwrap();
        assert_eq!(new_user, nu);
        assert_eq!(new_item, ni);
        assert_eq!(grown.n_users(), nu + 1);
        assert_eq!(grown.n_items(), ni + 1);
        grown.validate().expect("grown artifact stays consistent");

        // Every pre-existing score is bitwise untouched.
        let ws = Workspace::new();
        let idx: Vec<usize> = (0..ni.min(10)).collect();
        for user in [0usize, 3, nu - 1] {
            assert_eq!(
                bits(&grown.logits_a(&ws, user, &idx)),
                bits(&base.logits_a(&ws, user, &idx)),
                "task A user {user}"
            );
        }
        assert_eq!(
            bits(&grown.logits_b(&ws, 2, 4, &idx[1..])),
            bits(&base.logits_b(&ws, 2, 4, &idx[1..]))
        );

        // The folded-in entities are servable.
        assert_eq!(grown.logits_a(&ws, new_user, &idx).len(), idx.len());
        assert_eq!(grown.logits_a(&ws, 0, &[new_item]).len(), 1);
        assert_eq!(grown.logits_b(&ws, 0, 0, &[new_user]).len(), 1);
    }

    #[test]
    fn fold_in_solve_is_the_anchor_mean_and_deterministic() {
        let m = model(MgbrVariant::Full);
        let mut a = m.freeze();
        let mut b = a.clone();
        // Anchor order and duplicates must not matter.
        let ua = a.fold_in_user(&[7, 0, 3, 3]).unwrap();
        let ub = b.fold_in_user(&[0, 3, 7]).unwrap();
        assert_eq!(ua, ub);
        assert_eq!(
            a.user_embeddings().row(ua),
            b.user_embeddings().row(ub),
            "solve must be order/duplicate invariant"
        );
        // And it is the arithmetic mean of the anchor rows.
        let anchors = [0usize, 3, 7];
        let expect: Vec<f32> = (0..a.user_embeddings().cols())
            .map(|c| {
                let s: f64 = anchors
                    .iter()
                    .map(|&j| f64::from(m.freeze().user_embeddings().row(j)[c]))
                    .sum();
                (s / anchors.len() as f64) as f32
            })
            .collect();
        assert_eq!(a.user_embeddings().row(ua), expect.as_slice());
    }

    #[test]
    fn fold_in_with_no_edges_uses_the_global_prior() {
        let m = model(MgbrVariant::Full);
        let mut frozen = m.freeze();
        let prior = frozen.item_embeddings().mean_rows();
        let id = frozen.fold_in_item(&[]).unwrap();
        assert_eq!(frozen.item_embeddings().row(id), prior.as_slice());
    }

    #[test]
    fn fold_in_rejects_out_of_space_anchors_and_batches_apply_in_order() {
        let m = model(MgbrVariant::Full);
        let mut frozen = m.freeze();
        let nu = frozen.n_users();
        assert!(frozen.fold_in_user(&[nu]).is_err());
        assert_eq!(frozen.n_users(), nu, "failed fold-in must not grow");
        // A later batch entry may anchor on an earlier one's new id.
        let ids = frozen.fold_in_users(&[vec![0, 1], vec![nu]]).unwrap();
        assert_eq!(ids, vec![nu, nu + 1]);
        assert_eq!(
            frozen.user_embeddings().row(nu + 1),
            frozen.user_embeddings().row(nu),
            "single-anchor solve copies its anchor"
        );
    }

    #[test]
    fn grown_artifact_roundtrips_through_disk() {
        let m = model(MgbrVariant::Full);
        let mut frozen = m.freeze();
        let u = frozen.fold_in_user(&[0, 2]).unwrap();
        let _ = frozen.fold_in_item(&[5]).unwrap();
        let mut buf = Vec::new();
        frozen.save(&mut buf).unwrap();
        let loaded = FrozenModel::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.n_users(), frozen.n_users());
        assert_eq!(loaded.n_items(), frozen.n_items());
        let ws = Workspace::new();
        assert_eq!(
            bits(&loaded.logits_a(&ws, u, &[0, 1, 2])),
            bits(&frozen.logits_a(&ws, u, &[0, 1, 2]))
        );
    }

    #[test]
    fn frozen_mean_participant_is_precomputed_and_used() {
        // The artifact's mean row equals the mean of the participant
        // matrix, and Task A scoring consumes it (no per-call recompute
        // from the participant matrix is needed).
        let m = model(MgbrVariant::Full);
        let frozen = m.freeze();
        let expected = frozen.participants.mean_rows();
        assert_eq!(
            frozen.mean_participant.as_slice(),
            expected.as_slice(),
            "stored mean must equal mean_rows() of the stored matrix"
        );
    }
}
