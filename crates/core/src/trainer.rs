//! The MGBR training loop (§II-F): per-epoch negative resampling, joint
//! minibatch optimization of `L = L_A + β·L_B + β_A·L'_A + β_B·L'_B`
//! (Eq. 25) with Adam.
//!
//! ## Crash safety
//!
//! When [`TrainConfig::checkpoint_every`] is set, the loop writes an
//! atomic v2 checkpoint (parameters + Adam moments + RNG state + epoch
//! and step counters) at that epoch cadence; with
//! [`TrainConfig::resume`], a killed run picks up from the last
//! checkpoint and reaches **bitwise-identical** final parameters to an
//! uninterrupted run, at any thread count.
//!
//! ## Divergence recovery
//!
//! With [`TrainConfig::watchdog`] enabled (the default), every optimizer
//! step is screened for numerical anomalies — non-finite loss, a loss
//! spike against the rolling median, non-finite gradients or parameters —
//! and a triggered anomaly rolls the run back to the last good
//! epoch-boundary snapshot, shrinks the learning rate, re-seeds the batch
//! stream, and retries, up to `max_recoveries` times before failing
//! closed with [`TrainError::Diverged`]. See [`crate::watchdog`].

use mgbr_autograd::Tape;
use mgbr_data::{BatchIter, DataSplit, Dataset, Sampler, TaskAInstance, TaskBInstance};
use mgbr_eval::EpochTimer;
use mgbr_nn::checkpoint::{
    load_checkpoint_from_file, save_checkpoint_atomic, AdamState, MemorySnapshot, TrainState,
};
use mgbr_nn::{Adam, GradientSet, NumericFaultArm, Optimizer, ParamStore, StepCtx};
use mgbr_tensor::{configure_threads, Pcg32};

use crate::loss::{aux_a_loss, aux_b_loss, task_a_loss, task_b_loss, AuxSample};
use crate::watchdog::{AnomalyKind, AnomalyReport, TrainError, Watchdog};
use crate::{Mgbr, TrainConfig};

/// What one training run produced.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds per epoch (feeds Table V).
    pub epoch_secs: Vec<f64>,
    /// Trainable scalar count (feeds Table V).
    pub param_count: usize,
    /// Total optimizer steps taken across all epochs.
    pub steps: usize,
    /// Watchdog recoveries consumed (rollback + LR-backoff events).
    pub recoveries: usize,
    /// The anomalies that triggered those recoveries, in firing order.
    pub anomalies: Vec<AnomalyReport>,
}

impl TrainReport {
    /// An empty report for a run that executed zero epochs.
    fn empty(param_count: usize) -> Self {
        Self {
            epoch_losses: Vec::new(),
            epoch_secs: Vec::new(),
            param_count,
            steps: 0,
            recoveries: 0,
            anomalies: Vec::new(),
        }
    }

    /// Mean seconds per epoch.
    pub fn mean_epoch_secs(&self) -> f64 {
        if self.epoch_secs.is_empty() {
            0.0
        } else {
            self.epoch_secs.iter().sum::<f64>() / self.epoch_secs.len() as f64
        }
    }

    /// Optimizer steps per wall-clock second (0 if nothing was timed).
    pub fn steps_per_sec(&self) -> f64 {
        let total: f64 = self.epoch_secs.iter().sum();
        if total > 0.0 {
            self.steps as f64 / total
        } else {
            0.0
        }
    }
}

/// One validation epoch in the history returned by
/// [`train_with_validation`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValEntry {
    /// Epoch index (0-based, cumulative across resumes).
    pub epoch: usize,
    /// Validation metric: mean of Task A / Task B MRR@10.
    pub metric: f64,
    /// Whether this entry was replayed from a checkpoint on resume rather
    /// than evaluated by this process (provenance survives resumes).
    pub replayed: bool,
}

/// The raw metric curve of a validation history (what checkpoints store
/// and the early stopper consumes — provenance flags are process-local).
fn raw_metrics(history: &[ValEntry]) -> Vec<f64> {
    history.iter().map(|e| e.metric).collect()
}

/// Opens the flight recorder when configured. [`TrainConfig::trace_path`]
/// takes precedence over the `MGBR_TRACE` environment variable; with
/// neither set, returns `None` and training pays one atomic load per
/// instrumentation hook.
fn trace_session(tc: &TrainConfig) -> Result<Option<mgbr_obs::TraceSession>, TrainError> {
    let path = match &tc.trace_path {
        Some(p) => Some(p.clone()),
        None => std::env::var_os("MGBR_TRACE")
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from),
    };
    let Some(path) = path else {
        return Ok(None);
    };
    Ok(Some(mgbr_obs::trace_to(
        &path,
        mgbr_obs::TraceFormat::from_env(),
    )?))
}

/// Steps between journaled metrics snapshots while tracing
/// (`MGBR_METRICS_EVERY`; 0 — the default — snapshots at epoch
/// boundaries only).
fn metrics_every() -> usize {
    std::env::var("MGBR_METRICS_EVERY")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Journals a watchdog anomaly into the flight recorder (no-op when
/// tracing is off).
fn journal_anomaly(report: &AnomalyReport) {
    if !mgbr_obs::enabled() {
        return;
    }
    let mut e = mgbr_obs::event("watchdog.anomaly", "train")
        .arg("kind", report.kind.to_string())
        .arg("epoch", report.epoch as u64)
        .arg("step", report.step as u64)
        .arg("loss", report.loss)
        .arg("recoveries", report.recoveries as u64);
    if let Some(t) = &report.tensor {
        e = e.arg("tensor", t.as_str());
    }
    if let Some(i) = report.first_index {
        e = e.arg("first_index", i as u64);
    }
    drop(e);
}

/// Journals an epoch summary plus a metrics-registry snapshot (pool
/// gauges refreshed first). No-op when tracing is off.
fn journal_epoch(tape: &Tape, epoch: usize, loss: f32, epoch_steps: usize, recoveries: usize) {
    if !mgbr_obs::enabled() {
        return;
    }
    drop(
        mgbr_obs::event("epoch.summary", "train")
            .arg("epoch", epoch as u64)
            .arg("loss", loss)
            .arg("steps", epoch_steps as u64)
            .arg("recoveries", recoveries as u64),
    );
    let ps = tape.pool_stats();
    let reg = mgbr_obs::metrics();
    reg.gauge("pool.live_floats").set(ps.live_floats as i64);
    reg.gauge("pool.hwm_floats").raise_to(ps.hwm_floats as i64);
    reg.gauge("pool.hits").set(ps.hits as i64);
    reg.gauge("pool.misses").set(ps.misses as i64);
    mgbr_obs::emit_metrics("epoch");
}

/// One epoch's sampled training material.
struct EpochData {
    task_a: Vec<TaskAInstance>,
    task_b: Vec<TaskBInstance>,
    aux: Vec<AuxSample>,
}

fn sample_epoch(
    model: &Mgbr,
    full: &Dataset,
    split: &DataSplit,
    tc: &TrainConfig,
    seed: u64,
) -> EpochData {
    let mut sampler = Sampler::new(full, seed);
    let task_a = sampler.task_a_instances(&split.train, tc.n_neg);
    let task_b = sampler.task_b_instances(&split.train, tc.n_neg);
    let aux = if model.cfg.variant.has_aux_losses() {
        let t = model.cfg.t_size;
        let mut aux = Vec::new();
        for g in &split.train {
            for &p in &g.participants {
                let (ci, cp) = sampler.aux_corruptions(g.initiator, g.item, t);
                aux.push(AuxSample {
                    user: g.initiator,
                    item: g.item,
                    participant: p,
                    corrupt_items: ci,
                    corrupt_participants: cp,
                });
            }
        }
        aux
    } else {
        Vec::new()
    };
    EpochData {
        task_a,
        task_b,
        aux,
    }
}

/// The sampling seed for epoch `epoch`, continuous with the uninterrupted
/// schedule (epoch 0 — or every epoch without per-epoch resampling — uses
/// the base seed; later epochs offset it), so a resumed run regenerates
/// the identical epoch data.
fn epoch_data_seed(tc: &TrainConfig, epoch: usize) -> u64 {
    if tc.resample_per_epoch && epoch > 0 {
        tc.seed.wrapping_add(epoch as u64)
    } else {
        tc.seed
    }
}

/// Where a resumed run restarts.
struct ResumePoint {
    start_epoch: usize,
    steps: usize,
    val_history: Vec<f64>,
}

/// Loads `tc.checkpoint_path` if resuming is enabled and the file exists,
/// restoring parameters, optimizer moments, and RNG state in place.
///
/// # Errors
///
/// Returns [`TrainError::Checkpoint`] if the checkpoint is
/// unreadable, corrupt or of an unsupported version, and
/// [`TrainError::ConfigMismatch`] if it was written under a different
/// `TrainConfig` fingerprint. A corrupt checkpoint never partially
/// mutates the model: loads are transactional and CRC-verified.
fn try_resume(
    model: &mut Mgbr,
    tc: &TrainConfig,
    adam: &mut Adam,
    rng: &mut Pcg32,
) -> Result<Option<ResumePoint>, TrainError> {
    let Some(path) = tc.checkpoint_path.as_ref() else {
        return Ok(None);
    };
    if !tc.resume || !path.exists() {
        return Ok(None);
    }
    let state = load_checkpoint_from_file(&mut model.store, path)?.state;
    if state.config_fingerprint != tc.fingerprint() {
        return Err(TrainError::ConfigMismatch(format!(
            "cannot resume from {}: checkpoint was written under a different TrainConfig",
            path.display()
        )));
    }
    if let Some(r) = state.rng {
        *rng = Pcg32::from_state(r);
    }
    if let Some(a) = state.adam {
        adam.restore_moments(a.t, a.m, a.v);
    }
    Ok(Some(ResumePoint {
        start_epoch: state.epoch as usize,
        steps: state.step as usize,
        val_history: state.val_history,
    }))
}

/// Writes an atomic checkpoint if the cadence (or a forced final write)
/// says so. `epoch_done` counts completed epochs; `total_steps` is
/// cumulative across resumes.
#[allow(clippy::too_many_arguments)]
fn maybe_checkpoint(
    model: &Mgbr,
    tc: &TrainConfig,
    adam: &Adam,
    rng: &Pcg32,
    epoch_done: usize,
    total_steps: usize,
    val_history: &[f64],
    force: bool,
) -> Result<(), TrainError> {
    if tc.checkpoint_every == 0 {
        return Ok(());
    }
    let Some(path) = tc.checkpoint_path.as_ref() else {
        return Ok(());
    };
    if !force && epoch_done % tc.checkpoint_every != 0 && epoch_done != tc.epochs {
        return Ok(());
    }
    let (t, m, v) = adam.export_moments();
    let state = TrainState {
        epoch: epoch_done as u64,
        step: total_steps as u64,
        config_fingerprint: tc.fingerprint(),
        rng: Some(rng.export_state()),
        val_history: val_history.to_vec(),
        adam: Some(AdamState { t, m, v }),
    };
    save_checkpoint_atomic(&model.store, &state, path)?;
    drop(
        mgbr_obs::event("checkpoint.save", "train")
            .arg("epoch", epoch_done as u64)
            .arg("step", total_steps as u64)
            .arg("path", path.display().to_string()),
    );
    Ok(())
}

/// Name and first offending flat index of the first non-finite parameter.
fn first_non_finite_param(store: &ParamStore) -> Option<(String, usize)> {
    store
        .iter()
        .find_map(|(_, name, t)| t.first_non_finite().map(|i| (name.to_string(), i)))
}

/// Name and first offending flat index of the first non-finite gradient.
fn first_non_finite_grad(store: &ParamStore, grads: &GradientSet) -> Option<(String, usize)> {
    store.iter().find_map(|(id, name, _)| {
        grads
            .get(id)
            .and_then(|g| g.first_non_finite())
            .map(|i| (name.to_string(), i))
    })
}

/// The per-run recovery machinery: the anomaly monitor, the last good
/// epoch-boundary snapshot, and the rollback/backoff protocol.
struct RecoveryGuard {
    watchdog: Watchdog,
    recoveries: usize,
    anomalies: Vec<AnomalyReport>,
    snap: Option<MemorySnapshot>,
}

impl RecoveryGuard {
    fn new(watchdog: Watchdog) -> Self {
        Self {
            watchdog,
            recoveries: 0,
            anomalies: Vec::new(),
            snap: None,
        }
    }

    fn enabled(&self) -> bool {
        self.watchdog.config().enabled
    }

    /// Captures the epoch-boundary state recovery will roll back to:
    /// exactly what a v2 checkpoint at this boundary would hold.
    #[allow(clippy::too_many_arguments)]
    fn arm(
        &mut self,
        model: &Mgbr,
        tc: &TrainConfig,
        adam: &Adam,
        rng: &Pcg32,
        epoch: usize,
        total_steps: usize,
        val_history: &[f64],
    ) {
        if !self.enabled() {
            return;
        }
        let (t, m, v) = adam.export_moments();
        let state = TrainState {
            epoch: epoch as u64,
            step: total_steps as u64,
            config_fingerprint: tc.fingerprint(),
            rng: Some(rng.export_state()),
            val_history: val_history.to_vec(),
            adam: Some(AdamState { t, m, v }),
        };
        self.snap = Some(MemorySnapshot::capture(&model.store, state));
    }

    /// Rolls back to the armed snapshot, backs off the learning rate, and
    /// re-seeds the batch stream; fails closed with
    /// [`TrainError::Diverged`] once the recovery budget is spent (or the
    /// watchdog is disabled, or no snapshot was armed).
    fn recover(
        &mut self,
        model: &mut Mgbr,
        adam: &mut Adam,
        rng: &mut Pcg32,
        cur_lr: &mut f32,
        report: AnomalyReport,
    ) -> Result<(), TrainError> {
        let cfg = self.watchdog.config().clone();
        if !cfg.enabled || self.recoveries >= cfg.max_recoveries || self.snap.is_none() {
            return Err(TrainError::Diverged { report });
        }
        self.recoveries += 1;
        let snap = self.snap.as_ref().expect("checked above");
        snap.restore(&mut model.store)?;
        let state = snap.state();
        *cur_lr *= cfg.backoff;
        *adam = Adam::with_lr(*cur_lr);
        if let Some(a) = &state.adam {
            adam.restore_moments(a.t, a.m.clone(), a.v.clone());
        }
        if let Some(r) = state.rng {
            // Restore the boundary stream, then hop to a recovery-indexed
            // stream: the retry shuffles batches in a different order, so
            // the trajectory leaves the faulting step behind while staying
            // fully deterministic for a given recovery count.
            let hop = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.recoveries as u64);
            *rng = Pcg32::new(r.state.wrapping_add(hop), r.inc ^ self.recoveries as u64);
        }
        self.watchdog.reset();
        self.anomalies.push(report);
        Ok(())
    }
}

/// Trains `model` on the split's training partition.
///
/// `full` is the complete preprocessed dataset, used only to judge
/// negativity during sampling (never for gradients).
///
/// When checkpointing/resume is enabled (see [`TrainConfig`]), the
/// returned report covers only the epochs executed by *this* process; the
/// checkpoint's own counters stay cumulative across resumes. A zero-epoch
/// budget (or a resume already past the budget) returns an empty report.
///
/// # Errors
///
/// Returns [`TrainError::ConfigMismatch`] for an empty training
/// partition, inconsistent checkpoint settings, or an incompatible
/// checkpoint on disk; [`TrainError::Checkpoint`] when a checkpoint
/// cannot be written or read (corrupt files fail closed and never
/// partially restore); and [`TrainError::Diverged`] when training
/// diverges and the watchdog's recovery budget is exhausted (or the
/// watchdog is disabled).
pub fn train(
    model: &mut Mgbr,
    full: &Dataset,
    split: &DataSplit,
    tc: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    if split.train.is_empty() {
        return Err(TrainError::ConfigMismatch(
            "empty training partition".into(),
        ));
    }
    if tc.checkpoint_every > 0 && tc.checkpoint_path.is_none() {
        return Err(TrainError::ConfigMismatch(
            "checkpoint_every > 0 requires checkpoint_path".into(),
        ));
    }
    configure_threads(tc.threads);
    let _trace = trace_session(tc)?;
    let mut adam = Adam::with_lr(tc.lr);
    let mut cur_lr = tc.lr;
    let mut rng = Pcg32::seed_from_u64(tc.seed);
    let mut timer = EpochTimer::new();
    let mut epoch_losses = Vec::with_capacity(tc.epochs);
    let mut steps = 0usize;
    let mut start_epoch = 0usize;
    let mut prior_steps = 0usize;
    if let Some(rp) = try_resume(model, tc, &mut adam, &mut rng)? {
        start_epoch = rp.start_epoch;
        prior_steps = rp.steps;
    }
    drop(
        mgbr_obs::event("train.start", "train")
            .arg("epochs", tc.epochs as u64)
            .arg("start_epoch", start_epoch as u64)
            .arg("fingerprint", format!("{:016x}", tc.fingerprint())),
    );
    if start_epoch >= tc.epochs {
        return Ok(TrainReport::empty(model.param_count()));
    }
    let mut fault = tc.numeric_fault.map(NumericFaultArm::new);
    let mut guard = RecoveryGuard::new(Watchdog::new(tc.watchdog.clone().from_env()));
    guard.arm(model, tc, &adam, &rng, start_epoch, prior_steps, &[]);

    let mut data_seed = epoch_data_seed(tc, start_epoch);
    let mut data = sample_epoch(model, full, split, tc, data_seed);
    // One tape (and one buffer pool) for the whole run: every step resets
    // it and recycles storage, so steady-state steps allocate nothing.
    let tape = Tape::new();

    let mut epoch = start_epoch;
    while epoch < tc.epochs {
        let _epoch_span = mgbr_obs::span("epoch", "train").arg("epoch", epoch as u64);
        let want_seed = epoch_data_seed(tc, epoch);
        if want_seed != data_seed {
            data = sample_epoch(model, full, split, tc, want_seed);
            data_seed = want_seed;
        }
        if tc.adam_warm_restarts && epoch > 0 {
            adam = Adam::with_lr(cur_lr);
        }
        timer.start_epoch();
        let outcome = run_epoch(
            model,
            &tape,
            &data,
            tc,
            &mut adam,
            &mut rng,
            &mut guard,
            fault.as_mut(),
            prior_steps + steps,
            epoch,
        );
        match outcome {
            Ok((loss, epoch_steps)) => {
                timer.end_epoch();
                // End-of-epoch finiteness check — the only guard when the
                // watchdog is disabled (step-level checks subsume it
                // otherwise).
                if !guard.enabled() {
                    if let Some((tensor, idx)) = first_non_finite_param(&model.store) {
                        let report = AnomalyReport {
                            kind: AnomalyKind::NonFiniteParam,
                            epoch,
                            step: prior_steps + steps + epoch_steps,
                            loss,
                            tensor: Some(tensor),
                            first_index: Some(idx),
                            recoveries: guard.recoveries,
                        };
                        journal_anomaly(&report);
                        return Err(TrainError::Diverged { report });
                    }
                }
                epoch_losses.push(loss);
                steps += epoch_steps;
                journal_epoch(&tape, epoch, loss, epoch_steps, guard.recoveries);
                maybe_checkpoint(
                    model,
                    tc,
                    &adam,
                    &rng,
                    epoch + 1,
                    prior_steps + steps,
                    &[],
                    false,
                )?;
                epoch += 1;
                guard.arm(model, tc, &adam, &rng, epoch, prior_steps + steps, &[]);
            }
            Err(report) => {
                // Anomaly mid-epoch: roll back to the boundary snapshot
                // and retry this epoch at a reduced learning rate (the
                // epoch's partial loss/steps are discarded with it).
                journal_anomaly(&report);
                guard.recover(model, &mut adam, &mut rng, &mut cur_lr, report)?;
                drop(
                    mgbr_obs::event("watchdog.recover", "train")
                        .arg("recoveries", guard.recoveries as u64)
                        .arg("lr", cur_lr),
                );
            }
        }
    }
    Ok(TrainReport {
        epoch_losses,
        epoch_secs: timer.all().to_vec(),
        param_count: model.param_count(),
        steps,
        recoveries: guard.recoveries,
        anomalies: guard.anomalies,
    })
}

/// Trains with per-epoch validation and patience-based early stopping.
///
/// After every epoch the model is evaluated on the split's *validation*
/// partition (Task A + Task B MRR@10 on 1:9 candidate lists, averaged);
/// training stops once the metric fails to improve by `min_delta` for
/// `patience` consecutive epochs. Returns the report plus the per-epoch
/// validation history.
///
/// On resume, the early-stopping state is reconstructed by replaying the
/// checkpointed validation history, and the returned history covers the
/// full run — replayed entries are tagged [`ValEntry::replayed`] so their
/// provenance survives the resume; the report's losses cover only the
/// epochs this process executed.
///
/// # Errors
///
/// As for [`train`], plus [`TrainError::ConfigMismatch`] when the
/// validation partition is empty.
pub fn train_with_validation(
    model: &mut Mgbr,
    full: &Dataset,
    split: &DataSplit,
    tc: &TrainConfig,
    patience: usize,
    min_delta: f64,
) -> Result<(TrainReport, Vec<ValEntry>), TrainError> {
    if split.train.is_empty() {
        return Err(TrainError::ConfigMismatch(
            "empty training partition".into(),
        ));
    }
    if split.val.is_empty() {
        return Err(TrainError::ConfigMismatch(
            "empty validation partition".into(),
        ));
    }
    if tc.checkpoint_every > 0 && tc.checkpoint_path.is_none() {
        return Err(TrainError::ConfigMismatch(
            "checkpoint_every > 0 requires checkpoint_path".into(),
        ));
    }
    configure_threads(tc.threads);
    let _trace = trace_session(tc)?;
    let mut adam = Adam::with_lr(tc.lr);
    let mut cur_lr = tc.lr;
    let mut rng = Pcg32::seed_from_u64(tc.seed);
    let mut timer = EpochTimer::new();
    let mut epoch_losses = Vec::with_capacity(tc.epochs);
    let mut steps = 0usize;
    let mut history: Vec<ValEntry> = Vec::with_capacity(tc.epochs);
    let mut stopper = mgbr_nn::EarlyStopping::new(patience, min_delta);

    let mut start_epoch = 0usize;
    let mut prior_steps = 0usize;
    let mut already_stopped = false;
    if let Some(rp) = try_resume(model, tc, &mut adam, &mut rng)? {
        start_epoch = rp.start_epoch;
        prior_steps = rp.steps;
        // Replay the checkpointed metrics so patience counting continues
        // exactly where the interrupted run left off. Replayed entries
        // are tagged: this process did not evaluate them.
        for (epoch, &metric) in rp.val_history.iter().enumerate() {
            history.push(ValEntry {
                epoch,
                metric,
                replayed: true,
            });
            drop(
                mgbr_obs::event("val.metric", "train")
                    .arg("epoch", epoch as u64)
                    .arg("metric", metric)
                    .arg("replayed", true),
            );
            if stopper.update(epoch, metric) {
                already_stopped = true;
            }
        }
    }
    drop(
        mgbr_obs::event("train.start", "train")
            .arg("epochs", tc.epochs as u64)
            .arg("start_epoch", start_epoch as u64)
            .arg("fingerprint", format!("{:016x}", tc.fingerprint())),
    );
    if start_epoch >= tc.epochs || already_stopped {
        return Ok((TrainReport::empty(model.param_count()), history));
    }
    let mut fault = tc.numeric_fault.map(NumericFaultArm::new);
    let mut guard = RecoveryGuard::new(Watchdog::new(tc.watchdog.clone().from_env()));
    guard.arm(
        model,
        tc,
        &adam,
        &rng,
        start_epoch,
        prior_steps,
        &raw_metrics(&history),
    );

    // Fixed validation candidate lists across epochs.
    let mut val_sampler = Sampler::new(full, tc.seed ^ 0x5a11d);
    let val_a = val_sampler.task_a_instances(&split.val, 9);
    let val_b = val_sampler.task_b_instances(&split.val, 9);

    let mut data_seed = epoch_data_seed(tc, start_epoch);
    let mut data = sample_epoch(model, full, split, tc, data_seed);
    let tape = Tape::new();
    let mut epoch = start_epoch;
    while epoch < tc.epochs {
        let _epoch_span = mgbr_obs::span("epoch", "train").arg("epoch", epoch as u64);
        let want_seed = epoch_data_seed(tc, epoch);
        if want_seed != data_seed {
            data = sample_epoch(model, full, split, tc, want_seed);
            data_seed = want_seed;
        }
        if tc.adam_warm_restarts && epoch > 0 {
            adam = Adam::with_lr(cur_lr);
        }
        timer.start_epoch();
        let outcome = run_epoch(
            model,
            &tape,
            &data,
            tc,
            &mut adam,
            &mut rng,
            &mut guard,
            fault.as_mut(),
            prior_steps + steps,
            epoch,
        );
        match outcome {
            Ok((loss, epoch_steps)) => {
                timer.end_epoch();
                if !guard.enabled() {
                    if let Some((tensor, idx)) = first_non_finite_param(&model.store) {
                        let report = AnomalyReport {
                            kind: AnomalyKind::NonFiniteParam,
                            epoch,
                            step: prior_steps + steps + epoch_steps,
                            loss,
                            tensor: Some(tensor),
                            first_index: Some(idx),
                            recoveries: guard.recoveries,
                        };
                        journal_anomaly(&report);
                        return Err(TrainError::Diverged { report });
                    }
                }
                epoch_losses.push(loss);
                steps += epoch_steps;
                journal_epoch(&tape, epoch, loss, epoch_steps, guard.recoveries);

                let scorer = model.scorer();
                let ma = mgbr_eval::evaluate_task_a(&scorer, &val_a, 10);
                let mb = mgbr_eval::evaluate_task_b(&scorer, &val_b, 10);
                let metric = 0.5 * (ma.mrr + mb.mrr);
                history.push(ValEntry {
                    epoch,
                    metric,
                    replayed: false,
                });
                drop(
                    mgbr_obs::event("val.metric", "train")
                        .arg("epoch", epoch as u64)
                        .arg("metric", metric)
                        .arg("replayed", false),
                );
                let stop = stopper.update(epoch, metric);
                maybe_checkpoint(
                    model,
                    tc,
                    &adam,
                    &rng,
                    epoch + 1,
                    prior_steps + steps,
                    &raw_metrics(&history),
                    stop,
                )?;
                if stop {
                    break;
                }
                epoch += 1;
                guard.arm(
                    model,
                    tc,
                    &adam,
                    &rng,
                    epoch,
                    prior_steps + steps,
                    &raw_metrics(&history),
                );
            }
            Err(report) => {
                journal_anomaly(&report);
                guard.recover(model, &mut adam, &mut rng, &mut cur_lr, report)?;
                drop(
                    mgbr_obs::event("watchdog.recover", "train")
                        .arg("recoveries", guard.recoveries as u64)
                        .arg("lr", cur_lr),
                );
            }
        }
    }
    Ok((
        TrainReport {
            epoch_losses,
            epoch_secs: timer.all().to_vec(),
            param_count: model.param_count(),
            steps,
            recoveries: guard.recoveries,
            anomalies: guard.anomalies,
        },
        history,
    ))
}

/// Runs one epoch of optimization. `step_base` is the absolute
/// (cumulative) step count completed before this epoch; on an anomaly the
/// epoch aborts with the report and the caller decides recovery.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    model: &mut Mgbr,
    tape: &Tape,
    data: &EpochData,
    tc: &TrainConfig,
    adam: &mut Adam,
    rng: &mut Pcg32,
    guard: &mut RecoveryGuard,
    mut fault: Option<&mut NumericFaultArm>,
    step_base: usize,
    epoch: usize,
) -> Result<(f32, usize), AnomalyReport> {
    let cfg = model.cfg.clone();
    let use_aux = cfg.variant.has_aux_losses() && !data.aux.is_empty();

    let a_batches: Vec<Vec<usize>> =
        BatchIter::new(data.task_a.len(), tc.batch_size, rng).collect();
    let b_batches: Vec<Vec<usize>> =
        BatchIter::new(data.task_b.len(), tc.batch_size, rng).collect();
    let aux_batches: Vec<Vec<usize>> = if use_aux {
        BatchIter::new(data.aux.len(), tc.batch_size, rng).collect()
    } else {
        Vec::new()
    };
    let n_steps = a_batches.len().max(b_batches.len());
    debug_assert!(n_steps > 0, "no batches in epoch");
    let watchdog_on = guard.enabled();
    let recoveries = guard.recoveries;
    let report = |kind, step, loss, tensor, first_index| AnomalyReport {
        kind,
        epoch,
        step,
        loss,
        tensor,
        first_index,
        recoveries,
    };

    // Read the cadence knob once per epoch; zero (or tracing off) means
    // metrics snapshots only at epoch boundaries.
    let every = if mgbr_obs::enabled() {
        metrics_every()
    } else {
        0
    };
    let mut loss_sum = 0.0f64;
    for step in 0..n_steps {
        let abs_step = step_base + step;
        let _step_span = mgbr_obs::span("step", "train").arg("step", abs_step as u64);
        let batch_a: Vec<&TaskAInstance> = a_batches[step % a_batches.len()]
            .iter()
            .map(|&j| &data.task_a[j])
            .collect();
        let batch_b: Vec<&TaskBInstance> = if b_batches.is_empty() {
            Vec::new()
        } else {
            b_batches[step % b_batches.len()]
                .iter()
                .map(|&j| &data.task_b[j])
                .collect()
        };
        let batch_aux: Vec<&AuxSample> = if use_aux {
            aux_batches[step % aux_batches.len()]
                .iter()
                .map(|&j| &data.aux[j])
                .collect()
        } else {
            Vec::new()
        };

        let fwd = mgbr_obs::span("loss.forward", "train")
            .arg("batch_a", batch_a.len() as u64)
            .arg("batch_b", batch_b.len() as u64);
        let ctx = StepCtx::with_tape(tape, &model.store);
        let emb = model.embeddings(&ctx);
        let mean_p = emb.participants.mean_rows();

        // L = L_A + β L_B + β_A L'_A + β_B L'_B (Eq. 25).
        let mut total = task_a_loss(model, &ctx, &emb, &mean_p, &batch_a);
        if !batch_b.is_empty() {
            total = total.add(&task_b_loss(model, &ctx, &emb, &batch_b).scale(cfg.beta));
        }
        if !batch_aux.is_empty() {
            total = total.add(&aux_a_loss(model, &ctx, &emb, &batch_aux).scale(cfg.beta_a));
            total = total.add(&aux_b_loss(model, &ctx, &emb, &batch_aux).scale(cfg.beta_b));
        }
        let mut loss_val = total.value().scalar();
        drop(fwd);
        if let Some(arm) = fault.as_deref_mut() {
            loss_val = arm.tamper_loss(abs_step, loss_val);
        }
        if let Some(kind) = guard.watchdog.check_loss(loss_val) {
            return Err(report(kind, abs_step, loss_val, None, None));
        }
        loss_sum += loss_val as f64;

        let mut grads = ctx.backward(&total);
        if let Some(clip) = tc.grad_clip {
            grads.clip_global_norm(clip);
        }
        if let Some(arm) = fault.as_deref_mut() {
            arm.tamper_grads(abs_step, &mut grads);
        }
        if watchdog_on {
            if let Some((tensor, idx)) = first_non_finite_grad(&model.store, &grads) {
                return Err(report(
                    AnomalyKind::NonFiniteGradient,
                    abs_step,
                    loss_val,
                    Some(tensor),
                    Some(idx),
                ));
            }
        }
        drop(ctx);
        {
            let _opt = mgbr_obs::span("optimizer.step", "train").arg("step", abs_step as u64);
            adam.step(&mut model.store, &grads);
        }
        if let Some(arm) = fault.as_deref_mut() {
            arm.tamper_params(abs_step, &mut model.store);
        }
        if watchdog_on {
            if let Some((tensor, idx)) = first_non_finite_param(&model.store) {
                return Err(report(
                    AnomalyKind::NonFiniteParam,
                    abs_step,
                    loss_val,
                    Some(tensor),
                    Some(idx),
                ));
            }
        }
        if every > 0 && (step + 1) % every == 0 {
            mgbr_obs::emit_metrics("step");
        }
    }
    Ok(((loss_sum / n_steps as f64) as f32, n_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::WatchdogConfig;
    use crate::{MgbrConfig, MgbrVariant};
    use mgbr_data::{split_dataset, synthetic, SyntheticConfig};
    use mgbr_eval::{evaluate_task_a, evaluate_task_b};
    use mgbr_nn::NumericFault;

    fn fixture() -> (Dataset, DataSplit) {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let split = split_dataset(&ds, (7.0, 3.0, 1.0), 11);
        (ds, split)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 4,
            ..TrainConfig::tiny()
        };
        let report = train(&mut model, &ds, &split, &tc).unwrap();
        assert_eq!(report.epoch_losses.len(), 4);
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(
            last < first,
            "loss should decrease: {:?}",
            report.epoch_losses
        );
        assert!(report.mean_epoch_secs() > 0.0);
        assert_eq!(report.param_count, model.param_count());
        assert_eq!(report.recoveries, 0);
        assert!(report.anomalies.is_empty());
    }

    /// Regression: a zero-epoch budget must yield an empty report, not
    /// panic on `epoch_losses.last()` downstream.
    #[test]
    fn zero_epoch_run_returns_empty_report() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 0,
            ..TrainConfig::tiny()
        };
        let report = train(&mut model, &ds, &split, &tc).unwrap();
        assert!(report.epoch_losses.is_empty());
        assert!(report.epoch_secs.is_empty());
        assert_eq!(report.steps, 0);
        assert_eq!(report.param_count, model.param_count());
        assert_eq!(report.mean_epoch_secs(), 0.0);
        assert_eq!(report.steps_per_sec(), 0.0);

        let (vreport, history) =
            train_with_validation(&mut model, &ds, &split, &tc, 3, 0.0).unwrap();
        assert!(vreport.epoch_losses.is_empty());
        assert!(history.is_empty());
    }

    #[test]
    fn empty_partition_is_a_config_mismatch() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let empty = DataSplit {
            train: Vec::new(),
            ..split
        };
        let err = train(&mut model, &ds, &empty, &TrainConfig::tiny()).unwrap_err();
        assert!(matches!(err, TrainError::ConfigMismatch(_)), "{err}");
        assert!(err.to_string().contains("empty training partition"));
    }

    #[test]
    fn checkpoint_cadence_without_path_is_a_config_mismatch() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            checkpoint_every: 1,
            ..TrainConfig::tiny()
        };
        let err = train(&mut model, &ds, &split, &tc).unwrap_err();
        assert!(matches!(err, TrainError::ConfigMismatch(_)), "{err}");
    }

    #[test]
    fn training_beats_random_ranking() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 5,
            lr: 8e-3,
            ..TrainConfig::tiny()
        };
        train(&mut model, &ds, &split, &tc).unwrap();

        let mut sampler = Sampler::new(&ds, 77);
        let test_a = sampler.task_a_instances(&split.test, 9);
        let test_b = sampler.task_b_instances(&split.test, 9);
        let scorer = model.scorer();
        let ma = evaluate_task_a(&scorer, &test_a, 10);
        let mb = evaluate_task_b(&scorer, &test_b, 10);
        // Random MRR@10 on a 1:9 list ≈ 0.293; a trained model must beat
        // it on both tasks (tiny data, so the bar is modest).
        assert!(ma.mrr > 0.32, "task A mrr {}", ma.mrr);
        assert!(mb.mrr > 0.32, "task B mrr {}", mb.mrr);
    }

    #[test]
    fn no_aux_variant_trains() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny().with_variant(MgbrVariant::NoAux), &ds);
        let report = train(&mut model, &ds, &split, &TrainConfig::tiny()).unwrap();
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn training_is_deterministic() {
        let (ds, split) = fixture();
        let tc = TrainConfig {
            epochs: 1,
            ..TrainConfig::tiny()
        };
        let mut m1 = Mgbr::new(MgbrConfig::tiny(), &ds);
        let mut m2 = Mgbr::new(MgbrConfig::tiny(), &ds);
        let r1 = train(&mut m1, &ds, &split, &tc).unwrap();
        let r2 = train(&mut m2, &ds, &split, &tc).unwrap();
        assert_eq!(r1.epoch_losses, r2.epoch_losses);
    }

    /// The execution engine's headline guarantee: parallel kernels
    /// partition output rows deterministically, so an entire training run
    /// — losses AND final parameters — is bitwise identical at any
    /// thread count. (Env override: skip when MGBR_THREADS pins the knob,
    /// since `threads` in the config would then be ignored by design.)
    #[test]
    fn training_is_bitwise_identical_across_thread_counts() {
        if std::env::var("MGBR_THREADS").is_ok() {
            return;
        }
        let (ds, split) = fixture();
        let run = |threads: usize| {
            let tc = TrainConfig {
                epochs: 2,
                threads,
                ..TrainConfig::tiny()
            };
            let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
            let report = train(&mut model, &ds, &split, &tc).unwrap();
            let params: Vec<f32> = model
                .store
                .iter()
                .flat_map(|(_, _, t)| t.as_slice().to_vec())
                .collect();
            (report.epoch_losses, params)
        };
        let (losses_1, params_1) = run(1);
        for threads in [2usize, 4] {
            let (losses_t, params_t) = run(threads);
            assert_eq!(losses_1, losses_t, "losses diverged at {threads} threads");
            assert_eq!(
                params_1, params_t,
                "parameters diverged at {threads} threads"
            );
        }
        mgbr_tensor::set_threads(1);
    }

    #[test]
    fn watchdog_recovers_from_poisoned_parameter() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 2,
            numeric_fault: Some(NumericFault::poison_param(1, 0, 0, f32::NAN)),
            ..TrainConfig::tiny()
        };
        let report = train(&mut model, &ds, &split, &tc).unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::NonFiniteParam);
        assert_eq!(report.anomalies[0].step, 1);
        assert!(report.anomalies[0].tensor.is_some());
        assert_eq!(report.anomalies[0].first_index, Some(0));
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(model.store.all_finite());
    }

    #[test]
    fn persistent_fault_exhausts_recoveries_into_diverged() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 2,
            watchdog: WatchdogConfig {
                max_recoveries: 2,
                ..WatchdogConfig::default()
            },
            numeric_fault: Some(NumericFault::poison_param(0, 0, 3, f32::INFINITY).persistent()),
            ..TrainConfig::tiny()
        };
        let err = train(&mut model, &ds, &split, &tc).unwrap_err();
        match err {
            TrainError::Diverged { report } => {
                assert_eq!(report.kind, AnomalyKind::NonFiniteParam);
                assert_eq!(report.recoveries, 2, "budget spent before failing closed");
                assert_eq!(report.first_index, Some(3));
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn disabled_watchdog_fails_closed_without_recovery() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 1,
            watchdog: WatchdogConfig::disabled(),
            numeric_fault: Some(NumericFault::poison_param(1, 0, 0, f32::NAN)),
            ..TrainConfig::tiny()
        };
        let err = train(&mut model, &ds, &split, &tc).unwrap_err();
        assert!(matches!(err, TrainError::Diverged { .. }), "{err}");
    }

    #[test]
    fn spike_fault_triggers_loss_spike_recovery() {
        let (ds, split) = fixture();
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 2,
            watchdog: WatchdogConfig {
                window: 4,
                spike_factor: 10.0,
                ..WatchdogConfig::default()
            },
            numeric_fault: Some(NumericFault::spike_loss(6, 1e6)),
            ..TrainConfig::tiny()
        };
        let report = train(&mut model, &ds, &split, &tc).unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.anomalies[0].kind, AnomalyKind::LossSpike);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn fault_free_run_identical_with_watchdog_on_or_off() {
        let (ds, split) = fixture();
        let run = |wd: WatchdogConfig| {
            let tc = TrainConfig {
                epochs: 2,
                watchdog: wd,
                ..TrainConfig::tiny()
            };
            let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
            let report = train(&mut model, &ds, &split, &tc).unwrap();
            let params: Vec<f32> = model
                .store
                .iter()
                .flat_map(|(_, _, t)| t.as_slice().to_vec())
                .collect();
            (report.epoch_losses, params)
        };
        let (l_on, p_on) = run(WatchdogConfig::default());
        let (l_off, p_off) = run(WatchdogConfig::disabled());
        assert_eq!(l_on, l_off, "watchdog must not perturb losses");
        assert_eq!(p_on, p_off, "watchdog must not perturb parameters");
    }
}

#[cfg(test)]
mod validation_tests {
    use super::*;
    use crate::MgbrConfig;
    use mgbr_data::{split_dataset, synthetic, SyntheticConfig};
    use mgbr_nn::NumericFault;

    #[test]
    fn validation_training_records_history_and_can_stop_early() {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let split = split_dataset(&ds, (7.0, 3.0, 1.0), 11);
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 6,
            ..TrainConfig::tiny()
        };
        // Absurd patience-0-equivalent: min_delta so large nothing counts
        // as improvement after the first epoch.
        let (report, history) =
            train_with_validation(&mut model, &ds, &split, &tc, 2, 10.0).unwrap();
        assert_eq!(report.epoch_losses.len(), history.len());
        assert!(
            history.len() <= 3,
            "patience 2 with impossible min_delta must stop by epoch 3, ran {}",
            history.len()
        );
        assert!(history.iter().all(|e| (0.0..=1.0).contains(&e.metric)));
        assert!(
            history.iter().all(|e| !e.replayed),
            "fresh run must not tag entries as replayed"
        );
    }

    #[test]
    fn validation_training_runs_to_completion_with_loose_patience() {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let split = split_dataset(&ds, (7.0, 3.0, 1.0), 11);
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 3,
            ..TrainConfig::tiny()
        };
        let (report, history) =
            train_with_validation(&mut model, &ds, &split, &tc, 50, 0.0).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(report.epoch_secs.len(), 3);
    }

    #[test]
    fn validation_training_recovers_from_injected_fault() {
        let ds = synthetic::generate(&SyntheticConfig::tiny());
        let split = split_dataset(&ds, (7.0, 3.0, 1.0), 11);
        let mut model = Mgbr::new(MgbrConfig::tiny(), &ds);
        let tc = TrainConfig {
            epochs: 3,
            numeric_fault: Some(NumericFault::poison_gradient(2, 0, 0, f32::NAN)),
            ..TrainConfig::tiny()
        };
        let (report, history) =
            train_with_validation(&mut model, &ds, &split, &tc, 50, 0.0).unwrap();
        assert_eq!(report.recoveries, 1);
        assert_eq!(
            report.anomalies[0].kind,
            crate::watchdog::AnomalyKind::NonFiniteGradient
        );
        assert_eq!(history.len(), report.epoch_losses.len());
        assert!(model.store.all_finite());
    }
}
