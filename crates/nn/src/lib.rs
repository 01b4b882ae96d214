//! # mgbr-nn
//!
//! Neural-network building blocks over [`mgbr_autograd`]: a central
//! parameter store, per-step tape bindings, layers (linear / MLP /
//! embedding tables), optimizers (Adam, SGD), gradient clipping, and the
//! generic ranking losses shared by every model in the reproduction.
//!
//! ## Training-step lifecycle
//!
//! Parameters live in a [`ParamStore`] that outlives any single step. Each
//! step creates a [`StepCtx`] which lazily binds parameters onto a fresh
//! autodiff tape; after the forward pass, [`StepCtx::backward`] maps leaf
//! gradients back to [`ParamId`]s so an [`Optimizer`] can apply the
//! update:
//!
//! ```
//! use mgbr_nn::{Adam, Linear, Optimizer, ParamStore, StepCtx};
//! use mgbr_tensor::{Pcg32, Tensor};
//!
//! let mut store = ParamStore::new();
//! let mut rng = Pcg32::seed_from_u64(0);
//! let layer = Linear::new(&mut store, &mut rng, "probe", 4, 1, true);
//! let mut adam = Adam::with_lr(1e-2);
//!
//! for _step in 0..3 {
//!     let ctx = StepCtx::new(&store);
//!     let x = ctx.constant(Tensor::ones(8, 4));
//!     let loss = layer.forward(&ctx, &x).sigmoid().mean_all();
//!     let grads = ctx.backward(&loss);
//!     adam.step(&mut store, &grads);
//! }
//! ```

pub mod checkpoint;
pub mod failpoint;
mod layers;
mod loss;
mod optim;
mod param;
mod schedule;

pub use checkpoint::{
    load_checkpoint, load_checkpoint_from_file, save_checkpoint, save_checkpoint_atomic, AdamState,
    CheckpointError, CrcReader, CrcWriter, LoadedCheckpoint, MemorySnapshot, TrainState,
};
pub use failpoint::{Fault, IoFault, NumericFault, NumericFaultArm, NumericFaultKind};
pub use layers::{Activation, Embedding, Linear, Mlp};
pub use loss::{bpr_loss, listwise_first_is_positive_loss};
pub use optim::{Adam, Optimizer, Sgd};
pub use param::{GradientSet, ParamId, ParamStore, StepCtx};
pub use schedule::{EarlyStopping, LrSchedule};

pub(crate) use param::param_id_from_index;
