//! # mgbr-tensor
//!
//! Dense `f32` matrix substrate used by every other crate in the MGBR
//! reproduction. The paper's model (GCNs, expert networks, gated units,
//! MLPs) is plain dense linear algebra over small-to-medium matrices, so
//! this crate provides exactly that surface:
//!
//! * [`Tensor`] — a row-major 2-D `f32` matrix (vectors are `1×c` or `r×1`).
//! * Elementwise arithmetic, broadcasts, reductions ([`Tensor::add`],
//!   [`Tensor::mul`], [`Tensor::sum`], [`Tensor::mean_rows`], …).
//! * Activations and row-wise softmax family ([`Tensor::sigmoid`],
//!   [`Tensor::log_softmax_rows`], …).
//! * Blocked GEMM in three transpose layouts ([`matmul`], [`matmul_nt`],
//!   [`matmul_tn`]) with `_into` variants writing into pooled buffers,
//!   row-band parallelized behind the [`get_threads`] knob
//!   (`MGBR_THREADS` env override) with a bitwise-determinism guarantee.
//! * [`Workspace`] — a recycled buffer pool keyed by length, so steady-
//!   state training performs no per-op heap allocation.
//! * Tape-free serving kernels ([`affine_act_into`],
//!   [`mix_col_blocks_into`]) and deterministic partial top-k selection
//!   ([`top_k_slice`]) backing the frozen-model inference path, all with
//!   the same bitwise any-thread-count guarantee.
//! * A deterministic, dependency-free PCG32 RNG ([`Pcg32`]) with Gaussian
//!   and Xavier initializers, so every experiment in the repo is exactly
//!   reproducible from a seed.
//!
//! Shape errors are programming errors in this workspace, so shape-checked
//! operations panic with a descriptive message (mirroring `ndarray`'s
//! convention) rather than returning `Result`. Constructors that consume
//! external data ([`Tensor::from_vec`]) return [`ShapeError`] instead.

pub mod hooks;
mod infer;
mod matmul;
mod ops;
mod pool;
mod rng;
mod shape;
mod tensor;
mod threads;
mod topk;

pub use infer::{affine_act_into, mix_col_blocks_into, FusedAct};
pub use matmul::{matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn, matmul_tn_into};
pub use pool::{PoolStats, Workspace};
pub use rng::{Pcg32, Pcg32State};
pub use shape::{Shape, ShapeError};
pub use tensor::Tensor;
pub use threads::{configure_threads, for_row_bands, get_threads, set_threads};
pub use topk::top_k_slice;
