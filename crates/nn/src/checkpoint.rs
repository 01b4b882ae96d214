//! Crash-safe checkpointing: save and restore every trainable tensor
//! together with the full training state needed to resume a killed run
//! bit-for-bit, in a versioned, self-describing binary file.
//!
//! ## Format v2 (little-endian)
//!
//! ```text
//! magic   "MGBRCKPT"          8 bytes
//! version u32                 (2)
//! epoch   u64                 completed epochs
//! step    u64                 completed optimizer steps
//! config_fingerprint u64      TrainConfig hash (trajectory-relevant fields)
//! rng_present u8              0 | 1
//!   state u64, inc u64        PCG32 internals
//!   gauss_present u8, gauss f32   cached Box-Muller spare
//! val_len u32, val_len × f64  per-epoch validation history
//! count   u32                 number of parameters
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rows u32, cols u32
//!   rows*cols f32 values
//! adam_present u8             0 | 1
//!   t u64                     Adam step counter
//!   slots u32                 moment slot count (0 or == count)
//!   per slot: present u8; if 1: rows u32, cols u32, m values, v values
//! crc32   u32                 IEEE CRC-32 over every preceding byte
//! ```
//!
//! Any other version, including the retired version 1 (parameters only,
//! no train state, no integrity footer), is a typed
//! [`CheckpointError::Format`].
//!
//! ## Guarantees
//!
//! * **Integrity** — every load verifies the CRC-32 footer before any
//!   state is committed, so truncated or bit-flipped files fail closed
//!   with a typed [`CheckpointError`] and never partially mutate a store.
//! * **Atomicity** — [`save_checkpoint_atomic`] writes to a temp file,
//!   fsyncs, then renames over the target, so a crash mid-save leaves the
//!   previous good checkpoint intact.
//! * **Validation** — restores are checked against the receiving store's
//!   registered names and shapes, so loading a checkpoint into a
//!   differently-configured model fails loudly instead of silently
//!   mis-assigning weights.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use mgbr_tensor::{Pcg32State, Tensor};

use crate::ParamStore;

const MAGIC: &[u8; 8] = b"MGBRCKPT";
const VERSION_V2: u32 = 2;

/// Errors arising from checkpoint serialization.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a checkpoint, is truncated/corrupt, or is an
    /// unsupported version.
    Format(String),
    /// The checkpoint does not match the receiving store or config.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint/store mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Snapshot of an [`crate::Adam`] optimizer, indexed by parameter slot.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Step counter (drives bias correction).
    pub t: u64,
    /// First-moment estimates (`None` for never-touched parameters).
    pub m: Vec<Option<Tensor>>,
    /// Second-moment estimates.
    pub v: Vec<Option<Tensor>>,
}

/// Everything beyond raw parameters that a bitwise-identical resume needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Completed epochs (the resume point).
    pub epoch: u64,
    /// Completed optimizer steps across all epochs.
    pub step: u64,
    /// Fingerprint of the trajectory-relevant `TrainConfig` fields; a
    /// resume under a different config is rejected as a [`Mismatch`].
    ///
    /// [`Mismatch`]: CheckpointError::Mismatch
    pub config_fingerprint: u64,
    /// Data-order RNG state at the epoch boundary.
    pub rng: Option<Pcg32State>,
    /// Per-epoch validation metrics (empty for plain training); replayed
    /// on resume to reconstruct early-stopping state.
    pub val_history: Vec<f64>,
    /// Optimizer moments; `None` when the run resets them anyway (e.g.
    /// Adam warm restarts) or a non-Adam optimizer was used.
    pub adam: Option<AdamState>,
}

impl TrainState {
    /// An empty state at epoch 0 for the given config fingerprint.
    pub fn new(config_fingerprint: u64) -> Self {
        Self {
            epoch: 0,
            step: 0,
            config_fingerprint,
            rng: None,
            val_history: Vec::new(),
            adam: None,
        }
    }
}

/// An in-memory capture of exactly the state a checkpoint file holds —
/// parameters plus [`TrainState`] — without touching the filesystem.
///
/// The training watchdog snapshots at every epoch boundary and rolls back
/// to the capture after a numerical anomaly; because the content mirrors
/// the on-disk format one-for-one, restoring it is equivalent to
/// re-loading the checkpoint that boundary would have written, minus the
/// serialization round-trip.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    params: Vec<Tensor>,
    state: TrainState,
}

impl MemorySnapshot {
    /// Clones every parameter of `store` together with `state`.
    pub fn capture(store: &ParamStore, state: TrainState) -> Self {
        Self {
            params: store.iter().map(|(_, _, t)| t.clone()).collect(),
            state,
        }
    }

    /// The captured training state.
    pub fn state(&self) -> &TrainState {
        &self.state
    }

    /// Restores the captured parameters into `store`.
    ///
    /// Returns a [`CheckpointError::Mismatch`] if `store` is not the store
    /// the snapshot was captured from (different parameter count or
    /// shapes); on error the store is untouched.
    pub fn restore(&self, store: &mut ParamStore) -> Result<(), CheckpointError> {
        if self.params.len() != store.len() {
            return Err(CheckpointError::Mismatch(format!(
                "snapshot has {} parameters, store has {}",
                self.params.len(),
                store.len()
            )));
        }
        for ((_, name, current), saved) in store.iter().zip(&self.params) {
            if current.rows() != saved.rows() || current.cols() != saved.cols() {
                return Err(CheckpointError::Mismatch(format!(
                    "parameter '{name}': snapshot shape [{}x{}], store shape {}",
                    saved.rows(),
                    saved.cols(),
                    current.shape()
                )));
            }
        }
        commit_params(store, self.params.clone());
        Ok(())
    }
}

/// The result of a successful [`load_checkpoint`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Format version of the file.
    pub version: u32,
    /// The training state saved next to the parameters.
    pub state: TrainState,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Streaming CRC-32 accumulator (call [`Crc32::finish`] for the digest).
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

// ---------------------------------------------------------------------------
// Hashing I/O adapters
// ---------------------------------------------------------------------------

/// CRC-accumulating byte sink: every `put_*` both writes to the inner
/// writer and folds the bytes into a streaming CRC-32. Shared by the
/// checkpoint format and `mgbr-core`'s frozen-model artifact so both
/// carry the same integrity footer.
pub struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcWriter<W> {
    /// Wraps `inner`, starting a fresh CRC.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
        }
    }

    /// Writes raw bytes (hashed).
    pub fn put(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.crc.update(bytes);
        self.inner.write_all(bytes)?;
        Ok(())
    }

    /// Writes one byte (hashed).
    pub fn put_u8(&mut self, v: u8) -> Result<(), CheckpointError> {
        self.put(&[v])
    }

    /// Writes a little-endian `u32` (hashed).
    pub fn put_u32(&mut self, v: u32) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    /// Writes a little-endian `u64` (hashed).
    pub fn put_u64(&mut self, v: u64) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    /// Writes a little-endian `f32` (hashed).
    pub fn put_f32(&mut self, v: f32) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    /// Writes a little-endian `f64` (hashed).
    pub fn put_f64(&mut self, v: f64) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    /// Writes a tensor's elements (shape is the caller's concern).
    pub fn put_tensor_data(&mut self, t: &Tensor) -> Result<(), CheckpointError> {
        // Serialize in chunks so the CRC and the writer both see large,
        // cheap writes instead of 4-byte dribbles.
        let mut buf = [0u8; 4096];
        for chunk in t.as_slice().chunks(1024) {
            let bytes = &mut buf[..4 * chunk.len()];
            for (i, v) in chunk.iter().enumerate() {
                bytes[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.put(bytes)?;
        }
        Ok(())
    }

    /// Writes the CRC footer (not hashed) and returns the inner writer.
    pub fn finish(mut self) -> Result<W, CheckpointError> {
        let digest = self.crc.finish();
        self.inner.write_all(&digest.to_le_bytes())?;
        Ok(self.inner)
    }
}

/// CRC-verifying byte source: the mirror of [`CrcWriter`]. Every
/// `take_*` reads from the inner reader and folds the bytes into the
/// running CRC; [`CrcReader::verify_crc`] then checks the stored footer.
pub struct CrcReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> CrcReader<R> {
    /// Wraps `inner`, starting a fresh CRC.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
        }
    }

    /// Fills `buf` exactly (hashed); EOF becomes a typed `Format` error.
    pub fn take(&mut self, buf: &mut [u8]) -> Result<(), CheckpointError> {
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                CheckpointError::Format("truncated checkpoint (unexpected end of data)".into())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        self.crc.update(buf);
        Ok(())
    }

    pub fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        let mut b = [0u8; 1];
        self.take(&mut b)?;
        Ok(b[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, CheckpointError> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn take_f32(&mut self) -> Result<f32, CheckpointError> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(f32::from_le_bytes(b))
    }

    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(f64::from_le_bytes(b))
    }

    /// Reads a `rows × cols` tensor whose shape was already validated.
    pub fn take_tensor(&mut self, rows: usize, cols: usize) -> Result<Tensor, CheckpointError> {
        let mut data = vec![0f32; rows * cols];
        let mut buf = [0u8; 4096];
        for chunk in data.chunks_mut(1024) {
            let bytes = &mut buf[..4 * chunk.len()];
            self.take(bytes)?;
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = f32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap());
            }
        }
        Ok(Tensor::from_vec(rows, cols, data).expect("shape validated by caller"))
    }

    /// Reads the (unhashed) CRC footer and checks it against the body.
    pub fn verify_crc(mut self) -> Result<(), CheckpointError> {
        let expected = self.crc.finish();
        let mut b = [0u8; 4];
        self.inner.read_exact(&mut b).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                CheckpointError::Format("truncated checkpoint (missing CRC footer)".into())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        let stored = u32::from_le_bytes(b);
        if stored != expected {
            return Err(CheckpointError::Format(format!(
                "CRC mismatch: stored {stored:#010x}, computed {expected:#010x}"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Writes a checkpoint: parameters plus `state`, CRC-protected.
pub fn save_checkpoint<W: Write>(
    store: &ParamStore,
    state: &TrainState,
    writer: W,
) -> Result<(), CheckpointError> {
    let mut w = CrcWriter::new(writer);
    w.put(MAGIC)?;
    w.put_u32(VERSION_V2)?;
    w.put_u64(state.epoch)?;
    w.put_u64(state.step)?;
    w.put_u64(state.config_fingerprint)?;
    match &state.rng {
        None => w.put_u8(0)?,
        Some(rng) => {
            w.put_u8(1)?;
            w.put_u64(rng.state)?;
            w.put_u64(rng.inc)?;
            match rng.gauss_spare {
                None => {
                    w.put_u8(0)?;
                    w.put_f32(0.0)?;
                }
                Some(g) => {
                    w.put_u8(1)?;
                    w.put_f32(g)?;
                }
            }
        }
    }
    w.put_u32(state.val_history.len() as u32)?;
    for &m in &state.val_history {
        w.put_f64(m)?;
    }
    w.put_u32(store.len() as u32)?;
    for (_, name, tensor) in store.iter() {
        let name_bytes = name.as_bytes();
        w.put_u32(name_bytes.len() as u32)?;
        w.put(name_bytes)?;
        w.put_u32(tensor.rows() as u32)?;
        w.put_u32(tensor.cols() as u32)?;
        w.put_tensor_data(tensor)?;
    }
    match &state.adam {
        None => w.put_u8(0)?,
        Some(adam) => {
            if adam.m.len() != adam.v.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "Adam moment slot counts disagree: {} vs {}",
                    adam.m.len(),
                    adam.v.len()
                )));
            }
            if !adam.m.is_empty() && adam.m.len() != store.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "Adam tracks {} slots, store has {} parameters",
                    adam.m.len(),
                    store.len()
                )));
            }
            w.put_u8(1)?;
            w.put_u64(adam.t)?;
            w.put_u32(adam.m.len() as u32)?;
            for (m, v) in adam.m.iter().zip(&adam.v) {
                match (m, v) {
                    (Some(m), Some(v)) => {
                        w.put_u8(1)?;
                        w.put_u32(m.rows() as u32)?;
                        w.put_u32(m.cols() as u32)?;
                        w.put_tensor_data(m)?;
                        w.put_tensor_data(v)?;
                    }
                    (None, None) => w.put_u8(0)?,
                    _ => {
                        return Err(CheckpointError::Mismatch(
                            "Adam slot has only one of m/v populated".into(),
                        ))
                    }
                }
            }
        }
    }
    let mut inner = w.finish()?;
    inner.flush()?;
    Ok(())
}

/// Saves a checkpoint crash-safely: serialize to `<path>.tmp`, fsync,
/// rename over `path`, fsync the parent directory. A crash at any point
/// leaves either the previous checkpoint or the new one — never a torn
/// file at `path`.
pub fn save_checkpoint_atomic(
    store: &ParamStore,
    state: &TrainState,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let result = (|| -> Result<(), CheckpointError> {
        let file = std::fs::File::create(&tmp)?;
        let mut writer = io::BufWriter::new(file);
        save_checkpoint(store, state, &mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        Ok(())
    })();
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself (directory metadata); best-effort since
    // not all platforms allow fsync on directories.
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

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Restores a checkpoint into `store` and returns its training state.
///
/// The checkpoint must contain exactly the store's parameters, in
/// registration order, with matching names and shapes. The load is
/// **transactional**: the file is fully parsed and its CRC verified
/// before the first byte is committed to `store`, so a failed load
/// leaves the store untouched.
pub fn load_checkpoint<R: Read>(
    store: &mut ParamStore,
    reader: R,
) -> Result<LoadedCheckpoint, CheckpointError> {
    let mut r = CrcReader::new(reader);
    let mut magic = [0u8; 8];
    r.take(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("bad magic bytes".into()));
    }
    let version = r.take_u32()?;
    if version != VERSION_V2 {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (supported: {VERSION_V2})"
        )));
    }
    let epoch = r.take_u64()?;
    let step = r.take_u64()?;
    let config_fingerprint = r.take_u64()?;
    let rng = match r.take_u8()? {
        0 => None,
        1 => {
            let state = r.take_u64()?;
            let inc = r.take_u64()?;
            let gauss_present = r.take_u8()?;
            let gauss_bits = r.take_f32()?;
            let gauss_spare = match gauss_present {
                0 => None,
                1 => Some(gauss_bits),
                other => {
                    return Err(CheckpointError::Format(format!(
                        "invalid gauss-spare flag {other}"
                    )))
                }
            };
            Some(Pcg32State {
                state,
                inc,
                gauss_spare,
            })
        }
        other => {
            return Err(CheckpointError::Format(format!(
                "invalid rng-present flag {other}"
            )))
        }
    };
    let val_len = r.take_u32()? as usize;
    if val_len > 1 << 24 {
        return Err(CheckpointError::Format(format!(
            "implausible validation-history length {val_len}"
        )));
    }
    let mut val_history = Vec::with_capacity(val_len);
    for _ in 0..val_len {
        val_history.push(r.take_f64()?);
    }
    let params = read_params_section(&mut r, store)?;
    let adam = read_adam_section(&mut r, store)?;
    r.verify_crc()?;
    commit_params(store, params);
    Ok(LoadedCheckpoint {
        version,
        state: TrainState {
            epoch,
            step,
            config_fingerprint,
            rng,
            val_history,
            adam,
        },
    })
}

/// Restores a checkpoint from a file path.
pub fn load_checkpoint_from_file(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<LoadedCheckpoint, CheckpointError> {
    let file = std::fs::File::open(path)?;
    load_checkpoint(store, io::BufReader::new(file))
}

/// Parses the parameter section, validating names/shapes against `store`
/// without mutating it.
fn read_params_section<R: Read>(
    r: &mut CrcReader<R>,
    store: &ParamStore,
) -> Result<Vec<Tensor>, CheckpointError> {
    let count = r.take_u32()? as usize;
    if count != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {count} parameters, store has {}",
            store.len()
        )));
    }
    let mut parsed = Vec::with_capacity(count);
    for (_, expect_name, current) in store.iter() {
        let name_len = r.take_u32()? as usize;
        if name_len > 1 << 20 {
            return Err(CheckpointError::Format(format!(
                "implausible name length {name_len}"
            )));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.take(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| CheckpointError::Format("non-UTF-8 parameter name".into()))?;
        if name != expect_name {
            return Err(CheckpointError::Mismatch(format!(
                "parameter name '{name}' in checkpoint, '{expect_name}' in store"
            )));
        }
        let rows = r.take_u32()? as usize;
        let cols = r.take_u32()? as usize;
        if rows != current.rows() || cols != current.cols() {
            return Err(CheckpointError::Mismatch(format!(
                "parameter '{name}': checkpoint shape [{rows}x{cols}], store shape {}",
                current.shape()
            )));
        }
        parsed.push(r.take_tensor(rows, cols)?);
    }
    Ok(parsed)
}

/// Parses the optimizer section, validating slot shapes against `store`.
fn read_adam_section<R: Read>(
    r: &mut CrcReader<R>,
    store: &ParamStore,
) -> Result<Option<AdamState>, CheckpointError> {
    match r.take_u8()? {
        0 => Ok(None),
        1 => {
            let t = r.take_u64()?;
            let slots = r.take_u32()? as usize;
            if slots != 0 && slots != store.len() {
                return Err(CheckpointError::Mismatch(format!(
                    "optimizer tracks {slots} slots, store has {} parameters",
                    store.len()
                )));
            }
            let shapes: Vec<(usize, usize)> =
                store.iter().map(|(_, _, p)| (p.rows(), p.cols())).collect();
            let mut m = Vec::with_capacity(slots);
            let mut v = Vec::with_capacity(slots);
            for (idx, &(p_rows, p_cols)) in shapes.iter().enumerate().take(slots) {
                match r.take_u8()? {
                    0 => {
                        m.push(None);
                        v.push(None);
                    }
                    1 => {
                        let rows = r.take_u32()? as usize;
                        let cols = r.take_u32()? as usize;
                        if rows != p_rows || cols != p_cols {
                            return Err(CheckpointError::Mismatch(format!(
                                "optimizer slot {idx}: moment shape [{rows}x{cols}], \
                                 parameter shape [{p_rows}x{p_cols}]"
                            )));
                        }
                        m.push(Some(r.take_tensor(rows, cols)?));
                        v.push(Some(r.take_tensor(rows, cols)?));
                    }
                    other => {
                        return Err(CheckpointError::Format(format!(
                            "invalid moment-present flag {other}"
                        )))
                    }
                }
            }
            Ok(Some(AdamState { t, m, v }))
        }
        other => Err(CheckpointError::Format(format!(
            "invalid optimizer-present flag {other}"
        ))),
    }
}

/// Commits fully-validated parameter tensors into the store.
fn commit_params(store: &mut ParamStore, parsed: Vec<Tensor>) {
    let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
    for (id, tensor) in ids.into_iter().zip(parsed) {
        *store.get_mut(id) = tensor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgbr_tensor::Pcg32;

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = Pcg32::seed_from_u64(5);
        store.add("layer.w", rng.normal_tensor(3, 4, 0.0, 1.0));
        store.add("layer.b", rng.normal_tensor(1, 4, 0.0, 1.0));
        store
    }

    fn sample_state() -> TrainState {
        let mut rng = Pcg32::seed_from_u64(17);
        let _ = rng.normal(); // leaves a cached Box-Muller spare
        TrainState {
            epoch: 7,
            step: 1234,
            config_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            rng: Some(rng.export_state()),
            val_history: vec![0.31, 0.35, 0.349],
            adam: Some(AdamState {
                t: 1234,
                m: vec![Some(Tensor::full(3, 4, 0.25)), None],
                v: vec![Some(Tensor::full(3, 4, 0.5)), None],
            }),
        }
    }

    /// Values round-trip next to a bare state (no RNG, no optimizer).
    #[test]
    fn roundtrip_preserves_values() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_checkpoint(&store, &TrainState::new(3), &mut buf).unwrap();

        let mut restored = ParamStore::new();
        restored.add("layer.w", Tensor::zeros(3, 4));
        restored.add("layer.b", Tensor::zeros(1, 4));
        let loaded = load_checkpoint(&mut restored, buf.as_slice()).unwrap();
        assert_eq!(loaded.state, TrainState::new(3));

        for ((_, _, a), (_, _, b)) in store.iter().zip(restored.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn v2_roundtrip_preserves_params_and_state() {
        let store = sample_store();
        let state = sample_state();
        let mut buf = Vec::new();
        save_checkpoint(&store, &state, &mut buf).unwrap();

        let mut restored = ParamStore::new();
        restored.add("layer.w", Tensor::zeros(3, 4));
        restored.add("layer.b", Tensor::zeros(1, 4));
        let loaded = load_checkpoint(&mut restored, buf.as_slice()).unwrap();
        assert_eq!(loaded.version, 2);
        assert_eq!(loaded.state, state);
        for ((_, _, a), (_, _, b)) in store.iter().zip(restored.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn v2_crc_rejects_bit_flip_without_mutating_store() {
        let store = sample_store();
        let state = sample_state();
        let mut buf = Vec::new();
        save_checkpoint(&store, &state, &mut buf).unwrap();

        // Flip one bit deep in the parameter data (name/shape validation
        // would not catch it — only the CRC can).
        let off = buf.len() - 64;
        buf[off] ^= 0x10;

        let mut victim = sample_store();
        let before: Vec<Vec<f32>> = victim
            .iter()
            .map(|(_, _, t)| t.as_slice().to_vec())
            .collect();
        let err = load_checkpoint(&mut victim, buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Format(_) | CheckpointError::Mismatch(_)
            ),
            "{err}"
        );
        let after: Vec<Vec<f32>> = victim
            .iter()
            .map(|(_, _, t)| t.as_slice().to_vec())
            .collect();
        assert_eq!(before, after, "failed load must not mutate the store");
    }

    #[test]
    fn v2_truncation_fails_closed() {
        let store = sample_store();
        let state = sample_state();
        let mut buf = Vec::new();
        save_checkpoint(&store, &state, &mut buf).unwrap();
        for cut in [buf.len() - 1, buf.len() - 4, buf.len() / 2, 9, 12] {
            let mut victim = sample_store();
            let err = load_checkpoint(&mut victim, &buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Format(_) | CheckpointError::Mismatch(_)
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn atomic_save_replaces_and_cleans_temp() {
        let dir = std::env::temp_dir().join("mgbr_ckpt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let store = sample_store();
        save_checkpoint_atomic(&store, &sample_state(), &path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("model.ckpt.tmp").exists());

        // Overwrite with a second save; still loadable, temp still gone.
        save_checkpoint_atomic(&store, &sample_state(), &path).unwrap();
        let mut restored = sample_store();
        let loaded = load_checkpoint_from_file(&mut restored, &path).unwrap();
        assert_eq!(loaded.state.epoch, 7);
        assert!(!dir.join("model.ckpt.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut store = sample_store();
        let err = load_checkpoint(&mut store, &b"NOTACKPT"[..]).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Format(_) | CheckpointError::Io(_)
        ));
    }

    /// Unsupported versions, the retired version 1 included, are typed
    /// format errors.
    #[test]
    fn rejects_unsupported_version() {
        for version in [1u32, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            let mut store = sample_store();
            let err = load_checkpoint(&mut store, buf.as_slice()).unwrap_err();
            assert!(matches!(err, CheckpointError::Format(_)), "{err}");
            assert!(err
                .to_string()
                .contains(&format!("unsupported version {version}")));
        }
    }

    #[test]
    fn rejects_shape_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_checkpoint(&store, &TrainState::new(0), &mut buf).unwrap();

        let mut other = ParamStore::new();
        other.add("layer.w", Tensor::zeros(4, 3)); // transposed shape
        other.add("layer.b", Tensor::zeros(1, 4));
        let err = load_checkpoint(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_name_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_checkpoint(&store, &TrainState::new(0), &mut buf).unwrap();

        let mut other = ParamStore::new();
        other.add("different.w", Tensor::zeros(3, 4));
        other.add("layer.b", Tensor::zeros(1, 4));
        let err = load_checkpoint(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn rejects_count_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_checkpoint(&store, &TrainState::new(0), &mut buf).unwrap();

        let mut other = ParamStore::new();
        other.add("layer.w", Tensor::zeros(3, 4));
        let err = load_checkpoint(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
    }

    #[test]
    fn rejects_moment_shape_mismatch() {
        let store = sample_store();
        let bad = TrainState {
            adam: Some(AdamState {
                t: 1,
                m: vec![Some(Tensor::zeros(2, 2)), None],
                v: vec![Some(Tensor::zeros(2, 2)), None],
            }),
            ..TrainState::new(0)
        };
        let mut buf = Vec::new();
        save_checkpoint(&store, &bad, &mut buf).unwrap();
        let mut victim = sample_store();
        let err = load_checkpoint(&mut victim, buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let path = std::env::temp_dir().join("mgbr_ckpt_test.bin");
        save_checkpoint_atomic(&store, &TrainState::new(0), &path).unwrap();
        let mut restored = sample_store();
        let first_id = restored.iter().next().unwrap().0;
        restored.get_mut(first_id).fill(0.0);
        load_checkpoint_from_file(&mut restored, &path).unwrap();
        for ((_, _, a), (_, _, b)) in store.iter().zip(restored.iter()) {
            assert_eq!(a, b);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn memory_snapshot_roundtrips_params_and_state() {
        let store = sample_store();
        let snap = MemorySnapshot::capture(&store, sample_state());
        let mut mutated = sample_store();
        let first_id = mutated.iter().next().unwrap().0;
        mutated.get_mut(first_id).fill(f32::NAN);
        snap.restore(&mut mutated).unwrap();
        for ((_, _, a), (_, _, b)) in store.iter().zip(mutated.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(snap.state().epoch, 7);
        assert_eq!(snap.state().step, 1234);
    }

    #[test]
    fn memory_snapshot_rejects_foreign_store() {
        let snap = MemorySnapshot::capture(&sample_store(), TrainState::new(0));
        let mut other = ParamStore::new();
        other.add("layer.w", Tensor::zeros(4, 3)); // transposed shape
        other.add("layer.b", Tensor::zeros(1, 4));
        let before: Vec<Vec<f32>> = other
            .iter()
            .map(|(_, _, t)| t.as_slice().to_vec())
            .collect();
        let err = snap.restore(&mut other).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let after: Vec<Vec<f32>> = other
            .iter()
            .map(|(_, _, t)| t.as_slice().to_vec())
            .collect();
        assert_eq!(before, after, "failed restore must not mutate the store");
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
    }
}
