//! Crash-safe, versioned binary checkpoints.
//!
//! The on-disk format, **`MBCKPT2`**, is a typed key/value container with
//! a CRC32 per entry and a CRC32 over the header, so *any* single flipped
//! or truncated byte is detected at load time. Besides tensors it carries
//! raw byte strings (RNG streams), `u64` counters and `f64` scalars, so
//! an interrupted training run is fully reconstructible: parameters,
//! batch-norm statistics, optimizer moments, λ logits and RNG states all
//! live in one file. Any other revision, the original tensor-only
//! `MBCKPT1` included, is refused with
//! [`CheckpointError::UnsupportedVersion`].
//!
//! Writes are atomic: the checkpoint is serialized into a temporary file
//! in the destination directory, fsynced, then renamed over the target.
//! A crash (or SIGKILL) at any instant leaves either the complete old
//! file or the complete new file — never a truncated hybrid.
//!
//! `MBCKPT2` wire layout (little-endian):
//!
//! ```text
//! magic "MBCKPT2\n" | u32 entry_count | u32 crc32(magic ‖ entry_count)
//! per entry:
//!   u8 kind | u32 name_len | name | u64 payload_len | payload
//!   | u32 crc32(kind ‖ name ‖ payload)
//! tensor payload: u32 rank | rank × u64 dims | f32 data
//! ```
//!
//! Loads are allocation-bounded: every length field is validated against
//! the bytes actually remaining in the file before a buffer is reserved,
//! so a corrupt or adversarial header cannot trigger a huge allocation.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use membit_tensor::Tensor;

use crate::params::Params;

pub mod faulty;

const MAGIC_V2: &[u8; 8] = b"MBCKPT2\n";

/// Hard cap on entry-name length — names are human-chosen keys, never
/// megabytes.
const MAX_NAME_LEN: usize = 4096;
/// Hard cap on tensor rank.
const MAX_RANK: usize = 32;

/// Typed failure of a checkpoint load or save.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// An underlying I/O failure (kind + rendered message).
    Io(io::ErrorKind, String),
    /// The file does not start with a known magic.
    BadMagic,
    /// The magic names a format revision this build cannot read.
    UnsupportedVersion(u8),
    /// A structural invariant was violated (with a description of what).
    Corrupt(String),
    /// An entry's CRC32 does not match its contents.
    CrcMismatch {
        /// Name of the damaged entry, or a location note when the name
        /// itself is unreadable.
        entry: String,
    },
    /// A length field exceeds the bytes remaining in the file.
    Oversized {
        /// Which field overflowed.
        what: String,
        /// The claimed size.
        claimed: u64,
        /// Bytes actually available.
        available: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(kind, msg) => write!(f, "checkpoint io ({kind:?}): {msg}"),
            CheckpointError::BadMagic => write!(f, "not a membit checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format revision {v}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::CrcMismatch { entry } => {
                write!(f, "checkpoint entry {entry:?} failed its CRC32 check")
            }
            CheckpointError::Oversized {
                what,
                claimed,
                available,
            } => write!(
                f,
                "checkpoint field {what} claims {claimed} bytes but only {available} remain"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e.kind(), e.to_string())
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(kind, msg) => io::Error::new(kind, msg),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Checkpoint result alias.
pub type CkptResult<T> = std::result::Result<T, CheckpointError>;

/// One typed value stored in a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A shaped `f32` tensor (parameters, statistics, moments, logits).
    Tensor(Tensor),
    /// Raw bytes (frozen RNG streams, format-private blobs).
    Bytes(Vec<u8>),
    /// An unsigned counter (epoch index, optimizer step).
    U64(u64),
    /// A scalar (learning-rate scale, last accuracy).
    F64(f64),
}

impl Payload {
    fn kind(&self) -> u8 {
        match self {
            Payload::Tensor(_) => 0,
            Payload::Bytes(_) => 1,
            Payload::U64(_) => 2,
            Payload::F64(_) => 3,
        }
    }
}

/// An in-memory `MBCKPT2` checkpoint: an ordered list of named, typed
/// entries with atomic persistence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    entries: Vec<(String, Payload)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends a tensor entry.
    pub fn put_tensor(&mut self, name: impl Into<String>, tensor: Tensor) {
        self.entries.push((name.into(), Payload::Tensor(tensor)));
    }

    /// Appends a raw-bytes entry.
    pub fn put_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.entries.push((name.into(), Payload::Bytes(bytes)));
    }

    /// Appends a counter entry.
    pub fn put_u64(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), Payload::U64(value)));
    }

    /// Appends a scalar entry.
    pub fn put_f64(&mut self, name: impl Into<String>, value: f64) {
        self.entries.push((name.into(), Payload::F64(value)));
    }

    fn get(&self, name: &str) -> Option<&Payload> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }

    /// The tensor stored under `name`, if present and tensor-typed.
    pub fn tensor(&self, name: &str) -> Option<&Tensor> {
        match self.get(name) {
            Some(Payload::Tensor(t)) => Some(t),
            _ => None,
        }
    }

    /// The byte string stored under `name`, if present and byte-typed.
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        match self.get(name) {
            Some(Payload::Bytes(b)) => Some(b),
            _ => None,
        }
    }

    /// The counter stored under `name`, if present and `u64`-typed.
    pub fn get_u64(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Payload::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The scalar stored under `name`, if present and `f64`-typed.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Payload::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Iterates over every `(name, tensor)` entry, in file order.
    pub fn tensors(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().filter_map(|(n, p)| match p {
            Payload::Tensor(t) => Some((n.as_str(), t)),
            _ => None,
        })
    }

    /// Iterates over tensor entries whose name starts with `prefix`,
    /// yielding the name with the prefix stripped.
    pub fn tensors_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Tensor)> + 'a {
        self.tensors()
            .filter_map(move |(n, t)| n.strip_prefix(prefix).map(|rest| (rest, t)))
    }

    /// Serializes into `w` (the `MBCKPT2` byte stream, no atomicity).
    fn write_to(&self, w: &mut impl Write) -> CkptResult<()> {
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(MAGIC_V2);
        header.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&crc32(&header).to_le_bytes())?;
        for (name, payload) in &self.entries {
            let mut body = Vec::new();
            body.push(payload.kind());
            body.extend_from_slice(&(name.len() as u32).to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            let bytes = encode_payload(payload);
            body.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            // CRC covers kind ‖ name ‖ payload (not the length fields,
            // which are validated structurally against the file size).
            let mut crc = Crc32::new();
            crc.update(&[payload.kind()]);
            crc.update(name.as_bytes());
            crc.update(&bytes);
            body.extend_from_slice(&bytes);
            body.extend_from_slice(&crc.finish().to_le_bytes());
            w.write_all(&body)?;
        }
        Ok(())
    }

    /// Atomically persists the checkpoint to `path`: serialize to a
    /// sibling temporary file, fsync, rename over the target, fsync the
    /// directory. A crash at any point leaves either the old complete
    /// file or the new complete file.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error; on error the target file is
    /// untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> CkptResult<()> {
        let path = path.as_ref();
        let tmp = tmp_sibling(path);
        let result = (|| -> CkptResult<()> {
            let mut file = File::create(&tmp)?;
            let mut buf = io::BufWriter::new(&mut file);
            self.write_to(&mut buf)?;
            buf.flush()?;
            drop(buf);
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            sync_parent_dir(path);
            Ok(())
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    /// Loads an `MBCKPT2` checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] for I/O failures, bad magic,
    /// another format revision, truncation, oversized length fields or
    /// CRC mismatches.
    pub fn load(path: impl AsRef<Path>) -> CkptResult<Self> {
        let path = path.as_ref();
        let file_len = std::fs::metadata(path)?.len();
        let mut r = BoundedReader {
            inner: BufReader::new(File::open(path)?),
            remaining: file_len,
        };
        let mut magic = [0u8; 8];
        r.read_exact_bounded(&mut magic, "magic")?;
        match &magic {
            m if m == MAGIC_V2 => Self::load_v2(&mut r),
            m if m.starts_with(b"MBCKPT") && m[7] == b'\n' && m[6].is_ascii_digit() => {
                Err(CheckpointError::UnsupportedVersion(m[6] - b'0'))
            }
            _ => Err(CheckpointError::BadMagic),
        }
    }

    fn load_v2(r: &mut BoundedReader) -> CkptResult<Self> {
        let count_bytes = r.read_array::<4>("entry count")?;
        let count = u32::from_le_bytes(count_bytes) as usize;
        let stored_header_crc = u32::from_le_bytes(r.read_array::<4>("header crc")?);
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(MAGIC_V2);
        header.extend_from_slice(&count_bytes);
        if crc32(&header) != stored_header_crc {
            return Err(CheckpointError::CrcMismatch {
                entry: "<header>".into(),
            });
        }
        // Every entry needs ≥ 17 bytes of framing; cheap sanity bound on
        // the declared count before reserving anything.
        if (count as u64) * 17 > r.remaining {
            return Err(CheckpointError::Oversized {
                what: "entry count".into(),
                claimed: count as u64,
                available: r.remaining / 17,
            });
        }
        let mut entries = Vec::with_capacity(count);
        for idx in 0..count {
            let kind = r.read_array::<1>("entry kind")?[0];
            let name_len = u32::from_le_bytes(r.read_array::<4>("name length")?) as usize;
            if name_len > MAX_NAME_LEN {
                return Err(CheckpointError::Oversized {
                    what: format!("entry {idx} name length"),
                    claimed: name_len as u64,
                    available: MAX_NAME_LEN as u64,
                });
            }
            let name_bytes = r.read_vec(name_len, &format!("entry {idx} name"))?;
            let name = String::from_utf8(name_bytes)
                .map_err(|_| CheckpointError::Corrupt(format!("entry {idx} name is not UTF-8")))?;
            let payload_len = u64::from_le_bytes(r.read_array::<8>("payload length")?);
            if payload_len + 4 > r.remaining {
                return Err(CheckpointError::Oversized {
                    what: format!("entry {name:?} payload"),
                    claimed: payload_len,
                    available: r.remaining.saturating_sub(4),
                });
            }
            let payload_bytes = r.read_vec(payload_len as usize, &format!("entry {name:?}"))?;
            let stored_crc = u32::from_le_bytes(r.read_array::<4>("entry crc")?);
            let mut crc = Crc32::new();
            crc.update(&[kind]);
            crc.update(name.as_bytes());
            crc.update(&payload_bytes);
            if crc.finish() != stored_crc {
                return Err(CheckpointError::CrcMismatch { entry: name });
            }
            let payload = decode_payload(kind, &payload_bytes, &name)?;
            entries.push((name, payload));
        }
        if r.remaining != 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the last entry",
                r.remaining
            )));
        }
        Ok(Self { entries })
    }
}

fn encode_payload(payload: &Payload) -> Vec<u8> {
    match payload {
        Payload::Tensor(t) => {
            let mut out = Vec::with_capacity(4 + t.rank() * 8 + t.len() * 4);
            out.extend_from_slice(&(t.rank() as u32).to_le_bytes());
            for &d in t.shape() {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            for &v in t.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
        Payload::Bytes(b) => b.clone(),
        Payload::U64(v) => v.to_le_bytes().to_vec(),
        Payload::F64(v) => v.to_le_bytes().to_vec(),
    }
}

fn decode_payload(kind: u8, bytes: &[u8], name: &str) -> CkptResult<Payload> {
    let corrupt = |what: &str| CheckpointError::Corrupt(format!("entry {name:?}: {what}"));
    match kind {
        0 => {
            if bytes.len() < 4 {
                return Err(corrupt("tensor payload shorter than its rank field"));
            }
            let rank = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
            if rank > MAX_RANK {
                return Err(corrupt(&format!(
                    "tensor rank {rank} exceeds cap {MAX_RANK}"
                )));
            }
            let dims_end = 4 + rank * 8;
            if bytes.len() < dims_end {
                return Err(corrupt("tensor payload truncated inside its dims"));
            }
            let mut shape = Vec::with_capacity(rank);
            let mut volume: u64 = 1;
            for d in 0..rank {
                let dim = u64::from_le_bytes(
                    bytes[4 + d * 8..4 + (d + 1) * 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                volume = volume.saturating_mul(dim.max(1));
                shape.push(dim as usize);
            }
            let data_bytes = &bytes[dims_end..];
            if volume.saturating_mul(4) != data_bytes.len() as u64 {
                return Err(corrupt(&format!(
                    "shape {shape:?} implies {volume} values but payload carries {}",
                    data_bytes.len() / 4
                )));
            }
            let data: Vec<f32> = data_bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            let tensor = Tensor::from_vec(data, &shape)
                .map_err(|e| corrupt(&format!("invalid tensor: {e}")))?;
            Ok(Payload::Tensor(tensor))
        }
        1 => Ok(Payload::Bytes(bytes.to_vec())),
        2 => {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| corrupt("u64 payload is not 8 bytes"))?;
            Ok(Payload::U64(u64::from_le_bytes(arr)))
        }
        3 => {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| corrupt("f64 payload is not 8 bytes"))?;
            Ok(Payload::F64(f64::from_le_bytes(arr)))
        }
        other => Err(corrupt(&format!("unknown payload kind {other}"))),
    }
}

/// A reader that tracks how many bytes remain in the file, so length
/// fields can be validated *before* any allocation.
struct BoundedReader {
    inner: BufReader<File>,
    remaining: u64,
}

impl BoundedReader {
    fn read_exact_bounded(&mut self, buf: &mut [u8], what: &str) -> CkptResult<()> {
        if buf.len() as u64 > self.remaining {
            return Err(CheckpointError::Corrupt(format!(
                "file truncated reading {what}"
            )));
        }
        self.inner.read_exact(buf)?;
        self.remaining -= buf.len() as u64;
        Ok(())
    }

    fn read_array<const N: usize>(&mut self, what: &str) -> CkptResult<[u8; N]> {
        let mut buf = [0u8; N];
        self.read_exact_bounded(&mut buf, what)?;
        Ok(buf)
    }

    fn read_vec(&mut self, len: usize, what: &str) -> CkptResult<Vec<u8>> {
        if len as u64 > self.remaining {
            return Err(CheckpointError::Oversized {
                what: what.to_string(),
                claimed: len as u64,
                available: self.remaining,
            });
        }
        let mut buf = vec![0u8; len];
        self.inner.read_exact(&mut buf)?;
        self.remaining -= len as u64;
        Ok(buf)
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".into());
    name.push_str(&format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory so the rename itself is
/// durable. Failures are ignored: some filesystems refuse directory
/// fsyncs, and the data file is already synced.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(dir) = File::open(parent) {
            dir.sync_all().ok();
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — implemented in-crate; the workspace is
// dependency-free.
// ---------------------------------------------------------------------------

struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Self { state: !0 }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u32::from(b);
            for _ in 0..8 {
                let mask = (self.state & 1).wrapping_neg();
                self.state = (self.state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }

    fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------------
// Params-level convenience API (back-compatible surface)
// ---------------------------------------------------------------------------

/// Saves every parameter of `params` plus the `extra` named tensors
/// (typically batch-norm running statistics) to `path`, atomically, in
/// the `MBCKPT2` format.
///
/// # Errors
///
/// Returns any underlying I/O error; the previous file at `path` (if any)
/// survives intact on failure.
pub fn save_params(
    path: impl AsRef<Path>,
    params: &Params,
    extra: &[(String, Tensor)],
) -> io::Result<()> {
    let mut ckpt = Checkpoint::new();
    for (name, tensor) in params.iter() {
        ckpt.put_tensor(name, tensor.clone());
    }
    for (name, tensor) in extra {
        ckpt.put_tensor(name.clone(), tensor.clone());
    }
    ckpt.save(path).map_err(io::Error::from)
}

/// Loads every `(name, tensor)` entry from a checkpoint written by
/// [`save_params`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] for a damaged file, or any
/// underlying I/O error. Use [`Checkpoint::load`] for typed errors.
pub fn load_params(path: impl AsRef<Path>) -> io::Result<Vec<(String, Tensor)>> {
    let ckpt = Checkpoint::load(path).map_err(io::Error::from)?;
    Ok(ckpt
        .tensors()
        .map(|(n, t)| (n.to_string(), t.clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("membit-ckpt-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_params_and_extras() {
        let mut params = Params::new();
        params.register(
            "a.weight",
            Tensor::from_vec(vec![1.0, -2.0, 3.5], &[3]).unwrap(),
        );
        params.register("b.weight", Tensor::from_fn(&[2, 2], |i| i as f32));
        let extra = vec![(
            "bn0.running_mean".to_string(),
            Tensor::from_vec(vec![0.25], &[1]).unwrap(),
        )];
        let path = temp_path("roundtrip");
        save_params(&path, &params, &extra).unwrap();
        let loaded = load_params(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[0].0, "a.weight");
        assert_eq!(loaded[0].1.as_slice(), &[1.0, -2.0, 3.5]);
        assert_eq!(loaded[1].1.shape(), &[2, 2]);
        assert_eq!(loaded[2].0, "bn0.running_mean");
    }

    #[test]
    fn roundtrip_all_payload_kinds() {
        let mut ckpt = Checkpoint::new();
        ckpt.put_tensor("t", Tensor::from_fn(&[3, 2], |i| i as f32 - 2.5));
        ckpt.put_bytes("rng", vec![1, 2, 3, 255, 0, 7]);
        ckpt.put_u64("epoch", u64::MAX - 3);
        ckpt.put_f64("lr_scale", -0.125);
        ckpt.put_bytes("empty", Vec::new());
        let path = temp_path("kinds");
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, ckpt);
        assert_eq!(loaded.tensor("t").unwrap().shape(), &[3, 2]);
        assert_eq!(loaded.bytes("rng").unwrap(), &[1, 2, 3, 255, 0, 7]);
        assert_eq!(loaded.get_u64("epoch"), Some(u64::MAX - 3));
        assert_eq!(loaded.get_f64("lr_scale"), Some(-0.125));
        assert_eq!(loaded.bytes("empty").unwrap(), &[] as &[u8]);
        // type confusion returns None rather than reinterpreting
        assert!(loaded.tensor("epoch").is_none());
        assert!(loaded.get_u64("t").is_none());
    }

    #[test]
    fn prefix_iteration() {
        let mut ckpt = Checkpoint::new();
        ckpt.put_tensor("param.w", Tensor::ones(&[1]));
        ckpt.put_tensor("param.b", Tensor::zeros(&[1]));
        ckpt.put_tensor("opt.v0", Tensor::zeros(&[1]));
        let names: Vec<_> = ckpt
            .tensors_with_prefix("param.")
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names, vec!["w", "b"]);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"NOTACKPT....").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err, CheckpointError::BadMagic);
        // io-level API maps to InvalidData
        std::fs::write(&path, b"NOTACKPT....").unwrap();
        let err = load_params(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn future_revision_rejected_with_version() {
        // a later revision, and the retired tensor-only first one
        let path = temp_path("future");
        for (bytes, version) in [(&b"MBCKPT9\n garbage"[..], 9), (b"MBCKPT1\n\x01\0\0\0", 1)] {
            std::fs::write(&path, bytes).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            std::fs::remove_file(&path).ok();
            assert_eq!(err, CheckpointError::UnsupportedVersion(version));
        }
    }

    #[test]
    fn truncated_file_errors() {
        let mut params = Params::new();
        params.register("w", Tensor::ones(&[100]));
        let path = temp_path("trunc");
        save_params(&path, &params, &[]).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [full.len() / 2, 9, 13, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(load_params(&path).is_err(), "length {keep} loaded");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_header_fields_bounded() {
        // a CRC-valid header claiming `count` entries
        let header = |count: u32| {
            let mut bytes = MAGIC_V2.to_vec();
            bytes.extend_from_slice(&count.to_le_bytes());
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes
        };
        // 2^32 − 1 entries in a 24-byte file, then one entry "w" claiming
        // a 1 TiB payload: both must be rejected before allocating
        let mut huge_count = header(u32::MAX);
        huge_count.extend_from_slice(&[0u8; 8]);
        let mut huge_payload = header(1);
        huge_payload.push(0);
        huge_payload.extend_from_slice(&1u32.to_le_bytes());
        huge_payload.push(b'w');
        huge_payload.extend_from_slice(&(1u64 << 40).to_le_bytes());
        huge_payload.extend_from_slice(&[0u8; 8]);
        for (field, bytes) in [("entry count", huge_count), ("payload", huge_payload)] {
            let path = temp_path("oversized");
            std::fs::write(&path, &bytes).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            std::fs::remove_file(&path).ok();
            assert!(
                matches!(&err, CheckpointError::Oversized { what, .. } if what.contains(field)),
                "{field}: {err}"
            );
        }
    }

    #[test]
    fn single_bit_flip_detected_everywhere() {
        let mut ckpt = Checkpoint::new();
        ckpt.put_tensor("w", Tensor::from_fn(&[4], |i| i as f32));
        ckpt.put_u64("epoch", 3);
        let path = temp_path("bitflip");
        ckpt.save(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[byte] ^= 0x10;
            std::fs::write(&path, &dirty).unwrap();
            assert!(
                Checkpoint::load(&path).is_err(),
                "flip at byte {byte}/{} loaded silently",
                clean.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut ckpt = Checkpoint::new();
        ckpt.put_u64("x", 1);
        let path = temp_path("trailing");
        ckpt.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn save_overwrites_atomically() {
        let path = temp_path("atomic");
        let mut first = Checkpoint::new();
        first.put_u64("gen", 1);
        first.save(&path).unwrap();
        let mut second = Checkpoint::new();
        second.put_u64("gen", 2);
        second.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.get_u64("gen"), Some(2));
        // no temp litter left behind
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().into_owned();
                n.starts_with(&stem) && n.contains(".tmp.")
            })
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn assign_restores_into_store() {
        let mut params = Params::new();
        params.register("w", Tensor::zeros(&[2]));
        let path = temp_path("assign");
        {
            let mut donor = Params::new();
            donor.register("w", Tensor::from_vec(vec![7.0, 8.0], &[2]).unwrap());
            save_params(&path, &donor, &[]).unwrap();
        }
        for (name, tensor) in load_params(&path).unwrap() {
            assert!(params.assign(&name, tensor));
        }
        std::fs::remove_file(&path).ok();
        let id = params.find("w").unwrap();
        assert_eq!(params.get(id).as_slice(), &[7.0, 8.0]);
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
