//! Deterministic checkpoint fault injection for tests.
//!
//! The recovery paths in [`super`] (CRC verification, bounded loads,
//! atomic renames) only earn their keep if something exercises them.
//! This module damages checkpoint files in the precise ways real systems
//! do — power loss mid-write, a flipped bit on flash, a full disk — so
//! the test suite can prove each failure is *detected*, never silently
//! absorbed into a model's weights.
//!
//! Everything here is deterministic: faults are addressed by byte offset
//! or write-count, not sampled, so a failing case replays exactly.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use super::{tmp_sibling, Checkpoint, CheckpointError, CkptResult};

/// Flips bit `bit` (0–7) of the byte at `offset` in the file at `path`.
///
/// # Errors
///
/// Returns an error if the file cannot be read/written or `offset` is out
/// of range.
pub fn flip_bit(path: impl AsRef<Path>, offset: usize, bit: u8) -> io::Result<()> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path)?;
    let byte = bytes.get_mut(offset).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("offset {offset} beyond end of file"),
        )
    })?;
    *byte ^= 1 << (bit % 8);
    std::fs::write(path, bytes)
}

/// Truncates the file at `path` to its first `keep` bytes (no-op if it is
/// already shorter) — the shape a crash mid-append leaves behind.
///
/// # Errors
///
/// Returns an error if the file cannot be opened or truncated.
pub fn truncate(path: impl AsRef<Path>, keep: u64) -> io::Result<()> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    if keep < len {
        file.set_len(keep)?;
    }
    Ok(())
}

/// Simulates a crash (power loss / SIGKILL) during [`Checkpoint::save`]:
/// performs the same serialization into the same sibling temporary file,
/// then *stops* — no fsync, no rename. Returns the temp path so tests can
/// assert on the litter.
///
/// The invariant under test: the target at `path` is untouched — an old
/// complete checkpoint still loads, a missing one is still missing.
///
/// # Errors
///
/// Returns an error if the temporary file cannot be written.
pub fn save_crashing_before_rename(
    ckpt: &Checkpoint,
    path: impl AsRef<Path>,
) -> CkptResult<PathBuf> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    let mut file = File::create(&tmp)?;
    let mut buf = io::BufWriter::new(&mut file);
    ckpt.write_to(&mut buf)?;
    buf.flush()?;
    Ok(tmp)
}

/// A writer that fails with the given error kind after passing through
/// `ok_bytes` bytes — a deterministic stand-in for a disk filling up or a
/// flaky device mid-write.
pub struct FailingWriter<W> {
    inner: W,
    ok_bytes: usize,
    written: usize,
    kind: io::ErrorKind,
}

impl<W: Write> FailingWriter<W> {
    /// Wraps `inner`, allowing `ok_bytes` through before every write
    /// errors with `kind`.
    pub fn new(inner: W, ok_bytes: usize, kind: io::ErrorKind) -> Self {
        Self {
            inner,
            ok_bytes,
            written: 0,
            kind,
        }
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written >= self.ok_bytes {
            return Err(io::Error::new(self.kind, "injected write fault"));
        }
        let allowed = (self.ok_bytes - self.written).min(buf.len());
        let n = self.inner.write(&buf[..allowed])?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Serializes `ckpt` through a [`FailingWriter`] that errors after
/// `ok_bytes`, returning the typed error the save path surfaces. The
/// target file at `path` must remain untouched; only a temp file may be
/// created (and is removed before returning, mirroring
/// [`Checkpoint::save`]'s cleanup).
///
/// # Errors
///
/// Always returns `Err` when `ok_bytes` is smaller than the serialized
/// size; `Ok(())` means the checkpoint fit under the fault threshold.
pub fn save_with_io_fault(
    ckpt: &Checkpoint,
    path: impl AsRef<Path>,
    ok_bytes: usize,
    kind: io::ErrorKind,
) -> CkptResult<()> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    let result = (|| -> CkptResult<()> {
        let file = File::create(&tmp)?;
        let mut w = FailingWriter::new(file, ok_bytes, kind);
        ckpt.write_to(&mut w)?;
        w.flush()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// The serialized `MBCKPT2` byte image of `ckpt` (for offset arithmetic
/// in corruption tests).
///
/// # Errors
///
/// Never fails in practice (writes to a `Vec`); the `Result` mirrors the
/// serializer's signature.
pub fn to_bytes(ckpt: &Checkpoint) -> CkptResult<Vec<u8>> {
    let mut out = Vec::new();
    ckpt.write_to(&mut out)?;
    Ok(out)
}

/// Loads a checkpoint whose bytes are already in memory (round-trip
/// helper for property tests that never touch disk).
///
/// # Errors
///
/// Same contract as [`Checkpoint::load`].
pub fn from_bytes(bytes: &[u8]) -> CkptResult<Checkpoint> {
    // Reuse the file-based loader by staging through a temp file: the
    // loader's bounded reads are driven by real file metadata, which is
    // exactly the code path production takes.
    let path = std::env::temp_dir().join(format!(
        "membit-ckpt-frombytes-{}-{:x}",
        std::process::id(),
        super::crc32(bytes)
    ));
    std::fs::write(&path, bytes).map_err(CheckpointError::from)?;
    let result = Checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_tensor::Tensor;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new();
        c.put_tensor("w", Tensor::from_fn(&[3], |i| i as f32));
        c.put_u64("epoch", 5);
        c
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("membit-faulty-{tag}-{}", std::process::id()))
    }

    #[test]
    fn crash_before_rename_preserves_target() {
        let path = temp("crash");
        let mut old = Checkpoint::new();
        old.put_u64("gen", 1);
        old.save(&path).unwrap();
        let tmp = save_crashing_before_rename(&sample(), &path).unwrap();
        assert!(tmp.exists(), "crash should leave the temp file");
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.get_u64("gen"), Some(1), "target must be untouched");
        std::fs::remove_file(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_fault_leaves_no_file() {
        let path = temp("iofault");
        std::fs::remove_file(&path).ok();
        let err = save_with_io_fault(&sample(), &path, 10, io::ErrorKind::WriteZero).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Io(io::ErrorKind::WriteZero, _)
        ));
        assert!(!path.exists(), "failed save must not create the target");
    }

    #[test]
    fn flip_and_truncate_are_detected() {
        let path = temp("flip");
        sample().save(&path).unwrap();
        flip_bit(&path, 20, 3).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        sample().save(&path).unwrap();
        truncate(&path, 15).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_roundtrip() {
        let bytes = to_bytes(&sample()).unwrap();
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded, sample());
    }
}
