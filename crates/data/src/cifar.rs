//! Loader for the real CIFAR-10 **binary** format.
//!
//! This offline reproduction evaluates on procedural
//! [SynthCIFAR](crate::synth_cifar), but users with the actual dataset
//! (<https://www.cs.toronto.edu/~kriz/cifar.html>, "binary version") can
//! point [`load_cifar10`] at the extracted `cifar-10-batches-bin`
//! directory and run every experiment on the paper's original benchmark.
//!
//! Format (per the dataset card): each of `data_batch_{1..5}.bin` and
//! `test_batch.bin` holds 10 000 records of 3 073 bytes — one label byte
//! followed by a 3×32×32 image in CHW order, red plane first. Pixels are
//! rescaled from `[0, 255]` to the `[-1, 1]` range the BWNN expects.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use membit_tensor::Tensor;

use crate::dataset::Dataset;

const RECORD_BYTES: usize = 1 + 3 * 32 * 32;
const IMAGE_PIXELS: usize = 3 * 32 * 32;

/// Reads one CIFAR-10 binary batch file into pixel/label buffers.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] if the file length is not a
/// multiple of the record size or a label byte exceeds 9.
pub fn read_cifar_batch(path: impl AsRef<Path>) -> io::Result<(Vec<f32>, Vec<usize>)> {
    let mut reader = BufReader::new(File::open(&path)?);
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    if raw.is_empty() || raw.len() % RECORD_BYTES != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: length {} is not a multiple of the {RECORD_BYTES}-byte record",
                path.as_ref().display(),
                raw.len()
            ),
        ));
    }
    let records = raw.len() / RECORD_BYTES;
    let mut pixels = Vec::with_capacity(records * IMAGE_PIXELS);
    let mut labels = Vec::with_capacity(records);
    for rec in raw.chunks_exact(RECORD_BYTES) {
        let label = rec[0] as usize;
        if label > 9 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("label byte {label} out of range for CIFAR-10"),
            ));
        }
        labels.push(label);
        pixels.extend(rec[1..].iter().map(|&b| b as f32 / 127.5 - 1.0));
    }
    Ok((pixels, labels))
}

/// Loads the full CIFAR-10 train/test split from an extracted
/// `cifar-10-batches-bin` directory.
///
/// # Errors
///
/// Returns I/O errors for missing/malformed batch files.
pub fn load_cifar10(dir: impl AsRef<Path>) -> io::Result<(Dataset, Dataset)> {
    let dir = dir.as_ref();
    let mut train_pixels = Vec::new();
    let mut train_labels = Vec::new();
    for i in 1..=5 {
        let (p, l) = read_cifar_batch(dir.join(format!("data_batch_{i}.bin")))?;
        train_pixels.extend(p);
        train_labels.extend(l);
    }
    let (test_pixels, test_labels) = read_cifar_batch(dir.join("test_batch.bin"))?;
    let to_dataset = |pixels: Vec<f32>, labels: Vec<usize>| -> io::Result<Dataset> {
        let n = labels.len();
        let images = Tensor::from_vec(pixels, &[n, 3, 32, 32])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Dataset::new(images, labels, 10)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    };
    Ok((
        to_dataset(train_pixels, train_labels)?,
        to_dataset(test_pixels, test_labels)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("membit-cifar-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `n` synthetic records in the official binary layout.
    fn write_batch(path: &Path, n: usize, label_of: impl Fn(usize) -> u8) {
        let mut bytes = Vec::with_capacity(n * RECORD_BYTES);
        for i in 0..n {
            bytes.push(label_of(i));
            for p in 0..IMAGE_PIXELS {
                bytes.push(((i * 37 + p * 11) % 256) as u8);
            }
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn reads_well_formed_batch() {
        let dir = temp_dir("ok");
        let path = dir.join("batch.bin");
        write_batch(&path, 3, |i| (i % 10) as u8);
        let (pixels, labels) = read_cifar_batch(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(labels, vec![0, 1, 2]);
        assert_eq!(pixels.len(), 3 * IMAGE_PIXELS);
        assert!(pixels.iter().all(|&v| (-1.0..=1.0).contains(&v)));
        // byte 0 maps to −1, byte 255 maps to +1
        assert!((pixels[0] - (0.0 / 127.5 - 1.0)).abs() < 1e-6);
    }

    #[test]
    fn rejects_truncated_batch() {
        let dir = temp_dir("trunc");
        let path = dir.join("batch.bin");
        std::fs::write(&path, vec![0u8; RECORD_BYTES + 5]).unwrap();
        let err = read_cifar_batch(&path).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_bad_label() {
        let dir = temp_dir("label");
        let path = dir.join("batch.bin");
        write_batch(&path, 1, |_| 17);
        let err = read_cifar_batch(&path).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn loads_full_directory_layout() {
        let dir = temp_dir("full");
        for i in 1..=5 {
            write_batch(&dir.join(format!("data_batch_{i}.bin")), 4, |j| {
                (j % 10) as u8
            });
        }
        write_batch(&dir.join("test_batch.bin"), 2, |j| (j % 10) as u8);
        let (train, test) = load_cifar10(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 2);
        assert_eq!(train.sample_shape(), &[3, 32, 32]);
        assert_eq!(train.num_classes(), 10);
    }

    #[test]
    fn missing_files_error() {
        let dir = temp_dir("missing");
        let err = load_cifar10(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
