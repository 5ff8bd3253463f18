//! Labeled image collections with batching and shuffling.

use membit_tensor::{Rng, Tensor, TensorError};

use crate::Result;

/// An in-memory labeled dataset of `[N, C, H, W]` images.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Bundles images with labels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the label count doesn't
    /// match the image count, a label is out of range, images are not
    /// rank 4, or any pixel is NaN/±Inf (corrupted inputs poison the loss
    /// many batches later — reject them at the door instead).
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Result<Self> {
        if images.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "dataset images",
                expected: 4,
                actual: images.rank(),
            });
        }
        if images.shape()[0] != labels.len() {
            return Err(TensorError::InvalidArgument(format!(
                "{} images but {} labels",
                images.shape()[0],
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&y| y >= num_classes) {
            return Err(TensorError::InvalidArgument(format!(
                "label {bad} out of range for {num_classes} classes"
            )));
        }
        if let Some(pos) = images.as_slice().iter().position(|v| !v.is_finite()) {
            let per = images.len() / labels.len().max(1);
            return Err(TensorError::InvalidArgument(format!(
                "non-finite pixel at flat index {pos} (sample {})",
                pos / per.max(1)
            )));
        }
        Ok(Self {
            images,
            labels,
            num_classes,
        })
    }

    /// Number of samples.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Shape of one sample `[C, H, W]`.
    pub fn sample_shape(&self) -> &[usize] {
        &self.images.shape()[1..]
    }

    /// All images (`[N, C, H, W]`).
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Extracts the batch starting at `start` with up to `size` samples
    /// (truncated at the end of the dataset).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `start` is past the end
    /// or `size` is zero.
    pub fn batch(&self, start: usize, size: usize) -> Result<(Tensor, Vec<usize>)> {
        if start >= self.len() || size == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "invalid batch start {start} (len {}) or size {size}",
                self.len()
            )));
        }
        let end = (start + size).min(self.len());
        let per = self.images.len() / self.len();
        let data = self.images.as_slice()[start * per..end * per].to_vec();
        let mut shape = self.images.shape().to_vec();
        shape[0] = end - start;
        Ok((
            Tensor::from_vec(data, &shape)?,
            self.labels[start..end].to_vec(),
        ))
    }

    /// Iterates over batches of `size` in order; the last one may be
    /// shorter.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero `size`, also
    /// on an empty dataset.
    pub fn batches(&self, size: usize) -> Result<impl Iterator<Item = (Tensor, Vec<usize>)> + '_> {
        if size == 0 {
            return Err(TensorError::InvalidArgument(
                "batch size must be nonzero".into(),
            ));
        }
        Ok((0..self.len())
            .step_by(size)
            .map(move |start| self.batch(start, size).expect("in-range batch")))
    }

    /// Returns a copy with samples permuted by `rng` (for epoch
    /// shuffling).
    pub fn shuffled(&self, rng: &mut Rng) -> Dataset {
        let n = self.len();
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let per = self.images.len() / n.max(1);
        let src = self.images.as_slice();
        let mut data = Vec::with_capacity(self.images.len());
        let mut labels = Vec::with_capacity(n);
        for &i in &order {
            data.extend_from_slice(&src[i * per..(i + 1) * per]);
            labels.push(self.labels[i]);
        }
        Dataset {
            images: Tensor::from_vec(data, self.images.shape()).expect("same volume"),
            labels,
            num_classes: self.num_classes,
        }
    }

    /// Per-class sample counts.
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &y in &self.labels {
            h[y] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(n: usize) -> Dataset {
        let images = Tensor::from_fn(&[n, 1, 2, 2], |i| i as f32);
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(images, labels, 3).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Dataset::new(Tensor::zeros(&[2, 3]), vec![0, 0], 1).is_err());
        assert!(Dataset::new(Tensor::zeros(&[2, 1, 2, 2]), vec![0], 1).is_err());
        assert!(Dataset::new(Tensor::zeros(&[2, 1, 2, 2]), vec![0, 5], 3).is_err());
    }

    #[test]
    fn non_finite_pixels_rejected() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = vec![0.0f32; 8];
            data[6] = poison;
            let images = Tensor::from_vec(data, &[2, 1, 2, 2]).unwrap();
            let err = Dataset::new(images, vec![0, 1], 2).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("non-finite"), "{msg}");
            assert!(msg.contains("sample 1"), "{msg}");
        }
    }

    #[test]
    fn batch_extracts_contiguous_samples() {
        let d = make(10);
        let (imgs, labels) = d.batch(2, 3).unwrap();
        assert_eq!(imgs.shape(), &[3, 1, 2, 2]);
        assert_eq!(labels, vec![2, 0, 1]);
        assert_eq!(imgs.at(0), 8.0); // sample 2 starts at flat 2·4
    }

    #[test]
    fn final_batch_truncates() {
        let d = make(10);
        let (imgs, labels) = d.batch(8, 4).unwrap();
        assert_eq!(imgs.shape()[0], 2);
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn batch_bounds_checked() {
        let d = make(4);
        assert!(d.batch(4, 1).is_err());
        assert!(d.batch(0, 0).is_err());
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = make(10);
        let total: usize = d.batches(3).unwrap().map(|(_, l)| l.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(d.batches(3).unwrap().count(), 4);
    }

    #[test]
    fn zero_batch_size_is_rejected_typed() {
        // an empty dataset rejects it too, instead of yielding nothing
        for d in [make(10), make(0)] {
            assert!(matches!(d.batches(0), Err(TensorError::InvalidArgument(_))));
        }
        assert_eq!(make(0).batches(3).unwrap().count(), 0);
    }

    #[test]
    fn shuffled_is_permutation() {
        let d = make(20);
        let mut rng = Rng::from_seed(0);
        let s = d.shuffled(&mut rng);
        assert_eq!(s.len(), 20);
        assert_eq!(s.class_histogram(), d.class_histogram());
        assert_ne!(s.labels(), d.labels()); // overwhelmingly likely
                                            // image/label pairing preserved: sample with first pixel 4k has label k%3
        for i in 0..20 {
            let first_pixel = s.images().at(i * 4);
            let orig_index = (first_pixel / 4.0) as usize;
            assert_eq!(s.labels()[i], orig_index % 3);
        }
    }

    #[test]
    fn histogram_counts() {
        let d = make(9);
        assert_eq!(d.class_histogram(), vec![3, 3, 3]);
        assert_eq!(d.sample_shape(), &[1, 2, 2]);
    }
}
