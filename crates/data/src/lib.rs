//! # membit-data
//!
//! Procedural image-classification datasets for the `membit` workspace.
//!
//! The GBO paper evaluates on CIFAR-10, which is unavailable offline; per
//! the reproduction plan (DESIGN.md §2) we substitute **SynthCIFAR** — a
//! seeded, procedurally generated 10-class dataset of small RGB images
//! built from class-conditional smooth prototypes plus per-sample
//! deformation and pixel noise. It exercises exactly the same model code
//! path (3-channel NCHW input, 10-way softmax) with controllable
//! difficulty.
//!
//! ```
//! use membit_data::{synth_cifar, SynthCifarConfig};
//!
//! # fn main() -> Result<(), membit_tensor::TensorError> {
//! let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 42)?;
//! assert_eq!(train.num_classes(), 10);
//! let (images, labels) = train.batch(0, 8)?;
//! assert_eq!(images.shape()[0], labels.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cifar;
mod dataset;
mod synth;

pub use cifar::load_cifar10;
pub use dataset::Dataset;
pub use synth::{synth_cifar, SynthCifarConfig};

/// Convenience alias matching [`membit_tensor::Result`].
pub type Result<T> = std::result::Result<T, membit_tensor::TensorError>;
