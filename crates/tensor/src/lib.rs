//! # membit-tensor
//!
//! Dense, contiguous, row-major `f32` tensors plus the numeric kernels the
//! rest of the `membit` workspace is built on: broadcast elementwise
//! arithmetic, a blocked (optionally multi-threaded) matrix multiply,
//! `im2col`/`col2im` for convolution lowering, axis reductions, seeded
//! random number generation with an in-crate Gaussian sampler, and
//! [`tanh`], a host-independent port of glibc's `tanhf`.
//!
//! The design goal is a *small, predictable* substrate for the autodiff and
//! crossbar-simulation crates rather than a general ndarray replacement:
//! tensors are always contiguous, which keeps the autodiff tape and the
//! crossbar pulse pipelines simple and cache friendly.
//!
//! ```
//! use membit_tensor::Tensor;
//!
//! # fn main() -> Result<(), membit_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod error;
mod gauss;
mod matmul;
mod ops;
pub mod parallel;
mod reduce;
mod rng;
mod tanh;
mod tensor;

pub use conv::{col2im, im2col, im2col_into, Conv2dGeometry};
pub use error::TensorError;
pub use matmul::{matmul_into, MatmulOptions};
pub use rng::{Rng, RngStream};
pub use tanh::tanh;
pub use tensor::Tensor;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
