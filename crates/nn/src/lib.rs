//! # membit-nn
//!
//! Neural-network building blocks over [`membit_autograd`]: a central
//! parameter store, convolution / linear / batch-norm layers with optional
//! **binary weights** (straight-through `sign`), k-level activation
//! quantization, SGD/Adam optimizers with step LR schedules, metrics, and
//! the VGG9 binary-weight network the GBO paper evaluates.
//!
//! The key extension point for the crossbar work is [`MvmNoiseHook`]:
//! every layer whose matrix-vector product would execute on a memristive
//! crossbar passes its raw MVM output through the hook, which is where the
//! paper's Gaussian noise (Eq. 1), the GBO mixture (Eq. 5) and NIA noise
//! injection are implemented by downstream crates.
//!
//! ```
//! use membit_nn::{Mlp, MlpConfig, NoNoise, Params, Phase};
//! use membit_autograd::Tape;
//! use membit_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), membit_tensor::TensorError> {
//! let mut params = Params::new();
//! let mut rng = Rng::from_seed(0);
//! let mut mlp = Mlp::new(&MlpConfig::new(4, &[8], 3), &mut params, &mut rng)?;
//! let mut tape = Tape::new();
//! let x = tape.constant(Tensor::zeros(&[2, 4]));
//! let mut binding = params.binding();
//! let logits = mlp.forward(&mut tape, &params, &mut binding, x, Phase::Eval, &mut NoNoise)?;
//! assert_eq!(tape.value(logits).shape(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batchnorm;
pub mod checkpoint;
mod conv;
mod hooks;
mod linear;
mod metrics;
mod mlp;
mod moments;
mod optim;
mod params;
mod resnet;
mod schedule;
mod vgg;

pub use batchnorm::BatchNorm;
pub use checkpoint::{load_params, save_params, Checkpoint, CheckpointError};
pub use conv::Conv2d;
pub use hooks::{MvmNoiseHook, NoNoise};
pub use linear::Linear;
pub use metrics::{accuracy, confusion_matrix};
pub use mlp::{Mlp, MlpConfig};
pub use moments::{
    max_pool2_moments, normal_cdf, tanh_quantize_moments, tanh_quantize_moments_mapped,
    tanh_quantize_moments_with_gain,
};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{Binding, ParamId, Params};
pub use resnet::{ResNet, ResNetConfig};
pub use schedule::StepLr;
pub use vgg::{Vgg, VggConfig};

/// Forward-pass phase: training (batch statistics, STE quantizers active)
/// or evaluation (running statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Training mode.
    Train,
    /// Inference mode.
    Eval,
}

/// Convenience alias matching [`membit_tensor::Result`].
pub type Result<T> = std::result::Result<T, membit_tensor::TensorError>;
