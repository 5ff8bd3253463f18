//! # membit-core
//!
//! The paper's primary contribution: **Gradient-based Bit encoding
//! Optimization (GBO)** and **Pulse Length Approximation (PLA)** for
//! noise-robust binary memristive crossbars, plus everything needed to
//! reproduce the paper's evaluation — pre-training of the VGG9-BWNN,
//! layer-noise calibration, the layer-wise sensitivity analysis (Fig. 2),
//! PLA/baseline evaluation (Table I), Noise-Injection Adaptation and its
//! synergy with GBO (Table II), and a device-level validation pass on the
//! [`membit_xbar`] tiled simulator.
//!
//! The crate is organized around three ideas:
//!
//! 1. A [`CrossbarModel`] is any network exposing per-layer crossbar MVM
//!    hook points ([`membit_nn::MvmNoiseHook`]).
//! 2. Noise is always expressed through a [`NoiseCalibration`]: the
//!    paper's unit-less σ ∈ {10, 15, 20} maps onto per-layer absolute
//!    noise as `σ/unit × RMS(layer)`, measured once on the clean
//!    pre-trained network.
//! 3. Every experiment is a pure function of `(config, seed)`.
//!
//! See `DESIGN.md` and `EXPERIMENTS.md` at the repository root for the
//! experiment index.
//!
//! ```
//! use membit_core::{calibrate_noise, evaluate_with_hook, GboConfig, PlaHook};
//! use membit_data::{synth_cifar, SynthCifarConfig};
//! use membit_nn::{Mlp, MlpConfig, Params};
//! use membit_tensor::{Rng, RngStream};
//!
//! # fn main() -> Result<(), membit_core::TrainError> {
//! // a binary-weight model with one crossbar layer, and data
//! let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 1)?;
//! let mut rng = Rng::from_seed(1).stream(RngStream::Init);
//! let mut params = Params::new();
//! let mut model = Mlp::new(&MlpConfig::new(3 * 8 * 8, &[16], 10), &mut params, &mut rng)?;
//!
//! // calibrate the crossbar noise scale, then evaluate under a
//! // 12-pulse thermometer code at paper-σ 15
//! let cal = calibrate_noise(&mut model, &params, &train, 32, 2, 14.0)?;
//! let mut hook = PlaHook::new(
//!     vec![12],
//!     cal.sigma_abs(15.0),
//!     9,
//!     Rng::from_seed(2).stream(RngStream::Noise),
//! )?;
//! let acc = evaluate_with_hook(&mut model, &params, &test, 32, &mut hook)?;
//! assert!((0.0..=1.0).contains(&acc));
//!
//! // the paper's GBO search space: pulse lengths {4, 6, 8, 10, 12, 14, 16}
//! assert_eq!(GboConfig::paper(1e-3, 0).pulse_lengths(), vec![4, 6, 8, 10, 12, 14, 16]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod device_eval;
mod error;
mod gbo;
mod hooks;
mod memse;
mod model;
mod nia;
mod pipeline;
mod report;
mod resilience;
mod sensitivity;
mod trainer;
mod watchdog;

pub use calibrate::{calibrate_noise, NoiseCalibration};
pub use device_eval::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
pub use error::{DivergenceReason, TrainError};
pub use gbo::{GboConfig, GboResult, GboTrainer};
pub use memse::{AnalyticSelection, MemseNetwork, MemseScore, TileAllocation};
pub use hooks::{
    GaussianMvmNoise, NanFault, NanFaultMode, PlaHook, RmsRecorder, SingleLayerNoise,
    VariationAwareNoise,
};
pub use model::CrossbarModel;
pub use nia::{
    nia_finetune, nia_finetune_resilient, nia_finetune_variation_aware, NiaConfig, NiaVariation,
};
pub use pipeline::{Experiment, ExperimentConfig};
pub use report::{
    to_csv, FaultAblationRow, GuardAblationRow, NonIdealAblationRow, Table1Row, Table2Row,
};
pub use resilience::{ResilienceConfig, MAX_RETRIES};
pub use sensitivity::layer_sensitivity;
pub use trainer::{
    evaluate, evaluate_with_hook, pretrain, pretrain_resilient, TrainConfig, TrainReport,
};
pub use watchdog::TrainWatchdog;

/// Result alias for the crate's [`TrainError`].
pub type Result<T> = std::result::Result<T, TrainError>;
