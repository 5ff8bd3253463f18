//! # membit-xbar
//!
//! A behavioural, device-level simulator for **binary memristive
//! crossbars**: differential conductance pairs with finite on/off ratio,
//! device-to-device programming variation, cycle-to-cycle read noise,
//! stuck-at faults, tile partitioning, per-pulse ADC quantization, and an
//! execution engine that runs [`membit_encoding::PulseTrain`]s through the
//! array — one analog MVM per pulse, exactly the temporal scheme whose
//! noise accumulation the GBO paper analyzes.
//!
//! Deployment-lifecycle support rides on top: read-back **march testing**
//! ([`MarchTestConfig`] → [`FaultMap`]), **fault remapping** with
//! composable strategies — differential-pair polarity flips, spare
//! row/column redundancy, escalated write-verify —
//! ([`RecoveryPolicy`] / [`CrossbarLinear::remap`]), and in-service
//! **drift monitoring + refresh** ([`HealthMonitor`],
//! [`CrossbarLinear::refresh`]). Unrecoverable cells degrade gracefully:
//! they are counted in [`RemapReport`] / [`ExecutionStats`] instead of
//! failing the deployment.
//!
//! On top of the offline lifecycle sits **online ABFT**: every tile can
//! arm a checksum column ([`Tile::arm_guard`]) and
//! [`CrossbarLinear::execute_guarded`] compares each digitized pulse
//! readout against it with an analytically derived tolerance, walking a
//! deterministic retry → refresh → remap → digital-fallback escalation
//! ladder ([`GuardPolicy`]) whose telemetry lands in [`GuardStats`].
//!
//! The paper itself trains and evaluates against the *functional* noise
//! model `o = Wx + N(0, σ²)` (its Eq. 1); this crate provides the richer
//! substrate used to (a) validate the closed-form variance formulas by
//! Monte-Carlo and (b) check that the paper's conclusions survive a less
//! idealized crossbar (tiling + ADC + device variation).
//!
//! ```
//! use membit_xbar::{CrossbarLinear, NoiseSpec, XbarConfig};
//! use membit_encoding::{BitEncoder, Thermometer};
//! use membit_tensor::{Rng, Tensor};
//!
//! # fn main() -> Result<(), membit_tensor::TensorError> {
//! let w = Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0], &[2, 2])?;
//! let mut rng = Rng::from_seed(7);
//! let xbar = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng)?;
//! let x = Tensor::from_vec(vec![0.5, -0.5], &[1, 2])?;
//! let train = Thermometer::new(8)?.encode_tensor(&x)?;
//! let y = xbar.execute(&train, &mut rng)?;
//! // ideal crossbar reproduces W·xᵀ: [0.5·1 + (−0.5)(−1), …] = [1, −1]
//! assert!(y.allclose(&Tensor::from_vec(vec![1.0, -1.0], &[1, 2])?, 1e-4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod device;
mod energy;
mod engine;
mod fault;
mod guard;
mod noise;
mod nonideal;
mod program;
mod remap;
mod tile;

pub use adc::Adc;
pub use device::{CellHealth, DeviceModel};
pub use energy::{EnergyModel, ExecutionStats};
pub use engine::{CrossbarLinear, ExecOptions, VarianceStats, XbarConfig};
pub use guard::{GuardPolicy, GuardStats};
pub use fault::{CellFault, CellSide, FaultMap, HealthMonitor, MarchTestConfig};
pub use noise::NoiseSpec;
pub use nonideal::{NonIdealitySpec, T_MAX, T_MIN, T_REF};
pub use program::{
    program_cell_verified, program_cell_verified_with_health, ProgramStats, WriteVerify,
};
pub use remap::{remap_tile, RecoveryPolicy, RemapReport};
pub use tile::{Tile, TileVarianceStats};

/// Convenience alias matching [`membit_tensor::Result`].
pub type Result<T> = std::result::Result<T, membit_tensor::TensorError>;
