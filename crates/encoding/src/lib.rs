//! # membit-encoding
//!
//! Binary input bit-encoding schemes for memristive crossbars and their
//! noise analysis, exactly as formalized in the GBO paper:
//!
//! * [`Thermometer`] coding — `p` unary ±1 pulses representing `p + 1`
//!   levels; accumulated noise variance `σ²/p` (Eq. 3).
//! * [`BitSlicing`] — `p` binary-weighted pulses; variance
//!   `Σ(2^i)²/(Σ2^i)²·σ²` (Eq. 2), strictly worse at equal information.
//! * [`Amplitude`] — the multi-level DAC reference point (one "pulse",
//!   full `σ²`).
//! * [`pla`] — Pulse Length Approximation (§III-B): re-expressing a
//!   thermometer code at any pulse count by adding/removing pulses toward
//!   the ±1 saturation values, enabling the fine-grained search space GBO
//!   optimizes over.
//!
//! The [`variance`] module gives the closed forms used for Fig. 1(b) and
//! validated Monte-Carlo in `membit-xbar`.
//!
//! ```
//! use membit_encoding::{BitEncoder, Thermometer};
//!
//! # fn main() -> Result<(), membit_tensor::TensorError> {
//! let enc = Thermometer::new(8)?; // 8 pulses ⇒ 9 levels
//! let pulses = enc.encode_value(0.5)?;
//! assert_eq!(pulses.iter().sum::<f32>() / 8.0, 0.5);
//! assert_eq!(enc.noise_variance(1.0), 1.0 / 8.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pla;
mod schemes;
mod train;
pub mod variance;

pub use schemes::{Amplitude, BitEncoder, BitSlicing, Thermometer};
pub use train::{PulseTrain, TrainKind, MAX_NESTED_PULSES};

/// Convenience alias matching [`membit_tensor::Result`].
pub type Result<T> = std::result::Result<T, membit_tensor::TensorError>;
