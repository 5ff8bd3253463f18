//! Structured training-pipeline errors.
//!
//! Everything in this crate returns [`crate::Result`], whose error type
//! [`TrainError`] distinguishes the three failure families a long run
//! actually hits: tensor/shape bugs, checkpoint damage, and numerical
//! divergence. Callers (the `repro` runner, the pipeline) can match on the
//! variant instead of parsing strings — a diverged GBO search is
//! recoverable policy (retry, widen γ), a corrupt checkpoint is not.

use std::fmt;

use membit_nn::CheckpointError;
use membit_tensor::TensorError;

/// Why the divergence watchdog tripped.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DivergenceReason {
    /// The batch loss evaluated to NaN or ±Inf.
    NonFiniteLoss,
    /// A parameter gradient contained NaN or ±Inf.
    NonFiniteGrad,
    /// The batch loss jumped far above its running average.
    LossSpike {
        /// The offending loss.
        loss: f32,
        /// The exponential moving average it was compared against.
        ema: f32,
    },
}

impl fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceReason::NonFiniteLoss => write!(f, "non-finite loss"),
            DivergenceReason::NonFiniteGrad => write!(f, "non-finite gradient"),
            DivergenceReason::LossSpike { loss, ema } => {
                write!(f, "loss spike ({loss} vs running average {ema})")
            }
        }
    }
}

/// A failure of the training/experiment stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrainError {
    /// A tensor/shape/argument error.
    Tensor(TensorError),
    /// A checkpoint could not be written or read back.
    Checkpoint(CheckpointError),
    /// Training diverged and the watchdog exhausted its rollback budget.
    Diverged {
        /// Which stage diverged (`"pretrain"`, `"gbo"`, `"nia"`).
        stage: String,
        /// 0-based epoch that kept failing.
        epoch: usize,
        /// Rollback attempts that were made before giving up.
        retries: usize,
        /// What the watchdog observed on the final attempt.
        reason: DivergenceReason,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Tensor(e) => write!(f, "{e}"),
            TrainError::Checkpoint(e) => write!(f, "{e}"),
            TrainError::Diverged {
                stage,
                epoch,
                retries,
                reason,
            } => write!(
                f,
                "{stage} diverged at epoch {epoch} ({reason}) after {retries} rollback retries"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Tensor(e) => Some(e),
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Diverged { .. } => None,
        }
    }
}

impl From<TensorError> for TrainError {
    fn from(e: TensorError) -> Self {
        TrainError::Tensor(e)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<std::io::Error> for TrainError {
    fn from(e: std::io::Error) -> Self {
        TrainError::Checkpoint(CheckpointError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let t: TrainError = TensorError::InvalidArgument("bad".into()).into();
        assert!(matches!(t, TrainError::Tensor(_)));
        let c: TrainError = CheckpointError::BadMagic.into();
        assert!(c.to_string().contains("magic"));
        let d = TrainError::Diverged {
            stage: "gbo".into(),
            epoch: 3,
            retries: 2,
            reason: DivergenceReason::LossSpike {
                loss: 9.0,
                ema: 1.0,
            },
        };
        let msg = d.to_string();
        assert!(msg.contains("gbo") && msg.contains("epoch 3") && msg.contains("spike"));
    }
}
