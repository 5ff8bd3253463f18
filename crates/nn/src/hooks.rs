//! The MVM noise-hook extension point.

use membit_autograd::{Tape, VarId};

use crate::Result;

/// Intercepts the raw matrix-vector-multiply output of every layer that
/// would execute on a memristive crossbar.
///
/// `layer` is the *crossbar layer index* (0-based over the layers whose
/// input activations are pulse-encoded — for the paper's VGG9 these are
/// the 7 entries of Table I). Implementations add crossbar noise
/// ([`Eq. 1`]: plain Gaussian; Eq. 5: the GBO α-mixture) or pass the value
/// through unchanged.
///
/// [`Eq. 1`]: https://doi.org/10.23919/DATE54114.2022
pub trait MvmNoiseHook {
    /// Transforms the MVM output `mvm_out` of crossbar layer `layer`.
    ///
    /// # Errors
    ///
    /// Implementations propagate tape/tensor errors.
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> Result<VarId>;

    /// Transforms the *input activations* of crossbar layer `layer` before
    /// its MVM — the point where the pulse encoding's representation
    /// limits bite. The default is the identity; the PLA hooks override it
    /// to snap activations onto the `q + 1` levels a `q`-pulse thermometer
    /// code can carry (paper §III-B).
    ///
    /// # Errors
    ///
    /// Implementations propagate tape/tensor errors.
    fn encode(&mut self, _tape: &mut Tape, _layer: usize, input: VarId) -> Result<VarId> {
        Ok(input)
    }

    /// The hook's RNG stream, if it draws randomness — lets checkpointing
    /// freeze and restore the stream so an interrupted noise-injected run
    /// resumes bit-for-bit. Deterministic hooks return `None`.
    fn state_rng(&self) -> Option<&membit_tensor::Rng> {
        None
    }

    /// Mutable access to the hook's RNG stream (see
    /// [`state_rng`](MvmNoiseHook::state_rng)).
    fn state_rng_mut(&mut self) -> Option<&mut membit_tensor::Rng> {
        None
    }
}

/// The identity hook: an ideal, noise-free crossbar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoNoise;

impl MvmNoiseHook for NoNoise {
    fn apply(&mut self, _tape: &mut Tape, _layer: usize, mvm_out: VarId) -> Result<VarId> {
        Ok(mvm_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_tensor::Tensor;

    #[test]
    fn no_noise_is_identity() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2]));
        let y = NoNoise.apply(&mut tape, 0, x).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn hooks_are_object_safe() {
        fn take(_h: &mut dyn MvmNoiseHook) {}
        take(&mut NoNoise);
    }
}
