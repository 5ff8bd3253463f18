//! The model abstraction the GBO machinery operates on.

use membit_autograd::{Tape, VarId};
use membit_nn::{Binding, Mlp, MvmNoiseHook, Params, Phase, ResNet, Vgg};
use membit_tensor::Tensor;

use crate::Result;

/// Flattens `(name, mean, var)` running-stat triples into the
/// `{name}.running_mean` / `{name}.running_var` tensor list the
/// checkpoint format stores.
fn stats_to_tensors(stats: Vec<(String, Tensor, Tensor)>) -> Vec<(String, Tensor)> {
    let mut out = Vec::with_capacity(stats.len() * 2);
    for (name, mean, var) in stats {
        out.push((format!("{name}.running_mean"), mean));
        out.push((format!("{name}.running_var"), var));
    }
    out
}

/// Re-pairs `{name}.running_mean` / `{name}.running_var` entries into the
/// triples the models' `set_running_stats` consume. Unpaired or unknown
/// entries are ignored (the setter ignores unknown names too).
fn tensors_to_stats(state: &[(String, Tensor)]) -> Vec<(String, Tensor, Tensor)> {
    let mut out = Vec::new();
    for (name, mean) in state {
        let Some(base) = name.strip_suffix(".running_mean") else {
            continue;
        };
        let var_key = format!("{base}.running_var");
        if let Some((_, var)) = state.iter().find(|(n, _)| n == &var_key) {
            out.push((base.to_string(), mean.clone(), var.clone()));
        }
    }
    out
}

/// Any network whose crossbar-mapped layers expose MVM hook points.
///
/// Both the paper's [`Vgg`] and the test-scale [`Mlp`] implement this, so
/// every experiment in this crate runs unchanged on either.
pub trait CrossbarModel {
    /// Runs the network, returning class logits.
    ///
    /// # Errors
    ///
    /// Propagates tape/shape errors.
    fn forward(
        &mut self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
        phase: Phase,
        hook: &mut dyn MvmNoiseHook,
    ) -> Result<VarId>;

    /// Number of crossbar (hooked) layers.
    fn crossbar_layers(&self) -> usize;

    /// Non-parameter state (batch-norm running statistics) to include in
    /// checkpoints. Default: stateless.
    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Restores state previously captured by
    /// [`state_tensors`](Self::state_tensors). Unknown names are ignored.
    fn restore_state_tensors(&mut self, _state: &[(String, Tensor)]) {}
}

impl CrossbarModel for Vgg {
    fn forward(
        &mut self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
        phase: Phase,
        hook: &mut dyn MvmNoiseHook,
    ) -> Result<VarId> {
        Ok(Vgg::forward(self, tape, params, binding, x, phase, hook)?)
    }

    fn crossbar_layers(&self) -> usize {
        Vgg::crossbar_layers(self)
    }

    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        stats_to_tensors(self.running_stats())
    }

    fn restore_state_tensors(&mut self, state: &[(String, Tensor)]) {
        self.set_running_stats(&tensors_to_stats(state));
    }
}

impl CrossbarModel for ResNet {
    fn forward(
        &mut self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
        phase: Phase,
        hook: &mut dyn MvmNoiseHook,
    ) -> Result<VarId> {
        Ok(ResNet::forward(
            self, tape, params, binding, x, phase, hook,
        )?)
    }

    fn crossbar_layers(&self) -> usize {
        ResNet::crossbar_layers(self)
    }

    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        stats_to_tensors(self.running_stats())
    }

    fn restore_state_tensors(&mut self, state: &[(String, Tensor)]) {
        self.set_running_stats(&tensors_to_stats(state));
    }
}

impl CrossbarModel for Mlp {
    /// Rank-4 image batches (`[N, C, H, W]`) are flattened to `[N, C·H·W]`
    /// automatically, so MLPs consume the same datasets as the VGG.
    fn forward(
        &mut self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
        phase: Phase,
        hook: &mut dyn MvmNoiseHook,
    ) -> Result<VarId> {
        let shape = tape.value(x).shape().to_vec();
        let x = if shape.len() > 2 {
            let n = shape[0];
            let d: usize = shape[1..].iter().product();
            tape.reshape(x, &[n, d])?
        } else {
            x
        };
        Ok(Mlp::forward(self, tape, params, binding, x, phase, hook)?)
    }

    fn crossbar_layers(&self) -> usize {
        Mlp::crossbar_layers(self)
    }

    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        stats_to_tensors(self.running_stats())
    }

    fn restore_state_tensors(&mut self, state: &[(String, Tensor)]) {
        self.set_running_stats(&tensors_to_stats(state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_nn::{MlpConfig, NoNoise, VggConfig};
    use membit_tensor::{Rng, Tensor};

    #[test]
    fn trait_objects_work_for_both_models() {
        let mut rng = Rng::from_seed(0);

        let mut params = Params::new();
        let mut mlp = Mlp::new(&MlpConfig::new(4, &[6], 3), &mut params, &mut rng).unwrap();
        let model: &mut dyn CrossbarModel = &mut mlp;
        assert_eq!(model.crossbar_layers(), 1);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 4]));
        let mut binding = params.binding();
        let y = model
            .forward(
                &mut tape,
                &params,
                &mut binding,
                x,
                Phase::Eval,
                &mut NoNoise,
            )
            .unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 3]);

        let mut vparams = Params::new();
        let mut vgg = Vgg::new(&VggConfig::tiny(), &mut vparams, &mut rng).unwrap();
        let vmodel: &mut dyn CrossbarModel = &mut vgg;
        assert_eq!(vmodel.crossbar_layers(), 3);
    }
}
