//! Diagnostics for the calibration story of EXPERIMENTS.md: per-layer
//! MVM RMS (the σ-unit anchors), activation saturation fractions (the
//! premise behind PLA's "activations converge to ±1"), the zero-noise
//! cost of each PLA snap, and the Baseline noise ladder. Console only:
//! it writes no artifact.

use membit_autograd::{Tape, VarId};
use membit_core::Experiment;
use membit_nn::{MvmNoiseHook, Phase};
use membit_tensor::Tensor;

use crate::{Artifact, Opts, Result};

/// Records, per crossbar layer, how much of the *input* activation mass
/// sits at the ±1 saturation levels.
struct SaturationProbe {
    saturated: Vec<f64>,
    total: Vec<f64>,
}

impl MvmNoiseHook for SaturationProbe {
    fn apply(&mut self, _t: &mut Tape, _l: usize, v: VarId) -> membit_nn::Result<VarId> {
        Ok(v)
    }
    fn encode(&mut self, tape: &mut Tape, layer: usize, input: VarId) -> membit_nn::Result<VarId> {
        let x: &Tensor = tape.value(input);
        self.saturated[layer] += x
            .as_slice()
            .iter()
            .filter(|v| v.abs() >= 1.0 - 1e-6)
            .count() as f64;
        self.total[layer] += x.len() as f64;
        Ok(input)
    }
}

/// Prints the diagnostics.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run(_opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let layers = exp.calibration().layers();

    println!(
        "per-layer clean MVM RMS (σ-unit anchors, unit = {}):",
        exp.config().sigma_unit
    );
    for (l, &r) in exp.calibration().rms().iter().enumerate() {
        println!("  layer {l}: {r:.3}");
    }

    // saturation fractions over a few eval batches
    let mut probe = SaturationProbe {
        saturated: vec![0.0; layers],
        total: vec![0.0; layers],
    };
    let test = exp.test_set().clone();
    let batch = exp.config().eval_batch;
    let (vgg, params) = exp.model_mut();
    for (images, _) in test.batches(batch)?.take(2) {
        let mut tape = Tape::new();
        let mut binding = params.frozen_binding();
        let x = tape.constant(images);
        membit_core::CrossbarModel::forward(
            vgg,
            &mut tape,
            params,
            &mut binding,
            x,
            Phase::Eval,
            &mut probe,
        )?;
    }
    println!("activation saturation (fraction at ±1) per crossbar layer —");
    println!("the premise of PLA §III-B; low values explain residual snap cost:");
    for l in 0..layers {
        println!(
            "  layer {l}: {:.1}%",
            probe.saturated[l] / probe.total[l].max(1.0) * 100.0
        );
    }

    println!("zero-noise PLA snap cost (accuracy at σ = 0):");
    for q in [8usize, 10, 12, 14, 16] {
        let acc = exp.eval_pla(0.0, &vec![q; layers])?;
        println!("  q = {q:>2}: {acc:.2}%");
    }

    println!("Baseline (p = 8) noise ladder:");
    for sigma in [0.0f32, 5.0, 10.0, 15.0, 20.0, 25.0] {
        let acc = exp.eval_pla(sigma, &vec![8; layers])?;
        println!("  σ = {sigma:>4}: {acc:.2}%");
    }
    Ok(Vec::new())
}
