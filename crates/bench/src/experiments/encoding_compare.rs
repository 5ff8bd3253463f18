//! Network-level encoding comparison (Fig. 1(b) carried to accuracy):
//! runs the trained VGG9-BWNN with *bit-sliced* inputs vs *thermometer*
//! inputs at comparable information content, under the same per-pulse
//! crossbar noise.
//!
//! Bit slicing with `b` pulses accumulates `Σ4^i/(Σ2^i)²·σ²` of noise
//! (Eq. 2) — asymptotically `σ²/3` — while a thermometer code of `p`
//! pulses accumulates `σ²/p` (Eq. 3). Expected shape: bit slicing
//! flattens near the σ²/3 floor no matter how many bits it spends;
//! thermometer keeps improving as 1/p — the paper's reason for building
//! GBO on thermometer codes. The custom hook below is written against
//! the public [`MvmNoiseHook`] API, demonstrating how downstream users
//! add their own encoding models.

use membit_autograd::{Tape, VarId};
use membit_core::{evaluate_with_hook, Experiment, GaussianMvmNoise};
use membit_encoding::variance::bit_slicing_variance;
use membit_nn::MvmNoiseHook;
use membit_tensor::{Rng, RngStream};

use crate::{Artifact, Opts, Result};

/// The paper-σ columns of the table.
const SIGMAS: [f32; 3] = [10.0, 15.0, 20.0];

/// Functional model of bit-sliced inputs: activations snapped onto the
/// `2^b`-level grid, MVM outputs perturbed with the Eq. 2 accumulated
/// variance.
struct BitSlicingNoise {
    bits: usize,
    sigma: Vec<f32>,
    rng: Rng,
}

impl MvmNoiseHook for BitSlicingNoise {
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> membit_nn::Result<VarId> {
        let sigma = self.sigma[layer];
        if sigma == 0.0 {
            return Ok(mvm_out);
        }
        let var = bit_slicing_variance(self.bits, f64::from(sigma) * f64::from(sigma)) as f32;
        let shape = tape.value(mvm_out).shape().to_vec();
        let noise = self.rng.normal_tensor(&shape, 0.0, var.sqrt());
        let c = tape.constant(noise);
        tape.add(mvm_out, c)
    }

    fn encode(&mut self, tape: &mut Tape, _layer: usize, input: VarId) -> membit_nn::Result<VarId> {
        // a b-bit sliced code carries 2^b uniform levels
        tape.quantize_ste(input, 1usize << self.bits)
    }
}

/// Mean accuracy (%) over the experiment's eval repeats with a fresh
/// noise hook per repeat, built from the calibrated σ and the repeat's
/// noise stream.
fn hooked_accuracy<H: MvmNoiseHook>(
    exp: &mut Experiment,
    sigma: f32,
    seed: u64,
    mut hook: impl FnMut(Vec<f32>, Rng) -> Result<H>,
) -> Result<f32> {
    let repeats = exp.config().eval_repeats;
    let batch = exp.config().eval_batch;
    let sigma_abs = exp.calibration().sigma_abs(sigma);
    let test = exp.test_set().clone();
    let mut acc = 0.0f32;
    for rep in 0..repeats as u64 {
        let mut h = hook(
            sigma_abs.clone(),
            Rng::from_seed(seed ^ (rep + 1)).stream(RngStream::Noise),
        )?;
        let (vgg, params) = exp.model_mut();
        acc += evaluate_with_hook(vgg, params, &test, batch, &mut h)?;
    }
    Ok(acc / repeats as f32 * 100.0)
}

/// Writes `encoding_compare.csv`.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let mut rows = Vec::new();
    let mut push = |encoding: String, pulses: usize, accs: Vec<f32>| {
        let mut row = vec![encoding, pulses.to_string()];
        row.extend(accs.iter().map(|a| format!("{a:.2}")));
        rows.push(row);
    };

    // thermometer rows via the standard PLA path
    for pulses in [4usize, 8, 16] {
        let accs = SIGMAS
            .iter()
            .map(|&sigma| exp.eval_pla(sigma, &[pulses; 7]))
            .collect::<membit_core::Result<Vec<f32>>>()?;
        push("thermometer".into(), pulses, accs);
    }

    // amplitude (multi-level DAC) reference: one analog pulse, full σ² —
    // GaussianMvmNoise with p = 1 is exactly the amplitude model
    let accs = SIGMAS
        .iter()
        .map(|&sigma| {
            hooked_accuracy(exp, sigma, opts.seed, |sigma_abs, rng| {
                Ok(GaussianMvmNoise::new(sigma_abs, vec![1; 7], rng)?)
            })
        })
        .collect::<Result<Vec<f32>>>()?;
    push("amplitude".into(), 1, accs);

    // bit-slicing rows via the custom hook
    for bits in [3usize, 4, 8] {
        let accs = SIGMAS
            .iter()
            .map(|&sigma| {
                hooked_accuracy(exp, sigma, opts.seed, |sigma, rng| {
                    Ok(BitSlicingNoise { bits, sigma, rng })
                })
            })
            .collect::<Result<Vec<f32>>>()?;
        push(format!("bit_slicing_{bits}"), bits, accs);
    }

    Ok(vec![Artifact::csv(
        "encoding_compare.csv",
        &["encoding", "pulses", "acc_s10", "acc_s15", "acc_s20"],
        &rows,
    )])
}
