//! Layer-wise noise sensitivity analysis (paper Fig. 2).

use membit_data::Dataset;
use membit_nn::Params;
use membit_tensor::{Rng, RngStream, TensorError};

use crate::hooks::GaussianMvmNoise;
use crate::model::CrossbarModel;
use crate::trainer::evaluate_with_hook;
use crate::Result;

/// For each crossbar layer, evaluates accuracy with Gaussian noise
/// `N(0, σ_l²)` injected at *that layer only* (σ_l given per layer,
/// typically `calibration.sigma_abs(σ)`), averaged over `repeats` noise
/// seeds.
///
/// Returns one accuracy per layer — the paper's Fig. 2 series.
///
/// # Errors
///
/// [`TensorError::InvalidArgument`] if `sigma_abs` does not hold one σ
/// per crossbar layer; otherwise propagates evaluation errors.
pub fn layer_sensitivity(
    model: &mut dyn CrossbarModel,
    params: &Params,
    data: &Dataset,
    sigma_abs: &[f32],
    batch_size: usize,
    repeats: usize,
    seed: u64,
) -> Result<Vec<f32>> {
    let all = model.crossbar_layers();
    if sigma_abs.len() != all {
        return Err(TensorError::InvalidArgument(format!(
            "sigma_abs covers {} layers but model has {all}",
            sigma_abs.len()
        ))
        .into());
    }
    let mut out = Vec::with_capacity(all);
    for (layer, &sig) in sigma_abs.iter().enumerate() {
        // σ at the probed layer only; one pulse leaves it unaveraged
        let mut sigma = vec![0.0; all];
        sigma[layer] = sig;
        let mut acc_sum = 0.0f32;
        for rep in 0..repeats.max(1) {
            // keyed substream derivation: the old xor/shift/or mixing
            // collided whenever `(seed ^ rep<<32) | layer` coincided
            let rng = Rng::from_seed(seed)
                .substream(&[rep as u64, layer as u64])
                .stream(RngStream::Noise);
            let mut hook = GaussianMvmNoise::new(sigma.clone(), vec![1; all], rng)?;
            acc_sum += evaluate_with_hook(model, params, data, batch_size, &mut hook)?;
        }
        out.push(acc_sum / repeats.max(1) as f32);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate_noise;
    use crate::trainer::{evaluate, pretrain, TrainConfig};
    use membit_data::{synth_cifar, SynthCifarConfig};
    use membit_nn::{Mlp, MlpConfig, NoNoise};

    #[test]
    fn noisy_layers_hurt_accuracy() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[24, 16], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 13).unwrap();
        let tc = TrainConfig {
            epochs: 25,
            batch_size: 20,
            lr: 2e-2,
            momentum: 0.9,
            weight_decay: 0.0,
            augment_flip: false,
            seed: 3,
        };
        pretrain(&mut mlp, &mut params, &train, &tc, &mut NoNoise).unwrap();
        let clean = evaluate(&mut mlp, &params, &test, 20).unwrap();
        let cal = calibrate_noise(&mut mlp, &params, &train, 20, 2, 10.0).unwrap();
        // massive single-layer noise: 5× the layer RMS
        let sigma_abs = cal.sigma_abs(50.0);
        let series = layer_sensitivity(&mut mlp, &params, &test, &sigma_abs, 20, 2, 7).unwrap();
        assert_eq!(series.len(), 2);
        for (l, &acc) in series.iter().enumerate() {
            assert!(
                acc < clean,
                "layer {l}: noisy acc {acc} should fall below clean {clean}"
            );
        }
    }

    #[test]
    fn zero_noise_recovers_clean_accuracy() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp =
            Mlp::new(&MlpConfig::new(3 * 8 * 8, &[16], 10), &mut params, &mut rng).unwrap();
        let (_, test) = synth_cifar(&SynthCifarConfig::tiny(), 13).unwrap();
        let clean = evaluate(&mut mlp, &params, &test, 20).unwrap();
        let series = layer_sensitivity(&mut mlp, &params, &test, &[0.0], 20, 1, 7).unwrap();
        assert_eq!(series, vec![clean]);
    }

    #[test]
    fn sigma_list_must_match_the_crossbar_layers() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[16, 12, 8], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        assert_eq!(mlp.crossbar_layers(), 3);
        let (_, test) = synth_cifar(&SynthCifarConfig::tiny(), 13).unwrap();
        for len in [1, 5] {
            let err = layer_sensitivity(&mut mlp, &params, &test, &vec![0.1; len], 20, 1, 7)
                .expect_err("a σ list of the wrong length must be rejected");
            assert!(
                matches!(
                    err,
                    crate::TrainError::Tensor(TensorError::InvalidArgument(_))
                ),
                "{len} σ values: {err:?}"
            );
        }
        let series = layer_sensitivity(&mut mlp, &params, &test, &[0.0; 3], 20, 1, 7).unwrap();
        assert_eq!(series.len(), 3);
    }
}
