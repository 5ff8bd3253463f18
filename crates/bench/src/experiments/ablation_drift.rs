//! Ablation E (extension beyond the paper): conductance retention drift.
//!
//! Ages the deployed crossbars with a PCM-style power-law decay
//! (`G(t) = G₀(1+t)^{−ν}`, per-cell ν variation) and measures accuracy
//! over time for the 8-pulse baseline vs the 16-pulse code. Drift shrinks
//! the differential signal while the additive noise stays constant, so
//! the SNR advantage of longer codes should grow with device age.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg, Experiment};
use membit_tensor::{Rng, RngStream};
use membit_xbar::XbarConfig;

use super::mean_sigma_abs;
use crate::{test_subset, Artifact, Opts, Result};

/// Paper-σ of the deployments.
const SIGMA: f32 = 10.0;
/// Mean drift exponent ν and its per-cell spread.
const NU: f32 = 0.02;
const NU_SIGMA: f32 = 0.005;

/// Writes `ablation_drift.csv`.
///
/// # Errors
///
/// Propagates deployment and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let subset = test_subset(exp, opts.scale.pick(100, 100, 200))?;
    let sigma_mean = mean_sigma_abs(exp, SIGMA);
    let (vgg, params) = exp.model();
    println!(
        "retention drift at σ = {SIGMA} (ν = {NU} ± {NU_SIGMA}, {} images)",
        subset.len()
    );
    let mut rows = Vec::new();
    for hours in [0.0f32, 10.0, 100.0, 1000.0, 10000.0] {
        let mut row = vec![format!("{hours}")];
        for pulses in [8usize, 16] {
            let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Device);
            let mut device = DeviceVgg::deploy(
                vgg,
                params,
                &DeviceEvalConfig {
                    xbar: XbarConfig::functional(sigma_mean),
                    pulses: vec![pulses; 7],
                    act_levels: 9,
                    policy: DeploymentPolicy::default(),
                },
                &mut rng,
            )?;
            device.age(hours, NU, NU_SIGMA, &mut rng)?;
            let (acc, _) = device.evaluate(&subset, 20, &mut rng)?;
            row.push(format!("{:.2}", acc * 100.0));
        }
        rows.push(row);
    }
    Ok(vec![Artifact::csv(
        "ablation_drift.csv",
        &["hours", "acc_p8_pct", "acc_p16_pct"],
        &rows,
    )])
}
