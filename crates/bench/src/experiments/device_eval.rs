//! Ablation C: device-level validation.
//!
//! Re-evaluates Table-I configurations on the tiled `membit-xbar`
//! simulator (128×128 tiles, per-pulse ADC, optional device variation)
//! instead of the functional noise model the paper trains against, and
//! reports hardware event counts / energy / latency from the first-order
//! model. Expected shape: ideal ≈ functional clean accuracy; under noise,
//! 16-pulse codes beat 8-pulse; realistic non-idealities cost a little
//! extra accuracy but more pulses still win — the paper's conclusion
//! survives the device level.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg, Experiment};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{EnergyModel, GuardPolicy, XbarConfig};

use super::mean_sigma_abs;
use crate::{test_subset, Artifact, Opts, Result};

/// Paper-σ of the noisy deployments. The engine applies noise per pulse
/// at the *tile output* while the calibration measured whole-layer MVM
/// RMS, so the mean layer σ serves as one representative per-pulse level.
const SIGMA: f32 = 15.0;

/// Writes `device_eval.csv`.
///
/// # Errors
///
/// Propagates deployment and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let energy = EnergyModel::representative();
    // device-level runs are ~an order of magnitude slower than the
    // functional model; evaluate on a subset
    let subset = test_subset(exp, opts.scale.pick(100, 100, 300))?;
    let sigma_mean = mean_sigma_abs(exp, SIGMA);
    let (vgg, params) = exp.model();
    println!(
        "device-level evaluation (σ = {SIGMA}, {} test images)",
        subset.len()
    );

    let configs: [(&str, XbarConfig, usize); 5] = [
        ("ideal, baseline p=8", XbarConfig::ideal(), 8),
        (
            "functional noise, p=8",
            XbarConfig::functional(sigma_mean),
            8,
        ),
        (
            "functional noise, p=16",
            XbarConfig::functional(sigma_mean),
            16,
        ),
        (
            "realistic (ADC+variation), p=16",
            XbarConfig::realistic(sigma_mean),
            16,
        ),
        (
            "realistic + checksum guard, p=16",
            XbarConfig::realistic(sigma_mean).with_guard(GuardPolicy::standard()),
            16,
        ),
    ];
    let mut rows = Vec::new();
    for (name, mut xbar, pulses) in configs {
        xbar.exec = opts.exec_options();
        let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Device);
        let mut device = DeviceVgg::deploy(
            vgg,
            params,
            &DeviceEvalConfig {
                xbar,
                pulses: vec![pulses; 7],
                act_levels: 9,
                policy: DeploymentPolicy::default(),
            },
            &mut rng,
        )?;
        let (acc, stats) = device.evaluate(&subset, 20, &mut rng)?;
        if stats.guard.checks > 0 {
            println!(
                "{name}: {} guard checks, {} violations, {} retries, {} degraded layer(s)",
                stats.guard.checks,
                stats.guard.violations,
                stats.guard.retries,
                stats.guard.degraded_layers
            );
        }
        rows.push(vec![
            name.to_string(),
            pulses.to_string(),
            format!("{:.2}", acc * 100.0),
            stats.tile_mvms.to_string(),
            format!("{:.2}", energy.energy_pj(&stats) / 1e6),
            format!("{:.3}", energy.latency_ns(&stats) / 1e6),
        ]);
    }
    Ok(vec![Artifact::csv(
        "device_eval.csv",
        &[
            "hardware",
            "pulses",
            "accuracy_pct",
            "tile_mvms",
            "energy_uj",
            "latency_ms",
        ],
        &rows,
    )])
}
