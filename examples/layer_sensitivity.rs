//! Layer-wise noise sensitivity (the paper's Fig. 2 analysis) on a
//! binary-weight MLP: inject Gaussian noise at one crossbar layer at a
//! time and see that layers differ — the observation motivating
//! *heterogeneous* per-layer bit encoding.
//!
//! ```text
//! cargo run --release -p membit-core --example layer_sensitivity
//! ```

use membit_core::{calibrate_noise, evaluate, layer_sensitivity, pretrain, TrainConfig};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_nn::{Mlp, MlpConfig, NoNoise, Params};
use membit_tensor::{Rng, RngStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 21)?;
    let mut rng = Rng::from_seed(21).stream(RngStream::Init);
    let mut params = Params::new();
    // three crossbar layers of decreasing width
    let mut model = Mlp::new(
        &MlpConfig::new(3 * 8 * 8, &[32, 24, 16], 10),
        &mut params,
        &mut rng,
    )?;
    let cfg = TrainConfig {
        epochs: 30,
        batch_size: 20,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 21,
    };
    pretrain(&mut model, &mut params, &train, &cfg, &mut NoNoise)?;
    let clean = evaluate(&mut model, &params, &test, 20)?;
    println!("clean accuracy: {:.1}%\n", clean * 100.0);

    let cal = calibrate_noise(&mut model, &params, &train, 20, 4, 14.0)?;
    println!("accuracy with N(0, σ²) injected at ONE layer only:");
    println!(
        "{:>8} | {:>8} {:>8} {:>8}",
        "σ", "layer 0", "layer 1", "layer 2"
    );
    for sigma in [15.0f32, 25.0, 40.0] {
        let series =
            layer_sensitivity(&mut model, &params, &test, &cal.sigma_abs(sigma), 20, 3, 99)?;
        println!(
            "{sigma:>8} | {:>7.1}% {:>7.1}% {:>7.1}%",
            series[0] * 100.0,
            series[1] * 100.0,
            series[2] * 100.0
        );
    }
    println!();
    println!("the layers degrade by different amounts — a uniform pulse-count");
    println!("increase wastes latency on robust layers, which is why GBO");
    println!("optimizes the encoding per layer.");
    Ok(())
}
