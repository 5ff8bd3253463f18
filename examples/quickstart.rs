//! Quickstart: train a small binary-weight network, put it on a noisy
//! crossbar, and watch thermometer pulse count buy back accuracy.
//!
//! ```text
//! cargo run --release -p membit-core --example quickstart
//! ```

use membit_core::{calibrate_noise, evaluate, evaluate_with_hook, pretrain, PlaHook, TrainConfig};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_nn::{Mlp, MlpConfig, NoNoise, Params};
use membit_tensor::{Rng, RngStream};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A deterministic, procedurally generated 10-class image task.
    let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 7)?;
    println!(
        "dataset: {} train / {} test images of shape {:?}",
        train.len(),
        test.len(),
        train.sample_shape()
    );

    // 2. A binary-weight MLP with one crossbar-mapped hidden layer.
    let mut rng = Rng::from_seed(7).stream(RngStream::Init);
    let mut params = Params::new();
    let mut model = Mlp::new(&MlpConfig::new(3 * 8 * 8, &[32], 10), &mut params, &mut rng)?;

    // 3. Clean pre-training (the paper pre-trains before touching the
    //    encoding).
    let cfg = TrainConfig {
        epochs: 25,
        batch_size: 20,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 7,
    };
    let report = pretrain(&mut model, &mut params, &train, &cfg, &mut NoNoise)?;
    println!(
        "pre-trained {} epochs, final train accuracy {:.1}%",
        cfg.epochs,
        report.final_train_acc * 100.0
    );
    let clean = evaluate(&mut model, &params, &test, 20)?;
    println!("clean test accuracy: {:.1}%", clean * 100.0);

    // 4. Calibrate the layer noise scale, then sweep the thermometer
    //    pulse count under fixed crossbar noise (paper Eq. 3: variance
    //    falls as 1/p).
    let cal = calibrate_noise(&mut model, &params, &train, 20, 4, 14.0)?;
    let sigma = 35.0; // well past the paper grid: the single-layer MLP
                      // needs harsher noise than the 7-layer VGG to show
                      // the ladder clearly
    println!("\ncrossbar noise σ = {sigma} (paper units):");
    for pulses in [4usize, 8, 12, 16] {
        let mut acc = 0.0;
        for rep in 0..3u64 {
            let mut hook = PlaHook::new(
                vec![pulses; 1],
                cal.sigma_abs(sigma),
                9,
                Rng::from_seed(rep).stream(RngStream::Noise),
            )?;
            acc += evaluate_with_hook(&mut model, &params, &test, 20, &mut hook)?;
        }
        println!("  {pulses:>2} pulses → {:.1}% accuracy", acc / 3.0 * 100.0);
    }
    println!("\nmore pulses per activation ⇒ less accumulated noise ⇒ higher accuracy,");
    println!("at the cost of latency — exactly the trade-off GBO optimizes per layer.");
    Ok(())
}
