//! Ablation F (extension): architecture generality.
//!
//! The paper argues GBO is "a general solution to various network
//! configurations" (heuristic per-layer choices are not). This experiment
//! runs the *identical* pipeline — pre-train → calibrate → layer
//! sensitivity → GBO search → deploy — on a binary-weight **ResNet** with
//! skip connections and channel projections, a topology the VGG code
//! never saw. Nothing in `membit-core` changes; only the model differs.

use membit_core::{
    calibrate_noise, evaluate, evaluate_with_hook, layer_sensitivity, pretrain, GboConfig,
    GboTrainer, PlaHook, TrainConfig,
};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_nn::{NoNoise, Params, ResNet, ResNetConfig};
use membit_tensor::{Rng, RngStream};

use crate::{search_epochs, Artifact, Opts, Result};

/// Paper-σ of the sensitivity analysis, search and evaluations.
const SIGMA: f32 = 15.0;
/// Latency weight γ of the search.
const GAMMA: f32 = 8e-4;

/// Writes `ablation_arch.csv`.
///
/// # Errors
///
/// Propagates training, search and evaluation errors.
pub fn run(opts: &Opts) -> Result<Vec<Artifact>> {
    let epochs = opts.scale.pick(12, 12, 25);
    let mut data_cfg = SynthCifarConfig::default_experiment();
    data_cfg.train_per_class = 200;
    data_cfg.test_per_class = 50;
    let (train, test) = synth_cifar(&data_cfg, opts.seed)?;

    let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Init);
    let mut params = Params::new();
    let mut net = ResNet::new(&ResNetConfig::small(), &mut params, &mut rng)?;
    let layers = net.crossbar_layers();
    println!(
        "# BWNN ResNet: {} crossbar layers, {} parameters",
        layers,
        params.num_scalars()
    );

    let mut tc = TrainConfig::paper(epochs, opts.seed);
    tc.lr = 2e-2;
    let t = std::time::Instant::now();
    pretrain(&mut net, &mut params, &train, &tc, &mut NoNoise)?;
    let clean = evaluate(&mut net, &params, &test, 100)? * 100.0;
    println!(
        "# trained {epochs} epochs in {:.0}s",
        t.elapsed().as_secs_f32()
    );

    let cal = calibrate_noise(&mut net, &params, &train, 100, 4, 14.0)?;
    println!("# layer RMS: {:?}", cal.rms());

    // Fig.2-style sensitivity on the new topology
    let sens = layer_sensitivity(
        &mut net,
        &params,
        &test,
        &cal.sigma_abs(SIGMA),
        100,
        2,
        opts.seed,
    )?;
    let pretty: Vec<String> = sens.iter().map(|a| format!("{:.1}", a * 100.0)).collect();
    println!("layer sensitivity at σ={SIGMA}: [{}]%", pretty.join(", "));

    // noisy evaluation: the mean of two PLA-hooked passes
    let eval_pulses = |net: &mut ResNet, pulses: &[usize]| -> Result<f32> {
        let mut acc = 0.0;
        for rep in 0..2u64 {
            let mut hook = PlaHook::new(
                pulses.to_vec(),
                cal.sigma_abs(SIGMA),
                9,
                Rng::from_seed(opts.seed ^ (rep + 1)).stream(RngStream::Noise),
            )?;
            acc += evaluate_with_hook(net, &params, &test, 100, &mut hook)?;
        }
        Ok(acc / 2.0 * 100.0)
    };
    let baseline = eval_pulses(&mut net, &vec![8; layers])?;
    let pla16 = eval_pulses(&mut net, &vec![16; layers])?;

    // the unchanged GBO search on the new topology
    let mut gbo_cfg = GboConfig::paper(GAMMA, opts.seed);
    gbo_cfg.epochs = search_epochs(opts.scale);
    let mut trainer = GboTrainer::new(layers, gbo_cfg)?;
    let result = trainer.search(&mut net, &params, &train, &cal, SIGMA)?;
    let acc_gbo = eval_pulses(&mut net, &result.selected_pulses)?;

    let rows = vec![
        vec!["clean".to_string(), String::new(), format!("{clean:.2}")],
        vec![
            "baseline_p8".to_string(),
            "[8; all]".into(),
            format!("{baseline:.2}"),
        ],
        vec![
            "pla16".to_string(),
            "[16; all]".into(),
            format!("{pla16:.2}"),
        ],
        vec![
            "gbo".to_string(),
            format!("{:?}", result.selected_pulses),
            format!("{acc_gbo:.2}"),
        ],
    ];
    Ok(vec![Artifact::csv(
        "ablation_arch.csv",
        &["method", "pulses", "accuracy_pct"],
        &rows,
    )])
}
