//! The fixed model under test: the seed-2022 quick-scale VGG9-BWNN
//! pretrain on SynthCIFAR, cached under `target/membench/`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use membit_core::{calibrate_noise, Experiment, ExperimentConfig, NoiseCalibration};
use membit_data::{synth_cifar, Dataset};
use membit_nn::{load_params, Params, Vgg};
use membit_tensor::{Rng, RngStream, Tensor};

use crate::trace::{SpanId, Tracer};
use crate::Res;

/// Where checkpoints and traces go (relative to the working directory).
pub const OUT_DIR: &str = "target/membench";

/// Paper-σ of the deployed devices.
pub const PAPER_SIGMA: f32 = 10.0;

/// The quick-scale experiment of the other bench binaries at seed 2022,
/// minus their `results/` paths.
fn experiment_config() -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(12, 2022);
    c.data.train_per_class = 200;
    c.data.test_per_class = 50;
    c.eval_repeats = 2;
    c
}

fn checkpoint_path() -> PathBuf {
    Path::new(OUT_DIR).join("pretrained_quick_seed2022.ckpt")
}

/// Pre-trains and caches the model unless a checkpoint exists. Returns
/// the seconds spent (0 when cached). The checkpoint is written under a
/// temporary name and renamed, so an interrupted run leaves no torn file.
pub fn prepare() -> Res<f64> {
    let path = checkpoint_path();
    if path.exists() {
        return Ok(0.0);
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let mut cfg = experiment_config();
    cfg.checkpoint = Some(tmp.clone());
    let t = Instant::now();
    Experiment::setup(cfg)?;
    std::fs::rename(&tmp, &path)?;
    Ok(t.elapsed().as_secs_f64())
}

/// Which weights to load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weights {
    /// The cached pretrain (see [`prepare`]).
    Pretrained,
    /// Seeded random initialization: no checkpoint needed (smoke runs).
    Random,
}

/// A loaded, calibrated model and its test split.
pub struct Model {
    /// Architecture.
    pub vgg: Vgg,
    /// Trained parameters.
    pub params: Params,
    /// Per-layer noise calibration.
    pub calibration: NoiseCalibration,
    /// The 500-image test split.
    pub test: Dataset,
}

impl Model {
    /// Generates the data, loads the weights and calibrates, with one
    /// span per stage under `parent`.
    pub fn load(weights: Weights, tr: &mut Tracer, parent: SpanId) -> Res<Self> {
        let cfg = experiment_config();
        let (train, test) = tr.time(parent, "all", "data.synth", || {
            synth_cifar(&cfg.data, cfg.seed)
        })?;
        let s = tr.open(parent, "all", "nn.load");
        let mut params = Params::new();
        let mut vgg = Vgg::new(
            &cfg.vgg,
            &mut params,
            &mut Rng::from_seed(cfg.seed).stream(RngStream::Init),
        )?;
        if weights == Weights::Pretrained {
            // the layout `Experiment::setup` saves: parameters, then each
            // batch-norm layer's running mean and variance
            let mut means: Vec<(String, Tensor)> = Vec::new();
            let mut running = Vec::new();
            for (name, tensor) in load_params(checkpoint_path())? {
                if let Some(base) = name.strip_suffix(".running_mean") {
                    means.push((base.to_string(), tensor));
                } else if let Some(base) = name.strip_suffix(".running_var") {
                    let pos = means
                        .iter()
                        .position(|(b, _)| b == base)
                        .ok_or("variance before mean")?;
                    let (base, mean) = means.remove(pos);
                    running.push((base, mean, tensor));
                } else {
                    params.assign(&name, tensor);
                }
            }
            vgg.set_running_stats(&running);
        }
        tr.close(s);
        let calibration = tr.time(parent, "all", "core.calibrate", || {
            calibrate_noise(&mut vgg, &params, &train, cfg.eval_batch, 4, cfg.sigma_unit)
        })?;
        Ok(Self {
            vgg,
            params,
            calibration,
            test,
        })
    }

    /// σ̄: the mean per-layer absolute noise at [`PAPER_SIGMA`], the
    /// single output σ the device configs take.
    pub fn sigma_bar(&self) -> f32 {
        let s = self.calibration.sigma_abs(PAPER_SIGMA);
        s.iter().sum::<f32>() / s.len() as f32
    }
}
