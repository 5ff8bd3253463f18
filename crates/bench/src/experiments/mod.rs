//! The registry of experiments `repro` runs, in `repro all` order: the
//! paper's figures and tables first, then the ablations, the device-level
//! checks and the three subsystem benchmarks.
//!
//! Every experiment measures and returns its artifacts; none of them
//! asserts anything. The properties their numbers must satisfy live in
//! the test suite (`crates/bench/tests/` and the per-crate suites).

use membit_core::Experiment;

use crate::{Artifact, Opts, Result};

pub mod ablation_arch;
pub mod ablation_drift;
pub mod ablation_fault;
pub mod ablation_gamma;
pub mod ablation_guard;
pub mod ablation_nonideal;
pub mod ablation_snap;
pub mod ablation_space;
pub mod bench_engine;
pub mod bench_memse;
pub mod bench_serve;
pub mod device_eval;
pub mod diagnostics;
pub mod encoding_compare;
pub mod fig1b;
pub mod fig2;
pub mod table1;
pub mod table2;

/// What an experiment needs to run.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// Nothing but the options.
    Standalone(fn(&Opts) -> Result<Vec<Artifact>>),
    /// The shared pre-trained VGG9-BWNN experiment of the scale.
    Model(fn(&Opts, &mut Experiment) -> Result<Vec<Artifact>>),
}

/// One registered experiment.
#[derive(Debug)]
pub struct Entry {
    /// Name on the `repro` command line.
    pub name: &'static str,
    /// The experiment.
    pub run: Run,
}

impl Entry {
    /// Runs the experiment, setting up the pre-trained model first when
    /// it needs one.
    ///
    /// # Errors
    ///
    /// Propagates set-up and experiment errors.
    pub fn execute(&self, opts: &Opts) -> Result<Vec<Artifact>> {
        match self.run {
            Run::Standalone(run) => run(opts),
            Run::Model(run) => run(opts, &mut crate::setup_experiment(opts)?),
        }
    }
}

/// Every experiment, in `repro all` order.
#[rustfmt::skip]
pub const REGISTRY: &[Entry] = &[
    Entry { name: "fig1b", run: Run::Standalone(fig1b::run) },
    Entry { name: "fig2", run: Run::Model(fig2::run) },
    Entry { name: "table1", run: Run::Model(table1::run) },
    Entry { name: "table2", run: Run::Model(table2::run) },
    Entry { name: "ablation_gamma", run: Run::Model(ablation_gamma::run) },
    Entry { name: "ablation_space", run: Run::Model(ablation_space::run) },
    Entry { name: "ablation_snap", run: Run::Model(ablation_snap::run) },
    Entry { name: "ablation_drift", run: Run::Model(ablation_drift::run) },
    Entry { name: "ablation_arch", run: Run::Standalone(ablation_arch::run) },
    Entry { name: "ablation_fault", run: Run::Model(ablation_fault::run) },
    Entry { name: "ablation_guard", run: Run::Model(ablation_guard::run) },
    Entry { name: "ablation_nonideal", run: Run::Model(ablation_nonideal::run) },
    Entry { name: "device_eval", run: Run::Model(device_eval::run) },
    Entry { name: "encoding_compare", run: Run::Model(encoding_compare::run) },
    Entry { name: "diagnostics", run: Run::Model(diagnostics::run) },
    Entry { name: "bench_serve", run: Run::Standalone(bench_serve::run) },
    Entry { name: "bench_engine", run: Run::Standalone(bench_engine::run) },
    Entry { name: "bench_memse", run: Run::Model(bench_memse::run) },
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The mean of the per-layer absolute noise levels at paper-σ
/// `sigma_paper`: the single per-pulse noise level the device-level
/// experiments configure their crossbars with.
fn mean_sigma_abs(exp: &Experiment, sigma_paper: f32) -> f32 {
    let sigma_abs = exp.calibration().sigma_abs(sigma_paper);
    sigma_abs.iter().sum::<f32>() / sigma_abs.len() as f32
}

/// A `shape` tensor of random ±1 entries drawn from `seed`.
fn random_pm1(shape: &[usize], seed: u64) -> membit_tensor::Tensor {
    let mut rng = membit_tensor::Rng::from_seed(seed);
    membit_tensor::Tensor::from_fn(shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// Median of wall-clock samples (NaN when empty).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}
