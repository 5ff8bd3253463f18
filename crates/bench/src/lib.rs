//! # membit-bench
//!
//! The `repro` runner that regenerates every table and figure of the GBO
//! paper plus every extension (see `DESIGN.md` §4 for the experiment
//! index). Each experiment in the [`experiments`] registry measures and
//! returns its [`Artifact`]s; [`write_artifacts`] alone decides where
//! they land. Every experiment accepts the same four flags:
//!
//! * `--scale smoke|quick|full` — `quick` (default) finishes within
//!   minutes per experiment on a single core and is the configuration of
//!   record in `EXPERIMENTS.md`; `smoke` is a seconds-long CI size (an
//!   experiment with no smoke size runs its quick configuration) and
//!   writes under `target/bench-smoke/`; `full` trains longer on more
//!   data for tighter numbers when compute allows.
//! * `--seed <u64>` — root seed (default 2022, the paper's year).
//! * `--resume` — continue interrupted training stages from their
//!   auto-checkpoints under `<results>/work_<scale>_seed<seed>/` instead
//!   of restarting them from scratch.
//! * `--threads <n>` — worker-thread cap for crossbar execution; results
//!   are bitwise identical for every setting.
//!
//! Pre-trained weights are cached in the results directory so the
//! expensive pre-training stage runs once per scale and is shared by all
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod experiments;

use std::path::PathBuf;

use membit_core::{Experiment, ExperimentConfig};

/// Result type of the experiments: any error, reported by `repro` as
/// `Error: ...` with exit status 1.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Experiment scale selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long CI size; experiments without one run at quick size.
    /// Uses the quick model and writes under `target/bench-smoke/`.
    Smoke,
    /// Reduced epochs/repeats: minutes per experiment (the
    /// EXPERIMENTS.md configuration of record).
    Quick,
    /// More epochs/data/repeats for machines with compute headroom.
    Full,
}

impl Scale {
    /// Name of the scale on the command line.
    pub fn tag(self) -> &'static str {
        self.pick("smoke", "quick", "full")
    }

    /// The value for this scale.
    pub fn pick<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Scale of the pre-trained model: smoke runs share the quick one.
    fn model(self) -> Scale {
        self.pick(Scale::Quick, Scale::Quick, Scale::Full)
    }
}

/// The options every experiment takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opts {
    /// Selected scale.
    pub scale: Scale,
    /// Root seed.
    pub seed: u64,
    /// Resume interrupted training stages from their auto-checkpoints.
    pub resume: bool,
    /// Worker-thread cap for crossbar execution (`None` = library
    /// default, i.e. available parallelism). Results are bitwise
    /// identical for every setting — this only trades wall clock.
    pub threads: Option<usize>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            seed: 2022,
            resume: false,
            threads: None,
        }
    }
}

impl Opts {
    /// Crossbar [`ExecOptions`](membit_xbar::ExecOptions) honoring
    /// `--threads` (library default when the flag is absent).
    pub fn exec_options(&self) -> membit_xbar::ExecOptions {
        match self.threads {
            Some(t) => membit_xbar::ExecOptions::with_threads(t),
            None => membit_xbar::ExecOptions::default(),
        }
    }
}

/// The `repro` usage message.
pub fn usage() -> String {
    let names: Vec<&str> = experiments::REGISTRY.iter().map(|e| e.name).collect();
    format!(
        "usage: repro <experiment|all> [--scale smoke|quick|full] [--seed <u64>] [--resume] \
         [--threads <n>]\nexperiments: {}",
        names.join(" ")
    )
}

/// Parses `repro`'s arguments (without the program name) into the
/// experiments to run, in registry order for `all`, and their options.
///
/// # Errors
///
/// Describes the first unknown, missing or malformed argument.
pub fn parse_args(
    args: &[String],
) -> std::result::Result<(Vec<&'static experiments::Entry>, Opts), String> {
    let mut opts = Opts::default();
    let mut name = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--resume" => opts.resume = true,
            "--scale" => {
                opts.scale = match value()?.as_str() {
                    "smoke" => Scale::Smoke,
                    "quick" => Scale::Quick,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale {other:?}")),
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--threads" => {
                let t = value()?.parse().ok().filter(|&t: &usize| t >= 1);
                opts.threads = Some(t.ok_or("--threads needs an integer ≥ 1")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            _ if name.is_some() => return Err(format!("unexpected argument {arg:?}")),
            experiment => name = Some(experiment.to_string()),
        }
    }
    let entries = match name.as_deref() {
        None => return Err("no experiment named".into()),
        Some("all") => experiments::REGISTRY.iter().collect(),
        Some(name) => vec![experiments::find(name).ok_or(format!("unknown experiment {name:?}"))?],
    };
    Ok((entries, opts))
}

/// One output file of an experiment: a CSV table or a JSON record.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// File name inside the results directory.
    pub file: String,
    /// File contents.
    pub body: String,
}

impl Artifact {
    /// A CSV table (see [`membit_core::to_csv`]).
    pub fn csv(file: &str, header: &[&str], rows: &[Vec<String>]) -> Self {
        Self {
            file: file.into(),
            body: membit_core::to_csv(header, rows),
        }
    }

    /// A one-line JSON record.
    pub fn json(file: &str, record: String) -> Self {
        Self {
            file: file.into(),
            body: record + "\n",
        }
    }
}

/// Directory the artifacts (and the cached model) of a scale live in:
/// `MEMBIT_RESULTS_DIR` when set, otherwise `target/bench-smoke` for
/// smoke runs and `results` for quick and full runs.
pub fn results_dir(scale: Scale) -> PathBuf {
    std::env::var_os("MEMBIT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(scale.pick("target/bench-smoke", "results", "results")))
}

/// Writes each artifact into [`results_dir`] and echoes it to stdout.
///
/// # Errors
///
/// Returns any I/O error (e.g. an unwritable results directory).
pub fn write_artifacts(scale: Scale, artifacts: &[Artifact]) -> std::io::Result<()> {
    let dir = results_dir(scale);
    std::fs::create_dir_all(&dir)?;
    for artifact in artifacts {
        let path = dir.join(&artifact.file);
        std::fs::write(&path, &artifact.body)?;
        print!("{}", artifact.body);
        println!("# wrote {}", path.display());
    }
    Ok(())
}

/// The experiment configuration for a scale (with checkpoint caching
/// under [`results_dir`]).
pub fn experiment_config(scale: Scale, seed: u64) -> ExperimentConfig {
    let model = scale.model();
    let mut cfg = ExperimentConfig::quick(model.pick(12, 12, 25), seed);
    cfg.data.train_per_class = model.pick(200, 200, 300);
    cfg.data.test_per_class = model.pick(50, 50, 100);
    cfg.eval_repeats = model.pick(2, 2, 3);
    let dir = results_dir(scale);
    cfg.checkpoint = Some(dir.join(format!("pretrained_{}_seed{seed}.ckpt", model.tag())));
    cfg.work_dir = Some(dir.join(format!("work_{}_seed{seed}", model.tag())));
    cfg
}

/// Sets up (or loads) the shared pre-trained experiment, reporting timing.
///
/// # Errors
///
/// Propagates training/IO errors (e.g. an unwritable results
/// directory).
pub fn setup_experiment(opts: &Opts) -> membit_core::Result<Experiment> {
    let mut cfg = experiment_config(opts.scale, opts.seed);
    cfg.resume = opts.resume;
    if cfg.checkpoint.as_ref().is_some_and(|p| p.exists()) {
        println!("# loading cached pre-trained model");
    } else {
        println!(
            "# pre-training VGG9-BWNN ({} epochs, {} train images) — cached for later runs",
            cfg.train.epochs,
            cfg.data.train_per_class * cfg.data.num_classes
        );
    }
    let t = std::time::Instant::now();
    let exp = Experiment::setup(cfg)?;
    println!("# setup took {:.1}s", t.elapsed().as_secs_f32());
    Ok(exp)
}

/// GBO search and NIA fine-tuning epochs for a scale.
pub fn search_epochs(scale: Scale) -> usize {
    scale.pick(3, 3, 6)
}

/// Share of the accuracy gap `clean − faulty` that `repaired` wins back,
/// in percent (100 when the faults opened no gap).
pub fn gap_recovery_pct(clean: f32, faulty: f32, repaired: f32) -> f32 {
    let gap = clean - faulty;
    if gap > 1e-6 {
        100.0 * (repaired - faulty) / gap
    } else {
        100.0
    }
}

/// The first `n` test images of an experiment as a dataset of their own.
///
/// # Errors
///
/// Propagates tensor/dataset construction errors.
pub fn test_subset(exp: &Experiment, n: usize) -> Result<membit_data::Dataset> {
    let test = exp.test_set();
    let n = n.min(test.len());
    let (images, _) = test.batch(0, n)?;
    Ok(membit_data::Dataset::new(
        membit_tensor::Tensor::from_vec(images.as_slice().to_vec(), images.shape())?,
        test.labels()[..n].to_vec(),
        test.num_classes(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> std::result::Result<(Vec<&'static str>, Opts), String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args).map(|(e, o)| (e.iter().map(|e| e.name).collect(), o))
    }

    #[test]
    fn scale_tags() {
        assert_eq!(Scale::Smoke.tag(), "smoke");
        assert_eq!(Scale::Quick.tag(), "quick");
        assert_eq!(Scale::Full.tag(), "full");
    }

    #[test]
    fn config_scales_differ() {
        let q = experiment_config(Scale::Quick, 1);
        let f = experiment_config(Scale::Full, 1);
        assert!(f.train.epochs > q.train.epochs);
        assert!(f.data.train_per_class > q.data.train_per_class);
        assert_ne!(q.checkpoint, f.checkpoint);
        // smoke runs share the quick model, cached apart from results/
        let s = experiment_config(Scale::Smoke, 1);
        assert_eq!((s.train.epochs, s.data.train_per_class), (12, 200));
        if std::env::var_os("MEMBIT_RESULTS_DIR").is_none() {
            let ckpt = s.checkpoint.unwrap();
            assert!(ckpt.starts_with("target/bench-smoke"), "{ckpt:?}");
            assert!(ckpt.ends_with("pretrained_quick_seed1.ckpt"), "{ckpt:?}");
        }
    }

    #[test]
    fn args_are_validated() {
        let (names, o) = parse("fig1b --scale smoke --seed 7 --resume --threads 2").unwrap();
        assert_eq!(names, ["fig1b"]);
        assert_eq!(
            o,
            Opts {
                scale: Scale::Smoke,
                seed: 7,
                resume: true,
                threads: Some(2)
            }
        );
        let (names, o) = parse("--seed 3 bench_memse").unwrap();
        assert_eq!(
            (names, o.scale, o.seed),
            (vec!["bench_memse"], Scale::Quick, 3)
        );
        for bad in [
            "",
            "--scale quick",
            "nope",
            "fig1b fig2",
            "fig1b --smok",
            "fig1b --smoke",
            "fig1b --sede 7",
            "fig1b --scale huge",
            "fig1b --scale",
            "fig1b --seed x",
            "fig1b --seed -1",
            "fig1b --threads 0",
            "fig1b --threads",
            "device_eval --samples 4",
            "ablation_gamma --sigma 10",
            "table1 --gamma 1e-3",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn all_runs_the_registry_in_order() {
        let (names, _) = parse("all").unwrap();
        let registry: Vec<&str> = experiments::REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names, registry);
        assert_eq!(names.first(), Some(&"fig1b"));
        assert_eq!(
            &names[names.len() - 3..],
            ["bench_serve", "bench_engine", "bench_memse"]
        );
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} registered twice");
        }
    }

    #[test]
    fn smoke_artifacts_never_default_to_results() {
        if std::env::var_os("MEMBIT_RESULTS_DIR").is_none() {
            assert_eq!(
                results_dir(Scale::Smoke),
                PathBuf::from("target/bench-smoke")
            );
            assert_eq!(results_dir(Scale::Quick), PathBuf::from("results"));
            assert_eq!(results_dir(Scale::Full), PathBuf::from("results"));
        }
    }

    #[test]
    fn gap_recovery_is_a_share_of_the_gap() {
        assert_eq!(gap_recovery_pct(90.0, 70.0, 88.0), 90.0);
        assert_eq!(gap_recovery_pct(90.0, 90.0, 10.0), 100.0);
    }
}
