//! `membench`: the repository benchmark.
//!
//! Runs one named workload through the public APIs of the membit crates,
//! prints every metric as `name value unit`, checks the outputs, and
//! ends with one JSON line `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics (untraced) or the per-layer metrics
//! (`--trace 1`). See `README.md` beside this file for the catalogue.
//!
//! ```text
//! membench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! membench --prepare               # pretrain/cache the model, untimed
//! membench --repeat N [--workload <name>] [--seconds S] [--trace 0|1]
//! membench --smoke                 # every workload at tiny size
//! ```

mod mirror;
mod model;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use stats::{median, parse_result, quartiles, result_json, Metric};
use workloads::{Opts, Outcome, Workload};

/// The error type of the benchmark.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// End-to-end metrics `(name, unit)`, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("batch_p50_ms", "ms"),
    ("accuracy_pct", "%"),
    ("energy_uj_per_sample", "uJ"),
];

/// Metrics printed but in neither result set.
const INFO: [(&str, &str); 4] = [
    ("prepare_s", "s"),
    ("search_s", "s"),
    ("batches", "count"),
    ("failed_frac", "ratio"),
];

/// Crossbar layers of the model, in the per-layer metric names.
pub const LAYERS: [&str; 7] = ["c1", "c2", "c3", "c4", "c5", "c6", "fc"];

/// Per-layer metrics `(name, unit)`, in `BENCHMARK.json` order.
fn per_layer() -> Vec<(String, &'static str)> {
    let named = |m: &[(&str, &'static str)]| {
        m.iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect::<Vec<_>>()
    };
    let layered = |stage: &str| LAYERS.map(|l| (format!("{stage}.{l}"), "s"));
    let mut m = named(&[
        ("data.synth_s", "s"),
        ("nn.load_s", "s"),
        ("core.calibrate_s", "s"),
        ("core.deploy_s", "s"),
        ("xbar.program_s", "s"),
        ("xbar.remap_s", "s"),
        ("xbar.inject_s", "s"),
        ("tensor.lower_s", "s"),
    ]);
    m.extend(layered("encoding.encode_s"));
    m.push(("encoding.ns_per_value".into(), "ns"));
    m.extend(layered("xbar.exec_s"));
    m.extend(named(&[
        ("tensor.digital_s", "s"),
        ("core.periphery_s", "s"),
        ("core.memse_capture_s", "s"),
        ("core.memse_search_s", "s"),
        ("core.memse_evals", "count"),
        ("serve.self_s", "s"),
        ("serve.model_s", "s"),
        ("serve.batches", "count"),
        ("serve.mean_batch", "requests"),
        ("serve.retries", "count"),
        ("serve.failovers", "count"),
        ("serve.max_queue_depth", "count"),
        ("serve.p50_virtual_us", "us"),
        ("serve.p99_virtual_us", "us"),
        ("xbar.pulses", "count"),
        ("xbar.tile_mvms", "count"),
        ("xbar.adc_conversions", "count"),
        ("xbar.cell_reads", "count"),
        ("xbar.guard_checks", "count"),
        ("xbar.guard_violations", "count"),
        ("xbar.guard_retries", "count"),
        ("xbar.tile_refreshes", "count"),
        ("xbar.tile_remaps", "count"),
        ("xbar.fallbacks", "count"),
        ("xbar.packed_ready_layers", "count"),
        ("trace.stage_sum_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]));
    m
}

/// Unit of a catalogued metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(INFO.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    prepare: bool,
    repeat: Option<usize>,
    smoke: bool,
}

const USAGE: &str = "usage: membench --workload <eval-realistic|gbo-rails|serve-shards|repair-guarded> \
     [--seed <u64>] [--seconds <s>] [--trace 0|1]\n       membench --prepare\n       \
     membench --repeat <n> [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1]\n       \
     membench --smoke";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        prepare: false,
        repeat: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                a.repeat = Some(
                    value()?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or("--repeat needs an integer ≥ 1")?,
                );
            }
            "--prepare" => a.prepare = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !a.prepare && !a.smoke && a.repeat.is_none() && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("Error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &Args) -> Res<bool> {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    if args.smoke {
        return smoke(args.seed);
    }
    if let Some(n) = args.repeat {
        let ws = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        return repeat(n, &ws, &opts);
    }
    // the pretrain is untimed set-up of the checkout, not of a run
    let prepare_s = model::prepare()?;
    if prepare_s > 0.0 || args.prepare {
        println!("prepare_s {prepare_s} s");
    }
    match args.workload {
        Some(w) if !args.prepare => report(w, &opts, run(w, &opts)?),
        _ => Ok(true),
    }
}

fn run(w: Workload, opts: &Opts) -> Res<Outcome> {
    match w {
        Workload::ServeShards => serve::run_serve(opts),
        _ => workloads::run_eval(w, opts),
    }
}

/// Prints every metric, the host stamp and the result line; writes the
/// trace. Returns whether the run was correct.
fn report(w: Workload, opts: &Opts, mut out: Outcome) -> Res<bool> {
    println!(
        "# membench workload={} seed={} trace={}",
        w.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    for (name, value) in &out.metrics {
        let unit = unit_of(name).ok_or_else(|| format!("metric {name} is not catalogued"))?;
        println!("{name} {value} {unit}");
    }
    let chosen: Vec<(String, &str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in chosen {
        // per-layer metrics a workload has no such layer for read 0
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => *v,
            None if opts.trace => 0.0,
            None => {
                out.failures
                    .push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            out.failures.push(format!("{name} is not finite"));
        }
        metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
    if opts.trace {
        let path = Path::new(model::OUT_DIR).join(format!("trace-{}-{}.json", w.name(), opts.seed));
        out.tracer.write_json(&path, w.name(), opts.seed)?;
        println!("# trace {}", path.display());
    }
    for f in &out.failures {
        println!("# check failed: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "# stamp {{\"nproc\": {}, \"profile\": \"{}\", \"git_rev\": \"{}\", \"seed\": {}, \"workload\": \"{}\", \"trace\": {}}}",
        nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        opts.seed,
        w.name(),
        u8::from(opts.trace)
    );
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), out.failed, &metrics)
    );
    Ok(correct)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without a git binary.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
        }),
        None => Some(head),
    });
    rev.map_or("unknown".into(), |r| r.trim().chars().take(12).collect())
}

/// Every workload at tiny size with tracing on: a runnability check
/// that writes only under `target/`.
fn smoke(seed: u64) -> Res<bool> {
    let mut ok = true;
    for w in Workload::ALL {
        let t = Instant::now();
        let opts = Opts {
            seed,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let out = run(w, &opts)?;
        let path = Path::new(model::OUT_DIR).join(format!("smoke-trace-{}-{seed}.json", w.name()));
        out.tracer.write_json(&path, w.name(), seed)?;
        for f in &out.failures {
            println!("# check failed: {f}");
        }
        ok &= out.failures.is_empty();
        println!(
            "# smoke {}: {} ({} operations, {:.1} s)",
            w.name(),
            if out.failures.is_empty() {
                "ok"
            } else {
                "FAILED"
            },
            out.attempted,
            t.elapsed().as_secs_f64()
        );
    }
    Ok(ok)
}

/// Runs this binary `n` times per workload as separate processes,
/// alternating workloads, then prints each metric's median, quartiles and
/// spread `(q3 − q1) / median`.
fn repeat(n: usize, workloads: &[Workload], opts: &Opts) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut runs: Vec<(Workload, Vec<(String, f64)>)> = Vec::new();
    let mut ok = true;
    for i in 0..n {
        for &w in workloads {
            let seed = opts.seed;
            let t = Instant::now();
            let child = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &opts.seconds.to_string(),
                    "--trace",
                    if opts.trace { "1" } else { "0" },
                ])
                .output()?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let parsed = stdout.lines().last().and_then(parse_result);
            let good = child.status.success() && parsed.as_ref().is_some_and(|(c, _)| *c);
            ok &= good;
            println!(
                "# run {} {} seed {seed}: {} in {:.1} s",
                i + 1,
                w.name(),
                if good { "ok" } else { "FAILED" },
                t.elapsed().as_secs_f64()
            );
            if let Some((_, metrics)) = parsed {
                runs.push((w, metrics));
            }
        }
    }
    println!(
        "{:<16} {:<28} {:>3} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "spread"
    );
    for &w in workloads {
        let names: Vec<String> = runs
            .iter()
            .find(|(rw, _)| *rw == w)
            .map(|(_, m)| m.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter(|(rw, _)| *rw == w)
                .filter_map(|(_, m)| m.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            let med = median(&values).unwrap_or(0.0);
            let (q1, q3) = quartiles(&values).unwrap_or((med, med));
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            println!(
                "{:<16} {name:<28} {:>3} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}",
                w.name(),
                values.len()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
    use membit_nn::{Params, Vgg, VggConfig};
    use membit_tensor::{Rng, Tensor};
    use membit_xbar::{GuardPolicy, XbarConfig};

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END
            .iter()
            .chain(INFO.iter())
            .map(|(n, _)| n.to_string())
            .collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(stats::valid_name(n), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../../../../BENCHMARK.json");
        for (name, unit) in END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    /// The standalone build must generate the same code as the workspace
    /// build, so its release profile follows the workspace's.
    #[test]
    fn release_profile_matches_the_workspace() {
        let section = |toml: &str| {
            let body = toml.split("[profile.release]").nth(1).unwrap_or("");
            body.split("\n[")
                .next()
                .unwrap_or("")
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let ours = section(include_str!("Cargo.toml"));
        assert!(!ours.is_empty(), "Cargo.toml has no [profile.release]");
        assert_eq!(ours, section(include_str!("../../../../../Cargo.toml")));
    }

    #[test]
    fn args_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload gbo-rails --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::GboRails));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        for bad in [
            "",
            "--workload nope",
            "--workload gbo-rails --trace 2",
            "--seed",
            "--repeat 0",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert!(parse("--prepare").is_ok());
        assert!(parse("--repeat 3").is_ok());
    }

    /// The mirror rebuilt from public calls must reproduce
    /// `DeviceVgg::forward` bit for bit, through guard repairs and
    /// injected faults alike.
    #[test]
    fn mirror_is_bitwise_equal_to_device_forward_on_tiny_vgg() {
        let mut params = Params::new();
        let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut Rng::from_seed(3)).unwrap();
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::realistic(0.05).with_guard(GuardPolicy::standard()),
            pulses: vec![8, 12, 6],
            act_levels: 9,
            policy: DeploymentPolicy::fault_aware(),
        };
        let mut rd = Rng::from_seed(11);
        let mut rm = Rng::from_seed(11);
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rd).unwrap();
        let mut tr = trace::Tracer::new(true);
        let mut mirror =
            mirror::Mirror::deploy(&vgg, &params, &cfg, &mut rm, &mut tr, None).unwrap();
        let images = Tensor::from_fn(&[4, 3, 8, 8], |i| {
            ((i % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        for step in 0..4 {
            if step == 2 {
                assert_eq!(
                    device.inject_faults(0.05, &mut rd).unwrap(),
                    mirror.inject_faults(0.05, &mut rm).unwrap()
                );
                device.inject_stuck_faults(0.02, &mut rd).unwrap();
                mirror.inject_stuck_faults(0.02, &mut rm).unwrap();
                let policy = membit_xbar::RecoveryPolicy::standard();
                device.remap_all(&policy, &mut rd).unwrap();
                mirror.remap_all(&policy, &mut rm).unwrap();
            }
            if step == 3 {
                device.reconfigure_encoding(&[4, 16, 10]).unwrap();
                mirror.reconfigure_encoding(&[4, 16, 10]);
            }
            let (yd, sd) = device.forward(&images, &mut rd).unwrap();
            let (ym, sm) = mirror.forward(&images, &mut rm, &mut tr, None).unwrap();
            assert!(workloads::bitwise_eq(&yd, &ym), "step {step}");
            assert_eq!(sd, sm, "step {step}");
        }
        assert!(tr
            .spans()
            .iter()
            .any(|s| s.name == "xbar.exec" && s.layer == "fc"));
    }
}
