//! Crossbar engine thread-sweep benchmark.
//!
//! Programs a tiled crossbar, runs the same pulse train at several worker
//! thread counts with warmup + median-of-N timing, checks the outputs are
//! **bitwise identical** across all of them (the engine derives
//! per-`(pulse, sample, tile)` noise substreams, so threading must never
//! change results), and writes the wall-clock numbers to
//! `BENCH_engine.json` under the results directory.
//!
//! Options (besides the shared bench flags):
//!
//! * `--smoke` — a tiny problem + one repeat: a seconds-long CI smoke run
//!   that still exercises programming, execution, determinism checking
//!   and JSON emission.

use std::error::Error;
use std::io::Write as _;
use std::time::Instant;

use membit_bench::{results_dir, Cli};
use membit_encoding::{BitEncoder, Thermometer};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{CrossbarLinear, ExecOptions, XbarConfig};

struct Case {
    name: &'static str,
    out_features: usize,
    in_features: usize,
    batch: usize,
    pulses: usize,
}

fn random_pm1(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

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

/// One warmup execute (untimed), then `repeats` timed executes with the
/// identical seeded noise stream; returns the median wall-clock in ms and
/// the (deterministic) output.
fn time_execute(
    engine: &CrossbarLinear,
    train: &membit_encoding::PulseTrain,
    seed: u64,
    repeats: usize,
) -> Result<(f64, Tensor), Box<dyn Error>> {
    let mut warm_rng = Rng::from_seed(seed).stream(RngStream::Noise);
    let mut out = engine.execute(train, &mut warm_rng)?;
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut xrng = Rng::from_seed(seed).stream(RngStream::Noise);
        let t = Instant::now();
        out = engine.execute(train, &mut xrng)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(times), out))
}

/// Samples·pulses per second at the given per-execute median.
fn throughput(batch: usize, pulses: usize, ms: f64) -> f64 {
    (batch * pulses) as f64 / (ms / 1e3)
}

fn main() -> Result<(), Box<dyn Error>> {
    let cli = Cli::parse();
    let smoke = cli.rest.iter().any(|a| a == "--smoke");
    let repeats = if smoke { 1 } else { 5 };
    let cases: Vec<Case> = if smoke {
        vec![Case {
            name: "smoke",
            out_features: 48,
            in_features: 96,
            batch: 16,
            pulses: 4,
        }]
    } else {
        vec![
            Case {
                name: "fc_like",
                out_features: 256,
                in_features: 512,
                batch: 64,
                pulses: 8,
            },
            Case {
                name: "conv_patches",
                out_features: 128,
                in_features: 288,
                batch: 256,
                pulses: 8,
            },
        ]
    };
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "crossbar engine benchmark ({} case(s), median of {repeats} repeat(s) after 1 warmup, \
         host has {host_threads} hardware thread(s))",
        cases.len()
    );
    let mut case_json = Vec::new();
    for case in &cases {
        let w = random_pm1(&[case.out_features, case.in_features], cli.seed);
        let x = random_pm1(&[case.batch, case.in_features], cli.seed ^ 1);
        let train = Thermometer::new(case.pulses)?.encode_tensor(&x)?;
        let mut cfg = XbarConfig::realistic(0.05);
        cfg.exec = ExecOptions::serial();
        let mut prng = Rng::from_seed(cli.seed).stream(RngStream::Device);
        let xbar = CrossbarLinear::program(&w, &cfg, &mut prng)?;

        println!(
            "\n{}: {}×{} weights, batch {}, {} pulses, {} tiles",
            case.name,
            case.out_features,
            case.in_features,
            case.batch,
            case.pulses,
            xbar.num_tiles()
        );
        println!(
            "{:>10} {:>12} {:>10} {:>14}",
            "threads", "ms/exec", "speedup", "samples·p/s"
        );

        let mut reference: Option<Tensor> = None;
        let mut serial_ms = 0.0f64;
        let mut entries = Vec::new();
        for &threads in thread_counts {
            let mut run_cfg = cfg;
            run_cfg.exec = ExecOptions::with_threads(threads);
            // re-programming with the same rng seed reproduces the same
            // devices; only the exec options differ between runs
            let mut prng = Rng::from_seed(cli.seed).stream(RngStream::Device);
            let engine = CrossbarLinear::program(&w, &run_cfg, &mut prng)?;
            let (ms, y) = time_execute(&engine, &train, cli.seed ^ 2, repeats)?;
            match &reference {
                None => {
                    serial_ms = ms;
                    reference = Some(y);
                }
                Some(r) => {
                    assert_eq!(
                        r.as_slice(),
                        y.as_slice(),
                        "{}: output at {} threads differs bitwise from serial",
                        case.name,
                        threads
                    );
                }
            }
            let speedup = serial_ms / ms;
            let sps = throughput(case.batch, case.pulses, ms);
            println!("{threads:>10} {ms:>12.2} {speedup:>9.2}x {sps:>14.0}");
            entries.push(format!(
                "{{\"threads\": {threads}, \"ms_per_exec\": {ms:.3}, \
                 \"speedup_vs_serial\": {speedup:.3}, \
                 \"samples_pulses_per_s\": {sps:.0}, \"bitwise_identical\": true}}"
            ));
        }
        case_json.push(format!(
            "{{\"case\": \"{}\", \"out_features\": {}, \"in_features\": {}, \
             \"batch\": {}, \"pulses\": {}, \"tiles\": {}, \"runs\": [{}]}}",
            json_escape(case.name),
            case.out_features,
            case.in_features,
            case.batch,
            case.pulses,
            xbar.num_tiles(),
            entries.join(", ")
        ));
    }

    let path = results_dir().join("BENCH_engine.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(
        f,
        "{{\"bench\": \"engine\", \"smoke\": {smoke}, \"seed\": {}, \
         \"host_hardware_threads\": {host_threads}, \"repeats\": {repeats}, \"warmup\": 1, \
         \"timing\": \"median over repeats after one warmup execute\", \
         \"determinism\": \"outputs bitwise identical across all thread counts\", \
         \"cases\": [{}]}}",
        cli.seed,
        case_json.join(", ")
    )?;
    println!("\n# wrote {}", path.display());
    println!("# outputs were bitwise identical across thread counts {thread_counts:?}");
    if host_threads == 1 {
        println!("# note: host has a single hardware thread — speedups ≈ 1 are expected here");
    }
    Ok(())
}
