//! Crossbar engine thread-sweep benchmark.
//!
//! Programs a tiled crossbar and runs the same pulse train at several
//! worker thread counts with warmup + median-of-N timing. The engine
//! derives per-`(pulse, sample, tile)` noise substreams, so threading
//! never changes results (`proptest_determinism` holds that contract);
//! only the wall clock moves. Writes `BENCH_engine.json`.

use std::time::Instant;

use membit_encoding::{BitEncoder, PulseTrain, Thermometer};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{CrossbarLinear, ExecOptions, XbarConfig};

use super::{median, random_pm1};
use crate::{Artifact, Opts, Result, Scale};

struct Case {
    name: &'static str,
    out_features: usize,
    in_features: usize,
    batch: usize,
    pulses: usize,
}

/// Worker-thread counts of the sweep.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One warmup execute (untimed), then `repeats` timed executes with the
/// identical seeded noise stream; returns the median wall-clock in ms.
fn time_execute(
    engine: &CrossbarLinear,
    train: &PulseTrain,
    seed: u64,
    repeats: usize,
) -> Result<f64> {
    let mut warm_rng = Rng::from_seed(seed).stream(RngStream::Noise);
    engine.execute(train, &mut warm_rng)?;
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let mut xrng = Rng::from_seed(seed).stream(RngStream::Noise);
        let t = Instant::now();
        engine.execute(train, &mut xrng)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(times))
}

/// Writes `BENCH_engine.json`.
///
/// # Errors
///
/// Propagates encoder and engine errors.
pub fn run(opts: &Opts) -> Result<Vec<Artifact>> {
    let smoke = opts.scale == Scale::Smoke;
    let repeats = if smoke { 1 } else { 5 };
    let cases: &[Case] = if smoke {
        &[Case {
            name: "smoke",
            out_features: 48,
            in_features: 96,
            batch: 16,
            pulses: 4,
        }]
    } else {
        &[
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
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "crossbar engine benchmark ({} case(s), median of {repeats} repeat(s) after 1 warmup, \
         host has {host_threads} hardware thread(s))",
        cases.len()
    );
    if host_threads == 1 {
        println!("# note: host has a single hardware thread — speedups ≈ 1 are expected here");
    }

    let mut case_json = Vec::new();
    for case in cases {
        let w = random_pm1(&[case.out_features, case.in_features], opts.seed);
        let x = random_pm1(&[case.batch, case.in_features], opts.seed ^ 1);
        let train = Thermometer::new(case.pulses)?.encode_tensor(&x)?;
        let mut cfg = XbarConfig::realistic(0.05);
        let mut serial_ms = 0.0f64;
        let mut tiles = 0;
        let mut entries = Vec::new();
        for threads in THREADS {
            cfg.exec = ExecOptions::with_threads(threads);
            // re-programming with the same rng seed reproduces the same
            // devices; only the exec options differ between runs
            let mut prng = Rng::from_seed(opts.seed).stream(RngStream::Device);
            let engine = CrossbarLinear::program(&w, &cfg, &mut prng)?;
            tiles = engine.num_tiles();
            let ms = time_execute(&engine, &train, opts.seed ^ 2, repeats)?;
            if threads == 1 {
                serial_ms = ms;
            }
            let speedup = serial_ms / ms;
            let sps = (case.batch * case.pulses) as f64 / (ms / 1e3);
            entries.push(format!(
                "{{\"threads\": {threads}, \"ms_per_exec\": {ms:.3}, \
                 \"speedup_vs_serial\": {speedup:.3}, \"samples_pulses_per_s\": {sps:.0}}}"
            ));
        }
        case_json.push(format!(
            "{{\"case\": \"{}\", \"out_features\": {}, \"in_features\": {}, \
             \"batch\": {}, \"pulses\": {}, \"tiles\": {tiles}, \"runs\": [{}]}}",
            case.name,
            case.out_features,
            case.in_features,
            case.batch,
            case.pulses,
            entries.join(", ")
        ));
    }

    let json = format!(
        "{{\"bench\": \"engine\", \"smoke\": {smoke}, \"seed\": {}, \
         \"host_hardware_threads\": {host_threads}, \"repeats\": {repeats}, \"warmup\": 1, \
         \"timing\": \"median over repeats after one warmup execute\", \
         \"determinism\": \"outputs bitwise identical across all thread counts\", \
         \"cases\": [{}]}}",
        opts.seed,
        case_json.join(", ")
    );
    Ok(vec![Artifact::json("BENCH_engine.json", json)])
}
