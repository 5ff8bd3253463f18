//! Micro-benchmarks for the performance-critical kernels: matmul,
//! im2col/conv lowering, VGG forward, bit encoding, the device-level
//! crossbar MVM, the guard's host overhead, the read-noise sampler, the
//! activation `tanh` and noise calibration.
//!
//! Uses a small self-contained timing harness (`harness = false`) instead
//! of criterion so the workspace builds offline with zero external
//! dependencies. Run with `cargo bench -p membit-bench`.

use std::hint::black_box;
use std::time::Instant;

use membit_autograd::Tape;
use membit_core::calibrate_noise;
use membit_data::Dataset;
use membit_encoding::pla::PlaThermometer;
use membit_encoding::{BitEncoder, BitSlicing, Thermometer};
use membit_nn::{NoNoise, Params, Phase, Vgg, VggConfig};
use membit_tensor::{im2col, Conv2dGeometry, MatmulOptions, Rng, Tensor};
use membit_xbar::{
    CrossbarLinear, DeviceModel, ExecOptions, GuardPolicy, NoiseSpec, Tile, XbarConfig,
};

/// Times `f` with a warmup pass and enough iterations to fill ~0.2 s,
/// reporting and returning the per-iteration mean in seconds.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let probe = Instant::now();
    black_box(f());
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.2 / once) as u64).clamp(3, 10_000);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    let (value, unit) = if per_iter >= 1e-3 {
        (per_iter * 1e3, "ms")
    } else {
        (per_iter * 1e6, "µs")
    };
    println!("{name:<40} {value:>10.3} {unit}/iter  ({iters} iters)");
    per_iter
}

fn bench_matmul() {
    for &n in &[32usize, 64, 128] {
        let a = Tensor::from_fn(&[n, n], |i| (i % 17) as f32 - 8.0);
        let b = Tensor::from_fn(&[n, n], |i| (i % 13) as f32 - 6.0);
        bench(&format!("matmul {n}x{n} serial"), || {
            a.matmul_with(&b, MatmulOptions::serial()).unwrap()
        });
    }
}

fn bench_im2col() {
    let x = Tensor::from_fn(&[8, 32, 16, 16], |i| (i % 9) as f32 / 4.0 - 1.0);
    let geom = Conv2dGeometry::new(32, 16, 16, 3, 3, 1, 1).unwrap();
    bench("im2col 8x32x16x16 k3", || im2col(&x, &geom).unwrap());
}

fn bench_vgg_forward() {
    let mut rng = Rng::from_seed(0);
    let mut params = Params::new();
    let mut vgg = Vgg::new(&VggConfig::small(), &mut params, &mut rng).unwrap();
    let images = Tensor::from_fn(&[8, 3, 16, 16], |i| (i % 9) as f32 / 4.0 - 1.0);
    bench("vgg9-small forward batch8", || {
        let mut tape = Tape::new();
        let mut binding = params.frozen_binding();
        let x = tape.constant(images.clone());
        vgg.forward(
            &mut tape,
            &params,
            &mut binding,
            x,
            Phase::Eval,
            &mut NoNoise,
        )
        .unwrap()
    });
}

fn bench_encoding() {
    let x = Tensor::from_fn(&[64, 144], |i| {
        ((i % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
    });
    let thermo = Thermometer::new(8).unwrap();
    let slicing = BitSlicing::new(3).unwrap();
    bench("thermometer encode 64x144 p8", || {
        thermo.encode_tensor(&x).unwrap()
    });
    bench("bit-slicing encode 64x144 b3", || {
        slicing.encode_tensor(&x).unwrap()
    });
}

fn bench_xbar() {
    let mut rng = Rng::from_seed(1);
    let w = Tensor::from_fn(&[64, 128], |i| if i % 3 == 0 { 1.0 } else { -1.0 });
    let tile = Tile::program(&w.transpose().unwrap(), &DeviceModel::ideal(), &mut rng).unwrap();
    let x: Vec<f32> = (0..128)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut out = vec![0.0f32; 64];
    bench("tile mvm 128x64", || {
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out)
            .unwrap();
        out[0]
    });

    let engine = CrossbarLinear::program(&w, &XbarConfig::functional(2.0), &mut rng).unwrap();
    let input = Tensor::from_fn(&[4, 128], |i| ((i % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0));
    let train = Thermometer::new(8).unwrap().encode_tensor(&input).unwrap();
    bench("crossbar execute 4x128->64 p8", || {
        engine.execute(&train, &mut rng).unwrap()
    });
}

fn bench_guard() {
    // the small VGG's c1 (144 → 16, one image's 256 positions) and c5
    // (576 → 64, its 16 positions) on 128×128 realistic tiles at p = 16
    // on one thread, unguarded and with the standard guard (checks and
    // retries, no repair ladder)
    for (layer, fan_in, fan_out, positions) in [("c1", 144, 16, 256), ("c5", 576, 64, 16)] {
        let mut rng = Rng::from_seed(5);
        let shape = [fan_out, fan_in];
        let w = Tensor::from_fn(&shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 });
        let input = Tensor::from_fn(&[positions, fan_in], |_| rng.uniform(-1.0, 1.0));
        let train = PlaThermometer::new(9, 16)
            .unwrap()
            .encode_tensor(&input)
            .unwrap();
        let engines = [None, Some(GuardPolicy::standard())].map(|guard| {
            let cfg = XbarConfig {
                guard,
                exec: ExecOptions::with_threads(1),
                ..XbarConfig::realistic(0.2)
            };
            CrossbarLinear::program(&w, &cfg, &mut rng).unwrap()
        });
        // a warmup, then interleaved rounds, so both engines see the same
        // host state
        for engine in &engines {
            black_box(engine.execute(&train, &mut rng).unwrap());
        }
        const ROUNDS: u32 = 100;
        let mut secs = [0.0f64; 2];
        for _ in 0..ROUNDS {
            for (s, engine) in secs.iter_mut().zip(&engines) {
                let start = Instant::now();
                black_box(engine.execute(&train, &mut rng).unwrap());
                *s += start.elapsed().as_secs_f64();
            }
        }
        for (name, s) in ["plain", "guarded"].iter().zip(secs) {
            let ms = s * 1e3 / f64::from(ROUNDS);
            println!(
                "{:<40} {ms:>10.3} ms/iter  ({ROUNDS} iters)",
                format!("{layer} execute {positions}x{fan_in}->{fan_out} p16 {name}")
            );
        }
        println!(
            "{:<40} {:>10.3} ×",
            format!("{layer} guarded / plain"),
            secs[1] / secs[0]
        );
    }
}

/// Prints a per-normal cost for a bench of `normals` draws per iteration.
fn per_normal(name: &str, secs: f64, normals: usize) {
    println!(
        "{:<40} {:>10.3} ns/normal",
        name,
        secs * 1e9 / normals as f64
    );
}

fn bench_noise() {
    // one tile readout's noise the sequential way: a keyed substream,
    // then 128 column draws in one call
    let base = Rng::from_seed(3);
    let mut out = vec![0.0f32; 128];
    let mut pulse = 0u64;
    let secs = bench("noise substream + accum 128 cols", || {
        pulse += 1;
        base.substream(&[pulse, 0, 0, 0])
            .normal_accum(0.1, &mut out);
        out[0]
    });
    per_normal("  per normal", secs, 128);
    // a pulse block's noise: 16 keyed substreams stepped side by side,
    // 32 Box–Muller pairs (64 normals) each, the shape of a 16-pulse
    // `Tile::read_block` of 64 output draws
    const LANES: usize = 16;
    const PAIRS: usize = 32;
    let (mut r, mut cos, mut spare) = (
        vec![0.0f32; PAIRS * LANES],
        vec![0.0f32; PAIRS * LANES],
        vec![0.0f32; PAIRS * LANES],
    );
    let mut rngs = Vec::with_capacity(LANES);
    let secs = bench("16 substreams x 32 pairs in lanes", || {
        pulse += 1;
        rngs.clear();
        rngs.extend((0..LANES as u64).map(|l| base.substream(&[pulse, l, 0, 0])));
        Rng::pair_lanes::<LANES>(&mut rngs, &mut r, &mut cos, &mut spare);
        r[0] + spare[PAIRS * LANES - 1]
    });
    per_normal("  per normal", secs, 2 * PAIRS * LANES);
    let mut rng = Rng::from_seed(4);
    bench("rng normal x1024", || {
        (0..1024).map(|_| rng.normal(0.0, 1.0)).sum::<f32>()
    });
}

fn bench_tanh() {
    // the small VGG's c1 output at a calibration batch of 100
    // (16 channels × 16 × 16 per image), swept over [−4, 4)
    let x = Tensor::from_fn(&[100, 16, 16, 16], |i| (i % 4096) as f32 / 512.0 - 4.0);
    bench("tensor tanh 409600 values", || x.tanh());
}

fn bench_calibrate() {
    // what every membench workload's set-up mostly pays: four batch-100
    // forwards of the small VGG
    let mut rng = Rng::from_seed(6);
    let mut params = Params::new();
    let mut vgg = Vgg::new(&VggConfig::small(), &mut params, &mut rng).unwrap();
    let images = Tensor::from_fn(&[400, 3, 16, 16], |_| rng.uniform(-1.0, 1.0));
    let data = Dataset::new(images, (0..400).map(|i| i % 10).collect(), 10).unwrap();
    bench("calibrate_noise vgg9-small 4x100", || {
        calibrate_noise(&mut vgg, &params, &data, 100, 4, 14.0).unwrap()
    });
}

fn main() {
    // `cargo test` builds and runs bench targets with `--test`; there is
    // nothing to test here, so bail out quickly in that mode.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    bench_matmul();
    bench_im2col();
    bench_vgg_forward();
    bench_encoding();
    bench_xbar();
    bench_guard();
    bench_noise();
    bench_tanh();
    bench_calibrate();
}
