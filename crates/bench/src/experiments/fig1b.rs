//! Fig. 1(b): normalized accumulated noise variance vs. information bits
//! for bit slicing vs. thermometer coding — closed form (Eqs. 2–3) plus a
//! Monte-Carlo validation on the device-level crossbar simulator.

use membit_encoding::variance::fig1b_series;
use membit_encoding::{BitEncoder, BitSlicing, PulseTrain, Thermometer};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{CrossbarLinear, XbarConfig};

use crate::{chart, Artifact, Opts, Result};

/// Empirical output variance of an encoded all-zero input on a noisy
/// crossbar.
fn monte_carlo_variance(
    train: &PulseTrain,
    sigma: f32,
    trials: usize,
    rng: &mut Rng,
) -> Result<f64> {
    let w = Tensor::ones(&[1, 4]);
    let xbar = CrossbarLinear::program(&w, &XbarConfig::functional(sigma), rng)?;
    let clean: f32 = train.decode()?.matmul(&w.transpose()?)?.at(0);
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..trials {
        let y = f64::from(xbar.execute(train, rng)?.at(0) - clean);
        sum += y;
        sum_sq += y * y;
    }
    let mean = sum / trials as f64;
    Ok(sum_sq / trials as f64 - mean * mean)
}

/// Writes `fig1b.csv`.
///
/// # Errors
///
/// Propagates encoder and crossbar errors.
pub fn run(opts: &Opts) -> Result<Vec<Artifact>> {
    let mc_trials = opts.scale.pick(2000, 2000, 10000);
    let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Noise);
    let zeros = Tensor::zeros(&[1, 4]);
    let series = fig1b_series(8);
    let mut rows = Vec::new();
    for row in &series {
        // Monte-Carlo only where pulse counts stay reasonable
        let (bs_mc, tc_mc) = if row.bits <= 5 {
            let bs = BitSlicing::new(row.bs_pulses)?.encode_tensor(&zeros)?;
            let tc = Thermometer::new(row.tc_pulses)?.encode_tensor(&zeros)?;
            (
                monte_carlo_variance(&bs, 1.0, mc_trials, &mut rng)?,
                monte_carlo_variance(&tc, 1.0, mc_trials, &mut rng)?,
            )
        } else {
            (f64::NAN, f64::NAN)
        };
        rows.push(vec![
            row.bits.to_string(),
            row.bs_pulses.to_string(),
            format!("{:.6}", row.bs_variance),
            row.tc_pulses.to_string(),
            format!("{:.6}", row.tc_variance),
            format!("{bs_mc:.6}"),
            format!("{tc_mc:.6}"),
        ]);
    }

    // terminal rendition of the figure (log-y)
    let xs: Vec<usize> = series.iter().map(|r| r.bits).collect();
    let bs: Vec<f64> = series.iter().map(|r| r.bs_variance).collect();
    let tc: Vec<f64> = series.iter().map(|r| r.tc_variance).collect();
    println!("log-scale variance vs bits (B = bit slicing, T = thermometer, σ² = 1):");
    print!("{}", chart::dual_log_chart(&xs, &bs, 'B', &tc, 'T', 10));
    println!("Paper's qualitative claims, checked:");
    let tc_wins = series[1..].iter().all(|r| r.tc_variance < r.bs_variance);
    let bs_floor = series
        .last()
        .is_some_and(|r| (r.bs_variance - 1.0 / 3.0).abs() < 0.01);
    println!("  thermometer < bit slicing for ≥ 2 bits: {tc_wins}");
    println!("  bit-slicing variance flattens near σ²/3: {bs_floor}");

    Ok(vec![Artifact::csv(
        "fig1b.csv",
        &[
            "bits",
            "bs_pulses",
            "bs_variance",
            "tc_pulses",
            "tc_variance",
            "bs_monte_carlo",
            "tc_monte_carlo",
        ],
        &rows,
    )])
}
