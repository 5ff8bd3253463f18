//! Fig. 2: layer-wise noise sensitivity — Gaussian noise injected at one
//! crossbar layer at a time, accuracy per target layer.

use membit_core::{layer_sensitivity, Experiment};

use crate::{chart, Artifact, Opts, Result};

/// Writes `fig2.csv`.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let clean = exp.eval_clean()?;
    println!("clean accuracy: {clean:.2}%");
    println!("Fig. 2 — accuracy with N(0, σ²) injected at one layer only");
    let repeats = exp.config().eval_repeats;
    let batch = exp.config().eval_batch;
    let test = exp.test_set().clone();

    let mut rows = Vec::new();
    for sigma in [10.0f32, 15.0, 20.0] {
        let sigma_abs = exp.calibration().sigma_abs(sigma);
        let (vgg, p) = exp.model_mut();
        let series = layer_sensitivity(vgg, p, &test, &sigma_abs, batch, repeats, opts.seed)?;
        for (layer, &acc) in series.iter().enumerate() {
            rows.push(vec![
                format!("{sigma}"),
                layer.to_string(),
                format!("{:.2}", acc * 100.0),
            ]);
        }
        let bars: Vec<(String, f64)> = series
            .iter()
            .enumerate()
            .map(|(l, &a)| (format!("layer {l}"), f64::from(a) * 100.0))
            .collect();
        println!("σ = {sigma}:");
        print!("{}", chart::bar_chart(&bars, 40));
        // qualitative check: sensitivities differ across layers
        let min = series.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = series.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        println!(
            "        spread: {:.1} points (non-uniform sensitivity: {})",
            (max - min) * 100.0,
            max - min > 0.01
        );
    }

    Ok(vec![Artifact::csv(
        "fig2.csv",
        &["sigma", "target_layer", "accuracy_pct"],
        &rows,
    )])
}
