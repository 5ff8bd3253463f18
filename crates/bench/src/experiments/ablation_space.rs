//! Ablation B: search-space granularity.
//!
//! The paper motivates PLA by arguing that ensemble-only (integer) pulse
//! scaling `{8, 16, 24, …}` is too coarse and yields sub-optimal
//! latency/accuracy trade-offs. This ablation runs GBO over the coarse
//! integer-ensemble space and over the PLA-enabled fine grid at matched
//! γ, comparing the (avg pulses, accuracy) operating points: the fine
//! grid reaches intermediate budgets (e.g. 10–14 avg pulses) the coarse
//! space cannot express.

use membit_core::{Experiment, GboConfig};

use crate::{search_epochs, Artifact, Opts, Result};

/// Paper-σ of the comparison.
const SIGMA: f32 = 15.0;

/// Writes `ablation_space.csv`.
///
/// # Errors
///
/// Propagates search and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    println!("search-space granularity at σ = {SIGMA}");
    let spaces: [(&str, Vec<f32>); 2] = [
        ("ensemble (coarse)", vec![1.0, 2.0, 3.0]),
        (
            "PLA grid (fine)",
            vec![0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
        ),
    ];
    let mut rows = Vec::new();
    for (name, omega) in &spaces {
        for gamma in [2e-4f32, 1e-3, 5e-3] {
            let mut cfg = GboConfig::paper(gamma, opts.seed);
            cfg.omega = omega.clone();
            cfg.epochs = search_epochs(opts.scale);
            let result = exp.run_gbo(SIGMA, cfg)?;
            let acc = exp.eval_pla(SIGMA, &result.selected_pulses)?;
            rows.push(vec![
                name.to_string(),
                format!("{gamma}"),
                format!("{:.2}", result.avg_pulses()),
                format!("{:?}", result.selected_pulses),
                format!("{acc:.2}"),
            ]);
        }
    }
    Ok(vec![Artifact::csv(
        "ablation_space.csv",
        &["space", "gamma", "avg_pulses", "pulses", "accuracy_pct"],
        &rows,
    )])
}
