//! Ablation A: sweep of the latency/accuracy trade-off weight γ (Eq. 6).
//!
//! The paper states that different γ produce different latency budgets
//! ("we can obtain different bit encoding solution based on trade-off
//! parameter γ"); this sweep makes the trade-off curve explicit and is
//! how the γ sweeps of `table1`/`table2` were picked.

use membit_core::{Experiment, GboConfig};

use crate::{search_epochs, Artifact, Opts, Result};

/// Paper-σ of the sweep.
const SIGMA: f32 = 15.0;

/// Writes `ablation_gamma.csv`.
///
/// # Errors
///
/// Propagates search and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    println!("γ sweep at σ = {SIGMA}");
    let mut rows = Vec::new();
    let mut prev_pulses = f32::INFINITY;
    let mut monotone = true;
    for gamma in [0.0f32, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2] {
        let mut cfg = GboConfig::paper(gamma, opts.seed);
        cfg.epochs = search_epochs(opts.scale);
        let result = exp.run_gbo(SIGMA, cfg)?;
        let acc = exp.eval_pla(SIGMA, &result.selected_pulses)?;
        if result.avg_pulses() > prev_pulses + 2.0 {
            monotone = false;
        }
        prev_pulses = result.avg_pulses();
        rows.push(vec![
            format!("{gamma}"),
            format!("{:.2}", result.avg_pulses()),
            format!("{:?}", result.selected_pulses),
            format!("{acc:.2}"),
        ]);
    }
    println!("larger γ buys shorter codes (roughly monotone): {monotone}");
    Ok(vec![Artifact::csv(
        "ablation_gamma.csv",
        &["gamma", "avg_pulses", "pulses", "accuracy_pct"],
        &rows,
    )])
}
