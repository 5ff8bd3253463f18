//! Ablation D (extension beyond the paper): snap-error-aware GBO.
//!
//! The paper's Eq. 5 mixture models only the Gaussian crossbar noise, so
//! the search cannot see that non-exact pulse budgets (10, 12, 14 on a
//! p = 8 base) also pay a PLA representation error at deployment. With
//! `snap_error_fan_in` set, each branch's variance gains the analytic
//! `fan_in · MSE(q_k)` term; this ablation compares default vs
//! snap-aware searches at matched γ. The snap-aware search should steer
//! layers toward exact budgets (8, 16) when the representation error
//! outweighs noise suppression.

use membit_core::{Experiment, GboConfig};

use crate::{search_epochs, Artifact, Opts, Result};

/// Paper-σ of the comparison.
const SIGMA: f32 = 15.0;

/// Writes `ablation_snap.csv`.
///
/// # Errors
///
/// Propagates search and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    println!("snap-error-aware GBO vs paper-faithful GBO at σ = {SIGMA}");
    let fan_ins = exp.model().0.crossbar_fan_ins();
    let mut rows = Vec::new();
    for gamma in [2e-4f32, 1e-3, 5e-3] {
        for (name, aware) in [("paper", false), ("snap-aware", true)] {
            let mut cfg = GboConfig::paper(gamma, opts.seed);
            cfg.epochs = search_epochs(opts.scale);
            if aware {
                cfg.snap_error_fan_in = Some(fan_ins.clone());
            }
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
        "ablation_snap.csv",
        &["search", "gamma", "avg_pulses", "pulses", "accuracy_pct"],
        &rows,
    )])
}
