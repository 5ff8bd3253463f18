//! Ablation F (extension beyond the paper): fault-aware deployment.
//!
//! Sweeps the stuck-cell rate of the device model and deploys the same
//! trained network under three policies — no recovery, march-test +
//! remap, and remap + in-service drift refresh — measuring accuracy and
//! the recovery statistics at each point. The arrays are aged after
//! programming so the refresh arm has drift to repair on top of the
//! manufacturing faults.
//!
//! Expected shape: accuracy of the unprotected deployment collapses as
//! stuck cells accumulate; remapping recovers most of the loss while
//! faults are sparse enough for spares/flips to absorb; refresh adds the
//! retention-drift headroom back on top.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg, Experiment, FaultAblationRow};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{HealthMonitor, RecoveryPolicy, XbarConfig};

use crate::{gap_recovery_pct, test_subset, Artifact, Opts, Result};

/// Hours of retention drift applied between programming and evaluation.
/// Chosen for a mean conductance decay of ≈10% — enough that the refresh
/// arm has real drift to repair, mild enough that the unprotected arm
/// starts from healthy accuracy and the stuck-fault gradient is visible.
const AGE_HOURS: f32 = 200.0;
const NU: f32 = 0.02;
const NU_SIGMA: f32 = 0.005;

fn policy_for(label: &str, batch: u64) -> DeploymentPolicy {
    match label {
        "none" => DeploymentPolicy::default(),
        "remap" => DeploymentPolicy {
            recovery: Some(RecoveryPolicy::standard()),
            monitor: None,
        },
        "remap+refresh" => DeploymentPolicy {
            recovery: Some(RecoveryPolicy::standard()),
            monitor: Some(HealthMonitor {
                check_interval: batch,
                // fire on the ≈10% decay this sweep applies
                decay_threshold: 0.05,
                ..HealthMonitor::standard()
            }),
        },
        other => unreachable!("unknown policy label {other}"),
    }
}

/// Writes `ablation_fault.csv`.
///
/// # Errors
///
/// Propagates deployment and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let batch = 20usize;
    let subset = test_subset(exp, opts.scale.pick(100, 100, 200))?;
    let (vgg, params) = exp.model();
    println!(
        "fault-aware deployment ablation ({} images, {AGE_HOURS} h drift, \
         stuck rate applied per polarity)",
        subset.len()
    );

    let mut rows: Vec<FaultAblationRow> = Vec::new();
    for rate in [0.0f32, 0.005, 0.01, 0.02, 0.05] {
        let mut xbar = XbarConfig::ideal();
        xbar.noise.device.on_off_ratio = 20.0;
        xbar.noise.device.d2d_sigma = 0.05;
        xbar.noise.device.c2c_sigma = 0.02;
        xbar.noise.device.stuck_on_rate = rate;
        xbar.noise.device.stuck_off_rate = rate;
        for policy in ["none", "remap", "remap+refresh"] {
            let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Device);
            let mut device = DeviceVgg::deploy(
                vgg,
                params,
                &DeviceEvalConfig {
                    xbar,
                    pulses: vec![8; 7],
                    act_levels: 9,
                    policy: policy_for(policy, batch as u64),
                },
                &mut rng,
            )?;
            device.age(AGE_HOURS, NU, NU_SIGMA, &mut rng);
            let (acc, stats) = device.evaluate(&subset, batch, &mut rng)?;
            let report = device.recovery_report();
            rows.push(FaultAblationRow {
                policy: policy.to_string(),
                stuck_rate: rate,
                accuracy: acc * 100.0,
                faults_detected: report.faults_detected,
                cells_recovered: report.cells_recovered,
                unrecoverable_cells: stats.unrecoverable_cells,
                degraded_tiles: stats.degraded_tiles,
                refreshes: stats.refreshes,
            });
        }
    }

    // at 1% stuck, remap+refresh should claw back at least half the
    // accuracy the unprotected deployment loses to its fault-free point
    let acc = |policy: &str, rate: f32| {
        rows.iter()
            .find(|r| r.policy == policy && (r.stuck_rate - rate).abs() < 1e-9)
            .map(|r| r.accuracy)
            .unwrap_or(f32::NAN)
    };
    let (clean, faulty, protected) = (
        acc("none", 0.0),
        acc("none", 0.01),
        acc("remap+refresh", 0.01),
    );
    let recovered = gap_recovery_pct(clean, faulty, protected);
    println!(
        "at 1% stuck: unprotected loses {:.1} pts, remap+refresh recovers {:.1} pts \
         ({recovered:.0}% of the loss; target ≥ 50%)",
        clean - faulty,
        protected - faulty
    );

    let records: Vec<Vec<String>> = rows.iter().map(FaultAblationRow::to_record).collect();
    Ok(vec![Artifact::csv(
        "ablation_fault.csv",
        &FaultAblationRow::CSV_HEADER,
        &records,
    )])
}
