//! Ablation N (extension beyond the paper): physical non-idealities.
//!
//! Deploys the same trained network into a scenario × mitigation matrix:
//!
//! * **Scenarios** — `baseline` (nominal conditions), `ir_drop`
//!   (resistive wire network, [`NonIdealitySpec::realistic`]), `hot`
//!   (370 K operation: `√(T/T_REF)`-scaled noise, shrunken on/off
//!   ratio), `saf` (persistent stuck-at faults injected post-deploy),
//!   and `combined` (all three at once).
//! * **Mitigations** — `none` (bare deployment), `guard` (the ABFT
//!   checksum ladder), and `full` (guard + march-test/remap with the
//!   SAF error-correction arm, [`RecoveryPolicy::with_ecc`]).
//!
//! It measures how much of the SAF-induced accuracy gap the full stack
//! recovers and how often the guard escalates on fault-free scenarios.
//! A second section quantifies how a GBO-style heterogeneous pulse
//! assignment holds up under IR drop and a temperature sweep relative to
//! the uniform 8-pulse baseline.
//!
//! Writes `ablation_nonideal.csv` (matrix + sweep rows) and
//! `BENCH_nonideal.json`.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg, Experiment, NonIdealAblationRow};
use membit_data::Dataset;
use membit_tensor::{Rng, RngStream};
use membit_xbar::{ExecOptions, GuardPolicy, NonIdealitySpec, RecoveryPolicy, XbarConfig, T_REF};

use crate::{gap_recovery_pct, test_subset, Artifact, Opts, Result, Scale};

/// Functional noise level of every deployment.
const SIGMA: f32 = 0.1;
/// Persistent per-cell stuck-at rate of the SAF scenarios — high enough
/// to open a visible accuracy gap for the mitigation stack to close.
const SAF_RATE: f32 = 0.05;
/// Hot-corner operating temperature in kelvin.
const T_HOT: f32 = 370.0;
/// Evaluation batch size; the warm batch is the subset's first batch.
pub const BATCH: usize = 10;

/// One scenario of the matrix: a non-ideality spec plus whether the SAF
/// burst is injected after deployment.
#[derive(Debug)]
pub struct Scenario {
    /// Row label.
    pub label: String,
    /// Physical non-idealities of the crossbars.
    pub nonideal: NonIdealitySpec,
    /// Whether stuck-at faults are injected after deployment.
    pub saf: bool,
}

impl Scenario {
    fn new(label: impl Into<String>, nonideal: NonIdealitySpec, saf: bool) -> Self {
        Self {
            label: label.into(),
            nonideal,
            saf,
        }
    }
}

/// The scenarios of the matrix.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new("baseline", NonIdealitySpec::ideal(), false),
        Scenario::new("ir_drop", NonIdealitySpec::realistic(), false),
        Scenario::new("hot", NonIdealitySpec::ideal().at_temperature(T_HOT), false),
        Scenario::new("saf", NonIdealitySpec::ideal(), true),
        Scenario::new(
            "combined",
            NonIdealitySpec::realistic().at_temperature(T_HOT),
            true,
        ),
    ]
}

/// Builds one deployment of the matrix: configure, deploy, inject the
/// scenario's faults, and repair them under the `full` mitigation.
/// Returns the device and the number of cells the repair pass corrected.
///
/// # Errors
///
/// Propagates deployment and repair errors.
pub fn deploy(
    exp: &Experiment,
    scenario: &Scenario,
    mitigation: &str,
    pulses: &[usize],
    exec: ExecOptions,
    rng: &mut Rng,
) -> Result<(DeviceVgg, u64)> {
    let mut xbar = XbarConfig::functional(SIGMA).with_nonideal(scenario.nonideal);
    xbar.exec = exec;
    match mitigation {
        "none" | "uniform" | "gbo" => {}
        "guard" => xbar = xbar.with_guard(GuardPolicy::standard()),
        "full" => {
            let mut policy = GuardPolicy::standard();
            policy.remap = RecoveryPolicy::with_ecc();
            xbar = xbar.with_guard(policy);
        }
        other => unreachable!("unknown mitigation {other}"),
    }
    let (vgg, params) = exp.model();
    let mut device = DeviceVgg::deploy(
        vgg,
        params,
        &DeviceEvalConfig {
            xbar,
            pulses: pulses.to_vec(),
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        },
        rng,
    )?;
    let mut cells_corrected = 0;
    if scenario.saf {
        device.inject_stuck_faults(SAF_RATE, rng)?;
        if mitigation == "full" {
            // proactive repair pass: march test, analog remap, and
            // digital SAF correction entries for the residue
            let report = device.remap_all(&RecoveryPolicy::with_ecc(), rng)?;
            cells_corrected = report.cells_corrected;
        }
    }
    Ok((device, cells_corrected))
}

/// The evaluation subset of a scale.
///
/// # Errors
///
/// Propagates dataset construction errors.
pub fn eval_subset(exp: &Experiment, scale: Scale) -> Result<Dataset> {
    test_subset(exp, scale.pick(20, 100, 200))
}

/// Uniform 8-pulse encoding of the matrix and the sweep's baseline.
const UNIFORM: [usize; 7] = [8; 7];

/// One full evaluation arm: every arm deploys from the same seeded
/// stream, so hardware and fault sets are identical across the
/// mitigations of one scenario.
fn arm(
    opts: &Opts,
    exp: &Experiment,
    subset: &Dataset,
    scenario: &Scenario,
    mitigation: &str,
    pulses: &[usize],
) -> Result<NonIdealAblationRow> {
    let (warm_images, _) = subset.batch(0, BATCH.min(subset.len()))?;
    let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Device);
    let (mut device, cells_corrected) = deploy(
        exp,
        scenario,
        mitigation,
        pulses,
        opts.exec_options(),
        &mut rng,
    )?;
    device.forward(&warm_images, &mut rng)?; // mid-inference context
    let (acc, stats) = device.evaluate(subset, BATCH, &mut rng)?;
    Ok(NonIdealAblationRow::from_stats(
        scenario.label.clone(),
        mitigation,
        scenario.nonideal.temperature,
        acc * 100.0,
        &stats,
        cells_corrected,
    ))
}

/// Section 1: every scenario under the `none`, `guard` and `full`
/// mitigations, scenario-major.
///
/// # Errors
///
/// Propagates deployment and evaluation errors.
pub fn matrix(opts: &Opts, exp: &Experiment) -> Result<Vec<NonIdealAblationRow>> {
    let subset = eval_subset(exp, opts.scale)?;
    println!(
        "non-ideality ablation ({} images, σ = {SIGMA}, SAF rate {:.1}%, hot corner {T_HOT} K)",
        subset.len(),
        SAF_RATE * 100.0
    );
    let mut rows = Vec::new();
    for scenario in &scenarios() {
        for mitigation in ["none", "guard", "full"] {
            rows.push(arm(opts, exp, &subset, scenario, mitigation, &UNIFORM)?);
        }
    }
    Ok(rows)
}

/// Writes `ablation_nonideal.csv` and `BENCH_nonideal.json`.
///
/// # Errors
///
/// Propagates deployment and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let mut rows = matrix(opts, exp)?;
    let accuracy = |scenario: &str, mitigation: &str| {
        rows.iter()
            .find(|r| r.scenario == scenario && r.mitigation == mitigation)
            .map_or(f32::NAN, |r| r.accuracy)
    };
    let baseline = accuracy("baseline", "none");
    let saf_none = accuracy("saf", "none");
    let saf_full = accuracy("saf", "full");
    let recovery_pct = gap_recovery_pct(baseline, saf_none, saf_full);

    // Section 2: GBO robustness under IR drop and a temperature sweep
    // a GBO-style heterogeneous assignment: more pulses where the
    // layer-sensitivity analysis puts them (early layers), fewer late —
    // same spirit as the paper's Table I solutions, fixed here so the
    // sweep isolates the encoding variable
    let gbo_pulses = [14usize, 12, 10, 8, 8, 6, 6];
    let subset = eval_subset(exp, opts.scale)?;
    let temps: &[f32] = if opts.scale == Scale::Smoke {
        &[T_REF, T_HOT]
    } else {
        &[T_REF, 340.0, T_HOT]
    };
    let mut conditions: Vec<(String, NonIdealitySpec)> =
        vec![("ir_drop_sweep".into(), NonIdealitySpec::realistic())];
    for &t in temps {
        conditions.push((
            format!("temp_{t:.0}K"),
            NonIdealitySpec::ideal().at_temperature(t),
        ));
    }
    let mut sweep_json = Vec::new();
    for (label, spec) in conditions {
        let scenario = Scenario::new(label.clone(), spec, false);
        let uni = arm(opts, exp, &subset, &scenario, "uniform", &UNIFORM)?;
        let gbo = arm(opts, exp, &subset, &scenario, "gbo", &gbo_pulses)?;
        sweep_json.push(format!(
            "{{\"condition\": \"{label}\", \"uniform_acc\": {:.2}, \"gbo_acc\": {:.2}}}",
            uni.accuracy, gbo.accuracy
        ));
        rows.push(uni);
        rows.push(gbo);
    }

    let records: Vec<Vec<String>> = rows.iter().map(|r| r.to_record()).collect();
    let json = format!(
        "{{\"bench\": \"nonideal\", \"smoke\": {}, \"seed\": {}, \
         \"sigma\": {SIGMA}, \"saf_rate\": {SAF_RATE}, \"t_hot_k\": {T_HOT}, \
         \"accuracy\": {{\"baseline\": {baseline:.2}, \"saf_none\": {saf_none:.2}, \
         \"saf_full\": {saf_full:.2}, \"gap_recovery_pct\": {recovery_pct:.1}}}, \
         \"gbo_sweep\": [{}]}}",
        opts.scale == Scale::Smoke,
        opts.seed,
        sweep_json.join(", ")
    );
    Ok(vec![
        Artifact::csv(
            "ablation_nonideal.csv",
            &NonIdealAblationRow::CSV_HEADER,
            &records,
        ),
        Artifact::json("BENCH_nonideal.json", json),
    ])
}
