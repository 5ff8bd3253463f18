//! Ablation G (extension beyond the paper): checksum-guarded execution.
//!
//! Two sections:
//!
//! 1. **Fault recovery** — deploys the same trained network three ways
//!    (`clean`: no faults; `unguarded`: 1% transient stuck-at faults
//!    injected mid-inference; `guarded`: the same faults under the ABFT
//!    checksum guard with its retry → refresh → remap → fallback ladder)
//!    and measures how much of the fault-induced accuracy gap the guard
//!    recovers, plus the false-positive escalation rate of the guarded
//!    arm at fault rate 0.
//! 2. **Overhead sweep** — times guarded vs plain execution on a
//!    standalone engine across a σ sweep (median-of-N) and records the
//!    retry rate and the extra ADC conversions and cell reads the
//!    checksum column costs. On a single-core host the numbers are about
//!    bounded overhead, never speedup.
//!
//! Writes `ablation_guard.csv` (accuracy rows) and `BENCH_guard.json`
//! (both sections).

use std::time::Instant;

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg, Experiment, GuardAblationRow};
use membit_encoding::{BitEncoder, Thermometer};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{CrossbarLinear, ExecOptions, GuardPolicy, XbarConfig};

use super::{median, random_pm1};
use crate::{gap_recovery_pct, test_subset, Artifact, Opts, Result, Scale};

/// Transient per-cell stuck-at rate injected mid-inference.
const FAULT_RATE: f32 = 0.01;
/// Functional noise level of the deployment in the recovery section.
const SIGMA: f32 = 0.1;

/// The evaluation subset of a scale.
///
/// # Errors
///
/// Propagates dataset construction errors.
pub fn eval_subset(exp: &Experiment, scale: Scale) -> Result<membit_data::Dataset> {
    test_subset(exp, scale.pick(40, 100, 200))
}

/// Section 1: the `clean`, `clean+guard`, `unguarded` and `guarded`
/// arms, in that order.
///
/// # Errors
///
/// Propagates deployment and evaluation errors.
pub fn recovery_arms(opts: &Opts, exp: &Experiment) -> Result<[GuardAblationRow; 4]> {
    let batch = 20usize;
    let subset = eval_subset(exp, opts.scale)?;
    let (warm_images, _) = subset.batch(0, batch.min(subset.len()))?;
    let (vgg, params) = exp.model();
    println!(
        "guarded-execution ablation ({} images, σ = {SIGMA}, {:.1}% transient stuck cells \
         injected mid-inference)",
        subset.len(),
        FAULT_RATE * 100.0
    );
    // one evaluation arm: deploy, run one warm batch, inject `rate`
    // faults mid-inference, evaluate the subset
    let arm = |label: &str, rate: f32, guard: Option<GuardPolicy>| -> Result<GuardAblationRow> {
        let mut xbar = XbarConfig::functional(SIGMA);
        if let Some(policy) = guard {
            xbar = xbar.with_guard(policy);
        }
        // the guard never consumes programming RNG (arming is a pure
        // snapshot), so every arm deploys bitwise-identical hardware and
        // injects the identical fault set from the same seeded stream
        let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Device);
        let mut device = DeviceVgg::deploy(
            vgg,
            params,
            &DeviceEvalConfig {
                xbar,
                pulses: vec![8; 7],
                act_levels: 9,
                policy: DeploymentPolicy::default(),
            },
            &mut rng,
        )?;
        device.forward(&warm_images, &mut rng)?; // mid-inference context
        if rate > 0.0 {
            device.inject_faults(rate, &mut rng)?;
        }
        let (acc, stats) = device.evaluate(&subset, batch, &mut rng)?;
        Ok(GuardAblationRow::from_stats(
            label,
            rate,
            SIGMA,
            acc * 100.0,
            &stats.guard,
        ))
    };
    Ok([
        arm("clean", 0.0, None)?,
        arm("clean+guard", 0.0, Some(GuardPolicy::standard()))?,
        arm("unguarded", FAULT_RATE, None)?,
        arm("guarded", FAULT_RATE, Some(GuardPolicy::standard()))?,
    ])
}

/// Writes `ablation_guard.csv` and `BENCH_guard.json`.
///
/// # Errors
///
/// Propagates deployment, evaluation and engine errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let smoke = opts.scale == Scale::Smoke;
    let arms = recovery_arms(opts, exp)?;
    let [clean, clean_guarded, unguarded, guarded] = &arms;
    let recovery_pct = gap_recovery_pct(clean.accuracy, unguarded.accuracy, guarded.accuracy);
    let escalations =
        clean_guarded.tile_refreshes + clean_guarded.tile_remaps + clean_guarded.fallbacks;
    let fp_escalation_rate = escalations as f64 / clean_guarded.checks.max(1) as f64;

    // Section 2: overhead sweep on a standalone engine
    let repeats = if smoke { 1 } else { 5 };
    let sigmas: &[f32] = if smoke { &[0.1] } else { &[0.05, 0.1, 0.2] };
    let (out_features, in_features, obatch, pulses, tile) = if smoke {
        (32, 64, 8, 4, 16)
    } else {
        (64, 128, 16, 8, 32)
    };
    let w = random_pm1(&[out_features, in_features], opts.seed ^ 11);
    let x = random_pm1(&[obatch, in_features], opts.seed ^ 12);
    let train = Thermometer::new(pulses)?.encode_tensor(&x)?;
    println!(
        "guard overhead sweep ({out_features}×{in_features}, tile {tile}, batch {obatch}, \
         {pulses} pulses, median of {repeats} repeat(s))"
    );

    let mut sweep_json = Vec::new();
    for &sigma in sigmas {
        let mut cfg = XbarConfig::functional(sigma);
        cfg.tile_rows = tile;
        cfg.tile_cols = tile;
        // an ADC makes the per-check conversion accounting observable
        cfg.adc_bits = Some(8);
        cfg.exec = ExecOptions::serial();
        let mut prng = Rng::from_seed(opts.seed ^ 13).stream(RngStream::Device);
        let plain = CrossbarLinear::program(&w, &cfg, &mut prng)?;
        let gcfg = cfg.with_guard(GuardPolicy::standard());
        let mut prng = Rng::from_seed(opts.seed ^ 13).stream(RngStream::Device);
        let mut armed = CrossbarLinear::program(&w, &gcfg, &mut prng)?;

        let mut time_plain = Vec::with_capacity(repeats);
        let mut time_guarded = Vec::with_capacity(repeats);
        let mut stats = None;
        for _ in 0..=repeats {
            // one warmup iteration (index 0) then timed repeats, each
            // from the same reseeded noise stream
            let mut xrng = Rng::from_seed(opts.seed ^ 14).stream(RngStream::Noise);
            let t = Instant::now();
            let (_, ps) = plain.execute_with_stats(&train, &mut xrng)?;
            time_plain.push(t.elapsed().as_secs_f64() * 1e3);

            let mut xrng = Rng::from_seed(opts.seed ^ 14).stream(RngStream::Noise);
            let t = Instant::now();
            let (_, gs) = armed.execute_guarded(&train, &mut xrng)?;
            time_guarded.push(t.elapsed().as_secs_f64() * 1e3);
            stats = Some((ps, gs));
        }
        time_plain.remove(0);
        time_guarded.remove(0);
        let (ps, gs) = stats.ok_or("no executions")?;

        let extra_adc = gs.adc_conversions - ps.adc_conversions;
        let extra_reads = gs.cell_reads - ps.cell_reads;
        let plain_ms = median(time_plain);
        let guarded_ms = median(time_guarded);
        let overhead = guarded_ms / plain_ms;
        let retry_rate = gs.guard.retries as f64 / gs.guard.checks as f64;
        let extra_adc_pct = 100.0 * extra_adc as f64 / ps.adc_conversions as f64;
        sweep_json.push(format!(
            "{{\"sigma\": {sigma}, \"plain_ms\": {plain_ms:.3}, \
             \"guarded_ms\": {guarded_ms:.3}, \"overhead\": {overhead:.3}, \
             \"checks\": {}, \"violations\": {}, \"retries\": {}, \
             \"retry_rate\": {retry_rate:.6}, \"extra_adc_pct\": {extra_adc_pct:.2}, \
             \"extra_cell_read_pct\": {:.2}}}",
            gs.guard.checks,
            gs.guard.violations,
            gs.guard.retries,
            100.0 * extra_reads as f64 / ps.cell_reads as f64,
        ));
    }

    let records: Vec<Vec<String>> = arms.iter().map(GuardAblationRow::to_record).collect();
    let json = format!(
        "{{\"bench\": \"guard\", \"smoke\": {smoke}, \"seed\": {}, \"repeats\": {repeats}, \
         \"warmup\": 1, \"timing\": \"median over repeats after one warmup execute\", \
         \"policy\": \"GuardPolicy::standard (z = 6)\", \
         \"note\": \"single-core host: assertions cover determinism and overhead bounds, not speedup\", \
         \"accuracy\": {{\"clean\": {:.2}, \"clean_guarded\": {:.2}, \"unguarded\": {:.2}, \
         \"guarded\": {:.2}, \"fault_rate\": {FAULT_RATE}, \"sigma\": {SIGMA}, \
         \"gap_recovery_pct\": {recovery_pct:.1}, \
         \"false_positive_escalation_rate\": {fp_escalation_rate:.6}}}, \
         \"overhead_sweep\": [{}]}}",
        opts.seed,
        clean.accuracy,
        clean_guarded.accuracy,
        unguarded.accuracy,
        guarded.accuracy,
        sweep_json.join(", ")
    );
    Ok(vec![
        Artifact::csv(
            "ablation_guard.csv",
            &GuardAblationRow::CSV_HEADER,
            &records,
        ),
        Artifact::json("BENCH_guard.json", json),
    ])
}
