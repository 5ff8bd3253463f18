//! MemSE analytic-vs-Monte-Carlo benchmark (EXPERIMENTS §K).
//!
//! Sections:
//!
//! 1. **Validation** — per (hardware config, encoding) cell, whether the
//!    analytic fluctuating logit MSE of [`MemseNetwork`] lands inside
//!    the paired-Monte-Carlo confidence band measured on the deployed
//!    [`DeviceVgg`] (paired runs cancel persistent error, so the
//!    fluctuating walk is the comparable quantity).
//! 2. **Search speedup** — wall clock of the Monte-Carlo GBO λ-search
//!    (Eq. 5/6, Adam over epochs) vs the analytic scorer
//!    ([`GboTrainer::search_analytic`]: one-time capture + coordinate
//!    descent).
//! 3. **Fidelity** — both selections evaluated with the functional
//!    noise model; the analytic pick should not trail MC's.
//! 4. **Per-tile allocation** — refine the uniform selection per column
//!    tile group ([`MemseNetwork::tile_allocation`]) and report the
//!    energy/latency headroom.
//! 5. **Reconfiguration** — swap encodings on the live deployment
//!    between batches ([`DeviceVgg::reconfigure_encoding`]) and time
//!    the swap.
//!
//! The smoke size is a tiny probe, fewer repeats and one MC epoch, with
//! relaxed floors. Writes `BENCH_memse.json`.

use std::time::Instant;

use membit_core::{
    AnalyticSelection, DeploymentPolicy, DeviceEvalConfig, DeviceVgg, Experiment, GboConfig,
    GboResult, GboTrainer, MemseNetwork, TileAllocation,
};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::XbarConfig;

use super::mean_sigma_abs;
use crate::{search_epochs, Artifact, Opts, Result, Scale};

/// Paper-σ of every section.
const SIGMA: f32 = 15.0;
/// Latency weight γ of the searches.
const GAMMA: f32 = 1e-3;
/// Band of the validation cells: `max(Z·SE, EPS_REL·mean)` — sampling
/// noise or the walk's moment-approximation tolerance, whichever
/// dominates.
const Z: f64 = 4.0;
const EPS_REL: f64 = 0.3;

/// One validation cell: analytic fluctuating MSE vs paired MC.
#[derive(Debug)]
pub struct ValidationCell {
    /// Hardware configuration name.
    pub config: &'static str,
    /// Uniform pulse count of the cell.
    pub pulses: usize,
    /// Analytic fluctuating logit MSE.
    pub analytic: f64,
    /// Paired-MC mean.
    pub mc_mean: f64,
    /// Standard error of `mc_mean`.
    pub mc_se: f64,
    /// Confidence band half-width.
    pub band: f64,
    /// Whether `|analytic − mc_mean| ≤ band`.
    pub within: bool,
}

/// Everything the benchmark measures.
#[derive(Debug)]
pub struct Report {
    /// Probe batch size of the validation and tile sections.
    pub probe_n: usize,
    /// MC runs per validation cell.
    pub repeats: usize,
    /// Section 1: the validation cells.
    pub cells: Vec<ValidationCell>,
    /// Section 2: the MC-scored search.
    pub mc: GboResult,
    /// MC search epochs.
    pub mc_epochs: usize,
    /// MC search wall clock (s).
    pub mc_secs: f64,
    /// Section 2: the analytic-scored search.
    pub analytic: GboResult,
    /// One-time capture wall clock (s).
    pub capture_secs: f64,
    /// Analytic search wall clock (s).
    pub analytic_search_secs: f64,
    /// Candidate encodings the analytic search scored.
    pub analytic_evaluations: usize,
    /// Section 3: accuracy (%) of the MC selection.
    pub acc_mc: f32,
    /// Accuracy (%) of the analytic selection.
    pub acc_analytic: f32,
    /// Section 4: column groups per crossbar operator.
    pub column_groups: Vec<usize>,
    /// Uniform analytic selection on the narrow-tile deployment.
    pub uniform: AnalyticSelection,
    /// Its per-tile refinement.
    pub tiled: TileAllocation,
    /// Section 5: encoding swaps.
    pub swaps: usize,
    /// Mean wall clock of one swap (µs).
    pub reconfigure_us: f64,
}

impl Report {
    /// How many times faster the analytic search (capture included) ran
    /// than the MC search.
    pub fn speedup(&self) -> f64 {
        self.mc_secs / (self.capture_secs + self.analytic_search_secs)
    }

    /// Accuracy points the analytic selection lost against the MC one
    /// (negative when it won).
    pub fn fidelity_gap(&self) -> f32 {
        self.acc_mc - self.acc_analytic
    }
}

/// The smallest speedup of the analytic search over MC the benchmark
/// expects at `scale` (`proptest_memse` holds the smoke one).
fn speedup_floor(scale: Scale) -> f64 {
    scale.pick(10.0, 100.0, 100.0)
}

/// The largest accuracy loss (pp) of the analytic selection against the
/// MC one the benchmark accepts at `scale`.
pub fn fidelity_floor(scale: Scale) -> f32 {
    scale.pick(2.0, 0.5, 0.5)
}

fn deploy(
    exp: &Experiment,
    xbar: XbarConfig,
    pulses: Vec<usize>,
    rng: &mut Rng,
) -> Result<DeviceVgg> {
    let (vgg, params) = exp.model();
    let cfg = DeviceEvalConfig {
        xbar,
        pulses,
        act_levels: 9,
        policy: DeploymentPolicy::default(),
    };
    Ok(DeviceVgg::deploy(vgg, params, &cfg, rng)?)
}

fn probe_batch(exp: &Experiment, n: usize) -> Result<Tensor> {
    let (batch, _) = exp.test_set().batch(0, n)?;
    Ok(Tensor::from_vec(batch.as_slice().to_vec(), batch.shape())?)
}

/// Analytic fluctuating MSE vs paired MC on both hardware configs.
fn validate(
    opts: &Opts,
    exp: &Experiment,
    probe: &Tensor,
    repeats: usize,
) -> Result<Vec<ValidationCell>> {
    let sigma_mean = mean_sigma_abs(exp, SIGMA);
    let layers = exp.model().0.crossbar_layers();
    let probe_n = probe.shape()[0];
    let pulse_grid: &[usize] = if opts.scale == Scale::Smoke {
        &[4, 16]
    } else {
        &[4, 8, 16]
    };
    let mut cells = Vec::new();
    for (config, mut xbar) in [
        ("functional", XbarConfig::functional(sigma_mean)),
        (
            "realistic (ADC+variation)",
            XbarConfig::realistic(sigma_mean),
        ),
    ] {
        xbar.exec = opts.exec_options();
        let mut rng = Rng::from_seed(opts.seed).stream(RngStream::Device);
        let mut device = deploy(exp, xbar, vec![8; layers], &mut rng)?;
        let net = MemseNetwork::from_device(&device, probe)?;
        for &q in pulse_grid {
            let pulses = vec![q; layers];
            // the fast-path hook under test: swap encodings in place
            device.reconfigure_encoding(&pulses)?;
            let analytic = f64::from(net.fluctuating_mse(&pulses)?);
            // paired MC: E‖y_a − y_b‖²/2 over disjoint run pairs
            let mut runs: Vec<Vec<f32>> = Vec::with_capacity(repeats);
            for _ in 0..repeats {
                let (y, _) = device.forward(probe, &mut rng)?;
                runs.push(y.as_slice().to_vec());
            }
            let pair_estimates: Vec<f64> = runs
                .chunks_exact(2)
                .map(|pair| {
                    let d2: f64 = pair[0]
                        .iter()
                        .zip(&pair[1])
                        .map(|(a, b)| f64::from(a - b) * f64::from(a - b))
                        .sum();
                    d2 / 2.0 / probe_n as f64
                })
                .collect();
            let npairs = pair_estimates.len() as f64;
            let mc_mean = pair_estimates.iter().sum::<f64>() / npairs;
            let mc_var = pair_estimates
                .iter()
                .map(|e| (e - mc_mean) * (e - mc_mean))
                .sum::<f64>()
                / (npairs - 1.0);
            let mc_se = (mc_var / npairs).sqrt();
            let band = (Z * mc_se).max(EPS_REL * mc_mean);
            cells.push(ValidationCell {
                config,
                pulses: q,
                analytic,
                mc_mean,
                mc_se,
                band,
                within: (analytic - mc_mean).abs() <= band,
            });
        }
    }
    Ok(cells)
}

/// Runs all five sections.
///
/// # Errors
///
/// Propagates deployment, search and evaluation errors.
pub fn measure(opts: &Opts, exp: &mut Experiment) -> Result<Report> {
    let smoke = opts.scale == Scale::Smoke;
    let sigma_abs = exp.calibration().sigma_abs(SIGMA);
    let sigma_mean = mean_sigma_abs(exp, SIGMA);
    let layers = exp.model().0.crossbar_layers();
    // probe batch: the analytic walk is exact in these samples, so a
    // handful of images pins the MSE surface
    let probe_n = if smoke { 2 } else { 4 };
    let probe = probe_batch(exp, probe_n)?;
    // the λ-search runs on a two-sample probe: the closed-form walk is
    // exact in its probe, so the selection stabilizes with far fewer
    // samples than an MC estimate would need — and the fidelity section
    // validates the resulting encoding on the full test set,
    // independently of probe size
    let search_probe = probe_batch(exp, 2)?;

    // Section 1: analytic vs paired-MC validation on deployed devices
    let repeats = if smoke { 8 } else { 24 };
    let cells = validate(opts, exp, &probe, repeats)?;

    // Section 2: λ-search speedup (MC Adam epochs vs analytic descent)
    let train = exp.train_set().clone();
    let calibration = exp.calibration().clone();
    let mut cfg = GboConfig::paper(GAMMA, opts.seed);
    cfg.epochs = if smoke { 1 } else { search_epochs(opts.scale) };
    let (vgg, params) = exp.model_mut();
    let t = Instant::now();
    let mc =
        GboTrainer::new(layers, cfg.clone())?.search(vgg, params, &train, &calibration, SIGMA)?;
    let mc_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let net = MemseNetwork::from_vgg(vgg, params, &search_probe, &sigma_abs)?;
    let capture_secs = t.elapsed().as_secs_f64();
    let analytic_evaluations = net
        .analytic_search(&cfg.pulse_lengths(), GAMMA)?
        .evaluations;
    let t = Instant::now();
    let analytic = GboTrainer::new(layers, cfg.clone())?.search_analytic(&net)?;
    let analytic_search_secs = t.elapsed().as_secs_f64();

    // Section 3: fidelity of the selected encodings
    let acc_mc = exp.eval_pla(SIGMA, &mc.selected_pulses)?;
    let acc_analytic = exp.eval_pla(SIGMA, &analytic.selected_pulses)?;

    // Section 4: per-tile pulse allocation
    let mut tile_xbar = XbarConfig::realistic(sigma_mean);
    tile_xbar.tile_cols = 64; // narrower column tiles ⇒ real per-tile choice
    tile_xbar.exec = opts.exec_options();
    let mut rng = Rng::from_seed(opts.seed ^ 0x7135).stream(RngStream::Device);
    let tile_device = deploy(exp, tile_xbar, vec![8; layers], &mut rng)?;
    let tile_net = MemseNetwork::from_device(&tile_device, &probe)?;
    let candidates = if smoke {
        vec![4, 8, 16]
    } else {
        cfg.pulse_lengths()
    };
    let uniform = tile_net.analytic_search(&candidates, GAMMA)?;
    let tiled = tile_net.tile_allocation(&candidates, GAMMA)?;

    // Section 5: live encoding reconfiguration between batches
    let enc_a = analytic.selected_pulses.clone();
    let enc_b = vec![16usize; layers];
    let swaps = if smoke { 6 } else { 20 };
    let mut xbar = XbarConfig::functional(sigma_mean);
    xbar.exec = opts.exec_options();
    let mut rng = Rng::from_seed(opts.seed ^ 0xEC0).stream(RngStream::Device);
    let mut device = deploy(exp, xbar, enc_a.clone(), &mut rng)?;
    let mut swap_secs = 0.0f64;
    for i in 0..swaps {
        let enc = if i % 2 == 0 { &enc_b } else { &enc_a };
        let t = Instant::now();
        device.reconfigure_encoding(enc)?;
        swap_secs += t.elapsed().as_secs_f64();
        device.forward(&probe, &mut rng)?;
    }

    Ok(Report {
        probe_n,
        repeats,
        cells,
        mc,
        mc_epochs: cfg.epochs,
        mc_secs,
        analytic,
        capture_secs,
        analytic_search_secs,
        analytic_evaluations,
        acc_mc,
        acc_analytic,
        column_groups: tile_net.column_groups(),
        uniform,
        tiled,
        swaps,
        reconfigure_us: swap_secs / swaps as f64 * 1e6,
    })
}

/// Writes `BENCH_memse.json`.
///
/// # Errors
///
/// Propagates deployment, search and evaluation errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let r = measure(opts, exp)?;
    println!(
        "search speedup: MC {:.2}s vs analytic {:.3}s = {:.0}x; MC-scored {:.2}% vs \
         analytic-scored {:.2}% at σ = {SIGMA}",
        r.mc_secs,
        r.capture_secs + r.analytic_search_secs,
        r.speedup(),
        r.acc_mc,
        r.acc_analytic
    );
    let cell_json: Vec<String> = r
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"config\": \"{}\", \"pulses\": {}, \"analytic_mse\": {:.6e}, \
                 \"mc_mean\": {:.6e}, \"mc_se\": {:.6e}, \"band\": {:.6e}, \"within\": {}}}",
                c.config, c.pulses, c.analytic, c.mc_mean, c.mc_se, c.band, c.within
            )
        })
        .collect();
    let tiled_json: Vec<String> = r.tiled.pulses.iter().map(|qs| format!("{qs:?}")).collect();
    let uniform_energy: f32 = r.uniform.pulses.iter().sum::<usize>() as f32;
    let uniform_latency: usize = r.uniform.pulses.iter().sum();
    let json = format!(
        "{{\"bench\": \"memse\", \"smoke\": {}, \"seed\": {}, \"sigma\": {SIGMA}, \
         \"gamma\": {GAMMA}, \"probe\": {}, \"search_probe\": 2, \
         \"validation\": {{\"repeats\": {}, \"z\": {Z}, \"eps_rel\": {EPS_REL}, \
         \"all_within_band\": {}, \"cells\": [{}]}}, \
         \"speedup\": {{\"mc_secs\": {:.4}, \"mc_epochs\": {}, \
         \"analytic_capture_secs\": {:.5}, \
         \"analytic_search_secs\": {:.5}, \
         \"analytic_total_secs\": {:.5}, \
         \"analytic_evaluations\": {}, \"speedup\": {:.1}, \
         \"floor\": {}}}, \
         \"fidelity\": {{\"mc_pulses\": {:?}, \"analytic_pulses\": {:?}, \
         \"mc_acc_pct\": {:.2}, \"analytic_acc_pct\": {:.2}, \
         \"gap_pp\": {:.3}, \"floor_pp\": {}}}, \
         \"tile_allocation\": {{\"column_groups\": {:?}, \
         \"uniform_pulses\": {:?}, \"uniform_mse\": {:.6e}, \
         \"uniform_energy\": {uniform_energy:.1}, \"uniform_latency\": {uniform_latency}, \
         \"tiled_pulses\": [{}], \"tiled_mse\": {:.6e}, \"tiled_energy\": {:.2}, \
         \"tiled_latency\": {}, \"evaluations\": {}}}, \
         \"reconfigure\": {{\"swaps\": {}, \"mean_us\": {:.2}}}}}",
        opts.scale == Scale::Smoke,
        opts.seed,
        r.probe_n,
        r.repeats,
        r.cells.iter().all(|c| c.within),
        cell_json.join(", "),
        r.mc_secs,
        r.mc_epochs,
        r.capture_secs,
        r.analytic_search_secs,
        r.capture_secs + r.analytic_search_secs,
        r.analytic_evaluations,
        r.speedup(),
        speedup_floor(opts.scale),
        r.mc.selected_pulses,
        r.analytic.selected_pulses,
        r.acc_mc,
        r.acc_analytic,
        r.fidelity_gap(),
        fidelity_floor(opts.scale),
        r.column_groups,
        r.uniform.pulses,
        r.uniform.mse,
        tiled_json.join(", "),
        r.tiled.mse,
        r.tiled.energy,
        r.tiled.latency,
        r.tiled.evaluations,
        r.swaps,
        r.reconfigure_us,
    );
    Ok(vec![Artifact::json("BENCH_memse.json", json)])
}
