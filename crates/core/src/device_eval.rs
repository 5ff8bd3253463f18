//! Device-level validation: run the trained VGG9-BWNN on the tiled
//! [`membit_xbar`] simulator instead of the functional noise model.
//!
//! Each crossbar layer's MVM is executed pulse-by-pulse through
//! [`CrossbarLinear`] (conv layers via im2col patch vectors, ISAAC-style),
//! with thermometer/PLA input encoding, ADC quantization and device
//! non-idealities. Batch norm, `tanh`, quantization, pooling and the
//! first/last layers run digitally, matching the deployment the paper
//! assumes. This is the "does the conclusion survive a less idealized
//! crossbar" ablation of DESIGN.md (ablC).

use membit_data::Dataset;
use membit_encoding::pla::PlaThermometer;
use membit_encoding::BitEncoder;
use membit_nn::{Params, Vgg};
use membit_tensor::{im2col_into, Conv2dGeometry, Rng, Tensor, TensorError};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, ExecutionStats, HealthMonitor, RecoveryPolicy,
    RemapReport, XbarConfig,
};

use crate::Result;

/// Fault-aware deployment policy: what the deployment pipeline does about
/// manufacturing faults at program time and about retention drift in
/// service.
///
/// The default is a bare deployment (no recovery, no monitoring) —
/// existing experiments are unaffected unless they opt in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeploymentPolicy {
    /// Post-programming fault recovery (march test → remap); `None`
    /// deploys whatever programming produced.
    pub recovery: Option<RecoveryPolicy>,
    /// In-service drift monitoring with refresh; `None` never re-checks
    /// deployed arrays.
    pub monitor: Option<HealthMonitor>,
}

impl DeploymentPolicy {
    /// Full fault awareness: standard recovery plus standard health
    /// monitoring.
    pub fn fault_aware() -> Self {
        Self {
            recovery: Some(RecoveryPolicy::standard()),
            monitor: Some(HealthMonitor::standard()),
        }
    }

    /// Validates the embedded policies.
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryPolicy::validate`] /
    /// [`HealthMonitor::validate`] errors.
    pub fn validate(&self) -> Result<()> {
        if let Some(r) = &self.recovery {
            r.validate()?;
        }
        if let Some(m) = &self.monitor {
            m.validate()?;
        }
        Ok(())
    }
}

/// Configuration of a device-level deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEvalConfig {
    /// Hardware configuration (tiles, ADC, noise).
    pub xbar: XbarConfig,
    /// Per-crossbar-layer thermometer pulse counts (a Table I row).
    pub pulses: Vec<usize>,
    /// Activation quantization levels of the trained network.
    pub act_levels: usize,
    /// Fault recovery / drift monitoring policy.
    pub policy: DeploymentPolicy,
}

/// How a conv layer's MVM is realized on the deployment.
/// (`pub(crate)` so the `memse` analytic pass can walk the deployment.)
pub(crate) enum ConvKernel {
    /// The first conv runs digitally (the paper keeps it off-crossbar):
    /// just its weight matrix — no crossbar engine exists for it, so it
    /// consumes no programming RNG draws and contributes nothing to
    /// program/recovery stats.
    Digital(Tensor),
    /// A crossbar-deployed conv with its input-encoding pulse count.
    /// (Boxed: the engine dwarfs the digital variant.)
    Crossbar {
        engine: Box<CrossbarLinear>,
        pulses: usize,
    },
}

pub(crate) struct DeviceConvLayer {
    pub(crate) kernel: ConvKernel,
    pub(crate) geom: Conv2dGeometry,
    pub(crate) out_channels: usize,
    pub(crate) scale: Tensor,
    pub(crate) shift: Tensor,
    pub(crate) pool: bool,
}

/// The deployed network. (Fields are `pub(crate)` so the `memse`
/// analytic variance pass can read the deployed engines and periphery
/// without widening the public API.)
pub struct DeviceVgg {
    pub(crate) convs: Vec<DeviceConvLayer>,
    pub(crate) fc_engine: CrossbarLinear,
    pub(crate) fc_scale: Tensor,
    pub(crate) fc_shift: Tensor,
    pub(crate) fc_pulses: usize,
    pub(crate) classifier_w: Tensor,
    pub(crate) classifier_b: Tensor,
    pub(crate) feature_dim: usize,
    pub(crate) act_levels: usize,
    num_classes: usize,
    /// `[C, H, W]` of one input sample, captured at deploy time so
    /// long-lived consumers (e.g. a serving loop) can validate and
    /// reshape flat request payloads without the original `VggConfig`.
    input_shape: [usize; 3],
    monitor: Option<HealthMonitor>,
    /// Inference vectors seen since the last health check.
    vectors_since_check: u64,
    /// Drift refreshes triggered over the deployment's lifetime.
    refreshes: u64,
}

pub(crate) fn quantize_tensor(t: &Tensor, levels: usize) -> Tensor {
    let l = (levels - 1) as f32;
    t.map(|v| ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() / l * 2.0 - 1.0)
}

impl DeviceVgg {
    /// Programs the trained `vgg` onto crossbar hardware.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `cfg.pulses` doesn't
    /// match the VGG's crossbar layer count, or propagates programming
    /// errors.
    pub fn deploy(vgg: &Vgg, params: &Params, cfg: &DeviceEvalConfig, rng: &mut Rng) -> Result<Self> {
        let config = vgg.config();
        cfg.policy.validate()?;
        if cfg.pulses.len() != config.crossbar_layers() {
            return Err(TensorError::InvalidArgument(format!(
                "{} pulse counts for {} crossbar layers",
                cfg.pulses.len(),
                config.crossbar_layers()
            ))
            .into());
        }
        if cfg.pulses.contains(&0) {
            return Err(
                TensorError::InvalidArgument("pulse counts must be nonzero".into()).into(),
            );
        }
        let (mut h, mut w) = (config.in_h, config.in_w);
        let mut in_ch = config.in_channels;
        let mut convs = Vec::with_capacity(config.channels.len());
        for (i, conv) in vgg.convs().iter().enumerate() {
            let oc = conv.out_channels();
            let geom = Conv2dGeometry::new(in_ch, h, w, 3, 3, 1, 1)?;
            let deployed = conv.deployed_weight(params);
            let wmat = deployed.reshape(&[oc, geom.patch_len()])?;
            let (scale, shift) = vgg.conv_bns()[i].fold_eval(params);
            let pool = config.pool_after.contains(&i);
            let kernel = if i == 0 {
                // the first conv runs digitally: no crossbar engine, no
                // RNG draws, no program/recovery stats for this layer
                ConvKernel::Digital(wmat)
            } else {
                let mut engine = CrossbarLinear::program(&wmat, &cfg.xbar, rng)?;
                if let Some(policy) = &cfg.policy.recovery {
                    engine.remap(policy, rng)?; // report stays on the engine
                }
                ConvKernel::Crossbar {
                    engine: Box::new(engine),
                    pulses: cfg.pulses[i - 1],
                }
            };
            convs.push(DeviceConvLayer {
                kernel,
                geom,
                out_channels: oc,
                scale,
                shift,
                pool,
            });
            in_ch = oc;
            if pool {
                h /= 2;
                w /= 2;
            }
        }
        let fc_w = vgg.fc_hidden().deployed_weight(params);
        let mut fc_engine = CrossbarLinear::program(&fc_w, &cfg.xbar, rng)?;
        if let Some(policy) = &cfg.policy.recovery {
            fc_engine.remap(policy, rng)?;
        }
        let (fc_scale, fc_shift) = vgg.fc_bn().fold_eval(params);
        let classifier_w = vgg.classifier().deployed_weight(params);
        let classifier_b = vgg
            .classifier()
            .bias()
            .map(|id| params.get(id).clone())
            .unwrap_or_else(|| Tensor::zeros(&[config.num_classes]));
        let fc_pulses = *cfg.pulses.last().ok_or_else(|| {
            TensorError::InvalidArgument("deployment needs at least one pulse count".into())
        })?;
        Ok(Self {
            convs,
            fc_engine,
            fc_scale,
            fc_shift,
            fc_pulses,
            classifier_w,
            classifier_b,
            feature_dim: config.feature_dim(),
            act_levels: cfg.act_levels,
            num_classes: config.num_classes,
            input_shape: config.input_shape(),
            monitor: cfg.policy.monitor,
            vectors_since_check: 0,
            refreshes: 0,
        })
    }

    /// Runs one batch (`[N, C, H, W]`), returning logits and accumulated
    /// hardware event counts.
    ///
    /// Every crossbar MVM goes through
    /// [`CrossbarLinear::execute_guarded`]: on deployments whose
    /// [`XbarConfig`] carries a [`membit_xbar::GuardPolicy`] the checksum
    /// guard and its escalation ladder run per layer (`&mut self` exists
    /// for the ladder's refresh/remap repairs); without one this is the
    /// plain execution path, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `images` has rank 4,
    /// and propagates shape errors.
    pub fn forward(&mut self, images: &Tensor, rng: &mut Rng) -> Result<(Tensor, ExecutionStats)> {
        if images.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "device forward",
                expected: 4,
                actual: images.rank(),
            }
            .into());
        }
        let mut stats = ExecutionStats::default();
        let n = images.shape()[0];
        let mut act = images.clone();
        // one column buffer reused across every conv layer of the batch
        // (sized by the largest lowering, allocated once per forward)
        let mut col_buf: Vec<f32> = Vec::new();
        let act_levels = self.act_levels;
        for layer in &mut self.convs {
            let (oh, ow) = (layer.geom.out_h(), layer.geom.out_w());
            im2col_into(&act, &layer.geom, &mut col_buf)?;
            let rows = col_buf.len() / layer.geom.patch_len();
            let cols = Tensor::from_vec(
                std::mem::take(&mut col_buf),
                &[rows, layer.geom.patch_len()],
            )?;
            let out_rows = match &mut layer.kernel {
                ConvKernel::Digital(wmat) => cols.matmul(&wmat.transpose()?)?,
                ConvKernel::Crossbar { engine, pulses } => {
                    let enc = PlaThermometer::new(act_levels, *pulses)?;
                    let train = enc.encode_tensor(&cols)?;
                    let (y, s) = engine.execute_guarded(&train, rng)?;
                    stats.merge(&s);
                    y
                }
            };
            col_buf = cols.into_vec(); // hand the allocation to the next layer
            let mut out = out_rows
                .into_reshaped(&[n, oh, ow, layer.out_channels])?
                .nhwc_to_nchw()?;
            // digital periphery: BN fold, tanh, re-quantize
            out = out.channel_map(&layer.scale, |v, s| v * s)?;
            out = out.channel_map(&layer.shift, |v, t| v + t)?;
            out = quantize_tensor(&out.tanh(), self.act_levels);
            if layer.pool {
                out = max_pool2(&out)?;
            }
            act = out;
        }
        let flat = act.into_reshaped(&[n, self.feature_dim])?;
        let enc = PlaThermometer::new(self.act_levels, self.fc_pulses)?;
        let train = enc.encode_tensor(&flat)?;
        let (mut f, s) = self.fc_engine.execute_guarded(&train, rng)?;
        stats.merge(&s);
        f = f
            .mul(&self.fc_scale)?
            .add(&self.fc_shift)?;
        f = quantize_tensor(&f.tanh(), self.act_levels);
        let logits = f.matmul(&self.classifier_w.transpose()?)?.add(&self.classifier_b)?;
        Ok((logits, stats))
    }

    /// Evaluates classification accuracy over a dataset.
    ///
    /// When a [`HealthMonitor`] is deployed, arrays are periodically
    /// probed between batches and drift-refreshed when their measured
    /// conductance decay crosses the monitor's threshold (`&mut self`
    /// exists for exactly this re-programming). The returned stats carry
    /// the fault-exposure fields: `unrecoverable_cells`/`degraded_tiles`
    /// reflect the deployment's recovery outcome (set once, not summed
    /// per batch) and `refreshes` counts the refresh passes this call
    /// triggered.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn evaluate(
        &mut self,
        data: &Dataset,
        batch_size: usize,
        rng: &mut Rng,
    ) -> Result<(f32, ExecutionStats)> {
        let mut stats = ExecutionStats::default();
        let mut correct = 0usize;
        let refreshes_before = self.refreshes;
        for (images, labels) in data.batches(batch_size) {
            let (logits, s) = self.forward(&images, rng)?;
            stats.merge(&s);
            for (pred, &y) in logits.argmax_rows()?.iter().zip(&labels) {
                if *pred == y {
                    correct += 1;
                }
            }
            self.vectors_since_check += images.shape()[0] as u64;
            self.health_check(rng);
        }
        let recovery = self.recovery_report();
        stats.unrecoverable_cells = recovery.unrecoverable_cells;
        stats.degraded_tiles = recovery.degraded_tiles;
        stats.refreshes = self.refreshes - refreshes_before;
        // deployment-level degradation state (set-once like the damage
        // counters above): how many layers the guard ladder has demoted
        // to the digital fallback, counted across engines rather than
        // summed per batch
        stats.guard.degraded_layers = self.degraded_layers();
        Ok((correct as f32 / data.len().max(1) as f32, stats))
    }

    /// Probes every crossbar engine for retention decay if the monitor
    /// is due, refreshing (re-programming toward stored targets) any
    /// engine whose mean weight magnitude has decayed past the
    /// threshold.
    fn health_check(&mut self, rng: &mut Rng) {
        let Some(monitor) = self.monitor else { return };
        if !monitor.due(self.vectors_since_check) {
            return;
        }
        self.vectors_since_check = 0;
        let mut refreshed = 0u64;
        for layer in &mut self.convs {
            if let ConvKernel::Crossbar { engine, .. } = &mut layer.kernel {
                if monitor.needs_refresh(engine.measure_decay(monitor.probes, rng)) {
                    engine.refresh(rng);
                    refreshed += 1;
                }
            }
        }
        if monitor.needs_refresh(self.fc_engine.measure_decay(monitor.probes, rng)) {
            self.fc_engine.refresh(rng);
            refreshed += 1;
        }
        self.refreshes += refreshed;
    }

    /// Every crossbar engine in deployment order (crossbar convs, then
    /// the hidden FC). The digital first conv and classifier have no
    /// engine.
    fn engines(&self) -> impl Iterator<Item = &CrossbarLinear> {
        self.convs
            .iter()
            .filter_map(|l| match &l.kernel {
                ConvKernel::Crossbar { engine, .. } => Some(engine.as_ref()),
                ConvKernel::Digital(_) => None,
            })
            .chain(std::iter::once(&self.fc_engine))
    }

    fn engines_mut(&mut self) -> impl Iterator<Item = &mut CrossbarLinear> {
        self.convs
            .iter_mut()
            .filter_map(|l| match &mut l.kernel {
                ConvKernel::Crossbar { engine, .. } => Some(engine.as_mut()),
                ConvKernel::Digital(_) => None,
            })
            .chain(std::iter::once(&mut self.fc_engine))
    }

    /// Aggregated fault-recovery outcome across all crossbar engines,
    /// computed on demand from their current reports — deploy-time
    /// remaps, the guard ladder's stage-3 repairs, everything. All-zero
    /// when no repair has run (or a later
    /// [`CrossbarLinear::inject_fault`] invalidated the records).
    pub fn recovery_report(&self) -> RemapReport {
        let mut report = RemapReport::default();
        for engine in self.engines() {
            if let Some(r) = engine.recovery_report() {
                report.merge(r);
            }
        }
        report
    }

    /// Number of crossbar layers the guard ladder has demoted to the
    /// digital fallback path.
    pub fn degraded_layers(&self) -> u64 {
        self.engines().filter(|e| e.is_degraded()).count() as u64
    }

    /// Injects transient stuck-at upsets at the given per-cell `rate`
    /// across every crossbar engine — the instrumented path for studying
    /// mid-inference upsets. Each engine receives `round(out·in·rate)`
    /// upsets at uniform positions, random differential side, and a fair
    /// stuck-high/stuck-low coin (see [`CrossbarLinear::upset_cell`]:
    /// conductance excursions, curable by refresh, unlike the pinned
    /// health of `inject_fault`). Returns the number injected.
    ///
    /// Armed checksum references are deliberately left stale (that is
    /// what makes the damage detectable) and stored recovery reports are
    /// cleared, mirroring [`CrossbarLinear::inject_fault`].
    ///
    /// # Errors
    ///
    /// Propagates injection errors (coordinates are drawn in range, so
    /// none are expected).
    pub fn inject_faults(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        let mut injected = 0u64;
        for engine in self.engines_mut() {
            let (out, inp) = engine.dims();
            let count = ((out * inp) as f32 * rate).round() as usize;
            for _ in 0..count {
                let row = rng.below(inp);
                let col = rng.below(out);
                let side = if rng.coin(0.5) { CellSide::Pos } else { CellSide::Neg };
                let high = rng.coin(0.5);
                engine.upset_cell(row, col, side, high)?;
                injected += 1;
            }
        }
        Ok(injected)
    }

    /// Injects *persistent* stuck-at faults at the given per-cell `rate`
    /// across every crossbar engine — the SAF (stuck-at-fault) scenario
    /// of the non-ideality ablation. Unlike [`Self::inject_faults`],
    /// whose conductance excursions a refresh cures, these pin the cell
    /// health itself (see [`CrossbarLinear::inject_fault`]): only a march
    /// test + remap pass ([`Self::remap_all`]) can route around them, and
    /// cells the analog strategies cannot fix stay broken unless the SAF
    /// error-correction arm compensates digitally. Returns the number
    /// injected.
    ///
    /// # Errors
    ///
    /// Propagates injection errors (coordinates are drawn in range, so
    /// none are expected).
    pub fn inject_stuck_faults(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        let mut injected = 0u64;
        for engine in self.engines_mut() {
            let (out, inp) = engine.dims();
            let count = ((out * inp) as f32 * rate).round() as usize;
            for _ in 0..count {
                let row = rng.below(inp);
                let col = rng.below(out);
                let side = if rng.coin(0.5) { CellSide::Pos } else { CellSide::Neg };
                let health = if rng.coin(0.5) {
                    CellHealth::StuckOn
                } else {
                    CellHealth::StuckOff
                };
                engine.inject_fault(row, col, side, health)?;
                injected += 1;
            }
        }
        Ok(injected)
    }

    /// Runs the full march-test + remap pipeline on every crossbar
    /// engine under `policy` — the deployment-level repair pass after
    /// in-service fault injection (deploy-time recovery runs
    /// automatically via [`DeploymentPolicy::recovery`]). With
    /// [`RecoveryPolicy::with_ecc`] the residual unrecoverable cells
    /// additionally get per-tile SAF error-correction entries, which
    /// every subsequent MVM applies digitally. Returns the merged
    /// recovery outcome.
    ///
    /// # Errors
    ///
    /// Propagates march-test / reprogramming errors.
    pub fn remap_all(&mut self, policy: &RecoveryPolicy, rng: &mut Rng) -> Result<RemapReport> {
        let mut report = RemapReport::default();
        for engine in self.engines_mut() {
            report.merge(&engine.remap(policy, rng)?);
        }
        Ok(report)
    }

    /// Drift refreshes triggered by the health monitor over this
    /// deployment's lifetime.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Number of classes at the output.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// `[C, H, W]` of one input sample.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// Rebounds the host-side thread fan-out of every crossbar engine
    /// (see [`CrossbarLinear::set_max_threads`]). Outputs are bitwise
    /// independent of the setting; only wall clock changes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `max_threads` is zero.
    pub fn set_max_threads(&mut self, max_threads: usize) -> Result<()> {
        for engine in self.engines_mut() {
            engine.set_max_threads(max_threads)?;
        }
        Ok(())
    }

    /// Whether every crossbar engine satisfies the popcount loops'
    /// exactness preconditions on every tile (see
    /// [`CrossbarLinear::packed_ready`]).
    pub fn packed_ready(&self) -> bool {
        self.engines().all(CrossbarLinear::packed_ready)
    }

    /// The deployment's current per-layer pulse map, in
    /// [`DeviceEvalConfig::pulses`] layout: one entry per crossbar layer
    /// — convs in order, the hidden FC last.
    pub fn encoding(&self) -> Vec<usize> {
        let mut map: Vec<usize> = self
            .convs
            .iter()
            .filter_map(|layer| match &layer.kernel {
                ConvKernel::Crossbar { pulses, .. } => Some(*pulses),
                ConvKernel::Digital(_) => None,
            })
            .collect();
        map.push(self.fc_pulses);
        map
    }

    /// Swaps the input-encoding pulse map **without re-programming any
    /// array** — pulse counts are a property of the digital drive
    /// encoder, not of the stored conductances, so an analytically
    /// re-optimized encoding (see `memse`) deploys in microseconds
    /// instead of a full redeploy. `pulses` uses the
    /// [`DeviceEvalConfig::pulses`] layout (one entry per crossbar
    /// layer, hidden FC last).
    ///
    /// Consumes no RNG and touches no engine state, so determinism is
    /// preserved: a serving log that records the swap replays bitwise.
    /// Validation is eager and the map is applied atomically — on error
    /// the previous encoding stays fully in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when the length doesn't
    /// match the deployment's crossbar layer count or any count doesn't
    /// yield a valid `PlaThermometer` for the deployment's activation
    /// grid (zero, or above
    /// [`MAX_NESTED_PULSES`](membit_encoding::MAX_NESTED_PULSES)).
    pub fn reconfigure_encoding(&mut self, pulses: &[usize]) -> Result<()> {
        let expected = self.encoding().len();
        if pulses.len() != expected {
            return Err(TensorError::InvalidArgument(format!(
                "{} pulse counts for {expected} crossbar layers",
                pulses.len()
            ))
            .into());
        }
        for &q in pulses {
            // eager validation so the map applies atomically below
            PlaThermometer::new(self.act_levels, q)?;
        }
        let mut it = pulses.iter();
        for layer in &mut self.convs {
            if let ConvKernel::Crossbar { pulses: p, .. } = &mut layer.kernel {
                *p = *it.next().expect("validated length");
            }
        }
        self.fc_pulses = *it.next().expect("validated length");
        Ok(())
    }

    /// Ages every crossbar array by `hours` of retention drift (power-law
    /// conductance decay, per-cell exponent `N(nu, nu_sigma)`) — see
    /// [`membit_xbar::Tile::age`]. The digital first conv and classifier
    /// are unaffected.
    pub fn age(&mut self, hours: f32, nu: f32, nu_sigma: f32, rng: &mut Rng) {
        for layer in &mut self.convs {
            if let ConvKernel::Crossbar { engine, .. } = &mut layer.kernel {
                engine.age(hours, nu, nu_sigma, rng);
            }
        }
        self.fc_engine.age(hours, nu, nu_sigma, rng);
    }
}

/// Digital 2×2 max pool (stride 2) over NCHW.
fn max_pool2(x: &Tensor) -> Result<Tensor> {
    let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
    if h % 2 != 0 || w % 2 != 0 {
        return Err(TensorError::InvalidArgument(format!("cannot 2×2-pool {h}×{w}")).into());
    }
    let (oh, ow) = (h / 2, w / 2);
    let src = x.as_slice();
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            best = best.max(src[base + (oy * 2 + ky) * w + ox * 2 + kx]);
                        }
                    }
                    out[((ni * c + ci) * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CrossbarModel;
    use crate::trainer::evaluate;
    use membit_encoding::MAX_NESTED_PULSES;
    use membit_nn::{NoNoise, Phase, VggConfig};
    use membit_autograd::Tape;

    fn tiny_vgg() -> (Vgg, Params) {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut rng).unwrap();
        (vgg, params)
    }

    #[test]
    fn deploy_validates_pulse_counts() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(1);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 8], // tiny VGG has 3 crossbar layers
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        assert!(DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).is_err());
        let cfg0 = DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 0, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        assert!(DeviceVgg::deploy(&vgg, &params, &cfg0, &mut rng).is_err());
        // a live swap is validated the same way, and a refused map
        // leaves the old encoding in place: zero pulses, or more than a
        // count-coded train holds
        let cfg = DeviceEvalConfig {
            pulses: vec![8, 8, 8],
            ..cfg0
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        for bad in [[8, 0, 8], [8, 8, MAX_NESTED_PULSES + 1]] {
            assert!(device.reconfigure_encoding(&bad).is_err());
            assert_eq!(device.encoding(), vec![8, 8, 8]);
        }
    }

    #[test]
    fn forward_rejects_non_batch_ranks_and_serves_empty_batches() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(3);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::functional(0.1),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        // a typed error before any indexing, never a panic
        for shape in [&[][..], &[3], &[3, 8, 8]] {
            let err = device.forward(&Tensor::zeros(shape), &mut rng).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::TrainError::Tensor(TensorError::RankMismatch { expected: 4, actual, .. })
                        if actual == shape.len()
                ),
                "{shape:?}: {err}"
            );
        }
        let (logits, stats) = device.forward(&Tensor::zeros(&[0, 3, 8, 8]), &mut rng).unwrap();
        assert_eq!(logits.shape(), &[0, 4]);
        assert_eq!(stats.vectors, 0);
    }

    #[test]
    fn ideal_device_matches_functional_model() {
        // With ideal hardware and baseline 8-pulse encoding, the device-
        // level forward must agree with the tape-based Eval forward.
        let (mut vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(2);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let images = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 17) as f32 / 8.0 - 1.0).clamp(-1.0, 1.0));
        // functional reference
        let mut tape = Tape::new();
        let mut binding = params.frozen_binding();
        let x = tape.constant(quantize_tensor(&images, 9));
        let reference = CrossbarModel::forward(
            &mut vgg,
            &mut tape,
            &params,
            &mut binding,
            x,
            Phase::Eval,
            &mut NoNoise,
        )
        .unwrap();
        let (logits, stats) = device.forward(&quantize_tensor(&images, 9), &mut rng).unwrap();
        assert!(
            logits.allclose(tape.value(reference), 0.15),
            "{logits:?}\nvs\n{:?}",
            tape.value(reference)
        );
        assert!(stats.pulses > 0);
        assert_eq!(device.num_classes(), 4);
    }

    #[test]
    fn device_eval_runs_on_dataset() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(3);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let (_, test) = membit_data::shapes(&membit_data::ShapesConfig::tiny(), 1).unwrap();
        // shapes is 1-channel; build a 3-channel set instead from synth
        let (_, test3) =
            membit_data::synth_cifar(&membit_data::SynthCifarConfig::tiny(), 1).unwrap();
        let _ = test;
        // tiny vgg has 4 classes but synth has 10 labels — evaluate on a
        // label-clamped copy to exercise the path
        let labels: Vec<usize> = test3.labels().iter().map(|&y| y % 4).collect();
        let data = Dataset::new(test3.images().clone(), labels, 4).unwrap();
        let (acc, stats) = device.evaluate(&data, 8, &mut rng).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(stats.vectors > 0);
        // untrained network should hover near chance
        let untrained_acc = evaluate(&mut vgg.clone(), &params, &data, 8).unwrap();
        assert!((acc - untrained_acc).abs() < 0.35);
    }

    #[test]
    fn aging_degrades_logit_magnitude() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(5);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let images = quantize_tensor(
            &Tensor::from_fn(&[1, 3, 8, 8], |i| ((i % 11) as f32 / 5.0 - 1.0).clamp(-1.0, 1.0)),
            9,
        );
        let (fresh, _) = device.forward(&images, &mut rng).unwrap();
        device.age(10_000.0, 0.05, 0.0, &mut rng);
        let (aged, _) = device.forward(&images, &mut rng).unwrap();
        // drift shrinks the stored weights: feature magnitudes fall,
        // so the pre-classifier signal (and typically logit spread)
        // collapses toward the classifier bias
        assert!(
            aged.std() <= fresh.std() + 1e-3,
            "aged spread {} vs fresh {}",
            aged.std(),
            fresh.std()
        );
    }

    #[test]
    fn fault_aware_deployment_recovers_and_reports() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(11);
        let mut xbar = XbarConfig::ideal();
        xbar.noise.device.on_off_ratio = 20.0;
        xbar.noise.device.stuck_on_rate = 0.02;
        xbar.noise.device.stuck_off_rate = 0.02;
        let cfg = DeviceEvalConfig {
            xbar,
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::fault_aware(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let report = device.recovery_report();
        assert!(report.tiles > 0);
        assert!(report.faults_detected > 0, "2% stuck rates must trip the march test");
        assert!(
            report.cells_recovered > 0,
            "recovery must fix something: {report:?}"
        );
        let (_, test3) =
            membit_data::synth_cifar(&membit_data::SynthCifarConfig::tiny(), 1).unwrap();
        let labels: Vec<usize> = test3.labels().iter().map(|&y| y % 4).collect();
        let data = Dataset::new(test3.images().clone(), labels, 4).unwrap();
        let (acc, stats) = device.evaluate(&data, 8, &mut rng).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        // graceful degradation: outcome surfaced in stats, never a panic
        assert_eq!(stats.unrecoverable_cells, report.unrecoverable_cells);
        assert_eq!(stats.degraded_tiles, report.degraded_tiles);
    }

    #[test]
    fn health_monitor_refreshes_aged_deployment() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(13);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy {
                recovery: None,
                monitor: Some(HealthMonitor {
                    check_interval: 4,
                    decay_threshold: 0.1,
                    probes: 32,
                }),
            },
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        device.age(20_000.0, 0.05, 0.0, &mut rng);
        let (_, test3) =
            membit_data::synth_cifar(&membit_data::SynthCifarConfig::tiny(), 1).unwrap();
        let labels: Vec<usize> = test3.labels().iter().map(|&y| y % 4).collect();
        let data = Dataset::new(test3.images().clone(), labels, 4).unwrap();
        let (_, stats) = device.evaluate(&data, 8, &mut rng).unwrap();
        assert!(stats.refreshes > 0, "aged arrays must trigger refresh");
        assert_eq!(device.refreshes(), stats.refreshes);
        // after refresh the arrays are back near full magnitude: a second
        // pass over the same data finds nothing left to refresh
        let (_, stats2) = device.evaluate(&data, 8, &mut rng).unwrap();
        assert_eq!(stats2.refreshes, 0);
    }

    #[test]
    fn guarded_deployment_detects_and_repairs_transient_faults() {
        use membit_xbar::GuardPolicy;
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(17);
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::functional(0.05).with_guard(GuardPolicy::standard()),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let images = quantize_tensor(
            &Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 / 6.0 - 1.0).clamp(-1.0, 1.0)),
            9,
        );
        // healthy arrays: the guard checks every readout and stays quiet
        let (_, clean) = device.forward(&images, &mut rng).unwrap();
        assert!(clean.guard.checks > 0);
        assert_eq!(clean.guard.violations, 0, "{:?}", clean.guard);
        // a mid-inference transient burst must be detected and repaired
        // by the ladder, and the repair disclosed
        // 5% on these tiny arrays → a handful of upsets per tile, whose
        // summed deviation clears the 6σ tolerance on many readouts
        let injected = device.inject_faults(0.05, &mut rng).unwrap();
        assert!(injected > 0);
        let (_, hit) = device.forward(&images, &mut rng).unwrap();
        assert!(hit.guard.violations > 0, "{:?}", hit.guard);
        assert!(
            hit.guard.tile_refreshes + hit.guard.tile_remaps + hit.guard.fallbacks > 0,
            "{:?}",
            hit.guard
        );
        // upsets are conductance excursions, so the refresh stage cures
        // them: the next forward must run violation-free on live arrays
        let (_, after) = device.forward(&images, &mut rng).unwrap();
        assert_eq!(after.guard.violations, 0, "{:?}", after.guard);
        assert_eq!(device.degraded_layers(), 0);
    }

    #[test]
    fn stuck_faults_persist_and_saf_ecc_compensates() {
        let (vgg, params) = tiny_vgg();
        let mut rng = Rng::from_seed(23);
        let mut xbar = XbarConfig::ideal();
        xbar.noise.device.on_off_ratio = 20.0;
        let cfg = DeviceEvalConfig {
            xbar,
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let images = quantize_tensor(
            &Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 / 6.0 - 1.0).clamp(-1.0, 1.0)),
            9,
        );
        let (clean, _) = device.forward(&images, &mut rng).unwrap();
        // a heavy persistent burst: unlike upsets, refresh cannot cure it
        let injected = device.inject_stuck_faults(0.05, &mut rng).unwrap();
        assert!(injected > 0);
        for engine in device.engines_mut() {
            engine.refresh(&mut rng);
        }
        let (faulty, _) = device.forward(&images, &mut rng).unwrap();
        let err_faulty = faulty.sub(&clean).unwrap().abs().max();
        assert!(err_faulty > 0.05, "stuck faults must survive refresh: {err_faulty}");
        // march + remap with the SAF error-correction arm
        let report = device.remap_all(&RecoveryPolicy::with_ecc(), &mut rng).unwrap();
        assert!(report.faults_detected > 0, "{report:?}");
        let (fixed, stats) = device.forward(&images, &mut rng).unwrap();
        let err_fixed = fixed.sub(&clean).unwrap().abs().max();
        assert!(
            err_fixed < err_faulty,
            "repair must shrink the error: {err_faulty} → {err_fixed}"
        );
        if report.cells_corrected > 0 {
            assert!(stats.guard.saf_corrections > 0, "{:?}", stats.guard);
        }
    }

    #[test]
    fn max_pool2_reduces_spatial() {
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let p = max_pool2(&x).unwrap();
        assert_eq!(p.shape(), &[1, 1, 2, 2]);
        assert_eq!(p.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert!(max_pool2(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }
}
