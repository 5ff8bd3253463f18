//! Analytic MemSE variance propagation — closed-form output-error
//! estimation for deployed crossbar networks (DESIGN §14).
//!
//! Instead of Monte-Carlo sampling `DeviceVgg` forwards, a
//! [`MemseNetwork`] walks the network once per candidate encoding,
//! propagating a *pair* of per-element quantities through every stage in
//! closed form:
//!
//! * the **operating trajectory** — the device's expected activations:
//!   inputs snapped to the pulse-count grid (`PlaThermometer`
//!   approximation, exactly what the deployment encodes) and multiplied
//!   by the *deployed* (effective) matrices, so persistent programming /
//!   IR-drop / attenuation error and encoding snap error shift the
//!   operating point exactly as they do on the device;
//! * the **fluctuating variance** — read-noise variance around that
//!   trajectory: per output column `j` with pulse count `q` the crossbar
//!   injects `a_j / q` where
//!   `a_j = T·σ_out² + (σ_c2c/(G_on−G_off))²·Σ(G⁺²+G⁻²) + Σ_T step²/12`
//!   (`T` row tiles, ADC steps per tile) — the decode averages `q`
//!   independent pulse readouts.
//!
//! Stage composition: variance maps through a matrix `E` as `v·(E²)ᵀ`
//! (independent-error approximation; convs lower `v` with the same
//! im2col geometry as the values); batch norm scales the trajectory by
//! `scale` (+`shift`) and the variance by `scale²`; the fused
//! `tanh` → k-level quantizer gets its *exact* Gaussian output mean and
//! variance ([`membit_nn::tanh_quantize_moments`], rounding boundaries
//! pulled back through `atanh`, no linearization) — the one stage
//! nonlinear in the variance, which is why each candidate encoding
//! needs a (cheap) full walk rather than superposition; max-pool
//! gathers both at the trajectory argmax
//! ([`membit_nn::max_pool2_moments`]).
//!
//! The final score compares against a cached clean *logical* reference
//! forward: total MSE = fluctuating logit variance + squared deviation
//! of the trajectory logits from the logical logits. Paired Monte-Carlo
//! device runs (`E‖y_a − y_b‖²/2`) cancel the deterministic deviation
//! and measure exactly the fluctuating part — the validation target of
//! `proptest_memse` and `repro bench_memse`.
//!
//! The walk is pure `f32` arithmetic: no tape, no RNG, no pulse loop.
//! Scoring one encoding costs about two noiseless forwards of the probe
//! batch, which makes exhaustive λ-sweeps and per-tile pulse allocation
//! tractable (see [`MemseNetwork::analytic_search`] and
//! [`MemseNetwork::tile_allocation`]).

use membit_encoding::pla::PlaThermometer;
use membit_nn::{
    max_pool2_moments, normal_cdf, tanh_quantize_moments, tanh_quantize_moments_mapped,
    tanh_quantize_moments_with_gain, Params, Vgg,
};
use membit_tensor::{im2col_into, Conv2dGeometry, Tensor, TensorError};
use membit_xbar::CrossbarLinear;

use crate::device_eval::{quantize_tensor, ConvKernel, DeviceVgg};
use crate::Result;

/// Pulse counts of crossbar operator `op` in an allocation (per
/// operator, per column group), checked against its `groups`.
fn op_qs(alloc: &[Vec<usize>], op: usize, groups: usize) -> Result<&[usize]> {
    let qs = &alloc[op];
    if qs.len() != groups {
        return Err(TensorError::InvalidArgument(format!(
            "operator {op} has {groups} column groups, allocation supplies {}",
            qs.len()
        ))
        .into());
    }
    if qs.contains(&0) {
        return Err(TensorError::InvalidArgument("pulse counts must be nonzero".into()).into());
    }
    Ok(qs)
}

/// Intrinsic read-noise model of one crossbar operator.
struct IntrinsicOp {
    /// Per output column: fluctuating variance numerator `a_j`
    /// (divide by the column's pulse count).
    a_col: Vec<f32>,
    /// Column-tile group index of every output column.
    col_group: Vec<usize>,
    /// Number of column-tile groups (`max(col_group)+1`).
    groups: usize,
}

impl IntrinsicOp {
    /// Reads the noise model off a deployed engine's variance stats.
    fn from_engine(engine: &CrossbarLinear) -> Self {
        let stats = engine.variance_stats();
        let adc_var: f32 = stats.adc_steps.iter().map(|s| s * s / 12.0).sum();
        let c2c = stats.c2c_sigma_over_denom;
        let base = stats.row_tiles as f32 * stats.output_sigma * stats.output_sigma + adc_var;
        let a_col: Vec<f32> = stats
            .col_gsq
            .iter()
            .map(|&gsq| base + c2c * c2c * gsq)
            .collect();
        Self {
            a_col,
            col_group: group_of_columns(&stats.col_starts, stats.out_features),
            groups: stats.col_starts.len().max(1),
        }
    }

    /// Functional model (GBO-time scoring): uniform absolute read noise
    /// `sigma_abs` on every column, one group.
    fn functional(out_features: usize, sigma_abs: f32) -> Self {
        Self {
            a_col: vec![sigma_abs * sigma_abs; out_features],
            col_group: vec![0; out_features],
            groups: 1,
        }
    }
}

/// One conv stage of the captured network.
struct ConvStage {
    /// im2col geometry of the activations entering this layer.
    geom: Conv2dGeometry,
    out_channels: usize,
    oh: usize,
    ow: usize,
    /// Deployed (effective) operator matrix, transposed `[patch, out]` —
    /// propagates the operating trajectory.
    e_t: Tensor,
    /// `(E²)ᵀ` — propagates incoming variance.
    w_sq_t: Tensor,
    /// Crossbar read-noise model; `None` for the digital first conv.
    intrinsic: Option<IntrinsicOp>,
    /// Folded BN, per channel.
    scale: Tensor,
    shift: Tensor,
    scale_sq: Tensor,
    pool: bool,
}

/// The hidden-FC stage.
struct FcStage {
    /// Deployed operator matrix `[fc_dim, feature_dim]` (row-major, as
    /// programmed) — the covariance-aware classifier contraction needs
    /// it untransposed.
    e: Tensor,
    e_t: Tensor,
    w_sq_t: Tensor,
    intrinsic: IntrinsicOp,
    scale: Tensor,
    shift: Tensor,
    scale_sq: Tensor,
    feature_dim: usize,
}

/// Analytic score of one candidate encoding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemseScore {
    /// Total expected squared logit error vs the clean logical model:
    /// fluctuating variance plus the squared deterministic deviation of
    /// the snapped/deployed trajectory. Mean per sample.
    pub mse: f32,
    /// Fluctuating (read-noise) component only — the quantity paired
    /// Monte-Carlo runs measure.
    pub fluct_mse: f32,
    /// Expected probability (mean over the probe, union bound over
    /// rival classes, clipped at 1) that the deployed logits disagree
    /// with the clean logical argmax: `Σ_{c≠y} Φ((μ_c − μ_y)/√(v_c +
    /// v_y))` under the Gaussian logit closure. Near quantizer
    /// saturation the raw MSE compresses while accuracy keeps
    /// degrading, so this is the search objective — it tracks
    /// device-eval accuracy where the MSE surface goes flat.
    pub disagreement: f32,
}

/// Outcome of [`MemseNetwork::analytic_search`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticSelection {
    /// Selected pulse count per crossbar operator (deployment layout:
    /// crossbar convs in order, hidden FC last).
    pub pulses: Vec<usize>,
    /// Analytic total MSE of the selection.
    pub mse: f32,
    /// Analytic reference-disagreement probability of the selection.
    pub disagreement: f32,
    /// Final objective `disagreement + γ·Σ q`.
    pub objective: f32,
    /// Objective after each coordinate-descent sweep (the analytic
    /// analogue of per-epoch losses).
    pub sweep_objectives: Vec<f32>,
    /// Number of candidate encodings scored.
    pub evaluations: usize,
}

/// Outcome of [`MemseNetwork::tile_allocation`].
#[derive(Debug, Clone, PartialEq)]
pub struct TileAllocation {
    /// Per crossbar operator, per column-tile group: allocated pulses.
    pub pulses: Vec<Vec<usize>>,
    /// Analytic total MSE of the allocation.
    pub mse: f32,
    /// Analytic reference-disagreement probability of the allocation.
    pub disagreement: f32,
    /// Energy cost `Σ_l Σ_g q_g·share_g` (share = group width fraction;
    /// equals `Σ_l q_l` for a uniform allocation).
    pub energy: f32,
    /// Latency `Σ_l max_g q_g` — column tiles of one layer read in
    /// parallel, so the slowest group gates the layer.
    pub latency: usize,
    /// Final objective `disagreement + γ·energy`.
    pub objective: f32,
    /// Number of candidate allocations scored.
    pub evaluations: usize,
}

/// A deployed (or functional) network captured for analytic variance
/// walks. Construction caches the per-layer operators plus one clean
/// *logical* reference forward of a probe batch; [`Self::score`] then
/// walks trajectory + variance per candidate encoding.
pub struct MemseNetwork {
    probe: Tensor,
    convs: Vec<ConvStage>,
    fc: FcStage,
    /// Classifier matrix `[classes, fc_dim]` (bias cancels in every
    /// error difference and is omitted), plus its transpose and
    /// squared-transpose for the contraction forms.
    cls_w: Tensor,
    cls_w_t: Tensor,
    cls_w_sq_t: Tensor,
    act_levels: usize,
    samples: usize,
    /// Clean logical logits (no bias) — the error reference.
    logical_logits: Tensor,
    /// Per probe sample: argmax class of the logical logits.
    logical_top: Vec<usize>,
}

impl MemseNetwork {
    /// Captures a deployed [`DeviceVgg`]: read-noise terms come from the
    /// programmed engines' [`membit_xbar::VarianceStats`] (resolved
    /// temperature/IR-drop non-idealities included), and the operating
    /// trajectory uses the *deployed* effective matrices, so persistent
    /// programming error propagates exactly.
    ///
    /// `probe` is a `[N, C, H, W]` batch of representative inputs; the
    /// analytic MSE is averaged over it. A handful of images suffices —
    /// the walk is exact in the probe, not sampled.
    ///
    /// # Errors
    ///
    /// Propagates shape errors; rejects an empty probe.
    pub fn from_device(device: &DeviceVgg, probe: &Tensor) -> Result<Self> {
        Self::build(
            probe,
            device.act_levels,
            |layer| match &device.convs[layer].kernel {
                ConvKernel::Digital(wmat) => LayerPlan::Digital(wmat.clone()),
                ConvKernel::Crossbar { engine, .. } => LayerPlan::Engine(engine.as_ref()),
            },
            device.convs.len(),
            ConvPeriphery {
                geoms: device.convs.iter().map(|l| l.geom).collect(),
                out_channels: device.convs.iter().map(|l| l.out_channels).collect(),
                scales: device.convs.iter().map(|l| l.scale.clone()).collect(),
                shifts: device.convs.iter().map(|l| l.shift.clone()).collect(),
                pools: device.convs.iter().map(|l| l.pool).collect(),
            },
            FcPlan {
                engine: FcKind::Engine(&device.fc_engine),
                scale: device.fc_scale.clone(),
                shift: device.fc_shift.clone(),
                feature_dim: device.feature_dim,
            },
            device.classifier_w.clone(),
        )
    }

    /// Captures the *functional* model at GBO-search time: logical
    /// weights, uniform per-layer absolute read noise `sigma_abs` (from
    /// [`crate::NoiseCalibration::sigma_abs`]), no deployed engines.
    /// This is the drop-in analytic replacement for the Monte-Carlo
    /// Eq. 6 accuracy term.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `sigma_abs` doesn't
    /// cover the VGG's crossbar layers; propagates shape errors.
    pub fn from_vgg(
        vgg: &Vgg,
        params: &Params,
        probe: &Tensor,
        sigma_abs: &[f32],
    ) -> Result<Self> {
        let config = vgg.config();
        if sigma_abs.len() != config.crossbar_layers() {
            return Err(TensorError::InvalidArgument(format!(
                "{} noise levels for {} crossbar layers",
                sigma_abs.len(),
                config.crossbar_layers()
            ))
            .into());
        }
        let (mut h, mut w) = (config.in_h, config.in_w);
        let mut in_ch = config.in_channels;
        let mut geoms = Vec::new();
        let mut out_channels = Vec::new();
        let mut scales = Vec::new();
        let mut shifts = Vec::new();
        let mut pools = Vec::new();
        let mut wmats = Vec::new();
        for (i, conv) in vgg.convs().iter().enumerate() {
            let oc = conv.out_channels();
            let geom = Conv2dGeometry::new(in_ch, h, w, 3, 3, 1, 1)?;
            wmats.push(
                conv.deployed_weight(params)
                    .reshape(&[oc, geom.patch_len()])?,
            );
            let (scale, shift) = vgg.conv_bns()[i].fold_eval(params);
            let pool = config.pool_after.contains(&i);
            geoms.push(geom);
            out_channels.push(oc);
            scales.push(scale);
            shifts.push(shift);
            pools.push(pool);
            in_ch = oc;
            if pool {
                h /= 2;
                w /= 2;
            }
        }
        let fc_w = vgg.fc_hidden().deployed_weight(params);
        let (fc_scale, fc_shift) = vgg.fc_bn().fold_eval(params);
        let cls_w = vgg.classifier().deployed_weight(params);
        Self::build(
            probe,
            config.act_levels,
            |layer| {
                if layer == 0 {
                    LayerPlan::Digital(wmats[0].clone())
                } else {
                    LayerPlan::Functional(wmats[layer].clone(), sigma_abs[layer - 1])
                }
            },
            wmats.len(),
            ConvPeriphery {
                geoms,
                out_channels,
                scales,
                shifts,
                pools,
            },
            FcPlan {
                engine: FcKind::Functional(
                    fc_w,
                    *sigma_abs.last().expect("validated non-empty above"),
                ),
                scale: fc_scale,
                shift: fc_shift,
                feature_dim: config.feature_dim(),
            },
            cls_w,
        )
    }

    /// Shared constructor: assembles the stages and runs the clean
    /// logical reference forward once.
    fn build<'a>(
        probe: &Tensor,
        act_levels: usize,
        plan: impl Fn(usize) -> LayerPlan<'a>,
        layers: usize,
        periphery: ConvPeriphery,
        fc: FcPlan<'_>,
        cls_w: Tensor,
    ) -> Result<Self> {
        let n = probe.shape().first().copied().unwrap_or(0);
        if n == 0 {
            return Err(TensorError::InvalidArgument("probe batch must be non-empty".into()).into());
        }
        let mut act = probe.clone();
        let mut col_buf: Vec<f32> = Vec::new();
        let mut convs = Vec::with_capacity(layers);
        for layer in 0..layers {
            let geom = periphery.geoms[layer];
            let oc = periphery.out_channels[layer];
            let (logical, e_t, w_sq_t, intrinsic) = match plan(layer) {
                LayerPlan::Digital(wmat) => {
                    let e_t = wmat.transpose()?;
                    let w_sq_t = wmat.map(|v| v * v).transpose()?;
                    (wmat, e_t, w_sq_t, None)
                }
                LayerPlan::Engine(engine) => {
                    let effective = engine.effective_matrix();
                    let e_t = effective.transpose()?;
                    let w_sq_t = effective.map(|v| v * v).transpose()?;
                    (
                        engine.logical_matrix(),
                        e_t,
                        w_sq_t,
                        Some(IntrinsicOp::from_engine(engine)),
                    )
                }
                LayerPlan::Functional(wmat, sigma) => {
                    let e_t = wmat.transpose()?;
                    let w_sq_t = wmat.map(|v| v * v).transpose()?;
                    (
                        wmat.clone(),
                        e_t,
                        w_sq_t,
                        Some(IntrinsicOp::functional(oc, sigma)),
                    )
                }
            };
            // advance the clean logical reference
            im2col_into(&act, &geom, &mut col_buf)?;
            let rows = col_buf.len() / geom.patch_len();
            let cols = Tensor::from_vec(std::mem::take(&mut col_buf), &[rows, geom.patch_len()])?;
            let out_rows = cols.matmul(&logical.transpose()?)?;
            col_buf = cols.into_vec();
            let (oh, ow) = (geom.out_h(), geom.out_w());
            let mut out = out_rows.into_reshaped(&[n, oh, ow, oc])?.nhwc_to_nchw()?;
            out = out.channel_map(&periphery.scales[layer], |v, s| v * s)?;
            out = out.channel_map(&periphery.shifts[layer], |v, t| v + t)?;
            out = quantize_tensor(&out.tanh(), act_levels);
            if periphery.pools[layer] {
                out = max_pool2_moments(&out, &Tensor::zeros(out.shape()))?.0;
            }
            act = out;
            convs.push(ConvStage {
                geom,
                out_channels: oc,
                oh,
                ow,
                e_t,
                w_sq_t,
                intrinsic,
                scale: periphery.scales[layer].clone(),
                shift: periphery.shifts[layer].clone(),
                scale_sq: periphery.scales[layer].map(|v| v * v),
                pool: periphery.pools[layer],
            });
        }
        let flat = act.into_reshaped(&[n, fc.feature_dim])?;
        let (fc_logical, fc_e, fc_e_t, fc_w_sq_t, fc_intrinsic) = match fc.engine {
            FcKind::Engine(engine) => {
                let effective = engine.effective_matrix();
                (
                    engine.logical_matrix(),
                    effective.clone(),
                    effective.transpose()?,
                    effective.map(|v| v * v).transpose()?,
                    IntrinsicOp::from_engine(engine),
                )
            }
            FcKind::Functional(wmat, sigma) => {
                let out = wmat.shape()[0];
                let e_t = wmat.transpose()?;
                let w_sq_t = wmat.map(|v| v * v).transpose()?;
                (
                    wmat.clone(),
                    wmat,
                    e_t,
                    w_sq_t,
                    IntrinsicOp::functional(out, sigma),
                )
            }
        };
        let fc_ref = flat
            .matmul(&fc_logical.transpose()?)?
            .mul(&fc.scale)?
            .add(&fc.shift)?;
        let fc_ref = quantize_tensor(&fc_ref.tanh(), act_levels);
        let cls_w_t = cls_w.transpose()?;
        let logical_logits = fc_ref.matmul(&cls_w_t)?;
        let classes = cls_w.shape()[0];
        let logical_top = logical_logits
            .as_slice()
            .chunks_exact(classes)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect();
        Ok(Self {
            probe: probe.clone(),
            convs,
            fc: FcStage {
                e: fc_e,
                e_t: fc_e_t,
                w_sq_t: fc_w_sq_t,
                intrinsic: fc_intrinsic,
                scale: fc.scale.clone(),
                shift: fc.shift,
                scale_sq: fc.scale.map(|v| v * v),
                feature_dim: fc.feature_dim,
            },
            cls_w_sq_t: cls_w.map(|v| v * v).transpose()?,
            cls_w_t,
            cls_w,
            act_levels,
            samples: n,
            logical_logits,
            logical_top,
        })
    }

    /// Number of crossbar operators (= expected `pulses.len()`:
    /// crossbar convs in deployment order, hidden FC last — the same
    /// layout as [`crate::DeviceEvalConfig::pulses`]).
    pub fn crossbar_ops(&self) -> usize {
        self.convs.iter().filter(|c| c.intrinsic.is_some()).count() + 1
    }

    /// Column-tile group count per crossbar operator (deployment
    /// layout) — the granularity [`Self::tile_allocation`] optimizes.
    pub fn column_groups(&self) -> Vec<usize> {
        let mut groups: Vec<usize> = self
            .convs
            .iter()
            .filter_map(|c| c.intrinsic.as_ref().map(|m| m.groups))
            .collect();
        groups.push(self.fc.intrinsic.groups);
        groups
    }

    /// Scores one uniform-per-layer encoding: closed-form total and
    /// fluctuating logit MSE (mean per probe sample).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on a pulse-count layout
    /// mismatch or zero pulse counts; propagates shape errors.
    pub fn score(&self, pulses: &[usize]) -> Result<MemseScore> {
        self.walk(&self.uniform(pulses)?)
    }

    /// Fluctuating-only analytic MSE — the quantity paired Monte-Carlo
    /// device runs estimate (persistent and snap error cancel in
    /// differences).
    ///
    /// # Errors
    ///
    /// As [`Self::score`].
    pub fn fluctuating_mse(&self, pulses: &[usize]) -> Result<f32> {
        Ok(self.score(pulses)?.fluct_mse)
    }

    /// Scores a per-column-tile-group allocation (see
    /// [`Self::tile_allocation`]).
    ///
    /// # Errors
    ///
    /// As [`Self::score`], plus group-count mismatches.
    pub fn score_tiled(&self, pulses: &[Vec<usize>]) -> Result<MemseScore> {
        self.walk(pulses)
    }

    /// Spreads one pulse count per operator over all of its column
    /// groups.
    fn uniform(&self, pulses: &[usize]) -> Result<Vec<Vec<usize>>> {
        self.check_ops(pulses.len())?;
        Ok(pulses
            .iter()
            .zip(self.column_groups())
            .map(|(&q, groups)| vec![q; groups])
            .collect())
    }

    /// Rejects an allocation that does not cover every crossbar operator.
    fn check_ops(&self, allocations: usize) -> Result<()> {
        let ops = self.crossbar_ops();
        if allocations != ops {
            return Err(TensorError::InvalidArgument(format!(
                "{allocations} pulse allocations for {ops} crossbar operators"
            ))
            .into());
        }
        Ok(())
    }

    /// One trajectory + variance walk. Deterministic, RNG-free, pure
    /// `f32`.
    fn walk(&self, alloc: &[Vec<usize>]) -> Result<MemseScore> {
        self.check_ops(alloc.len())?;
        let mut state = self.initial_state();
        let mut op = 0usize;
        for idx in 0..self.convs.len() {
            state = self.advance_conv(idx, alloc, &mut op, state)?;
        }
        self.finish(alloc, op, state)
    }

    /// The walk's starting state: probe trajectory, zero error variance.
    fn initial_state(&self) -> WalkState {
        WalkState::Input(self.probe.clone())
    }

    /// Resolves a walk state into the (mean, variance) pair the next
    /// operator reads: the producer's fused tanh → quantize stage with
    /// its output grid remapped by the consumer's PLA snap (`snap_q`;
    /// `None` = digital consumer, no snap), then the producer's
    /// max-pool. The activation distribution lives entirely on the
    /// quantizer grid, so remapping the *bin values* yields the exact
    /// post-snap moments — grid-representable pulse counts (e.g. q = 8
    /// or 16 against 9 levels) contribute exactly zero snap deviation,
    /// where snapping a propagated mean would charge a phantom error.
    fn materialize(&self, state: &WalkState, snap_q: Option<usize>) -> Result<(Tensor, Tensor)> {
        match state {
            WalkState::Input(probe) => {
                let mean = match snap_q {
                    Some(q) => {
                        let pla = PlaThermometer::new(self.act_levels, q)?;
                        probe.map(|v| pla.approximate(v))
                    }
                    None => probe.clone(),
                };
                let var = Tensor::zeros(mean.shape());
                Ok((mean, var))
            }
            WalkState::Pre { mean, var, pool } => {
                let (m, v) = match snap_q {
                    Some(q) => {
                        let bins = snapped_bins(self.act_levels, q)?;
                        tanh_quantize_moments_mapped(mean, var, self.act_levels, &bins)?
                    }
                    None => tanh_quantize_moments(mean, var, self.act_levels)?,
                };
                if *pool {
                    Ok(max_pool2_moments(&m, &v)?)
                } else {
                    Ok((m, v))
                }
            }
        }
    }

    /// Stage index owning each crossbar operator in deployment order
    /// (`self.convs.len()` stands for the FC tail).
    fn op_stages(&self) -> Vec<usize> {
        let mut stages: Vec<usize> = self
            .convs
            .iter()
            .enumerate()
            .filter(|(_, c)| c.intrinsic.is_some())
            .map(|(i, _)| i)
            .collect();
        stages.push(self.convs.len());
        stages
    }

    /// Scores an allocation given the precomputed prefix `state`
    /// entering conv stage `start` (`op` operators already consumed).
    /// Coordinate descent sweeps one operator at a time, so everything
    /// upstream of the swept operator is fixed — caching the prefix
    /// turns each evaluation into a suffix-only walk. Stage arithmetic
    /// is identical to [`Self::walk`], so cached and full evaluations
    /// agree bitwise.
    fn score_from(
        &self,
        alloc: &[Vec<usize>],
        start: usize,
        op: usize,
        state: &WalkState,
    ) -> Result<MemseScore> {
        let mut st = state.clone();
        let mut op = op;
        for idx in start..self.convs.len() {
            st = self.advance_conv(idx, alloc, &mut op, st)?;
        }
        self.finish(alloc, op, st)
    }

    /// Propagates (trajectory, variance) through conv stage `idx`,
    /// consuming the stage's operator from `alloc` when it runs on a
    /// crossbar.
    fn advance_conv(
        &self,
        idx: usize,
        alloc: &[Vec<usize>],
        op: &mut usize,
        state: WalkState,
    ) -> Result<WalkState> {
        let stage = &self.convs[idx];
        let (m_out, v_out) = if let Some(intr) = &stage.intrinsic {
            let qs = op_qs(alloc, *op, intr.groups)?;
            *op += 1;
            let (m, v) = gathered_product(
                |q| {
                    let (mean, var) = self.materialize(&state, Some(q))?;
                    im2col_pair(&mean, &var, &stage.geom)
                },
                &stage.e_t,
                &stage.w_sq_t,
                qs,
                &intr.col_group,
            )?;
            (m, add_fluct(v, &intr.a_col, qs, &intr.col_group)?)
        } else {
            let (mean, var) = self.materialize(&state, None)?;
            let (mcols, vcols) = im2col_pair(&mean, &var, &stage.geom)?;
            (mcols.matmul(&stage.e_t)?, vcols.matmul(&stage.w_sq_t)?)
        };
        let shape = [self.samples, stage.oh, stage.ow, stage.out_channels];
        let mut m = m_out.into_reshaped(&shape)?.nhwc_to_nchw()?;
        let mut v = v_out.into_reshaped(&shape)?.nhwc_to_nchw()?;
        m = m.channel_map(&stage.scale, |x, s| x * s)?;
        m = m.channel_map(&stage.shift, |x, t| x + t)?;
        v = v.channel_map(&stage.scale_sq, |x, s| x * s)?;
        Ok(WalkState::Pre {
            mean: m,
            var: v,
            pool: stage.pool,
        })
    }

    /// The walk's FC tail: hidden FC (always a crossbar operator, last
    /// pulse slot), activation quantizer, covariance-aware classifier
    /// contraction, and the fluct + bias total.
    fn finish(&self, alloc: &[Vec<usize>], op: usize, state: WalkState) -> Result<MemseScore> {
        let qs = op_qs(alloc, op, self.fc.intrinsic.groups)?;
        // materialized FC input, snapped at the dominant (max) pulse
        // count: exact for uniform allocations (the common path), the
        // dominant-group approximation for the covariance cross-terms
        // of a mixed per-tile allocation
        let q_star = qs.iter().copied().max().unwrap_or(1);
        let (mean_star, var_star) = self.materialize(&state, Some(q_star))?;
        let mean_flat = mean_star.into_reshaped(&[self.samples, self.fc.feature_dim])?;
        let var_flat = var_star.into_reshaped(&[self.samples, self.fc.feature_dim])?;
        let mut distinct = qs.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        // propagated-only output variance — also the diagonal of the
        // shared-input covariance the FC matmul induces on its outputs
        let (m, c_diag) = if distinct.len() == 1 {
            (
                mean_flat.matmul(&self.fc.e_t)?,
                var_flat.matmul(&self.fc.w_sq_t)?,
            )
        } else {
            gathered_product(
                |q| {
                    let (mean, var) = self.materialize(&state, Some(q))?;
                    Ok((
                        mean.into_reshaped(&[self.samples, self.fc.feature_dim])?,
                        var.into_reshaped(&[self.samples, self.fc.feature_dim])?,
                    ))
                },
                &self.fc.e_t,
                &self.fc.w_sq_t,
                qs,
                &self.fc.intrinsic.col_group,
            )?
        };
        let v = add_fluct(
            c_diag.clone(),
            &self.fc.intrinsic.a_col,
            qs,
            &self.fc.intrinsic.col_group,
        )?;
        let m = m.mul(&self.fc.scale)?.add(&self.fc.shift)?;
        let v = v.mul(&self.fc.scale_sq)?;
        let (m, v, gain) = tanh_quantize_moments_with_gain(&m, &v, self.act_levels)?;
        let logits_mean = m.matmul(&self.cls_w_t)?;
        // Covariance-aware classifier contraction. Every FC output reads
        // the same feature-error vector, so the errors entering the
        // classifier are correlated — and with only a few logits that
        // correlation does not average out. Under the Gaussian closure
        // Cov(Q_i, Q_j) ≈ ĝ_i·ĝ_j·Σ_k E_ik·E_jk·v_k (i ≠ j) with ĝ the
        // Stein gain in engine-output units, so
        //   Var(logit_c) = Σ_i w_ci²·max(V_i − ĝ_i²·C_ii, 0)
        //                + Σ_k v_k·(Σ_i w_ci·ĝ_i·E_ik)²
        // — the independent remainder plus the exact rank-contracted
        // shared-input term. (Cauchy–Schwarz gives ĝ²·C ≤ V; the clamp
        // only guards f32 rounding.) Conv contractions keep the plain
        // independent form: their outputs fan out over many downstream
        // units, where cross terms do average out.
        let ghat = gain.mul(&self.fc.scale)?;
        let independent = {
            let g2c = ghat.map(|g| g * g).mul(&c_diag)?;
            let d: Vec<f32> = v
                .as_slice()
                .iter()
                .zip(g2c.as_slice())
                .map(|(&a, &b)| (a - b).max(0.0))
                .collect();
            Tensor::from_vec(d, v.shape())?
        };
        let mut logits_var = independent.matmul(&self.cls_w_sq_t)?.into_vec();
        let classes = self.cls_w.shape()[0];
        let fc_dim = self.cls_w.shape()[1];
        let feat = self.fc.feature_dim;
        for s in 0..self.samples {
            let grow = Tensor::from_vec(
                ghat.as_slice()[s * fc_dim..(s + 1) * fc_dim].to_vec(),
                &[fc_dim],
            )?;
            let wg = self.cls_w.mul(&grow)?;
            let contracted = wg.matmul(&self.fc.e)?; // [classes, feature]
            let cs = contracted.as_slice();
            let vrow = &var_flat.as_slice()[s * feat..(s + 1) * feat];
            for c in 0..classes {
                let row = &cs[c * feat..(c + 1) * feat];
                let cross: f32 = row.iter().zip(vrow).map(|(&mm, &vv)| mm * mm * vv).sum();
                logits_var[s * classes + c] += cross;
            }
        }
        let fluct = logits_var.iter().sum::<f32>() / self.samples as f32;
        let dev = logits_mean.sub(&self.logical_logits)?;
        let bias = dev.as_slice().iter().map(|d| d * d).sum::<f32>() / self.samples as f32;
        // Gaussian-closure disagreement with the clean reference: union
        // bound over rival classes of P(logit_c > logit_y), with the
        // trajectory deviation shifting the margins and the fluctuating
        // variance widening them (logit covariances neglected).
        let lm = logits_mean.as_slice();
        let mut disagreement = 0.0f32;
        for s in 0..self.samples {
            let y = self.logical_top[s];
            let mu = &lm[s * classes..(s + 1) * classes];
            let vr = &logits_var[s * classes..(s + 1) * classes];
            let mut p = 0.0f32;
            for c in 0..classes {
                if c == y {
                    continue;
                }
                let margin = mu[c] - mu[y];
                let sv = vr[c] + vr[y];
                p += if sv > 0.0 {
                    normal_cdf(margin / sv.sqrt())
                } else if margin > 0.0 {
                    1.0
                } else {
                    0.0
                };
            }
            disagreement += p.min(1.0);
        }
        disagreement /= self.samples as f32;
        Ok(MemseScore {
            mse: fluct + bias,
            fluct_mse: fluct,
            disagreement,
        })
    }

    /// Per-layer coordinate descent over `candidates` (e.g.
    /// [`crate::GboConfig::pulse_lengths`]) minimizing
    /// `disagreement + γ·Σ q` — the analytic replacement for the Eq. 6
    /// objective, with the closed-form reference-disagreement
    /// probability standing in for the sampled CE degradation (see
    /// [`MemseScore::disagreement`]: near saturation the raw MSE goes
    /// flat while accuracy keeps falling, so MSE makes a poor selection
    /// objective even though it is the validated physical quantity).
    /// Deterministic: fixed sweep order, strict-improvement updates.
    ///
    /// The first sweep tries every candidate per operator; later sweeps
    /// only probe the immediate neighbors of the incumbent (the window
    /// re-centers after each accepted move, so multi-step drifts still
    /// happen within a sweep). Coordinate descent is local either way —
    /// the restriction only skips re-testing far candidates the full
    /// first sweep already rejected, cutting evaluations roughly in
    /// half.
    ///
    /// # Errors
    ///
    /// Rejects an empty or zero-containing candidate set; propagates
    /// walk errors.
    pub fn analytic_search(&self, candidates: &[usize], gamma: f32) -> Result<AnalyticSelection> {
        if candidates.is_empty() || candidates.contains(&0) {
            return Err(TensorError::InvalidArgument(
                "candidate pulse lengths must be non-empty and nonzero".into(),
            )
            .into());
        }
        let start = vec![candidates[candidates.len() / 2]; self.crossbar_ops()];
        let mut alloc = self.uniform(&start)?;
        let d = self.descend(candidates, &mut alloc, false, |score, alloc| {
            score.disagreement + gamma * alloc.iter().map(|qs| qs[0]).sum::<usize>() as f32
        })?;
        Ok(AnalyticSelection {
            pulses: alloc.iter().map(|qs| qs[0]).collect(),
            mse: d.mse,
            disagreement: d.disagreement,
            objective: d.objective,
            sweep_objectives: d.sweep_objectives,
            evaluations: d.evaluations,
        })
    }

    /// Per-column-tile pulse allocation: refines a uniform
    /// [`Self::analytic_search`] seed by coordinate descent over each
    /// operator's column groups, minimizing `disagreement + γ·energy` with
    /// `energy = Σ_l Σ_g q_g·share_g` (a group only pays for the columns
    /// it drives). Latency `Σ_l max_g q_g` is reported, not optimized —
    /// with a latency objective every group would trivially rise to its
    /// layer's maximum. This is a *planning* output: the execution
    /// engine still reads whole layers at one pulse count, so the
    /// allocation quantifies the headroom per-tile drivers would unlock.
    ///
    /// # Errors
    ///
    /// As [`Self::analytic_search`].
    pub fn tile_allocation(&self, candidates: &[usize], gamma: f32) -> Result<TileAllocation> {
        let seed = self.analytic_search(candidates, gamma)?;
        let shares = self.group_shares();
        let energy = |alloc: &[Vec<usize>]| -> f32 {
            alloc
                .iter()
                .zip(&shares)
                .map(|(qs, sh)| {
                    qs.iter()
                        .zip(sh)
                        .map(|(&q, &s)| q as f32 * s)
                        .sum::<f32>()
                })
                .sum()
        };
        let mut alloc = self.uniform(&seed.pulses)?;
        let d = self.descend(candidates, &mut alloc, true, |score, alloc| {
            score.disagreement + gamma * energy(alloc)
        })?;
        let latency = alloc.iter().map(|qs| qs.iter().copied().max().unwrap_or(0)).sum();
        let total_energy = energy(&alloc);
        Ok(TileAllocation {
            pulses: alloc,
            mse: d.mse,
            disagreement: d.disagreement,
            energy: total_energy,
            latency,
            objective: d.objective,
            evaluations: seed.evaluations + d.evaluations,
        })
    }

    /// Prefix-cached coordinate descent over `alloc` (per operator, per
    /// column group) minimizing `objective`, with the sweep rules of
    /// [`Self::analytic_search`] and at most four sweeps. A coordinate
    /// is all of one operator's groups, moved together, or with
    /// `per_group` each group alone.
    fn descend(
        &self,
        candidates: &[usize],
        alloc: &mut [Vec<usize>],
        per_group: bool,
        objective: impl Fn(&MemseScore, &[Vec<usize>]) -> f32,
    ) -> Result<Descent> {
        let init = self.walk(alloc)?;
        let mut d = Descent {
            mse: init.mse,
            disagreement: init.disagreement,
            objective: objective(&init, alloc),
            sweep_objectives: Vec::new(),
            evaluations: 1,
        };
        let op_stages = self.op_stages();
        let idx_of =
            |q: usize| candidates.iter().position(|&c| c == q).unwrap_or(usize::MAX);
        for round in 0..4 {
            let mut improved = false;
            // walk the prefix once per sweep: the state entering the
            // swept operator's stage is fixed, so each candidate costs
            // only a suffix evaluation
            let mut state = self.initial_state();
            let mut stage_ptr = 0usize;
            let mut op_ptr = 0usize;
            for (l, &target) in op_stages.iter().enumerate() {
                while stage_ptr < target {
                    state = self.advance_conv(stage_ptr, alloc, &mut op_ptr, state)?;
                    stage_ptr += 1;
                }
                let groups = alloc[l].len();
                let width = if per_group { 1 } else { groups };
                for coord in (0..groups).step_by(width).map(|g| g..g + width) {
                    for (qi, &q) in candidates.iter().enumerate() {
                        let prev = alloc[l][coord.start];
                        if q == prev {
                            continue;
                        }
                        // refinement sweeps only probe the incumbent's
                        // neighbors; the window re-centers after each move
                        if round > 0 && qi.abs_diff(idx_of(prev)) > 1 {
                            continue;
                        }
                        alloc[l][coord.clone()].fill(q);
                        let sc = self.score_from(alloc, stage_ptr, op_ptr, &state)?;
                        d.evaluations += 1;
                        let obj = objective(&sc, alloc);
                        if obj < d.objective {
                            d.objective = obj;
                            d.mse = sc.mse;
                            d.disagreement = sc.disagreement;
                            improved = true;
                        } else {
                            alloc[l][coord.clone()].fill(prev);
                        }
                    }
                }
            }
            d.sweep_objectives.push(d.objective);
            if !improved {
                break;
            }
        }
        Ok(d)
    }

    /// Per-operator, per-group column-width shares (sum to 1 per op).
    fn group_shares(&self) -> Vec<Vec<f32>> {
        let mut shares = Vec::new();
        let mut push = |intr: &IntrinsicOp| {
            let out = intr.col_group.len().max(1);
            let mut widths = vec![0usize; intr.groups];
            for &g in &intr.col_group {
                widths[g] += 1;
            }
            shares.push(widths.iter().map(|&w| w as f32 / out as f32).collect());
        };
        for stage in &self.convs {
            if let Some(m) = &stage.intrinsic {
                push(m);
            }
        }
        push(&self.fc.intrinsic);
        shares
    }
}

/// Where a coordinate descent ([`MemseNetwork::descend`]) ended.
struct Descent {
    mse: f32,
    disagreement: f32,
    objective: f32,
    /// Objective after each sweep.
    sweep_objectives: Vec<f32>,
    /// Allocations scored, the starting one included.
    evaluations: usize,
}

/// How one conv layer's operator is realized for the analytic capture.
enum LayerPlan<'a> {
    Digital(Tensor),
    Engine(&'a CrossbarLinear),
    Functional(Tensor, f32),
}

/// Digital periphery of every conv layer, shared by both constructors.
/// Propagated walk state between stages. The fused
/// tanh → quantize → (PLA snap) evaluation is deferred to the
/// *consuming* operator, because the snap grid depends on the
/// consumer's pulse count.
#[derive(Clone)]
enum WalkState {
    /// The raw probe input (deterministic, zero variance).
    Input(Tensor),
    /// Post-BN pre-activation moments of the producing conv stage,
    /// with its pool flag still to apply after the fused quantizer.
    Pre { mean: Tensor, var: Tensor, pool: bool },
}

struct ConvPeriphery {
    geoms: Vec<Conv2dGeometry>,
    out_channels: Vec<usize>,
    scales: Vec<Tensor>,
    shifts: Vec<Tensor>,
    pools: Vec<bool>,
}

/// FC stage inputs for [`MemseNetwork::build`].
struct FcPlan<'a> {
    engine: FcKind<'a>,
    scale: Tensor,
    shift: Tensor,
    feature_dim: usize,
}

enum FcKind<'a> {
    Engine(&'a CrossbarLinear),
    Functional(Tensor, f32),
}

/// The activation grid values after the PLA snap at `q` pulses: the
/// quantizer's bin `k` value `2k/l − 1` pushed through
/// [`PlaThermometer::approximate`].
fn snapped_bins(levels: usize, q: usize) -> Result<Vec<f32>> {
    let pla = PlaThermometer::new(levels, q)?;
    let l = (levels - 1) as f32;
    Ok((0..levels)
        .map(|k| pla.approximate(2.0 * k as f32 / l - 1.0))
        .collect())
}

/// im2col of a (mean, variance) pair with one shared scratch buffer.
fn im2col_pair(mean: &Tensor, var: &Tensor, geom: &Conv2dGeometry) -> Result<(Tensor, Tensor)> {
    let mut buf: Vec<f32> = Vec::new();
    im2col_into(mean, geom, &mut buf)?;
    let rows = buf.len() / geom.patch_len();
    let mcols = Tensor::from_vec(std::mem::take(&mut buf), &[rows, geom.patch_len()])?;
    im2col_into(var, geom, &mut buf)?;
    let vcols = Tensor::from_vec(buf, &[rows, geom.patch_len()])?;
    Ok((mcols, vcols))
}

/// Mean/variance operator product with per-column-group input snapping:
/// columns in group `g` read inputs materialized at `q_g` pulses —
/// exactly the drive the deployment's PLA encoder delivers to that tile
/// group. `mats(q)` produces the `[rows, k]` input moment matrices for
/// one snap; uniform allocations take the single-materialization fast
/// path.
fn gathered_product(
    mats: impl Fn(usize) -> Result<(Tensor, Tensor)>,
    e_t: &Tensor,
    w_sq_t: &Tensor,
    qs: &[usize],
    col_group: &[usize],
) -> Result<(Tensor, Tensor)> {
    let mut distinct = qs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if let [q] = distinct[..] {
        let (m_in, v_in) = mats(q)?;
        return Ok((m_in.matmul(e_t)?, v_in.matmul(w_sq_t)?));
    }
    let out = col_group.len();
    let mut rows = 0usize;
    let mut m_data: Vec<f32> = Vec::new();
    let mut v_data: Vec<f32> = Vec::new();
    for &q in &distinct {
        let (m_in, v_in) = mats(q)?;
        let m_full = m_in.matmul(e_t)?;
        let v_full = v_in.matmul(w_sq_t)?;
        rows = m_full.shape()[0];
        if m_data.is_empty() {
            m_data = vec![0.0f32; rows * out];
            v_data = vec![0.0f32; rows * out];
        }
        let ms = m_full.as_slice();
        let vs = v_full.as_slice();
        for r in 0..rows {
            for j in 0..out {
                if qs[col_group[j]] == q {
                    m_data[r * out + j] = ms[r * out + j];
                    v_data[r * out + j] = vs[r * out + j];
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(m_data, &[rows, out])?,
        Tensor::from_vec(v_data, &[rows, out])?,
    ))
}

/// Adds the per-column read-noise variance `a_j/q_g` to every row of an
/// operator-output variance map `[rows, out]`.
fn add_fluct(v: Tensor, a_col: &[f32], qs: &[usize], col_group: &[usize]) -> Result<Tensor> {
    let out = a_col.len();
    let shape = v.shape().to_vec();
    let mut data = v.into_vec();
    for row in data.chunks_exact_mut(out) {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot += a_col[j] / qs[col_group[j]] as f32;
        }
    }
    Ok(Tensor::from_vec(data, &shape)?)
}

/// Maps `col_starts` boundaries to a per-column group index.
fn group_of_columns(col_starts: &[usize], out_features: usize) -> Vec<usize> {
    let mut groups = vec![0usize; out_features];
    if col_starts.len() <= 1 {
        return groups;
    }
    let mut g = 0usize;
    for (col, slot) in groups.iter_mut().enumerate() {
        while g + 1 < col_starts.len() && col >= col_starts[g + 1] {
            g += 1;
        }
        *slot = g;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device_eval::{DeploymentPolicy, DeviceEvalConfig};
    use membit_nn::VggConfig;
    use membit_tensor::Rng;
    use membit_xbar::XbarConfig;

    fn tiny_setup() -> (Vgg, Params, Tensor) {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(7);
        let cfg = VggConfig::tiny();
        let vgg = Vgg::new(&cfg, &mut params, &mut rng).unwrap();
        let probe = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 17) as f32 / 8.0 - 1.0) * 0.9);
        (vgg, params, probe)
    }

    fn deploy_tiny(vgg: &Vgg, params: &Params, pulses: &[usize]) -> DeviceVgg {
        let mut xbar = XbarConfig::functional(0.02);
        xbar.tile_rows = 32;
        xbar.tile_cols = 8;
        let cfg = DeviceEvalConfig {
            xbar,
            pulses: pulses.to_vec(),
            act_levels: vgg.config().act_levels,
            policy: DeploymentPolicy::default(),
        };
        let mut rng = Rng::from_seed(11);
        DeviceVgg::deploy(vgg, params, &cfg, &mut rng).unwrap()
    }

    /// Paired-MC fluctuating logit MSE of a deployed device on a probe.
    fn paired_mc(device: &mut DeviceVgg, probe: &Tensor, runs: usize, rng: &mut Rng) -> (f64, f64) {
        let n = probe.shape()[0] as f64;
        let outs: Vec<Vec<f32>> = (0..runs)
            .map(|_| device.forward(probe, rng).unwrap().0.as_slice().to_vec())
            .collect();
        let ests: Vec<f64> = outs
            .chunks_exact(2)
            .map(|p| {
                p[0].iter()
                    .zip(&p[1])
                    .map(|(a, b)| f64::from(a - b) * f64::from(a - b))
                    .sum::<f64>()
                    / 2.0
                    / n
            })
            .collect();
        let m = ests.iter().sum::<f64>() / ests.len() as f64;
        let v = ests.iter().map(|e| (e - m) * (e - m)).sum::<f64>() / (ests.len() - 1) as f64;
        (m, (v / ests.len() as f64).sqrt())
    }

    #[test]
    fn analytic_fluct_tracks_paired_mc_on_tiny_net() {
        let (vgg, params, probe) = tiny_setup();
        for sigma in [0.05f32, 0.15] {
            let mut xbar = XbarConfig::functional(sigma);
            xbar.tile_rows = 32;
            xbar.tile_cols = 8;
            for q in [4usize, 16] {
                let cfg = DeviceEvalConfig {
                    xbar,
                    pulses: vec![q; 3],
                    act_levels: vgg.config().act_levels,
                    policy: DeploymentPolicy::default(),
                };
                let mut rng = Rng::from_seed(11);
                let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
                let net = MemseNetwork::from_device(&device, &probe).unwrap();
                let analytic = f64::from(net.fluctuating_mse(&[q, q, q]).unwrap());
                let (mc, se) = paired_mc(&mut device, &probe, 80, &mut rng);
                let band = (4.0 * se).max(0.5 * mc);
                assert!(
                    (analytic - mc).abs() <= band,
                    "sigma={sigma} q={q}: analytic {analytic} vs mc {mc} ± {se} (band {band})"
                );
            }
        }
    }

    #[test]
    fn layout_and_validation() {
        let (vgg, params, probe) = tiny_setup();
        let device = deploy_tiny(&vgg, &params, &[8, 8, 8]);
        let net = MemseNetwork::from_device(&device, &probe).unwrap();
        assert_eq!(net.crossbar_ops(), 3);
        assert!(net.score(&[8, 8]).is_err(), "wrong pulse count length");
        assert!(net.score(&[8, 0, 8]).is_err(), "zero pulses rejected");
        let groups = net.column_groups();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|&g| g >= 1));
    }

    #[test]
    fn more_pulses_reduce_fluctuating_mse() {
        // at meaningful noise the a/q read-noise scaling dominates the
        // walk and more pulses must pay off (at near-zero noise the
        // quantizer gates everything and fluct can sit at exactly 0)
        let (vgg, params, probe) = tiny_setup();
        let mut xbar = XbarConfig::functional(0.15);
        xbar.tile_rows = 32;
        xbar.tile_cols = 8;
        let cfg = DeviceEvalConfig {
            xbar,
            pulses: vec![8; 3],
            act_levels: vgg.config().act_levels,
            policy: DeploymentPolicy::default(),
        };
        let mut rng = Rng::from_seed(11);
        let device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        let net = MemseNetwork::from_device(&device, &probe).unwrap();
        let short = net.score(&[4, 4, 4]).unwrap();
        let long = net.score(&[16, 16, 16]).unwrap();
        assert!(
            long.fluct_mse < short.fluct_mse,
            "fluct {} !< {}",
            long.fluct_mse,
            short.fluct_mse
        );
        assert!(short.mse >= short.fluct_mse, "total includes fluctuating");
        assert!(short.fluct_mse > 0.0);
    }

    #[test]
    fn functional_capture_matches_layout_and_is_deterministic() {
        let (vgg, params, probe) = tiny_setup();
        let sigma = vec![0.05, 0.05, 0.05];
        let net = MemseNetwork::from_vgg(&vgg, &params, &probe, &sigma).unwrap();
        assert_eq!(net.crossbar_ops(), 3);
        assert_eq!(net.column_groups(), vec![1, 1, 1]);
        let a = net.score(&[8, 12, 8]).unwrap();
        let b = net.score(&[8, 12, 8]).unwrap();
        assert_eq!(a.mse.to_bits(), b.mse.to_bits(), "bitwise deterministic");
        assert_eq!(a.fluct_mse.to_bits(), b.fluct_mse.to_bits());
        assert!(MemseNetwork::from_vgg(&vgg, &params, &probe, &sigma[..2]).is_err());
    }

    #[test]
    fn analytic_search_respects_gamma() {
        let (vgg, params, probe) = tiny_setup();
        let sigma = vec![0.2, 0.2, 0.2];
        let net = MemseNetwork::from_vgg(&vgg, &params, &probe, &sigma).unwrap();
        let candidates = [4usize, 6, 8, 10, 12, 14, 16];
        // enormous γ ⇒ cheapest encoding everywhere
        let cheap = net.analytic_search(&candidates, 10.0).unwrap();
        assert_eq!(cheap.pulses, vec![4, 4, 4]);
        // γ = 0 ⇒ pulse count is free; the unconstrained selection must
        // disagree with the clean reference no more than the forced
        // minimum-pulse one
        let free = net.analytic_search(&candidates, 0.0).unwrap();
        assert!(free.disagreement <= cheap.disagreement + 1e-6);
        assert!(free.pulses.iter().all(|&q| q >= 4));
        assert!(!free.sweep_objectives.is_empty());
        assert!(free.evaluations >= candidates.len());
        assert!(net.analytic_search(&[], 0.0).is_err());
    }

    #[test]
    fn tile_allocation_refines_uniform_seed() {
        let (vgg, params, probe) = tiny_setup();
        let device = deploy_tiny(&vgg, &params, &[8, 8, 8]);
        let net = MemseNetwork::from_device(&device, &probe).unwrap();
        let candidates = [4usize, 8, 12, 16];
        let gamma = 1e-4;
        let uniform = net.analytic_search(&candidates, gamma).unwrap();
        let tiled = net.tile_allocation(&candidates, gamma).unwrap();
        assert_eq!(tiled.pulses.len(), 3);
        for (qs, &g) in tiled.pulses.iter().zip(net.column_groups().iter()) {
            assert_eq!(qs.len(), g);
        }
        // per-group refinement can only improve the seed objective
        assert!(
            tiled.objective <= uniform.objective + 1e-6,
            "tiled {} vs uniform {}",
            tiled.objective,
            uniform.objective
        );
        assert!(tiled.latency >= *candidates.first().unwrap() * 3 / 4);
        let rescored = net.score_tiled(&tiled.pulses).unwrap();
        assert!((rescored.mse - tiled.mse).abs() < 1e-6);
    }
}
