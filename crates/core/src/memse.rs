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
//! (independent-error approximation; every stage, the hidden FC
//! included, lowers `v` with the same im2col geometry as the values);
//! batch norm scales the trajectory by
//! `scale` (+`shift`) and the variance by `scale²`; the fused
//! `tanh` → k-level quantizer gets its *exact* Gaussian output mean and
//! variance ([`membit_nn::tanh_quantize_moments`], rounding boundaries
//! pulled back through `atanh`, no linearization) — the one step
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
    max_pool2_moments, normal_cdf, quantizer_grid, tanh_quantize_moments, Params, Vgg,
};
use membit_tensor::{im2col_into, Conv2dGeometry, Tensor, TensorError};
use membit_xbar::CrossbarLinear;

use crate::device_eval::{
    level_thresholds, lower, value_table, DeviceVgg, Kernel, LayerInput, MvmLayer,
};
use crate::Result;

/// A crossbar stage's read-noise model with the pulse counts of its
/// column groups; `None` for the digital first conv.
type ReadNoise<'a> = Option<(&'a IntrinsicOp, &'a [usize])>;

/// The read noise of `stage` under `alloc`, consuming crossbar operator
/// slot `op` (then advanced) when the stage runs on a crossbar; the slot
/// must give each of the operator's column groups a nonzero count.
fn read_noise<'a>(
    stage: &'a Stage,
    alloc: &'a [Vec<usize>],
    op: &mut usize,
) -> Result<ReadNoise<'a>> {
    let Some(intr) = &stage.kernel.intrinsic else {
        return Ok(None);
    };
    let qs = &alloc[*op];
    if qs.len() != intr.groups {
        return Err(TensorError::InvalidArgument(format!(
            "operator {op} has {} column groups, allocation supplies {}",
            intr.groups,
            qs.len()
        ))
        .into());
    }
    if qs.contains(&0) {
        return Err(TensorError::InvalidArgument("pulse counts must be nonzero".into()).into());
    }
    *op += 1;
    Ok(Some((intr, qs)))
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

/// A lowered layer's operator as the walk reads it.
struct Operator {
    /// Deployed (effective) operator matrix `[out, patch]`, as
    /// programmed — the hidden FC's covariance-aware classifier
    /// contraction reads it untransposed.
    e: Tensor,
    /// `Eᵀ` — propagates the operating trajectory.
    e_t: Tensor,
    /// `(E²)ᵀ` — propagates incoming variance.
    w_sq_t: Tensor,
    /// Crossbar read-noise model; `None` for the digital first conv.
    intrinsic: Option<IntrinsicOp>,
    /// Squared folded-BN scale, per channel.
    scale_sq: Tensor,
}

/// One stage of the walk: a lowered layer (geometry, folded BN, pool
/// flag) with its analytic operator.
type Stage = MvmLayer<Operator>;

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
    /// One stage per lowered layer in forward order: the digital first
    /// conv, the crossbar convs, the hidden FC last.
    stages: Vec<Stage>,
    /// Classifier matrix `[classes, fc_dim]` (bias cancels in every
    /// error difference and is omitted), plus its transpose and
    /// squared-transpose for the contraction forms.
    cls_w: Tensor,
    cls_w_t: Tensor,
    cls_w_sq_t: Tensor,
    act_levels: usize,
    samples: usize,
    /// Clean logical logits (no bias) — the error reference.
    pub(crate) logical_logits: Tensor,
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
        let layers = device
            .layers
            .iter()
            .map(|l| {
                l.with_kernel(match &l.kernel {
                    Kernel::Digital(wmat) => LayerPlan::Digital(wmat),
                    Kernel::Crossbar { engine, .. } => LayerPlan::Engine(engine.as_ref()),
                })
            })
            .collect();
        Self::build(
            probe,
            device.act_levels,
            layers,
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
    /// cover the VGG's crossbar layers or holds a negative or non-finite
    /// level, or if the VGG's `act_levels` is outside `2..=256` (levels
    /// travel between layers as bytes); propagates shape errors.
    pub fn from_vgg(vgg: &Vgg, params: &Params, probe: &Tensor, sigma_abs: &[f32]) -> Result<Self> {
        let config = vgg.config();
        if sigma_abs.len() != config.crossbar_layers() {
            return Err(TensorError::InvalidArgument(format!(
                "{} noise levels for {} crossbar layers",
                sigma_abs.len(),
                config.crossbar_layers()
            ))
            .into());
        }
        if let Some(bad) = sigma_abs.iter().find(|s| !(s.is_finite() && **s >= 0.0)) {
            return Err(TensorError::InvalidArgument(format!(
                "noise level {bad} must be finite and non-negative"
            ))
            .into());
        }
        let lowered = lower(vgg, params)?;
        let layers = lowered
            .iter()
            .enumerate()
            .map(|(i, l)| {
                l.with_kernel(match i {
                    0 => LayerPlan::Digital(&l.kernel),
                    _ => LayerPlan::Functional(&l.kernel, sigma_abs[i - 1]),
                })
            })
            .collect();
        Self::build(
            probe,
            config.act_levels,
            layers,
            vgg.classifier().deployed_weight(params),
        )
    }

    /// Shared constructor: turns every layer into a stage and runs the
    /// clean logical reference forward once.
    fn build(
        probe: &Tensor,
        act_levels: usize,
        layers: Vec<MvmLayer<LayerPlan<'_>>>,
        cls_w: Tensor,
    ) -> Result<Self> {
        let thresholds = level_thresholds(act_levels)?;
        let n = probe.shape().first().copied().unwrap_or(0);
        if n == 0 {
            return Err(
                TensorError::InvalidArgument("probe batch must be non-empty".into()).into(),
            );
        }
        let values = value_table(act_levels);
        let mut act = LayerInput::Images(probe);
        let mut col_buf: Vec<f32> = Vec::new();
        let mut stages = Vec::with_capacity(layers.len());
        for (i, layer) in layers.into_iter().enumerate() {
            let (logical_t, e, intrinsic) = match layer.kernel {
                LayerPlan::Digital(wmat) => (wmat.transpose()?, wmat.clone(), None),
                LayerPlan::Engine(engine) => (
                    engine.logical_matrix().transpose()?,
                    engine.effective_matrix(),
                    Some(IntrinsicOp::from_engine(engine)),
                ),
                LayerPlan::Functional(wmat, sigma) => (
                    wmat.transpose()?,
                    wmat.clone(),
                    Some(IntrinsicOp::functional(layer.out_channels(), sigma)),
                ),
            };
            // advance the clean logical reference
            let cols = act.patches(&layer.geom, &values, &mut col_buf)?;
            let rows = cols.matmul(&logical_t)?;
            col_buf = cols.into_vec();
            act = LayerInput::Levels(layer.periphery(&rows, n, &thresholds, i)?);
            stages.push(layer.with_kernel(Operator {
                e_t: e.transpose()?,
                w_sq_t: e.map(|v| v * v).transpose()?,
                e,
                intrinsic,
                scale_sq: layer.scale.map(|v| v * v),
            }));
        }
        let LayerInput::Levels(act) = act else {
            unreachable!("the hidden FC is the last layer")
        };
        let cls_w_t = cls_w.transpose()?;
        let logical_logits = act.features(&values)?.matmul(&cls_w_t)?;
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
            stages,
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
        self.intrinsics().count()
    }

    /// Column-tile group count per crossbar operator (deployment
    /// layout) — the granularity [`Self::tile_allocation`] optimizes.
    pub fn column_groups(&self) -> Vec<usize> {
        self.intrinsics().map(|m| m.groups).collect()
    }

    /// The read-noise model of every crossbar operator, in deployment
    /// order.
    fn intrinsics(&self) -> impl Iterator<Item = &IntrinsicOp> {
        self.stages
            .iter()
            .filter_map(|s| s.kernel.intrinsic.as_ref())
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
        self.score_from(alloc, 0, 0, &WalkState::Input(self.probe.clone()))
    }

    /// Resolves a walk state into the (mean, variance) pair the next
    /// operator reads: the producer's fused tanh → quantize step with
    /// its output grid remapped by the consumer's PLA snap (`snap_q`;
    /// `None` = digital consumer, no snap), then the producer's
    /// max-pool. The activation distribution lives entirely on the
    /// quantizer grid, so remapping the *bin values* yields the exact
    /// post-snap moments — grid-representable pulse counts (e.g. q = 8
    /// or 16 against 9 levels) contribute exactly zero snap deviation,
    /// where snapping a propagated mean would charge a phantom error.
    /// The raw probe is read as it is: only the digital first conv,
    /// which snaps nothing, reads it.
    fn materialize(&self, state: &WalkState, snap_q: Option<usize>) -> Result<(Tensor, Tensor)> {
        match state {
            WalkState::Input(probe) => Ok((probe.clone(), Tensor::zeros(probe.shape()))),
            WalkState::Pre { mean, var, pool } => {
                let bins = match snap_q {
                    Some(q) => snapped_bins(self.act_levels, q)?,
                    None => quantizer_grid(self.act_levels),
                };
                let (m, v, _) = tanh_quantize_moments(mean, var, &bins)?;
                if *pool {
                    Ok(max_pool2_moments(&m, &v)?)
                } else {
                    Ok((m, v))
                }
            }
        }
    }

    /// Index of the stage owning each crossbar operator, in deployment
    /// order.
    fn op_stages(&self) -> Vec<usize> {
        self.stages
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kernel.intrinsic.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Scores an allocation given the precomputed prefix `state`
    /// entering stage `start` (`op` operators already consumed).
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
        for idx in start..self.stages.len() - 1 {
            st = self.advance(idx, alloc, &mut op, st)?;
        }
        self.finish(alloc, op, st)
    }

    /// Propagates (trajectory, variance) through stage `idx`, consuming
    /// the stage's operator from `alloc` when it runs on a crossbar.
    fn advance(
        &self,
        idx: usize,
        alloc: &[Vec<usize>],
        op: &mut usize,
        state: WalkState,
    ) -> Result<WalkState> {
        let stage = &self.stages[idx];
        let noise = read_noise(stage, alloc, op)?;
        let (m, v, _) = self.product(stage, noise, &state)?;
        let (mean, var) = self.fold(stage, noise, m, v)?;
        Ok(WalkState::Pre {
            mean,
            var,
            pool: stage.pool,
        })
    }

    /// `stage`'s operator product on the moments `state` hands it, each
    /// column group reading its inputs snapped at its own pulse count:
    /// trajectory and propagated variance rows `[rows, out]` (no read
    /// noise yet), and the input variance rows at the largest pulse
    /// count.
    fn product(
        &self,
        stage: &Stage,
        noise: ReadNoise,
        state: &WalkState,
    ) -> Result<(Tensor, Tensor, Tensor)> {
        let mats = |q| {
            let (mean, var) = self.materialize(state, q)?;
            im2col_pair(&mean, &var, &stage.geom)
        };
        let op = &stage.kernel;
        match noise {
            Some((intr, qs)) => {
                gathered_product(|q| mats(Some(q)), &op.e_t, &op.w_sq_t, qs, &intr.col_group)
            }
            None => {
                let (mcols, vcols) = mats(None)?;
                Ok((mcols.matmul(&op.e_t)?, vcols.matmul(&op.w_sq_t)?, vcols))
            }
        }
    }

    /// Adds `stage`'s read noise to its propagated variance rows (in
    /// place) and folds its batch norm after the NHWC → NCHW permute:
    /// the trajectory gets `x·scale` then `+ shift`, the variance
    /// `x·scale²`.
    fn fold(
        &self,
        stage: &Stage,
        noise: ReadNoise,
        m: Tensor,
        v: Tensor,
    ) -> Result<(Tensor, Tensor)> {
        let v = match noise {
            Some((intr, qs)) => add_fluct(v, &intr.a_col, qs, &intr.col_group)?,
            None => v,
        };
        let (oh, ow) = (stage.geom.out_h(), stage.geom.out_w());
        let shape = [self.samples, oh, ow, stage.out_channels()];
        let m = m.into_reshaped(&shape)?.nhwc_to_nchw()?;
        let v = v.into_reshaped(&shape)?.nhwc_to_nchw()?;
        let m = m
            .channel_map(&stage.scale, |x, s| x * s)?
            .channel_map(&stage.shift, |x, t| x + t)?;
        let v = v.channel_map(&stage.kernel.scale_sq, |x, s| x * s)?;
        Ok((m, v))
    }

    /// The walk's FC tail: the hidden FC (always a crossbar operator, last
    /// pulse slot) through its product and folded BN, then the activation
    /// quantizer with its Stein gain, the covariance-aware classifier
    /// contraction, and the fluct + bias total.
    fn finish(&self, alloc: &[Vec<usize>], mut op: usize, state: WalkState) -> Result<MemseScore> {
        let fc = self.stages.last().expect("the hidden FC is the last stage");
        let noise = read_noise(fc, alloc, &mut op)?;
        // `var_flat`, the FC input's variance, is snapped at the dominant
        // (max) pulse count: exact for uniform allocations (the common
        // path), the dominant-group approximation for the covariance
        // cross-terms of a mixed per-tile allocation. `c_diag`, the
        // propagated-only output variance, is also the diagonal of the
        // shared-input covariance the FC matmul induces on its outputs.
        let (m, c_diag, var_flat) = self.product(fc, noise, &state)?;
        let (m, v) = self.fold(fc, noise, m, c_diag.clone())?;
        let fc_shape = c_diag.shape();
        let (m, v) = (m.into_reshaped(fc_shape)?, v.into_reshaped(fc_shape)?);
        let (m, v, gain) = tanh_quantize_moments(&m, &v, &quantizer_grid(self.act_levels))?;
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
        let ghat = gain.mul(&fc.scale)?;
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
        let feat = fc.geom.patch_len();
        for s in 0..self.samples {
            let grow = Tensor::from_vec(
                ghat.as_slice()[s * fc_dim..(s + 1) * fc_dim].to_vec(),
                &[fc_dim],
            )?;
            let wg = self.cls_w.mul(&grow)?;
            let contracted = wg.matmul(&fc.kernel.e)?; // [classes, feature]
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
    /// Rejects an empty or zero-containing candidate set and a `gamma`
    /// that is negative or non-finite (the rule of
    /// [`crate::GboConfig`]); propagates walk errors.
    pub fn analytic_search(&self, candidates: &[usize], gamma: f32) -> Result<AnalyticSelection> {
        if candidates.is_empty() || candidates.contains(&0) {
            return Err(TensorError::InvalidArgument(
                "candidate pulse lengths must be non-empty and nonzero".into(),
            )
            .into());
        }
        if !(gamma.is_finite() && gamma >= 0.0) {
            return Err(TensorError::InvalidArgument(format!(
                "gamma {gamma} must be finite and non-negative"
            ))
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
                .map(|(qs, sh)| qs.iter().zip(sh).map(|(&q, &s)| q as f32 * s).sum::<f32>())
                .sum()
        };
        let mut alloc = self.uniform(&seed.pulses)?;
        let d = self.descend(candidates, &mut alloc, true, |score, alloc| {
            score.disagreement + gamma * energy(alloc)
        })?;
        let latency = alloc
            .iter()
            .map(|qs| qs.iter().copied().max().unwrap_or(0))
            .sum();
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
        let idx_of = |q: usize| {
            candidates
                .iter()
                .position(|&c| c == q)
                .unwrap_or(usize::MAX)
        };
        for round in 0..4 {
            let mut improved = false;
            // walk the prefix once per sweep: the state entering the
            // swept operator's stage is fixed, so each candidate costs
            // only a suffix evaluation
            let mut state = WalkState::Input(self.probe.clone());
            let mut stage_ptr = 0usize;
            let mut op_ptr = 0usize;
            for (l, &target) in op_stages.iter().enumerate() {
                while stage_ptr < target {
                    state = self.advance(stage_ptr, alloc, &mut op_ptr, state)?;
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
        self.intrinsics()
            .map(|intr| {
                let out = intr.col_group.len().max(1);
                let mut widths = vec![0usize; intr.groups];
                for &g in &intr.col_group {
                    widths[g] += 1;
                }
                widths.iter().map(|&w| w as f32 / out as f32).collect()
            })
            .collect()
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

/// How one layer's operator is realized for the analytic capture.
#[derive(Clone, Copy)]
enum LayerPlan<'a> {
    Digital(&'a Tensor),
    Engine(&'a CrossbarLinear),
    Functional(&'a Tensor, f32),
}

/// Propagated walk state between stages. The fused
/// tanh → quantize → (PLA snap) evaluation is deferred to the
/// *consuming* operator, because the snap grid depends on the
/// consumer's pulse count.
#[derive(Clone)]
enum WalkState {
    /// The raw probe input (deterministic, zero variance).
    Input(Tensor),
    /// Post-BN pre-activation moments (NCHW) of the producing stage,
    /// with its pool flag still to apply after the fused quantizer.
    Pre {
        mean: Tensor,
        var: Tensor,
        pool: bool,
    },
}

/// The activation grid values after the PLA snap at `q` pulses: the
/// quantizer's bin values ([`quantizer_grid`]) pushed through
/// [`PlaThermometer::approximate`].
fn snapped_bins(levels: usize, q: usize) -> Result<Vec<f32>> {
    let pla = PlaThermometer::new(levels, q)?;
    Ok(quantizer_grid(levels)
        .into_iter()
        .map(|v| pla.approximate(v))
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
/// path. Also returns the input variance matrix of the largest `q_g`.
fn gathered_product(
    mats: impl Fn(usize) -> Result<(Tensor, Tensor)>,
    e_t: &Tensor,
    w_sq_t: &Tensor,
    qs: &[usize],
    col_group: &[usize],
) -> Result<(Tensor, Tensor, Tensor)> {
    let mut distinct = qs.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if let [q] = distinct[..] {
        let (m_in, v_in) = mats(q)?;
        return Ok((m_in.matmul(e_t)?, v_in.matmul(w_sq_t)?, v_in));
    }
    let out = col_group.len();
    let mut rows = 0usize;
    let mut m_data: Vec<f32> = Vec::new();
    let mut v_data: Vec<f32> = Vec::new();
    let mut v_top = Tensor::zeros(&[0]);
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
        v_top = v_in;
    }
    Ok((
        Tensor::from_vec(m_data, &[rows, out])?,
        Tensor::from_vec(v_data, &[rows, out])?,
        v_top,
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
    use crate::TrainError;
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
        // a noise level the functional capture cannot scale is refused
        for bad in [f32::NAN, f32::INFINITY, -1.0] {
            let err = MemseNetwork::from_vgg(&vgg, &params, &probe, &[0.05, bad, 0.05]).err();
            assert!(
                matches!(
                    err,
                    Some(TrainError::Tensor(TensorError::InvalidArgument(_)))
                ),
                "sigma {bad}: {err:?}"
            );
        }
        // levels travel between layers as bytes: 256 at most
        let mut params = Params::new();
        let config = VggConfig {
            act_levels: 257,
            ..VggConfig::tiny()
        };
        let vgg = Vgg::new(&config, &mut params, &mut Rng::from_seed(7)).unwrap();
        let err = MemseNetwork::from_vgg(&vgg, &params, &probe, &[0.05; 3]).err();
        assert!(
            matches!(
                err,
                Some(TrainError::Tensor(TensorError::InvalidArgument(_)))
            ),
            "{err:?}"
        );
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
        // γ follows GboConfig's rule: finite and non-negative, checked
        // before any walk
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0] {
            let searched = net.analytic_search(&candidates, bad).err();
            let tiled = net.tile_allocation(&candidates, bad).err();
            for err in [searched, tiled] {
                assert!(
                    matches!(
                        err,
                        Some(TrainError::Tensor(TensorError::InvalidArgument(_)))
                    ),
                    "gamma {bad}: {err:?}"
                );
            }
        }
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
        let rescored = net.walk(&tiled.pulses).unwrap();
        assert!((rescored.mse - tiled.mse).abs() < 1e-6);
    }
}
