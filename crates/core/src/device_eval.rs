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
//!
//! Between layers an activation is its quantization level, one byte in
//! NHWC order (DESIGN §18): the periphery counts the pre-activation
//! against thresholds that `tanh` and the quantizer define once per
//! deployment, pools the bytes, and the next layer lowers them through a
//! per-layer table straight into PLA pulse counts.

use membit_data::Dataset;
use membit_encoding::pla::PlaThermometer;
use membit_encoding::{BitEncoder, PulseTrain};
use membit_nn::{Params, Vgg};
use membit_tensor::{im2col_into, tanh, Conv2dGeometry, Rng, Tensor, TensorError};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, ExecutionStats, HealthMonitor, RecoveryPolicy,
    RemapReport, XbarConfig,
};

use crate::Result;

/// Fault-aware deployment policy: what the deployment pipeline does about
/// manufacturing faults at program time and about retention drift during
/// evaluation.
///
/// The default is a bare deployment (no recovery, no monitoring) —
/// existing experiments are unaffected unless they opt in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeploymentPolicy {
    /// Post-programming fault recovery (march test → remap); `None`
    /// deploys whatever programming produced.
    pub recovery: Option<RecoveryPolicy>,
    /// Drift monitoring with refresh; `None` never re-checks deployed
    /// arrays. Only [`DeviceVgg::evaluate`] ticks it:
    /// [`DeviceVgg::forward`] neither counts vectors nor probes, so a
    /// deployment served or driven batch by batch through `forward`
    /// never refreshes.
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

    /// Validates the embedded monitor.
    ///
    /// # Errors
    ///
    /// Propagates [`HealthMonitor::validate`] errors.
    pub fn validate(&self) -> Result<()> {
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

/// One MVM layer of the lowered VGG: how it multiplies (`K`), the
/// im2col geometry of the activations it reads, its folded eval-mode
/// batch norm and whether a 2×2 max pool follows. [`lower`] yields the
/// layers with their deployed weight matrices; [`DeviceVgg`] and the
/// `memse` captures swap in their own operators.
pub(crate) struct MvmLayer<K> {
    pub(crate) kernel: K,
    pub(crate) geom: Conv2dGeometry,
    /// Folded batch norm, per output channel.
    pub(crate) scale: Tensor,
    pub(crate) shift: Tensor,
    pub(crate) pool: bool,
}

impl<K> MvmLayer<K> {
    /// The same layer with another operator.
    pub(crate) fn with_kernel<J>(&self, kernel: J) -> MvmLayer<J> {
        MvmLayer {
            kernel,
            geom: self.geom,
            scale: self.scale.clone(),
            shift: self.shift.clone(),
            pool: self.pool,
        }
    }

    /// Output channels (the MVM's output width).
    pub(crate) fn out_channels(&self) -> usize {
        self.scale.len()
    }

    /// The digital periphery after the MVM, in the level domain. Each
    /// value of `rows` (`[N·OH·OW, out]`, NHWC) gets the folded batch
    /// norm, `x·scale` then `+ shift` (two roundings, as two f32 channel
    /// maps), and becomes the number of `thresholds` at or below it (see
    /// [`level_thresholds`]); then the 2×2 max pool runs on the bytes.
    /// `index` names the layer in errors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a NaN pre-activation
    /// or an odd map to pool, and a shape error when `rows` is not this
    /// layer's output for `n` samples.
    pub(crate) fn periphery(
        &self,
        rows: &Tensor,
        n: usize,
        thresholds: &[f32],
        index: usize,
    ) -> Result<Levels> {
        let (h, w, c) = (self.geom.out_h(), self.geom.out_w(), self.out_channels());
        if rows.shape() != [n * h * w, c] {
            return Err(TensorError::ShapeMismatch {
                op: "periphery",
                lhs: rows.shape().to_vec(),
                rhs: vec![n * h * w, c],
            }
            .into());
        }
        let (scale, shift) = (self.scale.as_slice(), self.shift.as_slice());
        let mut nan = false;
        let mut data = Vec::with_capacity(rows.len());
        for row in rows.as_slice().chunks_exact(c.max(1)) {
            for ((&x, &s), &t) in row.iter().zip(scale).zip(shift) {
                let v = x * s + t;
                nan |= v.is_nan();
                data.push(level_of(v, thresholds));
            }
        }
        if nan {
            return Err(TensorError::InvalidArgument(format!(
                "layer {index} has a NaN pre-activation"
            ))
            .into());
        }
        let levels = Levels { data, n, h, w, c };
        if self.pool {
            levels.max_pool2()
        } else {
            Ok(levels)
        }
    }
}

/// Activations between MVM layers: each value is its level index in
/// `0..act_levels`, one byte, in NHWC order.
pub(crate) struct Levels {
    data: Vec<u8>,
    n: usize,
    h: usize,
    w: usize,
    c: usize,
}

impl Levels {
    /// 2×2 max pool (stride 2). The quantizer is monotone, so the max of
    /// levels is the level of the max.
    fn max_pool2(self) -> Result<Self> {
        let Levels { data, n, h, w, c } = self;
        if h % 2 != 0 || w % 2 != 0 {
            return Err(TensorError::InvalidArgument(format!("cannot 2×2-pool {h}×{w}")).into());
        }
        let (oh, ow) = (h / 2, w / 2);
        let mut out = Vec::with_capacity(n * oh * ow * c);
        for pair in data.chunks_exact((2 * w * c).max(1)) {
            let (top, bottom) = pair.split_at(w * c);
            for ox in 0..ow {
                let (a, b) = (&top[2 * ox * c..][..2 * c], &bottom[2 * ox * c..][..2 * c]);
                out.extend((0..c).map(|ci| a[ci].max(a[c + ci]).max(b[ci]).max(b[c + ci])));
            }
        }
        Ok(Self {
            data: out,
            n,
            h: oh,
            w: ow,
            c,
        })
    }

    /// The patch matrix of these levels under `geom` in `out`, row by
    /// row in im2col's `(ic, kh, kw)` column order, reading level `k` as
    /// `table[k]` and a padding position as the table's last entry.
    fn lower<T: Copy>(&self, geom: &Conv2dGeometry, table: &[T], out: &mut Vec<T>) -> Result<()> {
        let (data, n, h, w, c) = (&self.data, self.n, self.h, self.w, self.c);
        if [c, h, w] != [geom.in_channels, geom.in_h, geom.in_w] {
            return Err(TensorError::ShapeMismatch {
                op: "level lowering",
                lhs: vec![n, h, w, c],
                rhs: vec![n, geom.in_h, geom.in_w, geom.in_channels],
            }
            .into());
        }
        let (oh, ow, patch) = (geom.out_h(), geom.out_w(), geom.patch_len());
        let (kw, taps) = (geom.kernel_w, geom.kernel_h * geom.kernel_w);
        let pad = *table
            .last()
            .expect("a lowering table ends with its padding entry");
        out.clear();
        out.resize(n * oh * ow * patch, pad);
        for (r, row) in out.chunks_exact_mut(patch.max(1)).enumerate() {
            let (ni, oy, ox) = (r / (oh * ow), r / ow % oh, r % ow);
            for ky in 0..geom.kernel_h {
                let Some(iy) = (oy * geom.stride + ky)
                    .checked_sub(geom.padding)
                    .filter(|&y| y < h)
                else {
                    continue;
                };
                for kx in 0..kw {
                    let Some(ix) = (ox * geom.stride + kx)
                        .checked_sub(geom.padding)
                        .filter(|&x| x < w)
                    else {
                        continue;
                    };
                    let pixel = &data[((ni * h + iy) * w + ix) * c..][..c];
                    for (slot, &k) in row[ky * kw + kx..].iter_mut().step_by(taps).zip(pixel) {
                        *slot = table[usize::from(k)];
                    }
                }
            }
        }
        Ok(())
    }

    /// The PLA train of these levels as the next layer's input under
    /// `geom`: level `k` drives `class(k/l·2 − 1)` high pulses, bitwise
    /// what [`BitEncoder::encode_tensor`] emits for that value.
    fn encode(
        &self,
        geom: &Conv2dGeometry,
        act_levels: usize,
        pulses: usize,
    ) -> Result<PulseTrain> {
        let pla = PlaThermometer::new(act_levels, pulses)?;
        // a class is at most the pulse count, which the constructor caps
        // at MAX_NESTED_PULSES: it fits a u16
        let table: Vec<u16> = value_table(act_levels)
            .into_iter()
            .map(|v| pla.class(v) as u16)
            .collect();
        let mut counts = Vec::new();
        self.lower(geom, &table, &mut counts)?;
        let patch = geom.patch_len();
        Ok(PulseTrain::nested_unary(
            counts,
            &[self.n * geom.out_h() * geom.out_w(), patch],
            pulses,
        )?)
    }

    /// The flattened features `[n, c·h·w]` in NCHW order, level `k` read
    /// as `values[k]`: the input of the digital classifier.
    pub(crate) fn features(&self, values: &[f32]) -> Result<Tensor> {
        let geom = Conv2dGeometry::new(self.c, self.h, self.w, self.h, self.w, 1, 0)?;
        let mut buf = Vec::new();
        self.lower(&geom, values, &mut buf)?;
        Ok(Tensor::from_vec(buf, &[self.n, geom.patch_len()])?)
    }
}

/// What an MVM layer reads: the raw images (the first layer only) or the
/// levels the previous layer's periphery produced.
pub(crate) enum LayerInput<'a> {
    Images(&'a Tensor),
    Levels(Levels),
}

impl LayerInput<'_> {
    /// The f32 patch matrix `[rows, patch_len]` under `geom`, built in
    /// `buf`'s allocation (hand it back with `into_vec` for the next
    /// layer): im2col of the images, or the levels read through `values`
    /// (see [`value_table`]).
    pub(crate) fn patches(
        &self,
        geom: &Conv2dGeometry,
        values: &[f32],
        buf: &mut Vec<f32>,
    ) -> Result<Tensor> {
        match self {
            LayerInput::Images(images) => im2col_into(images, geom, buf)?,
            LayerInput::Levels(levels) => levels.lower(geom, values, buf)?,
        }
        let patch = geom.patch_len();
        let rows = buf.len() / patch;
        Ok(Tensor::from_vec(std::mem::take(buf), &[rows, patch])?)
    }
}

/// Level `k`'s value `k/l·2 − 1` (`l = act_levels − 1`) for every level,
/// then `0.0`, the value of a padding position. The values are bitwise
/// what the f32 quantizer `round((clamp(t) + 1)/2·l)/l·2 − 1` returns. At
/// even `act_levels` no level is 0.0, so padding needs its own entry.
pub(crate) fn value_table(act_levels: usize) -> Vec<f32> {
    let l = (act_levels - 1) as f32;
    (0..act_levels)
        .map(|k| k as f32 / l * 2.0 - 1.0)
        .chain([0.0])
        .collect()
}

/// The activation level of pre-activation `v`, `tanh` then the
/// network's quantizer: `round((clamp(tanh v) + 1)/2·l)` for
/// `l = levels − 1`. [`tanh`] is the port that training and calibration
/// run too, so the thresholds keep their bits on any host (DESIGN §18).
fn tanh_level(v: f32, l: f32) -> f32 {
    ((tanh(v).clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round()
}

/// The steps of the activation quantizer: entry `k − 1` is the least f32
/// whose [`tanh_level`] is at least `k`, for `k` in `1..levels`. The
/// quantizer is monotone, so a level is the number of thresholds at or
/// below the value ([`level_of`]), and `tanh` runs only here, a few
/// hundred times per call.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] unless `levels` is in
/// `2..=256`.
pub(crate) fn level_thresholds(levels: usize) -> Result<Vec<f32>> {
    check_act_levels(levels)?;
    let l = (levels - 1) as f32;
    let thresholds = (1..levels)
        .map(|k| {
            let k = k as f32;
            // invariant: tanh_level(below) < k ≤ tanh_level(at), which
            // holds at ±∞ (levels 0 and l)
            let (mut below, mut at) = (order_key(f32::NEG_INFINITY), order_key(f32::INFINITY));
            while at - below > 1 {
                let mid = below + (at - below) / 2;
                if tanh_level(from_order_key(mid), l) >= k {
                    at = mid;
                } else {
                    below = mid;
                }
            }
            from_order_key(at)
        })
        .collect();
    Ok(thresholds)
}

/// The level of a (non-NaN) pre-activation: the number of `thresholds`
/// at or below it.
fn level_of(v: f32, thresholds: &[f32]) -> u8 {
    thresholds.iter().map(|&t| u8::from(t <= v)).sum()
}

/// The position of `v` in the f32 order as a signed magnitude: ±0 share
/// key 0 and adjacent floats differ by one. From −∞ to +∞ the keys span
/// more than `i32` holds.
fn order_key(v: f32) -> i64 {
    let magnitude = i64::from(v.to_bits() & 0x7fff_ffff);
    if v.is_sign_negative() {
        -magnitude
    } else {
        magnitude
    }
}

/// The f32 at `key` of [`order_key`] (+0.0 at key 0).
fn from_order_key(key: i64) -> f32 {
    let magnitude = f32::from_bits(key.unsigned_abs() as u32);
    if key < 0 {
        -magnitude
    } else {
        magnitude
    }
}

/// A per-cell fault rate is a probability: NaN, ±∞ or a value outside
/// `[0, 1]` would inject nothing or saturate the fault count.
fn check_fault_rate(rate: f32) -> Result<()> {
    if (0.0..=1.0).contains(&rate) {
        Ok(())
    } else {
        Err(
            TensorError::InvalidArgument(format!("per-cell fault rate {rate} is outside [0, 1]"))
                .into(),
        )
    }
}

/// Activation levels travel between layers as bytes.
fn check_act_levels(levels: usize) -> Result<()> {
    if (2..=256).contains(&levels) {
        Ok(())
    } else {
        Err(TensorError::InvalidArgument(format!(
            "{levels} activation levels: a level travels as one byte, so 2..=256"
        ))
        .into())
    }
}

/// Lowers the trained `vgg` to its MVM layers in forward order, each
/// with its deployed weight matrix `[out, patch_len]`: the convs (the
/// first runs digitally on a deployment), then the hidden FC as a
/// kernel spanning the whole final feature map, whose im2col rows are
/// the flattened features. The digital classifier is not a layer.
pub(crate) fn lower(vgg: &Vgg, params: &Params) -> Result<Vec<MvmLayer<Tensor>>> {
    let config = vgg.config();
    let (mut h, mut w) = (config.in_h, config.in_w);
    let mut in_ch = config.in_channels;
    let mut layers = Vec::with_capacity(config.channels.len() + 1);
    for (i, (conv, bn)) in vgg.convs().iter().zip(vgg.conv_bns()).enumerate() {
        let geom = Conv2dGeometry::new(in_ch, h, w, 3, 3, 1, 1)?;
        let (scale, shift) = bn.fold_eval(params);
        let layer = MvmLayer {
            kernel: conv
                .deployed_weight(params)
                .reshape(&[conv.out_channels(), geom.patch_len()])?,
            geom,
            scale,
            shift,
            pool: config.pool_after.contains(&i),
        };
        in_ch = conv.out_channels();
        if layer.pool {
            h /= 2;
            w /= 2;
        }
        layers.push(layer);
    }
    let (scale, shift) = vgg.fc_bn().fold_eval(params);
    layers.push(MvmLayer {
        kernel: vgg.fc_hidden().deployed_weight(params),
        geom: Conv2dGeometry::new(in_ch, h, w, h, w, 1, 0)?,
        scale,
        shift,
        pool: false,
    });
    Ok(layers)
}

/// How a layer's MVM is realized on the deployment.
/// (`pub(crate)` so the `memse` analytic pass can walk the deployment.)
pub(crate) enum Kernel {
    /// The first conv runs digitally (the paper keeps it off-crossbar):
    /// just its weight matrix — no crossbar engine exists for it, so it
    /// consumes no programming RNG draws and contributes nothing to
    /// program/recovery stats.
    Digital(Tensor),
    /// A crossbar-deployed layer with its input-encoding pulse count.
    /// (Boxed: the engine dwarfs the digital variant.)
    Crossbar {
        engine: Box<CrossbarLinear>,
        pulses: usize,
    },
}

/// The deployed network. (Fields are `pub(crate)` so the `memse`
/// analytic variance pass can read the deployed engines and periphery
/// without widening the public API.)
pub struct DeviceVgg {
    /// The lowered layers in forward order: the digital first conv, the
    /// crossbar convs, the hidden FC last.
    pub(crate) layers: Vec<MvmLayer<Kernel>>,
    pub(crate) classifier_w: Tensor,
    pub(crate) classifier_b: Tensor,
    pub(crate) act_levels: usize,
    /// The activation quantizer's steps (see [`level_thresholds`]).
    thresholds: Vec<f32>,
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

impl DeviceVgg {
    /// Programs the trained `vgg` onto crossbar hardware.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`], before any array is
    /// programmed, if `cfg.pulses` and `cfg.act_levels` fail the check
    /// [`reconfigure_encoding`](Self::reconfigure_encoding) applies, or
    /// propagates programming errors.
    pub fn deploy(
        vgg: &Vgg,
        params: &Params,
        cfg: &DeviceEvalConfig,
        rng: &mut Rng,
    ) -> Result<Self> {
        let config = vgg.config();
        cfg.policy.validate()?;
        validate_encoding(&cfg.pulses, config.crossbar_layers(), cfg.act_levels)?;
        let thresholds = level_thresholds(cfg.act_levels)?;
        let mut layers = Vec::new();
        for (i, layer) in lower(vgg, params)?.iter().enumerate() {
            let kernel = if i == 0 {
                // the first conv runs digitally: no crossbar engine, no
                // RNG draws, no program/recovery stats for this layer
                Kernel::Digital(layer.kernel.clone())
            } else {
                let mut engine = CrossbarLinear::program(&layer.kernel, &cfg.xbar, rng)?;
                if let Some(policy) = &cfg.policy.recovery {
                    engine.remap(policy, rng)?; // report stays on the engine
                }
                Kernel::Crossbar {
                    engine: Box::new(engine),
                    pulses: cfg.pulses[i - 1],
                }
            };
            layers.push(layer.with_kernel(kernel));
        }
        let classifier_w = vgg.classifier().deployed_weight(params);
        let classifier_b = vgg
            .classifier()
            .bias()
            .map(|id| params.get(id).clone())
            .unwrap_or_else(|| Tensor::zeros(&[config.num_classes]));
        Ok(Self {
            layers,
            classifier_w,
            classifier_b,
            act_levels: cfg.act_levels,
            thresholds,
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
    /// A forward never ticks the deployed [`HealthMonitor`]; only
    /// [`evaluate`](Self::evaluate) counts vectors and probes for drift.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `images` has rank 4,
    /// [`TensorError::InvalidArgument`] naming the layer for a NaN
    /// pre-activation, and propagates shape errors.
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
        let values = value_table(self.act_levels);
        let mut input = LayerInput::Images(images);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let rows = match &mut layer.kernel {
                Kernel::Digital(wmat) => input
                    .patches(&layer.geom, &values, &mut Vec::new())?
                    .matmul(&wmat.transpose()?)?,
                Kernel::Crossbar { engine, pulses } => {
                    let LayerInput::Levels(levels) = &input else {
                        unreachable!("only the digital first layer reads images")
                    };
                    let train = levels.encode(&layer.geom, self.act_levels, *pulses)?;
                    let (y, s) = engine.execute_guarded(&train, rng)?;
                    stats.merge(&s);
                    y
                }
            };
            input = LayerInput::Levels(layer.periphery(&rows, n, &self.thresholds, i)?);
        }
        let LayerInput::Levels(act) = input else {
            unreachable!("a deployment ends with its hidden FC layer")
        };
        let logits = act
            .features(&values)?
            .matmul(&self.classifier_w.transpose()?)?
            .add(&self.classifier_b)?;
        Ok((logits, stats))
    }

    /// Evaluates classification accuracy over a dataset.
    ///
    /// When a [`HealthMonitor`] is deployed, arrays are periodically
    /// probed between batches and drift-refreshed when their measured
    /// conductance decay crosses the monitor's threshold (`&mut self`
    /// exists for exactly this re-programming). This is the only call
    /// that ticks the monitor. The returned stats carry
    /// the fault-exposure fields: `unrecoverable_cells`/`degraded_tiles`
    /// reflect the deployment's recovery outcome (set once, not summed
    /// per batch) and `refreshes` counts the refresh passes this call
    /// triggered.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero `batch_size`,
    /// before any draw; propagates forward errors.
    pub fn evaluate(
        &mut self,
        data: &Dataset,
        batch_size: usize,
        rng: &mut Rng,
    ) -> Result<(f32, ExecutionStats)> {
        let batches = data.batches(batch_size)?;
        let mut stats = ExecutionStats::default();
        let mut correct = 0usize;
        let refreshes_before = self.refreshes;
        for (images, labels) in batches {
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
        for engine in self.engines_mut() {
            if monitor.needs_refresh(engine.measure_decay(rng)) {
                engine.refresh(rng);
                refreshed += 1;
            }
        }
        self.refreshes += refreshed;
    }

    /// Every crossbar engine in deployment order (crossbar convs, then
    /// the hidden FC). The digital first conv and classifier have no
    /// engine.
    fn engines(&self) -> impl Iterator<Item = &CrossbarLinear> {
        self.crossbars().map(|(engine, _)| engine)
    }

    fn engines_mut(&mut self) -> impl Iterator<Item = &mut CrossbarLinear> {
        self.crossbars_mut().map(|(engine, _)| engine)
    }

    /// Every crossbar engine with its pulse count, in deployment order.
    fn crossbars(&self) -> impl Iterator<Item = (&CrossbarLinear, usize)> {
        self.layers.iter().filter_map(|l| match &l.kernel {
            Kernel::Crossbar { engine, pulses } => Some((engine.as_ref(), *pulses)),
            Kernel::Digital(_) => None,
        })
    }

    fn crossbars_mut(&mut self) -> impl Iterator<Item = (&mut CrossbarLinear, &mut usize)> {
        self.layers.iter_mut().filter_map(|l| match &mut l.kernel {
            Kernel::Crossbar { engine, pulses } => Some((engine.as_mut(), pulses)),
            Kernel::Digital(_) => None,
        })
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
    /// Returns [`TensorError::InvalidArgument`], before any draw, unless
    /// `rate` lies in `[0, 1]`; propagates injection errors (coordinates
    /// are drawn in range, so none are expected).
    pub fn inject_faults(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        self.inject(rate, rng, |engine, row, col, side, rng| {
            engine.upset_cell(row, col, side, rng.coin(0.5))
        })
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
    /// As [`Self::inject_faults`].
    pub fn inject_stuck_faults(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        self.inject(rate, rng, |engine, row, col, side, rng| {
            let health = if rng.coin(0.5) {
                CellHealth::StuckOn
            } else {
                CellHealth::StuckOff
            };
            engine.inject_fault(row, col, side, health)
        })
    }

    /// The loop both injectors share: per crossbar engine, draws
    /// `round(cells·rate)` cells — row, column and side, in that order —
    /// and hands each to `hit`, which draws the rest of the fault.
    fn inject(
        &mut self,
        rate: f32,
        rng: &mut Rng,
        mut hit: impl FnMut(
            &mut CrossbarLinear,
            usize,
            usize,
            CellSide,
            &mut Rng,
        ) -> membit_xbar::Result<()>,
    ) -> Result<u64> {
        check_fault_rate(rate)?;
        let mut injected = 0u64;
        for engine in self.engines_mut() {
            let (out, inp) = engine.dims();
            let count = ((out * inp) as f32 * rate).round() as usize;
            for _ in 0..count {
                let row = rng.below(inp);
                let col = rng.below(out);
                let side = if rng.coin(0.5) {
                    CellSide::Pos
                } else {
                    CellSide::Neg
                };
                hit(engine, row, col, side, rng)?;
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

    /// Whether every tile of every crossbar engine is rail-programmed
    /// (see [`CrossbarLinear::packed_ready`]). The name predates the
    /// removal of the bit-packed loops it once gated.
    pub fn packed_ready(&self) -> bool {
        self.engines().all(CrossbarLinear::packed_ready)
    }

    /// The deployment's current per-layer pulse map, in
    /// [`DeviceEvalConfig::pulses`] layout: one entry per crossbar layer
    /// — convs in order, the hidden FC last.
    pub fn encoding(&self) -> Vec<usize> {
        self.crossbars().map(|(_, pulses)| pulses).collect()
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
        // eager validation so the map applies atomically below
        validate_encoding(pulses, self.encoding().len(), self.act_levels)?;
        for ((_, slot), &q) in self.crossbars_mut().zip(pulses) {
            *slot = q;
        }
        Ok(())
    }

    /// Ages every crossbar array by `hours` of retention drift (power-law
    /// conductance decay, per-cell exponent `N(nu, nu_sigma)`) — see
    /// [`membit_xbar::Tile::age`]. The digital first conv and classifier
    /// are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`], before any draw, unless
    /// `hours`, `nu` and `nu_sigma` are finite and non-negative.
    pub fn age(&mut self, hours: f32, nu: f32, nu_sigma: f32, rng: &mut Rng) -> Result<()> {
        for engine in self.engines_mut() {
            engine.age(hours, nu, nu_sigma, rng)?;
        }
        Ok(())
    }
}

/// The one check of a pulse map: one count per crossbar layer, and each
/// count must build a [`PlaThermometer`] over the `act_levels`-level
/// activation grid (2 to 256 levels, 1 to
/// [`MAX_NESTED_PULSES`](membit_encoding::MAX_NESTED_PULSES) pulses).
fn validate_encoding(pulses: &[usize], layers: usize, act_levels: usize) -> Result<()> {
    check_act_levels(act_levels)?;
    if pulses.len() != layers {
        return Err(TensorError::InvalidArgument(format!(
            "{} pulse counts for {layers} crossbar layers",
            pulses.len()
        ))
        .into());
    }
    for &q in pulses {
        PlaThermometer::new(act_levels, q)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memse::MemseNetwork;
    use crate::model::CrossbarModel;
    use crate::trainer::evaluate;
    use crate::TrainError;
    use membit_autograd::Tape;
    use membit_encoding::MAX_NESTED_PULSES;
    use membit_nn::{NoNoise, Phase, VggConfig};
    use membit_tensor::im2col;
    use membit_tensor::parallel::scoped_chunks;

    /// The f32 activation quantizer the level domain replaced:
    /// `round((clamp(t) + 1)/2·l)/l·2 − 1`.
    fn quantize_tensor(t: &Tensor, levels: usize) -> Tensor {
        let l = (levels - 1) as f32;
        t.map(|v| ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() / l * 2.0 - 1.0)
    }

    /// The f32 2×2 max pool (stride 2) over NCHW the level domain
    /// replaced.
    fn max_pool2(x: &Tensor) -> Tensor {
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let src = x.as_slice();
        Tensor::from_fn(&[n, c, h / 2, w / 2], |i| {
            let (plane, oy, ox) = (i / (h / 2 * (w / 2)), i / (w / 2) % (h / 2), i % (w / 2));
            let mut best = f32::NEG_INFINITY;
            for (ky, kx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                best = best.max(src[(plane * h + oy * 2 + ky) * w + ox * 2 + kx]);
            }
            best
        })
    }

    /// The f32 periphery the level domain replaced: the MVM rows back to
    /// NCHW, the folded batch norm as two channel maps, `tanh`, the f32
    /// quantizer and the f32 pool.
    fn oracle_periphery<K>(layer: &MvmLayer<K>, rows: Tensor, n: usize, levels: usize) -> Tensor {
        let (oh, ow) = (layer.geom.out_h(), layer.geom.out_w());
        let mut out = rows
            .into_reshaped(&[n, oh, ow, layer.out_channels()])
            .unwrap()
            .nhwc_to_nchw()
            .unwrap();
        out = out.channel_map(&layer.scale, |v, s| v * s).unwrap();
        out = out.channel_map(&layer.shift, |v, t| v + t).unwrap();
        out = quantize_tensor(&out.tanh(), levels);
        if layer.pool {
            out = max_pool2(&out);
        }
        out
    }

    /// The forward the level domain replaced: per layer an f32 im2col,
    /// `encode_tensor` into the engine (or the digital matmul), then the
    /// f32 periphery.
    fn oracle_forward(
        device: &mut DeviceVgg,
        images: &Tensor,
        rng: &mut Rng,
    ) -> (Tensor, ExecutionStats) {
        let n = images.shape()[0];
        let mut stats = ExecutionStats::default();
        let mut act = images.clone();
        for layer in &mut device.layers {
            let cols = im2col(&act, &layer.geom).unwrap();
            let rows = match &mut layer.kernel {
                Kernel::Digital(wmat) => cols.matmul(&wmat.transpose().unwrap()).unwrap(),
                Kernel::Crossbar { engine, pulses } => {
                    let pla = PlaThermometer::new(device.act_levels, *pulses).unwrap();
                    let train = pla.encode_tensor(&cols).unwrap();
                    let (y, s) = engine.execute_guarded(&train, rng).unwrap();
                    stats.merge(&s);
                    y
                }
            };
            act = oracle_periphery(layer, rows, n, device.act_levels);
        }
        let classifier_w = &device.classifier_w;
        let logits = act
            .into_reshaped(&[n, classifier_w.shape()[1]])
            .unwrap()
            .matmul(&classifier_w.transpose().unwrap())
            .unwrap()
            .add(&device.classifier_b)
            .unwrap();
        (logits, stats)
    }

    /// MemSE's clean logical reference, the same way.
    fn oracle_logical_logits(vgg: &Vgg, params: &Params, probe: &Tensor) -> Tensor {
        let n = probe.shape()[0];
        let mut act = probe.clone();
        for layer in lower(vgg, params).unwrap() {
            let cols = im2col(&act, &layer.geom).unwrap();
            let rows = cols.matmul(&layer.kernel.transpose().unwrap()).unwrap();
            act = oracle_periphery(&layer, rows, n, vgg.config().act_levels);
        }
        let cls_w = vgg.classifier().deployed_weight(params);
        act.into_reshaped(&[n, cls_w.shape()[1]])
            .unwrap()
            .matmul(&cls_w.transpose().unwrap())
            .unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A tiny VGG whose running statistics put pre-activations around
    /// ±1, where `tanh` spreads them over the levels (every level of a
    /// conv layer up to 17 levels, most of them at 256).
    fn spread_vgg(act_levels: usize) -> (Vgg, Params) {
        let mut params = Params::new();
        let config = VggConfig {
            act_levels,
            ..VggConfig::tiny()
        };
        let mut vgg =
            Vgg::new(&config, &mut params, &mut Rng::from_seed(act_levels as u64)).unwrap();
        let fan_ins: Vec<f32> = lower(&vgg, &params)
            .unwrap()
            .iter()
            .map(|l| l.geom.patch_len() as f32)
            .collect();
        let stats: Vec<_> = vgg
            .running_stats()
            .into_iter()
            .zip(fan_ins)
            .map(|((name, mean, _), fan_in)| {
                let c = mean.len();
                let mean = Tensor::from_fn(&[c], |i| ((i % 5) as f32 - 2.0) * fan_in.sqrt() / 8.0);
                (name, mean, Tensor::full(&[c], fan_in / 4.0))
            })
            .collect();
        vgg.set_running_stats(&stats);
        (vgg, params)
    }

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
        // maps PLA cannot encode are refused typed before any array is
        // programmed, so the RNG is untouched: zero pulses, more than a
        // count-coded train holds, fewer than two activation levels, or
        // more than a byte holds
        for (pulses, act_levels) in [
            (vec![8, 0, 8], 9),
            (vec![8, 8, MAX_NESTED_PULSES + 1], 9),
            (vec![8, 8, 8], 0),
            (vec![8, 8, 8], 1),
            (vec![8, 8, 8], 257),
        ] {
            let bad = DeviceEvalConfig {
                pulses,
                act_levels,
                ..cfg.clone()
            };
            let mut before = rng.clone();
            let err = DeviceVgg::deploy(&vgg, &params, &bad, &mut rng).err();
            assert!(
                matches!(
                    err,
                    Some(TrainError::Tensor(TensorError::InvalidArgument(_)))
                ),
                "{bad:?}: {err:?}"
            );
            assert_eq!(rng.uniform(0.0, 1.0), before.uniform(0.0, 1.0));
        }
        // a live swap is validated the same way, and a refused map
        // leaves the old encoding in place
        let cfg = DeviceEvalConfig {
            pulses: vec![8, 8, 8],
            ..cfg
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
        let (logits, stats) = device
            .forward(&Tensor::zeros(&[0, 3, 8, 8]), &mut rng)
            .unwrap();
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
        let images = Tensor::from_fn(&[2, 3, 8, 8], |i| {
            ((i % 17) as f32 / 8.0 - 1.0).clamp(-1.0, 1.0)
        });
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
        let (logits, stats) = device
            .forward(&quantize_tensor(&images, 9), &mut rng)
            .unwrap();
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
        let (_, test3) =
            membit_data::synth_cifar(&membit_data::SynthCifarConfig::tiny(), 1).unwrap();
        // tiny vgg has 4 classes but synth has 10 labels — evaluate on a
        // label-clamped copy to exercise the path
        let labels: Vec<usize> = test3.labels().iter().map(|&y| y % 4).collect();
        let data = Dataset::new(test3.images().clone(), labels, 4).unwrap();
        // a zero batch size is refused typed before any draw
        let mut untouched = rng.clone();
        assert!(matches!(
            device.evaluate(&data, 0, &mut rng),
            Err(TrainError::Tensor(TensorError::InvalidArgument(_)))
        ));
        assert_eq!(rng.uniform(0.0, 1.0), untouched.uniform(0.0, 1.0));
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
            &Tensor::from_fn(&[1, 3, 8, 8], |i| {
                ((i % 11) as f32 / 5.0 - 1.0).clamp(-1.0, 1.0)
            }),
            9,
        );
        let (fresh, _) = device.forward(&images, &mut rng).unwrap();
        let (unaged, _) = device.forward(&images, &mut rng.clone()).unwrap();
        // NaN or negative retention arguments are refused typed, before
        // any draw, and leave the deployment as it was
        for (hours, nu) in [(f32::NAN, 0.05), (100.0, f32::NAN), (-5.0, 0.05)] {
            let untouched = rng.state_bytes();
            let err = device.age(hours, nu, 0.0, &mut rng).err();
            assert!(
                matches!(
                    err,
                    Some(TrainError::Tensor(TensorError::InvalidArgument(_)))
                ),
                "age({hours}, {nu}): {err:?}"
            );
            assert_eq!(rng.state_bytes(), untouched);
        }
        assert_eq!(device.forward(&images, &mut rng.clone()).unwrap().0, unaged);
        device.age(10_000.0, 0.05, 0.0, &mut rng).unwrap();
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
        assert!(
            report.faults_detected > 0,
            "2% stuck rates must trip the march test"
        );
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
                }),
            },
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).unwrap();
        device.age(20_000.0, 0.05, 0.0, &mut rng).unwrap();
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
            &Tensor::from_fn(&[2, 3, 8, 8], |i| {
                ((i % 13) as f32 / 6.0 - 1.0).clamp(-1.0, 1.0)
            }),
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
            &Tensor::from_fn(&[2, 3, 8, 8], |i| {
                ((i % 13) as f32 / 6.0 - 1.0).clamp(-1.0, 1.0)
            }),
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
        let err_faulty = faulty.sub(&clean).unwrap().map(f32::abs).max();
        assert!(
            err_faulty > 0.05,
            "stuck faults must survive refresh: {err_faulty}"
        );
        // march + remap with the SAF error-correction arm
        let report = device
            .remap_all(&RecoveryPolicy::with_ecc(), &mut rng)
            .unwrap();
        assert!(report.faults_detected > 0, "{report:?}");
        let (fixed, stats) = device.forward(&images, &mut rng).unwrap();
        let err_fixed = fixed.sub(&clean).unwrap().map(f32::abs).max();
        assert!(
            err_fixed < err_faulty,
            "repair must shrink the error: {err_faulty} → {err_fixed}"
        );
        if report.cells_corrected > 0 {
            assert!(stats.guard.saf_corrections > 0, "{:?}", stats.guard);
        }
    }

    #[test]
    fn level_domain_is_bitwise_the_f32_chain() {
        for act_levels in [2, 3, 4, 9, 16, 17, 256] {
            let (vgg, params) = spread_vgg(act_levels);
            // PLA ties at 9 levels sit at q = 6, 10, 12 and 14
            for pulses in [vec![6, 10, 14], vec![12, 8, 3]] {
                let cfg = DeviceEvalConfig {
                    xbar: XbarConfig::functional(0.1),
                    pulses,
                    act_levels,
                    policy: DeploymentPolicy::default(),
                };
                let mut device =
                    DeviceVgg::deploy(&vgg, &params, &cfg, &mut Rng::from_seed(5)).unwrap();
                let mut oracle =
                    DeviceVgg::deploy(&vgg, &params, &cfg, &mut Rng::from_seed(5)).unwrap();
                for threads in [1, 2] {
                    device.set_max_threads(threads).unwrap();
                    oracle.set_max_threads(threads).unwrap();
                    for n in [0, 1, 3] {
                        let images = Tensor::from_fn(&[n, 3, 8, 8], |i| {
                            ((i * 7 % 23) as f32 / 11.0 - 1.0) * 1.3
                        });
                        let noise = Rng::from_seed(n as u64 + 40);
                        let (logits, stats) = device.forward(&images, &mut noise.clone()).unwrap();
                        let (want, want_stats) =
                            oracle_forward(&mut oracle, &images, &mut noise.clone());
                        let case = format!(
                            "levels {act_levels}, {:?}, {threads} threads, n {n}",
                            cfg.pulses
                        );
                        assert_eq!(bits(&logits), bits(&want), "{case}");
                        assert_eq!(stats, want_stats, "{case}");
                        if n > 0 && threads == 1 {
                            let net =
                                MemseNetwork::from_vgg(&vgg, &params, &images, &[0.05; 3]).unwrap();
                            let want = oracle_logical_logits(&vgg, &params, &images);
                            assert_eq!(bits(&net.logical_logits), bits(&want), "MemSE, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn thresholds_count_levels_exactly() {
        for levels in [2, 3, 4, 9, 16, 17, 256] {
            let l = (levels - 1) as f32;
            let thresholds = level_thresholds(levels).unwrap();
            assert_eq!(thresholds.len(), levels - 1);
            // each threshold is the least f32 at its level or above, and
            // counts itself
            for (k, &t) in (1..).zip(&thresholds) {
                let before = from_order_key(order_key(t) - 1);
                assert!(
                    tanh_level(t, l) >= k as f32,
                    "levels {levels}, step {k} at {t:e}"
                );
                assert!(
                    tanh_level(before, l) < k as f32,
                    "levels {levels}, step {k} at {t:e}"
                );
                assert_eq!(usize::from(level_of(t, &thresholds)), k, "{levels}, {t:e}");
                assert_eq!(
                    usize::from(level_of(before, &thresholds)),
                    k - 1,
                    "{levels}"
                );
            }
            // every 4001st bit pattern (prime, so every bit varies) and the
            // edge values: the count is the level
            let edges = [
                0.0,
                -0.0,
                f32::from_bits(1),
                -f32::from_bits(1),
                f32::MIN_POSITIVE,
                -f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
                f32::INFINITY,
                f32::NEG_INFINITY,
            ];
            let sweep = (0..=u32::MAX).step_by(4001).map(f32::from_bits);
            let mut checked = 0usize;
            for v in sweep.chain(edges).filter(|v| !v.is_nan()) {
                assert_eq!(
                    f32::from(level_of(v, &thresholds)),
                    tanh_level(v, l),
                    "levels {levels}, {v:e}"
                );
                checked += 1;
            }
            assert!(checked > 1 << 20, "{checked}");
        }
        assert!(level_thresholds(1).is_err());
        assert!(level_thresholds(257).is_err());
    }

    #[test]
    #[ignore = "walks all 2^32 bit patterns, about half a minute in release on two threads"]
    fn thresholds_are_exact_for_every_finite_f32_at_9_levels() {
        let thresholds = level_thresholds(9).unwrap();
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let span = (1u64 << 32).div_ceil(threads as u64);
        let mut mismatches = vec![0usize; threads];
        scoped_chunks(&mut mismatches, 1, threads, |t, slot| {
            let start = t as u64 * span;
            let end = (start + span).min(1 << 32);
            slot[0] = (start..end)
                .map(|b| f32::from_bits(b as u32))
                .filter(|v| {
                    v.is_finite() && f32::from(level_of(*v, &thresholds)) != tanh_level(*v, 8.0)
                })
                .count();
        });
        assert_eq!(mismatches, vec![0; threads]);
    }

    #[test]
    fn periphery_rounds_the_batch_norm_twice() {
        // channels whose x·scale + shift reaches a threshold only when the
        // product is rounded before the add, as two f32 channel maps did:
        // a fused multiply-add lands each of them one level lower
        let thresholds = level_thresholds(9).unwrap();
        let (scale, step) = (1.0f32 / 3.0, thresholds[4]);
        let (xs, shifts): (Vec<f32>, Vec<f32>) = (1..10_000)
            .map(|i| i as f32 * 0.37)
            .map(|x| (x, step - x * scale))
            .filter(|&(x, t)| x * scale + t >= step && x.mul_add(scale, t) < step)
            .take(4)
            .unzip();
        assert_eq!(xs.len(), 4);
        let layer = MvmLayer {
            kernel: (),
            geom: Conv2dGeometry::new(1, 1, 1, 1, 1, 1, 0).unwrap(),
            scale: Tensor::full(&[4], scale),
            shift: Tensor::from_vec(shifts, &[4]).unwrap(),
            pool: false,
        };
        let rows = Tensor::from_vec(xs, &[1, 4]).unwrap();
        let levels = layer.periphery(&rows, 1, &thresholds, 0).unwrap();
        assert_eq!(levels.data, vec![5; 4]);
        let values: Vec<f32> = levels
            .data
            .iter()
            .map(|&k| value_table(9)[usize::from(k)])
            .collect();
        assert_eq!(values, oracle_periphery(&layer, rows, 1, 9).as_slice());
    }

    #[test]
    fn nan_pre_activation_is_a_typed_error_naming_the_layer() {
        let (vgg, params) = tiny_vgg();
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::functional(0.1),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut Rng::from_seed(3)).unwrap();
        let mut images = Tensor::zeros(&[1, 3, 8, 8]);
        images.as_mut_slice()[77] = f32::NAN;
        let err = device.forward(&images, &mut Rng::from_seed(4)).unwrap_err();
        assert!(
            matches!(&err, TrainError::Tensor(TensorError::InvalidArgument(m)) if m.contains("layer 0")),
            "{err}"
        );
        // ±∞ saturate to the end levels, as tanh does
        let layer = lower(&vgg, &params).unwrap().remove(2);
        let rows = Tensor::from_fn(&[16, layer.out_channels()], |i| {
            [f32::NEG_INFINITY, f32::INFINITY][i % 2]
        });
        let levels = layer
            .periphery(&rows, 1, &level_thresholds(9).unwrap(), 2)
            .unwrap();
        let scale_sign = |c: usize| layer.scale.as_slice()[c] > 0.0;
        for (i, &k) in levels.data.iter().enumerate() {
            let c = i % layer.out_channels();
            let high = (c % 2 == 1) == scale_sign(c);
            assert_eq!(k, if high { 8 } else { 0 }, "channel {c}");
        }
        let nan_rows = Tensor::full(&[16, layer.out_channels()], f32::NAN);
        let err = layer
            .periphery(&nan_rows, 1, &level_thresholds(9).unwrap(), 2)
            .err();
        assert!(
            matches!(&err, Some(TrainError::Tensor(TensorError::InvalidArgument(m))) if m.contains("layer 2")),
            "{err:?}"
        );
    }

    #[test]
    fn fault_rates_outside_the_unit_interval_are_refused() {
        let (vgg, params) = tiny_vgg();
        let cfg = DeviceEvalConfig {
            xbar: XbarConfig::functional(0.1),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        };
        let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut Rng::from_seed(3)).unwrap();
        let images = Tensor::from_fn(&[2, 3, 8, 8], |i| {
            ((i % 13) as f32 / 6.0 - 1.0).clamp(-1.0, 1.0)
        });
        let noise = Rng::from_seed(29);
        let (before, _) = device.forward(&images, &mut noise.clone()).unwrap();
        let mut rng = Rng::from_seed(31);
        for rate in [f32::NAN, -0.5, 1.5, f32::INFINITY] {
            let mut untouched = rng.clone();
            for result in [
                device.inject_faults(rate, &mut rng),
                device.inject_stuck_faults(rate, &mut rng),
            ] {
                assert!(
                    matches!(
                        result,
                        Err(TrainError::Tensor(TensorError::InvalidArgument(_)))
                    ),
                    "rate {rate}: {result:?}"
                );
            }
            assert_eq!(rng.uniform(0.0, 1.0), untouched.uniform(0.0, 1.0));
        }
        let (after, _) = device.forward(&images, &mut noise.clone()).unwrap();
        assert_eq!(bits(&before), bits(&after));
    }

    #[test]
    fn max_pool2_reduces_spatial() {
        let levels = Levels {
            data: (0..32).collect(),
            n: 1,
            h: 4,
            w: 4,
            c: 2,
        };
        let pooled = levels.max_pool2().unwrap();
        assert_eq!([pooled.n, pooled.h, pooled.w, pooled.c], [1, 2, 2, 2]);
        // NHWC: pixel y·4 + x holds 2·(y·4 + x) + channel, so each
        // window's max is its bottom-right pixel, per channel
        assert_eq!(pooled.data, vec![10, 11, 14, 15, 26, 27, 30, 31]);
        let odd = Levels {
            data: vec![0; 9],
            n: 1,
            h: 3,
            w: 3,
            c: 1,
        };
        assert!(matches!(
            odd.max_pool2(),
            Err(TrainError::Tensor(TensorError::InvalidArgument(_)))
        ));
    }
}
