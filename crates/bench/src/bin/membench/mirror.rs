//! A benchmark-side rebuild of `DeviceVgg` from public calls, with spans
//! around every stage of the forward pass.
//!
//! It programs each `CrossbarLinear` in deploy order on the same RNG
//! stream and copies the digital periphery (`nhwc_to_nchw`, batch-norm
//! fold, `tanh`, quantize, 2×2 max pool), so on the same inputs and RNG
//! state its logits are bitwise equal to `DeviceVgg::forward`. The
//! workloads check that on every traced batch; per-layer numbers from a
//! run where it fails are marked invalid.

use membit_core::DeviceEvalConfig;
use membit_encoding::pla::PlaThermometer;
use membit_encoding::BitEncoder;
use membit_nn::{Params, Vgg};
use membit_tensor::{im2col_into, Conv2dGeometry, Rng, Tensor};
use membit_xbar::{CellHealth, CellSide, CrossbarLinear, ExecutionStats, RecoveryPolicy};

use crate::trace::{conv_layer, SpanId, Tracer};
use crate::Res;

enum Kernel {
    Digital(Tensor),
    Crossbar {
        engine: Box<CrossbarLinear>,
        pulses: usize,
    },
}

struct Conv {
    kernel: Kernel,
    geom: Conv2dGeometry,
    out_channels: usize,
    scale: Tensor,
    shift: Tensor,
    pool: bool,
}

/// The mirrored deployment.
pub struct Mirror {
    convs: Vec<Conv>,
    fc: CrossbarLinear,
    fc_pulses: usize,
    fc_scale: Tensor,
    fc_shift: Tensor,
    cls_w: Tensor,
    cls_b: Tensor,
    feature_dim: usize,
    act_levels: usize,
    /// Activation values pulse-encoded so far.
    pub encoded_values: u64,
}

impl Mirror {
    /// Programs `vgg` as `DeviceVgg::deploy` does, drawing from `rng` in
    /// the same order.
    pub fn deploy(
        vgg: &Vgg,
        params: &Params,
        cfg: &DeviceEvalConfig,
        rng: &mut Rng,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Res<Self> {
        let config = vgg.config();
        let (mut h, mut w, mut in_ch) = (config.in_h, config.in_w, config.in_channels);
        let mut convs = Vec::new();
        for (i, conv) in vgg.convs().iter().enumerate() {
            let oc = conv.out_channels();
            let geom = Conv2dGeometry::new(in_ch, h, w, 3, 3, 1, 1)?;
            let wmat = conv
                .deployed_weight(params)
                .reshape(&[oc, geom.patch_len()])?;
            let (scale, shift) = vgg.conv_bns()[i].fold_eval(params);
            let pool = config.pool_after.contains(&i);
            let kernel = if i == 0 {
                Kernel::Digital(wmat)
            } else {
                Kernel::Crossbar {
                    engine: Box::new(program(&wmat, cfg, rng, tr, parent, conv_layer(i))?),
                    pulses: cfg.pulses[i - 1],
                }
            };
            convs.push(Conv {
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
        let fc = program(&fc_w, cfg, rng, tr, parent, "fc")?;
        let (fc_scale, fc_shift) = vgg.fc_bn().fold_eval(params);
        let cls_b = vgg
            .classifier()
            .bias()
            .map(|id| params.get(id).clone())
            .unwrap_or_else(|| Tensor::zeros(&[config.num_classes]));
        Ok(Self {
            convs,
            fc,
            fc_pulses: *cfg.pulses.last().ok_or("empty pulse map")?,
            fc_scale,
            fc_shift,
            cls_w: vgg.classifier().deployed_weight(params),
            cls_b,
            feature_dim: config.feature_dim(),
            act_levels: cfg.act_levels,
            encoded_values: 0,
        })
    }

    /// One batch, with a span per layer and stage under `parent`.
    pub fn forward(
        &mut self,
        images: &Tensor,
        rng: &mut Rng,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Res<(Tensor, ExecutionStats)> {
        let mut stats = ExecutionStats::default();
        let n = images.shape()[0];
        let levels = self.act_levels;
        let mut act = images.clone();
        let mut col_buf: Vec<f32> = Vec::new();
        for (i, layer) in self.convs.iter_mut().enumerate() {
            let name = conv_layer(i);
            let s = tr.open(parent, name, "tensor.lower");
            im2col_into(&act, &layer.geom, &mut col_buf)?;
            let rows = col_buf.len() / layer.geom.patch_len();
            let cols = Tensor::from_vec(
                std::mem::take(&mut col_buf),
                &[rows, layer.geom.patch_len()],
            )?;
            tr.close(s);
            let out_rows = match &mut layer.kernel {
                Kernel::Digital(wmat) => tr.time(parent, name, "tensor.digital", || {
                    cols.matmul(&wmat.transpose()?)
                })?,
                Kernel::Crossbar { engine, pulses } => {
                    let s = tr.open(parent, name, "encoding.encode");
                    let train = PlaThermometer::new(levels, *pulses)?.encode_tensor(&cols)?;
                    tr.close(s);
                    self.encoded_values += cols.len() as u64;
                    let (y, st) = tr.time(parent, name, "xbar.exec", || {
                        engine.execute_guarded(&train, rng)
                    })?;
                    stats.merge(&st);
                    y
                }
            };
            col_buf = cols.into_vec();
            let (oh, ow, oc) = (layer.geom.out_h(), layer.geom.out_w(), layer.out_channels);
            let (scale, shift, pool) = (&layer.scale, &layer.shift, layer.pool);
            act = tr.time(parent, name, "core.periphery", || -> Res<Tensor> {
                let mut out = out_rows.into_reshaped(&[n, oh, ow, oc])?.nhwc_to_nchw()?;
                out = out.channel_map(scale, |v, s| v * s)?;
                out = out.channel_map(shift, |v, t| v + t)?;
                out = quantize(&out.tanh(), levels);
                if pool {
                    out = max_pool2(&out)?;
                }
                Ok(out)
            })?;
        }
        let s = tr.open(parent, "fc", "core.periphery");
        let flat = act.into_reshaped(&[n, self.feature_dim])?;
        tr.close(s);
        let s = tr.open(parent, "fc", "encoding.encode");
        let train = PlaThermometer::new(levels, self.fc_pulses)?.encode_tensor(&flat)?;
        tr.close(s);
        self.encoded_values += flat.len() as u64;
        let fc = &mut self.fc;
        let (f, st) = tr.time(parent, "fc", "xbar.exec", || {
            fc.execute_guarded(&train, rng)
        })?;
        stats.merge(&st);
        let (scale, shift) = (&self.fc_scale, &self.fc_shift);
        let f = tr.time(parent, "fc", "core.periphery", || -> Res<Tensor> {
            Ok(quantize(&f.mul(scale)?.add(shift)?.tanh(), levels))
        })?;
        let (w, b) = (&self.cls_w, &self.cls_b);
        let logits = tr.time(parent, "cls", "tensor.digital", || -> Res<Tensor> {
            Ok(f.matmul(&w.transpose()?)?.add(b)?)
        })?;
        Ok((logits, stats))
    }

    /// Mirrors `DeviceVgg::reconfigure_encoding`.
    pub fn reconfigure_encoding(&mut self, pulses: &[usize]) {
        let mut it = pulses.iter().copied();
        for layer in &mut self.convs {
            if let Kernel::Crossbar { pulses: p, .. } = &mut layer.kernel {
                *p = it.next().expect("one pulse count per crossbar layer");
            }
        }
        self.fc_pulses = it.next().expect("one pulse count per crossbar layer");
    }

    fn engines_mut(&mut self) -> impl Iterator<Item = &mut CrossbarLinear> {
        self.convs
            .iter_mut()
            .filter_map(|l| match &mut l.kernel {
                Kernel::Crossbar { engine, .. } => Some(engine.as_mut()),
                Kernel::Digital(_) => None,
            })
            .chain(std::iter::once(&mut self.fc))
    }

    /// Mirrors `DeviceVgg::inject_faults` (transient upsets).
    pub fn inject_faults(&mut self, rate: f32, rng: &mut Rng) -> Res<u64> {
        self.inject(rate, rng, |engine, row, col, side, rng| {
            engine.upset_cell(row, col, side, rng.coin(0.5))
        })
    }

    /// Mirrors `DeviceVgg::inject_stuck_faults` (persistent faults).
    pub fn inject_stuck_faults(&mut self, rate: f32, rng: &mut Rng) -> Res<u64> {
        self.inject(rate, rng, |engine, row, col, side, rng| {
            let health = if rng.coin(0.5) {
                CellHealth::StuckOn
            } else {
                CellHealth::StuckOff
            };
            engine.inject_fault(row, col, side, health)
        })
    }

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
    ) -> Res<u64> {
        let mut injected = 0u64;
        for engine in self.engines_mut() {
            let (out, inp) = engine.dims();
            for _ in 0..((out * inp) as f32 * rate).round() as usize {
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

    /// Mirrors `DeviceVgg::remap_all`.
    pub fn remap_all(&mut self, policy: &RecoveryPolicy, rng: &mut Rng) -> Res<()> {
        for engine in self.engines_mut() {
            engine.remap(policy, rng)?;
        }
        Ok(())
    }

    /// Crossbar layers whose every tile is Packed-kernel eligible.
    pub fn packed_ready_layers(&mut self) -> usize {
        self.engines_mut().filter(|e| e.packed_ready()).count()
    }
}

fn program(
    w: &Tensor,
    cfg: &DeviceEvalConfig,
    rng: &mut Rng,
    tr: &mut Tracer,
    parent: SpanId,
    layer: &'static str,
) -> Res<CrossbarLinear> {
    let mut engine = tr.time(parent, layer, "xbar.program", || {
        CrossbarLinear::program(w, &cfg.xbar, rng)
    })?;
    if let Some(policy) = &cfg.policy.recovery {
        tr.time(parent, layer, "xbar.remap", || engine.remap(policy, rng))?;
    }
    Ok(engine)
}

/// The deployment's activation re-quantizer onto `levels` grid points.
fn quantize(t: &Tensor, levels: usize) -> Tensor {
    let l = (levels - 1) as f32;
    t.map(|v| ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() / l * 2.0 - 1.0)
}

/// 2×2 max pool, stride 2, over NCHW.
fn max_pool2(x: &Tensor) -> Res<Tensor> {
    let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
    let (oh, ow) = (h / 2, w / 2);
    let src = x.as_slice();
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for plane in src.chunks_exact(h * w) {
        for oy in 0..oh {
            for ox in 0..ow {
                let at = |dy: usize, dx: usize| plane[(oy * 2 + dy) * w + ox * 2 + dx];
                out.push(at(0, 0).max(at(0, 1)).max(at(1, 0)).max(at(1, 1)));
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
}
