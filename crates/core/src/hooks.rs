//! Concrete MVM noise hooks: the functional crossbar noise models of the
//! paper's evaluation.

use membit_autograd::{Tape, VarId};
use membit_nn::{MvmNoiseHook, Result as NnResult};
use membit_tensor::{Rng, TensorError};

use crate::Result;

/// The paper's Eq. 1/Eq. 3 functional noise: after the MVM of crossbar
/// layer `l`, adds `N(0, (σ_l/√p_l)²)` — per-pulse noise `σ_l` averaged
/// over `p_l` thermometer pulses. A layer with `σ_l = 0` is left clean
/// and draws nothing.
///
/// Used for the Baseline rows (uniform `p = 8`), inside NIA training, as
/// the noise of [`PlaHook`], and as Fig. 2's single-layer probe (`σ` zero
/// except at the probed layer, one pulse per layer).
#[derive(Debug)]
pub struct GaussianMvmNoise {
    sigma: Vec<f32>,
    pulses: Vec<usize>,
    rng: Rng,
}

impl GaussianMvmNoise {
    /// Creates the hook from per-layer per-pulse noise `σ_l` and pulse
    /// counts `p_l`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on length mismatch, a
    /// zero pulse count, or a NaN, infinite or negative `σ_l` (zero is
    /// legal: that layer stays clean).
    pub fn new(sigma: Vec<f32>, pulses: Vec<usize>, rng: Rng) -> Result<Self> {
        if sigma.len() != pulses.len() {
            return Err(TensorError::InvalidArgument(format!(
                "{} sigmas but {} pulse counts",
                sigma.len(),
                pulses.len()
            ))
            .into());
        }
        if pulses.contains(&0) {
            return Err(TensorError::InvalidArgument("pulse counts must be nonzero".into()).into());
        }
        if let Some(bad) = sigma.iter().find(|s| !(s.is_finite() && **s >= 0.0)) {
            return Err(TensorError::InvalidArgument(format!(
                "noise level {bad} must be finite and non-negative"
            ))
            .into());
        }
        Ok(Self { sigma, pulses, rng })
    }

    /// Uniform-pulse constructor: the same `σ` and `p` for all `layers`.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn uniform(layers: usize, sigma: f32, pulses: usize, rng: Rng) -> Result<Self> {
        Self::new(vec![sigma; layers], vec![pulses; layers], rng)
    }

    /// The pulse count `p_l` of crossbar layer `layer`, or a typed error
    /// past the last layer the hook covers.
    fn pulses_at(&self, layer: usize) -> NnResult<usize> {
        check_layer(layer, self.pulses.len())?;
        Ok(self.pulses[layer])
    }
}

/// Rejects crossbar layer `layer` of a model deeper than the `layers` a
/// hook was sized for.
fn check_layer(layer: usize, layers: usize) -> NnResult<()> {
    if layer < layers {
        Ok(())
    } else {
        Err(TensorError::InvalidArgument(format!(
            "noise hook covers crossbar layers 0..{layers} but the model reached layer {layer}"
        )))
    }
}

impl MvmNoiseHook for GaussianMvmNoise {
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> NnResult<VarId> {
        let pulses = self.pulses_at(layer)?;
        let std = self.sigma[layer] / (pulses as f32).sqrt();
        if std == 0.0 {
            return Ok(mvm_out);
        }
        let shape = tape.value(mvm_out).shape().to_vec();
        let noise = self.rng.normal_tensor(&shape, 0.0, std);
        let c = tape.constant(noise);
        tape.add(mvm_out, c)
    }

    fn state_rng(&self) -> Option<&Rng> {
        Some(&self.rng)
    }

    fn state_rng_mut(&mut self) -> Option<&mut Rng> {
        Some(&mut self.rng)
    }
}

/// PLA evaluation hook (paper §III-B + Table I): crossbar layer `l` runs a
/// `q_l`-pulse thermometer code, so
///
/// * its **input activations** are snapped onto the `q_l + 1` levels the
///   code can represent (`encode`), and
/// * its MVM output picks up `N(0, σ_l²/q_l)` accumulated noise (`apply`,
///   a [`GaussianMvmNoise`] over the same pulse counts).
///
/// Uniform `q = 8` with 9-level activations reduces exactly to the
/// Baseline (the snap is the identity). Per-layer `q_l` vectors express
/// GBO's heterogeneous solutions.
#[derive(Debug)]
pub struct PlaHook {
    noise: GaussianMvmNoise,
    act_levels: usize,
}

impl PlaHook {
    /// Creates the hook from per-layer pulse counts, per-layer per-pulse
    /// noise `σ_l`, and the network's activation level count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on length mismatches or
    /// degenerate parameters, a NaN, infinite or negative `σ_l` included
    /// (see [`GaussianMvmNoise::new`]).
    pub fn new(pulses: Vec<usize>, sigma: Vec<f32>, act_levels: usize, rng: Rng) -> Result<Self> {
        let noise = GaussianMvmNoise::new(sigma, pulses, rng)?;
        if act_levels < 2 {
            return Err(TensorError::InvalidArgument("act_levels must be ≥ 2".into()).into());
        }
        Ok(Self { noise, act_levels })
    }

    /// Uniform-pulse constructor (`PLA_q` rows of Table I).
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn uniform(
        layers: usize,
        pulses: usize,
        sigma: f32,
        act_levels: usize,
        rng: Rng,
    ) -> Result<Self> {
        Self::new(vec![pulses; layers], vec![sigma; layers], act_levels, rng)
    }

    /// Average pulse count across layers.
    pub fn avg_pulses(&self) -> f32 {
        let pulses = &self.noise.pulses;
        pulses.iter().sum::<usize>() as f32 / pulses.len().max(1) as f32
    }
}

impl MvmNoiseHook for PlaHook {
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> NnResult<VarId> {
        self.noise.apply(tape, layer, mvm_out)
    }

    fn encode(&mut self, tape: &mut Tape, layer: usize, input: VarId) -> NnResult<VarId> {
        let q = self.noise.pulses_at(layer)?;
        if q == self.act_levels - 1 || q.is_multiple_of(self.act_levels - 1) {
            // exact representation (the base code or an integer-ensemble
            // multiple of it) — no approximation error
            return Ok(input);
        }
        // snap onto the q+1 levels a q-pulse thermometer code carries,
        // with the paper's sign-directed (bias-free) tie-breaking
        tape.pla_quantize_ste(input, self.act_levels, q)
    }

    fn state_rng(&self) -> Option<&Rng> {
        self.noise.state_rng()
    }

    fn state_rng_mut(&mut self) -> Option<&mut Rng> {
        self.noise.state_rng_mut()
    }
}

/// Calibration hook: records the running RMS of every crossbar layer's
/// clean MVM output. Drives [`calibrate_noise`](crate::calibrate_noise).
#[derive(Debug, Clone)]
pub struct RmsRecorder {
    sum_sq: Vec<f64>,
    count: Vec<u64>,
}

impl RmsRecorder {
    /// Creates a recorder for `layers` crossbar layers.
    pub fn new(layers: usize) -> Self {
        Self {
            sum_sq: vec![0.0; layers],
            count: vec![0; layers],
        }
    }

    /// RMS of each layer observed so far (0 for unobserved layers).
    pub fn rms(&self) -> Vec<f32> {
        self.sum_sq
            .iter()
            .zip(&self.count)
            .map(|(&s, &c)| {
                if c == 0 {
                    0.0
                } else {
                    (s / c as f64).sqrt() as f32
                }
            })
            .collect()
    }
}

impl MvmNoiseHook for RmsRecorder {
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> NnResult<VarId> {
        check_layer(layer, self.sum_sq.len())?;
        let v = tape.value(mvm_out);
        self.sum_sq[layer] += v
            .as_slice()
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum::<f64>();
        self.count[layer] += v.len() as u64;
        Ok(mvm_out)
    }
}

/// When a [`NanFault`] hook injects its poison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanFaultMode {
    /// Inject NaN on exactly one forward pass (0-based index), then go
    /// quiet — a transient fault the watchdog should roll back and
    /// outlive.
    OnceAt(usize),
    /// Inject NaN on every forward pass from the given index onward — a
    /// persistent fault that must surface as
    /// [`TrainError::Diverged`](crate::TrainError::Diverged).
    AlwaysFrom(usize),
}

/// Fault-injection hook: corrupts the first crossbar layer's MVM output
/// with NaN on scheduled forward passes. Exists so the test suite can
/// prove the watchdog's recovery paths actually fire; it is not a noise
/// model.
///
/// The pass counter deliberately does **not** participate in rollback
/// snapshots: a `OnceAt` fault stays spent after the watchdog rewinds,
/// which is exactly how a transient hardware glitch behaves.
#[derive(Debug)]
pub struct NanFault {
    mode: NanFaultMode,
    passes: usize,
}

impl NanFault {
    /// A transient fault on forward pass `n`.
    pub fn once_at(n: usize) -> Self {
        Self {
            mode: NanFaultMode::OnceAt(n),
            passes: 0,
        }
    }

    /// A persistent fault from forward pass `n` onward.
    pub fn always_from(n: usize) -> Self {
        Self {
            mode: NanFaultMode::AlwaysFrom(n),
            passes: 0,
        }
    }

    /// Forward passes seen so far.
    pub fn passes(&self) -> usize {
        self.passes
    }

    fn fires(&self, pass: usize) -> bool {
        match self.mode {
            NanFaultMode::OnceAt(n) => pass == n,
            NanFaultMode::AlwaysFrom(n) => pass >= n,
        }
    }
}

impl MvmNoiseHook for NanFault {
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> NnResult<VarId> {
        if layer != 0 {
            return Ok(mvm_out);
        }
        let pass = self.passes;
        self.passes += 1;
        if !self.fires(pass) {
            return Ok(mvm_out);
        }
        let shape = tape.value(mvm_out).shape().to_vec();
        let len: usize = shape.iter().product();
        let poison = tape.constant(membit_tensor::Tensor::from_vec(
            vec![f32::NAN; len],
            &shape,
        )?);
        tape.add(mvm_out, poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_tensor::Tensor;

    fn setup(shape: &[usize]) -> (Tape, VarId) {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(shape));
        (tape, x)
    }

    #[test]
    fn gaussian_noise_scales_with_inverse_sqrt_pulses() {
        let rng = Rng::from_seed(0);
        let mut hook8 = GaussianMvmNoise::uniform(1, 8.0, 8, rng.clone()).unwrap();
        let mut hook32 = GaussianMvmNoise::uniform(1, 8.0, 32, rng).unwrap();
        let (mut t1, x1) = setup(&[40_000]);
        let y1 = hook8.apply(&mut t1, 0, x1).unwrap();
        let (mut t2, x2) = setup(&[40_000]);
        let y2 = hook32.apply(&mut t2, 0, x2).unwrap();
        let s1 = t1.value(y1).std();
        let s2 = t2.value(y2).std();
        assert!((s1 - 8.0 / 8f32.sqrt()).abs() < 0.05, "s1 = {s1}");
        assert!((s2 - 8.0 / 32f32.sqrt()).abs() < 0.05, "s2 = {s2}");
    }

    #[test]
    fn zero_sigma_is_identity() {
        let rng = Rng::from_seed(0);
        let mut hook = GaussianMvmNoise::uniform(2, 0.0, 8, rng).unwrap();
        let (mut t, x) = setup(&[4]);
        assert_eq!(hook.apply(&mut t, 1, x).unwrap(), x);
    }

    #[test]
    fn constructors_validate() {
        let rng = Rng::from_seed(0);
        assert!(GaussianMvmNoise::new(vec![1.0], vec![8, 8], rng.clone()).is_err());
        assert!(GaussianMvmNoise::new(vec![1.0], vec![0], rng.clone()).is_err());
        assert!(PlaHook::new(vec![8], vec![1.0, 2.0], 9, rng.clone()).is_err());
        assert!(PlaHook::new(vec![0], vec![1.0], 9, rng.clone()).is_err());
        assert!(PlaHook::new(vec![8], vec![1.0], 1, rng).is_err());
    }

    #[test]
    fn non_finite_or_negative_sigma_is_rejected_typed() {
        let rng = Rng::from_seed(0);
        for bad in [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.0,
            -f32::MIN_POSITIVE,
        ] {
            let errs = [
                GaussianMvmNoise::new(vec![0.5, bad], vec![8, 8], rng.clone()).err(),
                GaussianMvmNoise::uniform(2, bad, 8, rng.clone()).err(),
                PlaHook::new(vec![8, 8], vec![bad, 0.5], 9, rng.clone()).err(),
                PlaHook::uniform(2, 8, bad, 9, rng.clone()).err(),
            ];
            for err in errs {
                assert!(
                    matches!(
                        err,
                        Some(crate::TrainError::Tensor(TensorError::InvalidArgument(_)))
                    ),
                    "sigma {bad}: {err:?}"
                );
            }
        }
        // zero noise stays legal: Fig. 2's single-layer probe relies on it
        assert!(GaussianMvmNoise::uniform(2, 0.0, 8, rng.clone()).is_ok());
        assert!(PlaHook::uniform(2, 8, 0.0, 9, rng).is_ok());
    }

    #[test]
    fn pla_baseline_encode_is_identity() {
        let rng = Rng::from_seed(1);
        let mut hook = PlaHook::uniform(1, 8, 1.0, 9, rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![0.25, -0.5], &[2]).unwrap());
        let y = hook.encode(&mut tape, 0, x).unwrap();
        assert_eq!(x, y); // q = act_levels − 1 ⇒ no snap node
    }

    #[test]
    fn pla_snap_changes_representation() {
        let rng = Rng::from_seed(1);
        let mut hook = PlaHook::uniform(1, 10, 1.0, 9, rng).unwrap();
        let mut tape = Tape::new();
        // 9-level value 0.25 is not representable with 11 levels (step 0.2)
        let x = tape.constant(Tensor::from_vec(vec![0.25], &[1]).unwrap());
        let y = hook.encode(&mut tape, 0, x).unwrap();
        let v = tape.value(y).item();
        assert!((v - 0.2).abs() < 1e-6, "snapped to {v}");
        assert_eq!(hook.avg_pulses(), 10.0);
    }

    #[test]
    fn single_layer_noise_targets_one_layer() {
        // Fig. 2's probe: σ only at layer 1, one pulse per layer
        let rng = Rng::from_seed(2);
        let mut hook = GaussianMvmNoise::new(vec![0.0, 5.0], vec![1, 1], rng).unwrap();
        let (mut t, x) = setup(&[100]);
        let before = hook.state_rng().unwrap().state_bytes();
        assert_eq!(hook.apply(&mut t, 0, x).unwrap(), x); // untouched
        assert_eq!(hook.state_rng().unwrap().state_bytes(), before); // no draw
        let y = hook.apply(&mut t, 1, x).unwrap();
        assert_ne!(y, x);
        assert!(t.value(y).std() > 1.0);
    }

    #[test]
    fn hooks_sized_for_fewer_layers_fail_typed() {
        use crate::{evaluate_with_hook, TrainError};
        use membit_data::{synth_cifar, SynthCifarConfig};
        use membit_nn::{Mlp, MlpConfig, Params};

        let mut params = Params::new();
        let cfg = MlpConfig::new(3 * 8 * 8, &[8, 6], 10);
        let mut mlp = Mlp::new(&cfg, &mut params, &mut Rng::from_seed(3)).unwrap();
        let (_, test) = synth_cifar(&SynthCifarConfig::tiny(), 4).unwrap();
        let rng = Rng::from_seed(5);
        let hooks: [Box<dyn MvmNoiseHook>; 3] = [
            Box::new(GaussianMvmNoise::uniform(1, 1.0, 8, rng.clone()).unwrap()),
            Box::new(PlaHook::uniform(1, 10, 1.0, 9, rng).unwrap()),
            Box::new(RmsRecorder::new(1)),
        ];
        for mut hook in hooks {
            let err = evaluate_with_hook(&mut mlp, &params, &test, 20, hook.as_mut()).unwrap_err();
            assert!(
                matches!(
                    &err,
                    TrainError::Tensor(TensorError::InvalidArgument(m))
                        if m.contains("0..1") && m.contains("layer 1")
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn nan_fault_fires_on_schedule() {
        let mut once = NanFault::once_at(1);
        let mut always = NanFault::always_from(1);
        for pass in 0..4 {
            let (mut t, x) = setup(&[3]);
            let y = once.apply(&mut t, 0, x).unwrap();
            let poisoned = t.value(y).as_slice().iter().any(|v| v.is_nan());
            assert_eq!(poisoned, pass == 1, "once_at pass {pass}");
            let (mut t, x) = setup(&[3]);
            let y = always.apply(&mut t, 0, x).unwrap();
            let poisoned = t.value(y).as_slice().iter().any(|v| v.is_nan());
            assert_eq!(poisoned, pass >= 1, "always_from pass {pass}");
        }
        // non-target layers are never poisoned and don't advance the counter
        let mut h = NanFault::once_at(0);
        let (mut t, x) = setup(&[2]);
        assert_eq!(h.apply(&mut t, 1, x).unwrap(), x);
        assert_eq!(h.passes(), 0);
    }

    #[test]
    fn rms_recorder_measures_rms() {
        let mut rec = RmsRecorder::new(2);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![3.0, -4.0], &[2]).unwrap());
        rec.apply(&mut tape, 0, x).unwrap();
        let rms = rec.rms();
        assert!((rms[0] - (12.5f32).sqrt()).abs() < 1e-5);
        assert_eq!(rms[1], 0.0);
        // second batch accumulates
        rec.apply(&mut tape, 0, x).unwrap();
        assert!((rec.rms()[0] - (12.5f32).sqrt()).abs() < 1e-5);
    }
}
