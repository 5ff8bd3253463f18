//! Physical non-ideality layer: position-dependent IR drop along the
//! wires and temperature scaling of conductance, noise, and drift.
//!
//! This is the engine's only IR-drop model, derived from wire and load
//! conductances: each cell at (row `i`, col `j`) sees the series
//! resistance of `i + 1` word-line segments, `j + 1` bit-line segments,
//! and the driver/sense loads, so its effective contribution is divided
//! by `1 + G_on · R_series`.
//! The resulting per-tile attenuation map is folded into the tile's
//! weight cache at program time, which keeps every MVM loop bitwise
//! identical to the raw-conductance oracle `Tile::mvm_reference` on ±1/0
//! drives.
//!
//! Temperature enters in three places, all relative to the reference
//! temperature [`T_REF`] (300 K):
//!
//! * **read noise** — thermal (Johnson-like) current noise grows as
//!   `√(T/T_REF)`, scaling both the functional output σ and the
//!   cycle-to-cycle σ;
//! * **on/off ratio** — the off-state leakage is thermally activated
//!   (`exp(Ea/k·(1/T_REF − 1/T))` with a fixed activation constant), so
//!   the usable ratio shrinks at high temperature;
//! * **drift** — conductance relaxation is Arrhenius-accelerated, so
//!   [`CrossbarLinear::age`](crate::CrossbarLinear::age) multiplies the
//!   drift rate by [`NonIdealitySpec::drift_scale`].
//!
//! [`CrossbarLinear::program`](crate::CrossbarLinear::program) resolves
//! the spec *once*, storing the temperature-scaled [`NoiseSpec`] in the
//! engine's config. Everything downstream — guard tolerance, refresh
//! targets, march-test thresholds, upset rails — therefore agrees on the
//! same scaled device by construction.

use membit_tensor::TensorError;

use crate::{NoiseSpec, Result};

/// Reference (rated) operating temperature, kelvin.
pub const T_REF: f32 = 300.0;
/// Lowest rated operating temperature (−40 °C), kelvin.
pub const T_MIN: f32 = 233.15;
/// Highest rated operating temperature (125 °C), kelvin.
pub const T_MAX: f32 = 398.15;

/// Thermal-activation constant for off-state leakage (dimensionless
/// `Ea/(k·T_REF)`-style exponent in the reduced Arrhenius form).
const OFF_ACTIVATION: f32 = 2.0;
/// Thermal-activation constant for conductance drift.
const DRIFT_ACTIVATION: f32 = 6.0;

/// Physical non-ideality specification: wire/load conductances for the
/// IR-drop model plus an operating temperature.
///
/// Attached to [`XbarConfig`](crate::XbarConfig); the default
/// ([`ideal`](Self::ideal)) is ideal wiring at 300 K: no IR drop at
/// all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonIdealitySpec {
    /// Conductance of one wire segment between adjacent cells (µS).
    /// `f32::INFINITY` disables the wire-resistance IR-drop model.
    pub gwire: f32,
    /// Conductance of the driver / sense-amplifier load (µS).
    /// `f32::INFINITY` models ideal (zero-impedance) drivers.
    pub gload: f32,
    /// Operating temperature (kelvin). Must lie in the rated range
    /// [`T_MIN`]..=[`T_MAX`]; [`T_REF`] reproduces the nominal device.
    pub temperature: f32,
}

impl Default for NonIdealitySpec {
    fn default() -> Self {
        Self::ideal()
    }
}

impl NonIdealitySpec {
    /// Ideal wiring and reference temperature — bit-for-bit the
    /// behaviour the engine had before this layer existed.
    pub fn ideal() -> Self {
        Self {
            gwire: f32::INFINITY,
            gload: f32::INFINITY,
            temperature: T_REF,
        }
    }

    /// Representative interconnect for a 128×128 tile in a mature ReRAM
    /// node: wire segments of 5 Ω (200 000 µS) and 1 Ω drivers, giving
    /// ≈ 11 % attenuation at the far corner for `G_on = 100 µS`.
    pub fn realistic() -> Self {
        Self {
            gwire: 2e5,
            gload: 1e6,
            temperature: T_REF,
        }
    }

    /// `self` with a different operating temperature.
    pub fn at_temperature(self, kelvin: f32) -> Self {
        Self {
            temperature: kelvin,
            ..self
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for non-positive or NaN
    /// wire/load conductances, or a temperature outside the rated range
    /// [`T_MIN`]..=[`T_MAX`].
    pub fn validate(&self) -> Result<()> {
        // written to also reject NaN (`NaN > 0.0` is false)
        let positive = |v: f32| v > 0.0;
        if !positive(self.gwire) || !positive(self.gload) {
            return Err(TensorError::InvalidArgument(format!(
                "wire/load conductances must be positive, got gwire = {} / gload = {}",
                self.gwire, self.gload
            )));
        }
        if !(T_MIN..=T_MAX).contains(&self.temperature) {
            return Err(TensorError::InvalidArgument(format!(
                "temperature {} K outside rated range [{T_MIN}, {T_MAX}] K",
                self.temperature
            )));
        }
        Ok(())
    }

    /// IR-drop attenuation of the cell at (row `i`, col `j`): the cell's
    /// current divides down by the series wire + load resistance,
    /// `1 / (1 + G_on · R_series)` with
    /// `R_series = (i+1)/gwire + (j+1)/gwire + 2/gload`.
    ///
    /// Always in `(0, 1]`, and strictly decreasing in both `i` and `j`
    /// whenever `gwire` is finite.
    pub fn attenuation(&self, i: usize, j: usize, g_on: f32) -> f32 {
        let r_series =
            (i as f32 + 1.0) / self.gwire + (j as f32 + 1.0) / self.gwire + 2.0 / self.gload;
        1.0 / (1.0 + g_on * r_series)
    }

    /// Row-major per-cell attenuation map for an `rows × cols` tile, or
    /// `None` when the wiring is ideal (both conductances infinite) and
    /// no scaling is needed.
    pub fn attenuation_map(&self, rows: usize, cols: usize, g_on: f32) -> Option<Vec<f32>> {
        if self.gwire.is_infinite() && self.gload.is_infinite() {
            return None;
        }
        let mut map = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                map.push(self.attenuation(i, j, g_on));
            }
        }
        Some(map)
    }

    /// Thermal scaling of read-noise σ: `√(T / T_REF)`.
    pub fn sigma_scale(&self) -> f32 {
        (self.temperature / T_REF).sqrt()
    }

    /// Arrhenius acceleration of off-state leakage,
    /// `exp(Ea·(1 − T_REF/T))` in reduced form. `1` at `T_REF`.
    pub fn off_scale(&self) -> f32 {
        (OFF_ACTIVATION * (1.0 - T_REF / self.temperature)).exp()
    }

    /// Arrhenius acceleration of conductance drift; multiplies the `nu`
    /// passed to [`CrossbarLinear::age`](crate::CrossbarLinear::age).
    /// `1` at `T_REF`, ≈ 4.4 at 398 K.
    pub fn drift_scale(&self) -> f32 {
        (DRIFT_ACTIVATION * (1.0 - T_REF / self.temperature)).exp()
    }

    /// The temperature-resolved noise model: output σ and c2c σ grow as
    /// `√(T/T_REF)`; the on/off ratio shrinks as off-state leakage is
    /// thermally activated (`ratio' = 1 + (ratio − 1)/off_scale`, which
    /// keeps the ratio > 1 at any rated temperature).
    ///
    /// [`CrossbarLinear::program`](crate::CrossbarLinear::program) calls
    /// this once and stores the result, so the guard tolerance and all
    /// refresh/march targets see the same scaled device.
    pub fn scaled_noise(&self, noise: &NoiseSpec) -> NoiseSpec {
        if self.temperature == T_REF {
            return *noise;
        }
        let s = self.sigma_scale();
        let mut out = *noise;
        out.output_sigma = noise.output_sigma * s;
        out.device.c2c_sigma = noise.device.c2c_sigma * s;
        if noise.device.on_off_ratio.is_finite() {
            out.device.on_off_ratio = 1.0 + (noise.device.on_off_ratio - 1.0) / self.off_scale();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_spec_is_a_no_op() {
        let spec = NonIdealitySpec::ideal();
        spec.validate().unwrap();
        assert!(spec.attenuation_map(8, 8, 100.0).is_none());
        assert_eq!(spec.sigma_scale(), 1.0);
        assert_eq!(spec.drift_scale(), 1.0);
        let noise = NoiseSpec::realistic(0.1);
        assert_eq!(spec.scaled_noise(&noise), noise);
    }

    #[test]
    fn attenuation_is_bounded_and_monotone() {
        let spec = NonIdealitySpec::realistic();
        let (rows, cols, g_on) = (128, 128, 100.0);
        let near = spec.attenuation(0, 0, g_on);
        let far = spec.attenuation(rows - 1, cols - 1, g_on);
        assert!(near > far, "near {near} vs far {far}");
        assert!(near <= 1.0 && near > 0.0);
        // realistic 128×128 corner attenuation ≈ 11 %
        assert!(far < 0.93 && far > 0.85, "far corner = {far}");
        for i in 1..rows {
            assert!(spec.attenuation(i, 0, g_on) < spec.attenuation(i - 1, 0, g_on));
        }
        for j in 1..cols {
            assert!(spec.attenuation(0, j, g_on) < spec.attenuation(0, j - 1, g_on));
        }
    }

    #[test]
    fn temperature_scales_noise_and_ratio() {
        let hot = NonIdealitySpec::ideal().at_temperature(370.0);
        hot.validate().unwrap();
        let noise = NoiseSpec::realistic(0.1);
        let scaled = hot.scaled_noise(&noise);
        let s = (370.0f32 / T_REF).sqrt();
        assert!((scaled.output_sigma - noise.output_sigma * s).abs() < 1e-6);
        assert!((scaled.device.c2c_sigma - noise.device.c2c_sigma * s).abs() < 1e-7);
        assert!(scaled.device.on_off_ratio < noise.device.on_off_ratio);
        assert!(scaled.device.on_off_ratio > 1.0);
        // unchanged knobs stay put
        assert_eq!(scaled.device.g_on, noise.device.g_on);
        assert_eq!(scaled.device.d2d_sigma, noise.device.d2d_sigma);
        assert!(hot.drift_scale() > 1.0);
        // cold operation slows everything down
        let cold = NonIdealitySpec::ideal().at_temperature(250.0);
        assert!(cold.sigma_scale() < 1.0);
        assert!(cold.drift_scale() < 1.0);
        assert!(cold.scaled_noise(&noise).device.on_off_ratio > noise.device.on_off_ratio);
    }

    #[test]
    fn validation_rejects_nonphysical_specs() {
        let mut bad = NonIdealitySpec::ideal();
        bad.gwire = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = NonIdealitySpec::ideal();
        bad.gload = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = NonIdealitySpec::ideal();
        bad.gwire = f32::NAN;
        assert!(bad.validate().is_err());
        let mut bad = NonIdealitySpec::ideal();
        bad.temperature = 150.0;
        assert!(bad.validate().is_err());
        let mut bad = NonIdealitySpec::ideal();
        bad.temperature = 500.0;
        assert!(bad.validate().is_err());
        assert!(NonIdealitySpec::realistic()
            .at_temperature(T_MAX)
            .validate()
            .is_ok());
    }
}
