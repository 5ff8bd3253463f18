//! One physical crossbar tile: programmed conductance pairs plus the
//! per-pulse analog MVM and the fault-recovery primitives the remapper
//! composes.
//!
//! Every dense MVM runs the cached loop over the materialized effective
//! weights. On ±1/0 drives it is bitwise [`Tile::mvm_reference`], the
//! raw-conductance oracle: the cache stores exactly
//! `(G⁺−G⁻)·attenuation/(G_on−G_off)` per cell, and multiplying that by
//! ±1 is exact.

use membit_tensor::{Rng, Tensor, TensorError};

use crate::device::{CellHealth, DeviceModel};
use crate::fault::{CellFault, CellSide, FaultMap, MarchTestConfig};
use crate::noise::NoiseSpec;
use crate::program::{program_cell_verified_with_health, ProgramStats, WriteVerify};
use crate::Result;

/// Derived per-cell quantities the reference oracle recomputes on every
/// pulse, materialized once per programming event. Maintained **eagerly**:
/// every `Tile` mutator rebuilds or patches it before returning, so a
/// stale cache is impossible by construction — there is no dirty flag to
/// forget.
#[derive(Debug, Clone)]
struct WeightCache {
    /// `(G⁺−G⁻)·attenuation/(G_on−G_off)` per cell, row-major. The
    /// column polarity sign is *not* folded in (it changes digitally
    /// without re-programming; keeping it out lets `flip_column` patch a
    /// single column).
    w_eff: Vec<f32>,
    /// `G⁺²+G⁻²` per cell, row-major — the per-cell cycle-to-cycle
    /// variance contribution (input-independent because `x²=1` for
    /// active binary inputs).
    g_sq: Vec<f32>,
    /// Per-column sum of `g_sq` over rows in ascending order — the
    /// aggregated c2c variance when *every* row is driven at ±1, which
    /// is exactly the case for nested-unary pulse trains. Ascending-row
    /// summation keeps it bitwise equal to the reference oracle's
    /// accumulated scratch.
    col_sq: Vec<f32>,
}

/// Whether every value of `vals` has the bits of the first one, `c`,
/// and every integer multiple `m·c` for `m ≤ max_m` rounds exactly: the
/// f32 product must equal the infinitely precise product (computed in
/// f64, exact because both mantissas fit well within f64's 53 bits for
/// any realistic tile height). Then every partial sum of a sequential
/// f32 sum of up to `max_m` terms `±c` is representable, so each
/// rounding step is exact (induction over the terms).
fn uniform_with_exact_multiples(mut vals: impl Iterator<Item = f32>, max_m: usize) -> bool {
    let c = vals.next().unwrap_or(0.0);
    if max_m > (1 << 24) || vals.any(|v| v.to_bits() != c.to_bits()) {
        return false; // beyond 2^24, m itself would no longer be exact in f32
    }
    let cd = f64::from(c);
    (2..=max_m).all(|m| f64::from(m as f32 * c) == m as f64 * cd)
}

/// The ABFT checksum column of an armed tile: a snapshot of the per-row
/// sums taken at arming time. Deliberately **not** maintained eagerly by
/// mutators (unlike [`WeightCache`]): the snapshot is the *reference* the
/// guard compares live readouts against, so uncommanded physics (aging,
/// fault injection, disturbance) must leave it stale — that staleness is
/// exactly what makes the resulting corruption detectable. Only the
/// engine re-arms, and only after commanded, verified repair (remap).
#[derive(Debug, Clone)]
struct GuardColumn {
    /// Per-row signed effective-weight sum `Σ_j sign_j·w_eff[i][j]` — the
    /// idealized conductance the checksum column stores, so the clean
    /// checksum readout is `Σ_i x_i·w_chk[i] = Σ_j y_j`.
    w_chk: Vec<f32>,
    /// Per-row sum of `G⁺²+G⁻²` over the tile's columns: `Σ_i x_i²·chk_sq[i]`
    /// is the aggregated cycle-to-cycle variance numerator of the full
    /// readout, used both to draw the checksum's own c2c noise and to
    /// derive the comparison tolerance.
    chk_sq: Vec<f32>,
}

/// Per-column second-moment aggregates of a tile's physical state, for
/// analytic (MemSE-style) variance propagation. All sums run over the
/// tile's rows; entries are indexed by local column. Built by
/// [`Tile::variance_stats`].
#[derive(Debug, Clone)]
pub struct TileVarianceStats {
    /// `Σ_rows (G⁺² + G⁻²)` per column — the aggregated c2c read-noise
    /// mass when every row is driven at ±1 (the full-drive case of
    /// binary trains); multiply by `(σ_c2c/(G_on−G_off))²` for the
    /// per-pulse variance the kernels realize.
    pub col_gsq: Vec<f32>,
    /// `Σ_rows (sign·w_eff − logical)²` per column — the *persistent*
    /// squared programming error (d2d spread, IR-drop attenuation,
    /// stuck cells, drift) between the deployed and the logical ±1
    /// weights. Deterministic across reads: it biases outputs rather
    /// than fluctuating.
    pub col_weight_err_sq: Vec<f32>,
    /// `Σ_rows w_eff²` per column — the deployed weight energy, the
    /// gain that scales input-side error variance through the column.
    pub col_weff_sq: Vec<f32>,
}

/// A `rows × cols` crossbar tile storing binary weights as differential
/// conductance pairs.
///
/// Rows are wordlines (driven by input pulses, ±1 V bipolar), columns are
/// differential bitline pairs. The tile keeps the *logical* ±1 weights it
/// was asked to store alongside the physical state, so it can be
/// re-programmed (refresh after drift) and march-tested (read-back vs
/// target) at any point in its service life.
///
/// Stuck faults are a **persistent** per-cell property drawn once at
/// construction ([`CellHealth`]): re-programming a stuck cell lands on
/// its pinned level again, which is what makes remapping — rather than
/// rewriting — the only cure. Each column additionally carries a digital
/// polarity sign (`col_sign`): programming the column with inverted
/// targets and negating its output digitally computes the same product,
/// but moves each stuck cell's error to the *opposite* logical weight
/// sign — the cheapest remapping lever a differential array has.
#[derive(Debug, Clone)]
pub struct Tile {
    rows: usize,
    cols: usize,
    /// Logical binary weights, row-major, entries ±1.
    logical: Vec<f32>,
    /// Per-column digital polarity correction, entries ±1.
    col_sign: Vec<f32>,
    /// As-programmed conductance of the positive cell, row-major.
    g_pos: Vec<f32>,
    /// As-programmed conductance of the negative cell, row-major.
    g_neg: Vec<f32>,
    /// Persistent health of the positive cells, row-major.
    health_pos: Vec<CellHealth>,
    /// Persistent health of the negative cells, row-major.
    health_neg: Vec<CellHealth>,
    /// Per-cell IR-drop attenuation (all 1.0 when disabled), row-major.
    attenuation: Vec<f32>,
    device: DeviceModel,
    /// Always-valid derived state for the cached loop and the delta
    /// schedule.
    cache: WeightCache,
    /// ABFT checksum snapshot; `None` until the engine arms the tile.
    guard: Option<GuardColumn>,
    /// Digital SAF/ECC correction table: `(row, col, delta)` entries the
    /// engine adds as `x[row]·delta` to column `col` of every accepted
    /// readout. Built by the remapper from march-test read-backs of
    /// *residual* stuck cells (the ones the analog ladder could not
    /// cure); empty when the correction arm is off. Cleared by
    /// [`inject_fault`](Self::inject_fault) /
    /// [`upset_cell`](Self::upset_cell): a new fault invalidates the
    /// measured deltas.
    saf: Vec<(usize, usize, f32)>,
}

impl Tile {
    /// Programs a tile from logical binary weights `w` (`[rows, cols]`,
    /// entries ±1; any positive value maps to +1).
    ///
    /// # Errors
    ///
    /// Returns rank/validation errors for non-matrix input or an invalid
    /// device model.
    pub fn program(w: &Tensor, device: &DeviceModel, rng: &mut Rng) -> Result<Self> {
        let mut tile = Self::allocate(w, device, rng)?;
        for idx in 0..tile.rows * tile.cols {
            let on = tile.logical[idx] >= 0.0;
            tile.g_pos[idx] = device.program_cell_with_health(tile.health_pos[idx], on, rng);
            tile.g_neg[idx] = device.program_cell_with_health(tile.health_neg[idx], !on, rng);
        }
        tile.rebuild_cache();
        Ok(tile)
    }

    /// Programs a tile with write-and-verify (see
    /// [`WriteVerify`]): each cell is iteratively re-programmed until its
    /// conductance sits within tolerance, returning the endurance/energy
    /// counters alongside the tile.
    ///
    /// # Errors
    ///
    /// Propagates device/policy validation and shape errors.
    pub fn program_verified(
        w: &Tensor,
        device: &DeviceModel,
        policy: &WriteVerify,
        rng: &mut Rng,
    ) -> Result<(Self, ProgramStats)> {
        policy.validate()?;
        let mut tile = Self::allocate(w, device, rng)?;
        let mut stats = ProgramStats::default();
        for idx in 0..tile.rows * tile.cols {
            let on = tile.logical[idx] >= 0.0;
            tile.g_pos[idx] = program_cell_verified_with_health(
                device,
                tile.health_pos[idx],
                on,
                policy,
                rng,
                &mut stats,
            );
            tile.g_neg[idx] = program_cell_verified_with_health(
                device,
                tile.health_neg[idx],
                !on,
                policy,
                rng,
                &mut stats,
            );
        }
        tile.rebuild_cache();
        Ok((tile, stats))
    }

    /// Validates the weights, draws the persistent cell healths, and
    /// builds the (not yet programmed) tile.
    fn allocate(w: &Tensor, device: &DeviceModel, rng: &mut Rng) -> Result<Self> {
        if w.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "tile program",
                expected: 2,
                actual: w.rank(),
            });
        }
        device.validate()?;
        let (rows, cols) = (w.shape()[0], w.shape()[1]);
        let cells = rows * cols;
        let logical: Vec<f32> = w
            .as_slice()
            .iter()
            .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        let mut health_pos = Vec::with_capacity(cells);
        let mut health_neg = Vec::with_capacity(cells);
        for _ in 0..cells {
            health_pos.push(device.sample_health(rng));
            health_neg.push(device.sample_health(rng));
        }
        let alpha = device.ir_drop_alpha;
        let attenuation = (0..cells)
            .map(|idx| {
                if alpha == 0.0 {
                    1.0
                } else {
                    let (i, j) = (idx / cols, idx % cols);
                    1.0 - alpha * (i as f32 / rows as f32 + j as f32 / cols as f32) / 2.0
                }
            })
            .collect();
        Ok(Self {
            rows,
            cols,
            logical,
            col_sign: vec![1.0; cols],
            g_pos: vec![0.0; cells],
            g_neg: vec![0.0; cells],
            health_pos,
            health_neg,
            attenuation,
            device: *device,
            cache: WeightCache {
                w_eff: vec![0.0; cells],
                g_sq: vec![0.0; cells],
                col_sq: vec![0.0; cols],
            },
            guard: None,
            saf: Vec::new(),
        })
    }

    /// Folds a per-cell attenuation map (row-major, from
    /// [`NonIdealitySpec::attenuation_map`](crate::NonIdealitySpec::attenuation_map))
    /// into the tile, multiplying element-wise with whatever first-order
    /// [`DeviceModel::ir_drop_alpha`] attenuation the tile already
    /// carries, and rebuilds the weight cache — so the execution loops
    /// keep agreeing bitwise with [`mvm_reference`](Self::mvm_reference).
    /// Called by the engine at program time, before any guard is armed.
    ///
    /// # Panics
    ///
    /// Panics if `map` does not have one entry per cell (engine-internal
    /// misuse, not a user input).
    pub(crate) fn scale_attenuation(&mut self, map: &[f32]) {
        assert_eq!(
            map.len(),
            self.rows * self.cols,
            "attenuation map must cover every cell"
        );
        for (a, &m) in self.attenuation.iter_mut().zip(map) {
            *a *= m;
        }
        self.rebuild_cache();
    }

    /// Recomputes the whole [`WeightCache`] from the current conductances.
    fn rebuild_cache(&mut self) {
        let denom = self.device.g_on - self.device.g_off();
        for idx in 0..self.rows * self.cols {
            let (gp, gn) = (self.g_pos[idx], self.g_neg[idx]);
            self.cache.w_eff[idx] = (gp - gn) * self.attenuation[idx] / denom;
            self.cache.g_sq[idx] = gp * gp + gn * gn;
        }
        for col in 0..self.cols {
            self.cache.col_sq[col] = (0..self.rows)
                .map(|row| self.cache.g_sq[row * self.cols + col])
                .sum();
        }
    }

    /// Recomputes the [`WeightCache`] entries of a single column — the
    /// patch path for mutations that only touch one bitline pair.
    fn rebuild_cache_col(&mut self, col: usize) {
        let denom = self.device.g_on - self.device.g_off();
        for row in 0..self.rows {
            let idx = row * self.cols + col;
            let (gp, gn) = (self.g_pos[idx], self.g_neg[idx]);
            self.cache.w_eff[idx] = (gp - gn) * self.attenuation[idx] / denom;
            self.cache.g_sq[idx] = gp * gp + gn * gn;
        }
        self.cache.col_sq[col] = (0..self.rows)
            .map(|row| self.cache.g_sq[row * self.cols + col])
            .sum();
    }

    /// The pair of ON-targets for cell pair `idx` in column `col` under
    /// the current polarity: `(pos_on, neg_on)`.
    fn pair_targets(&self, idx: usize, col: usize) -> (bool, bool) {
        let positive = self.logical[idx] * self.col_sign[col] >= 0.0;
        (positive, !positive)
    }

    /// Ages the array by `hours` of retention: every cell's conductance
    /// drifts by the PCM-style power law `G(t) = G₀·(1 + t)^{−ν}`, with
    /// the per-cell exponent drawn as `N(nu, nu_sigma)` (clamped ≥ 0).
    /// Differential weights shrink toward 0, eroding the stored network —
    /// the retention effect the `ablation_drift` bench quantifies.
    pub fn age(&mut self, hours: f32, nu: f32, nu_sigma: f32, rng: &mut Rng) {
        if hours <= 0.0 || nu <= 0.0 {
            return;
        }
        let base = 1.0 + hours;
        for g in self.g_pos.iter_mut().chain(self.g_neg.iter_mut()) {
            let cell_nu = (nu + if nu_sigma > 0.0 {
                rng.normal(0.0, nu_sigma)
            } else {
                0.0
            })
            .max(0.0);
            *g *= base.powf(-cell_nu);
        }
        self.rebuild_cache();
    }

    /// Tile dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The device model the tile was programmed under.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// The logical ±1 weight the tile is meant to store at `(row, col)`.
    pub fn logical_weight(&self, row: usize, col: usize) -> f32 {
        self.logical[row * self.cols + col]
    }

    /// The digital polarity sign of column `col` (±1).
    pub fn col_sign(&self, col: usize) -> f32 {
        self.col_sign[col]
    }

    /// Ground-truth persistent health of the differential pair at
    /// `(row, col)` — `(positive cell, negative cell)`. Recovery code
    /// must *not* consult this (it only sees march-test detections); it
    /// exists for instrumentation and tests.
    pub fn health(&self, row: usize, col: usize) -> (CellHealth, CellHealth) {
        let idx = row * self.cols + col;
        (self.health_pos[idx], self.health_neg[idx])
    }

    /// The effective weight the tile actually stores for `(row, col)` —
    /// `sign_j·(G⁺ − G⁻)/(G_on − G_off)`, which is ±1 for ideal devices.
    pub fn effective_weight(&self, row: usize, col: usize) -> f32 {
        let idx = row * self.cols + col;
        let denom = self.device.g_on - self.device.g_off();
        self.col_sign[col] * (self.g_pos[idx] - self.g_neg[idx]) / denom
    }

    /// The effective weight *as executed* for `(row, col)` — the cached
    /// `(G⁺−G⁻)·attenuation/(G_on−G_off)` with the digital polarity sign
    /// applied. Unlike [`effective_weight`](Self::effective_weight) this
    /// includes IR-drop attenuation, i.e. it is exactly what a clean
    /// (noise-free) MVM multiplies the drive by.
    pub fn deployed_weight(&self, row: usize, col: usize) -> f32 {
        self.col_sign[col] * self.cache.w_eff[row * self.cols + col]
    }

    /// Computes [`TileVarianceStats`] from the always-fresh weight
    /// cache — `O(cells)`, no RNG, safe to call at any point in
    /// the tile's service life (mutators rebuild the cache eagerly).
    pub fn variance_stats(&self) -> TileVarianceStats {
        let mut col_weight_err_sq = vec![0.0f32; self.cols];
        let mut col_weff_sq = vec![0.0f32; self.cols];
        for row in 0..self.rows {
            let base = row * self.cols;
            for col in 0..self.cols {
                let w = self.cache.w_eff[base + col];
                let err = self.col_sign[col] * w - self.logical[base + col];
                col_weight_err_sq[col] += err * err;
                col_weff_sq[col] += w * w;
            }
        }
        TileVarianceStats {
            col_gsq: self.cache.col_sq.clone(),
            col_weight_err_sq,
            col_weff_sq,
        }
    }

    /// One analog MVM: drives `x` (`len = rows`, entries ±1 or 0) through
    /// the array and writes normalized differential column currents into
    /// `out` (`len = cols`), with each column's digital polarity sign
    /// applied. A batch of one: see [`mvm_batch`](Self::mvm_batch).
    ///
    /// `noise.output_sigma` Gaussian noise is added per column;
    /// cycle-to-cycle read noise perturbs every cell independently.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on slice-length
    /// mismatches.
    pub fn mvm(&self, x: &[f32], noise: &NoiseSpec, rng: &mut Rng, out: &mut [f32]) -> Result<()> {
        self.mvm_batch(x, self.rows, 0, noise, std::slice::from_mut(rng), out)
    }

    /// Batched analog MVM over one pulse's block of input vectors.
    ///
    /// `xs` holds `rngs.len()` row-major input vectors of length `stride`
    /// (the parent operator's full input width); each vector's slice for
    /// this tile starts at `offset` (the tile's first wordline). Outputs
    /// land in `out` as `rngs.len()` rows of `cols` values. One generator
    /// per sample keeps noise draws independent of batching and thread
    /// schedule — the engine derives them per
    /// `(pulse, sample, row_tile, col_tile)`.
    ///
    /// Runs the cached loop, which is bitwise
    /// [`mvm_reference`](Self::mvm_reference) on ±1/0 drives, draw order
    /// included.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on slice-length or
    /// stride/offset mismatches.
    pub fn mvm_batch(
        &self,
        xs: &[f32],
        stride: usize,
        offset: usize,
        noise: &NoiseSpec,
        rngs: &mut [Rng],
        out: &mut [f32],
    ) -> Result<()> {
        let n = rngs.len();
        if offset + self.rows > stride || xs.len() != n * stride || out.len() != n * self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "mvm_batch expects {n} vectors of stride {stride} covering rows \
                 {offset}..{} and out[{}], got xs[{}] / out[{}]",
                offset + self.rows,
                n * self.cols,
                xs.len(),
                out.len()
            )));
        }
        self.mvm_block_cached(xs, stride, offset, noise, rngs, out);
        Ok(())
    }

    /// The raw-conductance oracle: recomputes `x·(G⁺−G⁻)·att/denom` and
    /// the c2c variance per cell from the programmed conductances, then
    /// draws the same noise as [`mvm`](Self::mvm). It reads no derived
    /// state, so it cannot be stale; tests compare the execution loops
    /// against it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on slice-length
    /// mismatches.
    pub fn mvm_reference(
        &self,
        x: &[f32],
        noise: &NoiseSpec,
        rng: &mut Rng,
        out: &mut [f32],
    ) -> Result<()> {
        if x.len() != self.rows || out.len() != self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "mvm expects x[{}] and out[{}], got x[{}] / out[{}]",
                self.rows,
                self.cols,
                x.len(),
                out.len()
            )));
        }
        let mut c2c_var = self.c2c_scratch();
        self.accumulate_reference(x, out, &mut c2c_var);
        self.apply_sign_and_noise(noise, rng, out, &c2c_var);
        Ok(())
    }

    /// The cached loop over a sample block laid out as in
    /// [`mvm_batch`](Self::mvm_batch), one sample at a time.
    pub(crate) fn mvm_block_cached(
        &self,
        xs: &[f32],
        stride: usize,
        offset: usize,
        noise: &NoiseSpec,
        rngs: &mut [Rng],
        out: &mut [f32],
    ) {
        let mut c2c_var = self.c2c_scratch();
        for (s, rng) in rngs.iter_mut().enumerate() {
            let x = &xs[s * stride + offset..s * stride + offset + self.rows];
            let o = &mut out[s * self.cols..(s + 1) * self.cols];
            self.accumulate_cached(x, o, &mut c2c_var);
            self.apply_sign_and_noise(noise, rng, o, &c2c_var);
        }
    }

    /// Per-column c2c variance scratch: `cols` zeros when the device
    /// draws cycle-to-cycle noise, else empty, which skips those draws.
    fn c2c_scratch(&self) -> Vec<f32> {
        let len = if self.device.c2c_sigma > 0.0 {
            self.cols
        } else {
            0
        };
        vec![0.0; len]
    }

    /// Whether the tile is rail-programmed: every nonzero effective
    /// weight has one magnitude whose integer multiples up to `rows` are
    /// exact in f32, and, when `need_c2c` (the device draws
    /// cycle-to-cycle noise), every cell has one `G⁺²+G⁻²` with the same
    /// property. Ideal and functional devices keep the property through
    /// stuck cells and repairs; variation, IR drop and drift break it.
    /// Execution does not read it: it is a property of the programmed
    /// state that benches and tests report, computed from the weight
    /// cache when asked. The name predates the removal of the bit-packed
    /// loops it once gated.
    pub fn packed_ready(&self, need_c2c: bool) -> bool {
        let WeightCache { w_eff, g_sq, .. } = &self.cache;
        let magnitudes = w_eff.iter().filter(|&&w| w != 0.0).map(|w| w.abs());
        uniform_with_exact_multiples(magnitudes, self.rows)
            && (!need_c2c || uniform_with_exact_multiples(g_sq.iter().copied(), self.rows))
    }

    /// Original accumulation: recompute the effective weight of every
    /// active cell from raw conductances.
    fn accumulate_reference(&self, x: &[f32], out: &mut [f32], c2c_var: &mut [f32]) {
        let denom = self.device.g_on - self.device.g_off();
        out.fill(0.0);
        let c2c = !c2c_var.is_empty();
        c2c_var.fill(0.0);
        // Cycle-to-cycle read noise is aggregated per column: every active
        // cell contributes an independent `N(0, (σ_c2c·G)²)` term to the
        // column current, so their sum is Gaussian with variance
        // `σ_c2c²·Σ x_i²(G⁺² + G⁻²)` — one sample per column instead of
        // two per cell, statistically identical and ~10⁴× cheaper on
        // large tiles.
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let base = i * self.cols;
            for (j, o) in out.iter_mut().enumerate() {
                let (gp, gn) = (self.g_pos[base + j], self.g_neg[base + j]);
                *o += xi * (gp - gn) * self.attenuation[base + j] / denom;
                if c2c {
                    c2c_var[j] += xi * xi * (gp * gp + gn * gn);
                }
            }
        }
    }

    /// Cached accumulation: one multiply-add per active cell against the
    /// materialized effective weights, plus the per-column c2c variance
    /// numerators when `c2c_var` is non-empty. No noise, no polarity —
    /// an empty `c2c_var` makes it the delta schedule's dense pulse-0
    /// step. Bitwise identical to
    /// [`accumulate_reference`](Self::accumulate_reference) for ±1/0
    /// inputs: `(±1)·w` negates or copies `w` exactly, and the reference
    /// expression `((±1·(G⁺−G⁻))·att)/denom` is the same exact negation
    /// of the cached `((G⁺−G⁻)·att)/denom`.
    pub(crate) fn accumulate_cached(&self, x: &[f32], out: &mut [f32], c2c_var: &mut [f32]) {
        out.fill(0.0);
        c2c_var.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let base = i * self.cols;
            let wrow = &self.cache.w_eff[base..base + self.cols];
            if c2c_var.is_empty() {
                for (o, &w) in out.iter_mut().zip(wrow) {
                    *o += xi * w;
                }
            } else {
                let qrow = &self.cache.g_sq[base..base + self.cols];
                let xsq = xi * xi;
                for ((o, v), (&w, &q)) in out
                    .iter_mut()
                    .zip(c2c_var.iter_mut())
                    .zip(wrow.iter().zip(qrow))
                {
                    *o += xi * w;
                    *v += xsq * q;
                }
            }
        }
    }

    /// Shared readout tail: digital polarity, aggregated c2c noise (from
    /// the per-column variances in `c2c_var`), then per-column output
    /// noise. Draw order matches the original fused kernel exactly.
    fn apply_sign_and_noise(
        &self,
        noise: &NoiseSpec,
        rng: &mut Rng,
        out: &mut [f32],
        c2c_var: &[f32],
    ) {
        // the polarity sign is a digital negation after the sense
        // amplifier; read noise is symmetric so applying it before the
        // noise terms is statistically identical
        for (o, &s) in out.iter_mut().zip(&self.col_sign) {
            *o *= s;
        }
        if !c2c_var.is_empty() {
            let denom = self.device.g_on - self.device.g_off();
            rng.normal_accum_gated(self.device.c2c_sigma / denom, c2c_var, out);
        }
        if noise.output_sigma > 0.0 {
            rng.normal_accum(noise.output_sigma, out);
        }
    }

    // ------------------------------------------------------------------
    // Nested-unary delta path (engine fast path)
    // ------------------------------------------------------------------

    /// Sparse update of `acc` by the rows that switch `+1 → −1` on this
    /// pulse of a nested-unary train: adds `−2·w_eff` for each row in
    /// `rows`, in the given order.
    pub(crate) fn accumulate_switched(&self, rows: &[usize], acc: &mut [f32]) {
        for &i in rows {
            let base = i * self.cols;
            for (o, &w) in acc.iter_mut().zip(&self.cache.w_eff[base..base + self.cols]) {
                *o += -2.0 * w;
            }
        }
    }

    /// Turns a pre-sign accumulation into a finished pulse readout in
    /// `out`: applies the column polarity and draws the same noise the
    /// dense loops would. Valid only when every row is driven at ±1
    /// (nested-unary pulses), which makes the aggregated c2c variance the
    /// cached per-column total — bitwise the value the reference oracle
    /// accumulates in that case.
    pub(crate) fn finish_pulse(
        &self,
        acc: &[f32],
        noise: &NoiseSpec,
        rng: &mut Rng,
        out: &mut [f32],
    ) {
        for ((o, &a), &s) in out.iter_mut().zip(acc).zip(&self.col_sign) {
            *o = a * s;
        }
        if self.device.c2c_sigma > 0.0 {
            let denom = self.device.g_on - self.device.g_off();
            rng.normal_accum_gated(self.device.c2c_sigma / denom, &self.cache.col_sq, out);
        }
        if noise.output_sigma > 0.0 {
            rng.normal_accum(noise.output_sigma, out);
        }
    }

    // ------------------------------------------------------------------
    // ABFT checksum column
    // ------------------------------------------------------------------

    /// Arms (or re-arms) the checksum column: snapshots the per-row
    /// signed effective-weight sums of the *current* physical state.
    /// Costs one logical column of storage — the ≤1-extra-column ABFT
    /// budget.
    ///
    /// Arming is an engine-level policy decision: it happens after
    /// programming and after commanded, verified repair (remap). Tile
    /// mutators never re-arm on their own — in particular `refresh`
    /// restores conductances *toward* the armed reference, and aging,
    /// disturbance, or fault injection drifts the array *away* from it;
    /// re-arming there would absorb the corruption into the reference and
    /// silently pass bad output.
    pub fn arm_guard(&mut self) {
        let mut w_chk = vec![0.0f32; self.rows];
        let mut chk_sq = vec![0.0f32; self.rows];
        for row in 0..self.rows {
            let base = row * self.cols;
            let mut wsum = 0.0f32;
            let mut qsum = 0.0f32;
            for col in 0..self.cols {
                wsum += self.col_sign[col] * self.cache.w_eff[base + col];
                qsum += self.cache.g_sq[base + col];
            }
            w_chk[row] = wsum;
            chk_sq[row] = qsum;
        }
        self.guard = Some(GuardColumn { w_chk, chk_sq });
    }

    /// Drops the checksum column; subsequent MVMs run unguarded.
    pub fn disarm_guard(&mut self) {
        self.guard = None;
    }

    /// Whether a checksum column is armed.
    pub fn guard_armed(&self) -> bool {
        self.guard.is_some()
    }

    /// Reads the checksum column for one pulse: returns
    /// `(checksum, var_term)` where `checksum = Σ_i x_i·w_chk[i]` plus
    /// this column's own read noise, and
    /// `var_term = Σ_i x_i²·chk_sq[i]` is the aggregated c2c variance
    /// numerator [`GuardPolicy::tolerance`](crate::GuardPolicy::tolerance)
    /// consumes. Returns `None` on an unarmed tile.
    ///
    /// The noise tail mirrors the regular readout: one aggregated
    /// cycle-to-cycle draw (`N(0, (σ_c2c/(G_on−G_off))²·var_term)`), then
    /// one functional output-noise draw. `rng` must be a dedicated guard
    /// substream so arming never perturbs the unguarded noise sequence.
    pub fn checksum_pulse(&self, x: &[f32], noise: &NoiseSpec, rng: &mut Rng) -> Option<(f32, f32)> {
        let guard = self.guard.as_ref()?;
        let mut chk = 0.0f32;
        let mut var = 0.0f32;
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            chk += xi * guard.w_chk[i];
            var += xi * xi * guard.chk_sq[i];
        }
        if self.device.c2c_sigma > 0.0 && var > 0.0 {
            let denom = self.device.g_on - self.device.g_off();
            chk += rng.normal(0.0, self.device.c2c_sigma / denom * var.sqrt());
        }
        if noise.output_sigma > 0.0 {
            chk += rng.normal(0.0, noise.output_sigma);
        }
        Some((chk, var))
    }

    // ------------------------------------------------------------------
    // Fault detection and recovery primitives
    // ------------------------------------------------------------------

    /// Read-back march test: estimates every cell's conductance from
    /// `cfg.reads` averaged noisy reads and flags cells whose estimate
    /// deviates from the programmed target by more than
    /// `cfg.threshold·(G_on − G_off)`.
    ///
    /// Detection fidelity is limited by the same read noise inference
    /// sees: recall drops as `c2c_sigma` grows, and `d2d_sigma` tails
    /// produce false positives.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn march_test(&self, cfg: &MarchTestConfig, rng: &mut Rng) -> Result<FaultMap> {
        cfg.validate()?;
        let mut faults = Vec::new();
        for row in 0..self.rows {
            for col in 0..self.cols {
                self.march_test_pair(row, col, cfg, rng, &mut faults);
            }
        }
        Ok(FaultMap::new(self.rows, self.cols, faults))
    }

    /// [`march_test`](Self::march_test) restricted to one column —
    /// cheap read-back used by the remapper to judge a trial polarity
    /// flip.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and range errors.
    pub fn march_test_column(
        &self,
        col: usize,
        cfg: &MarchTestConfig,
        rng: &mut Rng,
    ) -> Result<Vec<CellFault>> {
        cfg.validate()?;
        if col >= self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "march_test_column {col} out of range for {} columns",
                self.cols
            )));
        }
        let mut faults = Vec::new();
        for row in 0..self.rows {
            self.march_test_pair(row, col, cfg, rng, &mut faults);
        }
        Ok(faults)
    }

    /// Read-back check of both cells of one differential pair, appending
    /// any detection to `faults`.
    fn march_test_pair(
        &self,
        row: usize,
        col: usize,
        cfg: &MarchTestConfig,
        rng: &mut Rng,
        faults: &mut Vec<CellFault>,
    ) {
        let window = self.device.g_on - self.device.g_off();
        let idx = row * self.cols + col;
        let (pos_on, neg_on) = self.pair_targets(idx, col);
        for (side, g_prog, on) in [
            (CellSide::Pos, self.g_pos[idx], pos_on),
            (CellSide::Neg, self.g_neg[idx], neg_on),
        ] {
            let target = if on { self.device.g_on } else { self.device.g_off() };
            let mut sum = 0.0f32;
            for _ in 0..cfg.reads {
                sum += self.device.read_cell(g_prog, rng);
            }
            let g_est = sum / cfg.reads as f32;
            if (g_est - target).abs() > cfg.threshold * window {
                faults.push(CellFault {
                    row,
                    col,
                    side,
                    g_est,
                    g_target: target,
                });
            }
        }
    }

    /// Flips the digital polarity of column `col` and re-programs its
    /// cells with inverted targets. The column then computes the same
    /// logical product, but every stuck cell's error moves to the
    /// opposite logical weight sign — a stuck cell that was corrupting
    /// its weight may now land exactly on its (inverted) target.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an out-of-range
    /// column.
    pub fn flip_column(&mut self, col: usize, rng: &mut Rng) -> Result<()> {
        if col >= self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "flip_column {col} out of range for {} columns",
                self.cols
            )));
        }
        self.col_sign[col] = -self.col_sign[col];
        for row in 0..self.rows {
            let idx = row * self.cols + col;
            let (pos_on, neg_on) = self.pair_targets(idx, col);
            self.g_pos[idx] = self
                .device
                .program_cell_with_health(self.health_pos[idx], pos_on, rng);
            self.g_neg[idx] = self
                .device
                .program_cell_with_health(self.health_neg[idx], neg_on, rng);
        }
        self.rebuild_cache_col(col);
        Ok(())
    }

    /// Routes logical row `row` to a spare physical wordline: the spare's
    /// cells get fresh health draws from the device model (spares fail at
    /// the same iid rate as primary cells) and are programmed with the
    /// row's logical weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an out-of-range row.
    pub fn replace_row(&mut self, row: usize, rng: &mut Rng) -> Result<()> {
        if row >= self.rows {
            return Err(TensorError::InvalidArgument(format!(
                "replace_row {row} out of range for {} rows",
                self.rows
            )));
        }
        for col in 0..self.cols {
            let idx = row * self.cols + col;
            self.health_pos[idx] = self.device.sample_health(rng);
            self.health_neg[idx] = self.device.sample_health(rng);
            let (pos_on, neg_on) = self.pair_targets(idx, col);
            self.g_pos[idx] = self
                .device
                .program_cell_with_health(self.health_pos[idx], pos_on, rng);
            self.g_neg[idx] = self
                .device
                .program_cell_with_health(self.health_neg[idx], neg_on, rng);
        }
        self.rebuild_cache();
        Ok(())
    }

    /// Routes logical column `col` to a spare bitline pair: fresh health
    /// draws, polarity reset to +1, and the column's logical weights
    /// programmed onto the spare cells.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an out-of-range
    /// column.
    pub fn replace_col(&mut self, col: usize, rng: &mut Rng) -> Result<()> {
        if col >= self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "replace_col {col} out of range for {} columns",
                self.cols
            )));
        }
        self.col_sign[col] = 1.0;
        for row in 0..self.rows {
            let idx = row * self.cols + col;
            self.health_pos[idx] = self.device.sample_health(rng);
            self.health_neg[idx] = self.device.sample_health(rng);
            let (pos_on, neg_on) = self.pair_targets(idx, col);
            self.g_pos[idx] = self
                .device
                .program_cell_with_health(self.health_pos[idx], pos_on, rng);
            self.g_neg[idx] = self
                .device
                .program_cell_with_health(self.health_neg[idx], neg_on, rng);
        }
        self.rebuild_cache_col(col);
        Ok(())
    }

    /// Escalated write-verify on the differential pair at `(row, col)`:
    /// both cells are re-programmed under `policy` (typically tighter
    /// tolerance / larger retry budget than the deployment default),
    /// charging `stats`. Returns whether **both** cells verified within
    /// tolerance — genuinely stuck cells cannot, drifted or badly
    /// programmed healthy cells can.
    ///
    /// # Errors
    ///
    /// Propagates policy validation and range errors.
    pub fn reprogram_pair(
        &mut self,
        row: usize,
        col: usize,
        policy: &WriteVerify,
        rng: &mut Rng,
        stats: &mut ProgramStats,
    ) -> Result<bool> {
        policy.validate()?;
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "reprogram_pair ({row}, {col}) out of range for {}×{}",
                self.rows, self.cols
            )));
        }
        let idx = row * self.cols + col;
        let (pos_on, neg_on) = self.pair_targets(idx, col);
        let mut ok = true;
        for (g, health, on) in [
            (&mut self.g_pos[idx], self.health_pos[idx], pos_on),
            (&mut self.g_neg[idx], self.health_neg[idx], neg_on),
        ] {
            let target = if on { self.device.g_on } else { self.device.g_off() };
            *g = program_cell_verified_with_health(&self.device, health, on, policy, rng, stats);
            ok &= (*g - target).abs() <= policy.tolerance * target;
        }
        self.rebuild_cache_col(col);
        Ok(ok)
    }

    /// Drift refresh: re-programs every cell toward its current target
    /// (logical weight × column polarity), restoring conductances that
    /// retention drift has decayed. Stuck cells land on their pinned
    /// level again — refresh cures drift, not faults. With a
    /// [`WriteVerify`] policy each cell is programmed to tolerance;
    /// either way the write pulses are charged to `stats`.
    pub fn refresh(&mut self, policy: Option<&WriteVerify>, rng: &mut Rng, stats: &mut ProgramStats) {
        for row in 0..self.rows {
            for col in 0..self.cols {
                let idx = row * self.cols + col;
                let (pos_on, neg_on) = self.pair_targets(idx, col);
                for (g, health, on) in [
                    (&mut self.g_pos[idx], self.health_pos[idx], pos_on),
                    (&mut self.g_neg[idx], self.health_neg[idx], neg_on),
                ] {
                    *g = match policy {
                        Some(p) => {
                            program_cell_verified_with_health(&self.device, health, on, p, rng, stats)
                        }
                        None => {
                            stats.cells += 1;
                            stats.write_pulses += 1;
                            self.device.program_cell_with_health(health, on, rng)
                        }
                    };
                }
            }
        }
        self.rebuild_cache();
    }

    /// Pins the health of one cell and forces its conductance onto the
    /// matching level: `StuckOn` → `G_on`, `StuckOff` → `G_off`,
    /// `Healthy` → the cell's exact current target under the present
    /// polarity. The weight cache is patched, so fault injection through
    /// this method is safe to interleave with execution — it exists for
    /// tests and instrumentation, which must not reach around the API and
    /// mutate raw state.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for out-of-range
    /// coordinates.
    pub fn inject_fault(
        &mut self,
        row: usize,
        col: usize,
        side: CellSide,
        health: CellHealth,
    ) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "inject_fault ({row}, {col}) out of range for {}×{}",
                self.rows, self.cols
            )));
        }
        let idx = row * self.cols + col;
        let (pos_on, neg_on) = self.pair_targets(idx, col);
        let on = match side {
            CellSide::Pos => pos_on,
            CellSide::Neg => neg_on,
        };
        let g = match health {
            CellHealth::StuckOn => self.device.g_on,
            CellHealth::StuckOff => self.device.g_off(),
            CellHealth::Healthy => {
                if on {
                    self.device.g_on
                } else {
                    self.device.g_off()
                }
            }
        };
        match side {
            CellSide::Pos => {
                self.health_pos[idx] = health;
                self.g_pos[idx] = g;
            }
            CellSide::Neg => {
                self.health_neg[idx] = health;
                self.g_neg[idx] = g;
            }
        }
        self.rebuild_cache_col(col);
        // measured correction deltas predate the mutation; applying them
        // to the new physical state would inject wrong output
        self.saf.clear();
        Ok(())
    }

    /// Forces one cell's conductance onto a rail — `high` → `G_on`,
    /// otherwise `G_off` — **without** touching its health: a transient
    /// upset (read disturb, drift excursion, particle strike) that the
    /// next [`refresh`](Tile::refresh) reprograms away. Contrast with
    /// [`inject_fault`](Tile::inject_fault), whose pinned health survives
    /// reprogramming and needs march-test + remap. The weight cache is
    /// patched, so upsets are safe to interleave with execution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for out-of-range
    /// coordinates.
    pub fn upset_cell(&mut self, row: usize, col: usize, side: CellSide, high: bool) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(TensorError::InvalidArgument(format!(
                "upset_cell ({row}, {col}) out of range for {}×{}",
                self.rows, self.cols
            )));
        }
        let idx = row * self.cols + col;
        let g = if high { self.device.g_on } else { self.device.g_off() };
        match side {
            CellSide::Pos => self.g_pos[idx] = g,
            CellSide::Neg => self.g_neg[idx] = g,
        }
        self.rebuild_cache_col(col);
        // same invalidation as inject_fault: the excursion changes the
        // physical state the deltas were measured against
        self.saf.clear();
        Ok(())
    }

    // ------------------------------------------------------------------
    // SAF error correction (digital ECC over residual stuck cells)
    // ------------------------------------------------------------------

    /// Whether a SAF correction table is installed.
    pub fn has_saf_correction(&self) -> bool {
        !self.saf.is_empty()
    }

    /// Installs a SAF correction table (see
    /// [`build_saf_correction`](Self::build_saf_correction)).
    pub fn set_saf_correction(&mut self, entries: Vec<(usize, usize, f32)>) {
        self.saf = entries;
    }

    /// Removes any installed SAF correction table.
    pub fn clear_saf_correction(&mut self) {
        self.saf.clear();
    }

    /// Applies the installed correction table to one readout: adds
    /// `x[row]·delta` to `out[col]` for every entry whose row is driven.
    /// Purely digital and deterministic — no RNG draws, so the analog
    /// noise sequence is untouched. Returns the number of corrections
    /// applied.
    pub fn apply_saf_correction(&self, x: &[f32], out: &mut [f32]) -> u64 {
        let mut applied = 0u64;
        for &(row, col, delta) in &self.saf {
            let xi = x[row];
            if xi != 0.0 {
                out[col] += xi * delta;
                applied += 1;
            }
        }
        applied
    }

    /// Builds a correction table from the march-test read-backs of
    /// `residual` faults — the stuck cells the analog remap ladder could
    /// not cure. For each flagged pair the *measured* effective weight is
    /// estimated from the flagged side's conductance estimate (the
    /// unflagged side is assumed at its target), and the entry's delta is
    /// what a digital adder must contribute to restore the attenuated
    /// logical weight:
    /// `delta = logical·att − sign·(ĝ⁺ − ĝ⁻)·att/(G_on − G_off)`.
    ///
    /// Uses only observable read-backs (never ground-truth health), so
    /// correction fidelity is bounded by march-test estimation noise —
    /// exactly like every other recovery arm.
    pub fn build_saf_correction(&self, residual: &FaultMap) -> Vec<(usize, usize, f32)> {
        let denom = self.device.g_on - self.device.g_off();
        // group the flagged sides per differential pair:
        // ((row, col), ĝ⁺ if flagged, ĝ⁻ if flagged)
        type PairEstimate = ((usize, usize), Option<f32>, Option<f32>);
        let mut est: Vec<PairEstimate> = Vec::new();
        for f in residual.faults() {
            if !est.iter().any(|(rc, _, _)| *rc == (f.row, f.col)) {
                est.push(((f.row, f.col), None, None));
            }
            if let Some(slot) = est.iter_mut().find(|(rc, _, _)| *rc == (f.row, f.col)) {
                match f.side {
                    CellSide::Pos => slot.1 = Some(f.g_est),
                    CellSide::Neg => slot.2 = Some(f.g_est),
                }
            }
        }
        est.iter()
            .map(|&((row, col), pos_est, neg_est)| {
                let idx = row * self.cols + col;
                let (pos_on, neg_on) = self.pair_targets(idx, col);
                let target = |on: bool| if on { self.device.g_on } else { self.device.g_off() };
                let gp = pos_est.unwrap_or_else(|| target(pos_on));
                let gn = neg_est.unwrap_or_else(|| target(neg_on));
                let att = self.attenuation[idx];
                let measured = self.col_sign[col] * (gp - gn) * att / denom;
                (row, col, self.logical[idx] * att - measured)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights() -> Tensor {
        Tensor::from_vec(vec![1.0, -1.0, -1.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap()
    }

    #[test]
    fn ideal_tile_stores_exact_weights() {
        let mut rng = Rng::from_seed(0);
        let tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        assert_eq!(tile.dims(), (3, 2));
        assert_eq!(tile.effective_weight(0, 0), 1.0);
        assert_eq!(tile.effective_weight(0, 1), -1.0);
        assert_eq!(tile.effective_weight(1, 0), -1.0);
        assert_eq!(tile.logical_weight(0, 1), -1.0);
        assert_eq!(tile.col_sign(0), 1.0);
    }

    #[test]
    fn ideal_mvm_matches_matrix_product() {
        let mut rng = Rng::from_seed(0);
        let tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        let x = [1.0, -1.0, 1.0];
        let mut out = [0.0; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        // col0: 1·1 + (−1)(−1) + 1·1 = 3; col1: −1 + (−1) + 1 = −1
        assert!((out[0] - 3.0).abs() < 1e-5);
        assert!((out[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_inputs_skip_rows() {
        let mut rng = Rng::from_seed(0);
        let tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        let mut out = [0.0; 2];
        tile.mvm(&[0.0, 0.0, 0.0], &NoiseSpec::none(), &mut rng, &mut out)
            .unwrap();
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    fn output_noise_has_requested_variance() {
        let mut rng = Rng::from_seed(42);
        let tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        let noise = NoiseSpec::functional(2.0);
        let mut samples = Vec::new();
        let mut out = [0.0; 2];
        for _ in 0..4000 {
            tile.mvm(&[1.0, 1.0, 1.0], &noise, &mut rng, &mut out).unwrap();
            samples.push(out[0] - 1.0); // clean value is 1·1 −1 +1 = 1
        }
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
            / samples.len() as f32;
        assert!(mean.abs() < 0.12, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.4, "var = {var}");
    }

    #[test]
    fn mvm_batch_matches_per_sample_mvm() {
        let mut device = DeviceModel::ideal();
        device.c2c_sigma = 0.03;
        device.on_off_ratio = 20.0;
        let mut rng = Rng::from_seed(40);
        let tile = Tile::program(&weights(), &device, &mut rng).unwrap();
        let noise = NoiseSpec::functional(0.5);
        let (stride, offset, n) = (5usize, 1usize, 3usize);
        let xs: Vec<f32> = (0..n * stride).map(|i| (i % 7) as f32 / 3.0 - 1.0).collect();
        let mut rngs: Vec<Rng> = (0..n as u64).map(|s| Rng::from_seed(100 + s)).collect();
        let mut batch_out = vec![0.0f32; n * 2];
        tile.mvm_batch(&xs, stride, offset, &noise, &mut rngs, &mut batch_out)
            .unwrap();
        for s in 0..n {
            let mut rng_s = Rng::from_seed(100 + s as u64);
            let mut out = [0.0f32; 2];
            tile.mvm(
                &xs[s * stride + offset..s * stride + offset + 3],
                &noise,
                &mut rng_s,
                &mut out,
            )
            .unwrap();
            assert_eq!(&batch_out[s * 2..(s + 1) * 2], &out);
        }
        // stride too small for offset + rows, wrong xs length, wrong out length
        assert!(tile
            .mvm_batch(&xs[..n * 3], 3, 1, &noise, &mut rngs, &mut batch_out)
            .is_err());
        assert!(tile
            .mvm_batch(&xs[..7], stride, offset, &noise, &mut rngs, &mut batch_out)
            .is_err());
        assert!(tile
            .mvm_batch(&xs, stride, offset, &noise, &mut rngs, &mut batch_out[..2])
            .is_err());
    }

    #[test]
    fn variance_stats_match_brute_force() {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.08;
        device.on_off_ratio = 20.0;
        device.ir_drop_alpha = 0.1;
        let mut rng = Rng::from_seed(11);
        let mut tile = Tile::program(&weights(), &device, &mut rng).unwrap();
        tile.flip_column(1, &mut rng).unwrap(); // polarity folds into the error
        let stats = tile.variance_stats();
        let (rows, cols) = tile.dims();
        for col in 0..cols {
            let mut gsq = 0.0f64;
            let mut err = 0.0f64;
            let mut weff = 0.0f64;
            for row in 0..rows {
                let idx = row * cols + col;
                let (gp, gn) = (tile.g_pos[idx], tile.g_neg[idx]);
                gsq += f64::from(gp * gp + gn * gn);
                let w = tile.cache.w_eff[idx];
                let e = tile.col_sign(col) * w - tile.logical_weight(row, col);
                err += f64::from(e * e);
                weff += f64::from(w * w);
                assert_eq!(tile.deployed_weight(row, col), tile.col_sign(col) * w);
            }
            assert!((f64::from(stats.col_gsq[col]) - gsq).abs() < 1e-4 * gsq.abs().max(1.0));
            assert!((f64::from(stats.col_weight_err_sq[col]) - err).abs() < 1e-5);
            assert!((f64::from(stats.col_weff_sq[col]) - weff).abs() < 1e-5);
        }
    }

    #[test]
    fn mvm_validates_lengths() {
        let mut rng = Rng::from_seed(0);
        let tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        let mut out = [0.0; 2];
        assert!(tile.mvm(&[1.0], &NoiseSpec::none(), &mut rng, &mut out).is_err());
        let mut short = [0.0; 1];
        assert!(tile
            .mvm(&[1.0, 1.0, 1.0], &NoiseSpec::none(), &mut rng, &mut short)
            .is_err());
    }

    #[test]
    fn d2d_variation_perturbs_effective_weights() {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.1;
        let mut rng = Rng::from_seed(5);
        let tile = Tile::program(&weights(), &device, &mut rng).unwrap();
        let w = tile.effective_weight(0, 0);
        assert!(w != 1.0 && (w - 1.0).abs() < 0.7, "w = {w}");
    }

    #[test]
    fn aggregated_c2c_noise_matches_closed_form_variance() {
        // per-column aggregation must deliver σ_c2c²·Σ(G⁺²+G⁻²)/denom²
        let mut device = DeviceModel::ideal();
        device.c2c_sigma = 0.05;
        device.on_off_ratio = 20.0; // G_off = 5, so both cells contribute
        let mut rng = Rng::from_seed(17);
        let w = Tensor::ones(&[4, 1]);
        let tile = Tile::program(&w, &device, &mut rng).unwrap();
        let denom = device.g_on - device.g_off();
        let expect_var = {
            let per_cell = device.g_on * device.g_on + device.g_off() * device.g_off();
            0.05f32 * 0.05 * 4.0 * per_cell / (denom * denom)
        };
        let x = [1.0f32; 4];
        let clean = 4.0; // four +1 weights, +1 inputs
        let mut out = [0.0f32; 1];
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let trials = 4000;
        for _ in 0..trials {
            tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
            let d = f64::from(out[0] - clean);
            sum += d;
            sum_sq += d * d;
        }
        let mean = sum / trials as f64;
        let var = (sum_sq / trials as f64 - mean * mean) as f32;
        assert!(
            (var - expect_var).abs() < 0.15 * expect_var,
            "var {var} vs expected {expect_var}"
        );
    }

    #[test]
    fn ir_drop_attenuates_far_cells() {
        let mut device = DeviceModel::ideal();
        device.ir_drop_alpha = 0.2;
        let mut rng = Rng::from_seed(7);
        let w = Tensor::ones(&[4, 4]);
        let tile = Tile::program(&w, &device, &mut rng).unwrap();
        // drive only the first row vs only the last row: the near cell
        // contributes more
        let mut near = [0.0f32; 4];
        let mut far = [0.0f32; 4];
        tile.mvm(&[1.0, 0.0, 0.0, 0.0], &NoiseSpec::none(), &mut rng, &mut near)
            .unwrap();
        tile.mvm(&[0.0, 0.0, 0.0, 1.0], &NoiseSpec::none(), &mut rng, &mut far)
            .unwrap();
        assert!(near[0] > far[0], "near {} vs far {}", near[0], far[0]);
        // columns further from the sense amp also degrade
        assert!(near[0] > near[3]);
    }

    #[test]
    fn aging_shrinks_differential_weights() {
        let mut rng = Rng::from_seed(8);
        let w = Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap();
        let mut tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let before = tile.effective_weight(0, 0);
        tile.age(1000.0, 0.05, 0.0, &mut rng);
        let after = tile.effective_weight(0, 0);
        assert!(after.abs() < before.abs(), "{before} → {after}");
        assert!(after > 0.0, "sign must be preserved by uniform drift");
        // zero hours / zero nu are no-ops
        let snapshot = tile.effective_weight(0, 1);
        tile.age(0.0, 0.05, 0.0, &mut rng);
        tile.age(10.0, 0.0, 0.0, &mut rng);
        assert_eq!(tile.effective_weight(0, 1), snapshot);
    }

    #[test]
    fn non_matrix_weights_rejected() {
        let mut rng = Rng::from_seed(0);
        assert!(Tile::program(&Tensor::zeros(&[4]), &DeviceModel::ideal(), &mut rng).is_err());
    }

    #[test]
    fn stuck_faults_persist_through_reprogramming() {
        let mut device = DeviceModel::ideal();
        device.stuck_on_rate = 1.0; // every cell pinned to G_on
        let mut rng = Rng::from_seed(9);
        let w = Tensor::from_vec(vec![-1.0], &[1, 1]).unwrap();
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        // both cells stuck on ⇒ differential weight reads 0
        assert_eq!(tile.effective_weight(0, 0), 0.0);
        assert_eq!(tile.health(0, 0), (CellHealth::StuckOn, CellHealth::StuckOn));
        // refreshing cannot cure the fault
        let mut stats = ProgramStats::default();
        tile.refresh(None, &mut rng, &mut stats);
        assert_eq!(tile.effective_weight(0, 0), 0.0);
        assert_eq!(stats.cells, 2);
    }

    #[test]
    fn march_test_flags_stuck_cells_and_passes_clean_tiles() {
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        let mut rng = Rng::from_seed(10);
        let w = Tensor::ones(&[4, 4]);
        let clean = Tile::program(&w, &device, &mut rng).unwrap();
        assert!(clean
            .march_test(&MarchTestConfig::standard(), &mut rng)
            .unwrap()
            .is_empty());

        device.stuck_off_rate = 1.0;
        let faulty = Tile::program(&w, &device, &mut rng).unwrap();
        let map = faulty.march_test(&MarchTestConfig::standard(), &mut rng).unwrap();
        // every +1 weight's positive cell targets ON but is pinned OFF;
        // the negative cells target OFF and are (happily) stuck there
        assert_eq!(map.len(), 16);
        assert!(map.faults().iter().all(|f| f.side == CellSide::Pos));
        let mut bad_cfg = MarchTestConfig::standard();
        bad_cfg.reads = 0;
        assert!(faulty.march_test(&bad_cfg, &mut rng).is_err());
    }

    #[test]
    fn flip_column_preserves_logical_product() {
        let mut rng = Rng::from_seed(11);
        let tile_w = weights();
        let mut tile = Tile::program(&tile_w, &DeviceModel::ideal(), &mut rng).unwrap();
        tile.flip_column(1, &mut rng).unwrap();
        assert_eq!(tile.col_sign(1), -1.0);
        // effective weights are unchanged on ideal hardware
        for row in 0..3 {
            for col in 0..2 {
                assert_eq!(tile.effective_weight(row, col), tile.logical_weight(row, col));
            }
        }
        let x = [1.0, -1.0, 1.0];
        let mut out = [0.0; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        assert!((out[0] - 3.0).abs() < 1e-5);
        assert!((out[1] + 1.0).abs() < 1e-5);
        assert!(tile.flip_column(5, &mut rng).is_err());
    }

    #[test]
    fn flip_column_rescues_adverse_stuck_cell() {
        // A StuckOn positive cell under a −1 weight zeroes the weight;
        // after the flip its target becomes ON and the weight is exact.
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        let mut rng = Rng::from_seed(12);
        let w = Tensor::from_vec(vec![-1.0], &[1, 1]).unwrap();
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        // manufacture the fault: pin the positive cell ON
        tile.inject_fault(0, 0, CellSide::Pos, CellHealth::StuckOn).unwrap();
        // weight −1 wants pos OFF: (g_on − g_on)/denom = 0
        assert!(tile.effective_weight(0, 0).abs() < 1e-5);
        tile.flip_column(0, &mut rng).unwrap();
        // flipped target: pos ON (the stuck cell complies), neg OFF
        assert!((tile.effective_weight(0, 0) + 1.0).abs() < 1e-5);
    }

    #[test]
    fn replace_row_and_col_cure_faults_with_healthy_spares() {
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        let mut rng = Rng::from_seed(13);
        let w = weights();
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        // break a whole row and a whole column
        for col in 0..2 {
            tile.inject_fault(0, col, CellSide::Pos, CellHealth::StuckOff).unwrap();
            tile.inject_fault(0, col, CellSide::Neg, CellHealth::StuckOff).unwrap();
        }
        assert!(tile.effective_weight(0, 0).abs() < 1e-5);
        tile.replace_row(0, &mut rng).unwrap();
        assert_eq!(tile.effective_weight(0, 0), 1.0);
        assert_eq!(tile.effective_weight(0, 1), -1.0);

        tile.inject_fault(1, 0, CellSide::Pos, CellHealth::StuckOn).unwrap();
        tile.replace_col(0, &mut rng).unwrap();
        assert_eq!(tile.effective_weight(1, 0), -1.0);
        assert_eq!(tile.col_sign(0), 1.0);
        assert!(tile.replace_row(9, &mut rng).is_err());
        assert!(tile.replace_col(9, &mut rng).is_err());
    }

    #[test]
    fn refresh_restores_drifted_conductance() {
        let mut rng = Rng::from_seed(14);
        let w = weights();
        let mut tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        tile.age(10_000.0, 0.05, 0.0, &mut rng);
        assert!(tile.effective_weight(0, 0) < 0.9);
        let mut stats = ProgramStats::default();
        tile.refresh(None, &mut rng, &mut stats);
        assert_eq!(tile.effective_weight(0, 0), 1.0);
        assert_eq!(stats.cells, 12); // 6 pairs
        // verified refresh also works and charges pulses
        let mut stats2 = ProgramStats::default();
        tile.refresh(Some(&WriteVerify::standard()), &mut rng, &mut stats2);
        assert_eq!(tile.effective_weight(0, 0), 1.0);
        assert!(stats2.write_pulses >= 12);
    }

    #[test]
    fn reprogram_pair_succeeds_on_healthy_fails_on_stuck() {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.08;
        device.on_off_ratio = 20.0;
        let mut rng = Rng::from_seed(15);
        let w = Tensor::ones(&[1, 1]);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let escalated = WriteVerify {
            tolerance: 0.02,
            max_attempts: 50,
        };
        let mut stats = ProgramStats::default();
        assert!(tile
            .reprogram_pair(0, 0, &escalated, &mut rng, &mut stats)
            .unwrap());
        assert!((tile.effective_weight(0, 0) - 1.0).abs() < 0.05);

        tile.inject_fault(0, 0, CellSide::Pos, CellHealth::StuckOff).unwrap();
        assert!(!tile
            .reprogram_pair(0, 0, &escalated, &mut rng, &mut stats)
            .unwrap());
        assert!(tile.reprogram_pair(5, 0, &escalated, &mut rng, &mut stats).is_err());
    }

    /// A non-trivial device: d2d spread, c2c noise, IR drop, finite
    /// on/off ratio — exercises every cached quantity.
    fn lossy_device() -> DeviceModel {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.05;
        device.c2c_sigma = 0.03;
        device.ir_drop_alpha = 0.1;
        device.on_off_ratio = 20.0;
        device
    }

    /// `mvm` and `mvm_reference` on one drive from identically seeded
    /// generators: each output with its generator's next draw, which pins
    /// the draw count and order.
    fn mvm_and_reference(
        tile: &Tile,
        x: &[f32],
        noise: &NoiseSpec,
        seed: u64,
    ) -> [(Vec<f32>, u32); 2] {
        let cols = tile.dims().1;
        let (mut a, mut b) = (vec![0.0f32; cols], vec![0.0f32; cols]);
        let (mut rng_a, mut rng_b) = (Rng::from_seed(seed), Rng::from_seed(seed));
        tile.mvm(x, noise, &mut rng_a, &mut a).unwrap();
        tile.mvm_reference(x, noise, &mut rng_b, &mut b).unwrap();
        [
            (a, rng_a.normal(0.0, 1.0).to_bits()),
            (b, rng_b.normal(0.0, 1.0).to_bits()),
        ]
    }

    #[test]
    fn cached_kernel_is_bitwise_reference_for_binary_inputs() {
        let mut rng = Rng::from_seed(21);
        let w = Tensor::from_vec(
            (0..20).map(|i| if i % 3 == 0 { -1.0 } else { 1.0 }).collect(),
            &[5, 4],
        )
        .unwrap();
        let tile = Tile::program(&w, &lossy_device(), &mut rng).unwrap();
        assert!(!tile.packed_ready(true), "a lossy tile is off its rails");
        // the all-zero drive gates every c2c draw off
        for x in [[1.0, -1.0, 0.0, 1.0, -1.0], [0.0; 5]] {
            let [fast, slow] = mvm_and_reference(&tile, &x, &NoiseSpec::functional(0.4), 77);
            assert_eq!(fast, slow, "x = {x:?}: bitwise, draw order included");
        }
    }

    /// Rail-programmed device (no d2d spread) with a finite on/off
    /// ratio: both conductance rails are exact, so the tile stays
    /// [`Tile::packed_ready`] even through stuck cells.
    fn rails_device() -> DeviceModel {
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        device
    }

    #[test]
    fn packed_downgrades_on_heterogeneous_weights_and_stays_bitwise() {
        // the rail-programmed verdict: d2d spread, IR drop, drift and
        // stuck-broken c2c uniformity break it, rail writes keep it, and
        // execution is bitwise the reference either way
        let mut rng = Rng::from_seed(53);
        let tile = Tile::program(&weights(), &lossy_device(), &mut rng).unwrap();
        assert!(!tile.packed_ready(false), "d2d weights must not pack");
        assert!(!tile.packed_ready(true));
        let noise = NoiseSpec::functional(0.3);
        let x = [1.0, -1.0, 1.0];
        let [fast, slow] = mvm_and_reference(&tile, &x, &noise, 3);
        assert_eq!(fast, slow, "the cached loop must be bitwise reference");

        // a lone stuck cell breaks the *variance* uniformity only: the
        // weight plane still packs (w_eff stays on ±1/0), the c2c plane
        // refuses (that pair's G⁺²+G⁻² differs from its neighbors')
        let mut device = rails_device();
        device.c2c_sigma = 0.05;
        let mut stuck = Tile::program(&weights(), &device, &mut rng).unwrap();
        stuck
            .inject_fault(0, 0, CellSide::Neg, CellHealth::StuckOn)
            .unwrap();
        assert!(stuck.packed_ready(false));
        assert!(!stuck.packed_ready(true), "stuck pairs must break c2c packing");
        let [fast, slow] = mvm_and_reference(&stuck, &x, &noise, 4);
        assert_eq!(fast, slow);

        let mut tile = Tile::program(&weights(), &rails_device(), &mut rng).unwrap();
        let mut stats = ProgramStats::default();
        tile.upset_cell(0, 1, CellSide::Pos, false).unwrap();
        tile.flip_column(1, &mut rng).unwrap();
        tile.replace_row(0, &mut rng).unwrap();
        tile.replace_col(0, &mut rng).unwrap();
        tile.reprogram_pair(2, 1, &WriteVerify::standard(), &mut rng, &mut stats)
            .unwrap();
        tile.refresh(None, &mut rng, &mut stats);
        assert!(tile.packed_ready(false), "rail writes keep the rails");
        let mut aged = tile.clone();
        aged.age(500.0, 0.05, 0.01, &mut rng);
        assert!(!aged.packed_ready(false), "drift breaks the rails");
        let map: Vec<f32> = (0..6).map(|i| 1.0 - 0.02 * i as f32).collect();
        tile.scale_attenuation(&map);
        assert!(!tile.packed_ready(false), "attenuation breaks the rails");
    }

    #[test]
    fn packed_falls_back_on_fractional_inputs() {
        // amplitude-style fractional drives on a rail-programmed tile
        // run the same cached loop as every other drive
        let mut rng = Rng::from_seed(54);
        let tile = Tile::program(&weights(), &rails_device(), &mut rng).unwrap();
        assert!(tile.packed_ready(false));
        let noise = NoiseSpec::functional(0.3);
        let x = [0.5, -1.0, 0.25];
        let (mut a, mut b) = ([0.0f32; 2], [0.0f32; 2]);
        tile.mvm(&x, &noise, &mut Rng::from_seed(9), &mut a).unwrap();
        tile.mvm_block_cached(&x, 3, 0, &noise, &mut [Rng::from_seed(9)], &mut b);
        assert_eq!(a, b, "fractional drives must serve the cached results");
    }

    #[test]
    fn every_mutation_keeps_the_cache_fresh() {
        // after each mutation the cached loop must still agree with the
        // reference oracle, which reads raw conductances and cannot be
        // stale
        let mut rng = Rng::from_seed(22);
        let w = weights();
        let mut tile = Tile::program(&w, &lossy_device(), &mut rng).unwrap();
        let check = |tile: &Tile, what: &str| {
            let [fast, slow] =
                mvm_and_reference(tile, &[1.0, -1.0, 1.0], &NoiseSpec::functional(0.2), 5);
            assert_eq!(fast, slow, "stale cache after {what}");
        };
        check(&tile, "program");
        let map: Vec<f32> = (0..6).map(|i| 1.0 - 0.02 * i as f32).collect();
        tile.scale_attenuation(&map);
        check(&tile, "scale_attenuation");
        tile.age(500.0, 0.05, 0.01, &mut rng);
        check(&tile, "age");
        tile.flip_column(1, &mut rng).unwrap();
        check(&tile, "flip_column");
        tile.replace_row(0, &mut rng).unwrap();
        check(&tile, "replace_row");
        tile.replace_col(0, &mut rng).unwrap();
        check(&tile, "replace_col");
        let mut stats = ProgramStats::default();
        tile.reprogram_pair(2, 1, &WriteVerify::standard(), &mut rng, &mut stats)
            .unwrap();
        check(&tile, "reprogram_pair");
        tile.refresh(None, &mut rng, &mut stats);
        check(&tile, "refresh");
        tile.refresh(Some(&WriteVerify::standard()), &mut rng, &mut stats);
        check(&tile, "verified refresh");
        tile.inject_fault(1, 0, CellSide::Neg, CellHealth::StuckOn).unwrap();
        check(&tile, "inject_fault");
        tile.upset_cell(0, 1, CellSide::Pos, false).unwrap();
        check(&tile, "upset_cell");
        let (tile_v, _) =
            Tile::program_verified(&w, &lossy_device(), &WriteVerify::standard(), &mut rng)
                .unwrap();
        check(&tile_v, "program_verified");
    }

    #[test]
    fn delta_schedule_matches_fused_kernel_per_pulse() {
        // dense pulse 0 + sparse switched-row updates + finish_pulse must
        // track the reference oracle pulse by pulse, for a nested-unary
        // schedule (monotone +1 → −1 per row)
        let mut rng = Rng::from_seed(23);
        let w = Tensor::from_vec(
            (0..24).map(|i| if i % 5 < 2 { -1.0 } else { 1.0 }).collect(),
            &[4, 6],
        )
        .unwrap();
        let mut tile = Tile::program(&w, &lossy_device(), &mut rng).unwrap();
        tile.flip_column(3, &mut rng).unwrap(); // non-trivial polarity
        let noise = NoiseSpec::functional(0.3);
        // thermometer-style schedule: row r stays +1 for highs[r] pulses
        let highs = [3usize, 0, 2, 4];
        let pulse_at = |pi: usize| -> Vec<f32> {
            highs.iter().map(|&h| if pi < h { 1.0 } else { -1.0 }).collect()
        };
        let mut acc = [0.0f32; 6];
        let mut fast = [0.0f32; 6];
        let mut slow = [0.0f32; 6];
        for pi in 0..4 {
            let x = pulse_at(pi);
            if pi == 0 {
                tile.accumulate_cached(&x, &mut acc, &mut []);
            } else {
                let switched: Vec<usize> = (0..4).filter(|&r| highs[r] == pi).collect();
                tile.accumulate_switched(&switched, &mut acc);
            }
            let mut rng_fast = Rng::from_seed(900 + pi as u64);
            let mut rng_slow = Rng::from_seed(900 + pi as u64);
            tile.finish_pulse(&acc, &noise, &mut rng_fast, &mut fast);
            tile.mvm_reference(&x, &noise, &mut rng_slow, &mut slow).unwrap();
            for (f, s) in fast.iter().zip(slow.iter()) {
                assert!(
                    (f - s).abs() <= 1e-5,
                    "pulse {pi}: delta {f} vs reference {s}"
                );
            }
        }
    }

    #[test]
    fn checksum_matches_noiseless_column_sum() {
        let mut rng = Rng::from_seed(7);
        let mut tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        assert!(!tile.guard_armed());
        assert!(tile
            .checksum_pulse(&[1.0, 1.0, 1.0], &NoiseSpec::none(), &mut rng)
            .is_none());
        tile.arm_guard();
        assert!(tile.guard_armed());
        let x = [1.0, -1.0, 1.0];
        let mut out = [0.0f32; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        let (chk, var) = tile
            .checksum_pulse(&x, &NoiseSpec::none(), &mut rng)
            .unwrap();
        let sum: f32 = out.iter().sum();
        assert!((chk - sum).abs() < 1e-6, "checksum {chk} vs Σy {sum}");
        // ideal ±1 cells: Σ x² (G⁺²+G⁻²) = active_rows · cols · G_on²
        let g_on = DeviceModel::ideal().g_on;
        assert!((var - 3.0 * 2.0 * g_on * g_on).abs() < 1e-4);
        tile.disarm_guard();
        assert!(!tile.guard_armed());
    }

    #[test]
    fn checksum_tracks_polarity_at_arming_time() {
        let mut rng = Rng::from_seed(11);
        // d2d + IR-drop + finite on/off, but no c2c: the checksum and the
        // regular columns draw *independent* c2c noise, so only a
        // noise-free read compares exactly
        let mut device = lossy_device();
        device.c2c_sigma = 0.0;
        let mut tile = Tile::program(&weights(), &device, &mut rng).unwrap();
        tile.flip_column(1, &mut rng).unwrap();
        tile.arm_guard();
        let x = [1.0, 1.0, -1.0];
        let mut out = [0.0f32; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        let (chk, _) = tile
            .checksum_pulse(&x, &NoiseSpec::none(), &mut rng)
            .unwrap();
        let sum: f32 = out.iter().sum();
        assert!(
            (chk - sum).abs() < 1e-5 * (1.0 + sum.abs()),
            "checksum {chk} vs Σy {sum}"
        );
    }

    #[test]
    fn stale_checksum_exposes_injected_fault() {
        let mut rng = Rng::from_seed(13);
        let mut tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        tile.arm_guard();
        // corrupt a pair after arming: the snapshot must NOT follow
        tile.inject_fault(0, 0, CellSide::Pos, CellHealth::StuckOff)
            .unwrap();
        let x = [1.0, 1.0, 1.0];
        let mut out = [0.0f32; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        let (chk, _) = tile
            .checksum_pulse(&x, &NoiseSpec::none(), &mut rng)
            .unwrap();
        let sum: f32 = out.iter().sum();
        assert!(
            (chk - sum).abs() > 0.5,
            "stuck-off flip of a +1 cell must shift Σy by ~1: chk {chk}, Σy {sum}"
        );
        // a refresh restores toward targets but cannot cure the stuck
        // cell, and must not re-arm: the violation persists
        let mut stats = ProgramStats::default();
        tile.refresh(None, &mut rng, &mut stats);
        assert!(tile.guard_armed());
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        let (chk2, _) = tile
            .checksum_pulse(&x, &NoiseSpec::none(), &mut rng)
            .unwrap();
        let sum2: f32 = out.iter().sum();
        assert!((chk2 - sum2).abs() > 0.5, "refresh must not absorb the fault");
    }

    #[test]
    fn refresh_restores_temperature_scaled_targets() {
        // regression: at elevated temperature the resolved device model
        // carries a thermally degraded on/off ratio; refresh must program
        // cells back to *that* device's targets, not the nominal 300 K
        // levels, or every refreshed weight picks up a systematic bias
        use crate::nonideal::NonIdealitySpec;
        let hot = NonIdealitySpec::ideal().at_temperature(390.0);
        let mut base = NoiseSpec::none();
        base.device.on_off_ratio = 20.0;
        let scaled = hot.scaled_noise(&base);
        assert!(scaled.device.g_off() > base.device.g_off());
        let mut rng = Rng::from_seed(14);
        let mut tile = Tile::program(&weights(), &scaled.device, &mut rng).unwrap();
        let before = tile.effective_weight(0, 1);
        assert_eq!(before, -1.0); // exact under the scaled denom
        tile.upset_cell(0, 1, CellSide::Pos, true).unwrap();
        assert_ne!(tile.effective_weight(0, 1), before);
        let mut stats = ProgramStats::default();
        tile.refresh(None, &mut rng, &mut stats);
        // a refresh toward nominal levels would leave ≈ −1.035 here
        assert_eq!(tile.effective_weight(0, 1), before);
    }

    #[test]
    fn saf_correction_restores_readout_and_clears_on_mutation() {
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        let mut rng = Rng::from_seed(31);
        let mut tile = Tile::program(&weights(), &device, &mut rng).unwrap();
        assert!(!tile.has_saf_correction());
        // pin the +1 weight at (0, 0) to zero: both cells stuck opposite
        tile.inject_fault(0, 0, CellSide::Pos, CellHealth::StuckOff).unwrap();
        tile.inject_fault(0, 0, CellSide::Neg, CellHealth::StuckOn).unwrap();
        let map = tile.march_test(&MarchTestConfig::standard(), &mut rng).unwrap();
        assert_eq!(map.len(), 2);
        let entries = tile.build_saf_correction(&map);
        assert_eq!(entries.len(), 1);
        tile.set_saf_correction(entries);
        assert!(tile.has_saf_correction());
        let x = [1.0, -1.0, 1.0];
        let mut out = [0.0f32; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        // analog readout lost the (0,0) contribution: col0 = −1+(−1)(−1)+1·1? no:
        // stuck pair reads −1 instead of +1 ⇒ col0 = −1 + 1 + 1 = 1
        assert!((out[0] - 1.0).abs() < 1e-5, "broken readout = {}", out[0]);
        let applied = tile.apply_saf_correction(&x, &mut out);
        assert_eq!(applied, 1);
        // corrected: back to the clean product 3
        assert!((out[0] - 3.0).abs() < 1e-5, "corrected readout = {}", out[0]);
        // rows driven at 0 skip their corrections
        let x0 = [0.0, 1.0, 1.0];
        let mut out0 = [0.0f32; 2];
        assert_eq!(tile.apply_saf_correction(&x0, &mut out0), 0);
        assert_eq!(out0, [0.0, 0.0]);
        // any further mutation invalidates the table
        tile.upset_cell(1, 1, CellSide::Neg, true).unwrap();
        assert!(!tile.has_saf_correction());
        tile.set_saf_correction(vec![(0, 0, 0.5)]);
        tile.inject_fault(2, 0, CellSide::Pos, CellHealth::StuckOn).unwrap();
        assert!(!tile.has_saf_correction());
        tile.set_saf_correction(vec![(0, 0, 0.5)]);
        tile.clear_saf_correction();
        assert!(!tile.has_saf_correction());
    }

    #[test]
    fn upset_is_transient_refresh_cures_it_and_health_is_untouched() {
        let mut rng = Rng::from_seed(14);
        let mut tile = Tile::program(&weights(), &DeviceModel::ideal(), &mut rng).unwrap();
        tile.arm_guard();
        let before = tile.effective_weight(0, 0);
        tile.upset_cell(0, 0, CellSide::Pos, false).unwrap();
        assert_ne!(
            tile.effective_weight(0, 0),
            before,
            "rail excursion must move the weight"
        );
        assert_eq!(tile.health(0, 0), (CellHealth::Healthy, CellHealth::Healthy));
        let x = [1.0, 1.0, 1.0];
        let mut out = [0.0f32; 2];
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        let (chk, _) = tile
            .checksum_pulse(&x, &NoiseSpec::none(), &mut rng)
            .unwrap();
        assert!(
            (chk - out.iter().sum::<f32>()).abs() > 0.5,
            "upset must trip the stale checksum"
        );
        // unlike a pinned-health fault, reprogramming cures the
        // excursion completely: the original armed reference holds again
        let mut stats = ProgramStats::default();
        tile.refresh(None, &mut rng, &mut stats);
        assert_eq!(tile.effective_weight(0, 0), before);
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut out).unwrap();
        let (chk2, _) = tile
            .checksum_pulse(&x, &NoiseSpec::none(), &mut rng)
            .unwrap();
        assert!(
            (chk2 - out.iter().sum::<f32>()).abs() < 1e-5,
            "cured array must satisfy the original reference"
        );
    }
}
