//! The crossbar execution engine: tile partitioning and pulse-train MVM.

use membit_encoding::PulseTrain;
use membit_tensor::parallel::{plan_threads, scoped_chunks};
use membit_tensor::{Rng, Tensor, TensorError};

use crate::adc::Adc;
use crate::energy::ExecutionStats;
use crate::guard::{GuardPolicy, GUARD_STREAM_TAG, RETRY_STREAM_TAG};
use crate::noise::NoiseSpec;
use crate::nonideal::NonIdealitySpec;
use crate::program::{ProgramStats, WriteVerify};
use crate::remap::{remap_tile, RecoveryPolicy, RemapReport};
use crate::tile::Tile;
use crate::Result;

/// Host-side execution options: how programming and pulse execution fan
/// out over worker threads.
///
/// Noise streams are derived per `(pulse, sample, row_tile, col_tile)`
/// (see [`Rng::substream`]), so results are **bitwise identical for every
/// `max_threads` / `samples_per_thread` setting** — these knobs trade
/// wall clock only, never reproducibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Upper bound on worker threads (1 = single-threaded).
    pub max_threads: usize,
    /// Minimum input vectors per worker; small batches stay
    /// single-threaded to avoid spawn overhead.
    pub samples_per_thread: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            max_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            samples_per_thread: 2,
        }
    }
}

impl ExecOptions {
    /// Options forcing single-threaded execution — the escape hatch for
    /// profiling and for hosts where spawning is expensive.
    pub fn serial() -> Self {
        Self {
            max_threads: 1,
            samples_per_thread: usize::MAX,
        }
    }

    /// Default options capped at `max_threads` workers.
    pub fn with_threads(max_threads: usize) -> Self {
        Self {
            max_threads,
            ..Self::default()
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero threads or a
    /// zero per-thread sample floor.
    pub fn validate(&self) -> Result<()> {
        if self.max_threads == 0 || self.samples_per_thread == 0 {
            return Err(TensorError::InvalidArgument(
                "exec options need max_threads ≥ 1 and samples_per_thread ≥ 1".into(),
            ));
        }
        Ok(())
    }
}

/// Deployment configuration of one crossbar-mapped linear operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XbarConfig {
    /// Maximum wordlines (input rows) per tile.
    pub tile_rows: usize,
    /// Maximum bitline pairs (output columns) per tile.
    pub tile_cols: usize,
    /// Per-tile ADC resolution; `None` models an ideal (infinite) ADC.
    /// The full-scale range is auto-sized to the tile's row count (the
    /// worst-case ±1 accumulation).
    pub adc_bits: Option<u32>,
    /// Noise configuration.
    pub noise: NoiseSpec,
    /// Optional program-and-verify write policy; `None` programs each
    /// cell with a single pulse.
    pub write_verify: Option<WriteVerify>,
    /// Host-side thread fan-out (simulation speed only — results are
    /// independent of it).
    pub exec: ExecOptions,
    /// Optional ABFT checksum guard. When set, programming arms every
    /// tile's checksum column and
    /// [`CrossbarLinear::execute_guarded`] checks each pulse readout,
    /// walking the policy's escalation ladder on violations. `None` (the
    /// default in every preset) leaves execution byte-for-byte identical
    /// to an unguarded deployment.
    pub guard: Option<GuardPolicy>,
    /// Physical non-ideality layer: wire-resistance IR drop and
    /// operating temperature. [`CrossbarLinear::program`] resolves this
    /// spec once — folding the attenuation map into every tile's weight
    /// cache and storing the temperature-scaled [`NoiseSpec`] — so the
    /// guard tolerance, refresh targets, and march tests all see the
    /// same scaled device. [`NonIdealitySpec::ideal`] (the default in
    /// every preset) reproduces the unscaled engine bit-for-bit.
    pub nonideal: NonIdealitySpec,
}

impl XbarConfig {
    /// Ideal deployment: one noise-free, infinitely precise 128×128 tile
    /// fabric.
    pub fn ideal() -> Self {
        Self {
            tile_rows: 128,
            tile_cols: 128,
            adc_bits: None,
            noise: NoiseSpec::none(),
            write_verify: None,
            exec: ExecOptions::default(),
            guard: None,
            nonideal: NonIdealitySpec::ideal(),
        }
    }

    /// The paper's functional model: additive per-pulse Gaussian output
    /// noise on otherwise ideal hardware.
    pub fn functional(output_sigma: f32) -> Self {
        Self {
            noise: NoiseSpec::functional(output_sigma),
            ..Self::ideal()
        }
    }

    /// Realistic deployment: 128×128 tiles, 8-bit ADCs, device variation,
    /// plus functional output noise.
    pub fn realistic(output_sigma: f32) -> Self {
        Self {
            tile_rows: 128,
            tile_cols: 128,
            adc_bits: Some(8),
            noise: NoiseSpec::realistic(output_sigma),
            write_verify: Some(WriteVerify::standard()),
            exec: ExecOptions::default(),
            guard: None,
            nonideal: NonIdealitySpec::ideal(),
        }
    }

    /// This configuration with checksum-guarded execution enabled.
    pub fn with_guard(mut self, guard: GuardPolicy) -> Self {
        self.guard = Some(guard);
        self
    }

    /// This configuration with the given physical non-ideality layer.
    pub fn with_nonideal(mut self, nonideal: NonIdealitySpec) -> Self {
        self.nonideal = nonideal;
        self
    }

    /// Validates the full deployment configuration — tile geometry,
    /// write-verify policy, noise spec and the embedded device model —
    /// failing fast with [`TensorError::InvalidArgument`] before any
    /// hardware state is built. [`CrossbarLinear::program`] calls this on
    /// every construction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] describing the first
    /// offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.tile_rows == 0 || self.tile_cols == 0 {
            return Err(TensorError::InvalidArgument(
                "tile dimensions must be nonzero".into(),
            ));
        }
        if let Some(wv) = &self.write_verify {
            wv.validate()?;
        }
        if let Some(guard) = &self.guard {
            guard.validate()?;
        }
        self.exec.validate()?;
        self.nonideal.validate()?;
        self.noise.validate()
    }
}

/// Per-output-column second-moment aggregates of a deployed operator's
/// physical state plus the resolved noise/ADC scalars — everything an
/// analytic (MemSE-style) variance-propagation pass needs to write the
/// per-readout error variance in closed form, without touching RNG or
/// running pulses. Built by [`CrossbarLinear::variance_stats`].
///
/// Column vectors are indexed by global output feature and already
/// summed over the operator's row tiles (each pulse readout is the sum
/// of `row_tiles` independent tile readouts, so second moments add).
#[derive(Debug, Clone)]
pub struct VarianceStats {
    /// Output features of the operator.
    pub out_features: usize,
    /// Input features of the operator.
    pub in_features: usize,
    /// Number of row strips: independent ADC conversions and output-noise
    /// draws summed per pulse readout.
    pub row_tiles: usize,
    /// First global output column of each column tile — the grouping
    /// boundaries per-tile pulse allocation optimizes over.
    pub col_starts: Vec<usize>,
    /// Resolved per-readout Gaussian output noise (temperature scaling
    /// already folded in at program time).
    pub output_sigma: f32,
    /// Resolved `σ_c2c/(G_on−G_off)` — the factor converting
    /// [`col_gsq`](Self::col_gsq) mass into normalized readout variance.
    pub c2c_sigma_over_denom: f32,
    /// Per-row-tile ADC step sizes (uniform quantization, variance
    /// `step²/12` per conversion); empty when ADC is disabled.
    pub adc_steps: Vec<f32>,
    /// `Σ_rows (G⁺²+G⁻²)` per output column (full-drive c2c mass).
    pub col_gsq: Vec<f32>,
    /// `Σ_rows (sign·w_eff − logical)²` per output column — persistent
    /// programming/IR-drop/drift error vs the logical ±1 matrix.
    pub col_weight_err_sq: Vec<f32>,
    /// `Σ_rows w_eff²` per output column — deployed weight energy.
    pub col_weff_sq: Vec<f32>,
}

/// A linear operator `y = W·x` deployed across a grid of crossbar tiles.
///
/// `W` is `[out, in]` (logical binary weights); physically the transpose
/// is programmed so wordlines carry inputs. Executing a
/// [`PulseTrain`] runs one analog MVM per pulse per input vector, ADC-
/// quantizes each tile's columns, digitally accumulates tiles and pulses
/// with the train's weights, and normalizes by the weight sum — exactly
/// the temporal accumulation whose noise the paper analyzes in Eqs. 2–4.
#[derive(Debug, Clone)]
pub struct CrossbarLinear {
    out_features: usize,
    in_features: usize,
    /// Row-tile-major grid: `tiles[r][c]` covers input rows
    /// `r·tile_rows..` and output cols `c·tile_cols..`.
    tiles: Vec<Vec<Tile>>,
    row_starts: Vec<usize>,
    col_starts: Vec<usize>,
    adcs: Vec<Option<Adc>>, // per row-block (range depends on rows)
    config: XbarConfig,
    program_stats: ProgramStats,
    recovery: Option<RemapReport>,
    /// Set when the guard's escalation ladder ran out of hardware
    /// remedies: this layer permanently serves the digital fallback.
    degraded: bool,
}

impl CrossbarLinear {
    /// Programs the weight matrix `w` (`[out, in]`, entries ±1) onto a
    /// tile grid.
    ///
    /// # Errors
    ///
    /// Propagates configuration/shape validation errors.
    pub fn program(w: &Tensor, config: &XbarConfig, rng: &mut Rng) -> Result<Self> {
        if w.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "crossbar program",
                expected: 2,
                actual: w.rank(),
            });
        }
        config.validate()?;
        // Resolve the physical non-ideality layer once, up front: the
        // stored config carries the temperature-scaled noise spec, so
        // tile programming, refresh targets, march tests, and the guard
        // tolerance all agree on the same scaled device. The IR-drop
        // attenuation map is folded into each tile's weight cache below.
        let resolved = {
            let mut resolved = *config;
            resolved.noise = config.nonideal.scaled_noise(&config.noise);
            resolved
        };
        let config = &resolved;
        let (out_features, in_features) = (w.shape()[0], w.shape()[1]);
        let wt = w.transpose()?; // [in, out]: rows = wordlines
        let row_starts: Vec<usize> = (0..in_features).step_by(config.tile_rows).collect();
        let col_starts: Vec<usize> = (0..out_features).step_by(config.tile_cols).collect();
        let (nrt, nct) = (row_starts.len(), col_starts.len());

        // Programming noise is drawn from substreams keyed by the tile's
        // grid position, so the fan-out below yields the same devices for
        // any thread count. The nonce keeps repeated calls on one rng
        // from reusing realizations.
        let nonce = rng.next_nonce();
        let base = rng.substream(&[nonce]);
        let njobs = nrt * nct;
        let threads = plan_threads(njobs, config.exec.max_threads, 1);
        let mut slots: Vec<Option<Result<(Tile, ProgramStats)>>> =
            (0..njobs).map(|_| None).collect();
        scoped_chunks(&mut slots, njobs.div_ceil(threads), |start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                let (ri, ci) = ((start + off) / nct, (start + off) % nct);
                let (r0, c0) = (row_starts[ri], col_starts[ci]);
                let rows = config.tile_rows.min(in_features - r0);
                let cols = config.tile_cols.min(out_features - c0);
                let mut sub = Tensor::zeros(&[rows, cols]);
                for i in 0..rows {
                    for j in 0..cols {
                        sub.set(&[i, j], wt.get(&[r0 + i, c0 + j]));
                    }
                }
                let mut trng = base.substream(&[ri as u64, ci as u64]);
                let mut result = match &config.write_verify {
                    Some(policy) => {
                        Tile::program_verified(&sub, &config.noise.device, policy, &mut trng)
                    }
                    None => Tile::program(&sub, &config.noise.device, &mut trng)
                        .map(|tile| (tile, ProgramStats::default())),
                };
                if let Ok((tile, _)) = &mut result {
                    // deterministic (geometry-only), so safe to apply
                    // inside the thread fan-out
                    if let Some(map) =
                        config
                            .nonideal
                            .attenuation_map(rows, cols, config.noise.device.g_on)
                    {
                        tile.scale_attenuation(&map);
                    }
                }
                *slot = Some(result);
            }
        });

        let mut program_stats = ProgramStats::default();
        let mut tiles = Vec::with_capacity(nrt);
        let mut adcs = Vec::with_capacity(nrt);
        let mut slots = slots.into_iter();
        for &r0 in &row_starts {
            let rows = config.tile_rows.min(in_features - r0);
            let mut row_tiles = Vec::with_capacity(nct);
            for _ in &col_starts {
                let (mut tile, stats) = slots
                    .next()
                    .flatten()
                    .ok_or_else(|| {
                        TensorError::InvalidArgument(
                            "program fan-out left an unfilled tile slot".into(),
                        )
                    })??;
                if config.write_verify.is_some() {
                    program_stats.merge(&stats);
                }
                if config.guard.is_some() {
                    // snapshot the as-programmed state as the ABFT
                    // reference — guarded execution compares every pulse
                    // readout against it
                    tile.arm_guard();
                }
                row_tiles.push(tile);
            }
            tiles.push(row_tiles);
            adcs.push(match config.adc_bits {
                Some(bits) => Some(Adc::new(bits, rows as f32 * 1.25)?),
                None => None,
            });
        }
        Ok(Self {
            out_features,
            in_features,
            tiles,
            row_starts,
            col_starts,
            adcs,
            config: *config,
            program_stats,
            recovery: None,
            degraded: false,
        })
    }

    /// Write/endurance counters from the programming phase. Counters are
    /// only tracked when a [`WriteVerify`] policy is configured; without
    /// one the stats stay at their zero default.
    pub fn program_stats(&self) -> &ProgramStats {
        &self.program_stats
    }

    /// `(out_features, in_features)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.out_features, self.in_features)
    }

    /// Number of physical tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    /// The deployment configuration.
    pub fn config(&self) -> &XbarConfig {
        &self.config
    }

    /// Rebounds the host-side thread fan-out for subsequent executions.
    ///
    /// Results are bitwise independent of this setting (noise substreams
    /// are keyed per `(pulse, sample, tile)`), so a long-lived deployment
    /// — e.g. a serving loop — can rescale workers at runtime without
    /// perturbing reproducibility.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `max_threads` is zero.
    pub fn set_max_threads(&mut self, max_threads: usize) -> Result<()> {
        if max_threads == 0 {
            return Err(TensorError::InvalidArgument(
                "max_threads must be ≥ 1".into(),
            ));
        }
        self.config.exec.max_threads = max_threads;
        Ok(())
    }

    /// Whether **every** tile of this operator is rail-programmed:
    /// uniform weight magnitude — and, on c2c-noisy devices, uniform
    /// per-cell `G⁺²+G⁻²` — with exactly representable multiples (see
    /// [`Tile::packed_ready`]). Execution does not depend on it; the
    /// name predates the removal of the bit-packed loops it once gated.
    pub fn packed_ready(&self) -> bool {
        let need_c2c = self.config.noise.device.c2c_sigma > 0.0;
        self.tiles
            .iter()
            .flatten()
            .all(|tile| tile.packed_ready(need_c2c))
    }

    /// Executes a pulse train of input vectors (`[N, in]` per pulse),
    /// returning decoded outputs `[N, out]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the train's vectors don't match
    /// `in_features`.
    pub fn execute(&self, train: &PulseTrain, rng: &mut Rng) -> Result<Tensor> {
        self.execute_with_stats(train, rng).map(|(y, _)| y)
    }

    /// Like [`execute`](Self::execute) but also returns event counts for
    /// energy/latency analysis.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the train's vectors don't match
    /// `in_features`.
    pub fn execute_with_stats(
        &self,
        train: &PulseTrain,
        rng: &mut Rng,
    ) -> Result<(Tensor, ExecutionStats)> {
        self.execute_internal(train, rng).map(|(y, stats, _)| (y, stats))
    }

    /// Checksum-guarded execution: like
    /// [`execute_with_stats`](Self::execute_with_stats), plus the full
    /// escalation ladder of the configured [`GuardPolicy`].
    ///
    /// Detection and stage-1 retries run inside the (pure, parallel)
    /// workers; when a tile's violation survives its retry budget, the
    /// serial ladder takes over: targeted [`Tile::refresh`] of the
    /// offending tiles, then march-test + [`remap_tile`] (re-arming the
    /// repaired tiles' checksums and folding the damage into this
    /// engine's [`RemapReport`]), then — budgets exhausted — the layer is
    /// marked degraded and this and every later call serve the digital
    /// `x·Wᵀ` reference output.
    ///
    /// Without a configured guard this is exactly
    /// [`execute_with_stats`](Self::execute_with_stats). Results stay
    /// bitwise deterministic across thread counts: retry and checksum
    /// noise comes from substreams keyed by
    /// `(pulse, sample, tile, stream-tag, attempt)`, and ladder decisions
    /// depend only on per-tile violation counts, which merge
    /// order-independently.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the train's vectors don't match
    /// `in_features`; propagates remap policy validation errors.
    pub fn execute_guarded(
        &mut self,
        train: &PulseTrain,
        rng: &mut Rng,
    ) -> Result<(Tensor, ExecutionStats)> {
        let Some(policy) = self.config.guard else {
            return self.execute_with_stats(train, rng);
        };
        let mut total = ExecutionStats::default();
        if self.degraded {
            return self.fallback_execute(train, total);
        }
        let nct = self.col_starts.len();
        let mut refresh_rounds = 0u32;
        let mut remap_rounds = 0u32;
        loop {
            let (y, stats, viol) = self.execute_internal(train, rng)?;
            total.merge(&stats);
            let offending: Vec<usize> = viol
                .iter()
                .enumerate()
                .filter_map(|(idx, &v)| (v > 0).then_some(idx))
                .collect();
            if offending.is_empty() {
                return Ok((y, total));
            }
            if refresh_rounds < policy.refresh_rounds {
                // stage 2: re-program the offending tiles toward their
                // stored targets. Cures drift; the armed reference is
                // deliberately kept, so persistent faults keep violating
                // and escalate further.
                refresh_rounds += 1;
                let mut pstats = ProgramStats::default();
                let wv = self.config.write_verify;
                for &idx in &offending {
                    self.tiles[idx / nct][idx % nct].refresh(wv.as_ref(), rng, &mut pstats);
                    total.guard.tile_refreshes = total.guard.tile_refreshes.saturating_add(1);
                }
                continue;
            }
            if remap_rounds < policy.remap_rounds {
                // stage 3: commanded, verified repair — march-test +
                // remap the offending tiles, then re-arm their checksums
                // so the repaired state (residual damage included, which
                // the merged RemapReport discloses) becomes the new
                // reference.
                remap_rounds += 1;
                let mut report = RemapReport::default();
                for &idx in &offending {
                    let tile = &mut self.tiles[idx / nct][idx % nct];
                    report.merge(&remap_tile(tile, &policy.remap, rng)?);
                    tile.arm_guard();
                    total.guard.tile_remaps = total.guard.tile_remaps.saturating_add(1);
                }
                match &mut self.recovery {
                    Some(r) => r.merge(&report),
                    None => self.recovery = Some(report),
                }
                continue;
            }
            // stage 4: out of hardware remedies
            self.degraded = true;
            return self.fallback_execute(train, total);
        }
    }

    /// Whether the guard has demoted this layer to the digital fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The digital reference path: decodes the train and multiplies by
    /// the stored logical weights — the noise-free output the analog
    /// array is supposed to approximate.
    fn fallback_execute(
        &self,
        train: &PulseTrain,
        mut total: ExecutionStats,
    ) -> Result<(Tensor, ExecutionStats)> {
        let shape = train.shape();
        if shape.len() != 2 || shape[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                op: "crossbar execute",
                lhs: shape.to_vec(),
                rhs: vec![shape.first().copied().unwrap_or(0), self.in_features],
            });
        }
        let x = train.decode()?;
        let y = x.matmul(&self.logical_matrix().transpose()?)?;
        // analog rounds (if any) already charged their vectors; a
        // short-circuited call still reports the batch it served
        total.vectors = total.vectors.max(shape[0] as u64);
        total.guard.fallbacks = total.guard.fallbacks.saturating_add(1);
        total.guard.degraded_layers = total.guard.degraded_layers.max(1);
        Ok((y, total))
    }

    /// Reassembles the *deployed* `[out, in]` weight matrix from the tile
    /// grid: per cell `sign·(G⁺−G⁻)·attenuation/(G_on−G_off)` — exactly
    /// what a clean (noise-free) execution multiplies inputs by. The gap
    /// between this and the logical ±1 matrix is the persistent
    /// programming error [`VarianceStats::col_weight_err_sq`] aggregates.
    pub fn effective_matrix(&self) -> Tensor {
        let mut w = Tensor::zeros(&[self.out_features, self.in_features]);
        for (ri, &r0) in self.row_starts.iter().enumerate() {
            for (ci, &c0) in self.col_starts.iter().enumerate() {
                let tile = &self.tiles[ri][ci];
                let (trows, tcols) = tile.dims();
                for i in 0..trows {
                    for j in 0..tcols {
                        w.set(&[c0 + j, r0 + i], tile.deployed_weight(i, j));
                    }
                }
            }
        }
        w
    }

    /// Aggregates every tile's [`TileVarianceStats`](crate::TileVarianceStats)
    /// plus the resolved noise/ADC scalars into the per-output-column
    /// view analytic (MemSE-style) variance propagation consumes.
    /// `O(cells)`, no RNG; reflects the array's *current* physical state
    /// (faults, drift, remaps included) because the per-tile stats read
    /// the eagerly maintained weight cache.
    pub fn variance_stats(&self) -> VarianceStats {
        let mut col_gsq = vec![0.0f32; self.out_features];
        let mut col_weight_err_sq = vec![0.0f32; self.out_features];
        let mut col_weff_sq = vec![0.0f32; self.out_features];
        for row in &self.tiles {
            for (tile, &c0) in row.iter().zip(&self.col_starts) {
                let stats = tile.variance_stats();
                let tcols = tile.dims().1;
                for j in 0..tcols {
                    col_gsq[c0 + j] += stats.col_gsq[j];
                    col_weight_err_sq[c0 + j] += stats.col_weight_err_sq[j];
                    col_weff_sq[c0 + j] += stats.col_weff_sq[j];
                }
            }
        }
        let device = &self.config.noise.device;
        let denom = device.g_on - device.g_off();
        VarianceStats {
            out_features: self.out_features,
            in_features: self.in_features,
            row_tiles: self.row_starts.len(),
            col_starts: self.col_starts.clone(),
            output_sigma: self.config.noise.output_sigma,
            c2c_sigma_over_denom: device.c2c_sigma / denom,
            adc_steps: self.adcs.iter().flatten().map(Adc::step).collect(),
            col_gsq,
            col_weight_err_sq,
            col_weff_sq,
        }
    }

    /// Reassembles the logical `[out, in]` ±1 weight matrix from the tile
    /// grid (tiles store the transpose: wordline-major).
    pub fn logical_matrix(&self) -> Tensor {
        let mut w = Tensor::zeros(&[self.out_features, self.in_features]);
        for (ri, &r0) in self.row_starts.iter().enumerate() {
            for (ci, &c0) in self.col_starts.iter().enumerate() {
                let tile = &self.tiles[ri][ci];
                let (trows, tcols) = tile.dims();
                for i in 0..trows {
                    for j in 0..tcols {
                        w.set(&[c0 + j, r0 + i], tile.logical_weight(i, j));
                    }
                }
            }
        }
        w
    }

    /// Shared execution core: runs the pulse schedule and returns the
    /// decoded outputs, the event stats, and — when a guard is armed —
    /// the per-tile count of checksum violations that survived their
    /// retry budget (indexed `row_tile·num_col_tiles + col_tile`).
    fn execute_internal(
        &self,
        train: &PulseTrain,
        rng: &mut Rng,
    ) -> Result<(Tensor, ExecutionStats, Vec<u64>)> {
        let shape = train.shape();
        if shape.len() != 2 || shape[1] != self.in_features {
            return Err(TensorError::ShapeMismatch {
                op: "crossbar execute",
                lhs: shape.to_vec(),
                rhs: vec![shape.first().copied().unwrap_or(0), self.in_features],
            });
        }
        let n = shape[0];
        let ntiles = self.row_starts.len() * self.col_starts.len();
        let mut acc = Tensor::zeros(&[n, self.out_features]);
        let mut stats = ExecutionStats {
            vectors: n as u64,
            ..Default::default()
        };
        let mut viol = vec![0u64; ntiles];
        if n == 0 || self.out_features == 0 {
            return Ok((acc, stats, viol));
        }

        // One nonce per execution keys a fresh family of noise
        // substreams; workers re-derive per-(pulse, sample, tile) streams
        // from it, so the fan-out over sample blocks is bitwise
        // deterministic for any thread count.
        let nonce = rng.next_nonce();
        let base = rng.substream(&[nonce]);
        let exec = self.config.exec;
        let threads = plan_threads(n, exec.max_threads, exec.samples_per_thread);
        let block = n.div_ceil(threads);
        let worker_out = scoped_chunks(
            acc.as_mut_slice(),
            block * self.out_features,
            |start, ablock| {
                let mut wviol = vec![0u64; ntiles];
                let ws =
                    self.execute_block(train, &base, start / self.out_features, ablock, &mut wviol);
                ws.map(|s| (s, wviol))
            },
        );
        for wo in worker_out {
            let (ws, wviol) = wo?;
            stats.merge(&ws);
            for (v, wv) in viol.iter_mut().zip(&wviol) {
                *v = v.saturating_add(*wv);
            }
        }
        let y = acc.mul_scalar(1.0 / train.weight_norm());
        Ok((y, stats, viol))
    }

    /// Checks one digitized pulse readout (`out`, already sign-corrected
    /// and ADC-converted) against tile's checksum column, re-executing
    /// the pulse with fresh keyed noise up to the policy's retry budget
    /// on violation. A passing retry replaces `out`. Returns whether the
    /// final accepted readout passed; the caller records a persistent
    /// violation otherwise.
    // hot per-readout check: slices + layout scalars beat a params
    // struct rebuilt per pulse per sample per tile
    #[allow(clippy::too_many_arguments)]
    fn guard_readout(
        &self,
        policy: &GuardPolicy,
        tile: &Tile,
        ri: usize,
        x: &[f32],
        key: [u64; 4],
        base: &Rng,
        out: &mut [f32],
        retry_buf: &mut [f32],
        stats: &mut ExecutionStats,
    ) -> Result<bool> {
        let noise = &self.config.noise;
        let adc = self.adcs[ri].as_ref();
        let step = adc.map(Adc::step);
        let (trows, tcols) = tile.dims();
        for attempt in 0..=u64::from(policy.max_retries) {
            if attempt > 0 {
                // stage 1: re-drive the pulse with fresh noise from a
                // dedicated retry substream — a transient glitch won't
                // repeat, a persistent fault will
                stats.guard.retries = stats.guard.retries.saturating_add(1);
                let mut rng = base
                    .substream(&key)
                    .substream(&[RETRY_STREAM_TAG, attempt]);
                tile.mvm(x, noise, &mut rng, retry_buf)?;
                if let Some(a) = adc {
                    a.convert_slice(retry_buf);
                    stats.adc_conversions += tcols as u64;
                }
                stats.tile_mvms += 1;
                stats.cell_reads += (trows * tcols) as u64;
            }
            // each attempt reads the checksum column afresh, from its own
            // keyed substream: arming a guard never perturbs the MVM
            // noise sequence
            let mut grng = base
                .substream(&key)
                .substream(&[GUARD_STREAM_TAG, attempt]);
            let (mut chk, var) = tile.checksum_pulse(x, noise, &mut grng).ok_or_else(|| {
                TensorError::InvalidArgument(
                    "guard_readout invoked on a tile with no armed guard".into(),
                )
            })?;
            if let Some(s) = step {
                // the checksum column needs a wider conversion range than
                // a regular column (it carries the whole tile's sum), so
                // model a dedicated converter with the same step and
                // enough range: quantization error, but no clipping
                chk = (chk / s).round() * s;
            }
            stats.guard.checks = stats.guard.checks.saturating_add(1);
            stats.cell_reads += trows as u64; // one extra column read
            if adc.is_some() {
                stats.adc_conversions += 1;
            }
            let readout: &[f32] = if attempt == 0 { out } else { retry_buf };
            let sum: f32 = readout.iter().sum();
            if (sum - chk).abs() <= policy.tolerance(noise, tcols, var, step) {
                if attempt > 0 {
                    out.copy_from_slice(retry_buf);
                    stats.guard.retry_successes = stats.guard.retry_successes.saturating_add(1);
                }
                return Ok(true);
            }
            stats.guard.violations = stats.guard.violations.saturating_add(1);
        }
        Ok(false)
    }

    /// Executes every pulse for the contiguous sample block starting at
    /// global sample `s0`, accumulating weighted tile outputs into the
    /// block's rows of the output buffer (`ablock`, row-major `[nb,
    /// out_features]`).
    ///
    /// Per-element accumulation order is pulse-major then row-tile —
    /// independent of how samples are grouped into blocks — and every
    /// tile MVM draws from `base.substream(&[pulse, sample, row_tile,
    /// col_tile])`, so results are bitwise identical for any split.
    /// Unresolved checksum violations (guarded deployments only) are
    /// added to `viol` per tile.
    fn execute_block(
        &self,
        train: &PulseTrain,
        base: &Rng,
        s0: usize,
        ablock: &mut [f32],
        viol: &mut [u64],
    ) -> Result<ExecutionStats> {
        // The one MVM selection rule, read off the train:
        //   - a count-coded (thermometer/PLA) train takes the pulse-delta
        //     schedule, driven straight from its high counts;
        //   - a generic train takes the dense schedule below, which runs
        //     every tile's cached loop: bitwise the tile's reference
        //     oracle on ±1/0 drives.
        if let Some(counts) = train.counts() {
            return self.execute_block_delta(counts, train.num_pulses(), base, s0, ablock, viol);
        }
        let nb = ablock.len() / self.out_features;
        let nct = self.col_starts.len();
        let span = s0 * self.in_features..(s0 + nb) * self.in_features;
        let noise = &self.config.noise;
        let weights = train.weights();
        let mut stats = ExecutionStats::default();
        let mut out_buf = vec![0.0f32; nb * self.config.tile_cols];
        let mut retry_buf = vec![0.0f32; self.config.tile_cols];
        let mut rngs: Vec<Rng> = Vec::with_capacity(nb);
        for (pi, &pulse_weight) in weights.iter().enumerate() {
            let pulse = train.pulse(pi);
            let xs = &pulse.as_slice()[span.clone()];
            stats.pulses += nb as u64;
            for (ri, &r0) in self.row_starts.iter().enumerate() {
                for (ci, &c0) in self.col_starts.iter().enumerate() {
                    let tile = &self.tiles[ri][ci];
                    let (trows, tcols) = tile.dims();
                    rngs.clear();
                    rngs.extend((0..nb).map(|s| {
                        base.substream(&[pi as u64, (s0 + s) as u64, ri as u64, ci as u64])
                    }));
                    let out = &mut out_buf[..nb * tcols];
                    tile.mvm_block_cached(xs, self.in_features, r0, noise, &mut rngs, out);
                    stats.tile_mvms += nb as u64;
                    stats.cell_reads += (nb * trows * tcols) as u64;
                    if let Some(adc) = &self.adcs[ri] {
                        adc.convert_slice(out);
                        stats.adc_conversions += (nb * tcols) as u64;
                    }
                    if let Some(policy) = &self.config.guard {
                        if tile.guard_armed() {
                            for s in 0..nb {
                                let xoff = s * self.in_features + r0;
                                let x = &xs[xoff..xoff + trows];
                                let passed = self.guard_readout(
                                    policy,
                                    tile,
                                    ri,
                                    x,
                                    [pi as u64, (s0 + s) as u64, ri as u64, ci as u64],
                                    base,
                                    &mut out[s * tcols..(s + 1) * tcols],
                                    &mut retry_buf[..tcols],
                                    &mut stats,
                                )?;
                                if !passed {
                                    viol[ri * nct + ci] = viol[ri * nct + ci].saturating_add(1);
                                }
                            }
                        }
                    }
                    if tile.has_saf_correction() {
                        // digital SAF/ECC rung: patch the accepted readout
                        // with the known stuck-cell deltas (deterministic,
                        // no RNG — the noise sequence is untouched)
                        for s in 0..nb {
                            let xoff = s * self.in_features + r0;
                            let x = &xs[xoff..xoff + trows];
                            let fixed = tile
                                .apply_saf_correction(x, &mut out[s * tcols..(s + 1) * tcols]);
                            stats.guard.saf_corrections =
                                stats.guard.saf_corrections.saturating_add(fixed);
                        }
                    }
                    for (orow, arow) in out
                        .chunks_exact(tcols)
                        .zip(ablock.chunks_exact_mut(self.out_features))
                    {
                        for (a, &v) in arow[c0..c0 + tcols].iter_mut().zip(orow) {
                            *a += pulse_weight * v;
                        }
                    }
                }
            }
        }
        Ok(stats)
    }

    /// The incremental-pulse schedule of
    /// [`execute_block`](Self::execute_block), taken for every count-coded
    /// ([nested-unary](membit_encoding::TrainKind::NestedUnary)) train,
    /// with the train's high `counts` and pulse count `np`.
    ///
    /// Row `r` of a sample is `+1` on pulses `0..count[r]` and `−1` after,
    /// so it switches exactly at pulse `count[r]`. Per `(row strip,
    /// sample)` the strip's rows are counting-sorted by count once —
    /// stably, so each bucket lists its rows in ascending order — and the
    /// buckets are shared by the strip's column tiles. Per tile, pulse 0
    /// is one dense cached-weight accumulation, and pulse `t ≥ 1` adds
    /// `−2·w_eff` over bucket `t` only. Each row switches at most once,
    /// so a sample costs at most `2·rows·cols` multiply-adds per tile
    /// however many pulses the train has, and no pulse is compared or
    /// even materialized. The updates are the ones a row-by-row compare
    /// of consecutive dense pulses would find, in the same row order, so
    /// the running accumulator keeps the same bits.
    ///
    /// The loop nest is strip → sample → column tile → pulse, which keeps
    /// each output element's accumulation order (row tile, then pulse).
    /// Every pulse readout draws from
    /// `base.substream(&[pulse, sample, row_tile, col_tile])`, so noise
    /// realizations are bit-identical to the reference schedule and to
    /// any thread split. Guard checks, retries and SAF corrections read a
    /// strip-length ±1 drive built only on tiles that need it, flipped
    /// bucket by bucket. Event stats count *modeled* hardware work — one
    /// analog MVM per tile per pulse — not host arithmetic, so they match
    /// the reference path exactly.
    fn execute_block_delta(
        &self,
        counts: &[u16],
        np: usize,
        base: &Rng,
        s0: usize,
        ablock: &mut [f32],
        viol: &mut [u64],
    ) -> Result<ExecutionStats> {
        let nb = ablock.len() / self.out_features;
        let nct = self.col_starts.len();
        let mut stats = ExecutionStats {
            pulses: (np * nb) as u64,
            ..Default::default()
        };
        let mut acc_buf = vec![0.0f32; self.config.tile_cols];
        let mut out_buf = vec![0.0f32; self.config.tile_cols];
        let mut retry_buf = vec![0.0f32; self.config.tile_cols];
        let strip_max = self.config.tile_rows.min(self.in_features);
        // the strip's pulse-0 drive, and the per-tile copy flipped per
        // bucket for the guard and SAF readers
        let mut x0_buf = vec![0.0f32; strip_max];
        let mut x_buf = vec![0.0f32; strip_max];
        // rows in bucket order; bucket t is `order[starts[t]..starts[t + 1]]`
        let mut order = vec![0usize; strip_max];
        let mut starts = vec![0usize; np + 2];
        let mut next = vec![0usize; np + 2];
        for (ri, &r0) in self.row_starts.iter().enumerate() {
            let trows = self.tiles[ri][0].dims().0;
            let (x0, x, order) = (&mut x0_buf[..trows], &mut x_buf[..trows], &mut order[..trows]);
            for s in 0..nb {
                let sample = s0 + s;
                let start = sample * self.in_features + r0;
                let strip = &counts[start..start + trows];
                starts.fill(0);
                for &c in strip {
                    starts[usize::from(c) + 1] += 1;
                }
                for t in 1..starts.len() {
                    starts[t] += starts[t - 1];
                }
                next.copy_from_slice(&starts);
                for (r, &c) in strip.iter().enumerate() {
                    let slot = &mut next[usize::from(c)];
                    order[*slot] = r;
                    *slot += 1;
                }
                for (xr, &c) in x0.iter_mut().zip(strip) {
                    *xr = if c > 0 { 1.0 } else { -1.0 };
                }
                let arow_start = s * self.out_features;
                for (ci, &c0) in self.col_starts.iter().enumerate() {
                    let tile = &self.tiles[ri][ci];
                    let tcols = tile.dims().1;
                    let guard = match &self.config.guard {
                        Some(policy) if tile.guard_armed() => Some(policy),
                        _ => None,
                    };
                    let needs_x = guard.is_some() || tile.has_saf_correction();
                    if needs_x {
                        x.copy_from_slice(x0);
                    }
                    let acc = &mut acc_buf[..tcols];
                    let out = &mut out_buf[..tcols];
                    for pi in 0..np {
                        if pi == 0 {
                            tile.accumulate_cached(x0, acc, &mut []);
                        } else {
                            let bucket = &order[starts[pi]..starts[pi + 1]];
                            tile.accumulate_switched(bucket, acc);
                            if needs_x {
                                for &r in bucket {
                                    x[r] = -1.0;
                                }
                            }
                        }
                        let mut rng = base
                            .substream(&[pi as u64, sample as u64, ri as u64, ci as u64]);
                        tile.finish_pulse(acc, &self.config.noise, &mut rng, out);
                        if let Some(adc) = &self.adcs[ri] {
                            adc.convert_slice(out);
                        }
                        if let Some(policy) = guard {
                            // a passing retry replaces the readout but not
                            // the running accumulator: the delta schedule
                            // tracks the noise-free pre-sign state, which
                            // a re-driven pulse does not change
                            let passed = self.guard_readout(
                                policy,
                                tile,
                                ri,
                                x,
                                [pi as u64, sample as u64, ri as u64, ci as u64],
                                base,
                                out,
                                &mut retry_buf[..tcols],
                                &mut stats,
                            )?;
                            if !passed {
                                viol[ri * nct + ci] = viol[ri * nct + ci].saturating_add(1);
                            }
                        }
                        if tile.has_saf_correction() {
                            let fixed = tile.apply_saf_correction(x, out);
                            stats.guard.saf_corrections =
                                stats.guard.saf_corrections.saturating_add(fixed);
                        }
                        // unit pulse weights by the nested-unary invariant
                        for (a, &v) in ablock[arow_start + c0..arow_start + c0 + tcols]
                            .iter_mut()
                            .zip(out.iter())
                        {
                            *a += v;
                        }
                    }
                }
            }
            for tile in &self.tiles[ri] {
                let (trows, tcols) = tile.dims();
                stats.tile_mvms += (np * nb) as u64;
                stats.cell_reads += (np * nb * trows * tcols) as u64;
                if self.adcs[ri].is_some() {
                    stats.adc_conversions += (np * nb * tcols) as u64;
                }
            }
        }
        Ok(stats)
    }

    /// Ages every tile by `hours` of retention drift (see
    /// [`Tile::age`]). The drift rate `nu` is Arrhenius-accelerated by
    /// the configured operating temperature
    /// ([`NonIdealitySpec::drift_scale`]).
    pub fn age(&mut self, hours: f32, nu: f32, nu_sigma: f32, rng: &mut Rng) {
        let nu = nu * self.config.nonideal.drift_scale();
        for row in &mut self.tiles {
            for tile in row {
                tile.age(hours, nu, nu_sigma, rng);
            }
        }
    }

    /// Runs the fault-recovery pipeline (march test → polarity flips →
    /// spare lines → escalated write-verify, per `policy`) on every tile,
    /// storing and returning the aggregated [`RemapReport`]. Repeated
    /// calls (e.g. after further aging) replace the stored report.
    ///
    /// On guarded deployments every tile's checksum column is re-armed
    /// afterwards: remap is commanded, *verified* repair, so the repaired
    /// state becomes the new ABFT reference (residual damage stays
    /// disclosed in the report).
    ///
    /// # Errors
    ///
    /// Propagates policy validation errors.
    pub fn remap(&mut self, policy: &RecoveryPolicy, rng: &mut Rng) -> Result<RemapReport> {
        let mut report = RemapReport::default();
        let rearm = self.config.guard.is_some();
        for row in &mut self.tiles {
            for tile in row {
                report.merge(&remap_tile(tile, policy, rng)?);
                if rearm {
                    tile.arm_guard();
                }
            }
        }
        self.recovery = Some(report);
        Ok(report)
    }

    /// The report from the most recent repair activity — an explicit
    /// [`remap`](Self::remap) call or the guard ladder's stage-3 remaps —
    /// if any. Cleared by [`inject_fault`](Self::inject_fault): a
    /// mutation after repair invalidates the recorded outcome.
    pub fn recovery_report(&self) -> Option<&RemapReport> {
        self.recovery.as_ref()
    }

    /// Pins one cell of the differential pair at logical position
    /// (`in_row`, `out_col`) to `health` (see [`Tile::inject_fault`]) —
    /// the instrumented path for studying transient faults that appear
    /// mid-inference.
    ///
    /// Any stored [`RemapReport`] is cleared: its recovery claims predate
    /// the mutation and no longer describe the array, so keeping it would
    /// let telemetry report a recovery this fault just invalidated. The
    /// armed checksum reference is deliberately *not* touched — the
    /// resulting staleness is what makes the fault detectable.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for out-of-range
    /// coordinates.
    pub fn inject_fault(
        &mut self,
        in_row: usize,
        out_col: usize,
        side: crate::CellSide,
        health: crate::CellHealth,
    ) -> Result<()> {
        if in_row >= self.in_features || out_col >= self.out_features {
            return Err(TensorError::InvalidArgument(format!(
                "inject_fault ({in_row}, {out_col}) out of range for {}×{}",
                self.in_features, self.out_features
            )));
        }
        let (ri, r) = (in_row / self.config.tile_rows, in_row % self.config.tile_rows);
        let (ci, c) = (out_col / self.config.tile_cols, out_col % self.config.tile_cols);
        self.tiles[ri][ci].inject_fault(r, c, side, health)?;
        self.recovery = None;
        Ok(())
    }

    /// Transient counterpart of [`inject_fault`](Self::inject_fault):
    /// forces the conductance of the cell backing logical weight
    /// (`in_row`, `out_col`) onto a rail without pinning its health (see
    /// [`Tile::upset_cell`]), so a guard-triggered refresh cures it. The
    /// stored [`RemapReport`] is cleared and the armed checksum reference
    /// is deliberately left stale, exactly as for persistent injection.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for out-of-range
    /// coordinates.
    pub fn upset_cell(
        &mut self,
        in_row: usize,
        out_col: usize,
        side: crate::CellSide,
        high: bool,
    ) -> Result<()> {
        if in_row >= self.in_features || out_col >= self.out_features {
            return Err(TensorError::InvalidArgument(format!(
                "upset_cell ({in_row}, {out_col}) out of range for {}×{}",
                self.in_features, self.out_features
            )));
        }
        let (ri, r) = (in_row / self.config.tile_rows, in_row % self.config.tile_rows);
        let (ci, c) = (out_col / self.config.tile_cols, out_col % self.config.tile_cols);
        self.tiles[ri][ci].upset_cell(r, c, side, high)?;
        self.recovery = None;
        Ok(())
    }

    /// Drift refresh: re-programs every tile's cells toward their stored
    /// logical targets (using the configured write-verify policy when one
    /// is set), restoring conductances decayed by retention. Returns the
    /// write/endurance counters the refresh consumed.
    pub fn refresh(&mut self, rng: &mut Rng) -> ProgramStats {
        let mut stats = ProgramStats::default();
        let policy = self.config.write_verify;
        for row in &mut self.tiles {
            for tile in row {
                tile.refresh(policy.as_ref(), rng, &mut stats);
            }
        }
        stats
    }

    /// Estimates retention decay by probing `probes_per_tile` randomly
    /// sampled cells per tile and returning the mean `|w_eff|` (1.0 when
    /// fresh and ideal, shrinking toward 0 as the array drifts). Probing
    /// consumes RNG draws but does not disturb the array.
    pub fn measure_decay(&self, probes_per_tile: usize, rng: &mut Rng) -> f32 {
        let mut sum = 0.0f64;
        let mut count = 0u64;
        for row in &self.tiles {
            for tile in row {
                let (rows, cols) = tile.dims();
                for _ in 0..probes_per_tile {
                    let r = rng.below(rows);
                    let c = rng.below(cols);
                    sum += f64::from(tile.effective_weight(r, c).abs());
                    count += 1;
                }
            }
        }
        if count == 0 {
            1.0
        } else {
            (sum / count as f64) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellHealth, CellSide};
    use membit_encoding::{BitEncoder, BitSlicing, Thermometer};

    fn random_pm1(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::from_seed(seed);
        Tensor::from_fn(shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
    }

    #[test]
    fn ideal_execution_matches_matmul_single_tile() {
        let w = random_pm1(&[5, 7], 1);
        let mut rng = Rng::from_seed(2);
        let xbar = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng).unwrap();
        assert_eq!(xbar.num_tiles(), 1);
        let x = Tensor::from_fn(&[3, 7], |i| ((i % 9) as f32 / 8.0) * 2.0 - 1.0);
        // snap x to 9 levels via the encoder
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let y = xbar.execute(&train, &mut rng).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();
        assert!(y.allclose(&expect, 1e-3), "{y:?} vs {expect:?}");
    }

    #[test]
    fn tiled_execution_matches_single_tile() {
        let w = random_pm1(&[20, 33], 3);
        let x = random_pm1(&[2, 33], 4);
        let train = Thermometer::new(4).unwrap().encode_tensor(&x).unwrap();

        let mut rng1 = Rng::from_seed(5);
        let big = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng1).unwrap();
        let y_big = big.execute(&train, &mut rng1).unwrap();

        let mut cfg = XbarConfig::ideal();
        cfg.tile_rows = 8;
        cfg.tile_cols = 6;
        let mut rng2 = Rng::from_seed(6);
        let small = CrossbarLinear::program(&w, &cfg, &mut rng2).unwrap();
        assert_eq!(small.num_tiles(), 5 * 4);
        let y_small = small.execute(&train, &mut rng2).unwrap();

        assert!(y_big.allclose(&y_small, 1e-3));
    }

    #[test]
    fn bit_sliced_train_decodes_identically_when_ideal() {
        let w = random_pm1(&[6, 10], 7);
        let x = Tensor::from_fn(&[2, 10], |i| ((i % 8) as f32 / 7.0) * 2.0 - 1.0);
        let enc = BitSlicing::new(3).unwrap();
        let train = enc.encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(8);
        let xbar = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng).unwrap();
        let y = xbar.execute(&train, &mut rng).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();
        assert!(y.allclose(&expect, 1e-3));
    }

    #[test]
    fn monte_carlo_variance_matches_eq3() {
        // thermometer p pulses ⇒ output variance σ²/p (Eq. 3)
        let w = Tensor::ones(&[1, 4]);
        let sigma = 2.0f32;
        let p = 8usize;
        let mut rng = Rng::from_seed(11);
        let xbar =
            CrossbarLinear::program(&w, &XbarConfig::functional(sigma), &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 4]);
        let train = Thermometer::new(p).unwrap().encode_tensor(&x).unwrap();
        let clean: f32 = train
            .decode()
            .unwrap()
            .matmul(&w.transpose().unwrap())
            .unwrap()
            .at(0);
        let mut samples = Vec::new();
        for _ in 0..3000 {
            samples.push(xbar.execute(&train, &mut rng).unwrap().at(0) - clean);
        }
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
            / samples.len() as f32;
        let expect = sigma * sigma / p as f32;
        assert!(
            (var - expect).abs() < 0.15 * expect + 0.02,
            "var {var} vs {expect}"
        );
    }

    #[test]
    fn monte_carlo_variance_matches_eq2() {
        // bit slicing b pulses ⇒ Σ4^i/(Σ2^i)²·σ² (Eq. 2)
        let w = Tensor::ones(&[1, 4]);
        let sigma = 2.0f32;
        let b = 3usize;
        let mut rng = Rng::from_seed(12);
        let xbar =
            CrossbarLinear::program(&w, &XbarConfig::functional(sigma), &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 4]);
        let train = BitSlicing::new(b).unwrap().encode_tensor(&x).unwrap();
        let clean: f32 = train
            .decode()
            .unwrap()
            .matmul(&w.transpose().unwrap())
            .unwrap()
            .at(0);
        let mut samples = Vec::new();
        for _ in 0..3000 {
            samples.push(xbar.execute(&train, &mut rng).unwrap().at(0) - clean);
        }
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
            / samples.len() as f32;
        let expect = (sigma * sigma) * 21.0 / 49.0;
        assert!(
            (var - expect).abs() < 0.15 * expect + 0.02,
            "var {var} vs {expect}"
        );
    }

    #[test]
    fn adc_quantization_bounds_error() {
        let w = random_pm1(&[4, 16], 9);
        let x = random_pm1(&[2, 16], 10);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let mut cfg = XbarConfig::ideal();
        cfg.adc_bits = Some(8);
        let mut rng = Rng::from_seed(13);
        let xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        let (y, stats) = xbar.execute_with_stats(&train, &mut rng).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();
        // 8-bit ADC over range ±20: step ≈ 0.16, per-pulse error ≤ 0.08
        assert!(y.allclose(&expect, 0.2), "{y:?} vs {expect:?}");
        assert!(stats.adc_conversions > 0);
    }

    #[test]
    fn stats_count_events() {
        let w = random_pm1(&[4, 6], 14);
        let x = random_pm1(&[3, 6], 15);
        let train = Thermometer::new(5).unwrap().encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(16);
        let xbar = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng).unwrap();
        let (_, stats) = xbar.execute_with_stats(&train, &mut rng).unwrap();
        assert_eq!(stats.vectors, 3);
        assert_eq!(stats.pulses, 15); // 3 vectors × 5 pulses
        assert_eq!(stats.tile_mvms, 15);
        assert_eq!(stats.cell_reads, 15 * 24);
        assert_eq!(stats.adc_conversions, 0);
    }

    #[test]
    fn execute_validates_input_width() {
        let w = random_pm1(&[4, 6], 17);
        let mut rng = Rng::from_seed(18);
        let xbar = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng).unwrap();
        let train = Thermometer::new(2)
            .unwrap()
            .encode_tensor(&Tensor::zeros(&[1, 5]))
            .unwrap();
        assert!(xbar.execute(&train, &mut rng).is_err());
    }

    #[test]
    fn write_verify_tightens_weights_and_counts_writes() {
        let mut cfg = XbarConfig::ideal();
        cfg.noise.device.d2d_sigma = 0.12;
        let w = random_pm1(&[6, 10], 21);
        // single-pulse programming: weights scattered by variation
        let mut rng1 = Rng::from_seed(22);
        let loose = CrossbarLinear::program(&w, &cfg, &mut rng1).unwrap();
        assert_eq!(loose.program_stats().write_pulses, 0);

        cfg.write_verify = Some(crate::WriteVerify {
            tolerance: 0.02,
            max_attempts: 60,
        });
        let mut rng2 = Rng::from_seed(23);
        let tight = CrossbarLinear::program(&w, &cfg, &mut rng2).unwrap();
        let stats = tight.program_stats();
        assert_eq!(stats.cells, 2 * 60); // differential pair per weight
        assert!(stats.write_pulses > stats.cells);
        assert_eq!(stats.failed_cells, 0);
        assert!(stats.writes_per_cell() > 1.0);

        // verified programming yields a more accurate MVM
        let x = random_pm1(&[4, 10], 24);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();
        let err = |engine: &CrossbarLinear, rng: &mut Rng| -> f32 {
            let y = engine.execute(&train, rng).unwrap();
            y.sub(&expect).unwrap().abs().max()
        };
        let loose_err = err(&loose, &mut rng1);
        let tight_err = err(&tight, &mut rng2);
        assert!(
            tight_err < loose_err,
            "verify should tighten: {tight_err} !< {loose_err}"
        );
    }

    #[test]
    fn invalid_write_verify_rejected() {
        let mut cfg = XbarConfig::ideal();
        cfg.write_verify = Some(crate::WriteVerify {
            tolerance: 0.0,
            max_attempts: 3,
        });
        let mut rng = Rng::from_seed(25);
        assert!(CrossbarLinear::program(&Tensor::ones(&[2, 2]), &cfg, &mut rng).is_err());
    }

    #[test]
    fn remap_recovers_engine_accuracy_under_stuck_faults() {
        let mut cfg = XbarConfig::ideal();
        cfg.tile_rows = 16;
        cfg.tile_cols = 16;
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.noise.device.stuck_on_rate = 0.01;
        cfg.noise.device.stuck_off_rate = 0.01;
        let w = random_pm1(&[24, 40], 30);
        let x = random_pm1(&[4, 40], 31);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();

        let mut rng = Rng::from_seed(32);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        assert!(xbar.recovery_report().is_none());
        let before = xbar
            .execute(&train, &mut rng)
            .unwrap()
            .sub(&expect)
            .unwrap()
            .abs()
            .max();
        let report = xbar.remap(&RecoveryPolicy::standard(), &mut rng).unwrap();
        assert!(report.faults_detected > 0, "fixture must contain faults");
        assert_eq!(report.tiles as usize, xbar.num_tiles());
        assert_eq!(xbar.recovery_report(), Some(&report));
        let after = xbar
            .execute(&train, &mut rng)
            .unwrap()
            .sub(&expect)
            .unwrap()
            .abs()
            .max();
        assert!(
            after < before,
            "remap should reduce worst-case error: {before} → {after}"
        );
    }

    #[test]
    fn refresh_restores_decay_measurement() {
        let w = random_pm1(&[12, 12], 33);
        let mut rng = Rng::from_seed(34);
        let mut xbar = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng).unwrap();
        assert!((xbar.measure_decay(32, &mut rng) - 1.0).abs() < 1e-6);
        xbar.age(10_000.0, 0.05, 0.0, &mut rng);
        let decayed = xbar.measure_decay(32, &mut rng);
        assert!(decayed < 0.8, "aging must show up in the probe: {decayed}");
        let stats = xbar.refresh(&mut rng);
        assert!(stats.write_pulses > 0);
        assert!((xbar.measure_decay(32, &mut rng) - 1.0).abs() < 1e-6);
    }

    /// The dense schedule from raw conductances: every tile MVM through
    /// [`Tile::mvm_reference`] on the engine's keyed noise substreams,
    /// then the same ADC, accumulation order and normalization as
    /// `execute`. Covers unguarded tiles without SAF corrections.
    fn reference_execute(engine: &CrossbarLinear, train: &PulseTrain, rng: &mut Rng) -> Vec<f32> {
        let (n, fin, fout) = (train.shape()[0], engine.in_features, engine.out_features);
        let nonce = rng.next_nonce();
        let base = rng.substream(&[nonce]);
        let mut acc = vec![0.0f32; n * fout];
        for (pi, &pulse_weight) in train.weights().iter().enumerate() {
            let pulse = train.pulse(pi);
            for (ri, &r0) in engine.row_starts.iter().enumerate() {
                for (ci, &c0) in engine.col_starts.iter().enumerate() {
                    let tile = &engine.tiles[ri][ci];
                    let (rows, cols) = tile.dims();
                    let mut out = vec![0.0f32; cols];
                    for s in 0..n {
                        let x = &pulse.as_slice()[s * fin + r0..s * fin + r0 + rows];
                        let mut trng = base.substream(&[pi as u64, s as u64, ri as u64, ci as u64]);
                        tile.mvm_reference(x, &engine.config.noise, &mut trng, &mut out).unwrap();
                        if let Some(adc) = &engine.adcs[ri] {
                            adc.convert_slice(&mut out);
                        }
                        let arow = &mut acc[s * fout + c0..s * fout + c0 + cols];
                        for (a, &v) in arow.iter_mut().zip(&out) {
                            *a += pulse_weight * v;
                        }
                    }
                }
            }
        }
        let scale = 1.0 / train.weight_norm();
        acc.iter().map(|a| a * scale).collect()
    }

    /// The pulses of a count-coded train stored densely: a generic train,
    /// which takes the dense schedule.
    fn dense_twin(train: &PulseTrain) -> PulseTrain {
        let pulses = (0..train.num_pulses()).map(|i| train.pulse(i).into_owned()).collect();
        PulseTrain::new(pulses, train.weights().into_owned()).unwrap()
    }

    #[test]
    fn delta_path_matches_reference_on_thermometer_trains() {
        // realistic trimmings: tiling, ADC, c2c + output noise, IR drop —
        // the delta schedule must agree with the dense schedule of the
        // same pulses because the noise substreams are keyed, not
        // positional
        let mut cfg = XbarConfig::realistic(0.3);
        cfg.tile_rows = 16;
        cfg.tile_cols = 8;
        cfg.noise.device.c2c_sigma = 0.03;
        cfg.noise.device.ir_drop_alpha = 0.05;
        cfg.noise.device.on_off_ratio = 20.0;
        let w = random_pm1(&[20, 33], 40);
        let engine = CrossbarLinear::program(&w, &cfg, &mut Rng::from_seed(41)).unwrap();
        let x = random_pm1(&[3, 33], 42);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        assert_eq!(train.kind(), membit_encoding::TrainKind::NestedUnary);
        let (y_fast, stats_fast) = engine
            .execute_with_stats(&train, &mut Rng::from_seed(43))
            .unwrap();
        let (y_ref, stats_ref) = engine
            .execute_with_stats(&dense_twin(&train), &mut Rng::from_seed(43))
            .unwrap();
        assert!(y_fast.allclose(&y_ref, 1e-4), "{y_fast:?} vs {y_ref:?}");
        // modeled hardware events are identical — the fast path saves
        // host arithmetic, not analog work
        assert_eq!(stats_fast, stats_ref);
    }

    #[test]
    fn cached_kernel_is_bitwise_reference_on_generic_binary_trains() {
        // bit-sliced trains take the dense schedule, whose cached loop is
        // exactly the raw-conductance oracle for ±1 pulses on rails tiles
        // and IR-dropped ones alike
        let mut cfg = XbarConfig::functional(0.5);
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        cfg.noise.device.c2c_sigma = 0.02;
        cfg.noise.device.on_off_ratio = 20.0;
        let w = random_pm1(&[10, 19], 44);
        let x = random_pm1(&[2, 19], 46);
        let train = BitSlicing::new(4).unwrap().encode_tensor(&x).unwrap();
        assert_eq!(train.kind(), membit_encoding::TrainKind::Generic);
        for (ir_drop, packed) in [(0.0, true), (0.05, false)] {
            cfg.noise.device.ir_drop_alpha = ir_drop;
            let engine = CrossbarLinear::program(&w, &cfg, &mut Rng::from_seed(45)).unwrap();
            assert_eq!(engine.packed_ready(), packed);
            let y = engine.execute(&train, &mut Rng::from_seed(47)).unwrap();
            assert_eq!(y.as_slice(), reference_execute(&engine, &train, &mut Rng::from_seed(47)));
        }
    }

    #[test]
    fn packed_kernel_downgrades_on_realistic_devices_and_stays_bitwise() {
        // d2d spread takes every tile off its rails; execution stays
        // bitwise the oracle
        let mut cfg = XbarConfig::realistic(0.3);
        cfg.tile_rows = 16;
        cfg.tile_cols = 8;
        let w = random_pm1(&[20, 33], 52);
        let engine = CrossbarLinear::program(&w, &cfg, &mut Rng::from_seed(53)).unwrap();
        assert!(!engine.packed_ready(), "d2d deployment must not pack");
        let x = random_pm1(&[2, 33], 54);
        let train = BitSlicing::new(4).unwrap().encode_tensor(&x).unwrap();
        let y = engine.execute(&train, &mut Rng::from_seed(55)).unwrap();
        assert_eq!(y.as_slice(), reference_execute(&engine, &train, &mut Rng::from_seed(55)));
    }

    #[test]
    fn program_validates() {
        let mut rng = Rng::from_seed(19);
        assert!(
            CrossbarLinear::program(&Tensor::zeros(&[4]), &XbarConfig::ideal(), &mut rng)
                .is_err()
        );
        let mut cfg = XbarConfig::ideal();
        cfg.tile_rows = 0;
        assert!(
            CrossbarLinear::program(&Tensor::zeros(&[2, 2]), &cfg, &mut rng).is_err()
        );
        let mut cfg = XbarConfig::ideal().with_guard(crate::GuardPolicy::standard());
        cfg.guard.as_mut().unwrap().z = -1.0;
        assert!(
            CrossbarLinear::program(&Tensor::zeros(&[2, 2]), &cfg, &mut rng).is_err()
        );
        // non-finite noise: NaN used to program and then walk the guard
        // ladder to the digital fallback, +∞ to serve non-finite outputs
        for sigma in [f32::NAN, f32::INFINITY] {
            let cfg = XbarConfig::functional(sigma).with_guard(crate::GuardPolicy::standard());
            assert!(matches!(
                CrossbarLinear::program(&Tensor::ones(&[2, 2]), &cfg, &mut rng),
                Err(TensorError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn guard_is_silent_on_a_healthy_array() {
        // guarded and unguarded execution must agree BITWISE on clean
        // hardware: checksum noise comes from dedicated substreams, so
        // arming the guard cannot perturb the MVM noise sequence
        let mut cfg = XbarConfig::functional(0.1);
        cfg.tile_rows = 16;
        cfg.tile_cols = 8;
        let w = random_pm1(&[12, 30], 50);
        let x = random_pm1(&[3, 30], 51);
        let train = Thermometer::new(6).unwrap().encode_tensor(&x).unwrap();

        let mut rng_plain = Rng::from_seed(52);
        let plain = CrossbarLinear::program(&w, &cfg, &mut rng_plain).unwrap();
        let (y_plain, s_plain) = plain.execute_with_stats(&train, &mut rng_plain).unwrap();

        let mut rng_guarded = Rng::from_seed(52);
        let mut guarded =
            CrossbarLinear::program(&w, &cfg.with_guard(crate::GuardPolicy::standard()), &mut rng_guarded)
                .unwrap();
        let (y_guarded, s_guarded) = guarded.execute_guarded(&train, &mut rng_guarded).unwrap();

        assert_eq!(y_plain.as_slice(), y_guarded.as_slice());
        assert!(s_guarded.guard.checks > 0);
        assert_eq!(s_guarded.guard.violations, 0, "clean array must not trip 6σ");
        assert_eq!(s_guarded.guard.retries, 0);
        assert_eq!(s_guarded.guard.degraded_layers, 0);
        assert!(!guarded.is_degraded());
        // everything but the guard's own bookkeeping matches
        assert_eq!(s_plain.pulses, s_guarded.pulses);
        assert_eq!(s_plain.tile_mvms, s_guarded.tile_mvms);
    }

    #[test]
    fn guard_ladder_remaps_injected_faults_and_recovers() {
        // σ = 0.05 keeps the 6σ tolerance (≈1.3 for 16-col tiles) well
        // under the ~±1-per-fault checksum deviations of the burst below
        let mut cfg = XbarConfig::functional(0.05).with_guard(crate::GuardPolicy::standard());
        cfg.tile_rows = 16;
        cfg.tile_cols = 16;
        cfg.noise.device.on_off_ratio = 20.0;
        let w = random_pm1(&[16, 32], 53);
        let x = random_pm1(&[4, 32], 54);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();

        let mut rng = Rng::from_seed(55);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        // a burst of stuck cells appearing after deployment: each flips
        // an ON cell fully off, shifting its column by ~1 per pulse
        for k in 0..12 {
            xbar.inject_fault(2 * k + 1, k, CellSide::Pos, CellHealth::StuckOff)
                .unwrap();
        }
        let (y, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(stats.guard.violations > 0, "stale checksums must trip");
        assert!(
            stats.guard.tile_remaps > 0,
            "persistent faults must escalate past retry/refresh: {:?}",
            stats.guard
        );
        assert!(!xbar.is_degraded(), "remap should repair this fixture");
        assert!(
            xbar.recovery_report().is_some(),
            "ladder remaps must be disclosed"
        );
        // residual damage the remap could not repair (disclosed in the
        // report) may leave ~1 logical weight of error on a column; the
        // pre-repair burst was 12 weights deep
        let err = y.sub(&expect).unwrap().abs().max();
        assert!(err < 2.0, "post-remap output should be sane: {err}");
        // the repaired, re-armed array is quiet afterwards
        let (_, s2) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert_eq!(s2.guard.violations, 0, "{:?}", s2.guard);
    }

    #[test]
    fn guard_refresh_cures_transient_upsets_without_remap() {
        let mut cfg = XbarConfig::functional(0.02).with_guard(crate::GuardPolicy::standard());
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        let w = random_pm1(&[12, 16], 91);
        let x = random_pm1(&[4, 16], 92);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();

        let mut rng = Rng::from_seed(93);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        // rail excursions, not pinned faults: stage 2 (refresh) must cure
        // them and the ladder must never escalate to remap or fallback
        for k in 0..6 {
            xbar.upset_cell(k, (2 * k + 1) % 12, CellSide::Pos, k % 2 == 0)
                .unwrap();
        }
        let (y, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(stats.guard.violations > 0, "{:?}", stats.guard);
        assert!(stats.guard.tile_refreshes > 0, "{:?}", stats.guard);
        assert_eq!(stats.guard.tile_remaps, 0, "{:?}", stats.guard);
        assert_eq!(stats.guard.fallbacks, 0, "{:?}", stats.guard);
        assert!(!xbar.is_degraded());
        // refresh reprograms the exact stored targets (ideal device), so
        // the accepted output tracks the ideal product within noise
        let err = y.sub(&expect).unwrap().abs().max();
        assert!(err < 1.0, "post-refresh output should be clean: {err}");
        // and the original armed reference holds again
        let (_, s2) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert_eq!(s2.guard.violations, 0, "{:?}", s2.guard);
        assert!(xbar.recovery_report().is_none(), "no remap took place");
    }

    #[test]
    fn guard_degrades_to_digital_fallback_when_budgets_exhausted() {
        // detect_only: no refresh/remap budget, so a persistent fault
        // burst goes straight to the digital fallback (σ = 0.05 keeps the
        // 6σ tolerance ≈0.95 below the burst's checksum deviations)
        let mut cfg = XbarConfig::functional(0.05).with_guard(crate::GuardPolicy::detect_only());
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        let w = random_pm1(&[8, 16], 56);
        let x = random_pm1(&[2, 16], 57);
        let train = Thermometer::new(6).unwrap().encode_tensor(&x).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();

        let mut rng = Rng::from_seed(58);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        for k in 0..6 {
            xbar.inject_fault(2 * k, k, CellSide::Pos, CellHealth::StuckOff)
                .unwrap();
            xbar.inject_fault(2 * k + 1, (k + 3) % 8, CellSide::Neg, CellHealth::StuckOn)
                .unwrap();
        }
        let (y, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(stats.guard.violations > 0);
        assert_eq!(stats.guard.fallbacks, 1);
        assert_eq!(stats.guard.degraded_layers, 1);
        assert!(xbar.is_degraded());
        // the fallback is the exact digital reference
        assert!(y.allclose(&expect, 1e-4), "{y:?} vs {expect:?}");
        // later calls short-circuit: no analog work, still correct
        let (y2, s2) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(y2.allclose(&expect, 1e-4));
        assert_eq!(s2.tile_mvms, 0);
        assert_eq!(s2.guard.fallbacks, 1);
        assert_eq!(s2.vectors, 2);
    }

    #[test]
    fn guard_retry_absorbs_transient_outlier_noise() {
        // loosen z until ordinary noise trips the detector somewhere in
        // the run, then verify retries absorb it without escalating to
        // hardware repair on a healthy array
        let mut policy = crate::GuardPolicy::standard();
        policy.z = 2.0; // ~4.6% tail per check
        policy.min_tolerance = 0.0;
        policy.max_retries = 8;
        policy.refresh_rounds = 0;
        policy.remap_rounds = 0;
        let mut cfg = XbarConfig::functional(0.4).with_guard(policy);
        cfg.tile_rows = 16;
        cfg.tile_cols = 8;
        let w = random_pm1(&[8, 16], 59);
        let x = random_pm1(&[16, 16], 60);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(61);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        let (_, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(stats.guard.violations > 0, "z=2 must trip on noise somewhere");
        assert!(stats.guard.retries > 0);
        assert!(
            stats.guard.retry_successes > 0,
            "fresh noise should pass: {:?}",
            stats.guard
        );
        assert_eq!(stats.guard.tile_refreshes, 0);
        assert_eq!(stats.guard.tile_remaps, 0);
        assert_eq!(stats.guard.fallbacks, 0, "{:?}", stats.guard);
        assert!(!xbar.is_degraded());
    }

    #[test]
    fn ir_drop_attenuates_output_and_kernels_agree_bitwise() {
        // physical wire model: outputs shrink relative to ideal wiring,
        // and the attenuation map lives in the weight cache, so the
        // cached loop stays bitwise the raw-conductance oracle
        let mut cfg = XbarConfig::functional(0.2);
        cfg.tile_rows = 16;
        cfg.tile_cols = 8;
        cfg.noise.device.c2c_sigma = 0.02;
        cfg.noise.device.on_off_ratio = 20.0;
        // exaggerated wire resistance so the droop dominates the noise
        let nonideal = crate::NonIdealitySpec {
            gwire: 2e4,
            ..crate::NonIdealitySpec::realistic()
        };
        let w = random_pm1(&[12, 24], 70);
        let engine =
            CrossbarLinear::program(&w, &cfg.with_nonideal(nonideal), &mut Rng::from_seed(71))
                .unwrap();
        let x = random_pm1(&[3, 24], 72);
        let train = BitSlicing::new(4).unwrap().encode_tensor(&x).unwrap();
        let y_fast = engine.execute(&train, &mut Rng::from_seed(73)).unwrap();
        let y_ref = reference_execute(&engine, &train, &mut Rng::from_seed(73));
        assert_eq!(y_fast.as_slice(), y_ref);
        // thermometer trains exercise the delta schedule too
        let t2 = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let d_fast = engine.execute(&t2, &mut Rng::from_seed(74)).unwrap();
        let d_ref = engine.execute(&dense_twin(&t2), &mut Rng::from_seed(74)).unwrap();
        assert!(d_fast.allclose(&d_ref, 1e-4));
        // the droop is real: mean |y| under IR drop < ideal wiring
        let ideal = CrossbarLinear::program(&w, &cfg, &mut Rng::from_seed(71)).unwrap();
        let y_ideal = ideal.execute(&train, &mut Rng::from_seed(73)).unwrap();
        let mean_abs = |t: &Tensor| t.as_slice().iter().map(|v| v.abs()).sum::<f32>();
        assert!(
            mean_abs(&y_fast) < 0.97 * mean_abs(&y_ideal),
            "IR drop must shrink outputs: {} vs {}",
            mean_abs(&y_fast),
            mean_abs(&y_ideal)
        );
    }

    #[test]
    fn hot_deployment_widens_guard_tolerance_and_stays_silent() {
        // at 390 K the physical σ grows by √(T/T_REF); the guard reads
        // the resolved (scaled) noise spec, so the 6σ ladder stays quiet
        // on a healthy array instead of false-escalating
        let mut cfg = XbarConfig::functional(0.25).with_guard(crate::GuardPolicy::standard());
        cfg.tile_rows = 16;
        cfg.tile_cols = 8;
        cfg.noise.device.c2c_sigma = 0.03;
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.nonideal = crate::NonIdealitySpec::ideal().at_temperature(390.0);
        let w = random_pm1(&[12, 24], 75);
        let x = random_pm1(&[6, 24], 76);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(77);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        // the stored config carries the resolved thermal scaling
        let resolved = xbar.config().noise;
        assert!(resolved.output_sigma > cfg.noise.output_sigma);
        assert!(resolved.device.c2c_sigma > cfg.noise.device.c2c_sigma);
        assert!(resolved.device.on_off_ratio < cfg.noise.device.on_off_ratio);
        let (_, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(stats.guard.checks > 0);
        assert_eq!(
            stats.guard.violations, 0,
            "healthy hot array must not trip the scaled 6σ tolerance"
        );
        assert!(!xbar.is_degraded());
    }

    #[test]
    fn guard_refresh_restores_scaled_targets_after_hot_upset() {
        // regression for the refresh/temperature interaction: the ladder
        // cures a rail excursion at 390 K only if refresh programs the
        // temperature-scaled targets the checksum reference was armed
        // against — nominal 300 K levels would keep violating forever
        let mut cfg = XbarConfig::functional(0.02).with_guard(crate::GuardPolicy::standard());
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.nonideal = crate::NonIdealitySpec::ideal().at_temperature(390.0);
        let w = random_pm1(&[12, 16], 94);
        let x = random_pm1(&[4, 16], 95);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(96);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        for k in 0..6 {
            xbar.upset_cell(k, (2 * k + 1) % 12, CellSide::Pos, k % 2 == 0)
                .unwrap();
        }
        let (_, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert!(stats.guard.violations > 0, "{:?}", stats.guard);
        assert!(stats.guard.tile_refreshes > 0, "{:?}", stats.guard);
        assert_eq!(stats.guard.tile_remaps, 0, "{:?}", stats.guard);
        assert_eq!(stats.guard.fallbacks, 0, "{:?}", stats.guard);
        // the cured array satisfies the original (scaled) reference again
        let (_, s2) = xbar.execute_guarded(&train, &mut rng).unwrap();
        assert_eq!(s2.guard.violations, 0, "{:?}", s2.guard);
    }

    #[test]
    fn saf_ecc_rung_compensates_unrecoverable_cells() {
        let mut cfg = XbarConfig::ideal();
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        cfg.noise.device.on_off_ratio = 20.0;
        let w = random_pm1(&[10, 12], 80);
        let x = random_pm1(&[4, 12], 81);
        let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
        let expect = train.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();
        let mut rng = Rng::from_seed(82);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        // double-stuck pairs: unrecoverable by every analog strategy
        for k in 0..4 {
            xbar.inject_fault(2 * k, k, CellSide::Pos, CellHealth::StuckOn).unwrap();
            xbar.inject_fault(2 * k, k, CellSide::Neg, CellHealth::StuckOn).unwrap();
        }
        let before = xbar
            .execute(&train, &mut rng)
            .unwrap()
            .sub(&expect)
            .unwrap()
            .abs()
            .max();
        assert!(before > 0.5, "fixture must corrupt the output: {before}");
        let report = xbar.remap(&RecoveryPolicy::with_ecc(), &mut rng).unwrap();
        assert!(report.unrecoverable_cells > 0, "{report:?}");
        assert!(report.cells_corrected > 0, "{report:?}");
        // corrected execution tracks the digital product on both paths
        let (y, stats) = xbar.execute_with_stats(&train, &mut rng).unwrap();
        assert!(stats.guard.saf_corrections > 0);
        assert!(y.allclose(&expect, 1e-3), "{y:?} vs {expect:?}");
        let t2 = BitSlicing::new(4).unwrap().encode_tensor(&x).unwrap();
        let e2 = t2.decode().unwrap().matmul(&w.transpose().unwrap()).unwrap();
        let (y2, s2) = xbar.execute_with_stats(&t2, &mut rng).unwrap();
        assert!(s2.guard.saf_corrections > 0);
        assert!(y2.allclose(&e2, 1e-3), "{y2:?} vs {e2:?}");
    }

    #[test]
    fn inject_fault_clears_stale_recovery_report() {
        let mut cfg = XbarConfig::ideal();
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.noise.device.stuck_on_rate = 0.02;
        let w = random_pm1(&[10, 12], 62);
        let mut rng = Rng::from_seed(63);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        xbar.remap(&RecoveryPolicy::standard(), &mut rng).unwrap();
        assert!(xbar.recovery_report().is_some());
        // a fault arriving after the repair invalidates its claims
        xbar.inject_fault(3, 5, CellSide::Pos, CellHealth::StuckOn).unwrap();
        assert!(
            xbar.recovery_report().is_none(),
            "recovery telemetry must not outlive the state it describes"
        );
        assert!(xbar.inject_fault(99, 0, CellSide::Pos, CellHealth::StuckOn).is_err());
    }
}
