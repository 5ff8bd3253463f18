//! Golden forward digests: the determinism contract across changes.
//!
//! The engine suites check bitwise agreement *within* a run (1 vs 4
//! threads, cached vs reference). A change that shifts every output the
//! same way passes those silently. This suite pins the logits and the
//! hardware event counters of a small `DeviceVgg`, and the raw outputs
//! of one engine, to digests recorded once, so any change to an output
//! bit or a counter fails here, whatever the thread count or build
//! profile.
//!
//! If a change is *meant* to move these numbers (a new noise model, a
//! different RNG), re-record the constants from the failure message and
//! say so in the change log.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
use membit_encoding::pla::PlaThermometer;
use membit_encoding::{BitEncoder, BitSlicing};
use membit_nn::{Params, Vgg, VggConfig};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, ExecOptions, ExecutionStats, GuardPolicy, RecoveryPolicy,
    XbarConfig,
};

/// FNV-1a over 64-bit words, fed little-endian byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn logits(&mut self, t: &Tensor) {
        self.word(t.len() as u64);
        for v in t.as_slice() {
            self.word(u64::from(v.to_bits()));
        }
    }

    fn stats(&mut self, s: &ExecutionStats) {
        let g = &s.guard;
        for w in [
            s.vectors,
            s.pulses,
            s.tile_mvms,
            s.adc_conversions,
            s.cell_reads,
            s.unrecoverable_cells,
            s.degraded_tiles,
            s.refreshes,
            g.checks,
            g.violations,
            g.retries,
            g.retry_successes,
            g.tile_refreshes,
            g.tile_remaps,
            g.fallbacks,
            g.saf_corrections,
            g.degraded_layers,
        ] {
            self.word(w);
        }
    }
}

/// The deployments under test. Tiles of 32×16 split every crossbar layer
/// of the tiny VGG (fan-ins 72, 72 and 64) into several row strips, the
/// 72-row ones with a short last strip.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Functional noise on rail devices.
    Functional,
    /// The same rail engine driven by bit-sliced (generic) trains, so
    /// the popcount loop runs. Engine digest only: a `DeviceVgg` always
    /// encodes PLA trains.
    FunctionalBitSliced,
    /// Realistic devices without an ADC: variation and IR drop make
    /// every weight an arbitrary float and nothing re-quantizes the
    /// readout, so any change in accumulation order shows in the bits.
    Lossy,
    /// Realistic devices (ADC, variation, write-verify) with the
    /// standard guard, and transient upsets injected before the second
    /// batch, so retries and refreshes run.
    RealisticGuarded,
    /// Functional noise with stuck faults repaired by remap plus the
    /// digital SAF/ECC arm, so corrections run.
    StuckEcc,
}

/// Mixed PLA pulse map: odd and even counts, fewer and more pulses than
/// the 8-pulse base code of the 9-level activations.
const PULSES: [usize; 3] = [6, 11, 16];

fn xbar_config(scenario: Scenario, threads: usize) -> XbarConfig {
    let mut xbar = match scenario {
        Scenario::Functional | Scenario::FunctionalBitSliced | Scenario::StuckEcc => {
            XbarConfig::functional(0.2)
        }
        Scenario::Lossy => XbarConfig {
            adc_bits: None,
            ..XbarConfig::realistic(0.2)
        },
        Scenario::RealisticGuarded => {
            XbarConfig::realistic(0.2).with_guard(GuardPolicy::standard())
        }
    };
    xbar.tile_rows = 32;
    xbar.tile_cols = 16;
    xbar.exec = ExecOptions::with_threads(threads);
    xbar
}

/// Two seeded batches through a tiny `DeviceVgg`: logit bits and stats.
fn forward_digest(scenario: Scenario, threads: usize) -> u64 {
    let mut rng = Rng::from_seed(2022);
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut rng).expect("vgg");
    let cfg = DeviceEvalConfig {
        xbar: xbar_config(scenario, threads),
        pulses: PULSES.to_vec(),
        act_levels: 9,
        policy: DeploymentPolicy::default(),
    };
    let mut rng = Rng::from_seed(7);
    let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).expect("deploy");
    if let Scenario::StuckEcc = scenario {
        device.inject_stuck_faults(0.05, &mut rng).expect("stuck faults");
        device
            .remap_all(&RecoveryPolicy::with_ecc(), &mut rng)
            .expect("remap");
    }
    let (mut h, mut total) = (Fnv::new(), ExecutionStats::default());
    for batch in 0..2 {
        if batch == 1 {
            if let Scenario::RealisticGuarded = scenario {
                device.inject_faults(0.05, &mut rng).expect("upsets");
            }
        }
        let images = Tensor::from_fn(&[6, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
        let (logits, stats) = device.forward(&images, &mut rng).expect("forward");
        h.logits(&logits);
        h.stats(&stats);
        total.merge(&stats);
    }
    assert_exercised(scenario, &total);
    h.0
}

/// One engine (72 inputs, 40 outputs) run once per pulse count of
/// [`PULSES`]: raw output bits and stats. The network's re-quantization
/// between layers absorbs sub-step output changes, so this digest is the
/// one that sees a single flipped output bit.
fn engine_digest(scenario: Scenario, threads: usize) -> u64 {
    let mut rng = Rng::from_seed(11);
    let w = Tensor::from_fn(&[40, 72], |_| if rng.coin(0.5) { 1.0 } else { -1.0 });
    let mut engine =
        CrossbarLinear::program(&w, &xbar_config(scenario, threads), &mut rng).expect("program");
    if let Scenario::FunctionalBitSliced = scenario {
        assert!(engine.packed_ready(), "rail engine must be packed-ready");
    }
    let cell = |rng: &mut Rng| {
        let side = if rng.coin(0.5) { CellSide::Pos } else { CellSide::Neg };
        (rng.below(72), rng.below(40), side, rng.coin(0.5))
    };
    if let Scenario::StuckEcc = scenario {
        // pairs stuck on both sides: no analog strategy repairs those,
        // so the ECC table has entries
        for _ in 0..12 {
            let (row, col, _, _) = cell(&mut rng);
            for side in [CellSide::Pos, CellSide::Neg] {
                engine
                    .inject_fault(row, col, side, CellHealth::StuckOn)
                    .expect("stuck fault");
            }
        }
        engine
            .remap(&RecoveryPolicy::with_ecc(), &mut rng)
            .expect("remap");
    }
    let (mut h, mut total) = (Fnv::new(), ExecutionStats::default());
    for (batch, &q) in PULSES.iter().enumerate() {
        if batch == 1 {
            if let Scenario::RealisticGuarded = scenario {
                for _ in 0..29 {
                    let (row, col, side, high) = cell(&mut rng);
                    engine.upset_cell(row, col, side, high).expect("upset");
                }
            }
        }
        let x = Tensor::from_fn(&[5, 72], |_| rng.uniform(-1.0, 1.0));
        let train = match scenario {
            Scenario::FunctionalBitSliced => BitSlicing::new(q).expect("encoder").encode_tensor(&x),
            _ => PlaThermometer::new(9, q)
                .expect("encoder")
                .encode_tensor(&x),
        }
        .expect("encode");
        let (y, stats) = engine.execute_guarded(&train, &mut rng).expect("execute");
        h.logits(&y);
        h.stats(&stats);
        total.merge(&stats);
    }
    assert_exercised(scenario, &total);
    h.0
}

/// A digest only guards the paths its scenario actually runs.
fn assert_exercised(scenario: Scenario, total: &ExecutionStats) {
    let g = &total.guard;
    match scenario {
        Scenario::RealisticGuarded => {
            assert!(g.retries > 0 && g.tile_refreshes > 0, "{scenario:?}: {g:?}");
        }
        Scenario::StuckEcc => assert!(g.saf_corrections > 0, "{scenario:?}: {g:?}"),
        Scenario::Functional | Scenario::FunctionalBitSliced | Scenario::Lossy => {
            assert_eq!(g.checks, 0, "{scenario:?}: {g:?}");
        }
    }
}

/// `(scenario, forward digest, engine digest)`. The four PLA scenarios
/// were recorded at commit `cd28eff`, the bit-sliced one at `9e329d8`.
const GOLDEN: [(Scenario, Option<u64>, u64); 5] = [
    (Scenario::Functional, Some(0x697b_20c3_7747_7d44), 0x121c_e2f1_3e78_7a72),
    (Scenario::FunctionalBitSliced, None, 0xdab9_2309_4ea2_e07f),
    (Scenario::Lossy, Some(0xa041_df37_f9ee_d088), 0xdc3a_40da_fe48_406b),
    (Scenario::RealisticGuarded, Some(0xf6b3_5e94_6bb7_ce06), 0x562b_689d_1c8a_8e2d),
    (Scenario::StuckEcc, Some(0x4125_b67b_c9d8_ae83), 0x4201_bbe0_5232_be5e),
];

#[test]
fn digests_match_the_recorded_goldens() {
    let mut failures = Vec::new();
    for (scenario, forward, engine) in GOLDEN {
        for threads in [1, 2, 4] {
            let mut checks = Vec::new();
            if let Some(want) = forward {
                checks.push(("forward", forward_digest(scenario, threads), want));
            }
            checks.push(("engine", engine_digest(scenario, threads), engine));
            for (name, got, want) in checks {
                if got != want {
                    failures.push(format!(
                        "{name} {scenario:?} at {threads} thread(s): {got:#018x}, recorded {want:#018x}"
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
