//! Property-based tests for the physical non-ideality layer: IR-drop
//! attenuation geometry, MVM path equivalence under wire resistance, and
//! guard-tolerance soundness across the rated temperature range.

use membit_encoding::{BitEncoder, PulseTrain, Thermometer};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{CrossbarLinear, GuardPolicy, NonIdealitySpec, XbarConfig, T_MAX, T_MIN};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// IR-drop attenuation is a pure geometric map: every factor lies in
    /// (0, 1] and grows monotonically *weaker* (non-increasing) with
    /// distance from the row driver and from the column sense amp.
    #[test]
    fn attenuation_is_monotone_in_driver_distance(
        gwire in 1e3f32..1e7,
        gload in 1e4f32..1e8,
        rows in 2usize..96,
        cols in 2usize..96,
        g_on in 10.0f32..500.0,
    ) {
        let spec = NonIdealitySpec { gwire, gload, ..NonIdealitySpec::ideal() };
        spec.validate().unwrap();
        let map = spec.attenuation_map(rows, cols, g_on).unwrap();
        prop_assert_eq!(map.len(), rows * cols);
        for (idx, &a) in map.iter().enumerate() {
            prop_assert!(a > 0.0 && a <= 1.0, "map[{idx}] = {a}");
            let (i, j) = (idx / cols, idx % cols);
            if i > 0 {
                prop_assert!(a <= map[(i - 1) * cols + j], "rows not monotone at ({i},{j})");
            }
            if j > 0 {
                prop_assert!(a <= map[idx - 1], "cols not monotone at ({i},{j})");
            }
        }
    }

    /// IR drop lives in each tile's attenuation vector, which the weight
    /// cache folds in, so it must not loosen the equivalence contracts:
    /// an engine's delta schedule stays within the usual 1e-5 relative
    /// envelope of the dense schedule of the same pulses, whose only
    /// divergence is floating-point accumulation order. (A bare tile
    /// takes the map only inside the crate, so the tile-level bitwise
    /// half runs in
    /// `tile::tests::ir_dropped_tiles_stay_bitwise_reference_through_mutations`.)
    #[test]
    fn kernels_agree_bitwise_under_ir_drop(
        seed in 0u64..200,
        gwire in 1e4f32..1e6,
        tile in 4usize..12,
    ) {
        let w = pm1_matrix(10, 14, seed);
        let x = pm1_matrix(3, 14, seed + 1);
        let mut rng = Rng::from_seed(seed + 2);

        // the wire-resistance map, delta vs dense schedule
        let mut cfg = XbarConfig::functional(0.15);
        cfg.tile_rows = tile;
        cfg.tile_cols = tile;
        cfg.noise.device.c2c_sigma = 0.02;
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.nonideal = NonIdealitySpec { gwire, ..NonIdealitySpec::realistic() };
        let map = cfg.nonideal.attenuation_map(tile, tile, cfg.noise.device.g_on).unwrap();
        prop_assert!(map.iter().all(|&a| a < 1.0), "every cell must see IR drop");
        let engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        let thermo = Thermometer::new(6).unwrap().encode_tensor(&x).unwrap();
        let pulses = (0..thermo.num_pulses()).map(|i| thermo.pulse(i).into_owned()).collect();
        let dense = PulseTrain::new(pulses, thermo.weights().into_owned()).unwrap();
        let d_fast = engine.execute(&thermo, &mut Rng::from_seed(seed + 4)).unwrap();
        let d_ref = engine.execute(&dense, &mut Rng::from_seed(seed + 4)).unwrap();
        for (i, (a, b)) in d_fast.as_slice().iter().zip(d_ref.as_slice()).enumerate() {
            prop_assert!(
                (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                "element {}: delta {} vs dense {}", i, a, b
            );
        }
    }

    /// The guard arms its checksum against the *resolved* (temperature-
    /// scaled) noise spec, so a fault-free array must never escalate at
    /// any rated operating temperature: zero false positives across the
    /// whole [T_MIN, T_MAX] envelope.
    #[test]
    fn guard_never_false_escalates_across_temperatures(
        seed in 0u64..100,
        frac in 0.0f32..1.0,
    ) {
        let kelvin = T_MIN + frac * (T_MAX - T_MIN);
        let mut cfg = XbarConfig::functional(0.2).with_guard(GuardPolicy::standard());
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        cfg.noise.device.c2c_sigma = 0.03;
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.nonideal = NonIdealitySpec::realistic().at_temperature(kelvin);
        let w = pm1_matrix(10, 12, seed);
        let x = pm1_matrix(4, 12, seed + 1);
        let train = Thermometer::new(6).unwrap().encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(seed + 2);
        let mut xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        let (_, stats) = xbar.execute_guarded(&train, &mut rng).unwrap();
        prop_assert!(stats.guard.checks > 0);
        prop_assert_eq!(stats.guard.violations, 0, "false escalation at {kelvin} K");
        prop_assert!(!xbar.is_degraded());
    }
}
