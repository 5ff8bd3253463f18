//! Property tests for the fault-tolerance subsystem: march-test recall
//! degrades monotonically with read noise, remapping is idempotent, and
//! fault-free tiles round-trip through recovery unchanged.

use membit_tensor::{Rng, Tensor};
use membit_xbar::{remap_tile, CellHealth, CellSide, DeviceModel, RecoveryPolicy, Tile};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// Ground-truth march-test recall: the fraction of genuinely stuck cells
/// (known from the tile's health arrays, which recovery code never sees)
/// that the test flagged.
fn detection_recall(tile: &Tile, rng: &mut Rng) -> f64 {
    let map = tile.march_test(rng);
    let (rows, cols) = tile.dims();
    let mut stuck = 0u64;
    let mut caught = 0u64;
    for r in 0..rows {
        for c in 0..cols {
            let (hp, hn) = tile.health(r, c);
            for (side, health) in [(CellSide::Pos, hp), (CellSide::Neg, hn)] {
                if !health.is_stuck() {
                    continue;
                }
                // only adversely stuck cells deviate from their target;
                // a StuckOn cell targeted ON is indistinguishable from
                // healthy and not expected to be flagged
                let on_target = match side {
                    CellSide::Pos => tile.logical_weight(r, c) * tile.col_sign(c) >= 0.0,
                    CellSide::Neg => tile.logical_weight(r, c) * tile.col_sign(c) < 0.0,
                };
                let adverse = matches!(
                    (health, on_target),
                    (CellHealth::StuckOn, false) | (CellHealth::StuckOff, true)
                );
                if !adverse {
                    continue;
                }
                stuck += 1;
                if map
                    .faults()
                    .iter()
                    .any(|f| f.row == r && f.col == c && f.side == side)
                {
                    caught += 1;
                }
            }
        }
    }
    if stuck == 0 {
        1.0
    } else {
        caught as f64 / stuck as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// More read noise can only hurt detection: recall at a small
    /// `c2c_sigma` is at least the recall at a much larger one.
    #[test]
    fn detection_recall_monotone_in_read_noise(seed in 0u64..10_000) {
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = 0.03;
        device.stuck_off_rate = 0.03;
        let w = pm1_matrix(48, 48, seed);

        let mut recalls = Vec::new();
        for &sigma in &[0.01f32, 0.8] {
            let mut d = device;
            d.c2c_sigma = sigma;
            // same seed ⇒ identical health draws; only the read noise
            // during the march test differs between the two tiles
            let mut rng = Rng::from_seed(seed.wrapping_mul(31).wrapping_add(5));
            let tile = Tile::program(&w, &d, &mut rng).unwrap();
            recalls.push(detection_recall(&tile, &mut rng));
        }
        prop_assert!(
            recalls[0] >= recalls[1],
            "recall must not improve with noise: quiet {} vs noisy {}",
            recalls[0],
            recalls[1]
        );
        // sanity: near-noiseless read-back catches every adverse fault
        prop_assert!(recalls[0] > 0.99, "quiet recall {}", recalls[0]);
    }

    /// With no spare budget (spares draw fresh random cells), running the
    /// remapper twice is the same as running it once: the second pass
    /// flips nothing, escalates only what stays broken, and leaves every
    /// effective weight bit-identical.
    #[test]
    fn remapping_is_idempotent(seed in 0u64..10_000, stuck_pct in 0u32..6) {
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = stuck_pct as f32 / 100.0;
        device.stuck_off_rate = stuck_pct as f32 / 100.0;
        let policy = RecoveryPolicy {
            spare_rows: 0,
            spare_cols: 0,
            ..RecoveryPolicy::standard()
        };
        let mut rng = Rng::from_seed(seed.wrapping_add(17));
        let mut tile = Tile::program(&pm1_matrix(24, 24, seed), &device, &mut rng).unwrap();

        let first = remap_tile(&mut tile, &policy, &mut rng).unwrap();
        let snapshot: Vec<f32> = (0..24)
            .flat_map(|r| (0..24).map(move |c| (r, c)))
            .map(|(r, c)| tile.effective_weight(r, c))
            .collect();
        let second = remap_tile(&mut tile, &policy, &mut rng).unwrap();
        let after: Vec<f32> = (0..24)
            .flat_map(|r| (0..24).map(move |c| (r, c)))
            .map(|(r, c)| tile.effective_weight(r, c))
            .collect();

        prop_assert_eq!(second.columns_flipped, 0);
        prop_assert_eq!(second.unrecoverable_cells, first.unrecoverable_cells);
        prop_assert_eq!(snapshot, after);
    }

    /// A tile with no faults and no variation passes through the full
    /// recovery pipeline untouched: nothing detected, nothing repaired,
    /// weights exactly equal to the logical matrix.
    #[test]
    fn zero_fault_tile_round_trips_unchanged(
        seed in 0u64..10_000,
        rows in 2usize..20,
        cols in 2usize..20,
    ) {
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed.wrapping_add(3));
        let mut tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let report = remap_tile(&mut tile, &RecoveryPolicy::standard(), &mut rng).unwrap();

        prop_assert_eq!(report.faults_detected, 0);
        prop_assert_eq!(report.columns_flipped, 0);
        prop_assert_eq!(report.spare_rows_used + report.spare_cols_used, 0);
        prop_assert_eq!(report.cells_escalated, 0);
        prop_assert_eq!(report.unrecoverable_cells, 0);
        prop_assert_eq!(report.degraded_tiles, 0);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(tile.effective_weight(r, c), tile.logical_weight(r, c));
                prop_assert_eq!(tile.col_sign(c), 1.0);
            }
        }
    }
}
