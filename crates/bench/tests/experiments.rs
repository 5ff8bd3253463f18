//! The properties the model-backed experiments' numbers must satisfy,
//! checked on their smoke-scale runs over a small pre-trained fixture
//! instead of the quick model: 7 crossbar layers like the quick model,
//! on 8×8 SynthCIFAR with 60 training and 10 test images per class.
//! Like the quick model it reaches ≈ 99 % clean accuracy, and at its
//! seed the 1 % transient faults of `ablation_guard` and the 5 % stuck
//! cells of `ablation_nonideal` both cost it accuracy, so the recovery
//! bounds below are not vacuous (each test also asserts its gap).

use std::sync::OnceLock;

use membit_bench::experiments::{ablation_guard, ablation_nonideal, bench_memse};
use membit_bench::{gap_recovery_pct, Opts, Scale};
use membit_core::{Experiment, ExperimentConfig, NonIdealAblationRow};
use membit_data::SynthCifarConfig;
use membit_nn::VggConfig;
use membit_tensor::{Rng, RngStream};
use membit_xbar::ExecOptions;

/// A fresh copy of the fixture, pre-trained once per test binary.
fn fixture() -> Experiment {
    static TRAINED: OnceLock<Experiment> = OnceLock::new();
    TRAINED
        .get_or_init(|| {
            let mut cfg = ExperimentConfig::quick(30, 1);
            cfg.vgg = VggConfig {
                in_h: 8,
                in_w: 8,
                channels: vec![16, 16, 32, 32, 32, 32, 32],
                pool_after: vec![1, 3],
                fc_dim: 64,
                ..VggConfig::small()
            };
            cfg.data = SynthCifarConfig {
                train_per_class: 60,
                test_per_class: 10,
                pixel_noise: 0.1,
                ..SynthCifarConfig::tiny()
            };
            cfg.eval_batch = 50;
            cfg.eval_repeats = 2;
            Experiment::setup(cfg).expect("fixture set-up")
        })
        .fork()
}

fn smoke() -> Opts {
    Opts {
        scale: Scale::Smoke,
        ..Opts::default()
    }
}

/// Accuracy (%) of one image of the evaluation subset: a repair that
/// lands within it of the fault-free deployment also counts as a full
/// recovery, since a repaired arm consumes different noise draws after
/// its repairs and on small subsets one flipped image dominates the
/// ratio.
fn one_image(subset_len: usize) -> f32 {
    100.0 / subset_len as f32
}

#[test]
fn guard_recovers_the_fault_gap_without_false_escalations() {
    let exp = fixture();
    let [clean, clean_guarded, unguarded, guarded] =
        ablation_guard::recovery_arms(&smoke(), &exp).unwrap();
    let n = ablation_guard::eval_subset(&exp, Scale::Smoke)
        .unwrap()
        .len();

    // the ≥ 90 % bound below is vacuous unless the faults open a gap
    assert!(
        clean.accuracy - unguarded.accuracy > 1e-6,
        "fixture opens no fault gap: clean {} vs unguarded {}",
        clean.accuracy,
        unguarded.accuracy
    );
    let recovery_pct = gap_recovery_pct(clean.accuracy, unguarded.accuracy, guarded.accuracy);
    assert!(
        recovery_pct >= 90.0 || clean.accuracy - guarded.accuracy <= one_image(n) + 1e-3,
        "guard must recover ≥90% of the fault-induced accuracy gap \
         (or land within one image of clean), got {recovery_pct:.1}%"
    );

    // false-positive escalations below 1% of checks on the fault-free
    // guarded arm
    let escalations =
        clean_guarded.tile_refreshes + clean_guarded.tile_remaps + clean_guarded.fallbacks;
    let fp_escalation_rate = escalations as f64 / clean_guarded.checks.max(1) as f64;
    assert!(clean_guarded.checks > 0);
    assert!(
        fp_escalation_rate < 0.01,
        "false-positive escalation rate must stay below 1%, got {fp_escalation_rate}"
    );
}

#[test]
fn full_mitigation_recovers_the_saf_gap_and_the_guard_stays_silent_without_faults() {
    let exp = fixture();
    let rows = ablation_nonideal::matrix(&smoke(), &exp).unwrap();
    let n = ablation_nonideal::eval_subset(&exp, Scale::Smoke)
        .unwrap()
        .len();
    let get = |scenario: &str, mitigation: &str| -> &NonIdealAblationRow {
        rows.iter()
            .find(|r| r.scenario == scenario && r.mitigation == mitigation)
            .expect("matrix row")
    };

    // the full stack (ECC + remap + guard) recovers ≥90% of the
    // SAF-induced accuracy gap, or lands within one image of baseline
    let baseline = get("baseline", "none").accuracy;
    let saf_none = get("saf", "none").accuracy;
    let saf_full = get("saf", "full").accuracy;
    assert!(
        baseline - saf_none > 1e-6,
        "fixture opens no SAF gap: baseline {baseline} vs saf {saf_none}"
    );
    let recovery_pct = gap_recovery_pct(baseline, saf_none, saf_full);
    assert!(
        recovery_pct >= 90.0 || baseline - saf_full <= one_image(n) + 1e-3,
        "mitigation stack must recover ≥90% of the SAF accuracy gap \
         (or land within one image of baseline), got {recovery_pct:.1}%"
    );

    // zero false escalations on the fault-free guarded arms — the
    // analytic tolerance absorbs IR drop (folded into the armed
    // snapshot) and temperature (resolved into the stored noise spec)
    for scenario in ["baseline", "ir_drop", "hot"] {
        let row = get(scenario, "guard");
        let escalations = row.tile_refreshes + row.tile_remaps + row.fallbacks;
        assert_eq!(
            escalations, 0,
            "fault-free scenario {scenario} must not escalate: {row:?}"
        );
    }

    // installed ECC entries must fire during evaluation
    let ecc = get("saf", "full");
    assert!(
        ecc.cells_corrected > 0,
        "the repair pass installed no ECC entry: {ecc:?}"
    );
    assert!(
        ecc.saf_corrections > 0,
        "installed ECC entries must fire: {ecc:?}"
    );
}

#[test]
fn every_nonideal_scenario_is_bitwise_identical_across_thread_counts() {
    let exp = fixture();
    let subset = ablation_nonideal::eval_subset(&exp, Scale::Smoke).unwrap();
    let (warm, _) = subset.batch(0, ablation_nonideal::BATCH).unwrap();
    let seed = smoke().seed;
    // both thread counts perform the identical host-side RNG call
    // sequence, so any output difference must come from execution
    // chunking
    let probe = |scenario: &ablation_nonideal::Scenario, threads: usize| -> Vec<f32> {
        let mut rng = Rng::from_seed(seed).stream(RngStream::Device);
        let (mut device, _) = ablation_nonideal::deploy(
            &exp,
            scenario,
            "full",
            &[8; 7],
            ExecOptions::with_threads(threads),
            &mut rng,
        )
        .unwrap();
        let mut probe_rng = Rng::from_seed(seed ^ 0x5151).stream(RngStream::Noise);
        let (out, _) = device.forward(&warm, &mut probe_rng).unwrap();
        out.as_slice().to_vec()
    };
    for scenario in &ablation_nonideal::scenarios() {
        assert_eq!(
            probe(scenario, 1),
            probe(scenario, 4),
            "scenario {}: outputs differ between 1 and 4 worker threads",
            scenario.label
        );
    }
}

#[test]
fn analytic_mse_stays_in_the_mc_band_and_its_selection_keeps_fidelity() {
    let mut exp = fixture();
    let report = bench_memse::measure(&smoke(), &mut exp).unwrap();
    for cell in &report.cells {
        assert!(
            cell.within,
            "analytic MSE left the MC confidence band: {cell:?}"
        );
    }
    // signed gap: an analytic pick that beats MC's passes — the scorer
    // must not degrade the search, not match MC's sampling noise
    let floor = bench_memse::fidelity_floor(Scale::Smoke);
    assert!(
        report.fidelity_gap() <= floor,
        "analytic selection must not trail MC by more than {floor} pp (got {:+.2})",
        report.fidelity_gap()
    );
}
