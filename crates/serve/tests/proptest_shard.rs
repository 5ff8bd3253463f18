//! Replicated-shard invariants, property-tested over random workloads
//! and random chaos scripts: cross-shard conservation (the accounting
//! identity extends across kills, quarantines, drains, and failover),
//! admission monotone in queue capacity on sets of one to three shards,
//! deterministic routing (bit-identical reruns), bitwise replay of the
//! per-shard logs — including runs containing `Reconfigure` records —
//! at 1 vs 4 engine threads, and typed rejection (or finite, accounted
//! runs) for malformed scripts and configurations at the boundary.

use std::collections::{HashMap, HashSet};

use membit_encoding::MAX_NESTED_PULSES;
use membit_serve::{
    replay_shards, simulate_shards, ArrivalEvent, ArrivalKind, ChaosAction, ChaosEvent,
    ChaosScript, LinearServeModel, RoutePolicy, ServeConfig, ServeError, ServeModel,
};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{GuardPolicy, XbarConfig};
use proptest::prelude::*;

const IN: usize = 4;
const OUT: usize = 3;

fn model(seed: u64, shard: usize) -> LinearServeModel {
    // per-shard weights differ so a failover visibly changes which
    // replica answers — replay must still match bitwise
    let mut rng = Rng::from_seed(seed.wrapping_add(shard as u64 * 1_000_003));
    let w = Tensor::from_fn(&[OUT, IN], |i| {
        if (i + seed as usize + shard).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    });
    let cfg = XbarConfig::functional(0.05).with_guard(GuardPolicy::standard());
    LinearServeModel::program(&w, &cfg, 9, 4, &mut rng).expect("program")
}

fn fleet(seed: u64, n_shards: usize, threads: usize) -> Vec<LinearServeModel> {
    (0..n_shards)
        .map(|s| {
            let mut m = model(seed, s);
            m.set_max_threads(threads).expect("set_max_threads");
            m
        })
        .collect()
}

fn payload(i: usize, seed: u64) -> Vec<f32> {
    (0..IN)
        .map(|j| ((((i + j) * 3 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0))
        .collect()
}

fn schedule(n: usize, gap_ns: u64, seed: u64) -> Vec<ArrivalEvent> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for i in 0..n {
        t += gap_ns * ((i as u64 % 3) + 1) / 2;
        events.push(ArrivalEvent {
            at_ns: t,
            kind: ArrivalKind::Request {
                input: payload(i, seed),
                deadline_ns: None,
            },
        });
    }
    events
}

/// A deterministic pseudo-random chaos script: `len` actions spread over
/// the schedule's timeline, mixing every action kind, mostly in-range
/// targets with an occasional out-of-range one (which must surface as a
/// counted chaos failure, never a panic or a silent drop).
fn script(seed: u64, n_shards: usize, len: usize, span_ns: u64) -> ChaosScript {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut events = Vec::new();
    let mut t = 0u64;
    for _ in 0..len {
        t += next() % (span_ns / (len as u64).max(1) + 1);
        // 1-in-8 actions target a nonexistent shard on purpose
        let shard = if next() % 8 == 0 {
            n_shards + (next() as usize % 3)
        } else {
            next() as usize % n_shards
        };
        let action = match next() % 6 {
            0 => ChaosAction::Kill { shard },
            1 => ChaosAction::Revive { shard },
            2 => ChaosAction::Drain { shard },
            3 => ChaosAction::Upset {
                shard,
                rate: (next() % 100) as f32 / 1_000.0,
            },
            4 => ChaosAction::Degrade {
                shard,
                ema: (next() % 100) as f64 / 100.0,
            },
            _ => ChaosAction::Reconfigure {
                shard,
                pulses: vec![4 + (next() as usize % 12)],
            },
        };
        events.push(ChaosEvent { at_ns: t, action });
    }
    ChaosScript::new(events).expect("generated script is sorted and valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cross-shard conservation under arbitrary chaos: the set-level
    /// identity `admitted == completed + expired + failed + cancelled`
    /// holds, every scheduled request resolves exactly once with a typed
    /// outcome, and no id is ever served twice — across kills,
    /// quarantines, drains, reconfigurations, and failover.
    #[test]
    fn conservation_extends_across_shards_under_chaos(
        seed in 0u64..200,
        n_shards in 1usize..4,
        n in 1usize..24,
        gap_kind in 0usize..3,
        capacity in 2usize..12,
        max_batch in 1usize..6,
        chaos_len in 0usize..8,
        policy_pick in 0usize..2,
    ) {
        let gap = [0u64, 500, 50_000][gap_kind];
        let policy = [RoutePolicy::Rendezvous, RoutePolicy::RoundRobin][policy_pick];
        let mut cfg = ServeConfig::standard(seed);
        cfg.queue_capacity = capacity;
        cfg.max_batch = max_batch;
        let events = schedule(n, gap, seed);
        let span = events.last().map_or(1, |e| e.at_ns.max(1));
        let faults = script(seed, n_shards, chaos_len, span);
        let report = simulate_shards(fleet(seed, n_shards, 1), cfg, policy, &events, &faults)
            .expect("simulate_shards");

        prop_assert!(report.stats.accounted(), "{:?}", report.stats);
        prop_assert_eq!(report.outcomes.len(), n);
        let mut seen = HashSet::new();
        for o in &report.outcomes {
            prop_assert!(seen.insert(o.index), "index {} resolved twice", o.index);
            match &o.result {
                Ok(r) => prop_assert_eq!(r.output.len(), OUT),
                Err(ServeError::QueueFull { .. })
                | Err(ServeError::DeadlineExceeded { .. })
                | Err(ServeError::Shed)
                | Err(ServeError::Closed)
                | Err(ServeError::Engine(_)) => {}
                Err(e) => prop_assert!(false, "untyped outcome {e}"),
            }
        }
        let mut ids = HashSet::new();
        for o in report.outcomes.iter().filter(|o| o.id.is_some()) {
            prop_assert!(ids.insert(o.id), "id {:?} served twice", o.id);
        }
        let completions = report.outcomes.iter().filter(|o| o.result.is_ok()).count();
        prop_assert_eq!(completions as u64, report.stats.completed);
        // a request admitted set-level appears in exactly one shard's
        // final Batch records unless it expired or was cancelled
        prop_assert_eq!(report.shards.len(), n_shards);
    }

    /// Admission is monotone in capacity for a burst workload: every
    /// request admitted at per-shard capacity `c` is admitted at
    /// capacity `c + k`.
    #[test]
    fn burst_admission_monotone_in_capacity(
        seed in 0u64..200,
        n_shards in 1usize..4,
        n in 1usize..20,
        c in 1usize..10,
        extra in 1usize..8,
    ) {
        // all arrive at t=0: admission is decided before any batch runs
        let events = schedule(n, 0, seed);
        let admitted = |capacity: usize| -> HashSet<usize> {
            let mut cfg = ServeConfig::standard(seed);
            cfg.queue_capacity = capacity;
            let fleet = fleet(seed, n_shards, 1);
            simulate_shards(fleet, cfg, RoutePolicy::Rendezvous, &events, &ChaosScript::empty())
                .expect("simulate_shards")
                .outcomes
                .iter()
                .filter(|o| o.id.is_some())
                .map(|o| o.index)
                .collect()
        };
        let small = admitted(c);
        let large = admitted(c + extra);
        prop_assert!(
            small.is_subset(&large),
            "capacity {} admitted {:?} but {} admitted {:?}",
            c, small, c + extra, large
        );
    }

    /// Routing is deterministic end to end: the same (models, config,
    /// policy, schedule, script) produces bit-identical outcomes, stats,
    /// and per-shard logs on a rerun.
    #[test]
    fn rerun_is_bit_identical(
        seed in 0u64..200,
        n_shards in 1usize..4,
        n in 1usize..16,
        chaos_len in 0usize..6,
    ) {
        let cfg = ServeConfig::standard(seed);
        let events = schedule(n, 5_000, seed);
        let span = events.last().map_or(1, |e| e.at_ns.max(1));
        let faults = script(seed, n_shards, chaos_len, span);
        let run = |threads: usize| {
            simulate_shards(
                fleet(seed, n_shards, threads),
                cfg.clone(),
                RoutePolicy::Rendezvous,
                &events,
                &faults,
            )
            .expect("simulate_shards")
        };
        let a = run(1);
        let b = run(1);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            prop_assert_eq!(x.index, y.index);
            prop_assert_eq!(&x.id, &y.id);
            match (&x.result, &y.result) {
                (Ok(rx), Ok(ry)) => {
                    let bx: Vec<u32> = rx.output.iter().map(|v| v.to_bits()).collect();
                    let by: Vec<u32> = ry.output.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(bx, by);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "outcome kind diverged at index {}", x.index),
            }
        }
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            prop_assert_eq!(&sa.log, &sb.log, "shard log diverged");
        }
    }

    /// Kill-and-replay: per-shard logs from a chaotic sharded run —
    /// including runs containing `Reconfigure` records — replay bitwise
    /// against freshly deployed replicas, at 1 vs 4 engine threads.
    #[test]
    fn sharded_replay_is_bitwise_at_any_thread_count(
        seed in 0u64..200,
        n_shards in 1usize..4,
        n in 1usize..16,
        kill_pick in 0usize..2,
    ) {
        let kill_one = kill_pick == 1;
        let cfg = ServeConfig::standard(seed);
        let events = schedule(n, 5_000, seed);
        let span = events.last().map_or(1, |e| e.at_ns.max(1));
        // always exercise a mid-run reconfigure; optionally kill a shard
        let mut fault_events = vec![ChaosEvent {
            at_ns: span / 3,
            action: ChaosAction::Reconfigure {
                shard: 0,
                pulses: vec![12],
            },
        }];
        if kill_one && n_shards > 1 {
            fault_events.push(ChaosEvent {
                at_ns: span / 2,
                action: ChaosAction::Kill { shard: n_shards - 1 },
            });
        }
        let faults = ChaosScript::new(fault_events).expect("script");
        let report = simulate_shards(
            fleet(seed, n_shards, 1),
            cfg,
            RoutePolicy::Rendezvous,
            &events,
            &faults,
        )
        .expect("simulate_shards");
        prop_assert!(report.stats.accounted(), "{:?}", report.stats);
        let live: HashMap<u64, Vec<f32>> = report
            .outcomes
            .iter()
            .filter_map(|o| match (&o.id, &o.result) {
                (Some(id), Ok(r)) => Some((*id, r.output.clone())),
                _ => None,
            })
            .collect();
        let logs: Vec<_> = report.shards.iter().map(|s| s.log.clone()).collect();
        for threads in [1usize, 4] {
            let mut fresh = fleet(seed, n_shards, threads);
            let rows = replay_shards(&mut fresh, seed, &logs).expect("replay_shards");
            prop_assert_eq!(rows.len(), live.len(), "threads={}", threads);
            for (id, row) in rows {
                let expected = live.get(&id).expect("live row");
                let ea: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
                let ra: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(ea, ra, "id {} diverged at {} threads", id, threads);
            }
        }
    }

    /// A multi-shard set under a shard kill keeps strictly positive
    /// throughput and zero silent drops: every admitted request still
    /// resolves, and survivors absorb the failed-over work.
    #[test]
    fn kill_mid_run_keeps_survivors_serving(
        seed in 0u64..200,
        n in 4usize..20,
    ) {
        let cfg = ServeConfig::standard(seed);
        let events = schedule(n, 2_000, seed);
        let span = events.last().map_or(1, |e| e.at_ns.max(1));
        let faults = ChaosScript::new(vec![ChaosEvent {
            at_ns: span / 2,
            action: ChaosAction::Kill { shard: 0 },
        }])
        .expect("script");
        let report = simulate_shards(
            fleet(seed, 3, 1),
            cfg,
            RoutePolicy::Rendezvous,
            &events,
            &faults,
        )
        .expect("simulate_shards");
        prop_assert!(report.stats.accounted(), "{:?}", report.stats);
        prop_assert!(report.stats.completed > 0, "{:?}", report.stats);
        prop_assert_eq!(report.outcomes.len(), n);
    }
}

/// Upset rates the boundary must accept (the first) or reject typed.
const RATES: [f32; 5] = [0.02, f32::NAN, -0.1, 1.5, f32::INFINITY];
/// Forced violation EMAs, likewise.
const EMAS: [f64; 5] = [0.5, f64::NAN, -0.1, 1.5, f64::INFINITY];
/// Deadline budgets: zero, tiny, the default and the largest.
const DEADLINES: [u64; 4] = [0, 1, 1_000_000, u64::MAX];
/// Energy-model values: one valid, four that stall or rewind the clock.
const ENERGY: [f64; 5] = [0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Malformed input at the serving boundary — shard indices past the
    /// set, NaN or out-of-range upset rates and EMAs, zero and
    /// `u64::MAX` deadlines, empty, wrong-length or oversized
    /// reconfigurations, non-finite or negative energy fields — either
    /// gets a typed error from `ChaosScript::new`, `ServeConfig::validate`
    /// or `simulate_shards`, or runs with finite outputs and the
    /// accounting identity intact. Nothing panics, and `simulate_shards`
    /// never accepts a configuration `validate` rejects.
    #[test]
    fn hostile_boundary_inputs_are_rejected_typed_or_run_finite(
        seed in 0u64..200,
        n_shards in 1usize..4,
        past_end in 0usize..3,
        rate_pick in 0usize..5,
        ema_pick in 0usize..5,
        reconfig_pick in 0usize..4,
        default_deadline_pick in 0usize..4,
        request_deadline_pick in 0usize..5,
        energy_field in 0usize..3,
        energy_pick in 0usize..5,
    ) {
        let n = 8usize;
        let mut events = schedule(n, 3_000, seed);
        if let Some(&deadline) = DEADLINES.get(request_deadline_pick) {
            for e in &mut events {
                let ArrivalKind::Request { deadline_ns, .. } = &mut e.kind;
                *deadline_ns = Some(deadline);
            }
        }
        let pulses = match reconfig_pick {
            0 => vec![8],
            1 => Vec::new(),
            2 => vec![8, 8],
            _ => vec![MAX_NESTED_PULSES + 1],
        };
        let beyond = n_shards + past_end;
        let actions = [
            ChaosAction::Upset { shard: 0, rate: RATES[rate_pick] },
            ChaosAction::Kill { shard: beyond },
            ChaosAction::Degrade { shard: n_shards - 1, ema: EMAS[ema_pick] },
            ChaosAction::Reconfigure { shard: 0, pulses },
            ChaosAction::Revive { shard: beyond },
        ];
        let chaos: Vec<ChaosEvent> = actions
            .into_iter()
            .enumerate()
            .map(|(i, action)| ChaosEvent { at_ns: i as u64 * 4_000, action })
            .collect();
        let script = match ChaosScript::new(chaos) {
            Ok(script) => script,
            Err(e) => {
                prop_assert!(matches!(e, ServeError::BadRequest(_)), "untyped script error {e}");
                // the rest of the boundary still runs, without the script
                ChaosScript::empty()
            }
        };
        let mut cfg = ServeConfig::standard(seed);
        cfg.default_deadline_ns = DEADLINES[default_deadline_pick];
        let energy = ENERGY[energy_pick];
        match energy_field {
            0 => cfg.energy.pj_per_cell_read = energy,
            1 => cfg.energy.pj_per_adc = energy,
            _ => cfg.energy.ns_per_pulse = energy,
        }
        let valid = cfg.validate();
        let run = simulate_shards(fleet(seed, n_shards, 1), cfg, RoutePolicy::Rendezvous, &events, &script);
        match (valid, run) {
            (Err(e), Err(_)) => {
                prop_assert!(!matches!(e, ServeError::Internal(_)), "untyped config error {e}");
            }
            (Err(e), Ok(_)) => prop_assert!(false, "simulate_shards ran a config validate rejects: {e}"),
            (Ok(()), Err(e)) => prop_assert!(false, "valid config failed: {e}"),
            (Ok(()), Ok(report)) => {
                prop_assert!(report.stats.accounted(), "{:?}", report.stats);
                prop_assert_eq!(report.outcomes.len(), n);
                for o in &report.outcomes {
                    match &o.result {
                        Ok(r) => {
                            prop_assert!(r.output.iter().all(|v| v.is_finite()), "{:?}", r.output);
                            prop_assert!(r.energy_pj.is_finite(), "energy {}", r.energy_pj);
                        }
                        Err(ServeError::Internal(msg)) => prop_assert!(false, "internal: {msg}"),
                        Err(_) => {}
                    }
                }
            }
        }
    }
}
