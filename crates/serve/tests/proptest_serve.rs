//! Queue invariants of a single deployment (a `ShardSet` of one),
//! property-tested over random workloads: conservation (every request
//! resolved exactly once, no lost or double-served work), zero silent
//! drops, and bitwise replay of the request log. Admission monotone in
//! capacity runs on sets of one to three shards in `proptest_shard`.

use std::collections::{HashMap, HashSet};

use membit_serve::{
    replay_shards, simulate_shards, ArrivalEvent, ArrivalKind, ChaosAction, ChaosEvent,
    ChaosScript, LinearServeModel, RoutePolicy, ServeConfig, ServeError,
};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{GuardPolicy, XbarConfig};
use proptest::prelude::*;

const IN: usize = 4;
const OUT: usize = 3;

fn model(seed: u64) -> LinearServeModel {
    let mut rng = Rng::from_seed(seed);
    let w = Tensor::from_fn(&[OUT, IN], |i| {
        if (i + seed as usize).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    });
    let cfg = XbarConfig::functional(0.05).with_guard(GuardPolicy::standard());
    LinearServeModel::program(&w, &cfg, 9, 4, &mut rng).expect("program")
}

fn payload(i: usize, seed: u64) -> Vec<f32> {
    (0..IN)
        .map(|j| ((((i + j) * 3 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0))
        .collect()
}

/// A random workload: `n` requests with random inter-arrival gaps.
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

/// An occasional chaos event: 1 % upsets at the arrival of every
/// `every`-th request (none for `every == 0`); a script applies each
/// ahead of the request it ties with.
fn upsets(events: &[ArrivalEvent], every: usize) -> ChaosScript {
    let upsets = events
        .iter()
        .enumerate()
        .filter(|(i, _)| every > 0 && *i > 0 && i % every == 0)
        .map(|(_, e)| ChaosEvent {
            at_ns: e.at_ns,
            action: ChaosAction::Upset {
                shard: 0,
                rate: 0.01,
            },
        })
        .collect();
    ChaosScript::new(upsets).expect("upsets follow the sorted schedule")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation: every scheduled request gets exactly one outcome,
    /// and the stats identity `admitted == completed + expired + failed
    /// + cancelled` holds — no lost work, no double-served work.
    #[test]
    fn every_request_resolved_exactly_once(
        seed in 0u64..200,
        n in 1usize..24,
        gap_kind in 0usize..3,
        capacity in 1usize..16,
        max_batch in 1usize..9,
        chaos_every in 0usize..6,
    ) {
        let gap = [0u64, 500, 50_000][gap_kind];
        let mut cfg = ServeConfig::standard(seed);
        cfg.queue_capacity = capacity;
        cfg.max_batch = max_batch;
        let events = schedule(n, gap, seed);
        let faults = upsets(&events, chaos_every);
        let report =
            simulate_shards(vec![model(seed)], cfg, RoutePolicy::Rendezvous, &events, &faults)
                .expect("simulate_shards");

        prop_assert!(report.stats.accounted(), "{:?}", report.stats);
        // one outcome per scheduled request, each index exactly once
        prop_assert_eq!(report.outcomes.len(), n);
        let mut seen = HashSet::new();
        for o in &report.outcomes {
            prop_assert!(seen.insert(o.index), "index {} resolved twice", o.index);
            // zero silent drops: an outcome is a response or a typed error
            match &o.result {
                Ok(r) => prop_assert_eq!(r.output.len(), OUT),
                Err(ServeError::QueueFull { .. })
                | Err(ServeError::DeadlineExceeded { .. })
                | Err(ServeError::Shed)
                | Err(ServeError::Engine(_)) => {}
                Err(e) => prop_assert!(false, "untyped outcome {e}"),
            }
        }
        // resolved ids are unique (no double-serve)
        let mut ids = HashSet::new();
        for o in report.outcomes.iter().filter(|o| o.id.is_some()) {
            prop_assert!(ids.insert(o.id), "id {:?} served twice", o.id);
        }
        let completions = report.outcomes.iter().filter(|o| o.result.is_ok()).count();
        prop_assert_eq!(completions as u64, report.stats.completed);
    }

    /// The request log alone reproduces every completed response
    /// bitwise against a freshly programmed model.
    #[test]
    fn replay_matches_simulation_bitwise(
        seed in 0u64..200,
        n in 1usize..16,
        max_batch in 1usize..6,
        chaos_every in 0usize..4,
    ) {
        let mut cfg = ServeConfig::standard(seed);
        cfg.max_batch = max_batch;
        let events = schedule(n, 20_000, seed);
        let faults = upsets(&events, chaos_every);
        let report =
            simulate_shards(vec![model(seed)], cfg, RoutePolicy::Rendezvous, &events, &faults)
                .expect("simulate_shards");
        let live: HashMap<u64, Vec<f32>> = report.outcomes.iter()
            .filter_map(|o| match (&o.id, &o.result) {
                (Some(id), Ok(r)) => Some((*id, r.output.clone())),
                _ => None,
            })
            .collect();
        let mut fresh = [model(seed)];
        let logs = [report.shards[0].log.clone()];
        let rows = replay_shards(&mut fresh, seed, &logs).expect("replay_shards");
        prop_assert_eq!(rows.len(), live.len());
        for (id, row) in rows {
            let expected = live.get(&id).expect("live row");
            prop_assert_eq!(expected.as_slice(), row.as_slice(), "id {} diverged", id);
        }
    }
}
