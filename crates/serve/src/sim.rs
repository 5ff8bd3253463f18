//! Discrete-event load simulation of a [`ShardSet`].
//!
//! [`simulate_shards`] drives one deployment, or N replicas, through a
//! timed arrival schedule and a [`ChaosScript`] entirely in virtual
//! time: requests arrive at their scheduled timestamps, batches advance
//! each shard's clock by the energy model's latency accounting, and
//! admission control sees exactly the queue depths a live server would
//! at that virtual instant. Because no wall clock is involved, a
//! simulation is a pure function of its inputs — the offered-load
//! sweeps of `bench_serve`, the repository benchmark and the queue
//! invariant proptests all run on it.

use std::collections::HashMap;

use crate::chaos::ChaosScript;
use crate::clock::ClockMode;
use crate::config::ServeConfig;
use crate::executor::{Pending, Response, ServeStats};
use crate::model::ServeModel;
use crate::router::RoutePolicy;
use crate::shard::{ShardOutcome, ShardRecord, ShardSet};
use crate::{Result, ServeError};

/// What arrives at a scheduled instant. Faults are not arrivals: they
/// travel in a [`ChaosScript`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalKind {
    /// A client request with a flattened payload and optional deadline
    /// override (virtual ns).
    Request {
        /// Flattened input sample.
        input: Vec<f32>,
        /// Deadline budget; `None` uses the config default.
        deadline_ns: Option<u64>,
    },
}

/// One scheduled arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalEvent {
    /// Virtual arrival time (ns); the schedule must be non-decreasing.
    pub at_ns: u64,
    /// What arrives.
    pub kind: ArrivalKind,
}

/// Outcome of one scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Position in the input schedule.
    pub index: usize,
    /// Assigned request id, if the request passed admission.
    pub id: Option<u64>,
    /// The response, or the typed rejection/failure.
    pub result: Result<Response>,
}

/// Final state of a simulation.
pub struct ShardSimReport<M> {
    /// Set-level counters; `stats.accounted()` holds across shards.
    pub stats: ServeStats,
    /// Per-shard teardown records (model, log, shard-local stats,
    /// final status) — feed the logs to [`crate::replay_shards`].
    pub shards: Vec<ShardRecord<M>>,
    /// Per-scheduled-request outcomes, in schedule order.
    pub outcomes: Vec<SimOutcome>,
}

/// Runs `models` — one deployment, or N replicas — through `schedule`
/// while `script` injects faults, entirely in virtual time: a pure
/// function of `(models, config, policy, schedule, script)`.
///
/// The schedule carries requests only — faults reach shards through
/// the script, which names its target shard explicitly. At a timeline
/// tie, scripted actions apply before arrivals.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] for an unsorted schedule or a
/// non-virtual clock mode, and propagates construction errors;
/// per-request failures land in the outcomes, not here.
pub fn simulate_shards<M: ServeModel>(
    models: Vec<M>,
    config: ServeConfig,
    policy: RoutePolicy,
    schedule: &[ArrivalEvent],
    script: &ChaosScript,
) -> Result<ShardSimReport<M>> {
    if schedule.windows(2).any(|w| w[0].at_ns > w[1].at_ns) {
        return Err(ServeError::BadRequest(
            "arrival schedule must be sorted by at_ns".into(),
        ));
    }
    if config.clock != ClockMode::Virtual {
        return Err(ServeError::BadRequest(
            "simulation requires ClockMode::Virtual".into(),
        ));
    }
    let default_deadline = config.default_deadline_ns;
    let mut set = ShardSet::new(models, config, policy)?;
    let events = script.events();
    let mut outcomes: Vec<SimOutcome> = Vec::new();
    // schedule position of each admitted id, for outcome attribution
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let record = |outcomes: &mut Vec<SimOutcome>,
                  index_of: &HashMap<u64, usize>,
                  resolved: Vec<ShardOutcome>| {
        for (id, result) in resolved {
            let index = index_of.get(&id).copied().unwrap_or(usize::MAX);
            outcomes.push(SimOutcome {
                index,
                id: Some(id),
                result,
            });
        }
    };
    let (mut si, mut ci) = (0usize, 0usize);
    while si < schedule.len() || ci < events.len() {
        let t = match (schedule.get(si), events.get(ci)) {
            (Some(a), Some(c)) => a.at_ns.min(c.at_ns),
            (Some(a), None) => a.at_ns,
            (None, Some(c)) => c.at_ns,
            (None, None) => break,
        };
        let resolved = set.serve_until(Some(t));
        record(&mut outcomes, &index_of, resolved);
        while ci < events.len() && events[ci].at_ns <= t {
            // a rejected action (bad index, dead target) is already
            // counted by the set as a chaos failure — never silent
            if let Ok(resolved) = set.apply(&events[ci].action) {
                record(&mut outcomes, &index_of, resolved);
            }
            ci += 1;
        }
        while si < schedule.len() && schedule[si].at_ns <= t {
            let ArrivalKind::Request { input, deadline_ns } = &schedule[si].kind;
            let id = set.next_request_id();
            let pending = Pending {
                id,
                input: input.clone(),
                arrival_ns: schedule[si].at_ns,
                deadline_ns: deadline_ns.unwrap_or(default_deadline),
            };
            match set.submit(pending) {
                Ok(_) => {
                    index_of.insert(id, si);
                }
                Err(e) => outcomes.push(SimOutcome {
                    index: si,
                    id: None,
                    result: Err(e),
                }),
            }
            si += 1;
        }
    }
    let resolved = set.serve_until(None);
    record(&mut outcomes, &index_of, resolved);
    // nothing should remain queued after a full drain; resolve typed if
    // an invariant ever breaks rather than dropping silently
    let resolved = set.cancel_queued();
    record(&mut outcomes, &index_of, resolved);
    outcomes.sort_by_key(|o| o.index);
    let report = set.into_report();
    Ok(ShardSimReport {
        stats: report.stats,
        shards: report.shards,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosAction, ChaosEvent};
    use crate::log::LogEvent;
    use crate::model::LinearServeModel;
    use crate::shard::replay_shards;
    use crate::testing::{models, payload};

    fn request(at_ns: u64, i: usize) -> ArrivalEvent {
        ArrivalEvent {
            at_ns,
            kind: ArrivalKind::Request {
                input: payload(i),
                deadline_ns: None,
            },
        }
    }

    fn run(
        n_shards: usize,
        config: ServeConfig,
        schedule: &[ArrivalEvent],
        script: Vec<ChaosEvent>,
    ) -> ShardSimReport<LinearServeModel> {
        let script = ChaosScript::new(script).unwrap();
        let models = models(n_shards, config.seed);
        simulate_shards(models, config, RoutePolicy::Rendezvous, schedule, &script).unwrap()
    }

    fn output_bits(report: &ShardSimReport<LinearServeModel>) -> Vec<Vec<u32>> {
        report
            .outcomes
            .iter()
            .map(|o| {
                let r = o.result.as_ref().unwrap();
                r.output.iter().map(|v| v.to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn spread_arrivals_all_complete() {
        for n_shards in [1, 3] {
            let schedule: Vec<ArrivalEvent> =
                (0..8).map(|i| request(i as u64 * 10_000, i)).collect();
            let report = run(n_shards, ServeConfig::standard(1), &schedule, vec![]);
            assert!(report.stats.accounted());
            assert_eq!(report.stats.completed, 8);
            assert_eq!(report.outcomes.len(), 8);
            assert!(report.outcomes.iter().all(|o| o.result.is_ok()));
            assert!(report.stats.max_queue_depth >= 1);
        }
    }

    #[test]
    fn burst_beyond_capacity_is_rejected_typed() {
        for n_shards in [1, 3] {
            // every shard queues 4, the 6 beyond the set's capacity bounce
            let mut cfg = ServeConfig::standard(2);
            cfg.queue_capacity = 4;
            let n = 4 * n_shards + 6;
            let schedule: Vec<ArrivalEvent> = (0..n).map(|i| request(0, i)).collect();
            let report = run(n_shards, cfg, &schedule, vec![]);
            let full = report
                .outcomes
                .iter()
                .filter(|o| matches!(o.result, Err(ServeError::QueueFull { capacity: 4 })))
                .count();
            assert_eq!(full, 6, "{n_shards} shard(s): 6 bounced");
            assert_eq!(report.stats.rejected_queue_full, 6);
            assert_eq!(report.stats.completed, 4 * n_shards as u64);
            assert!(report.stats.accounted());
        }
    }

    #[test]
    fn unsorted_schedule_is_rejected() {
        let schedule = vec![request(100, 0), request(0, 1)];
        let result = simulate_shards(
            models(1, 3),
            ServeConfig::standard(3),
            RoutePolicy::Rendezvous,
            &schedule,
            &ChaosScript::empty(),
        );
        assert!(matches!(result, Err(ServeError::BadRequest(_))));
    }

    #[test]
    fn chaos_between_requests_is_applied_in_order() {
        let schedule = vec![request(0, 0), request(20_000, 1)];
        let upset = ChaosEvent {
            at_ns: 10_000,
            action: ChaosAction::Upset {
                shard: 0,
                rate: 0.25,
            },
        };
        let report = run(1, ServeConfig::standard(4), &schedule, vec![upset]);
        assert_eq!(report.stats.chaos_events, 1);
        assert!(report.stats.chaos_upsets > 0);
        assert_eq!(report.stats.completed, 2);
        let kinds: Vec<&str> = report.shards[0]
            .log
            .events()
            .iter()
            .filter_map(|e| match e {
                LogEvent::Chaos { .. } => Some("chaos"),
                LogEvent::Batch { .. } => Some("batch"),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, ["batch", "chaos", "batch"]);
    }

    #[test]
    fn reconfigure_swaps_encoding_and_replays_bitwise() {
        for n_shards in [1, 3] {
            let config = ServeConfig::standard(6);
            let schedule: Vec<ArrivalEvent> =
                (0..6).map(|i| request(i as u64 * 20_000, i)).collect();
            let swap = ChaosEvent {
                at_ns: 50_000,
                action: ChaosAction::Reconfigure {
                    shard: 0,
                    pulses: vec![12],
                },
            };
            let report = run(n_shards, config.clone(), &schedule, vec![swap]);
            assert_eq!(report.stats.reconfigures, 1);
            assert_eq!(report.stats.completed, 6);
            assert!(report.stats.accounted());
            // the logs record the swap in stream order, and replay against
            // freshly programmed models is bitwise identical
            let logs: Vec<_> = report.shards.iter().map(|s| s.log.clone()).collect();
            let mut fresh = models(n_shards, config.seed);
            let replayed = replay_shards(&mut fresh, config.seed, &config.retry, &logs).unwrap();
            let live: Vec<(u64, Vec<u32>)> = report
                .outcomes
                .iter()
                .zip(output_bits(&report))
                .map(|(o, bits)| (o.id.unwrap(), bits))
                .collect();
            let replayed: Vec<(u64, Vec<u32>)> = replayed
                .into_iter()
                .map(|(id, row)| (id, row.iter().map(|v| v.to_bits()).collect()))
                .collect();
            assert_eq!(live, replayed);
        }
    }

    #[test]
    fn rejected_reconfigure_keeps_serving_on_old_encoding() {
        for n_shards in [1, 3] {
            let schedule = vec![request(0, 0), request(20_000, 1), request(40_000, 2)];
            let baseline = run(n_shards, ServeConfig::standard(7), &schedule, vec![]);
            // zero pulses, and more pulses than a count-coded train holds:
            // the model refuses both and the old encoding stays live
            for pulses in [vec![0], vec![70_000]] {
                let bad = ChaosEvent {
                    at_ns: 10_000,
                    action: ChaosAction::Reconfigure { shard: 0, pulses },
                };
                let report = run(n_shards, ServeConfig::standard(7), &schedule, vec![bad]);
                assert_eq!(report.stats.reconfigures, 0);
                assert_eq!(report.stats.chaos_failures, 1, "the refusal is counted");
                assert_eq!(report.stats.completed, 3);
                assert_eq!(output_bits(&report), output_bits(&baseline));
                // nothing was logged, so the logs replay without the bad event
                assert!(report.shards.iter().all(|s| !s
                    .log
                    .events()
                    .iter()
                    .any(|e| matches!(e, LogEvent::Reconfigure { .. }))));
            }
        }
    }

    #[test]
    fn tight_deadlines_expire_under_backlog() {
        for n_shards in [1, 3] {
            let mut cfg = ServeConfig::standard(5);
            cfg.max_batch = 1;
            cfg.block_align = 1;
            // all arrive at t=0 with a budget shorter than one batch
            // latency: each shard serves its first request (expiry is
            // checked at pickup, when its clock still reads 0), the rest
            // expire as the clocks pass their budget
            let schedule: Vec<ArrivalEvent> = (0..6)
                .map(|_| ArrivalEvent {
                    at_ns: 0,
                    kind: ArrivalKind::Request {
                        input: vec![0.5, -0.5, 1.0],
                        deadline_ns: Some(1),
                    },
                })
                .chain(std::iter::once(request(1_000_000, 6)))
                .collect();
            let report = run(n_shards, cfg, &schedule, vec![]);
            assert!(report.stats.expired > 0, "{:?}", report.stats);
            assert!(report.stats.accounted());
            let expired = report
                .outcomes
                .iter()
                .filter(|o| matches!(o.result, Err(ServeError::DeadlineExceeded { .. })))
                .count();
            assert_eq!(expired as u64, report.stats.expired);
        }
        // an expiry behind a live request of the same batch keeps its own
        // schedule position
        let mut cfg = ServeConfig::standard(5);
        cfg.max_batch = 4;
        let tight = ArrivalEvent {
            at_ns: 200,
            kind: ArrivalKind::Request {
                input: payload(2),
                deadline_ns: Some(1),
            },
        };
        let report = run(1, cfg, &[request(0, 0), request(100, 1), tight], vec![]);
        assert!(report.outcomes[1].result.is_ok());
        assert!(matches!(
            report.outcomes[2].result,
            Err(ServeError::DeadlineExceeded {
                arrival_ns: 200,
                ..
            })
        ));
    }
}
