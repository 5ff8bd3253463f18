//! Golden serving digests: the serving determinism contract across
//! changes.
//!
//! The replay suites check that a run's logs reproduce its own
//! responses. A change that moves every response, counter or log record
//! the same way passes those silently. This suite pins two chaos runs
//! over tiny-VGG deployments to digests recorded once: outcome ids,
//! response bits, latency and energy, typed error kinds, every
//! `ServeStats` counter, and every per-shard `RequestLog` record.
//!
//! Outcomes are hashed by request id, never by schedule position, so a
//! digest does not depend on how faults are scheduled beside requests.
//!
//! If a change is *meant* to move these numbers, re-record the constants
//! from the failure message and say so in the change log.

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
use membit_nn::{Params, Vgg, VggConfig};
use membit_serve::{
    simulate_shards, ArrivalEvent, ArrivalKind, ChaosAction, ChaosEvent, ChaosScript, LogEvent,
    RequestLog, RoutePolicy, ServeConfig, ServeError, ServeStats, SimOutcome,
};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{GuardPolicy, XbarConfig};

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

    fn floats(&mut self, v: &[f32]) {
        self.word(v.len() as u64);
        for x in v {
            self.word(u64::from(x.to_bits()));
        }
    }

    fn outcomes(&mut self, outcomes: &[SimOutcome]) {
        self.word(outcomes.len() as u64);
        for o in outcomes {
            self.word(o.id.map_or(u64::MAX, |id| id));
            match &o.result {
                Ok(r) => {
                    self.word(0);
                    self.floats(&r.output);
                    self.word(r.latency_ns);
                    self.word(r.energy_pj.to_bits());
                }
                Err(e) => self.word(error_kind(e)),
            }
        }
    }

    fn stats(&mut self, s: &ServeStats) {
        let g = &s.exec.guard;
        for w in [
            s.admitted,
            s.rejected_queue_full,
            s.rejected_shed,
            s.completed,
            s.late_completions,
            s.expired,
            s.failed,
            s.cancelled,
            s.batches,
            s.retries,
            s.chaos_events,
            s.chaos_upsets,
            s.chaos_failures,
            s.reconfigures,
            s.failovers,
            s.max_queue_depth,
            s.exec.vectors,
            s.exec.pulses,
            s.exec.tile_mvms,
            s.exec.adc_conversions,
            s.exec.cell_reads,
            s.exec.unrecoverable_cells,
            s.exec.degraded_tiles,
            s.exec.refreshes,
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

    fn log(&mut self, log: &RequestLog) {
        self.word(log.len() as u64);
        for event in log.events() {
            match event {
                LogEvent::Admit {
                    id,
                    arrival_ns,
                    deadline_ns,
                    input,
                } => {
                    self.word(1);
                    self.word(*id);
                    self.word(*arrival_ns);
                    self.word(*deadline_ns);
                    self.floats(input);
                }
                LogEvent::Chaos { rate } => {
                    self.word(2);
                    self.word(u64::from(rate.to_bits()));
                }
                LogEvent::Reconfigure { pulses } => {
                    self.word(3);
                    self.word(pulses.len() as u64);
                    for &p in pulses {
                        self.word(p as u64);
                    }
                }
                LogEvent::Expire { id, now_ns } => {
                    self.word(4);
                    self.word(*id);
                    self.word(*now_ns);
                }
                LogEvent::Batch { ids } => {
                    self.word(5);
                    self.word(ids.len() as u64);
                    for &id in ids {
                        self.word(id);
                    }
                }
            }
        }
    }
}

fn error_kind(e: &ServeError) -> u64 {
    match e {
        ServeError::QueueFull { .. } => 1,
        ServeError::DeadlineExceeded { .. } => 2,
        ServeError::Shed => 3,
        ServeError::Closed => 4,
        ServeError::Engine(_) => 5,
        ServeError::BadRequest(_) => 6,
        ServeError::Internal(_) => 7,
        _ => 8,
    }
}

/// The tiny VGG on guarded functional crossbars: same seed, same
/// device state.
fn deploy_tiny(seed: u64, threads: usize) -> DeviceVgg {
    let mut init = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut init).expect("vgg");
    let mut dev = Rng::from_seed(seed).stream(RngStream::Device);
    let mut device = DeviceVgg::deploy(
        &vgg,
        &params,
        &DeviceEvalConfig {
            xbar: XbarConfig::functional(0.05).with_guard(GuardPolicy::standard()),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        },
        &mut dev,
    )
    .expect("deploy");
    device.set_max_threads(threads).expect("threads");
    device
}

fn requests(n: usize, gap_ns: u64) -> Vec<ArrivalEvent> {
    (0..n)
        .map(|i| ArrivalEvent {
            at_ns: i as u64 * gap_ns,
            kind: ArrivalKind::Request {
                input: (0..3 * 8 * 8)
                    .map(|j| (((i * 7 + j) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0))
                    .collect(),
                deadline_ns: None,
            },
        })
        .collect()
}

const SEED: u64 = 2022;
const GAP_NS: u64 = 8_800;

fn config() -> ServeConfig {
    let mut cfg = ServeConfig::standard(SEED);
    cfg.queue_capacity = 16;
    cfg
}

/// Runs `fleet` through `schedule` and `script`, hashing the outcomes,
/// the set-level stats and every shard's log.
fn digest(
    fleet: Vec<DeviceVgg>,
    schedule: &[ArrivalEvent],
    script: Vec<ChaosEvent>,
) -> (u64, ServeStats) {
    let script = ChaosScript::new(script).expect("script");
    let report = simulate_shards(fleet, config(), RoutePolicy::Rendezvous, schedule, &script)
        .expect("simulate_shards");
    let mut h = Fnv::new();
    h.outcomes(&report.outcomes);
    h.stats(&report.stats);
    for shard in &report.shards {
        h.log(&shard.log);
    }
    (h.0, report.stats)
}

/// One deployment — a set of one — under 2 % upsets before every 5th
/// request and one live reconfiguration, each fault half a gap away
/// from any arrival.
fn single_deployment(threads: usize) -> (u64, ServeStats) {
    let upsets = (5..24).step_by(5).map(|i| ChaosEvent {
        at_ns: i * GAP_NS - GAP_NS / 2,
        action: ChaosAction::Upset {
            shard: 0,
            rate: 0.02,
        },
    });
    let reconfigure = ChaosEvent {
        at_ns: 12 * GAP_NS + GAP_NS / 2,
        action: ChaosAction::Reconfigure {
            shard: 0,
            pulses: vec![12, 8, 8],
        },
    };
    let mut script: Vec<ChaosEvent> = upsets.chain([reconfigure]).collect();
    script.sort_by_key(|e| e.at_ns);
    digest(
        vec![deploy_tiny(SEED, threads)],
        &requests(24, GAP_NS),
        script,
    )
}

/// Three replicas: upsets on shard 0, a live reconfiguration of shard 0
/// and shard 2 killed with a backlog.
fn campaign(threads: usize) -> (u64, ServeStats) {
    let gap_ns = GAP_NS / 8;
    let span = 31 * gap_ns;
    let script = vec![
        ChaosEvent {
            at_ns: span / 4,
            action: ChaosAction::Upset {
                shard: 0,
                rate: 0.02,
            },
        },
        ChaosEvent {
            at_ns: span / 2,
            action: ChaosAction::Reconfigure {
                shard: 0,
                pulses: vec![12, 8, 8],
            },
        },
        ChaosEvent {
            at_ns: span * 3 / 4,
            action: ChaosAction::Kill { shard: 2 },
        },
    ];
    let fleet = (0..3).map(|s| deploy_tiny(SEED + s, threads)).collect();
    digest(fleet, &requests(32, gap_ns), script)
}

/// `(single-deployment digest, campaign digest)`, recorded at commit
/// `f38ec61`, where the single deployment was served by a separate
/// single-deployment driver with its faults inline in the schedule.
const GOLDEN: (u64, u64) = (0xea55_53ef_9ae1_0688, 0xce9b_1f34_23b2_7804);

#[test]
fn digests_match_the_recorded_goldens() {
    let mut failures = Vec::new();
    for threads in [1, 4] {
        let (single, s) = single_deployment(threads);
        // the digest only guards the paths the run takes
        assert!(s.rejected_shed > 0 && s.max_queue_depth > 1, "{s:?}");
        assert!(s.chaos_events > 0 && s.reconfigures == 1, "{s:?}");
        let (sharded, s) = campaign(threads);
        assert!(
            s.failovers > 0 && s.chaos_events > 0 && s.reconfigures == 1,
            "{s:?}"
        );
        for (name, got, want) in [
            ("single deployment", single, GOLDEN.0),
            ("campaign", sharded, GOLDEN.1),
        ] {
            if got != want {
                failures.push(format!(
                    "{name} at {threads} thread(s): {got:#018x}, recorded {want:#018x}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
