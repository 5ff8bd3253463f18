//! End-to-end serving determinism: a live threaded server over full
//! `DeviceVgg` deployments — one deployment (a set of one) or three
//! replicas, with chaos upsets and guard escalations mid-serving — must
//! be reproducible **bitwise** from its request logs alone, at any
//! engine thread count; overload must surface as typed errors, never
//! silent drops.

use std::collections::HashMap;

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
use membit_nn::{Params, Vgg, VggConfig};
use membit_serve::{
    replay_shards, ChaosAction, ClockMode, RequestLog, RetryPolicy, RoutePolicy, ServeConfig,
    ServeError, ShardServer, ShardSetReport,
};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{GuardPolicy, XbarConfig};

/// Deploys the tiny VGG afresh: same seeds → identical device state.
fn deploy_tiny(seed: u64) -> DeviceVgg {
    let mut init = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut init).expect("vgg");
    let mut dev = Rng::from_seed(seed).stream(RngStream::Device);
    DeviceVgg::deploy(
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
    .expect("deploy")
}

fn sample(i: usize) -> Vec<f32> {
    (0..3 * 8 * 8)
        .map(|j| (((i * 7 + j) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0))
        .collect()
}

/// Replays `report`'s logs against `fleet()` at each engine thread count
/// in `threads` and checks every row against the `live` responses.
fn assert_replays_bitwise(
    fleet: impl Fn() -> Vec<DeviceVgg>,
    seed: u64,
    retry: &RetryPolicy,
    report: &ShardSetReport<DeviceVgg>,
    live: &HashMap<u64, Vec<f32>>,
    threads: &[usize],
) {
    let logs: Vec<RequestLog> = report.shards.iter().map(|s| s.log.clone()).collect();
    for &t in threads {
        let mut fresh = fleet();
        for m in &mut fresh {
            m.set_max_threads(t).expect("threads");
        }
        let rows = replay_shards(&mut fresh, seed, retry, &logs).expect("replay_shards");
        assert_eq!(rows.len(), live.len());
        for (id, row) in rows {
            assert_eq!(
                live.get(&id).expect("live response").as_slice(),
                row.as_slice(),
                "replay diverged for id {id} at {t} threads"
            );
        }
    }
}

/// One live deployment serves 10 requests with 2 % upsets queued behind
/// requests 3 and 7; the log replays every response bitwise at 1 and 4
/// engine threads.
#[test]
fn threaded_chaos_serving_replays_bitwise_at_any_thread_count() {
    let seed = 42;
    let mut cfg = ServeConfig::standard(seed);
    cfg.max_batch = 4;
    let retry = cfg.retry;
    let server =
        ShardServer::start(vec![deploy_tiny(seed)], cfg, RoutePolicy::Rendezvous).expect("start");

    // interleave requests with mid-serving chaos injections
    let mut handles = Vec::new();
    for i in 0..10 {
        handles.push(server.submit(sample(i), None).expect("submit"));
        if i == 3 || i == 7 {
            let upset = ChaosAction::Upset {
                shard: 0,
                rate: 0.02,
            };
            server.chaos(upset).expect("chaos");
        }
    }
    let mut live: HashMap<u64, Vec<f32>> = HashMap::new();
    for h in handles {
        let id = h.id();
        let r = h.wait().expect("response");
        assert_eq!(r.output.len(), 4);
        live.insert(id, r.output);
    }
    let report = server.shutdown().expect("shutdown");
    assert!(report.stats.accounted());
    assert_eq!(report.stats.completed, 10);
    assert_eq!(report.stats.chaos_events, 2);
    assert!(
        report.stats.exec.guard.checks > 0,
        "guard ladder must have been exercised"
    );
    // the log alone reproduces every response bitwise, regardless of
    // the replaying engine's thread fan-out
    let fleet = || vec![deploy_tiny(seed)];
    assert_replays_bitwise(fleet, seed, &retry, &report, &live, &[1, 4]);
}

#[test]
fn kill_and_replay_reproduces_completed_responses() {
    let seed = 7;
    let mut cfg = ServeConfig::standard(seed);
    cfg.max_batch = 1;
    cfg.block_align = 1;
    let retry = cfg.retry;
    let server =
        ShardServer::start(vec![deploy_tiny(seed)], cfg, RoutePolicy::Rendezvous).expect("start");
    let handles: Vec<_> = (0..8)
        .map(|i| server.submit(sample(i), None).expect("submit"))
        .collect();
    let report = server.kill().expect("kill");
    assert!(report.stats.accounted());

    let mut live: HashMap<u64, Vec<f32>> = HashMap::new();
    let mut cancelled = 0u64;
    for h in handles {
        let id = h.id();
        match h.wait() {
            Ok(r) => {
                live.insert(id, r.output);
            }
            Err(ServeError::Closed) => cancelled += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    assert_eq!(cancelled, report.stats.cancelled);
    assert_eq!(live.len() as u64, report.stats.completed);
    assert_replays_bitwise(
        || vec![deploy_tiny(seed)],
        seed,
        &retry,
        &report,
        &live,
        &[1],
    );
}

#[test]
fn sharded_server_survives_chaos_and_replays_bitwise() {
    // the full campaign on the live threaded sharded server: 3 VGG
    // replicas, cell upsets on shard 0, a live encoding reconfiguration
    // on shard 1, and shard 2 killed mid-stream. Every request resolves
    // typed, set-level accounting holds, and the per-shard logs replay
    // every delivered response bitwise at 1 and 4 engine threads.
    let seed = 42;
    let fleet = || -> Vec<DeviceVgg> { (0..3).map(|s| deploy_tiny(seed + s as u64)).collect() };
    let mut cfg = ServeConfig::standard(seed);
    cfg.max_batch = 2;
    cfg.block_align = 1;
    let retry = cfg.retry;
    let server = ShardServer::start(fleet(), cfg, RoutePolicy::Rendezvous).expect("start");

    let mut handles = Vec::new();
    for i in 0..12 {
        handles.push(server.submit(sample(i), None).expect("submit"));
        if i == 3 {
            server
                .chaos(ChaosAction::Upset {
                    shard: 0,
                    rate: 0.02,
                })
                .expect("upset");
        }
        if i == 5 {
            server
                .chaos(ChaosAction::Reconfigure {
                    shard: 1,
                    pulses: vec![12, 8, 8],
                })
                .expect("reconfigure");
        }
        if i == 8 {
            server.chaos(ChaosAction::Kill { shard: 2 }).expect("kill");
        }
    }
    let mut live: HashMap<u64, Vec<f32>> = HashMap::new();
    let mut cancelled = 0u64;
    for h in handles {
        let id = h.id();
        match h.wait() {
            Ok(r) => {
                assert_eq!(r.output.len(), 4);
                live.insert(id, r.output);
            }
            Err(ServeError::Closed) => cancelled += 1,
            Err(e) => panic!("unexpected outcome: {e}"),
        }
    }
    let report = server.shutdown().expect("shutdown");
    assert!(report.stats.accounted(), "{:?}", report.stats);
    assert_eq!(live.len() as u64, report.stats.completed);
    assert_eq!(cancelled, report.stats.cancelled);
    assert_eq!(live.len() as u64 + cancelled, 12);
    assert!(report.stats.chaos_events >= 1, "upset must have applied");
    assert_eq!(report.stats.reconfigures, 1, "swap must have applied");
    assert_eq!(report.shards.len(), 3);
    assert_replays_bitwise(fleet, seed, &retry, &report, &live, &[1, 4]);
}

#[test]
fn monotonic_clock_expires_on_wall_time_and_replays_bitwise() {
    let seed = 23;
    let mut cfg = ServeConfig::standard(seed);
    cfg.clock = ClockMode::Monotonic;
    // generous wall deadline for real work (10 s in ns)
    cfg.default_deadline_ns = 10_000_000_000;
    let retry = cfg.retry;
    let server =
        ShardServer::start(vec![deploy_tiny(seed)], cfg, RoutePolicy::Rendezvous).expect("start");

    // a 1 ns wall budget is over before any batch can pick it up
    let doomed = server.submit(sample(0), Some(1)).expect("submit");
    let handles: Vec<_> = (1..7)
        .map(|i| server.submit(sample(i), None).expect("submit"))
        .collect();
    assert!(matches!(
        doomed.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let mut live: HashMap<u64, Vec<f32>> = HashMap::new();
    for h in handles {
        let id = h.id();
        let r = h.wait().expect("wall deadline is generous");
        live.insert(id, r.output);
    }
    let report = server.shutdown().expect("shutdown");
    assert!(report.stats.accounted(), "{:?}", report.stats);
    assert_eq!(report.stats.expired, 1);
    assert_eq!(report.stats.completed, 6);

    // replay always follows the logged virtual timeline: the wall-clock
    // mode changes which requests expire, never any response bits
    assert_replays_bitwise(
        || vec![deploy_tiny(seed)],
        seed,
        &retry,
        &report,
        &live,
        &[1],
    );
}

#[test]
fn overload_surfaces_typed_errors_not_silent_drops() {
    let seed = 11;
    let mut cfg = ServeConfig::standard(seed);
    cfg.queue_capacity = 2;
    cfg.max_batch = 1;
    cfg.block_align = 1;
    let server =
        ShardServer::start(vec![deploy_tiny(seed)], cfg, RoutePolicy::Rendezvous).expect("start");
    let mut handles = Vec::new();
    let mut rejected = 0u64;
    for i in 0..24 {
        match server.submit(sample(i), None) {
            Ok(h) => handles.push(h),
            Err(ServeError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(rejected > 0, "an unbounded burst must hit backpressure");
    let accepted = handles.len() as u64;
    for h in handles {
        h.wait().expect("accepted requests complete");
    }
    let report = server.shutdown().expect("shutdown");
    assert!(report.stats.accounted());
    assert_eq!(report.stats.completed, accepted);
    assert_eq!(report.stats.rejected_queue_full, rejected);
    // zero silent drops: every submission is a response or a typed error
    assert_eq!(accepted + rejected, 24);
}
