//! Serving-layer benchmark: offered load × chaos sweep.
//!
//! Deploys the tiny VGG onto guarded crossbars, then drives a single
//! deployment (a `membit-serve` shard set of one) through the
//! discrete-event simulator over a grid of offered loads (inter-arrival
//! gap as a fraction of the calibrated batch service latency) and chaos
//! upset rates. For every cell it reports
//! completed/expired/rejected counts, virtual-latency percentiles
//! (p50/p95/p99 from the streaming log-bucket histogram), serve-level
//! retries, guard activity and wall-clock throughput, and writes the
//! grid to `BENCH_serve.json` under the results directory.
//!
//! Every cell asserts the serving invariants: the stats accounting
//! identity holds, overload surfaces as typed rejections (never silent
//! drops), and the request log replays **bitwise**.
//!
//! A second sweep drives the replicated-shard layer through a
//! load × chaos-script × shard-count grid: each campaign cell upsets
//! cells on shard 0, live-reconfigures shard 0's encoding under load,
//! and kills the last shard mid-run. Every cell asserts the cross-shard
//! accounting identity with zero silent drops and bitwise per-shard
//! replay at 1 and 4 engine threads; under the campaign script the
//! 3-shard cell must sustain strictly higher admitted throughput than
//! the 1-shard cell. Failovers and failover-window latency percentiles
//! (completions delivered after the kill) are recorded per campaign
//! cell.
//!
//! Options (besides the shared bench flags):
//!
//! * `--smoke` — a two-cell grid plus one 1-vs-3-shard campaign pair
//!   with few requests: a seconds-long CI run that still exercises
//!   admission control, chaos injection, failover, reconfiguration,
//!   replay verification and the JSON emission path.

use std::error::Error;
use std::io::Write as _;
use std::time::Instant;

use membit_bench::chart::StreamingHistogram;
use membit_bench::{results_dir, Cli, Scale};
use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
use membit_nn::{Params, Vgg, VggConfig};
use membit_serve::{
    replay_shards, simulate_shards, ArrivalEvent, ArrivalKind, ChaosAction, ChaosEvent,
    ChaosScript, RoutePolicy, ServeConfig, ServeError, ShardSimReport,
};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{GuardPolicy, XbarConfig};

/// Deploys the tiny VGG afresh (same seeds → identical device state, so
/// every sweep cell starts from the same hardware).
fn deploy_tiny(seed: u64, threads: Option<usize>) -> Result<DeviceVgg, Box<dyn Error>> {
    let mut init = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut init)?;
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
    )?;
    if let Some(t) = threads {
        device.set_max_threads(t)?;
    }
    Ok(device)
}

fn sample(i: usize) -> Vec<f32> {
    (0..3 * 8 * 8)
        .map(|j| (((i * 7 + j) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0))
        .collect()
}

/// The arrival schedule for one sweep cell: `n` requests spaced
/// `gap_ns` apart.
fn schedule(n: usize, gap_ns: u64) -> Vec<ArrivalEvent> {
    (0..n)
        .map(|i| ArrivalEvent {
            at_ns: i as u64 * gap_ns,
            kind: ArrivalKind::Request {
                input: sample(i),
                deadline_ns: None,
            },
        })
        .collect()
}

/// The periodic-upset script for one sweep cell: cell upsets at
/// `chaos_rate` on the lone deployment at the arrival of every
/// `chaos_every`-th request (0 = never) of `schedule(n, gap_ns)`, each
/// applied ahead of the request it ties with.
fn upset_script(
    n: usize,
    gap_ns: u64,
    chaos_every: usize,
    chaos_rate: f32,
) -> Result<ChaosScript, Box<dyn Error>> {
    let events = (1..n)
        .filter(|i| chaos_every > 0 && i % chaos_every == 0)
        .map(|i| ChaosEvent {
            at_ns: i as u64 * gap_ns,
            action: ChaosAction::Upset {
                shard: 0,
                rate: chaos_rate,
            },
        })
        .collect();
    Ok(ChaosScript::new(events)?)
}

/// Serves one deployment — a shard set of one — through `events` while
/// `script` injects faults.
fn simulate_one(
    seed: u64,
    threads: Option<usize>,
    config: ServeConfig,
    events: &[ArrivalEvent],
    script: &ChaosScript,
) -> Result<ShardSimReport<DeviceVgg>, Box<dyn Error>> {
    let model = deploy_tiny(seed, threads)?;
    Ok(simulate_shards(
        vec![model],
        config,
        RoutePolicy::Rendezvous,
        events,
        script,
    )?)
}

/// Measures the virtual service latency of a single-request batch —
/// the unit the load factors are expressed against.
fn calibrate(seed: u64, threads: Option<usize>) -> Result<u64, Box<dyn Error>> {
    let report = simulate_one(
        seed,
        threads,
        ServeConfig::standard(seed),
        &schedule(1, 0),
        &ChaosScript::empty(),
    )?;
    let latency = report
        .outcomes
        .first()
        .and_then(|o| o.result.as_ref().ok())
        .map(|r| r.latency_ns)
        .ok_or("calibration request did not complete")?;
    Ok(latency.max(1))
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn Error>> {
    let cli = Cli::parse();
    let smoke = cli.rest.iter().any(|a| a == "--smoke");

    // load = service_latency / inter-arrival gap (1.0 = arrivals match
    // single-request service rate; batching pushes capacity higher)
    let (loads, chaos_rates, n_requests): (Vec<f64>, Vec<f32>, usize) = if smoke {
        (vec![0.5, 8.0], vec![0.0, 0.02], 10)
    } else {
        match cli.scale {
            Scale::Quick => (vec![0.5, 1.0, 2.0, 8.0], vec![0.0, 0.02], 24),
            Scale::Full => (
                vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                vec![0.0, 0.01, 0.05],
                64,
            ),
        }
    };

    let service_ns = calibrate(cli.seed, cli.threads)?;
    println!("# calibrated single-request service latency: {service_ns} ns (virtual)");
    println!(
        "# sweeping {} loads x {} chaos rates, {} requests per cell",
        loads.len(),
        chaos_rates.len(),
        n_requests
    );

    let mut cell_json = Vec::new();
    for &chaos_rate in &chaos_rates {
        for &load in &loads {
            let gap_ns = ((service_ns as f64 / load).round() as u64).max(1);
            let chaos_every = if chaos_rate > 0.0 { 5 } else { 0 };
            let events = schedule(n_requests, gap_ns);
            let script = upset_script(n_requests, gap_ns, chaos_every, chaos_rate)?;

            let mut cfg = ServeConfig::standard(cli.seed);
            cfg.queue_capacity = 16;
            let retry = cfg.retry;

            let wall = Instant::now();
            let report = simulate_one(cli.seed, cli.threads, cfg, &events, &script)?;
            let wall_s = wall.elapsed().as_secs_f64();

            // serving invariants hold in every cell
            assert!(report.stats.accounted(), "accounting violated: {:?}", report.stats);
            let outcomes = report.outcomes.len();
            assert_eq!(outcomes, n_requests, "a request vanished without an outcome");

            let mut hist = StreamingHistogram::new();
            for o in &report.outcomes {
                if let Ok(r) = &o.result {
                    hist.record(r.latency_ns as f64);
                }
            }
            let s = &report.stats;
            let rejected = s.rejected_queue_full + s.rejected_shed;

            // the log replays bitwise against a fresh deployment
            let mut fresh = [deploy_tiny(cli.seed, cli.threads)?];
            let logs = [report.shards[0].log.clone()];
            let rows = replay_shards(&mut fresh, cli.seed, &retry, &logs)?;
            assert_eq!(rows.len() as u64, s.completed);
            for (id, row) in &rows {
                let live = report
                    .outcomes
                    .iter()
                    .find(|o| o.id == Some(*id) && o.result.is_ok());
                let live = live.and_then(|o| o.result.as_ref().ok()).ok_or("replay id")?;
                assert_eq!(live.output, *row, "replay diverged for id {id}");
            }

            let throughput = if wall_s > 0.0 {
                s.exec.pulses as f64 / wall_s
            } else {
                0.0
            };
            println!(
                "load {load:>5.2} chaos {chaos_rate:<5.3}: completed {:>3} expired {:>3} \
                 rejected {:>3} | p50 {:>9.0} p95 {:>9.0} p99 {:>9.0} ns | retries {} \
                 guard_viol {} upsets {} | {:>12.0} pulses/s",
                s.completed,
                s.expired,
                rejected,
                hist.p50(),
                hist.p95(),
                hist.p99(),
                s.retries,
                s.exec.guard.violations,
                s.chaos_upsets,
                throughput,
            );

            cell_json.push(format!(
                "{{\"load\": {load}, \"chaos_rate\": {chaos_rate}, \"gap_ns\": {gap_ns}, \
                 \"requests\": {n_requests}, \"completed\": {}, \"expired\": {}, \
                 \"rejected_queue_full\": {}, \"rejected_shed\": {}, \"failed\": {}, \
                 \"late_completions\": {}, \"batches\": {}, \"retries\": {}, \
                 \"chaos_events\": {}, \"chaos_upsets\": {}, \"max_queue_depth\": {}, \
                 \"guard_checks\": {}, \"guard_violations\": {}, \
                 \"latency_ns\": {{\"p50\": {:.0}, \"p95\": {:.0}, \"p99\": {:.0}, \
                 \"mean\": {:.0}, \"min\": {:.0}, \"max\": {:.0}}}, \
                 \"pulses\": {}, \"wall_s\": {wall_s:.4}, \"replay_bitwise\": true}}",
                s.completed,
                s.expired,
                s.rejected_queue_full,
                s.rejected_shed,
                s.failed,
                s.late_completions,
                s.batches,
                s.retries,
                s.chaos_events,
                s.chaos_upsets,
                s.max_queue_depth,
                s.exec.guard.checks,
                s.exec.guard.violations,
                hist.p50(),
                hist.p95(),
                hist.p99(),
                hist.mean(),
                hist.min(),
                hist.max(),
                s.exec.pulses,
            ));
        }
    }

    // ---- replicated-shard chaos campaign: load × script × shards ----
    let fleet = |n_shards: usize, threads: Option<usize>| -> Result<Vec<DeviceVgg>, Box<dyn Error>> {
        (0..n_shards)
            .map(|s| deploy_tiny(cli.seed + s as u64, threads))
            .collect()
    };
    let shard_loads: Vec<f64> = if smoke { vec![8.0] } else { vec![2.0, 8.0] };
    let shard_scripts: Vec<&str> = if smoke {
        vec!["campaign"]
    } else {
        vec!["none", "campaign"]
    };
    let shard_counts = [1usize, 3];
    println!(
        "# shard campaign: {} loads x {} scripts x {} shard counts, {} requests per cell",
        shard_loads.len(),
        shard_scripts.len(),
        shard_counts.len(),
        n_requests
    );
    let mut shard_json = Vec::new();
    // admitted per (load-bits, script) for the 1-vs-3 throughput check
    let mut admitted_by: std::collections::HashMap<(u64, &str, usize), u64> =
        std::collections::HashMap::new();
    let mut campaign_reconfigures = 0u64;
    for &load in &shard_loads {
        for script_name in &shard_scripts {
            for &n_shards in &shard_counts {
                let gap_ns = ((service_ns as f64 / load).round() as u64).max(1);
                let events = schedule(n_requests, gap_ns);
                let span = (n_requests as u64 - 1).max(1) * gap_ns;
                let kill_at = span * 3 / 4;
                let script = if *script_name == "campaign" {
                    // upset shard 0, live-reconfigure shard 0's encoding,
                    // then kill the last shard — the same relative script
                    // at every shard count
                    ChaosScript::new(vec![
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
                            at_ns: kill_at,
                            action: ChaosAction::Kill {
                                shard: n_shards - 1,
                            },
                        },
                    ])?
                } else {
                    ChaosScript::empty()
                };
                let mut cfg = ServeConfig::standard(cli.seed);
                cfg.queue_capacity = 16;
                let retry = cfg.retry;
                let wall = Instant::now();
                let report = simulate_shards(
                    fleet(n_shards, cli.threads)?,
                    cfg,
                    RoutePolicy::Rendezvous,
                    &events,
                    &script,
                )?;
                let wall_s = wall.elapsed().as_secs_f64();

                // cross-shard invariants hold in every cell
                let s = &report.stats;
                assert!(s.accounted(), "shard accounting violated: {s:?}");
                assert_eq!(
                    report.outcomes.len(),
                    n_requests,
                    "a request vanished without an outcome"
                );
                for o in &report.outcomes {
                    assert!(
                        matches!(
                            &o.result,
                            Ok(_)
                                | Err(ServeError::QueueFull { .. })
                                | Err(ServeError::Shed)
                                | Err(ServeError::Closed)
                                | Err(ServeError::DeadlineExceeded { .. })
                                | Err(ServeError::Engine(_))
                        ),
                        "untyped outcome in cell"
                    );
                }
                if *script_name == "campaign" && n_shards > 1 {
                    // the kill never takes the reconfigured shard down,
                    // so the swap must have applied under load
                    assert_eq!(s.reconfigures, 1, "live reconfiguration lost: {s:?}");
                }
                campaign_reconfigures += s.reconfigures;
                admitted_by.insert((load.to_bits(), script_name, n_shards), s.admitted);

                let mut hist = StreamingHistogram::new();
                let mut failover_hist = StreamingHistogram::new();
                for o in &report.outcomes {
                    if let Ok(r) = &o.result {
                        hist.record(r.latency_ns as f64);
                        if *script_name == "campaign" && r.completed_ns > kill_at {
                            failover_hist.record(r.latency_ns as f64);
                        }
                    }
                }

                // per-shard logs replay bitwise at 1 and 4 engine threads
                let live: std::collections::HashMap<u64, Vec<f32>> = report
                    .outcomes
                    .iter()
                    .filter_map(|o| match (&o.id, &o.result) {
                        (Some(id), Ok(r)) => Some((*id, r.output.clone())),
                        _ => None,
                    })
                    .collect();
                let logs: Vec<_> = report.shards.iter().map(|sh| sh.log.clone()).collect();
                for threads in [1usize, 4] {
                    let mut fresh = fleet(n_shards, Some(threads))?;
                    let rows = replay_shards(&mut fresh, cli.seed, &retry, &logs)?;
                    assert_eq!(rows.len() as u64, s.completed);
                    for (id, row) in &rows {
                        let expected = live.get(id).ok_or("replay id")?;
                        assert_eq!(
                            expected, row,
                            "shard replay diverged for id {id} at {threads} threads"
                        );
                    }
                }

                println!(
                    "shards {n_shards} load {load:>5.2} script {script_name:<8}: admitted {:>3} \
                     completed {:>3} cancelled {:>2} shed {:>2} | failovers {} reconfigures {} \
                     upsets {} | p50 {:>9.0} p95 {:>9.0} ns",
                    s.admitted,
                    s.completed,
                    s.cancelled,
                    s.rejected_shed,
                    s.failovers,
                    s.reconfigures,
                    s.chaos_upsets,
                    hist.p50(),
                    hist.p95(),
                );
                let failover_json = if *script_name == "campaign" && failover_hist.count() > 0 {
                    format!(
                        "{{\"p50\": {:.0}, \"p95\": {:.0}, \"p99\": {:.0}, \"count\": {}}}",
                        failover_hist.p50(),
                        failover_hist.p95(),
                        failover_hist.p99(),
                        failover_hist.count()
                    )
                } else {
                    "null".into()
                };
                shard_json.push(format!(
                    "{{\"n_shards\": {n_shards}, \"load\": {load}, \
                     \"script\": \"{script_name}\", \"requests\": {n_requests}, \
                     \"admitted\": {}, \"completed\": {}, \"expired\": {}, \"failed\": {}, \
                     \"cancelled\": {}, \"rejected_queue_full\": {}, \"rejected_shed\": {}, \
                     \"failovers\": {}, \"reconfigures\": {}, \"chaos_events\": {}, \
                     \"chaos_upsets\": {}, \"chaos_failures\": {}, \"batches\": {}, \
                     \"latency_ns\": {{\"p50\": {:.0}, \"p95\": {:.0}, \"p99\": {:.0}}}, \
                     \"failover_window_latency_ns\": {failover_json}, \
                     \"wall_s\": {wall_s:.4}, \"replay_bitwise\": true}}",
                    s.admitted,
                    s.completed,
                    s.expired,
                    s.failed,
                    s.cancelled,
                    s.rejected_queue_full,
                    s.rejected_shed,
                    s.failovers,
                    s.reconfigures,
                    s.chaos_events,
                    s.chaos_upsets,
                    s.chaos_failures,
                    s.batches,
                    hist.p50(),
                    hist.p95(),
                    hist.p99(),
                ));
            }
        }
    }
    assert!(
        campaign_reconfigures >= 1,
        "the sweep must exercise at least one live reconfiguration"
    );
    // replication must buy admitted throughput under the same chaos
    // script: the 1-shard cell loses its only deployment to the kill
    for &load in &shard_loads {
        let one = admitted_by[&(load.to_bits(), "campaign", 1)];
        let three = admitted_by[&(load.to_bits(), "campaign", 3)];
        assert!(
            three > one,
            "3 shards admitted {three} <= 1 shard's {one} at load {load}"
        );
        println!(
            "# load {load}: campaign admitted {three} (3 shards) > {one} (1 shard)"
        );
    }

    if smoke {
        // backpressure must actually engage at the overload point: the
        // highest-load no-chaos cell re-runs with a tiny queue
        let gap_ns = ((service_ns as f64 / 8.0).round() as u64).max(1);
        let mut cfg = ServeConfig::standard(cli.seed);
        cfg.queue_capacity = 2;
        let report = simulate_one(
            cli.seed,
            cli.threads,
            cfg,
            &schedule(12, gap_ns),
            &ChaosScript::empty(),
        )?;
        let typed = report
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.result,
                    Err(ServeError::QueueFull { .. }) | Err(ServeError::DeadlineExceeded { .. })
                )
            })
            .count() as u64;
        assert!(
            report.stats.rejected_queue_full > 0,
            "overload did not trigger backpressure: {:?}",
            report.stats
        );
        assert_eq!(
            typed,
            report.stats.rejected_queue_full + report.stats.expired,
            "every non-completion must be a typed error"
        );
        println!(
            "# smoke: backpressure engaged ({} typed rejections), accounting + replay verified",
            report.stats.rejected_queue_full
        );
    }

    let path = results_dir().join("BENCH_serve.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(
        f,
        "{{\"bench\": \"serve\", \"smoke\": {smoke}, \"seed\": {}, \
         \"model\": \"tiny VGG on guarded crossbars (functional 0.05 noise)\", \
         \"service_ns\": {service_ns}, \
         \"load_definition\": \"single-request service latency / inter-arrival gap\", \
         \"latency_domain\": \"virtual ns from the energy model (queueing + execution)\", \
         \"invariants\": \"accounting identity, typed backpressure, bitwise replay\", \
         \"shard_invariants\": \"cross-shard accounting, zero silent drops, per-shard \
         bitwise replay at 1 and 4 threads, 3-shard admitted > 1-shard under campaign\", \
         \"campaign_script\": \"upset shard 0 @ span/4, reconfigure shard 0 @ span/2, \
         kill last shard @ 3*span/4\", \
         \"cells\": [{}], \"shard_cells\": [{}]}}",
        cli.seed,
        cell_json.join(", "),
        shard_json.join(", ")
    )?;
    println!("# wrote {}", path.display());
    Ok(())
}
