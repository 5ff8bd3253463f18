//! Serving-layer benchmark: offered load × chaos sweep.
//!
//! Deploys the tiny VGG onto guarded crossbars, then drives a single
//! deployment (a `membit-serve` shard set of one) through the
//! discrete-event simulator over a grid of offered loads (inter-arrival
//! gap as a fraction of the calibrated batch service latency) and chaos
//! upset rates. For every cell it reports completed/expired/rejected
//! counts, virtual-latency percentiles (p50/p95/p99 from the streaming
//! log-bucket histogram), serve-level retries, guard activity and
//! wall-clock throughput.
//!
//! A second sweep drives the replicated-shard layer through a
//! load × chaos-script × shard-count grid: each campaign cell upsets
//! cells on shard 0, live-reconfigures shard 0's encoding under load,
//! and kills the last shard mid-run. Failovers and failover-window
//! latency percentiles (completions delivered after the kill) are
//! recorded per campaign cell.
//!
//! The smoke grid is two cells plus one 1-vs-3-shard campaign pair with
//! few requests. Writes `BENCH_serve.json`.

use std::time::Instant;

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg};
use membit_nn::{Params, Vgg, VggConfig};
use membit_serve::{
    simulate_shards, ArrivalEvent, ArrivalKind, ChaosAction, ChaosEvent, ChaosScript, RoutePolicy,
    ServeConfig, ShardSimReport, SimOutcome,
};
use membit_tensor::{Rng, RngStream};
use membit_xbar::{GuardPolicy, XbarConfig};

use crate::chart::StreamingHistogram;
use crate::{Artifact, Opts, Result, Scale};

/// Shard counts of the campaign sweep.
pub const SHARD_COUNTS: [usize; 2] = [1, 3];

/// The sweep grid of a scale.
#[derive(Debug)]
pub struct Grid {
    /// Offered loads: single-request service latency / inter-arrival gap.
    pub loads: Vec<f64>,
    /// Per-cell upset rates of the single-deployment sweep.
    pub chaos_rates: Vec<f32>,
    /// Requests per cell.
    pub requests: usize,
    /// Offered loads of the shard campaign sweep.
    pub shard_loads: Vec<f64>,
    /// Chaos scripts of the shard campaign sweep (`none` or `campaign`).
    pub shard_scripts: Vec<&'static str>,
}

impl Grid {
    /// The grid of `scale`.
    pub fn of(scale: Scale) -> Self {
        // load 1.0 = arrivals match single-request service rate;
        // batching pushes capacity higher
        let (loads, chaos_rates, requests) = match scale {
            Scale::Smoke => (vec![0.5, 8.0], vec![0.0, 0.02], 10),
            Scale::Quick => (vec![0.5, 1.0, 2.0, 8.0], vec![0.0, 0.02], 24),
            Scale::Full => (
                vec![0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
                vec![0.0, 0.01, 0.05],
                64,
            ),
        };
        let smoke = scale == Scale::Smoke;
        Self {
            loads,
            chaos_rates,
            requests,
            shard_loads: if smoke { vec![8.0] } else { vec![2.0, 8.0] },
            shard_scripts: if smoke {
                vec!["campaign"]
            } else {
                vec!["none", "campaign"]
            },
        }
    }
}

/// Deploys the tiny VGG afresh (same seeds → identical device state, so
/// every sweep cell starts from the same hardware).
///
/// # Errors
///
/// Propagates model and deployment errors.
pub fn deploy_tiny(seed: u64, threads: Option<usize>) -> Result<DeviceVgg> {
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

/// `n_shards` tiny deployments, shard `s` seeded `seed + s`.
///
/// # Errors
///
/// Propagates deployment errors.
pub fn fleet(seed: u64, n_shards: usize, threads: Option<usize>) -> Result<Vec<DeviceVgg>> {
    (0..n_shards)
        .map(|s| deploy_tiny(seed + s as u64, threads))
        .collect()
}

fn sample(i: usize) -> Vec<f32> {
    (0..3 * 8 * 8)
        .map(|j| (((i * 7 + j) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0))
        .collect()
}

/// The arrival schedule of one cell: `n` requests spaced `gap_ns` apart.
pub fn schedule(n: usize, gap_ns: u64) -> Vec<ArrivalEvent> {
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
/// `chaos_rate` on the lone deployment at the arrival of every 5th
/// request of `schedule(n, gap_ns)` (none at rate 0), each applied ahead
/// of the request it ties with.
fn upset_script(n: usize, gap_ns: u64, chaos_rate: f32) -> Result<ChaosScript> {
    let events = (1..n)
        .filter(|i| chaos_rate > 0.0 && i % 5 == 0)
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

/// The campaign script over `n` requests spaced `gap_ns` apart: upset
/// shard 0, live-reconfigure shard 0's encoding, then kill the last
/// shard — the same relative script at every shard count. Returns the
/// script and the kill time.
fn campaign_script(n: usize, gap_ns: u64, n_shards: usize) -> Result<(ChaosScript, u64)> {
    let span = (n as u64 - 1).max(1) * gap_ns;
    let kill_at = span * 3 / 4;
    let event = |at_ns, action| ChaosEvent { at_ns, action };
    let script = ChaosScript::new(vec![
        event(
            span / 4,
            ChaosAction::Upset {
                shard: 0,
                rate: 0.02,
            },
        ),
        event(
            span / 2,
            ChaosAction::Reconfigure {
                shard: 0,
                pulses: vec![12, 8, 8],
            },
        ),
        event(
            kill_at,
            ChaosAction::Kill {
                shard: n_shards - 1,
            },
        ),
    ])?;
    Ok((script, kill_at))
}

/// The serving configuration of every sweep cell.
pub fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::standard(seed);
    cfg.queue_capacity = 16;
    cfg
}

/// Serves one deployment — a shard set of one — through `events` while
/// `script` injects faults.
///
/// # Errors
///
/// Propagates deployment and simulation errors.
pub fn simulate_one(
    seed: u64,
    threads: Option<usize>,
    config: ServeConfig,
    events: &[ArrivalEvent],
    script: &ChaosScript,
) -> Result<ShardSimReport<DeviceVgg>> {
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
///
/// # Errors
///
/// Fails when the calibration request does not complete.
pub fn calibrate(seed: u64, threads: Option<usize>) -> Result<u64> {
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

/// The inter-arrival gap of offered load `load`.
pub fn gap_ns(service_ns: u64, load: f64) -> u64 {
    ((service_ns as f64 / load).round() as u64).max(1)
}

/// One cell of the single-deployment sweep.
pub struct Cell {
    /// Offered load.
    pub load: f64,
    /// Upset rate.
    pub chaos_rate: f32,
    /// Inter-arrival gap.
    pub gap_ns: u64,
    /// The simulation's outcomes, stats and request log.
    pub report: ShardSimReport<DeviceVgg>,
    /// Wall-clock seconds of the simulation.
    pub wall_s: f64,
}

/// One cell of the shard campaign sweep.
pub struct ShardCell {
    /// Number of shards.
    pub n_shards: usize,
    /// Offered load.
    pub load: f64,
    /// Chaos script name (`none` or `campaign`).
    pub script: &'static str,
    /// When the campaign kills the last shard.
    pub kill_at: u64,
    /// The simulation's outcomes, stats and per-shard request logs.
    pub report: ShardSimReport<DeviceVgg>,
    /// Wall-clock seconds of the simulation.
    pub wall_s: f64,
}

/// Both sweeps of a scale.
pub struct Sweep {
    /// Calibrated single-request service latency (virtual ns).
    pub service_ns: u64,
    /// Single-deployment cells, chaos-rate-major.
    pub cells: Vec<Cell>,
    /// Shard campaign cells, load-major, then script, then shard count.
    pub shard_cells: Vec<ShardCell>,
}

/// Runs both sweeps of `opts.scale`.
///
/// # Errors
///
/// Propagates deployment and simulation errors.
pub fn sweep(opts: &Opts) -> Result<Sweep> {
    let grid = Grid::of(opts.scale);
    let n = grid.requests;
    let service_ns = calibrate(opts.seed, opts.threads)?;
    let mut cells = Vec::new();
    for &chaos_rate in &grid.chaos_rates {
        for &load in &grid.loads {
            let gap_ns = gap_ns(service_ns, load);
            let script = upset_script(n, gap_ns, chaos_rate)?;
            let wall = Instant::now();
            let report = simulate_one(
                opts.seed,
                opts.threads,
                serve_config(opts.seed),
                &schedule(n, gap_ns),
                &script,
            )?;
            cells.push(Cell {
                load,
                chaos_rate,
                gap_ns,
                report,
                wall_s: wall.elapsed().as_secs_f64(),
            });
        }
    }
    let mut shard_cells = Vec::new();
    for &load in &grid.shard_loads {
        for &script_name in &grid.shard_scripts {
            for n_shards in SHARD_COUNTS {
                let gap_ns = gap_ns(service_ns, load);
                let (script, kill_at) = campaign_script(n, gap_ns, n_shards)?;
                let script = if script_name == "campaign" {
                    script
                } else {
                    ChaosScript::empty()
                };
                let wall = Instant::now();
                let report = simulate_shards(
                    fleet(opts.seed, n_shards, opts.threads)?,
                    serve_config(opts.seed),
                    RoutePolicy::Rendezvous,
                    &schedule(n, gap_ns),
                    &script,
                )?;
                shard_cells.push(ShardCell {
                    n_shards,
                    load,
                    script: script_name,
                    kill_at,
                    report,
                    wall_s: wall.elapsed().as_secs_f64(),
                });
            }
        }
    }
    Ok(Sweep {
        service_ns,
        cells,
        shard_cells,
    })
}

/// Latency histogram of the completed requests among `outcomes`.
fn histogram<'a>(outcomes: impl Iterator<Item = &'a SimOutcome>) -> StreamingHistogram {
    let mut hist = StreamingHistogram::new();
    for o in outcomes {
        if let Ok(r) = &o.result {
            hist.record(r.latency_ns as f64);
        }
    }
    hist
}

/// Writes `BENCH_serve.json`.
///
/// # Errors
///
/// Propagates deployment and simulation errors.
pub fn run(opts: &Opts) -> Result<Vec<Artifact>> {
    let grid = Grid::of(opts.scale);
    let n_requests = grid.requests;
    let sweep = sweep(opts)?;
    let service_ns = sweep.service_ns;
    println!("# calibrated single-request service latency: {service_ns} ns (virtual)");

    let mut cell_json = Vec::new();
    for Cell {
        load,
        chaos_rate,
        gap_ns,
        report,
        wall_s,
    } in &sweep.cells
    {
        let s = &report.stats;
        let hist = histogram(report.outcomes.iter());
        cell_json.push(format!(
            "{{\"load\": {load}, \"chaos_rate\": {chaos_rate}, \"gap_ns\": {gap_ns}, \
             \"requests\": {n_requests}, \"completed\": {}, \"expired\": {}, \
             \"rejected_queue_full\": {}, \"rejected_shed\": {}, \"failed\": {}, \
             \"late_completions\": {}, \"batches\": {}, \"retries\": {}, \
             \"chaos_events\": {}, \"chaos_upsets\": {}, \"max_queue_depth\": {}, \
             \"guard_checks\": {}, \"guard_violations\": {}, \
             \"latency_ns\": {{\"p50\": {:.0}, \"p95\": {:.0}, \"p99\": {:.0}, \
             \"mean\": {:.0}, \"min\": {:.0}, \"max\": {:.0}}}, \
             \"pulses\": {}, \"wall_s\": {wall_s:.4}}}",
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

    let mut shard_json = Vec::new();
    for cell in &sweep.shard_cells {
        let s = &cell.report.stats;
        let campaign = cell.script == "campaign";
        let hist = histogram(cell.report.outcomes.iter());
        let failover_hist = histogram(cell.report.outcomes.iter().filter(|o| {
            campaign
                && o.result
                    .as_ref()
                    .is_ok_and(|r| r.completed_ns > cell.kill_at)
        }));
        let failover_json = if failover_hist.count() > 0 {
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
            "{{\"n_shards\": {}, \"load\": {}, \"script\": \"{}\", \"requests\": {n_requests}, \
             \"admitted\": {}, \"completed\": {}, \"expired\": {}, \"failed\": {}, \
             \"cancelled\": {}, \"rejected_queue_full\": {}, \"rejected_shed\": {}, \
             \"failovers\": {}, \"reconfigures\": {}, \"chaos_events\": {}, \
             \"chaos_upsets\": {}, \"chaos_failures\": {}, \"batches\": {}, \
             \"latency_ns\": {{\"p50\": {:.0}, \"p95\": {:.0}, \"p99\": {:.0}}}, \
             \"failover_window_latency_ns\": {failover_json}, \"wall_s\": {:.4}}}",
            cell.n_shards,
            cell.load,
            cell.script,
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
            cell.wall_s,
        ));
    }

    let json = format!(
        "{{\"bench\": \"serve\", \"smoke\": {}, \"seed\": {}, \
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
        opts.scale == Scale::Smoke,
        opts.seed,
        cell_json.join(", "),
        shard_json.join(", ")
    );
    Ok(vec![Artifact::json("BENCH_serve.json", json)])
}
