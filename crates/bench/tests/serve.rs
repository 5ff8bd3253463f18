//! The serving invariants of every `bench_serve` cell, on the smoke and
//! the full grid: the accounting identity with zero silent drops, typed
//! outcomes, bitwise log replay (per shard, at 1 and 4 engine threads),
//! a live reconfiguration under the campaign script, strictly higher
//! 3-shard admitted throughput than 1-shard under the same script, and
//! typed backpressure at the overload point.

use std::collections::HashMap;

use membit_bench::experiments::bench_serve::{
    deploy_tiny, fleet, gap_ns, schedule, serve_config, simulate_one, sweep, Grid, SHARD_COUNTS,
};
use membit_bench::{Opts, Scale};
use membit_serve::{replay_shards, ChaosScript, ServeError, ShardSimReport};

/// Completed outputs of a report, keyed by request id.
fn completed<M>(report: &ShardSimReport<M>) -> HashMap<u64, Vec<f32>> {
    report
        .outcomes
        .iter()
        .filter_map(|o| match (&o.id, &o.result) {
            (Some(id), Ok(r)) => Some((*id, r.output.clone())),
            _ => None,
        })
        .collect()
}

fn check_grid(scale: Scale) {
    let opts = Opts {
        scale,
        ..Opts::default()
    };
    let seed = opts.seed;
    let grid = Grid::of(scale);
    let n = grid.requests;
    let retry = serve_config(seed).retry;
    let sweep = sweep(&opts).unwrap();
    assert_eq!(sweep.cells.len(), grid.loads.len() * grid.chaos_rates.len());
    assert_eq!(
        sweep.shard_cells.len(),
        grid.shard_loads.len() * grid.shard_scripts.len() * SHARD_COUNTS.len()
    );

    for cell in &sweep.cells {
        let (report, s) = (&cell.report, &cell.report.stats);
        let at = format!("{scale:?} load {} chaos {}", cell.load, cell.chaos_rate);
        assert!(s.accounted(), "{at}: accounting violated: {s:?}");
        assert_eq!(
            report.outcomes.len(),
            n,
            "{at}: a request vanished without an outcome"
        );
        // the log replays bitwise against a fresh deployment
        let mut fresh = [deploy_tiny(seed, opts.threads).unwrap()];
        let logs = [report.shards[0].log.clone()];
        let rows = replay_shards(&mut fresh, seed, &retry, &logs).unwrap();
        assert_eq!(rows.len() as u64, s.completed, "{at}");
        let live = completed(report);
        for (id, row) in &rows {
            assert_eq!(live.get(id), Some(row), "{at}: replay diverged for id {id}");
        }
    }

    let mut campaign_reconfigures = 0;
    let mut admitted = HashMap::new();
    for cell in &sweep.shard_cells {
        let (report, s) = (&cell.report, &cell.report.stats);
        let at = format!(
            "{scale:?} shards {} load {} script {}",
            cell.n_shards, cell.load, cell.script
        );
        assert!(s.accounted(), "{at}: shard accounting violated: {s:?}");
        assert_eq!(
            report.outcomes.len(),
            n,
            "{at}: a request vanished without an outcome"
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
                "{at}: untyped outcome {:?}",
                o.result
            );
        }
        if cell.script == "campaign" && cell.n_shards > 1 {
            // the kill never takes the reconfigured shard down, so the
            // swap must have applied under load
            assert_eq!(s.reconfigures, 1, "{at}: live reconfiguration lost: {s:?}");
        }
        campaign_reconfigures += s.reconfigures;
        admitted.insert(
            (cell.load.to_bits(), cell.script, cell.n_shards),
            s.admitted,
        );

        // per-shard logs replay bitwise at 1 and 4 engine threads
        let live = completed(report);
        let logs: Vec<_> = report.shards.iter().map(|sh| sh.log.clone()).collect();
        for threads in [1usize, 4] {
            let mut fresh = fleet(seed, cell.n_shards, Some(threads)).unwrap();
            let rows = replay_shards(&mut fresh, seed, &retry, &logs).unwrap();
            assert_eq!(rows.len() as u64, s.completed, "{at}");
            for (id, row) in &rows {
                assert_eq!(
                    live.get(id),
                    Some(row),
                    "{at}: shard replay diverged for id {id} at {threads} threads"
                );
            }
        }
    }
    assert!(
        campaign_reconfigures >= 1,
        "{scale:?}: the sweep must exercise at least one live reconfiguration"
    );
    // replication must buy admitted throughput under the same chaos
    // script: the 1-shard cell loses its only deployment to the kill
    for &load in &grid.shard_loads {
        let one = admitted[&(load.to_bits(), "campaign", 1)];
        let three = admitted[&(load.to_bits(), "campaign", 3)];
        assert!(
            three > one,
            "{scale:?}: 3 shards admitted {three} <= 1 shard's {one} at load {load}"
        );
    }
}

#[test]
fn every_smoke_cell_accounts_replays_and_fails_over() {
    check_grid(Scale::Smoke);
}

#[test]
fn every_full_cell_accounts_replays_and_fails_over() {
    check_grid(Scale::Full);
}

#[test]
fn overload_engages_typed_backpressure() {
    // the smoke grid's highest-load no-chaos cell with a tiny queue
    let seed = Opts::default().seed;
    let service_ns = membit_bench::experiments::bench_serve::calibrate(seed, None).unwrap();
    let mut cfg = serve_config(seed);
    cfg.queue_capacity = 2;
    let report = simulate_one(
        seed,
        None,
        cfg,
        &schedule(12, gap_ns(service_ns, 8.0)),
        &ChaosScript::empty(),
    )
    .unwrap();
    let s = &report.stats;
    assert!(
        s.rejected_queue_full > 0,
        "overload did not trigger backpressure: {s:?}"
    );
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
    assert_eq!(
        typed,
        s.rejected_queue_full + s.expired,
        "every non-completion must be a typed error"
    );
}
