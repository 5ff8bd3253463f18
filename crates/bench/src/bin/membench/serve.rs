//! serve-shards: three replicas behind `simulate_shards` under an
//! open-loop arrival schedule and a chaos script.

use std::time::Instant;

use membit_core::{DeploymentPolicy, DeviceVgg};
use membit_serve::{
    simulate_shards, ArrivalEvent, ArrivalKind, ChaosAction, ChaosEvent, ChaosScript, RoutePolicy,
    ServeConfig, ServeModel,
};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{EnergyModel, ExecutionStats, GuardPolicy, XbarConfig};

use crate::mirror::Mirror;
use crate::model::{Model, Weights};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    correct, device_config, repeat_setup, Opts, Outcome, Rngs, Size, ACCURACY_FLOOR_PCT,
    DEPLOY_SEED,
};
use crate::Res;

const REPLICAS: usize = 3;
const PULSES: usize = 8;
/// The encoding gbo-rails deploys, swapped onto shard 0 mid-run.
const GBO_MAP: [usize; 7] = [14, 16, 16, 16, 16, 16, 16];

/// What a [`Timed`] model call was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Forward,
    Upset,
    Reconfigure,
}

impl Call {
    fn span(self) -> &'static str {
        match self {
            Call::Forward => "serve.forward",
            Call::Upset => "serve.upset",
            Call::Reconfigure => "serve.reconfigure",
        }
    }
}

/// A `DeviceVgg` replica that times every call the server makes into it.
struct Timed {
    inner: DeviceVgg,
    epoch: Instant,
    /// `(call, start_ns, end_ns, batch size)` of every call.
    calls: Vec<(Call, u64, u64, usize)>,
}

impl Timed {
    fn timed<T>(&mut self, call: Call, n: usize, f: impl FnOnce(&mut DeviceVgg) -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(&mut self.inner);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.calls.push((call, start, end, n));
        out
    }
}

impl ServeModel for Timed {
    fn input_shape(&self) -> Vec<usize> {
        self.inner.input_shape().to_vec()
    }

    fn output_dim(&self) -> usize {
        self.inner.num_classes()
    }

    fn forward_batch(
        &mut self,
        batch: &Tensor,
        rng: &mut Rng,
    ) -> membit_serve::Result<(Tensor, ExecutionStats)> {
        self.timed(Call::Forward, batch.shape()[0], |m| {
            m.forward_batch(batch, rng)
        })
    }

    fn inject_upsets(&mut self, rate: f32, rng: &mut Rng) -> membit_serve::Result<u64> {
        self.timed(Call::Upset, 0, |m| m.inject_upsets(rate, rng))
    }

    fn degraded_layers(&self) -> u64 {
        self.inner.degraded_layers()
    }

    fn set_max_threads(&mut self, max_threads: usize) -> membit_serve::Result<()> {
        ServeModel::set_max_threads(&mut self.inner, max_threads)
    }

    fn reconfigure_encoding(&mut self, pulses: &[usize]) -> membit_serve::Result<()> {
        self.timed(Call::Reconfigure, 0, |m| {
            ServeModel::reconfigure_encoding(m, pulses)
        })
    }
}

/// The device seed of replica `shard`.
fn replica_seed(shard: usize) -> u64 {
    DEPLOY_SEED ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs serve-shards.
pub fn run_serve(opts: &Opts) -> Res<Outcome> {
    let size = Size::of(opts);
    let weights = if opts.smoke {
        Weights::Random
    } else {
        Weights::Pretrained
    };
    let mut out = Outcome::new();
    let mut tr = Tracer::new(opts.trace);
    let tr = &mut tr;

    let (setup_s, (model, cfg, mut fleet)) = repeat_setup(size.setup_reps, tr, |tr, root| {
        let model = Model::load(weights, tr, root)?;
        let xbar = XbarConfig::realistic(model.sigma_bar()).with_guard(GuardPolicy::standard());
        let cfg = device_config(&model, xbar, PULSES, DeploymentPolicy::default());
        let fleet = (0..REPLICAS)
            .map(|shard| {
                let mut rng = Rng::from_seed(replica_seed(shard)).stream(RngStream::Device);
                tr.time(root, "all", "core.deploy", || {
                    DeviceVgg::deploy(&model.vgg, &model.params, &cfg, &mut rng)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((model, cfg, fleet))
    })?;

    // traced runs mirror replica 0, for its programming spans and kernel
    // eligibility
    let mut mirror = if opts.trace {
        let root = tr.open(None, "all", "mirror.setup");
        let mut rng = Rng::from_seed(replica_seed(0)).stream(RngStream::Device);
        let mirror = Mirror::deploy(&model.vgg, &model.params, &cfg, &mut rng, tr, root)?;
        tr.close(root);
        Some(mirror)
    } else {
        None
    };

    let mut rngs = Rngs::reference();
    let test = model.test.shuffled(&mut rngs.data);
    let energy = EnergyModel::representative();

    // untimed warm-up of every replica; replica 0's single-image virtual
    // latency sets the arrival rate
    let (first, _) = test.batch(0, 1)?;
    let mut service_ns = 0.0;
    for (shard, device) in fleet.iter_mut().enumerate() {
        let (_, stats) = device.forward(&first, &mut rngs.noise)?;
        if shard == 0 {
            service_ns = energy.latency_ns(&stats);
        }
    }

    // open loop: one single-image request every half single-request
    // service time, images in the seeded test order
    let gap_ns = (service_ns / 2.0).round().max(1.0) as u64;
    let per = test.images().len() / test.len();
    let (mut events, mut labels) = (Vec::new(), Vec::new());
    for i in 0..size.requests {
        let k = i % test.len();
        events.push(ArrivalEvent {
            at_ns: i as u64 * gap_ns,
            kind: ArrivalKind::Request {
                input: test.images().as_slice()[k * per..(k + 1) * per].to_vec(),
                deadline_ns: None,
            },
        });
        labels.push(test.labels()[k]);
    }
    let span = events.last().map_or(0, |e| e.at_ns);
    let script = ChaosScript::new(vec![
        ChaosEvent {
            at_ns: span / 4,
            action: ChaosAction::Upset {
                shard: 0,
                rate: 0.01,
            },
        },
        ChaosEvent {
            at_ns: span / 2,
            action: ChaosAction::Reconfigure {
                shard: 0,
                pulses: GBO_MAP.to_vec(),
            },
        },
        ChaosEvent {
            at_ns: span * 3 / 4,
            action: ChaosAction::Kill {
                shard: REPLICAS - 1,
            },
        },
    ])?;

    let epoch = tr.epoch();
    let models: Vec<Timed> = fleet
        .into_iter()
        .map(|inner| Timed {
            inner,
            epoch,
            calls: Vec::new(),
        })
        .collect();
    let root = tr.open(None, "all", "serve.simulate");
    let begin_ns = tr.now_ns();
    let report = simulate_shards(
        models,
        ServeConfig::standard(DEPLOY_SEED),
        RoutePolicy::Rendezvous,
        &events,
        &script,
    )?;
    tr.close(root);

    let mut forwards = Vec::new();
    for shard in &report.shards {
        for &(call, start, end, n) in &shard.model.calls {
            tr.record(root, "all", call.span(), start, end);
            if call == Call::Forward {
                forwards.push((start, end, n));
            }
        }
    }
    forwards.sort_unstable();
    let forward_s: Vec<f64> = forwards
        .iter()
        .map(|&(a, b, _)| b.saturating_sub(a) as f64 * 1e-9)
        .collect();

    let s = &report.stats;
    let (mut hits, mut latencies_us) = (0usize, Vec::new());
    for o in &report.outcomes {
        if let Ok(r) = &o.result {
            hits += correct(
                &Tensor::from_vec(r.output.clone(), &[1, r.output.len()])?,
                &labels[o.index..=o.index],
            )?;
            latencies_us.push(r.latency_ns as f64 * 1e-3);
        }
    }
    let n = size.requests;
    let completed = latencies_us.len();
    let accuracy = 100.0 * hits as f64 / n as f64;
    out.attempted = n as u64;
    out.failed = (n - completed) as u64;
    out.check(s.accounted(), || {
        format!("serve accounting violated: {s:?}")
    });
    out.check(report.outcomes.len() == n, || {
        "a request has no outcome".into()
    });
    out.check(completed == n, || {
        format!("{} of {n} requests not completed", n - completed)
    });
    out.check(s.reconfigures == 1, || {
        "the live reconfiguration did not apply".into()
    });
    out.check(opts.smoke || accuracy >= ACCURACY_FLOOR_PCT, || {
        format!("served accuracy {accuracy:.2}% is below the {ACCURACY_FLOOR_PCT}% floor")
    });

    out.put("setup_s", median(&setup_s).unwrap_or(0.0));
    out.put(
        "samples_per_s",
        median(&windowed_throughput(&forwards, begin_ns)).unwrap_or(0.0),
    );
    out.put("batch_p50_ms", median(&forward_s).unwrap_or(0.0) * 1e3);
    out.put("accuracy_pct", accuracy);
    out.put(
        "energy_uj_per_sample",
        energy.energy_pj(&s.exec) / 1e6 / completed.max(1) as f64,
    );
    out.put("batches", s.batches as f64);
    out.put("failed_frac", out.failed as f64 / n as f64);
    out.put(
        "serve.p50_virtual_us",
        percentile(&latencies_us, 50.0).unwrap_or(0.0),
    );
    out.put(
        "serve.p99_virtual_us",
        percentile(&latencies_us, 99.0).unwrap_or(0.0),
    );
    out.put("serve.batches", s.batches as f64);
    out.put(
        "serve.mean_batch",
        completed as f64 / s.batches.max(1) as f64,
    );
    out.put("serve.retries", s.retries as f64);
    out.put("serve.failovers", s.failovers as f64);
    out.put("serve.max_queue_depth", s.max_queue_depth as f64);
    out.put_counters(&s.exec);
    out.tracer = std::mem::replace(tr, Tracer::new(false));
    if let Some(mirror) = &mut mirror {
        out.put(
            "xbar.packed_ready_layers",
            mirror.packed_ready_layers() as f64,
        );
        let model_s: f64 = [Call::Forward, Call::Upset, Call::Reconfigure]
            .iter()
            .map(|c| out.tracer.stage_s(c.span()))
            .sum();
        out.put("serve.model_s", model_s);
        out.put("serve.self_s", out.tracer.stage_s("serve.simulate"));
        out.put_trace_metrics("serve.simulate");
    }
    Ok(out)
}

/// Consecutive forward calls per throughput window.
const WINDOW: usize = 20;

/// Samples served per host second in windows of [`WINDOW`] consecutive
/// forward calls (`(start_ns, end_ns, batch size)`, sorted). Each window
/// runs from the end of the previous one (the first from `begin_ns`), so
/// the server's own time between calls counts. A trailing partial window
/// is dropped unless it is the only one.
fn windowed_throughput(forwards: &[(u64, u64, usize)], begin_ns: u64) -> Vec<f64> {
    let mut prev = begin_ns;
    let mut out = Vec::new();
    for chunk in forwards.chunks(WINDOW) {
        if chunk.len() < WINDOW && !out.is_empty() {
            break;
        }
        let end = chunk.last().map_or(prev, |c| c.1);
        let n: usize = chunk.iter().map(|c| c.2).sum();
        out.push(n as f64 / (end.saturating_sub(prev).max(1) as f64 * 1e-9));
        prev = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_windows_span_the_gaps_between_calls() {
        // 45 calls of 2 samples, each 1 ms long, 1 ms apart, from t = 0
        let calls: Vec<(u64, u64, usize)> = (0..45u64)
            .map(|i| (i * 2_000_000 + 1_000_000, i * 2_000_000 + 2_000_000, 2))
            .collect();
        let w = windowed_throughput(&calls, 0);
        assert_eq!(w.len(), 2, "the 5-call tail is dropped");
        // 40 samples per 40 ms
        assert!(w.iter().all(|&v| (v - 1000.0).abs() < 1e-6), "{w:?}");
        assert_eq!(windowed_throughput(&calls[..3], 0).len(), 1);
    }
}
