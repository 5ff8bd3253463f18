//! The four workloads, and what they share: set-up, RNG streams, checks
//! and trace-derived metrics.

use std::time::Instant;

use membit_core::{DeploymentPolicy, DeviceEvalConfig, DeviceVgg, MemseNetwork};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{EnergyModel, ExecutionStats, GuardPolicy, RecoveryPolicy, XbarConfig};

use crate::mirror::Mirror;
use crate::model::{Model, Weights};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::Res;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Realistic guarded devices at p=16: the accuracy-table deployment.
    EvalRealistic,
    /// Functional devices, analytic GBO search, then evaluation.
    GboRails,
    /// Three replicas behind the sharded server under a chaos script.
    ServeShards,
    /// Fault-aware guarded deployment with stuck faults and upsets.
    RepairGuarded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EvalRealistic,
        Workload::GboRails,
        Workload::ServeShards,
        Workload::RepairGuarded,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalRealistic => "eval-realistic",
            Workload::GboRails => "gbo-rails",
            Workload::ServeShards => "serve-shards",
            Workload::RepairGuarded => "repair-guarded",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How a run is made.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Run seed, stamped on the output and the trace file name. The
    /// simulated inputs come from [`DEPLOY_SEED`].
    pub seed: u64,
    /// Minimum timed seconds (untraced runs).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes and random weights: a runnability check.
    pub smoke: bool,
}

/// Work sizes of a run.
pub struct Size {
    /// Test images per pass.
    pub images: usize,
    /// Largest eval batch.
    pub max_batch: usize,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Capture + search repetitions (`search_s` is their median).
    pub search_reps: usize,
    /// Served requests.
    pub requests: usize,
}

impl Size {
    /// Full size, or the smoke size.
    pub fn of(opts: &Opts) -> Self {
        if opts.smoke {
            Self {
                images: 48,
                max_batch: 16,
                setup_reps: 1,
                search_reps: 1,
                requests: 60,
            }
        } else {
            Self {
                images: 500,
                max_batch: usize::MAX,
                setup_reps: 5,
                search_reps: 5,
                requests: 1000,
            }
        }
    }
}

/// Seed of every simulated input: device programming, read noise, fault
/// sites, input order and serve-shards' replicas and routing. It is fixed,
/// not taken from `--seed`, so accuracy, energy and the event counters are
/// one exact number per commit and workload, and a change to them is a
/// change of behaviour rather than of inputs.
pub const DEPLOY_SEED: u64 = 2022;

/// The seeded streams one deployment consumes.
pub struct Rngs {
    /// Programming and repair.
    pub device: Rng,
    /// Read noise during forwards.
    pub noise: Rng,
    /// Fault sites.
    pub fault: Rng,
    /// Input order.
    pub data: Rng,
}

impl Rngs {
    /// The streams of [`DEPLOY_SEED`].
    pub fn reference() -> Self {
        let root = Rng::from_seed(DEPLOY_SEED);
        Self {
            device: root.stream(RngStream::Device),
            noise: root.stream(RngStream::Noise),
            fault: root.stream(RngStream::Custom(0xFA_0175)),
            data: root.stream(RngStream::Data),
        }
    }
}

/// What a run measured and checked.
pub struct Outcome {
    /// `(name, value)` in the order measured.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted (batches, or served requests).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Failed checks, described.
    pub failures: Vec<String>,
    /// The recorded spans.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome; the run moves its recorder in when done.
    pub fn new() -> Self {
        Self {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            tracer: Tracer::new(false),
        }
    }

    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a check; a failed one is reported and fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every hardware event counter of `stats`.
    pub fn put_counters(&mut self, stats: &ExecutionStats) {
        let g = &stats.guard;
        for (name, v) in [
            ("xbar.pulses", stats.pulses),
            ("xbar.tile_mvms", stats.tile_mvms),
            ("xbar.adc_conversions", stats.adc_conversions),
            ("xbar.cell_reads", stats.cell_reads),
            ("xbar.guard_checks", g.checks),
            ("xbar.guard_violations", g.violations),
            ("xbar.guard_retries", g.retries),
            ("xbar.tile_refreshes", g.tile_refreshes),
            ("xbar.tile_remaps", g.tile_remaps),
            ("xbar.fallbacks", g.fallbacks),
        ] {
            self.put(name, v as f64);
        }
    }

    /// Set-up stage medians over the `setup` spans, then the write-path
    /// totals and trace coverage. `root` names the measured-phase spans.
    pub fn put_trace_metrics(&mut self, root: &str) {
        let tr = &self.tracer;
        let mut m: Vec<(String, f64)> = ["data.synth", "nn.load", "core.calibrate", "core.deploy"]
            .iter()
            .map(|stage| (format!("{stage}_s"), setup_stage_median(tr, stage)))
            .collect();
        for stage in ["xbar.program", "xbar.remap", "xbar.inject"] {
            m.push((format!("{stage}_s"), tr.stage_s(stage)));
        }
        let self_ns = tr.self_times();
        let (mut wall, mut root_self, mut spans) = (0.0, 0.0, 0usize);
        for (s, own) in tr.spans().iter().zip(&self_ns) {
            if s.name == root {
                wall += s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
                root_self += *own as f64 * 1e-9;
                spans += 1;
            } else if s.parent.is_some_and(|p| tr.spans()[p].name == root) {
                spans += 1;
            }
        }
        let wall = wall.max(f64::MIN_POSITIVE);
        m.push(("trace.stage_sum_frac".into(), (wall - root_self) / wall));
        m.push((
            "trace.overhead_frac".into(),
            spans as f64 * span_cost_s() / wall,
        ));
        self.metrics.extend(m);
    }
}

/// Runs `setup` `reps` times, each under a `setup` span, returning the
/// seconds each repetition took and the last one's result.
pub fn repeat_setup<T>(
    reps: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer, SpanId) -> Res<T>,
) -> Res<(Vec<f64>, T)> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let root = tr.open(None, "all", "setup");
        last = Some(setup(tr, root)?);
        tr.close(root);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((secs, last.ok_or("no set-up repetitions")?))
}

/// Median over `setup` spans of the summed durations of their `stage`
/// children (0 when untraced).
fn setup_stage_median(tr: &Tracer, stage: &str) -> f64 {
    let spans = tr.spans();
    let per_rep: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(|root| {
            spans
                .iter()
                .filter(|s| s.parent == Some(root.id) && s.name == stage)
                .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
                .sum()
        })
        .collect();
    median(&per_rep).unwrap_or(0.0)
}

/// Measured cost (s) of recording one span.
fn span_cost_s() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..N {
        let id = t.open(None, "all", "x");
        t.close(id);
    }
    start.elapsed().as_secs_f64() / f64::from(N)
}

/// Whether two tensors hold bitwise-identical values.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Correct predictions of `logits` against `labels`.
pub fn correct(logits: &Tensor, labels: &[usize]) -> Res<usize> {
    Ok(logits
        .argmax_rows()?
        .iter()
        .zip(labels)
        .filter(|(p, y)| p == y)
        .count())
}

/// Accuracy below which a pretrained run counts as broken (chance is
/// 10%; the workloads score 45–95%).
pub const ACCURACY_FLOOR_PCT: f64 = 25.0;

/// A deployment config of the model's crossbar layers at uniform `pulses`.
pub fn device_config(
    model: &Model,
    xbar: XbarConfig,
    pulses: usize,
    policy: DeploymentPolicy,
) -> DeviceEvalConfig {
    DeviceEvalConfig {
        xbar,
        pulses: vec![pulses; model.vgg.crossbar_layers()],
        act_levels: model.vgg.config().act_levels,
        policy,
    }
}

/// GBO search space Ω and latency weight γ of gbo-rails.
const OMEGA: [usize; 7] = [4, 6, 8, 10, 12, 14, 16];
const GAMMA: f32 = 3e-4;
const PROBE_IMAGES: usize = 8;

/// What distinguishes the three evaluation workloads.
struct EvalSpec {
    cfg: DeviceEvalConfig,
    batch: usize,
    /// Persistent stuck-fault rate injected (then remapped) at set-up.
    stuck_rate: Option<f32>,
    /// `(every, rate)`: upsets at `rate` before the first batch of each
    /// round of `every` batches.
    upsets: Option<(usize, f32)>,
    /// Run the analytic GBO search and deploy its encoding.
    search: bool,
}

impl EvalSpec {
    fn new(w: Workload, model: &Model) -> Self {
        let sigma = model.sigma_bar();
        let guard = GuardPolicy::standard();
        let none = DeploymentPolicy::default();
        let (cfg, batch) = match w {
            Workload::EvalRealistic => (
                device_config(
                    model,
                    XbarConfig::realistic(sigma).with_guard(guard),
                    16,
                    none,
                ),
                50,
            ),
            Workload::GboRails => (
                device_config(model, XbarConfig::functional(sigma), 8, none),
                50,
            ),
            Workload::RepairGuarded => (
                device_config(
                    model,
                    XbarConfig::functional(0.1).with_guard(guard),
                    8,
                    DeploymentPolicy::fault_aware(),
                ),
                16,
            ),
            Workload::ServeShards => unreachable!("serve-shards is not an evaluation workload"),
        };
        let repair = w == Workload::RepairGuarded;
        Self {
            cfg,
            batch,
            stuck_rate: repair.then_some(0.01),
            upsets: repair.then_some((5, 0.01)),
            search: w == Workload::GboRails,
        }
    }
}

/// Runs eval-realistic, gbo-rails or repair-guarded.
///
/// Untraced, `DeviceVgg` alone does the timed work. Traced, a mirror does
/// the timed work under spans and `DeviceVgg` replays every step untimed,
/// so every batch is checked bitwise.
pub fn run_eval(w: Workload, opts: &Opts) -> Res<Outcome> {
    let size = Size::of(opts);
    let weights = if opts.smoke {
        Weights::Random
    } else {
        Weights::Pretrained
    };
    let mut out = Outcome::new();
    let mut tr = Tracer::new(opts.trace);
    let tr = &mut tr;

    let (setup_s, (model, spec, mut device, mut rngs)) =
        repeat_setup(size.setup_reps, tr, |tr, root| {
            let model = Model::load(weights, tr, root)?;
            let spec = EvalSpec::new(w, &model);
            let mut rngs = Rngs::reference();
            let mut device = tr.time(root, "all", "core.deploy", || {
                DeviceVgg::deploy(&model.vgg, &model.params, &spec.cfg, &mut rngs.device)
            })?;
            if let Some(rate) = spec.stuck_rate {
                device.inject_stuck_faults(rate, &mut rngs.fault)?;
                device.remap_all(&RecoveryPolicy::standard(), &mut rngs.device)?;
            }
            Ok((model, spec, device, rngs))
        })?;

    // traced runs replay set-up into the mirror, on its own copy of the
    // streams
    let mut traced = if opts.trace {
        let root = tr.open(None, "all", "mirror.setup");
        let mut mrngs = Rngs::reference();
        let mut mirror = Mirror::deploy(
            &model.vgg,
            &model.params,
            &spec.cfg,
            &mut mrngs.device,
            tr,
            root,
        )?;
        if let Some(rate) = spec.stuck_rate {
            tr.time(root, "all", "xbar.inject", || {
                mirror.inject_stuck_faults(rate, &mut mrngs.fault)
            })?;
            tr.time(root, "all", "xbar.remap", || {
                mirror.remap_all(&RecoveryPolicy::standard(), &mut mrngs.device)
            })?;
        }
        tr.close(root);
        Some((mirror, mrngs))
    } else {
        None
    };

    let test = model.test.shuffled(&mut rngs.data);
    let images = size.images.min(test.len());
    let batch = spec.batch.min(size.max_batch);

    let mut search_s = Vec::new();
    if spec.search {
        // a fixed probe: the split's first images
        let probe = model.test.batch(0, PROBE_IMAGES)?.0;
        let mut picks = Vec::new();
        for _ in 0..size.search_reps {
            let t = Instant::now();
            let root = tr.open(None, "all", "search");
            let net = tr.time(root, "all", "core.memse_capture", || {
                MemseNetwork::from_device(&device, &probe)
            })?;
            let pick = tr.time(root, "all", "core.memse_search", || {
                net.analytic_search(&OMEGA, GAMMA)
            })?;
            tr.close(root);
            search_s.push(t.elapsed().as_secs_f64());
            picks.push(pick);
        }
        let pick = picks.pop().ok_or("no search repetitions")?;
        out.check(picks.iter().all(|p| *p == pick), || {
            "repeated searches disagree".into()
        });
        device.reconfigure_encoding(&pick.pulses)?;
        if let Some((mirror, _)) = &mut traced {
            mirror.reconfigure_encoding(&pick.pulses);
        }
        out.check(device.packed_ready(), || {
            "functional devices must be Packed-ready".into()
        });
        println!(
            "# gbo-rails encoding {:?} ({} evaluations)",
            pick.pulses, pick.evaluations
        );
        out.put("core.memse_evals", pick.evaluations as f64);
    }
    let capture_s = stage_durations_median(tr, "core.memse_capture");
    let search_only_s = stage_durations_median(tr, "core.memse_search");

    // untimed warm-up batch, which also checks a traced run's mirror
    let (x, _) = test.batch(0, batch)?;
    let (yd, sd) = device.forward(&x, &mut rngs.noise)?;
    if let Some((mirror, mrngs)) = &mut traced {
        let (ym, sm) = mirror.forward(&x, &mut mrngs.noise, &mut Tracer::new(false), None)?;
        out.check(bitwise_eq(&ym, &yd) && sm == sd, || {
            "mirror differs from DeviceVgg::forward on the warm-up batch".into()
        });
        mirror.encoded_values = 0;
    }

    // timed loop: the whole first pass (accuracy, counters), then more
    // batches until `seconds` have passed (untraced runs only). Upsets
    // open each round of `every` batches. Throughput is per round of wall
    // time, so it also covers the loop's own work between forwards.
    let round_len = spec.upsets.map_or(1, |(every, _)| every);
    let mut pass = Pass::default();
    let (mut batch_s, mut round_sps) = (Vec::new(), Vec::new());
    let (mut round_start, mut round_untimed, mut round_n) = (Instant::now(), 0.0, 0usize);
    let (mut pos, mut b, mut passes, mut failed) = (0usize, 0usize, 0usize, 0u64);
    let start = Instant::now();
    while passes == 0 || (!opts.trace && start.elapsed().as_secs_f64() < opts.seconds) {
        let (x, labels) = test.batch(pos, batch.min(images - pos))?;
        let upset = spec
            .upsets
            .filter(|_| b % round_len == 0)
            .map(|(_, rate)| rate);
        // DeviceVgg does the timed step untraced, and replays it untimed
        // beside the traced mirror
        let t0 = Instant::now();
        if let Some(rate) = upset {
            device.inject_faults(rate, &mut rngs.fault)?;
        }
        let tf = Instant::now();
        let (yd, sd) = device.forward(&x, &mut rngs.noise)?;
        let mut forward_s = tf.elapsed().as_secs_f64();
        let (logits, stats, ok) = match &mut traced {
            Some((mirror, mrngs)) => {
                round_untimed += t0.elapsed().as_secs_f64();
                let root = tr.open(None, "all", "batch");
                if let Some(rate) = upset {
                    tr.time(root, "all", "xbar.inject", || {
                        mirror.inject_faults(rate, &mut mrngs.fault)
                    })?;
                }
                let tf = Instant::now();
                let (ym, sm) = mirror.forward(&x, &mut mrngs.noise, tr, root)?;
                forward_s = tf.elapsed().as_secs_f64();
                tr.close(root);
                let ok = bitwise_eq(&ym, &yd) && sm == sd;
                (ym, sm, ok)
            }
            None => (yd, sd, true),
        };
        batch_s.push(forward_s);
        let finite = logits.as_slice().iter().all(|v| v.is_finite());
        failed += u64::from(!(ok && finite));
        if passes == 0 {
            pass.stats.merge(&stats);
            pass.correct += correct(&logits, &labels)?;
            pass.samples += labels.len();
        }
        round_n += labels.len();
        if (b + 1) % round_len == 0 {
            round_sps.push(round_n as f64 / (round_start.elapsed().as_secs_f64() - round_untimed));
            (round_start, round_untimed, round_n) = (Instant::now(), 0.0, 0);
        }
        b += 1;
        pos += labels.len();
        if pos >= images {
            pos = 0;
            passes += 1;
        }
    }
    if round_sps.is_empty() {
        round_sps.push(round_n as f64 / (round_start.elapsed().as_secs_f64() - round_untimed));
    }

    let accuracy = 100.0 * pass.correct as f64 / pass.samples as f64;
    out.attempted = b as u64;
    out.failed = failed;
    out.check(failed == 0, || {
        format!("{failed} batches mismatched the mirror or were not finite")
    });
    out.check(opts.smoke || accuracy >= ACCURACY_FLOOR_PCT, || {
        format!("accuracy {accuracy:.2}% is below the {ACCURACY_FLOOR_PCT}% floor")
    });

    out.put("setup_s", median(&setup_s).unwrap_or(0.0));
    out.put("samples_per_s", median(&round_sps).unwrap_or(0.0));
    out.put("batch_p50_ms", median(&batch_s).unwrap_or(0.0) * 1e3);
    out.put("accuracy_pct", accuracy);
    out.put(
        "energy_uj_per_sample",
        EnergyModel::representative().energy_pj(&pass.stats) / 1e6 / pass.samples as f64,
    );
    out.put("batches", b as f64);
    out.put("failed_frac", failed as f64 / b as f64);
    if spec.search {
        out.put("search_s", median(&search_s).unwrap_or(0.0));
    }
    out.put_counters(&pass.stats);
    out.tracer = std::mem::replace(tr, Tracer::new(false));
    if let Some((mirror, _)) = &mut traced {
        if spec.search {
            out.put("core.memse_capture_s", capture_s);
            out.put("core.memse_search_s", search_only_s);
        }
        out.put(
            "xbar.packed_ready_layers",
            mirror.packed_ready_layers() as f64,
        );
        put_forward_metrics(&mut out, mirror.encoded_values);
        out.put_trace_metrics("batch");
    }
    Ok(out)
}

/// First-pass totals.
#[derive(Default)]
struct Pass {
    stats: ExecutionStats,
    correct: usize,
    samples: usize,
}

/// Median duration (s) of spans named `name` (0 when none).
fn stage_durations_median(tr: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
        .collect();
    median(&d).unwrap_or(0.0)
}

/// Per-layer forward stage self times of the traced pass.
fn put_forward_metrics(out: &mut Outcome, encoded_values: u64) {
    let by = out.tracer.self_by_stage();
    let at = |name: &str, layer: &str| by.get(&(name, layer)).copied().unwrap_or(0.0);
    let mut m = Vec::new();
    m.push((
        "tensor.lower_s".to_string(),
        out.tracer.stage_s("tensor.lower"),
    ));
    for l in crate::LAYERS {
        m.push((format!("encoding.encode_s.{l}"), at("encoding.encode", l)));
    }
    let encode_s = out.tracer.stage_s("encoding.encode");
    m.push((
        "encoding.ns_per_value".into(),
        encode_s * 1e9 / encoded_values.max(1) as f64,
    ));
    for l in crate::LAYERS {
        m.push((format!("xbar.exec_s.{l}"), at("xbar.exec", l)));
    }
    m.push((
        "tensor.digital_s".into(),
        out.tracer.stage_s("tensor.digital"),
    ));
    m.push((
        "core.periphery_s".into(),
        out.tracer.stage_s("core.periphery"),
    ));
    out.metrics.extend(m);
}
