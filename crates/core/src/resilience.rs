//! The epoch loop under every training stage — pre-training, NIA
//! fine-tuning and the GBO search — and its resilience policy: atomic
//! per-epoch checkpoints, `--resume` restore, and watchdog-guarded
//! rollback.
//!
//! A loop hands [`run_epochs`] three operations ([`EpochLoop`]): `save`
//! writes everything an epoch mutates into a [`Checkpoint`], `load`
//! restores it, and `run_epoch` runs one epoch. `run_epochs` keeps the
//! checkpoint of the last completed epoch in memory; a watchdog trip
//! `load`s it, halves the learning rate and replays the epoch, and a
//! resumed run `load`s the same checkpoint from disk. Rollback and
//! resume therefore restore through one path.

use std::path::PathBuf;

use membit_nn::checkpoint::CheckpointError;
use membit_nn::{Checkpoint, Params};
use membit_tensor::{Rng, Tensor};

use crate::error::{DivergenceReason, TrainError};
use crate::watchdog::TrainWatchdog;
use crate::Result;

/// Rollback attempts per epoch before a run fails with
/// [`TrainError::Diverged`].
pub const MAX_RETRIES: usize = 2;

/// Learning-rate multiplier applied on every rollback.
const LR_BACKOFF: f32 = 0.5;

/// Where a training loop checkpoints and whether it resumes. The default
/// is fully in-memory: the rollback checkpoint still guards every epoch,
/// but nothing is written to disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Checkpoint path, written atomically after every epoch (`None`
    /// disables on-disk checkpointing).
    pub checkpoint: Option<PathBuf>,
    /// Resume from `checkpoint` if a loadable file is present.
    pub resume: bool,
    /// Keep the checkpoint after a successful run (default: delete it so
    /// a later run with the same path starts fresh).
    pub keep_checkpoint: bool,
}

impl ResilienceConfig {
    /// Checkpoint to `path` after every epoch and resume from it when
    /// present — the configuration the `repro` experiments use under
    /// `--resume`.
    pub fn auto(path: PathBuf, resume: bool) -> Self {
        Self {
            checkpoint: Some(path),
            resume,
            keep_checkpoint: false,
        }
    }

    /// Saves `ckpt` to the configured path (no-op when disabled).
    fn save(&self, ckpt: &Checkpoint) -> Result<()> {
        if let Some(path) = &self.checkpoint {
            ckpt.save(path).map_err(TrainError::Checkpoint)?;
        }
        Ok(())
    }

    /// Loads the checkpoint if resuming is enabled and the file exists.
    /// A structurally damaged file is a hard error — silently restarting
    /// from scratch would mask corruption.
    fn load_for_resume(&self) -> Result<Option<Checkpoint>> {
        match &self.checkpoint {
            Some(path) if self.resume && path.exists() => Ok(Some(
                Checkpoint::load(path).map_err(TrainError::Checkpoint)?,
            )),
            _ => Ok(None),
        }
    }

    /// Removes the checkpoint after a successful run (unless configured
    /// to keep it). Best-effort: a leftover file only costs disk.
    fn finish(&self) {
        if self.keep_checkpoint {
            return;
        }
        if let Some(path) = &self.checkpoint {
            std::fs::remove_file(path).ok();
        }
    }
}

/// What one epoch attempt produced.
pub(crate) enum EpochRun {
    /// The epoch completed with this mean loss.
    Done(f32),
    /// The watchdog flagged a batch; the epoch stopped before the
    /// poisonous optimizer step.
    Tripped(DivergenceReason),
}

/// One training loop as [`run_epochs`] drives it.
pub(crate) trait EpochLoop {
    /// Writes everything an epoch mutates (parameters, model and
    /// optimizer state, RNG streams) into `ckpt`.
    fn save(&self, ckpt: &mut Checkpoint);

    /// Restores what [`save`](Self::save) wrote — after a watchdog trip
    /// from the in-memory checkpoint, on resume from the file.
    fn load(&mut self, ckpt: &Checkpoint) -> Result<()>;

    /// Runs epoch `epoch` (0-based) at `lr_scale` times its scheduled
    /// learning rate, feeding every batch to `watchdog`.
    fn run_epoch(
        &mut self,
        epoch: usize,
        lr_scale: f32,
        watchdog: &mut TrainWatchdog,
    ) -> Result<EpochRun>;
}

/// What [`run_epochs`] reports for a finished run.
pub(crate) struct EpochLog {
    /// Mean loss per epoch, including resumed history.
    pub losses: Vec<f32>,
    /// Watchdog trips over the whole run, including resumed history.
    pub trips: usize,
}

/// Drives `lp` through `epochs` epochs under `res`. After every epoch it
/// checkpoints the loop's state together with its own (epoch,
/// learning-rate scale, trips and losses), in memory and — with
/// `res.checkpoint` set — atomically on disk. A watchdog trip restores
/// the last checkpoint, scales the learning rate by 0.5 and replays the
/// epoch, up to [`MAX_RETRIES`] times before failing with
/// [`TrainError::Diverged`] for `stage`.
pub(crate) fn run_epochs(
    stage: &str,
    epochs: usize,
    res: &ResilienceConfig,
    lp: &mut dyn EpochLoop,
) -> Result<EpochLog> {
    let mut watchdog = TrainWatchdog::new();
    let mut start = 0usize;
    let mut lr_scale = 1.0f32;
    let mut losses = Vec::with_capacity(epochs);
    let mut prior_trips = 0usize;
    let mut last_good = match res.load_for_resume()? {
        Some(ckpt) => {
            start = need_u64(&ckpt, "meta.epoch")? as usize;
            lr_scale = need_f64(&ckpt, "meta.lr_scale")? as f32;
            prior_trips = need_u64(&ckpt, "meta.trips")? as usize;
            if let Some(saved) = ckpt.tensor("loss.epoch_losses") {
                losses = saved.as_slice().to_vec();
            }
            lp.load(&ckpt)?;
            ckpt
        }
        None => {
            let mut ckpt = Checkpoint::new();
            lp.save(&mut ckpt);
            ckpt
        }
    };
    for epoch in start..epochs {
        let mut retries = 0usize;
        let loss = loop {
            match lp.run_epoch(epoch, lr_scale, &mut watchdog)? {
                EpochRun::Done(loss) => break loss,
                EpochRun::Tripped(reason) => {
                    if retries == MAX_RETRIES {
                        return Err(TrainError::Diverged {
                            stage: stage.to_string(),
                            epoch,
                            retries,
                            reason,
                        });
                    }
                    retries += 1;
                    lp.load(&last_good)?;
                    lr_scale *= LR_BACKOFF;
                    watchdog.reset_epoch();
                }
            }
        };
        losses.push(loss);
        last_good = Checkpoint::new();
        last_good.put_u64("meta.epoch", (epoch + 1) as u64);
        last_good.put_f64("meta.lr_scale", f64::from(lr_scale));
        last_good.put_u64("meta.trips", (prior_trips + watchdog.trips()) as u64);
        last_good.put_tensor(
            "loss.epoch_losses",
            Tensor::from_vec(losses.clone(), &[losses.len()])?,
        );
        lp.save(&mut last_good);
        res.save(&last_good)?;
    }
    res.finish();
    Ok(EpochLog {
        losses,
        trips: prior_trips + watchdog.trips(),
    })
}

/// Stores every parameter of `params` into `ckpt` under `param.{name}`.
pub(crate) fn put_params(ckpt: &mut Checkpoint, params: &Params) {
    for (name, tensor) in params.iter() {
        ckpt.put_tensor(format!("param.{name}"), tensor.clone());
    }
}

/// Restores `param.{name}` entries into `params`. Every entry must land
/// on a registered parameter of matching shape — a miss means the
/// checkpoint belongs to a different model, which must not pass silently.
pub(crate) fn restore_params(ckpt: &Checkpoint, params: &mut Params) -> Result<()> {
    let mut restored = 0usize;
    for (name, tensor) in ckpt.tensors_with_prefix("param.") {
        if !params.assign(name, tensor.clone()) {
            return Err(CheckpointError::Corrupt(format!(
                "checkpointed parameter {name:?} does not match the model (unknown name or wrong shape)"
            ))
            .into());
        }
        restored += 1;
    }
    if restored != params.len() {
        return Err(CheckpointError::Corrupt(format!(
            "checkpoint restores {restored} of {} model parameters",
            params.len()
        ))
        .into());
    }
    Ok(())
}

/// Stores an RNG stream under `rng.{key}`.
pub(crate) fn put_rng(ckpt: &mut Checkpoint, key: &str, rng: &Rng) {
    ckpt.put_bytes(format!("rng.{key}"), rng.state_bytes());
}

/// Restores the RNG stream saved under `rng.{key}`.
pub(crate) fn restore_rng(ckpt: &Checkpoint, key: &str) -> Result<Rng> {
    let name = format!("rng.{key}");
    ckpt.bytes(&name)
        .and_then(Rng::from_state_bytes)
        .ok_or_else(|| {
            CheckpointError::Corrupt(format!("missing or malformed RNG stream {name:?}")).into()
        })
}

/// Stores named state tensors (model running stats, optimizer moments)
/// under `{prefix}.{name}`.
pub(crate) fn put_state(ckpt: &mut Checkpoint, prefix: &str, state: Vec<(String, Tensor)>) {
    for (name, tensor) in state {
        ckpt.put_tensor(format!("{prefix}.{name}"), tensor);
    }
}

/// Extracts the `{prefix}.{name}` state tensors back out of `ckpt`.
pub(crate) fn take_state(ckpt: &Checkpoint, prefix: &str) -> Vec<(String, Tensor)> {
    let dotted = format!("{prefix}.");
    ckpt.tensors_with_prefix(&dotted)
        .map(|(n, t)| (n.to_string(), t.clone()))
        .collect()
}

/// Reads a required `u64` entry.
fn need_u64(ckpt: &Checkpoint, name: &str) -> Result<u64> {
    ckpt.get_u64(name).ok_or_else(|| {
        CheckpointError::Corrupt(format!("missing checkpoint counter {name:?}")).into()
    })
}

/// Reads a required `f64` entry.
pub(crate) fn need_f64(ckpt: &Checkpoint, name: &str) -> Result<f64> {
    ckpt.get_f64(name).ok_or_else(|| {
        CheckpointError::Corrupt(format!("missing checkpoint scalar {name:?}")).into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_in_memory_only() {
        let r = ResilienceConfig::default();
        assert!(r.checkpoint.is_none());
        assert!(r.save(&Checkpoint::new()).is_ok());
        assert!(r.load_for_resume().unwrap().is_none());
    }

    #[test]
    fn params_roundtrip_is_strict() {
        let mut ckpt = Checkpoint::new();
        let mut params = Params::new();
        params.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        put_params(&mut ckpt, &params);
        let mut fresh = Params::new();
        fresh.register("w", Tensor::zeros(&[2]));
        restore_params(&ckpt, &mut fresh).unwrap();
        assert_eq!(fresh.get(fresh.find("w").unwrap()).as_slice(), &[1.0, 2.0]);

        // wrong-shape model: typed error, not silence
        let mut wrong = Params::new();
        wrong.register("w", Tensor::zeros(&[3]));
        assert!(restore_params(&ckpt, &mut wrong).is_err());
        // incomplete checkpoint (extra model param): typed error too
        let mut bigger = Params::new();
        bigger.register("w", Tensor::zeros(&[2]));
        bigger.register("extra", Tensor::zeros(&[1]));
        assert!(restore_params(&ckpt, &mut bigger).is_err());
    }

    #[test]
    fn rng_roundtrip() {
        let mut ckpt = Checkpoint::new();
        let mut rng = Rng::from_seed(7);
        let _ = rng.normal(0.0, 1.0);
        put_rng(&mut ckpt, "shuffle", &rng);
        let mut restored = restore_rng(&ckpt, "shuffle").unwrap();
        assert_eq!(restored.normal(0.0, 1.0), rng.normal(0.0, 1.0));
        assert!(restore_rng(&ckpt, "missing").is_err());
    }

    /// A toy loop: one scalar state advanced by an RNG draw per epoch,
    /// scaled by the learning rate, with NaN losses injected on
    /// scheduled attempts. Records the state each attempt starts from.
    struct Toy {
        value: f64,
        rng: Rng,
        nan_attempts: Vec<usize>,
        starts: Vec<(u64, Vec<u8>)>,
        lr_scales: Vec<f32>,
    }

    impl Toy {
        fn new(nan_attempts: Vec<usize>) -> Self {
            Self {
                value: 1.0,
                rng: Rng::from_seed(3),
                nan_attempts,
                starts: Vec::new(),
                lr_scales: Vec::new(),
            }
        }
    }

    impl EpochLoop for Toy {
        fn save(&self, ckpt: &mut Checkpoint) {
            ckpt.put_f64("toy.value", self.value);
            put_rng(ckpt, "toy", &self.rng);
        }

        fn load(&mut self, ckpt: &Checkpoint) -> Result<()> {
            self.value = need_f64(ckpt, "toy.value")?;
            self.rng = restore_rng(ckpt, "toy")?;
            Ok(())
        }

        fn run_epoch(
            &mut self,
            _epoch: usize,
            lr_scale: f32,
            watchdog: &mut TrainWatchdog,
        ) -> Result<EpochRun> {
            let attempt = self.starts.len();
            self.starts
                .push((self.value.to_bits(), self.rng.state_bytes()));
            self.lr_scales.push(lr_scale);
            // mutate before the check, as a real epoch does mid-way
            self.value += f64::from(lr_scale) * f64::from(self.rng.uniform(0.0, 1.0));
            let loss = if self.nan_attempts.contains(&attempt) {
                f32::NAN
            } else {
                self.value as f32
            };
            Ok(match watchdog.observe(loss) {
                Some(reason) => EpochRun::Tripped(reason),
                None => EpochRun::Done(loss),
            })
        }
    }

    #[test]
    fn run_epochs_rolls_back_retries_and_resumes() {
        let in_memory = ResilienceConfig::default();
        let mut clean = Toy::new(Vec::new());
        let reference = run_epochs("toy", 4, &in_memory, &mut clean).unwrap();
        assert_eq!(reference.trips, 0);

        // attempt 1 (epoch 1) trips: its replay starts from the state
        // the tripped attempt started from, at half the LR scale
        let mut tripped = Toy::new(vec![1]);
        let log = run_epochs("toy", 4, &in_memory, &mut tripped).unwrap();
        assert_eq!(log.trips, 1);
        assert_eq!(log.losses.len(), 4);
        assert_eq!(tripped.starts[2], tripped.starts[1]);
        assert_eq!(tripped.lr_scales, vec![1.0, 1.0, 0.5, 0.5, 0.5]);

        // MAX_RETRIES + 1 trips in one epoch: typed divergence
        let mut doomed = Toy::new((2..2 + MAX_RETRIES + 1).collect());
        match run_epochs("toy", 4, &in_memory, &mut doomed) {
            Err(TrainError::Diverged {
                stage,
                epoch,
                retries,
                reason,
            }) => {
                assert_eq!(stage, "toy");
                assert_eq!(epoch, 2);
                assert_eq!(retries, MAX_RETRIES);
                assert_eq!(reason, DivergenceReason::NonFiniteLoss);
            }
            other => panic!("expected Diverged, got {:?}", other.map(|l| l.losses)),
        }

        // a run stopped after epoch 2 resumes to the uninterrupted result
        let path =
            std::env::temp_dir().join(format!("membit-run-epochs-{}.ckpt", std::process::id()));
        std::fs::remove_file(&path).ok();
        let keep = ResilienceConfig {
            keep_checkpoint: true,
            ..ResilienceConfig::auto(path.clone(), false)
        };
        run_epochs("toy", 2, &keep, &mut Toy::new(Vec::new())).unwrap();
        assert!(path.exists());
        let mut resumed = Toy::new(Vec::new());
        let log = run_epochs(
            "toy",
            4,
            &ResilienceConfig::auto(path.clone(), true),
            &mut resumed,
        )
        .unwrap();
        assert_eq!(resumed.starts.len(), 2, "only the missing epochs run");
        assert_eq!(log.losses, reference.losses);
        assert_eq!(resumed.value.to_bits(), clean.value.to_bits());
        assert!(!path.exists(), "a finished run removes its checkpoint");
    }
}
