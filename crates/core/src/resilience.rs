//! Resilience policy shared by every training loop: periodic atomic
//! checkpointing, `--resume` restore, and watchdog thresholds.

use std::path::PathBuf;

use membit_nn::checkpoint::CheckpointError;
use membit_nn::{Checkpoint, Params};
use membit_tensor::{Rng, Tensor};

use crate::watchdog::WatchdogConfig;
use crate::Result;

/// How a training loop checkpoints, resumes, and guards against
/// divergence. The default is fully in-memory: watchdog armed, no on-disk
/// checkpointing — exactly the old behavior plus NaN protection.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Auto-checkpoint path (`None` disables on-disk checkpointing; the
    /// in-memory rollback snapshots still work).
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint every N completed epochs.
    pub every_epochs: usize,
    /// Resume from `checkpoint` if a loadable file is present.
    pub resume: bool,
    /// Keep the checkpoint after a successful run (default: delete it so
    /// a later run with the same path starts fresh).
    pub keep_checkpoint: bool,
    /// Watchdog thresholds.
    pub watchdog: WatchdogConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint: None,
            every_epochs: 1,
            resume: false,
            keep_checkpoint: false,
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl ResilienceConfig {
    /// Checkpoint to `path` after every epoch and resume from it when
    /// present — the configuration the `repro` experiments use under
    /// `--resume`.
    pub fn auto(path: PathBuf, resume: bool) -> Self {
        Self {
            checkpoint: Some(path),
            resume,
            ..Self::default()
        }
    }

    /// Whether epoch `epoch` (0-based, just completed) should be
    /// checkpointed.
    pub(crate) fn should_checkpoint(&self, epoch: usize) -> bool {
        self.checkpoint.is_some() && (epoch + 1).is_multiple_of(self.every_epochs.max(1))
    }

    /// Saves `ckpt` to the configured path (no-op when disabled).
    pub(crate) fn save(&self, ckpt: &Checkpoint) -> Result<()> {
        if let Some(path) = &self.checkpoint {
            ckpt.save(path).map_err(crate::TrainError::Checkpoint)?;
        }
        Ok(())
    }

    /// Loads the checkpoint if resuming is enabled and the file exists.
    /// A structurally damaged file is a hard error — silently restarting
    /// from scratch would mask corruption.
    pub(crate) fn load_for_resume(&self) -> Result<Option<Checkpoint>> {
        let Some(path) = &self.checkpoint else {
            return Ok(None);
        };
        if !self.resume || !path.exists() {
            return Ok(None);
        }
        Ok(Some(
            Checkpoint::load(path).map_err(crate::TrainError::Checkpoint)?,
        ))
    }

    /// Removes the checkpoint after a successful run (unless configured
    /// to keep it). Best-effort: a leftover file only costs disk.
    pub(crate) fn finish(&self) {
        if self.keep_checkpoint {
            return;
        }
        if let Some(path) = &self.checkpoint {
            std::fs::remove_file(path).ok();
        }
    }
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
pub(crate) fn put_state(ckpt: &mut Checkpoint, prefix: &str, state: &[(String, Tensor)]) {
    for (name, tensor) in state {
        ckpt.put_tensor(format!("{prefix}.{name}"), tensor.clone());
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
pub(crate) fn need_u64(ckpt: &Checkpoint, name: &str) -> Result<u64> {
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
        assert!(!r.should_checkpoint(0));
        assert!(r.save(&Checkpoint::new()).is_ok());
        assert!(r.load_for_resume().unwrap().is_none());
    }

    #[test]
    fn checkpoint_cadence() {
        let mut r = ResilienceConfig::auto(PathBuf::from("/tmp/unused.ckpt"), false);
        r.every_epochs = 3;
        assert!(!r.should_checkpoint(0));
        assert!(!r.should_checkpoint(1));
        assert!(r.should_checkpoint(2));
        assert!(r.should_checkpoint(5));
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
}
