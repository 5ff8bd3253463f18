//! Optimizers: SGD with momentum/weight-decay and Adam.

use membit_autograd::Tape;
use membit_tensor::Tensor;

use crate::params::{Binding, Params};
use crate::Result;

/// A gradient-descent optimizer over a [`Params`] store.
///
/// After `tape.backward(loss)`, call [`step`](Optimizer::step) with the
/// binding of that forward pass; parameters that were bound and received a
/// gradient are updated in place.
pub trait Optimizer {
    /// Applies one update step.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (which indicate parameter/gradient
    /// bookkeeping bugs).
    fn step(&mut self, params: &mut Params, tape: &Tape, binding: &Binding) -> Result<()>;

    /// Sets the learning rate (for schedulers).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;

    /// Internal state (momenta, step counters) as named tensors, for
    /// checkpointing. Stateless optimizers return an empty vec.
    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Restores state previously captured by
    /// [`state_tensors`](Optimizer::state_tensors). Unknown names are
    /// ignored so checkpoints stay forward-compatible.
    fn restore_state_tensors(&mut self, state: &[(String, Tensor)]) {
        let _ = state;
    }
}

/// Parses the slot index out of a state key like `"m17"` / `"v3"`.
fn slot_index(key: &str, prefix: char) -> Option<usize> {
    key.strip_prefix(prefix).and_then(|s| s.parse().ok())
}

/// Grows `slots` so index `idx` is addressable.
fn ensure_slot(slots: &mut Vec<Option<Tensor>>, idx: usize) -> &mut Option<Tensor> {
    if slots.len() <= idx {
        slots.resize(idx + 1, None);
    }
    &mut slots[idx]
}

/// Stochastic gradient descent with classical momentum and decoupled-style
/// L2 weight decay (`g ← g + wd·θ`), the paper's pre-training optimizer.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Creates SGD with the given hyperparameters.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut Params, tape: &Tape, binding: &Binding) -> Result<()> {
        if self.velocity.len() < params.len() {
            self.velocity.resize(params.len(), None);
        }
        for (idx, var) in binding.bound() {
            let Some(grad) = tape.grad(var) else {
                continue;
            };
            let mut g = grad.clone();
            if self.weight_decay != 0.0 {
                g.axpy(self.weight_decay, params.get_by_index(idx))?;
            }
            let update = if self.momentum != 0.0 {
                let v = self.velocity[idx].get_or_insert_with(|| Tensor::zeros(g.shape()));
                // v ← μ·v + g
                let mut nv = v.mul_scalar(self.momentum);
                nv.axpy(1.0, &g)?;
                *v = nv.clone();
                nv
            } else {
                g
            };
            params.get_by_index_mut(idx).axpy(-self.lr, &update)?;
        }
        Ok(())
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        self.velocity
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|t| (format!("v{i}"), t.clone())))
            .collect()
    }

    fn restore_state_tensors(&mut self, state: &[(String, Tensor)]) {
        for (key, tensor) in state {
            if let Some(idx) = slot_index(key, 'v') {
                *ensure_slot(&mut self.velocity, idx) = Some(tensor.clone());
            }
        }
    }
}

/// Adam (Kingma & Ba), used for the GBO λ-parameter search phase.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Creates Adam with standard β = (0.9, 0.999), ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params, tape: &Tape, binding: &Binding) -> Result<()> {
        if self.m.len() < params.len() {
            self.m.resize(params.len(), None);
            self.v.resize(params.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, var) in binding.bound() {
            let Some(grad) = tape.grad(var) else {
                continue;
            };
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(grad.shape()));
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(grad.shape()));
            let mut nm = m.mul_scalar(self.beta1);
            nm.axpy(1.0 - self.beta1, grad)?;
            *m = nm;
            let mut nv = v.mul_scalar(self.beta2);
            nv.axpy(1.0 - self.beta2, &grad.square())?;
            *v = nv;
            let mhat = self.m[idx]
                .as_ref()
                .expect("just set")
                .mul_scalar(1.0 / bc1);
            let vhat = self.v[idx]
                .as_ref()
                .expect("just set")
                .mul_scalar(1.0 / bc2);
            let eps = self.eps;
            let update = mhat.zip_map(&vhat, |mv, vv| mv / (vv.sqrt() + eps))?;
            params.get_by_index_mut(idx).axpy(-self.lr, &update)?;
        }
        Ok(())
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn state_tensors(&self) -> Vec<(String, Tensor)> {
        let mut out = vec![(
            "t".to_string(),
            Tensor::from_vec(vec![self.t as f32], &[1]).expect("scalar tensor"),
        )];
        for (i, m) in self.m.iter().enumerate() {
            if let Some(t) = m {
                out.push((format!("m{i}"), t.clone()));
            }
        }
        for (i, v) in self.v.iter().enumerate() {
            if let Some(t) = v {
                out.push((format!("v{i}"), t.clone()));
            }
        }
        out
    }

    fn restore_state_tensors(&mut self, state: &[(String, Tensor)]) {
        for (key, tensor) in state {
            if key == "t" {
                self.t = tensor.item() as u64;
            } else if let Some(idx) = slot_index(key, 'm') {
                *ensure_slot(&mut self.m, idx) = Some(tensor.clone());
            } else if let Some(idx) = slot_index(key, 'v') {
                *ensure_slot(&mut self.v, idx) = Some(tensor.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_autograd::Tape;

    /// Minimizes f(θ) = Σ (θ − target)² with the given optimizer.
    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut params = Params::new();
        let id = params.register("theta", Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap());
        let target = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        for _ in 0..steps {
            let mut tape = Tape::new();
            let mut binding = params.binding();
            let theta = params.bind(&mut tape, &mut binding, id);
            let t = tape.constant(target.neg());
            let d = tape.add(theta, t).unwrap();
            let sq = tape.mul(d, d).unwrap();
            let loss = tape.sum_all(sq);
            tape.backward(loss).unwrap();
            opt.step(&mut params, &tape, &binding).unwrap();
        }
        let theta = params.get(id);
        theta.sub(&target).unwrap().square().sum()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        assert!(optimize(&mut opt, 100) < 1e-6);
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        assert!(optimize(&mut opt, 150) < 1e-5);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.2);
        assert!(optimize(&mut opt, 300) < 1e-4);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut params = Params::new();
        let id = params.register("w", Tensor::ones(&[1]));
        let mut opt = Sgd::new(0.1, 0.0, 1.0);
        // loss ≡ 0 gradient; only decay acts
        let mut tape = Tape::new();
        let mut binding = params.binding();
        let w = params.bind(&mut tape, &mut binding, id);
        let zero = tape.constant(Tensor::zeros(&[1]));
        let prod = tape.mul(w, zero).unwrap();
        let loss = tape.sum_all(prod);
        tape.backward(loss).unwrap();
        opt.step(&mut params, &tape, &binding).unwrap();
        assert!((params.get(id).item() - 0.9).abs() < 1e-6);
    }

    #[test]
    fn lr_getter_setter() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        assert_eq!(opt.lr(), 0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
        let mut adam = Adam::new(1e-3);
        adam.set_lr(1e-4);
        assert!((adam.lr() - 1e-4).abs() < 1e-9);
    }

    /// Runs `steps` optimizer steps on a fresh quadratic problem, starting
    /// from `start` and restoring `state` first if given; returns the
    /// final θ and the optimizer state.
    fn run_from(
        opt: &mut dyn Optimizer,
        start: &Tensor,
        state: Option<&[(String, Tensor)]>,
        steps: usize,
    ) -> (Tensor, Vec<(String, Tensor)>) {
        let mut params = Params::new();
        let id = params.register("theta", start.clone());
        if let Some(s) = state {
            opt.restore_state_tensors(s);
        }
        let target = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        for _ in 0..steps {
            let mut tape = Tape::new();
            let mut binding = params.binding();
            let theta = params.bind(&mut tape, &mut binding, id);
            let t = tape.constant(target.neg());
            let d = tape.add(theta, t).unwrap();
            let sq = tape.mul(d, d).unwrap();
            let loss = tape.sum_all(sq);
            tape.backward(loss).unwrap();
            opt.step(&mut params, &tape, &binding).unwrap();
        }
        (params.get(id).clone(), opt.state_tensors())
    }

    /// Checkpointed state must make a split run bitwise-identical to an
    /// uninterrupted one (the property resume determinism relies on).
    #[test]
    fn state_roundtrip_matches_uninterrupted_run() {
        let start = Tensor::from_vec(vec![5.0, -3.0], &[2]).unwrap();
        for fresh in [
            || Box::new(Sgd::new(0.05, 0.9, 1e-4)) as Box<dyn Optimizer>,
            || Box::new(Adam::new(0.1)) as Box<dyn Optimizer>,
        ] {
            let (full, _) = run_from(&mut *fresh(), &start, None, 10);
            let (mid, state) = run_from(&mut *fresh(), &start, None, 4);
            let (resumed, _) = run_from(&mut *fresh(), &mid, Some(&state), 6);
            assert_eq!(full.as_slice(), resumed.as_slice());
        }
    }

    #[test]
    fn restore_ignores_unknown_keys() {
        let mut opt = Adam::new(0.1);
        opt.restore_state_tensors(&[
            ("bogus".to_string(), Tensor::ones(&[1])),
            ("q7".to_string(), Tensor::ones(&[1])),
        ]);
        assert_eq!(opt.state_tensors().len(), 1); // just "t"
    }

    #[test]
    fn unbound_params_untouched() {
        let mut params = Params::new();
        let a = params.register("a", Tensor::ones(&[1]));
        let b = params.register("b", Tensor::ones(&[1]));
        let mut opt = Sgd::new(0.5, 0.0, 0.0);
        let mut tape = Tape::new();
        let mut binding = params.binding();
        let av = params.bind(&mut tape, &mut binding, a);
        let sq = tape.mul(av, av).unwrap();
        let loss = tape.sum_all(sq);
        tape.backward(loss).unwrap();
        opt.step(&mut params, &tape, &binding).unwrap();
        assert!((params.get(a).item() - 0.0).abs() < 1e-6); // 1 − 0.5·2 = 0
        assert_eq!(params.get(b).item(), 1.0);
    }
}
