//! Central parameter store and per-forward tape bindings.

use membit_autograd::{Tape, VarId};
use membit_tensor::Tensor;

/// Handle to a parameter registered in a [`Params`] store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Owns every trainable tensor of a model.
///
/// Layers hold [`ParamId`]s; each forward pass *binds* the parameters it
/// uses onto the tape (creating leaves) and records the mapping in a
/// [`Binding`], which optimizers later use to pull gradients.
#[derive(Debug, Default, Clone)]
pub struct Params {
    names: Vec<String>,
    tensors: Vec<Tensor>,
}

impl Params {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named parameter, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — parameter names are the
    /// checkpoint keys and must be unique.
    pub fn register(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "duplicate parameter name {name:?}"
        );
        self.names.push(name);
        self.tensors.push(tensor);
        ParamId(self.tensors.len() - 1)
    }

    /// Number of registered parameters.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Borrow a parameter tensor.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutably borrow a parameter tensor.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Borrow a parameter by its flat index (as yielded by
    /// [`Binding::bound`]).
    pub fn get_by_index(&self, index: usize) -> &Tensor {
        &self.tensors[index]
    }

    /// Mutably borrow a parameter by its flat index.
    pub fn get_by_index_mut(&mut self, index: usize) -> &mut Tensor {
        &mut self.tensors[index]
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over `(name, tensor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.names.iter().map(String::as_str).zip(&self.tensors)
    }

    /// Looks a parameter up by name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Overwrites a parameter by name (used when loading checkpoints).
    ///
    /// Returns `false` if no such name exists or shapes differ.
    pub fn assign(&mut self, name: &str, tensor: Tensor) -> bool {
        match self.find(name) {
            Some(id) if self.tensors[id.0].shape() == tensor.shape() => {
                self.tensors[id.0] = tensor;
                true
            }
            _ => false,
        }
    }

    /// Creates an empty binding sized for this store.
    pub fn binding(&self) -> Binding {
        Binding {
            vars: vec![None; self.tensors.len()],
            trainable: true,
        }
    }

    /// Creates a binding that registers every parameter as frozen
    /// (`requires_grad = false`) — the GBO search phase configuration.
    pub fn frozen_binding(&self) -> Binding {
        Binding {
            vars: vec![None; self.tensors.len()],
            trainable: false,
        }
    }

    /// Binds parameter `id` onto `tape` (once per binding; repeat calls
    /// return the cached handle).
    pub fn bind(&self, tape: &mut Tape, binding: &mut Binding, id: ParamId) -> VarId {
        if let Some(v) = binding.vars[id.0] {
            return v;
        }
        let v = tape.leaf(self.tensors[id.0].clone(), binding.trainable);
        binding.vars[id.0] = Some(v);
        v
    }
}

/// Records which tape leaf each parameter was bound to during one forward
/// pass.
#[derive(Debug, Clone)]
pub struct Binding {
    vars: Vec<Option<VarId>>,
    trainable: bool,
}

impl Binding {
    /// The tape handle of `id`, if it was bound this pass.
    pub fn var(&self, id: ParamId) -> Option<VarId> {
        self.vars[id.0]
    }

    /// Iterates `(flat parameter index, VarId)` for every bound parameter.
    pub fn bound(&self) -> impl Iterator<Item = (usize, VarId)> + '_ {
        self.vars
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut p = Params::new();
        let id = p.register("conv1.w", Tensor::zeros(&[2, 3]));
        assert_eq!(p.len(), 1);
        assert_eq!(p.num_scalars(), 6);
        assert_eq!(p.name(id), "conv1.w");
        assert_eq!(p.find("conv1.w"), Some(id));
        assert_eq!(p.find("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut p = Params::new();
        p.register("w", Tensor::zeros(&[1]));
        p.register("w", Tensor::zeros(&[1]));
    }

    #[test]
    fn assign_checks_shape() {
        let mut p = Params::new();
        p.register("w", Tensor::zeros(&[2]));
        assert!(p.assign("w", Tensor::ones(&[2])));
        assert_eq!(p.get(p.find("w").unwrap()).as_slice(), &[1.0, 1.0]);
        assert!(!p.assign("w", Tensor::ones(&[3])));
        assert!(!p.assign("missing", Tensor::ones(&[2])));
    }

    #[test]
    fn bind_caches_and_respects_trainability() {
        let mut p = Params::new();
        let id = p.register("w", Tensor::ones(&[2]));
        let mut tape = Tape::new();

        let mut b = p.binding();
        let v1 = p.bind(&mut tape, &mut b, id);
        let v2 = p.bind(&mut tape, &mut b, id);
        assert_eq!(v1, v2);
        assert!(tape.requires_grad(v1));

        let mut frozen = p.frozen_binding();
        let vf = p.bind(&mut tape, &mut frozen, id);
        assert!(!tape.requires_grad(vf));
    }

    #[test]
    fn bound_iterates_only_bound() {
        let mut p = Params::new();
        let a = p.register("a", Tensor::ones(&[1]));
        let _b = p.register("b", Tensor::ones(&[1]));
        let mut tape = Tape::new();
        let mut binding = p.binding();
        p.bind(&mut tape, &mut binding, a);
        let bound: Vec<_> = binding.bound().collect();
        assert_eq!(bound.len(), 1);
        assert_eq!(bound[0].0, 0);
    }
}
