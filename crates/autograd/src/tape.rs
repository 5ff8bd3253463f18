//! The tape: forward node storage and the reverse-order gradient walk.

use membit_tensor::{Tensor, TensorError};

use crate::op::Op;
use crate::Result;

/// Opaque handle to a value recorded on a [`Tape`].
///
/// Handles are only meaningful for the tape that created them; using a
/// handle with another tape panics on the out-of-range index (or silently
/// refers to an unrelated node of the same index — don't mix tapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// One recorded value.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub value: Tensor,
    pub requires_grad: bool,
    pub op: Op,
}

/// A gradient tape: forward values plus enough saved state to run reverse-
/// mode differentiation.
///
/// Typical training usage builds a fresh tape per minibatch (define-by-run)
/// or calls [`Tape::reset`] to reuse the allocation.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    /// Recycled im2col buffers for [`conv2d`](Tape::conv2d): `reset()`
    /// reclaims the column matrices saved on `Op::Conv2d` nodes so a
    /// tape reused across minibatches stops reallocating its largest
    /// scratch (the lowered patches dwarf every activation).
    col_scratch: Vec<Vec<f32>>,
}

/// Upper bound on pooled im2col buffers — more conv layers than this per
/// graph simply fall back to fresh allocations.
const COL_SCRATCH_MAX: usize = 16;

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Clears all nodes and gradients, keeping allocations — including
    /// the im2col column buffers of recorded convolutions, which are
    /// moved back into the scratch pool for the next forward pass.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if self.col_scratch.len() >= COL_SCRATCH_MAX {
                break;
            }
            if let Op::Conv2d { cols, .. } = node.op {
                self.col_scratch.push(cols.into_vec());
            }
        }
        self.nodes.clear();
        self.grads.clear();
    }

    /// Takes a recycled im2col buffer (empty `Vec` when the pool is dry).
    pub(crate) fn take_col_buffer(&mut self) -> Vec<f32> {
        self.col_scratch.pop().unwrap_or_default()
    }

    /// Records an input or parameter.
    ///
    /// `requires_grad` marks whether gradients should flow *into* this node
    /// (and transitively through ops consuming it).
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> VarId {
        self.push(value, requires_grad, Op::Leaf)
    }

    /// Records a constant (a leaf that never receives gradient).
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.leaf(value, false)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: VarId) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of `v`, if backward has reached it.
    pub fn grad(&self, v: VarId) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Whether gradient flows into `v`.
    pub fn requires_grad(&self, v: VarId) -> bool {
        self.nodes[v.0].requires_grad
    }

    pub(crate) fn push(&mut self, value: Tensor, requires_grad: bool, op: Op) -> VarId {
        self.nodes.push(Node {
            value,
            requires_grad,
            op,
        });
        self.grads.push(None);
        VarId(self.nodes.len() - 1)
    }

    /// Records `op` producing `value`, inheriting `requires_grad` from the
    /// op's parents.
    pub(crate) fn push_op(&mut self, value: Tensor, op: Op) -> VarId {
        let requires = op.parents().iter().any(|p| self.nodes[p.0].requires_grad);
        self.push(value, requires, op)
    }

    /// Runs reverse-mode differentiation from `root`, which must hold a
    /// single element (a scalar loss).
    ///
    /// Intermediate gradients live in a scratch buffer for the duration of
    /// the walk; only **leaf** gradients are retained (and accumulate
    /// across repeated `backward` calls, PyTorch-style).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `root` is not a
    /// one-element tensor, or propagates shape errors from backward rules
    /// (which indicate an internal bug).
    pub fn backward(&mut self, root: VarId) -> Result<()> {
        if self.nodes[root.0].value.len() != 1 {
            return Err(TensorError::InvalidArgument(format!(
                "backward root must be scalar, shape was {:?}",
                self.nodes[root.0].value.shape()
            )));
        }
        let mut scratch: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        scratch[root.0] = Some(Tensor::scalar(1.0).reshape(self.nodes[root.0].value.shape())?);
        for i in (0..=root.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(grad) = scratch[i].take() else {
                continue;
            };
            if matches!(self.nodes[i].op, Op::Leaf) {
                match &mut self.grads[i] {
                    Some(g) => g.axpy(1.0, &grad)?,
                    slot => *slot = Some(grad),
                }
                continue;
            }
            let contributions = {
                let node = &self.nodes[i];
                node.op.backward(&node.value, &grad, &self.nodes)?
            };
            for (parent, contrib) in contributions {
                if !self.nodes[parent.0].requires_grad {
                    continue;
                }
                match &mut scratch[parent.0] {
                    Some(g) => g.axpy(1.0, &contrib)?,
                    slot => *slot = Some(contrib),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_flags() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(1.0), true);
        let c = tape.constant(Tensor::scalar(2.0));
        assert!(tape.requires_grad(a));
        assert!(!tape.requires_grad(c));
        assert_eq!(tape.value(c).item(), 2.0);
    }

    #[test]
    fn backward_on_nonscalar_errors() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::zeros(&[3]), true);
        assert!(tape.backward(a).is_err());
    }

    #[test]
    fn chain_rule_through_two_ops() {
        // z = (x + x) * x = 2x² ⇒ dz/dx = 4x
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0), true);
        let s = tape.add(x, x).unwrap();
        let z = tape.mul(s, x).unwrap();
        tape.backward(z).unwrap();
        assert_eq!(tape.grad(x).unwrap().item(), 12.0);
    }

    #[test]
    fn constants_do_not_accumulate_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0), true);
        let c = tape.constant(Tensor::scalar(5.0));
        let z = tape.mul(x, c).unwrap();
        tape.backward(z).unwrap();
        assert_eq!(tape.grad(x).unwrap().item(), 5.0);
        assert!(tape.grad(c).is_none());
    }

    #[test]
    fn grad_accumulates_across_backward_calls() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(2.0), true);
        let z = tape.mul(x, x).unwrap();
        tape.backward(z).unwrap();
        tape.backward(z).unwrap();
        assert_eq!(tape.grad(x).unwrap().item(), 8.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut tape = Tape::new();
        tape.leaf(Tensor::scalar(1.0), true);
        assert_eq!(tape.len(), 1);
        tape.reset();
        assert_eq!(tape.len(), 0);
    }

    #[test]
    fn diamond_graph_sums_paths() {
        // z = x·x + x·x ⇒ dz/dx = 4x
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(3.0), true);
        let a = tape.mul(x, x).unwrap();
        let b = tape.mul(x, x).unwrap();
        let z = tape.add(a, b).unwrap();
        tape.backward(z).unwrap();
        assert_eq!(tape.grad(x).unwrap().item(), 12.0);
    }
}
