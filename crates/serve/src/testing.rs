//! Fixtures shared by the unit tests.

use membit_tensor::{Rng, Tensor};
use membit_xbar::{GuardPolicy, XbarConfig};

use crate::model::LinearServeModel;

/// A guarded 2×3 crossbar layer behind a 4-pulse PLA code, programmed
/// from `seed`.
pub(crate) fn model(seed: u64) -> LinearServeModel {
    let w = Tensor::from_fn(&[2, 3], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
    let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
    LinearServeModel::program(&w, &cfg, 9, 4, &mut Rng::from_seed(seed)).unwrap()
}

/// `n` such layers, programmed from `seed`, `seed + 1`, ….
pub(crate) fn models(n: usize, seed: u64) -> Vec<LinearServeModel> {
    (0..n).map(|i| model(seed.wrapping_add(i as u64))).collect()
}

/// Request payload `i`: three values on the half-step grid of `[-1, 1]`.
pub(crate) fn payload(i: usize) -> Vec<f32> {
    (0..3)
        .map(|j| (((i * 3 + j) % 5) as f32 / 2.0 - 1.0).clamp(-1.0, 1.0))
        .collect()
}
