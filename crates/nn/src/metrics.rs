//! Classification metrics.

use membit_tensor::Tensor;

use crate::Result;

/// Fraction of rows of `logits` (`[N, K]`) whose argmax equals the label.
///
/// # Errors
///
/// Propagates a rank error for non-matrix logits.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let preds = logits.argmax_rows()?;
    assert_eq!(preds.len(), labels.len(), "label count mismatch");
    if labels.is_empty() {
        return Ok(0.0);
    }
    let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
    Ok(correct as f32 / labels.len() as f32)
}

/// `K×K` confusion matrix (`rows = true class`, `cols = predicted`).
///
/// # Errors
///
/// Propagates a rank error for non-matrix logits.
///
/// # Panics
///
/// Panics on a label-count mismatch or an out-of-range label.
pub fn confusion_matrix(
    logits: &Tensor,
    labels: &[usize],
    num_classes: usize,
) -> Result<Vec<Vec<usize>>> {
    let preds = logits.argmax_rows()?;
    assert_eq!(preds.len(), labels.len(), "label count mismatch");
    let mut m = vec![vec![0usize; num_classes]; num_classes];
    for (&p, &y) in preds.iter().zip(labels) {
        assert!(y < num_classes, "label {y} out of range");
        if p < num_classes {
            m[y][p] += 1;
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 1]).unwrap(), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 0]).unwrap(), 1.0);
    }

    #[test]
    fn empty_batch_is_zero() {
        let logits = Tensor::zeros(&[0, 3]);
        assert_eq!(accuracy(&logits, &[]).unwrap(), 0.0);
    }

    #[test]
    fn confusion_matrix_diagonal() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let m = confusion_matrix(&logits, &[0, 1], 2).unwrap();
        assert_eq!(m, vec![vec![1, 0], vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "label count mismatch")]
    fn mismatched_labels_panic() {
        let logits = Tensor::zeros(&[2, 2]);
        let _ = accuracy(&logits, &[0]);
    }
}
