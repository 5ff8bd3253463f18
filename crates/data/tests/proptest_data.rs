//! Property-based tests for the dataset crate: determinism, bounds,
//! label/batch invariants, and shuffle preservation.

use membit_data::{synth_cifar, Dataset, SynthCifarConfig};
use membit_tensor::{Rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synth_cifar_deterministic_and_bounded(seed in 0u64..1000) {
        let cfg = SynthCifarConfig::tiny();
        let (a_train, a_test) = synth_cifar(&cfg, seed).unwrap();
        let (b_train, b_test) = synth_cifar(&cfg, seed).unwrap();
        prop_assert_eq!(&a_train, &b_train);
        prop_assert_eq!(&a_test, &b_test);
        prop_assert!(a_train.images().max() <= 1.0);
        prop_assert!(a_train.images().min() >= -1.0);
    }

    #[test]
    fn class_histogram_balanced(seed in 0u64..200, per_class in 2usize..10) {
        let mut cfg = SynthCifarConfig::tiny();
        cfg.train_per_class = per_class;
        let (train, _) = synth_cifar(&cfg, seed).unwrap();
        prop_assert_eq!(train.class_histogram(), vec![per_class; cfg.num_classes]);
    }

    #[test]
    fn batches_partition_dataset(seed in 0u64..200, batch in 1usize..30) {
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), seed).unwrap();
        let mut total = 0usize;
        let mut seen_labels = Vec::new();
        for (images, labels) in train.batches(batch).unwrap() {
            prop_assert_eq!(images.shape()[0], labels.len());
            prop_assert!(labels.len() <= batch);
            total += labels.len();
            seen_labels.extend(labels);
        }
        prop_assert_eq!(total, train.len());
        let mut sorted_seen = seen_labels;
        sorted_seen.sort_unstable();
        let mut sorted_orig = train.labels().to_vec();
        sorted_orig.sort_unstable();
        prop_assert_eq!(sorted_seen, sorted_orig);
    }

    #[test]
    fn shuffle_preserves_multiset(seed in 0u64..500, shuffle_seed in 0u64..500) {
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), seed).unwrap();
        let mut rng = Rng::from_seed(shuffle_seed);
        let shuffled = train.shuffled(&mut rng);
        prop_assert_eq!(shuffled.len(), train.len());
        prop_assert_eq!(shuffled.class_histogram(), train.class_histogram());
        // total pixel mass preserved
        prop_assert!((shuffled.images().sum() - train.images().sum()).abs() < 1e-1);
    }

    #[test]
    fn dataset_rejects_inconsistent_labels(n in 1usize..6, k in 1usize..4) {
        let images = Tensor::zeros(&[n, 1, 2, 2]);
        // a label equal to num_classes is out of range
        let mut labels = vec![0usize; n];
        labels[n - 1] = k;
        prop_assert!(Dataset::new(images, labels, k).is_err());
    }

    #[test]
    fn train_test_disjoint_noise(seed in 0u64..200) {
        let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), seed).unwrap();
        // identical prototypes, different draws: first images differ
        let a = &train.images().as_slice()[..32];
        let b = &test.images().as_slice()[..32];
        prop_assert_ne!(a, b);
    }
}
