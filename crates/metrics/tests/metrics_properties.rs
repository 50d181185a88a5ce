//! Property suite for the metrics layer — the algebra the resume path
//! leans on. Every total is exact integer arithmetic, so:
//!
//! - counters are monotonic under any add sequence and saturate at
//!   `u64::MAX` instead of wrapping;
//! - a snapshot → JSON → restore round trip is the identity, which is
//!   what makes metrics continue exactly across a kill/resume;
//! - observing is order-independent: any permutation of the same
//!   samples yields the same histogram.

use a4nn_metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use proptest::prelude::*;

fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![0u64..10_000, Just(u64::MAX), Just(u64::MAX - 1)],
        0..40,
    )
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new(vec![10, 100, 1000, 100_000]).unwrap();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Observing is order-independent: a permutation of the same samples
    /// yields the same histogram.
    #[test]
    fn observation_order_does_not_matter(values in samples()) {
        let mut reversed = values.clone();
        reversed.reverse();
        prop_assert_eq!(histogram_of(&values), histogram_of(&reversed));
    }

    /// Counters never decrease under any add sequence, and saturate.
    #[test]
    fn counter_is_monotonic_and_saturating(
        adds in proptest::collection::vec(
            prop_oneof![0u64..1_000, Just(u64::MAX / 2), Just(u64::MAX)],
            0..24,
        ),
    ) {
        let mut c = Counter::new();
        let mut prev = c.get();
        for &n in &adds {
            c.add(n);
            prop_assert!(c.get() >= prev, "counter moved backwards");
            prev = c.get();
        }
        let exact: u128 = adds.iter().map(|&n| n as u128).sum();
        if exact <= u64::MAX as u128 {
            prop_assert_eq!(c.get(), exact as u64);
        } else {
            prop_assert_eq!(c.get(), u64::MAX, "overflow must pin to u64::MAX");
        }
    }

    /// Snapshot → JSON → restore is the identity for any registry
    /// contents, and the restored registry keeps counting from there.
    #[test]
    fn snapshot_restore_roundtrip_identity(
        counts in proptest::collection::vec(0u64..1_000_000, 1..6),
        obs in samples(),
    ) {
        let reg = MetricsRegistry::new();
        for (i, &n) in counts.iter().enumerate() {
            reg.add(&format!("counter_{i}"), n);
        }
        for &v in &obs {
            reg.observe("latency_us", v);
        }
        let snap = reg.snapshot();
        let bytes = snap.to_json().unwrap();
        let restored = MetricsSnapshot::from_json(&bytes).unwrap();
        prop_assert_eq!(&restored, &snap);
        // Restored registries continue exactly where the snapshot left off.
        let resumed = MetricsRegistry::from_snapshot(restored);
        resumed.add("counter_0", 1);
        prop_assert_eq!(
            resumed.snapshot().counter("counter_0"),
            snap.counter("counter_0").saturating_add(1)
        );
    }

    /// Histogram totals saturate at `u64::MAX`: observing near-MAX
    /// values repeatedly pins `sum` to the ceiling without wrapping.
    #[test]
    fn histogram_sum_saturates(reps in 2usize..6) {
        let mut h = Histogram::new(vec![1_000]).unwrap();
        for _ in 0..reps {
            h.observe(u64::MAX - 1);
        }
        prop_assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
        prop_assert_eq!(h.count(), reps as u64);
        prop_assert_eq!(h.max(), Some(u64::MAX - 1));
    }
}
