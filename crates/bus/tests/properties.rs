//! Property tests for the bus core: per-publisher FIFO and lossless
//! delivery under every capacity/policy combination.

use a4nn_bus::{Policy, Topic};
use proptest::prelude::*;

fn policy(idx: usize, capacity: usize) -> Policy {
    match idx {
        0 => Policy::Block { capacity },
        _ => Policy::Unbounded,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn per_publisher_fifo_under_every_policy(
        publishers in 1usize..=4,
        per_publisher in 1usize..=24,
        policy_idx in 0usize..2,
        capacity in 1usize..=8,
    ) {
        let topic: Topic<(usize, usize)> = Topic::new("prop");
        let sub = topic.subscribe(policy(policy_idx, capacity));
        // Concurrent consumer, so `Block` publishers always drain.
        let consumer = std::thread::spawn(move || {
            let mut seen: Vec<(usize, usize)> = Vec::new();
            while let Ok(event) = sub.recv() {
                seen.push(event);
            }
            seen
        });
        let handles: Vec<_> = (0..publishers)
            .map(|p| {
                let topic = topic.clone();
                std::thread::spawn(move || {
                    for s in 0..per_publisher {
                        topic.publish((p, s)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        topic.close();
        let seen = consumer.join().unwrap();

        // Any one publisher's events arrive in publish order.
        let mut last: Vec<Option<usize>> = vec![None; publishers];
        for (p, s) in &seen {
            if let Some(prev) = last[*p] {
                prop_assert!(*s > prev, "publisher {} reordered: {} after {}", p, s, prev);
            }
            last[*p] = Some(*s);
        }
        // Both policies are lossless: every event is delivered.
        prop_assert_eq!(seen.len(), publishers * per_publisher);
    }
}
