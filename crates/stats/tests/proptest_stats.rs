//! Property-based tests for the instrumentation primitives.

use numa_stats::{Breakdown, CostComponent, Counter, Counters};
use proptest::prelude::*;

fn component(i: u8) -> CostComponent {
    CostComponent::ALL[i as usize % CostComponent::ALL.len()]
}

proptest! {
    /// Breakdown totals equal the sum of adds; percentages sum to ~100
    /// whenever anything was recorded.
    #[test]
    fn breakdown_totals(adds in proptest::collection::vec((0u8..16, 0u64..1_000_000), 1..60)) {
        let mut b = Breakdown::new();
        let mut sum = 0u64;
        for (c, ns) in &adds {
            b.add(component(*c), *ns);
            sum += ns;
        }
        prop_assert_eq!(b.total(), sum);
        if sum > 0 {
            let pct: f64 = CostComponent::ALL.iter().map(|c| b.percent(*c)).sum();
            prop_assert!((pct - 100.0).abs() < 1e-6, "percent sum {pct}");
        }
    }

    /// merge(a, b) == element-wise addition, and is commutative.
    #[test]
    fn breakdown_merge_commutes(
        xs in proptest::collection::vec((0u8..16, 0u64..100_000), 0..30),
        ys in proptest::collection::vec((0u8..16, 0u64..100_000), 0..30),
    ) {
        let build = |items: &[(u8, u64)]| {
            let mut b = Breakdown::new();
            for (c, ns) in items {
                b.add(component(*c), *ns);
            }
            b
        };
        let (a, b) = (build(&xs), build(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        for c in CostComponent::ALL {
            prop_assert_eq!(ab.get(c), a.get(c) + b.get(c));
        }
    }

    /// Counters: merge is addition; clear resets; iteration order stable.
    #[test]
    fn counters_merge_adds(
        xs in proptest::collection::vec(0u64..1000, 1..20),
        ys in proptest::collection::vec(0u64..1000, 1..20),
    ) {
        let keys = [
            Counter::FirstTouchFaults,
            Counter::NextTouchFaults,
            Counter::PagesMovedSyscall,
            Counter::TlbShootdowns,
            Counter::CacheHits,
        ];
        let build = |vals: &[u64]| {
            let mut c = Counters::new();
            for (i, v) in vals.iter().enumerate() {
                c.add(keys[i % keys.len()], *v);
            }
            c
        };
        let (a, b) = (build(&xs), build(&ys));
        let mut m = a.clone();
        m.merge(&b);
        for k in keys {
            prop_assert_eq!(m.get(k), a.get(k) + b.get(k));
        }
        let mut cleared = m.clone();
        cleared.clear();
        for k in keys {
            prop_assert_eq!(cleared.get(k), 0);
        }
    }

    /// mb_per_s is scale-invariant: same ratio, same rate.
    #[test]
    fn mbps_scale_invariant(bytes in 1u64..1_000_000, ns in 1u64..1_000_000, k in 1u64..50) {
        let a = numa_stats::mb_per_s(bytes, ns);
        let b = numa_stats::mb_per_s(bytes * k, ns * k);
        prop_assert!((a - b).abs() < a.abs() * 1e-9 + 1e-9);
    }
}
