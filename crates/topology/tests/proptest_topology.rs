//! Property-based tests for topology routing and the cost model.

use numa_topology::{round_ns, CoreSpec, CostModel, Link, NodeId, NodeSpec, Topology};
use proptest::prelude::*;

/// Build a random connected machine: a spanning path plus random extra
/// links.
fn random_machine(n: usize, extra: &[(usize, usize)]) -> Topology {
    let nodes = vec![NodeSpec::opteron_8347he(); n];
    let cores: Vec<CoreSpec> = (0..n)
        .map(|i| CoreSpec::opteron_8347he(NodeId(i as u16)))
        .collect();
    let mut links: Vec<Link> = (1..n)
        .map(|i| Link::hypertransport(NodeId((i - 1) as u16), NodeId(i as u16)))
        .collect();
    for (a, b) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            links.push(Link::hypertransport(NodeId(a as u16), NodeId(b as u16)));
        }
    }
    Topology::new(nodes, cores, links, CostModel::default()).expect("connected by construction")
}

/// One Splitmix64 step: a full-period stream of raw 64-bit patterns.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    /// On any connected machine: routes exist between all pairs, are
    /// symmetric in length, form valid link paths, and satisfy the
    /// triangle inequality.
    #[test]
    fn routing_invariants(
        n in 2usize..10,
        extra in proptest::collection::vec((0usize..10, 0usize..10), 0..8),
    ) {
        let t = random_machine(n, &extra);
        for a in t.node_ids() {
            for b in t.node_ids() {
                let hops = t.hops(a, b);
                prop_assert_eq!(hops, t.hops(b, a), "symmetric distance");
                prop_assert_eq!(t.route(a, b).len() as u32, hops);
                if a == b {
                    prop_assert_eq!(hops, 0);
                } else {
                    prop_assert!(hops >= 1);
                }
                // The route is a contiguous link path from a to b.
                let mut at = a;
                for l in t.route(a, b) {
                    at = t.link(*l).other_end(at).expect("path continuity");
                }
                prop_assert_eq!(at, b);
                // Triangle inequality through every intermediate node.
                for c in t.node_ids() {
                    prop_assert!(t.hops(a, b) <= t.hops(a, c) + t.hops(c, b));
                }
            }
        }
    }

    /// The NUMA factor is 1.0 locally and non-decreasing in hop count.
    #[test]
    fn numa_factor_monotone(hops in proptest::collection::vec(0u32..20, 2..10)) {
        let c = CostModel::default();
        prop_assert_eq!(c.numa_factor(0), 1.0);
        let mut sorted = hops.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            prop_assert!(c.numa_factor(w[0]) <= c.numa_factor(w[1]));
        }
    }

    /// Copy-time helpers are linear in bytes.
    #[test]
    fn copy_times_linear(bytes in 1u64..10_000_000) {
        let c = CostModel::default();
        let one = c.kernel_copy_ns(bytes) as f64;
        let two = c.kernel_copy_ns(2 * bytes) as f64;
        prop_assert!((two - 2.0 * one).abs() <= 2.0, "{one} vs {two}");
        prop_assert!(c.user_copy_ns(bytes) < c.kernel_copy_ns(bytes));
    }

    /// pages_for is the exact ceiling division.
    #[test]
    fn pages_for_ceiling(bytes in 0u64..100_000_000) {
        let c = CostModel::default();
        let pages = c.pages_for(bytes);
        prop_assert!(pages * c.page_size >= bytes);
        if pages > 0 {
            prop_assert!((pages - 1) * c.page_size < bytes);
        }
    }

    /// `round_ns` is `x.round() as u64` on every input: raw bit patterns
    /// (NaNs, infinities, subnormals, negatives, values past 2^64), their
    /// exponent-shifted neighbours, and halves and near-halves in the
    /// range the cost model produces — 4,096 inputs per case.
    #[test]
    fn round_ns_matches_round_on_random_bits(mut seed in any::<u64>()) {
        for _ in 0..1024 {
            let bits = splitmix64(&mut seed);
            let small = (bits >> 40) as f64;
            for x in [f64::from_bits(bits), f64::from_bits(bits >> 2), small / 2.0, small / 2.0 - 1e-9] {
                prop_assert_eq!(round_ns(x), x.round() as u64, "x = {:e}", x);
            }
        }
    }
}
