//! Property-based tests for the discrete-event primitives.

mod heap_reference;

use heap_reference::HeapReadyQueue;
use numa_sim::{
    BarrierOutcome, BarrierState, Resource, SimTime, Splitmix64, TournamentTree, Trace,
    TraceEventKind,
};
use proptest::prelude::*;

fn fault_kind(page: u64) -> TraceEventKind {
    TraceEventKind::PageFault {
        page,
        node: 0,
        write: false,
        migrated: false,
        dur_ns: 1,
    }
}

proptest! {
    /// Resource FIFO semantics: for requests issued in nondecreasing
    /// time order, every acquisition starts no earlier than requested,
    /// never overlaps the previous one, and total busy time equals the
    /// sum of service times.
    #[test]
    fn resource_fifo_invariants(
        reqs in proptest::collection::vec((0u64..1000, 1u64..100), 1..50)
    ) {
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let mut r = Resource::new("r");
        let mut prev_end = SimTime::ZERO;
        let mut total_svc = 0u64;
        for (t, svc) in sorted {
            let a = r.acquire(SimTime(t), svc);
            prop_assert!(a.start >= SimTime(t));
            prop_assert!(a.start >= prev_end, "no overlap");
            prop_assert_eq!(a.end, a.start + svc);
            prop_assert_eq!(a.wait_ns, a.start.since(SimTime(t)));
            prev_end = a.end;
            total_svc += svc;
        }
        prop_assert_eq!(r.total_busy_ns(), total_svc);
    }

    /// The wait time of a request equals exactly the unfinished service
    /// ahead of it (work conservation for same-instant bursts).
    #[test]
    fn resource_burst_wait(svcs in proptest::collection::vec(1u64..50, 1..20)) {
        let mut r = Resource::new("r");
        let mut ahead = 0u64;
        for svc in svcs {
            let a = r.acquire(SimTime::ZERO, svc);
            prop_assert_eq!(a.wait_ns, ahead);
            ahead += svc;
        }
    }

    /// The tree is a stable priority queue: pops come out sorted by
    /// time, and equal times preserve keying order.
    #[test]
    fn ready_queue_stable_sort(items in proptest::collection::vec(0u64..20, 1..100)) {
        let mut q = TournamentTree::new(items.len());
        for (i, t) in items.iter().enumerate() {
            q.set(i, SimTime(*t));
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time order");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO among equal times");
                }
            }
            prop_assert_eq!(SimTime(items[idx]), t, "payload matches its key");
            last = Some((t, idx));
            count += 1;
        }
        prop_assert_eq!(count, items.len());
    }

    /// Lockstep equivalence of the [`TournamentTree`] against the
    /// [`HeapReadyQueue`] reference model over random set/re-key/remove/
    /// pop sequences on 1–64 slots, powers of two or not. Times mix dense
    /// same-instant ties (the FIFO ticket decides), small and wide
    /// spreads, a far-future cluster and the saturated `SimTime(u64::MAX)`.
    /// Peeks must match slot and time at every step, pops pair for pair.
    #[test]
    fn tournament_tree_lockstep_with_heap_reference(
        slots in 1usize..65,
        ops in proptest::collection::vec((0u64..10, 0usize..64, 0u64..12, 0u64..200_000), 1..300)
    ) {
        // The compat proptest has no `prop_oneof`: map each raw draw
        // onto an operation and a time regime.
        let time_of = |regime: u64, raw: u64| -> u64 {
            match regime {
                0..=3 => raw % 6,
                4..=7 => raw % 2_000,
                8 | 9 => raw,
                10 => (1u64 << 40) + raw % 50,
                _ => u64::MAX,
            }
        };
        let mut tree = TournamentTree::new(slots);
        let mut heap = HeapReadyQueue::new();
        for (op, slot, regime, raw) in ops {
            let slot = slot % slots;
            match op {
                // Insert or re-key: the newest ticket on both sides.
                0..=5 => {
                    let t = SimTime(time_of(regime, raw));
                    tree.set(slot, t);
                    heap.remove(&slot);
                    heap.push(t, slot);
                }
                6 => {
                    tree.remove(slot);
                    heap.remove(&slot);
                }
                _ => prop_assert_eq!(tree.pop(), heap.pop()),
            }
            prop_assert_eq!(tree.peek(), heap.peek().map(|(t, &s)| (t, s)));
            prop_assert_eq!(tree.len(), heap.len());
            prop_assert_eq!(tree.is_empty(), heap.is_empty());
        }
        while let Some(expect) = heap.pop() {
            prop_assert_eq!(tree.pop(), Some(expect));
        }
        prop_assert_eq!(tree.pop(), None);
    }

    /// A barrier of size n releases exactly once per episode, at the max
    /// arrival time, naming every earlier arriver.
    #[test]
    fn barrier_release_complete(
        n in 1usize..10,
        times in proptest::collection::vec(0u64..1000, 10)
    ) {
        let mut b = BarrierState::new(n);
        let mut released = false;
        for tid in 0..n {
            match b.arrive(tid, SimTime(times[tid])) {
                BarrierOutcome::Wait => prop_assert!(tid + 1 < n, "only last releases"),
                BarrierOutcome::Release { release_at, waiters } => {
                    prop_assert_eq!(tid + 1, n);
                    let max = times[..n].iter().copied().max().unwrap();
                    prop_assert_eq!(release_at, SimTime(max));
                    let mut w = waiters;
                    w.sort();
                    prop_assert_eq!(w, (0..n - 1).collect::<Vec<_>>());
                    released = true;
                }
            }
        }
        prop_assert!(released);
        prop_assert_eq!(b.episodes(), 1);
    }

    /// Splitmix64 is a pure function of its seed: identical streams, and
    /// `below(b)` stays in range while hitting more than one residue for
    /// non-trivial bounds.
    #[test]
    fn rng_determinism_and_range(seed in any::<u64>(), bound in 2u64..1000) {
        let mut a = Splitmix64::new(seed);
        let mut b = Splitmix64::new(seed);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let x = a.below(bound);
            prop_assert_eq!(x, b.below(bound));
            prop_assert!(x < bound);
            seen.insert(x);
        }
        prop_assert!(seen.len() > 1, "200 draws from [0,{bound}) hit one value");
    }

    /// Shuffle is a permutation for any content.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), mut v in proptest::collection::vec(any::<u32>(), 0..100)) {
        let mut expected = v.clone();
        expected.sort_unstable();
        Splitmix64::new(seed).shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, expected);
    }

    /// Trace bounded-buffer invariant: at every step `len() <= capacity`,
    /// and `dropped` counts exactly the events that fell out of the ring.
    #[test]
    fn trace_bounded_buffer(capacity in 0usize..16, n in 0u64..100) {
        let t = Trace::with_capacity(capacity);
        for i in 0..n {
            t.record(SimTime(i), fault_kind(i));
            prop_assert!(t.len() <= capacity);
            prop_assert_eq!(t.len() as u64 + t.dropped(), i + 1);
        }
        prop_assert_eq!(t.len(), (n as usize).min(capacity));
        prop_assert_eq!(t.dropped(), n - t.len() as u64);
        // The retained events are exactly the most recent ones, in order.
        let pages: Vec<u64> = t.snapshot().iter().map(|e| match e.kind {
            TraceEventKind::PageFault { page, .. } => page,
            _ => unreachable!(),
        }).collect();
        let expected: Vec<u64> = (n - t.len() as u64..n).collect();
        prop_assert_eq!(pages, expected);
    }

    /// Under any mix of FIFO acquisitions and externally-synchronised
    /// occupations, accounted busy time never exceeds the busy horizon —
    /// i.e. `utilisation(busy_until) <= 1.0`.
    #[test]
    fn resource_utilisation_at_most_one(
        steps in proptest::collection::vec(
            (any::<bool>(), 0u64..1000, 0u64..100), 1..60)
    ) {
        let mut r = Resource::new("r");
        for (is_occupy, t, svc) in steps {
            if is_occupy {
                r.occupy(SimTime(t), svc);
            } else {
                r.acquire(SimTime(t), svc);
            }
            prop_assert!(r.total_busy_ns() <= r.busy_until().ns());
            if r.busy_until().ns() > 0 {
                prop_assert!(r.utilisation(r.busy_until()) <= 1.0);
            }
        }
    }

    /// SimTime arithmetic never panics and saturates instead of wrapping.
    #[test]
    fn simtime_saturates(a in any::<u64>(), b in any::<u64>()) {
        let t = SimTime(a) + b;
        prop_assert!(t.ns() >= a || t.ns() == u64::MAX);
        prop_assert_eq!(SimTime(a).since(SimTime(b)), a.saturating_sub(b));
    }
}
