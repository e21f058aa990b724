//! Property-based tests for the discrete-event primitives.

mod heap_reference;

use heap_reference::HeapReadyQueue;
use numa_sim::{
    BarrierOutcome, BarrierState, ReadyQueue, Resource, SimTime, Splitmix64, Trace, TraceEventKind,
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

    /// ReadyQueue is a stable priority queue: pops come out sorted by
    /// time, and equal times preserve insertion order.
    #[test]
    fn ready_queue_stable_sort(items in proptest::collection::vec(0u64..20, 1..100)) {
        let mut q = ReadyQueue::new();
        for (i, t) in items.iter().enumerate() {
            q.push(SimTime(*t), i);
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

    /// ReadyQueue's observable behaviour is independent of its initial
    /// capacity and survives reuse (interleaved push/pop, the engine's
    /// once-per-micro-op pattern): every step of an arbitrary op sequence
    /// produces identical pops, peeks, and lengths on a `new()` queue, a
    /// zero-capacity queue, and an over-provisioned one — and matches a
    /// stable-sort model, so FIFO tie-breaking holds across drains.
    #[test]
    fn ready_queue_capacity_and_reuse_invariant(
        cap in 0usize..32,
        ops in proptest::collection::vec(proptest::option::weighted(0.6, 0u64..10), 1..200)
    ) {
        let mut plain = ReadyQueue::new();
        let mut zero = ReadyQueue::with_capacity(0);
        let mut sized = ReadyQueue::with_capacity(cap);
        // Model: a vec of (time, seq) pairs, popped by min time then min seq.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for op in ops {
            match op {
                Some(t) => {
                    plain.push(SimTime(t), seq);
                    zero.push(SimTime(t), seq);
                    sized.push(SimTime(t), seq);
                    model.push((t, seq));
                    seq += 1;
                }
                None => {
                    let want = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, s))| (t, s))
                        .map(|(i, _)| i);
                    let expect = want.map(|i| model.remove(i));
                    let got = plain.pop();
                    prop_assert_eq!(got, zero.pop());
                    prop_assert_eq!(got, sized.pop());
                    prop_assert_eq!(got, expect.map(|(t, s)| (SimTime(t), s)));
                }
            }
            let head = model.iter().map(|&(t, _)| t).min().map(SimTime);
            prop_assert_eq!(plain.peek_time(), head);
            prop_assert_eq!(zero.peek_time(), head);
            prop_assert_eq!(sized.peek_time(), head);
            prop_assert_eq!(plain.len(), model.len());
            prop_assert_eq!(plain.is_empty(), model.is_empty());
        }
    }

    /// Lockstep equivalence of the calendar [`ReadyQueue`] against the
    /// [`HeapReadyQueue`] reference model over random push/pop
    /// interleavings. The time generator deliberately mixes three
    /// regimes: dense small times (same-instant FIFO ties land in one
    /// calendar bucket), mid-range times (cursor advances across bucket
    /// years), and far-future times (events park on the overflow rung
    /// and must migrate back in exact order). Pops must match pair for
    /// pair — time AND payload — at every step, as must peeks/lengths.
    #[test]
    fn calendar_queue_lockstep_with_heap_reference(
        ops in proptest::collection::vec(
            proptest::option::weighted(0.65, (0u64..12, 0u64..200_000)),
            1..300,
        )
    ) {
        // Map each pushed (regime, raw) pair onto one of the five time
        // regimes (the compat proptest has no `prop_oneof`).
        let time_of = |regime: u64, raw: u64| -> u64 {
            match regime {
                0..=3 => raw % 6,                  // same-instant ties
                4..=7 => raw % 2_000,              // intra-ring days
                8 | 9 => raw,                      // multi-year advance
                10 => (1u64 << 40) + raw % 50,     // deep overflow rung
                _ => u64::MAX,                     // saturated SimTime
            }
        };
        let mut cal = ReadyQueue::new();
        let mut heap = HeapReadyQueue::new();
        let mut seq = 0usize;
        for op in ops {
            match op {
                Some((regime, raw)) => {
                    let t = time_of(regime, raw);
                    cal.push(SimTime(t), seq);
                    heap.push(SimTime(t), seq);
                    seq += 1;
                }
                None => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.is_empty(), heap.is_empty());
        }
        // Drain: the full remaining pop sequences must coincide.
        while let Some(expect) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(expect));
        }
        prop_assert_eq!(cal.pop(), None);
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
