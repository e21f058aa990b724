//! The original `BinaryHeap` run queue, kept as the executable reference
//! model the [`TournamentTree`] is lockstep-tested against.
//!
//! It orders by the identical `(time, enqueue order)` key, so its pop
//! sequence must match the tree's element for element. A re-key is a
//! `remove` then a `push`, which takes the newest sequence number exactly
//! as the tree's re-key takes the newest ticket.

use numa_sim::{SimTime, TournamentTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-heap of `(time, seq, item)` triples.
#[derive(Debug, Clone)]
pub struct HeapReadyQueue<T> {
    heap: BinaryHeap<Reverse<(SimTime, u64, OrdWrap<T>)>>,
    seq: u64,
}

/// Wrapper that deliberately ignores `T` in the ordering so ties are broken
/// purely by the sequence number.
#[derive(Debug, Clone)]
struct OrdWrap<T>(T);

impl<T> PartialEq for OrdWrap<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for OrdWrap<T> {}
impl<T> PartialOrd for OrdWrap<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OrdWrap<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> HeapReadyQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        HeapReadyQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `item` to run at `time`.
    pub fn push(&mut self, time: SimTime, item: T) {
        self.heap.push(Reverse((time, self.seq, OrdWrap(item))));
        self.seq += 1;
    }

    /// Remove and return the earliest `(time, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse((t, _, w))| (t, w.0))
    }

    /// The earliest `(time, item)` without removing it.
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.heap.peek().map(|Reverse((t, _, w))| (*t, &w.0))
    }

    /// Drop every queued entry whose item equals `item` (O(n): this is a
    /// specification, not a scheduler).
    pub fn remove(&mut self, item: &T)
    where
        T: PartialEq,
    {
        self.heap.retain(|Reverse((_, _, w))| w.0 != *item);
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[test]
fn heap_reference_matches_on_a_smoke_interleaving() {
    let times = [7u64, 7, 300_000, 5, 7, 1 << 40, 300_000, 0, 12];
    let mut tree = TournamentTree::new(times.len());
    let mut heap = HeapReadyQueue::new();
    for (i, &t) in times.iter().enumerate() {
        tree.set(i, SimTime(t));
        heap.push(SimTime(t), i);
        if i % 3 == 2 {
            assert_eq!(tree.pop(), heap.pop());
        }
    }
    while let Some(expect) = heap.pop() {
        assert_eq!(tree.pop(), Some(expect));
    }
    assert_eq!(tree.pop(), None);
}
