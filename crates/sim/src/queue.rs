//! The engine's run queue: a tournament tree over thread slots.
//!
//! [`TournamentTree`] keeps one slot per simulated thread. A present slot
//! holds the thread's key `(wake time, FIFO ticket)`; the tree's internal
//! nodes hold the winner (smallest key) of their subtree, so the root is
//! the thread the engine runs next. Every insert or re-key takes the
//! newest ticket and replays the path from the slot's leaf to the root:
//! `log2(slots)` compares, no allocation, and no dependence on how far
//! apart the wake times lie.
//!
//! When several threads become runnable at the same virtual instant, the
//! one keyed *first* runs first. Ordering on `(time, thread id)` would
//! instead couple simulation results to thread numbering — a determinism
//! hazard the ticket removes. `tests/proptest_sim.rs` runs the tree in
//! lockstep with a `BinaryHeap` reference that orders by the same
//! `(time, ticket)` pair, and requires identical pop sequences.

use crate::SimTime;

/// The key of an empty slot. Present keys pack `(time, ticket)` into one
/// `u128` (time in the high half), so a key equals `VACANT` only with a
/// ticket of `u64::MAX` — 2^64 re-keys away.
const VACANT: u128 = u128::MAX;

/// A tournament (winner) tree of thread slots keyed by `(time, ticket)`
/// — see the module docs for the ordering contract.
#[derive(Debug, Clone)]
pub struct TournamentTree {
    /// One key per leaf; leaves past the slot count stay `VACANT`.
    keys: Vec<u128>,
    /// `win[j]` is the winning slot of subtree `j` (root at 1, children of
    /// `j` at `2j` and `2j + 1`); the leaves `win[leaves + s] = s` close
    /// the recursion.
    win: Vec<u32>,
    /// Leaf count: the slot count rounded up to a power of two.
    leaves: usize,
    /// Present slots.
    len: usize,
    /// Next FIFO ticket.
    ticket: u64,
}

impl TournamentTree {
    /// A tree of `slots` empty slots, numbered `0..slots`.
    pub fn new(slots: usize) -> Self {
        let leaves = slots.max(1).next_power_of_two();
        // Every key starts vacant, so any leaf of a subtree is its winner;
        // take the leftmost.
        let mut win = vec![0; 2 * leaves];
        for j in (1..2 * leaves).rev() {
            win[j] = if j >= leaves {
                (j - leaves) as u32
            } else {
                win[2 * j]
            };
        }
        TournamentTree {
            keys: vec![VACANT; leaves],
            win,
            leaves,
            len: 0,
            ticket: 0,
        }
    }

    /// Schedule `slot` at `time` with the newest ticket, inserting it or
    /// replacing its key. An equal-time slot keyed earlier stays ahead.
    pub fn set(&mut self, slot: usize, time: SimTime) {
        if self.keys[slot] == VACANT {
            self.len += 1;
        }
        self.keys[slot] = (u128::from(time.0) << 64) | u128::from(self.ticket);
        self.ticket += 1;
        self.replay(slot);
    }

    /// Empty `slot` (a no-op if it is empty already).
    pub fn remove(&mut self, slot: usize) {
        if self.keys[slot] != VACANT {
            self.len -= 1;
            self.keys[slot] = VACANT;
            self.replay(slot);
        }
    }

    /// The earliest `(time, slot)` without removing it (FIFO among equal
    /// times).
    pub fn peek(&self) -> Option<(SimTime, usize)> {
        let slot = self.win[1] as usize;
        let key = self.keys[slot];
        (key != VACANT).then_some((SimTime((key >> 64) as u64), slot))
    }

    /// Remove and return the earliest `(time, slot)`.
    pub fn pop(&mut self) -> Option<(SimTime, usize)> {
        let head = self.peek()?;
        self.remove(head.1);
        Some(head)
    }

    /// Number of present slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Recompute the winners on the path from `slot`'s leaf to the root.
    fn replay(&mut self, slot: usize) {
        let mut j = (self.leaves + slot) >> 1;
        while j > 0 {
            let (a, b) = (self.win[2 * j], self.win[2 * j + 1]);
            self.win[j] = if self.keys[b as usize] < self.keys[a as usize] {
                b
            } else {
                a
            };
            j >>= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TournamentTree::new(3);
        q.set(2, SimTime(30));
        q.set(0, SimTime(10));
        q.set(1, SimTime(20));
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        assert_eq!(q.pop(), Some((SimTime(20), 1)));
        assert_eq!(q.pop(), Some((SimTime(30), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo_not_by_value() {
        let mut q = TournamentTree::new(10);
        // Key in an order that differs from the slot numbering.
        q.set(9, SimTime(5));
        q.set(1, SimTime(5));
        q.set(4, SimTime(5));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, s)| s)).collect();
        assert_eq!(order, vec![9, 1, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = TournamentTree::new(1);
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
        q.set(0, SimTime(7));
        assert_eq!(q.peek(), Some((SimTime(7), 0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        // A re-key replaces the key; it does not add a second entry.
        q.set(0, SimTime(3));
        assert_eq!((q.peek(), q.len()), (Some((SimTime(3), 0)), 1));
        q.remove(0);
        q.remove(0);
        assert_eq!((q.peek(), q.len()), (None, 0));
    }

    #[test]
    fn rekey_moves_the_running_slot_behind_equal_times() {
        // The engine re-keys the running thread at the end of each
        // micro-op; a peer already waiting at that instant must win.
        let mut q = TournamentTree::new(2);
        q.set(0, SimTime(0));
        q.set(1, SimTime(100));
        assert_eq!(q.peek(), Some((SimTime(0), 0)));
        q.set(0, SimTime(99));
        assert_eq!(q.peek(), Some((SimTime(99), 0)));
        q.set(0, SimTime(100));
        assert_eq!(q.peek(), Some((SimTime(100), 1)));
    }

    #[test]
    fn saturated_times_sort_last_but_stay_present() {
        let mut q = TournamentTree::new(5);
        q.set(3, SimTime(u64::MAX));
        q.set(4, SimTime(0));
        assert_eq!(q.pop(), Some((SimTime(0), 4)));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), 3)));
        assert_eq!(q.pop(), None);
    }
}
