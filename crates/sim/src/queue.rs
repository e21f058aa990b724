//! The time-ordered run queue.
//!
//! [`ReadyQueue`] is a calendar queue (Brown 1988): events hash into a
//! ring of day-width buckets by quantized [`SimTime`], far-future events
//! park on an overflow rung, and a monotone day cursor scans forward.
//! Push is O(1); pop touches one (usually tiny) bucket. Pops come out
//! ordered by `(time, enqueue order)`.
//!
//! When several simulated threads become runnable at the same virtual
//! instant, the one that was *enqueued first* runs first. Ordering on
//! `(time, item)` would instead break ties by item id, which silently
//! couples simulation results to thread numbering — a determinism hazard
//! the sequence counter removes. `tests/proptest_sim.rs` runs the queue in
//! lockstep with the original `BinaryHeap` formulation, which orders by
//! the same `(time, seq)` pair, and requires identical pop sequences.

use crate::SimTime;

/// log2 of the calendar bucket width in virtual nanoseconds. 256 ns per
/// bucket sits just above the typical micro-op duration (a page touch is
/// tens to a few hundred ns), so consecutive pops usually advance the
/// cursor by at most one day.
const DAY_SHIFT: u32 = 8;

/// Number of buckets in the calendar ring (power of two). The horizon —
/// how far ahead an event may be and still live in the ring — is
/// `BUCKETS << DAY_SHIFT` = 16 µs; anything later waits on the overflow
/// rung until the cursor's year reaches it.
const BUCKETS: usize = 64;

/// Ring-index mask (`BUCKETS` is a power of two).
const BUCKET_MASK: u64 = BUCKETS as u64 - 1;

/// One scheduled event: the instant, the FIFO tie-break ticket, and the
/// caller's payload. The quantized day is cached so the locate scan is a
/// single integer compare per entry.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    day: u64,
    seq: u64,
    item: T,
}

/// Quantized day of an instant.
#[inline]
fn day_of(time: SimTime) -> u64 {
    time.0 >> DAY_SHIFT
}

/// Cached location of the current minimum entry (always inside a bucket:
/// the locate pass migrates any eligible overflow entries first). Lets
/// the engine's peek-then-pop fast-path pattern pay the bucket scan once.
#[derive(Debug, Clone, Copy)]
struct Front {
    bucket: usize,
    idx: usize,
    time: SimTime,
    seq: u64,
}

/// A calendar queue of `(time, item)` pairs with deterministic FIFO
/// tie-breaking — see the module docs for the layout and the ordering
/// contract.
#[derive(Debug, Clone)]
pub struct ReadyQueue<T> {
    /// The calendar ring. Bucket `b` holds events whose quantized day is
    /// congruent to `b` modulo [`BUCKETS`]; a bucket may hold events of
    /// several "years" at once, so the scan matches on the exact day.
    buckets: Vec<Vec<Entry<T>>>,
    /// One occupancy bit per bucket (`BUCKETS` = 64 = one machine word):
    /// the cursor jumps to the next occupied bucket with a rotate +
    /// `trailing_zeros` instead of walking empty days one by one — the
    /// virtual-time strides between engine quanta span thousands of
    /// bucket widths, so the walk, not the scan, would dominate.
    occupied: u64,
    /// Far-future events (beyond the ring horizon at push time), in
    /// arrival order. Migrated into the ring before the cursor can reach
    /// their day.
    overflow: Vec<Entry<T>>,
    /// Smallest quantized day on the overflow rung (`u64::MAX` if empty).
    overflow_min_day: u64,
    /// The scan cursor: every event of any earlier day has been popped.
    day: u64,
    /// Events currently in the ring (excludes the overflow rung).
    ring_len: usize,
    /// Total events queued.
    len: usize,
    /// Next FIFO ticket.
    seq: u64,
    /// Cached minimum, if located and not yet invalidated.
    front: Option<Front>,
}

impl<T> Default for ReadyQueue<T> {
    fn default() -> Self {
        ReadyQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: 0,
            overflow: Vec::new(),
            overflow_min_day: u64::MAX,
            day: 0,
            ring_len: 0,
            len: 0,
            seq: 0,
            front: None,
        }
    }
}

impl<T> ReadyQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// An empty queue sized for about `capacity` concurrently queued
    /// items. Engines that push/pop once per micro-op size the queue to
    /// the thread count up front so no bucket grows mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = ReadyQueue::new();
        // Concurrent events cluster in neighbouring days; give the first
        // few buckets room rather than spreading tiny reservations.
        for b in q.buckets.iter_mut().take(8) {
            b.reserve(capacity.div_ceil(8));
        }
        q
    }

    /// Schedule `item` to run at `time`.
    pub fn push(&mut self, time: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let d = day_of(time);
        // Events are almost always scheduled at or after the cursor, but
        // nothing breaks if one lands earlier: the cursor backs up and
        // the forward scan re-covers the day.
        if d < self.day {
            self.day = d;
        }
        let entry = Entry {
            time,
            day: d,
            seq,
            item,
        };
        if d < self.day + BUCKETS as u64 {
            let bucket = (d & BUCKET_MASK) as usize;
            self.buckets[bucket].push(entry);
            self.occupied |= 1 << bucket;
            self.ring_len += 1;
            // A new entry beats the cached front only if strictly earlier
            // (its ticket is the largest yet, so equal times lose).
            if let Some(f) = self.front {
                if time < f.time {
                    self.front = Some(Front {
                        bucket,
                        idx: self.buckets[bucket].len() - 1,
                        time,
                        seq,
                    });
                }
            }
        } else {
            // Beyond the horizon: the overflow rung. It cannot beat the
            // cached front — the front's day is inside the ring window,
            // hence strictly earlier than `d`.
            self.overflow.push(entry);
            self.overflow_min_day = self.overflow_min_day.min(d);
        }
        self.len += 1;
    }

    /// Remove and return the earliest `(time, item)` (FIFO among equal
    /// times).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let f = self.locate_min()?;
        self.front = None;
        self.ring_len -= 1;
        self.len -= 1;
        let entry = self.buckets[f.bucket].swap_remove(f.idx);
        if self.buckets[f.bucket].is_empty() {
            self.occupied &= !(1 << f.bucket);
        }
        debug_assert_eq!(entry.seq, f.seq);
        Some((entry.time, entry.item))
    }

    /// The earliest scheduled time without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.locate_min().map(|f| f.time)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Find (and cache) the minimum `(time, seq)` entry, advancing the
    /// day cursor past empty days and pulling overflow events into the
    /// ring before the cursor can reach their day.
    fn locate_min(&mut self) -> Option<Front> {
        if self.len == 0 {
            return None;
        }
        if let Some(f) = self.front {
            return Some(f);
        }
        if self.ring_len == 0 {
            // Ring drained: jump the cursor straight to the earliest
            // overflow day instead of scanning empty days toward it.
            self.day = self.overflow_min_day;
        }
        self.migrate_overflow();
        let mut misses = 0usize;
        loop {
            debug_assert!(self.ring_len > 0, "locate with an empty ring");
            debug_assert_ne!(self.occupied, 0, "ring entries but no occupancy bit");
            // Jump the cursor to the next occupied bucket at or after the
            // current day. Cursor jumps never out-run overflow migration:
            // a jump moves at most BUCKETS-1 days, and everything that
            // close was already inside the migration horizon.
            let jump = self
                .occupied
                .rotate_right((self.day & BUCKET_MASK) as u32)
                .trailing_zeros() as u64;
            if jump > 0 {
                self.day += jump;
                self.migrate_overflow();
            }
            let bucket = (self.day & BUCKET_MASK) as usize;
            let mut best: Option<Front> = None;
            for (idx, e) in self.buckets[bucket].iter().enumerate() {
                if e.day == self.day && best.is_none_or(|b| (e.time, e.seq) < (b.time, b.seq)) {
                    best = Some(Front {
                        bucket,
                        idx,
                        time: e.time,
                        seq: e.seq,
                    });
                }
            }
            if best.is_some() {
                self.front = best;
                return best;
            }
            // The bucket held only future-year events. A few such misses
            // are cheaper than bookkeeping; a streak means the events are
            // stacked years ahead, so jump straight to the earliest day.
            misses += 1;
            if misses >= 4 {
                let ring_min = self
                    .buckets
                    .iter()
                    .flatten()
                    .map(|e| e.day)
                    .min()
                    .expect("ring entries exist");
                self.day = ring_min.min(self.overflow_min_day);
                self.migrate_overflow();
                continue;
            }
            // Skip to the next occupied bucket strictly after this one
            // (this bucket's own events are at least a full year out).
            let rot = self.occupied.rotate_right(bucket as u32) & !1;
            self.day += if rot == 0 {
                BUCKETS as u64
            } else {
                rot.trailing_zeros() as u64
            };
            self.migrate_overflow();
        }
    }

    /// Move every overflow event whose day is inside the current ring
    /// window into its bucket. Called whenever the cursor (re)starts or
    /// advances, so an overflow event is ring-resident a full year before
    /// the cursor can reach its day. The guard is inlined — on the
    /// engine's hot path the rung is empty or far away, and the check is
    /// one compare.
    #[inline]
    fn migrate_overflow(&mut self) {
        if self.overflow_min_day < self.day + BUCKETS as u64 {
            self.migrate_overflow_slow();
        }
    }

    #[cold]
    fn migrate_overflow_slow(&mut self) {
        let horizon = self.day + BUCKETS as u64;
        let mut min_day = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let d = self.overflow[i].day;
            if d < horizon {
                let entry = self.overflow.swap_remove(i);
                let bucket = (d & BUCKET_MASK) as usize;
                self.buckets[bucket].push(entry);
                self.occupied |= 1 << bucket;
                self.ring_len += 1;
            } else {
                min_day = min_day.min(d);
                i += 1;
            }
        }
        self.overflow_min_day = min_day;
        // Bucket contents moved; any cached location may be stale.
        self.front = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = ReadyQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo_not_by_value() {
        let mut q = ReadyQueue::new();
        // Push in an order that differs from the natural value ordering.
        q.push(SimTime(5), 9u32);
        q.push(SimTime(5), 1u32);
        q.push(SimTime(5), 4u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![9, 1, 4]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = ReadyQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), ());
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_rung() {
        // Beyond the 16 µs horizon: parked on the rung, then popped in
        // exact order once the cursor's year reaches them.
        let mut q = ReadyQueue::new();
        q.push(SimTime(1 << 30), 3u32);
        q.push(SimTime(5), 1u32);
        q.push(SimTime((1 << 30) - 1), 2u32);
        q.push(SimTime(1 << 30), 4u32); // same far instant: FIFO after 3
        assert_eq!(q.pop(), Some((SimTime(5), 1)));
        assert_eq!(q.pop(), Some((SimTime((1 << 30) - 1), 2)));
        assert_eq!(q.pop(), Some((SimTime(1 << 30), 3)));
        assert_eq!(q.pop(), Some((SimTime(1 << 30), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_before_the_cursor_is_still_ordered() {
        // Popping at t=10_000 moves the cursor forward; a later push at
        // an earlier instant must still pop first.
        let mut q = ReadyQueue::new();
        q.push(SimTime(10_000), "late");
        q.push(SimTime(20_000), "later");
        assert_eq!(q.pop(), Some((SimTime(10_000), "late")));
        q.push(SimTime(100), "early");
        assert_eq!(q.pop(), Some((SimTime(100), "early")));
        assert_eq!(q.pop(), Some((SimTime(20_000), "later")));
    }

    #[test]
    fn saturated_times_do_not_wrap_the_calendar() {
        let mut q = ReadyQueue::new();
        q.push(SimTime(u64::MAX), "end of time");
        q.push(SimTime(0), "now");
        assert_eq!(q.pop(), Some((SimTime(0), "now")));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), "end of time")));
        assert_eq!(q.pop(), None);
    }
}
