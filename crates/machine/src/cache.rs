//! Per-node last-level cache model.
//!
//! Page-granular FIFO residency: fine enough to make the Figure-8
//! crossover (working sets beyond the 2 MB shared L3 suddenly paying DRAM
//! and NUMA costs) appear, coarse enough to stay cheap. The paper's L3 is
//! shared by the node's four cores, which the per-node granularity models
//! directly.

use numa_sim::FxHashSet;
use std::collections::VecDeque;

/// A page-granular FIFO cache of fixed capacity: a ring of the resident
/// vpns in insertion order plus their set. Only eviction and `clear`
/// remove pages, so the ring and the set always hold the same pages.
#[derive(Debug, Clone)]
pub struct L3Cache {
    capacity: usize,
    /// Resident vpns, oldest first.
    order: VecDeque<u64>,
    /// The vpns in `order`.
    resident: FxHashSet<u64>,
    hits: u64,
    misses: u64,
}

impl L3Cache {
    /// A cache holding `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        L3Cache {
            capacity,
            order: VecDeque::with_capacity(capacity),
            resident: FxHashSet::with_capacity_and_hasher(capacity * 2, Default::default()),
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Touch page `vpn`: returns `true` on hit. Misses insert the page,
    /// evicting FIFO when full.
    pub fn touch(&mut self, vpn: u64) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        if self.resident.contains(&vpn) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.resident.remove(&old);
            }
        }
        self.order.push_back(vpn);
        self.resident.insert(vpn);
        false
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.order.clear();
        self.resident.clear();
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Pages currently resident.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = L3Cache::new(4);
        assert!(!c.touch(1));
        assert!(c.touch(1));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn fifo_eviction() {
        let mut c = L3Cache::new(2);
        c.touch(1);
        c.touch(2);
        c.touch(3); // evicts 1
        assert!(!c.touch(1), "1 was evicted");
        assert!(c.len() <= 2);
    }

    #[test]
    fn working_set_within_capacity_always_hits() {
        let mut c = L3Cache::new(8);
        for round in 0..5 {
            for vpn in 0..8u64 {
                let hit = c.touch(vpn);
                assert_eq!(hit, round > 0);
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_fifo() {
        // Sequential sweep over capacity+1 pages: FIFO gives 0 hits.
        let mut c = L3Cache::new(4);
        for _ in 0..3 {
            for vpn in 0..5u64 {
                assert!(!c.touch(vpn));
            }
        }
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = L3Cache::new(4);
        c.touch(7);
        assert!(c.touch(7));
        c.clear();
        assert!(c.is_empty());
        assert!(!c.touch(7), "a cleared page misses");
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = L3Cache::new(0);
        assert!(!c.touch(1));
        assert!(!c.touch(1));
    }
}
