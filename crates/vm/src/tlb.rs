//! TLB shootdown accounting.
//!
//! The paper identifies TLB flushes as one of the expensive parts of both
//! migration paths: "the Translation Lookaside Buffer (TLB) has to be
//! flushed on all processors for each `mprotect`, while another flush is
//! already needed for migration" (§3.3). We do not simulate individual TLB
//! entries — only the *shootdown episodes* matter for the cost shapes — but
//! we track them per core so experiments can report how many flushes each
//! strategy triggered.

use numa_topology::CoreId;
use serde::{Deserialize, Serialize};

/// Shootdown bookkeeping for all cores of the machine.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tlb {
    /// Shootdowns *received* per core.
    received: Vec<u64>,
    /// Shootdown episodes *initiated* machine-wide.
    episodes: u64,
}

impl Tlb {
    /// TLB state for a machine with `cores` cores.
    pub fn new(cores: usize) -> Self {
        Tlb {
            received: vec![0; cores],
            episodes: 0,
        }
    }

    /// Record a shootdown initiated by `initiator` and delivered to every
    /// other core (the kernel broadcasts the invalidation IPI). Returns the
    /// number of remote cores that were interrupted.
    pub fn shootdown_all(&mut self, initiator: CoreId) -> u32 {
        self.episodes += 1;
        let mut hit = 0;
        for (i, r) in self.received.iter_mut().enumerate() {
            if i != initiator.index() {
                *r += 1;
                hit += 1;
            }
        }
        hit
    }

    /// Record a local-only invalidation (single-page `invlpg`; no IPIs).
    pub fn invalidate_local(&mut self, core: CoreId) {
        self.received[core.index()] += 1;
    }

    /// Shootdown episodes initiated so far.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Invalidations received by one core. The tests below read it to
    /// check [`Tlb::shootdown_all`] and [`Tlb::invalidate_local`].
    pub fn received_by(&self, core: CoreId) -> u64 {
        self.received[core.index()]
    }

    /// Total invalidations received across all cores (read by the tests,
    /// like [`Tlb::received_by`]).
    pub fn received_total(&self) -> u64 {
        self.received.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootdown_hits_everyone_but_initiator() {
        let mut t = Tlb::new(4);
        let hit = t.shootdown_all(CoreId(1));
        assert_eq!(hit, 3);
        assert_eq!(t.received_by(CoreId(0)), 1);
        assert_eq!(t.received_by(CoreId(1)), 0);
        assert_eq!(t.episodes(), 1);
        assert_eq!(t.received_total(), 3);
    }

    #[test]
    fn local_invalidate_is_quiet() {
        let mut t = Tlb::new(2);
        t.invalidate_local(CoreId(0));
        assert_eq!(t.episodes(), 0);
        assert_eq!(t.received_by(CoreId(0)), 1);
        assert_eq!(t.received_by(CoreId(1)), 0);
    }

    #[test]
    fn single_core_machine_shootdown_hits_nobody() {
        let mut t = Tlb::new(1);
        assert_eq!(t.shootdown_all(CoreId(0)), 0);
        assert_eq!(t.received_total(), 0);
    }
}
