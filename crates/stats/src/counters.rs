//! Named event counters.
//!
//! The kernel and VM layers count discrete events — page faults, migrations,
//! TLB shootdowns, pages allocated per node — and the tests assert on them.
//! Counters are plain `u64`s behind a small fixed registry; the simulator is
//! single-threaded by design (determinism, see DESIGN.md §7) so no atomics
//! are needed.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The discrete events tracked across the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Counter {
    /// Minor page faults taken (first-touch allocation).
    FirstTouchFaults,
    /// Page faults that hit the kernel next-touch flag and migrated a page.
    NextTouchFaults,
    /// Protection faults delivered to user space as SIGSEGV.
    SegvSignals,
    /// Pages migrated by `move_pages`.
    PagesMovedSyscall,
    /// Pages migrated by the kernel next-touch fault path.
    PagesMovedFault,
    /// Pages migrated by `migrate_pages`.
    PagesMovedProcess,
    /// Pages that were already on their destination node (no copy needed).
    PagesAlreadyPlaced,
    /// TLB shootdowns issued.
    TlbShootdowns,
    /// Frames allocated.
    FramesAllocated,
    /// Frames freed.
    FramesFreed,
    /// `madvise` next-touch markings (pages marked).
    PagesMarkedNextTouch,
    /// `mprotect` calls.
    MprotectCalls,
    /// Remote (off-node) memory accesses.
    RemoteAccesses,
    /// Local (on-node) memory accesses.
    LocalAccesses,
    /// Last-level cache hits in the access model.
    CacheHits,
    /// Last-level cache misses in the access model.
    CacheMisses,
    /// Read-only page replications performed (extension, §6 future work).
    PagesReplicated,
    /// Huge pages migrated (extension, §6 future work).
    HugePagesMoved,
    /// parallel_for iterations executed.
    OmpIterations,
    /// Barrier episodes completed.
    BarriersCompleted,
    /// Pages promoted from the slow tier to DRAM (tiering subsystem).
    TierPromotions,
    /// Pages demoted from DRAM to the slow tier.
    TierDemotions,
    /// Transactional tier migrations committed (write generation
    /// unchanged between copy and commit).
    TierTxnCommits,
    /// Transactional tier migrations aborted: a concurrent writer
    /// dirtied the page between copy and commit.
    TierTxnAborts,
    /// Accesses that touched a page while its transactional shadow copy
    /// was in flight (the page was non-exclusively in both tiers).
    TierShadowHits,
    /// Accesses stalled behind a stop-the-world tier migration that had
    /// the page unmapped.
    TierStwStalls,
    /// Faults injected by the deterministic fault-injection plan
    /// (`numa_sim::faultinject`).
    FaultsInjected,
    /// Migration attempts retried after a transient (`-EBUSY`-like)
    /// failure — engine re-queues, handler re-issues, tier re-begins.
    MigrationRetries,
    /// Migrations degraded gracefully: the page was left on its source
    /// node (frame exhaustion, racing unmap, or a next-touch fault-path
    /// failure) and the workload kept running.
    MigrationsDegraded,
    /// Migrations abandoned after exhausting their retry budget.
    MigrationsGaveUp,
    /// Page walks that crossed the interconnect to reach a remotely homed
    /// page table (ptplace subsystem).
    PtWalksRemote,
    /// Replica write-through episodes that wrote at least one PTE.
    PtReplicaSyncs,
    /// Direct-reclaim runs performed on the allocating thread (memory
    /// pressure below the min watermark, or a failed allocation).
    DirectReclaims,
    /// Pages scanned as reclaim victims (both skipped and reclaimed).
    ReclaimScans,
    /// Pages demoted/migrated away by reclaim (direct or `kreclaimd`).
    PagesReclaimed,
    /// Pages migrated off a node by hot-remove evacuation.
    PagesEvacuated,
    /// Nodes marked offline (unallocatable) by hot-remove.
    NodesOfflined,
    /// Nodes brought back online.
    NodesOnlined,
    /// Processes killed by the OOM policy (reclaim and fallback both
    /// failed; the allocating thread is the deterministic victim).
    OomKills,
    /// Retry-livelock watchdog firings: a retry window elapsed with
    /// retries but zero migration progress, forcing degradation.
    WatchdogFirings,
    /// Per-node memory-pressure level transitions observed at the
    /// allocator's probe points.
    PressureTransitions,
}

impl Counter {
    /// Every counter, in declaration (= `Ord`) order. The registry's
    /// iteration and display orders derive from this list.
    pub const ALL: [Counter; 41] = [
        Counter::FirstTouchFaults,
        Counter::NextTouchFaults,
        Counter::SegvSignals,
        Counter::PagesMovedSyscall,
        Counter::PagesMovedFault,
        Counter::PagesMovedProcess,
        Counter::PagesAlreadyPlaced,
        Counter::TlbShootdowns,
        Counter::FramesAllocated,
        Counter::FramesFreed,
        Counter::PagesMarkedNextTouch,
        Counter::MprotectCalls,
        Counter::RemoteAccesses,
        Counter::LocalAccesses,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::PagesReplicated,
        Counter::HugePagesMoved,
        Counter::OmpIterations,
        Counter::BarriersCompleted,
        Counter::TierPromotions,
        Counter::TierDemotions,
        Counter::TierTxnCommits,
        Counter::TierTxnAborts,
        Counter::TierShadowHits,
        Counter::TierStwStalls,
        Counter::FaultsInjected,
        Counter::MigrationRetries,
        Counter::MigrationsDegraded,
        Counter::MigrationsGaveUp,
        Counter::PtWalksRemote,
        Counter::PtReplicaSyncs,
        Counter::DirectReclaims,
        Counter::ReclaimScans,
        Counter::PagesReclaimed,
        Counter::PagesEvacuated,
        Counter::NodesOfflined,
        Counter::NodesOnlined,
        Counter::OomKills,
        Counter::WatchdogFirings,
        Counter::PressureTransitions,
    ];

    /// Number of counters.
    pub const COUNT: usize = Counter::ALL.len();
}

/// A registry of [`Counter`] values.
///
/// Stored as a flat array indexed by discriminant: `bump` sits on the
/// per-page-touch hot path of the access model (cache hit/miss,
/// local/remote tallies), where a map lookup per event is measurable
/// host time. Iteration and display skip zero counters, in declaration
/// order — observably identical to the former `BTreeMap` registry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    values: [u64; Counter::COUNT],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            values: [0; Counter::COUNT],
        }
    }
}

impl Counters {
    /// An empty registry (all counters read as zero).
    pub fn new() -> Self {
        Counters::default()
    }

    /// Increment `counter` by 1.
    #[inline]
    pub fn bump(&mut self, counter: Counter) {
        self.values[counter as usize] += 1;
    }

    /// Increment `counter` by `n`.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.values[counter as usize] += n;
    }

    /// Current value of `counter`.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// Merge another registry into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (dst, src) in self.values.iter_mut().zip(other.values.iter()) {
            *dst += src;
        }
    }

    /// Reset every counter to zero.
    pub fn clear(&mut self) {
        self.values = [0; Counter::COUNT];
    }

    /// Per-counter delta since `earlier` (`self - earlier`). Panics on a
    /// counter that went backwards — counters are monotone, so that is a
    /// snapshotting bug.
    pub fn diff(&self, earlier: &Counters) -> Counters {
        let mut out = Counters::new();
        for (i, (now, was)) in self.values.iter().zip(earlier.values.iter()).enumerate() {
            out.values[i] = now
                .checked_sub(*was)
                .unwrap_or_else(|| panic!("counter {i} went backwards: {now} < {was}"));
        }
        out
    }

    /// Iterate over non-zero counters in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(|&k| (k, self.values[k as usize]))
            .filter(|(_, v)| *v > 0)
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:?}: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_get() {
        let mut c = Counters::new();
        assert_eq!(c.get(Counter::NextTouchFaults), 0);
        c.bump(Counter::NextTouchFaults);
        c.add(Counter::NextTouchFaults, 2);
        assert_eq!(c.get(Counter::NextTouchFaults), 3);
    }

    #[test]
    fn merge_sums_disjoint_and_shared() {
        let mut a = Counters::new();
        a.add(Counter::CacheHits, 10);
        let mut b = Counters::new();
        b.add(Counter::CacheHits, 5);
        b.add(Counter::CacheMisses, 7);
        a.merge(&b);
        assert_eq!(a.get(Counter::CacheHits), 15);
        assert_eq!(a.get(Counter::CacheMisses), 7);
    }

    #[test]
    fn clear_zeroes_everything() {
        let mut c = Counters::new();
        c.add(Counter::TlbShootdowns, 4);
        c.clear();
        assert_eq!(c.get(Counter::TlbShootdowns), 0);
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn all_list_matches_discriminants() {
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} out of place in Counter::ALL");
        }
    }

    #[test]
    fn iter_is_stable_and_nonzero_only() {
        let mut c = Counters::new();
        c.add(Counter::LocalAccesses, 1);
        c.add(Counter::RemoteAccesses, 2);
        let keys: Vec<_> = c.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
