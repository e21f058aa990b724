//! Heterogeneous memory tiering for the simulated machine.
//!
//! A tiered machine (see `numa_topology::presets::tiered_4p2`) pairs fast
//! DRAM nodes with large, slow CXL-class nodes. This crate adds the
//! user-visible subsystem on top of the kernel mechanisms in
//! `numa_kernel::tier`:
//!
//! * [`policy`] — pluggable hot/cold classification ([`ThresholdPolicy`],
//!   [`LruishPolicy`], [`StaticPolicy`]) over decayed per-page heat
//!   counters;
//! * [`daemon`] — the kpromoted-style [`TierDaemon`] that wakes up inside
//!   a `WorkPlan`, classifies, and issues `Op::TierMigrate` batches,
//!   either transactionally (Nomad-style non-exclusive copy with
//!   write-generation recheck) or stop-the-world;
//! * [`reclaim`] — the kswapd-style [`ReclaimDaemon`] that demotes cold
//!   pages off DRAM nodes sitting below their low watermark, the
//!   background half of the memory-pressure subsystem;
//! * [`TierUsage`] — occupancy reporting per tier.
//!
//! Everything is deterministic: views are captured in sorted order, the
//! heat map is a `BTreeMap`, and destination assignment breaks ties by
//! node id.

pub mod daemon;
pub mod policy;
pub mod reclaim;

pub use daemon::TierDaemon;
pub use policy::{
    LruishPolicy, PageInfo, StaticPolicy, ThresholdPolicy, TierPlan, TierPolicy, TierView,
};
pub use reclaim::ReclaimDaemon;

use numa_machine::Machine;
use numa_topology::MemTier;

/// Frame occupancy per tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierUsage {
    /// Live frames in DRAM nodes.
    pub dram_used: u64,
    /// Total frames across DRAM nodes.
    pub dram_capacity: u64,
    /// Live frames in slow-tier nodes.
    pub slow_used: u64,
    /// Total frames across slow-tier nodes.
    pub slow_capacity: u64,
}

impl TierUsage {
    /// Snapshot the current occupancy.
    pub fn capture(machine: &Machine) -> TierUsage {
        let topo = machine.topology();
        let mut u = TierUsage {
            dram_used: 0,
            dram_capacity: 0,
            slow_used: 0,
            slow_capacity: 0,
        };
        for n in topo.node_ids() {
            let (used, cap) = (machine.frames.live_on(n), machine.frames.capacity_of(n));
            match topo.tier_of(n) {
                MemTier::Dram => {
                    u.dram_used += used;
                    u.dram_capacity += cap;
                }
                MemTier::Slow => {
                    u.slow_used += used;
                    u.slow_capacity += cap;
                }
            }
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{MemAccessKind, Op, ThreadSpec};
    use numa_topology::CoreId;
    use numa_vm::{MemPolicy, PAGE_SIZE};

    #[test]
    fn usage_tracks_tier_occupancy() {
        let mut m = Machine::tiered_4p2();
        let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(0),
                vec![Op::write(a, 4 * PAGE_SIZE, MemAccessKind::Stream)],
            )],
            &[],
        );
        let u = TierUsage::capture(&m);
        assert_eq!(u.dram_used, 4);
        assert_eq!(u.slow_used, 0);
        assert!(u.dram_capacity > 0 && u.slow_capacity > 0);
        assert!(u.dram_used < u.dram_capacity);
    }
}
