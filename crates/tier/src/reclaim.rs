//! The background reclaim daemon (`kreclaimd`): a kswapd-style kernel
//! thread that wakes up periodically, checks every DRAM node against its
//! low watermark, and demotes the *coldest* resident pages toward the
//! slow tier until the node is back above the watermark.
//!
//! It is the asynchronous complement of the kernel's direct reclaim
//! (`Kernel::direct_reclaim`): direct reclaim runs on the allocating
//! thread below the *min* watermark (the allocation cannot proceed
//! otherwise), while `kreclaimd` runs in the background below the *low*
//! watermark so pressure is relieved before allocations start stalling —
//! exactly Linux's kswapd/direct-reclaim split.

use crate::policy::TierView;
use numa_machine::{Machine, Op};
use numa_topology::MemTier;
use numa_vm::PressureLevel;

/// Most pages demoted per node per wake-up (the same batch as one direct
/// reclaim pass).
const RECLAIM_BATCH: usize = 32;

/// One wake-up of the reclaim daemon: transactionally demote the coldest
/// pages of every DRAM node sitting at or below its low watermark.
/// Returns no ops on machines without a slow tier or configured
/// watermarks — reclaim-by-demotion needs both somewhere to demote *to*
/// and a definition of "too full".
pub fn reclaim_wake(machine: &Machine) -> Vec<Op> {
    let topo = machine.topology();
    if !topo.is_tiered() || !machine.frames.watermarked() {
        return Vec::new();
    }
    // Watchdog degradation: when the retry-livelock watchdog has
    // fired, issuing more background migration traffic would feed the
    // livelock, not relieve it. Skip the wake-up entirely.
    if machine.kernel.watchdog_fired() {
        return Vec::new();
    }
    let view = TierView::capture(machine);
    let mut ops = Vec::new();
    for node in topo.nodes_in_tier(MemTier::Dram) {
        if machine.frames.is_offline(node)
            || machine.frames.pressure_of(node) == PressureLevel::Normal
        {
            continue;
        }
        // Demote coldest-first until the node would clear its low
        // watermark (each demotion frees one frame), bounded by the
        // batch. The daemon only nominates victims, like kswapd's LRU
        // scan.
        let deficit = (machine.frames.watermark_low(node) + 1)
            .saturating_sub(machine.frames.free_on(node)) as usize;
        let victims: Vec<u64> = view
            .by_heat(MemTier::Dram, false)
            .into_iter()
            .filter(|p| p.node == node)
            .take(deficit.min(RECLAIM_BATCH))
            .map(|p| p.vpn)
            .collect();
        if victims.is_empty() {
            continue;
        }
        // Nearest slow node with room, ties by id — same choice rule
        // as the kernel's demotion target.
        let dest = topo
            .nodes_in_tier(MemTier::Slow)
            .into_iter()
            .filter(|d| !machine.frames.is_offline(*d) && machine.frames.free_on(*d) > 0)
            .min_by_key(|d| (topo.hops(node, *d), d.0));
        let Some(dest) = dest else {
            continue; // slow tier full: nothing to demote into
        };
        ops.push(Op::TierMigrate {
            pages: victims,
            dest,
            transactional: true,
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{MemAccessKind, ThreadSpec};
    use numa_stats::Counter;
    use numa_topology::{CoreId, NodeId};
    use numa_vm::{MemPolicy, PAGE_SIZE};

    /// A tiered machine with 8-frame DRAM banks, watermarks low=4/min=2,
    /// and `n` pages populated on node 0.
    fn pressured_machine(n: u64) -> (Machine, numa_vm::VirtAddr) {
        let topo = numa_topology::presets::tiered_4p2_with(
            numa_topology::CostModel::default(),
            8 * PAGE_SIZE,
            64 * PAGE_SIZE,
        );
        let mut m = Machine::new(
            std::sync::Arc::new(topo),
            numa_kernel::KernelConfig::tiered(),
        );
        let nodes: Vec<NodeId> = m.topology().node_ids().collect();
        for n in nodes {
            m.frames.set_watermarks(n, 4, 2);
        }
        let a = m.alloc(n * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(0),
                vec![Op::write(a, n * PAGE_SIZE, MemAccessKind::Stream)],
            )],
            &[],
        );
        (m, a)
    }

    #[test]
    fn wake_demotes_cold_pages_off_pressured_node() {
        // 6 of 8 frames used: free=2 <= low=4, so the node is pressured.
        let (m, a) = pressured_machine(6);
        // Make the first two pages hot so the daemon spares them.
        let mut m = m;
        m.heat.insert(a.vpn(), 50);
        m.heat.insert(a.vpn() + 1, 50);
        let ops = reclaim_wake(&m);
        assert_eq!(ops.len(), 1, "one pressured node, one batch: {ops:?}");
        match &ops[0] {
            Op::TierMigrate {
                pages,
                dest,
                transactional,
            } => {
                // Deficit is low+1-free = 3 cold pages; node 4 is the
                // slow node behind node 0.
                assert_eq!(pages.len(), 3);
                assert!(!pages.contains(&a.vpn()), "hot pages are spared");
                assert_eq!(*dest, NodeId(4));
                assert!(transactional);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn wake_is_quiet_above_the_watermark() {
        let (m, _a) = pressured_machine(2); // free=6 > low=4
        assert!(reclaim_wake(&m).is_empty());
    }

    #[test]
    fn wake_is_empty_without_watermarks_or_tier() {
        // Tiered but no watermarks configured.
        let mut m = Machine::tiered_4p2();
        let a = m.alloc(2 * PAGE_SIZE, MemPolicy::FirstTouch);
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(0),
                vec![Op::write(a, 2 * PAGE_SIZE, MemAccessKind::Stream)],
            )],
            &[],
        );
        assert!(reclaim_wake(&m).is_empty());
        // Watermarked but single-tier: nowhere to demote to.
        let mut m = Machine::two_node();
        m.frames.set_watermarks(NodeId(0), 4, 2);
        m.frames.set_watermarks(NodeId(1), 4, 2);
        assert!(reclaim_wake(&m).is_empty());
    }

    #[test]
    fn spliced_daemon_relieves_pressure_mid_plan() {
        use numa_rt::{Team, WorkPlan};
        let (mut m, _a) = pressured_machine(6);
        let mut plan = WorkPlan::new();
        for _round in 0..2 {
            plan.each_thread(|_tid| vec![Op::ComputeNs(100)]);
            plan.single_ctx(reclaim_wake);
        }
        Team::all_cores(&m).take(4).run(&mut m, plan);
        assert!(
            m.frames.free_on(NodeId(0)) > m.frames.watermark_low(NodeId(0)),
            "the daemon must lift node 0 back above its low watermark"
        );
        assert!(
            m.kernel.counters.get(Counter::TierDemotions) >= 3,
            "demotions must actually have executed"
        );
    }
}
