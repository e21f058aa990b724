//! The tiering daemon: a kpromoted-style kernel thread that wakes up
//! periodically, classifies pages with the threshold rule of
//! [`crate::policy`], and issues transactional [`Op::TierMigrate`]
//! batches.
//!
//! A move whose target tier has no free frame is dropped, as kpromoted
//! drops it: the page stays where it is and a later wake-up, seeing fresh
//! heat and free counts, decides again.

use crate::policy::{plan, TierView};
use numa_machine::{Machine, Op};
use numa_topology::{MemTier, NodeId};

/// One wake-up of the tiering daemon: capture the machine state, run the
/// threshold rule, and turn its decision into transactional migration
/// ops. Demotions are emitted before promotions so evictions free DRAM
/// frames ahead of the allocations that need them.
pub fn tier_wake(machine: &Machine) -> Vec<Op> {
    let (demote, promote) = plan(&TierView::capture(machine));
    let mut free: Vec<u64> = machine
        .topology()
        .node_ids()
        .map(|n| machine.frames.free_on(n))
        .collect();
    let mut ops = Vec::new();
    for (vpns, tier) in [(&demote, MemTier::Slow), (&promote, MemTier::Dram)] {
        for (dest, pages) in assign_destinations(machine, vpns, tier, &mut free) {
            ops.push(Op::TierMigrate {
                pages,
                dest,
                transactional: true,
            });
        }
    }
    ops
}

/// Assign each page the nearest node of the target tier that still has a
/// free frame in `free` (ties: most free, then lowest id) and group pages
/// by the chosen destination, preserving plan order within each group.
/// `free` is decremented as destinations are assigned, so one wake-up
/// cannot overfill a bank; pages whose whole target tier is full are
/// dropped, and unmapped pages are skipped.
fn assign_destinations(
    machine: &Machine,
    vpns: &[u64],
    target: MemTier,
    free: &mut [u64],
) -> Vec<(NodeId, Vec<u64>)> {
    let topo = machine.topology();
    let candidates: Vec<NodeId> = topo.nodes_in_tier(target);
    let mut batches: Vec<(NodeId, Vec<u64>)> = Vec::new();
    for &vpn in vpns {
        let Some(pte) = machine.space.page_table.get(vpn) else {
            continue;
        };
        let src = machine.frames.node_of(pte.frame);
        let dest = candidates
            .iter()
            .copied()
            .filter(|d| free[d.index()] > 0)
            .min_by_key(|d| (topo.hops(src, *d), std::cmp::Reverse(free[d.index()]), d.0));
        let Some(dest) = dest else {
            continue; // target tier is full
        };
        free[dest.index()] -= 1;
        match batches.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, pages)) => pages.push(vpn),
            None => batches.push((dest, vec![vpn])),
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{MemAccessKind, ThreadSpec};
    use numa_rt::{Team, WorkPlan};
    use numa_stats::Counter;
    use numa_topology::CoreId;
    use numa_vm::{MemPolicy, VirtAddr, PAGE_SIZE};

    /// A machine with `n` pages first-touched on DRAM node 0 and `m`
    /// pages bound to the slow node 4, all populated.
    fn populated(n: u64, m: u64) -> (Machine, VirtAddr, VirtAddr) {
        let mut machine = Machine::tiered_4p2();
        let a = machine.alloc(n * PAGE_SIZE, MemPolicy::FirstTouch);
        let b = machine.alloc(m * PAGE_SIZE, MemPolicy::Bind(NodeId(4)));
        let threads = vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, n * PAGE_SIZE, MemAccessKind::Stream),
                Op::write(b, m * PAGE_SIZE, MemAccessKind::Stream),
            ],
        )];
        machine.run(threads, &[]);
        (machine, a, b)
    }

    #[test]
    fn daemon_promotes_hot_slow_pages() {
        let (mut machine, _a, b) = populated(2, 3);
        // Heat up the slow pages well past the threshold.
        machine.heat.clear();
        for p in 0..3u64 {
            machine.heat.insert((b + p * PAGE_SIZE).vpn(), 100);
        }
        let ops = tier_wake(&machine);
        assert!(!ops.is_empty());
        let total: usize = ops
            .iter()
            .map(|o| match o {
                Op::TierMigrate {
                    pages,
                    dest,
                    transactional,
                } => {
                    assert_eq!(
                        machine.topology().tier_of(*dest),
                        MemTier::Dram,
                        "promotions must land in DRAM"
                    );
                    assert!(transactional, "the daemon promotes transactionally");
                    pages.len()
                }
                _ => 0,
            })
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn daemon_wakeup_is_deterministic() {
        let mk = || {
            let (mut machine, _a, b) = populated(4, 4);
            for p in 0..4u64 {
                machine.heat.insert((b + p * PAGE_SIZE).vpn(), 50);
            }
            format!("{:?}", tier_wake(&machine))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn spliced_daemon_migrates_mid_plan() {
        let (mut machine, _a, b) = populated(2, 2);
        let mut plan = WorkPlan::new();
        for _round in 0..3 {
            plan.each_thread(move |tid| {
                if tid == 0 {
                    // Keep the slow pages hot every round.
                    vec![Op::read(b, 2 * PAGE_SIZE, MemAccessKind::Random)]
                } else {
                    vec![]
                }
            });
            // Thread 0 plays kpromoted while the team waits at the
            // phase barrier.
            plan.single_ctx(tier_wake);
        }
        Team::all_cores(&machine).take(4).run(&mut machine, plan);
        assert_eq!(
            machine.topology().tier_of(machine.page_node(b).unwrap()),
            MemTier::Dram,
            "hot slow pages must end up promoted"
        );
        assert!(machine.kernel.counters.get(Counter::TierPromotions) >= 2);
    }
}
