//! Property tests for transactional tier migration: frame conservation,
//! content preservation across round trips, abort harmlessness, and the
//! tiering daemon's wake-up rules.

use numa_machine::{Machine, MemAccessKind, Op, ThreadSpec};
use numa_sim::SimTime;
use numa_stats::Breakdown;
use numa_topology::{CoreId, MemTier, NodeId};
use numa_vm::{MemPolicy, VirtAddr, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A tiered machine with `pages` pages first-touched from core 0 (DRAM
/// node 0), returning the buffer base.
fn populated_machine(pages: u64) -> (Machine, VirtAddr) {
    let mut m = Machine::tiered_4p2();
    let a = m.alloc(pages * PAGE_SIZE, MemPolicy::FirstTouch);
    m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::write(a, pages * PAGE_SIZE, MemAccessKind::Stream)],
        )],
        &[],
    );
    (m, a)
}

/// Heat at or above which the daemon promotes a slow-tier page.
const PROMOTE_MIN_HEAT: u64 = 4;

/// A tiered machine with 4-frame DRAM banks and 16-frame slow banks,
/// holding `dram` pages first-touched from node-0 cores (spilling over
/// the DRAM tier) and `slow` pages bound to slow node 4. Returns the
/// machine and every populated vpn.
fn small_bank_machine(dram: u64, slow: u64) -> (Machine, Vec<u64>) {
    let topo = numa_topology::presets::tiered_4p2_with(
        numa_topology::CostModel::default(),
        4 * PAGE_SIZE,
        16 * PAGE_SIZE,
    );
    let mut m = Machine::new(
        std::sync::Arc::new(topo),
        numa_kernel::KernelConfig::tiered(),
    );
    let a = m.alloc(dram.max(1) * PAGE_SIZE, MemPolicy::FirstTouch);
    let b = m.alloc(slow * PAGE_SIZE, MemPolicy::Bind(NodeId(4)));
    let mut ops = Vec::new();
    if dram > 0 {
        ops.push(Op::write(a, dram * PAGE_SIZE, MemAccessKind::Stream));
    }
    ops.push(Op::write(b, slow * PAGE_SIZE, MemAccessKind::Stream));
    m.run(vec![ThreadSpec::scripted(CoreId(0), ops)], &[]);
    let vpns = (0..dram)
        .map(|p| (a + p * PAGE_SIZE).vpn())
        .chain((0..slow).map(|p| (b + p * PAGE_SIZE).vpn()))
        .collect();
    (m, vpns)
}

proptest! {
    /// Every wake-up of the tiering daemon, under random heat: demotions
    /// come before promotions, no node receives more pages than it had
    /// free frames, only hot slow-tier pages are promoted, only heat-0
    /// DRAM pages are demoted and no more than the promotions need, and
    /// the same machine yields the same ops.
    #[test]
    fn tier_wake_respects_its_rules(
        dram in 0u64..17,
        slow in 1u64..13,
        heat in proptest::collection::vec(0u64..8, 3 * 28),
        wakes in 1usize..4,
    ) {
        let (mut m, vpns) = small_bank_machine(dram, slow);
        let topo = m.topology().clone();
        for wake in 0..wakes {
            m.heat.clear();
            for (i, &vpn) in vpns.iter().enumerate() {
                m.heat.insert(vpn, heat[wake * 28 + i]);
            }
            let free_before: Vec<u64> = topo.node_ids().map(|n| m.frames.free_on(n)).collect();
            let tier_of_page = |vpn: u64| {
                let pte = m.space.page_table.get(vpn).expect("populated page is mapped");
                topo.tier_of(m.frames.node_of(pte.frame))
            };
            let hot = vpns
                .iter()
                .filter(|&&v| tier_of_page(v) == MemTier::Slow && m.heat[&v] >= PROMOTE_MIN_HEAT)
                .count() as u64;
            let dram_free: u64 = topo
                .nodes_in_tier(MemTier::Dram)
                .iter()
                .map(|n| free_before[n.index()])
                .sum();

            let ops = numa_tier::tier_wake(&m);
            prop_assert_eq!(format!("{ops:?}"), format!("{:?}", numa_tier::tier_wake(&m)));

            let mut sent: BTreeMap<NodeId, u64> = BTreeMap::new();
            let (mut demoted, mut promoting) = (0u64, false);
            for op in &ops {
                let Op::TierMigrate { pages, dest, transactional } = op else {
                    return Err(TestCaseError::fail(format!("unexpected op {op:?}")));
                };
                prop_assert!(*transactional);
                *sent.entry(*dest).or_default() += pages.len() as u64;
                match topo.tier_of(*dest) {
                    MemTier::Slow => {
                        prop_assert!(!promoting, "demotion after a promotion: {:?}", ops);
                        for &v in pages {
                            prop_assert_eq!(tier_of_page(v), MemTier::Dram);
                            prop_assert_eq!(m.heat[&v], 0, "demoted a warm page");
                        }
                        demoted += pages.len() as u64;
                    }
                    MemTier::Dram => {
                        promoting = true;
                        for &v in pages {
                            prop_assert_eq!(tier_of_page(v), MemTier::Slow);
                            prop_assert!(m.heat[&v] >= PROMOTE_MIN_HEAT, "promoted a cold page");
                        }
                    }
                }
            }
            for (node, n) in &sent {
                prop_assert!(
                    *n <= free_before[node.index()],
                    "node {} got {} pages with {} free", node, n, free_before[node.index()]
                );
            }
            prop_assert!(
                demoted <= hot.saturating_sub(dram_free),
                "{} demotions for {} hot pages and {} free DRAM frames", demoted, hot, dram_free
            );

            if !ops.is_empty() {
                m.run(vec![ThreadSpec::scripted(CoreId(0), ops)], &[]);
            }
        }
    }

    /// After an arbitrary mix of committed and aborted transactional
    /// demotions, no frame is lost or duplicated and every page is still
    /// mapped exactly once, shadow-free.
    #[test]
    fn no_page_lost_or_duplicated_after_commits(
        pages in 1u64..24,
        dirt in proptest::collection::vec(any::<bool>(), 24),
    ) {
        let (mut m, a) = populated_machine(pages);
        let before = m.frames.live_total();
        let mut b = Breakdown::new();
        for p in 0..pages {
            let vpn = (a + p * PAGE_SIZE).vpn();
            let src = m.space.page_table.get(vpn).unwrap().frame;
            let copy_end = m
                .kernel
                .tier_txn_begin(&mut m.space, &mut m.frames, SimTime::ZERO, vpn, NodeId(4), &mut b)
                .expect("begin");
            if dirt[p as usize] {
                // A concurrent writer dirties the page mid-copy.
                m.frames.note_write(src);
            }
            let _ = m
                .kernel
                .tier_txn_commit(&mut m.space, &mut m.frames, copy_end, vpn, &mut b);
        }
        prop_assert_eq!(m.frames.live_total(), before);
        for p in 0..pages {
            let vpn = (a + p * PAGE_SIZE).vpn();
            let pte = m.space.page_table.get(vpn);
            prop_assert!(pte.is_some(), "page {} lost its mapping", p);
            prop_assert!(!pte.unwrap().has_shadow(), "page {} kept a shadow", p);
        }
    }

    /// Page contents survive any number of promote -> demote round trips.
    #[test]
    fn contents_survive_round_trips(pages in 1u64..12, trips in 1usize..4) {
        let (mut m, a) = populated_machine(pages);
        let vpns: Vec<u64> = (0..pages).map(|p| (a + p * PAGE_SIZE).vpn()).collect();
        let tags: Vec<u64> = vpns
            .iter()
            .map(|&vpn| {
                let pte = m.space.page_table.get(vpn).unwrap();
                m.frames.get(pte.frame).unwrap().content_tag
            })
            .collect();
        for _ in 0..trips {
            for dest in [NodeId(4), NodeId(0)] {
                m.run(
                    vec![ThreadSpec::scripted(
                        CoreId(0),
                        vec![Op::TierMigrate {
                            pages: vpns.clone(),
                            dest,
                            transactional: true,
                        }],
                    )],
                    &[],
                );
            }
        }
        for (i, &vpn) in vpns.iter().enumerate() {
            let pte = m.space.page_table.get(vpn).unwrap();
            prop_assert_eq!(m.frames.get(pte.frame).unwrap().content_tag, tags[i]);
            prop_assert_eq!(m.frames.node_of(pte.frame), NodeId(0));
        }
        prop_assert_eq!(m.frames.live_total(), pages);
    }

    /// An aborted copy leaves the source mapping byte-for-byte untouched
    /// and frees the destination frame.
    #[test]
    fn aborted_copy_leaves_source_untouched(pages in 1u64..16, victim_raw in 0u64..16) {
        let (mut m, a) = populated_machine(pages);
        let victim = victim_raw % pages;
        let vpn = (a + victim * PAGE_SIZE).vpn();
        let pte_before = m.space.page_table.get(vpn).unwrap();
        let live_before = m.frames.live_total();
        let mut b = Breakdown::new();
        let copy_end = m
            .kernel
            .tier_txn_begin(&mut m.space, &mut m.frames, SimTime::ZERO, vpn, NodeId(5), &mut b)
            .expect("begin");
        m.frames.note_write(pte_before.frame);
        let (_, outcome) = m
            .kernel
            .tier_txn_commit(&mut m.space, &mut m.frames, copy_end, vpn, &mut b);
        prop_assert_eq!(outcome, numa_kernel::TxnOutcome::Aborted);
        let pte_after = m.space.page_table.get(vpn).unwrap();
        prop_assert_eq!(pte_after.frame, pte_before.frame);
        prop_assert_eq!(pte_after.flags, pte_before.flags);
        prop_assert!(!pte_after.has_shadow());
        prop_assert_eq!(m.frames.live_total(), live_before, "destination frame leaked");
        prop_assert_eq!(m.frames.live_on(NodeId(5)), 0);
    }
}
