//! Property-based tests for the virtual-memory structures.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameAllocator, FrameId, MemPolicy, PageRange, PageTable, Protection, Pte,
    PteFlags, VirtAddr, VmaKind, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// `PageRange::covering` covers exactly the bytes it is given: every
    /// byte's page is in the range, and every page in the range holds at
    /// least one requested byte.
    #[test]
    fn covering_is_tight(addr in 0u64..1_000_000u64, len in 1u64..100_000u64) {
        let r = PageRange::covering(VirtAddr(addr), len);
        prop_assert!(r.contains(VirtAddr(addr).vpn()));
        prop_assert!(r.contains(VirtAddr(addr + len - 1).vpn()));
        prop_assert_eq!(r.start_vpn, VirtAddr(addr).vpn());
        prop_assert_eq!(r.end_vpn, VirtAddr(addr + len - 1).vpn() + 1);
        // Page count never exceeds len/PAGE_SIZE + 2 boundary pages.
        prop_assert!(r.pages() <= len / PAGE_SIZE + 2);
    }

    /// Intersection is commutative, contained in both operands, and
    /// idempotent.
    #[test]
    fn intersect_properties(
        a0 in 0u64..1000, alen in 0u64..1000,
        b0 in 0u64..1000, blen in 0u64..1000,
    ) {
        let a = PageRange::new(a0, a0 + alen);
        let b = PageRange::new(b0, b0 + blen);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab, ba);
        for vpn in ab.iter() {
            prop_assert!(a.contains(vpn) && b.contains(vpn));
        }
        prop_assert_eq!(ab.intersect(&a), ab);
    }

    /// Arbitrary mprotect sequences over a mapped region never violate
    /// the address-space invariants, and the final protection of every
    /// page equals the last mprotect that covered it.
    #[test]
    fn mprotect_sequences_keep_invariants(
        ops in proptest::collection::vec((0u64..64, 1u64..32, 0u8..3), 1..25)
    ) {
        let mut space = AddressSpace::new();
        let base = space
            .mmap(96 * PAGE_SIZE, Protection::ReadWrite, VmaKind::PrivateAnonymous,
                  MemPolicy::FirstTouch)
            .unwrap();
        let base_vpn = base.vpn();
        let mut expected = [Protection::ReadWrite; 96];
        for (start, len, prot) in ops {
            let prot = match prot {
                0 => Protection::None,
                1 => Protection::ReadOnly,
                _ => Protection::ReadWrite,
            };
            let end = (start + len).min(96);
            if start >= end { continue; }
            space
                .mprotect(PageRange::new(base_vpn + start, base_vpn + end), prot)
                .unwrap();
            for p in start..end {
                expected[p as usize] = prot;
            }
            space.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("invariant broken: {e}"))
            })?;
        }
        for (i, want) in expected.iter().enumerate() {
            let got = space
                .find_vma(VirtAddr::from_vpn(base_vpn + i as u64))
                .unwrap()
                .prot;
            prop_assert_eq!(got, *want, "page {}", i);
        }
    }

    /// VMA count stays bounded by the number of distinct protection
    /// boundaries (merging works): after any op sequence it never exceeds
    /// the page count, and restoring everything to RW collapses to 1.
    #[test]
    fn mprotect_merge_collapses(
        ops in proptest::collection::vec((0u64..32, 1u64..16, 0u8..3), 1..15)
    ) {
        let mut space = AddressSpace::new();
        let base = space
            .mmap(48 * PAGE_SIZE, Protection::ReadWrite, VmaKind::PrivateAnonymous,
                  MemPolicy::FirstTouch)
            .unwrap();
        let base_vpn = base.vpn();
        for (start, len, prot) in ops {
            let prot = match prot {
                0 => Protection::None,
                1 => Protection::ReadOnly,
                _ => Protection::ReadWrite,
            };
            let end = (start + len).min(48);
            if start >= end { continue; }
            space.mprotect(PageRange::new(base_vpn + start, base_vpn + end), prot).unwrap();
        }
        space
            .mprotect(PageRange::new(base_vpn, base_vpn + 48), Protection::ReadWrite)
            .unwrap();
        prop_assert_eq!(space.vma_count(), 1, "uniform protection must merge to one VMA");
    }

    /// Frame allocator conservation: after any alloc/free/relocate
    /// interleaving, live counts equal allocations minus frees, per node
    /// and globally, and capacity is never exceeded. A relocation keeps
    /// the content tag and leaves the old id stale.
    #[test]
    fn frame_allocator_conservation(
        ops in proptest::collection::vec((0u16..3, 0u8..3, 0u16..3), 1..200)
    ) {
        let cap = 20u64;
        let mut fa = FrameAllocator::new(3, cap);
        let mut live: Vec<Vec<numa_vm::FrameId>> = vec![Vec::new(); 3];
        for (node, op, dest) in ops {
            let n = NodeId(node);
            match op {
                0 => match fa.alloc(n) {
                    Some(id) => live[node as usize].push(id),
                    None => prop_assert_eq!(fa.live_on(n), cap, "alloc may only fail when full"),
                },
                1 => {
                    if let Some(id) = live[node as usize].pop() {
                        fa.free(id);
                    }
                }
                _ => {
                    if let Some(&id) = live[node as usize].last() {
                        let d = NodeId(dest);
                        let tag = fa.get(id).unwrap().content_tag;
                        match fa.relocate(id, d) {
                            Some(moved) => {
                                live[node as usize].pop();
                                live[dest as usize].push(moved);
                                prop_assert!(fa.get(id).is_none(), "the old id is stale");
                                let frame = fa.get(moved).unwrap();
                                prop_assert_eq!(frame.content_tag, tag);
                                prop_assert_eq!(frame.node, d);
                            }
                            None => {
                                prop_assert_eq!(fa.live_on(d), cap, "relocate may only fail when full");
                                prop_assert_eq!(fa.node_of(id), n);
                            }
                        }
                    }
                }
            }
            for k in 0..3u16 {
                prop_assert_eq!(fa.live_on(NodeId(k)), live[k as usize].len() as u64);
                prop_assert!(fa.live_on(NodeId(k)) <= cap);
            }
        }
        let total_live: usize = live.iter().map(Vec::len).sum();
        prop_assert_eq!(fa.live_total(), total_live as u64);
        prop_assert_eq!(fa.allocated_total() - fa.freed_total(), total_live as u64);
    }

    /// Interleave policy is a pure function of vpn and spreads exactly
    /// evenly over whole rounds.
    #[test]
    fn interleave_even_spread(nodes in 1usize..8, rounds in 1u64..20) {
        let policy = MemPolicy::interleave_all(nodes);
        let mut counts = vec![0u64; nodes];
        for vpn in 0..(nodes as u64 * rounds) {
            let n = policy.choose_node(vpn, NodeId(0));
            counts[n.index()] += 1;
        }
        prop_assert!(counts.iter().all(|c| *c == rounds), "{counts:?}");
    }

    /// The bitmap-slab page table is PTE-for-PTE equivalent to a naive
    /// `BTreeMap` reference model under random interleaved sequences of
    /// map (ascending, descending and 1-in-64 sparse orders) / unmap /
    /// protect / migrate / huge-remap / reserve / release ops. This is
    /// the representation-only guarantee the SoA rewrite rests on: every
    /// observable read (`get`, `len`, ordered iteration, `walk_range`,
    /// `stats`) agrees with the model after every op. The whole domain
    /// is reserved up front, as an address space reserves every VMA, and
    /// a release is followed by a fresh reservation of the same range
    /// (`munmap`, then `mmap`), so every map lands in a reserved extent.
    #[test]
    fn slab_table_matches_btreemap_reference(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..192, 1u64..48, 0u64..1000), 1..60)
    ) {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 256));
        let mut model: BTreeMap<u64, Pte> = BTreeMap::new();
        let mut next_frame = 0u64;
        for (kind, start, len, salt) in ops {
            let range = PageRange::new(start, start + len);
            match kind {
                // Map every page of the range to fresh frames.
                0 => {
                    for vpn in range.iter() {
                        let pte = Pte::present_rw(FrameId(next_frame));
                        next_frame += 1;
                        prop_assert_eq!(pt.map(vpn, pte), model.insert(vpn, pte),
                            "map({}) disagreed on the previous entry", vpn);
                    }
                }
                // Unmap every page of the range.
                1 => {
                    for vpn in range.iter() {
                        prop_assert_eq!(pt.unmap(vpn), model.remove(&vpn),
                            "unmap({}) disagreed on the removed entry", vpn);
                    }
                }
                // Protect: drop the WRITE bit over the range (the mprotect
                // PTE sync shape), via the linear batch walk.
                2 => {
                    pt.update_range(range, |_, pte| {
                        pte.flags = pte.flags & !PteFlags::WRITE;
                    });
                    for (_, pte) in model.range_mut(range.start_vpn..range.end_vpn) {
                        pte.flags = pte.flags & !PteFlags::WRITE;
                    }
                }
                // Migrate: repoint every mapped page of the range at a new
                // frame (the move_pages PTE flip).
                3 => {
                    pt.update_range(range, |vpn, pte| {
                        pte.frame = FrameId(vpn * 100_000 + salt);
                    });
                    for (vpn, pte) in model.range_mut(range.start_vpn..range.end_vpn) {
                        pte.frame = FrameId(vpn * 100_000 + salt);
                    }
                }
                // Huge-remap: drop the range's small mappings and their
                // storage, reserve the range again, then map the head
                // page only, HUGE-flagged (the mmap_huge shape).
                4 => {
                    // The sink sees exactly the model's entries, in order.
                    let mut released = Vec::new();
                    pt.release_range(range, |vpn, pte| released.push((vpn, pte)));
                    let expect: Vec<(u64, Pte)> = model
                        .range(range.start_vpn..range.end_vpn)
                        .map(|(&vpn, &pte)| (vpn, pte))
                        .collect();
                    prop_assert_eq!(released, expect);
                    model.retain(|vpn, _| !range.contains(*vpn));
                    pt.reserve_range(range);
                    let mut head = Pte::present_rw(FrameId(next_frame));
                    next_frame += 1;
                    head.flags |= PteFlags::HUGE;
                    pt.map(range.start_vpn, head);
                    model.insert(range.start_vpn, head);
                }
                // Descending map.
                5 => {
                    for vpn in (range.start_vpn..range.end_vpn).rev() {
                        let pte = Pte::present_rw(FrameId(next_frame));
                        next_frame += 1;
                        prop_assert_eq!(pt.map(vpn, pte), model.insert(vpn, pte),
                            "descending map({}) disagreed on the previous entry", vpn);
                    }
                }
                // Sparse map: 1-in-64 occupancy, exercising single-bit
                // words in the present bitmap.
                6 => {
                    for vpn in range.iter().filter(|v| v % 64 == salt % 64) {
                        let pte = Pte::present_rw(FrameId(next_frame));
                        next_frame += 1;
                        prop_assert_eq!(pt.map(vpn, pte), model.insert(vpn, pte),
                            "sparse map({}) disagreed on the previous entry", vpn);
                    }
                }
                // Reserve: pure storage pre-sizing, must be unobservable.
                _ => pt.reserve_range(range),
            }
            prop_assert_eq!(pt.len(), model.len(), "len diverged");
        }
        // Full ordered iteration agrees entry-for-entry.
        let got: Vec<(u64, Pte)> = pt.iter().collect();
        let want: Vec<(u64, Pte)> = model.iter().map(|(v, p)| (*v, *p)).collect();
        prop_assert_eq!(got, want, "ordered iteration diverged");
        // Point lookups agree across the whole domain (mapped and not).
        for vpn in 0..256u64 {
            prop_assert_eq!(pt.get(vpn), model.get(&vpn).copied(),
                "get({}) diverged", vpn);
        }
        // Range walks agree on arbitrary windows.
        for (lo, hi) in [(0u64, 64u64), (50, 150), (100, 256), (0, 256)] {
            let got: Vec<(u64, Pte)> =
                pt.walk_range(PageRange::new(lo, hi)).collect();
            let want: Vec<(u64, Pte)> =
                model.range(lo..hi).map(|(v, p)| (*v, *p)).collect();
            prop_assert_eq!(got, want, "walk_range({}, {}) diverged", lo, hi);
        }
        // The incremental aggregates match a from-scratch recount.
        let stats = pt.stats();
        prop_assert_eq!(stats.mapped as usize, model.len());
        let huge = model.values().filter(|p| p.flags.contains(PteFlags::HUGE)).count();
        prop_assert_eq!(stats.huge as usize, huge, "huge tally diverged");
        let nt = model.values().filter(|p| p.flags.contains(PteFlags::NEXT_TOUCH)).count();
        prop_assert_eq!(stats.next_touch as usize, nt, "next-touch tally diverged");
    }

    /// 1-in-64 sparse occupancy over a large reservation: walks skip the
    /// 63-absent-bit words cheaply but must still yield exactly the
    /// mapped pages, in order, over arbitrary windows.
    #[test]
    fn sparse_occupancy_walks_agree(
        offset in 0u64..64, words in 1u64..40,
        win_lo in 0u64..2000, win_len in 0u64..2600,
    ) {
        let span = words * 64;
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, span));
        let mapped: Vec<u64> = (0..words).map(|w| w * 64 + offset).collect();
        for &vpn in &mapped {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        prop_assert_eq!(pt.stats().slabs, 1);
        prop_assert_eq!(pt.len() as u64, words);
        let (lo, hi) = (win_lo.min(span), (win_lo + win_len).min(span));
        let got: Vec<u64> = pt.walk_range(PageRange::new(lo, hi)).map(|(v, _)| v).collect();
        let want: Vec<u64> = mapped.iter().copied().filter(|v| (lo..hi).contains(v)).collect();
        prop_assert_eq!(got, want);
    }

    /// Huge-converted extents store one record per huge page: lookups on
    /// non-head pages miss, walks yield exactly the mapped heads, and
    /// releasing the extent returns one PTE per mapped head.
    #[test]
    fn huge_records_cover_heads_only(
        huge_pages in 1u64..4, mask in 0u64..8, probe in 0u64..1_000,
    ) {
        use numa_vm::PAGES_PER_HUGE;
        let span = huge_pages * PAGES_PER_HUGE;
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, span));
        prop_assert!(pt.convert_range_to_huge(PageRange::new(0, span)));
        let heads: Vec<u64> = (0..huge_pages)
            .filter(|k| mask & (1 << k) != 0)
            .map(|k| k * PAGES_PER_HUGE)
            .collect();
        for &head in &heads {
            let mut pte = Pte::present_rw(FrameId(head));
            pte.flags |= PteFlags::HUGE;
            pt.map(head, pte);
        }
        prop_assert_eq!(pt.len(), heads.len());
        prop_assert_eq!(pt.stats().huge as usize, heads.len());
        prop_assert_eq!(pt.stats().slabs, 1, "one slab records the whole extent");
        let got: Vec<u64> = pt.iter().map(|(v, _)| v).collect();
        prop_assert_eq!(got, heads.clone());
        let vpn = probe % span;
        let expect = heads.contains(&vpn);
        prop_assert_eq!(pt.get(vpn).is_some(), expect, "get({}) diverged", vpn);
        let mut removed = Vec::new();
        pt.release_range(PageRange::new(0, span), |vpn, _| removed.push(vpn));
        prop_assert_eq!(removed, heads.clone());
        prop_assert!(pt.is_empty());
    }

    /// Next-touch marking and clearing are inverses on the access bits.
    #[test]
    fn next_touch_mark_clear_roundtrip(frame in 0u64..1000) {
        let mut pte = Pte::present_rw(numa_vm::FrameId(frame));
        let before = pte.flags;
        pte.mark_next_touch();
        prop_assert!(pte.is_next_touch());
        prop_assert!(!pte.permits(false));
        pte.clear_next_touch();
        prop_assert_eq!(pte.flags, before);
    }
}
