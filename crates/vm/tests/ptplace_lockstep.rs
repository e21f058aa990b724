//! Lockstep property test for page-table replication (ptplace).
//!
//! Drives an [`AddressSpace`] with Mitosis-style per-node replicas the
//! way the kernel does: extents come and go only with VMAs (`insert_vma`,
//! `set_vma_huge`, `munmap`, and `mprotect` splits), and PTEs change by
//! the four primary-table mutation shapes the kernel performs — fault
//! map, unmap, protect, migrate (frame flip) — each followed by the
//! `pt_note_update` call the kernel issues. The replication protocol's
//! contract: **after every write-through each replica agrees PTE-for-PTE
//! with the primary, on the same extents.**
//!
//! * Eager write-through: every `pt_note_update` is a sync point — all
//!   replicas agree after every single op.
//! * Storage: the replica set keeps one mirror table for all nodes. A
//!   reference of N independent per-node `BTreeMap` snapshots, each
//!   brought up to the primary on its own, must count the same number of
//!   PTE writes after every op.
//! * Geometry: a fault in the right-hand piece of a huge VMA split at an
//!   offset off the huge-page grid demotes the primary's slab; the
//!   write-through must demote the mirror's slab with it.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameAllocator, PageRange, PageTable, Protection, PtPlacement, PtSyncMode, Pte,
    PteFlags, VirtAddr, Vma, PAGES_PER_HUGE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: usize = 4;
/// Pages of the VMA every run starts with.
const DOMAIN: u64 = 256;
/// Mutation-op universe: (kind, start-vpn, page-count, salt).
type OpVec = Vec<(u8, u64, u64, u64)>;

fn op_strategy() -> impl Strategy<Value = OpVec> {
    proptest::collection::vec((0u8..8, 0u64..DOMAIN, 1u64..48, 0u64..1000), 1..60)
}

/// A replicated space holding one read-write VMA over `[0, DOMAIN)`.
fn replicated_space() -> AddressSpace {
    let mut space = AddressSpace::new();
    space.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, NODES);
    space
        .insert_vma(Vma::anon(PageRange::new(0, DOMAIN)))
        .unwrap();
    space
}

/// `munmap` every VMA that intersects `range`.
fn munmap_overlapping(
    space: &mut AddressSpace,
    frames: &mut FrameAllocator,
    range: PageRange,
) -> Vec<PageRange> {
    let hit: Vec<PageRange> = space
        .vmas()
        .map(|v| v.range)
        .filter(|r| !r.intersect(&range).is_empty())
        .collect();
    for r in &hit {
        space
            .munmap(VirtAddr::from_vpn(r.start_vpn), frames)
            .unwrap();
    }
    hit
}

/// Apply one kernel-shaped op to the space. Returns the range
/// `pt_note_update` must be told about, and the VMA extents `munmap`
/// released (their replica entries go with the extent, uncharged).
fn apply(
    space: &mut AddressSpace,
    frames: &mut FrameAllocator,
    (kind, start, len, salt): (u8, u64, u64, u64),
) -> (PageRange, Vec<PageRange>) {
    let range = PageRange::new(start, start + len);
    let mut note = range;
    let mut unmapped = Vec::new();
    match kind {
        // Fault-in: map every unpopulated page of the range that a VMA
        // covers, at its huge head in a huge VMA (which may lie below the
        // range, so the note widens to take it in).
        0 => {
            for vpn in range.iter() {
                let Some(vma) = space.find_vma(VirtAddr::from_vpn(vpn)) else {
                    continue;
                };
                let (huge, v0) = (vma.huge, vma.range.start_vpn);
                let head = if huge {
                    v0 + (vpn - v0) / PAGES_PER_HUGE * PAGES_PER_HUGE
                } else {
                    vpn
                };
                if space.page_table.get(head).is_some() {
                    continue;
                }
                let mut pte = Pte::present_rw(frames.alloc(NodeId(0)).unwrap());
                if huge {
                    pte.flags |= PteFlags::HUGE;
                }
                space.page_table.map(head, pte);
                note = PageRange::new(note.start_vpn.min(head), note.end_vpn);
            }
        }
        // Drop every mapped page of the range.
        1 => {
            for vpn in range.iter() {
                if let Some(pte) = space.page_table.unmap(vpn) {
                    frames.free(pte.frame);
                }
            }
        }
        // mprotect's PTE half: drop the WRITE bit over the range.
        2 => {
            space.page_table.update_range(range, |_, pte| {
                pte.flags = pte.flags & !PteFlags::WRITE;
            });
        }
        // move_pages: repoint every mapped page at a fresh frame.
        3 => {
            space.page_table.update_range(range, |_, pte| {
                let to = frames.alloc(NodeId(0)).unwrap();
                frames.free(std::mem::replace(&mut pte.frame, to));
            });
        }
        // munmap, then mmap a base-page VMA over the range.
        4 => {
            unmapped = munmap_overlapping(space, frames, range);
            space.insert_vma(Vma::anon(range)).unwrap();
        }
        // munmap, then mmap a huge VMA of one huge page at `start`.
        5 => {
            note = PageRange::new(start, start + PAGES_PER_HUGE);
            unmapped = munmap_overlapping(space, frames, note);
            space.insert_vma(Vma::anon(note)).unwrap();
            space.set_vma_huge(VirtAddr::from_vpn(start)).unwrap();
        }
        // mprotect's VMA half: split (and re-merge) VMAs at the range
        // boundaries; a range with a hole in it is refused, as by Linux.
        6 => {
            let prot = if salt % 2 == 0 {
                Protection::ReadOnly
            } else {
                Protection::ReadWrite
            };
            let _ = space.mprotect(range, prot);
        }
        // munmap alone.
        _ => unmapped = munmap_overlapping(space, frames, range),
    }
    (note, unmapped)
}

/// Bring one node's snapshot up to the primary over `range` and return
/// the PTEs written: one per vpn whose entry is added, dropped or changed.
fn sync_snapshot(snap: &mut BTreeMap<u64, Pte>, primary: &PageTable, range: PageRange) -> u64 {
    let want: BTreeMap<u64, Pte> = primary.walk_range(range).collect();
    let stale: Vec<u64> = snap
        .range(range.start_vpn..range.end_vpn)
        .map(|(&vpn, _)| vpn)
        .filter(|vpn| !want.contains_key(vpn))
        .collect();
    let mut written = stale.len() as u64;
    for vpn in stale {
        snap.remove(&vpn);
    }
    for (vpn, pte) in want {
        written += u64::from(snap.insert(vpn, pte) != Some(pte));
    }
    written
}

proptest! {
    /// Eager write-through: after every op's `pt_note_update`, every
    /// replica agrees PTE-for-PTE with the primary and has its extents.
    #[test]
    fn eager_replicas_agree_after_every_update(ops in op_strategy()) {
        let mut space = replicated_space();
        let mut frames = FrameAllocator::new(1, 1 << 16);
        for op in ops {
            let (note, _) = apply(&mut space, &mut frames, op);
            space.pt_note_update(note);
            let replicas = space.pt_replicas().unwrap();
            for node in 0..NODES {
                let node = NodeId(node as u16);
                prop_assert!(
                    replicas.agrees_with(node, &space.page_table),
                    "replica on {node} diverged from the primary after {op:?}"
                );
                prop_assert!(
                    replicas.replica(node).extents().eq(space.page_table.extents()),
                    "replica on {node} has other extents after {op:?}"
                );
            }
            prop_assert!(space.check_invariants().is_ok());
        }
    }

    /// The eager mirror against a reference of one independent
    /// `BTreeMap` snapshot per node: after every op the mirror's write
    /// count equals the sum of the per-node snapshot diffs, and every
    /// snapshot equals the primary.
    #[test]
    fn eager_mirror_matches_per_node_reference(ops in op_strategy()) {
        let mut space = replicated_space();
        let mut frames = FrameAllocator::new(1, 1 << 16);
        let mut reference = vec![BTreeMap::new(); NODES];
        for op in ops {
            let (note, unmapped) = apply(&mut space, &mut frames, op);
            for snap in &mut reference {
                for r in &unmapped {
                    snap.retain(|vpn, _| !r.contains(*vpn));
                }
            }
            let written = space.pt_note_update(note);
            let expected: u64 = reference
                .iter_mut()
                .map(|snap| sync_snapshot(snap, &space.page_table, note))
                .sum();
            prop_assert_eq!(written, expected, "write count diverged after {:?}", op);
            let replicas = space.pt_replicas().unwrap();
            prop_assert_eq!(replicas.node_count(), NODES);
            for (node, snap) in reference.iter().enumerate() {
                let node = NodeId(node as u16);
                prop_assert!(replicas.agrees_with(node, &space.page_table));
                prop_assert!(
                    snap.iter().map(|(&v, &p)| (v, p)).eq(space.page_table.iter()),
                    "reference on {} diverged", node
                );
            }
        }
    }
}
