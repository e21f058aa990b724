//! Lockstep property test for page-table replication (ptplace).
//!
//! Drives an [`AddressSpace`] with Mitosis-style per-node replicas
//! through random interleaved sequences of the five primary-table
//! mutation shapes the kernel performs — fault map, unmap, protect,
//! migrate (frame flip), huge-remap — each followed by the
//! `pt_note_update` call the kernel issues. The replication protocol's
//! contract: **after every write-through each replica agrees PTE-for-PTE
//! with the primary.**
//!
//! * Eager write-through: every `pt_note_update` is a sync point — all
//!   replicas agree after every single op.
//! * Storage: the replica set keeps one mirror table for all nodes. A
//!   reference model of N independent per-node tables, each synced on
//!   its own, must write the same number of PTEs after every op.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameId, PageRange, PageTable, PtPlacement, PtSyncMode, Pte, PteFlags,
};
use proptest::prelude::*;

const NODES: usize = 4;
/// Mutation-op universe: (kind, start-vpn, page-count, salt).
type OpVec = Vec<(u8, u64, u64, u64)>;

fn op_strategy() -> impl Strategy<Value = OpVec> {
    proptest::collection::vec((0u8..5, 0u64..192, 1u64..48, 0u64..1000), 1..60)
}

/// Apply one kernel-shaped mutation to the primary table and return the
/// range `pt_note_update` must be told about.
fn apply(
    space: &mut AddressSpace,
    kind: u8,
    start: u64,
    len: u64,
    salt: u64,
    next_frame: &mut u64,
) -> PageRange {
    let range = PageRange::new(start, start + len);
    match kind {
        // Fault-in: map every page of the range to fresh frames.
        0 => {
            for vpn in range.iter() {
                let pte = Pte::present_rw(FrameId(*next_frame));
                *next_frame += 1;
                space.page_table.map(vpn, pte);
            }
        }
        // munmap: drop every page of the range.
        1 => {
            for vpn in range.iter() {
                space.page_table.unmap(vpn);
            }
        }
        // mprotect: drop the WRITE bit over the range.
        2 => {
            space.page_table.update_range(range, |_, pte| {
                pte.flags = pte.flags & !PteFlags::WRITE;
            });
        }
        // move_pages: repoint every mapped page at a new frame.
        3 => {
            space.page_table.update_range(range, |vpn, pte| {
                pte.frame = FrameId(vpn * 100_000 + salt);
            });
        }
        // Huge-remap: drop the small mappings, map the head HUGE.
        _ => {
            space.page_table.release_range(range, |_, _| {});
            let mut head = Pte::present_rw(FrameId(*next_frame));
            *next_frame += 1;
            head.flags |= PteFlags::HUGE;
            space.page_table.map(range.start_vpn, head);
        }
    }
    range
}

proptest! {
    /// Eager write-through: after every op's `pt_note_update`, every
    /// replica agrees PTE-for-PTE with the primary.
    #[test]
    fn eager_replicas_agree_after_every_update(ops in op_strategy()) {
        let mut space = AddressSpace::new();
        space.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, NODES);
        let mut next_frame = 0u64;
        for (kind, start, len, salt) in ops {
            let range = apply(&mut space, kind, start, len, salt, &mut next_frame);
            space.pt_note_update(range);
            let replicas = space.pt_replicas().unwrap();
            for node in 0..NODES {
                let node = NodeId(node as u16);
                prop_assert!(
                    replicas.agrees_with(node, &space.page_table),
                    "replica on {node} diverged from the primary after {}({start}+{len})",
                    kind
                );
            }
        }
    }

    /// The eager mirror against a reference model of one independent
    /// table per node: after every op the mirror's write count equals
    /// the sum of the per-node syncs, and every node agrees with the
    /// primary in both.
    #[test]
    fn eager_mirror_matches_per_node_reference(ops in op_strategy()) {
        let mut space = AddressSpace::new();
        space.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, NODES);
        let mut reference = vec![space.page_table.clone(); NODES];
        let mut next_frame = 0u64;
        for (kind, start, len, salt) in ops {
            let range = apply(&mut space, kind, start, len, salt, &mut next_frame);
            let written = space.pt_note_update(range);
            let expected: u64 = reference
                .iter_mut()
                .map(|t: &mut PageTable| t.sync_from(&space.page_table, range))
                .sum();
            prop_assert_eq!(written, expected, "write count diverged after {}({}+{})", kind, start, len);
            let replicas = space.pt_replicas().unwrap();
            prop_assert_eq!(replicas.node_count(), NODES);
            for (node, table) in reference.iter().enumerate() {
                let node = NodeId(node as u16);
                prop_assert!(replicas.agrees_with(node, &space.page_table));
                prop_assert!(table.iter().eq(space.page_table.iter()), "reference on {} diverged", node);
            }
        }
    }
}
