//! Lockstep property test for page-table replication (ptplace).
//!
//! Drives an [`AddressSpace`] with Mitosis-style per-node replicas
//! through random interleaved sequences of the five primary-table
//! mutation shapes the kernel performs — fault map, unmap, protect,
//! migrate (frame flip), huge-remap — each followed by the
//! `pt_note_update` call the kernel issues. The replication protocol's
//! contract: **at every sync point each replica agrees PTE-for-PTE with
//! the primary.**
//!
//! * Eager mode: every `pt_note_update` is a sync point — all replicas
//!   agree after every single op.
//! * Lazy mode: updates only mark ranges stale; a replica's sync point
//!   is its `pt_sync_node` reconcile. Reconciling a rotating node after
//!   each op exercises staleness accumulated across many ops; a final
//!   reconcile of all nodes must converge everything.
//! * Eager storage: the replica set keeps one mirror table for all nodes.
//!   A reference model of N independent per-node tables, each synced on
//!   its own, must write the same number of PTEs after every op.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameId, PageRange, PageTable, PtPlacement, PtReplicaSet, PtSyncMode, Pte,
    PteFlags,
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
    /// replica agrees PTE-for-PTE with the primary, and nothing is ever
    /// left stale.
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
                prop_assert!(!replicas.is_stale(node), "eager mode never leaves {node} stale");
                prop_assert!(
                    replicas.agrees_with(node, &space.page_table),
                    "replica on {node} diverged from the primary after {}({start}+{len})",
                    kind
                );
            }
        }
    }

    /// Lazy reconcile: updates only mark replicas stale; a replica
    /// agrees with the primary exactly at its own sync points. A
    /// rotating node reconciles after each op (staleness accumulated
    /// over several ops collapses in one reconcile), and a final
    /// all-node reconcile converges every replica.
    #[test]
    fn lazy_replicas_agree_at_sync_points(ops in op_strategy()) {
        let mut space = AddressSpace::new();
        space.pt_configure(PtPlacement::Replicated, PtSyncMode::Lazy, NODES);
        let mut next_frame = 0u64;
        for (i, (kind, start, len, salt)) in ops.into_iter().enumerate() {
            let range = apply(&mut space, kind, start, len, salt, &mut next_frame);
            let written = space.pt_note_update(range);
            prop_assert_eq!(written, 0, "lazy updates must not write replicas");
            if range.pages() > 0 {
                for node in 0..NODES {
                    prop_assert!(
                        space.pt_node_is_stale(NodeId(node as u16)),
                        "an un-reconciled replica must be stale after an update"
                    );
                }
            }
            // Sync point for one rotating node only.
            let node = NodeId((i % NODES) as u16);
            space.pt_sync_node(node);
            prop_assert!(!space.pt_node_is_stale(node));
            prop_assert!(
                space.pt_replicas().unwrap().agrees_with(node, &space.page_table),
                "replica on {node} diverged at its sync point"
            );
        }
        // Final sync point for everyone.
        for node in 0..NODES {
            let node = NodeId(node as u16);
            space.pt_sync_node(node);
            let replicas = space.pt_replicas().unwrap();
            prop_assert!(!replicas.is_stale(node));
            prop_assert!(
                replicas.agrees_with(node, &space.page_table),
                "replica on {node} diverged after the final reconcile"
            );
        }
    }

    /// Mode equivalence: the same op sequence leaves eager replicas and
    /// fully-reconciled lazy replicas in identical states — the sync
    /// discipline changes *when* PTEs are written, never *what*.
    #[test]
    fn eager_and_reconciled_lazy_converge(ops in op_strategy()) {
        let mut eager = AddressSpace::new();
        eager.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, NODES);
        let mut lazy = AddressSpace::new();
        lazy.pt_configure(PtPlacement::Replicated, PtSyncMode::Lazy, NODES);
        let (mut fe, mut fl) = (0u64, 0u64);
        for (kind, start, len, salt) in ops {
            let re = apply(&mut eager, kind, start, len, salt, &mut fe);
            eager.pt_note_update(re);
            let rl = apply(&mut lazy, kind, start, len, salt, &mut fl);
            lazy.pt_note_update(rl);
        }
        for node in 0..NODES {
            let node = NodeId(node as u16);
            lazy.pt_sync_node(node);
            let er = eager.pt_replicas().unwrap().replica(node);
            let lr = lazy.pt_replicas().unwrap().replica(node);
            let e: Vec<(u64, Pte)> = er.iter().collect();
            let l: Vec<(u64, Pte)> = lr.iter().collect();
            prop_assert_eq!(e, l, "eager and lazy replicas diverged on {}", node);
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
                .map(|t: &mut PageTable| PtReplicaSet::sync_range(t, &space.page_table, range))
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
