//! Page-table placement: per-node homes and Mitosis-style replicas.
//!
//! The baseline simulator treats address translation as free — a page walk
//! costs the same whether the page table lives next to the walking core or
//! three hops away. Mitosis (ASPLOS'20, see PAPERS.md) measured remote
//! page-table walks at up to ~3.1x the local cost and fixed it with
//! transparent per-node page-table replicas; numaPTE extends that with
//! page-table migration when a thread moves across nodes.
//!
//! This module holds the *mechanism* half of that design:
//!
//! * [`PtPlacement`] — where an address space's page table lives:
//!   a [`PtPlacement::SingleHome`] node (the Linux default: wherever the
//!   radix tree happened to be allocated) or [`PtPlacement::Replicated`]
//!   per-node copies;
//! * [`PtReplicaSet`] — the per-node replicas, kept equal to the primary
//!   by eager write-through (Mitosis' protocol): every PTE update is
//!   written into every replica at once. Walks are charged by placement
//!   and write-throughs by the number of PTEs written, so no simulated
//!   walk ever reads a replica's contents, and the set stores none. The
//!   primary marks each record whose value changes in a per-slab dirty
//!   bitmap; a write-through over a range is the popcount of the range's
//!   dirty bits, once per node, and clears them.
//!
//! All *timing* (walk latency, sync charges, shootdowns) lives in the
//! kernel and machine layers; like the rest of `numa-vm` this file only
//! maintains state and invariants.

use crate::addr::PageRange;
use crate::page_table::PageTable;
use numa_topology::NodeId;

/// Where an address space's page table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtPlacement {
    /// The whole page table homed on one node. Walks from other nodes pay
    /// the interconnect distance to this node on every TLB miss.
    SingleHome(NodeId),
    /// One replica per node (Mitosis): every walk is node-local, updates
    /// must be propagated to all replicas.
    Replicated,
}

/// How replicas track the primary table. Eager write-through is the
/// only protocol; the type stays so callers keep naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtSyncMode {
    /// Every PTE update is written through to all replicas immediately
    /// (Mitosis' design: updates are rare compared to walks).
    Eager,
}

/// Page-table replicas for every node.
///
/// Every replica starts as a copy of the primary and then receives
/// exactly the same [`PtReplicaSet::propagate`] as every other, so a
/// replica always holds the primary's value of each record as of the last
/// write-through that covered it. Those records are the ones the primary
/// has not marked dirty since, so the set needs only the node count: one
/// write-through writes each dirty record in range once per node.
#[derive(Debug, Clone)]
pub struct PtReplicaSet {
    /// Number of replicas (= NUMA nodes).
    nodes: usize,
}

impl PtReplicaSet {
    /// Build replicas for `nodes` nodes, each starting as a copy of
    /// `primary`: no record differs from them yet, so every dirty bit of
    /// the primary is cleared.
    pub fn new(nodes: usize, primary: &mut PageTable) -> Self {
        primary.take_dirty(PageRange::new(0, u64::MAX));
        PtReplicaSet { nodes }
    }

    /// Number of replicas (= NUMA nodes).
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Write an update of the primary over `range` through to every
    /// replica and return the total number of PTEs written across all
    /// nodes (the quantity the cost model charges for): the records of
    /// `range` whose value changed since a write-through last covered
    /// them, once per node.
    pub fn propagate(&mut self, primary: &mut PageTable, range: PageRange) -> u64 {
        self.nodes as u64 * primary.take_dirty(range)
    }

    /// Does `node`'s replica equal the primary, PTE for PTE? True when no
    /// record of the primary changed since a write-through last covered
    /// it (lockstep-test support).
    pub fn agrees_with(&self, node: NodeId, primary: &PageTable) -> bool {
        assert!(node.index() < self.nodes, "no replica on {node}");
        primary.is_clean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::Pte;
    use crate::FrameId;

    /// A table reserved over `[0, 192)` with `vpns` mapped: three bitmap
    /// words, so counts cross word boundaries.
    fn pt_with(vpns: &[u64]) -> PageTable {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 192));
        for &v in vpns {
            pt.map(v, Pte::present_rw(FrameId(v)));
        }
        pt
    }

    #[test]
    fn sync_installs_removes_and_overwrites() {
        let mut primary = pt_with(&[64, 70, 130]);
        let mut set = PtReplicaSet::new(1, &mut primary);
        assert!(set.agrees_with(NodeId(0), &primary));
        primary.map(1, Pte::present_rw(FrameId(1)));
        primary.map(65, Pte::present_rw(FrameId(65)));
        primary.unmap(70);
        primary.get_mut(130).unwrap().frame = FrameId(999);
        assert!(!set.agrees_with(NodeId(0), &primary));
        // 1 and 65 installed, 70 removed, 130 overwritten.
        assert_eq!(set.propagate(&mut primary, PageRange::new(0, 192)), 4);
        assert!(set.agrees_with(NodeId(0), &primary));
    }

    #[test]
    fn sync_is_idempotent() {
        let mut primary = pt_with(&[4, 7]);
        let mut set = PtReplicaSet::new(2, &mut primary);
        assert_eq!(
            set.propagate(&mut primary, PageRange::new(0, 10)),
            0,
            "replicas built from the primary need no writes"
        );
        // Rewriting a record with its own value changes nothing.
        primary.map(4, Pte::present_rw(FrameId(4)));
        primary.get_mut(7).unwrap().frame = FrameId(7);
        primary.update_range(PageRange::new(0, 10), |_, _| {});
        assert_eq!(set.propagate(&mut primary, PageRange::new(0, 10)), 0);
    }

    #[test]
    fn eager_propagate_hits_all_nodes() {
        let mut primary = pt_with(&[]);
        let mut set = PtReplicaSet::new(3, &mut primary);
        primary.map(8, Pte::present_rw(FrameId(1)));
        let changed = set.propagate(&mut primary, PageRange::new(8, 9));
        assert_eq!(changed, 3, "one write per replica");
        for n in 0..3 {
            assert!(set.agrees_with(NodeId(n), &primary));
        }
        assert_eq!(set.propagate(&mut primary, PageRange::new(8, 9)), 0);
    }
}
