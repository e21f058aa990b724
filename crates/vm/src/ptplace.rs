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
//! * [`PtReplicaSet`] — the per-node replica tables, kept equal to the
//!   primary by eager write-through (Mitosis' protocol): every PTE update
//!   is diffed into the replicas at once, slab for slab, by a
//!   word-parallel, window-bounded bitmap diff over the struct-of-arrays
//!   PTE slabs. Replicas that receive the same writes are identical, so
//!   the set stores one mirror table and charges its write count once per
//!   node. The address space applies every extent edit (reserve, huge
//!   conversion, release) to the mirror as well, so the mirror always has
//!   the primary's slab geometry; the diff repeats the one change a map
//!   makes on its own, demoting a huge slab, and needs no other shape.
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

/// Page-table replicas for every node, stored as one mirror table.
///
/// Every replica starts as a clone of the primary and then receives
/// exactly the same [`PtReplicaSet::propagate`] as every other, so all
/// per-node replicas are identical by construction. The set therefore
/// keeps a single mirror standing for all of them and charges each write
/// once per node: the PTE-write counts equal those of N independent
/// copies at 1/N of the host work and memory.
#[derive(Debug, Clone)]
pub struct PtReplicaSet {
    /// Number of replicas (= NUMA nodes).
    nodes: usize,
    /// The table equal to every node's replica.
    mirror: PageTable,
}

impl PtReplicaSet {
    /// Build replicas for `nodes` nodes, each starting as a copy of
    /// `primary`.
    pub fn new(nodes: usize, primary: &PageTable) -> Self {
        let mirror = primary.clone();
        PtReplicaSet { nodes, mirror }
    }

    /// Number of replicas (= NUMA nodes).
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The replica table of `node` (tests and invariant checks).
    pub fn replica(&self, node: NodeId) -> &PageTable {
        assert!(node.index() < self.nodes, "no replica on {node}");
        &self.mirror
    }

    /// The mirror, for the address space's extent edits.
    pub(crate) fn mirror_mut(&mut self) -> &mut PageTable {
        &mut self.mirror
    }

    /// Write an update of the primary over `range` through to every
    /// replica and return the total number of PTEs written across all
    /// nodes (the quantity the cost model charges for).
    pub fn propagate(&mut self, primary: &PageTable, range: PageRange) -> u64 {
        self.nodes as u64 * self.mirror.sync_from(primary, range)
    }

    /// Do the mapped entries of `node`'s replica equal the primary's,
    /// PTE for PTE? (Lockstep-test support; equality is over the
    /// mapped-entry sequences.)
    pub fn agrees_with(&self, node: NodeId, primary: &PageTable) -> bool {
        self.replica(node).iter().eq(primary.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::Pte;
    use crate::FrameId;

    /// A table reserved over `[0, 192)` with `vpns` mapped: three bitmap
    /// words, so diffs cross word boundaries.
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
        let mut primary = pt_with(&[1, 64, 65, 130]);
        let mut replica = pt_with(&[64, 70, 130]);
        // Make an entry differ in place.
        primary.get_mut(130).unwrap().frame = FrameId(999);
        let changed = replica.sync_from(&primary, PageRange::new(0, 192));
        // 70 removed, 1 and 65 installed, 130 overwritten.
        assert_eq!(changed, 4);
        assert_eq!(replica.sorted_vpns(), vec![1, 64, 65, 130]);
        assert_eq!(replica.get(130).unwrap().frame, FrameId(999));
        let set = PtReplicaSet::new(1, &replica);
        assert!(set.agrees_with(NodeId(0), &primary));
    }

    #[test]
    fn sync_is_idempotent() {
        let primary = pt_with(&[4, 7]);
        let mut replica = pt_with(&[4, 7]);
        let changed = replica.sync_from(&primary, PageRange::new(0, 10));
        assert_eq!(changed, 0, "identical tables need no writes");
    }

    #[test]
    fn eager_propagate_hits_all_nodes() {
        let mut primary = pt_with(&[]);
        let mut set = PtReplicaSet::new(3, &primary);
        primary.map(8, Pte::present_rw(FrameId(1)));
        let changed = set.propagate(&primary, PageRange::new(8, 9));
        assert_eq!(changed, 3, "one write per replica");
        for n in 0..3 {
            assert!(set.agrees_with(NodeId(n), &primary));
        }
        assert_eq!(set.propagate(&primary, PageRange::new(8, 9)), 0);
    }
}
