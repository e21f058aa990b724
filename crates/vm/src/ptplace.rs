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
//! * [`PtReplicaSet`] — the per-node replica tables, kept in sync with the
//!   primary by a word-parallel, window-bounded bitmap diff over the
//!   struct-of-arrays PTE slabs ([`PtReplicaSet::sync_range`], delegating
//!   to [`PageTable::sync_from`]), either eagerly on every update or
//!   lazily (ranges are marked stale and reconciled on the next walk from
//!   that node, [`PtSyncMode`]). Eager replicas are identical by
//!   construction, so they are stored as one mirror table whose write
//!   count is charged once per node.
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

/// How replicas track the primary table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PtSyncMode {
    /// Every PTE update is written through to all replicas immediately
    /// (Mitosis' design: updates are rare compared to walks).
    #[default]
    Eager,
    /// Updates only mark the affected range stale in every replica; a
    /// stale replica is reconciled on the next walk from its node.
    Lazy,
}

/// Page-table replicas for every node, stored as one of two shapes chosen
/// by [`PtSyncMode`] at [`PtReplicaSet::new`].
///
/// Under eager write-through every replica is built as a clone of the
/// primary and then receives exactly the same [`PtReplicaSet::propagate`]
/// as every other, so all per-node replicas are identical by construction.
/// The set therefore keeps a single mirror table standing for all of them
/// and charges each write once per node: the PTE-write counts equal those
/// of N independent copies at 1/N of the host work and memory. Lazy
/// replicas reconcile on their own node's schedule and really do diverge,
/// so they keep one table and one stale-range list per node.
#[derive(Debug, Clone)]
pub struct PtReplicaSet {
    /// Number of replicas (= NUMA nodes).
    nodes: usize,
    tables: Replicas,
}

#[derive(Debug, Clone)]
enum Replicas {
    /// Eager: one table equal to every node's replica.
    Mirror(PageTable),
    /// Lazy: one table per node, indexed by node id, plus its stale
    /// (not-yet-reconciled) ranges in arrival order.
    PerNode {
        replicas: Vec<PageTable>,
        stale: Vec<Vec<PageRange>>,
    },
}

impl PtReplicaSet {
    /// Build replicas for `nodes` nodes, each starting as a copy of
    /// `primary` and kept in sync per `mode`.
    pub fn new(nodes: usize, primary: &PageTable, mode: PtSyncMode) -> Self {
        let tables = match mode {
            PtSyncMode::Eager => Replicas::Mirror(primary.clone()),
            PtSyncMode::Lazy => Replicas::PerNode {
                replicas: vec![primary.clone(); nodes],
                stale: vec![Vec::new(); nodes],
            },
        };
        PtReplicaSet { nodes, tables }
    }

    /// Number of replicas (= NUMA nodes).
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The replica table of `node` (tests and invariant checks).
    pub fn replica(&self, node: NodeId) -> &PageTable {
        assert!(node.index() < self.nodes, "no replica on {node}");
        match &self.tables {
            Replicas::Mirror(mirror) => mirror,
            Replicas::PerNode { replicas, .. } => &replicas[node.index()],
        }
    }

    /// Does `node`'s replica have stale ranges awaiting reconciliation?
    /// Never under eager write-through.
    pub fn is_stale(&self, node: NodeId) -> bool {
        match &self.tables {
            Replicas::Mirror(_) => false,
            Replicas::PerNode { stale, .. } => !stale[node.index()].is_empty(),
        }
    }

    /// Reconcile one replica with the primary over `range`: entries
    /// present only in the replica are unmapped, entries present only in
    /// the primary are installed, and entries that differ are overwritten.
    /// Returns the number of PTEs written (the quantity the cost model
    /// charges for).
    ///
    /// The diff is [`PageTable::sync_from`]: geometry-aligned slab pairs
    /// are compared word-parallel (presence XOR + payload equality over
    /// the part of each 64-record block inside `range`), so clean blocks
    /// cost two loads and a short compare instead of per-entry work.
    pub fn sync_range(replica: &mut PageTable, primary: &PageTable, range: PageRange) -> u64 {
        replica.sync_from(primary, range)
    }

    /// Propagate an update of the primary over `range`. Eager replicas
    /// are written through now and the total number of PTEs written
    /// across all nodes is returned; lazy replicas only mark `range`
    /// stale on every node and 0 is returned.
    pub fn propagate(&mut self, primary: &PageTable, range: PageRange) -> u64 {
        match &mut self.tables {
            Replicas::Mirror(mirror) => {
                self.nodes as u64 * Self::sync_range(mirror, primary, range)
            }
            Replicas::PerNode { stale, .. } => {
                mark_stale(stale, range);
                0
            }
        }
    }

    /// Reconcile every stale range of `node`'s replica against the
    /// primary. Returns the number of PTEs written (0 when it was clean,
    /// and always 0 under eager write-through).
    pub fn reconcile(&mut self, node: NodeId, primary: &PageTable) -> u64 {
        let Replicas::PerNode { replicas, stale } = &mut self.tables else {
            return 0;
        };
        let replica = &mut replicas[node.index()];
        std::mem::take(&mut stale[node.index()])
            .into_iter()
            .map(|range| Self::sync_range(replica, primary, range))
            .sum()
    }

    /// Do the mapped entries of `node`'s replica equal the primary's,
    /// PTE for PTE? (Lockstep-test support; storage layout may differ, so
    /// equality is over the mapped-entry sequences.)
    pub fn agrees_with(&self, node: NodeId, primary: &PageTable) -> bool {
        self.replica(node).iter().eq(primary.iter())
    }
}

/// Mark `range` stale on every node. Adjacent or overlapping back-to-back
/// updates are coalesced into the last recorded range so page-at-a-time
/// fault storms do not grow the lists without bound.
fn mark_stale(stale: &mut [Vec<PageRange>], range: PageRange) {
    if range.is_empty() {
        return;
    }
    for list in stale {
        if let Some(last) = list.last_mut() {
            if range.start_vpn <= last.end_vpn && last.start_vpn <= range.end_vpn {
                last.start_vpn = last.start_vpn.min(range.start_vpn);
                last.end_vpn = last.end_vpn.max(range.end_vpn);
                continue;
            }
        }
        list.push(range);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::Pte;
    use crate::FrameId;

    fn pt_with(vpns: &[u64]) -> PageTable {
        let mut pt = PageTable::new();
        for &v in vpns {
            pt.map(v, Pte::present_rw(FrameId(v)));
        }
        pt
    }

    #[test]
    fn sync_installs_removes_and_overwrites() {
        let mut primary = pt_with(&[1, 2, 5]);
        let mut replica = pt_with(&[2, 3]);
        // Make an entry differ in place.
        primary.get_mut(2).unwrap().frame = FrameId(99);
        let changed = PtReplicaSet::sync_range(&mut replica, &primary, PageRange::new(0, 10));
        // 3 removed, 1 and 5 installed, 2 overwritten.
        assert_eq!(changed, 4);
        assert_eq!(replica.sorted_vpns(), vec![1, 2, 5]);
        assert_eq!(replica.get(2).unwrap().frame, FrameId(99));
        let set = PtReplicaSet::new(1, &replica, PtSyncMode::Lazy);
        assert!(set.agrees_with(NodeId(0), &primary));
    }

    #[test]
    fn sync_is_idempotent() {
        let primary = pt_with(&[4, 7]);
        let mut replica = pt_with(&[4, 7]);
        let changed = PtReplicaSet::sync_range(&mut replica, &primary, PageRange::new(0, 10));
        assert_eq!(changed, 0, "identical tables need no writes");
    }

    #[test]
    fn eager_propagate_hits_all_nodes() {
        let mut primary = PageTable::new();
        let mut set = PtReplicaSet::new(3, &primary, PtSyncMode::Eager);
        primary.map(8, Pte::present_rw(FrameId(1)));
        let changed = set.propagate(&primary, PageRange::new(8, 9));
        assert_eq!(changed, 3, "one write per replica");
        for n in 0..3 {
            assert!(set.agrees_with(NodeId(n), &primary));
            assert!(!set.is_stale(NodeId(n)));
        }
        assert_eq!(set.propagate(&primary, PageRange::new(8, 9)), 0);
        assert_eq!(
            set.reconcile(NodeId(0), &primary),
            0,
            "eager is never stale"
        );
    }

    #[test]
    fn lazy_marks_then_reconciles_per_node() {
        let mut primary = PageTable::new();
        let mut set = PtReplicaSet::new(2, &primary, PtSyncMode::Lazy);
        primary.map(3, Pte::present_rw(FrameId(1)));
        assert_eq!(set.propagate(&primary, PageRange::new(3, 4)), 0);
        assert!(set.is_stale(NodeId(0)) && set.is_stale(NodeId(1)));
        assert!(!set.agrees_with(NodeId(0), &primary), "stale until walked");
        assert_eq!(set.reconcile(NodeId(0), &primary), 1);
        assert!(set.agrees_with(NodeId(0), &primary));
        assert!(!set.is_stale(NodeId(0)));
        assert!(set.is_stale(NodeId(1)), "other node still stale");
        assert_eq!(set.reconcile(NodeId(0), &primary), 0, "clean is free");
    }

    #[test]
    fn adjacent_stale_ranges_coalesce() {
        let mut stale = vec![Vec::new()];
        mark_stale(&mut stale, PageRange::new(0, 1));
        mark_stale(&mut stale, PageRange::new(1, 2));
        mark_stale(&mut stale, PageRange::new(2, 3));
        assert_eq!(stale[0], vec![PageRange::new(0, 3)]);
        mark_stale(&mut stale, PageRange::new(10, 11));
        assert_eq!(stale[0].len(), 2, "disjoint ranges stay separate");
    }
}
