//! Tier migration: transactional (non-exclusive copy) and stop-the-world.
//!
//! Heterogeneous machines pair small fast DRAM banks with large slow
//! CXL-class banks; a tiering daemon moves hot pages up and cold pages
//! down. Two per-page mechanisms are modelled, mirroring the comparison in
//! Nomad (OSDI'23):
//!
//! * **Transactional** ([`Kernel::tier_txn_begin`] /
//!   [`Kernel::tier_txn_commit`]): copy the page *without unmapping it* —
//!   the mapping stays fully usable and the page exists non-exclusively in
//!   both tiers (the PTE's shadow frame). At commit time the source
//!   frame's write generation is re-checked: unchanged means the copy is
//!   consistent and the PTE is flipped under a short page-table-lock
//!   critical section; changed means a concurrent writer dirtied the page
//!   and the copy is aborted (destination freed, mapping untouched).
//!   Writers never stall; the cost of concurrent writes is wasted copies.
//!
//! * **Stop-the-world** ([`Kernel::tier_stw_page`]): the classic
//!   `migrate_pages` discipline — unmap, copy with the cost-model fraction
//!   of the work serialized under the page-table lock, remap. Any thread
//!   touching the page during the window stalls until the migration ends.
//!   Writers are never inconsistent, but they wait.
//!
//! Both paths go through the same [`numa_sim::Resource`] lock and
//! interconnect models as every other kernel path, so migration traffic
//! and application traffic contend honestly.
//! They also write every PTE change — the flip, and the transactional
//! path's shadow install and abort — through to Mitosis-style page-table
//! replicas ([`Kernel::pt_note_update`]), like every other relocation path.

use crate::{Kernel, PageStatus, RelocSite};
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::{Breakdown, CostComponent, Counter};
use numa_topology::{MemTier, NodeId};
use numa_vm::{AddressSpace, FrameAllocator, FrameId, PageRange, Pte, PteFlags, PAGE_SIZE};

/// An in-flight transactional tier migration for one page.
#[derive(Debug, Clone, Copy)]
pub struct TierTxn {
    /// The frame the page was mapped to when the copy started.
    pub src_frame: FrameId,
    /// The destination (shadow) frame being built in the other tier.
    pub dst_frame: FrameId,
    /// Source write generation snapshotted when the copy started.
    pub gen_at_copy: u64,
    /// Fault injection marked this copy as transiently failed: the commit
    /// must abort regardless of the write-generation check.
    pub poisoned: bool,
}

/// Outcome of a transactional commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The write generation was unchanged: the PTE now points at the new
    /// tier and the old frame is freed.
    Committed,
    /// A concurrent writer dirtied the page: the copy was discarded and
    /// the mapping is untouched.
    Aborted,
}

impl Kernel {
    /// Start a transactional migration of `vpn` to `dst_node`: allocate
    /// the destination frame, copy the page through the interconnect
    /// *without* taking the mapping down, and record the source write
    /// generation. Returns the virtual time at which the copy completes —
    /// the commit ([`Kernel::tier_txn_commit`]) must run at that time.
    ///
    /// Returns `None` without side effects when the page is ineligible:
    /// unmapped, huge, next-touch-marked, already in a transaction,
    /// already on `dst_node`, or the destination bank is full.
    pub fn tier_txn_begin(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        vpn: u64,
        dst_node: NodeId,
        b: &mut Breakdown,
    ) -> Option<SimTime> {
        debug_assert!(self.config.tiering, "tiering disabled in KernelConfig");
        let pte = self.tier_movable(space, frames, vpn, dst_node)?;
        let src_node = frames.node_of(pte.frame);
        // Injection decided before any side effect. Frame exhaustion and
        // unmap races degrade exactly like a full destination bank: the
        // page stays put, the daemon moves on. A transient-copy injection
        // poisons the transaction so the commit aborts — exercising the
        // same abort/retry machinery a racing writer does.
        let mut poisoned = false;
        match self.inject(now, numa_sim::FaultSite::TierPromotion) {
            None => {}
            Some(numa_sim::FaultKind::TransientCopy) => poisoned = true,
            Some(kind) => {
                self.degrade(now, vpn, kind.name());
                return None;
            }
        }
        let Some((dst_frame, _)) = self.alloc_frame(frames, dst_node, None) else {
            self.degrade(now, vpn, "frame_exhausted");
            return None;
        };
        self.trace.record(
            now,
            TraceEventKind::MigrationBegin {
                page: vpn,
                from: src_node.0,
                to: dst_node.0,
            },
        );

        // Short critical section: allocate the shadow PTE slot and
        // snapshot the generation. Deliberately much smaller than the
        // stop-the-world control cost — no unmap, no rmap walk. Field
        // borrows of `self.topo` from here on: no `&mut self` calls.
        let cost = self.topo.cost();
        let t = self.locks.pt_serialized(
            now,
            cost.tier_txn_control_ns,
            cost.pt_lock_fraction,
            CostComponent::FaultControl,
            b,
        );
        // The copy itself runs with no lock held: full kernel copy
        // bandwidth, contending only on links and memory controllers.
        let xfer = self.interconnect.transfer(
            &self.topo,
            t,
            src_node,
            dst_node,
            PAGE_SIZE,
            cost.kernel_copy_bw,
        );
        b.add(
            CostComponent::FaultCopy,
            cost.kernel_copy_ns(PAGE_SIZE) + xfer.wait_ns,
        );

        frames.copy_contents(pte.frame, dst_frame);
        let gen_at_copy = frames.write_gen(pte.frame);
        let Some(mut entry) = space.page_table.get_mut(vpn) else {
            // The mapping vanished during the copy: discard it and leave
            // whatever the racer installed; no transaction to commit.
            frames.free(dst_frame);
            self.counters.bump(Counter::FramesFreed);
            self.degrade(xfer.end, vpn, "racing_unmap");
            return None;
        };
        entry.set_shadow(dst_frame);
        drop(entry); // write back before the replica sync reads it
        let end = self.pt_note_update(space, xfer.end, PageRange::new(vpn, vpn + 1));
        self.pending_txns.insert(
            vpn,
            TierTxn {
                src_frame: pte.frame,
                dst_frame,
                gen_at_copy,
                poisoned,
            },
        );
        Some(end)
    }

    /// Attempt to commit the in-flight transactional migration of `vpn`
    /// at `now` (the copy-completion time returned by
    /// [`Kernel::tier_txn_begin`]). Re-checks the write generation:
    /// unchanged commits (PTE flip under the page-table lock, source
    /// freed), changed aborts (destination freed, mapping untouched).
    /// The TLB shootdown after a commit is batched by the caller.
    ///
    /// Panics if no transaction is pending for `vpn` — that is an
    /// engine-sequencing bug, never a workload condition.
    pub fn tier_txn_commit(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        vpn: u64,
        b: &mut Breakdown,
    ) -> (SimTime, TxnOutcome) {
        let txn = self
            .pending_txns
            .remove(&vpn)
            .unwrap_or_else(|| panic!("tier commit without begin for vpn {vpn}"));

        // A poisoned (fault-injected) copy aborts unconditionally.
        // Otherwise the page may have been remapped out from under the
        // transaction (e.g. a next-touch migration): treat as a dirty
        // copy.
        let clean = !txn.poisoned
            && space.page_table.get(vpn).is_some_and(|pte| {
                pte.frame == txn.src_frame && frames.write_gen(txn.src_frame) == txn.gen_at_copy
            });

        if clean {
            // Commit: flip the PTE inside a short critical section.
            let cost = self.topo.cost();
            let end = self.locks.pt_serialized(
                now,
                cost.tier_commit_ns,
                cost.pt_lock_fraction,
                CostComponent::FaultControl,
                b,
            );
            let mut pte = space
                .page_table
                .get_mut(vpn)
                .expect("clean transaction lost its mapping");
            let old = pte.commit_shadow();
            drop(pte); // write back before the replica sync reads it
            debug_assert_eq!(old, txn.src_frame);
            let end = self.pt_note_update(space, end, PageRange::new(vpn, vpn + 1));
            let src_node = frames.node_of(old);
            frames.free(old);
            self.counters.bump(Counter::FramesFreed);
            self.counters.bump(Counter::TierTxnCommits);
            self.trace.record(
                now,
                TraceEventKind::MigrationCommit {
                    page: vpn,
                    dur_ns: end.since(now),
                },
            );
            self.note_tier_move(src_node, frames.node_of(txn.dst_frame), vpn, end);
            (end, TxnOutcome::Committed)
        } else {
            // Abort: discard the copy. The translation was never
            // disturbed, but the replicas drop the shadow entry too.
            let abort_ns = self.topo.cost().tier_abort_ns;
            b.add(CostComponent::FaultControl, abort_ns);
            if let Some(mut pte) = space.page_table.get_mut(vpn) {
                if pte.shadow == Some(txn.dst_frame) {
                    pte.abort_shadow();
                }
            }
            let end = self.pt_note_update(space, now + abort_ns, PageRange::new(vpn, vpn + 1));
            frames.free(txn.dst_frame);
            self.counters.bump(Counter::FramesFreed);
            self.counters.bump(Counter::TierTxnAborts);
            self.trace.record(
                now,
                TraceEventKind::MigrationAbort {
                    page: vpn,
                    dur_ns: abort_ns,
                },
            );
            (end, TxnOutcome::Aborted)
        }
    }

    /// Stop-the-world migration of `vpn` to `dst_node`: unmap, copy with
    /// the cost-model fraction of the work held under the page-table
    /// lock, remap. While in flight, any touch of the page stalls until
    /// the returned completion time (see [`Kernel::tier_stw_stall_end`]).
    /// Eligibility rules match [`Kernel::tier_txn_begin`].
    pub fn tier_stw_page(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        vpn: u64,
        dst_node: NodeId,
        b: &mut Breakdown,
    ) -> Option<SimTime> {
        debug_assert!(self.config.tiering, "tiering disabled in KernelConfig");
        let pte = self.tier_movable(space, frames, vpn, dst_node)?;
        // Stop-the-world has no in-flight state to retry from, so every
        // failure degrades: the page stays in its current tier and the
        // daemon moves on.
        let src_node = frames.node_of(pte.frame);
        let (end, status) = self.relocate_page(
            space,
            frames,
            now,
            vpn,
            Some(dst_node),
            RelocSite::TierStw,
            b,
        );
        let PageStatus::Moved(dst) = status else {
            return None;
        };
        self.note_tier_move(src_node, dst, vpn, end);
        // The page is unmapped for the whole episode: record the window
        // so concurrent touches stall on it.
        self.in_flight_stw.insert(vpn, end);
        Some(end)
    }

    /// If a stop-the-world migration currently has `vpn` unmapped at
    /// `now`, the time the window closes. Expired windows are purged
    /// lazily.
    pub fn tier_stw_stall_end(&mut self, vpn: u64, now: SimTime) -> Option<SimTime> {
        match self.in_flight_stw.get(&vpn).copied() {
            Some(end) if end > now => Some(end),
            Some(_) => {
                self.in_flight_stw.remove(&vpn);
                None
            }
            None => None,
        }
    }

    /// The PTE of `vpn` if a tier move to `dst` may start on it: mapped
    /// and present, not huge, not next-touch-marked, not already in a
    /// transaction and not already on `dst` (counted as already placed).
    fn tier_movable(
        &mut self,
        space: &AddressSpace,
        frames: &FrameAllocator,
        vpn: u64,
        dst: NodeId,
    ) -> Option<Pte> {
        let pte = space.page_table.get(vpn)?;
        if !pte.flags.contains(PteFlags::PRESENT)
            || pte.flags.contains(PteFlags::HUGE)
            || pte.is_next_touch()
            || pte.has_shadow()
        {
            return None;
        }
        if frames.node_of(pte.frame) == dst {
            self.counters.bump(Counter::PagesAlreadyPlaced);
            return None;
        }
        Some(pte)
    }

    /// Classify a completed move as promotion or demotion by the tiers of
    /// its endpoints.
    fn note_tier_move(&mut self, src: NodeId, dst: NodeId, vpn: u64, at: SimTime) {
        let (page, from, to) = (vpn, src.0, dst.0);
        let (counter, event) = match (self.topo.tier_of(src), self.topo.tier_of(dst)) {
            (MemTier::Slow, MemTier::Dram) => (
                Counter::TierPromotions,
                TraceEventKind::TierPromote { page, from, to },
            ),
            (MemTier::Dram, MemTier::Slow) => (
                Counter::TierDemotions,
                TraceEventKind::TierDemote { page, from, to },
            ),
            _ => return,
        };
        self.counters.bump(counter);
        self.trace.record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Fixture;
    use numa_topology::CoreId;

    /// Populate one page from core 0 (node 0 DRAM) and return its vpn.
    fn mapped_page(fx: &mut Fixture) -> u64 {
        let base = fx.map_anon(1);
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            base,
            true,
            &mut Breakdown::new(),
        );
        base.vpn()
    }

    #[test]
    fn txn_commit_demotes_cleanly() {
        let mut fx = Fixture::tiered();
        let vpn = mapped_page(&mut fx);
        let tag = {
            let pte = fx.space.page_table.get(vpn).unwrap();
            fx.frames.get(pte.frame).unwrap().content_tag
        };
        let slow = NodeId(4);
        let mut b = Breakdown::new();
        let copy_end = fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                vpn,
                slow,
                &mut b,
            )
            .expect("begin");
        // Mid-flight: the page is non-exclusive, mapping fully usable.
        let pte = fx.space.page_table.get(vpn).unwrap();
        assert!(pte.has_shadow());
        assert!(pte.permits(true), "transactional copy must not unmap");
        assert_eq!(fx.frames.live_on(NodeId(0)), 1);
        assert_eq!(fx.frames.live_on(slow), 1);

        let (_, outcome) =
            fx.kernel
                .tier_txn_commit(&mut fx.space, &mut fx.frames, copy_end, vpn, &mut b);
        assert_eq!(outcome, TxnOutcome::Committed);
        let pte = fx.space.page_table.get(vpn).unwrap();
        assert!(!pte.has_shadow());
        assert_eq!(fx.frames.node_of(pte.frame), slow);
        assert_eq!(fx.frames.get(pte.frame).unwrap().content_tag, tag);
        assert_eq!(fx.frames.live_on(NodeId(0)), 0, "source freed");
        assert_eq!(fx.frames.live_total(), 1, "no frame lost or duplicated");
        assert_eq!(fx.kernel.counters.get(Counter::TierTxnCommits), 1);
        assert_eq!(fx.kernel.counters.get(Counter::TierDemotions), 1);
        assert_eq!(fx.kernel.counters.get(Counter::TierTxnAborts), 0);
    }

    /// Both tier relocations flip the primary PTE; under eager replicated
    /// page tables every node's replica must see the flip, and the
    /// write-through is charged like on every other relocation path.
    #[test]
    fn tier_moves_write_through_to_pt_replicas() {
        use numa_vm::{PtPlacement, PtSyncMode};
        let mut fx = Fixture::tiered();
        let nodes = fx.kernel.topology().node_count();
        fx.space
            .pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, nodes);
        let all_agree = |fx: &Fixture| {
            let replicas = fx.space.pt_replicas().unwrap();
            fx.kernel
                .topology()
                .node_ids()
                .all(|n| replicas.agrees_with(n, &fx.space.page_table))
        };
        let stw = mapped_page(&mut fx);
        let txn = mapped_page(&mut fx);
        assert!(all_agree(&fx));
        let syncs = |fx: &Fixture| fx.kernel.counters.get(Counter::PtReplicaSyncs);
        let before = syncs(&fx);
        let mut b = Breakdown::new();

        fx.kernel
            .tier_stw_page(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                stw,
                NodeId(4),
                &mut b,
            )
            .expect("stop-the-world move");
        assert!(all_agree(&fx), "stop-the-world move left a replica stale");
        assert_eq!(syncs(&fx), before + 1);

        let copy_end = fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                txn,
                NodeId(5),
                &mut b,
            )
            .expect("begin");
        assert!(all_agree(&fx), "the shadow install left a replica stale");
        assert_eq!(syncs(&fx), before + 2);
        let (_, outcome) =
            fx.kernel
                .tier_txn_commit(&mut fx.space, &mut fx.frames, copy_end, txn, &mut b);
        assert_eq!(outcome, TxnOutcome::Committed);
        assert!(all_agree(&fx), "committed transaction left a replica stale");
        assert_eq!(syncs(&fx), before + 3);
    }

    /// A transaction's shadow edits are PTE writes like any other: the
    /// shadow install, a commit's flip and an abort's shadow drop each
    /// write one entry on every node's replica.
    #[test]
    fn txn_shadow_edits_write_one_pte_per_replica() {
        use numa_vm::{PtPlacement, PtSyncMode};
        let mut fx = Fixture::tiered();
        let nodes = fx.kernel.topology().node_count();
        fx.space
            .pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, nodes);
        let pages = [mapped_page(&mut fx), mapped_page(&mut fx)];
        fx.kernel.trace.enable(64);
        let mut b = Breakdown::new();
        for (vpn, want) in pages
            .into_iter()
            .zip([TxnOutcome::Committed, TxnOutcome::Aborted])
        {
            let (space, frames) = (&mut fx.space, &mut fx.frames);
            let end = fx
                .kernel
                .tier_txn_begin(space, frames, SimTime::ZERO, vpn, NodeId(4), &mut b)
                .expect("begin");
            if want == TxnOutcome::Aborted {
                frames.note_write(space.page_table.get(vpn).unwrap().frame);
            }
            let (_, outcome) = fx.kernel.tier_txn_commit(space, frames, end, vpn, &mut b);
            assert_eq!(outcome, want);
        }
        let written: Vec<u64> = (fx.kernel.trace.snapshot().iter())
            .filter_map(|e| match e.kind {
                TraceEventKind::PtReplicaSync { entries, .. } => Some(entries),
                _ => None,
            })
            .collect();
        // Begin and commit, then begin and abort.
        assert_eq!(written, vec![nodes as u64; 4]);
    }

    #[test]
    fn txn_concurrent_write_aborts() {
        let mut fx = Fixture::tiered();
        let vpn = mapped_page(&mut fx);
        let src_frame = fx.space.page_table.get(vpn).unwrap().frame;
        let mut b = Breakdown::new();
        let copy_end = fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                vpn,
                NodeId(4),
                &mut b,
            )
            .expect("begin");
        // A writer dirties the page while the copy is in flight.
        fx.frames.note_write(src_frame);
        let (_, outcome) =
            fx.kernel
                .tier_txn_commit(&mut fx.space, &mut fx.frames, copy_end, vpn, &mut b);
        assert_eq!(outcome, TxnOutcome::Aborted);
        let pte = fx.space.page_table.get(vpn).unwrap();
        assert_eq!(pte.frame, src_frame, "abort leaves the source mapping");
        assert!(!pte.has_shadow());
        assert!(pte.permits(true));
        assert_eq!(fx.frames.live_on(NodeId(4)), 0, "copy discarded");
        assert_eq!(fx.frames.live_total(), 1);
        assert_eq!(fx.kernel.counters.get(Counter::TierTxnAborts), 1);
        assert_eq!(fx.kernel.counters.get(Counter::TierDemotions), 0);
    }

    #[test]
    fn stw_moves_page_and_stalls_touches() {
        let mut fx = Fixture::tiered();
        let vpn = mapped_page(&mut fx);
        let mut b = Breakdown::new();
        let end = fx
            .kernel
            .tier_stw_page(
                &mut fx.space,
                &mut fx.frames,
                SimTime(100),
                vpn,
                NodeId(4),
                &mut b,
            )
            .expect("stw");
        assert!(end > SimTime(100));
        assert_eq!(
            fx.frames
                .node_of(fx.space.page_table.get(vpn).unwrap().frame),
            NodeId(4)
        );
        // Mid-window touches stall to the end; afterwards nothing does.
        assert_eq!(fx.kernel.tier_stw_stall_end(vpn, SimTime(101)), Some(end));
        assert_eq!(fx.kernel.tier_stw_stall_end(vpn, end), None);
        assert_eq!(fx.kernel.tier_stw_stall_end(vpn, end + 1), None);
        assert_eq!(fx.kernel.counters.get(Counter::TierDemotions), 1);
        // The STW path serializes control+copy under the pt lock.
        assert!(b.get(CostComponent::MovePagesControl) > 0);
        assert!(b.get(CostComponent::MovePagesCopy) > 0);
    }

    #[test]
    fn ineligible_pages_skipped() {
        let mut fx = Fixture::tiered();
        let mut b = Breakdown::new();
        // Unmapped vpn.
        assert!(fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                9999,
                NodeId(4),
                &mut b
            )
            .is_none());
        // Already on the destination node.
        let vpn = mapped_page(&mut fx);
        assert!(fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                vpn,
                NodeId(0),
                &mut b
            )
            .is_none());
        assert_eq!(fx.kernel.counters.get(Counter::PagesAlreadyPlaced), 1);
        // A page already in a transaction cannot start another.
        fx.kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                vpn,
                NodeId(4),
                &mut b,
            )
            .expect("first begin");
        assert!(fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                vpn,
                NodeId(5),
                &mut b
            )
            .is_none());
    }

    #[test]
    fn promotion_counted_from_slow_bank() {
        let mut fx = Fixture::tiered();
        // Bind a page to the slow node, then transactionally promote it.
        let addr = fx
            .space
            .mmap(
                numa_vm::PAGE_SIZE,
                numa_vm::Protection::ReadWrite,
                numa_vm::VmaKind::PrivateAnonymous,
                numa_vm::MemPolicy::Bind(NodeId(4)),
            )
            .unwrap();
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            addr,
            true,
            &mut Breakdown::new(),
        );
        let vpn = addr.vpn();
        assert_eq!(
            fx.frames
                .node_of(fx.space.page_table.get(vpn).unwrap().frame),
            NodeId(4)
        );
        let mut b = Breakdown::new();
        let copy_end = fx
            .kernel
            .tier_txn_begin(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                vpn,
                NodeId(2),
                &mut b,
            )
            .expect("begin");
        let (_, outcome) =
            fx.kernel
                .tier_txn_commit(&mut fx.space, &mut fx.frames, copy_end, vpn, &mut b);
        assert_eq!(outcome, TxnOutcome::Committed);
        assert_eq!(fx.kernel.counters.get(Counter::TierPromotions), 1);
    }
}
