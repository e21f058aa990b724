//! The one page-relocation primitive.
//!
//! Every mechanism that moves a mapped page is one kernel operation under
//! a different caller: isolate the page, allocate on the target node,
//! copy under the page-table lock, remap, free the old frame. The frame
//! table does the allocate, copy and free as one in-place move
//! ([`FrameAllocator::relocate`]) once the copy is charged, so a page
//! keeps its frame-table slot for life and a move never grows the table;
//! the room on the target node is checked where the allocation happens,
//! before the copy. Linux runs
//! all of its callers through one `migrate_pages()` core keyed by `enum
//! migrate_reason`; here [`Kernel::relocate_page`] is keyed by
//! [`RelocSite`], and everything that differs between the callers is one
//! `const` row per site. The callers keep only their own eligibility
//! checks. Nomad's copy-without-unmap transaction
//! ([`Kernel::tier_txn_begin`]) is a different protocol and stays apart.

use crate::syscalls::PageStatus;
use crate::Kernel;
use numa_sim::{FaultKind, FaultSite, SimTime, TraceEventKind};
use numa_stats::{Breakdown, CostComponent, Counter};
use numa_topology::{CostModel, NodeId};
use numa_vm::{AddressSpace, FrameAllocator, PageRange, PteFlags, PAGES_PER_HUGE, PAGE_SIZE};

/// Why a page is being relocated: the simulator's `enum migrate_reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocSite {
    /// One page of `move_pages(2)` ([`Kernel::move_page_step`]).
    MovePages,
    /// One page of `migrate_pages(2)` ([`Kernel::migrate_page_step`]).
    MigratePages,
    /// One page of a node hot-remove ([`Kernel::evacuate_page_step`]).
    Evacuate,
    /// One victim of [`Kernel::direct_reclaim`].
    Reclaim,
    /// A stop-the-world tier move ([`Kernel::tier_stw_page`]).
    TierStw,
    /// A kernel next-touch fault ([`Kernel::handle_fault`]).
    NextTouch,
}

/// How a site reports a relocation that did not happen. The page always
/// stays mapped where it is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnFailure {
    /// `move_pages(2)` statuses: `Busy` (retryable), `NoMemory` or
    /// `NotPresent`. Every failure but a transient one is degraded, and
    /// every failure that ran no copy pays the failed isolate.
    Syscall,
    /// Reclaim: an injected failure pins the victim, skipped for the price
    /// of the failed isolate (`Busy`); no room anywhere ends the batch
    /// (`NoMemory`). Nothing is degraded.
    Skip,
    /// Tier and next-touch moves: degrade, charge nothing.
    Degrade,
}

/// Everything that differs between relocation sites.
struct Row {
    fault: FaultSite,
    /// Control cost of relocating a page that covers `pages` base pages.
    control_ns: fn(&CostModel, u64) -> u64,
    control: CostComponent,
    copy: CostComponent,
    on_failure: OnFailure,
    /// Without a given destination, prefer the slow tier when tiering.
    demote: bool,
    /// Record a `MigrationCopy` trace event.
    trace_copy: bool,
    success: Option<Counter>,
    /// Write the PTE change through to page-table replicas (the
    /// next-touch fault notes once itself, after clearing the flag).
    note_replicas: bool,
}

const MOVE_PAGES: Row = Row {
    fault: FaultSite::MovePagesCopy,
    control_ns: |c, _| c.move_pages_control_ns,
    control: CostComponent::MovePagesControl,
    copy: CostComponent::MovePagesCopy,
    on_failure: OnFailure::Syscall,
    demote: false,
    trace_copy: true,
    success: Some(Counter::PagesMovedSyscall),
    note_replicas: true,
};

const MIGRATE_PAGES: Row = Row {
    fault: FaultSite::MigratePagesCopy,
    control_ns: |c, _| c.migrate_pages_control_ns,
    control: CostComponent::MigratePagesWalk,
    copy: CostComponent::FaultCopy,
    success: Some(Counter::PagesMovedProcess),
    ..MOVE_PAGES
};

const EVACUATE: Row = Row {
    fault: FaultSite::Evacuation,
    success: Some(Counter::PagesEvacuated),
    ..MIGRATE_PAGES
};

const RECLAIM: Row = Row {
    fault: FaultSite::Reclaim,
    on_failure: OnFailure::Skip,
    demote: true,
    success: Some(Counter::PagesReclaimed),
    ..MIGRATE_PAGES
};

const TIER_STW: Row = Row {
    fault: FaultSite::TierPromotion,
    on_failure: OnFailure::Degrade,
    success: None,
    ..MOVE_PAGES
};

const NEXT_TOUCH: Row = Row {
    fault: FaultSite::NextTouchFault,
    control_ns: |c, pages| c.nt_fault_control_ns * pages,
    control: CostComponent::FaultControl,
    copy: CostComponent::FaultCopy,
    on_failure: OnFailure::Degrade,
    trace_copy: false,
    success: Some(Counter::PagesMovedFault),
    note_replicas: false,
    ..MOVE_PAGES
};

impl RelocSite {
    fn row(self) -> &'static Row {
        match self {
            RelocSite::MovePages => &MOVE_PAGES,
            RelocSite::MigratePages => &MIGRATE_PAGES,
            RelocSite::Evacuate => &EVACUATE,
            RelocSite::Reclaim => &RECLAIM,
            RelocSite::TierStw => &TIER_STW,
            RelocSite::NextTouch => &NEXT_TOUCH,
        }
    }
}

/// Why a relocation did not happen.
#[derive(Clone, Copy)]
enum Failure {
    Injected(FaultKind),
    NoDestination,
    NoFrame,
    /// No page is mapped at the vpn.
    Vanished,
}

impl Kernel {
    /// Relocate the page mapped at `vpn` to `dest` or, with `dest ==
    /// None`, to the nearest online node with room. The caller has
    /// checked that the page is mapped and eligible; `site` decides the
    /// rest. Costs are added to `b`. Returns the completion time and the
    /// page status.
    ///
    /// An already-placed page costs only control work. Otherwise fault
    /// injection is consulted first, before any side effect, so a
    /// disabled injector leaves every path byte-identical. Then the
    /// destination is resolved and checked for room, the copy run with
    /// its locked fraction under the page-table lock, the frame moved in
    /// place ([`FrameAllocator::relocate`]: new node, same contents, the
    /// old id stale) and the PTE remapped, the success counted and the
    /// page-table replicas noted.
    #[allow(clippy::too_many_arguments)]
    pub fn relocate_page(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        vpn: u64,
        dest: Option<NodeId>,
        site: RelocSite,
        b: &mut Breakdown,
    ) -> (SimTime, PageStatus) {
        let row = site.row();
        let mut t = now;
        let failure = match self.try_relocate(space, frames, &mut t, vpn, dest, row, b) {
            Ok(status) => return (t, status),
            Err(failure) => failure,
        };
        // The page stays mapped where it is; the site's policy decides
        // what the failure costs and how it is reported.
        let (status, reason) = match failure {
            Failure::Injected(FaultKind::TransientCopy) => (PageStatus::Busy, "transient_copy"),
            Failure::Injected(FaultKind::FrameExhausted) | Failure::NoFrame => {
                (PageStatus::NoMemory, "frame_exhausted")
            }
            Failure::NoDestination => (PageStatus::NoMemory, "no_destination"),
            Failure::Injected(FaultKind::RacingUnmap) | Failure::Vanished => {
                (PageStatus::NotPresent, "racing_unmap")
            }
        };
        let status = match row.on_failure {
            OnFailure::Syscall => {
                // A racing unmap has already paid for its wasted copy.
                if status != PageStatus::NotPresent {
                    self.charge_failed_page(&mut t, b, row.control);
                }
                if status != PageStatus::Busy {
                    self.degrade(t, vpn, reason);
                }
                status
            }
            OnFailure::Skip if matches!(failure, Failure::Injected(_)) => {
                self.charge_failed_page(&mut t, b, row.control);
                PageStatus::Busy
            }
            OnFailure::Skip => status,
            OnFailure::Degrade => {
                self.degrade(t, vpn, reason);
                status
            }
        };
        (t, status)
    }

    #[allow(clippy::too_many_arguments)]
    fn try_relocate(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        t: &mut SimTime,
        vpn: u64,
        dest: Option<NodeId>,
        row: &Row,
        b: &mut Breakdown,
    ) -> Result<PageStatus, Failure> {
        let pte = space.page_table.get(vpn).ok_or(Failure::Vanished)?;
        let src = frames.node_of(pte.frame);
        let huge = pte.flags.contains(PteFlags::HUGE);
        // Scalar copies: the `&mut self` calls below cannot overlap a
        // borrow of `self.topo`, and an `Arc` clone per page is host cost.
        let cost = self.topo.cost();
        let (pages, bytes) = if huge {
            (PAGES_PER_HUGE, cost.huge_page_size)
        } else {
            (1, PAGE_SIZE)
        };
        let control_ns = (row.control_ns)(cost, pages);

        if dest == Some(src) {
            // Control work only, partially serialized on the page-table
            // lock (§4.2: "intensive locking and page-table
            // manipulations").
            let fraction = cost.pt_lock_fraction;
            *t = self
                .locks
                .pt_serialized(*t, control_ns, fraction, row.control, b);
            self.counters.bump(Counter::PagesAlreadyPlaced);
            return Ok(PageStatus::AlreadyThere(src));
        }
        if let Some(kind) = self.inject(*t, row.fault) {
            if kind == FaultKind::RacingUnmap && row.on_failure == OnFailure::Syscall {
                // The unmap is discovered mid-copy: the copy work is
                // wasted but its cost (and contention) is real. A site
                // that picks its own destination has not picked one yet,
                // so that wasted copy stays on the source node.
                let to = dest.unwrap_or(src);
                *t = self.locked_migration_copy(*t, src, to, bytes, control_ns, row, b);
            }
            return Err(Failure::Injected(kind));
        }
        let dst = match dest {
            Some(d) => d,
            None => {
                let prefer_slow = row.demote && self.config.tiering && self.topo.is_tiered();
                self.pick_dest(frames, src, prefer_slow)
                    .ok_or(Failure::NoDestination)?
            }
        };
        // The allocation of the destination frame. The frame itself is
        // taken after the copy, by moving the source frame in place.
        if !frames.has_room(dst) {
            return Err(Failure::NoFrame);
        }
        self.counters.bump(Counter::FramesAllocated);
        let copy_start = *t;
        *t = self.locked_migration_copy(*t, src, dst, bytes, control_ns, row, b);
        if row.trace_copy {
            self.trace.record(
                copy_start,
                TraceEventKind::MigrationCopy {
                    page: vpn,
                    from: src.0,
                    to: dst.0,
                    dur_ns: t.since(copy_start),
                },
            );
        }
        // The copy borrows only the kernel, so nothing can unmap the page
        // while it runs. The copy, the remap and the free of the source in
        // one move: the page keeps its frame-table slot, and `pte.frame`
        // goes stale.
        let mut entry = space
            .page_table
            .get_mut(vpn)
            .expect("a page stays mapped while its copy runs");
        entry.frame = frames
            .relocate(pte.frame, dst)
            .expect("the destination had room before the copy");
        drop(entry); // write back before the replica sync reads it
        self.counters.bump(Counter::FramesFreed);
        if let Some(counter) = row.success {
            self.counters.bump(counter);
        }
        if huge {
            self.counters.bump(Counter::HugePagesMoved);
        }
        if row.note_replicas {
            *t = self.pt_note_update(space, *t, PageRange::new(vpn, vpn + 1));
        }
        Ok(PageStatus::Moved(dst))
    }

    /// The control + copy of one page migration, with the cost-model
    /// fraction of the **entire** work serialized under the page-table
    /// lock.
    ///
    /// The 2.6.27 migration path held the page-table/zone/LRU locks
    /// through most of the per-page work — unmapping, copying, remapping —
    /// which is why the paper measures only a 50–60 % aggregate gain from
    /// 4 threads (Fig. 7) and why its LU overhead numbers imply nearly
    /// serialized fault handling at 16 threads. The serialized quantum is
    /// `pt_lock_fraction * (control + copy)`; the remainder of the control
    /// runs unlocked and the remainder of the copy streams through the
    /// interconnect concurrently with other threads.
    #[allow(clippy::too_many_arguments)]
    fn locked_migration_copy(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        control_ns: u64,
        row: &Row,
        b: &mut Breakdown,
    ) -> SimTime {
        let q = self.quanta.get(self.topo.cost(), control_ns, bytes);
        let acq = self.locks.pt.acquire(now, q.serial_ns);
        b.add(row.control, control_ns);
        b.add(CostComponent::LockWait, acq.wait_ns);
        self.trace.record(
            now,
            TraceEventKind::LockAcquire {
                name: "pt_lock",
                wait_ns: acq.wait_ns,
                hold_ns: q.serial_ns,
            },
        );
        let t = acq.end + q.parallel_ctl_ns;
        // The unlocked remainder of the copy: same bytes through the
        // links, initiator time scaled so control+copy totals are
        // preserved.
        let xfer = self
            .interconnect
            .transfer(&self.topo, t, src, dst, bytes, q.copy_bw);
        b.add(row.copy, q.nominal_copy_ns + xfer.wait_ns);
        xfer.end
    }

    /// Charge the (cheaper) cost of a page that could not be migrated:
    /// the kernel still walked the page tables and attempted the isolate
    /// under the page-table lock before bailing, but no copy ever ran.
    /// Always the `move_pages` control cost, whatever the site.
    pub(crate) fn charge_failed_page(
        &mut self,
        t: &mut SimTime,
        b: &mut Breakdown,
        component: CostComponent,
    ) {
        let cost = self.topo.cost();
        *t = self.locks.pt_serialized(
            *t,
            cost.move_pages_control_ns,
            cost.pt_lock_fraction,
            component,
            b,
        );
    }

    /// Account a migration that degraded gracefully: the page stays on
    /// its source node and the caller keeps running.
    pub(crate) fn degrade(&mut self, now: SimTime, vpn: u64, reason: &'static str) {
        self.counters.bump(Counter::MigrationsDegraded);
        self.trace
            .record(now, TraceEventKind::MigrationDegraded { page: vpn, reason });
    }
}
