//! The migration and placement syscalls.
//!
//! * [`Kernel::move_pages`] — §2.3/§3.1, with the quadratic and patched
//!   destination-node lookups both implemented (the lookup is *actually
//!   performed* in host code, so the complexity difference is real, and its
//!   modelled virtual-time cost is charged on top);
//! * [`Kernel::migrate_pages`] — §2.3, whole-address-space walk;
//! * [`Kernel::madvise_next_touch`] — §3.3, Figure 2 left half;
//! * [`Kernel::mprotect`] — §3.2 (the user-space next-touch building block);
//! * [`Kernel::mbind`] / [`Kernel::set_mempolicy`] — §2.3 placement;
//! * [`Kernel::mmap_huge`] and [`Kernel::replicate_read_only`] — the §6
//!   future-work extensions.

use crate::{Kernel, RelocSite};
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::{Breakdown, CostComponent, Counter};
use numa_topology::{round_ns, CoreId, NodeId};
use numa_vm::{
    AddressSpace, FrameAllocator, MemPolicy, PageRange, Protection, PteFlags, Tlb, VirtAddr,
    VmError, VmaKind, PAGES_PER_HUGE, PAGE_SIZE,
};

/// Completion time and cost decomposition of one syscall.
#[derive(Debug, Clone)]
pub struct SyscallOutcome {
    /// Virtual time at which the syscall returns.
    pub end: SimTime,
    /// Where the time went.
    pub breakdown: Breakdown,
}

/// Per-page status reported by `move_pages` (the syscall's status array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageStatus {
    /// Page migrated; now on this node.
    Moved(NodeId),
    /// Page was already on the requested node.
    AlreadyThere(NodeId),
    /// Page not present (never touched, or unmapped by a racer mid-copy)
    /// — `-ENOENT`.
    NotPresent,
    /// Address not covered by any mapping — `-EFAULT`.
    NoVma,
    /// Destination node out of frames — `-ENOMEM`. Degradable: the page
    /// stays on its source node and the caller keeps running.
    NoMemory,
    /// Transient failure (page momentarily pinned/locked) — `-EBUSY`.
    /// Retryable: the engine and the user-space runtime re-attempt these
    /// under their retry policies.
    Busy,
}

/// Result of a `move_pages` call.
#[derive(Debug, Clone)]
pub struct MovePagesResult {
    /// Timing.
    pub outcome: SyscallOutcome,
    /// One status per requested page, in request order.
    pub status: Vec<PageStatus>,
    /// Number of pages actually copied.
    pub moved: u64,
}

impl Kernel {
    /// `move_pages(2)`: migrate each `pages[i]` to `dest[i]`.
    ///
    /// With `config.patched_move_pages == false` this performs (and
    /// charges for) the historical per-page linear scan over the
    /// destination-node array, reproducing the quadratic complexity the
    /// paper diagnosed (§3.1, Fig. 4 "no patch" curve).
    #[allow(clippy::too_many_arguments)]
    pub fn move_pages(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        pages: &[VirtAddr],
        dest: &[NodeId],
    ) -> Result<MovePagesResult, VmError> {
        if pages.len() != dest.len() {
            return Err(VmError::Unsupported("pages/dest length mismatch"));
        }
        self.trace
            .record(now, TraceEventKind::SyscallEnter { name: "move_pages" });
        let mut b = Breakdown::new();
        let mut t = self.migration_begin(now, RelocSite::MovePages, &mut b);

        let n = pages.len();
        let unpatched_n = if self.config.patched_move_pages { 0 } else { n };
        let mut status = Vec::with_capacity(n);
        let mut moved = 0u64;
        for (i, addr) in pages.iter().enumerate() {
            // Destination lookup: the bug vs the fix. With the historical
            // implementation the scan is really executed, so host-side
            // profiles show the same quadratic shape the paper saw; its
            // modelled virtual-time cost is charged by `move_page_step`.
            let dst = if self.config.patched_move_pages {
                dest[i]
            } else {
                quadratic_lookup(dest, i)
            };
            let (end, st) = self.move_page_step(space, frames, t, *addr, dst, unpatched_n, &mut b);
            t = end;
            if matches!(st, PageStatus::Moved(_)) {
                moved += 1;
            }
            status.push(st);
        }
        Ok(self.migration_syscall_end("move_pages", tlb, now, t, core, b, status, moved))
    }

    /// The base bookkeeping of a `move_pages` (or, for
    /// [`RelocSite::MigratePages`], a `migrate_pages`) call, taking the
    /// mmap lock. Exposed so the machine engine can execute syscalls
    /// page-by-page and keep concurrent callers correctly interleaved in
    /// virtual time. Bases serialize on the lock (`move_pages` takes
    /// `mmap_sem`), so sub-1 MB buffers gain nothing from parallel
    /// migration (Fig. 7).
    pub fn migration_begin(&mut self, now: SimTime, site: RelocSite, b: &mut Breakdown) -> SimTime {
        let cost = self.topo.cost();
        let (base, component) = match site {
            RelocSite::MigratePages => {
                (cost.migrate_pages_base_ns, CostComponent::MigratePagesWalk)
            }
            _ => (cost.move_pages_base_ns, CostComponent::MovePagesControl),
        };
        self.locks.mmap_locked(now, base, component, b)
    }

    /// Migrate one page of an in-progress `move_pages` call (engine
    /// micro-step). `unpatched_n` is the destination-array length, used to
    /// charge the historical quadratic lookup when the kernel is
    /// un-patched. Costs are added to `b`; returns the completion time and
    /// the page status. Huge mappings move their whole huge page.
    #[allow(clippy::too_many_arguments)]
    pub fn move_page_step(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        addr: VirtAddr,
        dest: NodeId,
        unpatched_n: usize,
        b: &mut Breakdown,
    ) -> (SimTime, PageStatus) {
        let mut t = now;
        if !self.config.patched_move_pages && unpatched_n > 0 {
            let per_entry = self.topo.cost().unpatched_lookup_ns_per_entry;
            let lookup_ns = round_ns(per_entry * unpatched_n as f64);
            b.add(CostComponent::QuadraticLookup, lookup_ns);
            t += lookup_ns;
        }
        let Some(vma) = space.find_vma(addr) else {
            return (t, PageStatus::NoVma);
        };
        let vpn = if vma.huge {
            huge_head(vma.range.start_vpn, addr.vpn())
        } else {
            addr.vpn()
        };
        if space.page_table.get(vpn).is_none() {
            // A not-present page still costs the lookup and isolate
            // attempt under the page-table lock (cheaper than a move).
            self.charge_failed_page(&mut t, b, CostComponent::MovePagesControl);
            return (t, PageStatus::NotPresent);
        }
        self.relocate_page(space, frames, t, vpn, Some(dest), RelocSite::MovePages, b)
    }

    /// The batched TLB shootdown that ends a migration syscall (engine
    /// micro-step).
    pub fn migration_shootdown(
        &mut self,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        b: &mut Breakdown,
    ) -> SimTime {
        let hit = tlb.shootdown_all(core);
        self.counters.bump(Counter::TlbShootdowns);
        let flush = self.topo.cost().tlb_flush_ns(hit);
        b.add(CostComponent::TlbFlush, flush);
        self.trace
            .record(now, TraceEventKind::TlbShootdown { dur_ns: flush });
        now + flush
    }

    /// End a migration syscall that started at `now` and finished its
    /// pages at `t`: one batched shootdown for the whole call, the exit
    /// trace and the result.
    #[allow(clippy::too_many_arguments)]
    fn migration_syscall_end(
        &mut self,
        name: &'static str,
        tlb: &mut Tlb,
        now: SimTime,
        t: SimTime,
        core: CoreId,
        mut b: Breakdown,
        status: Vec<PageStatus>,
        moved: u64,
    ) -> MovePagesResult {
        let end = self.migration_shootdown(tlb, t, core, &mut b);
        self.trace.record(
            now,
            TraceEventKind::SyscallExit {
                name,
                pages: moved,
                dur_ns: end.since(now),
            },
        );
        MovePagesResult {
            outcome: SyscallOutcome { end, breakdown: b },
            status,
            moved,
        }
    }

    /// Migrate one page of an in-progress `migrate_pages` walk (engine
    /// micro-step): move the page at `vpn` if its frame is on a node in
    /// `from`, to the positionally-corresponding node in `to`. Costs are
    /// added to `b`; the status is `None` when the page is out of scope.
    #[allow(clippy::too_many_arguments)]
    pub fn migrate_page_step(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        vpn: u64,
        from: &[NodeId],
        to: &[NodeId],
        b: &mut Breakdown,
    ) -> (SimTime, Option<PageStatus>) {
        let Some(pte) = space.page_table.get(vpn) else {
            return (now, None);
        };
        if pte.flags.contains(PteFlags::HUGE) && !self.config.huge_page_migration {
            return (now, None);
        }
        let src = frames.node_of(pte.frame);
        let Some(pos) = from.iter().position(|n| *n == src) else {
            return (now, None);
        };
        let (end, status) = self.relocate_page(
            space,
            frames,
            now,
            vpn,
            Some(to[pos]),
            RelocSite::MigratePages,
            b,
        );
        (end, Some(status))
    }

    /// `migrate_pages(2)`: move every page currently on a node in `from`
    /// to the positionally-corresponding node in `to`, walking the whole
    /// address space in order (§2.3, §4.2).
    #[allow(clippy::too_many_arguments)]
    pub fn migrate_pages(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        from: &[NodeId],
        to: &[NodeId],
    ) -> Result<MovePagesResult, VmError> {
        if from.is_empty() || from.len() != to.len() {
            return Err(VmError::Unsupported("from/to node sets mismatch"));
        }
        self.trace.record(
            now,
            TraceEventKind::SyscallEnter {
                name: "migrate_pages",
            },
        );
        let mut b = Breakdown::new();
        let mut t = self.migration_begin(now, RelocSite::MigratePages, &mut b);

        let mut moved = 0u64;
        let mut status = Vec::with_capacity(space.page_table.len());
        // The ordered walk is what gives migrate_pages its better locality
        // and lower per-page control cost (§4.2). A cursor instead of a
        // snapshot: the syscall runs atomically and a step never maps or
        // unmaps a page, so it visits exactly the pages mapped at entry.
        let mut cursor = space.page_table.next_mapped(0);
        while let Some(vpn) = cursor {
            let (end, st) = self.migrate_page_step(space, frames, t, vpn, from, to, &mut b);
            t = end;
            if let Some(st) = st {
                if matches!(st, PageStatus::Moved(_)) {
                    moved += 1;
                }
                status.push(st);
            }
            cursor = space.page_table.next_mapped(vpn + 1);
        }
        Ok(self.migration_syscall_end("migrate_pages", tlb, now, t, core, b, status, moved))
    }

    /// `madvise(addr, len, MADV_MIGRATE_NEXT_TOUCH)` (§3.3): clear the
    /// access bits of every *present* page in the range and set the
    /// next-touch PTE flag; the next touching thread's fault migrates the
    /// page to its node. Pages not yet faulted in are untouched — they
    /// will first-touch correctly anyway.
    #[allow(clippy::too_many_arguments)]
    pub fn madvise_next_touch(
        &mut self,
        space: &mut AddressSpace,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        range: PageRange,
    ) -> Result<SyscallOutcome, VmError> {
        if !self.config.kernel_next_touch {
            return Err(VmError::Unsupported("kernel next-touch disabled"));
        }
        // The paper's implementation only supports private anonymous
        // memory (§6).
        let mut vpn = range.start_vpn;
        while vpn < range.end_vpn {
            let Some(vma) = space.find_vma(VirtAddr::from_vpn(vpn)) else {
                return Err(VmError::NoVma(VirtAddr::from_vpn(vpn)));
            };
            if vma.kind != VmaKind::PrivateAnonymous {
                return Err(VmError::Unsupported("next-touch on non-private mapping"));
            }
            vpn = vma.range.end_vpn;
        }

        self.trace
            .record(now, TraceEventKind::SyscallEnter { name: "madvise" });
        let topo = self.topology().clone();
        let cost = topo.cost();
        let mut b = Breakdown::new();
        let mut marked = 0u64;
        // One linear slab walk marks the whole range — mapped pages come
        // back in ascending vpn order, matching the old per-page loop.
        space.page_table.update_range(range, |_vpn, pte| {
            if pte.flags.contains(PteFlags::HUGE) || !pte.is_next_touch() {
                pte.mark_next_touch();
                marked += 1;
            }
        });
        let ns = cost.madvise_base_ns + cost.madvise_per_page_ns * marked;
        b.add(CostComponent::Madvise, ns);
        let mut t = now + ns;
        t = self.pt_note_update(space, t, range);

        // Removing access bits requires a shootdown so no stale TLB entry
        // lets a core skip the fault.
        if marked > 0 {
            let hit = tlb.shootdown_all(core);
            self.counters.bump(Counter::TlbShootdowns);
            let flush = cost.tlb_flush_ns(hit);
            b.add(CostComponent::TlbFlush, flush);
            t += flush;
        }
        self.counters.add(Counter::PagesMarkedNextTouch, marked);
        self.trace.record(
            now,
            TraceEventKind::SyscallExit {
                name: "madvise",
                pages: marked,
                dur_ns: t.since(now),
            },
        );
        Ok(SyscallOutcome {
            end: t,
            breakdown: b,
        })
    }

    /// `munmap(2)` of the mapping that starts at `addr`: tear down the
    /// VMA, free every backing frame, and flush stale translations.
    ///
    /// The PT teardown walk is charged like the madvise range walk (base
    /// plus per-present-page), serialized under the mmap lock. Replicated
    /// page tables drop the same entries, but that write-through is not
    /// charged, so the cost is the same for every placement. Multitenant
    /// churn leans on this path: a departing tenant's frames return to the
    /// shared pool only once its unmap has paid the teardown and shootdown.
    pub fn munmap(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        addr: VirtAddr,
    ) -> Result<SyscallOutcome, VmError> {
        self.trace
            .record(now, TraceEventKind::SyscallEnter { name: "munmap" });
        let pages = space.munmap(addr, frames)?;
        self.counters.add(Counter::FramesFreed, pages);
        let topo = self.topology().clone();
        let cost = topo.cost();
        let mut b = Breakdown::new();
        let ns = cost.madvise_base_ns + cost.madvise_per_page_ns * pages;
        let mut t = self
            .locks
            .mmap_locked(now, ns, CostComponent::Other, &mut b);
        // Any core may hold stale translations for the torn-down range.
        if pages > 0 {
            let hit = tlb.shootdown_all(core);
            self.counters.bump(Counter::TlbShootdowns);
            let flush = cost.tlb_flush_ns(hit);
            b.add(CostComponent::TlbFlush, flush);
            t += flush;
        }
        self.trace.record(
            now,
            TraceEventKind::SyscallExit {
                name: "munmap",
                pages,
                dur_ns: t.since(now),
            },
        );
        Ok(SyscallOutcome {
            end: t,
            breakdown: b,
        })
    }

    /// `mprotect(2)` over a page range. `component` states why the caller
    /// is changing protection so the Figure-6 breakdown can distinguish
    /// the user-space next-touch *mark* from its *restore*.
    #[allow(clippy::too_many_arguments)]
    pub fn mprotect(
        &mut self,
        space: &mut AddressSpace,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        range: PageRange,
        prot: Protection,
        component: CostComponent,
    ) -> Result<SyscallOutcome, VmError> {
        space.mprotect(range, prot)?;
        self.trace
            .record(now, TraceEventKind::SyscallEnter { name: "mprotect" });
        // Keep PTE access bits consistent with the new VMA protection
        // (preserving the next-touch and huge flags) in one linear slab
        // walk over the range.
        space.page_table.update_range(range, |_vpn, pte| {
            let keep = pte.flags & (PteFlags::NEXT_TOUCH | PteFlags::HUGE | PteFlags::REPLICA);
            let mut flags = PteFlags::PRESENT | keep;
            match prot {
                Protection::None => {}
                Protection::ReadOnly => flags |= PteFlags::READ,
                Protection::ReadWrite => flags |= PteFlags::READ | PteFlags::WRITE,
            }
            // A next-touch-marked page stays fault-on-touch.
            if pte.flags.contains(PteFlags::NEXT_TOUCH) {
                flags = (flags & !(PteFlags::READ | PteFlags::WRITE)) | PteFlags::NEXT_TOUCH;
            }
            pte.flags = flags;
        });
        let topo = self.topology().clone();
        let cost = topo.cost();
        let mut b = Breakdown::new();
        let ns = cost.mprotect_base_ns + cost.mprotect_per_page_ns * range.pages();
        b.add(component, ns);
        let mut t = now + ns;
        t = self.pt_note_update(space, t, range);

        // Every mprotect flushes the TLB on all processors (§3.3 names
        // this as a key overhead of the user-space model).
        let hit = tlb.shootdown_all(core);
        self.counters.bump(Counter::TlbShootdowns);
        let flush = cost.tlb_flush_ns(hit);
        b.add(CostComponent::TlbFlush, flush);
        t += flush;

        self.counters.bump(Counter::MprotectCalls);
        self.trace.record(
            now,
            TraceEventKind::SyscallExit {
                name: "mprotect",
                pages: range.pages(),
                dur_ns: t.since(now),
            },
        );
        Ok(SyscallOutcome {
            end: t,
            breakdown: b,
        })
    }

    /// `mbind(2)`: set the placement policy of a range.
    pub fn mbind(
        &mut self,
        space: &mut AddressSpace,
        now: SimTime,
        range: PageRange,
        policy: MemPolicy,
    ) -> Result<SyscallOutcome, VmError> {
        space.for_each_vma_in(range, |vma| vma.policy = policy.clone())?;
        let cost = self.topology().cost();
        let mut b = Breakdown::new();
        b.add(CostComponent::Other, cost.mbind_base_ns);
        self.trace.record(
            now,
            TraceEventKind::SyscallExit {
                name: "mbind",
                pages: range.pages(),
                dur_ns: cost.mbind_base_ns,
            },
        );
        Ok(SyscallOutcome {
            end: now + cost.mbind_base_ns,
            breakdown: b,
        })
    }

    /// `mbind(2)` with `MPOL_MF_MOVE`: set the policy **and** migrate the
    /// already-populated pages that violate it, like the real flag. Pages
    /// land where the policy would have placed them at fault time (with
    /// the caller's node standing in for "local"). Kept without a caller:
    /// it models one of the Linux migration syscalls the paper builds on.
    #[allow(clippy::too_many_arguments)]
    pub fn mbind_move(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        range: PageRange,
        policy: MemPolicy,
    ) -> Result<MovePagesResult, VmError> {
        self.mbind(space, now, range, policy.clone())?;
        let local = self.topology().node_of_core(core);
        let mut b = Breakdown::new();
        let mut t = self.migration_begin(now, RelocSite::MovePages, &mut b);
        let mut moved = 0u64;
        let mut status = Vec::new();
        // One linear walk snapshots the mapped vpns of the range; the
        // per-page move steps below mutate the table, so they run off the
        // snapshot (each step only touches its own vpn).
        let mapped: Vec<u64> = space.page_table.walk_range(range).map(|(v, _)| v).collect();
        for vpn in mapped {
            let Some(pte) = space.page_table.get(vpn) else {
                continue;
            };
            let want = policy.choose_node(vpn, local);
            if frames.node_of(pte.frame) == want {
                self.counters.bump(Counter::PagesAlreadyPlaced);
                status.push(PageStatus::AlreadyThere(want));
                continue;
            }
            let (end, st) =
                self.move_page_step(space, frames, t, VirtAddr::from_vpn(vpn), want, 0, &mut b);
            t = end;
            if matches!(st, PageStatus::Moved(_)) {
                moved += 1;
            }
            status.push(st);
        }
        let end = self.migration_shootdown(tlb, t, core, &mut b);
        Ok(MovePagesResult {
            outcome: SyscallOutcome { end, breakdown: b },
            status,
            moved,
        })
    }

    /// `set_mempolicy(2)`: set the process-default policy.
    pub fn set_mempolicy(
        &mut self,
        space: &mut AddressSpace,
        now: SimTime,
        policy: MemPolicy,
    ) -> SyscallOutcome {
        space.set_default_policy(policy);
        let cost = self.topology().cost();
        let mut b = Breakdown::new();
        b.add(CostComponent::Other, cost.mbind_base_ns);
        SyscallOutcome {
            end: now + cost.mbind_base_ns,
            breakdown: b,
        }
    }

    /// Map `len` bytes backed by huge pages (extension). Requires
    /// `config.huge_page_migration`; the mapping length is rounded up to a
    /// whole number of huge pages.
    pub fn mmap_huge(
        &mut self,
        space: &mut AddressSpace,
        len: u64,
        policy: MemPolicy,
    ) -> Result<VirtAddr, VmError> {
        if !self.config.huge_page_migration {
            return Err(VmError::Unsupported("huge pages disabled"));
        }
        let cost = self.topology().cost();
        let rounded = len.div_ceil(cost.huge_page_size) * cost.huge_page_size;
        let addr = space.mmap(
            rounded,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            policy,
        )?;
        space.set_vma_huge(addr)?;
        Ok(addr)
    }

    /// Replicate every present read-only page of `range` onto all nodes
    /// (extension, §6: "replicating read-only pages among NUMA nodes so as
    /// to achieve local access performance from anywhere"). The range's
    /// protection must already be read-only; writes to replicated pages
    /// are not supported.
    #[allow(clippy::too_many_arguments)]
    pub fn replicate_read_only(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        range: PageRange,
    ) -> Result<SyscallOutcome, VmError> {
        if !self.config.replication {
            return Err(VmError::Unsupported("replication disabled"));
        }
        // Validate protection first.
        let mut vpn = range.start_vpn;
        while vpn < range.end_vpn {
            let Some(vma) = space.find_vma(VirtAddr::from_vpn(vpn)) else {
                return Err(VmError::NoVma(VirtAddr::from_vpn(vpn)));
            };
            if vma.prot != Protection::ReadOnly {
                return Err(VmError::Unsupported("replication requires read-only range"));
            }
            vpn = vma.range.end_vpn;
        }
        let topo = self.topology().clone();
        let cost = topo.cost();
        let mut b = Breakdown::new();
        let mut t = now;
        let mut replicated = 0u64;
        // Snapshot mapped (vpn, frame) pairs in one walk; the loop body
        // allocates and flags, which needs the table mutable.
        let mapped: Vec<(u64, numa_vm::FrameId)> = space
            .page_table
            .walk_range(range)
            .map(|(v, p)| (v, p.frame))
            .collect();
        for (vpn, home_frame) in mapped {
            let home = frames.node_of(home_frame);
            let mut copies = Vec::new();
            for node in topo.node_ids() {
                if node == home {
                    continue;
                }
                let Some((f, _)) = self.alloc_frame(frames, node, None) else {
                    continue;
                };
                let xfer = self.interconnect.transfer(
                    &topo,
                    t,
                    home,
                    node,
                    PAGE_SIZE,
                    cost.kernel_copy_bw,
                );
                b.add(CostComponent::Other, xfer.end.since(t));
                t = xfer.end;
                frames.copy_contents(home_frame, f);
                copies.push((node, f));
            }
            if !copies.is_empty() {
                copies.push((home, home_frame));
                self.replicas_mut().insert(vpn, copies);
                replicated += 1;
                if let Some(mut entry) = space.page_table.get_mut(vpn) {
                    entry.flags |= PteFlags::REPLICA;
                }
            }
        }
        self.counters.add(Counter::PagesReplicated, replicated);
        t = self.pt_note_update(space, t, range);
        Ok(SyscallOutcome {
            end: t,
            breakdown: b,
        })
    }

    /// Drop all replicas in `range`, freeing their frames (needed before a
    /// replicated page can be written or migrated).
    pub fn unreplicate(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        range: PageRange,
    ) {
        let mapped: Vec<(u64, numa_vm::FrameId)> = space
            .page_table
            .walk_range(range)
            .map(|(v, p)| (v, p.frame))
            .collect();
        for (vpn, home_frame) in mapped {
            if let Some(copies) = self.replicas_mut().remove(&vpn) {
                for (_, f) in copies {
                    if f != home_frame {
                        frames.free(f);
                    }
                }
            }
            if let Some(mut pte) = space.page_table.get_mut(vpn) {
                pte.flags = pte.flags & !PteFlags::REPLICA;
            }
        }
        // unreplicate has no virtual-time position of its own; propagate
        // the flag change to PT replicas without charging anything.
        let _ = space.pt_note_update(range);
    }
}

/// The historical `do_pages_move` lookup: scan the whole destination array
/// to find slot `i`'s node. Deliberately O(n): the host really pays it.
fn quadratic_lookup(dest: &[NodeId], i: usize) -> NodeId {
    let mut found = dest[0];
    for (j, node) in dest.iter().enumerate() {
        // The real code compared user-space pointers per chunk; the
        // structural point is the full scan per processed page.
        if j == i {
            found = *node;
        }
    }
    found
}

/// Head vpn of the huge page containing `vpn` within a VMA starting at
/// `vma_start` (huge framing is relative to the VMA base).
pub(crate) fn huge_head(vma_start: u64, vpn: u64) -> u64 {
    vma_start + (vpn - vma_start) / PAGES_PER_HUGE * PAGES_PER_HUGE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Fixture;
    use crate::FaultResolution;

    fn touch_all(fx: &mut Fixture, base: VirtAddr, pages: u64, core: CoreId) -> SimTime {
        let mut t = SimTime::ZERO;
        for p in 0..pages {
            match fx.kernel.handle_fault(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                t,
                core,
                base + p * PAGE_SIZE,
                true,
                &mut Breakdown::new(),
            ) {
                FaultResolution::Resolved { end, .. } => t = end,
                other => panic!("unexpected fault outcome {other:?}"),
            }
        }
        t
    }

    #[test]
    fn move_pages_moves_to_requested_nodes() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(4);
        // Populate on node 0 (core 0).
        touch_all(&mut fx, base, 4, CoreId(0));
        let pages: Vec<VirtAddr> = (0..4).map(|p| base + p * PAGE_SIZE).collect();
        let dest = vec![NodeId(1); 4];
        let r = fx
            .kernel
            .move_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime(1_000_000),
                CoreId(0),
                &pages,
                &dest,
            )
            .unwrap();
        assert_eq!(r.moved, 4);
        assert!(r.status.iter().all(|s| *s == PageStatus::Moved(NodeId(1))));
        for p in &pages {
            let pte = fx.space.page_table.get(p.vpn()).unwrap();
            assert_eq!(fx.frames.node_of(pte.frame), NodeId(1));
        }
    }

    #[test]
    fn move_pages_preserves_contents() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(1);
        touch_all(&mut fx, base, 1, CoreId(0));
        let tag_before = {
            let pte = fx.space.page_table.get(base.vpn()).unwrap();
            fx.frames.get(pte.frame).unwrap().content_tag
        };
        fx.kernel
            .move_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                &[base],
                &[NodeId(2)],
            )
            .unwrap();
        let pte = fx.space.page_table.get(base.vpn()).unwrap();
        assert_eq!(fx.frames.get(pte.frame).unwrap().content_tag, tag_before);
    }

    #[test]
    fn move_pages_statuses() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(3);
        // Only page 0 populated.
        touch_all(&mut fx, base, 1, CoreId(0));
        let pages = vec![
            base,             // present, on node 0
            base + PAGE_SIZE, // not present
            VirtAddr(0x10),   // no vma
        ];
        let dest = vec![NodeId(0), NodeId(1), NodeId(1)];
        let r = fx
            .kernel
            .move_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                &pages,
                &dest,
            )
            .unwrap();
        assert_eq!(r.status[0], PageStatus::AlreadyThere(NodeId(0)));
        assert_eq!(r.status[1], PageStatus::NotPresent);
        assert_eq!(r.status[2], PageStatus::NoVma);
        assert_eq!(r.moved, 0);
    }

    #[test]
    fn move_pages_length_mismatch_rejected() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(1);
        let err = fx
            .kernel
            .move_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                &[base],
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, VmError::Unsupported(_)));
    }

    /// Pins the Linux `move_pages(2)` partial-failure contract: a per-page
    /// failure is reported in the status array and the syscall keeps
    /// processing the remaining pages instead of aborting the batch.
    #[test]
    fn move_pages_partial_failure_keeps_processing() {
        use numa_sim::{FaultKind, FaultPlan, FaultSite};
        let mut fx = Fixture::new();
        let base = fx.map_anon(3);
        touch_all(&mut fx, base, 3, CoreId(0));
        // ENOMEM on the first copy attempt only.
        fx.kernel.set_fault_plan(FaultPlan::new(0).with_schedule(
            FaultSite::MovePagesCopy,
            FaultKind::FrameExhausted,
            vec![0],
        ));
        let pages: Vec<VirtAddr> = (0..3).map(|p| base + p * PAGE_SIZE).collect();
        let r = fx
            .kernel
            .move_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime(1_000_000),
                CoreId(0),
                &pages,
                &[NodeId(1); 3],
            )
            .unwrap();
        assert_eq!(
            r.status,
            vec![
                PageStatus::NoMemory,
                PageStatus::Moved(NodeId(1)),
                PageStatus::Moved(NodeId(1)),
            ]
        );
        assert_eq!(r.moved, 2);
        // Graceful degradation: the failed page stays on its source node,
        // still mapped and readable.
        let pte = fx.space.page_table.get(pages[0].vpn()).unwrap();
        assert_eq!(fx.frames.node_of(pte.frame), NodeId(0));
        assert_eq!(fx.kernel.counters.get(Counter::MigrationsDegraded), 1);
    }

    /// Pins the cost model for failed pages: a page that fails the
    /// isolate/copy still costs something (the page-table walk under the
    /// lock), but strictly less than a page that is actually copied.
    #[test]
    fn failed_page_charges_less_than_moved_page() {
        use numa_sim::{FaultKind, FaultPlan, FaultSite};
        let run_one = |plan: Option<FaultPlan>| -> (PageStatus, u64) {
            let mut fx = Fixture::new();
            let base = fx.map_anon(1);
            touch_all(&mut fx, base, 1, CoreId(0));
            if let Some(plan) = plan {
                fx.kernel.set_fault_plan(plan);
            }
            let r = fx
                .kernel
                .move_pages(
                    &mut fx.space,
                    &mut fx.frames,
                    &mut fx.tlb,
                    SimTime(1_000_000),
                    CoreId(0),
                    &[base],
                    &[NodeId(1)],
                )
                .unwrap();
            (r.status[0], r.outcome.end.since(SimTime(1_000_000)))
        };
        let (ok_status, moved_cost) = run_one(None);
        assert_eq!(ok_status, PageStatus::Moved(NodeId(1)));
        for kind in [FaultKind::TransientCopy, FaultKind::FrameExhausted] {
            let plan = FaultPlan::new(0).with_schedule(FaultSite::MovePagesCopy, kind, vec![0]);
            let (status, failed_cost) = run_one(Some(plan));
            assert_ne!(status, PageStatus::Moved(NodeId(1)), "{kind:?}");
            assert!(failed_cost > 0, "{kind:?}: failure must not be free");
            assert!(
                failed_cost < moved_cost,
                "{kind:?}: failed page cost {failed_cost} must be below \
                 moved cost {moved_cost}"
            );
        }
        // A racing unmap is discovered mid-copy: the wasted copy work is
        // still charged, so it is *not* cheaper than a successful move.
        let plan = FaultPlan::new(0).with_schedule(
            FaultSite::MovePagesCopy,
            FaultKind::RacingUnmap,
            vec![0],
        );
        let (status, unmap_cost) = run_one(Some(plan));
        assert_eq!(status, PageStatus::NotPresent);
        assert!(unmap_cost >= moved_cost);
    }

    #[test]
    fn unpatched_is_slower_and_quadratic() {
        // Same workload through both kernels; the unpatched one must charge
        // the extra lookup time, superlinearly in page count.
        let cost_of = |patched: bool, pages: u64| -> u64 {
            let mut fx = Fixture::with_config(KernelConfigPatched(patched));
            let base = fx.map_anon(pages);
            touch_all(&mut fx, base, pages, CoreId(0));
            let addrs: Vec<VirtAddr> = (0..pages).map(|p| base + p * PAGE_SIZE).collect();
            let dest = vec![NodeId(1); pages as usize];
            let r = fx
                .kernel
                .move_pages(
                    &mut fx.space,
                    &mut fx.frames,
                    &mut fx.tlb,
                    SimTime(10_000_000),
                    CoreId(0),
                    &addrs,
                    &dest,
                )
                .unwrap();
            r.outcome.end.since(SimTime(10_000_000))
        };
        #[allow(non_snake_case)]
        fn KernelConfigPatched(patched: bool) -> crate::KernelConfig {
            crate::KernelConfig {
                patched_move_pages: patched,
                ..crate::KernelConfig::default()
            }
        }
        let p256 = cost_of(true, 256);
        let u256 = cost_of(false, 256);
        let p1024 = cost_of(true, 1024);
        let u1024 = cost_of(false, 1024);
        assert!(u256 > p256);
        // Patched scales ~linearly; unpatched superlinearly.
        let patched_ratio = p1024 as f64 / p256 as f64;
        let unpatched_ratio = u1024 as f64 / u256 as f64;
        assert!(patched_ratio < 5.0, "patched ratio {patched_ratio}");
        assert!(
            unpatched_ratio > patched_ratio * 1.5,
            "unpatched {unpatched_ratio} vs patched {patched_ratio}"
        );
    }

    #[test]
    fn migrate_pages_moves_whole_space() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(8);
        touch_all(&mut fx, base, 8, CoreId(0)); // all on node 0
        let r = fx
            .kernel
            .migrate_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                &[NodeId(0)],
                &[NodeId(2)],
            )
            .unwrap();
        assert_eq!(r.moved, 8);
        for p in 0..8u64 {
            let pte = fx.space.page_table.get(base.vpn() + p).unwrap();
            assert_eq!(fx.frames.node_of(pte.frame), NodeId(2));
        }
    }

    #[test]
    fn migrate_pages_ignores_other_nodes() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(2);
        // Page 0 touched from node 0, page 1 from node 1 (core 4 is on
        // node 1 in the 4x4 preset).
        touch_all(&mut fx, base, 1, CoreId(0));
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(4),
            base + PAGE_SIZE,
            true,
            &mut Breakdown::new(),
        );
        let r = fx
            .kernel
            .migrate_pages(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                &[NodeId(0)],
                &[NodeId(3)],
            )
            .unwrap();
        assert_eq!(r.moved, 1);
        let pte1 = fx.space.page_table.get(base.vpn() + 1).unwrap();
        assert_eq!(
            fx.frames.node_of(pte1.frame),
            NodeId(1),
            "node-1 page untouched"
        );
    }

    #[test]
    fn madvise_marks_only_present_pages() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(4);
        touch_all(&mut fx, base, 2, CoreId(0));
        let range = PageRange::new(base.vpn(), base.vpn() + 4);
        fx.kernel
            .madvise_next_touch(&mut fx.space, &mut fx.tlb, SimTime::ZERO, CoreId(0), range)
            .unwrap();
        assert!(fx.space.page_table.get(base.vpn()).unwrap().is_next_touch());
        assert!(fx
            .space
            .page_table
            .get(base.vpn() + 1)
            .unwrap()
            .is_next_touch());
        assert!(fx.space.page_table.get(base.vpn() + 2).is_none());
        assert_eq!(fx.kernel.counters.get(Counter::PagesMarkedNextTouch), 2);
    }

    #[test]
    fn madvise_requires_feature_and_private_mapping() {
        let mut fx = Fixture::with_config(crate::KernelConfig {
            kernel_next_touch: false,
            ..crate::KernelConfig::default()
        });
        let base = fx.map_anon(1);
        let range = PageRange::new(base.vpn(), base.vpn() + 1);
        assert!(fx
            .kernel
            .madvise_next_touch(&mut fx.space, &mut fx.tlb, SimTime::ZERO, CoreId(0), range)
            .is_err());

        // Shared mapping without the extension.
        let mut fx = Fixture::new();
        let addr = fx
            .space
            .mmap(
                PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::SharedAnonymous,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        let range = PageRange::new(addr.vpn(), addr.vpn() + 1);
        let err = fx
            .kernel
            .madvise_next_touch(&mut fx.space, &mut fx.tlb, SimTime::ZERO, CoreId(0), range)
            .unwrap_err();
        assert!(matches!(err, VmError::Unsupported(_)));
    }

    #[test]
    fn mprotect_updates_pte_bits_and_counts_flush() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(2);
        touch_all(&mut fx, base, 2, CoreId(0));
        let range = PageRange::new(base.vpn(), base.vpn() + 2);
        fx.kernel
            .mprotect(
                &mut fx.space,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                range,
                Protection::None,
                CostComponent::MprotectMark,
            )
            .unwrap();
        let pte = fx.space.page_table.get(base.vpn()).unwrap();
        assert!(!pte.permits(false) && !pte.permits(true));
        assert!(fx.tlb.episodes() >= 1);

        fx.kernel
            .mprotect(
                &mut fx.space,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                range,
                Protection::ReadWrite,
                CostComponent::MprotectRestore,
            )
            .unwrap();
        let pte = fx.space.page_table.get(base.vpn()).unwrap();
        assert!(pte.permits(true));
    }

    #[test]
    fn mbind_move_relocates_offenders() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(8);
        touch_all(&mut fx, base, 8, CoreId(0)); // all on node 0
        let range = PageRange::new(base.vpn(), base.vpn() + 8);
        let r = fx
            .kernel
            .mbind_move(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                range,
                MemPolicy::interleave_all(4),
            )
            .unwrap();
        // vpn % 4 == 0 pages were already right (if base vpn aligned
        // appropriately, 2 of 8); the rest moved.
        assert_eq!(
            r.moved + fx.kernel.counters.get(Counter::PagesAlreadyPlaced),
            8
        );
        for p in 0..8u64 {
            let vpn = base.vpn() + p;
            let pte = fx.space.page_table.get(vpn).unwrap();
            assert_eq!(
                fx.frames.node_of(pte.frame),
                NodeId((vpn % 4) as u16),
                "page {p} must satisfy the interleave policy"
            );
        }
        // Policy itself also set for future faults.
        assert!(matches!(
            fx.space.find_vma(base).unwrap().policy,
            MemPolicy::Interleave(_)
        ));
    }

    #[test]
    fn mbind_sets_policy() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(4);
        let range = PageRange::new(base.vpn(), base.vpn() + 4);
        fx.kernel
            .mbind(
                &mut fx.space,
                SimTime::ZERO,
                range,
                MemPolicy::Bind(NodeId(3)),
            )
            .unwrap();
        assert_eq!(
            fx.space.find_vma(base).unwrap().policy,
            MemPolicy::Bind(NodeId(3))
        );
    }

    #[test]
    fn huge_mmap_requires_feature() {
        let mut fx = Fixture::new();
        assert!(fx
            .kernel
            .mmap_huge(&mut fx.space, 1 << 20, MemPolicy::FirstTouch)
            .is_err());
        let mut fx = Fixture::with_config(crate::KernelConfig {
            huge_page_migration: true,
            ..crate::KernelConfig::default()
        });
        let addr = fx
            .kernel
            .mmap_huge(&mut fx.space, 1 << 20, MemPolicy::FirstTouch)
            .unwrap();
        let vma = fx.space.find_vma(addr).unwrap();
        assert!(vma.huge);
        // Rounded up to one huge page.
        assert_eq!(vma.range.pages(), PAGES_PER_HUGE);
    }

    #[test]
    fn quadratic_lookup_finds_right_slot() {
        let dest = vec![NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(quadratic_lookup(&dest, 0), NodeId(0));
        assert_eq!(quadratic_lookup(&dest, 2), NodeId(2));
    }

    #[test]
    fn huge_head_math() {
        assert_eq!(huge_head(0, 0), 0);
        assert_eq!(huge_head(0, 511), 0);
        assert_eq!(huge_head(0, 512), 512);
        assert_eq!(huge_head(100, 100 + 513), 100 + 512);
    }
}
