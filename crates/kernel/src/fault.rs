//! The page-fault handler.
//!
//! Three paths matter for the paper:
//!
//! 1. **First-touch** (§2.2): an unpopulated page is allocated on the node
//!    chosen by the VMA's (or process-default) policy — by default, the
//!    faulting thread's node.
//! 2. **Kernel next-touch** (§3.3, Figure 2 right half): a page whose PTE
//!    carries the next-touch flag is migrated to the faulting thread's node
//!    inside the fault handler, copy-on-write style: allocate local, copy,
//!    free old, restore protection. No signal, no global shootdown — that
//!    is exactly why it beats the user-space model by ~30 % (§4.3).
//! 3. **Protection fault → SIGSEGV** (§3.2, Figure 1): a touch on a
//!    `PROT_NONE` region is reported to the machine layer, which delivers
//!    the signal to the user-space next-touch library.

use crate::{Kernel, PageStatus, RelocSite};
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::{Breakdown, CostComponent, Counter};
use numa_topology::{CoreId, NodeId};
use numa_vm::{
    AddressSpace, FrameAllocator, MemPolicy, PageRange, Protection, Pte, PteFlags, Tlb, VirtAddr,
    VmError, Vma, PAGES_PER_HUGE,
};

/// Why the MMU trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Outcome of a page fault.
#[derive(Debug, Clone)]
pub enum FaultResolution {
    /// The kernel handled the fault; the thread resumes at `end`.
    Resolved {
        /// When the faulting thread resumes.
        end: SimTime,
        /// Did this fault migrate the page (kernel next-touch)?
        migrated: bool,
        /// The node the page now resides on.
        node: NodeId,
    },
    /// Protection fault on a valid mapping: deliver SIGSEGV to user space
    /// (the user-space next-touch library's hook, Figure 1).
    Segv {
        /// When the kernel finishes fault processing and queues the signal.
        end: SimTime,
    },
    /// A genuine error (access outside any mapping, out of memory).
    Fatal(VmError),
}

/// Resolve the policy that governs a fresh allocation in `vma`: the VMA
/// policy, falling back to the process default when the VMA carries the
/// default first-touch policy (mirrors `get_vma_policy`).
pub(crate) fn effective_policy<'a>(space: &'a AddressSpace, vma: &'a Vma) -> &'a MemPolicy {
    if vma.policy == MemPolicy::FirstTouch {
        space.default_policy()
    } else {
        &vma.policy
    }
}

impl Kernel {
    /// Handle a fault at `addr` by the thread on `core`.
    ///
    /// Fault-handling costs are added to `b` directly: faults fire per
    /// touched page on the access hot path, and returning a fresh
    /// [`Breakdown`] per fault would cost a full-width merge in every
    /// caller.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_fault(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        tlb: &mut Tlb,
        now: SimTime,
        core: CoreId,
        addr: VirtAddr,
        write: bool,
        b: &mut Breakdown,
    ) -> FaultResolution {
        // Scalar copies of the cost fields used across the `&mut self`
        // calls below, instead of an `Arc<Topology>` clone per fault.
        let fault_ns = self.topo.cost().page_fault_ns;
        let lock_fraction = self.topo.cost().pt_lock_fraction;
        let local = self.topo.node_of_core(core);

        let Some(vma) = space.find_vma(addr) else {
            return FaultResolution::Fatal(VmError::NoVma(addr));
        };
        let prot = vma.prot;
        let huge = vma.huge;
        let vpn = if huge {
            crate::syscalls::huge_head(vma.range.start_vpn, addr.vpn())
        } else {
            addr.vpn()
        };
        // Placement decisions are pure; resolve them up front so the VMA
        // borrow does not have to outlive the page-table mutations below.
        let (policy_target, policy_fallback) = {
            let policy = effective_policy(space, vma);
            (policy.choose_node(vpn, local), policy.fallback_node(local))
        };
        let pages_covered = if huge { PAGES_PER_HUGE } else { 1 };

        match space.page_table.get(vpn) {
            // ---------------------------------------------- first touch
            None => {
                if !prot.permits(write) {
                    self.counters.bump(Counter::SegvSignals);
                    self.trace.record(now, TraceEventKind::Signal { page: vpn });
                    return FaultResolution::Segv {
                        end: now + fault_ns,
                    };
                }
                let mut t0 = now;
                let (frame, node) = match self.alloc_frame(frames, policy_target, policy_fallback) {
                    Some(f) => f,
                    None => {
                        // Allocation slow path: with reclaim enabled,
                        // evict cold pages off the target node on this
                        // thread's time and retry once before declaring
                        // OOM (typed — the machine layer decides whether
                        // that kills the thread or aborts the run).
                        let mut retried = None;
                        if self.config.pressure.reclaim {
                            let (end, freed) =
                                self.direct_reclaim(space, frames, t0, policy_target, Some(vpn), b);
                            t0 = end;
                            if freed > 0 {
                                retried = self.alloc_frame(frames, policy_target, policy_fallback);
                            }
                        }
                        match retried {
                            Some(f) => f,
                            None => return FaultResolution::Fatal(VmError::OutOfMemory),
                        }
                    }
                };
                let mut flags = PteFlags::PRESENT | PteFlags::READ;
                if prot == Protection::ReadWrite {
                    flags |= PteFlags::WRITE;
                }
                if huge {
                    flags |= PteFlags::HUGE;
                }
                let prev = space.page_table.map(
                    vpn,
                    Pte {
                        frame,
                        shadow: None,
                        flags,
                    },
                );
                debug_assert!(prev.is_none(), "first touch of an already-mapped page");

                b.add(CostComponent::FaultControl, fault_ns);
                // Allocation + zeroing, partially serialized (zone lock).
                let work = self.topo.cost().first_touch_ns * pages_covered;
                let end = self.locks.pt_serialized(
                    t0 + fault_ns,
                    work,
                    lock_fraction,
                    CostComponent::FaultControl,
                    b,
                );
                let mut end = self.pt_note_update(space, end, PageRange::new(vpn, vpn + 1));
                // Watermark upkeep: an allocation that leaves the node
                // below its min watermark reclaims ahead of the next one
                // (still on this thread's time), and level transitions
                // are accounted. One branch when watermarks are unset.
                if frames.watermarked() {
                    if self.config.pressure.reclaim
                        && frames.pressure_of(node) == numa_vm::PressureLevel::Min
                    {
                        let (end2, _) = self.direct_reclaim(space, frames, end, node, Some(vpn), b);
                        end = end2;
                    }
                    self.note_pressure(frames, end, node);
                }
                self.counters.bump(Counter::FirstTouchFaults);
                self.trace.record(
                    now,
                    TraceEventKind::PageFault {
                        page: vpn,
                        node: node.0,
                        write,
                        migrated: false,
                        dur_ns: end.since(now),
                    },
                );
                FaultResolution::Resolved {
                    end,
                    migrated: false,
                    node,
                }
            }

            // ------------------------------------- kernel next-touch hit
            Some(pte) if pte.is_next_touch() => {
                b.add(CostComponent::FaultControl, fault_ns);
                // Move the page to the toucher's node. A full local bank
                // (or an injected fault) leaves it where it is — the
                // paper's silent degradation.
                let (mut t, status) = self.relocate_page(
                    space,
                    frames,
                    now + fault_ns,
                    vpn,
                    Some(local),
                    RelocSite::NextTouch,
                    b,
                );
                let (migrated, node) = match status {
                    PageStatus::Moved(dst) => (true, dst),
                    PageStatus::AlreadyThere(src) => (false, src),
                    // A failed move leaves the page mapped where it was.
                    _ => (false, frames.node_of(pte.frame)),
                };
                // Restore protection per the VMA; only the faulting core's
                // TLB needs invalidating (the madvise already shot down the
                // stale entries) — the cheapness of this path is the whole
                // point of the kernel implementation (§4.3).
                let Some(mut entry) = space.page_table.get_mut(vpn) else {
                    return FaultResolution::Fatal(VmError::NoVma(addr));
                };
                entry.clear_next_touch();
                if prot == Protection::ReadOnly {
                    entry.flags = entry.flags & !PteFlags::WRITE;
                }
                drop(entry); // write back before the replica sync reads it
                t = self.pt_note_update(space, t, PageRange::new(vpn, vpn + 1));
                tlb.invalidate_local(core);
                self.counters.bump(Counter::NextTouchFaults);
                self.trace.record(
                    now,
                    TraceEventKind::PageFault {
                        page: vpn,
                        node: node.0,
                        write,
                        migrated,
                        dur_ns: t.since(now),
                    },
                );
                FaultResolution::Resolved {
                    end: t,
                    migrated,
                    node,
                }
            }

            // ------------------------------------------ protection fault
            Some(pte) if !pte.permits(write) => {
                if prot.permits(write) {
                    // PTE lagging behind a VMA-level restore: repair it.
                    let Some(mut entry) = space.page_table.get_mut(vpn) else {
                        return FaultResolution::Fatal(VmError::NoVma(addr));
                    };
                    entry.flags |= PteFlags::PRESENT | PteFlags::READ;
                    if prot == Protection::ReadWrite {
                        entry.flags |= PteFlags::WRITE;
                    }
                    let node = frames.node_of(entry.frame);
                    drop(entry); // write back before the replica sync reads it
                    b.add(CostComponent::FaultControl, fault_ns);
                    let end =
                        self.pt_note_update(space, now + fault_ns, PageRange::new(vpn, vpn + 1));
                    tlb.invalidate_local(core);
                    self.trace.record(
                        now,
                        TraceEventKind::PageFault {
                            page: vpn,
                            node: node.0,
                            write,
                            migrated: false,
                            dur_ns: fault_ns,
                        },
                    );
                    FaultResolution::Resolved {
                        end,
                        migrated: false,
                        node,
                    }
                } else {
                    // True protection violation: user space asked for this
                    // (the mprotect-based next-touch) or it is a bug there.
                    self.counters.bump(Counter::SegvSignals);
                    self.trace.record(now, TraceEventKind::Signal { page: vpn });
                    FaultResolution::Segv {
                        end: now + fault_ns,
                    }
                }
            }

            // --------------------------------------------- spurious fault
            Some(pte) => {
                let node = frames.node_of(pte.frame);
                FaultResolution::Resolved {
                    end: now,
                    migrated: false,
                    node,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Fixture;
    use numa_vm::{PageRange, VmaKind, PAGE_SIZE};

    #[test]
    fn first_touch_allocates_locally() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(1);
        // Core 7 lives on node 1 in the 4x4 preset.
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(7),
            base,
            true,
            &mut Breakdown::new(),
        );
        match r {
            FaultResolution::Resolved { node, migrated, .. } => {
                assert_eq!(node, NodeId(1));
                assert!(!migrated);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(fx.kernel.counters.get(Counter::FirstTouchFaults), 1);
        assert_eq!(fx.frames.live_on(NodeId(1)), 1);
    }

    #[test]
    fn first_touch_respects_interleave() {
        let mut fx = Fixture::new();
        let addr = fx
            .space
            .mmap(
                8 * PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::interleave_all(4),
            )
            .unwrap();
        for p in 0..8u64 {
            fx.kernel.handle_fault(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                addr + p * PAGE_SIZE,
                true,
                &mut Breakdown::new(),
            );
        }
        // Pages round-robin across nodes by vpn.
        for p in 0..8u64 {
            let pte = fx.space.page_table.get(addr.vpn() + p).unwrap();
            let expect = NodeId((((addr.vpn() + p) % 4) as u16).to_owned());
            assert_eq!(fx.frames.node_of(pte.frame), expect);
        }
    }

    #[test]
    fn next_touch_fault_migrates_to_toucher() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(1);
        // Populate from node 0.
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
        let tag = {
            let pte = fx.space.page_table.get(base.vpn()).unwrap();
            fx.frames.get(pte.frame).unwrap().content_tag
        };
        // Mark and touch from node 2 (core 8).
        fx.kernel
            .madvise_next_touch(
                &mut fx.space,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                PageRange::new(base.vpn(), base.vpn() + 1),
            )
            .unwrap();
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime(1_000_000),
            CoreId(8),
            base,
            false,
            &mut Breakdown::new(),
        );
        match r {
            FaultResolution::Resolved { node, migrated, .. } => {
                assert!(migrated);
                assert_eq!(node, NodeId(2));
            }
            other => panic!("{other:?}"),
        }
        let pte = fx.space.page_table.get(base.vpn()).unwrap();
        assert_eq!(fx.frames.node_of(pte.frame), NodeId(2));
        assert_eq!(
            fx.frames.get(pte.frame).unwrap().content_tag,
            tag,
            "migration must preserve contents"
        );
        assert!(!pte.is_next_touch(), "flag cleared after migration");
        assert!(pte.permits(true), "protection restored");
        assert_eq!(fx.kernel.counters.get(Counter::PagesMovedFault), 1);
    }

    #[test]
    fn next_touch_local_touch_skips_copy() {
        let mut fx = Fixture::new();
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
        fx.kernel
            .madvise_next_touch(
                &mut fx.space,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                PageRange::new(base.vpn(), base.vpn() + 1),
            )
            .unwrap();
        // Touch from the same node (core 1 is node 0 too).
        let mut b = Breakdown::new();
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(1),
            base,
            true,
            &mut b,
        );
        match r {
            FaultResolution::Resolved { migrated, node, .. } => {
                assert!(!migrated);
                assert_eq!(node, NodeId(0));
                assert_eq!(b.get(CostComponent::FaultCopy), 0);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(fx.kernel.counters.get(Counter::PagesAlreadyPlaced), 1);
    }

    #[test]
    fn prot_none_touch_raises_segv() {
        let mut fx = Fixture::new();
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
        fx.kernel
            .mprotect(
                &mut fx.space,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                PageRange::new(base.vpn(), base.vpn() + 1),
                Protection::None,
                CostComponent::MprotectMark,
            )
            .unwrap();
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(5),
            base,
            false,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Segv { .. }));
        assert_eq!(fx.kernel.counters.get(Counter::SegvSignals), 1);
    }

    #[test]
    fn write_to_readonly_segv_but_read_ok() {
        let mut fx = Fixture::new();
        let addr = fx
            .space
            .mmap(
                PAGE_SIZE,
                Protection::ReadOnly,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        // Read faults in fine.
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            addr,
            false,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Resolved { .. }));
        // Write is a violation.
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            addr,
            true,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Segv { .. }));
    }

    #[test]
    fn fault_outside_mappings_is_fatal() {
        let mut fx = Fixture::new();
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            VirtAddr(0x10),
            false,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Fatal(VmError::NoVma(_))));
    }

    #[test]
    fn huge_fault_populates_whole_huge_page() {
        let mut fx = Fixture::with_config(crate::KernelConfig {
            huge_page_migration: true,
            ..crate::KernelConfig::default()
        });
        let addr = fx
            .kernel
            .mmap_huge(&mut fx.space, 1, MemPolicy::FirstTouch)
            .unwrap();
        // Touch the middle of the huge page.
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            addr + 300 * PAGE_SIZE,
            true,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Resolved { .. }));
        let pte = fx.space.page_table.get(addr.vpn()).unwrap();
        assert!(pte.flags.contains(PteFlags::HUGE));
        // Only the head PTE exists; the range is covered by it.
        assert!(fx.space.page_table.get(addr.vpn() + 300).is_none());
    }

    /// The one geometry change a fault can make: after an `mprotect`
    /// splits a huge VMA at an offset that is no multiple of a huge page,
    /// a fault in the right-hand piece maps a head that is not on the
    /// slab's huge grid, so the primary's slab falls back to base pages.
    /// The write-through must demote the replicas' slab too.
    #[test]
    fn split_huge_fault_demotes_the_replicas_with_the_primary() {
        use numa_vm::{PtPlacement, PtSyncMode};
        let mut fx = Fixture::with_config(crate::KernelConfig {
            huge_page_migration: true,
            ..crate::KernelConfig::default()
        });
        let nodes = fx.kernel.topology().node_count();
        fx.space
            .pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, nodes);
        let addr = fx
            .kernel
            .mmap_huge(
                &mut fx.space,
                2 * PAGES_PER_HUGE * PAGE_SIZE,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        let base = addr.vpn();
        let fault = |fx: &mut Fixture, vpn: u64| {
            let r = fx.kernel.handle_fault(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                VirtAddr::from_vpn(vpn),
                false,
                &mut Breakdown::new(),
            );
            assert!(matches!(r, FaultResolution::Resolved { .. }), "{r:?}");
        };
        fault(&mut fx, base);
        let split = base + 300;
        let left = PageRange::new(base, split);
        fx.space.mprotect(left, Protection::ReadOnly).unwrap();
        assert_eq!(fx.space.vma_count(), 2, "the mprotect split the VMA");
        fault(&mut fx, split + 100);
        let strides: Vec<u64> = fx.space.page_table.extents().map(|(_, s)| s).collect();
        assert_eq!(strides, vec![1], "the primary's slab was demoted");
        assert_eq!(fx.space.page_table.sorted_vpns(), vec![base, split]);
        let replicas = fx.space.pt_replicas().unwrap();
        for node in fx.kernel.topology().node_ids() {
            assert!(replicas.agrees_with(node, &fx.space.page_table), "{node}");
            assert!(
                replicas
                    .replica(node)
                    .extents()
                    .eq(fx.space.page_table.extents()),
                "replica on {node} kept another geometry"
            );
        }
    }

    #[test]
    fn kernel_nt_faults_do_not_shootdown_globally() {
        let mut fx = Fixture::new();
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
        fx.kernel
            .madvise_next_touch(
                &mut fx.space,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                PageRange::new(base.vpn(), base.vpn() + 1),
            )
            .unwrap();
        let episodes_before = fx.tlb.episodes();
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(8),
            base,
            true,
            &mut Breakdown::new(),
        );
        assert_eq!(
            fx.tlb.episodes(),
            episodes_before,
            "NT fault must only invalidate locally"
        );
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::test_util::Fixture;
    use numa_vm::{VmaKind, PAGE_SIZE};

    #[test]
    fn process_default_policy_governs_default_vmas() {
        let mut fx = Fixture::new();
        let base = fx.map_anon(4);
        // set_mempolicy(interleave): the VMA has the default first-touch
        // policy, so the process default takes over.
        fx.kernel
            .set_mempolicy(&mut fx.space, SimTime::ZERO, MemPolicy::interleave_all(4));
        for p in 0..4u64 {
            fx.kernel.handle_fault(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(0),
                base + p * PAGE_SIZE,
                true,
                &mut Breakdown::new(),
            );
        }
        for p in 0..4u64 {
            let vpn = base.vpn() + p;
            let pte = fx.space.page_table.get(vpn).unwrap();
            assert_eq!(
                frames_node(&fx, pte.frame),
                NodeId((vpn % 4) as u16),
                "interleave must follow vpn"
            );
        }
    }

    #[test]
    fn vma_policy_overrides_process_default() {
        let mut fx = Fixture::new();
        fx.kernel
            .set_mempolicy(&mut fx.space, SimTime::ZERO, MemPolicy::Bind(NodeId(3)));
        let addr = fx
            .space
            .mmap(
                PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::Bind(NodeId(1)),
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
        let pte = fx.space.page_table.get(addr.vpn()).unwrap();
        assert_eq!(frames_node(&fx, pte.frame), NodeId(1), "VMA policy wins");
    }

    #[test]
    fn preferred_falls_back_to_local_when_full() {
        let mut fx = Fixture::new();
        // Exhaust node 2 completely.
        let cap_pages = {
            let topo = fx.kernel.topology().clone();
            topo.node(NodeId(2)).memory_bytes / PAGE_SIZE
        };
        // The fixture allocator is created with 2^21 frames per node,
        // smaller than the 8 GB spec; use its real capacity instead.
        let cap_pages = cap_pages.min(1 << 21);
        let filler = fx
            .space
            .mmap(
                cap_pages * PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::Bind(NodeId(2)),
            )
            .unwrap();
        for p in 0..cap_pages {
            fx.kernel.handle_fault(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                SimTime::ZERO,
                CoreId(8),
                filler + p * PAGE_SIZE,
                true,
                &mut Breakdown::new(),
            );
        }
        assert_eq!(fx.frames.live_on(NodeId(2)), cap_pages);

        // Preferred(node 2) from a node-0 core now falls back to node 0.
        let addr = fx
            .space
            .mmap(
                PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::Preferred(NodeId(2)),
            )
            .unwrap();
        let r = fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            addr,
            true,
            &mut Breakdown::new(),
        );
        match r {
            FaultResolution::Resolved { node, .. } => assert_eq!(node, NodeId(0)),
            other => panic!("{other:?}"),
        }
    }

    fn frames_node(fx: &Fixture, frame: numa_vm::FrameId) -> NodeId {
        fx.frames.node_of(frame)
    }
}
