//! Characterization matrix of every page-relocation path.
//!
//! Each relocating entry point — `move_pages`, `migrate_pages`, node
//! evacuation, direct reclaim, the stop-the-world tier move and the
//! kernel next-touch fault — is driven through every outcome it can
//! reach: a clean move, an already-placed page, each injected
//! [`FaultKind`], and a full destination bank. Each case runs on a
//! single-home page table and on eager replicated page tables.
//!
//! Per case the test records the end time, every non-zero
//! [`Breakdown`] component, the counter deltas, the reported status and
//! the names of the trace events, and compares the whole matrix with one
//! expected string. Any change to a relocation path's cost, accounting
//! or tracing shows up as a diff of that string. A last test pins that
//! `munmap` costs the same with and without page-table replicas.

use numa_kernel::{FaultResolution, Kernel, KernelConfig};
use numa_sim::{FaultKind, FaultPlan, FaultSite, SimTime};
use numa_stats::{Breakdown, CostComponent};
use numa_topology::{presets, CoreId, NodeId, Topology};
use numa_vm::{
    AddressSpace, FrameAllocator, MemPolicy, PageRange, Protection, PtPlacement, PtSyncMode, Tlb,
    VirtAddr, VmaKind, PAGE_SIZE,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// Virtual time of the relocation under test, well after the setup
/// faults so no lock is still held from them.
const T0: SimTime = SimTime(1_000_000);

/// Frames per node: small, so a bank can be filled cheaply.
const CAPACITY: u64 = 8;

#[derive(Clone, Copy, Debug)]
enum Site {
    MovePages,
    MigratePages,
    Evacuate,
    Reclaim,
    TierStw,
    NextTouch,
}

#[derive(Clone, Copy, Debug)]
enum Outcome {
    Moved,
    AlreadyPlaced,
    Injected(FaultKind),
    FullBank,
}

struct Fx {
    kernel: Kernel,
    space: AddressSpace,
    frames: FrameAllocator,
    tlb: Tlb,
}

impl Fx {
    fn new(topo: Topology, config: KernelConfig, replicated: bool) -> Self {
        let topo = Arc::new(topo);
        let mut space = AddressSpace::new();
        if replicated {
            space.pt_configure(
                PtPlacement::Replicated,
                PtSyncMode::Eager,
                topo.node_count(),
            );
        }
        Fx {
            frames: FrameAllocator::new(topo.node_count(), CAPACITY),
            tlb: Tlb::new(topo.core_count()),
            kernel: Kernel::new(topo, config),
            space,
        }
    }

    /// Map `pages` anonymous pages and first-touch them from `core`.
    fn populate(&mut self, pages: u64, core: CoreId) -> VirtAddr {
        let base = self
            .space
            .mmap(
                pages * PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        for p in 0..pages {
            let r = self.kernel.handle_fault(
                &mut self.space,
                &mut self.frames,
                &mut self.tlb,
                SimTime::ZERO,
                core,
                base + p * PAGE_SIZE,
                true,
                &mut Breakdown::new(),
            );
            assert!(matches!(r, FaultResolution::Resolved { .. }), "{r:?}");
        }
        base
    }

    fn fill(&mut self, node: NodeId) {
        while self.frames.alloc(node).is_some() {}
    }
}

fn fault_site(site: Site) -> FaultSite {
    match site {
        Site::MovePages => FaultSite::MovePagesCopy,
        Site::MigratePages => FaultSite::MigratePagesCopy,
        Site::Evacuate => FaultSite::Evacuation,
        Site::Reclaim => FaultSite::Reclaim,
        Site::TierStw => FaultSite::TierPromotion,
        Site::NextTouch => FaultSite::NextTouchFault,
    }
}

/// Run one case and render it as one line.
fn case(site: Site, outcome: Outcome, replicated: bool) -> String {
    let (topo, config) = match site {
        Site::TierStw => (presets::tiered_4p2(), KernelConfig::tiered()),
        _ => (presets::opteron_4p(), KernelConfig::default()),
    };
    let mut fx = Fx::new(topo, config, replicated);
    let placed = matches!(outcome, Outcome::AlreadyPlaced);

    // Setup: pages start on node 0 (core 0), except where an "already
    // placed" case needs them elsewhere.
    let home_core = match site {
        Site::Evacuate | Site::Reclaim if placed => CoreId(4),
        _ => CoreId(0),
    };
    let pages = if matches!(site, Site::Reclaim) { 2 } else { 1 };
    let base = fx.populate(pages, home_core);
    let vpn = base.vpn();
    match site {
        Site::NextTouch => {
            fx.kernel
                .madvise_next_touch(
                    &mut fx.space,
                    &mut fx.tlb,
                    SimTime::ZERO,
                    CoreId(0),
                    PageRange::new(vpn, vpn + 1),
                )
                .unwrap();
        }
        Site::Evacuate => fx
            .kernel
            .node_offline_begin(&mut fx.frames, SimTime::ZERO, NodeId(0)),
        _ => {}
    }
    let dest = match site {
        _ if placed => NodeId(0),
        Site::TierStw => NodeId(4),
        Site::NextTouch => NodeId(2),
        _ => NodeId(1),
    };
    if matches!(outcome, Outcome::FullBank) {
        match site {
            // These pick their own destination: leave them none at all.
            Site::Evacuate | Site::Reclaim => {
                for n in 1..4 {
                    fx.fill(NodeId(n));
                }
            }
            _ => fx.fill(dest),
        }
    }
    if let Outcome::Injected(kind) = outcome {
        fx.kernel
            .set_fault_plan(FaultPlan::new(0).with_schedule(fault_site(site), kind, vec![0]));
    }

    let before = fx.kernel.counters.clone();
    fx.kernel.trace.enable(1 << 12);
    let mut b = Breakdown::new();
    let (end, status) = match site {
        Site::MovePages => {
            let r = fx
                .kernel
                .move_pages(
                    &mut fx.space,
                    &mut fx.frames,
                    &mut fx.tlb,
                    T0,
                    CoreId(0),
                    &[base],
                    &[dest],
                )
                .unwrap();
            b = r.outcome.breakdown;
            (r.outcome.end, format!("{:?} moved={}", r.status, r.moved))
        }
        Site::MigratePages => {
            let r = fx
                .kernel
                .migrate_pages(
                    &mut fx.space,
                    &mut fx.frames,
                    &mut fx.tlb,
                    T0,
                    CoreId(0),
                    &[NodeId(0)],
                    &[dest],
                )
                .unwrap();
            b = r.outcome.breakdown;
            (r.outcome.end, format!("{:?} moved={}", r.status, r.moved))
        }
        Site::Evacuate => {
            let (end, eb, st) =
                fx.kernel
                    .evacuate_page_step(&mut fx.space, &mut fx.frames, T0, vpn, NodeId(0));
            b = eb;
            (end, format!("{st:?}"))
        }
        Site::Reclaim => {
            let (end, reclaimed) = fx.kernel.direct_reclaim(
                &mut fx.space,
                &mut fx.frames,
                T0,
                NodeId(0),
                None,
                &mut b,
            );
            (end, format!("reclaimed={reclaimed}"))
        }
        Site::TierStw => {
            let end = fx
                .kernel
                .tier_stw_page(&mut fx.space, &mut fx.frames, T0, vpn, dest, &mut b);
            (end.unwrap_or(T0), format!("{end:?}"))
        }
        Site::NextTouch => {
            // Core 8 runs on node 2; core 1 shares node 0 with the page.
            let core = if placed { CoreId(1) } else { CoreId(8) };
            match fx.kernel.handle_fault(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                T0,
                core,
                base,
                true,
                &mut b,
            ) {
                FaultResolution::Resolved {
                    end,
                    migrated,
                    node,
                } => (end, format!("migrated={migrated} node={}", node.0)),
                other => panic!("{other:?}"),
            }
        }
    };

    let mut line = format!(
        "{site:?}/{}/{outcome:?}: end={} {status}",
        if replicated { "repl" } else { "single" },
        end.since(T0)
    );
    line.push_str(" bd=[");
    for c in CostComponent::ALL {
        if b.get(c) > 0 {
            write!(line, "{}={} ", c.label(), b.get(c)).unwrap();
        }
    }
    line.push_str("] ctr=[");
    for (c, n) in fx.kernel.counters.diff(&before).iter() {
        write!(line, "{c:?}={n} ").unwrap();
    }
    line.push_str("] trace=[");
    for ev in fx.kernel.trace.snapshot() {
        write!(line, "{} ", ev.kind.label()).unwrap();
    }
    line.push(']');
    line
}

fn matrix() -> String {
    let sites = [
        Site::MovePages,
        Site::MigratePages,
        Site::Evacuate,
        Site::Reclaim,
        Site::TierStw,
        Site::NextTouch,
    ];
    let outcomes = [
        Outcome::Moved,
        Outcome::AlreadyPlaced,
        Outcome::Injected(FaultKind::TransientCopy),
        Outcome::Injected(FaultKind::FrameExhausted),
        Outcome::Injected(FaultKind::RacingUnmap),
        Outcome::FullBank,
    ];
    let mut out = String::new();
    for site in sites {
        for replicated in [false, true] {
            for outcome in outcomes {
                out.push_str(&case(site, outcome, replicated));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn every_relocation_path_matches_its_recorded_behaviour() {
    let got = matrix();
    if got != EXPECTED {
        // Line-level diff first: the whole string is long.
        for (g, e) in got.lines().zip(EXPECTED.lines()) {
            if g != e {
                eprintln!("expected: {e}\n     got: {g}");
            }
        }
        panic!("relocation matrix changed; full output:\n{got}");
    }
}

/// `munmap` on an eager-replicated space costs exactly what it costs on a
/// single-home space (the replica write-through is not charged), and
/// leaves every replica equal to the primary.
#[test]
fn munmap_costs_the_same_on_replicated_page_tables() {
    let run = |replicated: bool| {
        let mut fx = Fx::new(presets::opteron_4p(), KernelConfig::default(), replicated);
        let kept = fx.populate(2, CoreId(0));
        let base = fx.populate(4, CoreId(4));
        let r = fx
            .kernel
            .munmap(
                &mut fx.space,
                &mut fx.frames,
                &mut fx.tlb,
                T0,
                CoreId(0),
                base,
            )
            .unwrap();
        assert!(fx.space.page_table.get(kept.vpn()).is_some());
        assert!(fx.space.page_table.get(base.vpn()).is_none());
        if replicated {
            let replicas = fx.space.pt_replicas().unwrap();
            for n in fx.kernel.topology().node_ids() {
                assert!(
                    replicas.agrees_with(n, &fx.space.page_table),
                    "replica {n} kept unmapped entries"
                );
            }
        }
        (r.end, r.breakdown)
    };
    let (single_end, single_b) = run(false);
    let (repl_end, repl_b) = run(true);
    assert!(single_end > T0);
    assert_eq!(repl_end, single_end);
    assert_eq!(repl_b, single_b);
}

const EXPECTED: &str = "\
MovePages/single/Moved: end=174596 [Moved(NodeId(1))] moved=1 bd=[move_pages() Control=162500 move_pages() Copy Page=4096 TLB Flush=8000 ] ctr=[PagesMovedSyscall=1 TlbShootdowns=1 FramesAllocated=1 FramesFreed=1 ] trace=[move_pages_enter lock:mmap_lock lock:pt_lock migration_copy tlb_shootdown move_pages ]\n\
MovePages/single/AlreadyPlaced: end=170500 [AlreadyThere(NodeId(0))] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[PagesAlreadyPlaced=1 TlbShootdowns=1 ] trace=[move_pages_enter lock:mmap_lock lock:pt_lock tlb_shootdown move_pages ]\n\
MovePages/single/Injected(TransientCopy): end=170500 [Busy] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[TlbShootdowns=1 FaultsInjected=1 ] trace=[move_pages_enter lock:mmap_lock fault:transient_copy@move_pages_copy lock:pt_lock tlb_shootdown move_pages ]\n\
MovePages/single/Injected(FrameExhausted): end=170500 [NoMemory] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[move_pages_enter lock:mmap_lock fault:frame_exhausted@move_pages_copy lock:pt_lock migration_degraded tlb_shootdown move_pages ]\n\
MovePages/single/Injected(RacingUnmap): end=174596 [NotPresent] moved=0 bd=[move_pages() Control=162500 move_pages() Copy Page=4096 TLB Flush=8000 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[move_pages_enter lock:mmap_lock fault:racing_unmap@move_pages_copy lock:pt_lock migration_degraded tlb_shootdown move_pages ]\n\
MovePages/single/FullBank: end=170500 [NoMemory] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[TlbShootdowns=1 MigrationsDegraded=1 ] trace=[move_pages_enter lock:mmap_lock lock:pt_lock migration_degraded tlb_shootdown move_pages ]\n\
MovePages/repl/Moved: end=174758 [Moved(NodeId(1))] moved=1 bd=[move_pages() Control=162500 move_pages() Copy Page=4096 TLB Flush=8000 ] ctr=[PagesMovedSyscall=1 TlbShootdowns=1 FramesAllocated=1 FramesFreed=1 PtReplicaSyncs=1 ] trace=[move_pages_enter lock:mmap_lock lock:pt_lock migration_copy pt_replica_sync tlb_shootdown move_pages ]\n\
MovePages/repl/AlreadyPlaced: end=170500 [AlreadyThere(NodeId(0))] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[PagesAlreadyPlaced=1 TlbShootdowns=1 ] trace=[move_pages_enter lock:mmap_lock lock:pt_lock tlb_shootdown move_pages ]\n\
MovePages/repl/Injected(TransientCopy): end=170500 [Busy] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[TlbShootdowns=1 FaultsInjected=1 ] trace=[move_pages_enter lock:mmap_lock fault:transient_copy@move_pages_copy lock:pt_lock tlb_shootdown move_pages ]\n\
MovePages/repl/Injected(FrameExhausted): end=170500 [NoMemory] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[move_pages_enter lock:mmap_lock fault:frame_exhausted@move_pages_copy lock:pt_lock migration_degraded tlb_shootdown move_pages ]\n\
MovePages/repl/Injected(RacingUnmap): end=174596 [NotPresent] moved=0 bd=[move_pages() Control=162500 move_pages() Copy Page=4096 TLB Flush=8000 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[move_pages_enter lock:mmap_lock fault:racing_unmap@move_pages_copy lock:pt_lock migration_degraded tlb_shootdown move_pages ]\n\
MovePages/repl/FullBank: end=170500 [NoMemory] moved=0 bd=[move_pages() Control=162500 TLB Flush=8000 ] ctr=[TlbShootdowns=1 MigrationsDegraded=1 ] trace=[move_pages_enter lock:mmap_lock lock:pt_lock migration_degraded tlb_shootdown move_pages ]\n\
MigratePages/single/Moved: end=413245 [Moved(NodeId(1))] moved=1 bd=[Copy Page=4096 TLB Flush=8000 migrate_pages() Walk=401150 ] ctr=[PagesMovedProcess=1 TlbShootdowns=1 FramesAllocated=1 FramesFreed=1 ] trace=[migrate_pages_enter lock:mmap_lock lock:pt_lock migration_copy tlb_shootdown migrate_pages ]\n\
MigratePages/single/AlreadyPlaced: end=409150 [AlreadyThere(NodeId(0))] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=401150 ] ctr=[PagesAlreadyPlaced=1 TlbShootdowns=1 ] trace=[migrate_pages_enter lock:mmap_lock lock:pt_lock tlb_shootdown migrate_pages ]\n\
MigratePages/single/Injected(TransientCopy): end=410500 [Busy] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=402500 ] ctr=[TlbShootdowns=1 FaultsInjected=1 ] trace=[migrate_pages_enter lock:mmap_lock fault:transient_copy@migrate_pages_copy lock:pt_lock tlb_shootdown migrate_pages ]\n\
MigratePages/single/Injected(FrameExhausted): end=410500 [NoMemory] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=402500 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[migrate_pages_enter lock:mmap_lock fault:frame_exhausted@migrate_pages_copy lock:pt_lock migration_degraded tlb_shootdown migrate_pages ]\n\
MigratePages/single/Injected(RacingUnmap): end=413245 [NotPresent] moved=0 bd=[Copy Page=4096 TLB Flush=8000 migrate_pages() Walk=401150 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[migrate_pages_enter lock:mmap_lock fault:racing_unmap@migrate_pages_copy lock:pt_lock migration_degraded tlb_shootdown migrate_pages ]\n\
MigratePages/single/FullBank: end=410500 [NoMemory] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=402500 ] ctr=[TlbShootdowns=1 MigrationsDegraded=1 ] trace=[migrate_pages_enter lock:mmap_lock lock:pt_lock migration_degraded tlb_shootdown migrate_pages ]\n\
MigratePages/repl/Moved: end=413407 [Moved(NodeId(1))] moved=1 bd=[Copy Page=4096 TLB Flush=8000 migrate_pages() Walk=401150 ] ctr=[PagesMovedProcess=1 TlbShootdowns=1 FramesAllocated=1 FramesFreed=1 PtReplicaSyncs=1 ] trace=[migrate_pages_enter lock:mmap_lock lock:pt_lock migration_copy pt_replica_sync tlb_shootdown migrate_pages ]\n\
MigratePages/repl/AlreadyPlaced: end=409150 [AlreadyThere(NodeId(0))] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=401150 ] ctr=[PagesAlreadyPlaced=1 TlbShootdowns=1 ] trace=[migrate_pages_enter lock:mmap_lock lock:pt_lock tlb_shootdown migrate_pages ]\n\
MigratePages/repl/Injected(TransientCopy): end=410500 [Busy] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=402500 ] ctr=[TlbShootdowns=1 FaultsInjected=1 ] trace=[migrate_pages_enter lock:mmap_lock fault:transient_copy@migrate_pages_copy lock:pt_lock tlb_shootdown migrate_pages ]\n\
MigratePages/repl/Injected(FrameExhausted): end=410500 [NoMemory] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=402500 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[migrate_pages_enter lock:mmap_lock fault:frame_exhausted@migrate_pages_copy lock:pt_lock migration_degraded tlb_shootdown migrate_pages ]\n\
MigratePages/repl/Injected(RacingUnmap): end=413245 [NotPresent] moved=0 bd=[Copy Page=4096 TLB Flush=8000 migrate_pages() Walk=401150 ] ctr=[TlbShootdowns=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[migrate_pages_enter lock:mmap_lock fault:racing_unmap@migrate_pages_copy lock:pt_lock migration_degraded tlb_shootdown migrate_pages ]\n\
MigratePages/repl/FullBank: end=410500 [NoMemory] moved=0 bd=[TLB Flush=8000 migrate_pages() Walk=402500 ] ctr=[TlbShootdowns=1 MigrationsDegraded=1 ] trace=[migrate_pages_enter lock:mmap_lock lock:pt_lock migration_degraded tlb_shootdown migrate_pages ]\n\
Evacuate/single/Moved: end=5245 Some(Moved(NodeId(1))) bd=[Copy Page=4096 migrate_pages() Walk=1150 ] ctr=[FramesAllocated=1 FramesFreed=1 PagesEvacuated=1 ] trace=[lock:pt_lock migration_copy ]\n\
Evacuate/single/AlreadyPlaced: end=0 None bd=[] ctr=[] trace=[]\n\
Evacuate/single/Injected(TransientCopy): end=2500 Some(Busy) bd=[migrate_pages() Walk=2500 ] ctr=[FaultsInjected=1 ] trace=[fault:transient_copy@evacuation lock:pt_lock ]\n\
Evacuate/single/Injected(FrameExhausted): end=2500 Some(NoMemory) bd=[migrate_pages() Walk=2500 ] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:frame_exhausted@evacuation lock:pt_lock migration_degraded ]\n\
Evacuate/single/Injected(RacingUnmap): end=5245 Some(NotPresent) bd=[Copy Page=4096 migrate_pages() Walk=1150 ] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:racing_unmap@evacuation lock:pt_lock migration_degraded ]\n\
Evacuate/single/FullBank: end=2500 Some(NoMemory) bd=[migrate_pages() Walk=2500 ] ctr=[MigrationsDegraded=1 ] trace=[lock:pt_lock migration_degraded ]\n\
Evacuate/repl/Moved: end=5407 Some(Moved(NodeId(1))) bd=[Copy Page=4096 migrate_pages() Walk=1150 ] ctr=[FramesAllocated=1 FramesFreed=1 PtReplicaSyncs=1 PagesEvacuated=1 ] trace=[lock:pt_lock migration_copy pt_replica_sync ]\n\
Evacuate/repl/AlreadyPlaced: end=0 None bd=[] ctr=[] trace=[]\n\
Evacuate/repl/Injected(TransientCopy): end=2500 Some(Busy) bd=[migrate_pages() Walk=2500 ] ctr=[FaultsInjected=1 ] trace=[fault:transient_copy@evacuation lock:pt_lock ]\n\
Evacuate/repl/Injected(FrameExhausted): end=2500 Some(NoMemory) bd=[migrate_pages() Walk=2500 ] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:frame_exhausted@evacuation lock:pt_lock migration_degraded ]\n\
Evacuate/repl/Injected(RacingUnmap): end=5245 Some(NotPresent) bd=[Copy Page=4096 migrate_pages() Walk=1150 ] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:racing_unmap@evacuation lock:pt_lock migration_degraded ]\n\
Evacuate/repl/FullBank: end=2500 Some(NoMemory) bd=[migrate_pages() Walk=2500 ] ctr=[MigrationsDegraded=1 ] trace=[lock:pt_lock migration_degraded ]\n\
Reclaim/single/Moved: end=5245 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=1150 ] ctr=[FramesAllocated=1 FramesFreed=1 DirectReclaims=1 ReclaimScans=1 PagesReclaimed=1 ] trace=[lock:pt_lock migration_copy reclaim_run ]\n\
Reclaim/single/AlreadyPlaced: end=0 reclaimed=0 bd=[] ctr=[DirectReclaims=1 ] trace=[reclaim_run ]\n\
Reclaim/single/Injected(TransientCopy): end=7745 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=3650 ] ctr=[FramesAllocated=1 FramesFreed=1 FaultsInjected=1 DirectReclaims=1 ReclaimScans=2 PagesReclaimed=1 ] trace=[fault:transient_copy@reclaim lock:pt_lock lock:pt_lock migration_copy reclaim_run ]\n\
Reclaim/single/Injected(FrameExhausted): end=7745 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=3650 ] ctr=[FramesAllocated=1 FramesFreed=1 FaultsInjected=1 DirectReclaims=1 ReclaimScans=2 PagesReclaimed=1 ] trace=[fault:frame_exhausted@reclaim lock:pt_lock lock:pt_lock migration_copy reclaim_run ]\n\
Reclaim/single/Injected(RacingUnmap): end=7745 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=3650 ] ctr=[FramesAllocated=1 FramesFreed=1 FaultsInjected=1 DirectReclaims=1 ReclaimScans=2 PagesReclaimed=1 ] trace=[fault:racing_unmap@reclaim lock:pt_lock lock:pt_lock migration_copy reclaim_run ]\n\
Reclaim/single/FullBank: end=0 reclaimed=0 bd=[] ctr=[DirectReclaims=1 ReclaimScans=1 ] trace=[reclaim_run ]\n\
Reclaim/repl/Moved: end=5407 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=1150 ] ctr=[FramesAllocated=1 FramesFreed=1 PtReplicaSyncs=1 DirectReclaims=1 ReclaimScans=1 PagesReclaimed=1 ] trace=[lock:pt_lock migration_copy pt_replica_sync reclaim_run ]\n\
Reclaim/repl/AlreadyPlaced: end=0 reclaimed=0 bd=[] ctr=[DirectReclaims=1 ] trace=[reclaim_run ]\n\
Reclaim/repl/Injected(TransientCopy): end=7907 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=3650 ] ctr=[FramesAllocated=1 FramesFreed=1 FaultsInjected=1 PtReplicaSyncs=1 DirectReclaims=1 ReclaimScans=2 PagesReclaimed=1 ] trace=[fault:transient_copy@reclaim lock:pt_lock lock:pt_lock migration_copy pt_replica_sync reclaim_run ]\n\
Reclaim/repl/Injected(FrameExhausted): end=7907 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=3650 ] ctr=[FramesAllocated=1 FramesFreed=1 FaultsInjected=1 PtReplicaSyncs=1 DirectReclaims=1 ReclaimScans=2 PagesReclaimed=1 ] trace=[fault:frame_exhausted@reclaim lock:pt_lock lock:pt_lock migration_copy pt_replica_sync reclaim_run ]\n\
Reclaim/repl/Injected(RacingUnmap): end=7907 reclaimed=1 bd=[Copy Page=4096 migrate_pages() Walk=3650 ] ctr=[FramesAllocated=1 FramesFreed=1 FaultsInjected=1 PtReplicaSyncs=1 DirectReclaims=1 ReclaimScans=2 PagesReclaimed=1 ] trace=[fault:racing_unmap@reclaim lock:pt_lock lock:pt_lock migration_copy pt_replica_sync reclaim_run ]\n\
Reclaim/repl/FullBank: end=0 reclaimed=0 bd=[] ctr=[DirectReclaims=1 ReclaimScans=1 ] trace=[reclaim_run ]\n\
TierStw/single/Moved: end=6596 Some(SimTime(1006596)) bd=[move_pages() Control=2500 move_pages() Copy Page=4096 ] ctr=[FramesAllocated=1 FramesFreed=1 TierDemotions=1 ] trace=[lock:pt_lock migration_copy tier_demote ]\n\
TierStw/single/AlreadyPlaced: end=0 None bd=[] ctr=[PagesAlreadyPlaced=1 ] trace=[]\n\
TierStw/single/Injected(TransientCopy): end=0 None bd=[] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:transient_copy@tier_promotion migration_degraded ]\n\
TierStw/single/Injected(FrameExhausted): end=0 None bd=[] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:frame_exhausted@tier_promotion migration_degraded ]\n\
TierStw/single/Injected(RacingUnmap): end=0 None bd=[] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:racing_unmap@tier_promotion migration_degraded ]\n\
TierStw/single/FullBank: end=0 None bd=[] ctr=[MigrationsDegraded=1 ] trace=[migration_degraded ]\n\
TierStw/repl/Moved: end=6794 Some(SimTime(1006794)) bd=[move_pages() Control=2500 move_pages() Copy Page=4096 ] ctr=[FramesAllocated=1 FramesFreed=1 TierDemotions=1 PtReplicaSyncs=1 ] trace=[lock:pt_lock migration_copy pt_replica_sync tier_demote ]\n\
TierStw/repl/AlreadyPlaced: end=0 None bd=[] ctr=[PagesAlreadyPlaced=1 ] trace=[]\n\
TierStw/repl/Injected(TransientCopy): end=0 None bd=[] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:transient_copy@tier_promotion migration_degraded ]\n\
TierStw/repl/Injected(FrameExhausted): end=0 None bd=[] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:frame_exhausted@tier_promotion migration_degraded ]\n\
TierStw/repl/Injected(RacingUnmap): end=0 None bd=[] ctr=[FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:racing_unmap@tier_promotion migration_degraded ]\n\
TierStw/repl/FullBank: end=0 None bd=[] ctr=[MigrationsDegraded=1 ] trace=[migration_degraded ]\n\
NextTouch/single/Moved: end=5116 migrated=true node=2 bd=[Page-Fault and Migration Control=1020 Copy Page=4096 ] ctr=[NextTouchFaults=1 PagesMovedFault=1 FramesAllocated=1 FramesFreed=1 ] trace=[lock:pt_lock page_fault_migrate ]\n\
NextTouch/single/AlreadyPlaced: end=1020 migrated=false node=0 bd=[Page-Fault and Migration Control=1020 ] ctr=[NextTouchFaults=1 PagesAlreadyPlaced=1 ] trace=[lock:pt_lock page_fault ]\n\
NextTouch/single/Injected(TransientCopy): end=500 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:transient_copy@next_touch_fault migration_degraded page_fault ]\n\
NextTouch/single/Injected(FrameExhausted): end=500 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:frame_exhausted@next_touch_fault migration_degraded page_fault ]\n\
NextTouch/single/Injected(RacingUnmap): end=500 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 FaultsInjected=1 MigrationsDegraded=1 ] trace=[fault:racing_unmap@next_touch_fault migration_degraded page_fault ]\n\
NextTouch/single/FullBank: end=500 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 MigrationsDegraded=1 ] trace=[migration_degraded page_fault ]\n\
NextTouch/repl/Moved: end=5278 migrated=true node=2 bd=[Page-Fault and Migration Control=1020 Copy Page=4096 ] ctr=[NextTouchFaults=1 PagesMovedFault=1 FramesAllocated=1 FramesFreed=1 PtReplicaSyncs=1 ] trace=[lock:pt_lock pt_replica_sync page_fault_migrate ]\n\
NextTouch/repl/AlreadyPlaced: end=1182 migrated=false node=0 bd=[Page-Fault and Migration Control=1020 ] ctr=[NextTouchFaults=1 PagesAlreadyPlaced=1 PtReplicaSyncs=1 ] trace=[lock:pt_lock pt_replica_sync page_fault ]\n\
NextTouch/repl/Injected(TransientCopy): end=662 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 FaultsInjected=1 MigrationsDegraded=1 PtReplicaSyncs=1 ] trace=[fault:transient_copy@next_touch_fault migration_degraded pt_replica_sync page_fault ]\n\
NextTouch/repl/Injected(FrameExhausted): end=662 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 FaultsInjected=1 MigrationsDegraded=1 PtReplicaSyncs=1 ] trace=[fault:frame_exhausted@next_touch_fault migration_degraded pt_replica_sync page_fault ]\n\
NextTouch/repl/Injected(RacingUnmap): end=662 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 FaultsInjected=1 MigrationsDegraded=1 PtReplicaSyncs=1 ] trace=[fault:racing_unmap@next_touch_fault migration_degraded pt_replica_sync page_fault ]\n\
NextTouch/repl/FullBank: end=662 migrated=false node=0 bd=[Page-Fault and Migration Control=500 ] ctr=[NextTouchFaults=1 MigrationsDegraded=1 PtReplicaSyncs=1 ] trace=[migration_degraded pt_replica_sync page_fault ]\n\
";
