//! Peak-memory bounds of the relocation paths, pinned with a counting
//! global allocator:
//!
//! * `migrate_pages(2)` walks the page table with a cursor instead of a
//!   snapshot of every vpn, so the only allocation that grows with the
//!   address space is its `status` vector.
//! * One evacuation step allocates nothing: its cost breakdown lives
//!   inline, not on the heap.
//! * A move never grows the frame table: the page keeps its slot, so a
//!   table with no free slot moves every page without allocating.

#[path = "../../vm/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Allocs};
use numa_kernel::{FaultResolution, Kernel, KernelConfig, PageStatus};
use numa_sim::SimTime;
use numa_stats::Breakdown;
use numa_topology::{presets, CoreId, NodeId};
use numa_vm::{
    AddressSpace, FrameAllocator, MemPolicy, PageRange, Protection, Tlb, VirtAddr, VmaKind,
    FRAME_CHUNK, PAGE_SIZE,
};
use std::sync::Arc;

/// A kernel, one address space and its frames on the 4-node Opteron.
struct Rig {
    kernel: Kernel,
    space: AddressSpace,
    frames: FrameAllocator,
    tlb: Tlb,
}

impl Rig {
    fn new(frames_per_node: u64) -> Self {
        let topo = Arc::new(presets::opteron_4p());
        Rig {
            frames: FrameAllocator::new(topo.node_count(), frames_per_node),
            tlb: Tlb::new(topo.core_count()),
            kernel: Kernel::new(topo, KernelConfig::default()),
            space: AddressSpace::new(),
        }
    }

    fn fault(&mut self, now: SimTime, core: CoreId, addr: VirtAddr) {
        let r = self.kernel.handle_fault(
            &mut self.space,
            &mut self.frames,
            &mut self.tlb,
            now,
            core,
            addr,
            true,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Resolved { .. }), "{r:?}");
    }

    /// Map `pages` fresh pages and fault each in from `core`.
    fn first_touch(&mut self, core: CoreId, pages: u64) -> VirtAddr {
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
            self.fault(SimTime::ZERO, core, base + p * PAGE_SIZE);
        }
        base
    }

    /// Move every page of `[base, base + pages)` to `core`'s node
    /// through next-touch faults.
    fn next_touch(&mut self, core: CoreId, base: VirtAddr, pages: u64) {
        let range = PageRange::new(base.vpn(), base.vpn() + pages);
        self.kernel
            .madvise_next_touch(&mut self.space, &mut self.tlb, SimTime(1_000), core, range)
            .unwrap();
        for p in 0..pages {
            self.fault(SimTime(2_000), core, base + p * PAGE_SIZE);
        }
    }

    /// Evacuate every page of `[base, base + pages)` off `node`.
    fn evacuate(&mut self, node: NodeId, base: VirtAddr, pages: u64) {
        for vpn in base.vpn()..base.vpn() + pages {
            let (_, _, status) = self.kernel.evacuate_page_step(
                &mut self.space,
                &mut self.frames,
                SimTime(3_000),
                vpn,
                node,
            );
            assert!(
                matches!(status, Some(PageStatus::Moved(n)) if n != node),
                "{status:?}"
            );
        }
    }
}

/// Populate `pages` pages on node 0, migrate them all to node 1 and
/// return what `migrate_pages` allocated.
fn migrate_pages_allocs(pages: u64) -> Allocs {
    let mut rig = Rig::new(2 * pages);
    rig.first_touch(CoreId(0), pages);
    let Rig {
        kernel,
        space,
        frames,
        tlb,
    } = &mut rig;
    let (result, allocs) = measure(|| {
        kernel
            .migrate_pages(
                space,
                frames,
                tlb,
                SimTime(1_000_000),
                CoreId(0),
                &[NodeId(0)],
                &[NodeId(1)],
            )
            .unwrap()
    });
    assert_eq!(result.moved, pages);
    assert!(result
        .status
        .iter()
        .all(|s| *s == PageStatus::Moved(NodeId(1))));
    assert_eq!(frames.live_on(NodeId(1)), pages);
    allocs
}

#[test]
fn migrate_pages_allocates_only_its_status_vector() {
    let small = migrate_pages_allocs(1_000);
    let large = migrate_pages_allocs(20_000);
    let status = |pages: usize| pages * std::mem::size_of::<PageStatus>();
    assert_eq!(small.largest, status(1_000), "{small:?}");
    assert_eq!(large.largest, status(20_000), "{large:?}");
    // Everything else is the same few fixed-size blocks at any size.
    assert_eq!(
        small.bytes - status(1_000),
        large.bytes - status(20_000),
        "{small:?} vs {large:?}"
    );
    assert!(large.bytes - status(20_000) <= 1024, "{large:?}");
}

#[test]
fn evacuate_page_step_allocates_nothing() {
    let mut rig = Rig::new(64);
    let base = rig.first_touch(CoreId(0), 2);
    rig.kernel
        .node_offline_begin(&mut rig.frames, SimTime(1_000), NodeId(0));
    // The first relocation fills the kernel's per-size cost-quanta cache
    // once; every later step must allocate nothing.
    let step = |rig: &mut Rig, vpn| {
        let (t, b, status) = rig.kernel.evacuate_page_step(
            &mut rig.space,
            &mut rig.frames,
            SimTime(2_000),
            vpn,
            NodeId(0),
        );
        assert!(
            matches!(status, Some(PageStatus::Moved(n)) if n != NodeId(0)),
            "{status:?}"
        );
        assert!(t > SimTime(2_000) && b.total() > 0, "the step was charged");
    };
    step(&mut rig, base.vpn());
    let ((), allocs) = measure(|| step(&mut rig, base.vpn() + 1));
    assert_eq!(allocs.bytes, 0, "{allocs:?}");
}

#[test]
fn moving_every_page_of_a_full_frame_table_allocates_nothing() {
    let pages = 2 * FRAME_CHUNK as u64;
    let mut rig = Rig::new(pages + 1);
    let (toucher, mover) = (CoreId(0), rig.kernel.topology().cores_of_node(NodeId(1))[0]);
    // One page through both paths first, to fill the kernel's per-size
    // cost-quanta cache; unmapping it leaves its slot free for reuse.
    let warm = rig.first_touch(toucher, 1);
    rig.next_touch(mover, warm, 1);
    rig.kernel
        .node_offline_begin(&mut rig.frames, SimTime(3_000), NodeId(1));
    rig.evacuate(NodeId(1), warm, 1);
    rig.kernel
        .node_online(&mut rig.frames, SimTime(4_000), NodeId(1));
    rig.space.munmap(warm, &mut rig.frames).unwrap();

    // Exactly two whole chunks of live frames, and no free slot.
    let base = rig.first_touch(toucher, pages);
    assert_eq!(rig.frames.live_on(NodeId(0)), pages);
    let ((), allocs) = measure(|| rig.next_touch(mover, base, pages));
    assert_eq!(rig.frames.live_on(NodeId(1)), pages);
    assert_eq!(allocs.bytes, 0, "next-touch moves: {allocs:?}");
    rig.kernel
        .node_offline_begin(&mut rig.frames, SimTime(3_000), NodeId(1));
    let ((), allocs) = measure(|| rig.evacuate(NodeId(1), base, pages));
    assert_eq!(rig.frames.live_on(NodeId(1)), 0);
    assert_eq!(rig.frames.live_total(), pages);
    assert_eq!(allocs.bytes, 0, "evacuations: {allocs:?}");
}
