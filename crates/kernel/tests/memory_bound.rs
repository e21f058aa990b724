//! Peak-memory bounds of the relocation paths, pinned with a counting
//! global allocator:
//!
//! * `migrate_pages(2)` walks the page table with a cursor instead of a
//!   snapshot of every vpn, so the only allocation that grows with the
//!   address space is its `status` vector.
//! * One evacuation step allocates nothing: its cost breakdown lives
//!   inline, not on the heap.

#[path = "../../vm/tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Allocs};
use numa_kernel::{FaultResolution, Kernel, KernelConfig, PageStatus};
use numa_sim::SimTime;
use numa_stats::Breakdown;
use numa_topology::{presets, CoreId, NodeId};
use numa_vm::{AddressSpace, FrameAllocator, MemPolicy, Protection, Tlb, VmaKind, PAGE_SIZE};
use std::sync::Arc;

/// Populate `pages` pages on node 0, migrate them all to node 1 and
/// return what `migrate_pages` allocated.
fn migrate_pages_allocs(pages: u64) -> Allocs {
    let topo = Arc::new(presets::opteron_4p());
    let mut frames = FrameAllocator::new(topo.node_count(), 2 * pages);
    let mut tlb = Tlb::new(topo.core_count());
    let mut kernel = Kernel::new(topo, KernelConfig::default());
    let mut space = AddressSpace::new();
    let base = space
        .mmap(
            pages * PAGE_SIZE,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            MemPolicy::FirstTouch,
        )
        .unwrap();
    for p in 0..pages {
        let r = kernel.handle_fault(
            &mut space,
            &mut frames,
            &mut tlb,
            SimTime::ZERO,
            CoreId(0),
            base + p * PAGE_SIZE,
            true,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Resolved { .. }), "{r:?}");
    }
    // One free slot, so relocating (allocate, then free the old frame)
    // never grows the frame table.
    let spare = frames.alloc(NodeId(2)).unwrap();
    frames.free(spare);

    let (result, allocs) = measure(|| {
        kernel
            .migrate_pages(
                &mut space,
                &mut frames,
                &mut tlb,
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
    let topo = Arc::new(presets::opteron_4p());
    let mut frames = FrameAllocator::new(topo.node_count(), 64);
    let mut tlb = Tlb::new(topo.core_count());
    let mut kernel = Kernel::new(topo, KernelConfig::default());
    let mut space = AddressSpace::new();
    let base = space
        .mmap(
            2 * PAGE_SIZE,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            MemPolicy::FirstTouch,
        )
        .unwrap();
    for p in 0..2 {
        let r = kernel.handle_fault(
            &mut space,
            &mut frames,
            &mut tlb,
            SimTime::ZERO,
            CoreId(0),
            base + p * PAGE_SIZE,
            true,
            &mut Breakdown::new(),
        );
        assert!(matches!(r, FaultResolution::Resolved { .. }), "{r:?}");
    }
    // One free slot, so relocating never grows the frame table.
    let spare = frames.alloc(NodeId(2)).unwrap();
    frames.free(spare);
    kernel.node_offline_begin(&mut frames, SimTime(1_000), NodeId(0));
    // The first relocation fills the kernel's per-size cost-quanta cache
    // once; every later step must allocate nothing.
    let step = |kernel: &mut Kernel, space: &mut AddressSpace, frames: &mut FrameAllocator, vpn| {
        let (t, b, status) =
            kernel.evacuate_page_step(space, frames, SimTime(2_000), vpn, NodeId(0));
        assert!(
            matches!(status, Some(PageStatus::Moved(n)) if n != NodeId(0)),
            "{status:?}"
        );
        assert!(t > SimTime(2_000) && b.total() > 0, "the step was charged");
    };
    step(&mut kernel, &mut space, &mut frames, base.vpn());
    let ((), allocs) = measure(|| step(&mut kernel, &mut space, &mut frames, base.vpn() + 1));
    assert_eq!(allocs.bytes, 0, "{allocs:?}");
}
