//! Peak-memory bounds of the VM bulk paths, pinned with a counting global
//! allocator.
//!
//! * The frame table grows in fixed chunks: once its first chunk is full,
//!   populating and relocating never allocates a block larger than one
//!   chunk (a table that doubled would copy itself into a block twice
//!   its size).
//! * `munmap` frees each frame as the page table releases its entry, so
//!   it allocates nothing that grows with the size of the VMA.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameAllocator, FrameId, MemPolicy, Protection, Pte, VmaKind, FRAME_CHUNK,
    PAGE_SIZE,
};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Allocs};

/// Bytes of the larger of the table's two per-slot arrays in one chunk:
/// the contents half holds a content tag and a write generation.
const CHUNK_BYTES: usize = FRAME_CHUNK * 16;

#[test]
fn frame_table_never_allocates_more_than_one_chunk_once_the_first_is_full() {
    let mut fa = FrameAllocator::new(2, 1 << 20);
    let total = 3 * FRAME_CHUNK + 1;
    let mut ids: Vec<FrameId> = Vec::with_capacity(total + 1);
    for _ in 0..FRAME_CHUNK {
        ids.push(fa.alloc(NodeId(0)).unwrap());
    }
    let ((), allocs) = measure(|| {
        while ids.len() < total {
            ids.push(fa.alloc(NodeId(0)).unwrap());
        }
        // Relocate the frame in the first slot of the last chunk: the new
        // frame goes past it before the old one is freed.
        let old = ids[3 * FRAME_CHUNK];
        let new = fa.alloc(NodeId(1)).unwrap();
        fa.copy_contents(old, new);
        fa.free(old);
        ids.push(new);
    });
    assert_eq!(fa.live_total(), total as u64);
    assert!(
        allocs.largest <= CHUNK_BYTES,
        "a block of {} bytes, more than one {CHUNK_BYTES}-byte chunk",
        allocs.largest
    );
    // Three chunks of both halves (24 bytes a slot), plus the chunk list.
    assert!(allocs.bytes <= 3 * FRAME_CHUNK * 24 + 1024, "{allocs:?}");
}

/// Map `pages` pages, each backed by a frame, and unmap them; return
/// what the unmap allocated.
fn munmap_allocs(pages: u64) -> Allocs {
    let mut space = AddressSpace::new();
    let mut frames = FrameAllocator::new(2, pages);
    let addr = space
        .mmap(
            pages * PAGE_SIZE,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            MemPolicy::FirstTouch,
        )
        .unwrap();
    for p in 0..pages {
        let frame = frames.alloc(NodeId((p % 2) as u16)).unwrap();
        space.page_table.map(addr.vpn() + p, Pte::present_rw(frame));
    }
    let (unmapped, allocs) = measure(|| space.munmap(addr, &mut frames).unwrap());
    assert_eq!(unmapped, pages);
    assert_eq!(frames.live_total(), 0, "every frame was freed");
    assert!(space.page_table.is_empty());
    allocs
}

#[test]
fn munmap_allocates_nothing_that_grows_with_the_vma() {
    let small = munmap_allocs(1_000);
    let large = munmap_allocs(100_000);
    assert!(large.bytes <= 1024, "munmap of 100,000 pages: {large:?}");
    assert_eq!(large.bytes, small.bytes, "{small:?} vs {large:?}");
}
