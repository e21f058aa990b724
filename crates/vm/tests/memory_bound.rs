//! Peak-memory bounds of the VM bulk paths, pinned with a counting global
//! allocator.
//!
//! * The frame table grows in fixed chunks: once its first chunk is full,
//!   populating and relocating never allocates a block larger than one
//!   chunk (a table that doubled would copy itself into a block twice
//!   its size).
//! * `munmap` frees each frame as the page table releases its entry, so
//!   it allocates nothing that grows with the size of the VMA.
//! * `munmap` releases a VMA's extent, even when `mprotect` split the VMA
//!   and each piece is unmapped on its own.
//! * Replicated page tables store no table of their own: mapping and
//!   faulting a VMA allocates the same bytes on a replicated space as on
//!   a single-home one.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameAllocator, FrameId, MemPolicy, PageRange, Protection, PtPlacement,
    PtSyncMode, Pte, VirtAddr, VmaKind, FRAME_CHUNK, PAGE_SIZE,
};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Allocs};

/// Bytes of one chunk of the frame table: a slot is one 24-byte record
/// (generation, node, content tag, write generation).
const CHUNK_BYTES: usize = FRAME_CHUNK * 24;

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
    // Three chunks of 24-byte slots, plus the chunk list.
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

fn mmap_pages(space: &mut AddressSpace, pages: u64) -> VirtAddr {
    space
        .mmap(
            pages * PAGE_SIZE,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            MemPolicy::FirstTouch,
        )
        .unwrap()
}

/// Build a space with `placement` on four nodes, map `pages` pages and
/// fault each one in with its write-through note; return what that
/// allocated.
fn populate_allocs(placement: PtPlacement, pages: u64) -> Allocs {
    let ((), allocs) = measure(|| {
        let mut space = AddressSpace::new();
        space.pt_configure(placement, PtSyncMode::Eager, 4);
        let addr = mmap_pages(&mut space, pages);
        for vpn in addr.vpn()..addr.vpn() + pages {
            space.page_table.map(vpn, Pte::present_rw(FrameId(vpn)));
            space.pt_note_update(PageRange::new(vpn, vpn + 1));
        }
        assert_eq!(space.page_table.len() as u64, pages);
    });
    allocs
}

#[test]
fn replicated_page_tables_allocate_what_a_single_home_table_does() {
    const PAGES: u64 = 10_000;
    let single = populate_allocs(PtPlacement::SingleHome(NodeId(0)), PAGES);
    let replicated = populate_allocs(PtPlacement::Replicated, PAGES);
    assert!(single.bytes > 0, "{single:?}");
    assert_eq!(
        replicated.bytes, single.bytes,
        "{replicated:?} vs {single:?}"
    );
}

#[test]
fn munmap_of_every_piece_of_a_split_vma_releases_its_extent() {
    let mut space = AddressSpace::new();
    space.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, 4);
    let mut frames = FrameAllocator::new(2, 64);
    let addr = mmap_pages(&mut space, 10);
    let base = addr.vpn();
    let range = PageRange::new(base, base + 10);
    for vpn in range.iter() {
        let frame = frames.alloc(NodeId((vpn % 2) as u16)).unwrap();
        space.page_table.map(vpn, Pte::present_rw(frame));
    }
    assert_eq!(space.pt_note_update(range), 4 * 10);
    space
        .mprotect(PageRange::new(base + 3, base + 7), Protection::ReadOnly)
        .unwrap();
    assert_eq!(space.vma_count(), 3);
    assert_eq!(space.page_table.stats().slabs, 1, "the pieces share one");
    // The middle piece first, so no single munmap covers the extent.
    for (start, pages) in [(base + 3, 4), (base, 3), (base + 7, 3)] {
        let piece = VirtAddr::from_vpn(start);
        assert_eq!(space.munmap(piece, &mut frames).unwrap(), pages);
    }
    assert_eq!(space.vma_count(), 0);
    assert_eq!(frames.live_total(), 0);
    assert_eq!(
        space.page_table.stats().slabs,
        0,
        "the primary keeps no extent"
    );
    let replicas = space.pt_replicas().unwrap();
    assert!(replicas.agrees_with(NodeId(0), &space.page_table));
}
