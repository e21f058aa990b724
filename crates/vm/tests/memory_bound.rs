//! Peak-memory bounds of the VM bulk paths, pinned with a counting global
//! allocator.
//!
//! * The frame table grows in fixed chunks: once its first chunk is full,
//!   populating and relocating never allocates a block larger than one
//!   chunk (a table that doubled would copy itself into a block twice
//!   its size).
//! * `munmap` frees each frame as the page table releases its entry, so
//!   it allocates nothing that grows with the size of the VMA.
//! * A replicated space's mirror table shares the primary's extents:
//!   `munmap` releases the mirror's extent with the primary's, so
//!   mmap/munmap cycles leave no empty extents behind in it, even when
//!   `mprotect` split the VMA and each piece is unmapped on its own.

use numa_topology::NodeId;
use numa_vm::{
    AddressSpace, FrameAllocator, FrameId, MemPolicy, PageRange, PageTable, Protection,
    PtPlacement, PtSyncMode, Pte, PteFlags, VirtAddr, VmaKind, FRAME_CHUNK, PAGES_PER_HUGE,
    PAGE_SIZE,
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

/// A space with replicated page tables on four nodes.
fn replicated_space() -> AddressSpace {
    let mut space = AddressSpace::new();
    space.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, 4);
    space
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

fn mirror(space: &AddressSpace) -> &PageTable {
    space.pt_replicas().unwrap().replica(NodeId(0))
}

/// The mirror's extents, slab count and mapped entries equal the
/// primary's.
fn assert_mirror_matches(space: &AddressSpace, when: &str) {
    let (m, p) = (mirror(space), &space.page_table);
    let (ms, ps) = (m.stats(), p.stats());
    assert_eq!(
        (ms.slabs, ms.mapped),
        (ps.slabs, ps.mapped),
        "mirror (slabs, mapped) vs primary {when}"
    );
    assert!(m.extents().eq(p.extents()), "mirror extents differ {when}");
}

#[test]
fn replica_mirror_releases_the_extent_of_every_munmap() {
    const PAGES: u64 = 4096;
    let mut space = replicated_space();
    let mut frames = FrameAllocator::new(2, 2 * PAGES);
    // One mapping stays live across the cycles.
    let keep = mmap_pages(&mut space, 64);
    assert_mirror_matches(&space, "after the first mmap");
    for cycle in 0..20 {
        let addr = mmap_pages(&mut space, PAGES);
        assert_mirror_matches(&space, &format!("after mmap {cycle}"));
        let range = PageRange::new(addr.vpn(), addr.vpn() + PAGES);
        for vpn in range.iter() {
            let frame = frames.alloc(NodeId((vpn % 2) as u16)).unwrap();
            space.page_table.map(vpn, Pte::present_rw(frame));
        }
        assert_eq!(space.pt_note_update(range), 4 * PAGES);
        assert_mirror_matches(&space, &format!("after the faults of cycle {cycle}"));
        assert_eq!(space.munmap(addr, &mut frames).unwrap(), PAGES);
        assert_mirror_matches(&space, &format!("after munmap {cycle}"));
    }
    assert_eq!(mirror(&space).stats().slabs, 1, "only the kept extent");
    space.munmap(keep, &mut frames).unwrap();
    assert_eq!(mirror(&space).stats().slabs, 0);
}

#[test]
fn munmap_of_every_piece_of_a_split_vma_releases_its_extent() {
    let mut space = replicated_space();
    let mut frames = FrameAllocator::new(2, 64);
    let addr = mmap_pages(&mut space, 10);
    let base = addr.vpn();
    let range = PageRange::new(base, base + 10);
    for vpn in range.iter() {
        let frame = frames.alloc(NodeId((vpn % 2) as u16)).unwrap();
        space.page_table.map(vpn, Pte::present_rw(frame));
    }
    space.pt_note_update(range);
    space
        .mprotect(PageRange::new(base + 3, base + 7), Protection::ReadOnly)
        .unwrap();
    assert_eq!(space.vma_count(), 3);
    assert_mirror_matches(&space, "after the split");
    // The middle piece first, so no single munmap covers the extent.
    for (start, pages) in [(base + 3, 4), (base, 3), (base + 7, 3)] {
        let piece = VirtAddr::from_vpn(start);
        assert_eq!(space.munmap(piece, &mut frames).unwrap(), pages);
        assert_mirror_matches(&space, &format!("after the munmap at {start}"));
    }
    assert_eq!(space.vma_count(), 0);
    assert_eq!(frames.live_total(), 0);
    assert_eq!(
        space.page_table.stats().slabs,
        0,
        "the primary keeps no extent"
    );
    assert_eq!(
        mirror(&space).stats().slabs,
        0,
        "the mirror keeps no extent"
    );
}

#[test]
fn set_vma_huge_converts_the_mirror_extent_too() {
    let mut space = replicated_space();
    let addr = mmap_pages(&mut space, 2 * PAGES_PER_HUGE);
    space.set_vma_huge(addr).unwrap();
    assert_mirror_matches(&space, "after set_vma_huge");
    let strides: Vec<u64> = mirror(&space).extents().map(|(_, s)| s).collect();
    assert_eq!(strides, vec![PAGES_PER_HUGE], "one huge-stride extent");
    // A huge fault on the second head writes one record through to each
    // of the four replicas and leaves the extents alone.
    let head = addr.vpn() + PAGES_PER_HUGE;
    let mut pte = Pte::present_rw(FrameId(7));
    pte.flags |= PteFlags::HUGE;
    space.page_table.map(head, pte);
    assert_eq!(
        space.pt_note_update(PageRange::new(head, head + PAGES_PER_HUGE)),
        4
    );
    assert_mirror_matches(&space, "after a huge fault");
}
