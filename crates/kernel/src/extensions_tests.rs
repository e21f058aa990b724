//! Unit tests for the §6 future-work extensions: read-only replication
//! and huge-page migration, at the kernel API level.

use crate::test_util::Fixture;
use crate::{FaultResolution, KernelConfig};
use numa_sim::SimTime;
use numa_stats::{Breakdown, Counter};
use numa_topology::{CoreId, NodeId};
use numa_vm::{MemPolicy, PageRange, Protection, VirtAddr, VmaKind, PAGES_PER_HUGE, PAGE_SIZE};

fn replication_fixture() -> (Fixture, VirtAddr) {
    let mut fx = Fixture::with_config(KernelConfig {
        replication: true,
        ..KernelConfig::default()
    });
    let addr = fx
        .space
        .mmap(
            4 * PAGE_SIZE,
            Protection::ReadOnly,
            VmaKind::PrivateAnonymous,
            MemPolicy::Bind(NodeId(0)),
        )
        .unwrap();
    for p in 0..4 {
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            addr + p * PAGE_SIZE,
            false,
            &mut Breakdown::new(),
        );
    }
    (fx, addr)
}

#[test]
fn replication_creates_one_replica_per_other_node() {
    let (mut fx, addr) = replication_fixture();
    let range = PageRange::new(addr.vpn(), addr.vpn() + 4);
    let live_before = fx.frames.live_total();
    fx.kernel
        .replicate_read_only(&mut fx.space, &mut fx.frames, SimTime::ZERO, range)
        .unwrap();
    // 4 pages x 3 extra nodes.
    assert_eq!(fx.frames.live_total(), live_before + 12);
    assert_eq!(fx.kernel.counters.get(Counter::PagesReplicated), 4);
    for p in 0..4u64 {
        assert!(fx.kernel.has_replicas(addr.vpn() + p));
        // Nearest replica from node 3 is node 3 itself.
        let (n, _) = fx
            .kernel
            .nearest_replica(addr.vpn() + p, NodeId(3))
            .unwrap();
        assert_eq!(n, NodeId(3));
    }
}

#[test]
fn replication_requires_read_only() {
    let mut fx = Fixture::with_config(KernelConfig {
        replication: true,
        ..KernelConfig::default()
    });
    let addr = fx.map_anon(2); // ReadWrite
    let range = PageRange::new(addr.vpn(), addr.vpn() + 2);
    let err = fx
        .kernel
        .replicate_read_only(&mut fx.space, &mut fx.frames, SimTime::ZERO, range)
        .unwrap_err();
    assert!(matches!(err, numa_vm::VmError::Unsupported(_)));
}

#[test]
fn replication_gated_by_config() {
    let (mut fx, addr) = {
        // Same setup but replication disabled.
        let mut fx = Fixture::new();
        let addr = fx
            .space
            .mmap(
                PAGE_SIZE,
                Protection::ReadOnly,
                VmaKind::PrivateAnonymous,
                MemPolicy::Bind(NodeId(0)),
            )
            .unwrap();
        (fx, addr)
    };
    let range = PageRange::new(addr.vpn(), addr.vpn() + 1);
    assert!(fx
        .kernel
        .replicate_read_only(&mut fx.space, &mut fx.frames, SimTime::ZERO, range)
        .is_err());
}

#[test]
fn unreplicate_frees_replica_frames() {
    let (mut fx, addr) = replication_fixture();
    let range = PageRange::new(addr.vpn(), addr.vpn() + 4);
    let live_before = fx.frames.live_total();
    fx.kernel
        .replicate_read_only(&mut fx.space, &mut fx.frames, SimTime::ZERO, range)
        .unwrap();
    fx.kernel.unreplicate(&mut fx.space, &mut fx.frames, range);
    assert_eq!(fx.frames.live_total(), live_before, "replicas freed");
    assert!(!fx.kernel.has_replicas(addr.vpn()));
    // The home page is still mapped and readable.
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
}

#[test]
fn huge_page_next_touch_migrates_whole_2mb() {
    let mut fx = Fixture::with_config(KernelConfig {
        huge_page_migration: true,
        ..KernelConfig::default()
    });
    let addr = fx
        .kernel
        .mmap_huge(&mut fx.space, 2 << 20, MemPolicy::Bind(NodeId(0)))
        .unwrap();
    // Populate (one fault covers the huge page).
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
    assert_eq!(
        fx.frames.live_on(NodeId(0)),
        1,
        "one frame entry per huge page"
    );

    fx.kernel
        .madvise_next_touch(
            &mut fx.space,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            PageRange::new(addr.vpn(), addr.vpn() + PAGES_PER_HUGE),
        )
        .unwrap();
    // Touch the middle from node 1.
    let mut b = Breakdown::new();
    let r = fx.kernel.handle_fault(
        &mut fx.space,
        &mut fx.frames,
        &mut fx.tlb,
        SimTime::ZERO,
        CoreId(4),
        addr + 300 * PAGE_SIZE,
        true,
        &mut b,
    );
    match r {
        FaultResolution::Resolved { migrated, node, .. } => {
            assert!(migrated);
            assert_eq!(node, NodeId(1));
            // The copy must be a 2 MB copy, not a 4 kB one: at 1 GB/s
            // and 55% lock serialization, well over 1 ms of copy cost.
            assert!(
                b.get(numa_stats::CostComponent::FaultCopy) > 800_000,
                "2 MB copy expected, got {} ns",
                b.get(numa_stats::CostComponent::FaultCopy)
            );
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(fx.kernel.counters.get(Counter::HugePagesMoved), 1);
    assert_eq!(fx.frames.live_on(NodeId(1)), 1);
    assert_eq!(fx.frames.live_on(NodeId(0)), 0);
}

#[test]
fn huge_pages_skipped_by_migrate_pages_when_disabled() {
    // A huge mapping created with the feature on, then migrate_pages run
    // by a kernel with the feature off, must leave it in place.
    let mut fx = Fixture::with_config(KernelConfig {
        huge_page_migration: true,
        ..KernelConfig::default()
    });
    let addr = fx
        .kernel
        .mmap_huge(&mut fx.space, 2 << 20, MemPolicy::Bind(NodeId(0)))
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
    fx.kernel.config.huge_page_migration = false;
    let r = fx
        .kernel
        .migrate_pages(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            &[NodeId(0)],
            &[NodeId(1)],
        )
        .unwrap();
    assert_eq!(r.moved, 0, "huge page must be skipped");
    assert_eq!(fx.frames.live_on(NodeId(0)), 1);
}

/// `migrate_pages` moves a huge page whole and counts it as a huge move,
/// like `move_pages`, evacuation and the next-touch fault do.
#[test]
fn huge_page_moved_by_migrate_pages_is_counted() {
    let mut fx = Fixture::with_config(KernelConfig {
        huge_page_migration: true,
        ..KernelConfig::default()
    });
    let addr = fx
        .kernel
        .mmap_huge(&mut fx.space, 2 << 20, MemPolicy::Bind(NodeId(0)))
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
    let r = fx
        .kernel
        .migrate_pages(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            &[NodeId(0)],
            &[NodeId(1)],
        )
        .unwrap();
    assert_eq!(r.moved, 1);
    assert_eq!(fx.frames.live_on(NodeId(1)), 1);
    assert_eq!(fx.kernel.counters.get(Counter::PagesMovedProcess), 1);
    assert_eq!(fx.kernel.counters.get(Counter::HugePagesMoved), 1);
}
