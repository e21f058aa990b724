//! Cross-crate integration tests for both next-touch implementations and
//! the lazy-migration idiom, through the public API.

use numa_migrate::prelude::*;
use numa_migrate::rt::setup;

/// Kernel next-touch scatters a shared buffer across the nodes of the
/// threads that touch it — the paper's canonical use (§3.4): "Next-touch
/// usually serves as a way to scatter a single buffer across multiple
/// NUMA nodes when multiple threads start accessing it in an
/// unpredictable manner".
#[test]
fn kernel_next_touch_scatters_by_toucher() {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, 16 * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));

    let chunks = buf.split_pages(4);
    // One thread per node; thread 0 marks, everyone touches one chunk.
    let mut specs = Vec::new();
    for (i, chunk) in chunks.iter().enumerate() {
        let mut ops = Vec::new();
        if i == 0 {
            ops.push(Op::MadviseNextTouch {
                range: buf.page_range(),
            });
        }
        ops.push(Op::Barrier(0));
        ops.push(Op::write(chunk.addr, chunk.len, MemAccessKind::Stream));
        let core = m.topology().cores_of_node(NodeId(i as u16))[0];
        specs.push(ThreadSpec::scripted(core, ops));
    }
    m.run(specs, &[4]);

    for (i, chunk) in chunks.iter().enumerate() {
        setup::assert_resident_on(&m, chunk, NodeId(i as u16));
    }
    assert_eq!(m.kernel.counters.get(Counter::PagesMovedFault), 12);
    assert_eq!(m.kernel.counters.get(Counter::PagesAlreadyPlaced), 4);
}

/// User-space next-touch migrates whole regions; pages never touched
/// never migrate (the lazy-migration selling point, §3.4).
#[test]
fn untouched_regions_never_migrate() {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, 8 * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let nt = UserNextTouch::new();
    m.set_segv_handler(nt.handler());

    let halves = buf.split_pages(2);
    let mut ops = nt.mark_regions_ops(&halves);
    // Touch only the first half, from node 1.
    ops.push(Op::read(halves[0].addr, 8, MemAccessKind::Stream));
    let core = m.topology().cores_of_node(NodeId(1))[0];
    m.run(vec![ThreadSpec::scripted(core, ops)], &[]);

    setup::assert_resident_on(&m, &halves[0], NodeId(1));
    setup::assert_resident_on(&m, &halves[1], NodeId(0));
    assert_eq!(nt.pending(), 1, "second region still armed");
    m.clear_segv_handler();
}

/// A marked buffer touched locally clears its flags without copying —
/// "there is no useless migration" (§3.4).
#[test]
fn local_touch_pays_no_copy() {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, 32 * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(2));
    let core = m.topology().cores_of_node(NodeId(2))[0];
    let r = m.run(
        vec![ThreadSpec::scripted(
            core,
            vec![
                Op::MadviseNextTouch {
                    range: buf.page_range(),
                },
                Op::write(buf.addr, buf.len, MemAccessKind::Stream),
            ],
        )],
        &[],
    );
    assert_eq!(m.kernel.counters.get(Counter::PagesMovedFault), 0);
    assert_eq!(m.kernel.counters.get(Counter::PagesAlreadyPlaced), 32);
    assert!(
        r.stats.breakdown.get(CostComponent::FaultCopy) == 0,
        "no copy may be charged for local touches"
    );
    setup::assert_resident_on(&m, &buf, NodeId(2));
}

/// Marking is idempotent and re-armable: after migration, re-marking
/// re-enables migration the other way.
#[test]
fn next_touch_can_ping_pong_when_rearmed() {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, 4 * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let core1 = m.topology().cores_of_node(NodeId(1))[0];
    let core3 = m.topology().cores_of_node(NodeId(3))[0];

    let mark = Op::MadviseNextTouch {
        range: buf.page_range(),
    };
    let touch = Op::write(buf.addr, buf.len, MemAccessKind::Stream);
    m.run(
        vec![ThreadSpec::scripted(
            core1,
            vec![mark.clone(), touch.clone()],
        )],
        &[],
    );
    setup::assert_resident_on(&m, &buf, NodeId(1));
    m.run(vec![ThreadSpec::scripted(core3, vec![mark, touch])], &[]);
    setup::assert_resident_on(&m, &buf, NodeId(3));
    assert_eq!(m.kernel.counters.get(Counter::PagesMovedFault), 8);
}

/// The kernel path must beat the user path for the same workload
/// (the paper's ~30 % headline, §4.3/§5).
#[test]
fn kernel_path_beats_user_path() {
    use numa_migrate::experiments::fig5::{measure, NtVariant};
    let kernel = measure(1024, NtVariant::Kernel).makespan.ns();
    let user = measure(1024, NtVariant::User).makespan.ns();
    let gain = user as f64 / kernel as f64;
    assert!(
        (1.15..1.6).contains(&gain),
        "kernel NT should win by ~30 %, got {gain:.2}x"
    );
}

/// Next-touch is gated to private anonymous memory, as in the paper's
/// implementation (§6): shared and file mappings are refused, a private
/// one is marked.
#[test]
fn shared_mapping_support_is_gated() {
    use numa_migrate::vm::{MemPolicy, Protection, VmaKind};
    for (kind, expect_ok) in [
        (VmaKind::SharedAnonymous, false),
        (VmaKind::File, false),
        (VmaKind::PrivateAnonymous, true),
    ] {
        let mut m = NumaSystem::new().build();
        let addr = m
            .space
            .mmap(
                4 * PAGE_SIZE,
                Protection::ReadWrite,
                kind,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        let range = PageRange::new(addr.vpn(), addr.vpn() + 4);
        let r =
            m.kernel
                .madvise_next_touch(&mut m.space, &mut m.tlb, SimTime::ZERO, CoreId(0), range);
        assert_eq!(r.is_ok(), expect_ok, "{kind:?}");
    }
}

/// Determinism across identical runs: bit-equal makespans and counters.
#[test]
fn next_touch_runs_are_deterministic() {
    let run_once = || {
        let mut m = NumaSystem::new().build();
        let buf = Buffer::alloc(&mut m, 64 * PAGE_SIZE);
        setup::populate_on_node(&mut m, &buf, NodeId(0));
        let chunks = buf.split_pages(4);
        let specs: Vec<ThreadSpec> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut ops = Vec::new();
                if i == 0 {
                    ops.push(Op::MadviseNextTouch {
                        range: buf.page_range(),
                    });
                }
                ops.push(Op::Barrier(0));
                ops.push(Op::write(c.addr, c.len, MemAccessKind::Stream));
                ThreadSpec::scripted(m.topology().cores_of_node(NodeId(1))[i], ops)
            })
            .collect();
        let r = m.run(specs, &[4]);
        (r.makespan, m.kernel.counters.clone())
    };
    let (t1, c1) = run_once();
    let (t2, c2) = run_once();
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
}
