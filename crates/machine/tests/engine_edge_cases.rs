//! Edge cases of the machine engine: huge mappings through the op path,
//! unaligned memcpy, tracing, contention reset, cache flushing, and
//! thread migration (`Op::MigrateThread`).

use numa_kernel::KernelConfig;
use numa_machine::{Machine, MemAccessKind, Op, ThreadSpec};
use numa_sim::SimTime;
use numa_stats::{Breakdown, Counter};
use numa_topology::{presets, CoreId, NodeId};
use numa_vm::{MemPolicy, PtPlacement, PtSyncMode, PAGES_PER_HUGE, PAGE_SIZE};
use std::sync::Arc;

fn huge_machine() -> Machine {
    Machine::new(
        Arc::new(presets::opteron_4p()),
        KernelConfig {
            huge_page_migration: true,
            ..KernelConfig::default()
        },
    )
}

#[test]
fn huge_mapping_lazy_migrates_through_the_engine() {
    let mut m = huge_machine();
    let addr = m
        .kernel
        .mmap_huge(&mut m.space, 4 << 20, MemPolicy::Bind(NodeId(0)))
        .unwrap();
    // Populate both huge pages.
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::write(addr, 4 << 20, MemAccessKind::Stream)],
        )],
        &[],
    );
    assert!(r.makespan.ns() > 0);
    assert_eq!(m.frames.live_on(NodeId(0)), 2, "two huge frames");

    // Mark + touch from node 2.
    let range = numa_vm::PageRange::new(addr.vpn(), addr.vpn() + 2 * PAGES_PER_HUGE);
    m.run(
        vec![ThreadSpec::scripted(
            CoreId(8),
            vec![
                Op::MadviseNextTouch { range },
                Op::read(addr, 4 << 20, MemAccessKind::Stream),
            ],
        )],
        &[],
    );
    assert_eq!(m.frames.live_on(NodeId(2)), 2, "both huge pages followed");
    assert_eq!(m.page_node(addr + (3 << 20)), Some(NodeId(2)));
}

#[test]
fn unaligned_memcpy_copies_exactly() {
    let mut m = Machine::two_node();
    let src = m.alloc(4 * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
    let dst = m.alloc(4 * PAGE_SIZE, MemPolicy::Bind(NodeId(1)));
    // Start 100 bytes into the source, copy a page and a half.
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::Memcpy {
                src: src + 100,
                dst: dst + 100,
                bytes: PAGE_SIZE + PAGE_SIZE / 2,
            }],
        )],
        &[],
    );
    // Both touched pages of each side populated, none beyond.
    assert!(m.page_node(src + 100).is_some());
    assert!(m.page_node(src + PAGE_SIZE + 100).is_some());
    assert!(m.page_node(dst + PAGE_SIZE + 100).is_some());
    assert_eq!(m.page_node(dst + 3 * PAGE_SIZE), None);
    // Duration roughly bytes / 2 GB/s plus fault costs.
    let copy_ns = (PAGE_SIZE + PAGE_SIZE / 2) as f64 / 2.0;
    assert!(r.makespan.ns() as f64 > copy_ns);
}

#[test]
fn zero_byte_ops_are_free() {
    let mut m = Machine::two_node();
    let buf = m.alloc(PAGE_SIZE, MemPolicy::FirstTouch);
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::Access {
                    addr: buf,
                    bytes: 0,
                    traffic: 0,
                    write: false,
                    kind: MemAccessKind::Stream,
                },
                Op::Memcpy {
                    src: buf,
                    dst: buf,
                    bytes: 0,
                },
                Op::Nop,
            ],
        )],
        &[],
    );
    assert_eq!(r.makespan.ns(), 0);
}

#[test]
fn trace_records_faults_when_enabled() {
    use numa_sim::TraceEventKind;
    let mut m = Machine::two_node();
    m.enable_trace(1024);
    let buf = m.alloc(2 * PAGE_SIZE, MemPolicy::FirstTouch);
    m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::write(buf, 2 * PAGE_SIZE, MemAccessKind::Stream)],
        )],
        &[],
    );
    let events = m.trace.snapshot();
    let fault_events = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::PageFault { .. }))
        .count();
    assert_eq!(fault_events, 2, "one trace event per first-touch fault");
    // The engine wraps each fault in a typed span as well.
    assert!(events
        .iter()
        .any(|e| matches!(e.kind, TraceEventKind::Span { .. })));
}

#[test]
fn reset_contention_clears_watermarks_but_not_placement() {
    let mut m = Machine::two_node();
    let buf = m.alloc(16 * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
    numa_rt_populate(&mut m, buf, 16);
    // Heavy traffic to stain the watermarks.
    m.run(
        vec![ThreadSpec::scripted(
            CoreId(2),
            vec![Op::read(buf, 16 * PAGE_SIZE, MemAccessKind::Blocked)],
        )],
        &[],
    );
    assert!(m.kernel.interconnect.mem_busy_ns(NodeId(0)) > 0);
    m.reset_contention();
    assert_eq!(m.kernel.interconnect.mem_busy_ns(NodeId(0)), 0);
    // Placement untouched.
    assert_eq!(m.page_node(buf), Some(NodeId(0)));
}

// Local helper to avoid a dev-dependency on numa-rt from numa-machine.
fn numa_rt_populate(m: &mut Machine, addr: numa_vm::VirtAddr, pages: u64) {
    for p in 0..pages {
        m.kernel.handle_fault(
            &mut m.space,
            &mut m.frames,
            &mut m.tlb,
            numa_sim::SimTime::ZERO,
            CoreId(0),
            addr + p * PAGE_SIZE,
            true,
            &mut Breakdown::new(),
        );
    }
}

#[test]
fn barrier_only_threads_finish_at_zero() {
    let mut m = Machine::two_node();
    let specs = vec![
        ThreadSpec::scripted(CoreId(0), vec![Op::Barrier(0)]),
        ThreadSpec::scripted(CoreId(1), vec![Op::Barrier(0)]),
    ];
    let r = m.run(specs, &[2]);
    assert_eq!(r.makespan.ns(), 0);
}

#[test]
#[should_panic(expected = "unregistered barrier")]
fn unregistered_barrier_panics() {
    let mut m = Machine::two_node();
    m.run(
        vec![ThreadSpec::scripted(CoreId(0), vec![Op::Barrier(3)])],
        &[1],
    );
}

#[test]
fn flush_caches_forces_refill() {
    let mut m = Machine::two_node();
    let buf = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
    let mk_read = || vec![Op::read(buf, 4 * PAGE_SIZE, MemAccessKind::Blocked)];
    m.run(vec![ThreadSpec::scripted(CoreId(0), mk_read())], &[]);
    let warm = {
        let r = m.run(vec![ThreadSpec::scripted(CoreId(0), mk_read())], &[]);
        r.makespan.ns()
    };
    m.flush_caches();
    m.reset_contention();
    let cold = {
        let r = m.run(vec![ThreadSpec::scripted(CoreId(0), mk_read())], &[]);
        r.makespan.ns()
    };
    assert!(cold > warm, "cold rerun ({cold}) must exceed warm ({warm})");
}

#[test]
fn congestion_report_reflects_traffic() {
    let mut m = Machine::two_node();
    let buf = m.alloc(8 * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
    numa_rt_populate(&mut m, buf, 8);
    m.reset_contention();
    let before = m.congestion_report();
    assert_eq!(before.total_link_ns(), 0);
    assert_eq!(before.total_mem_ns(), 0);
    // Remote read from node 1 crosses the link and hits node 0's MC.
    m.run(
        vec![ThreadSpec::scripted(
            CoreId(2),
            vec![Op::read(buf, 8 * PAGE_SIZE, MemAccessKind::Blocked)],
        )],
        &[],
    );
    let after = m.congestion_report();
    assert!(
        after.total_link_ns() > 0,
        "remote traffic must use the link"
    );
    assert!(after.mem_busy_ns[0] > 0, "home controller busy");
    assert_eq!(after.mem_busy_ns[1], 0, "node 1's controller untouched");
    assert!(after.mem_imbalance().is_infinite());
}

/// The op that moves the executing thread onto the first core of `node`.
fn move_thread_to_node(m: &Machine, node: NodeId) -> Op {
    Op::MigrateThread {
        to: m.topology().cores_of_node(node)[0],
    }
}

#[test]
fn migrate_op_rebinds_thread_core() {
    let mut m = Machine::opteron_4p();
    let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
    // Write from core 0 (node 0), migrate to node 2, write again:
    // the second buffer lands on node 2 by first touch.
    let b = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
    let ops = vec![
        Op::write(a, 4 * PAGE_SIZE, MemAccessKind::Stream),
        move_thread_to_node(&m, NodeId(2)),
        Op::write(b, 4 * PAGE_SIZE, MemAccessKind::Stream),
    ];
    m.run(vec![ThreadSpec::scripted(CoreId(0), ops)], &[]);
    assert_eq!(m.page_node(a), Some(NodeId(0)));
    assert_eq!(m.page_node(b), Some(NodeId(2)));
}

#[test]
fn colocated_single_home_pt_follows_the_thread() {
    let mut m = Machine::opteron_4p();
    let nodes = m.topology().node_count();
    m.space
        .pt_configure(PtPlacement::SingleHome(NodeId(0)), PtSyncMode::Eager, nodes);
    let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
    let shootdowns_before = m.kernel.counters.get(Counter::TlbShootdowns);
    let ops = vec![
        Op::write(a, 4 * PAGE_SIZE, MemAccessKind::Stream),
        move_thread_to_node(&m, NodeId(3)),
        Op::read(a, 4 * PAGE_SIZE, MemAccessKind::Stream),
    ];
    let r = m.run(vec![ThreadSpec::scripted(CoreId(0), ops)], &[]);
    assert_eq!(
        m.space.pt_placement(),
        Some(PtPlacement::SingleHome(NodeId(3))),
        "co-located PT must re-home with the thread"
    );
    assert_eq!(
        m.kernel.counters.get(Counter::TlbShootdowns),
        shootdowns_before + 1,
        "PT migration batches one shootdown"
    );
    assert!(r.makespan.ns() > 0);
}

#[test]
fn remote_home_and_unset_placement_stay_put() {
    // Deliberately-remote home: stays where it was pinned.
    let mut m = Machine::opteron_4p();
    let nodes = m.topology().node_count();
    m.space
        .pt_configure(PtPlacement::SingleHome(NodeId(1)), PtSyncMode::Eager, nodes);
    let a = m.alloc(PAGE_SIZE, MemPolicy::FirstTouch);
    let ops = vec![
        Op::write(a, PAGE_SIZE, MemAccessKind::Stream),
        move_thread_to_node(&m, NodeId(3)),
    ];
    m.run(vec![ThreadSpec::scripted(CoreId(0), ops)], &[]);
    assert_eq!(
        m.space.pt_placement(),
        Some(PtPlacement::SingleHome(NodeId(1)))
    );

    // Placement unset: the op costs nothing at all.
    let mut m = Machine::opteron_4p();
    let mut stats = numa_machine::RunStats::default();
    let end = m.migrate_thread(CoreId(0), CoreId(12), SimTime(77), &mut stats);
    assert_eq!(end, SimTime(77));
}
