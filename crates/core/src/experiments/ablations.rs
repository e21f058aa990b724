//! Ablations of the design choices DESIGN.md §6 calls out, plus the
//! paper's §6 future-work extensions measured against their baselines.

use crate::system::NumaSystem;
use numa_kernel::KernelConfig;
use numa_machine::{MemAccessKind, Op, ThreadSpec};
use numa_rt::{setup, Buffer, UserNextTouch};
use numa_stats::Breakdown;
use numa_topology::{CoreId, NodeId};
use numa_vm::{MemPolicy, Protection, VirtAddr, VmaKind, PAGE_SIZE};

use super::pages_throughput;

/// Sweep the page-table-lock serialized fraction and report the 4-thread
/// lazy-migration speedup for each value (the Fig. 7 calibration knob),
/// the fractions distributed over `jobs` host threads. Items are
/// independent (fresh machine each), so the rows are the same, in the
/// same order, for any `jobs`.
pub fn lock_fraction_sweep(fractions: &[f64], pages: u64, jobs: usize) -> Vec<(f64, f64)> {
    threadpool::par_map(jobs, fractions, |_, &f| {
        let run = |threads: usize| {
            let mut m = NumaSystem::new()
                .tweak_cost(|c| c.pt_lock_fraction = f)
                .build();
            let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
            setup::populate_on_node(&mut m, &buf, NodeId(0));
            let cores = m.topology().cores_of_node(NodeId(1));
            let chunks = buf.split_pages(threads);
            let n = chunks.len();
            let specs = chunks
                .iter()
                .enumerate()
                .map(|(i, chunk)| {
                    let mut ops = Vec::new();
                    if i == 0 {
                        ops.push(Op::MadviseNextTouch {
                            range: buf.page_range(),
                        });
                    }
                    ops.push(Op::Barrier(0));
                    ops.push(Op::Access {
                        addr: chunk.addr,
                        bytes: chunk.len,
                        traffic: 0,
                        write: true,
                        kind: MemAccessKind::Stream,
                    });
                    ThreadSpec::scripted(cores[i % cores.len()], ops)
                })
                .collect();
            m.run(specs, &[n]).makespan.ns()
        };
        let t1 = run(1);
        let t4 = run(4);
        (f, t1 as f64 / t4 as f64)
    })
}

/// Compare user next-touch granularities: marking a buffer as one region
/// vs one region per per-thread chunk, when 4 threads on different nodes
/// each touch their own chunk. Region-per-chunk places each chunk on its
/// toucher; whole-buffer dumps everything on the first toucher.
/// Returns (whole_buffer_misplaced, per_chunk_misplaced) page counts.
pub fn user_granularity(pages: u64) -> (u64, u64) {
    let misplaced = |per_chunk: bool| {
        let mut m = NumaSystem::new().build();
        let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
        setup::populate_on_node(&mut m, &buf, NodeId(0));
        let nt = UserNextTouch::new();
        m.set_segv_handler(nt.handler());
        let chunks = buf.split_pages(4);
        let mark_ops = if per_chunk {
            nt.mark_regions_ops(&chunks)
        } else {
            nt.mark_ops(&buf)
        };
        // One thread per node touches its own chunk.
        let mut specs = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            let mut ops = Vec::new();
            if i == 0 {
                ops.extend(mark_ops.iter().cloned());
            }
            ops.push(Op::Barrier(0));
            ops.push(Op::read(
                chunk.addr,
                chunk.len.min(8),
                MemAccessKind::Stream,
            ));
            let core = m.topology().cores_of_node(NodeId(i as u16))[0];
            specs.push(ThreadSpec::scripted(core, ops));
        }
        let n = specs.len();
        m.run(specs, &[n]);
        // Count pages not on their toucher's node.
        let mut wrong = 0;
        for (i, chunk) in chunks.iter().enumerate() {
            let hist = setup::residency_histogram(&m, chunk);
            wrong += chunk.pages() - hist[i];
        }
        wrong
    };
    (misplaced(false), misplaced(true))
}

/// Huge-page migration (extension): migrate the same 2 MB payload as one
/// huge page vs 512 base pages via next-touch faults. Returns
/// (base_pages_ns, huge_page_ns).
pub fn huge_page_migration() -> (u64, u64) {
    let cfg = KernelConfig {
        huge_page_migration: true,
        ..KernelConfig::default()
    };
    // Base pages.
    let base_ns = {
        let mut m = NumaSystem::new().kernel(cfg.clone()).build();
        let buf = Buffer::alloc(&mut m, 2 << 20);
        setup::populate_on_node(&mut m, &buf, NodeId(0));
        lazy_migrate_ns(&mut m, buf)
    };
    // One huge page.
    let huge_ns = {
        let mut m = NumaSystem::new().kernel(cfg).build();
        let addr = m
            .kernel
            .mmap_huge(&mut m.space, 2 << 20, MemPolicy::Bind(NodeId(0)))
            .expect("huge mmap");
        let buf = Buffer { addr, len: 2 << 20 };
        setup::populate_on_node(&mut m, &buf, NodeId(0));
        lazy_migrate_ns(&mut m, buf)
    };
    (base_ns, huge_ns)
}

fn lazy_migrate_ns(m: &mut numa_machine::Machine, buf: Buffer) -> u64 {
    let core = m.topology().cores_of_node(NodeId(1))[0];
    let specs = vec![ThreadSpec::scripted(
        core,
        vec![
            Op::MadviseNextTouch {
                range: buf.page_range(),
            },
            Op::Access {
                addr: buf.addr,
                bytes: buf.len,
                traffic: 0,
                write: true,
                kind: MemAccessKind::Stream,
            },
        ],
    )];
    let r = m.run(specs, &[]);
    setup::assert_resident_on(m, &buf, NodeId(1));
    r.makespan.ns()
}

/// Read-only replication (extension): 16 threads on 4 nodes repeatedly
/// read a shared table that lives on node 0. Returns
/// (unreplicated_ns, replicated_ns).
pub fn replication_benefit(pages: u64, passes: u32) -> (u64, u64) {
    let run = |replicate: bool| {
        let mut m = NumaSystem::new()
            .kernel(KernelConfig {
                replication: true,
                ..KernelConfig::default()
            })
            .build();
        let addr = m
            .space
            .mmap(
                pages * PAGE_SIZE,
                Protection::ReadOnly,
                VmaKind::PrivateAnonymous,
                MemPolicy::Bind(NodeId(0)),
            )
            .expect("mmap");
        let buf = Buffer {
            addr,
            len: pages * PAGE_SIZE,
        };
        // Populate read-only pages by reading from node 0.
        for vpn in buf.page_range().iter() {
            m.kernel.handle_fault(
                &mut m.space,
                &mut m.frames,
                &mut m.tlb,
                numa_sim::SimTime::ZERO,
                CoreId(0),
                VirtAddr::from_vpn(vpn).max(addr),
                false,
                &mut Breakdown::new(),
            );
        }
        if replicate {
            m.kernel
                .replicate_read_only(
                    &mut m.space,
                    &mut m.frames,
                    numa_sim::SimTime::ZERO,
                    buf.page_range(),
                )
                .expect("replicate");
        }
        let specs: Vec<ThreadSpec> = m
            .topology()
            .core_ids()
            .map(|core| {
                let mut ops = Vec::new();
                for _ in 0..passes {
                    ops.push(Op::Access {
                        addr: buf.addr,
                        bytes: buf.len,
                        traffic: buf.len,
                        write: false,
                        kind: MemAccessKind::Blocked,
                    });
                }
                ThreadSpec::scripted(core, ops)
            })
            .collect();
        m.flush_caches();
        m.reset_contention();
        m.run(specs, &[]).makespan.ns()
    };
    (run(false), run(true))
}

/// Explicit next-touch hooks vs AutoNUMA-style automatic scanning on a
/// dynamic workload (the mainline alternative to the paper's design):
/// 16 threads sweep a shared working set whose per-phase ownership
/// rotates. Returns `(static_ns, hooked_nt_ns, auto_ns)`.
pub fn hooked_vs_auto(buf_pages: u64, phases: usize) -> (u64, u64, u64) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Static,
        Hooked,
        Auto,
    }
    let run = |mode: Mode| {
        let mut m = NumaSystem::new().build();
        let buf = Buffer::alloc(&mut m, buf_pages * PAGE_SIZE);
        setup::populate_on_node(&mut m, &buf, NodeId(0));
        let team = numa_rt::Team::all_cores(&m);
        let nthreads = team.len();
        let mut auto_state = numa_rt::AutoBalanceState::new(vec![buf]);
        let mut plan = numa_rt::WorkPlan::new();
        for phase in 0..phases {
            match mode {
                Mode::Hooked => {
                    plan.single(move || {
                        vec![Op::MadviseNextTouch {
                            range: buf.page_range(),
                        }]
                    });
                }
                Mode::Auto => {
                    if let Some(scan) = auto_state.maybe_scan() {
                        plan.single(move || scan.clone());
                    }
                }
                Mode::Static => {}
            }
            // Ownership rotates each phase: thread t works chunk
            // (t + phase) % T.
            let chunks = buf.split_pages(nthreads);
            plan.parallel_for(nthreads, numa_rt::Schedule::Static, move |tid| {
                let c = &chunks[(tid + phase) % chunks.len()];
                vec![Op::Access {
                    addr: c.addr,
                    bytes: c.len,
                    traffic: c.len * 8,
                    write: true,
                    kind: MemAccessKind::Blocked,
                }]
            });
        }
        team.run(&mut m, plan).makespan.ns()
    };
    (run(Mode::Static), run(Mode::Hooked), run(Mode::Auto))
}

/// The quadratic-lookup ablation in isolation: per-page lookup cost as a
/// function of request size, patched vs not. Returns rows of
/// `(pages, patched_mbps, unpatched_mbps)`, the sizes distributed over
/// `jobs` host threads. Items are independent (fresh machine each), so
/// the rows are the same, in the same order, for any `jobs`.
pub fn lookup_ablation(page_counts: &[u64], jobs: usize) -> Vec<(u64, f64, f64)> {
    threadpool::par_map(jobs, page_counts, |_, &pages| {
        let t = |patched: bool| {
            let mut m = NumaSystem::new()
                .kernel(KernelConfig {
                    patched_move_pages: patched,
                    ..KernelConfig::default()
                })
                .build();
            let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
            setup::populate_on_node(&mut m, &buf, NodeId(0));
            let addrs = buf.page_addrs();
            let dest = vec![NodeId(1); addrs.len()];
            let r = m.run(
                vec![ThreadSpec::scripted(
                    CoreId(0),
                    vec![Op::MovePages { pages: addrs, dest }],
                )],
                &[],
            );
            pages_throughput(pages, r.makespan.ns())
        };
        (pages, t(true), t(false))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_fraction_controls_scaling() {
        let rows = lock_fraction_sweep(&[0.1, 0.9], 8192, 1);
        let (lo_f, lo_speedup) = rows[0];
        let (hi_f, hi_speedup) = rows[1];
        assert!(lo_f < hi_f);
        assert!(
            lo_speedup > hi_speedup,
            "less serialization must scale better: {lo_speedup} vs {hi_speedup}"
        );
        assert!(
            hi_speedup < 1.6,
            "90% serialized cannot scale: {hi_speedup}"
        );
    }

    #[test]
    fn per_chunk_regions_place_better() {
        let (whole, per_chunk) = user_granularity(64);
        assert_eq!(per_chunk, 0, "per-chunk regions must place perfectly");
        assert!(
            whole > 0,
            "whole-buffer region must misplace the other threads' chunks"
        );
    }

    #[test]
    fn huge_pages_migrate_faster() {
        let (base, huge) = huge_page_migration();
        assert!(
            huge < base,
            "one huge-page fault ({huge} ns) must beat 512 base faults ({base} ns)"
        );
    }

    #[test]
    fn replication_speeds_up_shared_reads() {
        let (plain, replicated) = replication_benefit(64, 4);
        assert!(
            replicated < plain,
            "replication ({replicated} ns) must beat remote reads ({plain} ns)"
        );
    }

    #[test]
    fn hooked_hints_beat_blind_scanning() {
        // 16 MB working set: per-thread chunks exceed the L3 share, so
        // locality genuinely matters each phase.
        let (stat, hooked, auto) = hooked_vs_auto(4096, 6);
        assert!(
            hooked < stat,
            "explicit hooks must beat static: {hooked} vs {stat}"
        );
        assert!(
            auto < stat,
            "even blind scanning must beat static: {auto} vs {stat}"
        );
        assert!(
            hooked < auto,
            "the application hint must beat sampling: hooked {hooked} vs auto {auto}"
        );
    }

    #[test]
    fn lookup_ablation_shows_quadratic_gap() {
        let rows = lookup_ablation(&[64, 4096], 1);
        let (_, p_small, u_small) = rows[0];
        let (_, p_large, u_large) = rows[1];
        let small_gap = p_small / u_small;
        let large_gap = p_large / u_large;
        assert!(
            large_gap > small_gap * 2.0,
            "the gap must widen with size: {small_gap} -> {large_gap}"
        );
    }
}
