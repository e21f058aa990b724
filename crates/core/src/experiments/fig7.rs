//! Figure 7: "Throughput of a parallel Lazy migration (kernel Next-touch)
//! and a synchronous migration (move_pages) using up to 4 threads on the
//! same NUMA node".
//!
//! A buffer resident on node 0 is migrated to node 1 by 1–4 threads
//! pinned to node 1's cores. Synchronous: each thread `move_pages`-es its
//! chunk. Lazy: one thread marks the whole buffer next-touch, then every
//! thread touches (and thereby migrates) its chunk.
//!
//! Expected shape (§4.4): no benefit from parallelism below ~1 MB (the
//! serialized syscall bases and lock contention dominate); 50–60 %
//! aggregate improvement with 4 threads on large buffers; lazy scaling
//! slightly better, topping out around 1.3 GB/s — far below the memcpy
//! bandwidth because every page migration still takes a fault and the
//! page-table lock.

use crate::system::NumaSystem;
use numa_machine::{MemAccessKind, Op, ThreadSpec};
use numa_rt::{setup, Buffer};
use numa_topology::NodeId;
use numa_vm::PAGE_SIZE;

use super::pages_throughput;

/// One row of the Figure-7 sweep.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Buffer size in 4 kB pages.
    pub pages: u64,
    /// Aggregate MB/s for synchronous migration with 1..=max threads
    /// (index 0 = 1 thread).
    pub sync_mbps: Vec<f64>,
    /// Aggregate MB/s for lazy (kernel next-touch) migration.
    pub lazy_mbps: Vec<f64>,
}

/// Below this many summed sweep pages the pool's spawn/join overhead
/// outweighs the simulation work and the sweep runs sequentially (the
/// quick four-point sweep measured *slower* at `--jobs 4` than at 1).
/// The full paper sweep (64..32768, 65472 pages) stays parallel.
const MIN_PARALLEL_SWEEP_PAGES: u64 = 32_768;

/// Run the sweep with 1..=`max_threads` threads (the paper uses 4 — one
/// per core of the destination node), the items distributed over `jobs`
/// host threads. Items are independent (fresh machine each), so the rows
/// are the same, in the same order, for any `jobs` — including when the
/// work-threshold gate keeps a small sweep on the caller's thread.
pub fn run(page_counts: &[u64], max_threads: usize, jobs: usize) -> Vec<Fig7Row> {
    threadpool::par_map_weighted(
        jobs,
        page_counts,
        |&pages| pages,
        MIN_PARALLEL_SWEEP_PAGES,
        |_, &pages| run_case(pages, max_threads),
    )
}

/// Run one buffer size across both migration styles and all thread
/// counts.
pub fn run_case(pages: u64, max_threads: usize) -> Fig7Row {
    Fig7Row {
        pages,
        sync_mbps: (1..=max_threads)
            .map(|t| pages_throughput(pages, measure_sync(pages, t)))
            .collect(),
        lazy_mbps: (1..=max_threads)
            .map(|t| pages_throughput(pages, measure_lazy(pages, t)))
            .collect(),
    }
}

/// Synchronous parallel migration: `threads` concurrent `move_pages`
/// calls over disjoint chunks. Returns the makespan in ns.
pub fn measure_sync(pages: u64, threads: usize) -> u64 {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let cores = m.topology().cores_of_node(NodeId(1));
    let chunks = buf.split_pages(threads);
    let specs = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let addrs = chunk.page_addrs();
            let dest = vec![NodeId(1); addrs.len()];
            ThreadSpec::scripted(
                cores[i % cores.len()],
                vec![Op::MovePages { pages: addrs, dest }],
            )
        })
        .collect();
    let r = m.run(specs, &[]);
    setup::assert_resident_on(&m, &buf, NodeId(1));
    r.makespan.ns()
}

/// Lazy parallel migration: thread 0 marks, then every thread touches its
/// chunk, migrating pages in its own faults. Returns the makespan in ns.
pub fn measure_lazy(pages: u64, threads: usize) -> u64 {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let cores = m.topology().cores_of_node(NodeId(1));
    let chunks = buf.split_pages(threads);
    let nthreads = chunks.len();
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
    let r = m.run(specs, &[nthreads]);
    setup::assert_resident_on(&m, &buf, NodeId(1));
    r.makespan.ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_holds() {
        let rows = run(&[128, 16384], 4, 1);
        let small = &rows[0]; // 512 kB
        let large = &rows[1]; // 64 MB

        // Small buffers: parallelism buys little or nothing (§4.4).
        let small_gain = small.sync_mbps[3] / small.sync_mbps[0];
        assert!(small_gain < 1.25, "small sync 4-thread gain {small_gain}");

        // Large buffers: 4 threads give ~50-60 % (we accept 30-90 %).
        let sync_gain = large.sync_mbps[3] / large.sync_mbps[0];
        let lazy_gain = large.lazy_mbps[3] / large.lazy_mbps[0];
        assert!((1.3..1.9).contains(&sync_gain), "sync gain {sync_gain}");
        assert!((1.3..2.0).contains(&lazy_gain), "lazy gain {lazy_gain}");
        // Lazy scales at least as well as sync.
        assert!(lazy_gain >= sync_gain * 0.95);

        // Lazy 4-thread aggregate lands near the paper's 1.3 GB/s.
        assert!(
            (1000.0..1600.0).contains(&large.lazy_mbps[3]),
            "lazy 4-thread {}",
            large.lazy_mbps[3]
        );
        // And stays well under the memcpy bandwidth.
        assert!(large.lazy_mbps[3] < 1800.0);
    }

    #[test]
    fn monotone_in_threads_for_large_buffers() {
        let rows = run(&[8192], 4, 1);
        let r = &rows[0];
        for t in 1..4 {
            assert!(
                r.lazy_mbps[t] >= r.lazy_mbps[t - 1] * 0.98,
                "lazy should not regress with threads: {:?}",
                r.lazy_mbps
            );
        }
    }
}
