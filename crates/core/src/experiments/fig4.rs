//! Figure 4: "Migration and memory copy throughput comparison between
//! NUMA nodes #0 and #1".
//!
//! Four curves over a page-count sweep, all single-threaded:
//!
//! * `memcpy` — a user-space copy of the buffer from node 0 memory into a
//!   node-1-bound destination (the no-VM-work upper baseline);
//! * `migrate_pages` — whole-process migration, node 0 → node 1;
//! * `move_pages` — per-page migration with the paper's complexity fix;
//! * `move_pages (no patch)` — the historical quadratic implementation.
//!
//! Expected shape (paper §4.2): memcpy well above everything
//! (~1.7–2 GB/s); `migrate_pages` ≈ 780 MB/s at scale but with a ~400 µs
//! base; `move_pages` ≈ 600 MB/s flat once past its ~160 µs base; the
//! un-patched curve tracking `move_pages` for small counts then collapsing
//! quadratically beyond a few hundred pages.

use crate::system::NumaSystem;
use numa_kernel::KernelConfig;
use numa_machine::{Op, ThreadSpec};
use numa_rt::{setup, Buffer};
use numa_topology::{CoreId, NodeId};
use numa_vm::PAGE_SIZE;

use super::pages_throughput;

/// One row of the Figure-4 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Buffer size in 4 kB pages.
    pub pages: u64,
    /// User-space memcpy throughput, MB/s.
    pub memcpy_mbps: f64,
    /// `migrate_pages` throughput, MB/s.
    pub migrate_pages_mbps: f64,
    /// Patched `move_pages` throughput, MB/s.
    pub move_pages_mbps: f64,
    /// Un-patched `move_pages` throughput, MB/s.
    pub move_pages_nopatch_mbps: f64,
}

/// Below this many summed sweep pages, thread spawn/join costs more than
/// the simulations and the sweep runs sequentially. The full paper sweep
/// (1..16384, 32767 pages) stays parallel.
const MIN_PARALLEL_SWEEP_PAGES: u64 = 16_384;

/// Run the sweep, the items distributed over `jobs` host threads. Every
/// measurement uses a fresh machine so earlier calls leave no warm state
/// (mirrors the paper's per-size runs), and the rows are the same, in the
/// same order, for any `jobs` — including when the work-threshold gate
/// keeps a small sweep on the caller's thread.
pub fn run(page_counts: &[u64], jobs: usize) -> Vec<Fig4Row> {
    threadpool::par_map_weighted(
        jobs,
        page_counts,
        |&pages| pages,
        MIN_PARALLEL_SWEEP_PAGES,
        |_, &pages| run_case(pages),
    )
}

/// Run the four curves for one buffer size.
pub fn run_case(pages: u64) -> Fig4Row {
    Fig4Row {
        pages,
        memcpy_mbps: measure_memcpy(pages),
        migrate_pages_mbps: measure_migrate_pages(pages),
        move_pages_mbps: measure_move_pages(pages, true),
        move_pages_nopatch_mbps: measure_move_pages(pages, false),
    }
}

fn measure_memcpy(pages: u64) -> f64 {
    let mut m = NumaSystem::new().build();
    let src = Buffer::alloc_on(&mut m, pages * PAGE_SIZE, NodeId(0));
    let dst = Buffer::alloc_on(&mut m, pages * PAGE_SIZE, NodeId(1));
    setup::populate_on_node(&mut m, &src, NodeId(0));
    setup::populate_on_node(&mut m, &dst, NodeId(1));
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::Memcpy {
                src: src.addr,
                dst: dst.addr,
                bytes: pages * PAGE_SIZE,
            }],
        )],
        &[],
    );
    pages_throughput(pages, r.makespan.ns())
}

fn measure_migrate_pages(pages: u64) -> f64 {
    let mut m = NumaSystem::new().build();
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::MigratePages {
                from: vec![NodeId(0)],
                to: vec![NodeId(1)],
            }],
        )],
        &[],
    );
    setup::assert_resident_on(&m, &buf, NodeId(1));
    pages_throughput(pages, r.makespan.ns())
}

fn measure_move_pages(pages: u64, patched: bool) -> f64 {
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
    setup::assert_resident_on(&m, &buf, NodeId(1));
    pages_throughput(pages, r.makespan.ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_holds() {
        // A reduced sweep checking every comparative claim of §4.2.
        let rows = run(&[16, 256, 2048, 8192], 1);
        let large = rows.last().unwrap();

        // memcpy dominates everything.
        for r in &rows {
            assert!(
                r.memcpy_mbps >= r.migrate_pages_mbps,
                "memcpy under migrate_pages at {}",
                r.pages
            );
            assert!(
                r.memcpy_mbps >= r.move_pages_mbps,
                "memcpy under move_pages at {}",
                r.pages
            );
        }
        // Large-buffer plateaus in the paper's bands.
        assert!(
            (500.0..700.0).contains(&large.move_pages_mbps),
            "move_pages {}",
            large.move_pages_mbps
        );
        assert!(
            (680.0..880.0).contains(&large.migrate_pages_mbps),
            "migrate_pages {}",
            large.migrate_pages_mbps
        );
        assert!(large.memcpy_mbps > 1500.0, "memcpy {}", large.memcpy_mbps);
        // migrate_pages beats move_pages at scale (§4.2) ...
        assert!(large.migrate_pages_mbps > large.move_pages_mbps);
        // ... but its higher base hurts small buffers.
        let small = &rows[0];
        assert!(small.move_pages_mbps > small.migrate_pages_mbps);

        // The un-patched collapse: fine for small counts, dramatic later.
        let r256 = rows.iter().find(|r| r.pages == 256).unwrap();
        assert!(r256.move_pages_nopatch_mbps > 0.4 * r256.move_pages_mbps);
        assert!(
            large.move_pages_nopatch_mbps < 0.3 * large.move_pages_mbps,
            "no-patch {} vs patched {}",
            large.move_pages_nopatch_mbps,
            large.move_pages_mbps
        );
        // Patched throughput is buffer-size independent at scale.
        let r2048 = rows.iter().find(|r| r.pages == 2048).unwrap();
        let flatness = large.move_pages_mbps / r2048.move_pages_mbps;
        assert!((0.8..1.25).contains(&flatness), "flatness {flatness}");
    }
}
