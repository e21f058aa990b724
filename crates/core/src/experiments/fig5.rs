//! Figure 5: "Next-touch performance comparison".
//!
//! Three curves over a 4–4096-page sweep: user-space next-touch on the
//! un-patched kernel, user-space next-touch on the patched kernel, and the
//! kernel next-touch implementation. The measured interval covers marking
//! plus the remote thread's touch-triggered migration (the paper's
//! microbenchmark does the same — the Fig. 6 breakdown includes the
//! marking component).
//!
//! Expected shape (§4.3): user-space tracks `move_pages` (~600 MB/s at
//! scale, collapsing without the patch); kernel next-touch reaches
//! ~800 MB/s *even for small buffers* because there is no signal, no
//! second syscall pair, and no global TLB shootdown on the fault path.

use crate::system::NumaSystem;
use numa_kernel::KernelConfig;
use numa_machine::{Machine, MemAccessKind, Op, RunResult, ThreadSpec};
use numa_rt::{setup, Buffer, UserNextTouch};
use numa_topology::{CoreId, NodeId};
use numa_vm::PAGE_SIZE;

use super::pages_throughput;

/// One row of the Figure-5 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Row {
    /// Buffer size in 4 kB pages.
    pub pages: u64,
    /// User-space next-touch on the un-patched kernel, MB/s.
    pub user_nopatch_mbps: f64,
    /// User-space next-touch (patched kernel), MB/s.
    pub user_mbps: f64,
    /// Kernel next-touch, MB/s.
    pub kernel_mbps: f64,
}

/// Which next-touch implementation a measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtVariant {
    /// mprotect + SIGSEGV + `move_pages`, un-patched kernel.
    UserUnpatched,
    /// mprotect + SIGSEGV + `move_pages`, patched kernel.
    User,
    /// `madvise` + fault-path migration.
    Kernel,
}

/// Below this many summed sweep pages, thread spawn/join costs more than
/// the simulations and the sweep runs sequentially. The full paper sweep
/// (4..4096, 8188 pages) stays parallel.
const MIN_PARALLEL_SWEEP_PAGES: u64 = 4_096;

/// Run the sweep, the items distributed over `jobs` host threads. Items
/// are independent (fresh machine each), so the rows are the same, in the
/// same order, for any `jobs` — including when the work-threshold gate
/// keeps a small sweep on the caller's thread.
pub fn run(page_counts: &[u64], jobs: usize) -> Vec<Fig5Row> {
    threadpool::par_map_weighted(
        jobs,
        page_counts,
        |&pages| pages,
        MIN_PARALLEL_SWEEP_PAGES,
        |_, &pages| run_case(pages),
    )
}

/// Run the three variants for one buffer size.
pub fn run_case(pages: u64) -> Fig5Row {
    Fig5Row {
        pages,
        user_nopatch_mbps: pages_throughput(
            pages,
            measure(pages, NtVariant::UserUnpatched).makespan.ns(),
        ),
        user_mbps: pages_throughput(pages, measure(pages, NtVariant::User).makespan.ns()),
        kernel_mbps: pages_throughput(pages, measure(pages, NtVariant::Kernel).makespan.ns()),
    }
}

/// One next-touch migration episode: populate on node 0, mark from a
/// node-0 core, touch every page from a node-1 core. Returns the engine
/// result (makespan = mark + touch-triggered migration).
pub fn measure(pages: u64, variant: NtVariant) -> RunResult {
    measure_impl(pages, variant, None).0
}

/// Like [`measure`], but with event tracing enabled over the measured
/// episode (populate stays untraced, so the trace covers exactly the run
/// whose [`RunResult`] breakdown it must reconcile with). Returns the
/// machine so callers can export the Chrome trace and utilisation report.
pub fn measure_traced(pages: u64, variant: NtVariant, capacity: usize) -> (RunResult, Machine) {
    measure_impl(pages, variant, Some(capacity))
}

fn measure_impl(
    pages: u64,
    variant: NtVariant,
    trace_capacity: Option<usize>,
) -> (RunResult, Machine) {
    let mut m: Machine = match variant {
        NtVariant::UserUnpatched => NumaSystem::new()
            .kernel(KernelConfig {
                patched_move_pages: false,
                ..KernelConfig::default()
            })
            .build(),
        _ => NumaSystem::new().build(),
    };
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    if let Some(cap) = trace_capacity {
        m.enable_trace(cap);
    }

    let user_nt = UserNextTouch::new();
    let mark_ops = match variant {
        NtVariant::Kernel => vec![Op::MadviseNextTouch {
            range: buf.page_range(),
        }],
        _ => {
            m.set_segv_handler(user_nt.handler());
            user_nt.mark_ops(&buf)
        }
    };

    let mut marker = mark_ops;
    marker.push(Op::Barrier(0));
    // Touch with zero charged traffic: the measured cost is the
    // migration machinery itself, not a payload pass.
    let toucher = vec![
        Op::Barrier(0),
        Op::Access {
            addr: buf.addr,
            bytes: buf.len,
            traffic: 0,
            write: true,
            kind: MemAccessKind::Stream,
        },
    ];
    let r = m.run(
        vec![
            ThreadSpec::scripted(CoreId(0), marker),
            ThreadSpec::scripted(CoreId(4), toucher),
        ],
        &[2],
    );
    setup::assert_resident_on(&m, &buf, NodeId(1));
    (r, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_holds() {
        let rows = run(&[16, 256, 2048], 1);
        let large = rows.last().unwrap();
        let small = &rows[0];

        // Kernel NT is fast even for small buffers (§4.3).
        assert!(
            (600.0..900.0).contains(&small.kernel_mbps),
            "small kernel NT {}",
            small.kernel_mbps
        );
        assert!(
            (700.0..900.0).contains(&large.kernel_mbps),
            "large kernel NT {}",
            large.kernel_mbps
        );
        // User NT approaches move_pages throughput at scale...
        assert!(
            (450.0..700.0).contains(&large.user_mbps),
            "large user NT {}",
            large.user_mbps
        );
        // ... but its base overhead crushes small buffers.
        assert!(small.user_mbps < 0.5 * small.kernel_mbps);
        // Kernel NT ~30 % faster than user NT at scale (§5).
        let gain = large.kernel_mbps / large.user_mbps;
        assert!((1.15..1.6).contains(&gain), "kernel/user gain {gain}");
        // The un-patched user curve collapses for large buffers.
        assert!(large.user_nopatch_mbps < 0.4 * large.user_mbps);
    }

    #[test]
    fn all_variants_migrate_correctly() {
        for v in [NtVariant::UserUnpatched, NtVariant::User, NtVariant::Kernel] {
            // assert_resident_on inside measure() validates placement.
            let r = measure(32, v);
            assert!(r.makespan.ns() > 0);
        }
    }
}
