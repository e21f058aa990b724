//! Page-table placement experiment (ptplace subsystem): the same
//! workload measured with three page-table placements —
//!
//! * **local** — single home on node 0, co-located with the threads;
//! * **repl** — Mitosis-style per-node replicas (eager write-through);
//! * **remote** — single home on node 3 (two HyperTransport hops from
//!   the threads on the Opteron 4P).
//!
//! Four workloads span the trade-off space:
//!
//! * `walk` — walk-dominated: threads first-touch their chunks and then
//!   random-read them repeatedly. Every touch pays the expected
//!   TLB-miss × walk-latency cost, so the remote home loses by the
//!   interconnect factor while replicas walk locally and only pay the
//!   one-time eager sync of the first-touch faults. The acceptance
//!   ordering `local < repl < remote` holds at every size.
//! * `migrate` — migration-dominated (Fig. 4 shape): `move_pages` the
//!   buffer across nodes, then stream it back. Every PTE rewrite
//!   charges the replica write-through, so replication is the *worst*
//!   placement here — the cost Mitosis pays on munmap/migration-heavy
//!   workloads.
//! * `next_touch` — the Fig. 5 kernel next-touch path: mark, then
//!   touch from another node. Replicas pay sync on the madvise marking
//!   and again on every next-touch fault's frame swap.
//! * `lu` — the Table-1 blocked LU factorization with kernel
//!   next-touch, the paper's real application.

use crate::system::NumaSystem;
use numa_apps::lu::{run_lu, LuConfig};
use numa_machine::{MemAccessKind, Op, ThreadSpec};
use numa_rt::{setup, Buffer, MigrationStrategy};
use numa_topology::NodeId;
use numa_vm::{PtPlacement, PAGE_SIZE};

/// Random-read passes of the `walk` workload (after first touch).
pub const WALK_SWEEPS: u64 = 16;

/// The node the `remote` scenario homes the page table on: the farthest
/// node from the worker node 0 on the Opteron 4P (two hops).
pub const REMOTE_HOME: NodeId = NodeId(3);

/// The three page-table placements each workload is measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtScenario {
    /// Single home co-located with the workers (node 0).
    Local,
    /// Per-node replicas with eager write-through.
    Replicated,
    /// Single home two hops away ([`REMOTE_HOME`]).
    Remote,
}

impl PtScenario {
    /// All scenarios, in report-column order.
    pub const ALL: [PtScenario; 3] = [
        PtScenario::Local,
        PtScenario::Replicated,
        PtScenario::Remote,
    ];

    /// Stable column label.
    pub fn label(self) -> &'static str {
        match self {
            PtScenario::Local => "local",
            PtScenario::Replicated => "repl",
            PtScenario::Remote => "remote",
        }
    }

    /// The paper machine with this scenario's page-table placement.
    pub fn system(self) -> NumaSystem {
        let placement = match self {
            PtScenario::Local => PtPlacement::SingleHome(NodeId(0)),
            PtScenario::Replicated => PtPlacement::Replicated,
            PtScenario::Remote => PtPlacement::SingleHome(REMOTE_HOME),
        };
        NumaSystem::new().pt_placement(placement)
    }
}

/// One (workload, size) cell measured under all three placements.
#[derive(Debug, Clone)]
pub struct PtreplRow {
    /// Workload name (`walk`, `migrate`, `next_touch`, `lu`).
    pub workload: &'static str,
    /// Buffer size in 4 kB pages (matrix dimension for `lu`).
    pub pages: u64,
    /// Makespan with the co-located single home, ns.
    pub local_ns: u64,
    /// Makespan with per-node replicas, ns.
    pub repl_ns: u64,
    /// Makespan with the remote single home, ns.
    pub remote_ns: u64,
}

impl PtreplRow {
    /// Remote-home slowdown over the co-located home.
    pub fn remote_slowdown(&self) -> f64 {
        self.remote_ns as f64 / self.local_ns as f64
    }

    /// Fraction of the remote-home penalty that replication recovers
    /// (1.0 = walks at local speed, negative = replication costs more
    /// than the remote walks did).
    pub fn repl_recovery(&self) -> f64 {
        let penalty = self.remote_ns.saturating_sub(self.local_ns) as f64;
        if penalty == 0.0 {
            return 0.0;
        }
        (self.remote_ns.saturating_sub(self.repl_ns)) as f64 / penalty
    }
}

/// The page-count sweep of the `walk`/`migrate`/`next_touch` workloads.
pub fn default_page_counts() -> Vec<u64> {
    (6..=12).map(|e| 1u64 << e).collect()
}

/// The (workload, size) cells of a full run: the walk sweep plus one
/// representative migration, next-touch, and LU case each.
pub fn cases(page_counts: &[u64]) -> Vec<(&'static str, u64)> {
    let mut cases: Vec<(&'static str, u64)> = page_counts.iter().map(|&p| ("walk", p)).collect();
    let mid = page_counts[page_counts.len() / 2];
    cases.push(("migrate", mid));
    cases.push(("next_touch", mid));
    cases.push(("lu", 1024));
    cases
}

/// Below this much summed estimated work (page-touch units, see
/// [`case_work`]) the sweep runs sequentially: spawn/join and result-slot
/// synchronisation cost more host time than the cells themselves. The
/// default sweep (~0.8M units, most of it the one `lu` cell that parallel
/// workers cannot split anyway) sits under this gate — `--jobs 4` used to
/// pay pool overhead on it for no speedup because the old gate summed raw
/// `size` values, where `lu`'s matrix dimension (1024) looked *smaller*
/// than a single mid-size walk cell.
const MIN_PARALLEL_SWEEP_WORK: u64 = 1 << 20;

/// Estimated simulated work of one cell, in page-touch units.
///
/// `size` alone is a bad estimator because the workloads scale
/// differently in it: the walk touches every page `1 + WALK_SWEEPS`
/// times, migrate/next-touch touch each page a constant number of times,
/// and `lu`'s `size` is a matrix *dimension* — the factorization does
/// ~n³/3 element updates, i.e. n³/1536 page-touch units at 512 f64 per
/// page.
fn case_work(workload: &str, size: u64) -> u64 {
    match workload {
        "walk" => size * (1 + WALK_SWEEPS),
        "migrate" | "next_touch" => size * 3,
        "lu" => (size * size * size) / 1536,
        _ => size,
    }
}

/// Run the given cells, distributed over `jobs` host threads. Cells are
/// independent (fresh machine each), so the rows are the same, in the
/// same order, for any `jobs`.
pub fn run(cases: &[(&'static str, u64)], jobs: usize) -> Vec<PtreplRow> {
    threadpool::par_map_weighted(
        jobs,
        cases,
        |&(workload, size)| case_work(workload, size),
        MIN_PARALLEL_SWEEP_WORK,
        |_, &(workload, size)| run_case(workload, size),
    )
}

/// Measure one (workload, size) cell under all three placements.
pub fn run_case(workload: &'static str, size: u64) -> PtreplRow {
    let measure = |s: PtScenario| match workload {
        "walk" => measure_walk(s, size),
        "migrate" => measure_migrate(s, size),
        "next_touch" => measure_next_touch(s, size),
        "lu" => measure_lu(s, size),
        other => panic!("unknown ptrepl workload {other:?}"),
    };
    PtreplRow {
        workload,
        pages: size,
        local_ns: measure(PtScenario::Local),
        repl_ns: measure(PtScenario::Replicated),
        remote_ns: measure(PtScenario::Remote),
    }
}

/// Walk-dominated: node-0 threads first-touch their chunks (timed, so
/// the replica write-through of the faults is paid), then random-read
/// them [`WALK_SWEEPS`] times. Returns the makespan in ns.
pub fn measure_walk(scenario: PtScenario, pages: u64) -> u64 {
    let mut m = scenario.system().build();
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    let cores = m.topology().cores_of_node(NodeId(0)).to_vec();
    let chunks = buf.split_pages(cores.len());
    let nthreads = chunks.len();
    let specs = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let mut ops = vec![
                Op::write(chunk.addr, chunk.len, MemAccessKind::Random),
                Op::Barrier(0),
            ];
            for _ in 0..WALK_SWEEPS {
                ops.push(Op::read(chunk.addr, chunk.len, MemAccessKind::Random));
            }
            ThreadSpec::scripted(cores[i], ops)
        })
        .collect();
    m.run(specs, &[nthreads]).makespan.ns()
}

/// Migration-dominated: populate on node 0 (untimed), then one node-0
/// thread `move_pages`-es the buffer to node 1 and streams it back.
pub fn measure_migrate(scenario: PtScenario, pages: u64) -> u64 {
    let mut m = scenario.system().build();
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let core = m.topology().cores_of_node(NodeId(0))[0];
    let addrs = buf.page_addrs();
    let dest = vec![NodeId(1); addrs.len()];
    let ops = vec![
        Op::MovePages { pages: addrs, dest },
        Op::read(buf.addr, buf.len, MemAccessKind::Stream),
    ];
    let r = m.run(vec![ThreadSpec::scripted(core, ops)], &[]);
    setup::assert_resident_on(&m, &buf, NodeId(1));
    r.makespan.ns()
}

/// Kernel next-touch (Fig. 5 shape): populate on node 0 (untimed), then
/// a node-1 thread marks the buffer next-touch and touches it.
pub fn measure_next_touch(scenario: PtScenario, pages: u64) -> u64 {
    let mut m = scenario.system().build();
    let buf = Buffer::alloc(&mut m, pages * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let core = m.topology().cores_of_node(NodeId(1))[0];
    let ops = vec![
        Op::MadviseNextTouch {
            range: buf.page_range(),
        },
        Op::write(buf.addr, buf.len, MemAccessKind::Stream),
    ];
    let r = m.run(vec![ThreadSpec::scripted(core, ops)], &[]);
    setup::assert_resident_on(&m, &buf, NodeId(1));
    r.makespan.ns()
}

/// The Table-1 LU factorization (kernel next-touch strategy) with the
/// page table placed per `scenario`. `n` is the matrix dimension.
pub fn measure_lu(scenario: PtScenario, n: u64) -> u64 {
    let mut m = scenario.system().build();
    run_lu(
        &mut m,
        &LuConfig::sweep(n, 256, MigrationStrategy::KernelNextTouch),
    )
    .time
    .ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sweep_stays_sequential() {
        let cases = cases(&default_page_counts());
        let total: u64 = cases.iter().map(|&(w, s)| case_work(w, s)).sum();
        assert!(
            total < MIN_PARALLEL_SWEEP_WORK,
            "default sweep ({total} units) must stay under the parallel gate"
        );
        // The one lu cell is most of that work: parallel workers cannot
        // split a single cell, so pooling the default sweep buys nothing.
        assert!(case_work("lu", 1024) * 2 > total);
    }

    #[test]
    fn walk_orders_local_repl_remote() {
        for pages in [64, 1024] {
            let row = run_case("walk", pages);
            assert!(
                row.local_ns < row.repl_ns && row.repl_ns < row.remote_ns,
                "walk ordering must be local < repl < remote at {pages} pages: \
                 {} / {} / {}",
                row.local_ns,
                row.repl_ns,
                row.remote_ns
            );
            // Replication recovers most of the remote-walk penalty.
            assert!(
                row.repl_recovery() > 0.5,
                "recovery {} at {pages} pages",
                row.repl_recovery()
            );
        }
    }

    #[test]
    fn migrate_makes_replication_the_worst_placement() {
        let row = run_case("migrate", 512);
        assert!(
            row.repl_ns > row.local_ns && row.repl_ns > row.remote_ns,
            "PTE-rewrite-heavy workloads must pay for replication: \
             {} / {} / {}",
            row.local_ns,
            row.repl_ns,
            row.remote_ns
        );
    }

    #[test]
    fn next_touch_and_lu_run_under_all_placements() {
        let nt = run_case("next_touch", 256);
        assert!(nt.local_ns > 0 && nt.repl_ns > nt.local_ns);
        let lu = run_case("lu", 512);
        assert!(lu.local_ns > 0 && lu.remote_ns > lu.local_ns);
    }

    #[test]
    fn walk_counters_reflect_placement() {
        use numa_stats::Counter;
        // Remote home: every touch is a (probabilistically) remote walk.
        let mut m = PtScenario::Remote.system().build();
        let buf = Buffer::alloc(&mut m, 8 * PAGE_SIZE);
        let specs = vec![ThreadSpec::scripted(
            m.topology().cores_of_node(NodeId(0))[0],
            vec![Op::write(buf.addr, buf.len, MemAccessKind::Random)],
        )];
        let r = m.run(specs, &[]);
        assert_eq!(r.stats.counters.get(Counter::PtWalksRemote), 8);

        // Replicated: faults write through to the replicas instead.
        let mut m = PtScenario::Replicated.system().build();
        let buf = Buffer::alloc(&mut m, 8 * PAGE_SIZE);
        let specs = vec![ThreadSpec::scripted(
            m.topology().cores_of_node(NodeId(0))[0],
            vec![Op::write(buf.addr, buf.len, MemAccessKind::Random)],
        )];
        let r = m.run(specs, &[]);
        assert_eq!(r.stats.counters.get(Counter::PtWalksRemote), 0);
        assert_eq!(m.kernel.counters.get(Counter::PtReplicaSyncs), 8);
    }

    #[test]
    fn tracing_moves_no_virtual_time() {
        // The satellite pinning test: enabling tracing must not change
        // any virtual-time number of a placement-enabled run.
        let quiet = measure_walk(PtScenario::Replicated, 64);
        let traced = {
            let mut m = PtScenario::Replicated.system().build();
            m.enable_trace(1 << 16);
            let buf = Buffer::alloc(&mut m, 64 * PAGE_SIZE);
            let cores = m.topology().cores_of_node(NodeId(0)).to_vec();
            let chunks = buf.split_pages(cores.len());
            let nthreads = chunks.len();
            let specs = chunks
                .iter()
                .enumerate()
                .map(|(i, chunk)| {
                    let mut ops = vec![
                        Op::write(chunk.addr, chunk.len, MemAccessKind::Random),
                        Op::Barrier(0),
                    ];
                    for _ in 0..WALK_SWEEPS {
                        ops.push(Op::read(chunk.addr, chunk.len, MemAccessKind::Random));
                    }
                    ThreadSpec::scripted(cores[i], ops)
                })
                .collect();
            let r = m.run(specs, &[nthreads]);
            assert!(
                m.trace
                    .snapshot()
                    .iter()
                    .any(|e| matches!(e.kind, numa_sim::TraceEventKind::PtReplicaSync { .. })),
                "replica syncs must appear in the trace"
            );
            r.makespan.ns()
        };
        assert_eq!(quiet, traced, "tracing must not move virtual time");
    }
}
