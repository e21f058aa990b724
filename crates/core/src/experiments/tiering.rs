//! Tiering: transactional vs stop-the-world promotion, and the
//! DRAM-capacity crossover.
//!
//! Two experiments on the tiered 4 DRAM + 2 CXL machine, reproducing the
//! shapes Nomad (OSDI'23) reports for its transactional (non-exclusive
//! copy) page migration against the kernel's stop-the-world path:
//!
//! * [`mechanism`] — writers hammer a hot buffer while a migration thread
//!   promotes it out of the slow tier. The stop-the-world path stalls
//!   every touch that lands in a migration window; the transactional path
//!   never stalls a writer but pays for dirtied copies with aborts and
//!   retries. Expected shape: writer time strictly better under the
//!   transactional mechanism, with a nonzero abort count as the price.
//!
//! * [`capacity_sweep`] — the app-time sweep. A hot working set lives in
//!   the slow tier; a kpromoted-style daemon promotes what fits. While
//!   the hot set fits in DRAM, tiering approaches all-DRAM performance
//!   and beats static placement clearly; once the hot set exceeds DRAM
//!   capacity the surplus keeps being served from the slow tier and the
//!   advantage collapses toward 1× — the crossover every tiering paper
//!   plots against working-set size.

use numa_machine::{Machine, MemAccessKind, Op, ThreadSpec};
use numa_stats::Counter;
use numa_tier::tier_wake;
use numa_topology::{CoreId, NodeId};
use numa_vm::{MemPolicy, VirtAddr, PAGE_SIZE};

/// First slow-tier node of the preset (node 4; node 5 is the second).
const SLOW_NODE: NodeId = NodeId(4);

/// A machine with `pages` hot pages resident in the slow tier,
/// populated and with contention/caches reset for the timed phase.
fn slow_resident_buffer(mut machine: Machine, pages: u64) -> (Machine, VirtAddr) {
    let addr = machine.alloc(pages * PAGE_SIZE, MemPolicy::Bind(SLOW_NODE));
    machine.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::write(addr, pages * PAGE_SIZE, MemAccessKind::Stream)],
        )],
        &[],
    );
    debug_assert_eq!(machine.page_node(addr), Some(SLOW_NODE));
    machine.reset_contention();
    machine.flush_caches();
    machine.heat.clear();
    (machine, addr)
}

/// One row of the mechanism comparison.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Concurrent writer threads.
    pub writers: usize,
    /// Writer completion time (max over writers), transactional, in ns.
    pub txn_writer_ns: u64,
    /// Writer completion time, stop-the-world, in ns.
    pub stw_writer_ns: u64,
    /// Committed transactional promotions.
    pub txn_commits: u64,
    /// Aborted (dirtied) transactional copies.
    pub txn_aborts: u64,
    /// Touches that stalled on a stop-the-world window.
    pub stw_stalls: u64,
    /// Pages promoted by the transactional run.
    pub txn_promoted: u64,
    /// Pages promoted by the stop-the-world run.
    pub stw_promoted: u64,
}

/// Run the mechanism comparison: for each writer count, promote `pages`
/// slow-tier pages while the writers hammer the first `hot` of them.
/// `seed` shuffles each writer's page traversal order — different seeds
/// give different interleavings (and abort counts); equal seeds give
/// byte-identical results. The writer counts are distributed over `jobs`
/// host threads; items are independent (fresh machine each), so the rows
/// are the same, in the same order, for any `jobs`.
pub fn mechanism(
    writer_counts: &[usize],
    pages: u64,
    hot: u64,
    seed: u64,
    jobs: usize,
) -> Vec<MechanismRow> {
    threadpool::par_map(jobs, writer_counts, |_, &writers| {
        let (txn_writer_ns, txn) = measure_mechanism(writers, pages, hot, seed, true);
        let (stw_writer_ns, stw) = measure_mechanism(writers, pages, hot, seed, false);
        MechanismRow {
            writers,
            txn_writer_ns,
            stw_writer_ns,
            txn_commits: txn.get(Counter::TierTxnCommits),
            txn_aborts: txn.get(Counter::TierTxnAborts),
            stw_stalls: stw.get(Counter::TierStwStalls),
            txn_promoted: txn.get(Counter::TierPromotions),
            stw_promoted: stw.get(Counter::TierPromotions),
        }
    })
}

/// One timed migration-under-writers run. Returns the writers' completion
/// time and the kernel+machine counters.
fn measure_mechanism(
    writers: usize,
    pages: u64,
    hot: u64,
    seed: u64,
    transactional: bool,
) -> (u64, numa_stats::Counters) {
    let (mut machine, addr) = slow_resident_buffer(Machine::tiered_4p2(), pages);
    let hot = hot.min(pages);
    // Writers on distinct DRAM nodes, cycling 64-byte stores over the hot
    // prefix — Random so every store is exposed to the page's tier. Each
    // writer walks the hot set in its own seeded order.
    let passes = 40u64;
    let mut specs: Vec<ThreadSpec> = (0..writers)
        .map(|w| {
            let core = machine.topology().cores_of_node(NodeId((w % 4) as u16))[w / 4];
            let mut order: Vec<u64> = (0..hot).collect();
            numa_sim::Splitmix64::new(seed ^ (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .shuffle(&mut order);
            let ops = (0..passes)
                .flat_map(|_| {
                    order
                        .iter()
                        .map(|&p| Op::write(addr + p * PAGE_SIZE, 64, MemAccessKind::Random))
                        .collect::<Vec<_>>()
                })
                .collect();
            ThreadSpec::scripted(core, ops)
        })
        .collect();
    // The migration thread promotes the whole buffer, one op per page so
    // the per-page begin/commit (or stall window) interleaves honestly
    // with writer traffic.
    let vpns: Vec<u64> = (0..pages).map(|p| (addr + p * PAGE_SIZE).vpn()).collect();
    specs.push(ThreadSpec::scripted(
        CoreId(15),
        vec![Op::TierMigrate {
            pages: vpns,
            dest: NodeId(0),
            transactional,
        }],
    ));
    let r = machine.run(specs, &[]);
    let writer_ns = r.thread_end[..writers]
        .iter()
        .map(|t| t.ns())
        .max()
        .unwrap_or(0);
    let mut counters = machine.kernel.counters.clone();
    counters.merge(&r.stats.counters);
    (writer_ns, counters)
}

/// One row of the capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityRow {
    /// Hot working-set size in pages.
    pub hot_pages: u64,
    /// Total DRAM capacity in pages (all fast nodes).
    pub dram_pages: u64,
    /// Application time with the tiering daemon, in ns.
    pub tiered_ns: u64,
    /// Application time with static placement (no daemon), in ns.
    pub static_ns: u64,
    /// Pages promoted over the run.
    pub promotions: u64,
}

impl CapacityRow {
    /// Static time over tiered time: > 1 means tiering won.
    pub fn speedup(&self) -> f64 {
        self.static_ns as f64 / self.tiered_ns as f64
    }
}

/// Run the capacity sweep: `rounds` rounds of 4 reader threads scanning a
/// hot set that starts in the slow tier, with (tiered) or without
/// (static) a promotion daemon running between rounds. DRAM is shrunk to
/// `dram_pages_per_node` pages per fast node so the crossover happens at
/// simulation-sized working sets. The hot-set sizes are distributed over
/// `jobs` host threads; items are independent (fresh machine each), so
/// the rows are the same, in the same order, for any `jobs`.
pub fn capacity_sweep(
    hot_page_counts: &[u64],
    dram_pages_per_node: u64,
    rounds: usize,
    jobs: usize,
) -> Vec<CapacityRow> {
    threadpool::par_map(jobs, hot_page_counts, |_, &hot_pages| {
        let (tiered_ns, promotions) =
            measure_capacity(hot_pages, dram_pages_per_node, rounds, true);
        let (static_ns, _) = measure_capacity(hot_pages, dram_pages_per_node, rounds, false);
        CapacityRow {
            hot_pages,
            dram_pages: 4 * dram_pages_per_node,
            tiered_ns,
            static_ns,
            promotions,
        }
    })
}

/// Build the capacity-sweep machine: DRAM shrunk, slow tier ample.
fn capacity_machine(dram_pages_per_node: u64) -> Machine {
    let topo = numa_topology::presets::tiered_4p2_with(
        numa_topology::CostModel::default(),
        dram_pages_per_node * PAGE_SIZE,
        1 << 30,
    );
    Machine::new(
        std::sync::Arc::new(topo),
        numa_kernel::KernelConfig::tiered(),
    )
}

/// One configuration of the capacity sweep. Returns total reader time
/// plus (for the tiered run) daemon migration time, and the promotion
/// count.
fn measure_capacity(
    hot_pages: u64,
    dram_pages_per_node: u64,
    rounds: usize,
    with_daemon: bool,
) -> (u64, u64) {
    let (mut machine, addr) =
        slow_resident_buffer(capacity_machine(dram_pages_per_node), hot_pages);
    let mut total_ns = 0u64;
    for _ in 0..rounds {
        machine.flush_caches();
        machine.reset_contention();
        // Timed: one reader per DRAM node scans the hot set.
        let readers = (0..4u16)
            .map(|n| {
                ThreadSpec::scripted(
                    machine.topology().cores_of_node(NodeId(n))[0],
                    vec![Op::read(addr, hot_pages * PAGE_SIZE, MemAccessKind::Random)],
                )
            })
            .collect();
        total_ns += machine.run(readers, &[]).makespan.ns();
        if with_daemon {
            // The daemon wake-up: classify on live heat, then migrate.
            // Its time is charged to the tiered total — promotion is not
            // free.
            let ops = tier_wake(&machine);
            if !ops.is_empty() {
                let spec = ThreadSpec::scripted(CoreId(0), ops);
                total_ns += machine.run(vec![spec], &[]).makespan.ns();
            }
            machine.decay_heat();
        }
    }
    (
        total_ns,
        machine.kernel.counters.get(Counter::TierPromotions),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactional_beats_stop_the_world_for_writers() {
        let rows = mechanism(&[4], 256, 64, 0, 1);
        let r = &rows[0];
        assert!(
            r.txn_writer_ns < r.stw_writer_ns,
            "writers must finish earlier under the transactional mechanism: \
             txn {} vs stw {}",
            r.txn_writer_ns,
            r.stw_writer_ns
        );
        assert!(r.txn_aborts > 0, "hammered pages must dirty some copies");
        assert!(r.stw_stalls > 0, "stop-the-world must stall some touches");
        assert!(
            r.txn_commits > r.txn_aborts,
            "most pages are cold and must commit: {} commits vs {} aborts",
            r.txn_commits,
            r.txn_aborts
        );
        // Both mechanisms promote the bulk of the buffer.
        assert!(r.txn_promoted > 200, "txn promoted {}", r.txn_promoted);
        assert_eq!(r.stw_promoted, 256);
    }

    #[test]
    fn capacity_crossover_where_hot_set_exceeds_dram() {
        // DRAM: 4 x 512 = 2048 pages. Hot sets: half of DRAM vs 4x DRAM.
        let rows = capacity_sweep(&[1024, 8192], 512, 4, 1);
        let fits = &rows[0];
        let over = &rows[1];
        assert!(
            fits.speedup() > 1.2,
            "hot set fitting in DRAM must make tiering win: {:.2}x",
            fits.speedup()
        );
        assert!(
            over.speedup() < fits.speedup() * 0.8,
            "advantage must collapse past DRAM capacity: fits {:.2}x, over {:.2}x",
            fits.speedup(),
            over.speedup()
        );
        // Everything that fits was promoted; the oversized set could not be.
        assert_eq!(fits.promotions, 1024);
        assert!(over.promotions <= over.dram_pages);
    }
}
