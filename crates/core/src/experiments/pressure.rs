//! Pressure sweep: graceful degradation as memory occupancy crosses
//! 100 %.
//!
//! The paper's experiments all run with frames to spare; this sweep asks
//! what the migration machinery does when there are none. Four threads
//! (one per DRAM node of a machine shrunk to [`FRAMES_PER_NODE`] frames
//! per node) populate working sets sized to a swept fraction of total
//! DRAM, then redistribute them with one of three strategies:
//!
//! * `sync` — synchronous `move_pages` of half of each set to the
//!   neighbouring node, followed by a node hot-remove/hot-add episode
//!   (offline node 3, evacuate, online);
//! * `next_touch` — mark-and-touch: each thread madvises its own set
//!   and then streams through its neighbour's, migrating pages inside
//!   the faults;
//! * `tier` — the tiered machine: the background reclaim daemon
//!   (`kreclaimd`) demotes cold pages below the low watermark toward
//!   the CXL tier, then the threads stream through their neighbours'
//!   sets.
//!
//! Every run has the full pressure ladder enabled — watermarks, direct
//! reclaim, the OOM killer (allocating-task policy) and the
//! retry-livelock watchdog — plus chaos fault injection at a fixed rate,
//! so the interesting columns are the *defences*: pages reclaimed and
//! evacuated, OOM kills, watchdog firings, migrations degraded. Below
//! 100 % occupancy the defences should be (nearly) idle; past it they
//! must keep the run finishing without a panic or livelock. Each case
//! executes twice and is audited with the chaos invariant checker.

use super::chaos;
use numa_kernel::{KernelConfig, PressureSettings, WatchdogConfig};
use numa_machine::{Machine, MemAccessKind, Op, ThreadSpec};
use numa_rt::Buffer;
use numa_sim::FaultPlan;
use numa_stats::Counter;
use numa_tier::reclaim_wake;
use numa_topology::{presets, CoreId, CostModel, NodeId};
use numa_vm::{VirtAddr, PAGE_SIZE};
use std::sync::Arc;

/// DRAM frames per node — small enough that a few hundred pages of
/// working set create genuine scarcity.
pub const FRAMES_PER_NODE: u64 = 64;

/// Slow-tier frames per expander node on the tiered machine: large, so
/// demotion always has somewhere to go (the CXL-capacity story).
pub const SLOW_FRAMES_PER_NODE: u64 = 512;

/// The three redistribution strategies the sweep compares.
pub const STRATEGIES: [&str; 3] = ["sync", "next_touch", "tier"];

/// Low/min watermarks installed on every node (kswapd wake / direct
/// reclaim thresholds, in frames).
pub const LOW_WATERMARK: u64 = 8;
/// See [`LOW_WATERMARK`].
pub const MIN_WATERMARK: u64 = 4;

/// Chaos injection rate for every case, parts per million per decision
/// point. High enough that retry storms are real (and the watchdog has
/// something to catch at overcommit), low enough that retries rescue
/// almost everything below 100 % occupancy.
pub const INJECT_PPM: u32 = 150_000;

/// The occupancy axis, percent of total DRAM frames.
pub fn default_occupancies(full: bool) -> Vec<u32> {
    if full {
        vec![60, 70, 75, 80, 85, 90, 95, 100, 105]
    } else {
        vec![60, 75, 90, 100, 105]
    }
}

/// One audited pressure case. All fields are integers so two runs of
/// the same case can be compared for byte-level equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureRow {
    /// Which redistribution strategy (see [`STRATEGIES`]).
    pub strategy: &'static str,
    /// Working set as a percentage of total DRAM frames.
    pub occupancy_pct: u32,
    /// Virtual completion time, summed over the case's runs.
    pub makespan_ns: u64,
    /// Pages migrated by any mechanism (syscall, fault, tier).
    pub moved: u64,
    /// Pages moved off a strapped node by direct or background reclaim.
    pub reclaimed: u64,
    /// Pages moved off an offlining node by the hot-remove path.
    pub evacuated: u64,
    /// Threads reaped by the OOM killer (allocating-task policy).
    pub oom_kills: u64,
    /// Retry-livelock watchdog firings.
    pub watchdog_firings: u64,
    /// Migrations degraded (page deliberately left in place).
    pub degraded: u64,
    /// Per-page retries after transient failures.
    pub retried: u64,
    /// Post-run audit failures; [`execute`] asserts zero.
    pub violations: u64,
}

fn machine_for(strategy: &str) -> Machine {
    // A tighter watchdog than the library default: the runs here are
    // short (hundreds of pages), so a livelock shows itself within tens
    // of microseconds of virtual time, not hundreds.
    let pressure = PressureSettings {
        watchdog: Some(WatchdogConfig {
            window_ns: 50_000,
            min_retries: 6,
        }),
        ..PressureSettings::enabled()
    };
    let (topo, config) = if strategy == "tier" {
        (
            presets::tiered_4p2_with(
                CostModel::default(),
                FRAMES_PER_NODE * PAGE_SIZE,
                SLOW_FRAMES_PER_NODE * PAGE_SIZE,
            ),
            KernelConfig {
                pressure,
                ..KernelConfig::tiered()
            },
        )
    } else {
        (
            presets::opteron_4p_with_memory(FRAMES_PER_NODE * PAGE_SIZE),
            KernelConfig {
                pressure,
                ..KernelConfig::default()
            },
        )
    };
    let mut m = Machine::new(Arc::new(topo), config);
    let nodes: Vec<NodeId> = m.topology().node_ids().collect();
    for n in nodes {
        m.frames.set_watermarks(n, LOW_WATERMARK, MIN_WATERMARK);
    }
    m
}

/// Run one case: populate, redistribute, audit. Panics on any invariant
/// violation — a nonzero `violations` column in a published table means
/// the assertion was bypassed, so it should never appear.
pub fn execute(strategy: &'static str, occupancy_pct: u32, seed: u64) -> PressureRow {
    let mut m = machine_for(strategy);
    m.kernel.set_fault_plan(FaultPlan::chaos(seed, INJECT_PPM));
    let pages_per_thread = FRAMES_PER_NODE * u64::from(occupancy_pct) / 100;
    let cores = [CoreId(0), CoreId(4), CoreId(8), CoreId(12)];
    let bufs: Vec<Buffer> = cores
        .iter()
        .map(|_| Buffer::alloc(&mut m, pages_per_thread * PAGE_SIZE))
        .collect();

    // Phase 1: each thread first-touches its own working set on its own
    // node. Past 100 % this is where allocations start failing: reclaim
    // first, the OOM killer when reclaim finds nothing. No barriers —
    // a reaped thread must not wedge the survivors.
    let populate: Vec<ThreadSpec> = cores
        .iter()
        .zip(&bufs)
        .map(|(c, b)| {
            ThreadSpec::scripted(*c, vec![Op::write(b.addr, b.len, MemAccessKind::Stream)])
        })
        .collect();
    let mut makespan_ns = m.run(populate, &[]).makespan.ns();

    // Phase 2: redistribute under pressure.
    match strategy {
        "sync" => {
            let threads: Vec<ThreadSpec> = cores
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let pages: Vec<VirtAddr> = bufs[i]
                        .page_addrs()
                        .into_iter()
                        .take((pages_per_thread / 2) as usize)
                        .collect();
                    let dest = NodeId((i as u16 + 1) % 4);
                    let mut ops = vec![Op::MovePages {
                        dest: vec![dest; pages.len()],
                        pages,
                    }];
                    if i == 0 {
                        // The hot-remove episode: offline node 3 (its
                        // pages evacuate or degrade in place), then
                        // bring it back.
                        ops.push(Op::NodeOffline { node: NodeId(3) });
                        ops.push(Op::NodeOnline { node: NodeId(3) });
                    }
                    ThreadSpec::scripted(*c, ops)
                })
                .collect();
            makespan_ns += m.run(threads, &[]).makespan.ns();
        }
        "next_touch" => {
            let threads: Vec<ThreadSpec> = cores
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let next = &bufs[(i + 1) % 4];
                    ThreadSpec::scripted(
                        *c,
                        vec![
                            Op::MadviseNextTouch {
                                range: bufs[i].page_range(),
                            },
                            Op::read(next.addr, next.len, MemAccessKind::Stream),
                        ],
                    )
                })
                .collect();
            makespan_ns += m.run(threads, &[]).makespan.ns();
        }
        "tier" => {
            // One kreclaimd wake-up: demote cold pages off every DRAM
            // node sitting below its low watermark, then stream.
            let ops = reclaim_wake(&m);
            if !ops.is_empty() {
                makespan_ns += m
                    .run(vec![ThreadSpec::scripted(CoreId(0), ops)], &[])
                    .makespan
                    .ns();
            }
            let threads: Vec<ThreadSpec> = cores
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let next = &bufs[(i + 1) % 4];
                    ThreadSpec::scripted(
                        *c,
                        vec![Op::read(next.addr, next.len, MemAccessKind::Stream)],
                    )
                })
                .collect();
            makespan_ns += m.run(threads, &[]).makespan.ns();
        }
        other => panic!("unknown pressure strategy {other:?} (see pressure::STRATEGIES)"),
    }

    let problems = chaos::check_invariants(&m);
    assert!(
        problems.is_empty(),
        "invariants violated after {strategy}@{occupancy_pct}% seed {seed}: {problems:#?}"
    );
    let c = &m.kernel.counters;
    PressureRow {
        strategy,
        occupancy_pct,
        makespan_ns,
        moved: c.get(Counter::PagesMovedSyscall)
            + c.get(Counter::PagesMovedFault)
            + c.get(Counter::TierDemotions)
            + c.get(Counter::TierPromotions),
        reclaimed: c.get(Counter::PagesReclaimed) + c.get(Counter::TierDemotions),
        evacuated: c.get(Counter::PagesEvacuated),
        oom_kills: c.get(Counter::OomKills),
        watchdog_firings: c.get(Counter::WatchdogFirings),
        degraded: c.get(Counter::MigrationsDegraded),
        retried: c.get(Counter::MigrationRetries),
        violations: problems.len() as u64,
    }
}

/// Run one audited case twice and assert byte-identical results — the
/// same discipline as the chaos sweep.
pub fn run_case(strategy: &'static str, occupancy_pct: u32, seed: u64) -> PressureRow {
    let first = execute(strategy, occupancy_pct, seed);
    let second = execute(strategy, occupancy_pct, seed);
    assert_eq!(
        first, second,
        "pressure case {strategy}@{occupancy_pct}% seed {seed} is not deterministic"
    );
    first
}

/// The full sweep: every (strategy, occupancy) pair, in axis order,
/// distributed over `jobs` host threads; rows are the same for any `jobs`.
pub fn sweep(occupancies: &[u32], seed: u64, jobs: usize) -> Vec<PressureRow> {
    let cases: Vec<(&'static str, u32)> = STRATEGIES
        .iter()
        .flat_map(|s| occupancies.iter().map(move |o| (*s, *o)))
        .collect();
    threadpool::par_map(jobs, &cases, |_, &(strategy, occ)| {
        run_case(strategy, occ, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overcommit_degrades_gracefully_not_fatally() {
        let rows = sweep(&default_occupancies(false), 0, 1);
        for r in &rows {
            assert_eq!(r.violations, 0, "{r:?}");
            if r.occupancy_pct <= 90 {
                assert_eq!(r.oom_kills, 0, "no OOM below capacity: {r:?}");
                // ("tier" is legitimately idle below its watermarks —
                // nothing to demote, reads don't promote.)
                if r.strategy != "tier" {
                    assert!(r.moved > 0, "migration must work below capacity: {r:?}");
                }
            }
        }
        // Past 100 % the single-tier strategies cannot fit the working
        // set anywhere: the OOM killer must reap (not panic), and the
        // watchdog must have caught at least one retry storm.
        let over: Vec<&PressureRow> = rows.iter().filter(|r| r.occupancy_pct == 105).collect();
        let single_tier_kills: u64 = over
            .iter()
            .filter(|r| r.strategy != "tier")
            .map(|r| r.oom_kills)
            .sum();
        assert!(single_tier_kills > 0, "overcommit must OOM-kill: {over:#?}");
        let watchdog: u64 = rows.iter().map(|r| r.watchdog_firings).sum();
        assert!(watchdog > 0, "the watchdog must fire somewhere: {rows:#?}");
        // The tiered machine absorbs the same overcommit by demotion.
        for r in over.iter().filter(|r| r.strategy == "tier") {
            assert_eq!(r.oom_kills, 0, "the slow tier must absorb 105%: {r:?}");
            assert!(r.reclaimed > 0, "absorption happens via demotion: {r:?}");
        }
    }

    #[test]
    fn pressure_defences_idle_when_memory_is_plentiful() {
        let rows: Vec<PressureRow> = STRATEGIES.iter().map(|s| run_case(s, 60, 3)).collect();
        for r in &rows {
            assert_eq!(r.oom_kills, 0, "{r:?}");
            assert_eq!(r.reclaimed, 0, "no reclaim at 60%: {r:?}");
        }
        let retried: u64 = rows.iter().map(|r| r.retried).sum();
        assert!(retried > 0, "injection still exercises retries: {rows:#?}");
    }

    #[test]
    fn sweep_rows_are_identical_across_jobs() {
        let occ = [75, 105];
        let seq = sweep(&occ, 5, 1);
        let par = sweep(&occ, 5, 4);
        assert_eq!(seq, par);
    }
}
