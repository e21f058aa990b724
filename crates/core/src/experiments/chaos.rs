//! Chaos sweep: deterministic fault injection across every migration
//! path.
//!
//! Each case runs one migration workload with a
//! [`FaultPlan::chaos`] plan installed — transient copy failures
//! (`EBUSY`, retried), destination frame exhaustion (`ENOMEM`,
//! degraded), and racing unmaps (`ENOENT`, copy wasted) — at a swept
//! injection rate, then audits the machine:
//!
//! * every mapped page resolves to exactly one live frame (plus its
//!   shadow while a tier transaction is in flight — zero after a run);
//! * frame accounting balances: live frames == frames reachable from the
//!   page table;
//! * the run is byte-deterministic: the same `(seed, plan)` reproduces
//!   the same virtual time and the same counters, so every case is
//!   executed twice and compared.
//!
//! The sweep answers the robustness question the paper's artifact never
//! had to: when migration *fails*, do the retry and degradation policies
//! keep the workload running with pages merely left behind, or does
//! state corrupt?

use numa_machine::{Machine, MemAccessKind, Op, RunResult, ThreadSpec};
use numa_rt::{setup, Buffer, UserNextTouch};
use numa_sim::FaultPlan;
use numa_stats::Counter;
use numa_topology::{CoreId, NodeId};
use numa_vm::{VirtAddr, PAGE_SIZE};

/// Pages per chaos workload buffer — enough for hundreds of injection
/// opportunities per run at the default rates, small enough that the
/// whole sweep stays in the seconds range.
pub const PAGES: u64 = 256;

/// The five migration paths the sweep covers. Each exercises a distinct
/// injection site (`move_pages`, `migrate_pages`, the kernel next-touch
/// fault path, the user-space next-touch handler, tier promotion).
pub const WORKLOADS: [&str; 5] = [
    "move_pages",
    "migrate_pages",
    "kernel_nt",
    "user_nt",
    "tiering",
];

/// The two memory-pressure paths, swept separately (`--full` and the
/// chaos CI job) so the default sweep — and its golden output — is
/// unchanged. `evacuation` offlines a populated node under injection at
/// [`numa_sim::FaultSite::Evacuation`]; `reclaim` overcommits a shrunken
/// DRAM node so every allocation past capacity direct-reclaims toward
/// the slow tier under injection at [`numa_sim::FaultSite::Reclaim`].
pub const PRESSURE_WORKLOADS: [&str; 2] = ["evacuation", "reclaim"];

/// The injection-rate axis, parts per million per decision point.
pub fn default_rates(full: bool) -> Vec<u32> {
    if full {
        vec![0, 1_000, 10_000, 50_000, 100_000, 250_000]
    } else {
        vec![0, 10_000, 100_000]
    }
}

/// One audited chaos case. All fields are integers so two runs of the
/// same case can be compared for byte-level equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRow {
    /// Which migration path (see [`WORKLOADS`]).
    pub workload: &'static str,
    /// Injection rate at every site, parts per million.
    pub rate_ppm: u32,
    /// Virtual completion time of the run.
    pub makespan_ns: u64,
    /// Faults the plan injected.
    pub injected: u64,
    /// Per-page retries after transient failures.
    pub retried: u64,
    /// Migrations degraded (page deliberately left in place).
    pub degraded: u64,
    /// Pages abandoned after the retry budget ran out.
    pub gave_up: u64,
    /// Pages that reached the intended destination anyway.
    pub moved: u64,
    /// Pages left behind on their old node — degradation, not loss.
    pub left_behind: u64,
    /// Post-run audit failures. [`run_case`] asserts this is zero; it is
    /// recorded so the table shows the audit ran.
    pub invariant_violations: u64,
}

/// Audit the machine after a chaos run. Returns one message per
/// violation; an empty vector means the invariants held.
pub fn check_invariants(machine: &Machine) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = machine.space.check_invariants() {
        problems.push(e);
    }
    let pending = machine.kernel.pending_tier_txn_count();
    if pending != 0 {
        problems.push(format!("{pending} tier transactions still in flight"));
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut mapped = 0u64;
    for (vpn, pte) in machine.space.page_table.iter() {
        for frame in std::iter::once(pte.frame).chain(pte.shadow) {
            mapped += 1;
            if machine.frames.get(frame).is_none() {
                problems.push(format!("vpn {vpn} maps freed frame {frame:?}"));
            }
            if !seen.insert(frame) {
                problems.push(format!("frame {frame:?} mapped by two pages"));
            }
        }
    }
    let live = machine.frames.live_total();
    if mapped != live {
        problems.push(format!(
            "{mapped} frames reachable from the page table but {live} live — leak or double-free"
        ));
    }
    problems
}

/// Run one audited case: execute the workload twice with the same
/// `(seed, plan)`, assert the invariants hold and that both executions
/// produced identical results, and return the (single) row.
pub fn run_case(workload: &'static str, rate_ppm: u32, seed: u64) -> ChaosRow {
    let first = execute(workload, rate_ppm, seed);
    let second = execute(workload, rate_ppm, seed);
    assert_eq!(
        first, second,
        "chaos case {workload}@{rate_ppm}ppm seed {seed} is not deterministic"
    );
    first
}

/// The full sweep: every (workload, rate) pair, in axis order, the cases
/// distributed over `jobs` host threads. Cases are independent (fresh
/// machine each), so the rows are the same for any `jobs`.
pub fn sweep(workloads: &[&'static str], rates: &[u32], seed: u64, jobs: usize) -> Vec<ChaosRow> {
    let cases: Vec<(&'static str, u32)> = workloads
        .iter()
        .flat_map(|w| rates.iter().map(move |r| (*w, *r)))
        .collect();
    threadpool::par_map(jobs, &cases, |_, &(workload, rate_ppm)| {
        run_case(workload, rate_ppm, seed)
    })
}

fn execute(workload: &'static str, rate_ppm: u32, seed: u64) -> ChaosRow {
    let (machine, r, pages, dest) = match workload {
        "move_pages" => run_move_pages(seed, rate_ppm),
        "migrate_pages" => run_migrate_pages(seed, rate_ppm),
        "kernel_nt" => run_kernel_nt(seed, rate_ppm),
        "user_nt" => run_user_nt(seed, rate_ppm),
        "tiering" => run_tiering(seed, rate_ppm),
        "evacuation" => run_evacuation(seed, rate_ppm),
        "reclaim" => run_reclaim(seed, rate_ppm),
        other => panic!("unknown chaos workload {other:?} (see chaos::WORKLOADS)"),
    };
    let problems = check_invariants(&machine);
    assert!(
        problems.is_empty(),
        "invariants violated after {workload}@{rate_ppm}ppm seed {seed}: {problems:#?}"
    );
    let moved = pages
        .iter()
        .filter(|a| machine.page_node(**a) == Some(dest))
        .count() as u64;
    let c = &machine.kernel.counters;
    ChaosRow {
        workload,
        rate_ppm,
        makespan_ns: r.makespan.ns(),
        injected: c.get(Counter::FaultsInjected),
        retried: c.get(Counter::MigrationRetries),
        degraded: c.get(Counter::MigrationsDegraded),
        gave_up: c.get(Counter::MigrationsGaveUp),
        moved,
        left_behind: pages.len() as u64 - moved,
        invariant_violations: problems.len() as u64,
    }
}

type CaseOutput = (Machine, RunResult, Vec<VirtAddr>, NodeId);

/// Synchronous `move_pages` of the whole buffer, node 0 → node 1, issued
/// from a node-1 core (the Fig. 4 discipline).
fn run_move_pages(seed: u64, rate_ppm: u32) -> CaseOutput {
    let mut machine = Machine::opteron_4p();
    let buf = Buffer::alloc(&mut machine, PAGES * PAGE_SIZE);
    setup::populate_on_node(&mut machine, &buf, NodeId(0));
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let pages = buf.page_addrs();
    let dest = vec![NodeId(1); pages.len()];
    let r = machine.run(
        vec![ThreadSpec::scripted(
            CoreId(4),
            vec![Op::MovePages {
                pages: pages.clone(),
                dest,
            }],
        )],
        &[],
    );
    (machine, r, pages, NodeId(1))
}

/// Whole-process `migrate_pages`, node 0 → node 1.
fn run_migrate_pages(seed: u64, rate_ppm: u32) -> CaseOutput {
    let mut machine = Machine::opteron_4p();
    let buf = Buffer::alloc(&mut machine, PAGES * PAGE_SIZE);
    setup::populate_on_node(&mut machine, &buf, NodeId(0));
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let r = machine.run(
        vec![ThreadSpec::scripted(
            CoreId(4),
            vec![Op::MigratePages {
                from: vec![NodeId(0)],
                to: vec![NodeId(1)],
            }],
        )],
        &[],
    );
    (machine, r, buf.page_addrs(), NodeId(1))
}

/// Kernel next-touch: mark, then stream-read the buffer from a node-3
/// core so every page migrates inside its own fault.
fn run_kernel_nt(seed: u64, rate_ppm: u32) -> CaseOutput {
    let mut machine = Machine::opteron_4p();
    let buf = Buffer::alloc(&mut machine, PAGES * PAGE_SIZE);
    setup::populate_on_node(&mut machine, &buf, NodeId(0));
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let toucher = CoreId(12);
    let dest = machine.node_of_core(toucher);
    let r = machine.run(
        vec![ThreadSpec::scripted(
            toucher,
            vec![
                Op::MadviseNextTouch {
                    range: buf.page_range(),
                },
                Op::read(buf.addr, buf.len, MemAccessKind::Stream),
            ],
        )],
        &[],
    );
    (machine, r, buf.page_addrs(), dest)
}

/// User-space next-touch: mark with the SIGSEGV library, then touch from
/// a node-3 core; the handler re-issues busy pages a few times before
/// leaving them on their source node.
fn run_user_nt(seed: u64, rate_ppm: u32) -> CaseOutput {
    let mut machine = Machine::opteron_4p();
    let buf = Buffer::alloc(&mut machine, PAGES * PAGE_SIZE);
    setup::populate_on_node(&mut machine, &buf, NodeId(0));
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let nt = UserNextTouch::new();
    machine.set_segv_handler(nt.handler());
    let toucher = CoreId(12);
    let dest = machine.node_of_core(toucher);
    let mut ops = nt.mark_ops(&buf);
    ops.push(Op::read(buf.addr, buf.len, MemAccessKind::Stream));
    let r = machine.run(vec![ThreadSpec::scripted(toucher, ops)], &[]);
    (machine, r, buf.page_addrs(), dest)
}

/// Transactional tier promotion of a slow-resident buffer into DRAM on
/// the tiered 4+2 machine.
fn run_tiering(seed: u64, rate_ppm: u32) -> CaseOutput {
    let mut machine = Machine::tiered_4p2();
    let buf = Buffer::alloc_on(&mut machine, PAGES * PAGE_SIZE, NodeId(4));
    // The slow node has no cores; the bind policy places the pages there
    // regardless of which core faults them in.
    setup::populate_from_core(&mut machine, &buf, CoreId(0));
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let vpns: Vec<u64> = buf.page_range().iter().collect();
    let r = machine.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::TierMigrate {
                pages: vpns,
                dest: NodeId(0),
                transactional: true,
            }],
        )],
        &[],
    );
    (machine, r, buf.page_addrs(), NodeId(0))
}

/// Node hot-remove under fire: populate node 0, then offline it from a
/// node-1 core. Every resident page must either evacuate (nearest
/// online node — node 1) or degrade in place with Linux partial-failure
/// semantics; the audit catches anything worse. The node is brought
/// back online afterwards so the sweep also exercises hot-add.
fn run_evacuation(seed: u64, rate_ppm: u32) -> CaseOutput {
    let mut machine = Machine::new(
        std::sync::Arc::new(numa_topology::presets::opteron_4p()),
        numa_kernel::KernelConfig {
            pressure: numa_kernel::PressureSettings::enabled(),
            ..numa_kernel::KernelConfig::default()
        },
    );
    let buf = Buffer::alloc(&mut machine, PAGES * PAGE_SIZE);
    setup::populate_on_node(&mut machine, &buf, NodeId(0));
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let r = machine.run(
        vec![ThreadSpec::scripted(
            CoreId(4),
            vec![
                Op::NodeOffline { node: NodeId(0) },
                Op::NodeOnline { node: NodeId(0) },
            ],
        )],
        &[],
    );
    (machine, r, buf.page_addrs(), NodeId(1))
}

/// Direct reclaim under fire: a tiered machine whose DRAM banks hold
/// only 192 frames gets a 256-page buffer bound to node 0, so every
/// fault past capacity runs the allocation slow path — direct reclaim
/// demoting cold pages to the slow node behind node 0 — with injections
/// at the per-victim isolate. "Moved" counts the pages that ended up
/// demoted; the rest stay resident in DRAM.
fn run_reclaim(seed: u64, rate_ppm: u32) -> CaseOutput {
    let topo = numa_topology::presets::tiered_4p2_with(
        numa_topology::CostModel::default(),
        192 * PAGE_SIZE,
        512 * PAGE_SIZE,
    );
    let mut machine = Machine::new(
        std::sync::Arc::new(topo),
        numa_kernel::KernelConfig {
            pressure: numa_kernel::PressureSettings::enabled(),
            ..numa_kernel::KernelConfig::tiered()
        },
    );
    let nodes: Vec<NodeId> = machine.topology().node_ids().collect();
    for n in nodes {
        machine.frames.set_watermarks(n, 16, 8);
    }
    machine
        .kernel
        .set_fault_plan(FaultPlan::chaos(seed, rate_ppm));
    let buf = Buffer::alloc_on(&mut machine, PAGES * PAGE_SIZE, NodeId(0));
    let r = machine.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::write(buf.addr, buf.len, MemAccessKind::Stream)],
        )],
        &[],
    );
    (machine, r, buf.page_addrs(), NodeId(4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_injects_nothing_and_moves_everything() {
        for w in WORKLOADS {
            let row = run_case(w, 0, 7);
            assert_eq!(row.injected, 0, "{w}");
            assert_eq!(row.degraded, 0, "{w}");
            assert_eq!(row.gave_up, 0, "{w}");
            assert_eq!(row.left_behind, 0, "{w}: all pages must arrive");
            assert_eq!(row.moved, PAGES, "{w}");
        }
    }

    #[test]
    fn chaos_injects_retries_and_degrades_without_corruption() {
        let rows: Vec<ChaosRow> = WORKLOADS.iter().map(|w| run_case(w, 100_000, 1)).collect();
        let injected: u64 = rows.iter().map(|r| r.injected).sum();
        let retried: u64 = rows.iter().map(|r| r.retried).sum();
        let degraded: u64 = rows.iter().map(|r| r.degraded).sum();
        assert!(injected > 0, "10% per site must inject: {rows:#?}");
        assert!(retried > 0, "transient faults must be retried: {rows:#?}");
        assert!(degraded > 0, "some faults must degrade: {rows:#?}");
        for r in &rows {
            assert_eq!(r.invariant_violations, 0);
            assert_eq!(
                r.moved + r.left_behind,
                PAGES,
                "{}: every page accounted for",
                r.workload
            );
            assert!(
                r.moved > 0,
                "{}: a 10% fault rate must not stop the workload cold",
                r.workload
            );
        }
    }

    #[test]
    fn retries_rescue_most_transient_failures() {
        // At a moderate rate, bounded retries should land the vast
        // majority of pages despite injected transients.
        let row = run_case("move_pages", 50_000, 3);
        assert!(row.retried > 0);
        assert!(
            row.moved >= PAGES * 9 / 10,
            "retries should rescue most pages: {row:?}"
        );
    }

    #[test]
    fn pressure_workloads_survive_chaos() {
        for w in PRESSURE_WORKLOADS {
            for rate in [0u32, 100_000] {
                let row = run_case(w, rate, 11);
                assert_eq!(row.invariant_violations, 0, "{w}@{rate}");
                assert_eq!(
                    row.moved + row.left_behind,
                    PAGES,
                    "{w}@{rate}: every page accounted for"
                );
                assert!(
                    row.moved > 0,
                    "{w}@{rate}: pressure relief must make progress: {row:?}"
                );
            }
        }
        // A clean offline evacuates every page; nothing degrades.
        let row = run_case("evacuation", 0, 11);
        assert_eq!(row.moved, PAGES);
        assert_eq!(row.degraded, 0);
    }

    #[test]
    fn sweep_rows_are_identical_across_jobs() {
        let rates = [0, 100_000];
        let seq = sweep(&["move_pages", "tiering"], &rates, 5, 1);
        let par = sweep(&["move_pages", "tiering"], &rates, 5, 4);
        assert_eq!(seq, par);
    }
}
