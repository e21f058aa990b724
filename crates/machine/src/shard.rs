//! Sharded deterministic execution: many tenant machines in parallel.
//!
//! A *tenant* is one complete simulated process — its own address space,
//! page tables, frame allocator, kernel locks and caches — so tenants
//! share no mappings by construction (the shard partitioning rule: a
//! shard boundary may only separate processes, never threads of one
//! process). A *shard* is a group of tenants executed serially by one
//! worker; tenant `t` belongs to shard `t % shards`, and shard `s` runs
//! on worker `s % jobs`.
//!
//! Execution advances in fixed virtual-time windows (see
//! [`numa_sim::WindowClock`]): within a window every worker advances its
//! tenants independently through [`Machine::run_until`]; at the window
//! barrier all cross-tenant coupling is reconciled:
//!
//! * **frame capacity** — tenants draw refills from a shared
//!   [`FrameLedger`] and yield spare capacity back; the ledger is served
//!   in tenant-id order (deposits first, then requests), so the sequence
//!   of grants and denials — and therefore every downstream allocation
//!   failure — never depends on how tenants were packed into shards;
//! * **L3 thrash** — per-window cache-miss deltas are *summed* (a
//!   commutative fold) and compared against a limit; crossing it flushes
//!   every running tenant's caches, modelling machine-wide LLC pollution;
//! * **progress** — the minimum next-event time across all tenants (a
//!   global, packing-invariant quantity) drives window advancement,
//!   jumping over empty windows without extra barrier rounds.
//!
//! Because every coupling is applied at fixed window boundaries in an
//! order keyed on tenant id (never shard or worker id), the run's output
//! — makespans, breakdowns, counters, trace order — is byte-identical
//! for any `shards` × `jobs` combination, including `shards = 1`, which
//! executes exactly today's single-threaded engine schedule per tenant.

use crate::engine::{EngineRun, RunResult, RunStats, ThreadSpec};
use crate::Machine;
use numa_sim::{merge_streams, SimTime, TraceEvent, WindowClock};
use numa_stats::{Counter, Counters};
use numa_topology::{NodeId, Topology};
use std::sync::{Arc, Barrier, Mutex};

/// One tenant's machine and workload, produced by the builder closure
/// *inside* a worker thread (a [`Machine`] is intentionally not `Send`:
/// it never crosses threads, only its plain-data results do).
pub struct TenantRun {
    /// The tenant's private simulated host.
    pub machine: Machine,
    /// Its simulated threads.
    pub threads: Vec<ThreadSpec>,
    /// Barrier team sizes for [`crate::Op::Barrier`] ops.
    pub barrier_sizes: Vec<usize>,
}

/// Shared frame-capacity pool configuration (the cross-tenant memory
/// pressure model). All quantities are frames per NUMA node.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Unassigned frames pooled per node at start (on top of the initial
    /// per-tenant slices).
    pub pool_frames_per_node: u64,
    /// Capacity each tenant's allocator starts with on every node.
    pub initial_frames_per_node: u64,
    /// A tenant with fewer free frames than this on a node requests a
    /// refill at the next barrier.
    pub low_free_frames: u64,
    /// Frames requested per refill.
    pub refill_frames: u64,
    /// Free-frame headroom a tenant keeps; surplus above it is yielded
    /// back to the pool at barriers (so munmapped memory recycles).
    pub keep_free_frames: u64,
}

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the tenant set is partitioned into (≥ 1).
    pub shards: usize,
    /// Worker threads (≥ 1; effective workers = min(jobs, shards)).
    pub jobs: usize,
    /// Shared frame-capacity pool; `None` leaves every tenant on its
    /// preset bank capacities (no memory coupling).
    pub ledger: Option<LedgerConfig>,
    /// Machine-wide cache-miss-per-window limit; crossing it flushes all
    /// tenant caches at the barrier. 0 disables the thrash model.
    pub thrash_miss_limit: u64,
    /// Per-tenant trace buffer capacity (0 = tracing off).
    pub trace_capacity: usize,
}

impl ShardConfig {
    /// Single shard, single worker, no cross-tenant coupling — the
    /// configuration provably equivalent to running each tenant's
    /// [`Machine::run`] back to back.
    pub fn serial() -> Self {
        ShardConfig {
            shards: 1,
            jobs: 1,
            ledger: None,
            thrash_miss_limit: 0,
            trace_capacity: 0,
        }
    }
}

/// Result of a sharded run: per-tenant results plus the deterministic
/// fold of everything cross-tenant, all independent of `shards`/`jobs`.
#[derive(Debug, Clone)]
pub struct ShardedRunResult {
    /// Maximum tenant makespan.
    pub makespan: SimTime,
    /// Barrier rounds executed.
    pub windows: u64,
    /// Empty windows jumped without a barrier round.
    pub windows_skipped: u64,
    /// Window width used, in ns: the topology's conservative lookahead
    /// ([`Topology::min_cross_node_latency_ns`] ×
    /// [`numa_sim::WINDOW_LOOKAHEAD_MULTIPLE`]).
    pub window_ns: u64,
    /// Per-tenant makespans, indexed by tenant id.
    pub tenant_makespans: Vec<SimTime>,
    /// Per-tenant engine results, indexed by tenant id.
    pub tenants: Vec<RunResult>,
    /// Engine stats folded over tenants in tenant-id order.
    pub stats: RunStats,
    /// Kernel counters folded over tenants in tenant-id order.
    pub kernel_counters: Counters,
    /// Satisfied ledger refill requests.
    pub ledger_grants: u64,
    /// Requests granted less than they asked (the pressure signal).
    pub ledger_denials: u64,
    /// Capacity returns to the pool.
    pub ledger_yields: u64,
    /// Windows that tripped the thrash limit and flushed all caches.
    pub flush_windows: u64,
    /// Merged trace, `(tenant_id, event)` ordered by
    /// `(time, tenant_id, emission order)`.
    pub trace: Vec<(usize, TraceEvent)>,
}

/// What one tenant publishes at a window barrier.
struct WindowSummary {
    /// Next pending event time, `None` once the tenant drained.
    next_event: Option<SimTime>,
    /// Engine cache misses incurred this window.
    misses_delta: u64,
    /// Refill wanted per node.
    requests: Vec<u64>,
    /// Capacity already yielded per node (worker-side), to deposit.
    deposits: Vec<u64>,
}

/// Barrier-round state shared by all workers. Only ever touched by the
/// barrier leader between the two waits, and read-only by everyone after
/// the second wait, so one mutex suffices.
struct SharedState {
    clock: WindowClock,
    ledger: Option<numa_vm::FrameLedger>,
    grants: Vec<Vec<u64>>,
    flush: bool,
    stop: bool,
    flush_windows: u64,
}

/// Plain-data outcome a worker ships back for one tenant.
struct TenantOutcome {
    tenant: usize,
    result: RunResult,
    kernel_counters: Counters,
    trace: Vec<TraceEvent>,
}

/// A tenant resident on a worker.
struct LiveTenant {
    id: usize,
    machine: Machine,
    run: Option<EngineRun>,
    finished: bool,
    last_misses: u64,
}

/// Run `tenant_count` tenants built by `build` (called with the tenant
/// id, from worker threads) under the windowed-barrier schedule.
///
/// `topo` supplies the lookahead for the default window width; tenants
/// are expected to be built over the same topology (same latency
/// matrix), which every provided workload does.
pub fn run_sharded<F>(
    topo: &Arc<Topology>,
    tenant_count: usize,
    cfg: &ShardConfig,
    build: F,
) -> ShardedRunResult
where
    F: Fn(usize) -> TenantRun + Sync,
{
    let shards = cfg.shards.max(1);
    let jobs = cfg.jobs.max(1);
    let width = WindowClock::width_for_lookahead(topo.min_cross_node_latency_ns());
    let nodes = topo.node_count();

    if tenant_count == 0 {
        return ShardedRunResult {
            makespan: SimTime::ZERO,
            windows: 0,
            windows_skipped: 0,
            window_ns: width,
            tenant_makespans: Vec::new(),
            tenants: Vec::new(),
            stats: RunStats::default(),
            kernel_counters: Counters::new(),
            ledger_grants: 0,
            ledger_denials: 0,
            ledger_yields: 0,
            flush_windows: 0,
            trace: Vec::new(),
        };
    }

    // Worker packing never reaches the output (all cross-tenant merges key
    // on tenant id), so clamp to the host like `threadpool::par_map` does:
    // workers beyond the CPU count only add barrier convoying.
    let workers = jobs
        .min(shards)
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);
    let shared = Mutex::new(SharedState {
        clock: WindowClock::new(width),
        ledger: cfg
            .ledger
            .as_ref()
            .map(|l| numa_vm::FrameLedger::new(vec![l.pool_frames_per_node; nodes])),
        grants: vec![vec![0; nodes]; tenant_count],
        flush: false,
        stop: false,
        flush_windows: 0,
    });
    let summaries: Vec<Mutex<Option<WindowSummary>>> =
        (0..tenant_count).map(|_| Mutex::new(None)).collect();
    let barrier = Barrier::new(workers);
    let outcomes: Mutex<Vec<TenantOutcome>> = Mutex::new(Vec::with_capacity(tenant_count));
    let build = &build;
    let shared = &shared;
    let summaries = &summaries;
    let barrier = &barrier;
    let outcomes = &outcomes;
    let ledger_cfg = cfg.ledger.clone();
    let thrash_limit = cfg.thrash_miss_limit;
    let trace_capacity = cfg.trace_capacity;

    std::thread::scope(|scope| {
        for me in 0..workers {
            let ledger_cfg = ledger_cfg.clone();
            scope.spawn(move || {
                // Tenants whose shard lands on this worker, ascending id.
                let mut mine: Vec<LiveTenant> = (0..tenant_count)
                    .filter(|t| (t % shards) % workers == me)
                    .map(|id| {
                        let TenantRun {
                            mut machine,
                            threads,
                            barrier_sizes,
                        } = build(id);
                        if let Some(l) = &ledger_cfg {
                            for n in 0..nodes {
                                machine
                                    .frames
                                    .set_capacity(NodeId(n as u16), l.initial_frames_per_node);
                            }
                        }
                        if trace_capacity > 0 {
                            machine.enable_trace(trace_capacity);
                        }
                        let run = machine.start_run(threads, &barrier_sizes);
                        LiveTenant {
                            id,
                            machine,
                            run: Some(run),
                            finished: false,
                            last_misses: 0,
                        }
                    })
                    .collect();

                let mut horizon = SimTime(width);
                loop {
                    for tenant in &mut mine {
                        let summary = if tenant.finished {
                            WindowSummary {
                                next_event: None,
                                misses_delta: 0,
                                requests: Vec::new(),
                                deposits: Vec::new(),
                            }
                        } else {
                            let LiveTenant { machine, run, .. } = tenant;
                            let run = run.as_mut().expect("unfinished tenant has a run");
                            let next = machine.run_until(run, Some(horizon));
                            if next.is_none() {
                                tenant.finished = true;
                            }
                            let misses = run.stats().counters.get(Counter::CacheMisses);
                            let misses_delta = misses - tenant.last_misses;
                            tenant.last_misses = misses;
                            let (requests, deposits) = match &ledger_cfg {
                                None => (Vec::new(), Vec::new()),
                                Some(l) => {
                                    let mut req = vec![0; nodes];
                                    let mut dep = vec![0; nodes];
                                    // A drained tenant hands back all its
                                    // spare headroom; a running one keeps
                                    // its configured cushion.
                                    let keep = if tenant.finished {
                                        0
                                    } else {
                                        l.keep_free_frames
                                    };
                                    for n in 0..nodes {
                                        let node = NodeId(n as u16);
                                        let free = tenant.machine.frames.free_on(node);
                                        if free > keep {
                                            dep[n] = tenant
                                                .machine
                                                .frames
                                                .yield_capacity(node, free - keep);
                                        }
                                        if !tenant.finished
                                            && tenant.machine.frames.free_on(node)
                                                < l.low_free_frames
                                        {
                                            req[n] = l.refill_frames;
                                        }
                                    }
                                    (req, dep)
                                }
                            };
                            WindowSummary {
                                next_event: next,
                                misses_delta,
                                requests,
                                deposits,
                            }
                        };
                        *summaries[tenant.id].lock().unwrap() = Some(summary);
                    }

                    if barrier.wait().is_leader() {
                        let mut sh = shared.lock().unwrap();
                        let sh = &mut *sh;
                        let mut min_next: Option<SimTime> = None;
                        let mut miss_sum = 0u64;
                        // Deposits first (commutative), so capacity freed
                        // this window is grantable this window.
                        if let Some(ledger) = &mut sh.ledger {
                            for slot in summaries.iter() {
                                if let Some(s) = slot.lock().unwrap().as_ref() {
                                    for (n, &d) in s.deposits.iter().enumerate() {
                                        ledger.deposit(NodeId(n as u16), d);
                                    }
                                }
                            }
                        }
                        // Requests strictly in tenant-id order: the grant
                        // sequence must not depend on packing.
                        for (t, slot) in summaries.iter().enumerate() {
                            let slot = slot.lock().unwrap();
                            let s = slot.as_ref().expect("summary published");
                            miss_sum += s.misses_delta;
                            if let Some(p) = s.next_event {
                                min_next = Some(
                                    min_next.map_or(p, |m: SimTime| if p < m { p } else { m }),
                                );
                            }
                            let grant = &mut sh.grants[t];
                            grant.iter_mut().for_each(|g| *g = 0);
                            if let Some(ledger) = &mut sh.ledger {
                                for (n, &want) in s.requests.iter().enumerate() {
                                    if want > 0 {
                                        grant[n] = ledger.request(NodeId(n as u16), want);
                                    }
                                }
                            }
                        }
                        sh.flush = thrash_limit > 0 && miss_sum >= thrash_limit;
                        if sh.flush {
                            sh.flush_windows += 1;
                        }
                        match min_next {
                            None => sh.stop = true,
                            Some(m) => sh.clock.skip_to(m),
                        }
                    }
                    barrier.wait();

                    {
                        let sh = shared.lock().unwrap();
                        if sh.stop {
                            break;
                        }
                        horizon = sh.clock.horizon();
                        for tenant in &mut mine {
                            if tenant.finished {
                                continue;
                            }
                            for (n, &g) in sh.grants[tenant.id].iter().enumerate() {
                                if g > 0 {
                                    tenant.machine.frames.grant_capacity(NodeId(n as u16), g);
                                }
                            }
                            if sh.flush {
                                tenant.machine.flush_caches();
                            }
                        }
                    }
                }

                let mut done: Vec<TenantOutcome> = mine
                    .into_iter()
                    .map(|t| TenantOutcome {
                        tenant: t.id,
                        result: t.run.expect("run present").finish(),
                        kernel_counters: t.machine.kernel.counters.clone(),
                        trace: t.machine.trace.snapshot(),
                    })
                    .collect();
                outcomes.lock().unwrap().append(&mut done);
            });
        }
    });

    let mut done = std::mem::take(&mut *outcomes.lock().unwrap());
    done.sort_by_key(|o| o.tenant);
    debug_assert_eq!(done.len(), tenant_count);

    // Fold everything in tenant-id order — float sums in the breakdown
    // are order-sensitive, so the order must be packing-invariant.
    let mut stats = RunStats::default();
    let mut kernel_counters = Counters::new();
    let mut makespan = SimTime::ZERO;
    let mut tenant_makespans = Vec::with_capacity(tenant_count);
    let mut trace_runs: Vec<Vec<(usize, TraceEvent)>> = Vec::with_capacity(tenant_count);
    let mut tenants = Vec::with_capacity(tenant_count);
    for o in done {
        stats.breakdown.merge(&o.result.stats.breakdown);
        stats.counters.merge(&o.result.stats.counters);
        kernel_counters.merge(&o.kernel_counters);
        makespan = makespan.max(o.result.makespan);
        tenant_makespans.push(o.result.makespan);
        trace_runs.push(o.trace.into_iter().map(|e| (o.tenant, e)).collect());
        tenants.push(o.result);
    }
    let trace = merge_streams(trace_runs, |(_, e)| e.at);

    let sh = shared.lock().unwrap();
    ShardedRunResult {
        makespan,
        windows: sh.clock.windows(),
        windows_skipped: sh.clock.skipped(),
        window_ns: width,
        tenant_makespans,
        tenants,
        stats,
        kernel_counters,
        ledger_grants: sh.ledger.as_ref().map_or(0, |l| l.grants()),
        ledger_denials: sh.ledger.as_ref().map_or(0, |l| l.denials()),
        ledger_yields: sh.ledger.as_ref().map_or(0, |l| l.yields()),
        flush_windows: sh.flush_windows,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemAccessKind, Op};
    use numa_vm::MemPolicy;

    fn tenant(id: usize) -> TenantRun {
        let mut machine = Machine::two_node();
        let buf = machine.alloc(16 * numa_vm::PAGE_SIZE, MemPolicy::FirstTouch);
        let pages = 4 + (id % 4) as u64;
        let threads = vec![ThreadSpec::scripted(
            numa_topology::CoreId((id % 2) as u16),
            vec![
                Op::ComputeNs(50 * (id as u64 + 1)),
                Op::write(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Stream),
                Op::read(buf, pages * numa_vm::PAGE_SIZE, MemAccessKind::Random),
                Op::Munmap { addr: buf },
            ],
        )];
        TenantRun {
            machine,
            threads,
            barrier_sizes: Vec::new(),
        }
    }

    fn fingerprint(r: &ShardedRunResult) -> (u64, Vec<u64>, String, Vec<(usize, u64)>) {
        (
            r.makespan.ns(),
            r.tenant_makespans.iter().map(|t| t.ns()).collect(),
            format!("{:?}{:?}", r.stats.breakdown, r.stats.counters),
            r.trace.iter().map(|(t, e)| (*t, e.at.ns())).collect(),
        )
    }

    #[test]
    fn sharded_equals_serial_runs() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let n = 6;
        let sharded = run_sharded(&topo, n, &ShardConfig::serial(), tenant);
        // Reference: each tenant run monolithically.
        for id in 0..n {
            let TenantRun {
                mut machine,
                threads,
                barrier_sizes,
            } = tenant(id);
            let r = machine.run(threads, &barrier_sizes);
            assert_eq!(r.makespan, sharded.tenant_makespans[id], "tenant {id}");
            assert_eq!(
                format!("{:?}", r.stats.breakdown),
                format!("{:?}", sharded.tenants[id].stats.breakdown),
                "tenant {id} breakdown"
            );
        }
    }

    #[test]
    fn output_invariant_across_shards_and_jobs() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let n = 9;
        let cfg = |shards, jobs| ShardConfig {
            shards,
            jobs,
            ledger: Some(LedgerConfig {
                pool_frames_per_node: 64,
                initial_frames_per_node: 8,
                low_free_frames: 4,
                refill_frames: 8,
                keep_free_frames: 16,
            }),
            thrash_miss_limit: 64,
            trace_capacity: 256,
        };
        let base = fingerprint(&run_sharded(&topo, n, &cfg(1, 1), tenant));
        for (s, j) in [(2, 1), (3, 2), (8, 4), (9, 9), (16, 3)] {
            let r = run_sharded(&topo, n, &cfg(s, j), tenant);
            assert_eq!(base, fingerprint(&r), "shards={s} jobs={j}");
        }
    }

    #[test]
    fn ledger_pressure_grants_and_recycles() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let cfg = ShardConfig {
            shards: 2,
            jobs: 2,
            ledger: Some(LedgerConfig {
                // Initial slices cover the largest single-window touch
                // burst (7 pages) so refills stay watermark-driven; the
                // multitenant workload additionally enables the OOM-kill
                // policy so outright exhaustion degrades, not panics.
                pool_frames_per_node: 32,
                initial_frames_per_node: 8,
                low_free_frames: 4,
                refill_frames: 4,
                keep_free_frames: 6,
            }),
            thrash_miss_limit: 0,
            trace_capacity: 0,
        };
        let r = run_sharded(&topo, 4, &cfg, tenant);
        assert!(r.ledger_grants > 0, "tiny initial slices force refills");
        assert!(r.ledger_yields > 0, "munmap returns capacity");
        assert!(r.windows > 0);
    }

    #[test]
    fn empty_tenant_set() {
        let topo = Arc::new(numa_topology::presets::two_node());
        let r = run_sharded(&topo, 0, &ShardConfig::serial(), tenant);
        assert_eq!(r.makespan, SimTime::ZERO);
        assert_eq!(r.windows, 0);
    }
}
