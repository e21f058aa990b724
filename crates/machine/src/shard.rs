//! Sharded deterministic execution: many tenant machines in parallel.
//!
//! A *tenant* is one complete simulated process — its own address space,
//! page tables, frame allocator, kernel locks and caches — so tenants
//! share no mappings by construction (the shard partitioning rule: a
//! shard boundary may only separate processes, never threads of one
//! process). A *shard* is a group of tenants executed serially by one
//! worker; tenant `t` belongs to shard `t % shards`, and shard `s` runs
//! on worker `s % workers`.
//!
//! Execution advances in fixed virtual-time windows (see
//! [`numa_sim::WindowClock`]): within a window every worker advances its
//! tenants independently through [`Machine::run_until`]; at the window
//! boundary one coordinator reconciles all cross-tenant coupling:
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
//!   jumping over empty windows without extra rounds.
//!
//! The calling thread is worker 0 and the coordinator. Every other worker
//! owns one pair of channels and sends one `Window` up per round; the
//! coordinator folds them all and sends each back down with its grants,
//! the next horizon and the flush bit. If a worker panics its channels
//! close, the coordinator stops and drops its own, every other worker
//! exits, and the join re-raises the tenant's panic in the caller.
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
use numa_vm::FrameLedger;
use std::sync::{mpsc, Arc};

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
    /// refill at the next window boundary.
    pub low_free_frames: u64,
    /// Frames requested per refill.
    pub refill_frames: u64,
    /// Free-frame headroom a tenant keeps; surplus above it is yielded
    /// back to the pool at window boundaries (so munmapped memory
    /// recycles).
    pub keep_free_frames: u64,
}

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the tenant set is partitioned into (≥ 1).
    pub shards: usize,
    /// Worker threads (≥ 1; effective workers = min(jobs, shards, host
    /// CPUs)).
    pub jobs: usize,
    /// Shared frame-capacity pool; `None` leaves every tenant on its
    /// preset bank capacities (no memory coupling).
    pub ledger: Option<LedgerConfig>,
    /// Machine-wide cache-miss-per-window limit; crossing it flushes all
    /// tenant caches at the window boundary. 0 disables the thrash model.
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
    /// Coordinator rounds executed.
    pub windows: u64,
    /// Empty windows jumped without a round.
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

/// One worker's half of a coordinator round. The same buffers travel up
/// and back down, so a steady-state round allocates nothing.
#[derive(Default)]
struct Window {
    /// Up: earliest next event over the worker's live tenants, `None`
    /// once they all drained.
    next_event: Option<SimTime>,
    /// Up: engine cache misses the worker's tenants incurred this window.
    misses: u64,
    /// Up: capacity yielded back to the pool, `(node, frames)`, nonzero.
    yields: Vec<(NodeId, u64)>,
    /// Up: refill requests `(tenant, node, frames)` in ascending order;
    /// down: each request's frames overwritten by its grant.
    requests: Vec<(usize, NodeId, u64)>,
    /// Down: exclusive end of the next window.
    horizon: SimTime,
    /// Down: flush every live tenant's caches before it runs on.
    flush: bool,
}

/// Plain-data outcome a worker ships back for one tenant.
struct TenantOutcome {
    tenant: usize,
    result: RunResult,
    kernel_counters: Counters,
    trace: Vec<TraceEvent>,
}

/// A tenant resident on a worker that has not drained yet.
struct LiveTenant {
    id: usize,
    machine: Machine,
    run: EngineRun,
    last_misses: u64,
}

impl LiveTenant {
    /// Run one window to `w.horizon` and report it into `w`. Returns true
    /// once the tenant drained.
    fn run_window(&mut self, w: &mut Window, ledger: Option<&LedgerConfig>) -> bool {
        let next = self.machine.run_until(&mut self.run, Some(w.horizon));
        if let Some(p) = next {
            w.next_event = Some(w.next_event.map_or(p, |m| m.min(p)));
        }
        let misses = self.run.stats().counters.get(Counter::CacheMisses);
        w.misses += misses - self.last_misses;
        self.last_misses = misses;
        if let Some(l) = ledger {
            // A drained tenant hands back all its spare headroom; a
            // running one keeps its configured cushion.
            let keep = next.map_or(0, |_| l.keep_free_frames);
            let nodes = self.machine.topology().node_count();
            let frames = &mut self.machine.frames;
            for n in 0..nodes {
                let node = NodeId(n as u16);
                let free = frames.free_on(node);
                if free > keep {
                    w.yields
                        .push((node, frames.yield_capacity(node, free - keep)));
                }
                if next.is_some() && frames.free_on(node) < l.low_free_frames {
                    w.requests.push((self.id, node, l.refill_frames));
                }
            }
        }
        next.is_none()
    }

    fn retire(self) -> TenantOutcome {
        TenantOutcome {
            tenant: self.id,
            kernel_counters: self.machine.kernel.counters.clone(),
            trace: self.machine.trace.snapshot(),
            result: self.run.finish(),
        }
    }
}

/// The tenants one worker runs, ascending by id, and the outcomes of
/// those that drained.
struct Worker {
    live: Vec<LiveTenant>,
    done: Vec<TenantOutcome>,
}

impl Worker {
    /// Apply the coordinator's answer in `w`, run every live tenant to
    /// `w.horizon`, and refill `w` for the way up. A tenant that drains
    /// retires into `done` at once.
    fn step(&mut self, w: &mut Window, ledger: Option<&LedgerConfig>) {
        for &(id, node, frames) in &w.requests {
            let i = self
                .live
                .binary_search_by_key(&id, |t| t.id)
                .expect("requester is live");
            self.live[i].machine.frames.grant_capacity(node, frames);
        }
        if w.flush {
            self.live.iter_mut().for_each(|t| t.machine.flush_caches());
        }
        w.next_event = None;
        w.misses = 0;
        w.yields.clear();
        w.requests.clear();
        for t in self.live.extract_if(.., |t| t.run_window(w, ledger)) {
            self.done.push(t.retire());
        }
    }
}

/// Run `tenant_count` tenants built by `build` (called with the tenant
/// id, from worker threads) under the windowed schedule.
///
/// `topo` supplies the lookahead for the default window width; tenants
/// are expected to be built over the same topology (same latency
/// matrix), which every provided workload does. A panic in `build` or in
/// a tenant's run ends the run and resumes in the caller.
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
    let width = WindowClock::width_for_lookahead(topo.min_cross_node_latency_ns());
    let nodes = topo.node_count();
    // Worker packing never reaches the output (all cross-tenant merges key
    // on tenant id), so clamp to the host like `threadpool::par_map` does:
    // workers beyond the CPU count only add round-trip convoying.
    let workers = cfg
        .jobs
        .min(shards)
        .min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1);
    let build = &build;
    let start = |me: usize| Worker {
        // Tenants whose shard lands on this worker, ascending id.
        live: (0..tenant_count)
            .filter(|t| (t % shards) % workers == me)
            .map(|id| {
                let TenantRun {
                    mut machine,
                    threads,
                    barrier_sizes,
                } = build(id);
                if let Some(l) = &cfg.ledger {
                    for n in 0..nodes {
                        let node = NodeId(n as u16);
                        machine.frames.set_capacity(node, l.initial_frames_per_node);
                    }
                }
                if cfg.trace_capacity > 0 {
                    machine.enable_trace(cfg.trace_capacity);
                }
                let run = machine.start_run(threads, &barrier_sizes);
                LiveTenant {
                    id,
                    machine,
                    run,
                    last_misses: 0,
                }
            })
            .collect(),
        done: Vec::new(),
    };

    let mut clock = WindowClock::new(width);
    let first = clock.horizon();
    let mut ledger = cfg
        .ledger
        .as_ref()
        .map(|l| FrameLedger::new(vec![l.pool_frames_per_node; nodes]));
    let mut flush_windows = 0;
    let mut done = std::thread::scope(|scope| {
        let mut links = Vec::with_capacity(workers - 1);
        let handles: Vec<_> = (1..workers)
            .map(|me| {
                let (to_coordinator, from_worker) = mpsc::channel();
                let (to_worker, from_coordinator) = mpsc::channel();
                links.push((from_worker, to_worker));
                scope.spawn(move || {
                    let mut worker = start(me);
                    let mut w = Window {
                        horizon: first,
                        ..Window::default()
                    };
                    // Either channel closes only when the run ends or
                    // another thread panicked.
                    loop {
                        worker.step(&mut w, cfg.ledger.as_ref());
                        if to_coordinator.send(w).is_err() {
                            break;
                        }
                        match from_coordinator.recv() {
                            Ok(next) => w = next,
                            Err(_) => break,
                        }
                    }
                    worker.done
                })
            })
            .collect();

        let mut own = start(0);
        let mut round = vec![Window {
            horizon: first,
            ..Window::default()
        }];
        let mut order = Vec::new();
        'rounds: loop {
            own.step(&mut round[0], cfg.ledger.as_ref());
            for (from_worker, _) in &links {
                match from_worker.recv() {
                    Ok(w) => round.push(w),
                    Err(_) => break 'rounds,
                }
            }
            let next = round.iter().filter_map(|w| w.next_event).min();
            let misses: u64 = round.iter().map(|w| w.misses).sum();
            if let Some(ledger) = &mut ledger {
                // Deposits first (they commute), so capacity freed this
                // window is grantable this window.
                for &(node, frames) in round.iter().flat_map(|w| &w.yields) {
                    ledger.deposit(node, frames);
                }
                // Then requests in (tenant, node) order: the grant
                // sequence must not depend on packing.
                order.clear();
                for (k, w) in round.iter().enumerate() {
                    let keys = w.requests.iter().enumerate();
                    order.extend(keys.map(|(i, &(t, node, _))| (t, node, k, i)));
                }
                order.sort_unstable();
                for &(_, node, k, i) in &order {
                    let frames = &mut round[k].requests[i].2;
                    *frames = ledger.request(node, *frames);
                }
            }
            let flush = cfg.thrash_miss_limit > 0 && misses >= cfg.thrash_miss_limit;
            flush_windows += u64::from(flush);
            let Some(next) = next else { break };
            clock.skip_to(next);
            for w in &mut round {
                w.horizon = clock.horizon();
                w.flush = flush;
            }
            for ((_, to_worker), w) in links.iter().zip(round.drain(1..)) {
                if to_worker.send(w).is_err() {
                    break 'rounds;
                }
            }
        }
        drop(links);
        for h in handles {
            match h.join() {
                Ok(theirs) => own.done.extend(theirs),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        own.done
    });
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

    ShardedRunResult {
        makespan,
        windows: clock.windows(),
        windows_skipped: clock.skipped(),
        window_ns: width,
        tenant_makespans,
        tenants,
        stats,
        kernel_counters,
        ledger_grants: ledger.as_ref().map_or(0, |l| l.grants()),
        ledger_denials: ledger.as_ref().map_or(0, |l| l.denials()),
        ledger_yields: ledger.as_ref().map_or(0, |l| l.yields()),
        flush_windows,
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
