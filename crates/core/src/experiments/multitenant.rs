//! Multitenant churn: 1,000+ tenant processes on the sharded engine.
//!
//! The scale story the sharded engine exists for (ROADMAP north-star,
//! churn in the style of *Revisiting Page Migration for Main-Memory
//! Database Systems*): each tenant is a complete simulated process —
//! own address space, page tables, frame allocator — running
//! generations of `mmap → populate → madvise(next-touch) → move cores →
//! re-touch → move_pages → munmap` (see `numa_rt::tenant`). Tenants
//! couple only through the shared frame-capacity ledger (refills
//! granted, surpluses recycled, shortfalls denied — real cross-tenant
//! memory pressure) and the machine-wide L3-thrash model, both
//! reconciled deterministically at window barriers.
//!
//! Everything reported here is **independent of `--shards`/`--jobs`**:
//! the orchestrator merges shard state in tenant-id order at fixed
//! virtual-time window boundaries, so the cohort rows and the summary
//! are byte-identical for any parallelisation of the host work. That
//! invariant is enforced by the `multitenant_determinism` regression
//! test and the golden checksum on `results/multitenant.json`.

use numa_machine::{run_sharded, LedgerConfig, ShardConfig, ShardedRunResult};
use numa_rt::tenant::{build_tenant, TenantProfile};
use numa_stats::Counter;
use numa_topology::presets;
use std::sync::Arc;

/// Tenant processes in the standard run (the acceptance floor).
pub const TENANTS: usize = 1_000;
/// Tenant processes with `--full`.
pub const TENANTS_FULL: usize = 2_000;
/// Cohorts the tenant population is folded into for reporting
/// (tenant id modulo [`COHORTS`]).
pub const COHORTS: usize = 10;

/// Shared-pool sizing: unassigned frames pooled per node. Deliberately
/// far below aggregate demand (1,000 tenants × refills), so the ledger
/// records real denials — the cross-tenant pressure signal.
pub const POOL_FRAMES_PER_NODE: u64 = 1_024;
/// Capacity each tenant starts with per node; covers the largest
/// single-window touch burst of the churn profile, so allocation
/// failures stay a pressure phenomenon rather than a startup one.
pub const INITIAL_FRAMES_PER_NODE: u64 = 8;
/// Refill request threshold and size, and the free-frame cushion kept
/// back when yielding (all in frames; see `LedgerConfig`).
pub const LOW_FREE_FRAMES: u64 = 6;
/// See [`LOW_FREE_FRAMES`].
pub const REFILL_FRAMES: u64 = 8;
/// See [`LOW_FREE_FRAMES`].
pub const KEEP_FREE_FRAMES: u64 = 12;
/// Machine-wide cache-miss-per-window limit before every tenant's
/// caches flush at the barrier (the shared-LLC thrash model).
pub const THRASH_MISS_LIMIT: u64 = 5_000;

/// One cohort of tenants, all fields integers so two runs (or two
/// shard/job configurations) compare for byte-level equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortRow {
    /// Cohort index (tenant id modulo [`COHORTS`]).
    pub cohort: u32,
    /// Tenants in the cohort.
    pub tenants: u64,
    /// Sum of tenant makespans, ns.
    pub makespan_sum_ns: u64,
    /// Slowest tenant in the cohort, ns.
    pub makespan_max_ns: u64,
    /// Local DRAM accesses (engine counters, summed).
    pub local_accesses: u64,
    /// Remote DRAM accesses.
    pub remote_accesses: u64,
    /// L3 misses.
    pub cache_misses: u64,
}

/// The whole run: cohort rows plus the global fold. Every field is a
/// deterministic function of (tenants, seed) only — never of the
/// shard/job packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultitenantOutcome {
    /// Per-cohort aggregates, in cohort order.
    pub rows: Vec<CohortRow>,
    /// Tenant count.
    pub tenants: u64,
    /// Slowest tenant overall (the run's virtual makespan), ns.
    pub makespan_ns: u64,
    /// Window width used, ns.
    pub window_ns: u64,
    /// Barrier rounds executed.
    pub windows: u64,
    /// Empty windows jumped without a barrier round.
    pub windows_skipped: u64,
    /// Ledger refills granted / short-or-refused / capacity returns.
    pub ledger_grants: u64,
    /// See [`MultitenantOutcome::ledger_grants`].
    pub ledger_denials: u64,
    /// See [`MultitenantOutcome::ledger_grants`].
    pub ledger_yields: u64,
    /// Windows that tripped the thrash limit and flushed all caches.
    pub flush_windows: u64,
    /// Pages moved by `move_pages(2)` across all tenants.
    pub moved_syscall: u64,
    /// Pages migrated inside next-touch faults.
    pub moved_fault: u64,
    /// Frames freed (munmap churn plus migration frees).
    pub frames_freed: u64,
    /// Tenants' threads reaped by the OOM killer.
    pub oom_kills: u64,
    /// TLB shootdowns across all tenants.
    pub tlb_shootdowns: u64,
}

/// The standard shard configuration for this workload; `shards`/`jobs`
/// select host parallelism only.
pub fn config(shards: usize, jobs: usize) -> ShardConfig {
    ShardConfig {
        shards,
        jobs,
        ledger: Some(LedgerConfig {
            pool_frames_per_node: POOL_FRAMES_PER_NODE,
            initial_frames_per_node: INITIAL_FRAMES_PER_NODE,
            low_free_frames: LOW_FREE_FRAMES,
            refill_frames: REFILL_FRAMES,
            keep_free_frames: KEEP_FREE_FRAMES,
        }),
        thrash_miss_limit: THRASH_MISS_LIMIT,
        trace_capacity: 0,
    }
}

/// Run `tenants` churn processes with workload `seed` under the given
/// host parallelism.
pub fn run(tenants: usize, seed: u64, shards: usize, jobs: usize) -> MultitenantOutcome {
    let topo = Arc::new(presets::opteron_4p());
    let profile = TenantProfile { seed };
    let r = run_sharded(&topo, tenants, &config(shards, jobs), |id| {
        build_tenant(&topo, id, &profile)
    });
    fold(&r)
}

fn fold(r: &ShardedRunResult) -> MultitenantOutcome {
    let mut rows: Vec<CohortRow> = (0..COHORTS)
        .map(|c| CohortRow {
            cohort: c as u32,
            tenants: 0,
            makespan_sum_ns: 0,
            makespan_max_ns: 0,
            local_accesses: 0,
            remote_accesses: 0,
            cache_misses: 0,
        })
        .collect();
    for (id, t) in r.tenants.iter().enumerate() {
        let row = &mut rows[id % COHORTS];
        row.tenants += 1;
        row.makespan_sum_ns += t.makespan.ns();
        row.makespan_max_ns = row.makespan_max_ns.max(t.makespan.ns());
        row.local_accesses += t.stats.counters.get(Counter::LocalAccesses);
        row.remote_accesses += t.stats.counters.get(Counter::RemoteAccesses);
        row.cache_misses += t.stats.counters.get(Counter::CacheMisses);
    }
    let k = &r.kernel_counters;
    MultitenantOutcome {
        rows,
        tenants: r.tenants.len() as u64,
        makespan_ns: r.makespan.ns(),
        window_ns: r.window_ns,
        windows: r.windows,
        windows_skipped: r.windows_skipped,
        ledger_grants: r.ledger_grants,
        ledger_denials: r.ledger_denials,
        ledger_yields: r.ledger_yields,
        flush_windows: r.flush_windows,
        moved_syscall: k.get(Counter::PagesMovedSyscall),
        moved_fault: k.get(Counter::PagesMovedFault),
        frames_freed: k.get(Counter::FramesFreed),
        oom_kills: k.get(Counter::OomKills),
        tlb_shootdowns: k.get(Counter::TlbShootdowns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_invariant_across_shards_and_jobs() {
        // Smaller population than the bench (host time), same profile.
        let base = run(60, 1, 1, 1);
        for (s, j) in [(4, 2), (8, 4), (60, 3)] {
            assert_eq!(base, run(60, 1, s, j), "shards={s} jobs={j}");
        }
    }

    #[test]
    fn churn_exercises_the_couplings() {
        let o = run(120, 0, 8, 2);
        assert_eq!(o.tenants, 120);
        assert!(o.moved_syscall > 0, "move_pages churn: {o:?}");
        assert!(o.moved_fault > 0, "next-touch churn: {o:?}");
        assert!(o.frames_freed > 0, "munmap churn: {o:?}");
        assert!(o.ledger_grants > 0, "refills granted: {o:?}");
        assert!(o.ledger_yields > 0, "capacity recycled: {o:?}");
        assert_eq!(o.oom_kills, 0, "sized to avoid OOM: {o:?}");
        assert!(o.windows > 0);
        let total: u64 = o.rows.iter().map(|r| r.tenants).sum();
        assert_eq!(total, 120);
    }
}
