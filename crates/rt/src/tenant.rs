//! Tenant-churn workload builder for the sharded multitenant engine.
//!
//! Models the tenant lifecycle of a multitenant host in the style of
//! *Revisiting Page Migration for Main-Memory Database Systems*: each
//! tenant process runs generations of `mmap → populate → mark
//! next-touch → move cores → re-touch (pulling its pages across the
//! interconnect) → explicit `move_pages` → `munmap`, with a
//! deterministic per-tenant RNG varying buffer sizes, cores, and phase
//! lengths so a thousand tenants don't march in lockstep.
//!
//! Buffers for every generation are mapped up front (address-space
//! bookkeeping is untimed; frames are only allocated at first touch),
//! so the simulated churn is entirely faults, migrations, TLB
//! shootdowns and frees — the traffic the frame ledger meters.

use numa_machine::{Machine, MemAccessKind, Op, TenantRun, ThreadSpec};
use numa_sim::Splitmix64;
use numa_topology::{CoreId, Topology};
use numa_vm::{MemPolicy, PAGE_SIZE};
use std::sync::Arc;

/// mmap → churn → munmap cycles per tenant.
const GENERATIONS: usize = 2;
/// Smallest per-generation buffer, in pages.
const MIN_PAGES: u64 = 3;
/// Largest per-generation buffer, in pages (inclusive).
const MAX_PAGES: u64 = 6;
/// Upper bound on the initial stagger and inter-phase think time, ns.
const THINK_NS: u64 = 4_000;

/// What varies between churn workloads: the seed behind every tenant's
/// sizes, cores and think times.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Workload seed; combined with the tenant id so every tenant is
    /// distinct but reproducible.
    pub seed: u64,
}

impl Default for TenantProfile {
    fn default() -> Self {
        TenantProfile { seed: 0x7e4a_4475 }
    }
}

/// Build tenant `id`'s machine and script over `topo`.
///
/// The kernel runs with the deterministic OOM-kill policy enabled: a
/// tenant that outruns its granted frame capacity loses its allocating
/// thread (Linux `oom_kill_allocating_task`) instead of panicking the
/// host — under ledger pressure that is a workload condition, not a bug.
pub fn build_tenant(topo: &Arc<Topology>, id: usize, profile: &TenantProfile) -> TenantRun {
    let mut config = numa_kernel::KernelConfig::default();
    config.pressure.oom_kill = true;
    let mut machine = Machine::new(topo.clone(), config);

    let mut rng = Splitmix64::new(profile.seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let cores = topo.core_count() as u64;
    let home = CoreId(rng.below(cores) as u16);
    let away = CoreId(((home.0 as u64 + 1 + rng.below(cores - 1)) % cores) as u16);

    let mut ops = Vec::new();
    ops.push(Op::ComputeNs(1 + rng.below(THINK_NS)));
    for _ in 0..GENERATIONS {
        let pages = MIN_PAGES + rng.below(MAX_PAGES - MIN_PAGES + 1);
        let bytes = pages * PAGE_SIZE;
        let buf = machine.alloc(bytes, MemPolicy::FirstTouch);
        let range = machine.space.find_vma(buf).expect("fresh mapping").range;

        // Populate on the home core (first touch places the frames).
        ops.push(Op::write(buf, bytes, MemAccessKind::Stream));
        ops.push(Op::ComputeNs(1 + rng.below(THINK_NS)));
        // Mark a prefix for kernel next-touch, move to the away core, and
        // re-touch everything: marked pages migrate inside their faults
        // and land local; the unmarked tail stays home and is accessed
        // remotely — the exact trade the paper's next-touch exists to win.
        let marked = 1 + rng.below(pages);
        ops.push(Op::MadviseNextTouch {
            range: numa_vm::PageRange::new(range.start_vpn, range.start_vpn + marked),
        });
        ops.push(Op::MigrateThread { to: away });
        ops.push(Op::read(buf, bytes, MemAccessKind::Random));
        // Explicitly push a prefix of the pages somewhere else — the
        // `move_pages` half of the churn (§2.3 of the paper).
        let moved = 1 + rng.below(pages);
        let dest = topo.node_of_core(home);
        ops.push(Op::MovePages {
            pages: (0..moved).map(|p| buf + p * PAGE_SIZE).collect(),
            dest: vec![dest; moved as usize],
        });
        // Re-read the moved prefix from the away core: these accesses now
        // cross the interconnect (the remote-access cost the churn pays
        // for placing data near the *next* phase instead of this one).
        ops.push(Op::read(buf, moved * PAGE_SIZE, MemAccessKind::Random));
        ops.push(Op::ComputeNs(1 + rng.below(THINK_NS)));
        // Generation over: give the frames back.
        ops.push(Op::Munmap { addr: buf });
        ops.push(Op::MigrateThread { to: home });
    }

    TenantRun {
        machine,
        threads: vec![ThreadSpec::scripted(home, ops)],
        barrier_sizes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_script_runs_to_completion() {
        let topo = Arc::new(numa_topology::presets::opteron_4p());
        let profile = TenantProfile::default();
        let TenantRun {
            mut machine,
            threads,
            barrier_sizes,
        } = build_tenant(&topo, 7, &profile);
        let r = machine.run(threads, &barrier_sizes);
        assert!(r.makespan.ns() > 0);
        // All generations unmapped: no frames left live.
        assert_eq!(machine.frames.live_total(), 0, "munmap recycled frames");
        assert!(machine.frames.freed_total() > 0);
    }

    #[test]
    fn distinct_tenants_distinct_schedules() {
        let topo = Arc::new(numa_topology::presets::opteron_4p());
        let profile = TenantProfile::default();
        let run = |id| {
            let TenantRun {
                mut machine,
                threads,
                barrier_sizes,
            } = build_tenant(&topo, id, &profile);
            machine.run(threads, &barrier_sizes).makespan
        };
        assert_ne!(run(1), run(2), "seeded variation");
        assert_eq!(run(3), run(3), "reproducible");
    }
}
