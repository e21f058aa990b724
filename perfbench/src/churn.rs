//! `churn`: the multitenant run on the sharded engine, with host
//! parallelism.
//!
//! `run_sharded` over `build_tenant` tenants at the `multitenant`
//! experiment's shard configuration, eight shards on two workers. The
//! seed is the tenants' `TenantProfile::seed`.

use crate::harness::{digest_debug, sim_pages, Clock, Metric, Rep, Workload};
use crate::trace::Tracer;
use numa_migrate::experiments::multitenant;
use numa_migrate::machine::{run_sharded, ShardConfig, ShardedRunResult};
use numa_migrate::rt::{build_tenant, TenantProfile};
use numa_migrate::stats::{Counter, Counters};
use numa_migrate::topology::{presets, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Shards of the benchmark's run.
const SHARDS: usize = 8;
/// Host workers of the benchmark's run (the container's CPU count).
const JOBS: usize = 2;

/// The `churn` workload.
pub struct Churn {
    topo: Arc<Topology>,
    profile: TenantProfile,
    tenants: usize,
}

impl Churn {
    /// `tenants` churn tenants with workload seed `seed`.
    pub fn new(seed: u64, tenants: usize) -> Self {
        Churn {
            topo: Arc::new(presets::opteron_4p()),
            profile: TenantProfile {
                seed,
                ..TenantProfile::default()
            },
            tenants,
        }
    }

    fn run(&self, cfg: &ShardConfig, tracer: &Tracer) -> ShardedRunResult {
        tracer.span("machine", "run_sharded", || {
            run_sharded(&self.topo, self.tenants, cfg, |id| {
                tracer.span("rt", "build_tenant", || {
                    build_tenant(&self.topo, id, &self.profile)
                })
            })
        })
    }
}

/// Everything a run reports that must not depend on the shard packing.
fn outcome_digest(r: &ShardedRunResult) -> u64 {
    digest_debug(&(
        &r.tenant_makespans,
        &r.stats,
        &r.kernel_counters,
        (r.windows, r.windows_skipped, r.window_ns, r.flush_windows),
        (r.ledger_grants, r.ledger_denials, r.ledger_yields),
    ))
}

impl Workload for Churn {
    fn rep(&mut self, clock: &mut Clock, tracer: &Tracer) -> Rep {
        let sharded = multitenant::config(SHARDS, JOBS);
        let r = clock.time(|| self.run(&sharded, tracer));
        let digest = outcome_digest(&r);
        let mut all = Counters::new();
        all.merge(&r.stats.counters);
        all.merge(&r.kernel_counters);

        let mut failures = Vec::new();
        let mut layers = Vec::new();
        if tracer.enabled() {
            // The serial run of the same tenants: the baseline of the
            // shard speedup, and a second opinion on the outcome.
            let t0 = Instant::now();
            let serial = self.run(&multitenant::config(1, 1), &Tracer::off());
            let serial_s = t0.elapsed().as_secs_f64();
            if outcome_digest(&serial) != digest {
                failures.push("sharded outcome differs from the serial outcome".into());
            }
            let wall = clock.wall_s();
            let workers = JOBS
                .min(SHARDS)
                .min(std::thread::available_parallelism().map_or(1, |n| n.get()));
            let run_end = tracer.last_end_ns("run_sharded");
            let build_end = tracer.last_end_ns("build_tenant");
            let windows_s = run_end.saturating_sub(build_end) as f64 * 1e-9;
            let build_s = tracer.total_s("build_tenant");
            let k = &r.kernel_counters;
            let grants = r.ledger_grants as f64;
            let count = |name: &str, v: u64| Metric::new(name, "count", v as f64);
            layers = vec![
                Metric::new("rt.build_tenant_s", "s", build_s),
                Metric::new(
                    "rt.ns_per_tenant",
                    "ns",
                    build_s * 1e9 / self.tenants.max(1) as f64,
                ),
                Metric::new("machine.windows_s", "s", windows_s),
                Metric::new(
                    "machine.ns_per_window",
                    "ns",
                    windows_s * 1e9 / r.windows.max(1) as f64,
                ),
                Metric::new("machine.shard_speedup", "ratio", serial_s / wall),
                Metric::new(
                    "machine.worker_busy",
                    "ratio",
                    clock.cpu_s() / (workers as f64 * wall),
                ),
                count("machine.windows", r.windows),
                count("machine.windows_skipped", r.windows_skipped),
                count("machine.flush_windows", r.flush_windows),
                count("vm.ledger_grants", r.ledger_grants),
                count("vm.ledger_denials", r.ledger_denials),
                count("vm.ledger_yields", r.ledger_yields),
                Metric::new(
                    "vm.ledger_grant_ratio",
                    "ratio",
                    grants / (grants + r.ledger_denials as f64).max(1.0),
                ),
                count(
                    "kernel.pages_moved_syscall",
                    k.get(Counter::PagesMovedSyscall),
                ),
                count("kernel.pages_moved_fault", k.get(Counter::PagesMovedFault)),
                count("kernel.frames_freed", k.get(Counter::FramesFreed)),
                count("kernel.oom_kills", k.get(Counter::OomKills)),
            ];
        }
        clock.time(|| drop(r));
        Rep {
            digest,
            sim_pages: sim_pages(&all),
            failures,
            layers,
        }
    }
}
