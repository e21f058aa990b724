//! `lu`: the quick Table 1 sweep, one host thread.
//!
//! Each (n, bs) case runs under static interleaving and under kernel
//! next-touch, each cell on a freshly built machine whose caches start
//! empty, as in the paper's runs. Numerics are phantom, so the inputs are
//! the fixed case list and the seed is unused.

use crate::harness::{digest_debug, sim_pages, Clock, Metric, Rep, Workload};
use crate::trace::Tracer;
use numa_migrate::apps::lu::{run_lu, LuConfig, LuResult};
use numa_migrate::experiments::table1::{self, Table1Row};
use numa_migrate::rt::MigrationStrategy;
use numa_migrate::stats::{Counter, Counters};
use numa_migrate::NumaSystem;

/// Digest of the quick sweep's rows; `hostbench` asserts the same value.
pub const QUICK_DIGEST: u64 = 0x0ad2_717d_fdbe_ea57;

/// The `lu` workload over a list of (n, bs) cases.
pub struct Lu {
    cases: Vec<(u64, u64)>,
}

impl Lu {
    /// The workload over `cases`.
    pub fn new(cases: Vec<(u64, u64)>) -> Self {
        Lu { cases }
    }

    /// The benchmark's case list: `table1::quick_cases()`.
    pub fn quick() -> Self {
        Lu::new(table1::quick_cases())
    }
}

fn cell(tracer: &Tracer, n: u64, bs: u64, strategy: MigrationStrategy) -> LuResult {
    let mut machine = tracer.span("core", "build", || NumaSystem::new().build());
    let name = match strategy {
        MigrationStrategy::Static => "run_lu_static",
        _ => "run_lu_nt",
    };
    tracer.span("apps", name, || {
        run_lu(&mut machine, &LuConfig::sweep(n, bs, strategy))
    })
}

impl Workload for Lu {
    fn rep(&mut self, clock: &mut Clock, tracer: &Tracer) -> Rep {
        let cells = clock.time(|| {
            self.cases
                .iter()
                .map(|&(n, bs)| {
                    let s = cell(tracer, n, bs, MigrationStrategy::Static);
                    let nt = cell(tracer, n, bs, MigrationStrategy::KernelNextTouch);
                    (n, bs, s, nt)
                })
                .collect::<Vec<_>>()
        });
        let rows: Vec<Table1Row> = cells
            .iter()
            .map(|(n, bs, s, nt)| Table1Row {
                n: *n,
                bs: *bs,
                static_s: s.time.secs_f64(),
                next_touch_s: nt.time.secs_f64(),
            })
            .collect();

        let mut all = Counters::new();
        let mut static_accesses = 0;
        for (_, _, s, nt) in &cells {
            for r in [s, nt] {
                all.merge(&r.stats.counters);
                all.merge(&r.kernel_counters);
            }
            static_accesses += s.stats.counters.get(Counter::LocalAccesses)
                + s.stats.counters.get(Counter::RemoteAccesses);
        }

        let mut layers = Vec::new();
        if tracer.enabled() {
            let static_s = tracer.total_s("run_lu_static");
            let accesses = all.get(Counter::LocalAccesses) + all.get(Counter::RemoteAccesses);
            layers = vec![
                Metric::new("core.build_s", "s", tracer.total_s("build")),
                Metric::new("apps.run_lu_static_s", "s", static_s),
                Metric::new("apps.run_lu_nt_s", "s", tracer.total_s("run_lu_nt")),
                Metric::new(
                    "machine.ns_per_access",
                    "ns",
                    static_s * 1e9 / static_accesses.max(1) as f64,
                ),
                Metric::new("machine.accesses", "count", accesses as f64),
                Metric::new(
                    "machine.cache_misses",
                    "count",
                    all.get(Counter::CacheMisses) as f64,
                ),
                Metric::new(
                    "kernel.nt_faults",
                    "count",
                    all.get(Counter::NextTouchFaults) as f64,
                ),
                Metric::new(
                    "kernel.pages_moved_fault",
                    "count",
                    all.get(Counter::PagesMovedFault) as f64,
                ),
                Metric::new(
                    "rt.barriers",
                    "count",
                    all.get(Counter::BarriersCompleted) as f64,
                ),
            ];
        }
        Rep {
            digest: digest_debug(&rows),
            sim_pages: sim_pages(&all),
            failures: Vec::new(),
            layers,
        }
    }
}
