//! Host-time benchmark of the simulator: three workloads (`lu`,
//! `migrate`, `churn`), five end-to-end metrics from untraced runs, and
//! per-layer metrics from a traced run. See README.md.

pub mod churn;
pub mod harness;
pub mod lu;
pub mod migrate;
pub mod trace;

use harness::Workload;

/// Workload names, in the order the traced run visits them.
pub const WORKLOADS: [&str; 3] = ["lu", "migrate", "churn"];

/// The benchmark-sized workload `name` with inputs from `seed`, and the
/// output digest its repetitions must produce (`None`: the first
/// repetition's). `None` for an unknown name.
pub fn workload(name: &str, seed: u64) -> Option<(Box<dyn Workload>, Option<u64>)> {
    Some(match name {
        "lu" => (Box::new(lu::Lu::quick()), Some(lu::QUICK_DIGEST)),
        "migrate" => (Box::new(migrate::Migrate::new(seed, migrate::PAGES)), None),
        "churn" => (
            Box::new(churn::Churn::new(
                seed,
                numa_migrate::experiments::multitenant::TENANTS_FULL,
            )),
            None,
        ),
        _ => return None,
    })
}
