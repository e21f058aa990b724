//! The user-space runtime.
//!
//! What an application links against on the paper's machine:
//!
//! * [`buffer`] — NUMA-aware allocation (`numa_alloc_*` analogues);
//! * [`next_touch`] — the **user-space** next-touch library of §3.2
//!   (Figure 1): `mprotect(PROT_NONE)` marking, a SIGSEGV handler that
//!   migrates whole registered regions with `move_pages` and restores
//!   protection;
//! * [`lazy`] — the migration-strategy helpers: synchronous `move_pages`,
//!   kernel next-touch marking, and the §3.4 *lazy migration* idiom;
//! * [`omp`] — an OpenMP-like runtime: teams, `parallel_for` with static
//!   and dynamic schedules, single regions, implicit barriers — what the
//!   paper's `#pragma omp parallel for` loops compile to;
//! * [`setup`] — zero-cost experiment setup (pre-populating buffers on
//!   chosen nodes before the timed run);
//! * [`autobalance`] — an AutoNUMA-style *automatic* balancer (periodic
//!   sampling scans instead of application hooks), for comparing the
//!   paper's explicit next-touch against what Linux later mainlined.

pub mod autobalance;
pub mod buffer;
pub mod lazy;
pub mod next_touch;
pub mod omp;
pub mod setup;
pub mod tenant;

pub use autobalance::AutoBalanceState;
pub use buffer::Buffer;
pub use lazy::MigrationStrategy;
pub use next_touch::UserNextTouch;
pub use omp::{Schedule, Team, WorkPlan};
pub use tenant::{build_tenant, TenantProfile};
