//! The threaded blocked LU factorization of §4.5 / Table 1.
//!
//! Right-looking blocked LU without pivoting over a column-major matrix:
//! at step `k` the diagonal block is factorized (single region), the row
//! and column panels are solved (`parallel for`), and the trailing blocks
//! are GEMM-updated (`parallel for`). Exactly like the paper, a
//! next-touch hook runs **at the beginning of each iteration** over the
//! trailing submatrix, "so that the data is redistributed among the NUMA
//! nodes when needed, depending on OpenMP thread access patterns"; the
//! matrix is initially interleaved across all nodes (the best static
//! policy for this bandwidth-bound problem).

use crate::matrix::{DataMode, SimMatrix};
use crate::{blas, model};
use numa_machine::{Machine, Op, RunStats};
use numa_rt::{MigrationStrategy, Schedule, Team, UserNextTouch, WorkPlan};
use numa_sim::SimTime;
use numa_stats::Counters;

/// Parameters of one LU run.
#[derive(Debug, Clone)]
pub struct LuConfig {
    /// Matrix dimension (`n x n` doubles). Must be a multiple of `bs`.
    pub n: u64,
    /// Block dimension.
    pub bs: u64,
    /// Number of OpenMP threads (the paper uses 16, one per core).
    pub threads: usize,
    /// How data follows threads.
    pub strategy: MigrationStrategy,
    /// Loop schedule for the update loops.
    pub schedule: Schedule,
    /// Real numerics or phantom access patterns.
    pub mode: DataMode,
    /// PRNG seed for the matrix fill.
    pub seed: u64,
}

impl LuConfig {
    /// A small real-math configuration (tests, quickstart).
    pub fn small(n: u64, bs: u64) -> LuConfig {
        LuConfig {
            n,
            bs,
            threads: 16,
            strategy: MigrationStrategy::KernelNextTouch,
            schedule: Schedule::Static,
            mode: DataMode::Real,
            seed: 42,
        }
    }

    /// A phantom configuration for parameter sweeps (Table 1 rows).
    ///
    /// Uses `Schedule::Dynamic(1)`: the paper stresses that with the GCC
    /// OpenMP runtime "there is no guarantee about which thread will
    /// compute which block on which processor" (§4.5) — first-come chunk
    /// claiming reproduces that scattering, which is what makes
    /// vertically-adjacent blocks (page-sharing below bs = 512) land on
    /// different threads and ping-pong.
    pub fn sweep(n: u64, bs: u64, strategy: MigrationStrategy) -> LuConfig {
        LuConfig {
            n,
            bs,
            threads: 16,
            strategy,
            schedule: Schedule::Dynamic(1),
            mode: DataMode::Phantom,
            seed: 42,
        }
    }
}

/// Outcome of one LU run.
#[derive(Debug, Clone)]
pub struct LuResult {
    /// Virtual factorization time.
    pub time: SimTime,
    /// Engine statistics (breakdown + access counters).
    pub stats: RunStats,
    /// Kernel counters accumulated during the run.
    pub kernel_counters: Counters,
    /// Max abs error of `L*U` against the original matrix
    /// (`None` in phantom mode).
    pub residual: Option<f64>,
}

/// Factorize on `machine` per `cfg`.
///
/// Panics if `n` is not a multiple of `bs` or the team exceeds the
/// machine's cores — both are experiment-configuration errors.
pub fn run_lu(machine: &mut Machine, cfg: &LuConfig) -> LuResult {
    assert!(cfg.n.is_multiple_of(cfg.bs), "n must be a multiple of bs");
    assert!(cfg.bs >= 2, "block size must be at least 2");
    let nb = cfg.n / cfg.bs;
    assert!(nb >= 1);

    let a = SimMatrix::alloc_interleaved(machine, cfg.n, cfg.mode);
    a.fill_diag_dominant(cfg.seed);
    let original = a.data.as_ref().map(|d| d.borrow().clone());

    // Populate per the interleave policy before the timed region (the
    // paper's initialisation is untimed).
    numa_rt::setup::populate_on_node(machine, &a.buffer, numa_topology::NodeId(0));

    // The user-space next-touch runtime, installed only when used.
    let user_nt = UserNextTouch::new();
    if cfg.strategy == MigrationStrategy::UserNextTouch {
        machine.set_segv_handler(user_nt.handler());
    }

    let mut plan = WorkPlan::new();
    for k in 0..nb {
        add_step_phases(&mut plan, &a, cfg, k, nb, &user_nt);
    }

    let counters_before = machine.kernel.counters.clone();
    let team = Team::all_cores(machine).take(cfg.threads);
    assert!(
        team.len() == cfg.threads,
        "machine has fewer cores than requested threads"
    );
    let result = team.run(machine, plan);
    if cfg.strategy == MigrationStrategy::UserNextTouch {
        machine.clear_segv_handler();
    }

    // Report only this run's events.
    let kernel_counters = machine.kernel.counters.diff(&counters_before);

    let residual = original.map(|orig| {
        let factored = a.snapshot();
        SimMatrix::lu_residual(&orig, &factored, cfg.n as usize)
    });

    LuResult {
        time: result.makespan,
        stats: result.stats,
        kernel_counters,
        residual,
    }
}

/// Append the three phases of LU step `k` (plus the next-touch hook).
fn add_step_phases(
    plan: &mut WorkPlan,
    a: &SimMatrix,
    cfg: &LuConfig,
    k: u64,
    nb: u64,
    user_nt: &UserNextTouch,
) {
    let bs = cfg.bs;
    let n = cfg.n;

    // ------------------------------------------------ next-touch hook
    // Mark the trailing columns at the start of each iteration (§4.5).
    match cfg.strategy {
        MigrationStrategy::Static => {}
        MigrationStrategy::KernelNextTouch => {
            let tail = a.columns_buffer(k * bs, n);
            plan.single(move || {
                vec![Op::MadviseNextTouch {
                    range: tail.page_range(),
                }]
            });
        }
        MigrationStrategy::UserNextTouch => {
            // Region per trailing block column, so columns migrate
            // independently (the granularity §3.4 recommends).
            let regions: Vec<numa_rt::Buffer> = (k..nb)
                .map(|bj| a.columns_buffer(bj * bs, (bj + 1) * bs))
                .collect();
            let nt = user_nt.clone();
            plan.single(move || nt.mark_regions_ops(&regions));
        }
        MigrationStrategy::Sync => {
            // Synchronous redistribution has no sensible single
            // destination for a shared trailing matrix; the paper's
            // comparison is static vs next-touch. Treat as static.
        }
    }

    // ------------------------------------------------ diagonal block
    {
        let a2 = a.clone();
        plan.single(move || {
            a2.with_data(|d, n| {
                blas::dgetrf_nopiv(d, n, (k * bs) as usize, (k * bs) as usize, bs as usize)
            });
            vec![
                a2.block_access(k, k, bs, model::getrf_traffic(bs), true),
                Op::Compute {
                    flops: model::getrf_flops(bs),
                    efficiency: model::PANEL_EFFICIENCY,
                },
            ]
        });
    }

    // ------------------------------------------------ panels
    let panels = (nb - k - 1) * 2;
    if panels > 0 {
        let a2 = a.clone();
        plan.parallel_for(panels as usize, cfg.schedule, move |idx| {
            let i = k + 1 + (idx as u64) / 2;
            let row_panel = idx % 2 == 0;
            let (bi, bj) = if row_panel { (k, i) } else { (i, k) };
            a2.with_data(|d, n| {
                let (kb, ib) = ((k * bs) as usize, (i * bs) as usize);
                if row_panel {
                    blas::dtrsm_lower_unit(d, n, kb, kb, kb, ib, bs as usize);
                } else {
                    blas::dtrsm_upper(d, n, kb, kb, ib, kb, bs as usize);
                }
            });
            vec![
                a2.block_access(k, k, bs, model::trsm_traffic(bs) / 2, false),
                a2.block_access(bi, bj, bs, model::trsm_traffic(bs) / 2, true),
                Op::Compute {
                    flops: model::trsm_flops(bs),
                    efficiency: model::PANEL_EFFICIENCY,
                },
            ]
        });
    }

    // ------------------------------------------------ trailing update
    let w = nb - k - 1;
    if w > 0 {
        let a2 = a.clone();
        plan.parallel_for((w * w) as usize, cfg.schedule, move |idx| {
            let i = k + 1 + (idx as u64) % w;
            let j = k + 1 + (idx as u64) / w;
            a2.with_data(|d, n| {
                blas::dgemm_block(
                    d,
                    n,
                    (i * bs) as usize,
                    (j * bs) as usize,
                    (i * bs) as usize,
                    (k * bs) as usize,
                    (k * bs) as usize,
                    (j * bs) as usize,
                    bs as usize,
                )
            });
            let traffic = model::gemm_traffic(bs);
            vec![
                a2.block_access(i, k, bs, traffic * 2 / 5, false),
                a2.block_access(k, j, bs, traffic * 2 / 5, false),
                a2.block_access(i, j, bs, traffic / 5, true),
                Op::Compute {
                    flops: model::gemm_flops(bs),
                    efficiency: model::BLAS3_EFFICIENCY,
                },
            ]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_stats::Counter;

    #[test]
    fn real_lu_is_numerically_correct_static() {
        let mut m = Machine::opteron_4p();
        let cfg = LuConfig {
            strategy: MigrationStrategy::Static,
            ..LuConfig::small(64, 16)
        };
        let r = run_lu(&mut m, &cfg);
        let resid = r.residual.unwrap();
        assert!(resid < 1e-9, "residual {resid}");
        assert!(r.time > SimTime::ZERO);
    }

    #[test]
    fn real_lu_is_numerically_correct_with_kernel_next_touch() {
        let mut m = Machine::opteron_4p();
        let cfg = LuConfig {
            strategy: MigrationStrategy::KernelNextTouch,
            ..LuConfig::small(64, 16)
        };
        let r = run_lu(&mut m, &cfg);
        let resid = r.residual.unwrap();
        assert!(resid < 1e-9, "residual {resid}");
        assert!(
            r.kernel_counters.get(Counter::PagesMarkedNextTouch) > 0,
            "hook must have marked pages"
        );
        assert!(r.kernel_counters.get(Counter::NextTouchFaults) > 0);
    }

    #[test]
    fn real_lu_with_user_next_touch_still_correct() {
        let mut m = Machine::opteron_4p();
        let cfg = LuConfig {
            strategy: MigrationStrategy::UserNextTouch,
            ..LuConfig::small(64, 16)
        };
        let r = run_lu(&mut m, &cfg);
        let resid = r.residual.unwrap();
        assert!(resid < 1e-9, "residual {resid}");
        assert!(r.kernel_counters.get(Counter::SegvSignals) > 0);
    }

    #[test]
    fn dynamic_schedule_also_correct() {
        let mut m = Machine::opteron_4p();
        let cfg = LuConfig {
            schedule: Schedule::Dynamic(1),
            ..LuConfig::small(48, 16)
        };
        let r = run_lu(&mut m, &cfg);
        assert!(r.residual.unwrap() < 1e-9);
    }

    #[test]
    fn phantom_mode_runs_and_times() {
        let mut m = Machine::opteron_4p();
        let cfg = LuConfig::sweep(256, 64, MigrationStrategy::Static);
        let r = run_lu(&mut m, &cfg);
        assert!(r.residual.is_none());
        assert!(r.time > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "multiple of bs")]
    fn bad_block_size_rejected() {
        let mut m = Machine::opteron_4p();
        run_lu(&mut m, &LuConfig::small(100, 16));
    }
}
