//! Figure 8: "Execution time of 16 concurrent BLAS3 matrix
//! multiplications within 16 independent threads".
//!
//! Three curves — static allocation (everything first-touched on node 0),
//! kernel next-touch, user-space next-touch — over matrix sizes 128..2048.
//!
//! Expected shape (§4.5): below ~512 the working set fits in the shared
//! L3 and migration cannot pay off; at 512 "data locality becomes
//! critical" and both next-touch variants beat static, the kernel one by
//! more than the user one.

use crate::system::NumaSystem;
use numa_apps::gemm::{run_indep_gemm, IndepGemmConfig};
use numa_rt::MigrationStrategy;

/// One row of the Figure-8 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Matrix dimension (per thread).
    pub n: u64,
    /// Static allocation time, seconds (virtual).
    pub static_s: f64,
    /// Kernel next-touch time, seconds (virtual).
    pub kernel_nt_s: f64,
    /// User-space next-touch time, seconds (virtual).
    pub user_nt_s: f64,
}

/// The paper's matrix-size axis.
pub fn paper_sizes() -> Vec<u64> {
    vec![128, 256, 512, 1024, 2048]
}

/// Run one matrix size across the three strategies.
pub fn run_case(n: u64) -> Fig8Row {
    let time = |strategy: MigrationStrategy| {
        let mut m = NumaSystem::new().build();
        run_indep_gemm(&mut m, &IndepGemmConfig::paper(n, strategy))
            .0
            .makespan
            .secs_f64()
    };
    Fig8Row {
        n,
        static_s: time(MigrationStrategy::Static),
        kernel_nt_s: time(MigrationStrategy::KernelNextTouch),
        user_nt_s: time(MigrationStrategy::UserNextTouch),
    }
}

/// Run the whole sweep, the items distributed over `jobs` host threads.
/// Items are independent (fresh machine each), so the rows are the same,
/// in the same order, for any `jobs`.
pub fn run(sizes: &[u64], jobs: usize) -> Vec<Fig8Row> {
    threadpool::par_map(jobs, sizes, |_, &n| run_case(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_sits_at_512() {
        let small = run_case(128);
        let big = run_case(512);
        // Below the cache: static does not lose.
        assert!(
            small.static_s <= small.kernel_nt_s * 1.02,
            "static {:.4}s vs kernel NT {:.4}s at n=128",
            small.static_s,
            small.kernel_nt_s
        );
        // At 512: both migration variants win.
        assert!(
            big.kernel_nt_s < big.static_s,
            "kernel NT {:.3}s must beat static {:.3}s at n=512",
            big.kernel_nt_s,
            big.static_s
        );
        assert!(
            big.user_nt_s < big.static_s,
            "user NT {:.3}s must beat static {:.3}s at n=512",
            big.user_nt_s,
            big.static_s
        );
        // Kernel NT at least matches user NT.
        assert!(big.kernel_nt_s <= big.user_nt_s * 1.02);
    }

    #[test]
    fn times_grow_steeply_past_the_cache() {
        // Doubling n is at least the cubic 8x; crossing the L3 boundary
        // at 512 adds a (paper-visible) super-cubic cliff on top because
        // all reuse traffic suddenly pays DRAM and NUMA costs.
        let rows = run(&[256, 512], 1);
        let ratio = rows[1].static_s / rows[0].static_s;
        assert!(
            (8.0..120.0).contains(&ratio),
            "doubling n across the cache edge: got {ratio}"
        );
    }
}
