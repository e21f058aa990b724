//! The paper's closing outlook (§6): "We are now running similar
//! experiments on larger NUMA machines where data locality is more
//! critical to the overall performance, making the Next-touch policy even
//! more interesting."
//!
//! This experiment runs the independent-GEMM workload (Figure 8's shape)
//! on the 2-, 4- and 8-node presets with one thread per core, and reports
//! the next-touch improvement per machine. More nodes mean a larger
//! remote fraction under static node-0 allocation (1/2, 3/4, 7/8) and
//! longer average hop distances, so the improvement must grow with the
//! machine.

use crate::system::{NumaSystem, Platform};
use numa_apps::gemm::{run_indep_gemm, IndepGemmConfig};
use numa_apps::matrix::DataMode;
use numa_rt::MigrationStrategy;

/// One machine's result.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Number of NUMA nodes.
    pub nodes: usize,
    /// Number of threads (one per core).
    pub threads: usize,
    /// Static time, seconds (virtual).
    pub static_s: f64,
    /// Kernel next-touch time, seconds (virtual).
    pub next_touch_s: f64,
}

impl ScalingRow {
    /// Next-touch improvement over static, percent.
    pub fn improvement_percent(&self) -> f64 {
        (self.static_s / self.next_touch_s - 1.0) * 100.0
    }
}

/// Run the sweep over machine sizes at matrix dimension `n` per thread,
/// the platforms distributed over `jobs` host threads. Platforms are
/// independent (fresh machine each), so the rows are the same, in the
/// same order, for any `jobs`.
pub fn run(n: u64, jobs: usize) -> Vec<ScalingRow> {
    let platforms = [Platform::TwoNode, Platform::Opteron4P, Platform::EightNode];
    threadpool::par_map(jobs, &platforms, |_, &platform| run_platform(platform, n))
}

/// Run one platform's static-vs-next-touch pair.
fn run_platform(platform: Platform, n: u64) -> ScalingRow {
    let time = |strategy: MigrationStrategy| {
        let mut m = NumaSystem::new().platform(platform).build();
        let threads = m.topology().core_count();
        let cfg = IndepGemmConfig {
            n,
            threads,
            strategy,
            mode: DataMode::Phantom,
        };
        let r = run_indep_gemm(&mut m, &cfg).0.makespan.secs_f64();
        (r, threads)
    };
    let (static_s, threads) = time(MigrationStrategy::Static);
    let (next_touch_s, _) = time(MigrationStrategy::KernelNextTouch);
    let nodes = match platform {
        Platform::TwoNode => 2,
        Platform::Opteron4P => 4,
        Platform::EightNode => 8,
        Platform::Tiered4p2 => 6,
    };
    ScalingRow {
        nodes,
        threads,
        static_s,
        next_touch_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_grows_with_machine_size() {
        let rows = run(512, 1);
        assert_eq!(rows.len(), 3);
        for w in rows.windows(2) {
            assert!(
                w[1].improvement_percent() > w[0].improvement_percent(),
                "{}-node improvement {:+.1}% must exceed {}-node {:+.1}%",
                w[1].nodes,
                w[1].improvement_percent(),
                w[0].nodes,
                w[0].improvement_percent()
            );
        }
        // And next-touch must win on the biggest machine.
        assert!(rows[2].improvement_percent() > 20.0);
    }
}
