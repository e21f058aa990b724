//! Table 1: "Execution time of the LU matrix factorization with 16 OpenMP
//! threads" — static interleaved allocation vs the kernel next-touch
//! policy across matrix and block sizes.
//!
//! Expected shape (§4.5): next-touch *loses* for small blocks (a 4 kB page
//! holds column segments of several vertically-adjacent blocks, so a
//! single touch drags neighbours' rows along and pages ping-pong between
//! owners every iteration), and *wins* increasingly for `bs >= 512`
//! (one block column segment = one page = independent migration) on large
//! matrices, where congestion on the HyperTransport links makes locality
//! decisive.

use crate::system::NumaSystem;
use numa_apps::lu::{run_lu, LuConfig};
use numa_rt::MigrationStrategy;

/// One row of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Matrix dimension.
    pub n: u64,
    /// Block dimension.
    pub bs: u64,
    /// Static-interleave factorization time, seconds (virtual).
    pub static_s: f64,
    /// Kernel next-touch factorization time, seconds (virtual).
    pub next_touch_s: f64,
}

impl Table1Row {
    /// The paper's "Improvement" column: positive when next-touch wins.
    pub fn improvement_percent(&self) -> f64 {
        (self.static_s / self.next_touch_s - 1.0) * 100.0
    }
}

/// The (matrix, block) size pairs of the paper's Table 1.
pub fn paper_cases() -> Vec<(u64, u64)> {
    vec![
        (4096, 64),
        (4096, 128),
        (4096, 256),
        (8192, 128),
        (8192, 256),
        (8192, 512),
        (16384, 256),
        (16384, 512),
        (16384, 1024),
        (32768, 256),
        (32768, 512),
    ]
}

/// A reduced case list that keeps the qualitative contrast (fast enough
/// for tests and default bench runs).
pub fn quick_cases() -> Vec<(u64, u64)> {
    vec![(2048, 64), (2048, 128), (4096, 512), (8192, 512)]
}

/// Time one (n, bs, strategy) cell on a fresh machine (phantom numerics).
fn time_cell(n: u64, bs: u64, strategy: MigrationStrategy) -> f64 {
    let mut m = NumaSystem::new().build();
    run_lu(&mut m, &LuConfig::sweep(n, bs, strategy))
        .time
        .secs_f64()
}

/// Run one (n, bs) cell for both strategies (phantom numerics).
pub fn run_case(n: u64, bs: u64) -> Table1Row {
    Table1Row {
        n,
        bs,
        static_s: time_cell(n, bs, MigrationStrategy::Static),
        next_touch_s: time_cell(n, bs, MigrationStrategy::KernelNextTouch),
    }
}

/// Run a list of cases, distributed over `jobs` host threads. The unit
/// of distribution is one (case, strategy) *cell*, not a whole row: each
/// cell runs on its own fresh machine, so splitting a row's two
/// strategies across workers changes nothing about the results while
/// halving the longest schedulable unit (the biggest case's next-touch
/// run no longer rides behind its static run on one worker). Rows are
/// reassembled in case order — identical for any `jobs`.
pub fn run(cases: &[(u64, u64)], jobs: usize) -> Vec<Table1Row> {
    let cells: Vec<(u64, u64, MigrationStrategy)> = cases
        .iter()
        .flat_map(|&(n, bs)| {
            [
                (n, bs, MigrationStrategy::Static),
                (n, bs, MigrationStrategy::KernelNextTouch),
            ]
        })
        .collect();
    let times = threadpool::par_map(jobs, &cells, |_, &(n, bs, strategy)| {
        time_cell(n, bs, strategy)
    });
    cases
        .iter()
        .zip(times.chunks_exact(2))
        .map(|(&(n, bs), pair)| Table1Row {
            n,
            bs,
            static_s: pair[0],
            next_touch_s: pair[1],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_touch_wins_big_blocks_large_matrix() {
        let row = run_case(4096, 512);
        assert!(
            row.improvement_percent() > 5.0,
            "expected a next-touch win at 4k/512, got {:+.1}% (static {:.3}s, nt {:.3}s)",
            row.improvement_percent(),
            row.static_s,
            row.next_touch_s
        );
    }

    #[test]
    fn next_touch_loses_small_blocks() {
        // 64x64 blocks: 512-byte column segments, 8 blocks per page.
        let row = run_case(1024, 64);
        assert!(
            row.improvement_percent() < 0.0,
            "expected a next-touch loss at 1k/64, got {:+.1}%",
            row.improvement_percent()
        );
    }

    #[test]
    fn improvement_grows_with_block_size() {
        let small = run_case(4096, 64);
        let large = run_case(4096, 512);
        assert!(
            large.improvement_percent() > small.improvement_percent(),
            "improvement must grow with block size: {:+.1}% -> {:+.1}%",
            small.improvement_percent(),
            large.improvement_percent()
        );
    }
}
