//! The workload traffic model.
//!
//! The simulator charges a block operation's memory cost as a *byte
//! volume* spread over the pages it touches (see `Op::AccessStrided`).
//! This module fixes how many bytes a kernel of a given flop count moves.
//!
//! Calibration target: the paper's LU numbers imply an effective rate of
//! ~0.25–1.1 GFlop/s per core (Table 1: e.g. 8k×8k static in 87.5 s over
//! 16 threads ≈ 0.26 GFlop/s/core) on cores whose SSE2 peak is 3.8 — their
//! BLAS was strongly memory-bound. A naive-to-moderately-blocked GEMM
//! misses on roughly one operand element per inner iteration, i.e. about
//! 2 bytes of DRAM traffic per flop when tiles exceed the cache; with a
//! ~3 GB/s per-core DRAM path that lands in exactly the observed band.

/// DRAM bytes moved per floating-point operation by a BLAS3-class kernel
/// whose working set exceeds the shared L3.
pub const BLAS3_BYTES_PER_FLOP: f64 = 2.0;

/// Efficiency (fraction of core peak) of the BLAS3 compute itself,
/// excluding memory stalls (the simulator charges those separately).
pub const BLAS3_EFFICIENCY: f64 = 0.80;

/// Efficiency for the small, latency-bound dgetrf/dtrsm panel kernels.
pub const PANEL_EFFICIENCY: f64 = 0.50;

/// DRAM traffic of a `bs x bs` GEMM update (`C -= A * B`), in bytes.
pub fn gemm_traffic(bs: u64) -> u64 {
    (gemm_flops(bs) as f64 * BLAS3_BYTES_PER_FLOP) as u64
}

/// Flops of a `bs x bs` GEMM update.
pub fn gemm_flops(bs: u64) -> u64 {
    2 * bs * bs * bs
}

/// Flops of an unblocked LU factorization of a `bs x bs` tile.
pub fn getrf_flops(bs: u64) -> u64 {
    2 * bs * bs * bs / 3
}

/// DRAM traffic of the `bs x bs` dgetrf tile kernel.
pub fn getrf_traffic(bs: u64) -> u64 {
    (getrf_flops(bs) as f64 * BLAS3_BYTES_PER_FLOP) as u64
}

/// Flops of a triangular solve of a `bs x bs` tile against a `bs x bs`
/// triangle.
pub fn trsm_flops(bs: u64) -> u64 {
    bs * bs * bs
}

/// DRAM traffic of the `bs x bs` dtrsm tile kernel.
pub fn trsm_traffic(bs: u64) -> u64 {
    (trsm_flops(bs) as f64 * BLAS3_BYTES_PER_FLOP) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total flops of an `n x n` LU factorization (2/3 n^3 to leading
    /// order): the closed form the blocked kernel counts are checked
    /// against.
    fn lu_total_flops(n: u64) -> u64 {
        2 * n * n * n / 3
    }

    #[test]
    fn traffic_scales_cubically() {
        assert_eq!(gemm_flops(2), 16);
        assert!(gemm_traffic(512) > gemm_traffic(256) * 7);
        assert!(gemm_traffic(512) < gemm_traffic(256) * 9);
    }

    #[test]
    fn flop_counts_consistent() {
        // One step of blocked LU on a 2x2 block grid must account for
        // roughly the full factorization cost.
        let bs = 64;
        let step = getrf_flops(bs) + 2 * trsm_flops(bs) + gemm_flops(bs);
        let full = lu_total_flops(2 * bs);
        // Blocked flops within 20% of the closed form (lower-order terms).
        let ratio = step as f64 / full as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn implied_core_rate_matches_paper_band() {
        // With 2 bytes/flop at 3 GB/s a memory-bound core sustains
        // ~1.5 GFlop/s before NUMA penalties and contention — the paper's
        // numbers (0.25–1.1 after those penalties) must sit below this.
        let implied = 3.0 / BLAS3_BYTES_PER_FLOP; // GFlop/s
        assert!((1.0..2.5).contains(&implied));
    }
}
