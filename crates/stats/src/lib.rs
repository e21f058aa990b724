//! Instrumentation primitives for the `numa-migrate` simulator.
//!
//! Everything the experiment harness prints — per-component cost breakdowns
//! (paper Figure 6), event counters, page-table statistics, JSON documents,
//! and the aligned text/CSV tables that mirror the paper's figures — is built
//! from the types in this crate.
//!
//! The crate sits at the bottom of the workspace dependency graph so that the
//! VM, kernel and machine layers can all record into the same structures.

pub mod breakdown;
pub mod counters;
pub mod json;
pub mod memstats;
pub mod table;

pub use breakdown::{Breakdown, CostComponent};
pub use counters::{Counter, Counters};
pub use json::Json;
pub use memstats::PtStats;
pub use table::Table;

/// Throughput in MB/s given a byte count and a duration in nanoseconds.
///
/// This is the unit used by every throughput figure in the paper
/// (Figures 4, 5 and 7). Returns 0.0 for a zero-duration interval so that
/// degenerate measurements render as an obviously-wrong value rather than
/// panicking mid-sweep.
pub fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    // bytes/ns == GB/s; scale to MB/s.
    (bytes as f64 / ns as f64) * 1000.0
}

/// Format a nanosecond count as a human-readable duration.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_per_s_basic() {
        // 1 GB in 1 second = 1000 MB/s.
        assert!((mb_per_s(1_000_000_000, 1_000_000_000) - 1000.0).abs() < 1e-9);
        // 4 kB in 4 us = 1000 MB/s.
        assert!((mb_per_s(4096, 4096) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn mb_per_s_zero_duration() {
        assert_eq!(mb_per_s(4096, 0), 0.0);
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_500_000), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000 s");
    }
}
