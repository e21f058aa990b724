//! Automatic NUMA balancing — the road not taken by the paper.
//!
//! The paper's next-touch needs the *application* (or its OpenMP runtime)
//! to say when redistribution is worthwhile (§3.4: "entering a new
//! parallel section is usually a natural event"). What Linux eventually
//! mainlined instead (AutoNUMA, 2012) drops the hint entirely: the kernel
//! periodically unmaps sampled pages so the next touch faults, and
//! migrates pages that fault from a remote node.
//!
//! [`AutoBalanceState`] retrofits that behaviour onto any
//! [`crate::WorkPlan`]: before every phase it splices in a scanner phase
//! that next-touch-marks a *sample* of the registered buffers' pages.
//! Comparing it against the paper's explicit hooks quantifies what the
//! hint is worth: the explicit hook marks exactly the data about to be
//! used, the sampler spends faults on data that never moves and misses
//! data that should.

use crate::buffer::Buffer;
use numa_machine::Op;
use numa_sim::Splitmix64;
use numa_vm::PageRange;

/// Fraction of each buffer's pages marked per scan, in percent
/// (AutoNUMA's task_scan_size analogue).
const SAMPLE_PERCENT: u64 = 30;

/// PRNG seed for sample selection.
const SAMPLE_SEED: u64 = 11;

/// The marking ops of one scan over `buffers`: a deterministic random
/// sample of page runs, [`SAMPLE_PERCENT`] of each buffer.
fn scan_ops(buffers: &[Buffer], scan_index: u64) -> Vec<Op> {
    let mut rng = Splitmix64::new(SAMPLE_SEED ^ scan_index.wrapping_mul(0x9E37));
    let mut ops = Vec::new();
    for b in buffers {
        let range = b.page_range();
        let pages = range.pages();
        if pages == 0 {
            continue;
        }
        let want = (pages * SAMPLE_PERCENT).div_ceil(100).max(1);
        // Mark `want` pages as a handful of contiguous runs (the
        // scanner walks VMAs linearly, so samples are runs, not
        // scattered single pages).
        let runs = want.div_ceil(16).max(1);
        let run_len = want.div_ceil(runs);
        for _ in 0..runs {
            let start = range.start_vpn + rng.below(pages);
            let end = (start + run_len).min(range.end_vpn);
            ops.push(Op::MadviseNextTouch {
                range: PageRange::new(start, end),
            });
        }
    }
    ops
}

/// Splice automatic scans into a plan-building loop: call
/// [`AutoBalanceState::maybe_scan`] once per phase you append; it returns
/// the scanner ops to prepend (as a `single` phase).
#[derive(Debug)]
pub struct AutoBalanceState {
    buffers: Vec<Buffer>,
    scan_count: u64,
}

impl AutoBalanceState {
    /// Track `buffers`.
    pub fn new(buffers: Vec<Buffer>) -> Self {
        AutoBalanceState {
            buffers,
            scan_count: 0,
        }
    }

    /// Advance one phase and return its scan's marking ops, or `None`
    /// when the tracked buffers hold no pages.
    pub fn maybe_scan(&mut self) -> Option<Vec<Op>> {
        self.scan_count += 1;
        let ops = scan_ops(&self.buffers, self.scan_count);
        if ops.is_empty() {
            None
        } else {
            Some(ops)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{Machine, MemAccessKind};
    use numa_rt_test_helpers::*;
    use numa_topology::NodeId;
    use numa_vm::PAGE_SIZE;

    // Local alias so the test body below reads naturally.
    mod numa_rt_test_helpers {
        pub use crate::omp::{Schedule, Team, WorkPlan};
        pub use crate::setup;
    }

    #[test]
    fn scan_ops_are_deterministic_and_bounded() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, 64 * PAGE_SIZE);
        let a1 = scan_ops(&[b], 1);
        let a2 = scan_ops(&[b], 1);
        assert_eq!(a1.len(), a2.len(), "same scan index, same sample");
        let marked: u64 = a1
            .iter()
            .map(|op| match op {
                Op::MadviseNextTouch { range } => range.pages(),
                _ => 0,
            })
            .sum();
        // 30% of 64 pages, within run-rounding slack.
        assert!((8..=24).contains(&marked), "marked {marked}");
        // Different scans sample differently.
        let b1 = scan_ops(&[b], 2);
        assert!(
            a1.iter()
                .zip(&b1)
                .any(|(x, y)| format!("{x:?}") != format!("{y:?}")),
            "scan 2 should differ from scan 1"
        );
    }

    #[test]
    fn periodic_scans_fire_on_schedule() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, 16 * PAGE_SIZE);
        let mut st = AutoBalanceState::new(vec![b]);
        let scans: Vec<String> = (0..4)
            .filter_map(|_| st.maybe_scan())
            .map(|ops| format!("{ops:?}"))
            .collect();
        assert_eq!(scans.len(), 4, "a scan before every phase");
        assert_eq!(
            scans[0],
            format!("{:?}", scan_ops(&[b], 1)),
            "numbered from 1"
        );
        assert_eq!(scans[3], format!("{:?}", scan_ops(&[b], 4)));
        // Nothing tracked, nothing to mark.
        assert!(AutoBalanceState::new(Vec::new()).maybe_scan().is_none());
    }

    /// End-to-end: with all data parked on node 0 and all work on node 1,
    /// automatic scanning migrates a growing fraction of the data without
    /// any application hook — slower to converge than an explicit hook,
    /// but it gets there.
    #[test]
    fn auto_scans_converge_toward_locality() {
        let mut m = Machine::opteron_4p();
        let buf = Buffer::alloc(&mut m, 128 * PAGE_SIZE);
        setup::populate_on_node(&mut m, &buf, NodeId(0));
        let mut st = AutoBalanceState::new(vec![buf]);

        let mut plan = WorkPlan::new();
        for _ in 0..10 {
            if let Some(scan) = st.maybe_scan() {
                plan.single(move || scan.clone());
            }
            // All the work happens on node 1.
            plan.parallel_for(4, Schedule::Static, move |_| {
                vec![Op::Access {
                    addr: buf.addr,
                    bytes: buf.len,
                    traffic: buf.len,
                    write: false,
                    kind: MemAccessKind::Blocked,
                }]
            });
        }
        Team::on_node(&m, NodeId(1)).run(&mut m, plan);

        let hist = setup::residency_histogram(&m, &buf);
        assert!(
            hist[1] > 90,
            "after 10 scans most pages should have migrated to node 1: {hist:?}"
        );
    }
}
