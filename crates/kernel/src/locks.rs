//! The kernel lock model.
//!
//! Two locks reproduce the contention the paper measures:
//!
//! * the **mmap lock** (`mmap_sem`): every migration syscall takes it for
//!   its base bookkeeping, which is why "parallelizing the migration does
//!   not bring any improvement for buffers smaller than 1 MB" (§4.4) — the
//!   fixed overheads of concurrent callers serialize;
//! * the **page-table lock**: a configurable fraction of *per-page*
//!   migration work (PTE updates, zone list manipulation) is serialized,
//!   which caps 4-thread scaling at the paper's observed 50–60 %
//!   improvement (Fig. 7, Amdahl with s ≈ 0.5).
//!
//! Both are [`numa_sim::Resource`]s, so waiting time is accounted and shows
//! up in the `LockWait` cost component.

use numa_sim::{Resource, SimTime, Trace, TraceEventKind};
use numa_stats::{Breakdown, CostComponent};
use numa_topology::round_ns;

/// The kernel's lock set.
#[derive(Debug, Clone)]
pub struct LockSet {
    /// `mmap_sem` analogue.
    pub mmap: Resource,
    /// Page-table / zone lock analogue (one machine-wide resource; the
    /// 2.6.27 kernel's locking in this path was similarly coarse).
    pub pt: Resource,
    /// Shared trace handle; records one `LockAcquire` per acquisition.
    trace: Trace,
}

impl Default for LockSet {
    fn default() -> Self {
        LockSet::new()
    }
}

impl LockSet {
    /// Fresh, uncontended locks.
    pub fn new() -> Self {
        LockSet::with_trace(Trace::disabled())
    }

    /// Fresh locks recording acquisitions into `trace`.
    pub fn with_trace(trace: Trace) -> Self {
        LockSet {
            mmap: Resource::new("mmap_lock"),
            pt: Resource::new("pt_lock"),
            trace,
        }
    }

    /// Run `total_ns` of work starting at `now`, of which `fraction` is
    /// serialized under the page-table lock and the rest proceeds in
    /// parallel with other threads. Charges the work to `component` and
    /// any queueing delay to `LockWait`. Returns the completion time.
    pub fn pt_serialized(
        &mut self,
        now: SimTime,
        total_ns: u64,
        fraction: f64,
        component: CostComponent,
        breakdown: &mut Breakdown,
    ) -> SimTime {
        debug_assert!((0.0..=1.0).contains(&fraction));
        let serial = round_ns(total_ns as f64 * fraction);
        let parallel = total_ns - serial.min(total_ns);
        let acq = self.pt.acquire(now, serial);
        breakdown.add(component, total_ns);
        breakdown.add(CostComponent::LockWait, acq.wait_ns);
        self.trace.record(
            now,
            TraceEventKind::LockAcquire {
                name: "pt_lock",
                wait_ns: acq.wait_ns,
                hold_ns: serial,
            },
        );
        acq.end + parallel
    }

    /// Take the mmap lock for `hold_ns` starting at `now` (syscall base
    /// bookkeeping). Charges the hold to `component` and queueing to
    /// `LockWait`. Returns the completion time.
    pub fn mmap_locked(
        &mut self,
        now: SimTime,
        hold_ns: u64,
        component: CostComponent,
        breakdown: &mut Breakdown,
    ) -> SimTime {
        let acq = self.mmap.acquire(now, hold_ns);
        breakdown.add(component, hold_ns);
        breakdown.add(CostComponent::LockWait, acq.wait_ns);
        self.trace.record(
            now,
            TraceEventKind::LockAcquire {
                name: "mmap_lock",
                wait_ns: acq.wait_ns,
                hold_ns,
            },
        );
        acq.end
    }

    /// Reset both locks (between experiment repetitions).
    pub fn reset(&mut self) {
        self.mmap.reset();
        self.pt.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pt_serialized_splits_work() {
        let mut l = LockSet::new();
        let mut b = Breakdown::new();
        // 100 ns of work, half serialized, uncontended: completes at 100.
        let end = l.pt_serialized(SimTime(0), 100, 0.5, CostComponent::FaultControl, &mut b);
        assert_eq!(end, SimTime(100));
        assert_eq!(b.get(CostComponent::FaultControl), 100);
        assert_eq!(b.get(CostComponent::LockWait), 0);
    }

    #[test]
    fn two_threads_contend_on_serial_half() {
        let mut l = LockSet::new();
        let mut b = Breakdown::new();
        // Thread A holds the serialized 50 ns first.
        let end_a = l.pt_serialized(SimTime(0), 100, 0.5, CostComponent::FaultControl, &mut b);
        // Thread B arrives at the same instant: waits 50 for the lock,
        // then 50 serial + 50 parallel.
        let end_b = l.pt_serialized(SimTime(0), 100, 0.5, CostComponent::FaultControl, &mut b);
        assert_eq!(end_a, SimTime(100));
        assert_eq!(end_b, SimTime(150));
        assert_eq!(b.get(CostComponent::LockWait), 50);
    }

    #[test]
    fn fully_serialized_gives_no_overlap() {
        let mut l = LockSet::new();
        let mut b = Breakdown::new();
        let e1 = l.pt_serialized(SimTime(0), 100, 1.0, CostComponent::FaultControl, &mut b);
        let e2 = l.pt_serialized(SimTime(0), 100, 1.0, CostComponent::FaultControl, &mut b);
        assert_eq!(e1, SimTime(100));
        assert_eq!(e2, SimTime(200));
    }

    #[test]
    fn mmap_lock_serializes_bases() {
        let mut l = LockSet::new();
        let mut b = Breakdown::new();
        let e1 = l.mmap_locked(SimTime(0), 160_000, CostComponent::MovePagesControl, &mut b);
        let e2 = l.mmap_locked(SimTime(0), 160_000, CostComponent::MovePagesControl, &mut b);
        assert_eq!(e1, SimTime(160_000));
        assert_eq!(e2, SimTime(320_000), "bases must not overlap");
        assert_eq!(b.get(CostComponent::LockWait), 160_000);
    }
}
