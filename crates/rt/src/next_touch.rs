//! The user-space next-touch library (paper §3.2, Figure 1).
//!
//! Marking: `mprotect(PROT_NONE)` over the buffer, remembering the region
//! in a registry. Faulting: the kernel raises SIGSEGV; the handler looks
//! up the registered region containing the faulting address, migrates the
//! *entire region* to the toucher's node with `move_pages` (this is the
//! variable-granularity advantage the paper highlights: "the user library
//! may migrate larger or more complex areas (for instance a matrix
//! column)"), restores the protection with a second `mprotect`, and
//! returns so the faulting access can retry.
//!
//! ```
//! use numa_machine::{Machine, MemAccessKind, Op, ThreadSpec};
//! use numa_rt::{setup, Buffer, UserNextTouch};
//! use numa_topology::{CoreId, NodeId};
//!
//! let mut machine = Machine::opteron_4p();
//! let buf = Buffer::alloc(&mut machine, 1 << 20);
//! setup::populate_on_node(&mut machine, &buf, NodeId(0));
//!
//! let nt = UserNextTouch::new();
//! machine.set_segv_handler(nt.handler());
//! let mut ops = nt.mark_ops(&buf);
//! // Touch one byte from a node-3 core: the whole region follows.
//! ops.push(Op::read(buf.addr, 1, MemAccessKind::Stream));
//! machine.run(vec![ThreadSpec::scripted(CoreId(12), ops)], &[]);
//! assert_eq!(machine.page_node(buf.addr), Some(NodeId(3)));
//! ```

use crate::buffer::Buffer;
use numa_kernel::PageStatus;
use numa_machine::{Machine, Op, RunStats, SegvHandler};
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::{CostComponent, Counter};
use numa_topology::CoreId;
use numa_vm::{PageRange, Protection, VirtAddr};
use std::cell::RefCell;
use std::rc::Rc;

/// Re-issues of a transiently failed (`EBUSY`) page after the handler's
/// first `move_pages` attempt, before the page is left on its source
/// node.
const RETRY_ATTEMPTS: u32 = 3;

/// Virtual time waited before each re-issue, in ns — comfortably longer
/// than a page copy, so a genuinely transient holder has time to drain.
/// The wait extends the caller's makespan but is not charged to any cost
/// component: it is idle time, not work.
const RETRY_BACKOFF_NS: u64 = 5_000;

/// One registered migrate-on-next-touch region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    range: PageRange,
    /// Protection to restore after migration.
    restore: Protection,
}

/// Shared registry between the marking API and the signal handler.
type Registry = Rc<RefCell<Vec<Region>>>;

/// The user-space next-touch runtime.
///
/// Create one, install [`UserNextTouch::handler`] on the machine, then
/// emit [`UserNextTouch::mark_ops`] from the thread that wants to mark a
/// buffer. Every region is migrated at most once per marking.
#[derive(Debug, Clone, Default)]
pub struct UserNextTouch {
    registry: Registry,
}

impl UserNextTouch {
    /// A fresh runtime with an empty registry.
    pub fn new() -> Self {
        UserNextTouch::default()
    }

    /// The SIGSEGV handler to install via
    /// [`Machine::set_segv_handler`].
    pub fn handler(&self) -> Box<dyn SegvHandler> {
        Box::new(NtSegvHandler {
            registry: Rc::clone(&self.registry),
        })
    }

    /// Ops that mark `buffer` as migrate-on-next-touch at user level, as
    /// one region (whole-buffer granularity).
    pub fn mark_ops(&self, buffer: &Buffer) -> Vec<Op> {
        self.mark_regions_ops(std::slice::from_ref(buffer))
    }

    /// Ops that mark several sub-regions independently (e.g. one region
    /// per matrix column): each region migrates as a unit when any of its
    /// pages is touched.
    pub fn mark_regions_ops(&self, regions: &[Buffer]) -> Vec<Op> {
        let mut ops = Vec::with_capacity(regions.len());
        let mut reg = self.registry.borrow_mut();
        for b in regions {
            let range = b.page_range();
            // Re-marking an already-registered region is idempotent.
            if !reg.iter().any(|r| r.range == range) {
                reg.push(Region {
                    range,
                    restore: Protection::ReadWrite,
                });
            }
            ops.push(Op::Mprotect {
                range,
                prot: Protection::None,
                component: CostComponent::MprotectMark,
            });
        }
        ops
    }

    /// Number of regions still awaiting their next touch.
    pub fn pending(&self) -> usize {
        self.registry.borrow().len()
    }
}

struct NtSegvHandler {
    registry: Registry,
}

impl NtSegvHandler {
    /// Migrate `pages` to `dest`, re-issuing transiently failed (`EBUSY`)
    /// pages up to [`RETRY_ATTEMPTS`] times, [`RETRY_BACKOFF_NS`] apart,
    /// then degrading gracefully: pages that keep failing — or the whole
    /// call, if the syscall itself errors — stay on their source node and
    /// the workload keeps running. Returns the virtual time the last
    /// attempt finished.
    fn move_with_retry(
        &self,
        machine: &mut Machine,
        now: SimTime,
        core: CoreId,
        pages: Vec<VirtAddr>,
        dest: numa_topology::NodeId,
        stats: &mut RunStats,
    ) -> SimTime {
        let mut t = now;
        let mut pending = pages;
        let mut attempts_left = RETRY_ATTEMPTS;
        loop {
            let dest_nodes = vec![dest; pending.len()];
            let r = match machine.kernel.move_pages(
                &mut machine.space,
                &mut machine.frames,
                &mut machine.tlb,
                t,
                core,
                &pending,
                &dest_nodes,
            ) {
                Ok(r) => r,
                Err(_) => {
                    // The whole call failed: degrade rather than abort
                    // the workload — the region simply stays put.
                    for p in &pending {
                        machine.kernel.counters.bump(Counter::MigrationsDegraded);
                        machine.trace.record(
                            t,
                            TraceEventKind::MigrationDegraded {
                                page: p.vpn(),
                                reason: "syscall_error",
                            },
                        );
                    }
                    return t;
                }
            };
            stats.breakdown.merge(&r.outcome.breakdown);
            t = r.outcome.end;
            let busy: Vec<VirtAddr> = pending
                .iter()
                .zip(&r.status)
                .filter(|(_, s)| **s == PageStatus::Busy)
                .map(|(p, _)| *p)
                .collect();
            if busy.is_empty() {
                return t;
            }
            // Degrade when the budget runs out — or earlier, when the
            // kernel's retry-livelock watchdog reports that retries have
            // stopped making progress machine-wide (backing off further
            // would only prolong the livelock).
            let give_up = if attempts_left == 0 {
                Some("retries_exhausted")
            } else if !machine.kernel.watchdog_allow_retry(t) {
                Some("watchdog")
            } else {
                None
            };
            if let Some(reason) = give_up {
                for p in &busy {
                    machine.kernel.counters.bump(Counter::MigrationsGaveUp);
                    machine.trace.record(
                        t,
                        TraceEventKind::MigrationDegraded {
                            page: p.vpn(),
                            reason,
                        },
                    );
                }
                return t;
            }
            for p in &busy {
                machine.kernel.counters.bump(Counter::MigrationRetries);
                machine.trace.record(
                    t,
                    TraceEventKind::MigrationRetry {
                        page: p.vpn(),
                        attempts_left,
                    },
                );
            }
            attempts_left -= 1;
            t += RETRY_BACKOFF_NS;
            pending = busy;
        }
    }
}

impl SegvHandler for NtSegvHandler {
    fn on_segv(
        &mut self,
        machine: &mut Machine,
        tid: usize,
        core: CoreId,
        addr: VirtAddr,
        now: SimTime,
        stats: &mut RunStats,
    ) -> SimTime {
        machine.trace.record_for(
            now,
            tid,
            numa_sim::TraceEventKind::OpStart {
                op: "user_nt_handler",
            },
        );
        // Find and remove the region containing the fault.
        let region = {
            let mut reg = self.registry.borrow_mut();
            let idx = reg.iter().position(|r| r.range.contains(addr.vpn()));
            match idx {
                Some(i) => reg.swap_remove(i),
                None => panic!(
                    "thread {tid} SIGSEGV at {addr} outside any registered \
                     next-touch region — genuine protection bug in the workload"
                ),
            }
        };

        let dest = machine.node_of_core(core);
        // Migrate the whole region to the toucher's node with the
        // (patched) move_pages — region granularity is the point (§3.4).
        // Transient failures are retried a few times; pages that keep
        // failing stay put and the workload continues.
        let pages: Vec<VirtAddr> = region.range.iter().map(VirtAddr::from_vpn).collect();
        let moved_end = self.move_with_retry(machine, now, core, pages, dest, stats);

        // Restore protection so the retried touch (and everyone else)
        // proceeds — even for degraded pages, which must again be
        // accessible at their old home. The expect below is an invariant,
        // not error handling: the handler restores exactly the range it
        // protected earlier, so mprotect can only fail if the registry
        // itself is corrupt.
        let r2 = machine
            .kernel
            .mprotect(
                &mut machine.space,
                &mut machine.tlb,
                moved_end,
                core,
                region.range,
                region.restore,
                CostComponent::MprotectRestore,
            )
            .expect("mprotect restore inside SIGSEGV handler");
        stats.breakdown.merge(&r2.breakdown);
        machine.trace.record_for(
            now,
            tid,
            numa_sim::TraceEventKind::OpEnd {
                op: "user_nt_handler",
                dur_ns: r2.end.since(now),
            },
        );
        r2.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::{MemAccessKind, ThreadSpec};
    use numa_topology::NodeId;
    use numa_vm::PAGE_SIZE;

    /// End-to-end Figure-1 flow: populate on node 0, mark, touch from
    /// node 1, observe the whole region migrated and protection restored.
    #[test]
    fn user_next_touch_migrates_whole_region() {
        let mut m = Machine::two_node();
        let buf = Buffer::alloc(&mut m, 8 * PAGE_SIZE);
        let nt = UserNextTouch::new();
        m.set_segv_handler(nt.handler());

        // Thread 0 on node 0 populates and marks; thread 1 on node 1
        // touches one page after the barrier.
        let mut ops0 = vec![Op::write(buf.addr, buf.len, MemAccessKind::Stream)];
        ops0.extend(nt.mark_ops(&buf));
        ops0.push(Op::Barrier(0));
        let ops1 = vec![
            Op::Barrier(0),
            // Touch only the 3rd page: the whole region must follow.
            Op::read(buf.addr + 2 * PAGE_SIZE, 8, MemAccessKind::Stream),
        ];
        let threads = vec![
            ThreadSpec::scripted(CoreId(0), ops0),
            ThreadSpec::scripted(CoreId(2), ops1),
        ];
        let r = m.run(threads, &[2]);

        for p in 0..8u64 {
            assert_eq!(
                m.page_node(buf.addr + p * PAGE_SIZE),
                Some(NodeId(1)),
                "page {p} must have migrated with the region"
            );
        }
        assert_eq!(nt.pending(), 0, "region consumed by its first touch");
        assert!(
            r.stats.breakdown.get(CostComponent::MovePagesCopy) > 0,
            "user NT path pays move_pages copies"
        );
        assert!(
            r.stats.breakdown.get(CostComponent::PageFaultSignal) > 0,
            "signal delivery must be charged"
        );
        assert!(r.stats.breakdown.get(CostComponent::MprotectRestore) > 0);
    }

    #[test]
    fn per_column_regions_migrate_independently() {
        let mut m = Machine::two_node();
        let buf = Buffer::alloc(&mut m, 8 * PAGE_SIZE);
        let cols: Vec<Buffer> = (0..2)
            .map(|c| buf.slice(c * 4 * PAGE_SIZE, 4 * PAGE_SIZE))
            .collect();
        let nt = UserNextTouch::new();
        m.set_segv_handler(nt.handler());

        let mut ops0 = vec![Op::write(buf.addr, buf.len, MemAccessKind::Stream)];
        ops0.extend(nt.mark_regions_ops(&cols));
        ops0.push(Op::Barrier(0));
        let ops1 = vec![
            Op::Barrier(0),
            // Touch only column 1.
            Op::read(cols[1].addr, 8, MemAccessKind::Stream),
        ];
        m.run(
            vec![
                ThreadSpec::scripted(CoreId(0), ops0),
                ThreadSpec::scripted(CoreId(2), ops1),
            ],
            &[2],
        );
        // Column 1 migrated, column 0 did not (still pending).
        assert_eq!(m.page_node(cols[1].addr), Some(NodeId(1)));
        assert_eq!(m.page_node(cols[0].addr), Some(NodeId(0)));
        assert_eq!(nt.pending(), 1);
    }

    #[test]
    fn marking_is_idempotent_in_registry() {
        let mut m = Machine::two_node();
        let buf = Buffer::alloc(&mut m, PAGE_SIZE);
        let nt = UserNextTouch::new();
        let _ = nt.mark_ops(&buf);
        let _ = nt.mark_ops(&buf);
        assert_eq!(nt.pending(), 1);
    }
}
