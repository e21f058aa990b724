//! Migration strategies (paper §3.4).
//!
//! A buffer that needs to follow its threads can be moved three ways:
//!
//! * **Synchronous** — `move_pages` right now, paying the full cost up
//!   front whether or not the data is ever touched again;
//! * **Kernel next-touch** — mark with `madvise`; each page migrates
//!   inside the fault of its first toucher (pages never touched never
//!   move);
//! * **Lazy migration** — the §3.4 idiom: the *destination is already
//!   known* (the thread just moved), but instead of a synchronous call the
//!   buffer is marked next-touch so migration happens "in the background"
//!   of the thread's own first accesses, 30 % faster per page and skipping
//!   untouched pages.
//!
//! [`MigrationStrategy`] packages the three so experiments and
//! applications can switch with one parameter.

use crate::buffer::Buffer;
use numa_machine::Op;
use numa_topology::NodeId;

/// How a workload redistributes buffers after thread migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStrategy {
    /// Leave data where it is (the baseline "Static" columns of Table 1
    /// and Figure 8).
    Static,
    /// Synchronous `move_pages` to a known destination.
    Sync,
    /// Kernel next-touch (`madvise`), destination decided by whoever
    /// touches first.
    KernelNextTouch,
    /// User-space next-touch (mprotect + SIGSEGV), whole-region
    /// granularity. The caller must have a
    /// [`crate::UserNextTouch`] handler installed.
    UserNextTouch,
}

impl MigrationStrategy {
    /// Ops that apply this strategy to `buffer`.
    ///
    /// `dest` is required by [`MigrationStrategy::Sync`] (the known
    /// destination) and ignored by the next-touch strategies (the
    /// toucher decides). Panics on a `Sync` without a destination and on
    /// [`MigrationStrategy::UserNextTouch`]: both are API misuse, and the
    /// latter must go through [`crate::UserNextTouch::mark_ops`] so the
    /// region registry stays in sync with the mprotect.
    pub fn ops(self, buffer: &Buffer, dest: Option<NodeId>) -> Vec<Op> {
        match self {
            MigrationStrategy::Static => Vec::new(),
            MigrationStrategy::Sync => {
                let dest =
                    dest.expect("MigrationStrategy::Sync needs an explicit destination node");
                let pages = buffer.page_addrs();
                let dest = vec![dest; pages.len()];
                vec![Op::MovePages { pages, dest }]
            }
            MigrationStrategy::KernelNextTouch => vec![Op::MadviseNextTouch {
                range: buffer.page_range(),
            }],
            MigrationStrategy::UserNextTouch => {
                panic!("use UserNextTouch::mark_ops so the region registry stays in sync")
            }
        }
    }

    /// Short label used by experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            MigrationStrategy::Static => "static",
            MigrationStrategy::Sync => "sync",
            MigrationStrategy::KernelNextTouch => "kernel-nt",
            MigrationStrategy::UserNextTouch => "user-nt",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_machine::Machine;
    use numa_vm::PAGE_SIZE;

    #[test]
    fn static_is_empty() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, PAGE_SIZE);
        assert!(MigrationStrategy::Static.ops(&b, None).is_empty());
    }

    #[test]
    fn sync_builds_move_pages() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, 3 * PAGE_SIZE);
        let ops = MigrationStrategy::Sync.ops(&b, Some(NodeId(1)));
        match &ops[..] {
            [Op::MovePages { pages, dest }] => {
                assert_eq!(pages.len(), 3);
                assert!(dest.iter().all(|n| *n == NodeId(1)));
            }
            other => panic!("unexpected ops {other:?}"),
        }
    }

    #[test]
    fn kernel_nt_builds_madvise() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, 2 * PAGE_SIZE);
        let ops = MigrationStrategy::KernelNextTouch.ops(&b, None);
        assert!(matches!(&ops[..], [Op::MadviseNextTouch { range }] if range.pages() == 2));
    }

    #[test]
    #[should_panic(expected = "explicit destination")]
    fn sync_without_dest_panics() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, PAGE_SIZE);
        MigrationStrategy::Sync.ops(&b, None);
    }

    #[test]
    #[should_panic(expected = "mark_ops")]
    fn user_nt_via_strategy_panics() {
        let mut m = Machine::two_node();
        let b = Buffer::alloc(&mut m, PAGE_SIZE);
        MigrationStrategy::UserNextTouch.ops(&b, None);
    }

    #[test]
    fn labels_are_distinct() {
        let all = [
            MigrationStrategy::Static,
            MigrationStrategy::Sync,
            MigrationStrategy::KernelNextTouch,
            MigrationStrategy::UserNextTouch,
        ];
        let mut labels: Vec<_> = all.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
