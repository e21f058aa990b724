//! Per-component cost accounting.
//!
//! The paper's Figure 6 decomposes the total next-touch migration cost into
//! stacked percentage bars: for the user-space path `move_pages()` copy,
//! `move_pages()` control, the `mprotect` restore, the page fault + signal
//! handler, and the initial `mprotect` marking; for the kernel path the page
//! copy, the fault + migration control, and the `madvise` marking.
//!
//! [`Breakdown`] accumulates virtual nanoseconds per [`CostComponent`] so the
//! harness can regenerate exactly those stacks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A cost category in the migration pipeline.
///
/// The variants mirror the stacked components of Figure 6 in the paper, plus
/// the extra categories used by the application-level experiments. The set is
/// closed (an enum rather than free-form strings) so that experiment output
/// is stable and typo-proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CostComponent {
    /// `madvise(MADV_MIGRATE_NEXT_TOUCH)` marking cost (kernel next-touch).
    Madvise,
    /// `mprotect(PROT_NONE)` marking cost (user next-touch).
    MprotectMark,
    /// `mprotect` restore cost inside the SIGSEGV handler (user next-touch).
    MprotectRestore,
    /// Hardware page-fault plus (for the user path) signal delivery and
    /// handler entry/exit.
    PageFaultSignal,
    /// `move_pages()` control: locking, page-table walks, status copy-out.
    MovePagesControl,
    /// `move_pages()` actual page copy.
    MovePagesCopy,
    /// Kernel next-touch fault path control: flag check, PTE update,
    /// page-table locking.
    FaultControl,
    /// Kernel next-touch fault path page copy.
    FaultCopy,
    /// The destination-node lookup that the un-patched `move_pages`
    /// performs per page (quadratic term, §3.1).
    QuadraticLookup,
    /// TLB shootdown / flush cost.
    TlbFlush,
    /// Time spent waiting on contended kernel locks (mmap lock,
    /// page-table lock, zone lock).
    LockWait,
    /// `migrate_pages()` whole-process traversal cost.
    MigratePagesWalk,
    /// Application compute time.
    Compute,
    /// Application memory-access stall time.
    MemoryAccess,
    /// Anything not covered by a dedicated component.
    Other,
}

impl CostComponent {
    /// All variants, in a stable display order (stack order of Figure 6).
    pub const ALL: [CostComponent; 15] = [
        CostComponent::Madvise,
        CostComponent::MprotectMark,
        CostComponent::MprotectRestore,
        CostComponent::PageFaultSignal,
        CostComponent::MovePagesControl,
        CostComponent::MovePagesCopy,
        CostComponent::FaultControl,
        CostComponent::FaultCopy,
        CostComponent::QuadraticLookup,
        CostComponent::TlbFlush,
        CostComponent::LockWait,
        CostComponent::MigratePagesWalk,
        CostComponent::Compute,
        CostComponent::MemoryAccess,
        CostComponent::Other,
    ];

    /// Short human-readable label matching the paper's legend wording.
    pub fn label(self) -> &'static str {
        match self {
            CostComponent::Madvise => "madvise()",
            CostComponent::MprotectMark => "mprotect() Next-Touch",
            CostComponent::MprotectRestore => "mprotect() Restore",
            CostComponent::PageFaultSignal => "Page-Fault and Signal Handler",
            CostComponent::MovePagesControl => "move_pages() Control",
            CostComponent::MovePagesCopy => "move_pages() Copy Page",
            CostComponent::FaultControl => "Page-Fault and Migration Control",
            CostComponent::FaultCopy => "Copy Page",
            CostComponent::QuadraticLookup => "Destination-Node Lookup (unpatched)",
            CostComponent::TlbFlush => "TLB Flush",
            CostComponent::LockWait => "Lock Wait",
            CostComponent::MigratePagesWalk => "migrate_pages() Walk",
            CostComponent::Compute => "Compute",
            CostComponent::MemoryAccess => "Memory Access",
            CostComponent::Other => "Other",
        }
    }

    /// Position in [`CostComponent::ALL`]. The declaration order and the
    /// `ALL` order coincide (asserted by test), so the discriminant *is*
    /// the index — `Breakdown::add` sits on the engine's per-touch path
    /// and a 15-way linear scan per add was measurable there.
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for CostComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated virtual-nanosecond totals per [`CostComponent`]: one
/// inline slot per component, so a `Breakdown` costs no heap allocation
/// and `add` is one indexed add.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakdown {
    totals: [u64; CostComponent::ALL.len()],
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `ns` to `component`.
    #[inline]
    pub fn add(&mut self, component: CostComponent, ns: u64) {
        self.totals[component.index()] += ns;
    }

    /// Total for one component.
    pub fn get(&self, component: CostComponent) -> u64 {
        self.totals[component.index()]
    }

    /// Sum over all components.
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Percentage share of one component (0.0 if the breakdown is empty).
    pub fn percent(&self, component: CostComponent) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(component) as f64 * 100.0 / total as f64
        }
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (slot, v) in self.totals.iter_mut().zip(&other.totals) {
            *slot += v;
        }
    }

    /// Reset all totals to zero.
    pub fn clear(&mut self) {
        self.totals = [0; CostComponent::ALL.len()];
    }

    /// Non-zero components in display order, as `(component, ns, percent)`.
    pub fn entries(&self) -> Vec<(CostComponent, u64, f64)> {
        CostComponent::ALL
            .iter()
            .filter(|c| self.get(**c) > 0)
            .map(|c| (*c, self.get(*c), self.percent(*c)))
            .collect()
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (c, ns, pct) in self.entries() {
            writeln!(f, "{:<38} {:>14} ns  {:>6.2} %", c.label(), ns, pct)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_percent() {
        let mut b = Breakdown::new();
        b.add(CostComponent::FaultCopy, 80);
        b.add(CostComponent::FaultControl, 20);
        assert_eq!(b.total(), 100);
        assert!((b.percent(CostComponent::FaultCopy) - 80.0).abs() < 1e-9);
        assert!((b.percent(CostComponent::FaultControl) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Breakdown::new();
        a.add(CostComponent::Madvise, 5);
        let mut b = Breakdown::new();
        b.add(CostComponent::Madvise, 7);
        b.add(CostComponent::TlbFlush, 3);
        a.merge(&b);
        assert_eq!(a.get(CostComponent::Madvise), 12);
        assert_eq!(a.get(CostComponent::TlbFlush), 3);
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn empty_breakdown_is_all_zero() {
        let b = Breakdown::default();
        assert_eq!(b.total(), 0);
        assert_eq!(b.percent(CostComponent::FaultCopy), 0.0);
        assert!(b.entries().is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut b = Breakdown::new();
        b.add(CostComponent::LockWait, 42);
        b.clear();
        assert_eq!(b.total(), 0);
    }

    #[test]
    fn display_contains_labels() {
        let mut b = Breakdown::new();
        b.add(CostComponent::MovePagesCopy, 10);
        let s = format!("{b}");
        assert!(s.contains("move_pages() Copy Page"));
    }

    #[test]
    fn all_components_have_distinct_indices() {
        for (i, c) in CostComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
