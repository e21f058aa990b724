//! Hot/cold classification over decayed per-page heat.
//!
//! [`plan`] looks at a [`TierView`] — the heat counters and current
//! placement captured from the live machine — and decides which slow-tier
//! pages to promote and which DRAM pages to demote. Destination nodes are
//! chosen later by the daemon; the rule reasons only about *which* pages
//! belong in *which tier*, like the kernel's hot-page promotion layers
//! (kpromoted / NUMA-balancing tiering) that separate classification from
//! the migration mechanism.

use numa_machine::Machine;
use numa_topology::{MemTier, NodeId};
use numa_vm::PteFlags;

/// Minimum heat for a slow-tier page to be promoted (the kernel's
/// `promotion_threshold`).
const PROMOTE_MIN_HEAT: u64 = 4;

/// One mapped page as the classifier sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageInfo {
    /// Virtual page number.
    pub(crate) vpn: u64,
    /// Decayed access count (see `Machine::decay_heat`).
    pub(crate) heat: u64,
    /// Node currently holding the page.
    pub(crate) node: NodeId,
    /// Tier of that node.
    pub(crate) tier: MemTier,
}

/// Snapshot of everything the daemons consult, captured from the live
/// machine at wake-up time.
#[derive(Debug, Clone)]
pub(crate) struct TierView {
    /// All mapped small pages, in vpn order.
    pub(crate) pages: Vec<PageInfo>,
    /// Free frames summed over the DRAM tier.
    pub(crate) dram_free: u64,
    /// Free frames summed over the slow tier.
    pub(crate) slow_free: u64,
}

impl TierView {
    /// Capture the view from a machine. Huge and shadow-carrying pages are
    /// skipped — the kernel would refuse to migrate them anyway.
    pub(crate) fn capture(machine: &Machine) -> TierView {
        let topo = machine.topology();
        let mut pages = Vec::new();
        // The slab page table iterates in ascending vpn order, so one
        // linear walk replaces the old sort-then-probe scan.
        for (vpn, pte) in machine.space.page_table.iter() {
            if !pte.flags.contains(PteFlags::PRESENT)
                || pte.flags.contains(PteFlags::HUGE)
                || pte.has_shadow()
            {
                continue;
            }
            let node = machine.frames.node_of(pte.frame);
            pages.push(PageInfo {
                vpn,
                heat: machine.heat.get(&vpn).copied().unwrap_or(0),
                node,
                tier: topo.tier_of(node),
            });
        }
        let (mut dram_free, mut slow_free) = (0, 0);
        for n in topo.node_ids() {
            match topo.tier_of(n) {
                MemTier::Dram => dram_free += machine.frames.free_on(n),
                MemTier::Slow => slow_free += machine.frames.free_on(n),
            }
        }
        TierView {
            pages,
            dram_free,
            slow_free,
        }
    }

    /// Pages currently in the given tier, hottest first (ties by vpn so
    /// the order is total and deterministic).
    pub(crate) fn by_heat(&self, tier: MemTier, hottest_first: bool) -> Vec<PageInfo> {
        let mut v: Vec<PageInfo> = self
            .pages
            .iter()
            .copied()
            .filter(|p| p.tier == tier)
            .collect();
        if hottest_first {
            v.sort_by_key(|p| (std::cmp::Reverse(p.heat), p.vpn));
        } else {
            v.sort_by_key(|p| (p.heat, p.vpn));
        }
        v
    }
}

/// Decide one wake-up's moves as `(demote, promote)` vpn lists, each in
/// migration order: promote every slow-tier page at or above
/// [`PROMOTE_MIN_HEAT`], hottest first, and demote heat-0 DRAM pages
/// (untouched since the last decay) only when free DRAM cannot take the
/// promotions.
pub(crate) fn plan(view: &TierView) -> (Vec<u64>, Vec<u64>) {
    let hot: Vec<PageInfo> = view
        .by_heat(MemTier::Slow, true)
        .into_iter()
        .filter(|p| p.heat >= PROMOTE_MIN_HEAT)
        .collect();
    if hot.is_empty() {
        return (Vec::new(), Vec::new());
    }
    // Make room for promotions that do not fit in free DRAM by evicting
    // the coldest eligible DRAM pages (bounded by slow-tier space: a
    // demotion that cannot land is not planned).
    let need = (hot.len() as u64).saturating_sub(view.dram_free);
    let demote: Vec<u64> = view
        .by_heat(MemTier::Dram, false)
        .into_iter()
        .filter(|p| p.heat == 0)
        .take(need.min(view.slow_free) as usize)
        .map(|p| p.vpn)
        .collect();
    // Promotions beyond available room (free + newly evicted) would fail
    // allocation; trim them.
    let room = (view.dram_free + demote.len() as u64) as usize;
    let promote = hot.into_iter().take(room).map(|p| p.vpn).collect();
    (demote, promote)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(vpn: u64, heat: u64, node: u16, tier: MemTier) -> PageInfo {
        PageInfo {
            vpn,
            heat,
            node: NodeId(node),
            tier,
        }
    }

    fn view(pages: Vec<PageInfo>, dram_free: u64, slow_free: u64) -> TierView {
        TierView {
            pages,
            dram_free,
            slow_free,
        }
    }

    #[test]
    fn threshold_promotes_hot_slow_pages() {
        let v = view(
            vec![
                page(1, 10, 4, MemTier::Slow),
                page(2, 1, 4, MemTier::Slow),
                page(3, 7, 5, MemTier::Slow),
            ],
            8,
            8,
        );
        let (demote, promote) = plan(&v);
        assert_eq!(promote, vec![1, 3], "hottest first, cold page skipped");
        assert!(demote.is_empty(), "free DRAM means no eviction");
    }

    #[test]
    fn threshold_evicts_cold_dram_when_full() {
        let v = view(
            vec![
                page(1, 10, 4, MemTier::Slow),
                page(2, 9, 5, MemTier::Slow),
                page(10, 0, 0, MemTier::Dram),
                page(11, 50, 1, MemTier::Dram),
                page(12, 1, 1, MemTier::Dram),
            ],
            0,
            8,
        );
        let (demote, promote) = plan(&v);
        assert_eq!(demote, vec![10], "only the heat-0 DRAM page is evicted");
        assert_eq!(promote, vec![1], "promotions trimmed to the room made");
    }

    #[test]
    fn threshold_respects_slow_space_for_demotions() {
        let v = view(
            vec![page(1, 10, 4, MemTier::Slow), page(10, 0, 0, MemTier::Dram)],
            0,
            0, // slow tier full: nowhere to demote to
        );
        let (demote, promote) = plan(&v);
        assert!(demote.is_empty());
        assert!(promote.is_empty(), "no room could be made");
    }
}
