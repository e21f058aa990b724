//! The process address space: VMA bookkeeping plus the page table.
//!
//! `AddressSpace` enforces the structural invariants the kernel layer
//! relies on: VMAs never overlap, every mapped PTE lies inside some VMA,
//! and `mprotect` splits/merges VMAs exactly like Linux does.

use crate::addr::{PageRange, VirtAddr};
use crate::page_table::PageTable;
use crate::ptplace::{PtPlacement, PtReplicaSet, PtSyncMode};
use crate::vma::{Protection, Vma, VmaKind};
use crate::{FrameAllocator, MemPolicy, PAGE_SIZE};
use numa_topology::NodeId;
use std::collections::BTreeMap;

/// Errors from address-space operations (the `errno` analogues).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Address not covered by any VMA (`EFAULT`).
    NoVma(VirtAddr),
    /// A request partially overlaps existing mappings (`EEXIST`).
    Overlap,
    /// Zero-length request (`EINVAL`).
    ZeroLength,
    /// Physical memory exhausted on the target node (`ENOMEM`).
    OutOfMemory,
    /// Operation not supported for this VMA kind (`EINVAL`), e.g. kernel
    /// next-touch on a shared mapping without the extension enabled.
    Unsupported(&'static str),
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::NoVma(a) => write!(f, "no VMA covers {a}"),
            VmError::Overlap => write!(f, "mapping overlaps an existing VMA"),
            VmError::ZeroLength => write!(f, "zero-length request"),
            VmError::OutOfMemory => write!(f, "out of physical memory on target node"),
            VmError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for VmError {}

/// A process address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// VMAs keyed by start vpn.
    vmas: BTreeMap<u64, Vma>,
    /// The software page table.
    pub page_table: PageTable,
    /// Bump pointer for fresh mappings (in pages).
    next_map_vpn: u64,
    /// Process-default policy (`set_mempolicy`).
    default_policy: MemPolicy,
    /// Incremented on every VMA-structure change; the TLB model and the
    /// user-space runtime use it to detect staleness cheaply.
    generation: u64,
    /// Monotone: set once any VMA is remapped huge, never cleared. Lets
    /// address resolution skip the VMA walk in the (overwhelmingly common)
    /// all-4kB case; a stale `true` only disables that shortcut.
    has_huge: bool,
    /// Where this space's page table lives (`None` = placement untracked,
    /// the pre-subsystem behaviour: translation is free).
    pt_placement: Option<PtPlacement>,
    /// Per-node replicas, present iff placement is
    /// [`PtPlacement::Replicated`].
    pt_replicas: Option<PtReplicaSet>,
}

impl AddressSpace {
    /// An empty address space. Mappings start at 4 GB to keep the low
    /// range free (and addresses visibly "pointer-like" in traces).
    pub fn new() -> Self {
        AddressSpace {
            vmas: BTreeMap::new(),
            page_table: PageTable::new(),
            next_map_vpn: (4u64 << 30) / PAGE_SIZE,
            default_policy: MemPolicy::FirstTouch,
            generation: 0,
            has_huge: false,
            pt_placement: None,
            pt_replicas: None,
        }
    }

    /// Configure page-table placement. With [`PtPlacement::Replicated`],
    /// one replica per node is built from the current primary table and
    /// kept in sync by eager write-through (all replicas share one mirror
    /// table); with [`PtPlacement::SingleHome`] the table is pinned to
    /// that node and walks from elsewhere pay the distance. `PtSyncMode`
    /// has the one variant [`PtSyncMode::Eager`].
    pub fn pt_configure(&mut self, placement: PtPlacement, _mode: PtSyncMode, nodes: usize) {
        self.pt_replicas = match placement {
            PtPlacement::Replicated => Some(PtReplicaSet::new(nodes, &self.page_table)),
            PtPlacement::SingleHome(_) => None,
        };
        self.pt_placement = Some(placement);
    }

    /// Current page-table placement (`None` = subsystem disabled).
    pub fn pt_placement(&self) -> Option<PtPlacement> {
        self.pt_placement
    }

    /// Re-home a single-homed page table (numaPTE-style migration when the
    /// owning thread moves). No-op under any other placement.
    pub fn pt_set_home(&mut self, node: NodeId) {
        if let Some(PtPlacement::SingleHome(_)) = self.pt_placement {
            self.pt_placement = Some(PtPlacement::SingleHome(node));
        }
    }

    /// Record that the primary table changed over `range`: with replicas
    /// the change is written through to every one and the number of PTEs
    /// written is returned (the caller charges for them). Without
    /// replicas this is free and returns 0.
    pub fn pt_note_update(&mut self, range: PageRange) -> u64 {
        match self.pt_replicas.as_mut() {
            Some(replicas) => replicas.propagate(&self.page_table, range),
            None => 0,
        }
    }

    /// The replica mirror, when replicated. Every extent edit of the
    /// primary goes to the mirror too, so the two tables' slabs stay
    /// geometry-aligned and write-through diffs take the fast path.
    fn pt_mirror(&mut self) -> Option<&mut PageTable> {
        self.pt_replicas.as_mut().map(PtReplicaSet::mirror_mut)
    }

    /// The replica set, when replicated (tests and invariant checks).
    pub fn pt_replicas(&self) -> Option<&PtReplicaSet> {
        self.pt_replicas.as_ref()
    }

    /// Mark the VMA covering `addr` as huge-mapped. The dedicated entry
    /// point (rather than flipping `Vma::huge` through `find_vma_mut`)
    /// keeps the space's huge-VMA knowledge accurate.
    pub fn set_vma_huge(&mut self, addr: VirtAddr) -> Result<(), VmError> {
        let vma = self.find_vma_mut(addr).ok_or(VmError::NoVma(addr))?;
        vma.huge = true;
        let range = vma.range;
        self.has_huge = true;
        // Shrink the VMA's still-empty reservation to one record per huge
        // page: only heads ever carry entries in a huge VMA, so the other
        // 511 slots per 2 MB would be dead weight. Best-effort — a
        // non-huge-aligned or already-populated extent stays base-grain.
        self.page_table.convert_range_to_huge(range);
        if let Some(mirror) = self.pt_mirror() {
            mirror.convert_range_to_huge(range);
        }
        self.generation += 1;
        Ok(())
    }

    /// True when any VMA may be huge-mapped (conservative: never reset).
    pub fn has_huge_vmas(&self) -> bool {
        self.has_huge
    }

    /// Map `len` bytes of fresh memory and return its base address.
    ///
    /// Pages are *not* populated — like real `mmap`, physical frames appear
    /// lazily on first touch, which is exactly the laziness the first-touch
    /// policy exploits (paper §2.2).
    pub fn mmap(
        &mut self,
        len: u64,
        prot: Protection,
        kind: VmaKind,
        policy: MemPolicy,
    ) -> Result<VirtAddr, VmError> {
        if len == 0 {
            return Err(VmError::ZeroLength);
        }
        let pages = len.div_ceil(PAGE_SIZE);
        let start_vpn = self.next_map_vpn;
        // One-page guard gap between mappings catches off-by-one walkers.
        self.next_map_vpn += pages + 1;
        let vma = Vma {
            range: PageRange::new(start_vpn, start_vpn + pages),
            prot,
            kind,
            policy,
            huge: false,
            tag: 0,
        };
        self.insert_vma(vma)?;
        Ok(VirtAddr::from_vpn(start_vpn))
    }

    /// Remove the mapping that starts exactly at `addr`, freeing each
    /// backing frame into `frames` as its entry is released (ascending vpn
    /// order), and return the number of pages that were mapped.
    ///
    /// The page tables release the whole gap between the neighbouring
    /// VMAs, not just this one's range. No PTE lies outside a VMA, so the
    /// gap holds exactly this VMA's entries, and every extent left with no
    /// VMA over it goes: the last piece of a VMA that `mprotect` split
    /// takes the extent the pieces shared.
    pub fn munmap(&mut self, addr: VirtAddr, frames: &mut FrameAllocator) -> Result<u64, VmError> {
        let vpn = addr.vpn();
        let vma = self.vmas.remove(&vpn).ok_or(VmError::NoVma(addr))?;
        let prev_end = self
            .vmas
            .range(..vma.range.start_vpn)
            .next_back()
            .map_or(0, |(_, v)| v.range.end_vpn);
        let next_start = self
            .vmas
            .range(vma.range.end_vpn..)
            .next()
            .map_or(u64::MAX, |(_, v)| v.range.start_vpn);
        let gap = PageRange::new(prev_end, next_start);
        let mut pages = 0u64;
        self.page_table.release_range(gap, |_, pte| {
            frames.free(pte.frame);
            pages += 1;
        });
        // Replicas drop the same extents. That write-through is uncharged:
        // the timed `Kernel::munmap` charges only the teardown and the
        // shootdown, the same on single-home and replicated spaces.
        if let Some(mirror) = self.pt_mirror() {
            mirror.release_range(gap, |_, _| {});
        }
        self.generation += 1;
        Ok(pages)
    }

    /// Insert a fully-formed VMA, rejecting overlaps.
    pub fn insert_vma(&mut self, vma: Vma) -> Result<(), VmError> {
        if vma.range.is_empty() {
            return Err(VmError::ZeroLength);
        }
        // Check the neighbours for overlap.
        if let Some((_, prev)) = self.vmas.range(..=vma.range.start_vpn).next_back() {
            if prev.range.end_vpn > vma.range.start_vpn {
                return Err(VmError::Overlap);
            }
        }
        if let Some((_, next)) = self.vmas.range(vma.range.start_vpn..).next() {
            if next.range.start_vpn < vma.range.end_vpn {
                return Err(VmError::Overlap);
            }
        }
        if vma.huge {
            self.has_huge = true;
        }
        // Pre-size the VMA's dense PTE slab so every later fault is an
        // indexed store, never a structural insertion.
        self.page_table.reserve_range(vma.range);
        if let Some(mirror) = self.pt_mirror() {
            mirror.reserve_range(vma.range);
        }
        self.vmas.insert(vma.range.start_vpn, vma);
        self.generation += 1;
        Ok(())
    }

    /// The VMA covering `addr`, if any.
    pub fn find_vma(&self, addr: VirtAddr) -> Option<&Vma> {
        let vpn = addr.vpn();
        self.vmas
            .range(..=vpn)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(vpn))
    }

    /// Mutable VMA lookup by covered address.
    pub fn find_vma_mut(&mut self, addr: VirtAddr) -> Option<&mut Vma> {
        let vpn = addr.vpn();
        self.vmas
            .range_mut(..=vpn)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.range.contains(vpn))
    }

    /// All VMAs in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Number of VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Change protection over an arbitrary page range, splitting boundary
    /// VMAs as needed and merging identical neighbours afterwards —
    /// the full `mprotect` VMA dance. Returns the number of pages whose
    /// protection changed. Errors if any page in the range is unmapped
    /// (like `mprotect` returning `ENOMEM`).
    pub fn mprotect(&mut self, range: PageRange, prot: Protection) -> Result<u64, VmError> {
        if range.is_empty() {
            return Ok(0);
        }
        self.check_fully_mapped(range)?;
        self.split_boundaries(range);
        let mut changed = 0;
        let keys: Vec<u64> = self
            .vmas
            .range(range.start_vpn..range.end_vpn)
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            let vma = self.vmas.get_mut(&k).expect("key just listed");
            debug_assert!(vma.range.end_vpn <= range.end_vpn, "boundary was split");
            if vma.prot != prot {
                vma.prot = prot;
                changed += vma.range.pages();
            }
        }
        self.merge_around(range);
        self.generation += 1;
        Ok(changed)
    }

    /// Apply `f` to every VMA overlapping `range`, splitting at the range
    /// boundaries first so the closure only ever sees fully-covered VMAs.
    /// The generic machinery behind `madvise` and `mbind`.
    pub fn for_each_vma_in<F: FnMut(&mut Vma)>(
        &mut self,
        range: PageRange,
        mut f: F,
    ) -> Result<(), VmError> {
        if range.is_empty() {
            return Ok(());
        }
        self.check_fully_mapped(range)?;
        self.split_boundaries(range);
        let keys: Vec<u64> = self
            .vmas
            .range(range.start_vpn..range.end_vpn)
            .map(|(k, _)| *k)
            .collect();
        for k in keys {
            f(self.vmas.get_mut(&k).expect("key just listed"));
        }
        self.merge_around(range);
        self.generation += 1;
        Ok(())
    }

    /// Set the process-default memory policy (`set_mempolicy`).
    pub fn set_default_policy(&mut self, policy: MemPolicy) {
        self.default_policy = policy;
    }

    /// The process-default memory policy.
    pub fn default_policy(&self) -> &MemPolicy {
        &self.default_policy
    }

    /// Structure-change generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Verify every page of `range` lies in some VMA.
    fn check_fully_mapped(&self, range: PageRange) -> Result<(), VmError> {
        let mut vpn = range.start_vpn;
        while vpn < range.end_vpn {
            match self.find_vma(VirtAddr::from_vpn(vpn)) {
                Some(v) => vpn = v.range.end_vpn,
                None => return Err(VmError::NoVma(VirtAddr::from_vpn(vpn))),
            }
        }
        Ok(())
    }

    /// Split VMAs so that `range.start_vpn` and `range.end_vpn` fall on
    /// VMA boundaries.
    fn split_boundaries(&mut self, range: PageRange) {
        for edge in [range.start_vpn, range.end_vpn] {
            let candidate = self
                .vmas
                .range(..edge)
                .next_back()
                .map(|(k, v)| (*k, v.range.end_vpn));
            if let Some((key, end)) = candidate {
                if key < edge && edge < end {
                    let mut left = self.vmas.remove(&key).expect("candidate exists");
                    let right = left.split_at(edge);
                    self.vmas.insert(left.range.start_vpn, left);
                    self.vmas.insert(right.range.start_vpn, right);
                }
            }
        }
    }

    /// Merge identical adjacent VMAs around `range` (keeps VMA counts from
    /// growing without bound under repeated mark/restore cycles, just like
    /// the kernel's `vma_merge`).
    fn merge_around(&mut self, range: PageRange) {
        // Start one VMA before the affected range (it may merge with the
        // first changed VMA) and sweep right, folding every mergeable
        // neighbour into the current VMA, until past the range end.
        let mut cur = self
            .vmas
            .range(..range.start_vpn)
            .next_back()
            .map(|(k, _)| *k)
            .or_else(|| self.vmas.range(range.start_vpn..).next().map(|(k, _)| *k));
        while let Some(cur_key) = cur {
            let Some(cur_vma) = self.vmas.get(&cur_key) else {
                break;
            };
            if cur_vma.range.start_vpn > range.end_vpn {
                break;
            }
            let next_key = self.vmas.range(cur_key + 1..).next().map(|(k, _)| *k);
            let Some(next_key) = next_key else {
                break;
            };
            let next_vma = self.vmas.get(&next_key).expect("key just listed");
            if cur_vma.can_merge(next_vma) {
                let absorbed = self.vmas.remove(&next_key).expect("checked above");
                let cur_vma = self.vmas.get_mut(&cur_key).expect("checked above");
                cur_vma.range = PageRange::new(cur_vma.range.start_vpn, absorbed.range.end_vpn);
                // Stay on cur_key: it may merge with the new next too.
            } else {
                cur = Some(next_key);
            }
        }
    }

    /// Debug invariant: VMAs are sorted, non-overlapping, and every mapped
    /// PTE lies inside a VMA. Called by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end = 0u64;
        for (k, v) in &self.vmas {
            if *k != v.range.start_vpn {
                return Err(format!("vma key {k} != start {}", v.range.start_vpn));
            }
            if v.range.is_empty() {
                return Err(format!("empty vma at {k}"));
            }
            if v.range.start_vpn < prev_end {
                return Err(format!("vma at {k} overlaps previous (end {prev_end})"));
            }
            prev_end = v.range.end_vpn;
        }
        for (vpn, _) in self.page_table.iter() {
            if self.find_vma(VirtAddr::from_vpn(vpn)).is_none() {
                return Err(format!("pte for vpn {vpn} outside any vma"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn anon_space_with(len_pages: u64) -> (AddressSpace, VirtAddr) {
        let mut s = AddressSpace::new();
        let a = s
            .mmap(
                len_pages * PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        (s, a)
    }

    #[test]
    fn mmap_creates_unpopulated_vma() {
        let (s, a) = anon_space_with(8);
        assert_eq!(s.vma_count(), 1);
        let v = s.find_vma(a).unwrap();
        assert_eq!(v.range.pages(), 8);
        assert!(s.page_table.is_empty(), "mmap must not populate frames");
        s.check_invariants().unwrap();
    }

    #[test]
    fn mmap_zero_len_rejected() {
        let mut s = AddressSpace::new();
        assert_eq!(
            s.mmap(
                0,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch
            ),
            Err(VmError::ZeroLength)
        );
    }

    #[test]
    fn separate_mmaps_do_not_touch() {
        let mut s = AddressSpace::new();
        let a = s
            .mmap(
                PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        let b = s
            .mmap(
                PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        assert!(b.vpn() > a.vpn() + 1, "guard gap expected");
        s.check_invariants().unwrap();
    }

    #[test]
    fn find_vma_misses_outside() {
        let (s, a) = anon_space_with(4);
        assert!(s.find_vma(a).is_some());
        assert!(s.find_vma(a + 4 * PAGE_SIZE).is_none());
        assert!(s.find_vma(VirtAddr(0)).is_none());
    }

    #[test]
    fn mprotect_middle_splits_into_three() {
        let (mut s, a) = anon_space_with(10);
        let base = a.vpn();
        let changed = s
            .mprotect(PageRange::new(base + 3, base + 6), Protection::None)
            .unwrap();
        assert_eq!(changed, 3);
        assert_eq!(s.vma_count(), 3);
        assert_eq!(s.find_vma(a).unwrap().prot, Protection::ReadWrite);
        assert_eq!(
            s.find_vma(VirtAddr::from_vpn(base + 4)).unwrap().prot,
            Protection::None
        );
        assert_eq!(
            s.find_vma(VirtAddr::from_vpn(base + 7)).unwrap().prot,
            Protection::ReadWrite
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn mprotect_restore_merges_back() {
        let (mut s, a) = anon_space_with(10);
        let base = a.vpn();
        s.mprotect(PageRange::new(base + 3, base + 6), Protection::None)
            .unwrap();
        assert_eq!(s.vma_count(), 3);
        s.mprotect(PageRange::new(base + 3, base + 6), Protection::ReadWrite)
            .unwrap();
        assert_eq!(s.vma_count(), 1, "identical neighbours must merge");
        s.check_invariants().unwrap();
    }

    #[test]
    fn mprotect_unmapped_errors() {
        let (mut s, a) = anon_space_with(2);
        let base = a.vpn();
        let err = s
            .mprotect(PageRange::new(base, base + 5), Protection::None)
            .unwrap_err();
        assert!(matches!(err, VmError::NoVma(_)));
    }

    #[test]
    fn mprotect_noop_counts_zero() {
        let (mut s, a) = anon_space_with(4);
        let base = a.vpn();
        let changed = s
            .mprotect(PageRange::new(base, base + 4), Protection::ReadWrite)
            .unwrap();
        assert_eq!(changed, 0);
        assert_eq!(s.vma_count(), 1);
    }

    #[test]
    fn for_each_vma_in_tags_subrange() {
        let (mut s, a) = anon_space_with(8);
        let base = a.vpn();
        s.for_each_vma_in(PageRange::new(base + 2, base + 4), |v| v.tag = 7)
            .unwrap();
        assert_eq!(s.find_vma(VirtAddr::from_vpn(base + 2)).unwrap().tag, 7);
        assert_eq!(s.find_vma(VirtAddr::from_vpn(base)).unwrap().tag, 0);
        s.check_invariants().unwrap();
    }

    #[test]
    fn munmap_returns_backed_frames() {
        use crate::pte::Pte;
        let (mut s, a) = anon_space_with(3);
        let base = a.vpn();
        let mut frames = FrameAllocator::new(1, 4);
        let f = frames.alloc(NodeId(0)).unwrap();
        let g = frames.alloc(NodeId(0)).unwrap();
        s.page_table.map(base, Pte::present_rw(f));
        s.page_table.map(base + 2, Pte::present_rw(g));
        assert_eq!(s.munmap(a, &mut frames).unwrap(), 2);
        assert!(frames.get(f).is_none() && frames.get(g).is_none());
        assert_eq!(frames.live_total(), 0);
        assert_eq!(s.vma_count(), 0);
        assert!(s.page_table.is_empty());
    }

    #[test]
    fn munmap_unknown_errors() {
        let mut s = AddressSpace::new();
        let mut frames = FrameAllocator::new(1, 1);
        assert!(matches!(
            s.munmap(VirtAddr(12345), &mut frames),
            Err(VmError::NoVma(_))
        ));
    }

    #[test]
    fn generation_bumps_on_structure_change() {
        let (mut s, a) = anon_space_with(4);
        let g0 = s.generation();
        s.mprotect(PageRange::new(a.vpn(), a.vpn() + 1), Protection::None)
            .unwrap();
        assert!(s.generation() > g0);
    }

    #[test]
    fn overlapping_insert_rejected() {
        let (mut s, a) = anon_space_with(4);
        let v = Vma::anon(PageRange::new(a.vpn() + 1, a.vpn() + 2));
        assert_eq!(s.insert_vma(v), Err(VmError::Overlap));
    }
}
