//! The software page table.
//!
//! Struct-of-arrays PTE slabs with present bitmaps: the table is a sorted
//! vector of non-overlapping extents, each owning a `u64` present-bitmap
//! (one bit per record) plus parallel dense arrays for frames and flags.
//! `AddressSpace` reserves one slab per VMA at `mmap` time, and a reserved
//! extent is the only storage a mapping can land in, so the access
//! hot path (`get`/`get_mut`) is a hint-cached binary search over a handful
//! of extents plus two indexed loads, and batch walks
//! (`walk_range`/`update_range`/`release_range`) skip absent runs with
//! `trailing_zeros` instead of testing an `Option` per slot — the same
//! representation fix the paper applies to the kernel's batch metadata,
//! here applied to the host.
//!
//! Three further properties fall out of the layout:
//!
//! * **Huge pages are single records.** A slab carries a `stride` (1 for
//!   base pages, [`crate::PAGES_PER_HUGE`] after
//!   [`PageTable::convert_range_to_huge`]); a huge mapping is one record
//!   per head instead of 512 base slots, so a 2 MB page costs 9 bytes of
//!   metadata, not 4.5 kB.
//! * **Stats are O(1).** Flag-class tallies ([`PageTable::stats`]) are
//!   maintained incrementally at map/unmap/protect time instead of by
//!   end-of-run scans.
//! * **Replica write counts are popcounts.** Beside `present`, each slab
//!   keeps a dirty bitmap: every write that changes a record's frame,
//!   flags or shadow sets its bit. A replica write-through over a range
//!   ([`crate::PtReplicaSet::propagate`]) counts and clears the range's
//!   bits word by word, so replicas need no table of their own and a
//!   1-page note is O(1).
//!
//! Shadow frames (in-flight tier migrations) are rare and short-lived, so
//! they live out of line in a side map; the dense arrays never widen for
//! them, and while the map is empty — the overwhelmingly common state —
//! every probe short-circuits on one length test.
//!
//! The real kernel uses a radix tree; slabs give the same semantics, and
//! the *cost* of page-table walks is charged separately by the kernel
//! layer's cost model, so the host data structure choice does not leak
//! into results. Iteration order is ascending vpn by construction.

use crate::addr::PageRange;
use crate::pte::{Pte, PteFlags};
use crate::FrameId;
use numa_stats::PtStats;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

/// Bits per bitmap word.
const WORD: usize = 64;

/// Sentinel for an invalidated lookup hint.
const NO_HINT: usize = usize::MAX;

/// One contiguous extent of PTE records, stored struct-of-arrays.
///
/// Invariant: bitmap bits at or above `records()` are always zero (so
/// word-level scans never need a tail mask beyond the requested window).
#[derive(Debug, Clone)]
struct Slab {
    /// First vpn covered.
    base: u64,
    /// Pages per record: 1 for base-page slabs, [`crate::PAGES_PER_HUGE`]
    /// for huge-converted extents (one record per huge head).
    stride: u64,
    /// Present bitmap, one bit per record.
    present: Vec<u64>,
    /// Dirty bitmap, one bit per record: set when a write changes the
    /// record's frame, flags or shadow, cleared when a replica
    /// write-through covers it.
    dirty: Vec<u64>,
    /// Backing frame per record.
    frames: Vec<FrameId>,
    /// Flag bits per record.
    flags: Vec<PteFlags>,
    /// Present records in this slab.
    live: usize,
}

impl Slab {
    fn new(base: u64, records: usize, stride: u64) -> Self {
        debug_assert!(records > 0, "empty slab");
        Slab {
            base,
            stride,
            present: vec![0; records.div_ceil(WORD)],
            dirty: vec![0; records.div_ceil(WORD)],
            frames: vec![FrameId(0); records],
            flags: vec![PteFlags::EMPTY; records],
            live: 0,
        }
    }

    /// Number of records (presence slots).
    fn records(&self) -> usize {
        self.frames.len()
    }

    /// One past the last vpn covered.
    fn end(&self) -> u64 {
        self.base + self.records() as u64 * self.stride
    }

    /// Record index for `vpn`; `None` when the vpn falls between the heads
    /// of a huge-stride slab (such pages have no entry of their own).
    #[inline]
    fn rec(&self, vpn: u64) -> Option<usize> {
        let off = vpn - self.base;
        if self.stride == 1 {
            Some(off as usize)
        } else if off.is_multiple_of(self.stride) {
            Some((off / self.stride) as usize)
        } else {
            None
        }
    }

    /// The vpn of record `rec`.
    #[inline]
    fn vpn_of(&self, rec: usize) -> u64 {
        self.base + rec as u64 * self.stride
    }

    #[inline]
    fn is_present(&self, rec: usize) -> bool {
        self.present[rec / WORD] & (1u64 << (rec % WORD)) != 0
    }

    #[inline]
    fn set_present(&mut self, rec: usize) {
        self.present[rec / WORD] |= 1u64 << (rec % WORD);
    }

    #[inline]
    fn clear_present(&mut self, rec: usize) {
        self.present[rec / WORD] &= !(1u64 << (rec % WORD));
    }

    #[inline]
    fn set_dirty(&mut self, rec: usize) {
        self.dirty[rec / WORD] |= 1u64 << (rec % WORD);
    }

    /// Clear the dirty bits of records `[r_lo, r_hi)` and return how
    /// many were set.
    fn take_dirty(&mut self, r_lo: usize, r_hi: usize) -> u64 {
        let mut taken = 0;
        for w in r_lo / WORD..r_hi.div_ceil(WORD) {
            let bits = masked(&self.dirty, w, r_lo, r_hi);
            taken += u64::from(bits.count_ones());
            self.dirty[w] &= !bits;
        }
        taken
    }

    /// The record window `[lo, hi)` intersecting `range` (may be empty).
    fn window(&self, range: PageRange) -> (usize, usize) {
        let lo = if range.start_vpn > self.base {
            ((range.start_vpn - self.base).div_ceil(self.stride) as usize).min(self.records())
        } else {
            0
        };
        let hi = if range.end_vpn >= self.end() {
            self.records()
        } else if range.end_vpn <= self.base {
            0
        } else {
            (range.end_vpn - self.base).div_ceil(self.stride) as usize
        };
        (lo, hi)
    }
}

/// Word `w` of a slab bitmap restricted to records `[r_lo, r_hi)`.
#[inline]
fn masked(map: &[u64], w: usize, r_lo: usize, r_hi: usize) -> u64 {
    let lo_bit = w * WORD;
    let mut bits = map[w];
    if r_lo > lo_bit {
        bits &= !0u64 << (r_lo - lo_bit);
    }
    if r_hi < lo_bit + WORD {
        bits &= (1u64 << (r_hi - lo_bit)) - 1;
    }
    bits
}

/// Read a vpn's shadow frame, short-circuiting while no migration is in
/// flight anywhere in the table (the overwhelmingly common state).
#[inline]
fn probe_shadow(shadows: &BTreeMap<u64, FrameId>, vpn: u64) -> Option<FrameId> {
    if shadows.is_empty() {
        None
    } else {
        shadows.get(&vpn).copied()
    }
}

/// Remove and return a vpn's shadow frame, with the same short-circuit.
#[inline]
fn take_shadow(shadows: &mut BTreeMap<u64, FrameId>, vpn: u64) -> Option<FrameId> {
    if shadows.is_empty() {
        None
    } else {
        shadows.remove(&vpn)
    }
}

/// Flag-class tallies maintained at map/unmap/protect time so
/// [`PageTable::stats`] never scans.
#[derive(Debug, Clone, Copy, Default)]
struct FlagAgg {
    next_touch: u64,
    huge: u64,
    replica: u64,
}

impl FlagAgg {
    #[inline]
    fn add(&mut self, f: PteFlags) {
        self.next_touch += f.contains(PteFlags::NEXT_TOUCH) as u64;
        self.huge += f.contains(PteFlags::HUGE) as u64;
        self.replica += f.contains(PteFlags::REPLICA) as u64;
    }

    #[inline]
    fn sub(&mut self, f: PteFlags) {
        self.next_touch -= f.contains(PteFlags::NEXT_TOUCH) as u64;
        self.huge -= f.contains(PteFlags::HUGE) as u64;
        self.replica -= f.contains(PteFlags::REPLICA) as u64;
    }
}

/// Map from virtual page number to page-table entry, stored as dense
/// per-extent struct-of-arrays slabs.
///
/// Extents are created only by [`PageTable::reserve_range`] (called for
/// every VMA insertion) and released by [`PageTable::release_range`]
/// (`munmap`). Unmapping a single page keeps its reservation, matching a
/// VMA whose page was merely migrated away or never touched.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Extents sorted by `base`, non-overlapping.
    slabs: Vec<Slab>,
    /// Total present entries across all slabs.
    live: usize,
    /// Index of the last slab that satisfied a lookup — page touches are
    /// overwhelmingly local to one VMA, so this hint usually short-circuits
    /// the binary search. `NO_HINT` when invalidated by a structural edit.
    /// Purely a host-side cache; never observable.
    hint: Cell<usize>,
    /// In-flight tier-migration shadow frames, keyed by vpn. Shadows are
    /// rare and short-lived, so they live out of line, keeping the dense
    /// arrays narrow; probes short-circuit while the map is empty.
    shadows: BTreeMap<u64, FrameId>,
    /// Incremental flag tallies.
    agg: FlagAgg,
}

impl PageTable {
    /// An empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Index of the slab covering `vpn`, if any.
    #[inline]
    fn slab_index(&self, vpn: u64) -> Option<usize> {
        let hint = self.hint.get();
        if let Some(s) = self.slabs.get(hint) {
            if vpn >= s.base && vpn < s.end() {
                return Some(hint);
            }
        }
        let idx = self.slabs.partition_point(|s| s.base <= vpn);
        if idx == 0 {
            return None;
        }
        let s = &self.slabs[idx - 1];
        if vpn < s.end() {
            self.hint.set(idx - 1);
            Some(idx - 1)
        } else {
            None
        }
    }

    /// Index of the first slab whose extent ends after `vpn` (i.e. the
    /// first slab that could intersect a range starting at `vpn`).
    fn first_slab_from(&self, vpn: u64) -> usize {
        let idx = self.slabs.partition_point(|s| s.base <= vpn);
        if idx > 0 && self.slabs[idx - 1].end() > vpn {
            idx - 1
        } else {
            idx
        }
    }

    /// A slab was inserted at `idx`: every following index shifted up by
    /// one, so a hint at or past it moves with its slab.
    fn hint_inserted(&self, idx: usize) {
        let h = self.hint.get();
        if h != NO_HINT && h >= idx {
            self.hint.set(h + 1);
        }
    }

    /// The slab run `[lo, hi)` was removed: shift a hint past it down,
    /// invalidate a hint inside it, leave earlier hints untouched.
    fn hint_removed(&self, lo: usize, hi: usize) {
        let h = self.hint.get();
        if h == NO_HINT {
            return;
        }
        if h >= hi {
            self.hint.set(h - (hi - lo));
        } else if h >= lo {
            self.hint.set(NO_HINT);
        }
    }

    /// Assemble the full PTE for a present record.
    #[inline]
    fn load(&self, s: &Slab, rec: usize, vpn: u64) -> Pte {
        Pte {
            frame: s.frames[rec],
            shadow: probe_shadow(&self.shadows, vpn),
            flags: s.flags[rec],
        }
    }

    /// Look up the PTE for `vpn`.
    #[inline]
    pub fn get(&self, vpn: u64) -> Option<Pte> {
        let i = self.slab_index(vpn)?;
        let s = &self.slabs[i];
        let rec = s.rec(vpn)?;
        if !s.is_present(rec) {
            return None;
        }
        Some(self.load(s, rec, vpn))
    }

    /// Mutable PTE lookup. The guard holds a copy of the entry; edits are
    /// written back (and the incremental stats adjusted) when it drops.
    #[inline]
    pub fn get_mut(&mut self, vpn: u64) -> Option<PteRefMut<'_>> {
        let i = self.slab_index(vpn)?;
        let (rec, cur) = {
            let s = &self.slabs[i];
            let rec = s.rec(vpn)?;
            if !s.is_present(rec) {
                return None;
            }
            (rec, self.load(s, rec, vpn))
        };
        Some(PteRefMut {
            pt: self,
            slab: i,
            rec,
            vpn,
            orig: cur,
            cur,
        })
    }

    /// Install a mapping. Returns the previous entry if one existed
    /// (callers that expect a fresh mapping assert on `None`).
    ///
    /// `vpn` must lie in a reserved extent: as a PTE outside every VMA
    /// would be, a map anywhere else is a programming error and panics.
    /// Mapping a non-head page of a huge-converted extent demotes that
    /// extent back to base-page records first.
    pub fn map(&mut self, vpn: u64, pte: Pte) -> Option<Pte> {
        let i = self
            .slab_index(vpn)
            .unwrap_or_else(|| panic!("map of vpn {vpn} outside every reserved extent"));
        if self.slabs[i].stride != 1
            && !(vpn - self.slabs[i].base).is_multiple_of(self.slabs[i].stride)
        {
            self.demote_slab(i);
        }
        let PageTable {
            slabs,
            live,
            shadows,
            agg,
            ..
        } = self;
        let s = &mut slabs[i];
        let rec = s.rec(vpn).expect("record exists after demotion");
        let prev = if s.is_present(rec) {
            let flags = s.flags[rec];
            agg.sub(flags);
            Some(Pte {
                frame: s.frames[rec],
                shadow: take_shadow(shadows, vpn),
                flags,
            })
        } else {
            s.set_present(rec);
            s.live += 1;
            *live += 1;
            None
        };
        if prev != Some(pte) {
            s.set_dirty(rec);
        }
        s.frames[rec] = pte.frame;
        s.flags[rec] = pte.flags;
        agg.add(pte.flags);
        if let Some(f) = pte.shadow {
            shadows.insert(vpn, f);
        }
        prev
    }

    /// Expand a huge-stride slab back into base-page records, relocating
    /// each head entry, and its dirty bit, to its base-page offset. Rare:
    /// only a base-grain map landing inside a converted extent needs it.
    fn demote_slab(&mut self, i: usize) {
        let old = &self.slabs[i];
        debug_assert!(old.stride > 1);
        let stride = old.stride as usize;
        let mut fresh = Slab::new(old.base, (old.end() - old.base) as usize, 1);
        for (w, (&present, &dirty)) in old.present.iter().zip(&old.dirty).enumerate() {
            let mut bits = present;
            while bits != 0 {
                let rec = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                fresh.set_present(rec * stride);
                fresh.frames[rec * stride] = old.frames[rec];
                fresh.flags[rec * stride] = old.flags[rec];
            }
            let mut bits = dirty;
            while bits != 0 {
                let rec = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                fresh.set_dirty(rec * stride);
            }
        }
        fresh.live = old.live;
        self.slabs[i] = fresh;
    }

    /// Remove a mapping, returning it. The slot's reservation is kept —
    /// only [`PageTable::release_range`] drops extent storage.
    pub fn unmap(&mut self, vpn: u64) -> Option<Pte> {
        let i = self.slab_index(vpn)?;
        let PageTable {
            slabs,
            live,
            shadows,
            agg,
            ..
        } = self;
        let s = &mut slabs[i];
        let rec = s.rec(vpn)?;
        if !s.is_present(rec) {
            return None;
        }
        let flags = s.flags[rec];
        let prev = Pte {
            frame: s.frames[rec],
            shadow: take_shadow(shadows, vpn),
            flags,
        };
        s.clear_present(rec);
        s.set_dirty(rec);
        s.live -= 1;
        *live -= 1;
        agg.sub(flags);
        Some(prev)
    }

    /// Pre-size records for every page of `range` (called for each VMA
    /// insertion). Gaps between existing extents are filled with fresh
    /// slabs; already-covered pages are left untouched.
    pub fn reserve_range(&mut self, range: PageRange) {
        let mut cursor = range.start_vpn;
        while cursor < range.end_vpn {
            let idx = self.slabs.partition_point(|s| s.base <= cursor);
            if idx > 0 && self.slabs[idx - 1].end() > cursor {
                cursor = self.slabs[idx - 1].end();
                continue;
            }
            let next_base = self.slabs.get(idx).map_or(u64::MAX, |s| s.base);
            let end = range.end_vpn.min(next_base);
            self.slabs
                .insert(idx, Slab::new(cursor, (end - cursor) as usize, 1));
            self.hint_inserted(idx);
            cursor = end;
        }
    }

    /// Convert the (still unpopulated) reservation exactly covering
    /// `range` into a huge-stride extent: one record per
    /// [`crate::PAGES_PER_HUGE`] pages. Only heads carry entries
    /// afterwards; non-head lookups return `None` and non-head maps panic.
    /// Returns `false` (leaving base-page storage in place) when the range
    /// is not huge-alignable or its slab is already populated or shared.
    /// The converted extent starts with no dirty bits, like a fresh
    /// reservation.
    pub fn convert_range_to_huge(&mut self, range: PageRange) -> bool {
        if range.is_empty() || !range.pages().is_multiple_of(crate::PAGES_PER_HUGE) {
            return false;
        }
        let idx = self.first_slab_from(range.start_vpn);
        let Some(s) = self.slabs.get_mut(idx) else {
            return false;
        };
        if s.base != range.start_vpn || s.end() != range.end_vpn || s.live != 0 || s.stride != 1 {
            return false;
        }
        *s = Slab::new(
            range.start_vpn,
            (range.pages() / crate::PAGES_PER_HUGE) as usize,
            crate::PAGES_PER_HUGE,
        );
        true
    }

    /// Clear the records of slab `i` within `range`, handing each removed
    /// entry to `sink` in ascending order, and drop the window's dirty
    /// bits: released records reach the replicas uncharged.
    fn take_window<F: FnMut(u64, Pte)>(&mut self, i: usize, range: PageRange, sink: &mut F) {
        let PageTable {
            slabs,
            live,
            shadows,
            agg,
            ..
        } = self;
        let s = &mut slabs[i];
        let (r_lo, r_hi) = s.window(range);
        s.take_dirty(r_lo, r_hi);
        let mut w = r_lo / WORD;
        while w * WORD < r_hi {
            let mut bits = masked(&s.present, w, r_lo, r_hi);
            while bits != 0 {
                let rec = w * WORD + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let flags = s.flags[rec];
                let vpn = s.vpn_of(rec);
                sink(
                    vpn,
                    Pte {
                        frame: s.frames[rec],
                        shadow: take_shadow(shadows, vpn),
                        flags,
                    },
                );
                s.clear_present(rec);
                s.live -= 1;
                *live -= 1;
                agg.sub(flags);
            }
            w += 1;
        }
    }

    /// Drop every mapping in `range`, handing each removed `(vpn, pte)`
    /// to `sink` in ascending vpn order as it is released, and release the
    /// storage of extents that lie entirely inside the range (`munmap`).
    /// Extents straddling a boundary keep their out-of-range reservation.
    ///
    /// Nothing is buffered: like Linux's `zap_pte_range` feeding a bounded
    /// `mmu_gather`, the caller frees each frame as its entry goes, so an
    /// unmap needs no memory that grows with the range. The run of
    /// fully-covered slabs is spliced out with a single `drain`, so a
    /// munmap over a many-slab space is linear.
    pub fn release_range<F: FnMut(u64, Pte)>(&mut self, range: PageRange, mut sink: F) {
        if range.is_empty() {
            return;
        }
        let mut i = self.first_slab_from(range.start_vpn);
        // Leading partially-covered slabs: clear records in place.
        while i < self.slabs.len() {
            let s = &self.slabs[i];
            if s.base >= range.end_vpn {
                return;
            }
            if s.base >= range.start_vpn && s.end() <= range.end_vpn {
                break;
            }
            self.take_window(i, range, &mut sink);
            i += 1;
        }
        // The contiguous run of fully-covered slabs.
        let lo = i;
        while i < self.slabs.len() && self.slabs[i].end() <= range.end_vpn {
            debug_assert!(self.slabs[i].base >= range.start_vpn);
            i += 1;
        }
        if i > lo {
            let PageTable {
                slabs,
                live,
                shadows,
                agg,
                ..
            } = self;
            for s in slabs.drain(lo..i) {
                *live -= s.live;
                for (w, &word) in s.present.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let rec = w * WORD + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let flags = s.flags[rec];
                        let vpn = s.vpn_of(rec);
                        agg.sub(flags);
                        sink(
                            vpn,
                            Pte {
                                frame: s.frames[rec],
                                shadow: take_shadow(shadows, vpn),
                                flags,
                            },
                        );
                    }
                }
            }
            self.hint_removed(lo, i);
            i = lo;
        }
        // At most one trailing partially-covered slab remains.
        if i < self.slabs.len() && self.slabs[i].base < range.end_vpn {
            self.take_window(i, range, &mut sink);
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// O(1) aggregate statistics, maintained incrementally by every
    /// mutating operation — reading them never walks the slabs.
    pub fn stats(&self) -> PtStats {
        PtStats {
            mapped: self.live as u64,
            next_touch: self.agg.next_touch,
            huge: self.agg.huge,
            replica: self.agg.replica,
            shadow: self.shadows.len() as u64,
            slabs: self.slabs.len() as u64,
        }
    }

    /// The extents in ascending order, each as its page range and its
    /// stride in pages per record (tests and invariant checks).
    pub fn extents(&self) -> impl Iterator<Item = (PageRange, u64)> + '_ {
        self.slabs
            .iter()
            .map(|s| (PageRange::new(s.base, s.end()), s.stride))
    }

    /// Iterate over `(vpn, pte)` pairs in ascending vpn order (the slab
    /// layout is sorted, so order costs nothing).
    pub fn iter(&self) -> WalkRange<'_> {
        self.walk_range(PageRange::new(0, u64::MAX))
    }

    /// Iterate over the mapped `(vpn, pte)` pairs of `range` in ascending
    /// vpn order, popping present bits with `trailing_zeros` so absent
    /// runs cost one word test per 64 records — the batch-walk primitive
    /// behind `migrate_pages`, `madvise`, `mprotect` and the tier
    /// promotion scan.
    pub fn walk_range(&self, range: PageRange) -> WalkRange<'_> {
        let slab_idx = if range.is_empty() {
            self.slabs.len()
        } else {
            self.first_slab_from(range.start_vpn)
        };
        WalkRange {
            slabs: &self.slabs,
            shadows: &self.shadows,
            range,
            slab_idx,
            word_idx: 0,
            r_hi: 0,
            cur_word: 0,
            entered: false,
        }
    }

    /// Apply `f` to every mapped entry of `range` in ascending vpn order.
    /// The mutable counterpart of [`PageTable::walk_range`]: each present
    /// record is loaded, passed to `f`, and stored back only if it
    /// changed, with the incremental stats adjusted and its dirty bit set
    /// on the way.
    pub fn update_range<F: FnMut(u64, &mut Pte)>(&mut self, range: PageRange, mut f: F) {
        if range.is_empty() {
            return;
        }
        let start = self.first_slab_from(range.start_vpn);
        let PageTable {
            slabs,
            shadows,
            agg,
            ..
        } = self;
        for s in &mut slabs[start..] {
            if s.base >= range.end_vpn {
                break;
            }
            let (r_lo, r_hi) = s.window(range);
            let mut w = r_lo / WORD;
            while w * WORD < r_hi {
                let mut bits = masked(&s.present, w, r_lo, r_hi);
                while bits != 0 {
                    let rec = w * WORD + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let vpn = s.vpn_of(rec);
                    let flags = s.flags[rec];
                    let before = Pte {
                        frame: s.frames[rec],
                        shadow: probe_shadow(shadows, vpn),
                        flags,
                    };
                    let mut pte = before;
                    f(vpn, &mut pte);
                    if pte == before {
                        continue;
                    }
                    s.set_dirty(rec);
                    s.frames[rec] = pte.frame;
                    s.flags[rec] = pte.flags;
                    if pte.flags != flags {
                        agg.sub(flags);
                        agg.add(pte.flags);
                    }
                    if pte.shadow != before.shadow {
                        match pte.shadow {
                            Some(fr) => {
                                shadows.insert(vpn, fr);
                            }
                            None => {
                                shadows.remove(&vpn);
                            }
                        }
                    }
                }
                w += 1;
            }
        }
    }

    /// The lowest mapped vpn at or above `vpn`: one step of an ordered
    /// cursor walk for callers that change the table between steps and so
    /// cannot hold a [`WalkRange`] borrow (`migrate_pages`, which walks the
    /// address space in order — that ordered walk is why the paper
    /// measures better locality for it than for `move_pages`, §4.2).
    pub fn next_mapped(&self, vpn: u64) -> Option<u64> {
        self.walk_range(PageRange::new(vpn, u64::MAX))
            .next()
            .map(|(v, _)| v)
    }

    /// All mapped vpns, sorted: a snapshot for walks that other threads
    /// may interleave with (the engine's `migrate_pages` and node-offline
    /// expansions). With sorted slabs this is a plain ordered collect, no
    /// sort.
    pub fn sorted_vpns(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.live);
        v.extend(self.iter().map(|(vpn, _)| vpn));
        v
    }

    /// Count the records of `range` whose value changed since a previous
    /// call covered them, and clear their dirty bits: the PTE writes one
    /// replica takes to catch up with the primary. Window-bounded, so a
    /// 1-page count touches one bitmap word.
    pub(crate) fn take_dirty(&mut self, range: PageRange) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let start = self.first_slab_from(range.start_vpn);
        let mut taken = 0;
        for s in &mut self.slabs[start..] {
            if s.base >= range.end_vpn {
                break;
            }
            let (r_lo, r_hi) = s.window(range);
            taken += s.take_dirty(r_lo, r_hi);
        }
        taken
    }

    /// True when no record changed since a [`PageTable::take_dirty`]
    /// last covered it.
    pub(crate) fn is_clean(&self) -> bool {
        self.slabs.iter().flat_map(|s| &s.dirty).all(|&w| w == 0)
    }
}

/// Write-back guard returned by [`PageTable::get_mut`].
///
/// Derefs to a local copy of the entry; on drop, any change is stored back
/// into the struct-of-arrays slab, the record is marked dirty, and the
/// incremental stats (and the shadow side map) are adjusted to match.
#[derive(Debug)]
pub struct PteRefMut<'a> {
    pt: &'a mut PageTable,
    slab: usize,
    rec: usize,
    vpn: u64,
    orig: Pte,
    cur: Pte,
}

impl Deref for PteRefMut<'_> {
    type Target = Pte;
    fn deref(&self) -> &Pte {
        &self.cur
    }
}

impl DerefMut for PteRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Pte {
        &mut self.cur
    }
}

impl Drop for PteRefMut<'_> {
    fn drop(&mut self) {
        if self.cur == self.orig {
            return;
        }
        {
            let s = &mut self.pt.slabs[self.slab];
            s.frames[self.rec] = self.cur.frame;
            s.flags[self.rec] = self.cur.flags;
            s.set_dirty(self.rec);
        }
        if self.cur.flags != self.orig.flags {
            self.pt.agg.sub(self.orig.flags);
            self.pt.agg.add(self.cur.flags);
        }
        if self.cur.shadow != self.orig.shadow {
            match self.cur.shadow {
                Some(f) => {
                    self.pt.shadows.insert(self.vpn, f);
                }
                None => {
                    self.pt.shadows.remove(&self.vpn);
                }
            }
        }
    }
}

/// Ordered iterator over the mapped entries of a vpn range.
/// See [`PageTable::walk_range`].
#[derive(Debug)]
pub struct WalkRange<'a> {
    slabs: &'a [Slab],
    shadows: &'a BTreeMap<u64, FrameId>,
    range: PageRange,
    /// Next slab to enter (or the one being walked once `entered`).
    slab_idx: usize,
    /// Word cursor within the current slab.
    word_idx: usize,
    /// Record window upper bound within the current slab.
    r_hi: usize,
    /// Remaining present bits of the current word (window-masked).
    cur_word: u64,
    /// Is `slab_idx` the slab currently being walked?
    entered: bool,
}

impl WalkRange<'_> {
    /// Advance to the next non-empty window-masked word, entering new
    /// slabs as needed. Returns `false` when the range is exhausted.
    fn refill(&mut self) -> bool {
        loop {
            if !self.entered {
                let Some(s) = self.slabs.get(self.slab_idx) else {
                    return false;
                };
                if s.base >= self.range.end_vpn {
                    return false;
                }
                let (r_lo, r_hi) = s.window(self.range);
                self.word_idx = r_lo / WORD;
                self.r_hi = r_hi;
                self.entered = true;
                if self.word_idx * WORD < r_hi {
                    self.cur_word = masked(&s.present, self.word_idx, r_lo, r_hi);
                    if self.cur_word != 0 {
                        return true;
                    }
                }
            }
            let s = &self.slabs[self.slab_idx];
            loop {
                self.word_idx += 1;
                if self.word_idx * WORD >= self.r_hi {
                    self.slab_idx += 1;
                    self.entered = false;
                    break;
                }
                // Only the first and last words of a window need masking;
                // interior words are taken whole. `masked` with a
                // zero-offset lower bound reduces to exactly that.
                self.cur_word = masked(&s.present, self.word_idx, 0, self.r_hi);
                if self.cur_word != 0 {
                    return true;
                }
            }
        }
    }
}

impl Iterator for WalkRange<'_> {
    type Item = (u64, Pte);

    fn next(&mut self) -> Option<(u64, Pte)> {
        if self.cur_word == 0 && !self.refill() {
            return None;
        }
        let s = &self.slabs[self.slab_idx];
        let rec = self.word_idx * WORD + self.cur_word.trailing_zeros() as usize;
        self.cur_word &= self.cur_word - 1;
        let vpn = s.vpn_of(rec);
        Some((
            vpn,
            Pte {
                frame: s.frames[rec],
                shadow: probe_shadow(self.shadows, vpn),
                flags: s.flags[rec],
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;

    /// Recompute the aggregate the slow way; every mutating test path
    /// cross-checks the incremental tallies against it.
    fn recount(pt: &PageTable) -> PtStats {
        let mut s = PtStats {
            slabs: pt.slabs.len() as u64,
            ..PtStats::default()
        };
        for (_, pte) in pt.iter() {
            s.mapped += 1;
            s.next_touch += pte.flags.contains(PteFlags::NEXT_TOUCH) as u64;
            s.huge += pte.flags.contains(PteFlags::HUGE) as u64;
            s.replica += pte.flags.contains(PteFlags::REPLICA) as u64;
            s.shadow += pte.shadow.is_some() as u64;
        }
        s
    }

    fn assert_stats_consistent(pt: &PageTable) {
        assert_eq!(pt.stats(), recount(pt), "incremental stats drifted");
    }

    /// A table with one extent reserved over `[lo, hi)`.
    fn reserved(lo: u64, hi: u64) -> PageTable {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(lo, hi));
        pt
    }

    /// Release `range`, collecting what the sink is handed.
    fn release(pt: &mut PageTable, range: PageRange) -> Vec<(u64, Pte)> {
        let mut removed = Vec::new();
        pt.release_range(range, |vpn, pte| removed.push((vpn, pte)));
        removed
    }

    #[test]
    fn map_get_unmap() {
        let mut pt = reserved(0, 8);
        assert!(pt.is_empty());
        assert_eq!(pt.map(5, Pte::present_rw(FrameId(1))), None);
        assert!(pt.get(5).is_some());
        assert_eq!(pt.get(5).unwrap().frame, FrameId(1));
        let old = pt.unmap(5).unwrap();
        assert_eq!(old.frame, FrameId(1));
        assert!(pt.get(5).is_none());
        assert_stats_consistent(&pt);
    }

    #[test]
    fn remap_returns_previous() {
        let mut pt = reserved(0, 8);
        pt.map(1, Pte::present_rw(FrameId(1)));
        let prev = pt.map(1, Pte::present_rw(FrameId(2)));
        assert_eq!(prev.unwrap().frame, FrameId(1));
        assert_eq!(pt.get(1).unwrap().frame, FrameId(2));
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn get_mut_allows_flag_updates() {
        let mut pt = reserved(0, 16);
        pt.map(9, Pte::present_rw(FrameId(3)));
        pt.get_mut(9).unwrap().mark_next_touch();
        assert!(pt.get(9).unwrap().flags.contains(PteFlags::NEXT_TOUCH));
        assert_eq!(pt.stats().next_touch, 1);
        assert_stats_consistent(&pt);
    }

    #[test]
    fn get_mut_shadow_roundtrip() {
        let mut pt = reserved(0, 8);
        pt.map(4, Pte::present_rw(FrameId(1)));
        pt.get_mut(4).unwrap().set_shadow(FrameId(9));
        assert_eq!(pt.get(4).unwrap().shadow, Some(FrameId(9)));
        assert_eq!(pt.stats().shadow, 1);
        let src = pt.get_mut(4).unwrap().commit_shadow();
        assert_eq!(src, FrameId(1));
        assert_eq!(pt.get(4).unwrap().frame, FrameId(9));
        assert_eq!(pt.get(4).unwrap().shadow, None);
        assert_eq!(pt.stats().shadow, 0);
        assert_stats_consistent(&pt);
    }

    #[test]
    fn sorted_vpns_sorted() {
        let mut pt = reserved(0, 16);
        for vpn in [9u64, 2, 7, 4] {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        assert_eq!(pt.sorted_vpns(), vec![2, 4, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "outside every reserved extent")]
    fn map_outside_every_reserved_extent_panics() {
        let mut pt = reserved(0, 8);
        pt.map(8, Pte::present_rw(FrameId(1)));
    }

    #[test]
    fn reserve_then_map_uses_the_slab() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(100, 110));
        assert!(pt.is_empty(), "reservation maps nothing");
        assert_eq!(pt.map(105, Pte::present_rw(FrameId(1))), None);
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.get(105).unwrap().frame, FrameId(1));
        assert!(pt.get(104).is_none());
    }

    #[test]
    fn reserve_fills_only_gaps() {
        let mut pt = reserved(4, 6);
        pt.map(5, Pte::present_rw(FrameId(1)));
        // Overlapping reservation must not disturb the existing entry.
        pt.reserve_range(PageRange::new(0, 10));
        assert_eq!(pt.get(5).unwrap().frame, FrameId(1));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.slabs.len(), 3, "only the two gaps got fresh slabs");
        pt.map(0, Pte::present_rw(FrameId(2)));
        pt.map(9, Pte::present_rw(FrameId(3)));
        assert_eq!(pt.sorted_vpns(), vec![0, 5, 9]);
    }

    #[test]
    fn release_returns_entries_in_order_and_drops_storage() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(10, 20));
        for vpn in [12u64, 17, 15] {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        let removed = release(&mut pt, PageRange::new(10, 20));
        let frames: Vec<(u64, FrameId)> = removed.iter().map(|&(v, p)| (v, p.frame)).collect();
        assert_eq!(
            frames,
            vec![(12, FrameId(12)), (15, FrameId(15)), (17, FrameId(17))]
        );
        assert!(pt.is_empty());
        assert_eq!(pt.extents().count(), 0, "the extent is gone");
        // A fresh reservation (the next `mmap`) takes mappings again.
        pt.reserve_range(PageRange::new(10, 20));
        assert_eq!(pt.map(12, Pte::present_rw(FrameId(1))), None);
        assert_stats_consistent(&pt);
    }

    #[test]
    fn release_keeps_out_of_range_reservation() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 10));
        pt.map(2, Pte::present_rw(FrameId(2)));
        pt.map(7, Pte::present_rw(FrameId(7)));
        let removed = release(&mut pt, PageRange::new(0, 5));
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0], (2, Pte::present_rw(FrameId(2))));
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.get(7).unwrap().frame, FrameId(7));
    }

    #[test]
    fn release_splices_covered_run_in_order() {
        // Regression: many fully-covered slabs used to be removed one
        // `Vec::remove` at a time (quadratic); the drain-based splice must
        // preserve exact ascending order across partial and full slabs.
        let mut pt = PageTable::new();
        for base in [0u64, 10, 20, 30, 40] {
            pt.reserve_range(PageRange::new(base, base + 4));
        }
        for vpn in [1u64, 3, 10, 12, 21, 23, 31, 41, 42] {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        assert_eq!(pt.slabs.len(), 5);
        let removed = release(&mut pt, PageRange::new(2, 42));
        assert!(removed.iter().all(|&(v, p)| p.frame == FrameId(v)));
        let vpns: Vec<u64> = removed.iter().map(|&(v, _)| v).collect();
        assert_eq!(vpns, vec![3, 10, 12, 21, 23, 31, 41]);
        // Slabs 10.. and 20.. and 30.. were fully covered and spliced out;
        // the straddling first and last slabs keep their reservations.
        assert_eq!(pt.slabs.len(), 2);
        assert_eq!(pt.sorted_vpns(), vec![1, 42]);
        assert_stats_consistent(&pt);
    }

    #[test]
    fn walk_range_yields_mapped_subrange_in_order() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 32));
        for vpn in [1u64, 4, 5, 9, 30] {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        let got: Vec<u64> = pt
            .walk_range(PageRange::new(4, 30))
            .map(|(v, _)| v)
            .collect();
        assert_eq!(got, vec![4, 5, 9]);
        let all: Vec<u64> = pt.iter().map(|(v, _)| v).collect();
        assert_eq!(all, vec![1, 4, 5, 9, 30]);
    }

    #[test]
    fn walk_range_spans_multiple_slabs() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 4));
        pt.reserve_range(PageRange::new(100, 104));
        pt.map(2, Pte::present_rw(FrameId(2)));
        pt.map(101, Pte::present_rw(FrameId(101)));
        let got: Vec<u64> = pt
            .walk_range(PageRange::new(0, 1000))
            .map(|(v, _)| v)
            .collect();
        assert_eq!(got, vec![2, 101]);
    }

    #[test]
    fn walk_range_crosses_word_boundaries() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 200));
        // One page per bitmap word plus neighbours of the boundaries.
        let vpns = [0u64, 63, 64, 65, 127, 128, 190];
        for &vpn in &vpns {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        let got: Vec<u64> = pt.iter().map(|(v, _)| v).collect();
        assert_eq!(got, vpns);
        let mid: Vec<u64> = pt
            .walk_range(PageRange::new(63, 128))
            .map(|(v, _)| v)
            .collect();
        assert_eq!(mid, vec![63, 64, 65, 127]);
    }

    #[test]
    fn update_range_mutates_only_mapped_pages() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 16));
        for vpn in [3u64, 8, 12] {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        let mut touched = Vec::new();
        pt.update_range(PageRange::new(0, 10), |vpn, pte| {
            pte.mark_next_touch();
            touched.push(vpn);
        });
        assert_eq!(touched, vec![3, 8]);
        assert!(pt.get(3).unwrap().is_next_touch());
        assert!(pt.get(8).unwrap().is_next_touch());
        assert!(!pt.get(12).unwrap().is_next_touch());
        assert_eq!(pt.stats().next_touch, 2);
        assert_stats_consistent(&pt);
    }

    #[test]
    fn unmap_keeps_reservation() {
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 4));
        pt.map(1, Pte::present_rw(FrameId(1)));
        pt.unmap(1);
        assert!(pt.is_empty());
        assert_eq!(pt.slabs.len(), 1, "unmap must not drop the extent");
    }

    #[test]
    fn hint_survives_unrelated_reserve_and_release() {
        // Regression: reserve_range/release_range used to clobber the hint
        // to slab 0, evicting the hot VMA's cache on every unrelated
        // mmap/munmap. The hint must track its slab through shifts and only
        // invalidate when that slab itself is removed.
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(100, 110));
        pt.map(105, Pte::present_rw(FrameId(1)));
        assert!(pt.get(105).is_some());
        let hot = pt.hint.get();
        assert_eq!(pt.slabs[hot].base, 100);

        // An unrelated reservation *before* the hot slab shifts it up.
        pt.reserve_range(PageRange::new(0, 10));
        assert_eq!(pt.slabs[pt.hint.get()].base, 100, "hint follows its slab");

        // An unrelated reservation *after* it leaves the hint alone.
        pt.reserve_range(PageRange::new(200, 210));
        assert_eq!(pt.slabs[pt.hint.get()].base, 100);

        // Releasing the earlier slab shifts the hint back down.
        release(&mut pt, PageRange::new(0, 10));
        assert_eq!(pt.slabs[pt.hint.get()].base, 100);

        // Releasing the hinted slab itself invalidates the hint; lookups
        // still work through the binary-search fallback.
        release(&mut pt, PageRange::new(100, 110));
        assert_eq!(pt.hint.get(), NO_HINT);
        assert!(pt.get(105).is_none());
        pt.map(205, Pte::present_rw(FrameId(2)));
        assert_eq!(pt.get(205).unwrap().frame, FrameId(2));
    }

    #[test]
    fn huge_conversion_stores_heads_only() {
        let pages = crate::PAGES_PER_HUGE;
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 2 * pages));
        assert!(pt.convert_range_to_huge(PageRange::new(0, 2 * pages)));
        let mut head = Pte::present_rw(FrameId(7));
        head.flags |= PteFlags::HUGE;
        assert_eq!(pt.map(0, head), None);
        assert_eq!(pt.map(pages, head), None);
        assert_eq!(pt.len(), 2, "one record per huge page");
        assert_eq!(pt.stats().huge, 2);
        assert!(pt.get(1).is_none(), "non-head pages carry no entry");
        assert!(pt.get(pages - 1).is_none());
        assert_eq!(pt.sorted_vpns(), vec![0, pages]);
        let removed = release(&mut pt, PageRange::new(0, 2 * pages));
        assert_eq!(removed.len(), 2);
        assert!(pt.is_empty());
        assert_stats_consistent(&pt);
    }

    #[test]
    fn huge_conversion_refuses_populated_or_misaligned() {
        let pages = crate::PAGES_PER_HUGE;
        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, pages));
        pt.map(3, Pte::present_rw(FrameId(1)));
        assert!(!pt.convert_range_to_huge(PageRange::new(0, pages)));
        assert_eq!(pt.get(3).unwrap().frame, FrameId(1));

        let mut pt = PageTable::new();
        pt.reserve_range(PageRange::new(0, 10));
        assert!(!pt.convert_range_to_huge(PageRange::new(0, 10)));
    }

    /// A count reads and clears only its window's dirty bits, even inside
    /// one 64-record block; a record unmapped since its last count is
    /// dirty until a count or a release covers it.
    #[test]
    fn take_dirty_touches_only_the_window() {
        let mut pt = reserved(0, 128);
        let all = PageRange::new(0, 128);
        for vpn in 0..64u64 {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        assert_eq!(pt.take_dirty(all), 64, "one install per record");
        assert!(pt.is_clean());
        // Writes in the window's 64-record block, but outside it.
        pt.get_mut(7).unwrap().frame = FrameId(777);
        pt.unmap(40);
        let window = PageRange::new(5, 6);
        assert_eq!(pt.take_dirty(window), 0);
        pt.get_mut(5).unwrap().frame = FrameId(555);
        assert_eq!(pt.take_dirty(window), 1);
        assert_eq!(pt.take_dirty(window), 0);
        assert!(!pt.is_clean());
        // The overwrite and the removal outside the window are still owed.
        assert_eq!(pt.take_dirty(all), 2);
        assert!(pt.is_clean());
        // A release drops the dirty bits of its window, absent records too.
        pt.unmap(10);
        pt.get_mut(11).unwrap().frame = FrameId(1111);
        release(&mut pt, PageRange::new(0, 20));
        assert!(pt.is_clean());
        assert_stats_consistent(&pt);
    }

    /// Shadow edits are writes: a record whose shadow alone changes is
    /// dirty, through install, replacement, commit and unmap.
    #[test]
    fn dirty_bits_follow_shadow_edits() {
        let mut pt = reserved(0, 128);
        for vpn in [3u64, 70] {
            pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        }
        let all = PageRange::new(0, 128);
        assert_eq!(pt.take_dirty(all), 2);
        pt.get_mut(70).unwrap().set_shadow(FrameId(700));
        assert_eq!(pt.take_dirty(all), 1);
        assert_eq!(pt.take_dirty(all), 0);
        // A new shadow frame under the same flags is still a write.
        pt.get_mut(70).unwrap().shadow = Some(FrameId(701));
        assert_eq!(pt.take_dirty(all), 1);
        pt.get_mut(70).unwrap().commit_shadow();
        assert_eq!(pt.take_dirty(all), 1);
        pt.get_mut(3).unwrap().set_shadow(FrameId(300));
        pt.unmap(70);
        assert_eq!(pt.take_dirty(all), 2);
        pt.update_range(all, |_, pte| pte.shadow = None);
        assert_eq!(pt.take_dirty(all), 1, "a shadow dropped by a batch edit");
        pt.unmap(3);
        assert_eq!(pt.take_dirty(all), 1);
        assert_stats_consistent(&pt);
    }

    /// Demotion moves each head's dirty bit to its base-page record: the
    /// map that demoted the slab then owes its own record and every head
    /// not yet counted, no more.
    #[test]
    fn demotion_carries_dirty_bits_to_base_records() {
        let pages = crate::PAGES_PER_HUGE;
        let mut pt = reserved(0, 2 * pages);
        assert!(pt.convert_range_to_huge(PageRange::new(0, 2 * pages)));
        let mut head = Pte::present_rw(FrameId(7));
        head.flags |= PteFlags::HUGE;
        pt.map(0, head);
        pt.map(pages, head);
        assert_eq!(pt.take_dirty(PageRange::new(0, pages)), 1);
        pt.map(pages + 3, Pte::present_rw(FrameId(9)));
        let strides: Vec<u64> = pt.extents().map(|(_, s)| s).collect();
        assert_eq!(strides, vec![1], "the map demoted the slab");
        assert_eq!(pt.take_dirty(PageRange::new(0, pages)), 0);
        assert_eq!(
            pt.take_dirty(PageRange::new(pages, pages + 1)),
            1,
            "the second head kept its bit"
        );
        assert_eq!(pt.take_dirty(PageRange::new(0, 2 * pages)), 1);
        assert!(pt.is_clean());
        assert_stats_consistent(&pt);
    }
}
