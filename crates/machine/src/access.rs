//! Memory-access execution: translation, fault handling, signal delivery,
//! cache lookup and cost charging.

use crate::engine::RunStats;
use crate::op::MemAccessKind;
use crate::Machine;
use numa_kernel::FaultResolution;
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::{CostComponent, Counter};
use numa_topology::{round_ns, CoreId, NodeId, Topology};
use numa_vm::{PageRange, VirtAddr, PAGE_SIZE};

/// Upper bound on fault-retry loops per touch; exceeding it means the
/// fault handler is not making progress (a runtime bug, loudly reported).
const MAX_FAULT_RETRIES: u32 = 8;

/// Batched per-touch statistics (DESIGN.md §13).
///
/// The touch loop charges the same handful of stats on every page — the
/// `MemoryAccess` breakdown add plus cache-hit/miss and local/remote
/// counters. Accumulating them in this plain-integer scratch and flushing
/// once per scheduling quantum keeps those read-modify-writes out of the
/// per-page path. Totals are unchanged because every charge is additive;
/// traced runs flush after every micro so the engine's span diffs still
/// see per-micro deltas (the flush points are the engine's contract).
/// Rare charges (faults, tiering stalls, replica syncs) keep writing to
/// `RunStats` directly — batching them would buy nothing.
#[derive(Default)]
pub(crate) struct TouchBatch {
    mem_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    local: u64,
    remote: u64,
}

impl TouchBatch {
    /// Drain the accumulated charges into `stats`.
    pub(crate) fn flush(&mut self, stats: &mut RunStats) {
        if self.mem_ns > 0 {
            stats
                .breakdown
                .add(CostComponent::MemoryAccess, self.mem_ns);
            self.mem_ns = 0;
        }
        if self.cache_hits > 0 {
            stats.counters.add(Counter::CacheHits, self.cache_hits);
            self.cache_hits = 0;
        }
        if self.cache_misses > 0 {
            stats.counters.add(Counter::CacheMisses, self.cache_misses);
            self.cache_misses = 0;
        }
        if self.local > 0 {
            stats.counters.add(Counter::LocalAccesses, self.local);
            self.local = 0;
        }
        if self.remote > 0 {
            stats.counters.add(Counter::RemoteAccesses, self.remote);
            self.remote = 0;
        }
    }
}

/// Entries of the touch-cost memo (a power of two).
pub(crate) const TOUCH_MEMO: usize = 256;

/// The charge of one page touch, a pure function of `(portion, kind,
/// fits, core node, home node)` under the machine's fixed cost model.
/// [`Machine`] memoizes it in a direct-mapped table of [`TOUCH_MEMO`]
/// entries that never grows (DESIGN.md §10); a colliding key overwrites.
#[derive(Clone, Copy)]
pub(crate) struct TouchCost {
    portion: u64,
    /// `kind`, `fits` and both node ids, packed; `u64::MAX` when empty.
    tag: u64,
    /// An L3 hit: all of `portion` at L3 bandwidth.
    hit_ns: u64,
    /// A miss: the bytes fetched from DRAM (the fill, plus all reuse when
    /// the operand cannot stay resident) ...
    dram_bytes: u64,
    /// ... their latency plus bandwidth time, NUMA- and tier-scaled ...
    dram_ns: u64,
    /// ... and the rest of `portion`, reuse served at L3 bandwidth.
    reuse_ns: u64,
}

impl TouchCost {
    pub(crate) const EMPTY: TouchCost = TouchCost {
        portion: 0,
        tag: u64::MAX,
        hit_ns: 0,
        dram_bytes: 0,
        dram_ns: 0,
        reuse_ns: 0,
    };

    fn compute(
        topo: &Topology,
        portion: u64,
        tag: u64,
        kind: MemAccessKind,
        fits_in_cache: bool,
        core_node: NodeId,
        home: NodeId,
    ) -> Self {
        let cost = topo.cost();
        let dram_bytes = if fits_in_cache {
            portion.min(PAGE_SIZE)
        } else {
            portion
        };
        let factor = topo.numa_factor(core_node, home);
        let lines = dram_bytes.div_ceil(cost.cache_line).max(1);
        let exposure = match kind {
            MemAccessKind::Stream => cost.stream_latency_exposure,
            MemAccessKind::Blocked => cost.blocked_latency_exposure,
            MemAccessKind::Random => cost.random_latency_exposure,
        };
        // Slow-tier banks serve lines at a latency multiple and a
        // bandwidth fraction of DRAM (CXL-class fabric).
        let tier = topo.tier_of(home);
        let tier_lat = cost.tier_latency_mult(tier);
        let tier_bw = cost.tier_bw_mult(tier);
        let latency_ns =
            round_ns(lines as f64 * cost.dram_latency_ns * exposure * factor * tier_lat);
        let bw_ns = round_ns(dram_bytes as f64 / (cost.core_mem_bw * tier_bw) * factor);
        TouchCost {
            portion,
            tag,
            hit_ns: round_ns(portion as f64 / cost.l3_bw),
            dram_bytes,
            dram_ns: latency_ns + bw_ns,
            reuse_ns: round_ns((portion - dram_bytes) as f64 / cost.l3_bw),
        }
    }
}

impl Machine {
    /// The memoized [`TouchCost`] of a touch.
    fn touch_cost(
        &mut self,
        portion: u64,
        kind: MemAccessKind,
        fits_in_cache: bool,
        core_node: NodeId,
        home: NodeId,
    ) -> TouchCost {
        let tag = kind as u64
            | u64::from(fits_in_cache) << 2
            | u64::from(core_node.0) << 3
            | u64::from(home.0) << 19;
        let hash = (portion ^ tag.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let entry = &mut self.touch_costs[(hash >> (64 - TOUCH_MEMO.trailing_zeros())) as usize];
        if entry.portion != portion || entry.tag != tag {
            *entry = TouchCost::compute(
                &self.topo,
                portion,
                tag,
                kind,
                fits_in_cache,
                core_node,
                home,
            );
        }
        *entry
    }

    /// Resolve the page-table vpn that backs `addr` (huge mappings are
    /// keyed by their head page).
    pub fn resolve_vpn(&self, addr: VirtAddr) -> u64 {
        // All-4kB address spaces (every run without the huge-page
        // extension) resolve without walking the VMA tree.
        if !self.space.has_huge_vmas() {
            return addr.vpn();
        }
        match self.space.find_vma(addr) {
            Some(vma) if vma.huge => {
                let rel = addr.vpn() - vma.range.start_vpn;
                vma.range.start_vpn + rel / numa_vm::PAGES_PER_HUGE * numa_vm::PAGES_PER_HUGE
            }
            _ => addr.vpn(),
        }
    }

    /// Make sure `addr` is mapped with sufficient permission, taking
    /// faults (and delivering SIGSEGV to the registered handler) as
    /// needed. Returns the time after fault processing and the node now
    /// holding the page.
    pub(crate) fn ensure_mapped(
        &mut self,
        tid: usize,
        core: CoreId,
        mut now: SimTime,
        addr: VirtAddr,
        write: bool,
        stats: &mut RunStats,
    ) -> (SimTime, NodeId) {
        // Attribute kernel-recorded trace events (faults, locks, TLB
        // shootdowns) to the faulting thread.
        self.trace.set_thread(tid);
        for _ in 0..MAX_FAULT_RETRIES {
            // A nested fault (e.g. inside a next-touch signal handler)
            // already OOM-killed this thread: unwind without touching
            // anything further; the engine reaps the thread after the
            // current micro.
            if self.oom_kill_pending {
                return (now, self.topo.node_of_core(core));
            }
            let vpn = self.resolve_vpn(addr);
            if let Some(pte) = self.space.page_table.get(vpn) {
                if pte.permits(write) {
                    return (now, self.frames.node_of(pte.frame));
                }
            }
            match self.kernel.handle_fault(
                &mut self.space,
                &mut self.frames,
                &mut self.tlb,
                now,
                core,
                addr,
                write,
                &mut stats.breakdown,
            ) {
                FaultResolution::Resolved { end, .. } => {
                    // The kernel fault path records the typed PageFault
                    // trace event itself and charged its costs to
                    // `stats.breakdown` directly.
                    now = end;
                }
                FaultResolution::Segv { end } => {
                    let sigsegv_deliver_ns = self.topology().cost().sigsegv_deliver_ns;
                    now = end + sigsegv_deliver_ns;
                    stats
                        .breakdown
                        .add(CostComponent::PageFaultSignal, sigsegv_deliver_ns);
                    let mut handler = self.segv_handler.take().unwrap_or_else(|| {
                        panic!(
                            "thread {tid} took SIGSEGV at {addr} with no handler registered \
                             (a protected page was touched outside any next-touch run)"
                        )
                    });
                    now = handler.on_segv(self, tid, core, addr, now, stats);
                    self.segv_handler = Some(handler);
                }
                FaultResolution::Fatal(e) => {
                    if self.kernel.config.pressure.oom_kill
                        && matches!(e, numa_vm::VmError::OutOfMemory)
                    {
                        // Deterministic kill policy: the allocating thread
                        // is the victim (Linux `oom_kill_allocating_task`),
                        // so runs never depend on a heuristic badness scan.
                        let node = self.topo.node_of_core(core);
                        self.kernel.counters.bump(Counter::OomKills);
                        self.trace
                            .record(now, TraceEventKind::OomKill { node: node.0 });
                        self.oom_kill_pending = true;
                        return (now, node);
                    }
                    panic!("thread {tid} fatal memory fault at {addr}: {e}");
                }
            }
        }
        panic!(
            "thread {tid} fault at {addr} did not resolve after {MAX_FAULT_RETRIES} retries \
             (handler restored protection without fixing access?)"
        );
    }

    /// Execute an access atomically: fault in and charge every page of
    /// `[addr, addr+bytes)` in order, spreading `traffic` bytes of DRAM
    /// movement uniformly over the pages.
    ///
    /// Engine-run threads expand accesses into per-page micro-ops instead,
    /// so concurrent threads interleave in virtual-time order. This
    /// sequential form is the reference the engine-equivalence proptest
    /// (`tests/proptest_machine.rs`) holds that expansion to.
    #[allow(clippy::too_many_arguments)]
    pub fn exec_access(
        &mut self,
        tid: usize,
        core: CoreId,
        mut now: SimTime,
        addr: VirtAddr,
        bytes: u64,
        traffic: u64,
        write: bool,
        kind: MemAccessKind,
        stats: &mut RunStats,
    ) -> SimTime {
        if bytes == 0 {
            return now;
        }
        let touches = build_touches(addr, bytes);
        let pages = touches.len() as u64;
        let per_page = traffic / pages.max(1);
        let remainder = traffic - per_page * pages;
        let fits = self.operand_fits_in_cache(core, pages);
        let mut batch = TouchBatch::default();
        for (i, page_addr) in touches.into_iter().enumerate() {
            let portion = per_page + if (i as u64) < remainder { 1 } else { 0 };
            now = self.touch_page(
                tid, core, now, page_addr, portion, write, kind, fits, stats, &mut batch,
            );
            if self.oom_kill_pending {
                break;
            }
        }
        batch.flush(stats);
        now
    }

    /// Does an operand of `pages` pages fit in the per-core share of the
    /// accessing core's L3? If so, only one fill pass per page goes to
    /// DRAM; the remaining charged traffic is cache reuse served at L3
    /// bandwidth. This is the mechanism behind the paper's 512 threshold
    /// (Fig. 8): a 512x512-double operand (2 MB) is the first size to
    /// overflow the shared L3, suddenly exposing DRAM and NUMA costs for
    /// *all* of its reuse traffic.
    pub(crate) fn operand_fits_in_cache(&self, core: CoreId, pages: u64) -> bool {
        let topo = self.topology();
        let core_node = topo.node_of_core(core);
        let cores_on_node = topo.core_count_of_node(core_node).max(1) as u64;
        let l3_share = topo.node(core_node).l3_bytes / cores_on_node;
        pages * PAGE_SIZE <= l3_share
    }

    /// Touch one page: resolve faults, then charge `portion` bytes of
    /// traffic through the cache/DRAM/interconnect model. The engine's
    /// per-page micro-op executor. The common-case charges land in
    /// `batch`; the caller flushes it into `stats` at its quantum
    /// boundary (see [`TouchBatch`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn touch_page(
        &mut self,
        tid: usize,
        core: CoreId,
        now: SimTime,
        page_addr: VirtAddr,
        portion: u64,
        write: bool,
        kind: MemAccessKind,
        fits_in_cache: bool,
        stats: &mut RunStats,
        batch: &mut TouchBatch,
    ) -> SimTime {
        // Field borrows of `self.topo`, never an Arc clone: this runs
        // once per touched page, and the refcount round-trip was
        // measurable across the multi-million-touch sweeps.
        let core_node = self.topo.node_of_core(core);
        let vpn = page_addr.vpn();

        let (mut now, mut home) = self.ensure_mapped(tid, core, now, page_addr, write, stats);
        if self.oom_kill_pending {
            // The fault OOM-killed this thread: nothing got mapped, so
            // charge nothing and let the engine reap it.
            return now;
        }

        // Tiering hooks: stall behind stop-the-world migration windows,
        // track write generations (what transactional commits re-check),
        // count shadow-state hits, and sample per-page heat for the
        // promotion daemon. All gated on the config so single-tier
        // machines pay nothing.
        if self.kernel.config.tiering {
            let tvpn = self.resolve_vpn(page_addr);
            if let Some(stall_end) = self.kernel.tier_stw_stall_end(tvpn, now) {
                stats.counters.bump(Counter::TierStwStalls);
                stats
                    .breakdown
                    .add(CostComponent::LockWait, stall_end.since(now));
                now = stall_end;
            }
            if let Some(pte) = self.space.page_table.get(tvpn) {
                if pte.has_shadow() {
                    stats.counters.bump(Counter::TierShadowHits);
                }
                if write {
                    self.frames.note_write(pte.frame);
                }
            }
            *self.heat.entry(tvpn).or_insert(0) += 1;
        }

        // Reads may be served by a closer replica (extension). Gated on
        // the table being non-empty at all so unreplicated runs pay one
        // branch here, not an address resolution plus a map probe.
        if !write && self.kernel.has_any_replicas() {
            if let Some((node, _)) = self
                .kernel
                .nearest_replica(self.resolve_vpn(page_addr), core_node)
            {
                home = node;
            }
        }
        if portion == 0 {
            return now;
        }

        let start = now;
        now = self.charge_pt_walk(core_node, now, kind, stats);
        let charge = self.touch_cost(portion, kind, fits_in_cache, core_node, home);
        if self.caches[core_node.index()].touch(vpn) {
            // Served from the node's shared L3.
            batch.cache_hits += 1;
            now += charge.hit_ns;
        } else {
            batch.cache_misses += 1;
            let xfer = self.kernel.interconnect.access(
                &self.topo,
                now,
                core_node,
                home,
                charge.dram_bytes,
                charge.dram_ns,
            );
            now = xfer.end + charge.reuse_ns;
            if home == core_node {
                batch.local += 1;
            } else {
                batch.remote += 1;
            }
        }
        batch.mem_ns += now.since(start);
        now
    }

    /// Charge the expected page-walk cost of one page touch under the
    /// ptplace model: TLB-miss probability (by access pattern) times the
    /// walk latency from the touching core's node to the page table's
    /// home. With placement unset this is a single branch and no cost —
    /// existing runs stay byte-identical. Replicated tables walk locally:
    /// eager write-through keeps every replica current, so a walk never
    /// pays for a sync.
    fn charge_pt_walk(
        &self,
        core_node: NodeId,
        now: SimTime,
        kind: MemAccessKind,
        stats: &mut RunStats,
    ) -> SimTime {
        let Some(placement) = self.space.pt_placement() else {
            return now;
        };
        let cost = self.topo.cost();
        let pt_home = match placement {
            numa_vm::PtPlacement::SingleHome(node) => node,
            numa_vm::PtPlacement::Replicated => core_node,
        };
        let hops = self.topo.hops(core_node, pt_home);
        let miss = match kind {
            MemAccessKind::Stream => cost.tlb_miss_rate_stream,
            MemAccessKind::Blocked => cost.tlb_miss_rate_blocked,
            MemAccessKind::Random => cost.tlb_miss_rate_random,
        };
        let walk = round_ns(miss * cost.pt_walk_ns(hops));
        if hops > 0 && walk > 0 {
            stats.counters.bump(Counter::PtWalksRemote);
        }
        now + walk
    }

    /// Execute an `Op::Memcpy`: a user-space SSE-class copy between two
    /// simulated buffers (the paper's Fig. 4 baseline).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_memcpy(
        &mut self,
        tid: usize,
        core: CoreId,
        mut now: SimTime,
        src: VirtAddr,
        dst: VirtAddr,
        bytes: u64,
        stats: &mut RunStats,
    ) -> SimTime {
        let copy_bw = self.topo.cost().user_copy_bw;
        let mut off = 0u64;
        while off < bytes {
            let chunk = (PAGE_SIZE - (src + off).page_offset()).min(bytes - off);
            let (t1, src_node) = self.ensure_mapped(tid, core, now, src + off, false, stats);
            let (t2, dst_node) = self.ensure_mapped(tid, core, t1, dst + off, true, stats);
            now = t2;
            if self.oom_kill_pending {
                return now;
            }
            let start = now;
            let xfer = self
                .kernel
                .interconnect
                .transfer(&self.topo, now, src_node, dst_node, chunk, copy_bw);
            now = xfer.end;
            stats
                .breakdown
                .add(CostComponent::MemoryAccess, now.since(start));
            off += chunk;
        }
        now
    }
}

/// The distinct page-touch addresses of a contiguous access, streamed
/// without materialising a `Vec` (the engine's expansion hot path).
pub(crate) fn touch_iter(addr: VirtAddr, bytes: u64) -> impl Iterator<Item = VirtAddr> {
    PageRange::covering(addr, bytes)
        .iter()
        .map(move |vpn| VirtAddr::from_vpn(vpn).max_addr(addr))
}

/// The distinct page-touch addresses of a contiguous access.
pub(crate) fn build_touches(addr: VirtAddr, bytes: u64) -> Vec<VirtAddr> {
    touch_iter(addr, bytes).collect()
}

/// The distinct page-touch addresses of a strided access, preserving
/// first-touch order (consecutive segments often share a page).
pub(crate) fn build_strided_touches(
    base: VirtAddr,
    seg_bytes: u64,
    stride: u64,
    count: u64,
) -> Vec<VirtAddr> {
    let mut touches: Vec<VirtAddr> = Vec::new();
    let mut last_vpn = u64::MAX;
    for s in 0..count {
        let seg_start = base + s * stride;
        for vpn in PageRange::covering(seg_start, seg_bytes).iter() {
            if vpn != last_vpn {
                last_vpn = vpn;
                touches.push(VirtAddr::from_vpn(vpn).max_addr(seg_start));
            }
        }
    }
    touches
}

/// Small helper: clamp a page's base address so the first touched byte of
/// the first page is the caller's `addr` (faults must hit the exact
/// address the program touches, not the page base below a mapping).
trait MaxAddr {
    fn max_addr(self, other: VirtAddr) -> VirtAddr;
}

impl MaxAddr for VirtAddr {
    fn max_addr(self, other: VirtAddr) -> VirtAddr {
        if other.raw() > self.raw() {
            other
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RunStats;
    use numa_vm::MemPolicy;

    #[test]
    fn access_populates_and_charges() {
        let mut m = Machine::two_node();
        let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
        let mut stats = RunStats::default();
        let end = m.exec_access(
            0,
            CoreId(0),
            SimTime::ZERO,
            a,
            4 * PAGE_SIZE,
            4 * PAGE_SIZE,
            true,
            MemAccessKind::Stream,
            &mut stats,
        );
        assert!(end > SimTime::ZERO);
        assert_eq!(m.page_node(a), Some(NodeId(0)));
        assert!(stats.breakdown.get(CostComponent::MemoryAccess) > 0);
        assert_eq!(stats.counters.get(Counter::CacheMisses), 4);
    }

    #[test]
    fn second_pass_hits_cache_and_is_cheaper() {
        let mut m = Machine::two_node();
        let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
        let mut stats = RunStats::default();
        let t1 = m.exec_access(
            0,
            CoreId(0),
            SimTime::ZERO,
            a,
            4 * PAGE_SIZE,
            4 * PAGE_SIZE,
            false,
            MemAccessKind::Stream,
            &mut stats,
        );
        let t2 = m.exec_access(
            0,
            CoreId(0),
            t1,
            a,
            4 * PAGE_SIZE,
            4 * PAGE_SIZE,
            false,
            MemAccessKind::Stream,
            &mut stats,
        );
        assert!(t2.since(t1) < t1.since(SimTime::ZERO));
        assert_eq!(stats.counters.get(Counter::CacheHits), 4);
    }

    #[test]
    fn remote_access_slower_than_local() {
        let mut m = Machine::two_node();
        let a = m.alloc(PAGE_SIZE, MemPolicy::Bind(NodeId(1)));
        let b = m.alloc(PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
        let mut stats = RunStats::default();
        // Populate both from core 0 (node 0); policies pin the frames.
        let t = m.exec_access(
            0,
            CoreId(0),
            SimTime::ZERO,
            a,
            8,
            8,
            true,
            MemAccessKind::Blocked,
            &mut stats,
        );
        let t = m.exec_access(
            0,
            CoreId(0),
            t,
            b,
            8,
            8,
            true,
            MemAccessKind::Blocked,
            &mut stats,
        );
        m.flush_caches();
        // Timed, cold accesses.
        let t1 = m.exec_access(
            0,
            CoreId(0),
            t,
            a,
            8,
            PAGE_SIZE,
            false,
            MemAccessKind::Blocked,
            &mut stats,
        );
        let remote_ns = t1.since(t);
        m.flush_caches();
        let t2 = m.exec_access(
            0,
            CoreId(0),
            t1,
            b,
            8,
            PAGE_SIZE,
            false,
            MemAccessKind::Blocked,
            &mut stats,
        );
        let local_ns = t2.since(t1);
        assert!(
            remote_ns > local_ns,
            "remote {remote_ns} must exceed local {local_ns}"
        );
        let ratio = remote_ns as f64 / local_ns as f64;
        assert!((1.1..1.6).contains(&ratio), "NUMA factor band, got {ratio}");
    }

    #[test]
    fn memcpy_between_nodes_populates_both_sides() {
        let mut m = Machine::two_node();
        let src = m.alloc(2 * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
        let dst = m.alloc(2 * PAGE_SIZE, MemPolicy::Bind(NodeId(1)));
        let mut stats = RunStats::default();
        let end = m.exec_memcpy(
            0,
            CoreId(0),
            SimTime::ZERO,
            src,
            dst,
            2 * PAGE_SIZE,
            &mut stats,
        );
        assert!(end > SimTime::ZERO);
        assert_eq!(m.page_node(src), Some(NodeId(0)));
        assert_eq!(m.page_node(dst), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "no handler registered")]
    fn segv_without_handler_panics() {
        use numa_stats::CostComponent;
        use numa_vm::Protection;
        let mut m = Machine::two_node();
        let a = m.alloc(PAGE_SIZE, MemPolicy::FirstTouch);
        let mut stats = RunStats::default();
        let t = m.exec_access(
            0,
            CoreId(0),
            SimTime::ZERO,
            a,
            8,
            8,
            true,
            MemAccessKind::Stream,
            &mut stats,
        );
        let range = PageRange::new(a.vpn(), a.vpn() + 1);
        m.kernel
            .mprotect(
                &mut m.space,
                &mut m.tlb,
                t,
                CoreId(0),
                range,
                Protection::None,
                CostComponent::MprotectMark,
            )
            .unwrap();
        m.exec_access(
            0,
            CoreId(0),
            t,
            a,
            8,
            8,
            false,
            MemAccessKind::Stream,
            &mut stats,
        );
    }
}
