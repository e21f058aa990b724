//! Memory-pressure resilience: direct reclaim, node evacuation and the
//! retry-livelock watchdog.
//!
//! Linux survives memory pressure with a layered defence — per-zone
//! watermarks wake `kswapd`, allocations that dip below the min
//! watermark reclaim directly on the allocating thread, and the OOM
//! killer is the last resort. This module gives the simulated kernel
//! the same ladder, built on the [`FrameAllocator`] watermarks:
//!
//! * [`Kernel::direct_reclaim`] — evict cold pages off a strapped node
//!   onto the nearest node with room (preferring the slow tier on
//!   tiered machines, like zone demotion), charged to the allocating
//!   thread exactly as `__alloc_pages`'s slow path is;
//! * [`Kernel::evacuate_page_step`] — one page of a node hot-remove,
//!   with the same typed partial-failure statuses as `move_pages(2)`;
//! * [`Kernel::watchdog_allow_retry`] — a virtual-time livelock
//!   watchdog over the retry machinery (engine `move_pages` retries and
//!   the user-space next-touch handler's re-issues): when a window
//!   passes with retries but zero migration progress, further retries
//!   are denied and the callers degrade instead of spinning forever.
//!
//! Everything here is **off by default** ([`PressureSettings::default`]
//! disables all three) and costs a single branch when disabled, so
//! pre-existing experiment outputs stay byte-identical.
//!
//! Deliberate simplifications, documented rather than modelled: reclaim
//! and evacuation skip the TLB-shootdown round a real kernel would run
//! per batch (the migration syscalls model it; the pressure paths fold
//! it into the per-page locked copy), and reclaim never writes to swap —
//! the simulated machines are swapless, so "reclaim" always means
//! migrating the page to another node's frames.

use crate::syscalls::PageStatus;
use crate::{Kernel, RelocSite};
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::{Breakdown, CostComponent, Counter};
use numa_topology::{MemTier, NodeId};
use numa_vm::{AddressSpace, FrameAllocator, PteFlags};
use serde::{Deserialize, Serialize};

/// Most pages one direct-reclaim pass will scan.
const RECLAIM_BATCH: usize = 32;

/// Tuning of the retry-livelock watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// How long (virtual ns) the retry machinery may churn with zero
    /// migration progress before the watchdog fires.
    pub window_ns: u64,
    /// Minimum retries inside the window before firing — a handful of
    /// transient failures is normal operation, not a livelock.
    pub min_retries: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            window_ns: 200_000,
            min_retries: 8,
        }
    }
}

/// Memory-pressure feature switches. All off by default: the pressure
/// ladder only runs in the experiments that opt in, and a disabled
/// setting costs one branch on the paths it guards.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureSettings {
    /// Direct reclaim on allocation failure and below-min allocations
    /// (the `__alloc_pages` slow path).
    pub reclaim: bool,
    /// Kill the faulting thread on an unservable allocation instead of
    /// aborting the simulation (the machine layer's analogue of the OOM
    /// killer with `oom_kill_allocating_task=1`).
    pub oom_kill: bool,
    /// Retry-livelock watchdog; `None` disables it.
    pub watchdog: Option<WatchdogConfig>,
}

impl PressureSettings {
    /// Every pressure defence on, with default tuning — what the
    /// pressure experiment runs.
    pub fn enabled() -> Self {
        PressureSettings {
            reclaim: true,
            oom_kill: true,
            watchdog: Some(WatchdogConfig::default()),
        }
    }
}

/// Watchdog runtime state (lives on the [`Kernel`]).
#[derive(Debug)]
pub(crate) struct Watchdog {
    window_start: SimTime,
    retries: u64,
    progress_at_start: u64,
    fired: bool,
}

impl Watchdog {
    pub(crate) fn new() -> Self {
        Watchdog {
            window_start: SimTime::ZERO,
            retries: 0,
            progress_at_start: 0,
            fired: false,
        }
    }
}

impl Kernel {
    /// Total migration progress the watchdog watches: every counter a
    /// stuck retry loop would fail to advance.
    fn progress_sum(&self) -> u64 {
        self.counters.get(Counter::PagesMovedSyscall)
            + self.counters.get(Counter::PagesMovedFault)
            + self.counters.get(Counter::PagesMovedProcess)
            + self.counters.get(Counter::TierTxnCommits)
            + self.counters.get(Counter::PagesReclaimed)
            + self.counters.get(Counter::PagesEvacuated)
    }

    /// Ask the watchdog whether a transient migration failure may be
    /// retried. Always `true` when the watchdog is disabled (one
    /// branch). Otherwise the retry is noted; if the configured window
    /// has elapsed with at least `min_retries` retries and **zero**
    /// migration progress, the watchdog fires — counter, trace event,
    /// and `false` from here on — forcing the retry loops to degrade
    /// instead of livelocking. Any progress re-arms it.
    pub fn watchdog_allow_retry(&mut self, now: SimTime) -> bool {
        let Some(cfg) = self.config.pressure.watchdog else {
            return true;
        };
        let progress = self.progress_sum();
        if progress > self.watchdog.progress_at_start {
            self.watchdog.window_start = now;
            self.watchdog.retries = 0;
            self.watchdog.progress_at_start = progress;
            self.watchdog.fired = false;
        }
        self.watchdog.retries += 1;
        if now.since(self.watchdog.window_start) >= cfg.window_ns
            && self.watchdog.retries >= cfg.min_retries
        {
            if !self.watchdog.fired {
                self.watchdog.fired = true;
                self.counters.bump(Counter::WatchdogFirings);
                self.trace.record(
                    now,
                    TraceEventKind::WatchdogFired {
                        retries: self.watchdog.retries,
                        window_ns: cfg.window_ns,
                    },
                );
            }
            return false;
        }
        true
    }

    /// Has the watchdog fired (and not been re-armed by progress)?
    /// Read-only probe for the reclaim daemon, which skips its wake-ups
    /// while the watchdog is tripped.
    pub fn watchdog_fired(&self) -> bool {
        self.config.pressure.watchdog.is_some() && self.watchdog.fired
    }

    /// Probe `node`'s pressure level and account the transition if it
    /// changed. One branch when no watermarks are configured.
    pub fn note_pressure(&mut self, frames: &mut FrameAllocator, now: SimTime, node: NodeId) {
        if !frames.watermarked() {
            return;
        }
        if let Some(level) = frames.probe_pressure(node) {
            self.counters.bump(Counter::PressureTransitions);
            self.trace.record(
                now,
                TraceEventKind::PressureChange {
                    node: node.0,
                    level: level.name(),
                },
            );
        }
    }

    /// The destination a reclaimed/evacuated page moves to: the nearest
    /// (then lowest-numbered) online node with a free frame, other than
    /// `src`. With `prefer_slow`, slow-tier nodes rank before DRAM at
    /// any distance — reclaim on tiered machines demotes, like zone
    /// demotion under `kswapd`.
    pub(crate) fn pick_dest(
        &self,
        frames: &FrameAllocator,
        src: NodeId,
        prefer_slow: bool,
    ) -> Option<NodeId> {
        let topo = self.topology();
        let mut best: Option<((u8, u32, u16), NodeId)> = None;
        for n in topo.node_ids() {
            if n == src || frames.is_offline(n) || frames.free_on(n) == 0 {
                continue;
            }
            let rank = if prefer_slow && topo.tier_of(n) != MemTier::Slow {
                1u8
            } else {
                0
            };
            let key = (rank, topo.hops(src, n), n.0);
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, n));
            }
        }
        best.map(|(_, n)| n)
    }

    /// Direct reclaim on `node`: migrate cold resident pages to the
    /// nearest node with room until the node is back above its low
    /// watermark (or the batch limit is hit), charging the work to the
    /// calling thread — Linux's allocation slow path. Victims are taken
    /// in ascending-vpn order (deterministic; the cold end of the heap
    /// for the sequential workloads the pressure experiments run),
    /// skipping huge, replicated, next-touch-marked, tier-in-flight and
    /// the `protect_vpn` page. Per-victim [`numa_sim::FaultSite::Reclaim`]
    /// injections skip that victim (a pinned page), costing only the
    /// failed isolate.
    ///
    /// Returns the completion time and the number of pages reclaimed.
    pub fn direct_reclaim(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        node: NodeId,
        protect_vpn: Option<u64>,
        b: &mut Breakdown,
    ) -> (SimTime, u64) {
        self.counters.bump(Counter::DirectReclaims);
        let mut t = now;
        let mut scanned = 0u64;
        let mut reclaimed = 0u64;

        let victims: Vec<u64> = space
            .page_table
            .iter()
            .filter(|&(vpn, pte)| {
                Some(vpn) != protect_vpn
                    && !pte.flags.intersects(PteFlags::HUGE | PteFlags::REPLICA)
                    && pte.shadow.is_none()
                    && !pte.is_next_touch()
                    && frames.node_of(pte.frame) == node
            })
            .map(|(vpn, _)| vpn)
            .take(RECLAIM_BATCH)
            .collect();
        for vpn in victims {
            // Enough: back above low (with watermarks) or one frame free
            // (without — the bare alloc-failure retry needs just one).
            if reclaimed > 0 && frames.free_on(node) > frames.watermark_low(node) {
                break;
            }
            scanned += 1;
            self.counters.bump(Counter::ReclaimScans);
            let (end, status) =
                self.relocate_page(space, frames, t, vpn, None, RelocSite::Reclaim, b);
            t = end;
            match status {
                PageStatus::Moved(_) => reclaimed += 1,
                // Nowhere to put pages; the OOM path takes over.
                PageStatus::NoMemory => break,
                // A pinned victim is skipped.
                _ => {}
            }
        }

        self.trace.record(
            now,
            TraceEventKind::ReclaimRun {
                node: node.0,
                scanned,
                reclaimed,
                dur_ns: t.since(now),
            },
        );
        self.note_pressure(frames, t, node);
        (t, reclaimed)
    }

    /// Mark `node` unallocatable (hot-remove step 1). Resident frames
    /// stay live and mapped — the evacuation micro-steps move them out.
    pub fn node_offline_begin(&mut self, frames: &mut FrameAllocator, now: SimTime, node: NodeId) {
        frames.set_offline(node);
        self.counters.bump(Counter::NodesOfflined);
        self.trace
            .record(now, TraceEventKind::NodeOffline { node: node.0 });
    }

    /// Bring `node` back online (allocatable again).
    pub fn node_online(&mut self, frames: &mut FrameAllocator, now: SimTime, node: NodeId) {
        frames.set_online(node);
        self.counters.bump(Counter::NodesOnlined);
        self.trace
            .record(now, TraceEventKind::NodeOnline { node: node.0 });
    }

    /// Evacuate one page off an offlining `node` (engine micro-step),
    /// with `move_pages(2)`-style partial-failure statuses: `Busy` is
    /// retryable (the engine re-queues it under its retry budget),
    /// `NoMemory`/`NotPresent` degrade — the page stays where it is,
    /// still mapped, exactly like a Linux offline aborting with
    /// `-EBUSY`. Returns `None` when there is nothing to do (page gone,
    /// already elsewhere, or unmovable huge/replicated).
    pub fn evacuate_page_step(
        &mut self,
        space: &mut AddressSpace,
        frames: &mut FrameAllocator,
        now: SimTime,
        vpn: u64,
        node: NodeId,
    ) -> (SimTime, Breakdown, Option<PageStatus>) {
        let mut b = Breakdown::new();
        let Some(pte) = space.page_table.get(vpn) else {
            return (now, b, None);
        };
        if frames.node_of(pte.frame) != node {
            return (now, b, None);
        }
        let huge = pte.flags.contains(PteFlags::HUGE);
        if (huge && !self.config.huge_page_migration) || pte.flags.contains(PteFlags::REPLICA) {
            // Unmovable here: huge without the migration extension, or a
            // replicated page (its replica set pins the home frame).
            return (now, b, None);
        }
        if pte.shadow.is_some() {
            // A transactional tier migration is mid-flight on this page;
            // come back after it commits or aborts.
            let mut t = now;
            self.charge_failed_page(&mut t, &mut b, CostComponent::MigratePagesWalk);
            return (t, b, Some(PageStatus::Busy));
        }
        let (t, status) =
            self.relocate_page(space, frames, now, vpn, None, RelocSite::Evacuate, &mut b);
        (t, b, Some(status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::Fixture;
    use crate::{FaultResolution, KernelConfig};
    use numa_sim::FaultPlan;
    use numa_topology::{presets, CoreId};
    use numa_vm::{VmError, PAGE_SIZE};
    use std::sync::Arc;

    fn pressured() -> KernelConfig {
        KernelConfig {
            pressure: PressureSettings::enabled(),
            ..KernelConfig::default()
        }
    }

    /// A fixture whose allocator has only `cap` frames per node.
    fn small_fixture(config: KernelConfig, cap: u64) -> Fixture {
        let mut fx = Fixture::with_config(config);
        fx.frames = numa_vm::FrameAllocator::new(4, cap);
        fx
    }

    fn touch(fx: &mut Fixture, addr: numa_vm::VirtAddr, core: CoreId) -> FaultResolution {
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            core,
            addr,
            true,
            &mut Breakdown::new(),
        )
    }

    #[test]
    fn pressure_defaults_are_off() {
        let s = PressureSettings::default();
        assert!(!s.reclaim && !s.oom_kill && s.watchdog.is_none());
        let on = PressureSettings::enabled();
        assert!(on.reclaim && on.oom_kill && on.watchdog.is_some());
    }

    #[test]
    fn direct_reclaim_frees_room_on_the_strapped_node() {
        // 4 frames per node; fill node 0 via Bind, then reclaim.
        let mut fx = small_fixture(pressured(), 4);
        let addr = fx
            .space
            .mmap(
                4 * PAGE_SIZE,
                numa_vm::Protection::ReadWrite,
                numa_vm::VmaKind::PrivateAnonymous,
                numa_vm::MemPolicy::Bind(NodeId(0)),
            )
            .unwrap();
        for p in 0..4 {
            assert!(matches!(
                touch(&mut fx, addr + p * PAGE_SIZE, CoreId(0)),
                FaultResolution::Resolved { .. }
            ));
        }
        assert_eq!(fx.frames.free_on(NodeId(0)), 0);
        let (_, reclaimed) = fx.kernel.direct_reclaim(
            &mut fx.space,
            &mut fx.frames,
            SimTime::ZERO,
            NodeId(0),
            None,
            &mut Breakdown::new(),
        );
        assert!(reclaimed > 0, "reclaim must evict something");
        assert!(fx.frames.free_on(NodeId(0)) > 0);
        // Evicted pages stay mapped, on other nodes, contents intact.
        let pte = fx.space.page_table.get(addr.vpn()).unwrap();
        assert_ne!(fx.frames.node_of(pte.frame), NodeId(0));
        assert_eq!(
            fx.kernel.counters.get(Counter::PagesReclaimed),
            reclaimed,
            "counter matches return value"
        );
        assert_eq!(fx.kernel.counters.get(Counter::DirectReclaims), 1);
    }

    /// Reclaim copies pages like every other relocation path, so a traced
    /// run shows one `MigrationCopy` per reclaimed page.
    #[test]
    fn traced_reclaim_records_one_copy_per_reclaimed_page() {
        let mut fx = small_fixture(pressured(), 4);
        let addr = fx
            .space
            .mmap(
                4 * PAGE_SIZE,
                numa_vm::Protection::ReadWrite,
                numa_vm::VmaKind::PrivateAnonymous,
                numa_vm::MemPolicy::Bind(NodeId(0)),
            )
            .unwrap();
        for p in 0..4 {
            touch(&mut fx, addr + p * PAGE_SIZE, CoreId(0));
        }
        // Low watermark 2: reclaim runs until three frames are free.
        fx.frames.set_watermarks(NodeId(0), 2, 1);
        fx.kernel.trace.enable(1 << 10);
        let (_, reclaimed) = fx.kernel.direct_reclaim(
            &mut fx.space,
            &mut fx.frames,
            SimTime::ZERO,
            NodeId(0),
            None,
            &mut Breakdown::new(),
        );
        assert_eq!(reclaimed, 3);
        let copies: Vec<u64> = fx
            .kernel
            .trace
            .snapshot()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::MigrationCopy { page, from, .. } => {
                    assert_eq!(from, 0, "copies leave the strapped node");
                    Some(page)
                }
                _ => None,
            })
            .collect();
        let base = addr.vpn();
        assert_eq!(copies, vec![base, base + 1, base + 2]);
    }

    #[test]
    fn reclaim_demotes_toward_the_slow_tier_when_tiered() {
        let topo = Arc::new(presets::tiered_4p2());
        let mut fx = Fixture {
            kernel: Kernel::new(
                topo,
                KernelConfig {
                    tiering: true,
                    pressure: PressureSettings::enabled(),
                    ..KernelConfig::default()
                },
            ),
            space: numa_vm::AddressSpace::new(),
            frames: numa_vm::FrameAllocator::new(6, 8),
            tlb: numa_vm::Tlb::new(16),
        };
        let addr = fx
            .space
            .mmap(
                8 * PAGE_SIZE,
                numa_vm::Protection::ReadWrite,
                numa_vm::VmaKind::PrivateAnonymous,
                numa_vm::MemPolicy::Bind(NodeId(0)),
            )
            .unwrap();
        for p in 0..8 {
            touch(&mut fx, addr + p * PAGE_SIZE, CoreId(0));
        }
        fx.kernel.direct_reclaim(
            &mut fx.space,
            &mut fx.frames,
            SimTime::ZERO,
            NodeId(0),
            None,
            &mut Breakdown::new(),
        );
        // Demoted pages land on the slow node behind node 0, not a DRAM
        // peer (zone-demotion preference).
        assert!(
            fx.frames.live_on(NodeId(4)) > 0,
            "expected slow-tier demotion"
        );
        assert_eq!(fx.frames.live_on(NodeId(1)), 0);
    }

    #[test]
    fn fault_path_reclaims_then_allocates_instead_of_oom() {
        let mut fx = small_fixture(pressured(), 4);
        let addr = fx
            .space
            .mmap(
                5 * PAGE_SIZE,
                numa_vm::Protection::ReadWrite,
                numa_vm::VmaKind::PrivateAnonymous,
                numa_vm::MemPolicy::Bind(NodeId(0)),
            )
            .unwrap();
        // 4 touches fill node 0; the 5th (Bind: no policy fallback) must
        // direct-reclaim and then succeed.
        for p in 0..5 {
            let r = touch(&mut fx, addr + p * PAGE_SIZE, CoreId(0));
            assert!(
                matches!(r, FaultResolution::Resolved { .. }),
                "page {p}: {r:?}"
            );
        }
        assert!(fx.kernel.counters.get(Counter::PagesReclaimed) > 0);
    }

    #[test]
    fn oom_is_typed_when_reclaim_finds_nothing() {
        // Pressure on, but the whole machine is full: reclaim has
        // nowhere to move pages, so the fault ends in a typed OOM.
        let mut fx = small_fixture(pressured(), 2);
        let addr = fx
            .space
            .mmap(
                9 * PAGE_SIZE,
                numa_vm::Protection::ReadWrite,
                numa_vm::VmaKind::PrivateAnonymous,
                numa_vm::MemPolicy::interleave_all(4),
            )
            .unwrap();
        let mut fatal = 0;
        for p in 0..9 {
            if let FaultResolution::Fatal(e) = touch(&mut fx, addr + p * PAGE_SIZE, CoreId(0)) {
                assert!(matches!(e, VmError::OutOfMemory));
                fatal += 1;
            }
        }
        assert_eq!(fatal, 1, "8 frames fit, the 9th page must OOM");
    }

    #[test]
    fn evacuation_moves_page_and_survives_injected_faults() {
        use numa_sim::{FaultKind, FaultSite};
        let run = |plan: Option<FaultPlan>| {
            let mut fx = Fixture::new();
            let base = fx.map_anon(1);
            touch(&mut fx, base, CoreId(0));
            if let Some(plan) = plan {
                fx.kernel.set_fault_plan(plan);
            }
            fx.kernel
                .node_offline_begin(&mut fx.frames, SimTime::ZERO, NodeId(0));
            let (_, _, st) = fx.kernel.evacuate_page_step(
                &mut fx.space,
                &mut fx.frames,
                SimTime::ZERO,
                base.vpn(),
                NodeId(0),
            );
            (fx, base, st)
        };

        // Clean run: page lands on the nearest online node (node 1).
        let (fx, base, st) = run(None);
        assert_eq!(st, Some(PageStatus::Moved(NodeId(1))));
        let pte = fx.space.page_table.get(base.vpn()).unwrap();
        assert_eq!(fx.frames.node_of(pte.frame), NodeId(1));
        assert_eq!(fx.kernel.counters.get(Counter::PagesEvacuated), 1);
        assert_eq!(fx.kernel.counters.get(Counter::NodesOfflined), 1);

        // Transient copy failure: Busy (retryable), page untouched.
        let plan = FaultPlan::new(0).with_schedule(
            FaultSite::Evacuation,
            FaultKind::TransientCopy,
            vec![0],
        );
        let (fx, base, st) = run(Some(plan));
        assert_eq!(st, Some(PageStatus::Busy));
        let pte = fx.space.page_table.get(base.vpn()).unwrap();
        assert_eq!(fx.frames.node_of(pte.frame), NodeId(0), "page stays put");

        // Frame exhaustion: degrades, page stays mapped on the source.
        let plan = FaultPlan::new(0).with_schedule(
            FaultSite::Evacuation,
            FaultKind::FrameExhausted,
            vec![0],
        );
        let (fx, base, st) = run(Some(plan));
        assert_eq!(st, Some(PageStatus::NoMemory));
        assert!(fx.space.page_table.get(base.vpn()).is_some());
        assert_eq!(fx.kernel.counters.get(Counter::MigrationsDegraded), 1);
    }

    #[test]
    fn online_reverses_offline() {
        let mut fx = Fixture::new();
        fx.kernel
            .node_offline_begin(&mut fx.frames, SimTime::ZERO, NodeId(2));
        assert!(fx.frames.is_offline(NodeId(2)));
        assert!(fx.frames.alloc(NodeId(2)).is_none());
        fx.kernel
            .node_online(&mut fx.frames, SimTime::ZERO, NodeId(2));
        assert!(!fx.frames.is_offline(NodeId(2)));
        assert!(fx.frames.alloc(NodeId(2)).is_some());
        assert_eq!(fx.kernel.counters.get(Counter::NodesOnlined), 1);
    }

    #[test]
    fn watchdog_fires_without_progress_and_rearms_on_progress() {
        let mut fx = Fixture::with_config(pressured());
        let cfg = fx.kernel.config.pressure.watchdog.unwrap();
        // Disabled watchdog always allows.
        let mut plain = Fixture::new();
        assert!(plain.kernel.watchdog_allow_retry(SimTime(1 << 40)));

        // Retries inside the window are allowed.
        for i in 0..cfg.min_retries {
            assert!(fx.kernel.watchdog_allow_retry(SimTime(i)), "retry {i}");
        }
        // Past the window with zero progress: denied, counted, sticky.
        let late = SimTime(cfg.window_ns + 1);
        assert!(!fx.kernel.watchdog_allow_retry(late));
        assert!(fx.kernel.watchdog_fired());
        assert!(!fx.kernel.watchdog_allow_retry(late + 1));
        assert_eq!(fx.kernel.counters.get(Counter::WatchdogFirings), 1);

        // Progress re-arms it.
        fx.kernel.counters.bump(Counter::PagesMovedSyscall);
        assert!(fx.kernel.watchdog_allow_retry(late + 2));
        assert!(!fx.kernel.watchdog_fired());
    }

    #[test]
    fn pressure_transitions_are_counted_once_per_change() {
        let mut fx = small_fixture(pressured(), 8);
        fx.frames.set_watermarks(NodeId(0), 4, 2);
        for _ in 0..3 {
            fx.frames.alloc(NodeId(0)).unwrap();
        }
        // free = 5 > low: still normal, no transition.
        fx.kernel
            .note_pressure(&mut fx.frames, SimTime::ZERO, NodeId(0));
        assert_eq!(fx.kernel.counters.get(Counter::PressureTransitions), 0);
        fx.frames.alloc(NodeId(0)).unwrap(); // free = 4 == low
        fx.kernel
            .note_pressure(&mut fx.frames, SimTime::ZERO, NodeId(0));
        assert_eq!(fx.kernel.counters.get(Counter::PressureTransitions), 1);
        // Repeat probe at the same level: no double count.
        fx.kernel
            .note_pressure(&mut fx.frames, SimTime::ZERO, NodeId(0));
        assert_eq!(fx.kernel.counters.get(Counter::PressureTransitions), 1);
    }
}
