//! The simulated Linux NUMA kernel layer.
//!
//! Implements, over the `numa-vm` structures and with virtual-time cost
//! charging, the mechanisms the paper studies:
//!
//! * [`Kernel::move_pages`] — per-page migration syscall, in **both** the
//!   historical quadratic implementation and the paper's linear fix (§3.1);
//! * [`Kernel::migrate_pages`] — whole-process migration (§2.3);
//! * [`Kernel::madvise_next_touch`] — the new migrate-on-next-touch marking
//!   (§3.3, Figure 2);
//! * [`Kernel::mprotect`] — protection changes incl. the `PROT_NONE` trick
//!   the user-space next-touch library uses (§3.2, Figure 1);
//! * [`Kernel::handle_fault`] — the page-fault handler: first-touch
//!   placement, kernel next-touch migration, and SIGSEGV delivery;
//! * [`Kernel::mbind`] / [`Kernel::set_mempolicy`] — placement policies;
//! * [`Kernel::relocate_page`] — the one page-relocation sequence behind
//!   all of the above that move pages, plus reclaim and hot-remove;
//! * extensions the paper lists as future work (§6): huge-page migration
//!   and read-only page replication.
//!
//! Costs come from [`numa_topology::CostModel`]; contention comes from
//! [`locks::LockSet`] (mmap / page-table locks) and [`Interconnect`]
//! (HyperTransport links and per-node memory controllers), so the
//! multi-threaded scalability limits of the paper's Figure 7 *emerge* from
//! the same serialization the real kernel suffers.

pub mod config;
#[cfg(test)]
mod extensions_tests;
pub mod fault;
pub mod interconnect;
pub mod locks;
pub mod pressure;
pub mod relocate;
pub mod syscalls;
pub mod tier;

pub use config::KernelConfig;
pub use fault::{AccessKind, FaultResolution};
pub use interconnect::Interconnect;
pub use locks::LockSet;
pub use pressure::{PressureSettings, WatchdogConfig};
pub use relocate::RelocSite;
pub use syscalls::{MovePagesResult, PageStatus, SyscallOutcome};
pub use tier::{TierTxn, TxnOutcome};

use numa_sim::FxHashMap;
use numa_stats::Counters;
use numa_topology::{NodeId, Topology};
use numa_vm::{FrameAllocator, FrameId};
use std::sync::Arc;

/// The simulated kernel: configuration, lock set, interconnect model and
/// event counters. All syscall and fault entry points live in the
/// [`syscalls`] and [`fault`] modules.
#[derive(Debug)]
pub struct Kernel {
    /// Feature switches (patched vs quadratic `move_pages`, extensions).
    pub config: KernelConfig,
    /// Kernel locks (mmap lock, page-table lock).
    pub locks: LockSet,
    /// Links and memory controllers.
    pub interconnect: Interconnect,
    /// Event counters (faults, migrations, shootdowns, ...).
    pub counters: Counters,
    /// Shared trace handle. Clones of this handle live in [`LockSet`] and
    /// in the machine layer; enabling any of them enables all.
    pub trace: numa_sim::Trace,
    /// Deterministic fault injection, consulted at every migration
    /// decision point. Disabled by default: a consult is then one branch,
    /// with no RNG draw, counter or trace event.
    pub faults: numa_sim::FaultInjector,
    topo: Arc<Topology>,
    /// Read-only replicas per vpn (replication extension): which nodes hold
    /// a copy, and in which frame.
    replicas: FxHashMap<u64, Vec<(NodeId, FrameId)>>,
    /// Retry-livelock watchdog state (pressure subsystem).
    pub(crate) watchdog: pressure::Watchdog,
    /// In-flight transactional tier migrations, keyed by vpn.
    pub(crate) pending_txns: FxHashMap<u64, tier::TierTxn>,
    /// Pages currently unmapped by a stop-the-world tier migration:
    /// vpn -> time the window closes. Touches stall until then.
    pub(crate) in_flight_stw: FxHashMap<u64, numa_sim::SimTime>,
    /// Memoized per-page migration cost quanta (safe: `topo` is immutable
    /// for the kernel's lifetime).
    quanta: numa_topology::QuantaCache,
}

impl Kernel {
    /// A kernel for the given machine with the given configuration.
    pub fn new(topo: Arc<Topology>, config: KernelConfig) -> Self {
        let interconnect = Interconnect::new(&topo);
        let trace = numa_sim::Trace::disabled();
        Kernel {
            config,
            locks: LockSet::with_trace(trace.clone()),
            interconnect,
            counters: Counters::new(),
            trace,
            faults: numa_sim::FaultInjector::disabled(),
            topo,
            watchdog: pressure::Watchdog::new(),
            replicas: FxHashMap::default(),
            pending_txns: FxHashMap::default(),
            in_flight_stw: FxHashMap::default(),
            quanta: numa_topology::QuantaCache::default(),
        }
    }

    /// Number of transactional tier migrations currently in flight
    /// (invariant checks: must be zero after a quiesced run).
    pub fn pending_tier_txn_count(&self) -> usize {
        self.pending_txns.len()
    }

    /// Install a fault-injection plan (chaos experiments). Pass a vacuous
    /// plan to exercise the enabled-but-silent path.
    pub fn set_fault_plan(&mut self, plan: numa_sim::FaultPlan) {
        self.faults = numa_sim::FaultInjector::new(plan);
    }

    /// Consult the fault injector at `site`; on injection, account and
    /// trace it. `None` (the only answer when injection is disabled) means
    /// proceed normally.
    pub(crate) fn inject(
        &mut self,
        now: numa_sim::SimTime,
        site: numa_sim::FaultSite,
    ) -> Option<numa_sim::FaultKind> {
        let kind = self.faults.consult(site)?;
        self.counters.bump(numa_stats::Counter::FaultsInjected);
        self.trace.record(
            now,
            numa_sim::TraceEventKind::FaultInjected {
                site: site.name(),
                kind: kind.name(),
            },
        );
        Some(kind)
    }

    /// The machine topology this kernel runs on.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Allocate a frame on `node`, falling back per `fallback` when the
    /// bank is full.
    ///
    /// `fallback == None` means *strict*: only `node` is tried (the
    /// MPOL_BIND contract, and the strict placement of next-touch and
    /// tier migrations, which must land exactly where aimed or not move
    /// at all). With `Some(f)` the policy's own fallback is tried first
    /// and then, Linux-zonelist style, every remaining node in
    /// [`Kernel::fallback_order`] — so a fault under memory pressure
    /// degrades to a distant placement instead of an OOM. Returns the
    /// frame and the node it landed on.
    pub(crate) fn alloc_frame(
        &mut self,
        frames: &mut FrameAllocator,
        node: NodeId,
        fallback: Option<NodeId>,
    ) -> Option<(FrameId, NodeId)> {
        let on = |frames: &mut FrameAllocator, n: NodeId| frames.alloc(n).map(|f| (f, n));
        let mut got = on(frames, node)
            .or_else(|| fallback.filter(|f| *f != node).and_then(|f| on(frames, f)));
        if got.is_none() && fallback.is_some() {
            for n in self.fallback_order(node) {
                got = on(frames, n);
                if got.is_some() {
                    break;
                }
            }
        }
        if got.is_some() {
            self.counters.bump(numa_stats::Counter::FramesAllocated);
        }
        got
    }

    /// The distance-ordered walk a failed allocation on `node` falls
    /// back through: every other node, nearest first, ties broken by
    /// node number — the simulator's analogue of the Linux zonelist.
    pub fn fallback_order(&self, node: NodeId) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = self.topo.node_ids().filter(|n| *n != node).collect();
        order.sort_by_key(|n| (self.topo.hops(node, *n), n.0));
        order
    }

    /// Record that the primary page table changed over `range` and, when
    /// the address space runs Mitosis-style replicated page tables, charge
    /// the propagation (ptplace subsystem).
    ///
    /// The PTE updates are written through to every replica now and the
    /// caller's clock advances by the write-through cost. With placement
    /// unset or single-homed this is one branch and returns `now`
    /// unchanged, so existing experiments are byte-identical.
    pub fn pt_note_update(
        &mut self,
        space: &mut numa_vm::AddressSpace,
        now: numa_sim::SimTime,
        range: numa_vm::PageRange,
    ) -> numa_sim::SimTime {
        if space.pt_placement() != Some(numa_vm::PtPlacement::Replicated) {
            return now;
        }
        let written = space.pt_note_update(range);
        if written == 0 {
            return now;
        }
        let dur = self.topo.cost().pt_replica_sync_ns(written);
        self.counters.bump(numa_stats::Counter::PtReplicaSyncs);
        self.trace.record(
            now,
            numa_sim::TraceEventKind::PtReplicaSync {
                entries: written,
                dur_ns: dur,
            },
        );
        now + dur
    }

    /// Replica table access for the access-cost model: the nearest replica
    /// of `vpn` as seen from `from`, if any.
    pub fn nearest_replica(&self, vpn: u64, from: NodeId) -> Option<(NodeId, FrameId)> {
        let replicas = self.replicas.get(&vpn)?;
        replicas
            .iter()
            .copied()
            .min_by_key(|(n, _)| self.topo.hops(from, *n))
    }

    /// Does `vpn` have any replicas?
    pub fn has_replicas(&self, vpn: u64) -> bool {
        self.replicas.contains_key(&vpn)
    }

    /// Does *any* page have replicas? One branch; lets the access hot path
    /// skip per-touch replica lookups entirely when the replication
    /// extension is unused (every run except the replication experiments).
    pub fn has_any_replicas(&self) -> bool {
        !self.replicas.is_empty()
    }

    pub(crate) fn replicas_mut(&mut self) -> &mut FxHashMap<u64, Vec<(NodeId, FrameId)>> {
        &mut self.replicas
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use numa_topology::presets;
    use numa_vm::{AddressSpace, MemPolicy, Protection, Tlb, VirtAddr, VmaKind};

    /// A ready-to-use kernel + VM fixture on the paper's 4-socket machine.
    pub struct Fixture {
        pub kernel: Kernel,
        pub space: AddressSpace,
        pub frames: FrameAllocator,
        pub tlb: Tlb,
    }

    impl Fixture {
        pub fn new() -> Self {
            Self::with_config(KernelConfig::default())
        }

        pub fn with_config(config: KernelConfig) -> Self {
            let topo = Arc::new(presets::opteron_4p());
            let frames = FrameAllocator::new(topo.node_count(), 1 << 21);
            let tlb = Tlb::new(topo.core_count());
            Fixture {
                kernel: Kernel::new(topo, config),
                space: AddressSpace::new(),
                frames,
                tlb,
            }
        }

        /// A fixture on the tiered 4+2 machine with tiering enabled.
        pub fn tiered() -> Self {
            let topo = Arc::new(presets::tiered_4p2());
            let frames = FrameAllocator::new(topo.node_count(), 1 << 21);
            let tlb = Tlb::new(topo.core_count());
            Fixture {
                kernel: Kernel::new(topo, KernelConfig::tiered()),
                space: AddressSpace::new(),
                frames,
                tlb,
            }
        }

        /// Map `pages` anonymous RW pages and return the base address.
        pub fn map_anon(&mut self, pages: u64) -> VirtAddr {
            self.space
                .mmap(
                    pages * numa_vm::PAGE_SIZE,
                    Protection::ReadWrite,
                    VmaKind::PrivateAnonymous,
                    MemPolicy::FirstTouch,
                )
                .expect("mmap")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    #[test]
    fn kernel_construction() {
        let topo = Arc::new(presets::opteron_4p());
        let k = Kernel::new(topo.clone(), KernelConfig::default());
        assert_eq!(k.topology().node_count(), 4);
        assert_eq!(k.interconnect.link_count(), topo.link_count());
        assert!(!k.has_replicas(0));
    }

    /// Pins the zonelist visit order: from node 2 on the opteron square
    /// (links 0-1, 0-2, 1-3, 2-3), nodes 0 and 3 are one hop and node 1
    /// is two, so the order is [0, 3, 1] — ties broken by node number.
    #[test]
    fn fallback_order_is_distance_then_id() {
        let topo = Arc::new(presets::opteron_4p());
        let k = Kernel::new(topo, KernelConfig::default());
        assert_eq!(
            k.fallback_order(NodeId(2)),
            vec![NodeId(0), NodeId(3), NodeId(1)]
        );
        assert_eq!(
            k.fallback_order(NodeId(0)),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    /// With preferred node 2 and fallback 0 both full, the allocation
    /// walks the zonelist and lands on node 3 (one hop from 2), not
    /// node 1 (two hops). Strict requests (`fallback == None`) still
    /// fail outright.
    #[test]
    fn exhausted_alloc_walks_the_zonelist() {
        let topo = Arc::new(presets::opteron_4p());
        let mut k = Kernel::new(topo, KernelConfig::default());
        let mut frames = FrameAllocator::new(4, 2);
        for n in [NodeId(2), NodeId(0)] {
            while frames.alloc(n).is_some() {}
        }
        let (got, node) = k
            .alloc_frame(&mut frames, NodeId(2), Some(NodeId(0)))
            .expect("zonelist must find room");
        assert_eq!(node, NodeId(3));
        assert_eq!(frames.node_of(got), NodeId(3));
        assert!(
            k.alloc_frame(&mut frames, NodeId(2), None).is_none(),
            "strict allocation must not fall back"
        );
    }
}
