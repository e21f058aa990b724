//! The machine composition layer.
//!
//! A [`Machine`] assembles the whole simulated host: topology, virtual
//! memory, kernel, per-node last-level caches, and the discrete-event
//! thread engine. Simulated threads are op generators (closures yielding
//! [`Op`]s); the engine executes them in virtual-time order, taking page
//! faults through the kernel, delivering SIGSEGV to a registered
//! [`SegvHandler`] (the user-space next-touch library), and charging every
//! nanosecond to the run's [`RunStats`].
//!
//! The engine runs on a single host thread — determinism is a correctness
//! requirement for regenerating the paper's tables (DESIGN.md §7).
//! Concurrency *inside the simulation* is expressed through virtual time
//! and the contended resources of `numa-kernel`.

pub mod access;
pub mod cache;
pub mod engine;
pub mod op;
pub mod shard;

pub use engine::{EngineRun, Program, RunResult, RunStats, ThreadSpec};
pub use op::{MemAccessKind, Op};
pub use shard::{run_sharded, LedgerConfig, ShardConfig, ShardedRunResult, TenantRun};

use numa_kernel::{Kernel, KernelConfig};
use numa_sim::{SimTime, Trace};
use numa_topology::{CoreId, NodeId, Topology};
use numa_vm::{AddressSpace, FrameAllocator, MemPolicy, Protection, Tlb, VirtAddr, VmaKind};
use std::sync::Arc;

/// A SIGSEGV handler registered by the user-space runtime (the mprotect
/// based next-touch library, paper §3.2 / Figure 1).
///
/// Receives the machine so it can issue syscalls; must return the virtual
/// time at which the handler returns (the faulting access is then retried
/// by the engine — "touch retry" in Figure 1).
pub trait SegvHandler {
    /// Handle a protection fault raised by thread `tid` (running on
    /// `core`) at `addr`, starting at `now`. Costs of any syscalls the
    /// handler issues should be merged into `stats`.
    fn on_segv(
        &mut self,
        machine: &mut Machine,
        tid: usize,
        core: CoreId,
        addr: VirtAddr,
        now: SimTime,
        stats: &mut RunStats,
    ) -> SimTime;
}

/// The assembled simulated host.
pub struct Machine {
    topo: Arc<Topology>,
    /// The simulated kernel (public: the runtime layer calls syscalls).
    pub kernel: Kernel,
    /// The single simulated process's address space.
    pub space: AddressSpace,
    /// Physical frames.
    pub frames: FrameAllocator,
    /// TLB shootdown bookkeeping.
    pub tlb: Tlb,
    /// Per-node last-level caches.
    pub caches: Vec<cache::L3Cache>,
    /// Event trace (disabled by default).
    pub trace: Trace,
    pub(crate) segv_handler: Option<Box<dyn SegvHandler>>,
    /// Per-page access counters (vpn -> touches), bumped by the access
    /// model. The tiering daemon's hot/cold classification reads and
    /// decays this — the same sampling idea as AutoNUMA's scan hooks, but
    /// driven by the simulated accesses themselves. A `BTreeMap` so that
    /// daemon scans iterate in a deterministic order.
    pub heat: std::collections::BTreeMap<u64, u64>,
    /// Engine lookahead fast path (see `engine`): inline-continue a
    /// thread's micro-ops while no other thread is runnable before its
    /// clock. Exact by construction; disable to cross-check equivalence.
    pub(crate) fast_path: bool,
    /// Micro-ops executed via the fast path (host-performance telemetry,
    /// deliberately *not* part of `RunStats` so enabling/disabling the
    /// fast path cannot perturb any reported statistic).
    pub fastpath_micros: u64,
    /// Set by the fault path when an allocation failed fatally under the
    /// OOM-kill policy: the executing thread is the victim. The engine
    /// clears the flag after reaping the thread at the end of the current
    /// micro-op.
    pub(crate) oom_kill_pending: bool,
    /// The touch-cost memo, [`access::TOUCH_MEMO`] entries.
    pub(crate) touch_costs: Box<[access::TouchCost]>,
}

impl Machine {
    /// Build a machine from a topology and kernel configuration. Frame
    /// capacity per node follows the topology's `memory_bytes`.
    pub fn new(topo: Arc<Topology>, config: KernelConfig) -> Self {
        let cost = topo.cost();
        assert_eq!(
            cost.page_size,
            numa_vm::PAGE_SIZE,
            "cost-model page size must match the VM page size"
        );
        let capacities = topo
            .node_ids()
            .map(|n| topo.node(n).memory_bytes / cost.page_size)
            .collect();
        let caches = topo
            .node_ids()
            .map(|n| cache::L3Cache::new((topo.node(n).l3_bytes / cost.page_size) as usize))
            .collect();
        let kernel = Kernel::new(topo.clone(), config);
        // One shared trace handle across all layers: the kernel (and its
        // lock set) already hold clones, so enabling the machine's handle
        // enables recording everywhere at once.
        let trace = kernel.trace.clone();
        Machine {
            kernel,
            space: AddressSpace::new(),
            frames: FrameAllocator::with_capacities(capacities),
            tlb: Tlb::new(topo.core_count()),
            caches,
            trace,
            segv_handler: None,
            heat: std::collections::BTreeMap::new(),
            topo,
            fast_path: true,
            fastpath_micros: 0,
            oom_kill_pending: false,
            touch_costs: vec![access::TouchCost::EMPTY; access::TOUCH_MEMO].into_boxed_slice(),
        }
    }

    /// Force the engine's lookahead fast path on or off for this machine
    /// (it defaults to on). Results are
    /// bit-identical either way; the slow path exists to prove that.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Enable event tracing with a bounded buffer of `capacity` events.
    /// The trace handle is shared with the kernel and lock layers, so one
    /// call turns on recording everywhere. Call *after* untimed setup
    /// (population) so the trace covers only the measured run.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace.enable(capacity);
    }

    /// The paper's 4-socket Opteron with the paper's kernel.
    pub fn opteron_4p() -> Self {
        Machine::new(
            Arc::new(numa_topology::presets::opteron_4p()),
            KernelConfig::default(),
        )
    }

    /// A small two-node machine for tests.
    pub fn two_node() -> Self {
        Machine::new(
            Arc::new(numa_topology::presets::two_node()),
            KernelConfig::default(),
        )
    }

    /// The tiered 4 DRAM + 2 CXL machine with tiering enabled.
    pub fn tiered_4p2() -> Self {
        Machine::new(
            Arc::new(numa_topology::presets::tiered_4p2()),
            KernelConfig::tiered(),
        )
    }

    /// The machine topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The NUMA node `core` belongs to.
    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        self.topo.node_of_core(core)
    }

    /// Move a thread between cores at `now` (scheduler migration). Under
    /// the ptplace model a single-home page table that was co-located
    /// with the departing thread follows it to the destination node
    /// (numaPTE-style PT migration): the PT copy is charged linearly in
    /// the table's live entry count, and the stale translations cached
    /// against the old home are flushed with one batched shootdown. All
    /// other configurations — placement unset, a deliberately remote
    /// home, or per-node replicas — move nothing and cost nothing.
    pub fn migrate_thread(
        &mut self,
        from: CoreId,
        to: CoreId,
        now: SimTime,
        stats: &mut RunStats,
    ) -> SimTime {
        let from_node = self.topo.node_of_core(from);
        let to_node = self.topo.node_of_core(to);
        if from_node == to_node {
            return now;
        }
        let Some(numa_vm::PtPlacement::SingleHome(home)) = self.space.pt_placement() else {
            return now;
        };
        if home != from_node {
            return now;
        }
        let cost = self.topo.cost();
        let entries = self.space.page_table.len() as u64;
        let copy = cost.pt_migrate_ns(entries);
        self.space.pt_set_home(to_node);
        let hit = self.tlb.shootdown_all(to);
        self.kernel
            .counters
            .bump(numa_stats::Counter::TlbShootdowns);
        let flush = cost.tlb_flush_ns(hit);
        let dur = copy + flush;
        self.trace.record(
            now,
            numa_sim::TraceEventKind::PtMigrate {
                entries,
                dur_ns: dur,
            },
        );
        stats.breakdown.add(numa_stats::CostComponent::Other, copy);
        stats
            .breakdown
            .add(numa_stats::CostComponent::TlbFlush, flush);
        now + dur
    }

    /// Register the user-space SIGSEGV handler (replaces any previous one).
    pub fn set_segv_handler(&mut self, handler: Box<dyn SegvHandler>) {
        self.segv_handler = Some(handler);
    }

    /// Remove the SIGSEGV handler.
    pub fn clear_segv_handler(&mut self) -> Option<Box<dyn SegvHandler>> {
        self.segv_handler.take()
    }

    /// Allocate an anonymous RW buffer of `len` bytes with `policy`,
    /// returning the VM layer's typed error on failure (zero length,
    /// address-space exhaustion). The fallible form of [`Machine::alloc`]
    /// for callers that can degrade gracefully.
    pub fn try_alloc(&mut self, len: u64, policy: MemPolicy) -> Result<VirtAddr, numa_vm::VmError> {
        self.space.mmap(
            len,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            policy,
        )
    }

    /// Allocate an anonymous RW buffer of `len` bytes with `policy`.
    /// Convenience used by runtimes and tests; panics where
    /// [`Machine::try_alloc`] would return an error.
    pub fn alloc(&mut self, len: u64, policy: MemPolicy) -> VirtAddr {
        self.try_alloc(len, policy).expect("mmap in simulation")
    }

    /// The node currently holding the page at `addr`, if populated
    /// (huge mappings resolve through their head page).
    pub fn page_node(&self, addr: VirtAddr) -> Option<NodeId> {
        let pte = self.space.page_table.get(self.resolve_vpn(addr))?;
        Some(self.frames.node_of(pte.frame))
    }

    /// Reset all contention state — interconnect watermarks and kernel
    /// locks — without touching memory contents or placement. Call
    /// between an experiment's (untimed) setup phase and its timed run,
    /// so setup traffic does not queue ahead of measured traffic.
    pub fn reset_contention(&mut self) {
        self.kernel.interconnect.reset();
        self.kernel.locks.reset();
    }

    /// Drop all cached page-residency state (between experiment phases
    /// that should not share cache warmth).
    pub fn flush_caches(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
    }

    /// Halve every page's access-heat counter, dropping pages that reach
    /// zero. The tiering daemon calls this after each scan so that heat
    /// reflects recent traffic, not all-time totals (exponential decay,
    /// as in kernel hot-page tracking).
    pub fn decay_heat(&mut self) {
        self.heat.retain(|_, h| {
            *h /= 2;
            *h > 0
        });
    }

    /// Snapshot the congestion state: busy nanoseconds per interconnect
    /// link and per node memory controller. This is the instrumentation
    /// behind the paper's §4.5 diagnosis that the big LU wins come from
    /// removing "congestion when multiple threads access each others'
    /// NUMA memory across a single HyperTransport link".
    pub fn congestion_report(&self) -> CongestionReport {
        CongestionReport {
            link_busy_ns: (0..self.topo.link_count())
                .map(|l| self.kernel.interconnect.link_busy_ns(l))
                .collect(),
            mem_busy_ns: self
                .topo
                .node_ids()
                .map(|n| self.kernel.interconnect.mem_busy_ns(n))
                .collect(),
        }
    }

    /// Per-resource busy/wait/utilisation over `[0, horizon]` (typically
    /// the run's makespan): every interconnect link, every node memory
    /// controller, and the two kernel locks.
    pub fn utilisation_report(&self, horizon: SimTime) -> UtilisationReport {
        let usage = |r: &numa_sim::Resource| ResourceUsage {
            name: r.name().to_string(),
            busy_ns: r.total_busy_ns(),
            wait_ns: r.total_wait_ns(),
            acquisitions: r.acquisitions(),
            utilisation: r.utilisation(horizon),
        };
        let ic = &self.kernel.interconnect;
        let mut resources: Vec<ResourceUsage> = ic.link_resources().iter().map(usage).collect();
        resources.extend(ic.mem_resources().iter().map(usage));
        resources.push(usage(&self.kernel.locks.mmap));
        resources.push(usage(&self.kernel.locks.pt));
        UtilisationReport {
            horizon_ns: horizon.ns(),
            resources,
        }
    }
}

/// Usage counters for one contended resource over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// Diagnostic name ("link0", "mc2", "mmap_lock", ...).
    pub name: String,
    /// Total time spent servicing requests.
    pub busy_ns: u64,
    /// Total time requesters spent queued.
    pub wait_ns: u64,
    /// Number of acquisitions served.
    pub acquisitions: u64,
    /// busy_ns / horizon (always <= 1.0 for a serial resource).
    pub utilisation: f64,
}

/// Per-run resource utilisation/wait report (links, memory controllers,
/// kernel locks).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilisationReport {
    /// The horizon the utilisations were computed against.
    pub horizon_ns: u64,
    /// One row per resource, links then memory controllers then locks.
    pub resources: Vec<ResourceUsage>,
}

impl UtilisationReport {
    /// Render as a printable table.
    pub fn to_table(&self) -> numa_stats::Table {
        let mut t = numa_stats::Table::new([
            "resource",
            "busy_ns",
            "wait_ns",
            "acquisitions",
            "utilisation",
        ]);
        for r in &self.resources {
            t.row([
                r.name.clone(),
                r.busy_ns.to_string(),
                r.wait_ns.to_string(),
                r.acquisitions.to_string(),
                format!("{:.4}", r.utilisation),
            ]);
        }
        t
    }

    /// Machine-readable form for the `--json` results file.
    pub fn to_json(&self) -> numa_stats::Json {
        use numa_stats::Json;
        let rows: Vec<Json> = self
            .resources
            .iter()
            .map(|r| {
                Json::obj()
                    .set("name", r.name.as_str())
                    .set("busy_ns", r.busy_ns)
                    .set("wait_ns", r.wait_ns)
                    .set("acquisitions", r.acquisitions)
                    .set("utilisation", r.utilisation)
            })
            .collect();
        Json::obj()
            .set("horizon_ns", self.horizon_ns)
            .set("resources", rows)
    }
}

/// Busy-time snapshot of the shared memory-system resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongestionReport {
    /// Busy nanoseconds per link, in link-id order.
    pub link_busy_ns: Vec<u64>,
    /// Busy nanoseconds per node memory controller, in node-id order.
    pub mem_busy_ns: Vec<u64>,
}

impl CongestionReport {
    /// Total traffic-time across all links.
    pub fn total_link_ns(&self) -> u64 {
        self.link_busy_ns.iter().sum()
    }

    /// Total memory-controller busy time.
    pub fn total_mem_ns(&self) -> u64 {
        self.mem_busy_ns.iter().sum()
    }

    /// Ratio between the busiest and least-busy memory controller — a
    /// quick imbalance indicator (1.0 = perfectly balanced).
    pub fn mem_imbalance(&self) -> f64 {
        let max = self.mem_busy_ns.iter().copied().max().unwrap_or(0);
        let min = self.mem_busy_ns.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_assembles() {
        let m = Machine::opteron_4p();
        assert_eq!(m.topology().node_count(), 4);
        assert_eq!(m.caches.len(), 4);
        // 2 MB L3 / 4 kB pages = 512 page slots.
        assert_eq!(m.caches[0].capacity(), 512);
    }

    #[test]
    fn alloc_and_page_node() {
        let mut m = Machine::two_node();
        let a = m.alloc(numa_vm::PAGE_SIZE, MemPolicy::FirstTouch);
        assert_eq!(m.page_node(a), None, "not yet touched");
    }
}
