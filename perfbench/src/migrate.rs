//! `migrate`: the paper's mechanisms driven directly through `Kernel` on a
//! bare `AddressSpace` / `FrameAllocator` / `Tlb`, with no engine.
//!
//! One pass per page-table placement (single-home, then replicated with
//! eager sync on every node) runs these sites over one mapping:
//! first-touch faults, `move_pages` batches, `migrate_pages`,
//! `madvise_next_touch`, next-touch faults from another node, node-offline
//! evacuation, and `munmap`. A third pass on a tiered kernel runs
//! stop-the-world and transactional tier moves. After every site the
//! replicas must agree with the primary, every page must sit on its
//! expected node, and allocated minus freed frames must equal the live
//! pages. The seed permutes page order and picks destinations.

use crate::harness::{digest_debug, sim_pages, Clock, Metric, Rep, Workload};
use crate::trace::Tracer;
use numa_migrate::kernel::{FaultResolution, Kernel, KernelConfig, PageStatus, TxnOutcome};
use numa_migrate::sim::{SimTime, Splitmix64};
use numa_migrate::stats::{Breakdown, Counter, Counters};
use numa_migrate::topology::{presets, CoreId, NodeId, Topology};
use numa_migrate::vm::{
    AddressSpace, FrameAllocator, MemPolicy, PageRange, Protection, PtPlacement, PtSyncMode, Tlb,
    VirtAddr, VmaKind, PAGE_SIZE,
};
use std::sync::Arc;

/// Pages in the mapping of the two placement passes.
pub const PAGES: u64 = 262_144;
/// Pages per `move_pages` call.
const BATCH: usize = 4096;
/// DRAM nodes of both machines; the tiered machine adds two slow nodes.
const DRAM_NODES: u16 = 4;

/// A site: the kernel calls it makes over one pass.
type SiteFn = fn(&mut Pass, &Inputs) -> SiteStat;

/// The sites of each placement pass, in order: name, span names of the
/// single-home and replicated passes (span names are static), and the
/// calls. Only `munmap` leaves the mapping empty.
const SITES: [(&str, [&str; 2], SiteFn); 7] = [
    (
        "first_touch",
        ["first_touch.single", "first_touch.replicated"],
        |p, i| p.first_touch(i, &i.order),
    ),
    (
        "move_pages",
        ["move_pages.single", "move_pages.replicated"],
        |p, i| p.move_pages(i),
    ),
    (
        "migrate_pages",
        ["migrate_pages.single", "migrate_pages.replicated"],
        |p, i| p.migrate_pages(i),
    ),
    (
        "madvise_nt",
        ["madvise_nt.single", "madvise_nt.replicated"],
        |p, _| p.madvise_nt(),
    ),
    (
        "nt_fault",
        ["nt_fault.single", "nt_fault.replicated"],
        |p, i| p.nt_fault(i),
    ),
    (
        "evacuate",
        ["evacuate.single", "evacuate.replicated"],
        |p, i| p.evacuate(i),
    ),
    ("munmap", ["munmap.single", "munmap.replicated"], |p, _| {
        p.munmap()
    }),
];

/// Placement labels, in pass order.
const PLACEMENTS: [&str; 2] = ["single", "replicated"];

/// Seeded inputs, indexed by page (page i is vpn `base + i`).
struct Inputs {
    /// Order pages are visited in (a permutation of the page indices).
    order: Vec<u64>,
    /// First-touch node.
    first_node: Vec<u16>,
    /// `move_pages` destination.
    move_dest: Vec<u16>,
    /// `migrate_pages` maps node n to `(n + rotate) % 4`.
    rotate: u16,
    /// Next-touch toucher is `shift` nodes past the page's node.
    nt_shift: Vec<u16>,
    /// Node taken offline and evacuated.
    offline: u16,
    /// Tier pass: visit order, slow-tier and DRAM destinations, and the
    /// pages a writer dirties between transaction begin and commit.
    tier_order: Vec<u64>,
    tier_slow: Vec<u16>,
    tier_dram: Vec<u16>,
    dirty: Vec<bool>,
}

impl Inputs {
    fn new(seed: u64, pages: u64, tier_pages: u64) -> Self {
        let mut rng = Splitmix64::new(seed);
        let mut order: Vec<u64> = (0..pages).collect();
        rng.shuffle(&mut order);
        let mut nodes = |n: u64, count: u64, offset: u16| -> Vec<u16> {
            (0..count).map(|_| offset + rng.below(n) as u16).collect()
        };
        let first_node = nodes(DRAM_NODES as u64, pages, 0);
        let move_dest = nodes(DRAM_NODES as u64, pages, 0);
        let nt_shift = nodes(DRAM_NODES as u64 - 1, pages, 1);
        let tier_slow = nodes(2, tier_pages, DRAM_NODES);
        let tier_dram = nodes(DRAM_NODES as u64, tier_pages, 0);
        let mut tier_order: Vec<u64> = (0..tier_pages).collect();
        rng.shuffle(&mut tier_order);
        Inputs {
            order,
            first_node,
            move_dest,
            rotate: 1 + rng.below(DRAM_NODES as u64 - 1) as u16,
            nt_shift,
            offline: rng.below(DRAM_NODES as u64) as u16,
            tier_order,
            tier_slow,
            tier_dram,
            dirty: (0..tier_pages).map(|_| rng.below(16) == 0).collect(),
        }
    }
}

/// Pages visited and failed at one site in one repetition.
#[derive(Debug, Clone, Copy, Default)]
struct SiteStat {
    pages: u64,
    failed: u64,
}

/// One kernel with its address space, frames and TLB, and the node each
/// page of its mapping is expected on.
struct Pass {
    kernel: Kernel,
    space: AddressSpace,
    frames: FrameAllocator,
    tlb: Tlb,
    /// One core per DRAM node: the faulting or calling thread's core.
    cores: Vec<CoreId>,
    base: u64,
    now: SimTime,
    b: Breakdown,
    expected: Vec<u16>,
}

impl Pass {
    fn new(topo: &Arc<Topology>, config: KernelConfig, pages: u64) -> Self {
        let capacities = topo
            .node_ids()
            .map(|n| topo.node(n).memory_bytes / PAGE_SIZE)
            .collect();
        let mut space = AddressSpace::new();
        let base = space
            .mmap(
                pages * PAGE_SIZE,
                Protection::ReadWrite,
                VmaKind::PrivateAnonymous,
                MemPolicy::FirstTouch,
            )
            .expect("mmap into an empty address space")
            .vpn();
        Pass {
            kernel: Kernel::new(topo.clone(), config),
            space,
            frames: FrameAllocator::with_capacities(capacities),
            tlb: Tlb::new(topo.core_count()),
            cores: (0..DRAM_NODES)
                .map(|n| topo.cores_of_node(NodeId(n))[0])
                .collect(),
            base,
            now: SimTime::ZERO,
            b: Breakdown::new(),
            expected: vec![0; pages as usize],
        }
    }

    fn addr(&self, page: u64) -> VirtAddr {
        VirtAddr::from_vpn(self.base + page)
    }

    fn core_on(&self, node: u16) -> CoreId {
        self.cores[node as usize]
    }

    /// Fault page `i` in from a core on `node`, expecting it to end there.
    fn fault(&mut self, i: u64, node: u16, write: bool) -> bool {
        let (core, addr) = (self.core_on(node), self.addr(i));
        let r = self.kernel.handle_fault(
            &mut self.space,
            &mut self.frames,
            &mut self.tlb,
            self.now,
            core,
            addr,
            write,
            &mut self.b,
        );
        match r {
            FaultResolution::Resolved { end, node: got, .. } if got.0 == node => {
                self.now = end;
                self.expected[i as usize] = node;
                true
            }
            _ => false,
        }
    }

    fn first_touch(&mut self, inp: &Inputs, order: &[u64]) -> SiteStat {
        let mut s = SiteStat::default();
        for &i in order {
            s.pages += 1;
            if !self.fault(i, inp.first_node[i as usize] % DRAM_NODES, true) {
                s.failed += 1;
            }
        }
        s
    }

    fn move_pages(&mut self, inp: &Inputs) -> SiteStat {
        let mut s = SiteStat::default();
        let core = self.core_on(0);
        for chunk in inp.order.chunks(BATCH) {
            let addrs: Vec<VirtAddr> = chunk.iter().map(|&i| self.addr(i)).collect();
            let dests: Vec<NodeId> = chunk
                .iter()
                .map(|&i| NodeId(inp.move_dest[i as usize]))
                .collect();
            s.pages += chunk.len() as u64;
            let r = self.kernel.move_pages(
                &mut self.space,
                &mut self.frames,
                &mut self.tlb,
                self.now,
                core,
                &addrs,
                &dests,
            );
            let Ok(r) = r else {
                s.failed += chunk.len() as u64;
                continue;
            };
            self.now = r.outcome.end;
            for ((&i, &dest), st) in chunk.iter().zip(&dests).zip(&r.status) {
                match st {
                    PageStatus::Moved(n) | PageStatus::AlreadyThere(n) if *n == dest => {
                        self.expected[i as usize] = n.0;
                    }
                    _ => s.failed += 1,
                }
            }
        }
        s
    }

    fn migrate_pages(&mut self, inp: &Inputs) -> SiteStat {
        let pages = self.expected.len() as u64;
        let mut s = SiteStat { pages, failed: 0 };
        let from: Vec<NodeId> = (0..DRAM_NODES).map(NodeId).collect();
        let to: Vec<NodeId> = (0..DRAM_NODES)
            .map(|n| NodeId((n + inp.rotate) % DRAM_NODES))
            .collect();
        let core = self.core_on(0);
        let r = self.kernel.migrate_pages(
            &mut self.space,
            &mut self.frames,
            &mut self.tlb,
            self.now,
            core,
            &from,
            &to,
        );
        // The walk visits pages in ascending vpn order: status k is page k.
        match r {
            Ok(r) if r.status.len() as u64 == pages => {
                self.now = r.outcome.end;
                for (node, st) in self.expected.iter_mut().zip(&r.status) {
                    let dest = (*node + inp.rotate) % DRAM_NODES;
                    match st {
                        PageStatus::Moved(n) | PageStatus::AlreadyThere(n) if n.0 == dest => {
                            *node = dest;
                        }
                        _ => s.failed += 1,
                    }
                }
            }
            _ => s.failed = pages,
        }
        s
    }

    fn madvise_nt(&mut self) -> SiteStat {
        let pages = self.expected.len() as u64;
        let core = self.core_on(0);
        let range = PageRange::new(self.base, self.base + pages);
        let r =
            self.kernel
                .madvise_next_touch(&mut self.space, &mut self.tlb, self.now, core, range);
        match r {
            Ok(o) => {
                self.now = o.end;
                SiteStat { pages, failed: 0 }
            }
            Err(_) => SiteStat {
                pages,
                failed: pages,
            },
        }
    }

    fn nt_fault(&mut self, inp: &Inputs) -> SiteStat {
        let mut s = SiteStat::default();
        for &i in &inp.order {
            s.pages += 1;
            let dest = (self.expected[i as usize] + inp.nt_shift[i as usize]) % DRAM_NODES;
            if !self.fault(i, dest, false) {
                s.failed += 1;
            }
        }
        s
    }

    fn evacuate(&mut self, inp: &Inputs) -> SiteStat {
        let mut s = SiteStat::default();
        let node = NodeId(inp.offline);
        self.kernel
            .node_offline_begin(&mut self.frames, self.now, node);
        for &i in &inp.order {
            if self.expected[i as usize] != node.0 {
                continue;
            }
            s.pages += 1;
            let (end, _, st) = self.kernel.evacuate_page_step(
                &mut self.space,
                &mut self.frames,
                self.now,
                self.base + i,
                node,
            );
            self.now = end;
            match st {
                Some(PageStatus::Moved(n)) if n != node => self.expected[i as usize] = n.0,
                _ => s.failed += 1,
            }
        }
        self.kernel.node_online(&mut self.frames, self.now, node);
        s
    }

    fn munmap(&mut self) -> SiteStat {
        let pages = self.expected.len() as u64;
        let (core, addr) = (self.core_on(0), self.addr(0));
        let r = self.kernel.munmap(
            &mut self.space,
            &mut self.frames,
            &mut self.tlb,
            self.now,
            core,
            addr,
        );
        match r {
            Ok(o) => {
                self.now = o.end;
                SiteStat { pages, failed: 0 }
            }
            Err(_) => SiteStat {
                pages,
                failed: pages,
            },
        }
    }

    fn tier_stw(&mut self, inp: &Inputs) -> SiteStat {
        let mut s = SiteStat::default();
        for &i in &inp.tier_order {
            s.pages += 1;
            let dest = inp.tier_slow[i as usize];
            let end = self.kernel.tier_stw_page(
                &mut self.space,
                &mut self.frames,
                self.now,
                self.base + i,
                NodeId(dest),
                &mut self.b,
            );
            match end {
                Some(end) => {
                    self.now = end;
                    self.expected[i as usize] = dest;
                }
                None => s.failed += 1,
            }
        }
        s
    }

    fn tier_txn(&mut self, inp: &Inputs) -> SiteStat {
        let mut s = SiteStat::default();
        for &i in &inp.tier_order {
            s.pages += 1;
            let (vpn, dest) = (self.base + i, inp.tier_dram[i as usize]);
            let begun = self.kernel.tier_txn_begin(
                &mut self.space,
                &mut self.frames,
                self.now,
                vpn,
                NodeId(dest),
                &mut self.b,
            );
            let Some(copied) = begun else {
                s.failed += 1;
                continue;
            };
            let dirty = inp.dirty[i as usize];
            if dirty {
                // A concurrent writer: the commit must see the new write
                // generation and abort.
                let pte = self.space.page_table.get(vpn).expect("page in transaction");
                self.frames.note_write(pte.frame);
            }
            let (end, outcome) = self.kernel.tier_txn_commit(
                &mut self.space,
                &mut self.frames,
                copied,
                vpn,
                &mut self.b,
            );
            self.now = end;
            match (outcome, dirty) {
                (TxnOutcome::Committed, false) => self.expected[i as usize] = dest,
                (TxnOutcome::Aborted, true) => {}
                _ => s.failed += 1,
            }
        }
        s
    }

    /// The invariants every site must leave behind.
    fn check(&self, site: &str, mapped: bool) -> Option<String> {
        if let Some(replicas) = self.space.pt_replicas() {
            for n in self.kernel.topology().node_ids() {
                if !replicas.agrees_with(n, &self.space.page_table) {
                    return Some(format!("{site}: node {} replica disagrees", n.0));
                }
            }
        }
        let live = self.frames.allocated_total() - self.frames.freed_total();
        let mapped_pages = self.space.page_table.len() as u64;
        if live != mapped_pages {
            return Some(format!(
                "{site}: {live} live frames for {mapped_pages} pages"
            ));
        }
        if !mapped {
            return (mapped_pages != 0).then(|| format!("{site}: {mapped_pages} pages left"));
        }
        if mapped_pages != self.expected.len() as u64 {
            return Some(format!("{site}: {mapped_pages} pages mapped"));
        }
        for (i, &node) in self.expected.iter().enumerate() {
            let Some(pte) = self.space.page_table.get(self.base + i as u64) else {
                return Some(format!("{site}: page {i} unmapped"));
            };
            let got = self.frames.node_of(pte.frame).0;
            if got != node {
                return Some(format!("{site}: page {i} on node {got}, expected {node}"));
            }
        }
        None
    }
}

/// The `migrate` workload.
pub struct Migrate {
    opteron: Arc<Topology>,
    tiered: Arc<Topology>,
    pages: u64,
    tier_pages: u64,
    inputs: Inputs,
}

impl Migrate {
    /// The workload over `pages` pages (a quarter of them on the tiered
    /// machine), with inputs drawn from `seed`.
    pub fn new(seed: u64, pages: u64) -> Self {
        let tier_pages = (pages / 4).max(1);
        Migrate {
            opteron: Arc::new(presets::opteron_4p()),
            tiered: Arc::new(presets::tiered_4p2()),
            pages,
            tier_pages,
            inputs: Inputs::new(seed, pages, tier_pages),
        }
    }
}

/// Time `run` on `clock` as one site, record its span, and check the
/// invariants it must leave behind (`mapped`: the mapping still exists).
#[allow(clippy::too_many_arguments)]
fn site(
    clock: &mut Clock,
    tracer: &Tracer,
    span: &'static str,
    pass: &mut Pass,
    inputs: &Inputs,
    run: SiteFn,
    mapped: bool,
    failures: &mut Vec<String>,
) -> SiteStat {
    let s = clock.time(|| tracer.span("kernel", span, || run(pass, inputs)));
    if s.failed > 0 {
        failures.push(format!("{span}: {} of {} pages failed", s.failed, s.pages));
    }
    failures.extend(pass.check(span, mapped));
    s
}

impl Workload for Migrate {
    fn rep(&mut self, clock: &mut Clock, tracer: &Tracer) -> Rep {
        let inp = &self.inputs;
        let mut failures = Vec::new();
        let mut stats = [[SiteStat::default(); 2]; SITES.len()];
        let mut counters = Vec::new();
        let mut placed = Vec::new();

        let placements = [PtPlacement::SingleHome(NodeId(0)), PtPlacement::Replicated];
        for (p, placement) in placements.into_iter().enumerate() {
            let mut pass = clock.time(|| {
                let mut pass = Pass::new(&self.opteron, KernelConfig::default(), self.pages);
                pass.space
                    .pt_configure(placement, PtSyncMode::Eager, DRAM_NODES as usize);
                pass
            });
            for (k, &(name, spans, run)) in SITES.iter().enumerate() {
                let mapped = name != "munmap";
                stats[k][p] = site(
                    clock,
                    tracer,
                    spans[p],
                    &mut pass,
                    inp,
                    run,
                    mapped,
                    &mut failures,
                );
            }
            placed.push(pass.expected.clone());
            counters.push(pass.kernel.counters.clone());
            clock.time(|| drop(pass));
        }

        let mut tier = clock.time(|| {
            let mut pass = Pass::new(&self.tiered, KernelConfig::tiered(), self.tier_pages);
            pass.first_touch(inp, &inp.tier_order);
            pass
        });
        failures.extend(tier.check("tier_populate", true));
        let f = &mut failures;
        let stw = site(
            clock,
            tracer,
            "tier_stw",
            &mut tier,
            inp,
            Pass::tier_stw,
            true,
            f,
        );
        let txn = site(
            clock,
            tracer,
            "tier_txn",
            &mut tier,
            inp,
            Pass::tier_txn,
            true,
            f,
        );
        if tier.kernel.pending_tier_txn_count() != 0 {
            failures.push("tier_txn: transactions left in flight".into());
        }
        let aborts = tier.kernel.counters.get(Counter::TierTxnAborts);
        let dirtied = inp.dirty.iter().filter(|&&d| d).count() as u64;
        if aborts != dirtied {
            failures.push(format!(
                "tier_txn: {aborts} aborts for {dirtied} dirtied pages"
            ));
        }
        placed.push(tier.expected.clone());
        counters.push(tier.kernel.counters.clone());
        clock.time(|| drop(tier));

        let mut all = Counters::new();
        counters.iter().for_each(|c| all.merge(c));
        let mut layers = Vec::new();
        if tracer.enabled() {
            let mut per_placement = [0.0f64; 2];
            for ((name, spans, _), stat) in SITES.iter().zip(&stats) {
                for p in 0..2 {
                    let secs = tracer.total_s(spans[p]);
                    per_placement[p] += secs;
                    let label = format!("{name}.{}", PLACEMENTS[p]);
                    layers.extend(site_metrics(&label, secs, stat[p]));
                }
            }
            layers.extend(site_metrics("tier_stw", tracer.total_s("tier_stw"), stw));
            layers.extend(site_metrics("tier_txn", tracer.total_s("tier_txn"), txn));
            let [single, replicated] = per_placement;
            layers.push(Metric::new(
                "vm.replica_share",
                "ratio",
                (replicated - single) / replicated.max(f64::MIN_POSITIVE),
            ));
            layers.push(Metric::new(
                "vm.replica_syncs",
                "count",
                counters[1].get(Counter::PtReplicaSyncs) as f64,
            ));
            layers.push(Metric::new(
                "kernel.tier_txn_aborts",
                "count",
                aborts as f64,
            ));
        }
        Rep {
            digest: digest_debug(&(&placed, &counters)),
            sim_pages: sim_pages(&all),
            failures,
            layers,
        }
    }
}

fn site_metrics(site: &str, secs: f64, s: SiteStat) -> [Metric; 3] {
    [
        Metric::new(format!("kernel.{site}.s"), "s", secs),
        Metric::new(
            format!("kernel.{site}.ns_per_page"),
            "ns",
            secs * 1e9 / s.pages.max(1) as f64,
        ),
        Metric::new(format!("kernel.{site}.failed"), "count", s.failed as f64),
    ]
}
