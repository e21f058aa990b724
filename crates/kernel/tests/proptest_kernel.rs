//! Property-based tests for the migration syscalls: placement follows the
//! request, contents survive, frames are conserved — for arbitrary page
//! subsets, destinations and orderings — and replicated page tables stay
//! in lockstep with the primary through the tier paths, writing as many
//! PTEs as independent per-node copies would.

use numa_kernel::{Kernel, KernelConfig, PageStatus, TxnOutcome};
use numa_sim::{SimTime, TraceEventKind};
use numa_stats::Breakdown;
use numa_topology::{presets, CoreId, NodeId};
use numa_vm::{
    AddressSpace, FrameAllocator, MemPolicy, Protection, PtPlacement, PtSyncMode, Pte, Tlb,
    VirtAddr, VmaKind, PAGE_SIZE,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Fx {
    kernel: Kernel,
    space: AddressSpace,
    frames: FrameAllocator,
    tlb: Tlb,
}

fn fixture(patched: bool) -> Fx {
    let topo = Arc::new(presets::opteron_4p());
    let frames = FrameAllocator::new(topo.node_count(), 1 << 20);
    let tlb = Tlb::new(topo.core_count());
    Fx {
        kernel: Kernel::new(
            topo,
            KernelConfig {
                patched_move_pages: patched,
                ..KernelConfig::default()
            },
        ),
        space: AddressSpace::new(),
        frames,
        tlb,
    }
}

/// A tiered machine (DRAM nodes 0-3, slow nodes 4-5) whose address space
/// keeps eager per-node page-table replicas.
fn tiered_replicated_fixture() -> Fx {
    let topo = Arc::new(presets::tiered_4p2());
    let mut space = AddressSpace::new();
    space.pt_configure(
        PtPlacement::Replicated,
        PtSyncMode::Eager,
        topo.node_count(),
    );
    Fx {
        frames: FrameAllocator::new(topo.node_count(), 1 << 20),
        tlb: Tlb::new(topo.core_count()),
        kernel: Kernel::new(topo, KernelConfig::tiered()),
        space,
    }
}

/// The write-through reference: one independent snapshot of every
/// mapped entry (frame, flags and shadow) per node.
struct NodeSnapshots(Vec<BTreeMap<u64, Pte>>);

impl NodeSnapshots {
    /// Snapshots of an empty table, as a replicated space starts.
    fn new(fx: &Fx) -> Self {
        NodeSnapshots(vec![BTreeMap::new(); fx.kernel.topology().node_count()])
    }

    /// Bring every node's snapshot up to the primary and return the PTEs
    /// written across all nodes: one per vpn added, dropped or changed.
    fn sync(&mut self, fx: &Fx) -> u64 {
        let want: BTreeMap<u64, Pte> = fx.space.page_table.iter().collect();
        let mut written = 0;
        for snap in &mut self.0 {
            let dropped = snap.keys().filter(|vpn| !want.contains_key(vpn)).count();
            let changed = want.iter().filter(|&(vpn, pte)| snap.get(vpn) != Some(pte));
            written += (dropped + changed.count()) as u64;
            snap.clone_from(&want);
        }
        written
    }
}

/// The PTE writes the kernel charged since the last call: the summed
/// `PtReplicaSync` entries of its trace, which is then cleared.
fn charged_writes(fx: &Fx) -> u64 {
    assert_eq!(fx.kernel.trace.dropped(), 0, "trace ring too small");
    let charged = (fx.kernel.trace.snapshot().iter())
        .filter_map(|e| match e.kind {
            TraceEventKind::PtReplicaSync { entries, .. } => Some(entries),
            _ => None,
        })
        .sum();
    fx.kernel.trace.clear();
    charged
}

/// Is every replica in step with the primary, and did the kernel charge
/// exactly the writes the per-node snapshots took to catch up?
fn replicas_in_step(fx: &Fx, reference: &mut NodeSnapshots) -> Result<(), String> {
    let replicas = fx.space.pt_replicas().expect("replicated space");
    if let Some(n) =
        (fx.kernel.topology().node_ids()).find(|&n| !replicas.agrees_with(n, &fx.space.page_table))
    {
        return Err(format!("the replica on {n} is stale"));
    }
    let (charged, written) = (charged_writes(fx), reference.sync(fx));
    if charged != written {
        return Err(format!(
            "{charged} PTE writes charged, {written} by the reference"
        ));
    }
    Ok(())
}

fn map_and_populate(fx: &mut Fx, pages: u64) -> VirtAddr {
    let base = fx
        .space
        .mmap(
            pages * PAGE_SIZE,
            Protection::ReadWrite,
            VmaKind::PrivateAnonymous,
            MemPolicy::FirstTouch,
        )
        .unwrap();
    for p in 0..pages {
        fx.kernel.handle_fault(
            &mut fx.space,
            &mut fx.frames,
            &mut fx.tlb,
            SimTime::ZERO,
            CoreId(0),
            base + p * PAGE_SIZE,
            true,
            &mut Breakdown::new(),
        );
    }
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// move_pages with arbitrary (page, destination) requests: every
    /// Moved/AlreadyThere page ends on its requested node, contents are
    /// preserved, frame counts are conserved, and repeating the call is
    /// idempotent (all AlreadyThere).
    #[test]
    fn move_pages_arbitrary_requests(
        picks in proptest::collection::vec((0u64..32, 0u16..4), 1..40),
        patched in any::<bool>(),
    ) {
        let mut fx = fixture(patched);
        let base = map_and_populate(&mut fx, 32);
        let tags: Vec<u64> = (0..32u64)
            .map(|p| {
                let pte = fx.space.page_table.get(base.vpn() + p).unwrap();
                fx.frames.get(pte.frame).unwrap().content_tag
            })
            .collect();
        let live_before = fx.frames.live_total();

        // One request per page: conflicting picks resolve to the last
        // destination (matching what a caller would actually request).
        let mut last_dest_list: Vec<(u64, NodeId)> = Vec::new();
        for (p, n) in &picks {
            if let Some(slot) = last_dest_list.iter_mut().find(|(q, _)| q == p) {
                slot.1 = NodeId(*n);
            } else {
                last_dest_list.push((*p, NodeId(*n)));
            }
        }
        let pages: Vec<VirtAddr> = last_dest_list.iter().map(|(p, _)| base + p * PAGE_SIZE).collect();
        let dest: Vec<NodeId> = last_dest_list.iter().map(|(_, n)| *n).collect();
        let r = fx.kernel.move_pages(
            &mut fx.space, &mut fx.frames, &mut fx.tlb,
            SimTime::ZERO, CoreId(0), &pages, &dest,
        ).unwrap();

        // Later requests for the same page override earlier ones only in
        // execution order; check each page ends where its *last* request
        // sent it.
        let mut last_dest = std::collections::HashMap::new();
        for (p, n) in &picks {
            last_dest.insert(*p, NodeId(*n));
        }
        for (p, want) in &last_dest {
            let pte = fx.space.page_table.get(base.vpn() + p).unwrap();
            prop_assert_eq!(fx.frames.node_of(pte.frame), *want, "page {}", p);
        }
        // Contents preserved everywhere.
        for p in 0..32u64 {
            let pte = fx.space.page_table.get(base.vpn() + p).unwrap();
            prop_assert_eq!(
                fx.frames.get(pte.frame).unwrap().content_tag,
                tags[p as usize],
                "page {} content", p
            );
        }
        // Conservation: one live frame per mapped page, no leaks.
        prop_assert_eq!(fx.frames.live_total(), live_before);
        // Statuses are only Moved/AlreadyThere for valid pages.
        for st in &r.status {
            prop_assert!(matches!(st, PageStatus::Moved(_) | PageStatus::AlreadyThere(_)));
        }

        // Idempotence.
        let r2 = fx.kernel.move_pages(
            &mut fx.space, &mut fx.frames, &mut fx.tlb,
            SimTime(r.outcome.end.ns()), CoreId(0), &pages, &dest,
        ).unwrap();
        prop_assert_eq!(r2.moved, 0, "second identical call moves nothing");
    }

    /// The next-touch cycle for arbitrary subsets: marked pages migrate to
    /// the toucher, unmarked pages stay, flags always end cleared on
    /// touched pages.
    #[test]
    fn next_touch_subset(
        marked in proptest::collection::btree_set(0u64..24, 0..24),
        toucher_core in 0u16..16,
    ) {
        let mut fx = fixture(true);
        let base = map_and_populate(&mut fx, 24);
        let dest_node = fx.kernel.topology().node_of_core(CoreId(toucher_core));

        for p in &marked {
            fx.kernel.madvise_next_touch(
                &mut fx.space, &mut fx.tlb, SimTime::ZERO, CoreId(0),
                numa_vm::PageRange::new(base.vpn() + p, base.vpn() + p + 1),
            ).unwrap();
        }
        // Touch everything from the chosen core.
        for p in 0..24u64 {
            fx.kernel.handle_fault(
                &mut fx.space, &mut fx.frames, &mut fx.tlb,
                SimTime::ZERO, CoreId(toucher_core), base + p * PAGE_SIZE, false,
            &mut Breakdown::new(),);
        }
        for p in 0..24u64 {
            let pte = fx.space.page_table.get(base.vpn() + p).unwrap();
            prop_assert!(!pte.is_next_touch(), "flags cleared");
            let node = fx.frames.node_of(pte.frame);
            if marked.contains(&p) {
                prop_assert_eq!(node, dest_node, "marked page {} follows toucher", p);
            } else {
                prop_assert_eq!(node, NodeId(0), "unmarked page {} stays", p);
            }
        }
    }

    /// Virtual time is monotone through any sequence of syscalls, and
    /// every syscall charges a positive cost.
    #[test]
    fn syscall_time_monotone(ops in proptest::collection::vec(0u8..3, 1..20)) {
        let mut fx = fixture(true);
        let base = map_and_populate(&mut fx, 8);
        let range = numa_vm::PageRange::new(base.vpn(), base.vpn() + 8);
        let mut t = SimTime::ZERO;
        for op in ops {
            let end = match op {
                0 => {
                    let pages: Vec<VirtAddr> = (0..8).map(|p| base + p * PAGE_SIZE).collect();
                    let dest = vec![NodeId(1); 8];
                    fx.kernel.move_pages(
                        &mut fx.space, &mut fx.frames, &mut fx.tlb, t, CoreId(0),
                        &pages, &dest,
                    ).unwrap().outcome.end
                }
                1 => fx.kernel.madvise_next_touch(
                    &mut fx.space, &mut fx.tlb, t, CoreId(0), range,
                ).unwrap().end,
                _ => fx.kernel.mprotect(
                    &mut fx.space, &mut fx.tlb, t, CoreId(0), range,
                    Protection::ReadWrite, numa_stats::CostComponent::MprotectRestore,
                ).unwrap().end,
            };
            prop_assert!(end > t, "syscalls must cost time");
            t = end;
        }
    }

    /// The un-patched lookup charge grows superlinearly while the patched
    /// one stays linear — for any request size pair (n, 8n) with n large
    /// enough that the lookup term is visible over the copy cost.
    #[test]
    fn quadratic_charge_property(n in 64u64..200) {
        let run = |patched: bool, pages: u64| {
            let mut fx = fixture(patched);
            let base = map_and_populate(&mut fx, pages);
            let addrs: Vec<VirtAddr> = (0..pages).map(|p| base + p * PAGE_SIZE).collect();
            let dest = vec![NodeId(1); pages as usize];
            fx.kernel.move_pages(
                &mut fx.space, &mut fx.frames, &mut fx.tlb,
                SimTime::ZERO, CoreId(0), &addrs, &dest,
            ).unwrap().outcome.end.ns()
        };
        let p1 = run(true, n);
        let p8 = run(true, 8 * n);
        let u1 = run(false, n);
        let u8 = run(false, 8 * n);
        // Subtract the shared base overhead before comparing growth.
        let base_ns = 160_000u64;
        let patched_growth = (p8 - base_ns) as f64 / (p1 - base_ns) as f64;
        let unpatched_growth = (u8 - base_ns) as f64 / (u1 - base_ns) as f64;
        prop_assert!(patched_growth < 9.0, "patched ~linear: {patched_growth}");
        prop_assert!(
            unpatched_growth > patched_growth * 1.3,
            "unpatched superlinear: {unpatched_growth} vs {patched_growth}"
        );
    }

    /// Replica lockstep through the tier paths: on an eager-replicated
    /// space, any interleaving of `move_pages`, stop-the-world tier moves,
    /// transactional tier moves and stores keeps every replica equal to
    /// the primary after every step, and each step charges exactly the
    /// PTE writes that bring N independent per-node snapshots up to the
    /// primary. Stores between a transaction's begin and its commit make
    /// that commit abort.
    #[test]
    fn tier_ops_keep_replicas_in_lockstep(
        ops in proptest::collection::vec((0u8..5, 0u64..12, 0u16..6), 1..60),
    ) {
        const PAGES: u64 = 12;
        let mut fx = tiered_replicated_fixture();
        fx.kernel.trace.enable(4096);
        let mut reference = NodeSnapshots::new(&fx);
        let base = map_and_populate(&mut fx, PAGES);
        prop_assert_eq!(replicas_in_step(&fx, &mut reference), Ok(()));
        let mut pending: Vec<(u64, SimTime)> = Vec::new();
        let mut t = SimTime(1_000_000);
        let mut b = Breakdown::new();
        for (kind, page, node) in ops {
            let vpn = base.vpn() + page;
            let dest = NodeId(node);
            match kind {
                0 => {
                    let r = fx.kernel.move_pages(
                        &mut fx.space, &mut fx.frames, &mut fx.tlb,
                        t, CoreId(0), &[base + page * PAGE_SIZE], &[dest],
                    ).unwrap();
                    t = t.max(r.outcome.end);
                }
                1 => {
                    if let Some(end) = fx.kernel.tier_stw_page(
                        &mut fx.space, &mut fx.frames, t, vpn, dest, &mut b,
                    ) {
                        t = t.max(end);
                    }
                }
                2 => {
                    if let Some(copy_end) = fx.kernel.tier_txn_begin(
                        &mut fx.space, &mut fx.frames, t, vpn, dest, &mut b,
                    ) {
                        pending.push((vpn, copy_end));
                    }
                }
                3 => {
                    // A store to the page dirties its current frame.
                    let frame = fx.space.page_table.get(vpn).unwrap().frame;
                    fx.frames.note_write(frame);
                }
                _ => {
                    if !pending.is_empty() {
                        let (vpn, copy_end) = pending.remove(page as usize % pending.len());
                        let (end, _) = fx.kernel.tier_txn_commit(
                            &mut fx.space, &mut fx.frames, t.max(copy_end), vpn, &mut b,
                        );
                        t = t.max(end);
                    }
                }
            }
            let step = replicas_in_step(&fx, &mut reference);
            prop_assert_eq!(step, Ok(()), "after op {}", kind);
        }
        for (vpn, copy_end) in pending {
            let (end, outcome) = fx.kernel.tier_txn_commit(
                &mut fx.space, &mut fx.frames, t.max(copy_end), vpn, &mut b,
            );
            prop_assert!(matches!(outcome, TxnOutcome::Committed | TxnOutcome::Aborted));
            t = t.max(end);
            prop_assert_eq!(replicas_in_step(&fx, &mut reference), Ok(()));
        }
        // Every transaction resolved: one live frame per mapped page.
        prop_assert_eq!(fx.frames.live_total(), PAGES);
    }
}
