//! Property test for the frame allocator's pressure accounting.
//!
//! Drives a [`FrameAllocator`] through random interleavings of the op
//! shapes the memory-pressure subsystem performs — alloc, free,
//! evacuate (alloc-elsewhere + copy + free, the reclaim/hot-remove
//! move), offline, online, watermark reconfiguration — and checks after
//! every op that per-node live/capacity/watermark accounting stays
//! consistent: live never exceeds capacity, the per-node live counts sum
//! to `live_total`, `allocated_total - freed_total` equals the number of
//! live frames actually reachable, no allocation ever lands on an
//! offline or full node, and `pressure_of` always matches the level
//! recomputed from first principles. It also checks the id rules of the
//! generational frame table: no id is ever issued twice, every freed id
//! stays dead after its slot is reused, and an evacuation's copy carries
//! the content tag. A second run puts a ballast node's frames in front,
//! so the same ops allocate, free and reuse slots on both sides of the
//! table's first chunk boundary.

use numa_topology::NodeId;
use numa_vm::{FrameAllocator, FrameId, PressureLevel, FRAME_CHUNK};
use proptest::prelude::*;
use std::collections::HashSet;

const NODES: usize = 4;

/// Op universe: (kind, node, value).
type OpVec = Vec<(u8, u8, u8)>;

fn op_strategy() -> impl Strategy<Value = OpVec> {
    proptest::collection::vec((0u8..6, 0u8..NODES as u8, 0u8..32), 1..200)
}

fn expected_pressure(fa: &FrameAllocator, node: NodeId) -> PressureLevel {
    let free = fa.capacity_of(node) - fa.live_on(node);
    if free <= fa.watermark_min(node) {
        PressureLevel::Min
    } else if free <= fa.watermark_low(node) {
        PressureLevel::Low
    } else {
        PressureLevel::Normal
    }
}

/// The node holding the ballast frames; the ops never touch it.
const BALLAST: NodeId = NodeId(NODES as u16);

fn check_consistency(fa: &FrameAllocator, live: &[FrameId], freed: &[FrameId], ballast: u64) {
    for &id in freed {
        assert!(fa.get(id).is_none(), "freed frame {id:?} is live again");
    }
    let mut per_node = [0u64; NODES];
    for &id in live {
        per_node[fa.node_of(id).index()] += 1;
    }
    let mut total = 0;
    for (n, &node_live) in per_node.iter().enumerate() {
        let node = NodeId(n as u16);
        assert_eq!(fa.live_on(node), node_live, "live count on node {n}");
        assert!(
            fa.live_on(node) <= fa.capacity_of(node),
            "node {n} over capacity"
        );
        assert_eq!(
            fa.free_on(node),
            fa.capacity_of(node) - fa.live_on(node),
            "free count on node {n}"
        );
        assert_eq!(
            fa.pressure_of(node),
            expected_pressure(fa, node),
            "pressure level on node {n}"
        );
        total += fa.live_on(node);
    }
    assert_eq!(fa.live_on(BALLAST), ballast, "ballast stays live");
    assert_eq!(fa.live_total(), total + ballast, "global live total");
    assert_eq!(
        fa.allocated_total() - fa.freed_total(),
        live.len() as u64 + ballast,
        "allocated minus freed"
    );
}

/// Run `ops` on a fresh allocator whose first `ballast` slots hold live
/// frames on the ballast node, checking the accounting after every op.
fn run_ops(ops: OpVec, ballast: u64) -> Result<(), TestCaseError> {
    let mut caps = vec![12; NODES];
    caps.push(ballast);
    let mut fa = FrameAllocator::with_capacities(caps);
    let mut issued: HashSet<FrameId> = HashSet::new();
    for _ in 0..ballast {
        let id = fa.alloc(BALLAST).expect("ballast fits");
        issued.insert(id);
    }
    let mut live: Vec<FrameId> = Vec::new();
    let mut freed: Vec<FrameId> = Vec::new();
    for (kind, node_raw, value) in ops {
        let node = NodeId(u16::from(node_raw));
        match kind {
            // Alloc on a node; must fail iff full or offline.
            0 => {
                let full = fa.live_on(node) >= fa.capacity_of(node);
                let offline = fa.is_offline(node);
                match fa.alloc(node) {
                    Some(id) => {
                        prop_assert!(!full && !offline, "alloc succeeded on a full/offline node");
                        prop_assert_eq!(fa.node_of(id), node);
                        prop_assert!(issued.insert(id), "id {:?} issued twice", id);
                        live.push(id);
                    }
                    None => {
                        prop_assert!(full || offline, "alloc failed with room on an online node")
                    }
                }
            }
            // Free a pseudo-random live frame.
            1 => {
                if !live.is_empty() {
                    let id = live.swap_remove(usize::from(value) % live.len());
                    fa.free(id);
                    freed.push(id);
                }
            }
            // Evacuate one resident page off `node`: alloc on the
            // nearest online node with room, copy, free the original
            // — exactly the reclaim/hot-remove move shape.
            2 => {
                if let Some(pos) = live.iter().position(|&id| fa.node_of(id) == node) {
                    let dest = (0..NODES).map(|n| NodeId(n as u16)).find(|&d| {
                        d != node && !fa.is_offline(d) && fa.live_on(d) < fa.capacity_of(d)
                    });
                    if let Some(dest) = dest {
                        let new = fa.alloc(dest).expect("dest had room");
                        prop_assert!(issued.insert(new), "id {:?} issued twice", new);
                        let old = live[pos];
                        let tag = fa.get(old).unwrap().content_tag;
                        fa.copy_contents(old, new);
                        prop_assert_eq!(fa.get(new).unwrap().content_tag, tag);
                        fa.free(old);
                        freed.push(old);
                        live[pos] = new;
                    }
                }
            }
            // Offline / online.
            3 => fa.set_offline(node),
            4 => fa.set_online(node),
            // Reconfigure watermarks (min <= low by construction).
            _ => {
                let low = u64::from(value) % 8;
                fa.set_watermarks(node, low, low / 2);
            }
        }
        check_consistency(&fa, &live, &freed, ballast);
    }
    // Drain everything: global accounting must return to the ballast.
    for id in live.drain(..) {
        fa.free(id);
        freed.push(id);
    }
    check_consistency(&fa, &live, &freed, ballast);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_survives_random_interleavings(ops in op_strategy()) {
        run_ops(ops, 0)?;
    }

    /// The same, with the ops' slots straddling the first chunk boundary
    /// of the frame table.
    #[test]
    fn accounting_survives_random_interleavings_across_a_chunk_boundary(
        ops in op_strategy(),
    ) {
        run_ops(ops, FRAME_CHUNK as u64 - 16)?;
    }
}
