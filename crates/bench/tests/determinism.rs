//! Determinism regression: the experiment harness must regenerate
//! byte-identical tables from the same seed — the property every
//! reproduced figure in this repo rests on (DESIGN.md §7) — and the host
//! performance machinery (the engine's batched micro-op fast path, the
//! parallel sweep runner) must be invisible in every reported number
//! (DESIGN.md §10).

use numa_bench::registry::{tiering_capacity_table, tiering_mechanism_table};
use numa_migrate::experiments::fig7;
use numa_migrate::machine::{MemAccessKind, Op, ThreadSpec};
use numa_migrate::rt::{setup, Buffer};
use numa_migrate::topology::NodeId;
use numa_migrate::vm::PAGE_SIZE;
use numa_migrate::NumaSystem;

#[test]
fn same_seed_gives_byte_identical_mechanism_table() {
    let a = tiering_mechanism_table(&[2], 128, 32, 42, 1).to_string();
    let b = tiering_mechanism_table(&[2], 128, 32, 42, 1).to_string();
    assert_eq!(a, b);
    let csv_a = tiering_mechanism_table(&[2], 128, 32, 42, 1).to_csv();
    let csv_b = tiering_mechanism_table(&[2], 128, 32, 42, 1).to_csv();
    assert_eq!(csv_a, csv_b);
}

#[test]
fn different_seeds_change_the_interleaving() {
    // Not a strict requirement page-for-page, but across two seeds the
    // shuffled writer orders virtually always shift some timing; if this
    // ever fails the seed is not reaching the workload.
    let a = tiering_mechanism_table(&[4], 128, 64, 1, 1).to_csv();
    let b = tiering_mechanism_table(&[4], 128, 64, 2, 1).to_csv();
    assert_ne!(a, b, "seed must actually vary the workload");
}

#[test]
fn capacity_sweep_is_deterministic() {
    let a = tiering_capacity_table(&[256, 1024], 128, 3, 1).to_string();
    let b = tiering_capacity_table(&[256, 1024], 128, 3, 1).to_string();
    assert_eq!(a, b);
}

#[test]
fn traced_episode_is_byte_identical_for_same_seed() {
    let a = numa_bench::traced_next_touch_episode(42);
    let b = numa_bench::traced_next_touch_episode(42);
    assert_eq!(
        a.chrome_json, b.chrome_json,
        "Chrome trace export must be byte-identical across runs with one seed"
    );
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.breakdown, b.breakdown);
}

#[test]
fn traced_episode_varies_with_seed() {
    let a = numa_bench::traced_next_touch_episode(1);
    let b = numa_bench::traced_next_touch_episode(2);
    assert_ne!(
        a.chrome_json, b.chrome_json,
        "seed must reach the traced workload's access order"
    );
}

#[test]
fn parallel_sweep_matches_sequential_byte_for_byte() {
    // The sweep runner's determinism contract: any --jobs value yields
    // the same rows in the same order, so rendered tables (and therefore
    // the --json files built from them) are byte-identical.
    let seq = tiering_mechanism_table(&[1, 2, 4], 128, 32, 7, 1);
    let par = tiering_mechanism_table(&[1, 2, 4], 128, 32, 7, 4);
    assert_eq!(seq.to_string(), par.to_string());
    assert_eq!(seq.to_csv(), par.to_csv());

    let seq = fig7::run(&[64, 256], 4, 1);
    let par = fig7::run(&[64, 256], 4, 3);
    assert_eq!(format!("{seq:?}"), format!("{par:?}"));
}

/// One lazy-migration episode (the fig7 shape: mark, barrier, `threads`
/// workers touch disjoint chunks) with the engine fast path forced on or
/// off. Returns everything a run reports: makespan, cost breakdown,
/// counters, and how many micro-ops the fast path coalesced.
fn lazy_episode(fast_path: bool, threads: usize) -> (u64, String, String, u64) {
    lazy_episode_cfg(fast_path, threads, false)
}

fn lazy_episode_cfg(fast_path: bool, threads: usize, trace: bool) -> (u64, String, String, u64) {
    let mut m = NumaSystem::new().build();
    m.set_fast_path(fast_path);
    if trace {
        m.enable_trace(1 << 16);
    }
    let buf = Buffer::alloc(&mut m, 512 * PAGE_SIZE);
    setup::populate_on_node(&mut m, &buf, NodeId(0));
    let cores = m.topology().cores_of_node(NodeId(1));
    let chunks = buf.split_pages(threads);
    let n = chunks.len();
    let specs = chunks
        .iter()
        .enumerate()
        .map(|(i, chunk)| {
            let mut ops = Vec::new();
            if i == 0 {
                ops.push(Op::MadviseNextTouch {
                    range: buf.page_range(),
                });
            }
            ops.push(Op::Barrier(0));
            // Distinct stagger per thread: with perfectly symmetric threads
            // every micro-op completion ties in virtual time and the fast
            // path's strict-inequality guard (correctly) never fires.
            ops.push(Op::ComputeNs(1 + i as u64 * 1_717));
            ops.push(Op::Access {
                addr: chunk.addr,
                bytes: chunk.len,
                traffic: 0,
                write: true,
                kind: MemAccessKind::Stream,
            });
            ThreadSpec::scripted(cores[i % cores.len()], ops)
        })
        .collect();
    let r = m.run(specs, &[n]);
    (
        r.makespan.ns(),
        format!("{:?}", r.stats.breakdown),
        format!("{:?}", r.stats.counters),
        m.fastpath_micros,
    )
}

#[test]
fn fast_path_toggle_is_invisible_in_results() {
    // The tentpole equivalence guarantee: batching micro-ops through the
    // lookahead fast path must not move a single virtual-time number —
    // makespan, every breakdown component, every counter — under
    // contention (4 threads convoying on the page-table lock)...
    let (mk_on, bd_on, ct_on, _) = lazy_episode(true, 4);
    let (mk_off, bd_off, ct_off, fp_off) = lazy_episode(false, 4);
    assert_eq!(mk_on, mk_off, "fast path changed the makespan");
    assert_eq!(bd_on, bd_off, "fast path changed the cost breakdown");
    assert_eq!(ct_on, ct_off, "fast path changed the event counters");
    assert_eq!(fp_off, 0, "disabled fast path still batched micro-ops");

    // ...and uncontended, where the empty ready queue guarantees the
    // lookahead window stays open and batching actually happens.
    let (mk_on, bd_on, ct_on, fp_on) = lazy_episode(true, 1);
    let (mk_off, bd_off, ct_off, fp_off) = lazy_episode(false, 1);
    assert_eq!(mk_on, mk_off, "fast path changed the solo makespan");
    assert_eq!(bd_on, bd_off, "fast path changed the solo breakdown");
    assert_eq!(ct_on, ct_off, "fast path changed the solo counters");
    assert!(fp_on > 0, "fast path never engaged on a solo episode");
    assert_eq!(fp_off, 0, "disabled fast path still batched micro-ops");
}

#[test]
fn tracing_toggle_is_invisible_in_results() {
    // Hot-loop trace recording must be observation only: a disabled
    // `Trace` costs one branch per event site (no argument formatting, no
    // breakdown snapshotting), and *enabling* it must not move a single
    // virtual-time number — same makespan, same cost breakdown, same
    // counters, traced or not, with and without the fast path.
    for fast_path in [true, false] {
        let (mk_off, bd_off, ct_off, _) = lazy_episode_cfg(fast_path, 4, false);
        let (mk_on, bd_on, ct_on, _) = lazy_episode_cfg(fast_path, 4, true);
        assert_eq!(mk_on, mk_off, "tracing changed the makespan");
        assert_eq!(bd_on, bd_off, "tracing changed the cost breakdown");
        assert_eq!(ct_on, ct_off, "tracing changed the event counters");
    }
}
