//! Regression tests for micro-op *run chaining* in the arena engine.
//!
//! The engine queues each thread's pending micro-ops as contiguous runs
//! in a per-thread arena (DESIGN.md §13) instead of a `VecDeque`. The
//! one behaviour that genuinely exercises the chaining machinery — as
//! opposed to the straight-line drain — is `push_front`: the retry
//! paths re-queue work *ahead* of the already-expanded run, as a fresh
//! single-micro run chained on top of it. Two paths do this:
//!
//! * a transient (`-EBUSY`-like) per-page copy failure re-queues the
//!   same `Relocate` micro for another attempt;
//! * a tier-transaction abort re-queues `TierTxnBegin` *and*
//!   `TierTxnCommit` (two chained runs, drained begin-first).
//!
//! These tests pin that chained re-queues drain in exactly the order the
//! deque engine drained them: same makespan, same cost breakdown, same
//! counters, and the same trace — with the lookahead fast path on or
//! off, traced or untraced (the audit pattern of `determinism.rs`).

use numa_migrate::machine::{Machine, MemAccessKind, Op, ThreadSpec};
use numa_migrate::sim::{FaultKind, FaultPlan, FaultSite, TraceEventKind};
use numa_migrate::stats::Counter;
use numa_migrate::topology::{CoreId, NodeId};
use numa_migrate::vm::{MemPolicy, PAGE_SIZE};

/// One `move_pages` episode with transient copy failures injected on an
/// explicit schedule: consults 3 and 4 fail, so one page retries twice
/// back-to-back (two `push_front`s chained onto the drained run), and
/// consult 10 fails once more mid-batch. Returns everything a run
/// reports plus the retry/giveup counters and the retry trace events.
fn move_pages_retry_episode(
    fast_path: bool,
    trace: bool,
) -> (u64, String, String, u64, u64, Vec<(u64, u32)>) {
    const PAGES: u64 = 32;
    let mut m = Machine::opteron_4p();
    m.set_fast_path(fast_path);
    if trace {
        m.enable_trace(1 << 14);
    }
    let a = m.alloc(PAGES * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
    // Populate on node 0 (untimed relative to the measured episode —
    // it is part of the same run, which is fine: both variants do it).
    let populate = Op::write(a, PAGES * PAGE_SIZE, MemAccessKind::Stream);
    m.kernel.set_fault_plan(FaultPlan::new(7).with_schedule(
        FaultSite::MovePagesCopy,
        FaultKind::TransientCopy,
        vec![3, 4, 10],
    ));
    let pages: Vec<_> = (0..PAGES).map(|p| a + p * PAGE_SIZE).collect();
    let dest = vec![NodeId(1); pages.len()];
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                populate,
                Op::MovePages { pages, dest },
                Op::read(a, PAGES * PAGE_SIZE, MemAccessKind::Stream),
            ],
        )],
        &[],
    );
    // Every page must land on node 1: the schedule only delays copies,
    // never exhausts the retry budget.
    for p in 0..PAGES {
        assert_eq!(m.page_node(a + p * PAGE_SIZE), Some(NodeId(1)));
    }
    let retries = m.kernel.counters.get(Counter::MigrationRetries);
    let gaveup = m.kernel.counters.get(Counter::MigrationsGaveUp);
    let retry_events: Vec<(u64, u32)> = m
        .trace
        .snapshot()
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::MigrationRetry {
                page,
                attempts_left,
            } => Some((page, attempts_left)),
            _ => None,
        })
        .collect();
    (
        r.makespan.ns(),
        format!("{:?}", r.stats.breakdown),
        format!("{:?}", r.stats.counters),
        retries,
        gaveup,
        retry_events,
    )
}

#[test]
fn fault_retry_chaining_retries_in_place_and_is_config_invariant() {
    let (mk, bd, ct, retries, gaveup, _) = move_pages_retry_episode(true, false);
    assert_eq!(retries, 3, "three scheduled transient failures");
    assert_eq!(gaveup, 0, "no page may exhaust its retry budget");

    // The chained re-queues must be invisible to every virtual-time
    // number whichever engine configuration drains them.
    for fast_path in [true, false] {
        for trace in [false, true] {
            let (mk2, bd2, ct2, retries2, gaveup2, _) = move_pages_retry_episode(fast_path, trace);
            assert_eq!(
                mk, mk2,
                "makespan moved (fast_path={fast_path}, trace={trace})"
            );
            assert_eq!(
                bd, bd2,
                "breakdown moved (fast_path={fast_path}, trace={trace})"
            );
            assert_eq!(
                ct, ct2,
                "counters moved (fast_path={fast_path}, trace={trace})"
            );
            assert_eq!((retries2, gaveup2), (retries, gaveup));
        }
    }
}

#[test]
fn fault_retry_trace_shows_back_to_back_retries_of_one_page() {
    let (_, _, _, _, _, events) = move_pages_retry_episode(true, true);
    assert_eq!(events.len(), 3, "one trace event per scheduled failure");
    // Consults 3 and 4 hit the same page: the first retry is re-queued
    // ahead of the remaining batch (push_front), re-attempted
    // immediately, fails again, and is re-queued once more — so the
    // first two events name the same page with a decremented budget.
    assert_eq!(
        events[0].0, events[1].0,
        "chained retries must re-attempt the same page"
    );
    assert_eq!(
        events[1].1,
        events[0].1 - 1,
        "second attempt has one fewer retry left"
    );
    assert_ne!(
        events[1].0, events[2].0,
        "the third failure hits a later page"
    );
}

/// One transactional tier-demotion episode with a poisoned first
/// transaction: the injected transient-copy fault makes the first
/// commit abort, which re-queues `TierTxnBegin` + `TierTxnCommit` as
/// two chained runs ahead of the remaining batch. The second attempt
/// (consult 1, not scheduled) commits.
fn tier_abort_episode(fast_path: bool, trace: bool) -> (u64, String, String, u64, u64) {
    const PAGES: u64 = 4;
    let mut m = Machine::tiered_4p2();
    m.set_fast_path(fast_path);
    if trace {
        m.enable_trace(1 << 14);
    }
    let a = m.alloc(PAGES * PAGE_SIZE, MemPolicy::FirstTouch);
    let vpns: Vec<u64> = (0..PAGES).map(|p| (a + p * PAGE_SIZE).vpn()).collect();
    m.kernel.set_fault_plan(FaultPlan::new(11).with_schedule(
        FaultSite::TierPromotion,
        FaultKind::TransientCopy,
        vec![0],
    ));
    let r = m.run(
        vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, PAGES * PAGE_SIZE, MemAccessKind::Stream),
                Op::TierMigrate {
                    pages: vpns,
                    dest: NodeId(4),
                    transactional: true,
                },
            ],
        )],
        &[],
    );
    // The aborted transaction must have been re-begun and committed:
    // every page reaches the capacity tier.
    for p in 0..PAGES {
        assert_eq!(m.page_node(a + p * PAGE_SIZE), Some(NodeId(4)));
    }
    (
        r.makespan.ns(),
        format!("{:?}", r.stats.breakdown),
        format!("{:?}", r.stats.counters),
        m.kernel.counters.get(Counter::TierTxnAborts),
        m.kernel.counters.get(Counter::TierTxnCommits),
    )
}

#[test]
fn tier_txn_abort_rebegins_and_is_config_invariant() {
    let (mk, bd, ct, aborts, commits) = tier_abort_episode(true, false);
    assert_eq!(aborts, 1, "the poisoned first transaction must abort");
    assert_eq!(commits, 4, "every page still commits after the re-begin");

    for fast_path in [true, false] {
        for trace in [false, true] {
            let (mk2, bd2, ct2, aborts2, commits2) = tier_abort_episode(fast_path, trace);
            assert_eq!(
                mk, mk2,
                "makespan moved (fast_path={fast_path}, trace={trace})"
            );
            assert_eq!(
                bd, bd2,
                "breakdown moved (fast_path={fast_path}, trace={trace})"
            );
            assert_eq!(
                ct, ct2,
                "counters moved (fast_path={fast_path}, trace={trace})"
            );
            assert_eq!((aborts2, commits2), (aborts, commits));
        }
    }
}
