//! The tiering daemon: a kpromoted-style kernel thread that wakes up
//! periodically, classifies pages with its [`TierPolicy`], and issues
//! [`Op::TierMigrate`] batches — transactional or stop-the-world.
//!
//! In the simulator the daemon does not get its own thread: it is spliced
//! into a [`WorkPlan`] as `single_ctx` phases (see
//! [`TierDaemon::splice_into`]), so its wake-ups interleave
//! deterministically with application phases, and its migration traffic
//! contends with application traffic through the same interconnect and
//! lock models.

use crate::policy::{TierPolicy, TierView};
use numa_machine::{Machine, Op};
use numa_rt::{RetryPolicy, WorkPlan};
use numa_topology::{MemTier, NodeId};
use std::cell::RefCell;
use std::rc::Rc;

/// A move dropped because its target tier was full, awaiting re-issue on
/// a later wake-up.
struct DeferredMove {
    vpn: u64,
    target: MemTier,
    attempts_left: u32,
}

/// The tiering daemon.
pub struct TierDaemon {
    policy: Box<dyn TierPolicy>,
    /// Use the transactional mechanism (true) or stop-the-world (false).
    pub transactional: bool,
    /// Cap on pages migrated (promotions + demotions) per wake-up.
    pub batch: usize,
    /// Total promotions planned so far (for reports).
    pub planned_promotions: u64,
    /// Total demotions planned so far (for reports).
    pub planned_demotions: u64,
    /// Deferred-retry policy for moves dropped because the target tier
    /// had no free frame: each such move is re-issued on up to
    /// `max_attempts` later wake-ups before the daemon gives up on it.
    /// `backoff_ns` is ignored — the daemon's own wake cadence is the
    /// backoff. Defaults to [`RetryPolicy::none`]: a dropped move is
    /// simply dropped, as kpromoted does.
    pub retry: RetryPolicy,
    /// Moves dropped because the target tier was full — graceful
    /// degradation: the page stays in its current tier.
    pub dropped_moves: u64,
    /// Deferred moves successfully re-issued on a later wake-up.
    pub deferred_retries: u64,
    /// Deferred moves abandoned after the retry budget ran out.
    pub gave_up: u64,
    deferred: Vec<DeferredMove>,
}

impl TierDaemon {
    /// A daemon with the given policy and mechanism, batch 128.
    pub fn new(policy: Box<dyn TierPolicy>, transactional: bool) -> Self {
        TierDaemon {
            policy,
            transactional,
            batch: 128,
            planned_promotions: 0,
            planned_demotions: 0,
            retry: RetryPolicy::none(),
            dropped_moves: 0,
            deferred_retries: 0,
            gave_up: 0,
            deferred: Vec::new(),
        }
    }

    /// One wake-up: capture the machine state, run the policy, and turn
    /// its plan into migration ops. Demotions are emitted before
    /// promotions so evictions free DRAM frames ahead of the allocations
    /// that need them.
    pub fn wake(&mut self, machine: &Machine) -> Vec<Op> {
        // Watchdog degradation: once the kernel's retry-livelock watchdog
        // has fired, the deferred backlog *is* the retry traffic that
        // stopped making progress — abandon it instead of re-issuing.
        // Fresh plans still run; the policy may well pick movable pages.
        if machine.kernel.watchdog_fired() && !self.deferred.is_empty() {
            self.gave_up += self.deferred.len() as u64;
            self.deferred.clear();
        }
        let view = TierView::capture(machine);
        let mut plan = self.policy.plan(&view);
        // Enforce the batch cap, demotions first (room-making wins).
        plan.demote.truncate(self.batch);
        plan.promote
            .truncate(self.batch - plan.demote.len().min(self.batch));
        self.planned_promotions += plan.promote.len() as u64;
        self.planned_demotions += plan.demote.len() as u64;

        let mut ops = Vec::new();
        let mut free = FreeTracker::capture(machine);
        // Moves deferred from earlier wake-ups get first claim on the
        // frames this wake-up sees free.
        for d in std::mem::take(&mut self.deferred) {
            let (batches, dropped) = assign_destinations(machine, &[d.vpn], d.target, &mut free);
            for batch in batches {
                self.deferred_retries += 1;
                ops.push(Op::TierMigrate {
                    pages: batch.pages,
                    dest: batch.dest,
                    transactional: self.transactional,
                });
            }
            for vpn in dropped {
                if d.attempts_left > 1 {
                    self.deferred.push(DeferredMove {
                        vpn,
                        target: d.target,
                        attempts_left: d.attempts_left - 1,
                    });
                } else {
                    self.gave_up += 1;
                }
            }
        }
        for (vpns, tier) in [
            (&plan.demote, MemTier::Slow),
            (&plan.promote, MemTier::Dram),
        ] {
            let (batches, dropped) = assign_destinations(machine, vpns, tier, &mut free);
            for batch in batches {
                ops.push(Op::TierMigrate {
                    pages: batch.pages,
                    dest: batch.dest,
                    transactional: self.transactional,
                });
            }
            // Graceful degradation: a full target tier drops the move —
            // the page stays put and the daemon keeps running. With a
            // retry budget, the drop is deferred to later wake-ups.
            for vpn in dropped {
                self.dropped_moves += 1;
                if self.retry.max_attempts > 0 {
                    self.deferred.push(DeferredMove {
                        vpn,
                        target: tier,
                        attempts_left: self.retry.max_attempts,
                    });
                }
            }
        }
        ops
    }

    /// Splice `rounds` daemon wake-ups into `plan`, each preceded by the
    /// phases that `work(round)` appends. The daemon runs as a
    /// `single_ctx` phase: thread 0 plays kpromoted while the team waits
    /// at the phase barrier, then everyone resumes.
    pub fn splice_into<F>(
        daemon: Rc<RefCell<TierDaemon>>,
        plan: &mut WorkPlan,
        rounds: usize,
        mut work: F,
    ) where
        F: FnMut(&mut WorkPlan, usize) + 'static,
    {
        for round in 0..rounds {
            work(plan, round);
            let d = Rc::clone(&daemon);
            plan.single_ctx(move |machine| d.borrow_mut().wake(machine));
        }
    }
}

/// Remaining free frames per node, decremented as destinations are
/// assigned so one wake-up cannot overfill a bank.
struct FreeTracker {
    free: Vec<u64>,
}

impl FreeTracker {
    fn capture(machine: &Machine) -> FreeTracker {
        FreeTracker {
            free: machine
                .topology()
                .node_ids()
                .map(|n| machine.frames.free_on(n))
                .collect(),
        }
    }
}

/// A group of pages headed for one destination node.
struct DestBatch {
    dest: NodeId,
    pages: Vec<u64>,
}

/// Assign each page the nearest node of the target tier that still has a
/// free frame (ties: most free, then lowest id) and group pages by the
/// chosen destination, preserving plan order within each group. Pages
/// whose whole target tier is full come back in the dropped list (in
/// plan order) so the caller can count or defer them; unmapped pages are
/// silently skipped.
fn assign_destinations(
    machine: &Machine,
    vpns: &[u64],
    target: MemTier,
    free: &mut FreeTracker,
) -> (Vec<DestBatch>, Vec<u64>) {
    let topo = machine.topology();
    let candidates: Vec<NodeId> = topo.nodes_in_tier(target);
    let mut batches: Vec<DestBatch> = Vec::new();
    let mut dropped: Vec<u64> = Vec::new();
    for &vpn in vpns {
        let Some(pte) = machine.space.page_table.get(vpn) else {
            continue;
        };
        let src = machine.frames.node_of(pte.frame);
        let dest = candidates
            .iter()
            .copied()
            .filter(|d| free.free[d.index()] > 0)
            .min_by_key(|d| {
                (
                    topo.hops(src, *d),
                    std::cmp::Reverse(free.free[d.index()]),
                    d.0,
                )
            });
        let Some(dest) = dest else {
            dropped.push(vpn); // target tier is full
            continue;
        };
        free.free[dest.index()] -= 1;
        match batches.iter_mut().find(|b| b.dest == dest) {
            Some(b) => b.pages.push(vpn),
            None => batches.push(DestBatch {
                dest,
                pages: vec![vpn],
            }),
        }
    }
    (batches, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ThresholdPolicy;
    use numa_machine::MemAccessKind;
    use numa_rt::Team;
    use numa_topology::CoreId;
    use numa_vm::{MemPolicy, PAGE_SIZE};

    /// A machine with `n` pages first-touched on DRAM node 0 and `m`
    /// pages bound to the slow node 4, all populated.
    fn populated(n: u64, m: u64) -> (Machine, numa_vm::VirtAddr, numa_vm::VirtAddr) {
        let mut machine = Machine::tiered_4p2();
        let a = machine.alloc(n * PAGE_SIZE, MemPolicy::FirstTouch);
        let b = machine.alloc(m * PAGE_SIZE, MemPolicy::Bind(NodeId(4)));
        let threads = vec![numa_machine::ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, n * PAGE_SIZE, MemAccessKind::Stream),
                Op::write(b, m * PAGE_SIZE, MemAccessKind::Stream),
            ],
        )];
        machine.run(threads, &[]);
        (machine, a, b)
    }

    #[test]
    fn daemon_promotes_hot_slow_pages() {
        let (mut machine, _a, b) = populated(2, 3);
        // Heat up the slow pages well past the threshold.
        machine.heat.clear();
        for p in 0..3u64 {
            machine.heat.insert((b + p * PAGE_SIZE).vpn(), 100);
        }
        let mut daemon = TierDaemon::new(Box::<ThresholdPolicy>::default(), true);
        let ops = daemon.wake(&machine);
        assert!(!ops.is_empty());
        let total: usize = ops
            .iter()
            .map(|o| match o {
                Op::TierMigrate { pages, dest, .. } => {
                    assert_eq!(
                        machine.topology().tier_of(*dest),
                        MemTier::Dram,
                        "promotions must land in DRAM"
                    );
                    pages.len()
                }
                _ => 0,
            })
            .sum();
        assert_eq!(total, 3);
        assert_eq!(daemon.planned_promotions, 3);
    }

    #[test]
    fn daemon_wakeup_is_deterministic() {
        let mk = || {
            let (mut machine, _a, b) = populated(4, 4);
            for p in 0..4u64 {
                machine.heat.insert((b + p * PAGE_SIZE).vpn(), 50);
            }
            let mut daemon = TierDaemon::new(Box::<ThresholdPolicy>::default(), true);
            format!("{:?}", daemon.wake(&machine))
        };
        assert_eq!(mk(), mk());
    }

    /// A policy that wants exactly one slow-tier page promoted, every
    /// wake-up — so the drop/defer path is isolated from the threshold
    /// policy's room-making demotions.
    struct PromoteOne {
        vpn: u64,
    }

    impl TierPolicy for PromoteOne {
        fn plan(&mut self, _: &TierView) -> crate::policy::TierPlan {
            crate::policy::TierPlan {
                promote: vec![self.vpn],
                demote: vec![],
            }
        }
        fn name(&self) -> &'static str {
            "promote-one"
        }
    }

    /// A machine whose whole DRAM tier (4 nodes x 2 frames) is filled by
    /// `a`, plus one populated slow-tier page `b` that a promotion will
    /// find no room for.
    fn full_dram_machine() -> (Machine, numa_vm::VirtAddr, numa_vm::VirtAddr) {
        let topo = numa_topology::presets::tiered_4p2_with(
            numa_topology::CostModel::default(),
            2 * PAGE_SIZE,
            64 * PAGE_SIZE,
        );
        let mut machine = Machine::new(
            std::sync::Arc::new(topo),
            numa_kernel::KernelConfig::tiered(),
        );
        let a = machine.alloc(8 * PAGE_SIZE, MemPolicy::FirstTouch);
        let b = machine.alloc(PAGE_SIZE, MemPolicy::Bind(NodeId(4)));
        // Touch the filler from a core on each node so every bank fills,
        // then populate the slow page.
        let threads = (0..4u16)
            .map(|n| {
                numa_machine::ThreadSpec::scripted(
                    CoreId(n * 4),
                    vec![Op::write(
                        a + u64::from(n) * 2 * PAGE_SIZE,
                        2 * PAGE_SIZE,
                        MemAccessKind::Stream,
                    )],
                )
            })
            .chain(std::iter::once(numa_machine::ThreadSpec::scripted(
                CoreId(0),
                vec![Op::write(b, PAGE_SIZE, MemAccessKind::Stream)],
            )))
            .collect();
        machine.run(threads, &[]);
        (machine, a, b)
    }

    #[test]
    fn deferred_retry_reissues_dropped_moves() {
        let (mut machine, a, b) = full_dram_machine();
        let mut daemon = TierDaemon::new(Box::new(PromoteOne { vpn: b.vpn() }), true);
        daemon.retry = RetryPolicy {
            max_attempts: 2,
            backoff_ns: 0,
        };
        // Wake 1: DRAM full everywhere — the promotion is dropped and
        // deferred, and the daemon keeps running.
        let ops = daemon.wake(&machine);
        assert!(ops.is_empty(), "no frame to promote into: {ops:?}");
        assert_eq!(daemon.dropped_moves, 1);
        assert_eq!(daemon.deferred_retries, 0);
        assert_eq!(daemon.gave_up, 0);

        // Free one DRAM page; the deferred move gets first claim on it.
        for f in machine.space.munmap(a).unwrap() {
            machine.frames.free(f);
        }
        let ops = daemon.wake(&machine);
        assert!(
            ops.iter()
                .any(|o| matches!(o, Op::TierMigrate { pages, .. } if pages == &[b.vpn()])),
            "deferred promotion must be re-issued: {ops:?}"
        );
        assert_eq!(daemon.deferred_retries, 1);
        assert_eq!(daemon.gave_up, 0);
    }

    #[test]
    fn deferred_retry_gives_up_after_budget() {
        // Same full-DRAM setup, but the tier never drains: the first
        // drop's deferral burns its 2-attempt budget on wakes 2 and 3 and
        // the daemon abandons it. (The policy keeps re-nominating the
        // page, so dropped_moves keeps counting fresh drops.)
        let (machine, _a, b) = full_dram_machine();
        let mut daemon = TierDaemon::new(Box::new(PromoteOne { vpn: b.vpn() }), true);
        daemon.retry = RetryPolicy {
            max_attempts: 2,
            backoff_ns: 0,
        };
        for _ in 0..3 {
            assert!(
                daemon.wake(&machine).is_empty(),
                "nothing can be promoted into a full tier"
            );
        }
        assert!(daemon.gave_up >= 1, "budget exhausted must give up");
        assert_eq!(daemon.deferred_retries, 0);
        assert!(daemon.dropped_moves >= 2);
    }

    #[test]
    fn spliced_daemon_migrates_mid_plan() {
        let (mut machine, _a, b) = populated(2, 2);
        let daemon = Rc::new(RefCell::new(TierDaemon::new(
            Box::new(ThresholdPolicy {
                promote_min: 2,
                ..Default::default()
            }),
            true,
        )));
        let mut plan = WorkPlan::new();
        TierDaemon::splice_into(Rc::clone(&daemon), &mut plan, 3, move |plan, _round| {
            plan.each_thread(move |tid| {
                if tid == 0 {
                    // Keep the slow pages hot every round.
                    vec![Op::read(b, 2 * PAGE_SIZE, MemAccessKind::Random)]
                } else {
                    vec![]
                }
            });
        });
        Team::all_cores(&machine).take(4).run(&mut machine, plan);
        assert_eq!(
            machine.topology().tier_of(machine.page_node(b).unwrap()),
            MemTier::Dram,
            "hot slow pages must end up promoted"
        );
        assert!(
            machine
                .kernel
                .counters
                .get(numa_stats::Counter::TierPromotions)
                >= 2
        );
    }
}
