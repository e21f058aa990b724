//! An OpenMP-like runtime for the simulated machine.
//!
//! The paper parallelises its LU update loops with
//! `#pragma omp parallel for` and inserts next-touch hooks at iteration
//! starts (§4.5). This module gives workloads the same vocabulary:
//!
//! * a [`Team`] of threads pinned one per core;
//! * a [`WorkPlan`] of sequential *phases*, each ended by an implicit
//!   barrier: [`WorkPlan::parallel_for`] (static or dynamic schedule),
//!   [`WorkPlan::single`] (one thread works, the team waits) and
//!   [`WorkPlan::each_thread`] (every thread contributes its own ops);
//! * deterministic execution on the machine's DES engine.
//!
//! With the GCC OpenMP runtime "there is no guarantee about which thread
//! will compute which block on which processor" (§4.5) — the dynamic
//! schedule reproduces exactly that assignment unpredictability, which is
//! why the next-touch policy (rather than clairvoyant placement) is needed
//! in the first place.
//!
//! ```
//! use numa_machine::{Machine, Op};
//! use numa_rt::{Schedule, Team, WorkPlan};
//!
//! let mut machine = Machine::opteron_4p();
//! let mut plan = WorkPlan::new();
//! // #pragma omp parallel for schedule(dynamic, 4)
//! plan.parallel_for(100, Schedule::Dynamic(4), |_i| {
//!     vec![Op::ComputeNs(1_000)]
//! });
//! let result = Team::all_cores(&machine).run(&mut machine, plan);
//! // 100 x 1 us of work over 16 cores: roughly 7 us of virtual time.
//! assert!(result.makespan.ns() < 100_000);
//! ```

use numa_machine::{Machine, Op, Program, RunResult, ThreadSpec};
use numa_topology::{CoreId, NodeId};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Overhead of claiming a chunk from the shared iteration counter
/// (the `GOMP_loop_dynamic_next` analogue).
const DYNAMIC_CLAIM_NS: u64 = 80;

/// Loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous blocks, iteration `i` on thread `i * T / n` — GCC's
    /// `schedule(static)`.
    Static,
    /// First-come chunks of the given size from a shared counter —
    /// `schedule(dynamic, chunk)`.
    Dynamic(usize),
}

type ForBody = Rc<RefCell<dyn FnMut(usize) -> Vec<Op>>>;
type SingleBody = Rc<RefCell<dyn FnMut() -> Vec<Op>>>;
type SingleCtxBody = Rc<RefCell<dyn FnMut(&Machine) -> Vec<Op>>>;
type ThreadBody = Rc<RefCell<dyn FnMut(usize) -> Vec<Op>>>;

enum Phase {
    ParallelFor {
        iters: usize,
        schedule: Schedule,
        body: ForBody,
        counter: Rc<Cell<usize>>,
    },
    Single {
        body: SingleBody,
    },
    SingleCtx {
        body: SingleCtxBody,
    },
    EachThread {
        body: ThreadBody,
    },
}

/// A linear sequence of barrier-separated phases.
#[derive(Default)]
pub struct WorkPlan {
    phases: Vec<Phase>,
}

impl WorkPlan {
    /// An empty plan.
    pub fn new() -> Self {
        WorkPlan::default()
    }

    /// Append a `parallel for` over `iters` iterations; `body(i)` returns
    /// the ops iteration `i` performs.
    pub fn parallel_for<F>(&mut self, iters: usize, schedule: Schedule, body: F) -> &mut Self
    where
        F: FnMut(usize) -> Vec<Op> + 'static,
    {
        self.phases.push(Phase::ParallelFor {
            iters,
            schedule,
            body: Rc::new(RefCell::new(body)),
            counter: Rc::new(Cell::new(0)),
        });
        self
    }

    /// Append a single region: thread 0 runs `body`, everyone else waits
    /// at the closing barrier.
    pub fn single<F>(&mut self, body: F) -> &mut Self
    where
        F: FnMut() -> Vec<Op> + 'static,
    {
        self.phases.push(Phase::Single {
            body: Rc::new(RefCell::new(body)),
        });
        self
    }

    /// Append a single region whose body inspects the machine at phase
    /// *execution* time (not plan-construction time): thread 0 runs
    /// `body(&machine)`, everyone else waits at the closing barrier.
    ///
    /// This is how daemons are spliced into a plan — e.g. the tiering
    /// daemon scans the live heat counters and page placement to decide
    /// what to promote or demote *now*, mid-run.
    pub fn single_ctx<F>(&mut self, body: F) -> &mut Self
    where
        F: FnMut(&Machine) -> Vec<Op> + 'static,
    {
        self.phases.push(Phase::SingleCtx {
            body: Rc::new(RefCell::new(body)),
        });
        self
    }

    /// Append a phase where every thread runs `body(tid)`.
    pub fn each_thread<F>(&mut self, body: F) -> &mut Self
    where
        F: FnMut(usize) -> Vec<Op> + 'static,
    {
        self.phases.push(Phase::EachThread {
            body: Rc::new(RefCell::new(body)),
        });
        self
    }

    /// Number of phases queued.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True when no phases are queued.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

/// A team of simulated threads, one per listed core.
#[derive(Debug, Clone)]
pub struct Team {
    /// The cores the team's threads are pinned to, in thread-id order.
    pub cores: Vec<CoreId>,
}

impl Team {
    /// One thread on every core of the machine (the paper's 16-thread
    /// configuration on the 4×4 Opteron).
    pub fn all_cores(machine: &Machine) -> Team {
        Team {
            cores: machine.topology().core_ids().collect(),
        }
    }

    /// One thread on every core of `node` (Fig. 7's same-node migration
    /// threads).
    pub fn on_node(machine: &Machine, node: NodeId) -> Team {
        Team {
            cores: machine.topology().cores_of_node(node),
        }
    }

    /// The first `n` cores of this team.
    pub fn take(&self, n: usize) -> Team {
        Team {
            cores: self.cores.iter().copied().take(n).collect(),
        }
    }

    /// Team size.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the team has no threads.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Execute `plan` on `machine` with this team. Phases are separated
    /// by team-wide barriers; the run ends when every thread exhausts the
    /// plan.
    pub fn run(&self, machine: &mut Machine, plan: WorkPlan) -> RunResult {
        assert!(!self.cores.is_empty(), "cannot run a plan on an empty team");
        let phases: Rc<Vec<Phase>> = Rc::new(plan.phases);
        let nthreads = self.cores.len();
        let threads: Vec<ThreadSpec> = self
            .cores
            .iter()
            .enumerate()
            .map(|(tid, core)| {
                ThreadSpec::new(*core, thread_program(tid, nthreads, Rc::clone(&phases)))
            })
            .collect();
        machine.run(threads, &[nthreads])
    }
}

/// Build the op generator for one team thread.
fn thread_program(tid: usize, nthreads: usize, phases: Rc<Vec<Phase>>) -> Program {
    let mut buf: VecDeque<Op> = VecDeque::new();
    let mut phase_idx = 0usize;
    // For static schedules: the next local iteration and this thread's
    // [start, end) block in the current phase.
    let mut static_cursor = 0usize;
    let mut entered_phase = usize::MAX;

    Box::new(move |ctx| loop {
        if let Some(op) = buf.pop_front() {
            return Some(op);
        }
        if phase_idx >= phases.len() {
            return None;
        }
        match &phases[phase_idx] {
            Phase::ParallelFor {
                iters,
                schedule,
                body,
                counter,
            } => match schedule {
                Schedule::Static => {
                    if entered_phase != phase_idx {
                        entered_phase = phase_idx;
                        static_cursor = tid * iters / nthreads;
                    }
                    let end = (tid + 1) * iters / nthreads;
                    if static_cursor < end {
                        let i = static_cursor;
                        static_cursor += 1;
                        buf.extend(body.borrow_mut()(i));
                    } else {
                        buf.push_back(Op::Barrier(0));
                        phase_idx += 1;
                    }
                }
                Schedule::Dynamic(chunk) => {
                    let c = counter.get();
                    if c < *iters {
                        let hi = (c + (*chunk).max(1)).min(*iters);
                        counter.set(hi);
                        buf.push_back(Op::ComputeNs(DYNAMIC_CLAIM_NS));
                        let mut b = body.borrow_mut();
                        for i in c..hi {
                            buf.extend(b(i));
                        }
                    } else {
                        buf.push_back(Op::Barrier(0));
                        phase_idx += 1;
                    }
                }
            },
            Phase::Single { body } => {
                if tid == 0 {
                    buf.extend(body.borrow_mut()());
                }
                buf.push_back(Op::Barrier(0));
                phase_idx += 1;
            }
            Phase::SingleCtx { body } => {
                if tid == 0 {
                    buf.extend(body.borrow_mut()(ctx.machine));
                }
                buf.push_back(Op::Barrier(0));
                phase_idx += 1;
            }
            Phase::EachThread { body } => {
                buf.extend(body.borrow_mut()(tid));
                buf.push_back(Op::Barrier(0));
                phase_idx += 1;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sim::SimTime;

    #[test]
    fn team_shapes() {
        let m = Machine::opteron_4p();
        assert_eq!(Team::all_cores(&m).len(), 16);
        assert_eq!(Team::on_node(&m, NodeId(1)).len(), 4);
        assert_eq!(Team::all_cores(&m).take(3).len(), 3);
    }

    #[test]
    fn static_schedule_covers_all_iterations_once() {
        let mut m = Machine::opteron_4p();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        let mut plan = WorkPlan::new();
        plan.parallel_for(37, Schedule::Static, move |i| {
            seen2.borrow_mut().push(i);
            vec![Op::ComputeNs(10)]
        });
        let team = Team::all_cores(&m);
        team.run(&mut m, plan);
        let mut v = seen.borrow().clone();
        v.sort();
        assert_eq!(v, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_schedule_covers_all_iterations_once() {
        let mut m = Machine::opteron_4p();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        let mut plan = WorkPlan::new();
        plan.parallel_for(100, Schedule::Dynamic(3), move |i| {
            seen2.borrow_mut().push(i);
            vec![Op::ComputeNs(5)]
        });
        Team::all_cores(&m).run(&mut m, plan);
        let mut v = seen.borrow().clone();
        v.sort();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_balances_uneven_work() {
        // One long iteration plus many short ones: dynamic beats static
        // because the long iteration does not anchor a whole block.
        let run = |schedule| {
            let mut m = Machine::opteron_4p();
            let mut plan = WorkPlan::new();
            plan.parallel_for(64, schedule, |i| {
                vec![Op::ComputeNs(if i == 0 { 100_000 } else { 1_000 })]
            });
            Team::all_cores(&m).take(4).run(&mut m, plan).makespan
        };
        let stat = run(Schedule::Static);
        let dyn_ = run(Schedule::Dynamic(1));
        assert!(dyn_ <= stat, "dynamic {dyn_} vs static {stat}");
    }

    #[test]
    fn single_runs_once_and_blocks_team() {
        let mut m = Machine::opteron_4p();
        let count = Rc::new(Cell::new(0));
        let c2 = Rc::clone(&count);
        let mut plan = WorkPlan::new();
        plan.single(move || {
            c2.set(c2.get() + 1);
            vec![Op::ComputeNs(500)]
        });
        let r = Team::all_cores(&m).run(&mut m, plan);
        assert_eq!(count.get(), 1);
        // Everyone waits for the single region.
        assert!(r.thread_end.iter().all(|t| *t >= SimTime(500)));
    }

    #[test]
    fn single_ctx_sees_live_machine_state() {
        use numa_machine::MemAccessKind;
        use numa_vm::{MemPolicy, PAGE_SIZE};
        let mut m = Machine::opteron_4p();
        let a = m.alloc(PAGE_SIZE, MemPolicy::FirstTouch);
        let observed = Rc::new(Cell::new(None));
        let o2 = Rc::clone(&observed);
        let mut plan = WorkPlan::new();
        // Phase 1 populates the page; the single_ctx phase must observe
        // its placement, which did not exist at plan-construction time.
        plan.each_thread(move |tid| {
            if tid == 0 {
                vec![Op::write(a, PAGE_SIZE, MemAccessKind::Stream)]
            } else {
                vec![]
            }
        });
        plan.single_ctx(move |machine| {
            o2.set(machine.page_node(a));
            vec![]
        });
        Team::all_cores(&m).take(2).run(&mut m, plan);
        assert_eq!(observed.get(), Some(NodeId(0)));
    }

    #[test]
    fn each_thread_runs_per_tid() {
        let mut m = Machine::opteron_4p();
        let tids = Rc::new(RefCell::new(Vec::new()));
        let t2 = Rc::clone(&tids);
        let mut plan = WorkPlan::new();
        plan.each_thread(move |tid| {
            t2.borrow_mut().push(tid);
            vec![]
        });
        Team::all_cores(&m).take(5).run(&mut m, plan);
        let mut v = tids.borrow().clone();
        v.sort();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn phases_execute_in_order_with_barriers_between() {
        let mut m = Machine::opteron_4p();
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
        let mut plan = WorkPlan::new();
        plan.parallel_for(8, Schedule::Static, move |_| {
            l1.borrow_mut().push(1);
            vec![Op::ComputeNs(10)]
        });
        plan.parallel_for(8, Schedule::Static, move |_| {
            l2.borrow_mut().push(2);
            vec![Op::ComputeNs(10)]
        });
        Team::all_cores(&m).take(4).run(&mut m, plan);
        let v = log.borrow();
        let first_two = v.iter().position(|x| *x == 2).unwrap();
        assert!(
            v[..first_two].iter().all(|x| *x == 1),
            "no phase-2 body may run before phase 1 completes generation"
        );
    }

    #[test]
    #[should_panic(expected = "empty team")]
    fn empty_team_rejected() {
        let mut m = Machine::two_node();
        let team = Team { cores: vec![] };
        team.run(&mut m, WorkPlan::new());
    }
}
