//! The discrete-event thread engine.
//!
//! Threads are op generators pinned to cores. The engine runs the thread
//! with the earliest virtual clock (the root of a tournament tree of
//! thread slots), asks it for its next [`Op`], executes the op (advancing
//! the clock through the kernel/memory cost model), and re-keys it —
//! classic conservative DES. Barriers park threads until
//! the whole team arrives (OpenMP semantics).

use crate::op::Op;
use crate::Machine;
use numa_kernel::{PageStatus, RelocSite};
use numa_sim::{BarrierOutcome, BarrierState, SimTime, TournamentTree, TraceEventKind};
use numa_stats::{Breakdown, CostComponent, Counter, Counters};
use numa_topology::{round_ns, CoreId, NodeId};
use numa_vm::VirtAddr;

/// Context passed to a program when the engine asks for its next op.
pub struct ProgramCtx<'a> {
    /// This thread's id within the run.
    pub tid: usize,
    /// The core the thread is pinned to.
    pub core: CoreId,
    /// The thread's current virtual clock.
    pub now: SimTime,
    /// Read access to the machine (e.g. to query page placement).
    pub machine: &'a Machine,
}

/// A simulated thread body: yields ops until `None`.
pub type Program = Box<dyn FnMut(&mut ProgramCtx<'_>) -> Option<Op>>;

/// One thread of a run: a core binding plus a program.
pub struct ThreadSpec {
    /// Core to pin the thread to.
    pub core: CoreId,
    /// The op generator.
    pub program: Program,
}

impl ThreadSpec {
    /// A thread on `core` running `program`.
    pub fn new(core: CoreId, program: Program) -> Self {
        ThreadSpec { core, program }
    }

    /// A thread that executes a fixed op list.
    pub fn scripted(core: CoreId, ops: Vec<Op>) -> Self {
        let mut iter = ops.into_iter();
        ThreadSpec::new(core, Box::new(move |_| iter.next()))
    }
}

/// Aggregated statistics of one run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Virtual time per cost component, summed over all threads.
    pub breakdown: Breakdown,
    /// Machine-level event counters (accesses, cache hits, ...). Kernel
    /// counters are kept separately in `Machine::kernel.counters`.
    pub counters: Counters,
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Completion time of the whole run (max over threads).
    pub makespan: SimTime,
    /// Per-thread completion times.
    pub thread_end: Vec<SimTime>,
    /// Aggregated statistics.
    pub stats: RunStats,
}

impl RunResult {
    /// Makespan in nanoseconds.
    pub fn makespan_ns(&self) -> u64 {
        self.makespan.ns()
    }
}

/// One scheduling quantum of an expanded op.
///
/// Multi-page ops (syscalls, accesses) expand into per-page micro-ops so
/// that concurrent threads' resource acquisitions happen in virtual-time
/// order. Executing a 16k-page `move_pages` atomically would push every
/// lock/link watermark to its own completion time, invisibly serializing
/// any logically-concurrent caller — exactly the artifact a single
/// `busy_until` resource model is prone to.
#[derive(Clone, Copy)]
enum Micro {
    /// A small op that is safe to execute atomically, stored out-of-line
    /// in [`MicroRuns::whole_ops`] (index). Keeping the one non-`Copy`
    /// payload out of the enum makes every arena slot a plain 32-byte
    /// copy — drained slots need no sentinel back-fill and no drop glue.
    Whole(u32),
    /// `move_pages` or `migrate_pages` base bookkeeping.
    MigrationBegin(RelocSite),
    /// Relocate one page (`move_pages`, `migrate_pages`, node evacuation
    /// or a stop-the-world tier move). `dest` is the target node, or for
    /// [`RelocSite::Evacuate`] the node being emptied; a `migrate_pages`
    /// walk reads its from/to node sets from the thread's
    /// [`ThreadState::migrate_args`] (one walk in flight per thread), so
    /// the micro stays pointer-free. A transient (`EBUSY`) failure with
    /// retries left re-queues the same micro.
    Relocate {
        addr: numa_vm::VirtAddr,
        site: RelocSite,
        dest: numa_topology::NodeId,
        unpatched_n: usize,
        retries_left: u32,
    },
    /// The batched TLB shootdown ending a migration syscall.
    MigrationShootdown,
    /// Start the transactional copy of one page (tiering).
    TierTxnBegin {
        vpn: u64,
        dest: numa_topology::NodeId,
    },
    /// Commit/abort the transactional copy at copy-completion time; an
    /// abort with retries left re-queues a fresh begin/commit pair.
    TierTxnCommit {
        vpn: u64,
        dest: numa_topology::NodeId,
        retries_left: u32,
    },
    /// Touch one page of an access op.
    Touch {
        page_addr: numa_vm::VirtAddr,
        portion: u64,
        write: bool,
        kind: crate::op::MemAccessKind,
        fits: bool,
    },
    /// Copy one page-sized chunk of a user-space memcpy.
    MemcpyChunk {
        src: numa_vm::VirtAddr,
        dst: numa_vm::VirtAddr,
        bytes: u64,
    },
    /// Mark a node unallocatable before its evacuation walk (the first
    /// step of memory hot-remove).
    NodeOfflineBegin { node: numa_topology::NodeId },
}

// Every arena slot is a plain copy of this size (DESIGN.md §13).
const _: () = assert!(std::mem::size_of::<Micro>() == 32);

impl Micro {
    /// A first relocation attempt of the page at `addr`.
    fn relocate(
        addr: numa_vm::VirtAddr,
        site: RelocSite,
        dest: numa_topology::NodeId,
        unpatched_n: usize,
    ) -> Self {
        Micro::Relocate {
            addr,
            site,
            dest,
            unpatched_n,
            retries_left: MOVE_PAGE_RETRIES,
        }
    }
}

/// How many times an aborted transactional tier migration is retried
/// before the daemon gives up on the page for this pass. Nomad bounds
/// retries the same way: a page hot enough to keep aborting is exactly
/// the page not worth moving right now.
const TIER_TXN_RETRIES: u32 = 3;

/// How many times a page whose migration failed transiently (`EBUSY`,
/// fault-injected) is retried before the kernel reports the failure in
/// the per-page status and moves on — mirroring Linux's bounded
/// `migrate_pages()` retry loop.
const MOVE_PAGE_RETRIES: u32 = 3;

/// A thread's pending micro-ops: a bump arena of contiguous runs
/// (DESIGN.md §13).
///
/// `expand_op_into` writes each op as one contiguous run and the arena is
/// cleared wholesale before the next expansion, so steady state allocates
/// nothing and drains by bumping a cursor through a flat `Vec`. The
/// `push_front` re-queues of the retry paths (fault retries, tier txn
/// abort/re-begin) append single-micro runs at the arena *tail* and chain
/// them LIFO on the run stack: the top run always drains first, which is
/// exactly a deque's front-push order without the deque.
#[derive(Default)]
struct MicroRuns {
    /// Flat storage; cleared (capacity kept) before each expansion.
    arena: Vec<Micro>,
    /// `(cursor, end)` windows into `arena`; the last entry is the run
    /// currently draining. Depth is 1 + pending front-pushes, so it stays
    /// within a couple of entries.
    runs: Vec<(u32, u32)>,
    /// Out-of-line [`Micro::Whole`] payloads, indexed by the variant.
    whole_ops: Vec<Op>,
}

impl MicroRuns {
    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Reset the arena for a fresh op expansion. Only legal when drained —
    /// live run windows would dangle otherwise.
    fn begin_expand(&mut self) {
        debug_assert!(self.runs.is_empty(), "expansion into a draining arena");
        self.arena.clear();
        self.whole_ops.clear();
    }

    /// Seal everything emitted since `begin_expand` as one contiguous
    /// run. A no-op for empty expansions.
    fn end_expand(&mut self) {
        debug_assert!(self.runs.is_empty(), "sealing into a draining arena");
        if !self.arena.is_empty() {
            self.runs.push((0, self.arena.len() as u32));
        }
    }

    /// Append a micro to the run being expanded. Plain arena push — the
    /// covering window is created once by `end_expand`, not maintained
    /// per push (expansion is itself a hot path: one emit per page).
    fn emit(&mut self, m: Micro) {
        debug_assert!(self.runs.is_empty(), "emit outside an expansion");
        self.arena.push(m);
    }

    /// Append a whole op, parking its payload out-of-line.
    fn push_whole(&mut self, op: Op) {
        let i = self.whole_ops.len() as u32;
        self.whole_ops.push(op);
        self.emit(Micro::Whole(i));
    }

    /// Take the payload of a [`Micro::Whole`] slot (executed exactly once
    /// per expansion; the slot is dead afterwards).
    fn take_whole(&mut self, i: u32) -> Op {
        std::mem::replace(&mut self.whole_ops[i as usize], Op::Nop)
    }

    /// Chain a micro to drain *next* (deque `push_front` semantics): a
    /// fresh single-micro run on top of the stack, stored at the arena
    /// tail so nothing shifts.
    fn push_front(&mut self, m: Micro) {
        let i = self.arena.len() as u32;
        self.arena.push(m);
        self.runs.push((i, i + 1));
    }

    /// Take the next micro, bumping the top run's cursor.
    fn pop_front(&mut self) -> Option<Micro> {
        let (cursor, end) = self.runs.last_mut()?;
        let i = *cursor as usize;
        *cursor += 1;
        let done = *cursor == *end;
        let m = self.arena[i];
        if done {
            self.runs.pop();
        }
        Some(m)
    }

    /// The micro `pop_front` would return, without consuming it.
    fn front(&self) -> Option<&Micro> {
        let &(cursor, _) = self.runs.last()?;
        Some(&self.arena[cursor as usize])
    }

    /// Abandon every pending micro (the owning thread was OOM-killed).
    fn clear(&mut self) {
        self.runs.clear();
        self.arena.clear();
        self.whole_ops.clear();
    }
}

struct ThreadState {
    core: CoreId,
    clock: SimTime,
    done: bool,
    program: Program,
    micro: MicroRuns,
    /// The from/to node sets of the thread's in-flight `migrate_pages`
    /// walk (set at expansion, read by each of its `Micro::Relocate`s).
    migrate_args: Option<(Vec<numa_topology::NodeId>, Vec<numa_topology::NodeId>)>,
    /// The op currently being drained and when it started (tracing only).
    op: Option<(&'static str, SimTime)>,
}

/// A paused-and-resumable engine session over one machine.
///
/// [`Machine::start_run`] captures what used to be the locals of the
/// monolithic run loop; [`Machine::run_until`] advances the session,
/// optionally stopping once every pending event lies beyond a virtual-time
/// horizon; [`EngineRun::finish`] closes the session into a [`RunResult`].
/// [`Machine::run`] is the composition of the three, so a windowed run is
/// event-for-event identical to a monolithic one: the horizon only changes
/// *when the host* executes each event, never which event is next (the
/// next thread is always the tree root, in global virtual-time order).
///
/// This re-entrancy is what the sharded multitenant engine
/// ([`crate::shard`]) is built on: each tenant's session advances through
/// bounded windows and pauses at every barrier so shared resources can be
/// reconciled deterministically.
pub struct EngineRun {
    stats: RunStats,
    barriers: Vec<BarrierState>,
    states: Vec<ThreadState>,
    /// One slot per thread, present while the thread is runnable or
    /// running; the root is the thread that runs next.
    queue: TournamentTree,
    thread_end: Vec<SimTime>,
    /// Scratch snapshot for the traced-micro breakdown diff, reused
    /// across micros instead of cloning a fresh Vec per drain.
    snap: Breakdown,
    /// Tracing cannot be toggled mid-run; hoisted out of the per-micro
    /// loop (it lives behind a shared-handle indirection).
    tracing: bool,
}

impl EngineRun {
    /// The statistics accumulated so far (counters read mid-run by the
    /// shard reconciler's window folds).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Close the session. Threads that never yielded `None` (e.g. parked
    /// at a barrier no one releases) report the clock they stalled at,
    /// exactly as the monolithic loop did.
    pub fn finish(self) -> RunResult {
        let makespan = self
            .thread_end
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        RunResult {
            makespan,
            thread_end: self.thread_end,
            stats: self.stats,
        }
    }
}

impl Machine {
    /// Run `threads` to completion with the given barrier team sizes
    /// (barrier *i* in [`Op::Barrier`] refers to `barrier_sizes[i]`).
    ///
    /// Threads all start at virtual time zero. Returns when every program
    /// has yielded `None`.
    pub fn run(&mut self, threads: Vec<ThreadSpec>, barrier_sizes: &[usize]) -> RunResult {
        let mut run = self.start_run(threads, barrier_sizes);
        self.run_until(&mut run, None);
        run.finish()
    }

    /// Open a resumable engine session over `threads` (see [`EngineRun`]).
    pub fn start_run(&mut self, threads: Vec<ThreadSpec>, barrier_sizes: &[usize]) -> EngineRun {
        let barriers: Vec<BarrierState> = barrier_sizes
            .iter()
            .map(|s| BarrierState::new(*s))
            .collect();
        let states: Vec<ThreadState> = threads
            .into_iter()
            .map(|t| ThreadState {
                core: t.core,
                clock: SimTime::ZERO,
                done: false,
                program: t.program,
                micro: MicroRuns::default(),
                migrate_args: None,
                op: None,
            })
            .collect();
        let n = states.len();
        let mut queue = TournamentTree::new(n);
        for tid in 0..n {
            queue.set(tid, SimTime::ZERO);
        }
        EngineRun {
            stats: RunStats::default(),
            barriers,
            states,
            queue,
            thread_end: vec![SimTime::ZERO; n],
            snap: Breakdown::new(),
            tracing: self.trace.enabled(),
        }
    }

    /// Advance a session until no pending event is at or before `horizon`
    /// (`None` = run to completion). Returns the virtual time of the next
    /// pending event, or `None` when the queue drained (every thread is
    /// done or parked at a barrier that cannot release).
    ///
    /// The horizon gates which thread is *selected*, not micro drains: a
    /// thread selected inside the window may overshoot it through the
    /// lookahead fast path. The
    /// overshoot is harmless for determinism — it depends only on this
    /// session's own queue, so the same events execute for any window
    /// schedule — and the shard layer's window boundaries are fixed
    /// multiples of the lookahead regardless of `--shards`/`--jobs`.
    pub fn run_until(&mut self, run: &mut EngineRun, horizon: Option<SimTime>) -> Option<SimTime> {
        let EngineRun {
            stats,
            barriers,
            states,
            queue,
            thread_end,
            snap,
            tracing,
        } = run;
        let tracing = *tracing;

        loop {
            // The root keeps its slot while it runs: every path below
            // re-keys it, or removes it when it parks, finishes or dies.
            let (t, tid) = queue.peek()?;
            if horizon.is_some_and(|h| t > h) {
                return Some(t);
            }
            let state = &mut states[tid];
            debug_assert!(!state.done && state.clock == t, "slot key is the clock");
            let core = state.core;
            let mut now = state.clock;

            // Drain pending micro-ops if there are any. The thread state is
            // passed down so a micro can queue follow-up work (e.g. a
            // transactional tier abort re-queuing its retry).
            if let Some(first) = state.micro.pop_front() {
                // Per-touch charges accumulate here and flush once per
                // quantum (per micro when traced, so span diffs are
                // unchanged) — see `TouchBatch`.
                let mut batch = crate::access::TouchBatch::default();
                let mut micro = first;
                loop {
                    // With tracing on, diff the breakdown around the micro
                    // so every nanosecond charged to a component also
                    // appears as a trace span — component_totals() then
                    // reconciles exactly with the run's Breakdown by
                    // construction.
                    if tracing {
                        self.trace.set_thread(tid);
                        snap.clone_from(&stats.breakdown);
                    }
                    let end = self.exec_micro(tid, core, now, micro, state, stats, &mut batch);
                    if tracing {
                        batch.flush(stats);
                        for c in CostComponent::ALL {
                            let delta = stats.breakdown.get(c) - snap.get(c);
                            if delta > 0 {
                                self.trace.record_for(
                                    now,
                                    tid,
                                    TraceEventKind::Span {
                                        component: c,
                                        dur_ns: delta,
                                    },
                                );
                            }
                        }
                        if state.micro.is_empty() {
                            if let Some((op, started)) = state.op.take() {
                                self.trace.record_for(
                                    started,
                                    tid,
                                    TraceEventKind::OpEnd {
                                        op,
                                        dur_ns: end.since(started),
                                    },
                                );
                            }
                        }
                    }
                    state.clock = end;
                    // An OOM kill raised inside the micro (a fault came
                    // back fatally out of memory with the kill policy on):
                    // this thread is the deterministic victim — the
                    // allocating task, as under Linux's
                    // `oom_kill_allocating_task` — so abandon its pending
                    // micros and let the rest of the run continue.
                    if self.oom_kill_pending {
                        self.oom_kill_pending = false;
                        batch.flush(stats);
                        state.micro.clear();
                        if tracing {
                            if let Some((op, started)) = state.op.take() {
                                self.trace.record_for(
                                    started,
                                    tid,
                                    TraceEventKind::OpEnd {
                                        op,
                                        dur_ns: end.since(started),
                                    },
                                );
                            }
                        }
                        state.done = true;
                        thread_end[tid] = end;
                        queue.remove(tid);
                        break;
                    }
                    // One re-key and one replay per micro. The re-key takes
                    // the newest ticket, so this thread is still the root
                    // only if every other runnable thread wakes *strictly
                    // after* `end` (an equal-time peer wins the FIFO
                    // tie-break). Lookahead fast path: while it is the root
                    // and has micros left, run the next one inline — the
                    // outer loop would select it anyway, and micros never
                    // release barriers, so no parked thread can become
                    // runnable inside the window. See DESIGN.md §10.
                    queue.set(tid, end);
                    if self.fast_path
                        && !state.micro.is_empty()
                        && queue.peek().is_some_and(|(_, root)| root == tid)
                    {
                        self.fastpath_micros += 1;
                        now = end;
                        micro = state.micro.pop_front().expect("checked non-empty");
                        continue;
                    }
                    batch.flush(stats);
                    break;
                }
                continue;
            }

            // Ask the program for the next op. The context borrows the
            // machine immutably; execution below borrows it mutably.
            let op = {
                let mut ctx = ProgramCtx {
                    tid,
                    core,
                    now,
                    machine: self,
                };
                (state.program)(&mut ctx)
            };
            let Some(op) = op else {
                state.done = true;
                thread_end[tid] = state.clock;
                queue.remove(tid);
                continue;
            };

            match op {
                Op::Barrier(id) => {
                    assert!(
                        id < barriers.len(),
                        "thread {tid} hit unregistered barrier {id}"
                    );
                    match barriers[id].arrive(tid, now) {
                        BarrierOutcome::Wait => {
                            // Parked: re-keyed when the barrier releases.
                            queue.remove(tid);
                        }
                        BarrierOutcome::Release {
                            release_at,
                            waiters,
                        } => {
                            stats.counters.bump(Counter::BarriersCompleted);
                            self.trace
                                .record_for(release_at, tid, TraceEventKind::Barrier { id });
                            for w in waiters {
                                states[w].clock = release_at;
                                queue.set(w, release_at);
                            }
                            states[tid].clock = release_at;
                            queue.set(tid, release_at);
                        }
                    }
                }
                Op::MigrateThread { to } => {
                    // Handled in the loop (like barriers) because it
                    // mutates the thread's core binding, which only the
                    // engine owns.
                    let end = self.migrate_thread(core, to, now, stats);
                    states[tid].core = to;
                    states[tid].clock = end;
                    queue.set(tid, end);
                }
                other => {
                    let op_name = other.name();
                    let state = &mut states[tid];
                    self.expand_op_into(core, other, state);
                    if tracing && !state.micro.is_empty() {
                        self.trace
                            .record_for(now, tid, TraceEventKind::OpStart { op: op_name });
                        state.op = Some((op_name, now));
                    }
                    queue.set(tid, now);
                }
            }
        }
    }

    /// Expand an op into its scheduling quanta as one contiguous run in
    /// the thread's micro arena — reused across ops so expansion stops
    /// allocating once the arena has grown to the run's largest op.
    fn expand_op_into(&mut self, core: CoreId, op: Op, state: &mut ThreadState) {
        use crate::access::{build_strided_touches, touch_iter};
        use numa_vm::{PageRange, PAGE_SIZE};
        state.micro.begin_expand();
        let micros = &mut state.micro;
        match op {
            Op::Access {
                addr,
                bytes,
                traffic,
                write,
                kind,
            } => {
                if bytes == 0 {
                    return;
                }
                let pages = PageRange::covering(addr, bytes).pages();
                push_touches(
                    micros,
                    self,
                    core,
                    pages,
                    touch_iter(addr, bytes),
                    traffic,
                    write,
                    kind,
                );
            }
            Op::AccessStrided {
                base,
                seg_bytes,
                stride,
                count,
                traffic,
                write,
                kind,
            } => {
                if seg_bytes == 0 || count == 0 {
                    return;
                }
                let touches = build_strided_touches(base, seg_bytes, stride, count);
                let pages = touches.len() as u64;
                push_touches(micros, self, core, pages, touches, traffic, write, kind);
            }
            Op::Memcpy { src, dst, bytes } => {
                let mut off = 0u64;
                while off < bytes {
                    let chunk = (PAGE_SIZE - (src + off).page_offset()).min(bytes - off);
                    micros.emit(Micro::MemcpyChunk {
                        src: src + off,
                        dst: dst + off,
                        bytes: chunk,
                    });
                    off += chunk;
                }
            }
            Op::MovePages { pages, dest } => {
                assert_eq!(pages.len(), dest.len(), "pages/dest length mismatch");
                micros.emit(Micro::MigrationBegin(RelocSite::MovePages));
                let n = pages.len();
                let unpatched_n = if self.kernel.config.patched_move_pages {
                    0
                } else {
                    n
                };
                for (addr, d) in pages.into_iter().zip(dest) {
                    micros.emit(Micro::relocate(addr, RelocSite::MovePages, d, unpatched_n));
                }
                micros.emit(Micro::MigrationShootdown);
            }
            Op::TierMigrate {
                pages,
                dest,
                transactional,
            } => {
                if pages.is_empty() {
                    return;
                }
                for vpn in pages {
                    if transactional {
                        // The begin returns copy-completion time; the
                        // commit micro then runs exactly at that time.
                        micros.emit(Micro::TierTxnBegin { vpn, dest });
                        micros.emit(Micro::TierTxnCommit {
                            vpn,
                            dest,
                            retries_left: TIER_TXN_RETRIES,
                        });
                    } else {
                        let addr = VirtAddr::from_vpn(vpn);
                        micros.emit(Micro::relocate(addr, RelocSite::TierStw, dest, 0));
                    }
                }
                micros.emit(Micro::MigrationShootdown);
            }
            Op::MigratePages { from, to } => {
                assert!(
                    !from.is_empty() && from.len() == to.len(),
                    "from/to node sets mismatch"
                );
                micros.emit(Micro::MigrationBegin(RelocSite::MigratePages));
                // The ordered address-space walk (§4.2). The node sets are
                // parked on the thread, not cloned into every micro.
                for vpn in self.space.page_table.sorted_vpns() {
                    let addr = VirtAddr::from_vpn(vpn);
                    // The node sets live on the thread; `dest` is unused.
                    micros.emit(Micro::relocate(addr, RelocSite::MigratePages, NodeId(0), 0));
                }
                micros.emit(Micro::MigrationShootdown);
                state.migrate_args = Some((from, to));
            }
            Op::NodeOffline { node } => {
                micros.emit(Micro::NodeOfflineBegin { node });
                // Snapshot the node's residents at expansion time — the
                // ordered walk of memory hot-remove. A page that lands on
                // the node after the snapshot (before the offline mark
                // executes) is simply left behind; Linux's offline loop
                // has the same window and re-scans, which the caller can
                // model by issuing the op again.
                for (vpn, pte) in self.space.page_table.iter() {
                    if self.frames.node_of(pte.frame) == node {
                        let addr = VirtAddr::from_vpn(vpn);
                        micros.emit(Micro::relocate(addr, RelocSite::Evacuate, node, 0));
                    }
                }
                micros.emit(Micro::MigrationShootdown);
            }
            other => micros.push_whole(other),
        }
        state.micro.end_expand();
    }

    /// Account a transiently failed per-page migration (`EBUSY` status or
    /// aborted tier transaction). With retries left, count the retry and
    /// return `true` — the caller re-queues the micro with one fewer
    /// attempt. Otherwise count the give-up: the page stays where it is
    /// and the syscall reports the failure in its per-page status.
    /// The retry-livelock watchdog can veto a retry that would otherwise
    /// be granted: when the kernel-wide progress counters have not moved
    /// for a full watchdog window despite continuous retrying, further
    /// retries are refused and the page degrades immediately.
    fn note_transient_failure(&mut self, now: SimTime, page: u64, retries_left: u32) -> bool {
        if retries_left > 0 && self.kernel.watchdog_allow_retry(now) {
            self.kernel.counters.bump(Counter::MigrationRetries);
            self.trace.record(
                now,
                TraceEventKind::MigrationRetry {
                    page,
                    attempts_left: retries_left,
                },
            );
            true
        } else {
            self.kernel.counters.bump(Counter::MigrationsGaveUp);
            self.trace.record(
                now,
                TraceEventKind::MigrationDegraded {
                    page,
                    reason: if retries_left > 0 {
                        "watchdog"
                    } else {
                        "retries_exhausted"
                    },
                },
            );
            false
        }
    }

    /// Execute one micro-op, returning its completion time. `state` is the
    /// executing thread: a micro may consume its follow-up from the micro
    /// queue (a failed tier begin drops its paired commit), queue new work
    /// at the front (an aborted commit re-queues a retry pair), or read
    /// the thread's parked `migrate_args`.
    #[allow(clippy::too_many_arguments)]
    fn exec_micro(
        &mut self,
        tid: usize,
        core: CoreId,
        now: SimTime,
        micro: Micro,
        state: &mut ThreadState,
        stats: &mut RunStats,
        batch: &mut crate::access::TouchBatch,
    ) -> SimTime {
        match micro {
            Micro::Whole(i) => {
                let op = state.micro.take_whole(i);
                self.exec_whole(tid, core, now, op, stats)
            }
            Micro::MigrationBegin(site) => {
                self.kernel.migration_begin(now, site, &mut stats.breakdown)
            }
            Micro::Relocate {
                addr,
                site,
                dest,
                unpatched_n,
                retries_left,
            } => {
                let (k, space, frames) = (&mut self.kernel, &mut self.space, &mut self.frames);
                let (b, vpn) = (&mut stats.breakdown, addr.vpn());
                let (end, status) = match site {
                    RelocSite::MovePages => {
                        let (end, st) =
                            k.move_page_step(space, frames, now, addr, dest, unpatched_n, b);
                        (end, Some(st))
                    }
                    RelocSite::MigratePages => {
                        let (from, to) = state.migrate_args.as_ref().expect("walk args");
                        k.migrate_page_step(space, frames, now, vpn, from, to, b)
                    }
                    RelocSite::Evacuate => {
                        let (end, eb, st) = k.evacuate_page_step(space, frames, now, vpn, dest);
                        b.merge(&eb);
                        (end, st)
                    }
                    RelocSite::TierStw => {
                        let end = k.tier_stw_page(space, frames, now, vpn, dest, b);
                        (end.unwrap_or(now), None)
                    }
                    RelocSite::Reclaim | RelocSite::NextTouch => {
                        unreachable!("{site:?} relocations run inside the kernel")
                    }
                };
                if status == Some(PageStatus::Busy)
                    && self.note_transient_failure(end, vpn, retries_left)
                {
                    state.micro.push_front(Micro::Relocate {
                        addr,
                        site,
                        dest,
                        unpatched_n,
                        retries_left: retries_left - 1,
                    });
                }
                end
            }
            Micro::MigrationShootdown => {
                self.kernel
                    .migration_shootdown(&mut self.tlb, now, core, &mut stats.breakdown)
            }
            Micro::TierTxnBegin { vpn, dest } => {
                let (space, frames) = (&mut self.space, &mut self.frames);
                let b = &mut stats.breakdown;
                match self.kernel.tier_txn_begin(space, frames, now, vpn, dest, b) {
                    Some(t) => t,
                    None => {
                        // Ineligible page (unmapped, already placed, bank
                        // full, ...): drop the paired commit micro.
                        if matches!(
                            state.micro.front(),
                            Some(Micro::TierTxnCommit { vpn: v, .. }) if *v == vpn
                        ) {
                            state.micro.pop_front();
                        }
                        now
                    }
                }
            }
            Micro::TierTxnCommit {
                vpn,
                dest,
                retries_left,
            } => {
                let b = &mut stats.breakdown;
                let (end, outcome) =
                    self.kernel
                        .tier_txn_commit(&mut self.space, &mut self.frames, now, vpn, b);
                if outcome == numa_kernel::TxnOutcome::Aborted
                    && self.note_transient_failure(end, vpn, retries_left)
                {
                    state.micro.push_front(Micro::TierTxnCommit {
                        vpn,
                        dest,
                        retries_left: retries_left - 1,
                    });
                    state.micro.push_front(Micro::TierTxnBegin { vpn, dest });
                }
                end
            }
            Micro::Touch {
                page_addr,
                portion,
                write,
                kind,
                fits,
            } => self.touch_page(
                tid, core, now, page_addr, portion, write, kind, fits, stats, batch,
            ),
            Micro::MemcpyChunk { src, dst, bytes } => {
                self.exec_memcpy(tid, core, now, src, dst, bytes, stats)
            }
            Micro::NodeOfflineBegin { node } => {
                self.kernel.node_offline_begin(&mut self.frames, now, node);
                now
            }
        }
    }

    /// Execute a small op atomically.
    fn exec_whole(
        &mut self,
        tid: usize,
        core: CoreId,
        now: SimTime,
        op: Op,
        stats: &mut RunStats,
    ) -> SimTime {
        match op {
            Op::Compute { flops, efficiency } => {
                debug_assert!(efficiency > 0.0 && efficiency <= 1.0);
                let rate = self.topology().core(core).flops_per_ns() * efficiency;
                let ns = round_ns(flops as f64 / rate);
                stats.breakdown.add(CostComponent::Compute, ns);
                now + ns
            }
            Op::ComputeNs(ns) => {
                stats.breakdown.add(CostComponent::Compute, ns);
                now + ns
            }
            Op::MadviseNextTouch { range } => {
                let r = self
                    .kernel
                    .madvise_next_touch(&mut self.space, &mut self.tlb, now, core, range)
                    .unwrap_or_else(|e| panic!("thread {tid} madvise failed: {e}"));
                stats.breakdown.merge(&r.breakdown);
                r.end
            }
            Op::Munmap { addr } => {
                let r = self
                    .kernel
                    .munmap(
                        &mut self.space,
                        &mut self.frames,
                        &mut self.tlb,
                        now,
                        core,
                        addr,
                    )
                    .unwrap_or_else(|e| panic!("thread {tid} munmap failed: {e}"));
                stats.breakdown.merge(&r.breakdown);
                r.end
            }
            Op::Mprotect {
                range,
                prot,
                component,
            } => {
                let r = self
                    .kernel
                    .mprotect(
                        &mut self.space,
                        &mut self.tlb,
                        now,
                        core,
                        range,
                        prot,
                        component,
                    )
                    .unwrap_or_else(|e| panic!("thread {tid} mprotect failed: {e}"));
                stats.breakdown.merge(&r.breakdown);
                r.end
            }
            Op::Mbind { range, policy } => {
                let r = self
                    .kernel
                    .mbind(&mut self.space, now, range, policy)
                    .unwrap_or_else(|e| panic!("thread {tid} mbind failed: {e}"));
                stats.breakdown.merge(&r.breakdown);
                r.end
            }
            Op::NodeOnline { node } => {
                self.kernel.node_online(&mut self.frames, now, node);
                now
            }
            Op::Nop => now,
            Op::Barrier(_) => unreachable!("barriers are handled by the engine loop"),
            Op::MigrateThread { .. } => {
                unreachable!("thread migration is handled by the engine loop")
            }
            Op::Access { .. }
            | Op::AccessStrided { .. }
            | Op::Memcpy { .. }
            | Op::MovePages { .. }
            | Op::MigratePages { .. }
            | Op::TierMigrate { .. }
            | Op::NodeOffline { .. } => {
                unreachable!("multi-page ops are expanded into micro-ops")
            }
        }
    }
}

/// Queue one `Micro::Touch` per page, spreading `traffic` uniformly.
/// `pages` must equal the number of addresses `touches` yields; taking it
/// separately lets the contiguous path stream page addresses straight
/// from the range iterator instead of materialising a `Vec`.
#[allow(clippy::too_many_arguments)]
fn push_touches(
    micros: &mut MicroRuns,
    machine: &Machine,
    core: CoreId,
    pages: u64,
    touches: impl IntoIterator<Item = numa_vm::VirtAddr>,
    traffic: u64,
    write: bool,
    kind: crate::op::MemAccessKind,
) {
    let per_page = traffic / pages.max(1);
    let remainder = traffic - per_page * pages;
    let fits = machine.operand_fits_in_cache(core, pages);
    for (i, page_addr) in touches.into_iter().enumerate() {
        let portion = per_page + if (i as u64) < remainder { 1 } else { 0 };
        micros.emit(Micro::Touch {
            page_addr,
            portion,
            write,
            kind,
            fits,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MemAccessKind;
    use numa_vm::{MemPolicy, VirtAddr, PAGE_SIZE};

    #[test]
    fn scripted_threads_run_to_completion() {
        let mut m = Machine::two_node();
        let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
        let threads = vec![
            ThreadSpec::scripted(
                CoreId(0),
                vec![
                    Op::read(a, PAGE_SIZE, MemAccessKind::Stream),
                    Op::ComputeNs(100),
                ],
            ),
            ThreadSpec::scripted(CoreId(2), vec![Op::ComputeNs(5000)]),
        ];
        let r = m.run(threads, &[]);
        assert_eq!(r.thread_end.len(), 2);
        assert!(r.makespan >= SimTime(5000));
        assert!(r.stats.breakdown.get(CostComponent::Compute) >= 5100);
    }

    #[test]
    fn empty_run_is_zero() {
        let mut m = Machine::two_node();
        let r = m.run(vec![], &[]);
        assert_eq!(r.makespan, SimTime::ZERO);
    }

    #[test]
    fn barrier_synchronises_clocks() {
        let mut m = Machine::two_node();
        let threads = vec![
            ThreadSpec::scripted(
                CoreId(0),
                vec![Op::ComputeNs(100), Op::Barrier(0), Op::ComputeNs(10)],
            ),
            ThreadSpec::scripted(
                CoreId(2),
                vec![Op::ComputeNs(9000), Op::Barrier(0), Op::ComputeNs(10)],
            ),
        ];
        let r = m.run(threads, &[2]);
        // Both threads finish 10ns after the 9000ns barrier release.
        assert_eq!(r.thread_end[0], SimTime(9010));
        assert_eq!(r.thread_end[1], SimTime(9010));
        assert_eq!(r.stats.counters.get(Counter::BarriersCompleted), 1);
    }

    #[test]
    fn repeated_barrier_episodes() {
        let mut m = Machine::two_node();
        let mk = |core: u16, work: u64| {
            ThreadSpec::scripted(
                CoreId(core),
                vec![
                    Op::ComputeNs(work),
                    Op::Barrier(0),
                    Op::ComputeNs(work),
                    Op::Barrier(0),
                ],
            )
        };
        let r = m.run(vec![mk(0, 10), mk(2, 30)], &[2]);
        assert_eq!(r.stats.counters.get(Counter::BarriersCompleted), 2);
        assert_eq!(r.makespan, SimTime(60));
    }

    #[test]
    fn compute_rate_honours_core_spec() {
        let mut m = Machine::two_node();
        // 3.8 flops/ns at efficiency 1.0: 3800 flops take 1000 ns.
        let threads = vec![ThreadSpec::scripted(
            CoreId(0),
            vec![Op::Compute {
                flops: 3800,
                efficiency: 1.0,
            }],
        )];
        let r = m.run(threads, &[]);
        assert_eq!(r.makespan, SimTime(1000));
    }

    #[test]
    fn generator_programs_see_context() {
        let mut m = Machine::two_node();
        let mut emitted = 0u32;
        let program: Program = Box::new(move |ctx| {
            assert_eq!(ctx.core, CoreId(2));
            if emitted < 3 {
                emitted += 1;
                Some(Op::ComputeNs(10))
            } else {
                None
            }
        });
        let r = m.run(vec![ThreadSpec::new(CoreId(2), program)], &[]);
        assert_eq!(r.makespan, SimTime(30));
    }

    #[test]
    fn tier_migrate_op_demotes_transactionally() {
        use numa_topology::NodeId;
        let mut m = Machine::tiered_4p2();
        let a = m.alloc(2 * PAGE_SIZE, MemPolicy::FirstTouch);
        let vpns: Vec<u64> = (0..2).map(|p| (a + p * PAGE_SIZE).vpn()).collect();
        let threads = vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, 2 * PAGE_SIZE, MemAccessKind::Stream),
                Op::TierMigrate {
                    pages: vpns,
                    dest: NodeId(4),
                    transactional: true,
                },
            ],
        )];
        m.run(threads, &[]);
        assert_eq!(m.page_node(a), Some(NodeId(4)));
        assert_eq!(m.page_node(a + PAGE_SIZE), Some(NodeId(4)));
        assert_eq!(m.kernel.counters.get(Counter::TierTxnCommits), 2);
        assert_eq!(m.kernel.counters.get(Counter::TierDemotions), 2);
        assert_eq!(m.kernel.counters.get(Counter::TierTxnAborts), 0);
    }

    #[test]
    fn tier_migrate_op_stw_moves_pages() {
        use numa_topology::NodeId;
        let mut m = Machine::tiered_4p2();
        let a = m.alloc(PAGE_SIZE, MemPolicy::FirstTouch);
        let threads = vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, PAGE_SIZE, MemAccessKind::Stream),
                Op::TierMigrate {
                    pages: vec![a.vpn()],
                    dest: NodeId(5),
                    transactional: false,
                },
            ],
        )];
        m.run(threads, &[]);
        assert_eq!(m.page_node(a), Some(NodeId(5)));
        assert_eq!(m.kernel.counters.get(Counter::TierDemotions), 1);
    }

    #[test]
    fn concurrent_writer_aborts_txn_migration() {
        use numa_topology::NodeId;
        let mut m = Machine::tiered_4p2();
        let a = m.alloc(PAGE_SIZE, MemPolicy::FirstTouch);
        // Prime the page from the writer's core so it lands on node 0.
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(0),
                vec![Op::write(a, PAGE_SIZE, MemAccessKind::Random)],
            )],
            &[],
        );
        // A writer hammers the page while another thread tries to demote
        // it transactionally: every copy is dirtied before its commit.
        let writer = ThreadSpec::scripted(
            CoreId(0),
            (0..200)
                .map(|_| Op::write(a, 64, MemAccessKind::Random))
                .collect(),
        );
        let migrator = ThreadSpec::scripted(
            CoreId(4),
            vec![Op::TierMigrate {
                pages: vec![a.vpn()],
                dest: NodeId(4),
                transactional: true,
            }],
        );
        m.run(vec![writer, migrator], &[]);
        assert!(
            m.kernel.counters.get(Counter::TierTxnAborts) >= 1,
            "a hammered page must abort at least once"
        );
        // Writers never stalled on the migration: no STW windows existed.
        assert_eq!(m.kernel.counters.get(Counter::TierStwStalls), 0);
    }

    #[test]
    fn node_offline_evacuates_and_online_restores() {
        use numa_topology::NodeId;
        let mut m = Machine::two_node();
        let a = m.alloc(4 * PAGE_SIZE, MemPolicy::FirstTouch);
        // Populate on node 0, then hot-remove it from a node-1 core.
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(0),
                vec![Op::write(a, 4 * PAGE_SIZE, MemAccessKind::Stream)],
            )],
            &[],
        );
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(2),
                vec![Op::NodeOffline { node: NodeId(0) }],
            )],
            &[],
        );
        for p in 0..4u64 {
            assert_eq!(m.page_node(a + p * PAGE_SIZE), Some(NodeId(1)));
        }
        assert!(m.frames.is_offline(NodeId(0)));
        assert_eq!(m.kernel.counters.get(Counter::NodesOfflined), 1);
        assert_eq!(m.kernel.counters.get(Counter::PagesEvacuated), 4);
        m.run(
            vec![ThreadSpec::scripted(
                CoreId(2),
                vec![Op::NodeOnline { node: NodeId(0) }],
            )],
            &[],
        );
        assert!(!m.frames.is_offline(NodeId(0)));
        assert_eq!(m.kernel.counters.get(Counter::NodesOnlined), 1);
    }

    #[test]
    fn oom_kill_reaps_thread_and_run_continues() {
        use numa_kernel::{KernelConfig, PressureSettings};
        use numa_topology::NodeId;
        use std::sync::Arc;
        // Two frames per node and a strict binding that cannot fall back:
        // the third touch is a fatal OutOfMemory.
        let topo = Arc::new(numa_topology::presets::opteron_4p_with_memory(
            2 * PAGE_SIZE,
        ));
        let config = KernelConfig {
            pressure: PressureSettings {
                oom_kill: true,
                ..PressureSettings::default()
            },
            ..KernelConfig::default()
        };
        let mut m = Machine::new(topo, config);
        let a = m.alloc(3 * PAGE_SIZE, MemPolicy::Bind(NodeId(0)));
        let victim = ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, 3 * PAGE_SIZE, MemAccessKind::Stream),
                Op::ComputeNs(1_000_000),
            ],
        );
        let survivor = ThreadSpec::scripted(CoreId(4), vec![Op::ComputeNs(500)]);
        let r = m.run(vec![victim, survivor], &[]);
        assert_eq!(m.kernel.counters.get(Counter::OomKills), 1);
        // The victim died at the fatal fault: its trailing compute op
        // never ran, while the survivor finished normally.
        assert!(r.thread_end[0] < SimTime(1_000_000));
        assert!(r.thread_end[1] >= SimTime(500));
        assert!(!m.oom_kill_pending, "engine must clear the kill flag");
    }

    #[test]
    fn syscall_op_moves_pages() {
        use numa_topology::NodeId;
        let mut m = Machine::two_node();
        let a = m.alloc(2 * PAGE_SIZE, MemPolicy::FirstTouch);
        let pages: Vec<VirtAddr> = (0..2).map(|p| a + p * PAGE_SIZE).collect();
        let threads = vec![ThreadSpec::scripted(
            CoreId(0),
            vec![
                Op::write(a, 2 * PAGE_SIZE, MemAccessKind::Stream),
                Op::MovePages {
                    pages: pages.clone(),
                    dest: vec![NodeId(1); 2],
                },
            ],
        )];
        m.run(threads, &[]);
        assert_eq!(m.page_node(a), Some(NodeId(1)));
        assert_eq!(m.page_node(a + PAGE_SIZE), Some(NodeId(1)));
    }
}
