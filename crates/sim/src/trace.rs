//! Structured event tracing.
//!
//! The kernel, machine and runtime layers record one typed [`TraceEvent`]
//! per interesting transition: page faults, migration begin/copy/commit/
//! abort, syscall enter/exit, lock acquisitions (with queueing delay), TLB
//! shootdowns, barriers, tier promotions/demotions, op start/end, and
//! per-micro-op cost spans. A [`Trace`] is a cheaply-clonable handle onto a
//! single shared ring buffer, so the machine, the kernel and the kernel's
//! lock set all append to the same stream without threading `&mut`
//! references through every call chain (the simulator is single-threaded;
//! interior mutability here costs one `RefCell` borrow per record).
//!
//! Disabled tracing costs a single `Cell` load per potential record site —
//! no allocation, no formatting — so experiment binaries pay nothing unless
//! `--trace` is given. Enabled tracing is ring-buffered: long runs keep the
//! most recent `capacity` events and count the rest in [`Trace::dropped`].
//!
//! [`Trace::chrome_trace_json`] exports the buffer in Chrome trace-event
//! format (loadable in Perfetto / `chrome://tracing`): each simulated thread
//! becomes a track, duration-bearing events become complete (`"X"`) spans
//! and the rest become instants. [`Trace::component_totals`] sums the
//! [`TraceEventKind::Span`] events into a [`Breakdown`] so tests can
//! reconcile the trace against the cost tables it claims to explain.

use crate::SimTime;
use numa_stats::json::Json;
use numa_stats::{Breakdown, CostComponent};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Thread id used for events not attributable to a simulated thread.
pub const SYSTEM_TID: usize = usize::MAX;

/// What happened. Node fields are raw node indices (`u16`) rather than
/// `numa_topology::NodeId` so the sim crate stays topology-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A page fault was resolved (first touch or next-touch).
    PageFault {
        page: u64,
        node: u16,
        write: bool,
        migrated: bool,
        dur_ns: u64,
    },
    /// A fault escalated to SIGSEGV delivery (user-level next-touch).
    Signal { page: u64 },
    /// Entry into a simulated syscall.
    SyscallEnter { name: &'static str },
    /// Return from a simulated syscall; `dur_ns` measured from its enter.
    SyscallExit {
        name: &'static str,
        pages: u64,
        dur_ns: u64,
    },
    /// A migration transaction opened for `page`.
    MigrationBegin { page: u64, from: u16, to: u16 },
    /// The data copy of one page migration.
    MigrationCopy {
        page: u64,
        from: u16,
        to: u16,
        dur_ns: u64,
    },
    /// A migration transaction committed.
    MigrationCommit { page: u64, dur_ns: u64 },
    /// A migration transaction aborted (page dirtied mid-copy, etc).
    MigrationAbort { page: u64, dur_ns: u64 },
    /// A kernel lock was acquired after `wait_ns` of queueing.
    LockAcquire {
        name: &'static str,
        wait_ns: u64,
        hold_ns: u64,
    },
    /// A TLB shootdown / remote invalidation round.
    TlbShootdown { dur_ns: u64 },
    /// A thread released from barrier `id`.
    Barrier { id: usize },
    /// A page moved up a tier (e.g. CXL -> DRAM).
    TierPromote { page: u64, from: u16, to: u16 },
    /// A page moved down a tier.
    TierDemote { page: u64, from: u16, to: u16 },
    /// A scripted op began executing.
    OpStart { op: &'static str },
    /// A scripted op finished; `dur_ns` measured from its start.
    OpEnd { op: &'static str, dur_ns: u64 },
    /// Cost attributed to one component while executing a micro-op. The
    /// engine emits these by diffing the breakdown around each micro-op, so
    /// summing them reproduces the run's `Breakdown` exactly.
    Span {
        component: CostComponent,
        dur_ns: u64,
    },
    /// The fault-injection plan fired at a migration decision point
    /// (site/kind names from `faultinject`).
    FaultInjected {
        site: &'static str,
        kind: &'static str,
    },
    /// A migration attempt is being retried after a transient failure;
    /// `attempts_left` counts the remaining budget after this retry.
    MigrationRetry { page: u64, attempts_left: u32 },
    /// A migration degraded gracefully: the page stays on its source node
    /// and the workload keeps running.
    MigrationDegraded { page: u64, reason: &'static str },
    /// Page-table replica write-through: `entries` PTEs were
    /// published to replicas (ptplace subsystem).
    PtReplicaSync { entries: u64, dur_ns: u64 },
    /// A single-homed page table migrated to follow its thread (numaPTE);
    /// `entries` PTEs were copied.
    PtMigrate { entries: u64, dur_ns: u64 },
    /// A node's memory-pressure level changed (sampled at the
    /// allocator's probe points; level names from `PressureLevel`).
    PressureChange { node: u16, level: &'static str },
    /// One reclaim run: `scanned` victims considered, `reclaimed` pages
    /// demoted/migrated away from `node`.
    ReclaimRun {
        node: u16,
        scanned: u64,
        reclaimed: u64,
        dur_ns: u64,
    },
    /// A node was marked offline (unallocatable) for hot-remove.
    NodeOffline { node: u16 },
    /// A node was brought back online.
    NodeOnline { node: u16 },
    /// The OOM policy killed the allocating process after reclaim and
    /// every fallback node failed (`node` is the exhausted target).
    OomKill { node: u16 },
    /// The retry-livelock watchdog fired: `retries` retries in a
    /// `window_ns` window with zero migration progress.
    WatchdogFired { retries: u64, window_ns: u64 },
}

impl TraceEventKind {
    /// Short category label (Chrome trace "name" field).
    pub fn label(&self) -> String {
        match self {
            TraceEventKind::PageFault { migrated, .. } => {
                if *migrated {
                    "page_fault_migrate".to_string()
                } else {
                    "page_fault".to_string()
                }
            }
            TraceEventKind::Signal { .. } => "sigsegv".to_string(),
            TraceEventKind::SyscallEnter { name } => format!("{name}_enter"),
            TraceEventKind::SyscallExit { name, .. } => name.to_string(),
            TraceEventKind::MigrationBegin { .. } => "migration_begin".to_string(),
            TraceEventKind::MigrationCopy { .. } => "migration_copy".to_string(),
            TraceEventKind::MigrationCommit { .. } => "migration_commit".to_string(),
            TraceEventKind::MigrationAbort { .. } => "migration_abort".to_string(),
            TraceEventKind::LockAcquire { name, .. } => format!("lock:{name}"),
            TraceEventKind::TlbShootdown { .. } => "tlb_shootdown".to_string(),
            TraceEventKind::Barrier { .. } => "barrier".to_string(),
            TraceEventKind::TierPromote { .. } => "tier_promote".to_string(),
            TraceEventKind::TierDemote { .. } => "tier_demote".to_string(),
            TraceEventKind::OpStart { op } => format!("{op}_start"),
            TraceEventKind::OpEnd { op, .. } => format!("op:{op}"),
            TraceEventKind::Span { component, .. } => format!("span:{}", component.label()),
            TraceEventKind::FaultInjected { site, kind } => format!("fault:{kind}@{site}"),
            TraceEventKind::MigrationRetry { .. } => "migration_retry".to_string(),
            TraceEventKind::MigrationDegraded { .. } => "migration_degraded".to_string(),
            TraceEventKind::PtReplicaSync { .. } => "pt_replica_sync".to_string(),
            TraceEventKind::PtMigrate { .. } => "pt_migrate".to_string(),
            TraceEventKind::PressureChange { level, .. } => format!("pressure:{level}"),
            TraceEventKind::ReclaimRun { .. } => "reclaim_run".to_string(),
            TraceEventKind::NodeOffline { .. } => "node_offline".to_string(),
            TraceEventKind::NodeOnline { .. } => "node_online".to_string(),
            TraceEventKind::OomKill { .. } => "oom_kill".to_string(),
            TraceEventKind::WatchdogFired { .. } => "watchdog_fired".to_string(),
        }
    }

    /// Duration for span-like events; `None` renders as an instant.
    pub fn dur_ns(&self) -> Option<u64> {
        match self {
            TraceEventKind::PageFault { dur_ns, .. }
            | TraceEventKind::SyscallExit { dur_ns, .. }
            | TraceEventKind::MigrationCopy { dur_ns, .. }
            | TraceEventKind::MigrationCommit { dur_ns, .. }
            | TraceEventKind::MigrationAbort { dur_ns, .. }
            | TraceEventKind::TlbShootdown { dur_ns }
            | TraceEventKind::OpEnd { dur_ns, .. }
            | TraceEventKind::Span { dur_ns, .. }
            | TraceEventKind::PtReplicaSync { dur_ns, .. }
            | TraceEventKind::PtMigrate { dur_ns, .. }
            | TraceEventKind::ReclaimRun { dur_ns, .. } => Some(*dur_ns),
            TraceEventKind::LockAcquire { hold_ns, .. } => Some(*hold_ns),
            _ => None,
        }
    }

    /// Event-specific fields as an ordered JSON object (Chrome trace "args").
    pub fn args_json(&self) -> Json {
        match *self {
            TraceEventKind::PageFault {
                page,
                node,
                write,
                migrated,
                ..
            } => Json::obj()
                .set("page", page)
                .set("node", node)
                .set("write", write)
                .set("migrated", migrated),
            TraceEventKind::Signal { page } => Json::obj().set("page", page),
            TraceEventKind::SyscallEnter { .. } => Json::obj(),
            TraceEventKind::SyscallExit { pages, .. } => Json::obj().set("pages", pages),
            TraceEventKind::MigrationBegin { page, from, to } => Json::obj()
                .set("page", page)
                .set("from", from)
                .set("to", to),
            TraceEventKind::MigrationCopy { page, from, to, .. } => Json::obj()
                .set("page", page)
                .set("from", from)
                .set("to", to),
            TraceEventKind::MigrationCommit { page, .. } => Json::obj().set("page", page),
            TraceEventKind::MigrationAbort { page, .. } => Json::obj().set("page", page),
            TraceEventKind::LockAcquire { wait_ns, .. } => Json::obj().set("wait_ns", wait_ns),
            TraceEventKind::TlbShootdown { .. } => Json::obj(),
            TraceEventKind::Barrier { id } => Json::obj().set("id", id),
            TraceEventKind::TierPromote { page, from, to }
            | TraceEventKind::TierDemote { page, from, to } => Json::obj()
                .set("page", page)
                .set("from", from)
                .set("to", to),
            TraceEventKind::OpStart { .. } => Json::obj(),
            TraceEventKind::OpEnd { .. } => Json::obj(),
            TraceEventKind::Span { component, .. } => {
                Json::obj().set("component", component.label())
            }
            TraceEventKind::FaultInjected { site, kind } => {
                Json::obj().set("site", site).set("kind", kind)
            }
            TraceEventKind::MigrationRetry {
                page,
                attempts_left,
            } => Json::obj()
                .set("page", page)
                .set("attempts_left", attempts_left),
            TraceEventKind::MigrationDegraded { page, reason } => {
                Json::obj().set("page", page).set("reason", reason)
            }
            TraceEventKind::PtReplicaSync { entries, .. }
            | TraceEventKind::PtMigrate { entries, .. } => Json::obj().set("entries", entries),
            TraceEventKind::PressureChange { node, level } => {
                Json::obj().set("node", node).set("level", level)
            }
            TraceEventKind::ReclaimRun {
                node,
                scanned,
                reclaimed,
                ..
            } => Json::obj()
                .set("node", node)
                .set("scanned", scanned)
                .set("reclaimed", reclaimed),
            TraceEventKind::NodeOffline { node } | TraceEventKind::NodeOnline { node } => {
                Json::obj().set("node", node)
            }
            TraceEventKind::OomKill { node } => Json::obj().set("node", node),
            TraceEventKind::WatchdogFired { retries, window_ns } => Json::obj()
                .set("retries", retries)
                .set("window_ns", window_ns),
        }
    }
}

/// One traced transition in a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event. For duration-bearing kinds this is the
    /// START of the span; the duration lives inside [`TraceEvent::kind`].
    pub at: SimTime,
    /// Simulated thread id ([`SYSTEM_TID`] for system-wide events).
    pub tid: usize,
    /// What happened.
    pub kind: TraceEventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12} ns] t{:<3} {} {}",
            self.at.ns(),
            self.tid,
            self.kind.label(),
            self.kind.args_json(),
        )
    }
}

#[derive(Debug, Default)]
struct TraceBuf {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

#[derive(Debug, Default)]
struct Inner {
    enabled: Cell<bool>,
    cur_tid: Cell<usize>,
    buf: RefCell<TraceBuf>,
}

/// A cheaply-clonable handle onto a shared bounded trace buffer.
///
/// All clones observe the same buffer and enablement flag, so enabling the
/// machine's handle also enables the kernel's and the lock set's.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    inner: Rc<Inner>,
}

impl Trace {
    /// A trace that records nothing (until [`Trace::enable`] is called).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A trace that keeps the most recent `capacity` events.
    /// `capacity == 0` retains nothing but still counts drops.
    pub fn with_capacity(capacity: usize) -> Self {
        let t = Trace::default();
        t.enable(capacity);
        t
    }

    /// Turn tracing on with the given ring capacity, clearing old events.
    pub fn enable(&self, capacity: usize) {
        let mut buf = self.inner.buf.borrow_mut();
        buf.capacity = capacity;
        buf.events = VecDeque::with_capacity(capacity.min(4096));
        buf.dropped = 0;
        self.inner.enabled.set(true);
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Set the thread id attributed to subsequent [`Trace::record`] calls
    /// from layers (kernel, locks) that don't know the current thread.
    pub fn set_thread(&self, tid: usize) {
        self.inner.cur_tid.set(tid);
    }

    /// Record an event attributed to the current thread (no-op when
    /// disabled — one `Cell` load, nothing else).
    pub fn record(&self, at: SimTime, kind: TraceEventKind) {
        if !self.inner.enabled.get() {
            return;
        }
        self.record_for(at, self.inner.cur_tid.get(), kind);
    }

    /// Record an event for an explicit thread id.
    pub fn record_for(&self, at: SimTime, tid: usize, kind: TraceEventKind) {
        if !self.inner.enabled.get() {
            return;
        }
        let mut buf = self.inner.buf.borrow_mut();
        if buf.capacity == 0 {
            // Degenerate ring: retain nothing, but account the event.
            buf.dropped += 1;
            return;
        }
        while buf.events.len() >= buf.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(TraceEvent { at, tid, kind });
    }

    /// Snapshot of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.buf.borrow().events.iter().copied().collect()
    }

    /// Number of events evicted (or never retained) due to the capacity
    /// bound.
    pub fn dropped(&self) -> u64 {
        self.inner.buf.borrow().dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.buf.borrow().events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all retained events and reset the drop counter, keeping the
    /// enablement flag and capacity.
    pub fn clear(&self) {
        let mut buf = self.inner.buf.borrow_mut();
        buf.events.clear();
        buf.dropped = 0;
    }

    /// Sum the retained [`TraceEventKind::Span`] events into a
    /// [`Breakdown`]. With sufficient capacity this reproduces the run's
    /// breakdown exactly (the engine emits spans by diffing it).
    pub fn component_totals(&self) -> Breakdown {
        let mut b = Breakdown::new();
        for e in self.inner.buf.borrow().events.iter() {
            if let TraceEventKind::Span { component, dur_ns } = e.kind {
                b.add(component, dur_ns);
            }
        }
        b
    }

    /// Export the retained events as a Chrome trace-event JSON document
    /// (loadable in Perfetto / `chrome://tracing`). Timestamps convert from
    /// virtual nanoseconds to the format's microseconds; each simulated
    /// thread renders as its own track.
    pub fn chrome_trace_json(&self) -> String {
        let buf = self.inner.buf.borrow();
        let mut events: Vec<Json> = Vec::with_capacity(buf.events.len() + 8);
        // Name the thread tracks first (metadata events).
        let mut tids: Vec<usize> = buf.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            let name = if *tid == SYSTEM_TID {
                "system".to_string()
            } else {
                format!("thread {tid}")
            };
            events.push(
                Json::obj()
                    .set("name", "thread_name")
                    .set("ph", "M")
                    .set("pid", 0u64)
                    .set("tid", chrome_tid(*tid))
                    .set("args", Json::obj().set("name", name)),
            );
        }
        for e in buf.events.iter() {
            let ts = e.at.ns() as f64 / 1000.0;
            let base = Json::obj()
                .set("name", e.kind.label())
                .set("cat", "sim")
                .set("pid", 0u64)
                .set("tid", chrome_tid(e.tid))
                .set("ts", ts);
            let ev = match e.kind.dur_ns() {
                Some(dur) => base
                    .set("ph", "X")
                    .set("dur", dur as f64 / 1000.0)
                    .set("args", e.kind.args_json()),
                None => base
                    .set("ph", "i")
                    .set("s", "t")
                    .set("args", e.kind.args_json()),
            };
            events.push(ev);
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ns")
            .set("droppedEvents", buf.dropped)
            .to_string()
    }
}

/// Chrome trace tids are ints; map [`SYSTEM_TID`] to a small sentinel track.
fn chrome_tid(tid: usize) -> u64 {
    if tid == SYSTEM_TID {
        999_999
    } else {
        tid as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(page: u64) -> TraceEventKind {
        TraceEventKind::PageFault {
            page,
            node: 0,
            write: true,
            migrated: false,
            dur_ns: 100,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Trace::disabled();
        t.record(SimTime(1), ev(1));
        assert!(t.is_empty());
        assert!(!t.enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn bounded_eviction() {
        let t = Trace::with_capacity(2);
        t.record(SimTime(1), ev(1));
        t.record(SimTime(2), ev(2));
        t.record(SimTime(3), ev(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 1);
        let pages: Vec<u64> = t
            .snapshot()
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::PageFault { page, .. } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![2, 3]);
    }

    #[test]
    fn zero_capacity_stays_empty_and_counts_drops() {
        // Regression: `len() == capacity` checked before push meant a
        // capacity-0 trace grew unbounded after the first record.
        let t = Trace::with_capacity(0);
        for i in 0..100 {
            t.record(SimTime(i), ev(i));
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 100);
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = Trace::disabled();
        let b = a.clone();
        a.enable(8);
        assert!(b.enabled());
        b.set_thread(3);
        b.record(SimTime(5), ev(9));
        assert_eq!(a.len(), 1);
        assert_eq!(a.snapshot()[0].tid, 3);
    }

    #[test]
    fn display_formats_typed_events() {
        let e = TraceEvent {
            at: SimTime(42),
            tid: 3,
            kind: TraceEventKind::MigrationCopy {
                page: 7,
                from: 0,
                to: 1,
                dur_ns: 1024,
            },
        };
        let s = e.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("t3"));
        assert!(s.contains("migration_copy"));
        assert!(s.contains("\"page\":7"));
    }

    #[test]
    fn component_totals_sums_spans() {
        let t = Trace::with_capacity(16);
        t.record(
            SimTime(0),
            TraceEventKind::Span {
                component: CostComponent::FaultCopy,
                dur_ns: 80,
            },
        );
        t.record(
            SimTime(1),
            TraceEventKind::Span {
                component: CostComponent::FaultCopy,
                dur_ns: 20,
            },
        );
        t.record(SimTime(2), ev(1)); // non-span events are ignored
        let b = t.component_totals();
        assert_eq!(b.get(CostComponent::FaultCopy), 100);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_tracks() {
        let t = Trace::with_capacity(16);
        t.set_thread(0);
        t.record(SimTime(1000), ev(1));
        t.set_thread(1);
        t.record(SimTime(2000), TraceEventKind::Barrier { id: 0 });
        let text = t.chrome_trace_json();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 2 metadata + 2 events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        let fault = &events[2];
        assert_eq!(fault.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(fault.get("ts").and_then(Json::as_f64), Some(1.0));
        let barrier = &events[3];
        assert_eq!(barrier.get("ph").and_then(Json::as_str), Some("i"));
    }
}
