//! Deterministic discrete-event simulation primitives.
//!
//! The `numa-machine` crate drives simulated threads through virtual time;
//! this crate provides the building blocks it needs:
//!
//! * [`SimTime`] — virtual nanoseconds;
//! * [`Resource`] — a contended serial resource (interconnect link, memory
//!   controller, kernel lock) with busy-until semantics and wait accounting;
//! * [`TournamentTree`] — the time-ordered run queue, one slot per
//!   thread, with deterministic FIFO tie-breaking;
//! * [`BarrierState`] — OpenMP-style barrier bookkeeping;
//! * [`Splitmix64`] — a tiny deterministic PRNG so simulations never depend
//!   on ambient randomness;
//! * [`trace`] — an optional event trace for debugging runs.
//!
//! Everything here is single-threaded on purpose: determinism is a
//! correctness requirement for regenerating the paper's tables
//! (DESIGN.md §7).

pub mod barrier;
pub mod faultinject;
pub mod hash;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod time;
pub mod trace;
pub mod window;

pub use barrier::{BarrierOutcome, BarrierState};
pub use faultinject::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultSite, FAULT_SITES};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use queue::TournamentTree;
pub use resource::{Acquisition, Resource};
pub use rng::Splitmix64;
pub use time::SimTime;
pub use trace::{Trace, TraceEvent, TraceEventKind, SYSTEM_TID};
pub use window::{merge_streams, WindowClock, WINDOW_LOOKAHEAD_MULTIPLE};
