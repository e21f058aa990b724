//! Heterogeneous memory tiering for the simulated machine.
//!
//! A tiered machine (see `numa_topology::presets::tiered_4p2`) pairs fast
//! DRAM nodes with large, slow CXL-class nodes. This crate adds the two
//! background daemons on top of the kernel mechanisms in
//! `numa_kernel::tier`. Each is one stateless wake-up function that reads
//! the machine and returns the `Op::TierMigrate` batches to run:
//!
//! * [`tier_wake`] — the kpromoted-style promoter: pages in the slow tier
//!   whose decayed heat reaches a threshold move up to DRAM through the
//!   transactional (Nomad-style non-exclusive copy with write-generation
//!   recheck) mechanism, after cold DRAM pages move down to make room;
//! * [`reclaim_wake`] — the kswapd-style demoter (`kreclaimd`) that moves
//!   the coldest pages off DRAM nodes sitting at or below their low
//!   watermark, the background half of the memory-pressure subsystem.
//!
//! The daemons have no host thread: a caller runs the returned ops as a
//! scripted thread or from a `WorkPlan::single_ctx` phase, so wake-ups
//! interleave deterministically with application phases and their
//! migration traffic contends through the same interconnect and lock
//! models. Everything is deterministic: pages are captured in vpn order,
//! the heat map is a `BTreeMap`, and destination ties break by node id.

mod daemon;
mod policy;
mod reclaim;

pub use daemon::tier_wake;
pub use reclaim::reclaim_wake;
