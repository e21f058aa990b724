//! Simulated virtual memory.
//!
//! This crate models the slice of the Linux memory-management subsystem that
//! the paper's mechanisms live in: virtual address spaces made of VMAs,
//! software page tables whose PTEs carry protection and the new
//! *migrate-on-next-touch* flag (paper §3.3), per-NUMA-node physical frame
//! allocators, NUMA memory policies (first-touch / bind / interleave /
//! preferred), and a TLB-shootdown cost hook.
//!
//! The crate is purely *mechanism*: it holds state and enforces invariants
//! (no double-mapped frames, VMA ranges never overlap, page-table entries
//! only reference live frames). All *timing* lives in `numa-kernel`, which
//! manipulates these structures while charging virtual time.

pub mod addr;
pub mod frame;
pub mod page_table;
pub mod policy;
pub mod pte;
pub mod ptplace;
pub mod space;
pub mod tlb;
pub mod vma;

pub use addr::{PageRange, VirtAddr};
pub use frame::{Frame, FrameAllocator, FrameId, FrameLedger, PressureLevel, FRAME_CHUNK};
pub use numa_stats::PtStats;
pub use page_table::{PageTable, PteRefMut};
pub use policy::MemPolicy;
pub use pte::{Pte, PteFlags};
pub use ptplace::{PtPlacement, PtReplicaSet, PtSyncMode};
pub use space::{AddressSpace, VmError};
pub use tlb::Tlb;
pub use vma::{Protection, Vma, VmaKind};

/// Base page size used throughout the simulation (4 kB, as on the paper's
/// machine). The cost model carries its own copy; they are asserted equal
/// when a machine is assembled.
pub const PAGE_SIZE: u64 = 4096;

/// Huge page size for the migration extension (2 MB).
pub const HUGE_PAGE_SIZE: u64 = 2 << 20;

/// Pages per huge page.
pub const PAGES_PER_HUGE: u64 = HUGE_PAGE_SIZE / PAGE_SIZE;
