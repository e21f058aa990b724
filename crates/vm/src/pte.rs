//! Page-table entries and their flag bits.
//!
//! The kernel next-touch design (paper §3.3, Figure 2) works entirely at
//! this level: `madvise` clears the access bits and sets a dedicated
//! next-touch flag in the PTE; the fault handler recognises the flag,
//! migrates the page, and restores the protection.

use crate::FrameId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};

/// PTE flag bits.
///
/// A hand-rolled bitflag newtype (the workspace deliberately carries no
/// `bitflags` dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PteFlags(pub u8);

impl PteFlags {
    /// No flags.
    pub const EMPTY: PteFlags = PteFlags(0);
    /// The translation is valid and usable by the MMU.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Reads permitted.
    pub const READ: PteFlags = PteFlags(1 << 1);
    /// Writes permitted.
    pub const WRITE: PteFlags = PteFlags(1 << 2);
    /// Migrate-on-next-touch: our new flag (paper §3.3). The page keeps its
    /// frame but the access bits are cleared so the next touch faults.
    pub const NEXT_TOUCH: PteFlags = PteFlags(1 << 3);
    /// Head of a huge-page mapping (extension).
    pub const HUGE: PteFlags = PteFlags(1 << 4);
    /// This PTE points at a node-local replica of a read-only page
    /// (replication extension, paper §6 future work).
    pub const REPLICA: PteFlags = PteFlags(1 << 5);

    /// Does `self` contain every bit of `other`?
    pub fn contains(self, other: PteFlags) -> bool {
        (self.0 & other.0) == other.0
    }

    /// Any bit in common?
    pub fn intersects(self, other: PteFlags) -> bool {
        (self.0 & other.0) != 0
    }

    /// Is this the empty flag set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for PteFlags {
    fn bitor_assign(&mut self, rhs: PteFlags) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for PteFlags {
    type Output = PteFlags;
    fn bitand(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 & rhs.0)
    }
}

impl Not for PteFlags {
    type Output = PteFlags;
    fn not(self) -> PteFlags {
        PteFlags(!self.0)
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (bit, name) in [
            (PteFlags::PRESENT, "P"),
            (PteFlags::READ, "R"),
            (PteFlags::WRITE, "W"),
            (PteFlags::NEXT_TOUCH, "NT"),
            (PteFlags::HUGE, "H"),
            (PteFlags::REPLICA, "Repl"),
        ] {
            if self.contains(bit) {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pte {
    /// The physical frame backing this page.
    pub frame: FrameId,
    /// In-progress tier-migration destination frame: while it is set, a
    /// transactional tier migration is in flight and the page exists
    /// non-exclusively in both tiers until the migration commits or
    /// aborts. The mapping stays fully usable — that is the point of the
    /// transactional scheme (Nomad, OSDI'23). Accesses are still served
    /// from `frame`; a commit flips `frame` to the shadow, an abort
    /// discards it. The flags never record a shadow.
    pub shadow: Option<FrameId>,
    /// Flag bits.
    pub flags: PteFlags,
}

impl Pte {
    /// A present, readable and writable mapping to `frame`.
    pub fn present_rw(frame: FrameId) -> Self {
        Pte {
            frame,
            shadow: None,
            flags: PteFlags::PRESENT | PteFlags::READ | PteFlags::WRITE,
        }
    }

    /// Can the MMU satisfy an access of the given kind without faulting?
    pub fn permits(&self, write: bool) -> bool {
        if !self.flags.contains(PteFlags::PRESENT) {
            return false;
        }
        if write {
            self.flags.contains(PteFlags::WRITE)
        } else {
            self.flags.contains(PteFlags::READ)
        }
    }

    /// Mark for migrate-on-next-touch: clear the access bits so the next
    /// touch faults, remember the intent in the NT flag (paper Fig. 2:
    /// "change PTE protection; set next-touch flag").
    pub fn mark_next_touch(&mut self) {
        self.flags = (self.flags & !(PteFlags::READ | PteFlags::WRITE)) | PteFlags::NEXT_TOUCH;
    }

    /// Clear the next-touch flag and restore full access (paper Fig. 2:
    /// "restore PTE protection; remove next-touch flag").
    pub fn clear_next_touch(&mut self) {
        self.flags = (self.flags & !PteFlags::NEXT_TOUCH)
            | PteFlags::READ
            | PteFlags::WRITE
            | PteFlags::PRESENT;
    }

    /// Is the migrate-on-next-touch flag set?
    pub fn is_next_touch(&self) -> bool {
        self.flags.contains(PteFlags::NEXT_TOUCH)
    }

    /// Attach an in-progress tier-migration copy. The mapping stays live;
    /// the page is now non-exclusive across both frames.
    pub fn set_shadow(&mut self, dst: FrameId) {
        self.shadow = Some(dst);
    }

    /// Commit the transactional migration: the shadow becomes the mapped
    /// frame. Returns the old (source) frame for the caller to free.
    /// Panics if no shadow is attached — a kernel-layer bug.
    pub fn commit_shadow(&mut self) -> FrameId {
        let dst = self.shadow.take().expect("commit without shadow copy");
        let src = self.frame;
        self.frame = dst;
        src
    }

    /// Abort the transactional migration: the mapping is untouched.
    /// Returns the discarded shadow frame for the caller to free.
    pub fn abort_shadow(&mut self) -> FrameId {
        self.shadow.take().expect("abort without shadow copy")
    }

    /// Is a transactional tier migration in flight on this page?
    pub fn has_shadow(&self) -> bool {
        self.shadow.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_ops() {
        let f = PteFlags::PRESENT | PteFlags::READ;
        assert!(f.contains(PteFlags::PRESENT));
        assert!(f.contains(PteFlags::READ));
        assert!(!f.contains(PteFlags::WRITE));
        assert!(f.intersects(PteFlags::READ | PteFlags::WRITE));
        assert!(!f.intersects(PteFlags::WRITE));
        assert!(PteFlags::EMPTY.is_empty());
    }

    #[test]
    fn permits_checks_present_and_rw() {
        let mut pte = Pte::present_rw(FrameId(1));
        assert!(pte.permits(false));
        assert!(pte.permits(true));
        pte.flags = PteFlags::PRESENT | PteFlags::READ;
        assert!(pte.permits(false));
        assert!(!pte.permits(true));
        pte.flags = PteFlags::READ | PteFlags::WRITE; // not present
        assert!(!pte.permits(false));
    }

    #[test]
    fn next_touch_cycle() {
        let mut pte = Pte::present_rw(FrameId(7));
        pte.mark_next_touch();
        assert!(pte.is_next_touch());
        assert!(!pte.permits(false), "marked page must fault on read");
        assert!(!pte.permits(true), "marked page must fault on write");
        // Frame is retained while marked — the data is still there.
        assert_eq!(pte.frame, FrameId(7));
        pte.clear_next_touch();
        assert!(!pte.is_next_touch());
        assert!(pte.permits(true));
    }

    #[test]
    fn shadow_commit_and_abort() {
        let mut pte = Pte::present_rw(FrameId(1));
        let flags = pte.flags;
        pte.set_shadow(FrameId(9));
        assert!(pte.has_shadow());
        assert_eq!(pte.flags, flags, "a shadow never edits the flags");
        // The mapping stays fully usable while the copy is in flight.
        assert!(pte.permits(true));
        assert_eq!(pte.frame, FrameId(1));
        let old = pte.commit_shadow();
        assert_eq!(old, FrameId(1));
        assert_eq!(pte.frame, FrameId(9));
        assert!(!pte.has_shadow());
        assert!(pte.permits(true), "commit must not drop access bits");

        let mut pte = Pte::present_rw(FrameId(2));
        pte.set_shadow(FrameId(8));
        let discarded = pte.abort_shadow();
        assert_eq!(discarded, FrameId(8));
        assert_eq!(pte.frame, FrameId(2), "abort leaves the mapping untouched");
        assert!(!pte.has_shadow());
    }

    #[test]
    fn display_flags() {
        let pte = Pte::present_rw(FrameId(0));
        assert_eq!(pte.flags.to_string(), "P|R|W");
        assert_eq!(PteFlags::EMPTY.to_string(), "-");
        let mut marked = pte;
        marked.mark_next_touch();
        assert!(marked.flags.to_string().contains("NT"));
    }
}
