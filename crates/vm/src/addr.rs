//! Virtual addresses and page ranges.

use crate::PAGE_SIZE;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A virtual address within the simulated process.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The raw address value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Virtual page number containing this address.
    pub fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Offset within the page.
    pub fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Is this address page-aligned?
    pub fn is_page_aligned(self) -> bool {
        self.page_offset() == 0
    }

    /// The first address of virtual page `vpn`.
    pub fn from_vpn(vpn: u64) -> VirtAddr {
        VirtAddr(vpn * PAGE_SIZE)
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A half-open range of virtual pages `[start_vpn, end_vpn)`.
///
/// Almost every kernel operation in the paper — `move_pages`, `madvise`,
/// `mprotect` — works on page granularity, so ranges are stored as page
/// numbers rather than byte addresses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PageRange {
    /// First page in the range.
    pub start_vpn: u64,
    /// One past the last page in the range.
    pub end_vpn: u64,
}

impl PageRange {
    /// Range covering `[start_vpn, end_vpn)`. `end_vpn >= start_vpn`.
    pub fn new(start_vpn: u64, end_vpn: u64) -> Self {
        assert!(end_vpn >= start_vpn, "inverted page range");
        PageRange { start_vpn, end_vpn }
    }

    /// The pages spanned by `[addr, addr+len)` (len 0 gives an empty range).
    pub fn covering(addr: VirtAddr, len: u64) -> Self {
        if len == 0 {
            return PageRange::new(addr.vpn(), addr.vpn());
        }
        let start = addr.vpn();
        let end = (addr + (len - 1)).vpn() + 1;
        PageRange::new(start, end)
    }

    /// Number of pages in the range.
    pub fn pages(&self) -> u64 {
        self.end_vpn - self.start_vpn
    }

    /// Number of bytes in the range.
    pub fn bytes(&self) -> u64 {
        self.pages() * PAGE_SIZE
    }

    /// Is the range empty?
    pub fn is_empty(&self) -> bool {
        self.start_vpn == self.end_vpn
    }

    /// Does the range contain page `vpn`?
    pub fn contains(&self, vpn: u64) -> bool {
        (self.start_vpn..self.end_vpn).contains(&vpn)
    }

    /// First address of the range.
    pub fn start_addr(&self) -> VirtAddr {
        VirtAddr::from_vpn(self.start_vpn)
    }

    /// Iterate over the page numbers.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start_vpn..self.end_vpn
    }

    /// Intersection with another range (possibly empty).
    pub fn intersect(&self, other: &PageRange) -> PageRange {
        let start = self.start_vpn.max(other.start_vpn);
        let end = self.end_vpn.min(other.end_vpn).max(start);
        PageRange::new(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_math() {
        let a = VirtAddr(PAGE_SIZE * 3 + 17);
        assert_eq!(a.vpn(), 3);
        assert_eq!(a.page_offset(), 17);
        assert!(!a.is_page_aligned());
    }

    #[test]
    fn covering_exact_and_partial() {
        // Exactly one page.
        let r = PageRange::covering(VirtAddr(0), PAGE_SIZE);
        assert_eq!((r.start_vpn, r.end_vpn), (0, 1));
        // One byte into the next page.
        let r = PageRange::covering(VirtAddr(0), PAGE_SIZE + 1);
        assert_eq!((r.start_vpn, r.end_vpn), (0, 2));
        // Unaligned start.
        let r = PageRange::covering(VirtAddr(PAGE_SIZE - 1), 2);
        assert_eq!((r.start_vpn, r.end_vpn), (0, 2));
        // Empty.
        let r = PageRange::covering(VirtAddr(123), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn range_accessors() {
        let r = PageRange::new(10, 14);
        assert_eq!(r.pages(), 4);
        assert_eq!(r.bytes(), 4 * PAGE_SIZE);
        assert!(r.contains(10) && r.contains(13));
        assert!(!r.contains(14));
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
        assert_eq!(r.start_addr(), VirtAddr(10 * PAGE_SIZE));
    }

    #[test]
    fn intersect() {
        let a = PageRange::new(0, 10);
        let b = PageRange::new(5, 15);
        assert_eq!(a.intersect(&b), PageRange::new(5, 10));
        let c = PageRange::new(20, 30);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        PageRange::new(5, 4);
    }
}
