//! Shared-segment address geometry.
//!
//! Every node exports one *shared segment*: the memory that other nodes may
//! access remotely (Telegraphos I keeps it in SRAM on the HIB board;
//! Telegraphos II carves it out of main memory — a configuration choice, not
//! an addressing one). Wire messages address shared data as a byte offset
//! into the home node's segment; pages are 8 KB as on the DEC Alpha
//! workstations the prototype plugged into.

use std::fmt;

/// Bytes per machine word (Alpha: 64-bit).
pub const WORD_BYTES: u64 = 8;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 13;
/// Bytes per page (8 KB).
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;
/// Words per page.
pub const PAGE_WORDS: u64 = PAGE_BYTES / WORD_BYTES;

/// A byte offset into a node's exported shared segment.
///
/// Offsets are word-aligned whenever they address data; alignment is
/// enforced at the MMU in `tg-mem`, not here.
///
/// # Example
///
/// ```
/// use tg_wire::{GOffset, PageNum, PAGE_BYTES};
/// let off = GOffset::new(PAGE_BYTES * 2 + 24);
/// assert_eq!(off.page(), PageNum::new(2));
/// assert_eq!(off.in_page(), 24);
/// assert_eq!(off.word_index(), PAGE_BYTES / 8 * 2 + 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GOffset(u64);

impl GOffset {
    /// Creates an offset from a raw byte count.
    pub const fn new(bytes: u64) -> Self {
        GOffset(bytes)
    }

    /// Builds the offset of byte `in_page` within `page`.
    pub const fn from_page(page: PageNum, in_page: u64) -> Self {
        GOffset((page.0 as u64) * PAGE_BYTES + in_page)
    }

    /// Raw byte offset.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// The page this offset falls in.
    pub const fn page(self) -> PageNum {
        PageNum((self.0 >> PAGE_SHIFT) as u32)
    }

    /// Byte offset within its page.
    pub const fn in_page(self) -> u64 {
        self.0 & (PAGE_BYTES - 1)
    }

    /// Word index from the start of the segment (offset / 8).
    pub const fn word_index(self) -> u64 {
        self.0 / WORD_BYTES
    }

    /// True if word-aligned.
    pub const fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// This offset advanced by `bytes`.
    pub const fn add(self, bytes: u64) -> Self {
        GOffset(self.0 + bytes)
    }
}

impl fmt::Display for GOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{:#x}", self.0)
    }
}

/// A page number within a node's shared segment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PageNum(u32);

impl PageNum {
    /// Creates a page number.
    pub const fn new(n: u32) -> Self {
        PageNum(n)
    }

    /// Raw page index.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Byte offset of the start of this page.
    pub const fn base(self) -> GOffset {
        GOffset((self.0 as u64) << PAGE_SHIFT)
    }
}

impl fmt::Display for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_consistent() {
        assert_eq!(PAGE_BYTES, 8192);
        assert_eq!(PAGE_WORDS, 1024);
        assert_eq!(PAGE_BYTES % WORD_BYTES, 0);
    }

    #[test]
    fn page_decomposition() {
        let off = GOffset::new(3 * PAGE_BYTES + 16);
        assert_eq!(off.page(), PageNum::new(3));
        assert_eq!(off.in_page(), 16);
        assert_eq!(GOffset::from_page(PageNum::new(3), 16), off);
    }

    #[test]
    fn word_index_and_alignment() {
        assert_eq!(GOffset::new(0).word_index(), 0);
        assert_eq!(GOffset::new(8).word_index(), 1);
        assert!(GOffset::new(8).is_word_aligned());
        assert!(!GOffset::new(4).is_word_aligned());
    }

    #[test]
    fn page_base_round_trips() {
        let p = PageNum::new(7);
        assert_eq!(p.base().page(), p);
        assert_eq!(p.base().in_page(), 0);
    }

    #[test]
    fn add_advances() {
        let off = GOffset::new(100).add(28);
        assert_eq!(off.bytes(), 128);
    }
}
