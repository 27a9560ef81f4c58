//! Virtual addressing: the cluster's address map, per-node page tables
//! and permissions.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use tg_wire::{IntMap, NodeId, PageNum, PAGE_BYTES, PAGE_SHIFT, WORD_BYTES};

use crate::paddr::PAddr;

/// A virtual address as issued by the simulated processor.
///
/// # Example
///
/// ```
/// use tg_mem::VAddr;
/// let va = VAddr::new(0x4000_0010);
/// assert_eq!(va.vpage(), 0x4000_0000 / 8192);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VAddr(u64);

impl VAddr {
    /// Creates a virtual address.
    pub const fn new(bits: u64) -> Self {
        VAddr(bits)
    }

    /// Raw bits.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The virtual page number.
    pub const fn vpage(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Byte offset within the page.
    pub(crate) const fn in_page(self) -> u64 {
        self.0 & (PAGE_BYTES - 1)
    }

    /// True if word-aligned.
    pub(crate) const fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// Page permissions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageFlags {
    /// Loads allowed.
    pub(crate) read: bool,
    /// Stores allowed.
    pub(crate) write: bool,
}

impl PageFlags {
    /// Read-only mapping.
    pub const RO: PageFlags = PageFlags {
        read: true,
        write: false,
    };
    /// Read-write mapping.
    pub const RW: PageFlags = PageFlags {
        read: true,
        write: true,
    };

    /// Does this permission set allow `kind`?
    pub(crate) fn allows(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
        }
    }
}

/// Load or store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// A page-table entry: the physical page base plus permissions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pte {
    /// Page-aligned physical base address.
    pub(crate) base: PAddr,
    /// Permissions.
    pub(crate) flags: PageFlags,
}

/// Translation faults (delivered to the simulated OS).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// No mapping for the page.
    Unmapped(VAddr),
    /// Mapping exists but forbids the access.
    Protection(VAddr, AccessKind),
    /// The address is not word-aligned (the HIB transfers whole words).
    Misaligned(VAddr),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unmapped(va) => write!(f, "page fault: {va} unmapped"),
            Fault::Protection(va, k) => write!(f, "protection fault: {k} of {va}"),
            Fault::Misaligned(va) => write!(f, "alignment fault at {va}"),
        }
    }
}

impl std::error::Error for Fault {}

/// The cluster-wide part of every node's address map. Every workstation
/// sees cluster memory the same way, so the map from a virtual page to
/// its physical page is one cluster-wide rule plus per-node exceptions
/// ([`PageTable`]); this holds the rule:
///
/// * **the private rule** — vpage `private.start + p` translates to private
///   offset `p · PAGE_BYTES`, read-write, with no entry stored;
/// * **the shared window** — an append-only table, indexed by shared page,
///   of `(home, frame)`. Shared page `i` sits at vpage `base + i`; a node
///   translates it to [`PAddr::local_shared`] at the home and to
///   [`PAddr::remote`] elsewhere, read-write.
///
/// Every node's [`Mmu`] holds it through an [`Rc`]; only the cluster
/// appends to it.
#[derive(Debug)]
pub struct SharedWindow {
    private: Range<u64>,
    base: u64,
    pages: RefCell<Vec<(NodeId, PageNum)>>,
}

impl SharedWindow {
    /// An empty window at vpage `base`, over a private heap at vpages
    /// `private`.
    ///
    /// # Panics
    ///
    /// Panics if the private heap reaches into the window.
    pub fn new(private: Range<u64>, base: u64) -> Self {
        assert!(private.end <= base, "private heap overlaps the window");
        SharedWindow {
            private,
            base,
            pages: RefCell::new(Vec::new()),
        }
    }

    /// Appends shared page `(home, frame)`; returns its index.
    pub fn push(&self, home: NodeId, frame: PageNum) -> u64 {
        let mut pages = self.pages.borrow_mut();
        pages.push((home, frame));
        pages.len() as u64 - 1
    }

    /// Shared pages in the window.
    pub fn len(&self) -> usize {
        self.pages.borrow().len()
    }

    /// True before the first [`SharedWindow::push`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What `me` sees at `vpage` by the rule: the private heap, then the
    /// window.
    fn lookup(&self, me: NodeId, vpage: u64) -> Option<Pte> {
        let base = if self.private.contains(&vpage) {
            PAddr::private((vpage - self.private.start) * PAGE_BYTES)
        } else {
            let &(home, frame) = self
                .pages
                .borrow()
                .get(vpage.checked_sub(self.base)? as usize)?;
            if home == me {
                PAddr::local_shared(frame.base())
            } else {
                PAddr::remote(home, frame.base())
            }
        };
        Some(Pte {
            base,
            flags: PageFlags::RW,
        })
    }

    /// True if the window page at `vpage` was appended after the window
    /// held `len` pages.
    fn appended_since(&self, vpage: u64, len: u64) -> bool {
        vpage >= self.base + len && vpage < self.base + self.len() as u64
    }
}

/// A per-node exception to the cluster-wide rule.
#[derive(Clone, Copy, Debug)]
struct Exception {
    /// The node's own mapping, or `None` for a tombstone: an unmap of a
    /// page the rule covers.
    pte: Option<Pte>,
    /// [`SharedWindow::len`] when written. A window page appended later
    /// replaces the exception, as a later map replaces an earlier one.
    window_len: u64,
}

/// One process's page table. The model runs one parallel process per
/// workstation, so node and address space coincide.
///
/// The table stores only what differs on this node from the cluster's
/// [`SharedWindow`]: the remaps of coherent and eager pages, the unmaps of
/// VSM pages, and the OS's own maps and unmaps. A lookup tries the
/// exception (a mapping or a tombstone), then the private rule, then the
/// window. The answer equals that of a flat table that had every private
/// page mapped at build and every window page mapped on append: exceptions
/// are the maps and unmaps made since, in order. Over an empty window the
/// table maps exactly what it is told.
#[derive(Clone, Debug)]
pub struct PageTable {
    exceptions: IntMap<u64, Exception>,
    /// This node's id in the cluster's rule.
    me: NodeId,
    window: Rc<SharedWindow>,
}

impl PageTable {
    /// Maps virtual page `vpage` to the physical page starting at `base`.
    /// Remapping an existing page replaces it (used when the OS replicates
    /// a remote page locally).
    ///
    /// # Panics
    ///
    /// Panics if `base`'s offset is not page-aligned.
    pub fn map(&mut self, vpage: u64, base: PAddr, flags: PageFlags) {
        assert_eq!(
            base.bits() & (PAGE_BYTES - 1),
            0,
            "physical base must be page-aligned"
        );
        self.set(vpage, Some(Pte { base, flags }));
    }

    /// Removes a mapping (page invalidation); returns the old entry.
    pub fn unmap(&mut self, vpage: u64) -> Option<Pte> {
        let old = self.lookup(vpage);
        self.exceptions.remove(&vpage);
        if self.lookup(vpage).is_some() {
            // The rule covers the page: remember that it is gone here.
            self.set(vpage, None);
        }
        old
    }

    fn set(&mut self, vpage: u64, pte: Option<Pte>) {
        let window_len = self.window.len() as u64;
        self.exceptions.insert(vpage, Exception { pte, window_len });
    }

    /// Looks up a virtual page. (`get` on an empty map returns before it
    /// hashes, so a node with no exceptions pays no hash.)
    pub(crate) fn lookup(&self, vpage: u64) -> Option<Pte> {
        match self.exceptions.get(&vpage) {
            Some(e) if !self.window.appended_since(vpage, e.window_len) => e.pte,
            _ => self.window.lookup(self.me, vpage),
        }
    }
}

/// The translation unit in front of the simulated processor.
///
/// There are no shadow *virtual* addresses. A Telegraphos II launch
/// translates each argument like an ordinary access of the kind the
/// operation performs on it, and then stores to the shadow twin of the
/// resulting physical address ([`PAddr::shadow`]), which the HIB reads as
/// "here is a physical argument for a special operation". An atomic's
/// target and a copy's destination therefore need write permission, and a
/// copy's source only read permission: a copy *from* a read-only page is
/// accepted, where §2.2.4's TLB check (a shadow access is a store) would
/// refuse it.
#[derive(Clone, Debug)]
pub struct Mmu {
    table: PageTable,
}

impl Mmu {
    /// Node `me`'s MMU in a cluster whose rule is `window`: the private
    /// heap and every window page are mapped from the start, with no
    /// entry of this node's own.
    pub fn with_window(me: NodeId, window: Rc<SharedWindow>) -> Self {
        Mmu {
            table: PageTable {
                exceptions: IntMap::default(),
                me,
                window,
            },
        }
    }

    /// Mutable access to the page table (OS mapping operations).
    pub fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
    }

    /// Entries this node stores of its own: mappings and tombstones that
    /// differ from the cluster's rule.
    pub fn exceptions(&self) -> usize {
        self.table.exceptions.len()
    }

    /// The window vpage of another node's shared page `(home, frame)`:
    /// where this node reaches it remotely by the rule.
    pub fn remote_vpage(&self, home: NodeId, frame: PageNum) -> Option<u64> {
        let window = &self.table.window;
        if home == self.table.me {
            return None;
        }
        let pages = window.pages.borrow();
        let index = pages.iter().position(|&page| page == (home, frame))?;
        Some(window.base + index as u64)
    }

    /// Translates `va` for an access of kind `kind`.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] the real hardware would raise: misalignment,
    /// missing mapping, or a permission violation.
    pub fn translate(&self, va: VAddr, kind: AccessKind) -> Result<PAddr, Fault> {
        if !va.is_word_aligned() {
            return Err(Fault::Misaligned(va));
        }
        let pte = self.table.lookup(va.vpage()).ok_or(Fault::Unmapped(va))?;
        if !pte.flags.allows(kind) {
            return Err(Fault::Protection(va, kind));
        }
        Ok(pte.base.add(va.in_page()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paddr::Decoded;
    use tg_wire::{GOffset, NodeId};

    /// An MMU over an empty window: it maps exactly what it is told.
    fn bare_mmu() -> Mmu {
        Mmu::with_window(NodeId::new(0), Rc::new(SharedWindow::new(0..0, 0)))
    }

    fn mmu_with(vpage: u64, base: PAddr, flags: PageFlags) -> Mmu {
        let mut mmu = bare_mmu();
        mmu.table_mut().map(vpage, base, flags);
        mmu
    }

    #[test]
    fn translate_private_page() {
        let mmu = mmu_with(4, PAddr::private(3 * PAGE_BYTES), PageFlags::RW);
        let va = VAddr::new(4 * PAGE_BYTES + 0x20);
        let pa = mmu.translate(va, AccessKind::Read).unwrap();
        assert_eq!(
            pa.decode(),
            Decoded::Private {
                off: 3 * PAGE_BYTES + 0x20
            }
        );
    }

    #[test]
    fn translate_remote_window() {
        let base = PAddr::remote(NodeId::new(2), GOffset::new(PAGE_BYTES));
        let mmu = mmu_with(10, base, PageFlags::RW);
        let pa = mmu
            .translate(VAddr::new(10 * PAGE_BYTES + 8), AccessKind::Write)
            .unwrap();
        assert_eq!(
            pa.decode(),
            Decoded::Remote {
                node: NodeId::new(2),
                off: GOffset::new(PAGE_BYTES + 8)
            }
        );
    }

    #[test]
    fn unmapped_faults() {
        let mmu = bare_mmu();
        let va = VAddr::new(0x8000);
        assert_eq!(
            mmu.translate(va, AccessKind::Read),
            Err(Fault::Unmapped(va))
        );
    }

    #[test]
    fn protection_enforced() {
        let mmu = mmu_with(1, PAddr::private(0), PageFlags::RO);
        let va = VAddr::new(PAGE_BYTES);
        assert!(mmu.translate(va, AccessKind::Read).is_ok());
        assert_eq!(
            mmu.translate(va, AccessKind::Write),
            Err(Fault::Protection(va, AccessKind::Write))
        );
    }

    #[test]
    fn misaligned_faults() {
        let mmu = mmu_with(1, PAddr::private(0), PageFlags::RW);
        let va = VAddr::new(PAGE_BYTES + 1);
        assert_eq!(
            mmu.translate(va, AccessKind::Read),
            Err(Fault::Misaligned(va))
        );
    }

    #[test]
    fn remap_replaces() {
        let mut mmu = mmu_with(
            3,
            PAddr::remote(NodeId::new(5), GOffset::new(0)),
            PageFlags::RW,
        );
        // OS replicates the page locally: same vpage now points at local
        // shared memory.
        mmu.table_mut()
            .map(3, PAddr::local_shared(GOffset::new(0)), PageFlags::RW);
        let pa = mmu
            .translate(VAddr::new(3 * PAGE_BYTES), AccessKind::Read)
            .unwrap();
        assert_eq!(
            pa.decode(),
            Decoded::LocalShared {
                off: GOffset::new(0)
            }
        );
    }

    #[test]
    fn unmap_then_fault() {
        let mut mmu = mmu_with(3, PAddr::private(0), PageFlags::RW);
        assert!(mmu.table_mut().unmap(3).is_some());
        assert!(mmu.table_mut().unmap(3).is_none());
        let va = VAddr::new(3 * PAGE_BYTES);
        assert_eq!(
            mmu.translate(va, AccessKind::Read),
            Err(Fault::Unmapped(va))
        );
    }
}
