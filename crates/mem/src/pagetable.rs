//! Virtual addressing: page tables and permissions.

use std::collections::HashMap;
use std::fmt;

use tg_wire::{PAGE_BYTES, PAGE_SHIFT, WORD_BYTES};

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

/// One process's page table. The model runs one parallel process per
/// workstation, so node and address space coincide.
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    entries: HashMap<u64, Pte>,
}

impl PageTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        PageTable {
            entries: HashMap::new(),
        }
    }

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
        self.entries.insert(vpage, Pte { base, flags });
    }

    /// Removes a mapping (page invalidation); returns the old entry.
    pub fn unmap(&mut self, vpage: u64) -> Option<Pte> {
        self.entries.remove(&vpage)
    }

    /// Looks up a virtual page.
    pub(crate) fn lookup(&self, vpage: u64) -> Option<Pte> {
        self.entries.get(&vpage).copied()
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
#[derive(Clone, Debug, Default)]
pub struct Mmu {
    table: PageTable,
}

impl Mmu {
    /// An MMU with an empty page table.
    pub fn new() -> Self {
        Mmu {
            table: PageTable::new(),
        }
    }

    /// Mutable access to the page table (OS mapping operations).
    pub fn table_mut(&mut self) -> &mut PageTable {
        &mut self.table
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

    fn mmu_with(vpage: u64, base: PAddr, flags: PageFlags) -> Mmu {
        let mut mmu = Mmu::new();
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
        let mmu = Mmu::new();
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
