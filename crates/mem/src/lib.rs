//! # tg-mem — the workstation memory system
//!
//! Models what the Telegraphos HIB sees on the host side: a per-node
//! physical address space in which remote shared pages appear as I/O-bus
//! windows ("the highest order bits of each physical address denote the
//! node identification", §2.2.1), local shared pages live in the HIB's
//! memory (Telegraphos I) or a carve-out of main memory (Telegraphos II),
//! and every address has a *shadow* twin differing only in the top bit —
//! the Telegraphos II mechanism for passing physical addresses to the HIB
//! from user level (§2.2.4).
//!
//! The crate provides:
//! * [`PAddr`] — the physical address encoding and its decoder;
//! * [`PhysMem`] — a sparse word-addressed physical memory;
//! * [`SharedWindow`]/[`PageTable`]/[`Mmu`] — virtual-to-physical
//!   translation with permissions and page faults: one cluster-wide rule
//!   (the private heap and the shared page window) plus each node's
//!   exceptions (a launch marks the translated physical argument as
//!   shadow itself).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod paddr;
mod pagetable;
mod phys;

pub use paddr::{Decoded, PAddr};
pub use pagetable::{AccessKind, Fault, Mmu, PageFlags, PageTable, Pte, SharedWindow, VAddr};
pub use phys::PhysMem;
