//! # tg-hw — the HIB hardware-cost model (Table 1)
//!
//! Table 1 of the paper inventories the Telegraphos I HIB: gate counts of
//! the random logic per block and the SRAM each block needs. Those numbers
//! are configuration-determined — 16 K multicast entries × 32 bits, 64 K
//! countable pages × (16+16)-bit counters, 16 MB of multiprocessor memory —
//! so this crate models them as functions of the configuration and
//! regenerates the table (experiment E1), plus the ablation the paper
//! proposes: the pending-write counter CAM (§2.3.4).
//!
//! # Example
//!
//! ```
//! use tg_hw::{BlockClass, HwConfig};
//! let inv = HwConfig::telegraphos_i().inventory();
//! assert_eq!(inv.gates(BlockClass::Message), 3300);
//! assert_eq!(inv.gates(BlockClass::SharedMemory), 2700);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// Structural parameters that determine the HIB's silicon budget.
#[derive(Clone, Debug, PartialEq)]
pub struct HwConfig {
    /// Multicast (eager-sharing) list entries.
    pub(crate) multicast_entries: u64,
    /// Bits per multicast entry (destination node + page).
    pub(crate) multicast_entry_bits: u64,
    /// Remote pages with access counters.
    pub(crate) counted_pages: u64,
    /// Bits per page for the read+write counter pair.
    pub(crate) counter_bits_per_page: u64,
    /// Multiprocessor memory (the shared segment) in bytes; DRAM, not SRAM.
    pub(crate) mpm_bytes: u64,
    /// Pending-write CAM entries (0 in Telegraphos I as built; §2.3.4
    /// proposes 16–32).
    pub(crate) cam_entries: u64,
    /// Synchronizing FIFO bits on the incoming link (2 + 2 Kbit).
    pub(crate) link_in_fifo_kbits: f64,
    /// FIFO bits on the outgoing link.
    pub(crate) link_out_fifo_kbits: f64,
    /// Central-control scratch SRAM in Kbit.
    pub(crate) central_sram_kbits: f64,
    /// TurboChannel interface register bits.
    pub(crate) tc_register_bits: u64,
}

impl HwConfig {
    /// Telegraphos I as built (reproduces Table 1 exactly).
    pub fn telegraphos_i() -> Self {
        HwConfig {
            multicast_entries: 16 * 1024,
            multicast_entry_bits: 32,
            counted_pages: 64 * 1024,
            counter_bits_per_page: 16 + 16,
            mpm_bytes: 16 << 20,
            cam_entries: 0,
            link_in_fifo_kbits: 2.0,
            link_out_fifo_kbits: 2.0,
            central_sram_kbits: 0.5,
            tc_register_bits: 64,
        }
    }

    /// The §2.3.4 proposal: Telegraphos I plus a pending-write CAM.
    pub fn with_cam(mut self, entries: u64) -> Self {
        self.cam_entries = entries;
        self
    }

    /// Computes the block inventory.
    pub fn inventory(&self) -> Inventory {
        // Random-logic gate counts of the fixed blocks, from Table 1. The
        // message-related blocks do not scale with the table sizes.
        let mut blocks = vec![
            Block::message("Central control", 1000, self.central_sram_kbits),
            Block::message(
                "Turbochannel interface",
                // Table 1: "300 gates + 64 bits of registers" = 550 gates;
                // registers modeled at ~4 gate-equivalents per bit.
                300 + self.tc_register_bits * 250 / 64,
                0.0,
            ),
            Block::message("Incoming link intf.", 1000, self.link_in_fifo_kbits),
            Block::message("Outgoing link intf.", 750, self.link_out_fifo_kbits),
            Block::shared("Atomic operations", 1500, 0.0),
            Block::shared(
                "Multicast (eager sharing)",
                400,
                kbits(self.multicast_entries * self.multicast_entry_bits),
            ),
            Block::shared(
                "Page Access Counters",
                800,
                kbits(self.counted_pages * self.counter_bits_per_page),
            ),
        ];
        if self.cam_entries > 0 {
            // Per-entry: a ~24-bit comparator + an 8-bit counter and
            // control, ≈ 300 gate-equivalents.
            blocks.push(Block::shared(
                "Pending-write CAM",
                self.cam_entries * 300,
                kbits(self.cam_entries * 32),
            ));
        }
        Inventory {
            blocks,
            mpm_bytes: self.mpm_bytes,
        }
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        Self::telegraphos_i()
    }
}

fn kbits(bits: u64) -> f64 {
    bits as f64 / 1024.0
}

/// Which subtotal a block belongs to (Table 1 splits message-passing
/// machinery from shared-memory support).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockClass {
    /// Message-related blocks (would exist in any network interface).
    Message,
    /// Shared-memory-related blocks (the Telegraphos additions).
    SharedMemory,
}

/// One row of Table 1.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Block {
    /// Block name, as printed in the table.
    pub(crate) name: &'static str,
    /// Random-logic gate-equivalents.
    pub(crate) gates: u64,
    /// SRAM in Kbit.
    pub(crate) sram_kbits: f64,
    /// Subtotal class.
    pub(crate) class: BlockClass,
}

impl Block {
    fn message(name: &'static str, gates: u64, sram_kbits: f64) -> Self {
        Block {
            name,
            gates,
            sram_kbits,
            class: BlockClass::Message,
        }
    }
    fn shared(name: &'static str, gates: u64, sram_kbits: f64) -> Self {
        Block {
            name,
            gates,
            sram_kbits,
            class: BlockClass::SharedMemory,
        }
    }
}

/// The computed inventory: all blocks plus the DRAM-backed MPM.
#[derive(Clone, Debug, PartialEq)]
pub struct Inventory {
    /// Table rows, in Table 1 order.
    pub(crate) blocks: Vec<Block>,
    /// Multiprocessor memory (DRAM) in bytes.
    pub(crate) mpm_bytes: u64,
}

impl Inventory {
    /// Gate subtotal for a class.
    pub fn gates(&self, class: BlockClass) -> u64 {
        self.blocks
            .iter()
            .filter(|b| b.class == class)
            .map(|b| b.gates)
            .sum()
    }

    /// SRAM subtotal (Kbit) for a class.
    pub(crate) fn sram_kbits(&self, class: BlockClass) -> f64 {
        self.blocks
            .iter()
            .filter(|b| b.class == class)
            .map(|b| b.sram_kbits)
            .sum()
    }

    /// MPM size in megabits, as the table footnote reports it.
    pub fn mpm_mbits(&self) -> u64 {
        self.mpm_bytes * 8 / (1 << 20)
    }
}

impl fmt::Display for Inventory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<28} {:>8} {:>12}", "Block", "Logic", "SRAM (Kbit)")?;
        for b in &self.blocks {
            writeln!(f, "{:<28} {:>8} {:>12.1}", b.name, b.gates, b.sram_kbits)?;
        }
        writeln!(
            f,
            "{:<28} {:>8} {:>12.1}",
            "Subtotal message related",
            self.gates(BlockClass::Message),
            self.sram_kbits(BlockClass::Message)
        )?;
        writeln!(
            f,
            "{:<28} {:>8} {:>12.1}",
            "Subtotal shared mem. rel.",
            self.gates(BlockClass::SharedMemory),
            self.sram_kbits(BlockClass::SharedMemory)
        )?;
        writeln!(
            f,
            "{:<28} {:>8} {:>10} Mbit DRAM",
            "Multiproc. Mem. (MPM)",
            "-",
            self.mpm_mbits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks a block up by its Table 1 name.
    fn block<'a>(inv: &'a Inventory, name: &str) -> Option<&'a Block> {
        inv.blocks.iter().find(|b| b.name == name)
    }

    fn total_gates(inv: &Inventory) -> u64 {
        inv.blocks.iter().map(|b| b.gates).sum()
    }

    #[test]
    fn reproduces_table1_gate_counts() {
        let inv = HwConfig::telegraphos_i().inventory();
        assert_eq!(block(&inv, "Central control").unwrap().gates, 1000);
        assert_eq!(block(&inv, "Turbochannel interface").unwrap().gates, 550);
        assert_eq!(block(&inv, "Incoming link intf.").unwrap().gates, 1000);
        assert_eq!(block(&inv, "Outgoing link intf.").unwrap().gates, 750);
        assert_eq!(inv.gates(BlockClass::Message), 3300);
        assert_eq!(block(&inv, "Atomic operations").unwrap().gates, 1500);
        assert_eq!(block(&inv, "Multicast (eager sharing)").unwrap().gates, 400);
        assert_eq!(block(&inv, "Page Access Counters").unwrap().gates, 800);
        assert_eq!(inv.gates(BlockClass::SharedMemory), 2700);
    }

    #[test]
    fn reproduces_table1_sram_sizes() {
        let inv = HwConfig::telegraphos_i().inventory();
        assert_eq!(
            block(&inv, "Multicast (eager sharing)").unwrap().sram_kbits,
            512.0,
            "16 K entries x 32 bits"
        );
        assert_eq!(
            block(&inv, "Page Access Counters").unwrap().sram_kbits,
            2048.0,
            "64 K pages x (16+16) bits"
        );
        assert_eq!(inv.sram_kbits(BlockClass::Message), 4.5);
        // The paper prints the shared-memory subtotal rounded to 2500.
        let shared = inv.sram_kbits(BlockClass::SharedMemory);
        assert!((2500.0..=2600.0).contains(&shared), "subtotal {shared}");
        assert_eq!(inv.mpm_mbits(), 128);
    }

    #[test]
    fn cam_adds_modest_logic() {
        let base = HwConfig::telegraphos_i().inventory();
        let with = HwConfig::telegraphos_i().with_cam(16).inventory();
        let extra = total_gates(&with) - total_gates(&base);
        // §2.3.4: "Its size can be relatively small" — a 16-entry CAM costs
        // on the order of the atomic unit, not of the directories.
        assert!(extra > 0);
        assert!(extra <= 5_000, "CAM exploded to {extra} gates");
        assert!(block(&with, "Pending-write CAM").is_some());
    }

    #[test]
    fn display_renders_all_rows() {
        let s = HwConfig::telegraphos_i().inventory().to_string();
        for row in [
            "Central control",
            "Turbochannel interface",
            "Subtotal message related",
            "Subtotal shared mem. rel.",
            "Multiproc. Mem. (MPM)",
        ] {
            assert!(s.contains(row), "missing row {row}");
        }
    }

    #[test]
    fn shared_memory_support_is_small() {
        // The paper's headline: "the portion of the network interface that
        // is necessary for supporting shared memory is very small: 2700
        // gates and a few kilobits of memory" (plus off-chip directories).
        let inv = HwConfig::telegraphos_i().inventory();
        let shared = inv.gates(BlockClass::SharedMemory);
        let message = inv.gates(BlockClass::Message);
        assert!(shared < message);
        assert_eq!(shared, 2700);
    }
}
