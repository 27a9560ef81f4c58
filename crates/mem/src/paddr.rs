//! The per-node physical address encoding.

use std::fmt;

use tg_wire::{GOffset, NodeId};

/// Bit 63: the shadow flag (paper §2.2.4 — "An address differs from its
/// shadow only in the highest bit").
const SHADOW_BIT: u64 = 1 << 63;
/// Bits 61..=59 select the region.
const REGION_SHIFT: u32 = 59;
const REGION_MASK: u64 = 0b111 << REGION_SHIFT;
/// For remote windows, bits 47..=32 carry the destination node id.
const NODE_SHIFT: u32 = 32;
const NODE_MASK: u64 = 0xFFFF << NODE_SHIFT;
/// Low 32 bits carry the offset (private offset, segment offset or HIB
/// register number).
const OFF_MASK: u64 = 0xFFFF_FFFF;

const REGION_PRIVATE: u64 = 0;
const REGION_LOCAL_SHARED: u64 = 1;
const REGION_REMOTE: u64 = 2;
const REGION_HIB_REG: u64 = 3;

/// A physical address in one workstation's address map.
///
/// Layout (motivated by §2.2.1 of the paper):
///
/// ```text
/// bit 63      : shadow flag
/// bits 61..59 : region  (0 private DRAM, 1 local shared, 2 remote window,
///                        3 HIB registers)
/// bits 47..32 : node id (remote windows only)
/// bits 31..0  : offset
/// ```
///
/// # Example
///
/// ```
/// use tg_mem::{Decoded, PAddr};
/// use tg_wire::{GOffset, NodeId};
///
/// let pa = PAddr::remote(NodeId::new(3), GOffset::new(0x100));
/// assert_eq!(
///     pa.decode(),
///     Decoded::Remote { node: NodeId::new(3), off: GOffset::new(0x100) }
/// );
/// assert!(!pa.is_shadow());
/// assert!(pa.shadow().is_shadow());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PAddr(u64);

/// A decoded physical address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decoded {
    /// Private main memory; Telegraphos never sees these accesses.
    Private {
        /// Byte offset in private DRAM.
        off: u64,
    },
    /// The local shared segment (HIB SRAM in Telegraphos I, a main-memory
    /// carve-out in Telegraphos II).
    LocalShared {
        /// Offset in this node's exported segment.
        off: GOffset,
    },
    /// A window onto another node's shared segment; accesses become
    /// network transactions.
    Remote {
        /// The home node.
        node: NodeId,
        /// Offset in the home node's segment.
        off: GOffset,
    },
    /// A HIB control register (special-operation launch, counters, …).
    HibReg {
        /// Register number.
        reg: u64,
    },
}

impl PAddr {
    /// Raw bits.
    pub(crate) const fn bits(self) -> u64 {
        self.0
    }

    /// A private main-memory address.
    pub const fn private(off: u64) -> Self {
        PAddr((REGION_PRIVATE << REGION_SHIFT) | (off & OFF_MASK))
    }

    /// An address in the local shared segment.
    pub const fn local_shared(off: GOffset) -> Self {
        PAddr((REGION_LOCAL_SHARED << REGION_SHIFT) | (off.bytes() & OFF_MASK))
    }

    /// A window address for `off` within `node`'s shared segment.
    pub const fn remote(node: NodeId, off: GOffset) -> Self {
        PAddr(
            (REGION_REMOTE << REGION_SHIFT)
                | ((node.raw() as u64) << NODE_SHIFT)
                | (off.bytes() & OFF_MASK),
        )
    }

    /// A HIB control register.
    pub const fn hib_reg(reg: u64) -> Self {
        PAddr((REGION_HIB_REG << REGION_SHIFT) | (reg & OFF_MASK))
    }

    /// The shadow twin of this address (top bit set).
    pub const fn shadow(self) -> Self {
        PAddr(self.0 | SHADOW_BIT)
    }

    /// This address with the shadow bit stripped.
    pub const fn unshadow(self) -> Self {
        PAddr(self.0 & !SHADOW_BIT)
    }

    /// True if the shadow bit is set.
    pub const fn is_shadow(self) -> bool {
        self.0 & SHADOW_BIT != 0
    }

    /// Classifies the (unshadowed) address.
    pub fn decode(self) -> Decoded {
        let bits = self.0 & !SHADOW_BIT;
        let off = bits & OFF_MASK;
        match (bits & REGION_MASK) >> REGION_SHIFT {
            REGION_PRIVATE => Decoded::Private { off },
            REGION_LOCAL_SHARED => Decoded::LocalShared {
                off: GOffset::new(off),
            },
            REGION_REMOTE => Decoded::Remote {
                node: NodeId::new(((bits & NODE_MASK) >> NODE_SHIFT) as u16),
                off: GOffset::new(off),
            },
            REGION_HIB_REG => Decoded::HibReg { reg: off },
            other => unreachable!("region {other} cannot be encoded"),
        }
    }

    /// Adds a byte displacement (stays within the region's offset field).
    pub(crate) const fn add(self, bytes: u64) -> Self {
        PAddr((self.0 & !OFF_MASK) | ((self.0 & OFF_MASK).wrapping_add(bytes) & OFF_MASK))
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shadow = if self.is_shadow() { "~" } else { "" };
        match self.decode() {
            Decoded::Private { off } => write!(f, "{shadow}priv:{off:#x}"),
            Decoded::LocalShared { off } => write!(f, "{shadow}shm{off}"),
            Decoded::Remote { node, off } => write!(f, "{shadow}{node}{off}"),
            Decoded::HibReg { reg } => write!(f, "{shadow}hib[{reg:#x}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_round_trip() {
        assert_eq!(
            PAddr::private(0x1234).decode(),
            Decoded::Private { off: 0x1234 }
        );
        assert_eq!(
            PAddr::local_shared(GOffset::new(0x2000)).decode(),
            Decoded::LocalShared {
                off: GOffset::new(0x2000)
            }
        );
        assert_eq!(
            PAddr::remote(NodeId::new(7), GOffset::new(0x88)).decode(),
            Decoded::Remote {
                node: NodeId::new(7),
                off: GOffset::new(0x88)
            }
        );
        assert_eq!(PAddr::hib_reg(4).decode(), Decoded::HibReg { reg: 4 });
    }

    #[test]
    fn shadow_differs_only_in_top_bit() {
        let pa = PAddr::remote(NodeId::new(1), GOffset::new(64));
        let sh = pa.shadow();
        assert_eq!(pa.bits() ^ sh.bits(), 1 << 63);
        assert_eq!(sh.unshadow(), pa);
        assert_eq!(sh.decode(), pa.decode(), "decode ignores the shadow bit");
    }

    #[test]
    fn distinct_regions_do_not_collide() {
        let a = PAddr::private(0x40);
        let b = PAddr::local_shared(GOffset::new(0x40));
        let c = PAddr::remote(NodeId::new(0), GOffset::new(0x40));
        let d = PAddr::hib_reg(0x40);
        let all = [a, b, c, d];
        for (i, x) in all.iter().enumerate() {
            for (j, y) in all.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y);
                }
            }
        }
    }

    #[test]
    fn add_moves_offset_only() {
        let pa = PAddr::remote(NodeId::new(3), GOffset::new(8));
        let pb = pa.add(8);
        assert_eq!(
            pb.decode(),
            Decoded::Remote {
                node: NodeId::new(3),
                off: GOffset::new(16)
            }
        );
    }

    #[test]
    fn display_is_informative() {
        let pa = PAddr::remote(NodeId::new(2), GOffset::new(0x10)).shadow();
        assert_eq!(pa.to_string(), "~n2+0x10");
    }

    #[test]
    fn shadow_is_exactly_the_top_bit() {
        let mut rng = tg_sim::SimRng::new(4);
        for _ in 0..512 {
            let node = rng.range(64) as u16;
            let off = rng.range(0x1_0000_0000);
            let pa = PAddr::remote(NodeId::new(node), GOffset::new(off));
            let sh = pa.shadow();
            assert_eq!(pa.bits() ^ sh.bits(), 1u64 << 63);
            assert_eq!(sh.unshadow(), pa);
            assert_eq!(sh.decode(), pa.decode());
            assert_eq!(sh.shadow(), sh, "shadow is idempotent");
        }
    }
}
