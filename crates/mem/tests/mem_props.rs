//! Randomized tests for the address machinery: encodings must round-trip
//! across the representable input space and translation must be total and
//! consistent. Cases are drawn from a seeded [`tg_sim::SimRng`] so the
//! sweep is deterministic and dependency-free.

use std::collections::BTreeSet;
use std::rc::Rc;

use tg_mem::{AccessKind, Decoded, Fault, Mmu, PAddr, PageFlags, SharedWindow, VAddr};
use tg_sim::SimRng;
use tg_wire::{GOffset, NodeId, PAGE_BYTES};

/// An MMU over an empty window: it maps exactly what it is told.
fn bare_mmu() -> Mmu {
    Mmu::with_window(NodeId::new(0), Rc::new(SharedWindow::new(0..0, 0)))
}

#[test]
fn private_round_trips() {
    let mut rng = SimRng::new(1);
    for _ in 0..512 {
        let off = rng.range(0x1_0000_0000);
        let pa = PAddr::private(off);
        assert_eq!(pa.decode(), Decoded::Private { off });
        assert!(!pa.is_shadow());
    }
}

#[test]
fn local_shared_round_trips() {
    let mut rng = SimRng::new(2);
    for _ in 0..512 {
        let off = rng.range(0x1_0000_0000);
        let pa = PAddr::local_shared(GOffset::new(off));
        assert_eq!(
            pa.decode(),
            Decoded::LocalShared {
                off: GOffset::new(off)
            }
        );
    }
}

#[test]
fn remote_round_trips() {
    let mut rng = SimRng::new(3);
    for _ in 0..512 {
        let node = rng.range(u64::from(u16::MAX)) as u16;
        let off = rng.range(0x1_0000_0000);
        let pa = PAddr::remote(NodeId::new(node), GOffset::new(off));
        assert_eq!(
            pa.decode(),
            Decoded::Remote {
                node: NodeId::new(node),
                off: GOffset::new(off)
            }
        );
    }
}

#[test]
fn distinct_encodings_never_collide() {
    let mut rng = SimRng::new(5);
    for _ in 0..256 {
        let off_a = rng.range(0x1000_0000);
        let off_b = rng.range(0x1000_0000);
        let node = rng.range(256) as u16;
        let variants = [
            PAddr::private(off_a),
            PAddr::local_shared(GOffset::new(off_a)),
            PAddr::remote(NodeId::new(node), GOffset::new(off_a)),
            PAddr::hib_reg(off_a),
        ];
        for (i, x) in variants.iter().enumerate() {
            for (j, y) in variants.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y);
                }
            }
        }
        // Different offsets in the same region differ.
        if off_a != off_b {
            assert_ne!(PAddr::private(off_a), PAddr::private(off_b));
        }
    }
}

#[test]
fn translation_is_total_and_consistent() {
    let mut rng = SimRng::new(6);
    for _ in 0..256 {
        let n_mapped = (1 + rng.range(15)) as usize;
        let mut mapped_pages = BTreeSet::new();
        while mapped_pages.len() < n_mapped {
            mapped_pages.insert(rng.range(64));
        }
        let probe_page = rng.range(64);
        let in_page = rng.range(PAGE_BYTES / 8) * 8;
        let writable = rng.chance(0.5);

        let mut mmu = bare_mmu();
        for &vp in &mapped_pages {
            let flags = if writable {
                PageFlags::RW
            } else {
                PageFlags::RO
            };
            mmu.table_mut()
                .map(vp, PAddr::private(vp * PAGE_BYTES), flags);
        }
        let va = VAddr::new(probe_page * PAGE_BYTES + in_page);
        match mmu.translate(va, AccessKind::Read) {
            Ok(pa) => {
                assert!(mapped_pages.contains(&probe_page));
                assert_eq!(
                    pa.decode(),
                    Decoded::Private {
                        off: probe_page * PAGE_BYTES + in_page
                    }
                );
            }
            Err(Fault::Unmapped(fva)) => {
                assert!(!mapped_pages.contains(&probe_page));
                assert_eq!(fva, va);
            }
            Err(other) => panic!("unexpected fault {other:?}"),
        }
        // Writes honor permissions.
        if mapped_pages.contains(&probe_page) {
            let w = mmu.translate(va, AccessKind::Write);
            if writable {
                assert!(w.is_ok());
            } else {
                assert_eq!(w, Err(Fault::Protection(va, AccessKind::Write)));
            }
        }
    }
}

#[test]
fn misalignment_always_faults() {
    let mut rng = SimRng::new(7);
    for _ in 0..256 {
        let page = rng.range(16);
        let misoff = 1 + rng.range(7);
        let word = rng.range(1024);
        let mut mmu = bare_mmu();
        mmu.table_mut().map(page, PAddr::private(0), PageFlags::RW);
        let va = VAddr::new(page * PAGE_BYTES + word * 8 + misoff);
        assert_eq!(
            mmu.translate(va, AccessKind::Read),
            Err(Fault::Misaligned(va))
        );
    }
}
