//! Randomized tests for the wire vocabulary: geometry decompositions and
//! packet sizing must hold across the representable input space. Cases are
//! drawn from a seeded [`tg_sim::SimRng`] so the sweep is deterministic and
//! dependency-free.

use tg_sim::SimRng;
use tg_wire::{GOffset, NodeId, Packet, PageNum, WireMsg, PAGE_BYTES, PAGE_WORDS};

#[test]
fn offset_page_decomposition_round_trips() {
    let mut rng = SimRng::new(0xA11CE);
    for _ in 0..512 {
        let off = rng.range(0x1_0000_0000);
        let g = GOffset::new(off);
        let rebuilt = GOffset::from_page(g.page(), g.in_page());
        assert_eq!(rebuilt, g);
        assert!(g.in_page() < PAGE_BYTES);
    }
}

#[test]
fn word_index_is_consistent() {
    let mut rng = SimRng::new(0xB0B);
    for _ in 0..512 {
        let word = rng.range(0x100_0000);
        let g = GOffset::new(word * 8);
        assert_eq!(g.word_index(), word);
        assert!(g.is_word_aligned());
        assert!(!GOffset::new(word * 8 + 3).is_word_aligned());
    }
}

#[test]
fn page_base_has_zero_in_page() {
    let mut rng = SimRng::new(0xCAFE);
    for _ in 0..512 {
        let page = rng.range(0x10_0000) as u32;
        let p = PageNum::new(page);
        assert_eq!(p.base().page(), p);
        assert_eq!(p.base().in_page(), 0);
        assert_eq!(p.base().word_index() % PAGE_WORDS, 0);
    }
}

#[test]
fn bulk_payloads_scale_with_content() {
    let mut rng = SimRng::new(0xFEED);
    for _ in 0..256 {
        let words = (1 + rng.range(127)) as usize;
        let extra = (1 + rng.range(63)) as usize;
        let small = WireMsg::PageData {
            tag: 0,
            index: 0,
            vals: vec![0; words].into(),
            last: false,
        };
        let big = WireMsg::PageData {
            tag: 0,
            index: 0,
            vals: vec![0; words + extra].into(),
            last: false,
        };
        let size = |msg| Packet::new(NodeId::new(0), NodeId::new(1), msg, 0).size_bytes();
        assert_eq!(size(big) - size(small), (extra * 8) as u32);
    }
}
