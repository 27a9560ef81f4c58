//! The address map against a flat oracle. A cluster's translation is one
//! rule (the private heap and the shared window) plus each node's
//! exceptions; here every node's [`Mmu`] must answer exactly as a flat
//! per-node table that maps every private page at build, every window
//! page on every node as it is appended, and each remap and unmap as it
//! comes. Cases are drawn from a seeded [`tg_sim::SimRng`] so the sweep is
//! deterministic and dependency-free.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use tg_mem::{AccessKind, Fault, Mmu, PAddr, PageFlags, SharedWindow, VAddr};
use tg_sim::SimRng;
use tg_wire::{GOffset, NodeId, PageNum, PAGE_BYTES};

const PRIVATE_BASE: u64 = 0x8000;
const WINDOW_BASE: u64 = 0x2_0000;
/// The byte offset every probe uses within its page.
const IN_PAGE: u64 = 0x48;

/// Where a flat-table entry points.
#[derive(Clone, Copy, Debug)]
enum Target {
    Private(u64),
    Local(PageNum),
    Remote(NodeId, PageNum),
}

impl Target {
    fn paddr(self, in_page: u64) -> PAddr {
        match self {
            Target::Private(p) => PAddr::private(p * PAGE_BYTES + in_page),
            Target::Local(frame) => PAddr::local_shared(GOffset::from_page(frame, in_page)),
            Target::Remote(home, frame) => PAddr::remote(home, GOffset::from_page(frame, in_page)),
        }
    }

    fn base(self) -> PAddr {
        match self {
            Target::Private(p) => PAddr::private(p * PAGE_BYTES),
            Target::Local(frame) => PAddr::local_shared(frame.base()),
            Target::Remote(home, frame) => PAddr::remote(home, frame.base()),
        }
    }
}

/// Today's flat page table: one entry per mapped vpage, `(target,
/// writable)`.
type Flat = BTreeMap<u64, (Target, bool)>;

fn expected(flat: &Flat, vpage: u64, kind: AccessKind) -> Result<PAddr, Fault> {
    let va = VAddr::new(vpage * PAGE_BYTES + IN_PAGE);
    match flat.get(&vpage) {
        None => Err(Fault::Unmapped(va)),
        Some(&(_, false)) if kind == AccessKind::Write => Err(Fault::Protection(va, kind)),
        Some(&(target, _)) => Ok(target.paddr(IN_PAGE)),
    }
}

fn check(mmus: &[Mmu], flats: &[Flat], touched: &BTreeSet<u64>, case: u64) {
    for (node, (mmu, flat)) in mmus.iter().zip(flats).enumerate() {
        for &vpage in touched {
            for kind in [AccessKind::Read, AccessKind::Write] {
                let va = VAddr::new(vpage * PAGE_BYTES + IN_PAGE);
                assert_eq!(
                    mmu.translate(va, kind),
                    expected(flat, vpage, kind),
                    "case {case}: node {node}, vpage {vpage:#x}, {kind}"
                );
            }
        }
    }
}

#[test]
fn translation_equals_a_flat_table_per_node() {
    let mut rng = SimRng::new(30);
    for case in 0..256 {
        let nodes = 1 + rng.range(8) as u16;
        let private_pages = rng.range(6);
        let window = Rc::new(SharedWindow::new(
            PRIVATE_BASE..PRIVATE_BASE + private_pages,
            WINDOW_BASE,
        ));
        let mut mmus: Vec<Mmu> = (0..nodes)
            .map(|i| Mmu::with_window(NodeId::new(i), window.clone()))
            .collect();
        let mut flats: Vec<Flat> = vec![Flat::new(); usize::from(nodes)];
        for flat in &mut flats {
            for p in 0..private_pages {
                flat.insert(PRIVATE_BASE + p, (Target::Private(p), true));
            }
        }
        // Pages the run names: the private heap and one page past it, a
        // window a few pages longer than it grows, and pages of neither.
        let mut touched: BTreeSet<u64> = (0..=private_pages).map(|p| PRIVATE_BASE + p).collect();
        let max_window = rng.range(12);
        touched.extend((0..max_window + 2).map(|i| WINDOW_BASE + i));
        touched.extend([0, 0x3_0000, 0x3_0001]);
        let pool: Vec<u64> = touched.iter().copied().collect();
        let mut next_frame = vec![0u32; usize::from(nodes)];
        // (home, frame) of each window page, for the reverse lookup.
        let mut appended = Vec::new();
        for _ in 0..64 {
            let node = rng.range(u64::from(nodes)) as usize;
            let vpage = *rng.pick(&pool);
            match rng.range(8) {
                0 | 1 if (appended.len() as u64) < max_window => {
                    let home = NodeId::new(rng.range(u64::from(nodes)) as u16);
                    let frame = PageNum::new(next_frame[home.index()]);
                    next_frame[home.index()] += 1;
                    let index = window.push(home, frame);
                    assert_eq!(index, appended.len() as u64);
                    for (i, flat) in flats.iter_mut().enumerate() {
                        let target = if i == home.index() {
                            Target::Local(frame)
                        } else {
                            Target::Remote(home, frame)
                        };
                        flat.insert(WINDOW_BASE + index, (target, true));
                    }
                    appended.push((home, frame));
                }
                2..=4 => {
                    // A remap to a local frame, read-write or read-only.
                    let writable = rng.chance(0.5);
                    let target = Target::Local(PageNum::new(1000 + rng.range(64) as u32));
                    let flags = if writable {
                        PageFlags::RW
                    } else {
                        PageFlags::RO
                    };
                    mmus[node].table_mut().map(vpage, target.base(), flags);
                    flats[node].insert(vpage, (target, writable));
                }
                _ => {
                    let old = mmus[node].table_mut().unmap(vpage);
                    let flat_old = flats[node].remove(&vpage);
                    assert_eq!(old.is_some(), flat_old.is_some(), "case {case}: unmap");
                }
            }
            let one = node..node + 1;
            check(&mmus[one.clone()], &flats[one], &touched, case);
        }
        check(&mmus, &flats, &touched, case);
        for (node, mmu) in mmus.iter().enumerate() {
            for (index, &(home, frame)) in appended.iter().enumerate() {
                let want = (home.index() != node).then_some(WINDOW_BASE + index as u64);
                assert_eq!(mmu.remote_vpage(home, frame), want, "case {case}");
            }
        }
    }
}

#[test]
fn a_window_page_is_shared_state_and_its_unmap_is_a_tombstone() {
    let window = Rc::new(SharedWindow::new(
        PRIVATE_BASE..PRIVATE_BASE + 4,
        WINDOW_BASE,
    ));
    let mut mmus: Vec<Mmu> = (0..3)
        .map(|i| Mmu::with_window(NodeId::new(i), window.clone()))
        .collect();
    for _ in 0..5 {
        window.push(NodeId::new(1), PageNum::new(window.len() as u32));
    }
    assert!(mmus.iter().all(|m| m.exceptions() == 0));
    let va = VAddr::new((WINDOW_BASE + 2) * PAGE_BYTES);
    let remote = PAddr::remote(NodeId::new(1), PageNum::new(2).base());
    assert_eq!(mmus[0].translate(va, AccessKind::Write), Ok(remote));
    assert!(mmus[0].table_mut().unmap(WINDOW_BASE + 2).is_some());
    assert_eq!(mmus[0].exceptions(), 1, "the unmap is stored");
    assert_eq!(
        mmus[0].translate(va, AccessKind::Read),
        Err(Fault::Unmapped(va))
    );
    assert_eq!(mmus[2].translate(va, AccessKind::Read), Ok(remote));
    // An unmap of a page nothing covers stores nothing.
    assert!(mmus[0].table_mut().unmap(0x3_0000).is_none());
    assert_eq!(mmus[0].exceptions(), 1);
}
