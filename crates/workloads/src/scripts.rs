//! Script-style access streams.

use telegraphos::{Action, Script, SharedPage};
use tg_sim::{SimRng, SimTime};
use tg_wire::{NodeId, PAGE_WORDS};

/// `n` remote/shared writes striding word-by-word across the page (the
/// §3.2 write measurement).
pub fn stream_writes(page: &SharedPage, n: u64) -> Script {
    Script::new(
        (0..n)
            .map(|i| Action::Write(page.va((i % PAGE_WORDS) * 8), i + 1))
            .collect(),
    )
}

/// `n` blocking reads striding across the page (the §3.2 read
/// measurement).
pub fn stream_reads(page: &SharedPage, n: u64) -> Script {
    Script::new(
        (0..n)
            .map(|i| Action::Read(page.va((i % PAGE_WORDS) * 8)))
            .collect(),
    )
}

/// A reader that hammers one page with `think` time between accesses — the
/// hot-page pattern that page-access counters are meant to catch (§2.2.6).
pub fn hot_page_reader(page: &SharedPage, reads: u64, think: SimTime) -> Script {
    let mut actions = Vec::with_capacity(2 * reads as usize);
    for i in 0..reads {
        actions.push(Action::Read(page.va((i % 16) * 8)));
        if !think.is_zero() {
            actions.push(Action::Compute(think));
        }
    }
    Script::new(actions)
}

/// Bursts of scattered coherent writes separated by drain pauses: `bursts`
/// rounds of `burst` back-to-back writes over `distinct_words` words, with
/// `pause` of compute in between. The peak number of pending writes —
/// and so the CAM pressure (§2.3.4) — is set by `burst`.
pub fn bursty_scatter(
    page: &SharedPage,
    distinct_words: u64,
    burst: u64,
    pause: SimTime,
    bursts: u64,
) -> Script {
    assert!(distinct_words > 0 && distinct_words <= PAGE_WORDS);
    let mut actions = Vec::new();
    let mut v = 1;
    for _ in 0..bursts {
        for k in 0..burst {
            actions.push(Action::Write(
                page.va(((v + k) % distinct_words) * 8),
                v + k,
            ));
        }
        v += burst;
        actions.push(Action::Compute(pause));
    }
    Script::new(actions)
}

/// A seeded mix of reads and writes uniformly spread over several pages.
pub fn uniform_mixed(pages: &[SharedPage], ops: u64, write_fraction: f64, seed: u64) -> Script {
    assert!(!pages.is_empty(), "need at least one page");
    let mut rng = SimRng::new(seed);
    let actions = (0..ops)
        .map(|i| {
            let page = &pages[rng.range(pages.len() as u64) as usize];
            let va = page.va(rng.range(PAGE_WORDS) * 8);
            if rng.chance(write_fraction) {
                Action::Write(va, i + 1)
            } else {
                Action::Read(va)
            }
        })
        .collect();
    Script::new(actions)
}

/// The messaging baseline's ping side: send `bytes`, wait for the echo,
/// `rounds` times.
pub fn message_ping(peer: NodeId, bytes: u32, rounds: u32) -> Script {
    let mut actions = Vec::new();
    for r in 0..rounds {
        actions.push(Action::Send {
            dst: peer,
            bytes,
            tag: 2 * r,
        });
        actions.push(Action::Recv { tag: 2 * r + 1 });
    }
    Script::new(actions)
}

/// The echo side of [`message_ping`].
pub fn message_pong(peer: NodeId, bytes: u32, rounds: u32) -> Script {
    let mut actions = Vec::new();
    for r in 0..rounds {
        actions.push(Action::Recv { tag: 2 * r });
        actions.push(Action::Send {
            dst: peer,
            bytes,
            tag: 2 * r + 1,
        });
    }
    Script::new(actions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use telegraphos::{Process, Resume};
    use tg_wire::PageNum;

    fn page() -> SharedPage {
        SharedPage {
            index: 0,
            home: NodeId::new(1),
            home_page: PageNum::new(0),
        }
    }

    #[test]
    fn stream_writes_covers_the_page() {
        let mut s = stream_writes(&page(), 3);
        assert_eq!(s.resume(Resume::Start), Action::Write(page().va(0), 1));
        assert_eq!(s.resume(Resume::Done), Action::Write(page().va(8), 2));
        assert_eq!(s.resume(Resume::Done), Action::Write(page().va(16), 3));
        assert_eq!(s.resume(Resume::Done), Action::Halt);
    }

    #[test]
    fn stream_wraps_within_the_page() {
        let mut s = stream_writes(&page(), PAGE_WORDS + 1);
        let first = s.resume(Resume::Start);
        for _ in 0..PAGE_WORDS {
            let a = s.resume(Resume::Done);
            if let Action::Write(va, _) = a {
                assert!(va.bits() < page().va(0).bits() + 8192);
            }
        }
        assert_eq!(
            match first {
                Action::Write(va, _) => va,
                other => panic!("{other:?}"),
            },
            page().va(0)
        );
    }

    #[test]
    fn hot_reader_interleaves_think_time() {
        let mut s = hot_page_reader(&page(), 2, SimTime::from_us(1));
        assert!(matches!(s.resume(Resume::Start), Action::Read(_)));
        assert!(matches!(s.resume(Resume::Value(0)), Action::Compute(_)));
        assert!(matches!(s.resume(Resume::Done), Action::Read(_)));
    }

    #[test]
    fn uniform_mixed_is_seeded() {
        let pages = [page()];
        let a: Vec<Action> = drain(uniform_mixed(&pages, 20, 0.5, 7));
        let b: Vec<Action> = drain(uniform_mixed(&pages, 20, 0.5, 7));
        let c: Vec<Action> = drain(uniform_mixed(&pages, 20, 0.5, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    fn drain(mut s: Script) -> Vec<Action> {
        let mut out = Vec::new();
        let mut r = Resume::Start;
        loop {
            let a = s.resume(r);
            if a == Action::Halt {
                return out;
            }
            r = match a {
                Action::Read(_) => Resume::Value(0),
                _ => Resume::Done,
            };
            out.push(a);
        }
    }

    #[test]
    fn ping_pong_tags_pair_up() {
        let mut ping = message_ping(NodeId::new(1), 64, 2);
        let mut pong = message_pong(NodeId::new(0), 64, 2);
        assert!(matches!(
            ping.resume(Resume::Start),
            Action::Send { tag: 0, .. }
        ));
        assert!(matches!(
            pong.resume(Resume::Start),
            Action::Recv { tag: 0 }
        ));
        assert!(matches!(ping.resume(Resume::Done), Action::Recv { tag: 1 }));
        assert!(matches!(
            pong.resume(Resume::Value(64)),
            Action::Send { tag: 1, .. }
        ));
    }
}
