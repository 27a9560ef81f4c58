//! The engine's event queue: a sorted bottom over monotone radix rungs.
//!
//! The engine never schedules an event before the instant it last popped,
//! so the queue is *monotone* and can file entries by delivery instant
//! the way a radix heap does [Ahuja, Mehlhorn, Orlin & Tarjan 1990], here
//! with 64-way digits. Relative to a *base* instant no later than any
//! filed entry, level `l` holds the entries that agree with the base above
//! base-64 digit `l` and differ in it, and bucket `d` of that level the
//! ones whose digit `l` is `d`. Every entry of a level sorts before every
//! entry of the levels above it, and within a level bucket `d` before
//! bucket `d + 1`, so the lowest occupied bucket holds the minimum; a bit
//! per level and a bit per bucket find it with two trailing-zero counts.
//!
//! The smallest entries wait in the *bottom*, a short vector sorted by
//! descending key, as in a ladder queue [Tang, Goh & Thng 2005]: a pop
//! takes its last element and the whole same-instant tie behind it. When
//! the bottom runs dry, the lowest occupied bucket becomes the new bottom
//! and is sorted, if it holds one instant (level 0) or at most
//! [`BOTTOM_MAX`] entries. A larger bucket is first refiled against its
//! minimum instant as the new base, each entry into a lower level, so an
//! entry moves at most once per level and 11 levels cover the `u64`
//! picosecond range. A push at or before the bottom's latest instant is
//! inserted into it in key order; a later one is filed. Every bottom
//! instant therefore precedes every filed one, and a tie is never split.
//!
//! The work per entry is a few relinks, a sort among a handful of entries
//! and, for a push inside the bottom, a shift of the slot numbers below
//! it, however the pending instants cluster in time (heartbeat bursts,
//! poll naps, millisecond timers). Entries stay in slots from push to pop
//! (buckets are singly linked slot lists, the bottom holds slot numbers),
//! so no payload moves before its pop; a queue that drains after a burst
//! gives its memory back.
//!
//! Exactness: the engine's delivery contract is strict `(at, seq)` order.
//! Levels and buckets order instants exactly and the bottom is sorted by
//! full key, so pop order is exact; the model-check tests below pin it
//! against a plain sorted reference. The bottom's last entry is the
//! minimum, which makes the deadline check O(1). A returned
//! [`Popped::Deadline`] moves nothing, so the engine may still push
//! anywhere between the last popped instant and the queued minimum.

use crate::time::SimTime;

/// A queue entry: the packed `(at, seq)` key plus an opaque payload.
#[derive(Clone, Debug)]
pub(crate) struct Entry<T> {
    /// Packed `(at, seq)`: delivery instant in the high 64 bits, schedule
    /// sequence in the low 64, so one wide compare orders entries.
    pub(crate) key: u128,
    /// The payload (the engine stores destination + message here).
    pub(crate) item: T,
}

impl<T> Entry<T> {
    /// Packs `(at, seq)` so that `u128` order equals lexicographic
    /// `(at, seq)` order.
    #[inline]
    pub(crate) fn new(at: SimTime, seq: u64, item: T) -> Self {
        Entry {
            key: (u128::from(at.as_ps()) << 64) | u128::from(seq),
            item,
        }
    }

    /// The delivery instant encoded in the key.
    pub(crate) fn at(&self) -> SimTime {
        SimTime::from_ps(self.at_ps())
    }

    /// The scheduling sequence number encoded in the key.
    #[cfg(test)]
    fn seq(&self) -> u64 {
        self.key as u64
    }

    /// The delivery instant as raw picoseconds.
    pub(crate) fn at_ps(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

/// Result of [`RadixQueue::pop_ready`]: the run loop's deadline check,
/// pop and same-instant batch collection fused into one call.
pub(crate) enum Popped<T> {
    /// The queue is empty.
    Drained,
    /// The next event lies past the deadline; nothing was popped.
    Deadline,
    /// The minimum entry; same-instant ties were appended to `extras`.
    Ready(Entry<T>),
}

/// Bits per digit: 64 buckets per level, one `u64` occupancy word each.
const DIGIT_BITS: u32 = 6;
const FANOUT: usize = 1 << DIGIT_BITS;
/// Levels covering a `u64` instant: digits 0..=10, the top one 4 bits.
const LEVELS: usize = u64::BITS.div_ceil(DIGIT_BITS) as usize;
/// The most entries a bucket above level 0 may hold to become the bottom
/// without being refiled first. Replaying recorded `perfbench` queue
/// traffic, 2 to 8 cost about the same, and 16 or more cost more on every
/// workload: a long bottom makes the inserts into it dearer.
const BOTTOM_MAX: usize = 4;
/// A queue that drains while holding more slots than this frees them.
const RELEASE_SLOTS: usize = 64;
/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// A queued entry, or a free slot.
#[derive(Debug)]
struct Slot<T> {
    key: u128,
    /// The next slot in the same bucket list, or in the free list.
    next: u32,
    /// The payload; `None` while the slot is free.
    item: Option<T>,
}

/// A monotone queue with exact `(at, seq)` pop order.
#[derive(Debug)]
pub(crate) struct RadixQueue<T> {
    /// Slots of the smallest entries, sorted by descending key; empty only
    /// when the whole queue is.
    bottom: Vec<u32>,
    /// First slot of each bucket's list, bucket `d` of level `l` at
    /// `l * FANOUT + d`; every instant filed here follows the bottom's.
    /// Allocated by the first push into an empty queue that has none.
    heads: Vec<u32>,
    /// Per level, bit `d` set when bucket `d` is occupied.
    occupied: [u64; LEVELS],
    /// Bit `l` set when level `l` has an occupied bucket.
    levels: u32,
    /// The instant the buckets are filed against; no filed entry lies
    /// before it (bottom entries may).
    base: u64,
    /// The instant of the last pop; no push may land before it.
    popped: u64,
    /// The bottom's latest instant, while it is not empty.
    top: u64,
    /// Queued entries.
    len: usize,
    /// Where the entries live from push to pop.
    slots: Vec<Slot<T>>,
    /// First free slot.
    free: u32,
}

impl<T> RadixQueue<T> {
    pub(crate) fn new() -> Self {
        RadixQueue {
            bottom: Vec::new(),
            heads: Vec::new(),
            occupied: [0; LEVELS],
            levels: 0,
            base: 0,
            popped: 0,
            top: 0,
            len: 0,
            slots: Vec::new(),
            free: NIL,
        }
    }

    /// Pending entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is due at or before `ps`. O(1): the bottom's
    /// last entry is the minimum.
    #[inline]
    pub(crate) fn front_after(&self, ps: u64) -> bool {
        self.bottom.last().is_none_or(|&s| self.at(s) > ps)
    }

    /// Queues `entry`. Its instant must not lie before the last popped
    /// one; debug builds check this.
    #[inline]
    pub(crate) fn push(&mut self, entry: Entry<T>) {
        let (key, at) = (entry.key, entry.at_ps());
        debug_assert!(
            at >= self.popped,
            "push at {at} ps lands behind the last popped instant {} ps",
            self.popped
        );
        let s = match self.free {
            NIL => {
                self.slots.push(Slot {
                    key,
                    next: NIL,
                    item: Some(entry.item),
                });
                (self.slots.len() - 1) as u32
            }
            s => {
                let slot = &mut self.slots[s as usize];
                self.free = slot.next;
                slot.key = key;
                slot.item = Some(entry.item);
                s
            }
        };
        self.len += 1;
        match self.bottom.last() {
            Some(_) if at > self.top => self.file(s, at),
            Some(&last) if key < self.slots[last as usize].key => self.bottom.push(s),
            None => {
                if self.heads.is_empty() {
                    self.alloc_heads();
                }
                self.top = at;
                self.bottom.push(s);
            }
            Some(_) => {
                let slots = &self.slots;
                let i = self
                    .bottom
                    .partition_point(|&b| slots[b as usize].key > key);
                self.bottom.insert(i, s);
            }
        }
    }

    /// The run loop's whole per-event queue interaction: deadline check,
    /// pop of the minimum entry (returned), and collection of *every*
    /// other entry sharing its instant (appended to `extras` in ascending
    /// seq order). Nothing is popped on [`Popped::Drained`] /
    /// [`Popped::Deadline`]. A singleton batch (the common case) touches
    /// no `Vec` of the caller's.
    #[inline]
    pub(crate) fn pop_ready(&mut self, deadline: SimTime, extras: &mut Vec<Entry<T>>) -> Popped<T> {
        let Some(&s) = self.bottom.last() else {
            return Popped::Drained;
        };
        let at = self.at(s);
        if at > deadline.as_ps() {
            return Popped::Deadline;
        }
        self.popped = at;
        self.bottom.pop();
        let first = self.take(s);
        // Ties sort behind their minimum, in ascending seq order.
        while let Some(&s) = self.bottom.last() {
            if self.at(s) != at {
                break;
            }
            self.bottom.pop();
            extras.push(self.take(s));
        }
        if self.bottom.is_empty() && self.levels != 0 {
            self.refill();
        }
        if self.len == 0 && self.slots.capacity() > RELEASE_SLOTS {
            self.release();
        }
        Popped::Ready(first)
    }

    /// Drained after a burst: gives the memory back, as a fresh queue.
    /// The next push allocates what it needs.
    #[cold]
    #[inline(never)]
    fn release(&mut self) {
        *self = RadixQueue {
            popped: self.popped,
            ..RadixQueue::new()
        };
    }

    #[cold]
    #[inline(never)]
    fn alloc_heads(&mut self) {
        self.heads = vec![NIL; LEVELS * FANOUT];
    }

    /// The delivery instant of slot `s`.
    #[inline(always)]
    fn at(&self, s: u32) -> u64 {
        (self.slots[s as usize].key >> 64) as u64
    }

    /// Moves slot `s`'s entry out and frees the slot.
    #[inline(always)]
    fn take(&mut self, s: u32) -> Entry<T> {
        self.len -= 1;
        let next = std::mem::replace(&mut self.free, s);
        let slot = &mut self.slots[s as usize];
        slot.next = next;
        Entry {
            key: slot.key,
            item: slot.item.take().expect("a queued slot holds a payload"),
        }
    }

    /// Links slot `s`, due at `at`, into the bucket of its most
    /// significant digit that differs from the base (level 0 when equal).
    #[inline(always)]
    fn file(&mut self, s: u32, at: u64) {
        let level = ((at ^ self.base) | 1).ilog2() / DIGIT_BITS;
        let digit = (at >> (level * DIGIT_BITS)) as usize & (FANOUT - 1);
        let level = level as usize;
        let b = level * FANOUT + digit;
        self.slots[s as usize].next = self.heads[b];
        self.heads[b] = s;
        self.occupied[level] |= 1 << digit;
        self.levels |= 1 << level;
    }

    /// Makes the lowest occupied bucket the bottom, refiling it first
    /// while it lies above level 0 and holds more than [`BOTTOM_MAX`]
    /// entries.
    #[inline(never)]
    fn refill(&mut self) {
        loop {
            let level = self.levels.trailing_zeros() as usize;
            let digit = self.occupied[level].trailing_zeros() as usize;
            self.occupied[level] &= !(1 << digit);
            if self.occupied[level] == 0 {
                self.levels &= !(1 << level);
            }
            let mut s = std::mem::replace(&mut self.heads[level * FANOUT + digit], NIL);
            while s != NIL {
                self.bottom.push(s);
                s = self.slots[s as usize].next;
            }
            if level == 0 || self.bottom.len() <= BOTTOM_MAX {
                let slots = &self.slots;
                self.bottom
                    .sort_unstable_by(|&a, &b| slots[b as usize].key.cmp(&slots[a as usize].key));
                self.top = self.at(self.bottom[0]);
                return;
            }
            // The bucket's entries share the base's digits above `level`,
            // and so does their minimum: against that new base each one
            // lands in a lower level, and every other bucket stays valid.
            let moving = std::mem::take(&mut self.bottom);
            self.base = moving.iter().map(|&s| self.at(s)).min().expect("occupied");
            for &s in &moving {
                self.file(s, self.at(s));
            }
            self.bottom = moving;
            self.bottom.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeSet;

    /// Pops one same-instant batch through `pop_ready`, as `(at_ps, seq)`
    /// keys in delivery order; empty when the queue is drained.
    fn pop_keys<T>(q: &mut RadixQueue<T>) -> Vec<(u64, u64)> {
        let mut extras = Vec::new();
        match q.pop_ready(SimTime::MAX, &mut extras) {
            Popped::Ready(first) => std::iter::once(first)
                .chain(extras)
                .map(|e| (e.at_ps(), e.seq()))
                .collect(),
            Popped::Drained => Vec::new(),
            Popped::Deadline => unreachable!("nothing lies past SimTime::MAX"),
        }
    }

    /// The plain reference oracle: drives the queue through an adversarial
    /// interleaved push/pop schedule of `ops` operations and asserts that
    /// every `pop_ready` batch is exactly the reference minimum followed by
    /// every other reference entry at its instant, in seq order, and that
    /// `front_after` agrees with the reference after every operation. A
    /// push operation queues the instants `draw` appends, given the
    /// current one. The engine contract is enforced: pushes never go
    /// behind the last popped instant.
    fn check_against_reference(
        seed: u64,
        ops: usize,
        mut draw: impl FnMut(&mut SimRng, u64, &mut Vec<u64>),
    ) {
        let mut q: RadixQueue<()> = RadixQueue::new();
        let mut rng = SimRng::new(seed);
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut instants = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let check_pop = |q: &mut RadixQueue<()>, reference: &mut BTreeSet<(u64, u64)>| {
            let got = pop_keys(q);
            let at = reference.first().expect("the queue is not empty").0;
            let tie: Vec<(u64, u64)> = reference.range((at, 0)..=(at, u64::MAX)).copied().collect();
            assert_eq!(got, tie);
            for k in &tie {
                reference.remove(k);
            }
            at
        };
        for _ in 0..ops {
            if rng.chance(0.6) || q.len() == 0 {
                draw(&mut rng, now, &mut instants);
                for at in instants.drain(..) {
                    q.push(Entry::new(SimTime::from_ps(at), seq, ()));
                    reference.insert((at, seq));
                    seq += 1;
                }
            } else {
                now = check_pop(&mut q, &mut reference);
            }
            assert_eq!(q.len(), reference.len());
            let front = reference.first().map(|k| k.0);
            assert_eq!(q.front_after(now), front.is_none_or(|at| at > now));
        }
        while q.len() > 0 {
            check_pop(&mut q, &mut reference);
        }
        assert!(reference.is_empty());
        assert!(pop_keys(&mut q).is_empty());
    }

    /// The uniform spreads the property tests sweep: dense duplicate
    /// instants (1 and 50 ps, within one or two level-0 buckets),
    /// nanosecond windows that file into level 2 and carry across its
    /// digits (2^13 and 2^17 ps), a microsecond window (2^21 ps) and a
    /// wide spread (2^40 ps) that refiles entries through seven levels.
    const SPREADS: [u64; 6] = [1, 50, 8_192, 131_072, 1 << 21, 1 << 40];

    #[test]
    fn queue_matches_reference_across_distributions() {
        for (i, &spread) in SPREADS.iter().enumerate() {
            for seed in [7 + i as u64, 42 + i as u64, 1234] {
                check_against_reference(seed, 2000, |rng, now, out| {
                    out.push(now + rng.range(spread.max(1)));
                });
            }
        }
    }

    /// The time mix of a heartbeat-bearing cluster, which defeated the
    /// calendar queue this one replaced: phase-aligned bursts (at a 20 µs
    /// beacon tick, eight origins' frames flooded over seventeen hops
    /// 35 ns apart, so 136 events within 600 ns), 2 µs poll naps,
    /// millisecond-scale timers and same-instant ties.
    #[test]
    fn heartbeat_bursts_match_reference() {
        const PERIOD: u64 = 20_000_000;
        let burst_mix = |rng: &mut SimRng, now: u64, out: &mut Vec<u64>| match rng.range(40) {
            0 => {
                let tick = (now / PERIOD + 1) * PERIOD;
                out.extend((0..8).flat_map(|_| (0..17).map(move |hop| tick + hop * 35_000)));
            }
            1..=14 => out.push(now + 2_000_000),
            15..=19 => out.push(now + 1_000_000_000 * (1 + rng.range(3))),
            20..=29 => out.push(now),
            _ => out.push(now + rng.range(600_000)),
        };
        for seed in [3, 19, 2024] {
            check_against_reference(seed, 20_000, burst_mix);
        }
    }

    /// Bulk-loaded ties drained batch by batch: every batch is a whole
    /// tie, led by its minimum and in ascending seq order, and the batches
    /// concatenate to the sorted reference.
    #[test]
    fn batch_pop_matches_reference() {
        for &spread in &SPREADS {
            let mut q: RadixQueue<()> = RadixQueue::new();
            let mut rng = SimRng::new(5);
            let mut reference: Vec<(u64, u64)> = (0..400u64)
                .map(|seq| {
                    let at = rng.range(spread);
                    q.push(Entry::new(SimTime::from_ps(at), seq, ()));
                    (at, seq)
                })
                .collect();
            reference.sort_unstable();
            let mut popped = Vec::new();
            loop {
                let batch = pop_keys(&mut q);
                let Some(&(at, _)) = batch.first() else {
                    break;
                };
                assert!(batch.iter().all(|k| k.0 == at));
                assert!(batch.windows(2).all(|w| w[0].1 < w[1].1));
                popped.extend(batch);
                // Whole ties: nothing at this instant is left behind.
                assert!(reference[popped.len()..].iter().all(|k| k.0 != at));
            }
            assert_eq!(popped, reference);
        }
    }

    /// Instants uniform over nearly the whole u64 range, so entries file
    /// into the top levels and every pop refiles through most of them:
    /// order must stay exact.
    #[test]
    fn near_u64_wide_spread_pops_in_order() {
        let mut q: RadixQueue<()> = RadixQueue::new();
        let mut rng = SimRng::new(9);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        for seq in 0..10_000u64 {
            let at = rng.range(u64::MAX >> 20) * 1_048_576;
            q.push(Entry::new(SimTime::from_ps(at), seq, ()));
            reference.push((at, seq));
        }
        reference.sort_unstable();
        let mut popped = Vec::new();
        loop {
            let batch = pop_keys(&mut q);
            if batch.is_empty() {
                break;
            }
            popped.extend(batch);
        }
        assert_eq!(popped, reference);
    }

    #[test]
    fn front_tracks_minimum() {
        let mut q: RadixQueue<u32> = RadixQueue::new();
        q.push(Entry::new(SimTime::from_ns(50), 0, 50));
        assert!(!q.front_after(50_000) && q.front_after(49_999));
        // A smaller instant becomes the front.
        q.push(Entry::new(SimTime::from_ns(10), 1, 10));
        assert!(!q.front_after(10_000) && q.front_after(9_999));
        assert_eq!(q.len(), 2);
        assert_eq!(pop_keys(&mut q), vec![(10_000, 1)]);
        assert!(!q.front_after(50_000) && q.front_after(49_999));
        assert_eq!(pop_keys(&mut q), vec![(50_000, 0)]);
        assert!(q.front_after(u64::MAX));
        assert!(pop_keys(&mut q).is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_ready_collects_whole_tie_in_seq_order() {
        let mut q: RadixQueue<u64> = RadixQueue::new();
        // Shuffled seqs at one instant, plus a stray after.
        for seq in [4u64, 1, 3, 0, 2] {
            q.push(Entry::new(SimTime::from_ns(7), 10 + seq, seq));
        }
        q.push(Entry::new(SimTime::from_ns(9), 20, 99));
        let mut extras = Vec::new();
        let Popped::Ready(first) = q.pop_ready(SimTime::from_ns(7), &mut extras) else {
            panic!("the tie is due at the deadline");
        };
        assert_eq!(first.item, 0);
        let items: Vec<u64> = extras.iter().map(|e| e.item).collect();
        assert_eq!(items, vec![1, 2, 3, 4]);
        assert_eq!(q.len(), 1);
        extras.clear();
        // The stray lies past the deadline: nothing is popped.
        assert!(matches!(
            q.pop_ready(SimTime::from_ns(8), &mut extras),
            Popped::Deadline
        ));
        assert_eq!(q.len(), 1);
        let Popped::Ready(last) = q.pop_ready(SimTime::MAX, &mut extras) else {
            panic!("one entry left");
        };
        assert_eq!(last.item, 99);
        assert!(extras.is_empty(), "singleton batch touches no vec");
        assert!(matches!(
            q.pop_ready(SimTime::MAX, &mut extras),
            Popped::Drained
        ));
    }

    /// The run loop's push-back after an undercut: entries returned at the
    /// instant just popped, and new ones sent there, pop next in seq
    /// order, ahead of a later entry that the pop refiled beside them.
    #[test]
    fn push_at_last_popped_instant_pops_next() {
        let mut q: RadixQueue<()> = RadixQueue::new();
        let t = 1_000_000;
        for (at, seq) in [(t, 0), (t, 1), (t, 2), (t + 64, 3), (t + 5_000_000, 4)] {
            q.push(Entry::new(SimTime::from_ps(at), seq, ()));
        }
        assert_eq!(pop_keys(&mut q), vec![(t, 0), (t, 1), (t, 2)]);
        // Delivering seq 0 sent seq 5 to the same instant, then an
        // undercut returned seqs 1 and 2.
        for seq in [5, 1, 2] {
            q.push(Entry::new(SimTime::from_ps(t), seq, ()));
        }
        assert_eq!(pop_keys(&mut q), vec![(t, 1), (t, 2), (t, 5)]);
        assert_eq!(pop_keys(&mut q), vec![(t + 64, 3)]);
        assert_eq!(pop_keys(&mut q), vec![(t + 5_000_000, 4)]);
    }

    /// A returned deadline moves nothing: the engine's clock advances to
    /// the deadline, and entries pushed from there up to the queued
    /// minimum pop before it.
    #[test]
    fn push_between_deadline_and_minimum_pops_first() {
        let mut q: RadixQueue<()> = RadixQueue::new();
        let (deadline, later) = (SimTime::from_us(10), SimTime::from_ms(1));
        q.push(Entry::new(SimTime::from_ns(3), 0, ()));
        assert_eq!(pop_keys(&mut q), vec![(3_000, 0)]);
        q.push(Entry::new(later, 1, ()));
        assert!(matches!(
            q.pop_ready(deadline, &mut Vec::new()),
            Popped::Deadline
        ));
        q.push(Entry::new(SimTime::from_us(500), 2, ()));
        q.push(Entry::new(deadline, 3, ()));
        assert_eq!(pop_keys(&mut q), vec![(deadline.as_ps(), 3)]);
        assert_eq!(pop_keys(&mut q), vec![(500_000_000, 2)]);
        assert_eq!(pop_keys(&mut q), vec![(later.as_ps(), 1)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "behind the last popped instant")]
    fn push_behind_last_popped_instant_panics() {
        let mut q: RadixQueue<()> = RadixQueue::new();
        q.push(Entry::new(SimTime::from_ns(5), 0, ()));
        pop_keys(&mut q);
        q.push(Entry::new(SimTime::from_ns(4), 1, ()));
    }

    #[test]
    fn far_future_jump_pops_in_order() {
        let mut q: RadixQueue<u32> = RadixQueue::new();
        q.push(Entry::new(SimTime::from_ns(1), 0, 1));
        q.push(Entry::new(SimTime::from_ms(500), 1, 2));
        assert_eq!(pop_keys(&mut q), vec![(1_000, 0)]);
        assert_eq!(pop_keys(&mut q), vec![(500_000_000_000, 1)]);
        assert!(pop_keys(&mut q).is_empty());
    }

    /// A queue that drains after a burst frees its slots and bucket
    /// heads, and works as before when events arrive again.
    #[test]
    fn drained_burst_frees_memory_and_queue_reuses() {
        let mut q: RadixQueue<u64> = RadixQueue::new();
        for seq in 0..200u64 {
            q.push(Entry::new(SimTime::from_ns(seq % 7), seq, seq));
        }
        while q.len() > 0 {
            pop_keys(&mut q);
        }
        assert_eq!((q.slots.capacity(), q.heads.len()), (0, 0));
        q.push(Entry::new(SimTime::from_ns(9), 200, 0));
        q.push(Entry::new(SimTime::from_ns(6), 201, 0));
        q.push(Entry::new(SimTime::from_us(3), 202, 0));
        assert_eq!(pop_keys(&mut q), vec![(6_000, 201)]);
        assert_eq!(pop_keys(&mut q), vec![(9_000, 200)]);
        assert_eq!(pop_keys(&mut q), vec![(3_000_000, 202)]);
    }

    #[test]
    fn len_counts_events_not_buckets() {
        let mut q: RadixQueue<u32> = RadixQueue::new();
        for seq in 0..100u64 {
            // All at one instant: one bucket, a hundred events.
            q.push(Entry::new(SimTime::from_ns(5), seq, 0));
        }
        assert_eq!(q.len(), 100);
    }

    #[test]
    fn key_roundtrips_time() {
        let e = Entry::new(SimTime::MAX, u64::MAX, ());
        assert_eq!(e.at(), SimTime::MAX);
        assert_eq!(e.seq(), u64::MAX);
        let e = Entry::new(SimTime::from_ps(123), 9, ());
        assert_eq!(e.at(), SimTime::from_ps(123));
        assert_eq!(e.seq(), 9);
    }
}
