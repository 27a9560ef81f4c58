//! The engine's event queue: a bucketed calendar queue for the dense
//! short-horizon event mix.
//!
//! The engine's workloads schedule almost every event within a few hundred
//! nanoseconds of `now` (link serialization, switch latency, credit
//! returns), so the pending set lives in a narrow sliding window of time.
//! A calendar queue [Brown 1988] exploits that: events hash by delivery
//! "day" (`at >> width_shift`) into a power-of-two array of buckets, making
//! `push` an append and `pop` a short scan near the cursor — no per-level
//! sift moves of the (large) event payload.
//!
//! Exactness: the engine's delivery contract is strict `(at, seq)` order.
//! The queue compares full packed keys (see [`Entry`]) when selecting a
//! minimum, so pop order is exact whatever the geometry; the model-check
//! tests below pin it against a plain sorted reference.
//!
//! The cached front entry makes the deadline check O(1), and
//! [`CalendarQueue::pop_ready`] drains a whole same-instant tie in one
//! bucket scan.
//!
//! Geometry: a calendar queue slows down when the bucket geometry stops
//! matching the event distribution (e.g. a dense cluster plus a handful of
//! far-future timers landing in one bucket). Width and bucket count adapt
//! on resize, and the queue keeps a scan-cost estimate; a window whose
//! average scan is too long triggers a corrective resize (see DESIGN.md
//! §7). A bad geometry costs scans, never order.

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

    /// The delivery instant as raw picoseconds (the bucket hash works on
    /// this).
    pub(crate) fn at_ps(&self) -> u64 {
        (self.key >> 64) as u64
    }
}

/// Result of [`CalendarQueue::pop_ready`]: the run loop's deadline check,
/// pop and same-instant batch collection fused into one call.
pub(crate) enum Popped<T> {
    /// The queue is empty.
    Drained,
    /// The next event lies past the deadline; nothing was popped.
    Deadline,
    /// The minimum entry; same-instant ties were appended to `extras`.
    Ready(Entry<T>),
}

/// Minimum / maximum bucket-array sizes (powers of two).
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 14;
/// Bucket-width bounds: 2^6 ps = 64 ps keeps same-nanosecond ties in one
/// bucket; 2^40 ps ≈ 1.1 s covers any timer horizon in the repository.
const MIN_WIDTH_SHIFT: u32 = 6;
const MAX_WIDTH_SHIFT: u32 = 40;
/// Default bucket width before the first resize: 2^13 ps ≈ 8 ns, the
/// order of the calibrated link hop.
const DEFAULT_WIDTH_SHIFT: u32 = 13;

/// Scan-cost window: after this many popped entries the average
/// entries-scanned-per-pop is evaluated.
const TUNE_WINDOW: u64 = 4096;
/// Average scanned entries per pop above which a window triggers a
/// corrective resize — the geometry is re-derived from the live contents
/// (span / len), which fixes e.g. a small far-horizon timer mix that the
/// default width spreads across several wraps of the bucket array.
const TUNE_SCAN_LIMIT: u64 = 4;

/// A bucketed calendar queue with exact `(at, seq)` pop order.
#[derive(Clone, Debug)]
pub(crate) struct CalendarQueue<T> {
    /// Power-of-two bucket array; bucket `day & mask` holds entries of
    /// that delivery day (`at >> width_shift`), possibly several "years"
    /// (wraps of the array) apart.
    buckets: Vec<Vec<Entry<T>>>,
    /// `buckets.len() - 1`.
    mask: u64,
    /// log₂ of the bucket width in picoseconds.
    width_shift: u32,
    /// Cached minimum entry: the deadline check is O(1) and a pop hands
    /// it out without re-scanning.
    front: Option<Entry<T>>,
    /// Total entries, including the cached front.
    len: usize,
    /// The day the minimum search resumes from (the day of the last
    /// popped or currently cached minimum).
    cur_day: u64,
    /// Scan-cost estimate for the current window: entries + buckets
    /// visited, and entries popped.
    scanned: u64,
    pops: u64,
}

impl<T> CalendarQueue<T> {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width_shift: DEFAULT_WIDTH_SHIFT,
            front: None,
            len: 0,
            cur_day: 0,
            scanned: 0,
            pops: 0,
        }
    }

    /// Pending entries (events, not buckets).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is due at or before `ps`. O(1): the cached
    /// front is the minimum.
    #[inline]
    pub(crate) fn front_after(&self, ps: u64) -> bool {
        self.front.as_ref().is_none_or(|f| f.at_ps() > ps)
    }

    #[inline]
    pub(crate) fn push(&mut self, entry: Entry<T>) {
        self.len += 1;
        let day = entry.at_ps() >> self.width_shift;
        match &mut self.front {
            None => {
                // The cursor must not sit past the cached minimum.
                self.front = Some(entry);
                self.cur_day = day;
                return;
            }
            Some(f) if entry.key < f.key => {
                let old = std::mem::replace(f, entry);
                self.cur_day = day;
                self.insert(old);
            }
            _ => self.buckets[(day & self.mask) as usize].push(entry),
        }
        if self.len > self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            let target = (self.len.next_power_of_two()).clamp(MIN_BUCKETS, MAX_BUCKETS);
            self.resize(target);
        }
    }

    /// The run loop's whole per-event queue interaction: deadline check,
    /// pop of the minimum entry (returned), and collection of *every*
    /// other entry sharing its instant (appended to `extras` in ascending
    /// seq order). Nothing is popped on [`Popped::Drained`] /
    /// [`Popped::Deadline`]. A singleton batch (the common case) touches
    /// no `Vec` at all.
    ///
    /// Same-instant entries share a day and therefore live in exactly one
    /// bucket (plus the cached front), so the whole tie is extracted in a
    /// single scan instead of one min-search per event.
    #[inline]
    pub(crate) fn pop_ready(&mut self, deadline: SimTime, extras: &mut Vec<Entry<T>>) -> Popped<T> {
        let Some(f) = self.front.take_if(|f| f.at() <= deadline) else {
            return match self.front {
                None => Popped::Drained,
                Some(_) => Popped::Deadline,
            };
        };
        self.len -= 1;
        if self.len == 0 {
            // Singleton-queue fast path (ping-pong style workloads):
            // nothing to scan, nothing to refill; the stale cursor is
            // reset by the next push.
            return Popped::Ready(f);
        }
        let at = f.at_ps();
        self.cur_day = at >> self.width_shift;
        let bucket = &mut self.buckets[(self.cur_day & self.mask) as usize];
        let start = extras.len();
        let mut i = 0;
        while i < bucket.len() {
            if bucket[i].at_ps() == at {
                extras.push(bucket.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let n = extras.len() - start;
        self.len -= n;
        // swap_remove scrambles relative order; seq order is the contract.
        extras[start..].sort_unstable_by_key(|e| e.key);
        self.refill_front();
        self.note_pop(1 + n as u64);
        Popped::Ready(f)
    }

    #[inline]
    fn insert(&mut self, entry: Entry<T>) {
        let day = entry.at_ps() >> self.width_shift;
        self.buckets[(day & self.mask) as usize].push(entry);
    }

    /// Finds, removes and caches the minimum bucket entry. All entries
    /// have `day >= cur_day` (the engine never schedules into the past of
    /// the last pop), so scanning days ascending from the cursor finds the
    /// minimum day within one wrap of the array; ties within that day are
    /// resolved by full-key comparison. An empty wrap falls back to a
    /// direct whole-queue min search that also resyncs the cursor (the
    /// far-future-timer case).
    fn refill_front(&mut self) {
        if self.len == 0 {
            self.maybe_shrink();
            return;
        }
        let nb = self.buckets.len();
        let mut visited = 0u64;
        for day in self.cur_day..self.cur_day + nb as u64 {
            let bucket = &mut self.buckets[(day & self.mask) as usize];
            visited += 1;
            if !bucket.is_empty() {
                visited += bucket.len() as u64;
                let shift = self.width_shift;
                let mut best: Option<(usize, u128)> = None;
                for (j, e) in bucket.iter().enumerate() {
                    if e.at_ps() >> shift == day && best.is_none_or(|(_, k)| e.key < k) {
                        best = Some((j, e.key));
                    }
                }
                if let Some((j, _)) = best {
                    self.front = Some(bucket.swap_remove(j));
                    self.cur_day = day;
                    self.scanned += visited;
                    self.maybe_shrink();
                    return;
                }
            }
        }
        self.scanned += visited;
        self.direct_min();
        self.maybe_shrink();
    }

    /// O(n) min search over every bucket; used when a full wrap of the
    /// calendar is empty for the coming year. Resyncs the cursor to the
    /// found minimum so subsequent pops are local again.
    fn direct_min(&mut self) {
        debug_assert!(self.len > 0, "direct_min on an empty queue");
        let mut best: Option<(usize, usize, u128)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            self.scanned += bucket.len() as u64;
            for (j, e) in bucket.iter().enumerate() {
                if best.is_none_or(|(_, _, k)| e.key < k) {
                    best = Some((b, j, e.key));
                }
            }
        }
        let (b, j, _) = best.expect("len > 0 but no entry found");
        let e = self.buckets[b].swap_remove(j);
        self.cur_day = e.at_ps() >> self.width_shift;
        self.front = Some(e);
    }

    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.len * 4 < self.buckets.len() {
            let target = (self.len * 2)
                .next_power_of_two()
                .clamp(MIN_BUCKETS, MAX_BUCKETS);
            self.resize(target);
        }
    }

    /// Rebuilds the bucket array at `target` buckets, re-estimating the
    /// bucket width from the current contents: width ≈ span / len rounded
    /// to a power of two, so an average bucket-day holds about one entry.
    /// Deterministic — a pure function of the queue contents.
    fn resize(&mut self, target: usize) {
        let mut scratch: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            scratch.append(b);
        }
        let (mut min_at, mut max_at) = match &self.front {
            Some(f) => (f.at_ps(), f.at_ps()),
            None => (u64::MAX, 0),
        };
        for e in &scratch {
            min_at = min_at.min(e.at_ps());
            max_at = max_at.max(e.at_ps());
        }
        let total = (scratch.len() + usize::from(self.front.is_some())).max(1);
        let span = max_at.saturating_sub(min_at);
        let per = (span / total as u64).max(1);
        self.width_shift = (64 - per.leading_zeros()).clamp(MIN_WIDTH_SHIFT, MAX_WIDTH_SHIFT);
        if self.buckets.len() != target {
            self.buckets = (0..target).map(|_| Vec::new()).collect();
            self.mask = (target - 1) as u64;
        }
        self.cur_day = match &self.front {
            Some(f) => f.at_ps() >> self.width_shift,
            None => min_at >> self.width_shift,
        };
        for e in scratch {
            self.insert(e);
        }
    }

    /// Advances the scan-cost window by one pop serving `n` entries; a
    /// window averaging more than [`TUNE_SCAN_LIMIT`] scanned entries per
    /// pop re-derives width and bucket count from the live contents.
    /// Deterministic (a pure function of contents and pop count) and
    /// invisible to pop order, so traces are unaffected.
    #[inline]
    fn note_pop(&mut self, n: u64) {
        self.pops += n;
        if self.pops >= TUNE_WINDOW {
            if self.scanned / self.pops > TUNE_SCAN_LIMIT {
                let target = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
                self.resize(target);
            }
            self.scanned = 0;
            self.pops = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// Pops one same-instant batch through `pop_ready`, as `(at_ps, seq)`
    /// keys in delivery order; empty when the queue is drained.
    fn pop_keys<T>(q: &mut CalendarQueue<T>) -> Vec<(u64, u64)> {
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
    /// interleaved push/pop schedule of 2000 ops and asserts that every
    /// `pop_ready` batch is exactly the reference minimum followed by every
    /// other reference entry at its instant, in seq order. `spread`
    /// controls the instant distribution (small = dense duplicate
    /// instants, large = bucket-rollover and resize territory). The engine
    /// contract is enforced: pushes never go behind the last popped
    /// instant.
    fn check_against_reference(seed: u64, spread: u64) {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        let mut rng = SimRng::new(seed);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let check_pop = |q: &mut CalendarQueue<()>, reference: &mut Vec<(u64, u64)>| {
            let got = pop_keys(q);
            reference.sort_unstable();
            let at = reference[0].0;
            let tie = reference.iter().take_while(|k| k.0 == at).count();
            assert_eq!(got, reference[..tie]);
            reference.drain(..tie);
            at
        };
        for _ in 0..2000 {
            if rng.chance(0.6) || q.len() == 0 {
                let at = now + rng.range(spread.max(1));
                q.push(Entry::new(SimTime::from_ps(at), seq, ()));
                reference.push((at, seq));
                seq += 1;
            } else {
                now = check_pop(&mut q, &mut reference);
            }
            assert_eq!(q.len(), reference.len());
        }
        while q.len() > 0 {
            check_pop(&mut q, &mut reference);
        }
        assert!(reference.is_empty());
        assert!(pop_keys(&mut q).is_empty());
    }

    /// The distributions the property tests sweep: dense duplicate
    /// instants (50 ps window), sub-bucket ties, bucket-rollover strides
    /// (multiples of the default 8 ns width and the whole-calendar span),
    /// and wide spreads that force grow/shrink resizes.
    const SPREADS: [u64; 6] = [1, 50, 8_192, 131_072, 1 << 21, 1 << 40];

    #[test]
    fn calendar_matches_reference_across_distributions() {
        for (i, &spread) in SPREADS.iter().enumerate() {
            for seed in [7 + i as u64, 42 + i as u64, 1234] {
                check_against_reference(seed, spread);
            }
        }
    }

    /// Bulk-loaded ties drained batch by batch: every batch is a whole
    /// tie, led by its minimum and in ascending seq order, and the batches
    /// concatenate to the sorted reference.
    #[test]
    fn batch_pop_matches_reference() {
        for &spread in &SPREADS {
            let mut q: CalendarQueue<()> = CalendarQueue::new();
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

    /// Instants uniform over nearly the whole u64 range, so even the
    /// widest bucket geometry leaves huge empty-day gaps between events
    /// and pops keep falling back to the direct min search: order must
    /// stay exact.
    #[test]
    fn near_u64_wide_spread_pops_in_order() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
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
    fn front_slot_tracks_minimum() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Entry::new(SimTime::from_ns(50), 0, 50));
        assert_eq!(q.front.as_ref().unwrap().item, 50);
        // A smaller key displaces the cached front.
        q.push(Entry::new(SimTime::from_ns(10), 1, 10));
        assert_eq!(q.front.as_ref().unwrap().item, 10);
        assert_eq!(q.len(), 2);
        assert_eq!(pop_keys(&mut q), vec![(10_000, 1)]);
        assert_eq!(pop_keys(&mut q), vec![(50_000, 0)]);
        assert!(pop_keys(&mut q).is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_ready_collects_whole_tie_in_seq_order() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
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

    #[test]
    fn far_future_jump_resyncs_cursor() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(Entry::new(SimTime::from_ns(1), 0, 1));
        // Several "years" past the whole calendar at default geometry.
        q.push(Entry::new(SimTime::from_ms(500), 1, 2));
        assert_eq!(pop_keys(&mut q), vec![(1_000, 0)]);
        assert_eq!(pop_keys(&mut q), vec![(500_000_000_000, 1)]);
        assert!(pop_keys(&mut q).is_empty());
    }

    #[test]
    fn grow_and_shrink_preserve_order() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        // Enough entries to force growth past MIN_BUCKETS * 2.
        let mut keys: Vec<(u64, u64)> = Vec::new();
        let mut rng = SimRng::new(99);
        for seq in 0..500u64 {
            let at = rng.range(1_000_000);
            q.push(Entry::new(SimTime::from_ps(at), seq, seq));
            keys.push((at, seq));
        }
        assert!(q.buckets.len() > MIN_BUCKETS, "growth expected");
        keys.sort_unstable();
        // Draining shrinks the array back down.
        let mut popped = Vec::new();
        while q.len() > 0 {
            popped.extend(pop_keys(&mut q));
        }
        assert_eq!(q.buckets.len(), MIN_BUCKETS, "shrink expected");
        assert_eq!(popped, keys);
    }

    #[test]
    fn len_counts_events_not_buckets() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
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
