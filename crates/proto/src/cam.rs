//! The pending-write counter cache (§2.3.3–2.3.4).

use std::collections::HashMap;

/// The content-addressable cache of pending-write counters.
///
/// The protocol needs a counter per memory word that has writes "in flight"
/// to the page owner; §2.3.4 observes that only the *non-zero* counters
/// matter, so a small CAM (the paper expects 16–32 entries) suffices. When
/// the CAM is full a new first-write must stall the processor until a
/// reflected write frees an entry — [`PendingCam::try_increment`] reports
/// that case and the stall statistics feed experiment E7.
///
/// Keys are word indices (local word address); the CAM does not interpret
/// them.
///
/// # Example
///
/// ```
/// use tg_proto::PendingCam;
/// let mut cam = PendingCam::new(2);
/// assert!(cam.try_increment(10));
/// assert!(cam.try_increment(10)); // same word: same entry
/// assert!(cam.try_increment(20));
/// assert!(!cam.try_increment(30)); // full: processor must stall
/// cam.decrement(10);
/// assert!(cam.is_pending(10)); // one write to word 10 still pending
/// cam.decrement(10); // entry freed
/// assert!(cam.try_increment(30));
/// ```
#[derive(Clone, Debug)]
pub struct PendingCam {
    entries: HashMap<u64, u32>,
    capacity: usize,
    high_water: usize,
    stall_events: u64,
    increments: u64,
}

impl PendingCam {
    /// A CAM with `capacity` simultaneous non-zero counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CAM needs at least one entry");
        PendingCam {
            entries: HashMap::new(),
            capacity,
            high_water: 0,
            stall_events: 0,
            increments: 0,
        }
    }

    /// Records one pending write to `key`. Returns `false` — and counts a
    /// stall event — if a new entry was needed but the CAM is full; the
    /// caller must stall and retry after the next [`decrement`].
    ///
    /// [`decrement`]: PendingCam::decrement
    pub fn try_increment(&mut self, key: u64) -> bool {
        if let Some(c) = self.entries.get_mut(&key) {
            *c += 1;
            self.increments += 1;
            return true;
        }
        if self.entries.len() >= self.capacity {
            self.stall_events += 1;
            return false;
        }
        self.entries.insert(key, 1);
        self.high_water = self.high_water.max(self.entries.len());
        self.increments += 1;
        true
    }

    /// Consumes one pending write on `key` (its reflected write arrived).
    /// Zero-valued entries are evicted, freeing CAM space.
    ///
    /// # Panics
    ///
    /// Panics if `key` has no pending writes — the owner reflected a write
    /// we never sent, which is a protocol bug.
    pub fn decrement(&mut self, key: u64) {
        let c = self
            .entries
            .get_mut(&key)
            .expect("reflected write without a pending counter");
        *c -= 1;
        if *c == 0 {
            self.entries.remove(&key);
        }
    }

    /// True if `key` has pending writes (the filter test of rule 3).
    pub fn is_pending(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Non-zero counters currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entry capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when no writes are pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Most simultaneous entries ever held (experiment E7's key statistic).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Times a write had to stall for a free entry.
    pub fn stall_events(&self) -> u64 {
        self.stall_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_key() {
        let mut cam = PendingCam::new(4);
        assert!(!cam.is_pending(1));
        assert!(cam.try_increment(1));
        assert!(cam.try_increment(1));
        assert!(cam.try_increment(2));
        assert_eq!(cam.len(), 2);
        cam.decrement(1);
        assert!(cam.is_pending(1), "one of two writes still pending");
        cam.decrement(1);
        assert!(!cam.is_pending(1));
        assert!(cam.is_pending(2));
    }

    #[test]
    fn zero_entries_are_evicted() {
        let mut cam = PendingCam::new(1);
        assert!(cam.try_increment(5));
        cam.decrement(5);
        assert_eq!(cam.len(), 0);
        assert!(!cam.is_pending(5));
        assert!(cam.try_increment(6), "slot was reclaimed");
    }

    #[test]
    fn full_cam_reports_stall() {
        let mut cam = PendingCam::new(2);
        assert!(cam.try_increment(1));
        assert!(cam.try_increment(2));
        assert!(!cam.try_increment(3));
        assert_eq!(cam.stall_events(), 1);
        // Existing keys still work while full.
        assert!(cam.try_increment(1));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut cam = PendingCam::new(8);
        for k in 0..5 {
            assert!(cam.try_increment(k));
        }
        for k in 0..5 {
            cam.decrement(k);
        }
        assert_eq!(cam.high_water(), 5);
        assert_eq!(cam.len(), 0);
    }

    #[test]
    #[should_panic(expected = "without a pending counter")]
    fn spurious_reflection_is_a_bug() {
        let mut cam = PendingCam::new(2);
        cam.decrement(9);
    }
}
