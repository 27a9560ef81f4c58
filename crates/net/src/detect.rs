//! Heartbeat-driven failure detection.
//!
//! Every element of the fabric — workstation HIB and switch — keeps a
//! [`BeaconTable`]: the newest beacon sequence number it has heard from
//! every origin (a HIB's own entry counts its own beacons). Once per
//! beacon period it sends one [`CtrlMsg::Heartbeat`] digest of that
//! table on each attached link, gossip-style (van Renesse, Minsky &
//! Hayden), so liveness traffic is one frame per directed link per
//! period whatever the cluster size. Silence is observable *locally*: a
//! HIB watches every peer's entry advance, a switch watches per-port
//! digest arrivals, and each runs its own [`HeartbeatDetector`] — a
//! simplified phi-accrual detector in the spirit of Hayashibara et
//! al.: the suspicion threshold adapts to the *observed* inter-arrival
//! time (an EWMA), floored by a hard timeout so a freshly started
//! detector with no history is not trigger-happy.
//!
//! The detector is a pure function of (observation sequence, knobs):
//! it holds no RNG and is evaluated only at event-driven instants
//! (digest receipt or the observer's own beacon tick), so identical
//! seeds replay identical verdict sequences — the property the crash
//! campaign's bit-for-bit replay gate rests on.
//!
//! [`CtrlMsg::Heartbeat`]: tg_wire::CtrlMsg::Heartbeat

use std::rc::Rc;

use tg_sim::SimTime;

/// The one liveness configuration: every HIB and every switch beacons
/// every `heartbeat_every` and convicts a silent peer at
/// `max(peer_timeout, phi_factor × observed mean gap)`. A campaign tunes
/// it per run without rebuilding the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectParams {
    /// Beacon origination period.
    pub heartbeat_every: SimTime,
    /// Hard silence floor before a peer is suspected.
    pub peer_timeout: SimTime,
    /// Adaptive multiplier over the observed beacon gap (phi-accrual
    /// style); the effective threshold is the max of both.
    pub phi_factor: u32,
}

impl Default for DetectParams {
    /// The crash-campaign defaults: 20 µs beacons, 100 µs floor, φ = 8.
    fn default() -> Self {
        DetectParams {
            heartbeat_every: SimTime::from_us(20),
            peer_timeout: SimTime::from_us(100),
            phi_factor: 8,
        }
    }
}

impl DetectParams {
    /// Validates the parameter set: every duration must be positive, the
    /// phi multiplier non-zero, and the timeout must not be *inverted*
    /// (a `peer_timeout` at or below `heartbeat_every` convicts a healthy
    /// peer between two of its own beacons).
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_every.is_zero() {
            return Err("heartbeat_every must be positive".to_string());
        }
        if self.peer_timeout.is_zero() {
            return Err("peer_timeout must be positive".to_string());
        }
        if self.phi_factor == 0 {
            return Err("phi_factor must be positive".to_string());
        }
        if self.peer_timeout <= self.heartbeat_every {
            return Err(format!(
                "inverted timeouts: peer_timeout {:?} must exceed heartbeat_every {:?}",
                self.peer_timeout, self.heartbeat_every
            ));
        }
        Ok(())
    }
}

/// One liveness transition reported by [`HeartbeatDetector::check`] or
/// [`HeartbeatDetector::saw`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Liveness {
    /// The watched peer went silent past its suspicion threshold.
    Down,
    /// A previously-declared-dead peer's beacons resumed.
    Up,
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    /// Last beacon arrival (detector creation time until the first one).
    last_seen: SimTime,
    /// EWMA of the beacon inter-arrival gap, in picoseconds; 0 until
    /// two arrivals have been seen.
    mean_gap_ps: u64,
    /// Current verdict.
    down: bool,
}

impl Watch {
    fn new(now: SimTime) -> Self {
        Watch {
            last_seen: now,
            mean_gap_ps: 0,
            down: false,
        }
    }
}

/// A deterministic per-observer failure detector over a set of watched
/// keys (peer node ids at a HIB, port indexes at a switch).
///
/// `timeout` is the hard silence floor; `phi_factor` scales the
/// adaptive threshold: a peer is suspected when it has been silent for
/// `max(timeout, phi_factor * mean_gap)`.
///
/// Keys are small dense indexes, so the watches live in a `Vec` indexed
/// by key. [`HeartbeatDetector::check`] returns at once while `now` is
/// at or before a cached lower bound on the earliest deadline; only a
/// check past it sweeps the watches (and recomputes the bound).
#[derive(Clone, Debug)]
pub struct HeartbeatDetector {
    watches: Vec<Option<Watch>>,
    timeout: SimTime,
    phi_factor: u32,
    /// No live watch can cross its threshold at or before this instant.
    earliest: SimTime,
    /// Total down verdicts ever issued (monotone, for diagnostics).
    downs: u64,
    /// Total up transitions ever issued.
    ups: u64,
}

impl HeartbeatDetector {
    /// A detector with the given silence floor and phi multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `phi_factor == 0` (the adaptive threshold would be
    /// instant suspicion) or `timeout` is zero.
    pub(crate) fn new(timeout: SimTime, phi_factor: u32) -> Self {
        assert!(phi_factor > 0, "phi factor must be positive");
        assert!(timeout > SimTime::ZERO, "timeout floor must be positive");
        HeartbeatDetector {
            watches: Vec::new(),
            timeout,
            phi_factor,
            earliest: SimTime::MAX,
            downs: 0,
            ups: 0,
        }
    }

    /// The watch slot of `key`, created empty when out of range.
    fn slot(&mut self, key: u64) -> &mut Option<Watch> {
        let i = usize::try_from(key).expect("detector keys are dense indexes");
        if i >= self.watches.len() {
            self.watches.resize(i + 1, None);
        }
        &mut self.watches[i]
    }

    /// The watch of `key`, if tracked.
    fn watch(&self, key: u64) -> Option<&Watch> {
        self.watches.get(usize::try_from(key).ok()?)?.as_ref()
    }

    /// Starts watching `key`, with the silence clock starting at `now`.
    /// Re-tracking an existing key is a no-op (the history is kept).
    pub fn track(&mut self, key: u64, now: SimTime) {
        let w = *self.slot(key).get_or_insert(Watch::new(now));
        self.lower_earliest(&w);
    }

    /// Records a beacon from `key` at `now`. Auto-tracks unknown keys.
    /// Returns `Some(Liveness::Up)` when this beacon revives a peer
    /// previously declared down.
    pub fn saw(&mut self, key: u64, now: SimTime) -> Option<Liveness> {
        self.saw_many(key, now, 1)
    }

    /// Records `n` (at least one) beacons from `key` arriving together at
    /// `now`, as if spread evenly over the silence since the last one: the
    /// gap EWMA takes `n` steps of a `1/n` share of that silence each. A
    /// switch port counts every origin a digest advanced this way, so it
    /// learns the same mean gap as from one frame per origin. Returns
    /// `Some(Liveness::Up)` when this revives a peer declared down.
    pub(crate) fn saw_many(&mut self, key: u64, now: SimTime, n: u32) -> Option<Liveness> {
        let n = n.max(1);
        let w = self.slot(key).get_or_insert(Watch::new(now));
        let gap = now.saturating_sub(w.last_seen).as_ps() / u64::from(n);
        if gap > 0 {
            for _ in 0..n {
                // EWMA with alpha = 1/4: slow enough to ride out jitter,
                // fast enough to adapt within a few beacons.
                w.mean_gap_ps = if w.mean_gap_ps == 0 {
                    gap
                } else {
                    (3 * w.mean_gap_ps + gap) / 4
                };
            }
        }
        w.last_seen = now;
        let revived = std::mem::replace(&mut w.down, false);
        let w = *w;
        self.lower_earliest(&w);
        if revived {
            self.ups += 1;
            return Some(Liveness::Up);
        }
        None
    }

    /// Lowers the cached earliest deadline to `w`'s, if that is earlier.
    fn lower_earliest(&mut self, w: &Watch) {
        if let Some(at) = self.deadline_of(w) {
            self.earliest = self.earliest.min(at);
        }
    }

    /// The silence duration after which a watch is suspected.
    fn threshold(&self, w: &Watch) -> u64 {
        let adaptive = w.mean_gap_ps.saturating_mul(u64::from(self.phi_factor));
        adaptive.max(self.timeout.as_ps())
    }

    /// The instant a live watch's silence crosses its threshold.
    fn deadline_of(&self, w: &Watch) -> Option<SimTime> {
        (!w.down).then(|| {
            let at = w.last_seen.as_ps().saturating_add(self.threshold(w));
            SimTime::from_ps(at)
        })
    }

    /// Sweeps every watch for silence at `now`, returning the keys that
    /// just crossed their suspicion threshold (ascending key order).
    /// Returns at once, without a sweep, while `now` is at or before the
    /// cached earliest deadline.
    pub fn check(&mut self, now: SimTime) -> Vec<u64> {
        let mut newly_down = Vec::new();
        if now <= self.earliest {
            return newly_down;
        }
        let mut earliest = SimTime::MAX;
        for key in 0..self.watches.len() {
            let Some(w) = self.watches[key] else {
                continue;
            };
            let Some(at) = self.deadline_of(&w) else {
                continue;
            };
            if now > at {
                self.watches[key] = Some(Watch { down: true, ..w });
                self.downs += 1;
                newly_down.push(key as u64);
            } else {
                earliest = earliest.min(at);
            }
        }
        self.earliest = earliest;
        newly_down
    }

    /// Current verdict for `key` (`false` for untracked keys).
    pub fn is_down(&self, key: u64) -> bool {
        self.watch(key).is_some_and(|w| w.down)
    }

    /// (down verdicts, up transitions) issued over the detector's life.
    pub(crate) fn transition_counts(&self) -> (u64, u64) {
        (self.downs, self.ups)
    }
}

/// The newest beacon sequence number an element has heard from every
/// origin (indexed by node; 0 means never heard), and the snapshot of it
/// that its digest frames share.
///
/// The snapshot is refreshed in place once per beacon period: the frames
/// of the previous period have landed by then, so the refresh reuses the
/// same allocation and a digest frame costs none.
#[derive(Clone, Debug)]
pub struct BeaconTable {
    newest: Vec<u64>,
    snapshot: Rc<[u64]>,
}

impl BeaconTable {
    /// A table for `origins` nodes, none heard yet.
    pub(crate) fn new(origins: usize) -> Self {
        BeaconTable {
            newest: vec![0; origins],
            snapshot: Rc::from(vec![0; origins]),
        }
    }

    /// Records `origin`'s own beacon number (a HIB stamping itself).
    pub fn set(&mut self, origin: usize, seq: u64) {
        self.newest[origin] = seq;
    }

    /// Merges a received digest, calling `advanced` with every origin
    /// whose newest number it raised, in ascending order; returns how
    /// many there were. Entries beyond this table's origins are ignored.
    pub fn merge(&mut self, digest: &[u64], mut advanced: impl FnMut(usize)) -> u32 {
        let mut n = 0;
        for (origin, (mine, &theirs)) in self.newest.iter_mut().zip(digest).enumerate() {
            if theirs > *mine {
                *mine = theirs;
                n += 1;
                advanced(origin);
            }
        }
        n
    }

    /// The digest to send now: the shared snapshot, refreshed from the
    /// table.
    pub fn digest(&mut self) -> Rc<[u64]> {
        match Rc::get_mut(&mut self.snapshot) {
            Some(snap) => snap.copy_from_slice(&self.newest),
            // A frame of an earlier period still holds the snapshot.
            None => self.snapshot = Rc::from(self.newest.as_slice()),
        }
        Rc::clone(&self.snapshot)
    }
}

/// One element's liveness state once it beacons: the period, the
/// [`BeaconTable`] its digests carry and the [`HeartbeatDetector`] fed by
/// the digests it hears. HIBs and switches hold one each; what a digest
/// means stays each element's own rule (one observation per advanced
/// origin at a HIB, one per port at a switch).
#[derive(Clone, Debug)]
pub struct Beacons {
    /// The beacon period; `None` once beacons stop, so the next tick
    /// does not rearm. The table and the detector's verdicts stay.
    pub every: Option<SimTime>,
    /// Newest beacon number heard per origin.
    pub table: BeaconTable,
    /// The failure detector over digest arrivals.
    pub detector: HeartbeatDetector,
}

impl Beacons {
    /// Starts beacons in `slot` from `params` over `origins` origins,
    /// unless they already run there. Returns the fresh state (for the
    /// element to watch its peers and schedule its first tick), or
    /// `None` when a beacon chain already runs: an element never runs
    /// two. A stopped state is replaced.
    pub fn start<'a>(
        slot: &'a mut Option<Box<Beacons>>,
        params: &DetectParams,
        origins: usize,
    ) -> Option<&'a mut Beacons> {
        if slot.as_ref().is_some_and(|b| b.every.is_some()) {
            return None;
        }
        let beacons = slot.insert(Box::new(Beacons {
            every: Some(params.heartbeat_every),
            table: BeaconTable::new(origins),
            detector: HeartbeatDetector::new(params.peer_timeout, params.phi_factor),
        }));
        Some(beacons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> HeartbeatDetector {
        HeartbeatDetector::new(SimTime::from_us(100), 8)
    }

    #[test]
    fn silence_past_the_floor_is_down_and_beacons_revive() {
        let mut d = det();
        d.track(1, SimTime::ZERO);
        assert!(d.check(SimTime::from_us(100)).is_empty(), "floor inclusive");
        assert_eq!(d.check(SimTime::from_us(101)), vec![1]);
        assert!(d.is_down(1));
        // Re-checking an already-down key issues no duplicate verdict.
        assert!(d.check(SimTime::from_us(500)).is_empty());
        assert_eq!(d.saw(1, SimTime::from_us(600)), Some(Liveness::Up));
        assert!(!d.is_down(1));
        assert_eq!(d.transition_counts(), (1, 1));
    }

    #[test]
    fn threshold_adapts_to_observed_gap() {
        let mut d = det();
        // Beacons every 50us: after the EWMA settles, the threshold is
        // 8 * 50us = 400us, above the 100us floor.
        let mut t = SimTime::ZERO;
        for _ in 0..16 {
            t += SimTime::from_us(50);
            assert_eq!(d.saw(1, t), None);
        }
        assert!(
            d.check(t + SimTime::from_us(300)).is_empty(),
            "within 8x the observed gap"
        );
        assert_eq!(d.check(t + SimTime::from_us(401)), vec![1]);
    }

    #[test]
    fn verdicts_come_in_deterministic_key_order() {
        let mut d = det();
        for k in [9, 2, 5] {
            d.track(k, SimTime::ZERO);
        }
        assert_eq!(d.check(SimTime::from_ms(1)), vec![2, 5, 9]);
    }

    #[test]
    fn detect_params_default_is_valid() {
        let p = DetectParams::default();
        assert!(p.validate().is_ok());
        assert_eq!(p.heartbeat_every, SimTime::from_us(20));
        assert_eq!(p.peer_timeout, SimTime::from_us(100));
        assert_eq!(p.phi_factor, 8);
    }

    #[test]
    fn detect_params_validation_rejects_zero_and_inverted_timeouts() {
        let zero_beat = DetectParams {
            heartbeat_every: SimTime::ZERO,
            ..DetectParams::default()
        };
        assert!(zero_beat.validate().is_err(), "zero beacon period accepted");
        let zero_timeout = DetectParams {
            peer_timeout: SimTime::ZERO,
            ..DetectParams::default()
        };
        assert!(zero_timeout.validate().is_err(), "zero timeout accepted");
        let zero_phi = DetectParams {
            phi_factor: 0,
            ..DetectParams::default()
        };
        assert!(zero_phi.validate().is_err(), "zero phi accepted");
        let inverted = DetectParams {
            heartbeat_every: SimTime::from_us(100),
            peer_timeout: SimTime::from_us(50),
            phi_factor: 8,
        };
        let err = inverted.validate().expect_err("inverted timeouts accepted");
        assert!(err.contains("inverted"), "unexpected message: {err}");
    }

    /// The detector as it was before the cached deadline: a sweep of
    /// every watch on every check, over a map of watches.
    struct Sweeping {
        watches: std::collections::BTreeMap<u64, Watch>,
        timeout: u64,
        phi: u64,
    }

    impl Sweeping {
        fn saw_many(&mut self, key: u64, now: SimTime, n: u32) -> Option<Liveness> {
            let w = self.watches.entry(key).or_insert(Watch::new(now));
            let gap = now.saturating_sub(w.last_seen).as_ps() / u64::from(n);
            if gap > 0 {
                for _ in 0..n {
                    w.mean_gap_ps = if w.mean_gap_ps == 0 {
                        gap
                    } else {
                        (3 * w.mean_gap_ps + gap) / 4
                    };
                }
            }
            w.last_seen = now;
            std::mem::replace(&mut w.down, false).then_some(Liveness::Up)
        }

        fn check(&mut self, now: SimTime) -> Vec<u64> {
            let mut out = Vec::new();
            for (&k, w) in self.watches.iter_mut() {
                let silent = now.saturating_sub(w.last_seen).as_ps();
                if !w.down && silent > (w.mean_gap_ps * self.phi).max(self.timeout) {
                    w.down = true;
                    out.push(k);
                }
            }
            out
        }
    }

    /// Model test: over random track / saw / check sequences
    /// with a non-decreasing clock, the cached-deadline detector issues
    /// exactly the verdicts of the sweeping one.
    #[test]
    fn cached_deadline_matches_the_sweeping_detector() {
        let mut rng = tg_sim::SimRng::new(0x00DE_7EC7);
        for _ in 0..200 {
            let mut fast = det();
            let mut slow = Sweeping {
                watches: Default::default(),
                timeout: SimTime::from_us(100).as_ps(),
                phi: 8,
            };
            let mut now = SimTime::ZERO;
            for _ in 0..300 {
                now += SimTime::from_ns(rng.range(40_000));
                let key = rng.range(6);
                match rng.range(10) {
                    0..=1 => {
                        fast.track(key, now);
                        slow.watches.entry(key).or_insert(Watch::new(now));
                    }
                    2..=5 => {
                        let n = 1 + rng.range(4) as u32;
                        assert_eq!(fast.saw_many(key, now, n), slow.saw_many(key, now, n));
                    }
                    _ => assert_eq!(fast.check(now), slow.check(now), "at {now:?}"),
                }
                for k in 0..6 {
                    let down = slow.watches.get(&k).is_some_and(|w| w.down);
                    assert_eq!(fast.is_down(k), down, "key {k} at {now:?}");
                }
            }
        }
    }

    #[test]
    fn many_observations_learn_the_per_frame_gap() {
        let mut d = det();
        let mut t = SimTime::ZERO;
        d.saw(1, t);
        for _ in 0..16 {
            t += SimTime::from_us(20);
            d.saw_many(1, t, 4);
        }
        // Four origins per 20us digest: a 5us mean gap, so the 100us
        // floor governs, as it did with one frame per origin.
        assert!(d.check(t + SimTime::from_us(100)).is_empty());
        assert_eq!(d.check(t + SimTime::from_us(101)), vec![1]);
    }

    #[test]
    fn beacon_table_merges_and_shares_its_snapshot() {
        let mut t = BeaconTable::new(4);
        t.set(0, 5);
        let mut seen = Vec::new();
        assert_eq!(t.merge(&[3, 2, 0, 7], |o| seen.push(o)), 2);
        assert_eq!(seen, vec![1, 3]);
        let digest = t.digest();
        assert_eq!(&*digest, &[5, 2, 0, 7]);
        assert_eq!(t.merge(&digest, |_| panic!("an echo advances nothing")), 0);
        drop(digest);
        t.set(0, 6);
        let before = Rc::as_ptr(&t.snapshot);
        assert_eq!(&*t.digest(), &[6, 2, 0, 7]);
        assert_eq!(Rc::as_ptr(&t.snapshot), before, "refreshed in place");
    }
}
