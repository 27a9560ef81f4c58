//! Heartbeat-driven failure detection, by exception.
//!
//! Every port of every fabric element (workstation HIB and switch)
//! watches one peer: its neighbour across the link. Any frame the port
//! receives is evidence that the neighbour lives: data, ack, credit or
//! keepalive, including the acks and credits the engine absorbs instead
//! of delivering (the owner feeds the detector at their arrival instant).
//! A link that carries traffic therefore needs no liveness frame; a port
//! sends a [`CtrlMsg::Keepalive`] only after a whole beacon period in
//! which it launched nothing ([`Beacons::keep_alive`]). Each element
//! keeps one tick per period, which sends those keepalives and sweeps
//! its [`HeartbeatDetector`]: a simplified phi-accrual detector in the
//! spirit of Hayashibara et al.
//!
//! A live neighbour is heard at least once per period, so the detector
//! learns how *late* its evidence runs beyond that (an EWMA of each
//! gap's excess over the period) and suspects it after
//! `max(peer_timeout, phi_factor × mean lateness)` of silence. A link
//! that is busy, or idle and kept alive on time, shows no lateness, so
//! the `peer_timeout` floor governs; a freshly started detector with no
//! history is not trigger-happy either.
//!
//! Verdicts travel as news: a switch port that convicts or re-admits its
//! neighbour floods one [`CtrlMsg::Notice`] over the surviving tree, and
//! a HIB convicts the far peers it names (see `Switch` and `Hib`).
//!
//! The detector is a pure function of (observation sequence, knobs):
//! it holds no RNG and is evaluated only at the element's own ticks, so
//! identical seeds replay identical verdict sequences — the property the
//! crash campaign's bit-for-bit replay gate rests on.
//!
//! [`CtrlMsg::Keepalive`]: tg_wire::CtrlMsg::Keepalive
//! [`CtrlMsg::Notice`]: tg_wire::CtrlMsg::Notice

use std::cell::Cell;
use std::rc::Rc;

use tg_sim::SimTime;
use tg_wire::CtrlMsg;

use crate::end::{LinkCtx, LinkEnd};

/// The one liveness configuration: every HIB and every switch ticks
/// every `heartbeat_every`, sends a keepalive on each link that was idle
/// for that long, and convicts a silent neighbour at
/// `max(peer_timeout, phi_factor × mean lateness)`. A campaign tunes it
/// per run without rebuilding the cluster.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DetectParams {
    /// Tick period, and the idle time after which a link gets a
    /// keepalive.
    pub heartbeat_every: SimTime,
    /// Hard silence floor before a peer is suspected.
    pub peer_timeout: SimTime,
    /// Adaptive multiplier over the observed lateness of the evidence
    /// (phi-accrual style); the effective threshold is the max of both.
    pub phi_factor: u32,
}

impl Default for DetectParams {
    /// The crash-campaign defaults: 20 µs ticks, 100 µs floor, φ = 8.
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
    /// but idle peer between two of its keepalives).
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
    /// A previously-declared-dead peer was heard again.
    Up,
}

#[derive(Clone, Copy, Debug)]
struct Watch {
    /// Last evidence (detector creation time until the first).
    last_seen: SimTime,
    /// EWMA of how far each evidence gap exceeded the tick period, in
    /// picoseconds.
    mean_late_ps: u64,
    /// Current verdict.
    down: bool,
}

impl Watch {
    fn new(now: SimTime) -> Self {
        Watch {
            last_seen: now,
            mean_late_ps: 0,
            down: false,
        }
    }
}

/// A deterministic per-observer failure detector over a set of watched
/// keys (port indexes).
///
/// `timeout` is the hard silence floor; `phi_factor` scales the
/// adaptive threshold: a peer is suspected when it has been silent for
/// `max(timeout, phi_factor * mean_lateness)`, where lateness is how far
/// an evidence gap exceeded the keepalive period `every`.
///
/// Keys are small dense indexes, so the watches live in a `Vec` indexed
/// by key. [`HeartbeatDetector::check`] returns at once while `now` is
/// at or before a cached lower bound on the earliest deadline; only a
/// check past it sweeps the watches (and recomputes the bound).
#[derive(Clone, Debug)]
pub struct HeartbeatDetector {
    watches: Vec<Option<Watch>>,
    every: SimTime,
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
    /// A detector with the keepalive period, silence floor and phi
    /// multiplier of `params`.
    ///
    /// # Panics
    ///
    /// Panics if `phi_factor == 0` (the adaptive threshold would be
    /// instant suspicion) or the timeout is zero.
    pub(crate) fn new(params: &DetectParams) -> Self {
        assert!(params.phi_factor > 0, "phi factor must be positive");
        assert!(
            params.peer_timeout > SimTime::ZERO,
            "timeout floor must be positive"
        );
        HeartbeatDetector {
            watches: Vec::new(),
            every: params.heartbeat_every,
            timeout: params.peer_timeout,
            phi_factor: params.phi_factor,
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

    /// Records evidence from `key` at `now`. Auto-tracks unknown keys.
    /// Returns `Some(Liveness::Up)` when this evidence revives a peer
    /// previously declared down.
    pub fn saw(&mut self, key: u64, now: SimTime) -> Option<Liveness> {
        let every = self.every;
        let w = self.slot(key).get_or_insert(Watch::new(now));
        let late = now.saturating_sub(w.last_seen).saturating_sub(every);
        // EWMA with alpha = 1/4: slow enough to ride out jitter, fast
        // enough to adapt within a few gaps.
        w.mean_late_ps = (3 * w.mean_late_ps + late.as_ps()) / 4;
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
        let adaptive = w.mean_late_ps.saturating_mul(u64::from(self.phi_factor));
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

    /// The instant after which [`HeartbeatDetector::check`] would first
    /// convict, when that falls before `before`. Refreshes the cached
    /// bound first, which evidence only ever lowers.
    pub(crate) fn deadline_before(&mut self, before: SimTime) -> Option<SimTime> {
        if self.earliest >= before {
            return None;
        }
        let deadlines = self.watches.iter().flatten();
        let earliest = deadlines.filter_map(|w| self.deadline_of(w)).min();
        self.earliest = earliest.unwrap_or(SimTime::MAX);
        earliest.filter(|&at| at < before)
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

/// One element's liveness state once it ticks: the period, the
/// [`HeartbeatDetector`] over its ports' neighbours, each port's wire log
/// as the last tick left it, and the element's own state `S` (a board's
/// peer verdicts, a switch's notice flood). HIBs and switches hold one
/// each, boxed, so an element without liveness carries one pointer.
#[derive(Clone, Debug)]
pub struct Beacons<S> {
    /// The tick period.
    period: SimTime,
    /// The liveness switch every element of one run shares: ticks rearm
    /// while it is on. Turning it off stops them all without reaching any
    /// element; the detectors' verdicts stay.
    on: Rc<Cell<bool>>,
    /// The failure detector, one watch per port.
    pub detector: HeartbeatDetector,
    /// Per port, [`LinkEnd::wire_log`] after the last tick (`None`
    /// before the first): a log that has not moved since means the port
    /// launched nothing for a whole period.
    logs: Vec<Option<u64>>,
    /// What only this kind of element keeps.
    pub state: S,
}

impl<S: Default> Beacons<S> {
    /// Starts liveness in `slot` from `params`, ticking while `on` is
    /// set, unless it already runs there. Returns the fresh state (for
    /// the element to watch its ports and schedule its first tick), or
    /// `None` when ticks already run: an element never runs two chains.
    /// A stopped state is replaced.
    pub fn start<'a>(
        slot: &'a mut Option<Box<Beacons<S>>>,
        params: &DetectParams,
        on: &Rc<Cell<bool>>,
    ) -> Option<&'a mut Beacons<S>> {
        if slot.as_ref().is_some_and(|b| b.every().is_some()) {
            return None;
        }
        let beacons = slot.insert(Box::new(Beacons {
            period: params.heartbeat_every,
            on: on.clone(),
            detector: HeartbeatDetector::new(params),
            logs: Vec::new(),
            state: S::default(),
        }));
        Some(beacons)
    }
}

impl<S> Beacons<S> {
    /// The tick period while ticks run; `None` once the liveness switch
    /// is off, so the next tick does not rearm.
    pub fn every(&self) -> Option<SimTime> {
        self.on.get().then_some(self.period)
    }

    /// The tick's work for port `port`: sends a keepalive on `end` after
    /// `delay` if the port launched nothing since the last tick, then
    /// remembers the port's wire log for the next one. Returns whether
    /// it sent a keepalive.
    pub fn keep_alive<C: LinkCtx + ?Sized>(
        &mut self,
        port: usize,
        end: &mut LinkEnd,
        delay: SimTime,
        ctx: &mut C,
    ) -> bool {
        if port >= self.logs.len() {
            self.logs.resize(port + 1, None);
        }
        let idle = self.logs[port] == Some(end.wire_log());
        if idle {
            end.send_ctrl(CtrlMsg::Keepalive, delay, ctx);
        }
        self.logs[port] = Some(end.wire_log());
        idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> HeartbeatDetector {
        HeartbeatDetector::new(&DetectParams::default())
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
    fn threshold_adapts_to_observed_lateness() {
        let mut d = det();
        // Evidence every 50us runs 30us late against the 20us period:
        // once the EWMA settles, the threshold is about 8 * 30us = 240us,
        // above the 100us floor.
        let mut t = SimTime::ZERO;
        for _ in 0..16 {
            t += SimTime::from_us(50);
            assert_eq!(d.saw(1, t), None);
        }
        assert!(
            d.check(t + SimTime::from_us(230)).is_empty(),
            "within 8x the observed lateness"
        );
        assert_eq!(d.check(t + SimTime::from_us(240)), vec![1]);
    }

    /// A neighbour heard once per period, as an idle link's keepalives
    /// are, shows no lateness: the floor governs, not 8 x 20us.
    #[test]
    fn a_keepalive_cadence_keeps_the_floor() {
        let mut d = det();
        let mut t = SimTime::ZERO;
        for _ in 0..16 {
            t += SimTime::from_us(20);
            d.saw(1, t);
        }
        assert!(d.check(t + SimTime::from_us(100)).is_empty());
        assert_eq!(d.check(t + SimTime::from_us(101)), vec![1]);
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
        every: u64,
        timeout: u64,
        phi: u64,
    }

    impl Sweeping {
        fn saw(&mut self, key: u64, now: SimTime) -> Option<Liveness> {
            let w = self.watches.entry(key).or_insert(Watch::new(now));
            let gap = now.saturating_sub(w.last_seen).as_ps();
            w.mean_late_ps = (3 * w.mean_late_ps + gap.saturating_sub(self.every)) / 4;
            w.last_seen = now;
            std::mem::replace(&mut w.down, false).then_some(Liveness::Up)
        }

        fn check(&mut self, now: SimTime) -> Vec<u64> {
            let mut out = Vec::new();
            for (&k, w) in self.watches.iter_mut() {
                let silent = now.saturating_sub(w.last_seen).as_ps();
                if !w.down && silent > (w.mean_late_ps * self.phi).max(self.timeout) {
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
                every: SimTime::from_us(20).as_ps(),
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
                    2..=5 => assert_eq!(fast.saw(key, now), slow.saw(key, now)),
                    _ => assert_eq!(fast.check(now), slow.check(now), "at {now:?}"),
                }
                for k in 0..6 {
                    let down = slow.watches.get(&k).is_some_and(|w| w.down);
                    assert_eq!(fast.is_down(k), down, "key {k} at {now:?}");
                }
            }
        }
    }
}
