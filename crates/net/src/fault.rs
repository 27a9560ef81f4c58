//! Seeded, deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes *what can go wrong* — per-hop frame drop and
//! corruption probabilities, link outage windows, credit-loss probability
//! and crash-stop windows — and a [`FaultInjector`] executes the
//! plan with a [`SimRng`] stream, so a fixed seed replays the exact same
//! fault sequence bit-for-bit. Every link hop consults the injector at
//! launch time; the link-level reliability protocol (checksums, per-link
//! sequence numbers, ACK/NACK retransmission, credit resync) masks what
//! the injector breaks.
//!
//! Since reliability round 2 the link-layer *control* traffic (ACKs,
//! NACKs, credit-resync handshakes) is first-class corruptible wire
//! traffic too: control messages ride in checksummed
//! [`CtrlFrame`]s and the injector decides their
//! fate via [`FaultInjector::ctrl_fate`] under separate `ctrl_drop` /
//! `ctrl_corrupt` probabilities (outage windows kill them like anything
//! else on the link). Receivers discard control frames whose checksum
//! fails, and the protocol's sender-side machinery — timeout-driven
//! retransmit, probe retry with fresh tokens, the ack-starvation
//! watchdog — recovers, so no assumption of an incorruptible control
//! plane remains.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tg_sim::{SimRng, SimTime};
use tg_wire::trace::Site;
use tg_wire::{CtrlFrame, NodeId, Packet};

/// One directed link hop, named by its endpoints.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId {
    /// Transmitting end.
    pub from: Site,
    /// Receiving end.
    pub to: Site,
}

impl LinkId {
    /// Directed link from `from` to `to`.
    pub fn new(from: Site, to: Site) -> Self {
        LinkId { from, to }
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

/// A scheduled window during which a directed link delivers nothing:
/// data frames and credits launched in `[from, until)` are lost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Outage {
    /// The affected directed link.
    pub(crate) link: LinkId,
    /// Window start (inclusive).
    pub(crate) from: SimTime,
    /// Window end (exclusive); `SimTime::MAX` makes the outage permanent.
    pub(crate) until: SimTime,
}

/// A crash-stop window for a whole fault domain (a workstation or a
/// switch): between `from` (inclusive) and `until` (exclusive) the site
/// is *network-silent* — every data frame, control frame and credit on
/// any link touching the site is dropped, in both directions. The
/// component itself keeps running (its memory and protocol state
/// survive, as a crashed-and-rebooted workstation's disk image would);
/// what "crashes" is its network personality, which is exactly the
/// failure the fabric can observe. `until == SimTime::MAX` models a
/// node that never comes back.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrashWindow {
    /// The crashed fault domain.
    pub site: Site,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); `SimTime::MAX` makes the crash permanent.
    pub until: SimTime,
}

impl CrashWindow {
    /// True when the window covers `now`.
    pub(crate) fn covers(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// What can go wrong, and with what probability. Build with the chained
/// setters; an all-zero plan injects nothing.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed of the injector's RNG stream.
    pub(crate) seed: u64,
    /// Per-hop probability that a data frame is dropped in flight.
    pub(crate) drop_p: f64,
    /// Per-hop probability that a data frame arrives corrupted.
    pub(crate) corrupt_p: f64,
    /// Per-return probability that a flow-control credit is lost.
    pub(crate) credit_loss_p: f64,
    /// Per-hop probability that a link-layer control frame (ack, nack,
    /// resync handshake) is dropped in flight.
    pub(crate) ctrl_drop_p: f64,
    /// Per-hop probability that a link-layer control frame arrives
    /// corrupted (checksum broken; the receiver discards it).
    pub(crate) ctrl_corrupt_p: f64,
    /// Scheduled link outage windows.
    pub(crate) outages: Vec<Outage>,
    /// Scheduled crash-stop windows for whole fault domains (nodes and
    /// switches).
    pub(crate) crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan that injects nothing, with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            corrupt_p: 0.0,
            credit_loss_p: 0.0,
            ctrl_drop_p: 0.0,
            ctrl_corrupt_p: 0.0,
            outages: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Sets the per-hop frame drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_p = p;
        self
    }

    /// Sets the per-hop frame corruption probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.corrupt_p = p;
        self
    }

    /// Sets the per-return credit loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn credit_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.credit_loss_p = p;
        self
    }

    /// Sets the per-hop control-frame drop probability (acks, nacks,
    /// credit-resync handshakes).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn ctrl_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.ctrl_drop_p = p;
        self
    }

    /// Sets the per-hop control-frame corruption probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn ctrl_corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.ctrl_corrupt_p = p;
        self
    }

    /// Adds an outage window `[from, until)` on the directed link.
    pub fn outage(mut self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        self.outages.push(Outage { link, from, until });
        self
    }

    /// Crashes workstation `node` at `at`. The crash is permanent unless
    /// a later [`FaultPlan::node_restart`] closes the window.
    pub fn node_crash(mut self, node: NodeId, at: SimTime) -> Self {
        self.crashes.push(CrashWindow {
            site: Site::Node(node),
            from: at,
            until: SimTime::MAX,
        });
        self
    }

    /// Restarts workstation `node` at `at`: closes the most recent
    /// still-open crash window for that node.
    ///
    /// # Panics
    ///
    /// Panics if the node has no open crash window, or if `at` precedes
    /// the crash it would close — both are plan bugs, caught eagerly so
    /// a campaign cannot silently run a different schedule than written.
    pub fn node_restart(mut self, node: NodeId, at: SimTime) -> Self {
        let w = self
            .crashes
            .iter_mut()
            .rev()
            .find(|w| w.site == Site::Node(node) && w.until == SimTime::MAX)
            .expect("node_restart without a matching node_crash");
        assert!(w.from <= at, "restart precedes the crash it closes");
        w.until = at;
        self
    }

    /// Takes switch `s` out over `[from, until)`: crash-stop silence on
    /// every link touching the switch, exactly like a node crash.
    pub fn switch_outage(mut self, s: u16, from: SimTime, until: SimTime) -> Self {
        self.crashes.push(CrashWindow {
            site: Site::Switch(s),
            from,
            until,
        });
        self
    }

    /// All crash-stop windows, in plan order (for trace reconciliation
    /// and declared-dead filtering in diagnostics).
    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// True when `site` is inside one of the plan's crash windows at
    /// `now`.
    pub(crate) fn site_down(&self, site: Site, now: SimTime) -> bool {
        self.crashes.iter().any(|w| w.site == site && w.covers(now))
    }
}

/// The fate the injector assigns to one launched data frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameFate {
    /// Delivered intact.
    Deliver,
    /// Lost in flight: the arrival event is never scheduled.
    Drop,
    /// Delivered with a flipped checksum; the receiving link layer will
    /// discard it and NACK.
    Corrupt,
}

/// Running totals of what the injector has actually done.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultStats {
    /// Data frames dropped by probability.
    pub drops: u64,
    /// Data frames corrupted.
    pub corrupts: u64,
    /// Data frames lost to an outage window.
    pub outage_drops: u64,
    /// Flow-control credits lost (probability or outage).
    pub credits_lost: u64,
    /// Control frames dropped (probability or outage).
    pub ctrl_drops: u64,
    /// Control frames corrupted (the receiver discards them on checksum
    /// failure — reconciled exactly against fabric control discards).
    pub ctrl_corrupts: u64,
    /// Data frames swallowed by a crashed fault domain (either link
    /// endpoint inside an active crash window).
    pub(crate) crash_frame_drops: u64,
}

impl FaultStats {
    /// Total data frames that never arrived intact.
    pub fn frames_lost(&self) -> u64 {
        self.drops + self.corrupts + self.outage_drops + self.crash_frame_drops
    }
}

#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    rng: SimRng,
    stats: FaultStats,
}

/// The shared executor of a [`FaultPlan`]. Cloning shares the state (the
/// simulation is single-threaded); every link hop in the fabric holds a
/// clone and consults it in the engine's deterministic delivery order, so
/// the RNG stream — and therefore the fault sequence — is identical on
/// every run with the same seed.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: Rc<RefCell<InjectorState>>,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SimRng::new(plan.seed);
        FaultInjector {
            state: Rc::new(RefCell::new(InjectorState {
                plan,
                rng,
                stats: FaultStats::default(),
            })),
        }
    }

    /// True when `site` is inside an active crash-stop window at `now`.
    pub fn site_down(&self, site: Site, now: SimTime) -> bool {
        self.state.borrow().plan.site_down(site, now)
    }

    /// Decides the fate of a data frame launched on `link` at `now`,
    /// corrupting `packet` in place when the fate is
    /// [`FrameFate::Corrupt`]. One injector-RNG consultation per hop.
    pub(crate) fn frame_fate(&self, link: LinkId, now: SimTime, packet: &mut Packet) -> FrameFate {
        let mut st = self.state.borrow_mut();
        // Crash-stop silence is checked first and consumes no RNG, so a
        // plan that only adds crash windows replays the same probability
        // stream as the plan without them.
        if st.plan.site_down(link.from, now) || st.plan.site_down(link.to, now) {
            st.stats.crash_frame_drops += 1;
            return FrameFate::Drop;
        }
        if st
            .plan
            .outages
            .iter()
            .any(|o| o.link == link && o.from <= now && now < o.until)
        {
            st.stats.outage_drops += 1;
            return FrameFate::Drop;
        }
        let drop_p = st.plan.drop_p;
        if drop_p > 0.0 && st.rng.chance(drop_p) {
            st.stats.drops += 1;
            return FrameFate::Drop;
        }
        let corrupt_p = st.plan.corrupt_p;
        if corrupt_p > 0.0 && st.rng.chance(corrupt_p) {
            st.stats.corrupts += 1;
            // Flip a bit of the wire checksum: detectable, recoverable.
            packet.checksum ^= 0x8000_0001;
            return FrameFate::Corrupt;
        }
        FrameFate::Deliver
    }

    /// Decides the fate of a link-layer control frame (ack, nack, resync
    /// handshake) launched on `link` at `now`, breaking `frame`'s
    /// checksum in place when the fate is [`FrameFate::Corrupt`]. Zero
    /// control probabilities consume no RNG, so plans written before the
    /// control plane became corruptible replay identical fault streams.
    pub(crate) fn ctrl_fate(&self, link: LinkId, now: SimTime, frame: &mut CtrlFrame) -> FrameFate {
        let mut st = self.state.borrow_mut();
        if st.plan.site_down(link.from, now) || st.plan.site_down(link.to, now) {
            return FrameFate::Drop;
        }
        if st
            .plan
            .outages
            .iter()
            .any(|o| o.link == link && o.from <= now && now < o.until)
        {
            st.stats.ctrl_drops += 1;
            return FrameFate::Drop;
        }
        let drop_p = st.plan.ctrl_drop_p;
        if drop_p > 0.0 && st.rng.chance(drop_p) {
            st.stats.ctrl_drops += 1;
            return FrameFate::Drop;
        }
        let corrupt_p = st.plan.ctrl_corrupt_p;
        if corrupt_p > 0.0 && st.rng.chance(corrupt_p) {
            st.stats.ctrl_corrupts += 1;
            frame.corrupt();
            return FrameFate::Corrupt;
        }
        FrameFate::Deliver
    }

    /// Decides whether a flow-control credit returned on `link` at `now`
    /// is lost.
    pub(crate) fn credit_lost(&self, link: LinkId, now: SimTime) -> bool {
        let mut st = self.state.borrow_mut();
        if st.plan.site_down(link.from, now) || st.plan.site_down(link.to, now) {
            return true;
        }
        if st
            .plan
            .outages
            .iter()
            .any(|o| o.link == link && o.from <= now && now < o.until)
        {
            st.stats.credits_lost += 1;
            return true;
        }
        let p = st.plan.credit_loss_p;
        if p > 0.0 && st.rng.chance(p) {
            st.stats.credits_lost += 1;
            return true;
        }
        false
    }

    /// Running fault totals.
    pub fn stats(&self) -> FaultStats {
        self.state.borrow().stats
    }

    /// The plan being executed.
    pub fn plan(&self) -> FaultPlan {
        self.state.borrow().plan.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::WireMsg;

    fn pkt() -> Packet {
        let mut p = Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            WireMsg::WriteAck { tag: 0 },
            0,
        );
        p.link_seq = 1;
        p.seal();
        p
    }

    fn link() -> LinkId {
        LinkId::new(Site::Node(NodeId::new(0)), Site::Switch(0))
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let inj = FaultInjector::new(FaultPlan::new(1));
        let mut p = pkt();
        for _ in 0..1000 {
            assert_eq!(
                inj.frame_fate(link(), SimTime::from_ns(5), &mut p),
                FrameFate::Deliver
            );
            assert!(!inj.credit_lost(link(), SimTime::from_ns(5)));
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_fates() {
        let fates = |seed| {
            let inj = FaultInjector::new(FaultPlan::new(seed).drop(0.3).corrupt(0.2));
            (0..200)
                .map(|i| {
                    let mut p = pkt();
                    inj.frame_fate(link(), SimTime::from_ns(i), &mut p)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(42), fates(42));
        assert_ne!(fates(42), fates(43), "different seeds should diverge");
    }

    #[test]
    fn corruption_breaks_the_checksum() {
        let inj = FaultInjector::new(FaultPlan::new(7).corrupt(1.0));
        let mut p = pkt();
        assert!(p.checksum_ok());
        assert_eq!(
            inj.frame_fate(link(), SimTime::ZERO, &mut p),
            FrameFate::Corrupt
        );
        assert!(!p.checksum_ok());
        assert_eq!(inj.stats().corrupts, 1);
    }

    #[test]
    fn outage_window_drops_everything_inside_it() {
        let inj = FaultInjector::new(FaultPlan::new(7).outage(
            link(),
            SimTime::from_ns(100),
            SimTime::from_ns(200),
        ));
        let mut p = pkt();
        assert_eq!(
            inj.frame_fate(link(), SimTime::from_ns(99), &mut p),
            FrameFate::Deliver
        );
        assert_eq!(
            inj.frame_fate(link(), SimTime::from_ns(100), &mut p),
            FrameFate::Drop
        );
        assert_eq!(
            inj.frame_fate(link(), SimTime::from_ns(199), &mut p),
            FrameFate::Drop
        );
        assert_eq!(
            inj.frame_fate(link(), SimTime::from_ns(200), &mut p),
            FrameFate::Deliver
        );
        // The other direction is unaffected.
        let back = LinkId::new(link().to, link().from);
        assert_eq!(
            inj.frame_fate(back, SimTime::from_ns(150), &mut p),
            FrameFate::Deliver
        );
        assert!(inj.credit_lost(link(), SimTime::from_ns(150)));
        assert_eq!(inj.stats().outage_drops, 2);
    }

    #[test]
    fn ctrl_frames_are_first_class_fault_targets() {
        use tg_wire::CtrlMsg;
        let inj = FaultInjector::new(FaultPlan::new(9).ctrl_corrupt(1.0));
        let mut f = CtrlFrame::seal(CtrlMsg::Ack { seq: 3, sack: 0 });
        assert_eq!(
            inj.ctrl_fate(link(), SimTime::ZERO, &mut f),
            FrameFate::Corrupt
        );
        assert!(!f.checksum_ok(), "corruption must break the checksum");
        assert_eq!(inj.stats().ctrl_corrupts, 1);

        let inj = FaultInjector::new(FaultPlan::new(9).ctrl_drop(1.0));
        let mut f = CtrlFrame::seal(CtrlMsg::SyncReq { token: 1 });
        assert_eq!(
            inj.ctrl_fate(link(), SimTime::ZERO, &mut f),
            FrameFate::Drop
        );
        assert_eq!(inj.stats().ctrl_drops, 1);

        // An outage window kills control traffic like everything else.
        let inj = FaultInjector::new(FaultPlan::new(9).outage(
            link(),
            SimTime::from_ns(100),
            SimTime::from_ns(200),
        ));
        let mut f = CtrlFrame::seal(CtrlMsg::Ack { seq: 1, sack: 0 });
        assert_eq!(
            inj.ctrl_fate(link(), SimTime::from_ns(150), &mut f),
            FrameFate::Drop
        );
        assert_eq!(inj.stats().ctrl_drops, 1);

        // Zero control probabilities consume no RNG: the data-frame fault
        // stream is unchanged by interleaved control consultations.
        let with_ctrl = {
            let inj = FaultInjector::new(FaultPlan::new(42).drop(0.3));
            (0..100)
                .map(|i| {
                    let mut c = CtrlFrame::seal(CtrlMsg::Ack { seq: i, sack: 0 });
                    assert_eq!(
                        inj.ctrl_fate(link(), SimTime::from_ns(i), &mut c),
                        FrameFate::Deliver
                    );
                    let mut p = pkt();
                    inj.frame_fate(link(), SimTime::from_ns(i), &mut p)
                })
                .collect::<Vec<_>>()
        };
        let without = {
            let inj = FaultInjector::new(FaultPlan::new(42).drop(0.3));
            (0..100)
                .map(|i| {
                    let mut p = pkt();
                    inj.frame_fate(link(), SimTime::from_ns(i), &mut p)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(with_ctrl, without);
    }

    #[test]
    fn crash_windows_silence_every_link_touching_the_site() {
        use tg_wire::CtrlMsg;
        let n0 = NodeId::new(0);
        let inj = FaultInjector::new(
            FaultPlan::new(5)
                .node_crash(n0, SimTime::from_us(10))
                .node_restart(n0, SimTime::from_us(20)),
        );
        let up = link(); // node0 -> switch0
        let down = LinkId::new(link().to, link().from);
        let far = LinkId::new(Site::Node(NodeId::new(2)), Site::Switch(0));
        let mut p = pkt();
        // Before the crash everything flows.
        assert_eq!(
            inj.frame_fate(up, SimTime::from_us(9), &mut p),
            FrameFate::Deliver
        );
        // Inside the window: both directions dead, ctrl and credits too.
        for t in [SimTime::from_us(10), SimTime::from_us(19)] {
            assert!(inj.site_down(Site::Node(n0), t));
            assert_eq!(inj.frame_fate(up, t, &mut p), FrameFate::Drop);
            assert_eq!(inj.frame_fate(down, t, &mut p), FrameFate::Drop);
            let mut f = CtrlFrame::seal(CtrlMsg::Keepalive);
            assert_eq!(inj.ctrl_fate(down, t, &mut f), FrameFate::Drop);
            assert!(inj.credit_lost(up, t));
            // A link not touching the crashed site is unaffected.
            assert_eq!(inj.frame_fate(far, t, &mut p), FrameFate::Deliver);
        }
        // The restart closes the window.
        assert!(!inj.site_down(Site::Node(n0), SimTime::from_us(20)));
        assert_eq!(
            inj.frame_fate(up, SimTime::from_us(20), &mut p),
            FrameFate::Deliver
        );
        let s = inj.stats();
        assert_eq!(s.crash_frame_drops, 4);
    }

    #[test]
    fn switch_outage_is_a_crash_window_on_the_switch() {
        let inj = FaultInjector::new(FaultPlan::new(5).switch_outage(
            0,
            SimTime::from_us(1),
            SimTime::from_us(2),
        ));
        let mut p = pkt();
        assert!(inj.site_down(Site::Switch(0), SimTime::from_us(1)));
        assert_eq!(
            inj.frame_fate(link(), SimTime::from_us(1), &mut p),
            FrameFate::Drop
        );
        assert_eq!(
            inj.frame_fate(link(), SimTime::from_us(2), &mut p),
            FrameFate::Deliver
        );
    }

    #[test]
    fn crash_windows_consume_no_rng() {
        // Interleaving crash-window consultations (hit or miss) must not
        // perturb the probability stream: same fates with and without.
        let fates = |with_crash: bool| {
            let mut plan = FaultPlan::new(42).drop(0.3);
            if with_crash {
                plan = plan.node_crash(NodeId::new(7), SimTime::from_us(1));
            }
            let inj = FaultInjector::new(plan);
            let dead = LinkId::new(Site::Node(NodeId::new(7)), Site::Switch(0));
            (0..200)
                .map(|_i| {
                    if with_crash {
                        // A consultation that hits the window…
                        let mut q = pkt();
                        inj.frame_fate(dead, SimTime::from_us(2), &mut q);
                    }
                    // …leaves the live link's stream untouched.
                    let mut p = pkt();
                    inj.frame_fate(link(), SimTime::from_us(2), &mut p)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(true), fates(false));
    }

    #[test]
    #[should_panic(expected = "node_restart without a matching node_crash")]
    fn restart_requires_a_crash() {
        let _ = FaultPlan::new(1).node_restart(NodeId::new(0), SimTime::from_us(1));
    }
}
