//! Critical-path latency attribution.
//!
//! [`telegraphos::observe::op_chains`] merges every traced operation's
//! request and response packet events into one clamped, time-ordered
//! chain whose consecutive gaps telescope exactly to the op's end-to-end
//! latency. This module classifies each gap — *what* the operation was
//! waiting on (tx-queue, wire, switch-queue, credit-stall, retransmit,
//! delivery) and *where* (which site, which directed link) — without
//! disturbing the telescoping sum: [`OpAttribution::total`] always equals
//! `op.end - op.start`.
//!
//! Aggregates use [`LogHistogram`] (relative error ≤ 1/128) for
//! p50/p99/p999 over thousands of ops, and [`exemplar_at`] picks a real
//! operation at a requested quantile so reports can print a concrete
//! decomposition whose segments sum exactly to a measured latency, not to
//! an average of incommensurable runs.

use telegraphos::observe::{op_chains, ChainedEvent};
use tg_sim::{LogHistogram, SimTime};
use tg_wire::trace::{OpEvent, PacketEvent, Site, Stage};

/// What a critical-path segment was spent on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SegClass {
    /// CPU time from issue to the first packet event.
    CpuIssue,
    /// Waiting in a host interface's transmit queue.
    TxQueue,
    /// Blocked on flow-control credits (a [`Stage::CreditStall`] window).
    CreditStall,
    /// Serialization + propagation on a directed link.
    Wire,
    /// Waiting in a switch input FIFO.
    SwitchQueue,
    /// Loss-recovery time: waiting for a timeout-driven relaunch.
    Retransmit,
    /// Receive-side handling: rx FIFO, commit, remote-end turnaround.
    Delivery,
    /// CPU time from the last packet event to observed completion.
    CpuComplete,
}

impl SegClass {
    /// Every class, in canonical report order.
    pub const ALL: [SegClass; 8] = [
        SegClass::CpuIssue,
        SegClass::TxQueue,
        SegClass::CreditStall,
        SegClass::Wire,
        SegClass::SwitchQueue,
        SegClass::Retransmit,
        SegClass::Delivery,
        SegClass::CpuComplete,
    ];

    /// Stable kebab-case label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SegClass::CpuIssue => "cpu-issue",
            SegClass::TxQueue => "tx-queue",
            SegClass::CreditStall => "credit-stall",
            SegClass::Wire => "wire",
            SegClass::SwitchQueue => "switch-queue",
            SegClass::Retransmit => "retransmit",
            SegClass::Delivery => "delivery",
            SegClass::CpuComplete => "cpu-complete",
        }
    }
}

/// One classified critical-path segment of one operation.
#[derive(Clone, Debug)]
pub struct AttributedSegment {
    /// What the time was spent on.
    pub class: SegClass,
    /// The site where the segment ended (where the time accrued).
    pub(crate) site: Site,
    /// The directed link the segment belongs to: the traversed hop for
    /// [`SegClass::Wire`], the *outgoing* hop for queue/stall/retransmit
    /// segments, `None` for CPU and receive-side segments.
    pub(crate) link: Option<(Site, Site)>,
    /// Segment duration; all of an op's segments sum to its latency.
    pub dur: SimTime,
    /// True when the segment lies on the chained response packet's path.
    pub(crate) response: bool,
}

impl AttributedSegment {
    /// Human/report label naming the class and the hop it accrued on,
    /// e.g. `wire node0->switch0`, `tx-queue node3->switch0`,
    /// `resp-delivery@node0`.
    pub fn hop_label(&self) -> String {
        let prefix = if self.response { "resp-" } else { "" };
        match self.link {
            Some((a, b)) => format!("{prefix}{} {a}->{b}", self.class.label()),
            None => format!("{prefix}{}@{}", self.class.label(), self.site),
        }
    }
}

/// One operation's fully attributed critical path.
#[derive(Clone, Debug)]
pub struct OpAttribution {
    /// The operation.
    pub op: OpEvent,
    /// Its segments, in time order, telescoping to the whole.
    pub segments: Vec<AttributedSegment>,
}

impl OpAttribution {
    /// Sum of all segment durations — by construction exactly
    /// `op.end - op.start`.
    pub fn total(&self) -> SimTime {
        self.segments
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.dur)
    }

    /// End-to-end latency as the CPU observed it.
    pub fn latency(&self) -> SimTime {
        self.op.end.saturating_sub(self.op.start)
    }
}

/// Classifies the segment that *ends* at `cur`, given the event that
/// preceded it on the merged chain.
fn classify(prev: &ChainedEvent, cur: &ChainedEvent) -> SegClass {
    // Recovery first: time spent waiting for a relaunch (or after a
    // drop) is loss-recovery regardless of where the events sit.
    if cur.event.stage == Stage::Retransmit || prev.event.stage == Stage::Dropped {
        return SegClass::Retransmit;
    }
    // A CreditStall event opens a stall window; the gap from it to the
    // eventual launch is credit-stall time.
    if prev.event.stage == Stage::CreditStall {
        return SegClass::CreditStall;
    }
    if prev.event.site != cur.event.site {
        return SegClass::Wire;
    }
    match cur.event.stage {
        Stage::TxLaunch => SegClass::TxQueue,
        Stage::SwitchTx => SegClass::SwitchQueue,
        // Waiting *until* the stall was detected is ordinary queueing at
        // that site; the stall itself starts at the CreditStall event.
        Stage::CreditStall => match cur.event.site {
            Site::Node(_) => SegClass::TxQueue,
            Site::Switch(_) => SegClass::SwitchQueue,
        },
        Stage::CreditResync => SegClass::CreditStall,
        Stage::Dropped => SegClass::Wire,
        // RxStart, Commit, and same-site enqueues (remote-end response
        // turnaround) are receive-side handling.
        _ => SegClass::Delivery,
    }
}

/// Does this class's time accrue toward the site's *outgoing* hop?
fn wants_outgoing_link(class: SegClass) -> bool {
    matches!(
        class,
        SegClass::TxQueue | SegClass::SwitchQueue | SegClass::CreditStall | SegClass::Retransmit
    )
}

/// Attributes every traced operation: classifies each critical-path
/// segment and pins it to a site and directed link. Segment durations
/// telescope exactly to each op's end-to-end latency (the invariant is
/// inherited from [`op_chains`] — segments are the gaps between
/// consecutive clamped events, plus the issue/complete bookends).
pub fn attribute_ops(ops: &[OpEvent], packets: &[PacketEvent]) -> Vec<OpAttribution> {
    op_chains(ops, packets)
        .into_iter()
        .map(|chain| {
            let op = chain.op;
            let origin = Site::Node(op.node);
            let events = &chain.events;
            let mut segments = Vec::with_capacity(events.len() + 2);
            let mut prev_at = op.start;
            for (i, ev) in events.iter().enumerate() {
                let (class, response) = match i.checked_sub(1).map(|j| &events[j]) {
                    None => (SegClass::CpuIssue, ev.response),
                    Some(prev) => (classify(prev, ev), ev.response),
                };
                let link = match class {
                    SegClass::Wire => {
                        let from = i
                            .checked_sub(1)
                            .map(|j| events[j].event.site)
                            .unwrap_or(origin);
                        Some((from, ev.event.site))
                    }
                    c if wants_outgoing_link(c) => {
                        // The hop this queueing feeds: the next site the
                        // packet reaches after leaving this one.
                        let here = ev.event.site;
                        events[i..]
                            .iter()
                            .map(|e| e.event.site)
                            .find(|s| *s != here)
                            .map(|next| (here, next))
                    }
                    _ => None,
                };
                segments.push(AttributedSegment {
                    class,
                    site: ev.event.site,
                    link,
                    dur: ev.at.saturating_sub(prev_at),
                    response,
                });
                prev_at = ev.at;
            }
            segments.push(AttributedSegment {
                class: SegClass::CpuComplete,
                site: origin,
                link: None,
                dur: op.end.saturating_sub(prev_at),
                response: false,
            });
            OpAttribution { op, segments }
        })
        .collect()
}

/// End-to-end latencies of the given attributions as a log-bucketed
/// histogram in **nanoseconds** (relative error ≤ 1/128 at every
/// quantile).
pub fn latency_histogram(attribs: &[OpAttribution]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for a in attribs {
        h.record(a.latency().as_ns());
    }
    h
}

/// Total time per segment class across the given attributions, in
/// [`SegClass::ALL`] order (zero classes included, so tables line up
/// across runs).
pub fn class_breakdown(attribs: &[OpAttribution]) -> Vec<(SegClass, SimTime)> {
    SegClass::ALL
        .iter()
        .map(|&class| {
            let total = attribs
                .iter()
                .flat_map(|a| &a.segments)
                .filter(|s| s.class == class)
                .fold(SimTime::ZERO, |acc, s| acc + s.dur);
            (class, total)
        })
        .collect()
}

/// Picks the operation sitting at quantile `q` of the latency
/// distribution (deterministically: ties broken by start time, then
/// node). Its printed segments sum *exactly* to its measured latency,
/// which an aggregate over many ops cannot promise.
pub fn exemplar_at(attribs: &[OpAttribution], q: f64) -> Option<&OpAttribution> {
    if attribs.is_empty() {
        return None;
    }
    let mut idx: Vec<usize> = (0..attribs.len()).collect();
    idx.sort_by_key(|&i| {
        let a = &attribs[i];
        (a.latency(), a.op.start, a.op.node.raw())
    });
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * idx.len() as f64).ceil() as usize).clamp(1, idx.len()) - 1;
    Some(&attribs[idx[rank]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_wire::trace::{OpKind, TraceId};
    use tg_wire::NodeId;

    fn ev(
        at_ns: u64,
        trace: TraceId,
        parent: Option<TraceId>,
        site: Site,
        stage: Stage,
    ) -> PacketEvent {
        PacketEvent {
            at: SimTime::from_ns(at_ns),
            trace,
            parent,
            site,
            stage,
            kind: "write",
            bytes: 64,
        }
    }

    #[test]
    fn segments_classify_and_telescope() {
        let n0 = Site::Node(NodeId::new(0));
        let n1 = Site::Node(NodeId::new(1));
        let s0 = Site::Switch(0);
        let t = TraceId::packet(NodeId::new(0), 1);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteWrite,
            start: SimTime::from_ns(100),
            end: SimTime::from_ns(1000),
            trace: Some(t),
        };
        let packets = vec![
            ev(110, t, None, n0, Stage::TxEnqueue),
            ev(130, t, None, n0, Stage::CreditStall),
            ev(200, t, None, n0, Stage::TxLaunch),
            ev(300, t, None, s0, Stage::SwitchEnqueue),
            ev(350, t, None, s0, Stage::SwitchTx),
            ev(450, t, None, n1, Stage::RxEnqueue),
            ev(500, t, None, n1, Stage::RxStart),
            ev(900, t, None, n1, Stage::Commit),
        ];
        let attribs = attribute_ops(&[op], &packets);
        assert_eq!(attribs.len(), 1);
        let a = &attribs[0];
        assert_eq!(a.total(), a.latency(), "segments telescope");
        let classes: Vec<SegClass> = a.segments.iter().map(|s| s.class).collect();
        assert_eq!(
            classes,
            vec![
                SegClass::CpuIssue,
                SegClass::TxQueue,     // TxEnqueue -> CreditStall: queue wait
                SegClass::CreditStall, // CreditStall -> TxLaunch
                SegClass::Wire,        // node0 -> switch0
                SegClass::SwitchQueue, // SwitchEnqueue -> SwitchTx
                SegClass::Wire,        // switch0 -> node1
                SegClass::Delivery,    // RxEnqueue -> RxStart
                SegClass::Delivery,    // RxStart -> Commit
                SegClass::CpuComplete,
            ]
        );
        // The credit stall is pinned to the outgoing hop node0->switch0.
        assert_eq!(a.segments[2].link, Some((n0, s0)));
        assert_eq!(a.segments[3].link, Some((n0, s0)));
        assert_eq!(a.segments[5].link, Some((s0, n1)));
        assert_eq!(a.segments[2].dur, SimTime::from_ns(70));
    }

    #[test]
    fn retransmit_gap_is_recovery_time() {
        let n0 = Site::Node(NodeId::new(0));
        let s0 = Site::Switch(0);
        let t = TraceId::packet(NodeId::new(0), 2);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::Send,
            start: SimTime::from_ns(0),
            end: SimTime::from_ns(5000),
            trace: Some(t),
        };
        let packets = vec![
            ev(10, t, None, n0, Stage::TxEnqueue),
            ev(20, t, None, n0, Stage::TxLaunch),
            ev(100, t, None, s0, Stage::Dropped),
            ev(2100, t, None, n0, Stage::Retransmit),
            ev(2200, t, None, s0, Stage::SwitchEnqueue),
        ];
        let attribs = attribute_ops(&[op], &packets);
        let a = &attribs[0];
        assert_eq!(a.total(), a.latency());
        // Dropped -> Retransmit gap is the timeout wait.
        let retx: SimTime = a
            .segments
            .iter()
            .filter(|s| s.class == SegClass::Retransmit)
            .fold(SimTime::ZERO, |acc, s| acc + s.dur);
        assert_eq!(retx, SimTime::from_ns(2000));
    }

    #[test]
    fn response_chain_segments_carry_the_flag_and_telescope() {
        let n0 = Site::Node(NodeId::new(0));
        let n1 = Site::Node(NodeId::new(1));
        let req = TraceId::packet(NodeId::new(0), 3);
        let resp = TraceId::packet(NodeId::new(1), 9);
        let op = OpEvent {
            node: NodeId::new(0),
            kind: OpKind::RemoteRead,
            start: SimTime::from_ns(0),
            end: SimTime::from_ns(800),
            trace: Some(req),
        };
        let packets = vec![
            ev(10, req, None, n0, Stage::TxEnqueue),
            ev(20, req, None, n0, Stage::TxLaunch),
            ev(120, req, None, n1, Stage::RxEnqueue),
            ev(200, req, None, n1, Stage::Commit),
            ev(250, resp, Some(req), n1, Stage::TxEnqueue),
            ev(260, resp, Some(req), n1, Stage::TxLaunch),
            ev(400, resp, Some(req), n0, Stage::RxEnqueue),
            ev(700, resp, Some(req), n0, Stage::Commit),
        ];
        let attribs = attribute_ops(&[op], &packets);
        let a = &attribs[0];
        assert_eq!(a.total(), a.latency());
        assert!(a.segments.iter().any(|s| s.response));
        let resp_wire = a
            .segments
            .iter()
            .find(|s| s.response && s.class == SegClass::Wire)
            .unwrap();
        assert_eq!(resp_wire.link, Some((n1, n0)));
    }

    #[test]
    fn aggregates_and_exemplars_are_deterministic() {
        let n0 = Site::Node(NodeId::new(0));
        let n1 = Site::Node(NodeId::new(1));
        let mut ops = Vec::new();
        let mut packets = Vec::new();
        for i in 0..100u64 {
            let t = TraceId::packet(NodeId::new(0), i + 1);
            let end = 100 + i * 10;
            ops.push(OpEvent {
                node: NodeId::new(0),
                kind: OpKind::RemoteWrite,
                start: SimTime::ZERO,
                end: SimTime::from_ns(end),
                trace: Some(t),
            });
            packets.push(ev(10, t, None, n0, Stage::TxLaunch));
            packets.push(ev(end - 10, t, None, n1, Stage::Commit));
        }
        let attribs = attribute_ops(&ops, &packets);
        let h = latency_histogram(&attribs);
        assert_eq!(h.count(), 100);
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        let p99 = exemplar_at(&attribs, 0.99).unwrap();
        assert_eq!(p99.total(), p99.latency());
        // Rank 99 of 100 (0-based 98) has latency 100 + 98*10.
        assert_eq!(p99.latency(), SimTime::from_ns(1080));
        let classes = class_breakdown(&attribs);
        let total: SimTime = classes.iter().fold(SimTime::ZERO, |acc, (_, t)| acc + *t);
        let whole: SimTime = attribs.iter().fold(SimTime::ZERO, |acc, a| acc + a.total());
        assert_eq!(total, whole, "class totals partition the whole");
    }
}
