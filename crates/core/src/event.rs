//! The simulation-wide event type.

use tg_hib::{CpuResult, HibInterrupt, HibTick};
use tg_net::{NetEvent, NetMessage};
use tg_wire::WireMsg;

/// Every event a cluster component can receive.
///
/// Switches only ever see (and the network builder only ever sends) the
/// [`Net`](ClusterEvent::Net) variant, unwrapped through the [`NetMessage`]
/// embedding; the rest drive the workstation nodes.
#[derive(Clone, Debug)]
pub enum ClusterEvent {
    /// Fabric traffic: packet arrivals and flow-control credits.
    Net(NetEvent),
    /// HIB-internal timer (TX serialization done, RX pipeline done).
    HibTick(HibTick),
    /// A HIB-side completion for the blocked CPU.
    HibDone(CpuResult),
    /// A HIB interrupt for the OS.
    Interrupt(HibInterrupt),
    /// Software-level message delivered up from the HIB.
    OsMsg {
        /// The message.
        msg: WireMsg,
    },
    /// Deferred OS work (trap exits, VSM protocol steps).
    OsTask {
        /// Protocol-defined task code.
        kind: u16,
        /// First operand.
        a: u64,
        /// Second operand.
        b: u64,
    },
    /// The CPU should take its next step (resume the process).
    CpuStep,
    /// Boot: start running the installed process.
    Start,
}

impl ClusterEvent {
    /// Variant names for per-kind delivery counts, indexed by
    /// `ClusterEvent::kind`. The first six are the [`NetEvent`] kinds,
    /// in [`NetEvent::KINDS`] order, so switch counts share the indexing.
    pub const KINDS: [&'static str; 16] = [
        "net.arrive",
        "net.credit",
        "net.pump_out",
        "net.ctrl",
        "net.retx_timer",
        "net.beacon",
        "tick.tx_free",
        "tick.rx_done",
        "tick.retx_timer",
        "tick.heartbeat",
        "hib_done",
        "interrupt",
        "os_msg",
        "os_task",
        "cpu_step",
        "start",
    ];

    /// This event's variant as an index into [`ClusterEvent::KINDS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            ClusterEvent::Net(ev) => ev.kind(),
            ClusterEvent::HibTick(tick) => match tick {
                HibTick::TxFree => 6,
                HibTick::RxDone => 7,
                HibTick::RetxTimer { .. } => 8,
                HibTick::Heartbeat => 9,
            },
            ClusterEvent::HibDone(_) => 10,
            ClusterEvent::Interrupt(_) => 11,
            ClusterEvent::OsMsg { .. } => 12,
            ClusterEvent::OsTask { .. } => 13,
            ClusterEvent::CpuStep => 14,
            ClusterEvent::Start => 15,
        }
    }
}

impl NetMessage for ClusterEvent {
    fn from_net(ev: NetEvent) -> Self {
        ClusterEvent::Net(ev)
    }
    fn into_net(self) -> Result<NetEvent, Self> {
        match self {
            ClusterEvent::Net(ev) => Ok(ev),
            other => Err(other),
        }
    }
    fn as_net(&self) -> Option<&NetEvent> {
        match self {
            ClusterEvent::Net(ev) => Some(ev),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_embedding_round_trips() {
        let ev = NetEvent::Credit { port: 2 };
        match ClusterEvent::from_net(ev.clone()).into_net() {
            Ok(out) => assert_eq!(out, ev),
            Err(other) => panic!("lost the event: {other:?}"),
        }
    }

    /// Net kinds line up with [`NetEvent::KINDS`], so a switch's counts
    /// index the same table.
    #[test]
    fn kind_table_extends_the_net_kinds() {
        for (i, name) in NetEvent::KINDS.iter().enumerate() {
            assert_eq!(ClusterEvent::KINDS[i], format!("net.{name}"));
        }
        let ev = ClusterEvent::Net(NetEvent::PumpOut { port: 0 });
        assert_eq!(ClusterEvent::KINDS[ev.kind()], "net.pump_out");
        assert_eq!(
            ClusterEvent::KINDS[ClusterEvent::CpuStep.kind()],
            "cpu_step"
        );
        assert_eq!(ClusterEvent::KINDS[ClusterEvent::Start.kind()], "start");
        let tick = ClusterEvent::HibTick(HibTick::Heartbeat);
        assert_eq!(ClusterEvent::KINDS[tick.kind()], "tick.heartbeat");
    }

    #[test]
    fn non_net_events_bounce_back() {
        let ev = ClusterEvent::CpuStep;
        assert!(ev.into_net().is_err());
    }
}
