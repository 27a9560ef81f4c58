//! The simulation-wide event type.

use tg_hib::{CpuResult, HibInterrupt, HibTick};
use tg_net::{NetEvent, NetMessage};
use tg_wire::{NodeId, WireMsg};

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
        /// Sending node.
        src: NodeId,
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

    #[test]
    fn non_net_events_bounce_back() {
        let ev = ClusterEvent::CpuStep;
        assert!(ev.into_net().is_err());
    }
}
