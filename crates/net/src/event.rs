//! Network events and the embedding trait.

use tg_wire::{CtrlFrame, Packet};

/// Events exchanged between network components (switches and endpoints).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NetEvent {
    /// A packet finished arriving at input port `port`.
    Arrive {
        /// Receiving input port.
        port: u32,
        /// The packet.
        packet: Packet,
    },
    /// One flow-control credit returned for output port `port`.
    Credit {
        /// The output port regaining a credit.
        port: u32,
    },
    /// Self-scheduled: output port `port` finished serializing and is free.
    PumpOut {
        /// The output port that became free.
        port: u32,
    },
    /// A link-layer control frame (ack, nack, credit-resync handshake)
    /// finished arriving on the link paired with port `port`. Since
    /// output port *i* and input port *i* of every element connect to
    /// the same neighbor, one index addresses both the retransmit buffer
    /// an ack drives and the receive state a resync probe reads. The
    /// frame is checksummed wire traffic: receivers must verify
    /// [`CtrlFrame::checksum_ok`] and discard (count, never act on)
    /// frames that fail.
    Ctrl {
        /// The port pair this control frame belongs to.
        port: u32,
        /// The sealed (possibly fault-corrupted) control frame.
        frame: CtrlFrame,
    },
    /// Self-scheduled retransmission/resync timer for output port `port`.
    /// `gen` guards against stale timers (timers cannot be cancelled).
    RetxTimer {
        /// The output port being timed.
        port: u32,
        /// Timer generation at scheduling time.
        gen: u64,
    },
    /// Self-scheduled switch liveness timer. The tick (`alarm: false`)
    /// comes once per beacon period: it sends a keepalive on every port
    /// idle for the whole period and sweeps the failure detector. The
    /// one-shot alarm re-sends the verdict notices no neighbour has
    /// acknowledged within a timeout, and sweeps the detector at a
    /// deadline that falls between two ticks.
    Beacon {
        /// A one-shot alarm rather than the periodic tick.
        alarm: bool,
    },
}

impl NetEvent {
    /// Variant names, indexed by [`NetEvent::kind`].
    pub const KINDS: [&'static str; 6] = [
        "arrive",
        "credit",
        "pump_out",
        "ctrl",
        "retx_timer",
        "beacon",
    ];

    /// This event's variant as an index into [`NetEvent::KINDS`], for
    /// per-kind delivery counts.
    pub fn kind(&self) -> usize {
        match self {
            NetEvent::Arrive { .. } => 0,
            NetEvent::Credit { .. } => 1,
            NetEvent::PumpOut { .. } => 2,
            NetEvent::Ctrl { .. } => 3,
            NetEvent::RetxTimer { .. } => 4,
            NetEvent::Beacon { .. } => 5,
        }
    }
}

/// Embeds [`NetEvent`] into a simulation-wide message type.
///
/// The cluster model defines one event enum for the whole simulation; by
/// implementing this trait for it, the switches from this crate can be
/// registered in the same engine. `NetEvent` implements the trait
/// identically, which is what the standalone network tests use.
pub trait NetMessage: Sized + 'static {
    /// Wraps a network event.
    fn from_net(ev: NetEvent) -> Self;
    /// Unwraps a network event, or gives the message back if it is not one.
    fn into_net(self) -> Result<NetEvent, Self>;
    /// The network event inside, if this message is one.
    fn as_net(&self) -> Option<&NetEvent>;
}

impl NetMessage for NetEvent {
    fn from_net(ev: NetEvent) -> Self {
        ev
    }
    fn into_net(self) -> Result<NetEvent, Self> {
        Ok(self)
    }
    fn as_net(&self) -> Option<&NetEvent> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_embedding_round_trips() {
        let ev = NetEvent::Credit { port: 3 };
        let wrapped = NetEvent::from_net(ev.clone());
        assert_eq!(wrapped.into_net(), Ok(ev));
    }
}
