//! Per-node operation statistics.

use tg_sim::{SimTime, Summary};

/// Latency summaries (microseconds) and counters for one workstation.
///
/// One [`Summary`] per operation class; the E2/E3 experiments read
/// `remote_writes` and `remote_reads` directly against the paper's §3.2
/// table.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Remote (window) reads — CPU-observed microseconds.
    pub remote_reads: Summary,
    /// Remote (window) writes.
    pub remote_writes: Summary,
    /// Local shared-segment reads.
    pub local_reads: Summary,
    /// Local shared-segment writes (incl. replica/owned/eager pages).
    pub local_writes: Summary,
    /// Private-memory accesses.
    pub(crate) private_accesses: Summary,
    /// Atomic operations (full launch sequence).
    pub atomics: Summary,
    /// Remote-copy launches (CPU-side cost only; completion is async).
    pub(crate) copies: Summary,
    /// Fence stalls.
    pub fences: Summary,
    /// OS message sends (trap + copy).
    pub sends: Summary,
    /// OS message receives (blocked time).
    pub recvs: Summary,
    /// Page faults taken (VSM baseline).
    pub faults: u64,
    /// Pages replicated locally by the alarm policy.
    pub replications: u64,
    /// Pages invalidated under VSM.
    pub invalidations: u64,
    /// Link-layer faults surfaced to the OS (duplicate credits, FIFO
    /// overflows, dead links).
    pub link_failures: u64,
    /// Peer-down verdicts delivered to the OS by the failure detector.
    pub peer_downs: u64,
    /// Peer-up (restart) verdicts delivered to the OS.
    pub peer_ups: u64,
    /// Remote operations resolved with a structured failure
    /// (`OpError::PeerUnreachable`) instead of completing.
    pub op_failures: u64,
    /// When the process halted (none if still running).
    pub halted_at: Option<SimTime>,
}

impl NodeStats {
    /// Records a completed operation of the given class.
    pub(crate) fn record(&mut self, class: OpClass, latency: SimTime) {
        let us = latency.as_us_f64();
        match class {
            OpClass::RemoteRead => self.remote_reads.add(us),
            OpClass::RemoteWrite => self.remote_writes.add(us),
            OpClass::LocalRead => self.local_reads.add(us),
            OpClass::LocalWrite => self.local_writes.add(us),
            OpClass::Private => self.private_accesses.add(us),
            OpClass::Atomic => self.atomics.add(us),
            OpClass::Copy => self.copies.add(us),
            OpClass::Fence => self.fences.add(us),
            OpClass::Send => self.sends.add(us),
            OpClass::Recv => self.recvs.add(us),
            OpClass::Compute => {}
        }
    }
}

/// Operation classes for latency accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpClass {
    RemoteRead,
    RemoteWrite,
    LocalRead,
    LocalWrite,
    Private,
    Atomic,
    Copy,
    Fence,
    Send,
    Recv,
    Compute,
}

impl OpClass {
    /// The probe-level operation kind, if this class is observable
    /// (compute and private-memory ops have no packet lifecycle).
    pub(crate) fn op_kind(self) -> Option<tg_wire::trace::OpKind> {
        use tg_wire::trace::OpKind;
        match self {
            OpClass::RemoteRead => Some(OpKind::RemoteRead),
            OpClass::RemoteWrite => Some(OpKind::RemoteWrite),
            OpClass::LocalRead => Some(OpKind::LocalRead),
            OpClass::LocalWrite => Some(OpKind::LocalWrite),
            OpClass::Atomic => Some(OpKind::Atomic),
            OpClass::Copy => Some(OpKind::Copy),
            OpClass::Fence => Some(OpKind::Fence),
            OpClass::Send => Some(OpKind::Send),
            OpClass::Recv => Some(OpKind::Recv),
            OpClass::Private | OpClass::Compute => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_the_right_summary() {
        let mut s = NodeStats::default();
        s.record(OpClass::RemoteWrite, SimTime::from_ns(700));
        s.record(OpClass::RemoteRead, SimTime::from_us(7));
        s.record(OpClass::Compute, SimTime::from_us(1)); // not summarized
        assert_eq!(s.remote_writes.count(), 1);
        assert!((s.remote_writes.mean() - 0.7).abs() < 1e-9);
        assert_eq!(s.remote_reads.count(), 1);
        assert_eq!(s.local_reads.count(), 0);
    }
}
