//! Deployment and drive: wiring the service onto a cluster.
//!
//! [`deploy`] allocates the shared pages, seeds the directory, and
//! installs one [`KvServer`] per replica node and one
//! [`KvClient`] per client node. [`drive`] then runs
//! the cluster in two phases: slices until every client resolved its
//! whole schedule (clients always terminate — every request has an
//! attempt budget), then raises the stop flag so the servers — which
//! otherwise poll their mailboxes forever — halt, and drains.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use telegraphos::{Cluster, Drive, SharedPage, Stop};
use tg_proto::RangeMap;
use tg_sim::{RunLimit, SimRng, SimTime};
use tg_wire::{NodeId, PageNum};

use crate::client::KvClient;
use crate::config::KvConfig;
use crate::layout::OpKindKv;
use crate::server::KvServer;

/// Why a request stopped: its terminal state at the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Acked `Ok` by a replica — for a put this means the write was
    /// applied and fenced to every live replica *before* the ack left.
    Committed,
    /// The admission controller shed it `busy_budget` times; the client
    /// gave up (backpressure made visible to the workload).
    RejectedBusy,
    /// Every route was exhausted: the attempt budget ran out with no
    /// reachable owner.
    FailedUnreachable,
}

/// One request's full life at its client, for the audit.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// Client index (0-based; node id is `1 + replicas + client`).
    pub client: u16,
    /// Request id (1-based, per client).
    pub req: u32,
    /// Put or get.
    pub op: OpKindKv,
    /// Target key.
    pub key: u32,
    /// Open-loop scheduled arrival.
    pub arrival: SimTime,
    /// When the terminal outcome was reached.
    pub resolved: SimTime,
    /// Transmissions (1 = first try succeeded).
    pub attempts: u32,
    /// Ownership failovers this request drove.
    pub failovers: u32,
    /// Terminal state.
    pub outcome: Outcome,
    /// For committed gets: the merged stamp served (0 = unwritten key).
    pub get_stamp: u32,
}

/// One apply decision at a server, for the audit.
#[derive(Clone, Copy, Debug)]
pub struct ApplyEvent {
    /// Replica index of the applying server.
    pub server: u16,
    /// Client index the request came from.
    pub client: u16,
    /// Request id.
    pub req: u32,
    /// Key written.
    pub key: u32,
    /// True if this apply wrote the store; false if the idempotence
    /// guard recognised a duplicate and only re-acked.
    pub fresh: bool,
    /// Simulated instant of the decision.
    pub at: SimTime,
}

/// Per-server counters and the apply log.
#[derive(Default, Debug)]
pub struct ServerLog {
    /// Every apply decision (fresh and dedup), in order.
    pub applies: Vec<ApplyEvent>,
    /// Requests shed with `Busy` by admission control.
    pub busy_acks: u64,
    /// Duplicate puts recognised by the idempotence guard.
    pub dedup_hits: u64,
    /// Requests refused because the directory says the range moved.
    pub not_owner_acks: u64,
    /// Requests parked because the directory was unreachable (the
    /// split-brain guard: never commit without an ownership check).
    pub parked: u64,
    /// Gets served.
    pub gets_served: u64,
    /// Mailbox sweep passes.
    pub sweeps: u64,
}

/// Per-client counters and the request log.
#[derive(Default, Debug)]
pub struct ClientLog {
    /// Terminal record per request, in issue order.
    pub requests: Vec<RequestRecord>,
    /// Adaptive-timeout expiries.
    pub timeouts: u64,
    /// `Busy` acks absorbed (each backs off and retries).
    pub busy_acks: u64,
    /// Re-routes where the blocking reachability probe failed fast at
    /// issue time instead of waiting out a timeout.
    pub fail_fast_reroutes: u64,
    /// Acks observed for a request other than the live one (stale).
    pub stale_acks: u64,
    /// Directory re-reads after a `NotOwner` ack.
    pub dir_refreshes: u64,
    /// Directory operations that failed structurally.
    pub dir_failures: u64,
}

/// The page subset a process carries (pages are `Copy`; each process
/// keeps its own vector).
#[derive(Clone)]
pub(crate) struct KvPagesLite {
    pub mailboxes: Vec<SharedPage>,
    pub acks: Vec<SharedPage>,
    pub stores: Vec<SharedPage>,
    pub dir: SharedPage,
}

/// The service's shared pages.
pub struct KvPages {
    /// Request mailboxes, one per replica (homed on it).
    pub mailboxes: Vec<SharedPage>,
    /// Ack pages, one per client (homed on it).
    pub acks: Vec<SharedPage>,
    /// Store pages, one per replica (homed on it, eager-mapped to the
    /// rest of the replica set).
    pub stores: Vec<SharedPage>,
    /// Per store page: the consumer replicas' local frames, for audits
    /// that inspect replica copies directly.
    pub store_copies: Vec<Vec<(NodeId, PageNum)>>,
    /// The ownership directory on node 0.
    pub dir: SharedPage,
}

/// Everything a campaign needs to drive and audit a deployment.
pub struct KvHandles {
    /// The deployed configuration.
    pub cfg: KvConfig,
    /// The shared pages.
    pub pages: KvPages,
    /// The ownership map (identical at every participant).
    pub map: RangeMap,
    /// One log per replica server.
    pub server_logs: Vec<Rc<RefCell<ServerLog>>>,
    /// One log per client.
    pub client_logs: Vec<Rc<RefCell<ClientLog>>>,
    /// Raised by [`drive`] once every client resolved; servers halt at
    /// their next wake.
    pub stop: Rc<Cell<bool>>,
}

/// Allocates the pages, seeds the directory, and installs the server
/// and client processes. The cluster must already be built (and its
/// heartbeats enabled by the caller — the failover path depends on
/// conviction verdicts).
///
/// # Panics
///
/// Panics if `cfg` fails [`KvConfig::validate`] or the cluster has
/// fewer than [`KvConfig::nodes_required`] nodes.
pub fn deploy(cluster: &mut Cluster, cfg: &KvConfig) -> KvHandles {
    if let Err(e) = cfg.validate() {
        panic!("invalid KvConfig: {e}");
    }
    assert!(
        cluster.node_count() >= cfg.nodes_required(),
        "cluster too small: {} nodes, need {}",
        cluster.node_count(),
        cfg.nodes_required()
    );
    let replica_nodes = cfg.replica_nodes();
    let map = RangeMap::new(cfg.ranges, &replica_nodes);

    // Directory: owner word per range (seeded with the static homes),
    // epoch word per range (seeded 0).
    let dir = cluster.alloc_shared(0);
    for g in 0..cfg.ranges {
        cluster.write_shared(&dir, u64::from(g), u64::from(map.home_of(g).raw()));
    }

    let mut mailboxes = Vec::new();
    let mut stores = Vec::new();
    let mut store_copies = Vec::new();
    for (ri, &rn) in replica_nodes.iter().enumerate() {
        mailboxes.push(cluster.alloc_shared(rn.raw()));
        let store = cluster.alloc_shared(rn.raw());
        let consumers: Vec<u16> = replica_nodes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != ri)
            .map(|(_, n)| n.raw())
            .collect();
        store_copies.push(cluster.make_eager(&store, &consumers));
        stores.push(store);
    }
    let acks: Vec<SharedPage> = cfg
        .client_nodes()
        .iter()
        .map(|cn| cluster.alloc_shared(cn.raw()))
        .collect();

    let stop = Rc::new(Cell::new(false));
    let mut server_logs = Vec::new();
    for (ri, rn) in replica_nodes.iter().enumerate() {
        let log = Rc::new(RefCell::new(ServerLog::default()));
        server_logs.push(Rc::clone(&log));
        let server = KvServer::new(
            ri as u16,
            cfg,
            &map,
            &mailboxes,
            &acks,
            &stores,
            &dir,
            Rc::clone(&log),
            Rc::clone(&stop),
        );
        cluster.set_process(rn.raw(), server);
    }

    let mut client_logs = Vec::new();
    let mut base_rng = SimRng::new(cfg.seed);
    for (ci, cn) in cfg.client_nodes().into_iter().enumerate() {
        let log = Rc::new(RefCell::new(ClientLog::default()));
        client_logs.push(Rc::clone(&log));
        let client = KvClient::new(
            ci as u16,
            cfg,
            &map,
            &mailboxes,
            &acks[ci],
            &dir,
            base_rng.fork(ci as u64),
            Rc::clone(&log),
        );
        cluster.set_process(cn.raw(), client);
    }

    KvHandles {
        cfg: cfg.clone(),
        pages: KvPages {
            mailboxes,
            acks,
            stores,
            store_copies,
            dir,
        },
        map,
        server_logs,
        client_logs,
        stop,
    }
}

/// Drives a deployed service to completion in `step` slices: runs until
/// every client halted (or `limit` passes), then raises the stop flag and
/// drives the servers to quiescence. Returns [`RunLimit::Deadline`] if the
/// clients did not finish in time.
pub fn drive(
    cluster: &mut Cluster,
    handles: &KvHandles,
    step: SimTime,
    limit: SimTime,
) -> RunLimit {
    let clients = handles.cfg.client_nodes();
    let serve = Drive {
        stop: Stop::Halted(&clients),
        ..Drive::quiescent(step, limit)
    };
    let served = cluster.drive(serve).expect("the watchdog is off");
    handles.stop.set(true);
    let rest = cluster
        .drive(Drive::quiescent(step, limit))
        .expect("the watchdog is off");
    if served == RunLimit::Halted {
        rest
    } else {
        RunLimit::Deadline
    }
}
