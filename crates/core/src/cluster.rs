//! Cluster construction and the experiment-facing API.

use std::cell::Cell;
use std::hash::Hasher;
use std::rc::Rc;

use tg_hib::{HibConfig, HibTick, PageMode};
use tg_mem::{PAddr, PageFlags, SharedWindow, VAddr};
use tg_net::{
    build_network_with, DetectParams, FabricView, FaultInjector, FaultPlan, FaultStats, LinkId,
    NetConfig, NetEvent, PortSnapshot, RelParams, StalledLink, Topology, Vertex,
};
use tg_sim::{CompId, Engine, RunLimit, SimTime};
use tg_wire::trace::{Site, TraceCollector};
use tg_wire::{GOffset, NodeId, PageNum, TimingConfig, PAGE_BYTES};

use crate::event::ClusterEvent;
use crate::node::Node;
use crate::os::{Os, ReplicatePolicy};
use crate::pager::{Backing, RemotePager};
use crate::process::Process;

mod drive;
pub use drive::{Drive, Stop};

/// Base virtual address of each node's private heap.
pub(crate) const PRIVATE_VA_BASE: u64 = 0x1000_0000;
/// Pages of each node's private heap.
const PRIVATE_PAGES: u64 = 64;
/// Base virtual address of the cluster-wide shared region (same on every
/// node, as the OS of the paper would arrange).
pub(crate) const SHARED_VA_BASE: u64 = 0x4000_0000;
/// Base virtual address of a node's pager-managed region (experiment E11).
pub(crate) const PAGED_VA_BASE: u64 = 0x6000_0000;
/// Segment frames reserved for OS use (replication, VSM frames) per node.
const OS_FRAME_POOL: u32 = 256;

/// One cluster-wide shared page: a virtual page (common to all nodes)
/// backed by a page of the home node's exported segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SharedPage {
    /// Index within the shared region (defines the virtual address).
    pub index: u64,
    /// Home node.
    pub home: NodeId,
    /// Page within the home node's segment.
    pub home_page: PageNum,
}

impl SharedPage {
    /// Virtual address of byte `off` within the page (any node).
    ///
    /// # Panics
    ///
    /// Panics if `off` exceeds the page.
    pub fn va(&self, off: u64) -> VAddr {
        assert!(off < PAGE_BYTES, "offset beyond the page");
        VAddr::new(SHARED_VA_BASE + self.index * PAGE_BYTES + off)
    }

    /// The common virtual page number.
    pub fn vpage(&self) -> u64 {
        (SHARED_VA_BASE + self.index * PAGE_BYTES) >> tg_wire::PAGE_SHIFT
    }
}

/// Builder for a simulated Telegraphos cluster.
///
/// # Example
///
/// ```
/// use telegraphos::{Action, ClusterBuilder, Script};
///
/// let mut cluster = ClusterBuilder::new(2).build();
/// let page = cluster.alloc_shared(1);
/// cluster.set_process(
///     0,
///     Script::new(vec![
///         Action::Write(page.va(0), 42),
///         Action::Fence,
///     ]),
/// );
/// cluster.run();
/// assert_eq!(cluster.read_shared(&page, 0), 42);
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    nodes: u16,
    topology: Option<Topology>,
    timing: TimingConfig,
    hib: HibConfig,
    policy: ReplicatePolicy,
    reliability: Option<RelParams>,
    faults: Option<FaultPlan>,
}

impl ClusterBuilder {
    /// A cluster of `nodes` workstations (default: one switch, star wiring,
    /// Telegraphos I calibration).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn new(nodes: u16) -> Self {
        assert!(nodes > 0, "a cluster needs nodes");
        ClusterBuilder {
            nodes,
            topology: None,
            timing: TimingConfig::telegraphos_i(),
            hib: HibConfig::telegraphos_i(),
            policy: ReplicatePolicy::Never,
            reliability: None,
            faults: None,
        }
    }

    /// Uses a custom wiring (must have exactly `nodes` endpoints).
    pub fn topology(mut self, topo: Topology) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Overrides the timing calibration.
    pub fn timing(mut self, timing: TimingConfig) -> Self {
        self.timing = timing;
        self
    }

    /// Overrides the HIB configuration.
    pub fn hib_config(mut self, hib: HibConfig) -> Self {
        self.hib = hib;
        self
    }

    /// Sets the page-replication policy of every node's OS.
    pub fn replicate_policy(mut self, policy: ReplicatePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enrolls every fabric link in the link-level reliability protocol
    /// (per-link sequence numbers + checksums, ACK/NACK, a retransmit
    /// buffer with timeout and backoff, and the credit-resync handshake).
    /// Without this — and without [`ClusterBuilder::with_faults`] — links
    /// behave as the lossless hardware of the paper.
    pub fn reliable_links(mut self, params: RelParams) -> Self {
        self.reliability = Some(params);
        self
    }

    /// Installs a seeded fault plan: frames and credits are dropped,
    /// corrupted, blacked out or wedged per the plan, deterministically
    /// from its seed. Implies [`ClusterBuilder::reliable_links`] with
    /// default parameters unless explicitly configured.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the cluster.
    ///
    /// # Panics
    ///
    /// Panics if the topology endpoint count mismatches the node count or
    /// the network is disconnected.
    pub fn build(self) -> Cluster {
        let topo = self.topology.unwrap_or_else(|| Topology::star(self.nodes));
        assert_eq!(
            topo.endpoint_count(),
            self.nodes as usize,
            "topology endpoints != cluster nodes"
        );
        let mut engine: Engine<ClusterEvent> = Engine::new();
        let private = PRIVATE_VA_BASE >> tg_wire::PAGE_SHIFT;
        let window = Rc::new(SharedWindow::new(
            private..private + PRIVATE_PAGES,
            SHARED_VA_BASE >> tg_wire::PAGE_SHIFT,
        ));
        let mut node_ids = Vec::new();
        for i in 0..self.nodes {
            let id = NodeId::new(i);
            let mut os = Os::new(id);
            os.set_policy(self.policy);
            let seg_pages = self.hib.segment_pages;
            os.grant_frames((seg_pages.saturating_sub(OS_FRAME_POOL)..seg_pages).map(PageNum::new));
            let node = Node::new(
                id,
                self.timing.clone(),
                self.hib.clone(),
                os,
                window.clone(),
            );
            node_ids.push(engine.add(node));
        }
        let reliability = self
            .reliability
            .or_else(|| self.faults.as_ref().map(|_| RelParams::default()));
        let injector = self.faults.map(FaultInjector::new);
        let config = NetConfig {
            reliability,
            injector: injector.clone(),
        };
        let handles = build_network_with(&mut engine, &topo, &self.timing, &node_ids, &config)
            .expect("connected fabric");
        let view = handles.view.clone();
        for (idx, wiring) in handles.endpoints.into_iter().enumerate() {
            let node = engine
                .get_mut::<Node>(node_ids[idx])
                .expect("node component");
            node.hib_mut().wire(wiring.tx, wiring.rx_capacity);
            if let Some(inj) = injector.as_ref() {
                node.hib_mut().set_injector(inj.clone());
            }
        }
        Cluster {
            engine,
            nodes: node_ids,
            switches: handles.switches,
            n: self.nodes,
            next_seg_page: vec![0; self.nodes as usize],
            window,
            max_seg_page: self.hib.segment_pages.saturating_sub(OS_FRAME_POOL),
            timing: self.timing,
            injector,
            view,
            liveness: Rc::default(),
        }
    }
}

/// Per-component event counters plus component-kind-specific congestion
/// detail, as reported by [`Cluster::component_stats`].
#[derive(Clone, Debug)]
pub struct ComponentReport {
    /// The component's registered name (`node0`, `switch1`, ...).
    pub name: String,
    /// Engine-level delivered/absorbed/inlined/scheduled event counters.
    pub events: tg_sim::ComponentStats,
    /// Deliveries per event variant, indexed by `ClusterEvent::kind`
    /// (names in [`ClusterEvent::KINDS`]); they sum to `events.delivered`.
    /// A switch only receives the leading `net.*` kinds.
    pub kinds: [u64; ClusterEvent::KINDS.len()],
    /// Congestion and queue detail for the component kind.
    pub detail: ComponentDetail,
}

/// Kind-specific detail of a [`ComponentReport`].
#[derive(Clone, Debug)]
pub enum ComponentDetail {
    /// A workstation node (its HIB's queue state).
    Node {
        /// Deepest occupancy the HIB receive FIFO has reached.
        rx_fifo_high_water: u32,
        /// Packets currently queued in the HIB receive FIFO.
        rx_fifo_depth: usize,
        /// Packets currently queued for transmission.
        tx_queue_depth: usize,
        /// Total simulated time the transmit port spent blocked on
        /// credits.
        credit_stall: SimTime,
    },
    /// A fabric switch.
    Switch {
        /// Packets forwarded.
        packets: u64,
        /// Bytes forwarded.
        bytes: u64,
        /// Forwarding attempts deferred for want of credit or a busy
        /// output.
        blocked: u64,
        /// Deepest input-FIFO occupancy seen on any port.
        fifo_high_water: u32,
        /// Packets currently queued across all input FIFOs.
        fifo_depth: usize,
        /// Total simulated time output ports spent blocked on credits,
        /// summed across ports.
        credit_stall: SimTime,
        /// Liveness frames launched on all ports (keepalives, verdict
        /// notices and their acks).
        liveness_tx: u64,
    },
}

/// Queue and stall state of one fabric element, folded over its ports'
/// read-out.
#[derive(Clone, Copy, Default)]
struct Occupancy {
    /// Packets queued in its input FIFOs.
    depth: usize,
    /// Deepest occupancy any of its input FIFOs reached.
    high_water: u32,
    /// Credit-stall time summed over its transmit ports.
    stall: SimTime,
}

/// Queue and link state of one workstation when the watchdog tripped.
#[derive(Clone, Debug)]
pub struct StalledNode {
    /// The workstation.
    pub node: NodeId,
    /// Packets awaiting transmission at its HIB.
    pub(crate) tx_queue: usize,
    /// Packets sitting in its receive FIFO.
    pub(crate) rx_fifo: usize,
    /// Frames launched but not link-acknowledged on its output link.
    pub(crate) unacked: usize,
    /// Credits in hand at its transmit port.
    pub(crate) credits: u32,
    /// Whether its output link has been declared dead.
    pub(crate) dead: bool,
}

impl std::fmt::Display for StalledNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node{}: {} queued, {} in rx FIFO, {} unacked, {} credits{}",
            self.node.raw(),
            self.tx_queue,
            self.rx_fifo,
            self.unacked,
            self.credits,
            if self.dead { ", link DEAD" } else { "" }
        )
    }
}

/// A structured no-progress diagnosis, assembled by a watchdog
/// [`Cluster::drive`] when a full watchdog window elapses with
/// events still firing but nothing committing: instead of spinning (or
/// panicking) the run stops and names the links and nodes holding the
/// fabric.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Simulated time when the stall was declared.
    pub at: SimTime,
    /// Progress (committed packets + completed CPU operations) when the
    /// meter stopped advancing.
    pub(crate) progress: u64,
    /// Links held up: dead, carrying unacknowledged frames, or
    /// credit-starved with traffic pending. Stalls attributable to a
    /// crash-injected site (either endpoint inside an active crash
    /// window) are filtered out — a declared-dead peer is expected
    /// silence, not a deadlock.
    pub(crate) links: Vec<StalledLink>,
    /// Workstations with work still queued (crash-injected sites
    /// likewise filtered).
    pub nodes: Vec<StalledNode>,
    /// *Live* nodes the routing fabric can no longer reach: the cut
    /// disconnected the graph. Named so a partition reads as a
    /// partition, not an anonymous wedge.
    pub partition: Vec<NodeId>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "no progress for a full watchdog window (declared at {}, {} units committed):",
            self.at, self.progress
        )?;
        for l in &self.links {
            writeln!(f, "  link {l}")?;
        }
        for n in &self.nodes {
            writeln!(f, "  {n}")?;
        }
        if !self.partition.is_empty() {
            let names: Vec<String> = self
                .partition
                .iter()
                .map(|n| format!("node{}", n.raw()))
                .collect();
            writeln!(
                f,
                "  PARTITION: live nodes unreachable by routing: {}",
                names.join(", ")
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockReport {}

/// A running simulated cluster.
///
/// See [`ClusterBuilder`] for construction; the methods here are the
/// "privileged OS" interface experiments use to map pages, install
/// processes and inspect results.
#[derive(Debug)]
pub struct Cluster {
    engine: Engine<ClusterEvent>,
    nodes: Vec<CompId>,
    switches: Vec<CompId>,
    n: u16,
    next_seg_page: Vec<u32>,
    /// The address map every node shares: the private heap and the
    /// shared page window ([`SharedWindow`]).
    window: Rc<SharedWindow>,
    max_seg_page: u32,
    timing: TimingConfig,
    injector: Option<FaultInjector>,
    /// The shared fabric liveness view (present when the links are
    /// reliable): switches consult it for route-around tables, the
    /// cluster for partition diagnosis.
    view: Option<FabricView>,
    /// The liveness switch every HIB and switch tick reads: on while
    /// heartbeats run ([`Cluster::enable_heartbeats`]).
    liveness: Rc<Cell<bool>>,
}

impl Cluster {
    /// Number of workstations.
    pub fn node_count(&self) -> u16 {
        self.n
    }

    /// Allocates a cluster-wide shared page homed at `home`: one entry of
    /// the shared window, which maps it into every node's address space
    /// (locally at the home, as a remote window elsewhere) — the paper's
    /// "initialization phase that maps the shared pages".
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range or the home segment is full.
    pub fn alloc_shared(&mut self, home: u16) -> SharedPage {
        assert!(home < self.n, "home out of range");
        let home_page = self.alloc_frame(home);
        let home = NodeId::new(home);
        SharedPage {
            index: self.window.push(home, home_page),
            home,
            home_page,
        }
    }

    /// The address map's stored state: the shared window's entries, and
    /// per node the entries it keeps of its own (remaps, unmaps and OS
    /// mappings that differ from the cluster-wide rule).
    pub fn address_map_entries(&self) -> (usize, Vec<usize>) {
        let nodes = (0..self.n).map(|i| self.node(i).mmu().exceptions());
        (self.window.len(), nodes.collect())
    }

    fn alloc_frame(&mut self, node: u16) -> PageNum {
        let p = self.next_seg_page[node as usize];
        assert!(p < self.max_seg_page, "segment exhausted on node{node}");
        self.next_seg_page[node as usize] = p + 1;
        PageNum::new(p)
    }

    /// Replicates a shared page coherently onto `copies` (the §2.3 setup):
    /// each copy node gets a local frame bound by the owner-serialized
    /// update protocol.
    ///
    /// # Panics
    ///
    /// Panics if a copy node is the home or out of range.
    pub fn make_coherent(&mut self, sp: &SharedPage, copies: &[u16]) {
        let mut copy_list = Vec::new();
        for &c in copies {
            assert!(c < self.n && NodeId::new(c) != sp.home, "bad copy node");
            let frame = self.alloc_frame(c);
            let node = self.node_mut(c);
            node.mmu_mut().table_mut().map(
                sp.vpage(),
                PAddr::local_shared(frame.base()),
                PageFlags::RW,
            );
            node.hib_mut().shared_map().set_mode(
                frame,
                PageMode::Replica {
                    owner: sp.home,
                    owner_page: sp.home_page,
                },
            );
            copy_list.push((NodeId::new(c), frame));
        }
        let home = self.node_mut(sp.home.raw());
        home.hib_mut()
            .shared_map()
            .set_mode(sp.home_page, PageMode::Owned { copies: copy_list });
    }

    /// Maps a shared page out for eager-update multicast (§2.2.7): every
    /// store by the home lands in each consumer's local frame; consumers
    /// read locally (read-only mapping). Returns each consumer's local
    /// frame so services and audits can inspect the replicated copies
    /// (see [`Cluster::read_local_frame`]).
    ///
    /// # Panics
    ///
    /// Panics if a consumer node is the home or out of range.
    pub fn make_eager(&mut self, sp: &SharedPage, consumers: &[u16]) -> Vec<(NodeId, PageNum)> {
        let mut outs = Vec::new();
        for &c in consumers {
            assert!(c < self.n && NodeId::new(c) != sp.home, "bad consumer");
            let frame = self.alloc_frame(c);
            let node = self.node_mut(c);
            node.mmu_mut().table_mut().map(
                sp.vpage(),
                PAddr::local_shared(frame.base()),
                PageFlags::RO,
            );
            outs.push((NodeId::new(c), frame));
        }
        let home = self.node_mut(sp.home.raw());
        home.hib_mut()
            .shared_map()
            .set_mode(sp.home_page, PageMode::EagerMapped { outs: outs.clone() });
        outs
    }

    /// Converts a shared page to software VSM management (the invalidate
    /// baseline): non-home nodes start unmapped and fault their way to
    /// copies.
    pub fn make_vsm(&mut self, sp: &SharedPage) {
        for i in 0..self.n {
            let frame = if NodeId::new(i) == sp.home {
                sp.home_page
            } else {
                self.alloc_frame(i)
            };
            let node = self.node_mut(i);
            node.os_mut()
                .vsm
                .register(sp.index, sp.vpage(), sp.home, frame);
            if NodeId::new(i) != sp.home {
                node.mmu_mut().table_mut().unmap(sp.vpage());
            }
        }
    }

    /// Configures remote-memory (or disk) paging on `node`: `n_pages`
    /// virtual pages at `PAGED_VA_BASE`, of which at most `capacity` are
    /// resident. With [`Backing::RemoteMemory`] the backing frames live in
    /// `server`'s segment and pages move over the fabric; with
    /// [`Backing::Disk`] each transfer costs the configured disk latency.
    /// Returns the virtual addresses of the paged pages.
    ///
    /// # Panics
    ///
    /// Panics if the backing server equals the paging node or is out of
    /// range.
    pub fn make_paged(
        &mut self,
        node: u16,
        backing: Backing,
        n_pages: u32,
        capacity: usize,
    ) -> Vec<VAddr> {
        if let Backing::RemoteMemory { server } = backing {
            assert!(server.raw() < self.n, "server out of range");
            assert_ne!(server.raw(), node, "server must be a different node");
        }
        let mut pager = RemotePager::new(backing, capacity);
        let mut vas = Vec::new();
        // Backing frames are allocated on the server (or symbolically for
        // disk); resident frames on the paging node.
        for k in 0..n_pages {
            let vpage = (PAGED_VA_BASE >> tg_wire::PAGE_SHIFT) + u64::from(k);
            let local_frame = self.alloc_frame(node);
            let server_frame = match backing {
                Backing::RemoteMemory { server } => self.alloc_frame(server.raw()),
                Backing::Disk => PageNum::new(k),
            };
            pager.register(vpage, local_frame, server_frame);
            vas.push(VAddr::new(vpage << tg_wire::PAGE_SHIFT));
        }
        self.node_mut(node).os_mut().pager = Some(pager);
        vas
    }

    /// Arms the §2.2.6 access counters for a remote page at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the page's home (counters track *remote* pages).
    pub fn arm_counters(&mut self, node: u16, sp: &SharedPage, reads: u16, writes: u16) {
        assert_ne!(NodeId::new(node), sp.home, "counters are for remote pages");
        let (home, page) = (sp.home, sp.home_page);
        self.node_mut(node)
            .hib_mut()
            .shared_map()
            .arm_counters(home, page, reads, writes);
    }

    /// Reads back a remote page's access counters at `node` — the §2.2.6
    /// monitoring use ("by setting the counters to very large values and
    /// periodically reading them, the system can monitor the page access,
    /// find hot-spots, display statistics"). Returns
    /// `(remaining_reads, remaining_writes)` if armed.
    pub fn read_counters(&mut self, node: u16, sp: &SharedPage) -> Option<(u16, u16)> {
        let (home, page) = (sp.home, sp.home_page);
        self.node_mut(node)
            .hib_mut()
            .shared_map()
            .counters(home, page)
            .map(|c| (c.reads, c.writes))
    }

    /// Installs a process on a node and schedules its start.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_process(&mut self, node: u16, p: impl Process) {
        let comp = self.nodes[node as usize];
        self.node_mut(node).set_process(Box::new(p));
        self.engine
            .schedule(SimTime::ZERO, comp, ClusterEvent::Start);
    }

    /// Adds an additional process to a node (multiprogramming): it gets
    /// its own Telegraphos context + key and is scheduled cooperatively
    /// with the node's other processes, switching on OS-level blocks.
    /// Returns the process index on that node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn add_process(&mut self, node: u16, p: impl Process) -> usize {
        let comp = self.nodes[node as usize];
        let idx = self.node_mut(node).add_process(Box::new(p));
        self.engine
            .schedule(SimTime::ZERO, comp, ClusterEvent::Start);
        idx
    }

    /// Runs until every event drains.
    pub fn run(&mut self) -> RunLimit {
        self.engine.run()
    }

    /// Runs until the given simulated instant.
    pub fn run_until(&mut self, t: SimTime) -> RunLimit {
        self.engine.run_until(t)
    }

    /// Starts liveness on every element: each board and each switch
    /// ticks, keeps its idle links alive and judges its neighbours, and
    /// switches flood their verdicts to the boards, all with the cadence
    /// and suspicion thresholds of `params` — the one liveness
    /// configuration.
    /// Heartbeats self-rearm, so a heartbeat-enabled cluster never
    /// drains on its own — drive it with a [`Drive::quiescent`] plan,
    /// which stops heartbeats once the workload is done and drains. A
    /// call while heartbeats run changes nothing: the running ticks keep
    /// their configuration, and no element runs a second chain.
    ///
    /// # Panics
    ///
    /// Panics if the cluster was built without reliable links
    /// ([`ClusterBuilder::reliable_links`] or a fault plan), or if
    /// `params` fails [`DetectParams::validate`] (zero periods or an
    /// inverted `peer_timeout <= heartbeat_every`).
    pub fn enable_heartbeats(&mut self, params: DetectParams) {
        assert!(self.view.is_some(), "heartbeats need reliable links");
        if let Err(e) = params.validate() {
            panic!("invalid DetectParams: {e}");
        }
        let peers: Vec<NodeId> = (0..self.n).map(NodeId::new).collect();
        let now = self.engine.now();
        if !self.liveness.get() {
            // A fresh switch: elements stopped under the old one restart.
            self.liveness = Rc::new(Cell::new(true));
        }
        let on = &self.liveness;
        for i in 0..self.n {
            let comp = self.nodes[i as usize];
            let node = self.engine.get_mut::<Node>(comp).expect("node component");
            if node.hib_mut().prime_heartbeats(&peers, now, &params, on) {
                self.engine.schedule(
                    SimTime::ZERO,
                    comp,
                    ClusterEvent::HibTick(HibTick::Heartbeat),
                );
            }
        }
        for &comp in &self.switches {
            let switch = self.engine.get_mut::<tg_net::Switch>(comp);
            if switch
                .expect("switch component")
                .start_beacons(&params, now, on)
            {
                let tick = ClusterEvent::Net(NetEvent::Beacon { alarm: false });
                self.engine.schedule(SimTime::ZERO, comp, tick);
            }
        }
    }

    /// Stops every board's and every switch's liveness tick: the pending
    /// ticks do not rearm and no notice is re-sent, so the event queue
    /// can drain. It turns the shared liveness switch off and reaches no
    /// element, since nothing an element absorbs depends on it.
    pub(crate) fn stop_heartbeats(&mut self) {
        self.liveness.set(false);
    }

    /// True when every node that has processes is either fully halted or
    /// crash-silenced by the fault plan right now.
    fn workload_done(&self) -> bool {
        let now = self.now();
        (0..self.n).all(|i| {
            let node = self.node(i);
            !node.has_process() || node.halted() || self.site_crashed(Site::Node(node.id()), now)
        })
    }

    /// True when `site` sits inside an active crash window: its silence
    /// is injected, not a wedge.
    fn site_crashed(&self, site: Site, at: SimTime) -> bool {
        self.injector
            .as_ref()
            .map(|inj| inj.site_down(site, at))
            .unwrap_or(false)
    }

    fn deadlock_report(&self, at: SimTime, progress: u64) -> DeadlockReport {
        let (mut links, mut nodes) = (Vec::new(), Vec::new());
        for p in self.ports() {
            // A switch port is blocked while its credit-stall window is
            // open; a workstation's while its HIB queues packets with no
            // credit in hand.
            let blocked = match p.link.from {
                Site::Switch(_) => p.credit_stalled,
                // A crashed workstation's stranded queues are the fault
                // plan at work, not a deadlock.
                site @ Site::Node(_) if self.site_crashed(site, at) => continue,
                Site::Node(id) => {
                    let tx_queue = self.node(id.raw()).tx_queue_depth();
                    if tx_queue > 0 || p.rx_fifo_depth > 0 || p.unacked > 0 || p.dead {
                        nodes.push(StalledNode {
                            node: id,
                            tx_queue,
                            rx_fifo: p.rx_fifo_depth as usize,
                            unacked: p.unacked,
                            credits: p.credits,
                            dead: p.dead,
                        });
                    }
                    tx_queue > 0 && p.credits == 0
                }
            };
            links.extend(p.stalled(blocked));
        }
        // A stalled link with a crashed endpoint is expected silence.
        links.retain(|l| !self.site_crashed(l.link.from, at) && !self.site_crashed(l.link.to, at));
        // Name live nodes the recomputed routes can no longer reach: a
        // cut that disconnects the graph reads as a partition.
        let mut partition = Vec::new();
        if let Some(view) = self.view.as_ref() {
            for v in view.unreachable() {
                if let Vertex::Node(raw) = v {
                    let id = NodeId::new(raw);
                    if !self.site_crashed(Site::Node(id), at) {
                        partition.push(id);
                    }
                }
            }
            partition.sort_unstable_by_key(|n| n.raw());
        }
        DeadlockReport {
            at,
            progress,
            links,
            nodes,
            partition,
        }
    }

    /// Conservation invariants, checked from component state (meant for
    /// quiescence — after [`Cluster::run`] drains). Two books must
    /// balance:
    ///
    /// * **credits** — per link, credits in hand + unacknowledged frames
    ///   must equal the allowance once FIFOs are empty (a shortfall is a
    ///   leaked credit, an excess a duplicate); while FIFOs still hold
    ///   frames only the excess side is checkable;
    /// * **packets** — frames injected by HIBs must equal frames committed
    ///   plus frames still stranded in retransmit buffers or queues.
    ///
    /// Returns one human-readable line per violation, naming the culprit
    /// link or totals; empty means all books balance.
    pub fn conservation_violations(&self) -> Vec<String> {
        // Crash windows legitimately swallow frames, acks, and credits
        // at the injector boundary, so the strict equalities cannot hold
        // under a crash plan: the credit and reorder books are skipped
        // and the packet book degrades to an upper bound against the
        // injector's loss tallies.
        let crashy = self
            .injector
            .as_ref()
            .map(|inj| !inj.plan().crash_windows().is_empty())
            .unwrap_or(false);
        let mut violations = Vec::new();
        let ports: Vec<PortSnapshot> = self.ports().collect();
        let queued: u64 = ports.iter().map(|p| u64::from(p.rx_fifo_depth)).sum();
        let unacked: u64 = ports.iter().map(|p| p.unacked as u64).sum();
        for p in &ports {
            if p.overcommitted() || (queued == 0 && !crashy && !p.balanced()) {
                violations.push(format!(
                    "credit leak on {}: {} in hand + {} unacked != allowance {}",
                    p.link, p.credits, p.unacked, p.allowance
                ));
            }
        }
        let (mut injected, mut committed) = (0u64, 0u64);
        for i in 0..self.n {
            let st = self.node(i).hib_stats();
            injected += st.pkts_tx;
            committed += st.committed;
        }
        if crashy {
            let lost = self
                .fault_stats()
                .map(|s| s.frames_lost())
                .unwrap_or_default();
            if injected > committed + unacked + queued + lost {
                violations.push(format!(
                    "packet leak: {injected} injected > {committed} committed \
                     + {unacked} unacked + {queued} queued + {lost} crash/fault losses"
                ));
            }
        } else if injected != committed + unacked + queued {
            violations.push(format!(
                "packet leak: {injected} injected != {committed} committed \
                 + {unacked} unacked + {queued} queued"
            ));
        }
        // SACK reorder windows must be empty at quiescence: a parked frame
        // with no pending retransmission means a gap that will never fill.
        // Under a crash plan a survivor may legitimately hold frames
        // parked on a gap whose filler died with the crashed origin.
        if !crashy {
            let parked: usize = ports.iter().map(|p| p.reorder_depth).sum();
            if parked > 0 {
                violations.push(format!(
                    "reorder leak: {parked} frames still parked in SACK windows"
                ));
            }
        }
        violations
    }

    /// Cumulative fault-injection tallies (drops, corruptions, outage
    /// losses, lost credits), when a fault plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(|i| i.stats())
    }

    /// The installed fault plan, when one was given to the builder — the
    /// ground truth crash schedule that trace checkers reconcile
    /// peer-down/peer-up verdicts against.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.injector.as_ref().map(|i| i.plan().clone())
    }

    /// The read-out of every fabric port, in a deterministic order:
    /// switch ports in fabric order, then node uplinks. A port belongs to
    /// the element its link leaves, `link.from`.
    fn ports(&self) -> impl Iterator<Item = PortSnapshot> + '_ {
        let switches = self.switches.iter();
        let switch_ports = switches.flat_map(|&id| self.switch(id).port_snapshots());
        switch_ports.chain((0..self.n).filter_map(|i| self.node(i).hib().port_snapshot()))
    }

    /// Per node, then per switch, the occupancy folded from the ports'
    /// read-out.
    fn occupancy(&self) -> (Vec<Occupancy>, Vec<Occupancy>) {
        let mut nodes = vec![Occupancy::default(); usize::from(self.n)];
        let mut switches = vec![Occupancy::default(); self.switches.len()];
        for p in self.ports() {
            let o = match p.link.from {
                Site::Node(id) => &mut nodes[id.index()],
                Site::Switch(k) => &mut switches[usize::from(k)],
            };
            o.depth += p.rx_fifo_depth as usize;
            o.high_water = o.high_water.max(p.rx_fifo_high_water);
            o.stall += p.credit_stall;
        }
        (nodes, switches)
    }

    /// Frames retransmitted across the whole fabric (switch output ports
    /// and HIB transmit ports).
    pub fn fabric_retransmits(&self) -> u64 {
        self.ports().map(|p| p.retransmits).sum()
    }

    /// The fabric's wire fingerprint: every port's wire log
    /// ([`PortSnapshot::wire`]) folded in port order. Two runs that put
    /// the same frames on the same wires at the same instants agree on
    /// it, whatever the engine elided on the way.
    pub fn wire_fingerprint(&self) -> u64 {
        let mut h = tg_wire::Fnv1a::default();
        self.ports().for_each(|p| h.write_u64(p.wire));
        h.finish()
    }

    /// Completed credit-resync handshakes across the whole fabric.
    pub fn fabric_resyncs(&self) -> u64 {
        self.ports().map(|p| p.resyncs).sum()
    }

    /// Credit-resync probes issued across the whole fabric. Every traced
    /// `CreditResync` event marks either a probe launch or a completed
    /// handshake, so traced events reconcile as probes + resyncs.
    pub fn fabric_resync_probes(&self) -> u64 {
        self.ports().map(|p| p.resync_probes).sum()
    }

    /// Frames rejected by receive link layers across the whole fabric
    /// (checksum or sequence violations, duplicates). Together with the
    /// injector's drop tallies these account for every traced `Dropped`
    /// event on a fabric without FIFO-overflow errors.
    pub fn fabric_rx_discards(&self) -> u64 {
        self.ports().map(|p| p.rx_discards).sum()
    }

    /// Wire bytes retransmitted across the whole fabric — the
    /// wire-efficiency cost of loss recovery (go-back-N resends every
    /// in-flight successor of a lost frame; SACK only the missing ones).
    pub fn fabric_retx_bytes(&self) -> u64 {
        self.ports().map(|p| p.retx_bytes).sum()
    }

    /// Control frames discarded for a failed checksum across the whole
    /// fabric. Corrupted control frames always arrive (corruption flips
    /// bits, it does not drop), so this total reconciles exactly against
    /// the injector's `ctrl_corrupts` tally.
    pub fn fabric_ctrl_discards(&self) -> u64 {
        self.ports().map(|p| p.ctrl_discards).sum()
    }

    /// Per-directed-link statistics joined from both ends of every hop,
    /// in a deterministic order (each port's link, then its reverse, as
    /// the ports come: switch ports in fabric order, then node uplinks).
    ///
    /// Each port's read-out holds the transmit half of the link it drives
    /// and the receive half of the reverse hop; every link is one of a
    /// bidirectional pair, so [`PortSnapshot::joined`] with the port at
    /// the far end gives the whole link. The canonical metric names for
    /// the fields are `link.<from>-<to>.<metric>` (see
    /// [`tg_wire::metric`]).
    pub fn link_snapshots(&self) -> Vec<PortSnapshot> {
        let ports: Vec<PortSnapshot> = self.ports().collect();
        let driver: std::collections::HashMap<LinkId, &PortSnapshot> =
            ports.iter().map(|p| (p.link, p)).collect();
        let mut seen = std::collections::HashSet::with_capacity(ports.len());
        let links = ports
            .iter()
            .flat_map(|p| [p.link, LinkId::new(p.link.to, p.link.from)]);
        links
            .filter(|&link| seen.insert(link))
            .map(|link| driver[&link].joined(driver[&LinkId::new(link.to, link.from)]))
            .collect()
    }

    /// Structured link errors recorded anywhere in the fabric, with the
    /// name of the component that observed each.
    pub fn link_errors(&self) -> Vec<(String, tg_net::LinkError)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for &e in self.node(i).hib().link_errors() {
                out.push((format!("node{i}"), e));
            }
        }
        for (k, &id) in self.switches.iter().enumerate() {
            for &e in self.switch(id).link_errors() {
                out.push((format!("switch{k}"), e));
            }
        }
        out
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Event-engine run counters (delivered, absorbed, inlined and
    /// scheduled totals, queue high-water mark) — the simulator-throughput
    /// side of an experiment. Delivered + absorbed + inlined is the
    /// logical event count.
    pub fn engine_stats(&self) -> tg_sim::EngineStats {
        self.engine.stats()
    }

    /// Per-component delivered/absorbed/inlined/scheduled counters and
    /// per-kind delivery counts, plus kind-specific congestion detail:
    /// receive-FIFO high-water marks and credit-stall time for nodes,
    /// traffic and queue state for switches — which parts
    /// of the simulated cluster the event budget went to, and where
    /// back-pressure built up.
    pub fn component_stats(&self) -> Vec<ComponentReport> {
        let per = self.engine.component_stats();
        let (node_occ, switch_occ) = self.occupancy();
        let mut out = Vec::with_capacity(self.nodes.len() + self.switches.len());
        for (&id, occ) in self.nodes.iter().zip(node_occ) {
            let node = self.engine.get::<Node>(id).expect("node component");
            out.push(ComponentReport {
                name: format!("node{}", node.id().raw()),
                events: per[id.index()],
                kinds: node.event_kinds(),
                detail: ComponentDetail::Node {
                    rx_fifo_high_water: occ.high_water,
                    rx_fifo_depth: occ.depth,
                    tx_queue_depth: node.tx_queue_depth(),
                    credit_stall: occ.stall,
                },
            });
        }
        for (k, (&id, occ)) in self.switches.iter().zip(switch_occ).enumerate() {
            let sw = self.switch(id);
            let st = sw.stats();
            let mut kinds = [0; ClusterEvent::KINDS.len()];
            kinds[..NetEvent::KINDS.len()].copy_from_slice(&sw.event_kinds());
            out.push(ComponentReport {
                name: format!("switch{k}"),
                events: per[id.index()],
                kinds,
                detail: ComponentDetail::Switch {
                    packets: st.packets,
                    bytes: st.bytes,
                    blocked: st.blocked,
                    fifo_high_water: occ.high_water,
                    fifo_depth: occ.depth,
                    credit_stall: occ.stall,
                    liveness_tx: st.liveness_tx,
                },
            });
        }
        out
    }

    /// Enables cluster-wide packet-lifecycle tracing on every node (CPU +
    /// HIB) and every switch, and returns the log gathering the events.
    pub fn enable_tracing(&mut self) -> TraceCollector {
        let log = TraceCollector::new();
        for i in 0..self.n {
            self.node_mut(i).set_tracer(&log);
        }
        for &id in &self.switches {
            self.engine
                .get_mut::<tg_net::Switch>(id)
                .expect("switch component")
                .set_tracer(&log);
        }
        log
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: u16) -> &Node {
        self.engine
            .get::<Node>(self.nodes[i as usize])
            .expect("node component")
    }

    /// The switch registered as component `id`.
    fn switch(&self, id: CompId) -> &tg_net::Switch {
        self.engine
            .get::<tg_net::Switch>(id)
            .expect("switch component")
    }

    /// Mutable node access (privileged setup).
    pub fn node_mut(&mut self, i: u16) -> &mut Node {
        self.engine
            .get_mut::<Node>(self.nodes[i as usize])
            .expect("node component")
    }

    /// Reads word `word` of a shared page at its home (ground truth).
    pub fn read_shared(&self, sp: &SharedPage, word: u64) -> u64 {
        self.node(sp.home.raw())
            .segment_read(GOffset::from_page(sp.home_page, word * 8))
    }

    /// Writes word `word` of a shared page at its home — privileged
    /// initialization (service directories, seeded data sets) that
    /// bypasses the fabric, for use before a run starts.
    pub fn write_shared(&mut self, sp: &SharedPage, word: u64, val: u64) {
        self.node_mut(sp.home.raw())
            .segment_write(GOffset::from_page(sp.home_page, word * 8), val);
    }

    /// Reads word `word` of the frame backing `sp` at `node` (the local
    /// copy under coherent replication or VSM).
    pub fn read_local_frame(&self, node: u16, frame: PageNum, word: u64) -> u64 {
        self.node(node)
            .segment_read(GOffset::from_page(frame, word * 8))
    }

    /// True when every node with a process has halted.
    pub fn all_halted(&self) -> bool {
        (0..self.n).all(|i| {
            let node = self.node(i);
            !node.has_process() || node.stats().halted_at.is_some()
        })
    }

    /// Total bytes switched through the fabric.
    pub fn fabric_bytes(&self) -> u64 {
        self.switches
            .iter()
            .map(|&s| self.switch(s).stats().bytes)
            .sum()
    }

    /// A formatted per-node operation summary — handy at the end of
    /// examples and experiments.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<6} {:>7} {:>9} {:>7} {:>9} {:>8} {:>7} {:>7}",
            "node", "rd-rem", "rd-rem us", "wr-rem", "wr-rem us", "atomics", "faults", "repl"
        );
        for i in 0..self.n {
            let st = self.node(i).stats();
            let _ = writeln!(
                s,
                "{:<6} {:>7} {:>9.2} {:>7} {:>9.2} {:>8} {:>7} {:>7}",
                format!("n{i}"),
                st.remote_reads.count(),
                st.remote_reads.mean(),
                st.remote_writes.count(),
                st.remote_writes.mean(),
                st.atomics.count(),
                st.faults,
                st.replications,
            );
        }
        let _ = writeln!(
            s,
            "fabric: {} packets / {} bytes; simulated time {}",
            self.fabric_packets(),
            self.fabric_bytes(),
            self.now()
        );
        s
    }

    /// Total packets switched through the fabric.
    pub fn fabric_packets(&self) -> u64 {
        self.switches
            .iter()
            .map(|&s| self.switch(s).stats().packets)
            .sum()
    }
}
