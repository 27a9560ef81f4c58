//! Deterministic, deadlock-free route computation.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use tg_sim::SimTime;

use crate::topology::{Topology, Vertex};

/// Route computation failures.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// Some vertex cannot reach the rest of the network.
    Disconnected(Vertex),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Disconnected(v) => write!(f, "topology is disconnected at {v}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Precomputed routing state: a BFS spanning tree (rooted at switch 0, or
/// node 0 in a switchless wiring) and, per switch, a destination-to-output-
/// port table.
///
/// Restricting traffic to spanning-tree edges is the always-legal core of
/// up*/down* routing: every packet climbs toward the root and then descends,
/// so the channel-dependency graph is acyclic and credit-based back-pressure
/// cannot deadlock. Each (source, destination) pair has exactly one path,
/// which with FIFO queueing gives the in-order guarantee of §2.3.1.
#[derive(Clone, Debug)]
pub struct Routes {
    /// `tables[s][dst_node] = output port on switch s`.
    tables: Vec<Vec<u32>>,
    /// Vertices the spanning tree could not reach (only non-empty for
    /// [`Routes::compute_avoiding`]: the named partition cut off by the
    /// avoided fault domain), in ascending vertex order.
    unreachable: Vec<Vertex>,
}

impl Routes {
    /// Computes routes for a topology.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Disconnected`] if any vertex is unreachable
    /// from the root.
    pub(crate) fn compute(topology: &Topology) -> Result<Routes, RouteError> {
        let root = if topology.switch_count() > 0 {
            Vertex::Switch(0)
        } else {
            Vertex::Node(0)
        };

        // Deterministic BFS: neighbors are explored in port order.
        let mut parent: HashMap<Vertex, Vertex> = HashMap::new();
        let mut seen: HashMap<Vertex, bool> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(root, true);
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &(nbr, _) in topology.ports_of(v) {
                if !seen.get(&nbr).copied().unwrap_or(false) {
                    seen.insert(nbr, true);
                    parent.insert(nbr, v);
                    queue.push_back(nbr);
                }
            }
        }
        for s in 0..topology.switch_count() {
            let v = Vertex::Switch(s as u16);
            if !seen.get(&v).copied().unwrap_or(false) {
                return Err(RouteError::Disconnected(v));
            }
        }
        for n in 0..topology.endpoint_count() {
            let v = Vertex::Node(n as u16);
            if !seen.get(&v).copied().unwrap_or(false) {
                return Err(RouteError::Disconnected(v));
            }
        }

        // Tree path from any vertex to each destination endpoint: walk both
        // ends up to the root, find the meeting point. We precompute, per
        // switch, the next hop toward every destination node.
        let path_to_root = |mut v: Vertex| -> Vec<Vertex> {
            let mut path = vec![v];
            while let Some(&p) = parent.get(&v) {
                path.push(p);
                v = p;
            }
            path
        };

        let mut tables = Vec::with_capacity(topology.switch_count());
        for s in 0..topology.switch_count() {
            let from = Vertex::Switch(s as u16);
            let up_from = path_to_root(from);
            let mut table = vec![u32::MAX; topology.endpoint_count()];
            for (dst, slot) in table.iter_mut().enumerate() {
                let to = Vertex::Node(dst as u16);
                if to == from {
                    continue;
                }
                let up_to = path_to_root(to);
                // Lowest common ancestor: deepest vertex on both root paths.
                let next = next_hop_on_tree(&up_from, &up_to);
                let port = topology
                    .ports_of(from)
                    .iter()
                    .position(|&(nbr, _)| nbr == next)
                    .expect("tree edge is a real port");
                *slot = port as u32;
            }
            tables.push(table);
        }
        Ok(Routes {
            tables,
            unreachable: Vec::new(),
        })
    }

    /// Recomputes routes over the surviving fabric: a fresh BFS spanning
    /// tree that never enters a `dead` vertex. Unlike [`Routes::compute`]
    /// this cannot fail — a fault domain whose loss disconnects the graph
    /// yields *partial* tables instead: destinations with no surviving
    /// path get [`u32::MAX`] entries (the switch blackholes such traffic,
    /// counted, rather than wedging), and the cut-off vertices are named
    /// by [`Routes::unreachable`] so the deadlock report can describe the
    /// partition instead of a mystery stall.
    ///
    /// The tree is rooted at the first live switch (first live node in a
    /// switchless wiring), so every survivor computes the identical tree
    /// from the identical dead set — route-around stays deterministic.
    pub(crate) fn compute_avoiding(topology: &Topology, dead: &BTreeSet<Vertex>) -> Routes {
        let root = (0..topology.switch_count())
            .map(|s| Vertex::Switch(s as u16))
            .chain((0..topology.endpoint_count()).map(|n| Vertex::Node(n as u16)))
            .find(|v| !dead.contains(v));

        let mut parent: HashMap<Vertex, Vertex> = HashMap::new();
        let mut seen: HashMap<Vertex, bool> = HashMap::new();
        if let Some(root) = root {
            let mut queue = VecDeque::new();
            seen.insert(root, true);
            queue.push_back(root);
            while let Some(v) = queue.pop_front() {
                for &(nbr, _) in topology.ports_of(v) {
                    if dead.contains(&nbr) {
                        continue;
                    }
                    if !seen.get(&nbr).copied().unwrap_or(false) {
                        seen.insert(nbr, true);
                        parent.insert(nbr, v);
                        queue.push_back(nbr);
                    }
                }
            }
        }

        let path_to_root = |mut v: Vertex| -> Vec<Vertex> {
            let mut path = vec![v];
            while let Some(&p) = parent.get(&v) {
                path.push(p);
                v = p;
            }
            path
        };

        let mut tables = Vec::with_capacity(topology.switch_count());
        for s in 0..topology.switch_count() {
            let from = Vertex::Switch(s as u16);
            let mut table = vec![u32::MAX; topology.endpoint_count()];
            if seen.get(&from).copied().unwrap_or(false) {
                let up_from = path_to_root(from);
                for (dst, slot) in table.iter_mut().enumerate() {
                    let to = Vertex::Node(dst as u16);
                    if to == from || !seen.get(&to).copied().unwrap_or(false) {
                        continue;
                    }
                    let up_to = path_to_root(to);
                    let next = next_hop_on_tree(&up_from, &up_to);
                    let port = topology
                        .ports_of(from)
                        .iter()
                        .position(|&(nbr, _)| nbr == next)
                        .expect("tree edge is a real port");
                    *slot = port as u32;
                }
            }
            tables.push(table);
        }

        let mut unreachable: Vec<Vertex> = (0..topology.switch_count())
            .map(|s| Vertex::Switch(s as u16))
            .chain((0..topology.endpoint_count()).map(|n| Vertex::Node(n as u16)))
            .filter(|v| !seen.get(v).copied().unwrap_or(false))
            .collect();
        unreachable.sort();
        Routes {
            tables,
            unreachable,
        }
    }

    /// Vertices no surviving route reaches (the partition cut off by the
    /// dead set handed to [`Routes::compute_avoiding`]; dead vertices
    /// themselves are included). Empty for a fully connected computation.
    pub(crate) fn unreachable(&self) -> &[Vertex] {
        &self.unreachable
    }

    /// The routing table for switch `s`: `table[dst.index()]` is the output
    /// port toward `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub(crate) fn table_for_switch(&self, s: u16) -> Vec<u32> {
        self.tables[s as usize].clone()
    }
}

#[derive(Debug)]
struct ViewInner {
    topology: Topology,
    dead: BTreeSet<Vertex>,
    version: u64,
    /// When the last verdict moved the view.
    moved_at: SimTime,
    routes: Routes,
}

/// The fabric's shared, versioned view of which vertices are dead and
/// what the surviving routes are — the simulation's stand-in for the
/// route-distribution a fabric manager (or a link-state flood) would
/// perform in hardware. Every switch holds a clone (cheap: shared state,
/// like [`FaultInjector`](crate::FaultInjector)); a switch whose failure
/// detector convicts an adjacent vertex calls [`declare_down`], which
/// recomputes a single globally-consistent spanning tree avoiding the
/// whole dead set, and every other switch picks the new table up at its
/// next event (a version compare, one branch in the common case).
///
/// Distributing one global tree — rather than letting each survivor
/// patch its own table from local knowledge — is what keeps route-around
/// loop-free: two switches routing on *different* trees can forward a
/// packet back and forth forever. Updates happen at deterministic event
/// boundaries, so recovery replays bit-for-bit under a fixed seed.
///
/// [`declare_down`]: FabricView::declare_down
#[derive(Clone, Debug)]
pub struct FabricView {
    inner: Rc<RefCell<ViewInner>>,
}

impl FabricView {
    /// Wraps the initial (fault-free) routes over `topology`.
    pub(crate) fn new(topology: Topology, routes: Routes) -> Self {
        FabricView {
            inner: Rc::new(RefCell::new(ViewInner {
                topology,
                dead: BTreeSet::new(),
                version: 0,
                moved_at: SimTime::ZERO,
                routes,
            })),
        }
    }

    /// Declares `v` dead at `now` and recomputes the surviving routes.
    /// Returns `true` if this was news (the version bumped); duplicate
    /// verdicts from independent observers are idempotent.
    pub fn declare_down(&self, v: Vertex, now: SimTime) -> bool {
        let mut st = self.inner.borrow_mut();
        if !st.dead.insert(v) {
            return false;
        }
        st.version += 1;
        st.moved_at = now;
        st.routes = Routes::compute_avoiding(&st.topology, &st.dead);
        true
    }

    /// Declares `v` alive again at `now` and recomputes. Returns `true`
    /// if `v` was previously dead.
    pub(crate) fn declare_up(&self, v: Vertex, now: SimTime) -> bool {
        let mut st = self.inner.borrow_mut();
        if !st.dead.remove(&v) {
            return false;
        }
        st.version += 1;
        st.moved_at = now;
        st.routes = Routes::compute_avoiding(&st.topology, &st.dead);
        true
    }

    /// Monotone change counter; a switch whose cached table carries an
    /// older version must refresh it.
    pub(crate) fn version(&self) -> u64 {
        self.inner.borrow().version
    }

    /// The instant of the last verdict that moved the view (zero before
    /// any): a switch whose table is older has seen nothing since. Only
    /// the switch's debug-build absorb guard reads it.
    #[cfg(debug_assertions)]
    pub(crate) fn moved_at(&self) -> SimTime {
        self.inner.borrow().moved_at
    }

    /// The current routing table for switch `s`.
    pub(crate) fn table_for_switch(&self, s: u16) -> Vec<u32> {
        self.inner.borrow().routes.table_for_switch(s)
    }

    /// The nodes no path of live vertices joins to switch `s`, ascending:
    /// what a verdict notice from `s` names. Unlike
    /// [`FabricView::unreachable`] this is relative to `s`, so each side
    /// of a partition names the other.
    pub(crate) fn unreachable_from(&self, s: u16) -> Vec<u16> {
        let st = self.inner.borrow();
        let mut seen = BTreeSet::new();
        let mut stack = vec![Vertex::Switch(s)];
        while let Some(v) = stack.pop() {
            if st.dead.contains(&v) || !seen.insert(v) {
                continue;
            }
            stack.extend(st.topology.ports_of(v).iter().map(|&(nbr, _)| nbr));
        }
        (0..st.topology.endpoint_count() as u16)
            .filter(|&n| !seen.contains(&Vertex::Node(n)))
            .collect()
    }

    /// Vertices no surviving route reaches (the named partition; includes
    /// the dead vertices themselves). Empty while the survivors are
    /// fully connected.
    pub fn unreachable(&self) -> Vec<Vertex> {
        self.inner.borrow().routes.unreachable().to_vec()
    }
}

/// Given root paths of `from` and `to`, the first hop from `from` toward
/// `to` along the tree.
fn next_hop_on_tree(up_from: &[Vertex], up_to: &[Vertex]) -> Vertex {
    let full = join_tree_paths(up_from, up_to);
    full[1]
}

/// Joins two root paths into the tree path `a .. lca .. b`.
fn join_tree_paths(up_a: &[Vertex], up_b: &[Vertex]) -> Vec<Vertex> {
    // Find the lowest common ancestor: scan a's root path for the first
    // vertex present in b's root path.
    let lca_in_a = up_a
        .iter()
        .position(|v| up_b.contains(v))
        .expect("connected tree has an LCA");
    let lca = up_a[lca_in_a];
    let lca_in_b = up_b.iter().position(|&v| v == lca).expect("lca in b");
    let mut path: Vec<Vertex> = up_a[..=lca_in_a].to_vec();
    path.extend(up_b[..lca_in_b].iter().rev().copied());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The vertices a packet from node `from` to node `to` visits, read
    /// off the route tables hop by hop.
    fn path(routes: &Routes, topo: &Topology, from: u16, to: u16) -> Vec<Vertex> {
        let mut path = vec![Vertex::Node(from)];
        let mut at = topo.ports_of(Vertex::Node(from))[0].0;
        loop {
            path.push(at);
            match at {
                Vertex::Node(_) => return path,
                Vertex::Switch(sw) => {
                    let port = routes.table_for_switch(sw)[usize::from(to)];
                    at = topo.ports_of(at)[port as usize].0;
                    assert!(path.len() < 64, "routing loop");
                }
            }
        }
    }

    #[test]
    fn star_routes_through_single_switch() {
        let topo = Topology::star(3);
        let routes = Routes::compute(&topo).unwrap();
        let table = routes.table_for_switch(0);
        // Switch port i is node i (links added in node order).
        assert_eq!(table, vec![0, 1, 2]);
        let p = path(&routes, &topo, 0, 2);
        assert_eq!(p, vec![Vertex::Node(0), Vertex::Switch(0), Vertex::Node(2)]);
    }

    #[test]
    fn chain_routes_walk_the_line() {
        let topo = Topology::chain(4);
        let routes = Routes::compute(&topo).unwrap();
        let p = path(&routes, &topo, 0, 3);
        assert_eq!(
            p,
            vec![
                Vertex::Node(0),
                Vertex::Switch(0),
                Vertex::Switch(1),
                Vertex::Switch(2),
                Vertex::Switch(3),
                Vertex::Node(3)
            ]
        );
    }

    #[test]
    fn ring_routing_avoids_the_closing_link() {
        // Tree rooted at switch 0: the 2-0 ring-closing edge is a non-tree
        // edge if BFS reaches 2 through 1 first... with ring(3):
        // links: n0-s0, s0-s1, n1-s1, s1-s2, n2-s2, s2-s0.
        // BFS from s0 explores ports in order: n0, s1, s2 — so s2's parent
        // is s0 and the tree uses the closing link; either way each pair has
        // exactly one tree path.
        let topo = Topology::ring(3);
        let routes = Routes::compute(&topo).unwrap();
        let p01 = path(&routes, &topo, 0, 1);
        let p12 = path(&routes, &topo, 1, 2);
        // Paths are simple: no repeated vertices.
        for p in [&p01, &p12] {
            let mut sorted = p.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), p.len(), "path revisits a vertex: {p:?}");
        }
    }

    #[test]
    fn mesh_routes_exist_between_all_pairs() {
        let topo = Topology::mesh(3, 3);
        let routes = Routes::compute(&topo).unwrap();
        for a in 0..9u16 {
            for b in 0..9u16 {
                if a == b {
                    continue;
                }
                let p = path(&routes, &topo, a, b);
                assert!(p.len() >= 3);
                assert_eq!(p[0], Vertex::Node(a));
                assert_eq!(*p.last().unwrap(), Vertex::Node(b));
            }
        }
    }

    #[test]
    fn disconnected_is_rejected() {
        // A switch with no links.
        let topo = Topology::new(1, 2);
        let mut topo = topo;
        topo.link(Vertex::Node(0), Vertex::Switch(0)).unwrap();
        match Routes::compute(&topo) {
            Err(RouteError::Disconnected(v)) => assert_eq!(v, Vertex::Switch(1)),
            other => panic!("expected disconnection, got {other:?}"),
        }
    }

    #[test]
    fn avoiding_a_ring_switch_routes_the_long_way_around() {
        // ring(4): s0-s1-s2-s3-s0 with node i on switch i. With s1 dead,
        // s0 still reaches n2 via the closing edge through s3, and only
        // s1's own endpoint n1 is cut off.
        let topo = Topology::ring(4);
        let dead: BTreeSet<Vertex> = [Vertex::Switch(1)].into();
        let routes = Routes::compute_avoiding(&topo, &dead);
        assert_eq!(routes.unreachable(), &[Vertex::Node(1), Vertex::Switch(1)]);
        // Walk the surviving tables from s0 to n2 and confirm arrival
        // without ever entering s1.
        let mut at = Vertex::Switch(0);
        let mut hops = 0;
        loop {
            match at {
                Vertex::Node(n) => {
                    assert_eq!(n, 2);
                    break;
                }
                Vertex::Switch(sw) => {
                    assert_ne!(sw, 1, "route entered the dead switch");
                    let port = routes.tables[sw as usize][2];
                    assert_ne!(port, u32::MAX, "n2 must stay reachable");
                    at = topo.ports_of(at)[port as usize].0;
                    hops += 1;
                    assert!(hops < 8, "routing loop");
                }
            }
        }
        // Traffic for the dead switch's endpoint is blackholed, not wedged.
        assert_eq!(routes.tables[0][1], u32::MAX);
    }

    #[test]
    fn avoiding_a_chain_cut_names_the_partition() {
        // chain(3): s0-s1-s2. Losing s1 severs s2's side entirely.
        let topo = Topology::chain(3);
        let dead: BTreeSet<Vertex> = [Vertex::Switch(1)].into();
        let routes = Routes::compute_avoiding(&topo, &dead);
        assert_eq!(
            routes.unreachable(),
            &[
                Vertex::Node(1),
                Vertex::Node(2),
                Vertex::Switch(1),
                Vertex::Switch(2)
            ]
        );
        assert_eq!(routes.tables[0][2], u32::MAX, "severed side blackholes");
        assert_ne!(routes.tables[0][0], u32::MAX, "own side still routes");
        // The severed survivor s2 also keeps a partial table: it can
        // still reach its own endpoint even though BFS never found it.
        // (Rooted at s0, s2 is unreached, so its table is all-blackhole;
        // the fabric-level recompute hands every switch the same tree.)
        assert_eq!(routes.tables[2][2], u32::MAX);
    }

    #[test]
    fn route_tables_are_consistent_with_paths() {
        let topo = Topology::chain_of_stars(3, 2);
        let routes = Routes::compute(&topo).unwrap();
        // Walk the table hop by hop from every switch to every node and
        // confirm we arrive.
        for s in 0..topo.switch_count() as u16 {
            for dst in 0..topo.endpoint_count() as u16 {
                let mut at = Vertex::Switch(s);
                let mut hops = 0;
                loop {
                    match at {
                        Vertex::Node(n) => {
                            assert_eq!(n, dst);
                            break;
                        }
                        Vertex::Switch(sw) => {
                            let port = routes.table_for_switch(sw)[dst as usize];
                            at = topo.ports_of(at)[port as usize].0;
                            hops += 1;
                            assert!(hops < 32, "routing loop");
                        }
                    }
                }
            }
        }
    }
}
