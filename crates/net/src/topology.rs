//! Cluster topology description.

use std::collections::HashMap;
use std::fmt;

/// A vertex of the network graph: a workstation endpoint or a switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Vertex {
    /// Workstation `n` (indexes the cluster's node list).
    Node(u16),
    /// Switch `s`.
    Switch(u16),
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Vertex::Node(n) => write!(f, "node{n}"),
            Vertex::Switch(s) => write!(f, "switch{s}"),
        }
    }
}

/// Errors from topology construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum TopologyError {
    /// A link references a vertex that does not exist.
    UnknownVertex(Vertex),
    /// The same unordered link was added twice.
    DuplicateLink(Vertex, Vertex),
    /// A vertex linked to itself.
    SelfLink(Vertex),
    /// An endpoint was given more than one link.
    EndpointDegree(u16),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownVertex(v) => write!(f, "link references unknown vertex {v}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a} <-> {b}"),
            TopologyError::SelfLink(v) => write!(f, "self link at {v}"),
            TopologyError::EndpointDegree(n) => {
                write!(f, "endpoint node{n} must have exactly one link")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// An undirected multigraph-free description of the cluster wiring:
/// endpoints (workstations), switches, and the bidirectional ribbon-cable
/// links between them.
///
/// Port numbering is deterministic: a vertex's ports are its links in the
/// order they were added, which keeps component wiring and routing tables
/// reproducible.
///
/// # Example
///
/// ```
/// use tg_net::Topology;
/// // Two workstations on one switch — the paper's §3.2 testbed.
/// let topo = Topology::star(2);
/// assert_eq!(topo.endpoint_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    n_nodes: u16,
    n_switches: u16,
    /// Per vertex: ordered list of (neighbor, port index on the neighbor).
    ports: HashMap<Vertex, Vec<(Vertex, u32)>>,
    links: Vec<(Vertex, Vertex)>,
    switch_fifo_capacity: u32,
    endpoint_fifo_capacity: u32,
}

impl Topology {
    /// Creates an empty topology with the given vertex counts; add links
    /// with [`Topology::link`].
    pub(crate) fn new(n_nodes: u16, n_switches: u16) -> Self {
        let mut ports = HashMap::new();
        for n in 0..n_nodes {
            ports.insert(Vertex::Node(n), Vec::new());
        }
        for s in 0..n_switches {
            ports.insert(Vertex::Switch(s), Vec::new());
        }
        Topology {
            n_nodes,
            n_switches,
            ports,
            links: Vec::new(),
            switch_fifo_capacity: 8,
            endpoint_fifo_capacity: 8,
        }
    }

    /// Adds a bidirectional link between two vertices.
    ///
    /// # Errors
    ///
    /// Rejects unknown vertices, self links, duplicate links, and endpoints
    /// acquiring a second link (workstations have one HIB cable).
    pub(crate) fn link(&mut self, a: Vertex, b: Vertex) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLink(a));
        }
        for &v in &[a, b] {
            if !self.ports.contains_key(&v) {
                return Err(TopologyError::UnknownVertex(v));
            }
        }
        if self
            .links
            .iter()
            .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        for &v in &[a, b] {
            if let Vertex::Node(n) = v {
                if !self.ports[&v].is_empty() {
                    return Err(TopologyError::EndpointDegree(n));
                }
            }
        }
        let pa = self.ports[&a].len() as u32;
        let pb = self.ports[&b].len() as u32;
        self.ports.get_mut(&a).expect("checked").push((b, pb));
        self.ports.get_mut(&b).expect("checked").push((a, pa));
        self.links.push((a, b));
        Ok(())
    }

    /// All `n` workstations on a single switch (the Telegraphos I testbed
    /// shape for `n = 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn star(n: u16) -> Self {
        assert!(n > 0, "at least one node");
        let mut t = Topology::new(n, 1);
        for i in 0..n {
            t.link(Vertex::Node(i), Vertex::Switch(0)).expect("fresh");
        }
        t
    }

    /// Two workstations cabled back to back — no switch at all (the
    /// cheapest possible Telegraphos installation).
    pub fn direct() -> Self {
        let mut t = Topology::new(2, 0);
        t.link(Vertex::Node(0), Vertex::Node(1)).expect("fresh");
        t
    }

    /// A chain of switches, one workstation per switch.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn chain(n: u16) -> Self {
        assert!(n > 0, "at least one node");
        let mut t = Topology::new(n, n);
        for i in 0..n {
            t.link(Vertex::Node(i), Vertex::Switch(i)).expect("fresh");
            if i + 1 < n {
                t.link(Vertex::Switch(i), Vertex::Switch(i + 1))
                    .expect("fresh");
            }
        }
        t
    }

    /// A ring of switches, one workstation per switch. The ring-closing
    /// link exists physically but deterministic tree routing never uses it
    /// (deadlock freedom by construction).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: u16) -> Self {
        assert!(n >= 3, "a ring needs at least three switches");
        let mut t = Topology::chain(n);
        t.link(Vertex::Switch(n - 1), Vertex::Switch(0))
            .expect("fresh ring closure");
        t
    }

    /// A `rows x cols` switch mesh, one workstation per switch.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the node count overflows `u16`.
    pub fn mesh(rows: u16, cols: u16) -> Self {
        assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
        let n = rows.checked_mul(cols).expect("mesh size fits in u16");
        let mut t = Topology::new(n, n);
        let at = |r: u16, c: u16| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                let s = at(r, c);
                t.link(Vertex::Node(s), Vertex::Switch(s)).expect("fresh");
                if c + 1 < cols {
                    t.link(Vertex::Switch(s), Vertex::Switch(at(r, c + 1)))
                        .expect("fresh");
                }
                if r + 1 < rows {
                    t.link(Vertex::Switch(s), Vertex::Switch(at(r + 1, c)))
                        .expect("fresh");
                }
            }
        }
        t
    }

    /// `switches` in a chain with `per_switch` workstations on each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn chain_of_stars(switches: u16, per_switch: u16) -> Self {
        assert!(switches > 0 && per_switch > 0);
        let n = switches * per_switch;
        let mut t = Topology::new(n, switches);
        for s in 0..switches {
            for k in 0..per_switch {
                t.link(Vertex::Node(s * per_switch + k), Vertex::Switch(s))
                    .expect("fresh");
            }
            if s + 1 < switches {
                t.link(Vertex::Switch(s), Vertex::Switch(s + 1))
                    .expect("fresh");
            }
        }
        t
    }

    /// Number of workstation endpoints.
    pub fn endpoint_count(&self) -> usize {
        self.n_nodes as usize
    }

    /// Number of switches.
    pub(crate) fn switch_count(&self) -> usize {
        self.n_switches as usize
    }

    /// Ordered ports of a vertex: `(neighbor, port index on neighbor)`.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not exist.
    pub(crate) fn ports_of(&self, v: Vertex) -> &[(Vertex, u32)] {
        &self.ports[&v]
    }

    /// Input-FIFO capacity (credits granted to each upstream sender) at a
    /// vertex.
    pub(crate) fn fifo_capacity(&self, v: Vertex) -> u32 {
        match v {
            Vertex::Switch(_) => self.switch_fifo_capacity,
            Vertex::Node(_) => self.endpoint_fifo_capacity,
        }
    }

    /// Overrides the switch input-FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (credit flow control needs at least one slot).
    pub fn with_switch_fifo(mut self, cap: u32) -> Self {
        assert!(cap > 0, "fifo capacity must be positive");
        self.switch_fifo_capacity = cap;
        self
    }

    /// Overrides the endpoint receive-FIFO capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_endpoint_fifo(mut self, cap: u32) -> Self {
        assert!(cap > 0, "fifo capacity must be positive");
        self.endpoint_fifo_capacity = cap;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_shape() {
        let t = Topology::star(4);
        assert_eq!(t.endpoint_count(), 4);
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.ports_of(Vertex::Switch(0)).len(), 4);
        assert_eq!(t.ports_of(Vertex::Node(2)).len(), 1);
    }

    #[test]
    fn direct_is_switchless() {
        let t = Topology::direct();
        assert_eq!(t.switch_count(), 0);
        assert_eq!(t.endpoint_count(), 2);
        assert_eq!(t.ports_of(Vertex::Node(0))[0].0, Vertex::Node(1));
    }

    #[test]
    fn chain_shape() {
        let t = Topology::chain(3);
        // middle switch: node + two neighbors
        assert_eq!(t.ports_of(Vertex::Switch(1)).len(), 3);
        assert_eq!(t.ports_of(Vertex::Switch(0)).len(), 2);
    }

    #[test]
    fn ring_closes() {
        let t = Topology::ring(3);
        assert_eq!(t.ports_of(Vertex::Switch(0)).len(), 3);
        assert_eq!(t.links.len(), 3 + 3);
    }

    #[test]
    fn mesh_shape() {
        let t = Topology::mesh(2, 3);
        assert_eq!(t.endpoint_count(), 6);
        // corner: node + 2 neighbors; center-edge: node + 3 neighbors
        assert_eq!(t.ports_of(Vertex::Switch(0)).len(), 3);
        assert_eq!(t.ports_of(Vertex::Switch(1)).len(), 4);
    }

    #[test]
    fn chain_of_stars_shape() {
        let t = Topology::chain_of_stars(2, 3);
        assert_eq!(t.endpoint_count(), 6);
        assert_eq!(t.switch_count(), 2);
        assert_eq!(t.ports_of(Vertex::Switch(0)).len(), 4);
    }

    #[test]
    fn port_indices_are_symmetric() {
        let t = Topology::chain(3);
        for &(a, b) in &t.links {
            let pa = t
                .ports_of(a)
                .iter()
                .position(|&(n, _)| n == b)
                .expect("link present");
            let (_, back) = t.ports_of(a)[pa];
            assert_eq!(t.ports_of(b)[back as usize].0, a);
            assert_eq!(t.ports_of(b)[back as usize].1, pa as u32);
        }
    }

    #[test]
    fn rejects_bad_links() {
        let mut t = Topology::new(2, 1);
        assert_eq!(
            t.link(Vertex::Node(0), Vertex::Node(0)),
            Err(TopologyError::SelfLink(Vertex::Node(0)))
        );
        assert_eq!(
            t.link(Vertex::Node(0), Vertex::Switch(5)),
            Err(TopologyError::UnknownVertex(Vertex::Switch(5)))
        );
        t.link(Vertex::Node(0), Vertex::Switch(0)).unwrap();
        assert_eq!(
            t.link(Vertex::Switch(0), Vertex::Node(0)),
            Err(TopologyError::DuplicateLink(
                Vertex::Switch(0),
                Vertex::Node(0)
            ))
        );
        t.link(Vertex::Node(1), Vertex::Switch(0)).unwrap();
        let mut t2 = Topology::new(1, 2);
        t2.link(Vertex::Node(0), Vertex::Switch(0)).unwrap();
        assert_eq!(
            t2.link(Vertex::Node(0), Vertex::Switch(1)),
            Err(TopologyError::EndpointDegree(0))
        );
    }

    #[test]
    fn fifo_overrides() {
        let t = Topology::star(2).with_switch_fifo(16).with_endpoint_fifo(4);
        assert_eq!(t.fifo_capacity(Vertex::Switch(0)), 16);
        assert_eq!(t.fifo_capacity(Vertex::Node(0)), 4);
    }
}
