//! The machine graph: nodes, cores, links, and all-pairs shortest-path
//! routing between NUMA nodes.

use crate::spec::{CoreSpec, Link, NodeSpec};
use crate::{CoreId, CostModel, LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Errors detected while validating a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The machine has no NUMA nodes.
    NoNodes,
    /// The machine has no cores.
    NoCores,
    /// A core references a node index that does not exist.
    CoreOnMissingNode(CoreId, NodeId),
    /// A link endpoint references a node index that does not exist.
    LinkToMissingNode(LinkId, NodeId),
    /// The node graph is disconnected: no route between the two nodes.
    Disconnected(NodeId, NodeId),
    /// The cost model failed validation.
    BadCostModel(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoNodes => write!(f, "topology has no NUMA nodes"),
            TopologyError::NoCores => write!(f, "topology has no cores"),
            TopologyError::CoreOnMissingNode(c, n) => {
                write!(f, "{c} placed on missing {n}")
            }
            TopologyError::LinkToMissingNode(l, n) => {
                write!(f, "{l} attached to missing {n}")
            }
            TopologyError::Disconnected(a, b) => {
                write!(f, "no interconnect route between {a} and {b}")
            }
            TopologyError::BadCostModel(msg) => write!(f, "bad cost model: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A complete machine description plus precomputed routes.
///
/// Build one with [`Topology::new`] or a preset from [`crate::presets`],
/// then treat it as immutable: the kernel, VM and machine layers all borrow
/// it read-only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    cores: Vec<CoreSpec>,
    links: Vec<Link>,
    cost: CostModel,
    /// `routes[src][dst]` = ordered link ids along a shortest path.
    routes: Vec<Vec<Vec<LinkId>>>,
    /// `hops[src][dst]` = number of links on that path.
    hops: Vec<Vec<u32>>,
    /// Cores attached to each node (indexed by node id) — precomputed so
    /// per-access cache-share math never rescans the core list.
    cores_per_node: Vec<u32>,
}

impl Topology {
    /// Build and validate a topology; routing tables are computed by BFS
    /// with deterministic tie-breaking (lowest link id wins).
    pub fn new(
        nodes: Vec<NodeSpec>,
        cores: Vec<CoreSpec>,
        links: Vec<Link>,
        cost: CostModel,
    ) -> Result<Self, TopologyError> {
        if nodes.is_empty() {
            return Err(TopologyError::NoNodes);
        }
        if cores.is_empty() {
            return Err(TopologyError::NoCores);
        }
        cost.validate().map_err(TopologyError::BadCostModel)?;
        for (i, c) in cores.iter().enumerate() {
            if c.node.index() >= nodes.len() {
                return Err(TopologyError::CoreOnMissingNode(CoreId(i as u16), c.node));
            }
        }
        for (i, l) in links.iter().enumerate() {
            for end in [l.a, l.b] {
                if end.index() >= nodes.len() {
                    return Err(TopologyError::LinkToMissingNode(LinkId(i as u16), end));
                }
            }
        }
        let (routes, hops) = compute_routes(nodes.len(), &links)?;
        let mut cores_per_node = vec![0u32; nodes.len()];
        for c in &cores {
            cores_per_node[c.node.index()] += 1;
        }
        Ok(Topology {
            nodes,
            cores,
            links,
            cost,
            routes,
            hops,
            cores_per_node,
        })
    }

    /// Number of NUMA nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u16).map(NodeId)
    }

    /// All core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.cores.len() as u16).map(CoreId)
    }

    /// Node specification.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Core specification.
    pub fn core(&self, id: CoreId) -> &CoreSpec {
        &self.cores[id.index()]
    }

    /// Link specification.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The NUMA node a core belongs to.
    pub fn node_of_core(&self, id: CoreId) -> NodeId {
        self.cores[id.index()].node
    }

    /// Number of cores attached to one node (O(1), precomputed).
    pub fn core_count_of_node(&self, node: NodeId) -> usize {
        self.cores_per_node[node.index()] as usize
    }

    /// Cores attached to one node, in id order.
    pub fn cores_of_node(&self, node: NodeId) -> Vec<CoreId> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.node == node)
            .map(|(i, _)| CoreId(i as u16))
            .collect()
    }

    /// Link ids along the shortest route from `src` to `dst`
    /// (empty for `src == dst`).
    pub fn route(&self, src: NodeId, dst: NodeId) -> &[LinkId] {
        &self.routes[src.index()][dst.index()]
    }

    /// Hop count of the shortest route.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.hops[src.index()][dst.index()]
    }

    /// NUMA factor between two nodes (1.0 when local).
    pub fn numa_factor(&self, src: NodeId, dst: NodeId) -> f64 {
        self.cost.numa_factor(self.hops(src, dst))
    }

    /// Conservative lookahead for parallel virtual-time execution: the
    /// cheapest cross-node DRAM access in the machine, in nanoseconds.
    ///
    /// No shard can observe another shard's memory-system effects sooner
    /// than one remote access, so two shards whose clocks are within this
    /// bound of each other cannot causally interact inside the bound —
    /// the classic Chandy–Misra lookahead, read off the interconnect
    /// latency matrix. Single-node machines fall back to local latency.
    pub fn min_cross_node_latency_ns(&self) -> u64 {
        let cost = self.cost();
        let mut best = f64::INFINITY;
        for src in self.node_ids() {
            for dst in self.node_ids() {
                if src != dst {
                    let lat = cost.dram_latency_ns * self.numa_factor(src, dst);
                    if lat < best {
                        best = lat;
                    }
                }
            }
        }
        if best.is_finite() {
            best.ceil() as u64
        } else {
            cost.dram_latency_ns.ceil() as u64
        }
    }

    /// Memory tier of a node's bank.
    pub fn tier_of(&self, node: NodeId) -> crate::MemTier {
        self.nodes[node.index()].tier
    }

    /// Node ids whose bank is in the given tier, in id order.
    pub fn nodes_in_tier(&self, tier: crate::MemTier) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.tier_of(*n) == tier)
            .collect()
    }

    /// Does this machine have more than one memory tier?
    pub fn is_tiered(&self) -> bool {
        self.nodes.iter().any(|n| n.tier != crate::MemTier::Dram)
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

/// BFS all-pairs routing. Returns (routes, hops).
#[allow(clippy::type_complexity)]
fn compute_routes(
    n: usize,
    links: &[Link],
) -> Result<(Vec<Vec<Vec<LinkId>>>, Vec<Vec<u32>>), TopologyError> {
    // Adjacency: node -> [(neighbor, link)] sorted by link id for
    // deterministic shortest-path tie-breaking.
    let mut adj: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); n];
    for (i, l) in links.iter().enumerate() {
        let id = LinkId(i as u16);
        adj[l.a.index()].push((l.b, id));
        adj[l.b.index()].push((l.a, id));
    }
    for a in &mut adj {
        a.sort_by_key(|(_, l)| *l);
    }

    let mut routes = vec![vec![Vec::new(); n]; n];
    let mut hops = vec![vec![0u32; n]; n];
    for src in 0..n {
        // BFS from src.
        let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; n];
        let mut dist: Vec<Option<u32>> = vec![None; n];
        dist[src] = Some(0);
        let mut q = VecDeque::new();
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for (v, l) in &adj[u] {
                let vi = v.index();
                if dist[vi].is_none() {
                    dist[vi] = Some(dist[u].unwrap() + 1);
                    prev[vi] = Some((u, *l));
                    q.push_back(vi);
                }
            }
        }
        for dst in 0..n {
            match dist[dst] {
                None => {
                    return Err(TopologyError::Disconnected(
                        NodeId(src as u16),
                        NodeId(dst as u16),
                    ))
                }
                Some(d) => {
                    hops[src][dst] = d;
                    // Reconstruct path dst -> src, then reverse.
                    let mut path = Vec::with_capacity(d as usize);
                    let mut cur = dst;
                    while cur != src {
                        let (p, l) = prev[cur].expect("reachable node has predecessor");
                        path.push(l);
                        cur = p;
                    }
                    path.reverse();
                    routes[src][dst] = path;
                }
            }
        }
    }
    Ok((routes, hops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn opteron_preset_shape() {
        let t = presets::opteron_4p();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.core_count(), 16);
        assert_eq!(t.cores_of_node(NodeId(0)).len(), 4);
        // Square without diagonals: opposite corners are two hops apart.
        assert_eq!(t.hops(NodeId(0), NodeId(0)), 0);
        assert_eq!(t.hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(t.hops(NodeId(0), NodeId(3)), 2);
    }

    #[test]
    fn routes_are_consistent_with_hops() {
        let t = presets::opteron_4p();
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(t.route(a, b).len() as u32, t.hops(a, b));
            }
        }
    }

    #[test]
    fn route_links_form_a_path() {
        let t = presets::opteron_4p();
        for a in t.node_ids() {
            for b in t.node_ids() {
                let mut at = a;
                for l in t.route(a, b) {
                    at = t.link(*l).other_end(at).expect("link continues the path");
                }
                assert_eq!(at, b, "route {a}->{b} must end at {b}");
            }
        }
    }

    #[test]
    fn numa_factor_matches_paper_band() {
        let t = presets::opteron_4p();
        let f1 = t.numa_factor(NodeId(0), NodeId(1));
        let f2 = t.numa_factor(NodeId(0), NodeId(3));
        assert!((1.2..=1.4).contains(&f1), "1-hop factor {f1}");
        assert!((1.2..=1.45).contains(&f2), "2-hop factor {f2}");
        assert_eq!(t.numa_factor(NodeId(2), NodeId(2)), 1.0);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let nodes = vec![NodeSpec::opteron_8347he(); 2];
        let cores = vec![CoreSpec::opteron_8347he(NodeId(0))];
        let err = Topology::new(nodes, cores, vec![], CostModel::default()).unwrap_err();
        assert!(matches!(err, TopologyError::Disconnected(_, _)));
    }

    #[test]
    fn bad_core_placement_rejected() {
        let nodes = vec![NodeSpec::opteron_8347he()];
        let cores = vec![CoreSpec::opteron_8347he(NodeId(5))];
        let err = Topology::new(nodes, cores, vec![], CostModel::default()).unwrap_err();
        assert!(matches!(err, TopologyError::CoreOnMissingNode(_, _)));
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Topology::new(vec![], vec![], vec![], CostModel::default()),
            Err(TopologyError::NoNodes)
        ));
    }
}
