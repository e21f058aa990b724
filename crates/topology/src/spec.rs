//! Component specifications: nodes, cores and interconnect links.

use crate::NodeId;
use serde::{Deserialize, Serialize};

/// Performance tier of a node's memory bank.
///
/// Classic NUMA machines have one tier; heterogeneous (tiered) machines add
/// capacity nodes behind a slower fabric — CXL memory expanders, persistent
/// memory in memory mode, and similar. The tier drives the latency and
/// bandwidth multipliers in the cost model (see
/// `CostModel::{slow_tier_latency_mult, slow_tier_bw_mult}`) and selects
/// which banks the tiering daemon promotes from and demotes to.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum MemTier {
    /// Directly attached DRAM: the fast tier.
    #[default]
    Dram,
    /// CXL-class expander memory: higher latency, lower bandwidth.
    Slow,
}

impl std::fmt::Display for MemTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemTier::Dram => write!(f, "dram"),
            MemTier::Slow => write!(f, "slow"),
        }
    }
}

/// A NUMA node: one memory bank plus its attached last-level cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Capacity of the memory bank in bytes.
    pub memory_bytes: u64,
    /// Size of the shared last-level (L3) cache attached to this node.
    pub l3_bytes: u64,
    /// Sustainable DRAM bandwidth of this bank, in bytes per nanosecond
    /// (== GB/s).
    pub dram_bw_bytes_per_ns: f64,
    /// Performance tier of this bank.
    pub tier: MemTier,
}

impl NodeSpec {
    /// The paper's Opteron 8347HE node: 8 GB memory, 2 MB shared L3,
    /// DDR2-class local bandwidth.
    pub fn opteron_8347he() -> Self {
        NodeSpec {
            memory_bytes: 8 << 30,
            l3_bytes: 2 << 20,
            dram_bw_bytes_per_ns: 6.4,
            tier: MemTier::Dram,
        }
    }

    /// A CXL-class memory expander bank: no cores, no cache, roughly a
    /// third of the DRAM bank's sustainable bandwidth (the ~3x latency
    /// penalty is applied by the cost model's slow-tier multiplier at
    /// access time). Capacity defaults to the DRAM bank's 8 GB; callers
    /// size it per experiment.
    pub fn cxl_expander() -> Self {
        NodeSpec {
            memory_bytes: 8 << 30,
            l3_bytes: 0,
            dram_bw_bytes_per_ns: 6.4 / 3.0,
            tier: MemTier::Slow,
        }
    }
}

/// A CPU core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreSpec {
    /// The NUMA node this core belongs to.
    pub node: NodeId,
    /// Clock frequency in Hz.
    pub freq_hz: u64,
    /// Peak double-precision floating-point operations per cycle.
    pub flops_per_cycle: u32,
}

impl CoreSpec {
    /// One core of the paper's 1.9 GHz Opteron 8347HE (SSE2: 2 DP flops
    /// per cycle).
    pub fn opteron_8347he(node: NodeId) -> Self {
        CoreSpec {
            node,
            freq_hz: 1_900_000_000,
            flops_per_cycle: 2,
        }
    }

    /// Peak flops per nanosecond for this core.
    pub fn flops_per_ns(&self) -> f64 {
        self.freq_hz as f64 * self.flops_per_cycle as f64 / 1e9
    }
}

/// A bidirectional point-to-point interconnect link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Usable bandwidth in bytes per nanosecond (== GB/s).
    pub bandwidth_bytes_per_ns: f64,
}

impl Link {
    /// A HyperTransport-1-class link (~4 GB/s usable per direction;
    /// we model the link as a single shared resource, which is what makes
    /// cross-traffic congestion visible, cf. paper §4.5).
    pub fn hypertransport(a: NodeId, b: NodeId) -> Self {
        Link {
            a,
            b,
            bandwidth_bytes_per_ns: 4.0,
        }
    }

    /// Given one endpoint, return the other; `None` if `from` is not an
    /// endpoint of this link.
    pub fn other_end(&self, from: NodeId) -> Option<NodeId> {
        if self.a == from {
            Some(self.b)
        } else if self.b == from {
            Some(self.a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opteron_node_spec() {
        let n = NodeSpec::opteron_8347he();
        assert_eq!(n.memory_bytes, 8 << 30);
        assert_eq!(n.l3_bytes, 2 << 20);
        assert_eq!(n.tier, MemTier::Dram);
    }

    #[test]
    fn cxl_node_spec() {
        let n = NodeSpec::cxl_expander();
        assert_eq!(n.tier, MemTier::Slow);
        assert_eq!(n.l3_bytes, 0, "expander has no attached cache");
        assert!(
            n.dram_bw_bytes_per_ns < NodeSpec::opteron_8347he().dram_bw_bytes_per_ns / 2.0,
            "expander bandwidth must be well below the DRAM bank's"
        );
        assert_eq!(MemTier::default(), MemTier::Dram);
        assert_eq!(MemTier::Slow.to_string(), "slow");
    }

    #[test]
    fn core_flops_rate() {
        let c = CoreSpec::opteron_8347he(NodeId(0));
        assert!((c.flops_per_ns() - 3.8).abs() < 1e-9);
    }

    #[test]
    fn link_other_end() {
        let l = Link::hypertransport(NodeId(2), NodeId(3));
        assert_eq!(l.other_end(NodeId(2)), Some(NodeId(3)));
        assert_eq!(l.other_end(NodeId(3)), Some(NodeId(2)));
        assert_eq!(l.other_end(NodeId(0)), None);
    }
}
