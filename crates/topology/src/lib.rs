//! Parametric NUMA machine descriptions and the calibrated cost model.
//!
//! The paper's experimentation platform (§4.1) is a single host with four
//! quad-core 1.9 GHz Opteron 8347HE processors, one memory node per
//! processor (8 GB each, 2 MB shared L3), connected by HyperTransport links,
//! with a remote-access NUMA factor of 1.2–1.4.
//!
//! This crate describes such machines as data: nodes, cores, caches,
//! point-to-point links with bandwidths, shortest-path routing between
//! nodes, and a [`CostModel`] holding every timing constant used by the
//! simulated kernel and memory system. The constants are calibrated to the
//! paper's own measurements (see DESIGN.md §4).

pub mod cost;
pub mod presets;
pub mod spec;
pub mod topology;

pub use cost::{round_ns, CostModel, MigrationQuanta, QuantaCache};
pub use spec::{CoreSpec, Link, MemTier, NodeSpec};
pub use topology::{Topology, TopologyError};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a NUMA node (memory bank + attached cores).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u16);

/// Identifier of a CPU core.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CoreId(pub u16);

/// Identifier of an interconnect link (HyperTransport-style, bidirectional).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LinkId(pub u16);

impl NodeId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CoreId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The index as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core#{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(NodeId(2).to_string(), "node#2");
        assert_eq!(CoreId(7).to_string(), "core#7");
        assert_eq!(LinkId(1).to_string(), "link#1");
    }

    #[test]
    fn id_index_roundtrip() {
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(CoreId(15).index(), 15);
    }
}
