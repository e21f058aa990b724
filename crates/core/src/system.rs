//! The high-level facade.
//!
//! [`NumaSystem`] wraps machine construction behind a builder so examples
//! and experiments read declaratively: pick a platform preset, choose the
//! kernel variant, perturb cost-model constants for ablations, then
//! `build()` a [`Machine`].

use numa_kernel::KernelConfig;
use numa_machine::Machine;
use numa_topology::{presets, CostModel, Topology};
use numa_vm::{PtPlacement, PtSyncMode};
use std::sync::Arc;

/// Which hardware preset to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// The paper's host: 4 × quad-core Opteron 8347HE (§4.1).
    Opteron4P,
    /// A small 2-node machine (fast tests).
    TwoNode,
    /// An 8-node machine (the paper's "larger NUMA machines" outlook, §6).
    EightNode,
    /// The tiered machine: 4 DRAM nodes + 2 CXL-class slow nodes.
    /// Building this platform always enables the kernel's tiering support
    /// (shadow PTEs, write-generation tracking, tier stall windows) —
    /// a tiered topology without it would silently never migrate.
    Tiered4p2,
}

/// Builder for a fully-assembled simulated host.
#[derive(Debug, Clone)]
pub struct NumaSystem {
    platform: Platform,
    kernel: KernelConfig,
    cost_override: Option<CostModel>,
    pt_placement: Option<PtPlacement>,
}

impl Default for NumaSystem {
    fn default() -> Self {
        NumaSystem::new()
    }
}

impl NumaSystem {
    /// The paper's platform with the paper's kernel.
    pub fn new() -> Self {
        NumaSystem {
            platform: Platform::Opteron4P,
            kernel: KernelConfig::default(),
            cost_override: None,
            pt_placement: None,
        }
    }

    /// Select the hardware preset.
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Select the kernel configuration (e.g.
    /// [`KernelConfig::vanilla_2_6_27`] for the un-patched baseline).
    pub fn kernel(mut self, config: KernelConfig) -> Self {
        self.kernel = config;
        self
    }

    /// Mutate the cost model in place (ablation experiments).
    pub fn tweak_cost(mut self, f: impl FnOnce(&mut CostModel)) -> Self {
        let mut cost = self.cost_override.take().unwrap_or_default();
        f(&mut cost);
        self.cost_override = Some(cost);
        self
    }

    /// Place the process's page table (ptplace subsystem): a fixed home
    /// node or per-node replicas kept current by eager write-through. Left
    /// unset, the page table is cost-free to walk and every existing
    /// experiment's numbers are unchanged.
    pub fn pt_placement(mut self, placement: PtPlacement) -> Self {
        self.pt_placement = Some(placement);
        self
    }

    /// Assemble the machine.
    pub fn build(self) -> Machine {
        let mut kernel = self.kernel;
        let topo: Topology = match (self.platform, self.cost_override) {
            (Platform::Opteron4P, Some(c)) => presets::opteron_4p_with_cost(c),
            (Platform::Opteron4P, None) => presets::opteron_4p(),
            (Platform::TwoNode, Some(c)) => presets::two_node_with_cost(c),
            (Platform::TwoNode, None) => presets::two_node(),
            (Platform::EightNode, _) => presets::eight_node(),
            (Platform::Tiered4p2, cost) => {
                kernel.tiering = true;
                match cost {
                    Some(c) => presets::tiered_4p2_with(c, 8 << 30, 16 << 30),
                    None => presets::tiered_4p2(),
                }
            }
        };
        let mut machine = Machine::new(Arc::new(topo), kernel);
        if let Some(placement) = self.pt_placement {
            let nodes = machine.topology().node_count();
            machine
                .space
                .pt_configure(placement, PtSyncMode::Eager, nodes);
        }
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builds_the_paper_machine() {
        let m = NumaSystem::new().build();
        assert_eq!(m.topology().node_count(), 4);
        assert_eq!(m.topology().core_count(), 16);
        assert!(m.kernel.config.patched_move_pages);
    }

    #[test]
    fn kernel_variant_selectable() {
        let m = NumaSystem::new()
            .kernel(KernelConfig::vanilla_2_6_27())
            .build();
        assert!(!m.kernel.config.patched_move_pages);
        assert!(!m.kernel.config.kernel_next_touch);
    }

    #[test]
    fn cost_tweaks_apply() {
        let m = NumaSystem::new()
            .tweak_cost(|c| c.move_pages_base_ns = 999)
            .build();
        assert_eq!(m.topology().cost().move_pages_base_ns, 999);
    }

    #[test]
    fn tiered_platform_enables_tiering() {
        let m = NumaSystem::new().platform(Platform::Tiered4p2).build();
        assert_eq!(m.topology().node_count(), 6);
        assert!(m.topology().is_tiered());
        assert!(m.kernel.config.tiering);
    }

    #[test]
    fn platforms_differ() {
        assert_eq!(
            NumaSystem::new()
                .platform(Platform::TwoNode)
                .build()
                .topology()
                .node_count(),
            2
        );
        assert_eq!(
            NumaSystem::new()
                .platform(Platform::EightNode)
                .build()
                .topology()
                .node_count(),
            8
        );
    }
}
