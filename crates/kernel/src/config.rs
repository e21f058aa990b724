//! Kernel feature switches.

use crate::pressure::PressureSettings;
use serde::{Deserialize, Serialize};

/// Which kernel variant is running.
///
/// The defaults match the paper's experimental kernel: Linux 2.6.27 **with**
/// the `move_pages` complexity fix and **with** the next-touch fault path
/// (§4.1). Experiments flip individual switches: Figure 4's
/// "move pages (no patch)" curve runs with `patched_move_pages = false`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelConfig {
    /// `true`: the paper's linear destination-node lookup (merged in
    /// 2.6.29). `false`: the historical quadratic implementation (§3.1).
    pub patched_move_pages: bool,
    /// Whether `madvise(MADV_MIGRATE_NEXT_TOUCH)` and the fault-path
    /// migration are available (§3.3).
    pub kernel_next_touch: bool,
    /// Extension (paper §6 future work): huge-page (2 MB) migration.
    pub huge_page_migration: bool,
    /// Extension (paper §6 future work): replication of read-only pages
    /// across nodes.
    pub replication: bool,
    /// Memory-tiering support: transactional (non-exclusive copy)
    /// promotion/demotion between DRAM and slow-tier nodes, plus the
    /// stop-the-world fallback path. Off by default — the paper's machine
    /// has a single tier.
    pub tiering: bool,
    /// Memory-pressure resilience: watermark-driven reclaim, OOM-kill
    /// semantics and the retry-livelock watchdog. All off by default —
    /// the paper's experiments never run out of frames.
    pub pressure: PressureSettings,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            patched_move_pages: true,
            kernel_next_touch: true,
            huge_page_migration: false,
            replication: false,
            tiering: false,
            pressure: PressureSettings::default(),
        }
    }
}

impl KernelConfig {
    /// The stock 2.6.27 kernel before the paper's work: quadratic
    /// `move_pages`, no next-touch.
    pub fn vanilla_2_6_27() -> Self {
        KernelConfig {
            patched_move_pages: false,
            kernel_next_touch: false,
            ..KernelConfig::default()
        }
    }

    /// The paper's kernel plus the tiering subsystem (for heterogeneous
    /// machines like `presets::tiered_4p2`).
    pub fn tiered() -> Self {
        KernelConfig {
            tiering: true,
            ..KernelConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_kernel() {
        let c = KernelConfig::default();
        assert!(c.patched_move_pages);
        assert!(c.kernel_next_touch);
        assert!(!c.huge_page_migration);
    }

    #[test]
    fn vanilla_has_neither_feature() {
        let c = KernelConfig::vanilla_2_6_27();
        assert!(!c.patched_move_pages);
        assert!(!c.kernel_next_touch);
    }

    #[test]
    fn pressure_defaults_off_in_every_preset() {
        for c in [
            KernelConfig::default(),
            KernelConfig::vanilla_2_6_27(),
            KernelConfig::tiered(),
        ] {
            assert_eq!(c.pressure, PressureSettings::default());
        }
    }

    #[test]
    fn tiered_adds_only_tiering() {
        let c = KernelConfig::tiered();
        assert!(c.tiering);
        assert!(!KernelConfig::default().tiering);
        assert_eq!(
            KernelConfig {
                tiering: false,
                ..c
            },
            KernelConfig::default()
        );
    }
}
