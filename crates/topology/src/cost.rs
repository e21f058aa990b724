//! The calibrated cost model.
//!
//! Every timing constant used by the simulated VM, kernel and memory system
//! lives here, in one flat struct, so experiments can perturb any of them
//! (the ablation benches sweep several). Defaults are calibrated against the
//! paper's own measurements; each field's doc comment cites the source.

use serde::{Deserialize, Serialize};

/// Timing and sizing constants for the simulated machine and kernel.
///
/// All times are virtual nanoseconds; all bandwidths are bytes per
/// nanosecond (numerically equal to GB/s).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    // ---------------------------------------------------------------- sizes
    /// Base page size. The paper's machine uses 4 kB pages throughout.
    pub page_size: u64,
    /// Huge page size (2 MB on x86-64). Used only by the huge-page
    /// migration extension (paper §6 future work).
    pub huge_page_size: u64,
    /// Cache line size.
    pub cache_line: u64,

    // ------------------------------------------------------- memory system
    /// Local DRAM access latency (ns) for a latency-bound access.
    pub dram_latency_ns: f64,
    /// NUMA factor by hop distance: index 0 = local (1.0), 1 = one hop, ...
    /// The paper reports 1.2–1.4 on the 4-socket Opteron (§2.1, §4.1).
    pub numa_factor: Vec<f64>,
    /// Single-core user-space copy bandwidth (MMX/SSE streaming copy);
    /// the paper's inter-node `memcpy` sustains ~1.7–2 GB/s (Fig. 4).
    pub user_copy_bw: f64,
    /// Fraction of DRAM latency still exposed on a well-prefetched
    /// streaming access (BLAS1-style). Small: hardware prefetch hides
    /// most of it, which is why BLAS1 never benefits from migration
    /// (paper §4.5).
    pub stream_latency_exposure: f64,
    /// Fraction of DRAM latency exposed on blocked (BLAS3-style) accesses.
    pub blocked_latency_exposure: f64,
    /// Fraction of DRAM latency exposed on dependent random accesses.
    pub random_latency_exposure: f64,
    /// Single-core sustainable DRAM streaming bandwidth (bytes/ns). A core
    /// cannot saturate its node's controller alone.
    pub core_mem_bw: f64,
    /// Last-level cache bandwidth as seen by one core (bytes/ns).
    pub l3_bw: f64,

    // ------------------------------------------------------------- syscalls
    /// `move_pages` fixed overhead: "the base overhead remains high (near
    /// 160 µs)" (§4.2), attributed to locking and page-table manipulation.
    pub move_pages_base_ns: u64,
    /// `move_pages` per-page control cost (locking, page-table updates,
    /// status copy-out). Calibrated so that large-buffer throughput is
    /// ~600 MB/s with control ≈ 38 % of the total (§4.2, Fig. 6a):
    /// 4096 B / 600 MB/s ≈ 6.6 µs/page, of which copy at 1 GB/s is 4.1 µs.
    pub move_pages_control_ns: u64,
    /// Kernel page-copy bandwidth: "pages are copied during move_pages at
    /// only 1 GB/s" because the kernel lacks MMX/SSE copies (§4.2).
    pub kernel_copy_bw: f64,
    /// Per-destination-array-entry scan cost of the *un-patched*
    /// `move_pages`: "the processing of each array slot caused a linear
    /// lookup in the entire destination node array" (§3.1). The quadratic
    /// blow-up appears beyond ~256 pages in Fig. 4.
    pub unpatched_lookup_ns_per_entry: f64,
    /// `migrate_pages` fixed overhead: "a higher overhead (near 400 µs) due
    /// to the whole process virtual address space having to be traversed"
    /// (§4.2).
    pub migrate_pages_base_ns: u64,
    /// `migrate_pages` per-page control cost; calibrated to the ~780 MB/s
    /// large-buffer throughput of §4.2 (better locality, less locking than
    /// `move_pages`).
    pub migrate_pages_control_ns: u64,
    /// `madvise` fixed overhead.
    pub madvise_base_ns: u64,
    /// `madvise(MADV_MIGRATE_NEXT_TOUCH)` per-page marking cost (clear PTE
    /// present bits, set the next-touch flag).
    pub madvise_per_page_ns: u64,
    /// `mprotect` fixed overhead.
    pub mprotect_base_ns: u64,
    /// `mprotect` per-page PTE update cost.
    pub mprotect_per_page_ns: u64,
    /// `mbind`/`set_mempolicy` fixed overhead.
    pub mbind_base_ns: u64,

    // ----------------------------------------------------------- fault path
    /// Hardware page fault + kernel entry/exit (minor fault skeleton).
    pub page_fault_ns: u64,
    /// Kernel next-touch fault-path control per page: flag check, new-page
    /// allocation, PTE swap, page-table locking. Together with
    /// `page_fault_ns` this is calibrated to ≈ 20 % of the per-page cost
    /// (Fig. 6b) at ~800 MB/s (§4.3).
    pub nt_fault_control_ns: u64,
    /// First-touch allocation cost (allocate + zero a page).
    pub first_touch_ns: u64,
    /// Signal delivery + handler entry + sigreturn for the user-space
    /// next-touch path.
    pub sigsegv_deliver_ns: u64,

    // ---------------------------------------------------------------- TLB
    /// Fixed cost of a TLB shootdown episode (IPIs to all cores).
    pub tlb_flush_base_ns: u64,
    /// Additional shootdown cost per participating core.
    pub tlb_flush_per_core_ns: u64,

    // ------------------------------------------- page-table walks (ptplace)
    /// Expected TLB miss probability per page touched by a streaming
    /// access. Sequential sweeps translate each 4 kB page once but the
    /// 4-entry-per-line PTE locality and the hardware page-walk caches
    /// absorb almost all of it.
    pub tlb_miss_rate_stream: f64,
    /// TLB miss probability per page touched by blocked (BLAS3-style)
    /// accesses: tiles revisit pages but the working set exceeds TLB reach.
    pub tlb_miss_rate_blocked: f64,
    /// TLB miss probability per page touched by dependent random accesses:
    /// nearly every touch leaves TLB reach (Mitosis' GUPS-class workloads
    /// walk on almost every access).
    pub tlb_miss_rate_random: f64,
    /// Cost of one page-table walk when the walked table is node-local:
    /// up to four dependent loads, mostly caught by the page-walk caches.
    pub pt_walk_base_ns: f64,
    /// Per-hop multiplier on the walk cost when the page table is remote:
    /// `walk = pt_walk_base_ns * (1 + pt_walk_hop_mult * hops)`. At the
    /// default 1.05/hop a two-hop walk costs ~3.1x the local walk — the
    /// penalty Mitosis measures for fully remote page tables.
    pub pt_walk_hop_mult: f64,
    /// Fixed cost of one replica write-through episode (grab the remote
    /// replica's PTE lock, publish the update).
    pub pt_replica_sync_base_ns: u64,
    /// Per-PTE cost of replica writes (one cache line to another node).
    pub pt_replica_sync_per_pte_ns: u64,
    /// Fixed cost of migrating a single-homed page table to another node
    /// (numaPTE: triggered when the owning thread is rescheduled across
    /// nodes).
    pub pt_migrate_base_ns: u64,
    /// Per-PTE copy cost of a page-table migration.
    pub pt_migrate_per_pte_ns: u64,

    // --------------------------------------------------------------- locks
    /// Fraction of per-page kernel migration work (control **and** copy)
    /// serialized under the page-table/zone locks. The 2.6.27 migration
    /// path held these locks through most of the per-page work, which is
    /// why 4 threads only gain 50–60 % in Fig. 7 (Amdahl:
    /// `1 / (f + (1-f)/4)` ≈ 1.5 at f = 0.55) and why the paper's LU
    /// overhead numbers imply near-serialized fault handling at 16
    /// threads.
    pub pt_lock_fraction: f64,

    // ------------------------------------------------------------- tiering
    /// Latency multiplier for accesses served by a slow-tier (CXL-class)
    /// bank. CXL.mem expanders measure ~170-250 ns loads against ~80-90 ns
    /// local DRAM — roughly 3x (consistent with the Nomad [OSDI'23] and
    /// TPP [ASPLOS'23] platform numbers).
    pub slow_tier_latency_mult: f64,
    /// Bandwidth multiplier for slow-tier banks, applied on top of the
    /// bank's own `dram_bw_bytes_per_ns` when charging the accessing core.
    /// A x8 CXL link sustains roughly a third of a local DDR channel.
    pub slow_tier_bw_mult: f64,
    /// Per-page control cost to start a transactional (non-exclusive copy)
    /// tier migration: allocate the destination frame, record the shadow
    /// PTE and snapshot the write generation. No unmap, so cheaper than
    /// `move_pages` control.
    pub tier_txn_control_ns: u64,
    /// Per-page commit cost: re-check the write generation, flip the PTE
    /// to the new frame (the TLB shootdown is charged separately, batched).
    pub tier_commit_ns: u64,
    /// Per-page abort cost: discard the shadow copy and free the
    /// destination frame after a concurrent write invalidated it.
    pub tier_abort_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            page_size: 4096,
            huge_page_size: 2 << 20,
            cache_line: 64,

            dram_latency_ns: 80.0,
            numa_factor: vec![1.0, 1.25, 1.40, 1.55],
            user_copy_bw: 2.0,
            stream_latency_exposure: 0.04,
            blocked_latency_exposure: 0.25,
            random_latency_exposure: 1.0,
            core_mem_bw: 3.0,
            l3_bw: 20.0,

            move_pages_base_ns: 160_000,
            move_pages_control_ns: 2_500,
            kernel_copy_bw: 1.0,
            unpatched_lookup_ns_per_entry: 15.0,
            migrate_pages_base_ns: 400_000,
            migrate_pages_control_ns: 1_150,
            madvise_base_ns: 2_000,
            madvise_per_page_ns: 120,
            mprotect_base_ns: 1_000,
            mprotect_per_page_ns: 60,
            mbind_base_ns: 1_500,

            page_fault_ns: 500,
            nt_fault_control_ns: 520,
            first_touch_ns: 900,
            sigsegv_deliver_ns: 3_000,

            tlb_flush_base_ns: 2_000,
            tlb_flush_per_core_ns: 400,

            tlb_miss_rate_stream: 0.01,
            tlb_miss_rate_blocked: 0.06,
            tlb_miss_rate_random: 0.60,
            pt_walk_base_ns: 35.0,
            pt_walk_hop_mult: 1.05,
            pt_replica_sync_base_ns: 90,
            pt_replica_sync_per_pte_ns: 18,
            pt_migrate_base_ns: 5_000,
            pt_migrate_per_pte_ns: 8,

            pt_lock_fraction: 0.55,

            slow_tier_latency_mult: 3.0,
            slow_tier_bw_mult: 1.0 / 3.0,
            tier_txn_control_ns: 800,
            tier_commit_ns: 600,
            tier_abort_ns: 300,
        }
    }
}

impl CostModel {
    /// NUMA factor for a given hop distance. Distances beyond the
    /// calibrated table extrapolate linearly from the last step.
    pub fn numa_factor(&self, hops: u32) -> f64 {
        let h = hops as usize;
        if h < self.numa_factor.len() {
            self.numa_factor[h]
        } else {
            let last = *self.numa_factor.last().unwrap_or(&1.0);
            let step = if self.numa_factor.len() >= 2 {
                last - self.numa_factor[self.numa_factor.len() - 2]
            } else {
                0.15
            };
            last + step * (h + 1 - self.numa_factor.len()) as f64
        }
    }

    /// Time to copy `bytes` in the kernel (the non-SIMD kernel copy loop).
    pub fn kernel_copy_ns(&self, bytes: u64) -> u64 {
        round_ns(bytes as f64 / self.kernel_copy_bw)
    }

    /// Time to copy `bytes` with a user-space SIMD streaming copy.
    pub fn user_copy_ns(&self, bytes: u64) -> u64 {
        round_ns(bytes as f64 / self.user_copy_bw)
    }

    /// Pages needed to back `bytes`.
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_size)
    }

    /// TLB shootdown cost with `cores` participating cores.
    pub fn tlb_flush_ns(&self, cores: u32) -> u64 {
        self.tlb_flush_base_ns + self.tlb_flush_per_core_ns * cores as u64
    }

    /// One page-table walk against a table homed `hops` links away.
    pub fn pt_walk_ns(&self, hops: u32) -> f64 {
        self.pt_walk_base_ns * (1.0 + self.pt_walk_hop_mult * hops as f64)
    }

    /// One replica write-through of `ptes` entries.
    pub fn pt_replica_sync_ns(&self, ptes: u64) -> u64 {
        self.pt_replica_sync_base_ns + self.pt_replica_sync_per_pte_ns * ptes
    }

    /// Migrating a `ptes`-entry page table to another node.
    pub fn pt_migrate_ns(&self, ptes: u64) -> u64 {
        self.pt_migrate_base_ns + self.pt_migrate_per_pte_ns * ptes
    }

    /// Latency multiplier for a bank in the given tier.
    pub fn tier_latency_mult(&self, tier: crate::MemTier) -> f64 {
        match tier {
            crate::MemTier::Dram => 1.0,
            crate::MemTier::Slow => self.slow_tier_latency_mult,
        }
    }

    /// Bandwidth multiplier for a bank in the given tier (applied as a
    /// divisor on effective access bandwidth).
    pub fn tier_bw_mult(&self, tier: crate::MemTier) -> f64 {
        match tier {
            crate::MemTier::Dram => 1.0,
            crate::MemTier::Slow => self.slow_tier_bw_mult,
        }
    }

    /// Per-page migration cost quanta for a page of `bytes` with
    /// `control_ns` of control work: the serialized page-table-lock
    /// quantum, the unlocked control remainder, the nominal copy time and
    /// the effective initiator-side copy bandwidth. Pure in the model's
    /// constants; see [`QuantaCache`] for the memoized form the kernel's
    /// per-page path uses.
    pub fn migration_quanta(&self, control_ns: u64, bytes: u64) -> MigrationQuanta {
        let f = self.pt_lock_fraction.min(0.95);
        let nominal_copy_ns = self.kernel_copy_ns(bytes);
        MigrationQuanta {
            nominal_copy_ns,
            serial_ns: round_ns(f * (control_ns + nominal_copy_ns) as f64),
            parallel_ctl_ns: control_ns - round_ns(f * control_ns as f64),
            copy_bw: self.kernel_copy_bw / (1.0 - f),
        }
    }

    /// Sanity-check invariants that the rest of the stack relies on.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size == 0 || !self.page_size.is_power_of_two() {
            return Err("page_size must be a nonzero power of two".into());
        }
        if !self.huge_page_size.is_multiple_of(self.page_size) {
            return Err("huge_page_size must be a multiple of page_size".into());
        }
        if self.kernel_copy_bw <= 0.0 || self.user_copy_bw <= 0.0 {
            return Err("copy bandwidths must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.pt_lock_fraction) {
            return Err("pt_lock_fraction must be in [0, 1]".into());
        }
        if self.numa_factor.first().copied().unwrap_or(0.0) != 1.0 {
            return Err("numa_factor[0] (local) must be 1.0".into());
        }
        if self.slow_tier_latency_mult < 1.0 {
            return Err("slow_tier_latency_mult must be >= 1.0".into());
        }
        if !(self.slow_tier_bw_mult > 0.0 && self.slow_tier_bw_mult <= 1.0) {
            return Err("slow_tier_bw_mult must be in (0, 1]".into());
        }
        for rate in [
            self.tlb_miss_rate_stream,
            self.tlb_miss_rate_blocked,
            self.tlb_miss_rate_random,
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err("tlb_miss_rate_* must be in [0, 1]".into());
            }
        }
        if self.pt_walk_base_ns <= 0.0 || self.pt_walk_hop_mult < 0.0 {
            return Err("pt_walk_base_ns must be positive, pt_walk_hop_mult >= 0".into());
        }
        Ok(())
    }
}

/// The integer-nanosecond pipeline of one page migration, resolved from
/// the cost model's f64 constants once per distinct `(control_ns, bytes)`
/// pair instead of once per page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationQuanta {
    /// Nominal (contention-free) kernel copy time for the page.
    pub nominal_copy_ns: u64,
    /// Work serialized under the page-table lock:
    /// `pt_lock_fraction * (control + copy)`.
    pub serial_ns: u64,
    /// Control remainder that runs after the lock drops.
    pub parallel_ctl_ns: u64,
    /// Initiator-side bandwidth of the unlocked copy remainder, scaled so
    /// control + copy totals are preserved.
    pub copy_bw: f64,
}

/// Memo table for [`CostModel::migration_quanta`]. A run only ever sees a
/// handful of distinct `(control_ns, bytes)` pairs (move vs migrate vs
/// next-touch control, base vs huge page), so a linear-probe vector beats
/// a hash map. Valid as long as the cost model it is fed does not change —
/// which holds because kernels read the model through a shared immutable
/// `Arc<Topology>`.
#[derive(Debug, Default)]
pub struct QuantaCache {
    entries: Vec<((u64, u64), MigrationQuanta)>,
}

impl QuantaCache {
    /// The quanta for `(control_ns, bytes)`, computing and caching on miss.
    pub fn get(&mut self, cost: &CostModel, control_ns: u64, bytes: u64) -> MigrationQuanta {
        let key = (control_ns, bytes);
        if let Some((_, q)) = self.entries.iter().find(|(k, _)| *k == key) {
            return *q;
        }
        let q = cost.migration_quanta(control_ns, bytes);
        self.entries.push((key, q));
        q
    }
}

/// `x.round() as u64` without the libm call that `f64::round` compiles
/// to on the baseline x86-64 target: round half away from zero, then
/// saturate like `as` (NaN and everything below one half give 0, values
/// from 2^64 up give `u64::MAX`). Exact for every input: below 2^64 the
/// truncation `t` is exact, and so is `x - t`, since both lie in the same
/// binade (Sterbenz).
#[inline]
pub fn round_ns(x: f64) -> u64 {
    if x.is_nan() || x < 0.5 {
        return 0;
    }
    if x >= 18_446_744_073_709_551_616.0 {
        return u64::MAX;
    }
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_ns_matches_round_on_edge_inputs() {
        let half_below = 0.5 - f64::EPSILON / 4.0; // 0.49999999999999994
        let big = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            half_below,
            0.5,
            1.5,
            2.5,
            1.0 - f64::EPSILON / 2.0,
            big - 0.5,
            big - 1.5,
            big,
            big + 1.0,
            2.0 * big + 2.0,
            u64::MAX as f64,
            18_446_744_073_709_549_568.0, // largest f64 below 2^64
            18_446_744_073_709_551_616.0, // 2^64
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -0.4,
            -0.5,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            assert_eq!(
                round_ns(x),
                x.round() as u64,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
        assert_eq!(round_ns(half_below), 0);
        assert_eq!(round_ns(big - 0.5), 1 << 52);
    }

    #[test]
    fn default_is_valid() {
        CostModel::default().validate().unwrap();
    }

    #[test]
    fn numa_factor_table_and_extrapolation() {
        let c = CostModel::default();
        assert_eq!(c.numa_factor(0), 1.0);
        assert!((c.numa_factor(1) - 1.25).abs() < 1e-9);
        assert!((c.numa_factor(2) - 1.40).abs() < 1e-9);
        // Beyond the table: strictly increasing.
        assert!(c.numa_factor(5) > c.numa_factor(4));
    }

    #[test]
    fn kernel_copy_is_1gbs() {
        let c = CostModel::default();
        // 4 kB at 1 GB/s = 4096 ns.
        assert_eq!(c.kernel_copy_ns(4096), 4096);
    }

    #[test]
    fn calibration_move_pages_large_buffer_throughput() {
        // Per-page cost = control + copy must put large-buffer throughput
        // near the paper's 600 MB/s.
        let c = CostModel::default();
        let per_page = c.move_pages_control_ns + c.kernel_copy_ns(c.page_size);
        let mbps = numa_stats_mbps(c.page_size, per_page);
        assert!((550.0..680.0).contains(&mbps), "got {mbps} MB/s");
        // Control share ~38 % (Fig. 6a).
        let ctl = c.move_pages_control_ns as f64 / per_page as f64;
        assert!((0.3..0.45).contains(&ctl), "control share {ctl}");
    }

    #[test]
    fn calibration_kernel_next_touch_throughput() {
        let c = CostModel::default();
        let per_page = c.page_fault_ns + c.nt_fault_control_ns + c.kernel_copy_ns(c.page_size);
        let mbps = numa_stats_mbps(c.page_size, per_page);
        assert!((750.0..860.0).contains(&mbps), "got {mbps} MB/s");
        // Control (fault + control) share ~20 % (Fig. 6b).
        let ctl = (c.page_fault_ns + c.nt_fault_control_ns) as f64 / per_page as f64;
        assert!((0.15..0.25).contains(&ctl), "control share {ctl}");
    }

    #[test]
    fn calibration_migrate_pages_throughput() {
        let c = CostModel::default();
        let per_page = c.migrate_pages_control_ns + c.kernel_copy_ns(c.page_size);
        let mbps = numa_stats_mbps(c.page_size, per_page);
        assert!((720.0..840.0).contains(&mbps), "got {mbps} MB/s");
    }

    #[test]
    fn tier_multipliers() {
        use crate::MemTier;
        let c = CostModel::default();
        assert_eq!(c.tier_latency_mult(MemTier::Dram), 1.0);
        assert_eq!(c.tier_bw_mult(MemTier::Dram), 1.0);
        assert!((c.tier_latency_mult(MemTier::Slow) - 3.0).abs() < 1e-9);
        assert!((c.tier_bw_mult(MemTier::Slow) - 1.0 / 3.0).abs() < 1e-9);
        // Transactional per-page control must undercut the stop-the-world
        // move_pages control: holding no lock during the copy is the point.
        assert!(c.tier_txn_control_ns + c.tier_commit_ns < c.move_pages_control_ns);

        let bad = CostModel {
            slow_tier_latency_mult: 0.5,
            ..CostModel::default()
        };
        assert!(bad.validate().is_err());
        let bad = CostModel {
            slow_tier_bw_mult: 0.0,
            ..CostModel::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn quanta_cache_matches_direct_computation() {
        let c = CostModel::default();
        let mut cache = QuantaCache::default();
        for (ctl, bytes) in [(2_500u64, 4096u64), (1_150, 4096), (520, 2 << 20)] {
            let direct = c.migration_quanta(ctl, bytes);
            assert_eq!(cache.get(&c, ctl, bytes), direct);
            // Second lookup hits the memo and must return the same quanta.
            assert_eq!(cache.get(&c, ctl, bytes), direct);
        }
        let q = c.migration_quanta(2_500, 4096);
        let f = c.pt_lock_fraction;
        assert_eq!(q.nominal_copy_ns, c.kernel_copy_ns(4096));
        assert_eq!(
            q.serial_ns,
            (f * (2_500 + q.nominal_copy_ns) as f64).round() as u64
        );
        assert_eq!(q.parallel_ctl_ns, 2_500 - (f * 2_500f64).round() as u64);
        assert!((q.copy_bw - c.kernel_copy_bw / (1.0 - f)).abs() < 1e-12);
    }

    #[test]
    fn calibration_remote_walk_hits_mitosis_band() {
        let c = CostModel::default();
        // Two hops (the opteron's diagonal) lands the ~3.1x remote-walk
        // penalty Mitosis reports; one hop sits in between.
        let ratio2 = c.pt_walk_ns(2) / c.pt_walk_ns(0);
        assert!((2.9..3.3).contains(&ratio2), "2-hop walk ratio {ratio2}");
        assert!(c.pt_walk_ns(1) > c.pt_walk_ns(0));
        // Miss rates order by access irregularity.
        assert!(c.tlb_miss_rate_stream < c.tlb_miss_rate_blocked);
        assert!(c.tlb_miss_rate_blocked < c.tlb_miss_rate_random);
    }

    #[test]
    fn pt_sync_and_migrate_costs_are_linear() {
        let c = CostModel::default();
        assert_eq!(
            c.pt_replica_sync_ns(4),
            c.pt_replica_sync_base_ns + 4 * c.pt_replica_sync_per_pte_ns
        );
        assert_eq!(
            c.pt_migrate_ns(1000),
            c.pt_migrate_base_ns + 1000 * c.pt_migrate_per_pte_ns
        );
        // A single-PTE replica write-through must be far cheaper than a
        // page migration, or replication could never win.
        assert!(c.pt_replica_sync_ns(4) < c.move_pages_control_ns / 2);
    }

    #[test]
    fn bad_walk_params_rejected() {
        let c = CostModel {
            tlb_miss_rate_random: 1.5,
            ..CostModel::default()
        };
        assert!(c.validate().is_err());
        let c = CostModel {
            pt_walk_base_ns: 0.0,
            ..CostModel::default()
        };
        assert!(c.validate().is_err());
        let c = CostModel {
            pt_walk_hop_mult: -0.1,
            ..CostModel::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn pages_for_rounds_up() {
        let c = CostModel::default();
        assert_eq!(c.pages_for(1), 1);
        assert_eq!(c.pages_for(4096), 1);
        assert_eq!(c.pages_for(4097), 2);
        assert_eq!(c.pages_for(0), 0);
    }

    #[test]
    fn invalid_models_rejected() {
        let c = CostModel {
            page_size: 3000,
            ..CostModel::default()
        };
        assert!(c.validate().is_err());

        let c = CostModel {
            pt_lock_fraction: 1.5,
            ..CostModel::default()
        };
        assert!(c.validate().is_err());

        let mut c = CostModel::default();
        c.numa_factor[0] = 1.2;
        assert!(c.validate().is_err());
    }

    // Local helper: MB/s from bytes and ns (mirrors numa-stats::mb_per_s,
    // duplicated here to avoid a dev-dependency cycle).
    fn numa_stats_mbps(bytes: u64, ns: u64) -> f64 {
        bytes as f64 / ns as f64 * 1000.0
    }
}
