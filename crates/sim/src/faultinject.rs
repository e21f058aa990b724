//! Deterministic, seed-driven fault injection for the migration paths.
//!
//! The real kernel's migration machinery fails in ordinary operation:
//! `move_pages` returns a per-page status array (`-EBUSY`, `-ENOENT`,
//! `-ENOMEM`), next-touch migration silently leaves a page in place when
//! the copy cannot proceed, and a racing `munmap` can pull a mapping out
//! from under an in-flight copy. The simulator's kernel consults a
//! [`FaultInjector`] at each of those decision points so chaos experiments
//! can *exercise* the failure handling deterministically.
//!
//! Design constraints (DESIGN.md §11):
//!
//! * **Zero behavioural change when disabled.** [`FaultInjector::disabled`]
//!   is the default on every kernel; a consult is then a single branch
//!   with no RNG draw, no counter and no trace event, so every experiment
//!   output is byte-identical to a build without the subsystem.
//! * **Determinism.** Decisions derive only from the plan seed and the
//!   per-site consult index — one [`Splitmix64`] stream per site, seeded
//!   from `seed ^ site`, so adding consults at one site never perturbs
//!   another, and identical `(seed, plan)` pairs reproduce identical fault
//!   sequences regardless of host parallelism.
//! * **Faults are decided before side effects.** Call sites consult the
//!   injector before allocating frames or touching locks/interconnect, so
//!   an injected failure charges only the failed-path cost.

use crate::rng::Splitmix64;
use serde::{Deserialize, Serialize};

/// A migration decision point where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// Per-page copy inside `move_pages` (also the user-space next-touch
    /// library, which migrates regions with `move_pages`).
    MovePagesCopy,
    /// Per-page copy inside the `migrate_pages` address-space walk.
    MigratePagesCopy,
    /// The kernel next-touch fault-path migration.
    NextTouchFault,
    /// Tier promotion/demotion (transactional begin/commit and
    /// stop-the-world).
    TierPromotion,
    /// Per-victim demotion inside direct reclaim / `kreclaimd` (the
    /// memory-pressure subsystem's cold-page eviction copy).
    Reclaim,
    /// Per-page copy while evacuating a node marked for hot-remove.
    Evacuation,
}

/// All sites, in stream order.
pub const FAULT_SITES: [FaultSite; 6] = [
    FaultSite::MovePagesCopy,
    FaultSite::MigratePagesCopy,
    FaultSite::NextTouchFault,
    FaultSite::TierPromotion,
    FaultSite::Reclaim,
    FaultSite::Evacuation,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::MovePagesCopy => 0,
            FaultSite::MigratePagesCopy => 1,
            FaultSite::NextTouchFault => 2,
            FaultSite::TierPromotion => 3,
            FaultSite::Reclaim => 4,
            FaultSite::Evacuation => 5,
        }
    }

    /// Stable short name (trace events, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::MovePagesCopy => "move_pages_copy",
            FaultSite::MigratePagesCopy => "migrate_pages_copy",
            FaultSite::NextTouchFault => "next_touch_fault",
            FaultSite::TierPromotion => "tier_promotion",
            FaultSite::Reclaim => "reclaim",
            FaultSite::Evacuation => "evacuation",
        }
    }
}

/// What kind of failure is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Transient copy failure (`-EBUSY`-like): the page is momentarily
    /// pinned or locked elsewhere. Retryable — the caller may re-attempt.
    TransientCopy,
    /// Destination-node frame exhaustion (`-ENOMEM`): degradable — the
    /// page stays on its source node and the workload keeps running.
    FrameExhausted,
    /// A racing unmap pulled the mapping out mid-copy (`-ENOENT`): the
    /// copy is wasted and discarded; the mapping is left as found.
    RacingUnmap,
}

impl FaultKind {
    /// Stable short name (trace events, JSON output).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TransientCopy => "transient_copy",
            FaultKind::FrameExhausted => "frame_exhausted",
            FaultKind::RacingUnmap => "racing_unmap",
        }
    }
}

/// One injection rule: at `site`, fail with `kind` — probabilistically
/// (`rate_ppm` in parts per million of consults) and/or on an explicit
/// `schedule` of zero-based consult indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Where the rule applies.
    pub site: FaultSite,
    /// What is injected.
    pub kind: FaultKind,
    /// Probability per consult, in parts per million (0 = never).
    pub rate_ppm: u32,
    /// Explicit consult indices (per site, zero-based) that always fail,
    /// independent of `rate_ppm`. Must be sorted ascending.
    pub schedule: Vec<u64>,
}

/// A deterministic fault plan: a seed plus an ordered rule list. The first
/// rule that fires at a consult wins.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the per-site decision streams.
    pub seed: u64,
    /// Rules, evaluated in order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no rules) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Add a probabilistic rule.
    pub fn with_rate(mut self, site: FaultSite, kind: FaultKind, rate_ppm: u32) -> Self {
        self.rules.push(FaultRule {
            site,
            kind,
            rate_ppm,
            schedule: Vec::new(),
        });
        self
    }

    /// Add an explicit schedule: the given per-site consult indices fail
    /// with `kind`.
    pub fn with_schedule(
        mut self,
        site: FaultSite,
        kind: FaultKind,
        mut indices: Vec<u64>,
    ) -> Self {
        indices.sort_unstable();
        self.rules.push(FaultRule {
            site,
            kind,
            rate_ppm: 0,
            schedule: indices,
        });
        self
    }

    /// The chaos-sweep mix: at every site (including the pressure-path
    /// `Reclaim`/`Evacuation` sites), transient copy failures at
    /// `rate_ppm`, frame exhaustion at half that, and racing unmaps at a
    /// quarter (sites with an in-flight copy against a live mapping —
    /// an unmap race needs a copy to race with).
    pub fn chaos(seed: u64, rate_ppm: u32) -> Self {
        let mut plan = FaultPlan::new(seed);
        for site in FAULT_SITES {
            plan = plan.with_rate(site, FaultKind::TransientCopy, rate_ppm);
            plan = plan.with_rate(site, FaultKind::FrameExhausted, rate_ppm / 2);
            if matches!(
                site,
                FaultSite::MovePagesCopy | FaultSite::MigratePagesCopy | FaultSite::Evacuation
            ) {
                plan = plan.with_rate(site, FaultKind::RacingUnmap, rate_ppm / 4);
            }
        }
        plan
    }
}

/// The per-kernel injector: owns the plan, one decision stream and one
/// consult counter per site. Single-threaded like everything else in the
/// simulator — each [`crate::SimTime`]-ordered consult advances exactly
/// one stream, so decisions are a pure function of `(plan, consult
/// history)`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    enabled: bool,
    plan: FaultPlan,
    streams: [Splitmix64; FAULT_SITES.len()],
    consults: [u64; FAULT_SITES.len()],
    injected: u64,
}

impl FaultInjector {
    /// The default injector: never fires, adds one branch per consult.
    pub fn disabled() -> Self {
        FaultInjector {
            enabled: false,
            plan: FaultPlan::default(),
            streams: std::array::from_fn(|_| Splitmix64::new(0)),
            consults: [0; FAULT_SITES.len()],
            injected: 0,
        }
    }

    /// An injector following `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        // Distinct stream per site: mixing the site index into the seed
        // keeps sites independent (consults at one never shift another's
        // decisions).
        let streams = std::array::from_fn(|i| {
            Splitmix64::new(plan.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)))
        });
        FaultInjector {
            enabled: true,
            plan,
            streams,
            consults: [0; FAULT_SITES.len()],
            injected: 0,
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Ask whether the operation at `site` should fail, and how. Advances
    /// the site's consult index; `None` means proceed normally.
    #[inline]
    pub fn consult(&mut self, site: FaultSite) -> Option<FaultKind> {
        if !self.enabled {
            return None;
        }
        self.consult_slow(site)
    }

    fn consult_slow(&mut self, site: FaultSite) -> Option<FaultKind> {
        let i = site.index();
        let idx = self.consults[i];
        self.consults[i] += 1;
        for rule in &self.plan.rules {
            if rule.site != site {
                continue;
            }
            if rule.schedule.binary_search(&idx).is_ok() {
                self.injected += 1;
                return Some(rule.kind);
            }
            if rule.rate_ppm > 0 && self.streams[i].below(1_000_000) < u64::from(rule.rate_ppm) {
                self.injected += 1;
                return Some(rule.kind);
            }
        }
        None
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..10_000 {
            assert_eq!(inj.consult(FaultSite::MovePagesCopy), None);
        }
        assert_eq!(inj.injected(), 0);
        // Disabled consults do not even count — zero bookkeeping.
        assert_eq!(inj.consults[FaultSite::MovePagesCopy.index()], 0);
    }

    #[test]
    fn vacuous_plan_never_fires_but_counts() {
        let mut inj = FaultInjector::new(FaultPlan::new(7));
        for _ in 0..1000 {
            assert_eq!(inj.consult(FaultSite::NextTouchFault), None);
        }
        assert_eq!(inj.consults[FaultSite::NextTouchFault.index()], 1000);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn identical_plans_reproduce_identical_decisions() {
        let mk = || {
            let mut inj = FaultInjector::new(FaultPlan::chaos(42, 100_000));
            let mut out = Vec::new();
            for i in 0..500 {
                let site = FAULT_SITES[i % FAULT_SITES.len()];
                out.push(inj.consult(site));
            }
            out
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn sites_are_independent_streams() {
        // Decisions at one site must not depend on how often another was
        // consulted in between.
        let mut a = FaultInjector::new(FaultPlan::chaos(9, 200_000));
        let mut b = FaultInjector::new(FaultPlan::chaos(9, 200_000));
        let mut da = Vec::new();
        let mut db = Vec::new();
        for _ in 0..200 {
            da.push(a.consult(FaultSite::MovePagesCopy));
        }
        for _ in 0..200 {
            // Interleave heavy traffic at another site.
            let _ = b.consult(FaultSite::TierPromotion);
            db.push(b.consult(FaultSite::MovePagesCopy));
            let _ = b.consult(FaultSite::NextTouchFault);
        }
        assert_eq!(da, db);
    }

    #[test]
    fn schedule_fires_exactly_on_listed_indices() {
        let plan = FaultPlan::new(0).with_schedule(
            FaultSite::MigratePagesCopy,
            FaultKind::RacingUnmap,
            vec![2, 5],
        );
        let mut inj = FaultInjector::new(plan);
        let fired: Vec<bool> = (0..8)
            .map(|_| inj.consult(FaultSite::MigratePagesCopy).is_some())
            .collect();
        assert_eq!(
            fired,
            vec![false, false, true, false, false, true, false, false]
        );
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn rates_fire_roughly_proportionally() {
        let mut inj = FaultInjector::new(FaultPlan::new(3).with_rate(
            FaultSite::MovePagesCopy,
            FaultKind::TransientCopy,
            250_000,
        ));
        let n = 10_000;
        let fired = (0..n)
            .filter(|_| inj.consult(FaultSite::MovePagesCopy).is_some())
            .count();
        let frac = fired as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "rate 25% fired {frac}");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(1)
            .with_schedule(FaultSite::TierPromotion, FaultKind::FrameExhausted, vec![0])
            .with_rate(
                FaultSite::TierPromotion,
                FaultKind::TransientCopy,
                1_000_000,
            );
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.consult(FaultSite::TierPromotion),
            Some(FaultKind::FrameExhausted)
        );
        assert_eq!(
            inj.consult(FaultSite::TierPromotion),
            Some(FaultKind::TransientCopy)
        );
    }

    #[test]
    fn pressure_sites_are_wired_into_chaos() {
        assert_eq!(FaultSite::Reclaim.name(), "reclaim");
        assert_eq!(FaultSite::Evacuation.name(), "evacuation");
        let plan = FaultPlan::chaos(1, 10_000);
        for site in [FaultSite::Reclaim, FaultSite::Evacuation] {
            assert!(
                plan.rules
                    .iter()
                    .any(|r| r.site == site && r.rate_ppm == 10_000),
                "chaos plan must cover {}",
                site.name()
            );
        }
        // Adding the pressure sites must not perturb decisions at the
        // original sites: stream seeding is positional and the original
        // four indices are unchanged.
        let mut inj = FaultInjector::new(FaultPlan::chaos(9, 200_000));
        let mut with_noise = FaultInjector::new(FaultPlan::chaos(9, 200_000));
        let mut da = Vec::new();
        let mut db = Vec::new();
        for _ in 0..200 {
            da.push(inj.consult(FaultSite::MovePagesCopy));
            let _ = with_noise.consult(FaultSite::Reclaim);
            db.push(with_noise.consult(FaultSite::MovePagesCopy));
            let _ = with_noise.consult(FaultSite::Evacuation);
        }
        assert_eq!(da, db);
    }
}
