//! Property tests for the sharded orchestrator: random shard partitions
//! of random process sets must run in lockstep with `shards = 1` — and
//! `shards = 1` without coupling must equal today's monolithic engine —
//! on makespan, per-thread breakdowns, counters, and trace event order,
//! in both fast-path modes, with tracing on and off — and a tenant that
//! panics must end the run with its panic instead of hanging it.

use numa_machine::shard::{run_sharded, LedgerConfig, ShardConfig, ShardedRunResult};
use numa_machine::{Machine, MemAccessKind, Op, Program, TenantRun, ThreadSpec};
use numa_sim::Splitmix64;
use numa_topology::CoreId;
use numa_vm::{MemPolicy, PageRange, PAGE_SIZE};
use proptest::prelude::*;
use std::panic;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Deterministically build tenant `id`'s machine and random script from
/// `seed`. Two threads per tenant; ops drawn from the whole churn ISA
/// (computes, touches, next-touch marks, thread migration, `move_pages`,
/// `munmap` of a second throwaway mapping).
fn tenant(seed: u64, fast_path: bool, id: usize) -> TenantRun {
    let topo = Arc::new(numa_topology::presets::two_node());
    let mut machine = Machine::new(topo.clone(), numa_kernel::KernelConfig::default());
    machine.set_fast_path(fast_path);
    let buf = machine.alloc(32 * PAGE_SIZE, MemPolicy::FirstTouch);
    let scratch = machine.alloc(8 * PAGE_SIZE, MemPolicy::FirstTouch);
    let mut rng = Splitmix64::new(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let cores = topo.core_count() as u64;
    let threads = (0..2)
        .map(|t| {
            let core = CoreId(rng.below(cores) as u16);
            let n_ops = 1 + rng.below(10) as usize;
            let mut ops = Vec::with_capacity(n_ops);
            for _ in 0..n_ops {
                ops.push(match rng.below(7) {
                    0 => Op::ComputeNs(1 + rng.below(5_000)),
                    1 => Op::write(
                        buf + rng.below(28) * PAGE_SIZE,
                        (1 + rng.below(4)) * PAGE_SIZE,
                        MemAccessKind::Stream,
                    ),
                    2 => Op::read(
                        buf + rng.below(28) * PAGE_SIZE,
                        (1 + rng.below(4)) * PAGE_SIZE,
                        MemAccessKind::Random,
                    ),
                    3 => Op::MadviseNextTouch {
                        range: PageRange::covering(
                            buf + rng.below(28) * PAGE_SIZE,
                            (1 + rng.below(4)) * PAGE_SIZE,
                        ),
                    },
                    4 => Op::MigrateThread {
                        to: CoreId(rng.below(cores) as u16),
                    },
                    5 => Op::MovePages {
                        pages: vec![buf + rng.below(32) * PAGE_SIZE],
                        dest: vec![numa_topology::NodeId(rng.below(2) as u16)],
                    },
                    _ => {
                        // Touch then unmap the scratch mapping exactly once
                        // (thread 0 only; munmap of a missing VMA is an
                        // error by design).
                        if t == 0 {
                            Op::write(scratch, PAGE_SIZE, MemAccessKind::Stream)
                        } else {
                            Op::ComputeNs(17)
                        }
                    }
                });
            }
            if t == 0 && rng.below(2) == 1 {
                ops.push(Op::Munmap { addr: scratch });
            }
            ThreadSpec::scripted(core, ops)
        })
        .collect();
    TenantRun {
        machine,
        threads,
        barrier_sizes: Vec::new(),
    }
}

/// Everything the lockstep contract covers, in comparable form.
fn fingerprint(r: &ShardedRunResult) -> (Vec<u64>, Vec<Vec<u64>>, String, String, Vec<String>) {
    (
        r.tenant_makespans.iter().map(|t| t.ns()).collect(),
        r.tenants
            .iter()
            .map(|t| t.thread_end.iter().map(|e| e.ns()).collect())
            .collect(),
        format!(
            "{:?}{:?}",
            r.stats.breakdown,
            r.stats.counters.iter().collect::<Vec<_>>()
        ),
        format!("{:?}", r.kernel_counters.iter().collect::<Vec<_>>()),
        r.trace
            .iter()
            .map(|(tenant, e)| format!("{tenant}:{}:{}:{}", e.at.ns(), e.tid, e.kind.label()))
            .collect(),
    )
}

fn config(shards: usize, jobs: usize, couple: bool, trace: bool) -> ShardConfig {
    ShardConfig {
        shards,
        jobs,
        ledger: couple.then_some(LedgerConfig {
            pool_frames_per_node: 128,
            initial_frames_per_node: 24,
            low_free_frames: 8,
            refill_frames: 8,
            keep_free_frames: 16,
        }),
        thrash_miss_limit: if couple { 96 } else { 0 },
        trace_capacity: if trace { 512 } else { 0 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random partitions: shards=1 and shards=N produce byte-identical
    /// output with full coupling (ledger + thrash) and tracing enabled.
    #[test]
    fn random_partition_lockstep(
        seed in any::<u64>(),
        tenants in 1usize..8,
        shards in 2usize..12,
        jobs in 1usize..5,
        fast_path in any::<bool>(),
    ) {
        let topo = Arc::new(numa_topology::presets::two_node());
        let build = |id| tenant(seed, fast_path, id);
        let base = run_sharded(&topo, tenants, &config(1, 1, true, true), build);
        let part = run_sharded(&topo, tenants, &config(shards, jobs, true, true), build);
        prop_assert_eq!(fingerprint(&base), fingerprint(&part));
        prop_assert_eq!(base.windows, part.windows);
        prop_assert_eq!(base.windows_skipped, part.windows_skipped);
        prop_assert_eq!(
            (base.ledger_grants, base.ledger_denials, base.ledger_yields, base.flush_windows),
            (part.ledger_grants, part.ledger_denials, part.ledger_yields, part.flush_windows)
        );
    }

    /// With coupling neutralised, the windowed orchestrator at any
    /// partition equals today's monolithic engine run per tenant — in
    /// both fast-path modes, tracing off (the monolithic reference runs
    /// untraced).
    #[test]
    fn shards_equal_monolithic_engine(
        seed in any::<u64>(),
        tenants in 1usize..6,
        shards in 1usize..10,
        jobs in 1usize..4,
        fast_path in any::<bool>(),
    ) {
        let topo = Arc::new(numa_topology::presets::two_node());
        let sharded = run_sharded(&topo, tenants, &config(shards, jobs, false, false), |id| {
            tenant(seed, fast_path, id)
        });
        for id in 0..tenants {
            let TenantRun { mut machine, threads, barrier_sizes } = tenant(seed, fast_path, id);
            let mono = machine.run(threads, &barrier_sizes);
            prop_assert_eq!(mono.makespan, sharded.tenant_makespans[id]);
            prop_assert_eq!(&mono.thread_end, &sharded.tenants[id].thread_end);
            prop_assert_eq!(
                format!("{:?}", mono.stats.breakdown),
                format!("{:?}", sharded.tenants[id].stats.breakdown)
            );
            prop_assert_eq!(
                format!("{:?}", mono.stats.counters.iter().collect::<Vec<_>>()),
                format!("{:?}", sharded.tenants[id].stats.counters.iter().collect::<Vec<_>>())
            );
        }
    }

    /// Fast path on and off agree under the sharded schedule (the PR 3
    /// equivalence, re-proven through windowed re-entrancy), traced.
    #[test]
    fn fast_path_modes_agree_when_sharded(
        seed in any::<u64>(),
        tenants in 1usize..5,
        shards in 1usize..8,
    ) {
        let topo = Arc::new(numa_topology::presets::two_node());
        let fast = run_sharded(&topo, tenants, &config(shards, 2, true, true), |id| {
            tenant(seed, true, id)
        });
        let slow = run_sharded(&topo, tenants, &config(shards, 2, true, true), |id| {
            tenant(seed, false, id)
        });
        prop_assert_eq!(fingerprint(&fast), fingerprint(&slow));
    }
}

/// Tenant `id` of a run in which tenant `bad` panics, in its builder or
/// else on the 40th call of its generator program. Every tenant computes
/// for 200 ops, many windows long, so the others are still running when
/// `bad` fails.
fn panicking_tenant(id: usize, bad: usize, in_builder: bool) -> TenantRun {
    if id == bad && in_builder {
        panic!("tenant {id} failed in its builder");
    }
    let topo = Arc::new(numa_topology::presets::two_node());
    let machine = Machine::new(topo, numa_kernel::KernelConfig::default());
    let mut calls = 0;
    let program: Program = Box::new(move |_| {
        calls += 1;
        if id == bad && calls == 40 {
            panic!("tenant {id} failed on call {calls}");
        }
        (calls <= 200).then_some(Op::ComputeNs(1_000))
    });
    TenantRun {
        machine,
        threads: vec![ThreadSpec::new(CoreId(0), program)],
        barrier_sizes: Vec::new(),
    }
}

/// A tenant that panics in its builder or mid-run ends `run_sharded`
/// with its own panic within 10 s, at 1 shard and at 8 shards on 2 jobs.
/// With 8 shards, tenant 0 runs on the calling thread's worker and
/// tenant 1 on a spawned one. The worker count is clamped to the host's
/// CPUs, so on a 1-CPU host every case runs on the calling thread alone.
#[test]
fn panicking_tenant_ends_the_run() {
    for shards in [1, 8] {
        for bad in [0, 1] {
            for in_builder in [true, false] {
                let (tx, rx) = mpsc::channel();
                let helper = thread::spawn(move || {
                    let topo = Arc::new(numa_topology::presets::two_node());
                    let cfg = config(shards, 2, true, false);
                    let run = panic::catch_unwind(|| {
                        run_sharded(&topo, 6, &cfg, |id| panicking_tenant(id, bad, in_builder))
                    });
                    let message = run.err().map(|p| match p.downcast::<String>() {
                        Ok(s) => *s,
                        Err(p) => format!("{p:?}"),
                    });
                    tx.send(message).unwrap();
                });
                let case = format!("shards={shards} bad={bad} in_builder={in_builder}");
                let message = rx
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("{case}: run_sharded hung"));
                helper.join().expect("the helper catches the run's panic");
                let want = if in_builder {
                    format!("tenant {bad} failed in its builder")
                } else {
                    format!("tenant {bad} failed on call 40")
                };
                assert_eq!(message, Some(want), "{case}");
            }
        }
    }
}
