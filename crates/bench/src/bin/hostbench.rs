//! Host-performance benchmark for the simulator itself (DESIGN.md §10).
//!
//! Times the heaviest sweeps in-process at `--jobs 1` and at the requested
//! `--jobs`, checksums every result set, and writes the measurements to a
//! JSON file (default `BENCH_pr10.json`). The checksums make the
//! equivalence contract auditable: every run of a workload must report the
//! same checksum no matter the jobs count, and a checksum change across
//! commits means virtual-time results moved — which the host-performance
//! work must never do.
//!
//! Workloads that are single-threaded by construction (one address space,
//! no sweep to distribute) are marked jobs-invariant and measured only
//! once, at `--jobs 1`: re-timing the identical function under a
//! different label measures scheduler noise, not the pool — the
//! BENCH_pr7 `ptrepl jobs=4` "regression" was exactly that artifact.
//!
//! The workload set covers every memory-metadata hot path the dense PTE
//! slabs serve: fig7 (fault-path migration + `move_pages` under
//! contention), table1 (LU with migration policies — the heavy sweep),
//! fig4 (`move_pages` / `migrate_pages` / memcpy batch walks), fig5
//! (`madvise(NEXT_TOUCH)` range marking + fault-path and signal-path
//! migration), ptrepl (eager replica write-through of a fault burst,
//! a migration frame-flip, and a munmap wave over a million-page address
//! space with four per-node page-table replicas), and sparsewalk (range
//! walks and updates over a multi-million-page table mapped one page per
//! 64 — the worst case for a dense walker and the case the present-bitmap
//! popcount skipping exists for).
//!
//! `baseline_seconds` records the same workloads measured on this
//! codebase immediately before the current optimisation round (same quick
//! sweeps, one host thread), so `speedup` tracks the optimisation
//! trajectory in-repo. Workloads without a pre-round measurement carry no
//! baseline or speedup entry. Schema note on the re-anchor: each round's
//! baselines are the *previous* round's jobs=1 medians, so `speedup` is
//! per-round, never cumulative — BENCH_pr8's fig7 entry of 0.89 means the
//! pr8 round cost fig7 ~11% against the pr7 anchor (the watermark-reclaim
//! accounting added to the fault path), not that the repo is slower than
//! it has ever been. This round anchors on the BENCH_pr8 medians below.
//!
//! The `engine` object is new in BENCH_pr10: the sharded orchestrator's
//! *engine-level* parallelism (the multitenant churn run at `--shards 8`
//! versus `--shards 1`, identical output asserted by checksum). Unlike the
//! sweep rows, the two timings differ only in how many host workers
//! execute tenant windows, so `engine.speedup` is the tentpole's
//! scalability figure. The two legs run as interleaved pairs, the side
//! that goes first alternating, and `engine.speedup` is the median of
//! the per-pair serial/sharded ratios: legs timed one after the other
//! measured the shared host's phase as much as the engine. On a
//! single-CPU host (`engine.host_cpus` = 1) the worker clamp leaves one
//! thread either way and the honest expectation is ~1.0 — the perf gate
//! only asserts speedup when `host_cpus` >= 2.

use numa_bench::Options;
use numa_migrate::experiments::{fig4, fig5, fig7, multitenant, table1};
use numa_migrate::sim::hash::FxHasher;
use std::hash::Hasher;
use std::time::Instant;

/// Wall-clock of the quick sweeps on the commit preceding the sharded
/// engine round, single host thread (seconds, the jobs=1 medians from
/// BENCH_pr8.json). A trajectory marker, not a cross-machine constant.
/// `multitenant` is new this round and carries no baseline.
const BASELINE_SECONDS: [(&str, f64); 7] = [
    ("fig7", 0.0542),
    ("table1", 1.4448),
    ("fig4", 0.0026),
    ("fig5", 0.0031),
    ("ptrepl", 0.0969),
    ("sparsewalk", 0.0290),
    ("qchurn", 0.1477),
];

/// Shard count for the parallel leg of the engine-level measurement.
const ENGINE_SHARDS: usize = 8;

fn checksum(debug_rows: &str) -> String {
    let mut h = FxHasher::default();
    h.write(debug_rows.as_bytes());
    format!("{:016x}", h.finish())
}

/// One workload measurement: median wall-clock across `reps` iterations,
/// the min/max spread, and the checksum of the output rows.
struct Sample {
    median: f64,
    min: f64,
    max: f64,
    checksum: String,
}

/// Median of `xs` (sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

impl Sample {
    fn new(mut times: Vec<f64>, checksum: String) -> Self {
        let median = median(&mut times);
        Sample {
            median,
            min: times[0],
            max: times[times.len() - 1],
            checksum,
        }
    }
}

/// Wall-clock of one call of `f`, and the checksum of its rows.
fn timed<F: Fn() -> String>(f: F) -> (f64, String) {
    let t0 = Instant::now();
    let rows = f();
    (t0.elapsed().as_secs_f64(), checksum(&rows))
}

/// Median-of-`reps` wall-clock for `f`. The median resists one-off
/// scheduler stalls in either direction, unlike best-of (which reports a
/// lucky outlier) — and the recorded spread makes the remaining noise
/// visible in the JSON instead of silently discarded.
fn measure<F: Fn() -> String>(reps: usize, f: F) -> Sample {
    let mut times = Vec::new();
    let mut sum = String::new();
    for _ in 0..reps.max(1) {
        let (t, s) = timed(&f);
        times.push(t);
        sum = s;
    }
    Sample::new(times, sum)
}

/// `reps` interleaved pairs of `a` and `b`, with the side that goes first
/// alternating, so a slow host phase lands on both sides instead of one.
/// Returns both samples and the median of the per-pair `a`/`b` ratios.
fn measure_pairs<A, B>(reps: usize, a: A, b: B) -> (Sample, Sample, f64)
where
    A: Fn() -> String,
    B: Fn() -> String,
{
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sa, mut sb) = (String::new(), String::new());
    for rep in 0..reps.max(1) {
        let ((t_a, s_a), (t_b, s_b)) = if rep % 2 == 0 {
            let first = timed(&a);
            (first, timed(&b))
        } else {
            let first = timed(&b);
            (timed(&a), first)
        };
        ratios.push(t_a / t_b);
        ta.push(t_a);
        tb.push(t_b);
        (sa, sb) = (s_a, s_b);
    }
    (
        Sample::new(ta, sa),
        Sample::new(tb, sb),
        median(&mut ratios),
    )
}

/// Replica write-through stress at the vm layer: map one million-page
/// VMA under eager replication for four nodes, fault in every page, flip
/// every frame (the `move_pages` PTE rewrite), then unmap half — ~12M
/// replica PTE writes charged, counted from ~3M dirty bits of the
/// primary's slabs, four times over. Single-threaded by construction
/// (one address space), so the jobs value is irrelevant and the checksum
/// trivially jobs-invariant.
fn ptrepl_replica_stress() -> String {
    use numa_migrate::vm::{AddressSpace, FrameId, PageRange, PtPlacement, PtSyncMode, Pte, Vma};
    const PAGES: u64 = 1 << 20;
    let full = PageRange::new(0, PAGES);
    let mut space = AddressSpace::new();
    space.pt_configure(PtPlacement::Replicated, PtSyncMode::Eager, 4);
    space
        .insert_vma(Vma::anon(full))
        .expect("the span below the mmap base is free");
    for vpn in 0..PAGES {
        space.page_table.map(vpn, Pte::present_rw(FrameId(vpn)));
    }
    let faulted = space.pt_note_update(full);
    space.page_table.update_range(full, |vpn, pte| {
        pte.frame = FrameId(PAGES + vpn);
    });
    let migrated = space.pt_note_update(full);
    let half = PageRange::new(0, PAGES / 2);
    for vpn in half.iter() {
        space.page_table.unmap(vpn);
    }
    let unmapped = space.pt_note_update(half);
    let replicas = space.pt_replicas().expect("replicated placement");
    for node in 0..4u16 {
        assert!(
            replicas.agrees_with(numa_migrate::topology::NodeId(node), &space.page_table),
            "replica stress left node {node} diverged"
        );
    }
    format!(
        "faulted={faulted} migrated={migrated} unmapped={unmapped} live={}",
        space.page_table.len()
    )
}

/// Sparse-walk stress at the vm layer: reserve a 4M-page span (a
/// handful of dense slabs), map one page per 64-page bitmap word, then
/// drive the range-walk and range-update primitives across the whole
/// span. Every present-bitmap word is 63/64 absent, so a per-record
/// scan pays 64x the useful work while the popcount/trailing_zeros
/// walk pays one word test per word — the shape tier-promotion scans
/// and `migrate_pages` batches see over lazily-faulted heaps.
/// Single-threaded by construction; trivially jobs-invariant.
fn sparsewalk_stress() -> String {
    use numa_migrate::vm::{FrameId, PageRange, PageTable, Pte, PteFlags};
    const SPAN: u64 = 1 << 22;
    const STRIDE: u64 = 64;
    let full = PageRange::new(0, SPAN);
    let mut pt = PageTable::new();
    pt.reserve_range(full);
    let mut vpn = 0;
    while vpn < SPAN {
        pt.map(vpn, Pte::present_rw(FrameId(vpn)));
        vpn += STRIDE;
    }
    // Full-span walks over the 1-in-64 occupancy.
    let (mut seen, mut mix) = (0u64, 0u64);
    for _ in 0..8 {
        for (v, pte) in pt.walk_range(full) {
            seen += 1;
            mix = mix.wrapping_add(pte.frame.0 ^ v).rotate_left(7);
        }
    }
    // Range update (the mprotect/madvise shape), then the O(1) stats
    // read and a full release.
    pt.update_range(full, |_, pte| pte.flags |= PteFlags::NEXT_TOUCH);
    let stats = pt.stats();
    let mut released = 0u64;
    pt.release_range(full, |_, _| released += 1);
    assert!(pt.is_empty(), "sparsewalk release left entries behind");
    format!(
        "seen={seen} mix={mix:016x} nt={} slabs={} released={released}",
        stats.next_touch, stats.slabs
    )
}

/// Engine-core churn: the tournament-tree ready queue and the breakdown
/// accumulator under the exact access pattern the engine drives — take
/// the root thread, charge a couple of cost components, re-key it at a
/// deterministic stride — with no kernel, no page tables, and no memory
/// system, so re-key/replay plus breakdown adds are the entire profile.
/// A re-key costs `log2(THREADS)` compares whatever the stride; the
/// stride mix — same-instant ties (FIFO order), short hops, and rare
/// far-future jumps — stays so that the checksum keeps pinning the pop
/// order, which no queue implementation may change. Single-threaded by
/// construction; trivially jobs-invariant.
fn qchurn_stress() -> String {
    use numa_migrate::sim::{SimTime, TournamentTree};
    use numa_migrate::stats::{Breakdown, CostComponent};
    const THREADS: usize = 64;
    const MICROS: u64 = 100_000;
    let mut q = TournamentTree::new(THREADS);
    let mut b = Breakdown::new();
    for tid in 0..THREADS {
        q.set(tid, SimTime((tid % 5) as u64));
    }
    let mut remaining = [MICROS; THREADS];
    let (mut pops, mut mix) = (0u64, 0u64);
    while let Some((now, tid)) = q.peek() {
        pops += 1;
        let stride = match pops % 127 {
            0 => 1 << 24,                          // far-future jump
            1..=9 => 0,                            // same-instant FIFO ties
            r => 40 + (r * 37 + tid as u64) % 400, // short hops
        };
        b.add(CostComponent::MemoryAccess, stride);
        b.add(CostComponent::Compute, 1);
        mix = mix
            .wrapping_add(now.ns() ^ (tid as u64) << 7)
            .rotate_left(5);
        if remaining[tid] > 0 {
            remaining[tid] -= 1;
            q.set(tid, now + stride);
        } else {
            q.remove(tid);
        }
    }
    assert_eq!(pops, THREADS as u64 * (MICROS + 1), "qchurn lost events");
    format!("pops={pops} mix={mix:016x} total={}", b.total())
}

fn main() {
    let opts = Options::parse("hostbench", "host wall-clock of the heavy sweeps");
    let out_path = opts
        .json
        .clone()
        .unwrap_or_else(|| "BENCH_pr10.json".into());
    let fig7_pages: Vec<u64> = vec![64, 512, 4096, 16384];
    let fig4_pages: Vec<u64> = vec![16, 256, 2048];
    let fig5_pages: Vec<u64> = vec![16, 256, 2048];
    let table1_cases = table1::quick_cases();
    // (name, reps, jobs-sensitive, runner) — reps are median-of; table1
    // is slow enough that fewer iterations already give a stable median.
    // Jobs-insensitive workloads ignore the jobs argument and are
    // measured only at jobs=1 (see the module docs).
    type Runner<'a> = Box<dyn Fn(usize) -> String + 'a>;
    let workloads: Vec<(&str, usize, bool, Runner)> = vec![
        (
            "fig7",
            5,
            true,
            Box::new(|jobs| format!("{:?}", fig7::run(&fig7_pages, 4, jobs))),
        ),
        (
            "table1",
            3,
            true,
            Box::new(|jobs| format!("{:?}", table1::run(&table1_cases, jobs))),
        ),
        (
            "fig4",
            5,
            true,
            Box::new(|jobs| format!("{:?}", fig4::run(&fig4_pages, jobs))),
        ),
        (
            "fig5",
            5,
            true,
            Box::new(|jobs| format!("{:?}", fig5::run(&fig5_pages, jobs))),
        ),
        (
            "ptrepl",
            3,
            false,
            Box::new(|_jobs| ptrepl_replica_stress()),
        ),
        (
            "sparsewalk",
            3,
            false,
            Box::new(|_jobs| sparsewalk_stress()),
        ),
        ("qchurn", 3, false, Box::new(|_jobs| qchurn_stress())),
        (
            // Engine-level parallelism, not a sweep: jobs=1 runs the churn
            // serially (shards=1), jobs=N runs the same tenants sharded
            // ENGINE_SHARDS ways on N workers. The checksum assertion below
            // is the sharded engine's output contract across packings.
            // Five reps, run as interleaved serial/sharded pairs: the run
            // is short (~0.1s), and the engine speedup is the median of
            // the per-pair ratios, so both legs see the same host phases.
            "multitenant",
            5,
            true,
            Box::new(|jobs| {
                let shards = if jobs > 1 { ENGINE_SHARDS } else { 1 };
                format!(
                    "{:?}",
                    multitenant::run(multitenant::TENANTS, 0, shards, jobs)
                )
            }),
        ),
    ];

    let jobs_values = if opts.jobs > 1 {
        vec![1, opts.jobs]
    } else {
        vec![1]
    };
    let mut runs = Vec::new();
    let mut seq_seconds = Vec::new();
    let mut engine_legs = None;
    for (name, reps, jobs_sensitive, run) in &workloads {
        let samples: Vec<(usize, Sample)> = if *name == "multitenant" && opts.jobs > 1 {
            let (serial, sharded, speedup) = measure_pairs(*reps, || run(1), || run(opts.jobs));
            engine_legs = Some((serial.median, sharded.median, speedup));
            vec![(1, serial), (opts.jobs, sharded)]
        } else {
            jobs_values
                .iter()
                .filter(|&&jobs| jobs == 1 || *jobs_sensitive)
                .map(|&jobs| (jobs, measure(*reps, || run(jobs))))
                .collect()
        };
        let mut sums = Vec::new();
        for (jobs, s) in samples {
            if jobs == 1 {
                seq_seconds.push((*name, s.median));
            }
            runs.push(format!(
                "    {{\"binary\": \"{name}\", \"jobs\": {jobs}, \"seconds\": {:.4}, \
                 \"min_seconds\": {:.4}, \"max_seconds\": {:.4}, \"reps\": {reps}, \
                 \"checksum\": \"{}\"}}",
                s.median, s.min, s.max, s.checksum
            ));
            sums.push(s.checksum);
        }
        assert!(
            sums.windows(2).all(|w| w[0] == w[1]),
            "{name}: results differ across --jobs values — the parallel sweep \
             runner (or the sharded engine) broke the determinism contract"
        );
    }

    let baseline: Vec<String> = BASELINE_SECONDS
        .iter()
        .map(|(n, s)| format!("    \"{n}\": {s:.4}"))
        .collect();
    let speedup: Vec<String> = BASELINE_SECONDS
        .iter()
        .filter_map(|(n, base)| {
            seq_seconds
                .iter()
                .find(|(m, _)| m == n)
                .map(|(_, now)| format!("    \"{n}\": {:.2}", base / now))
        })
        .collect();

    // The tentpole figure: serial vs sharded wall-clock of the same
    // byte-identical multitenant run. Present only when a parallel leg was
    // measured (opts.jobs > 1); host_cpus lets the perf gate skip the
    // speedup assertion on hosts where no parallelism exists to win.
    let engine = match engine_legs {
        Some((serial, sharded, speedup)) => format!(
            "  \"engine\": {{\n    \"workload\": \"multitenant\",\n    \
             \"tenants\": {},\n    \"shards\": {ENGINE_SHARDS},\n    \
             \"jobs\": {},\n    \"host_cpus\": {},\n    \
             \"serial_seconds\": {serial:.4},\n    \
             \"sharded_seconds\": {sharded:.4},\n    \
             \"speedup\": {speedup:.2}\n  }},\n",
            multitenant::TENANTS,
            opts.jobs,
            threadpool::available_parallelism(),
        ),
        None => String::new(),
    };

    let json = format!(
        "{{\n  \"bench\": \"host-performance\",\n{engine}  \"runs\": [\n{}\n  ],\n  \
         \"baseline_seconds\": {{\n{}\n  }},\n  \"speedup\": {{\n{}\n  }}\n}}\n",
        runs.join(",\n"),
        baseline.join(",\n"),
        speedup.join(",\n")
    );
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("hostbench: cannot write {out_path}: {e}"));
    print!("{json}");
    eprintln!("hostbench: wrote {out_path}");
}
