//! The experiment registry: one [`Experiment`] row per paper table,
//! figure or extension, in CI order, each followed by the table builders
//! it uses. `--list` prints the names, so CI and the docs take the list
//! from here, and each row's `pinned` list is the one list of committed
//! outputs under `results/`. A builder is `pub` only where a regression
//! test calls it.

use crate::{embed_counters, mbps, percent, secs, Options, RunOutput};
use numa_migrate::experiments::fig5::NtVariant;
use numa_migrate::experiments::multitenant::MultitenantOutcome;
use numa_migrate::experiments::{
    ablations, blas1, chaos, fig4, fig4_page_counts, fig5, fig5_page_counts, fig6, fig7,
    fig7_page_counts, fig8, multitenant, pressure, ptrepl, scaling, table1, tiering,
};
use numa_migrate::machine::Machine;
use numa_migrate::stats::{Json, Table};
use numa_migrate::topology::{CoreId, NodeId};

/// One experiment: its binary name, the `--help` description, the
/// body that prints its tables into a [`RunOutput`], and its pins.
pub struct Experiment {
    /// Binary name, also the `"binary"` field of its `--json` file.
    pub name: &'static str,
    /// What it regenerates, printed by `--help`.
    pub what: &'static str,
    /// Print the tables for the parsed options.
    pub run: fn(&Options, &mut RunOutput),
    /// The committed files under `results/` this experiment reproduces.
    pub pinned: &'static [Pin],
}

/// A committed file under `results/` that one run of its experiment
/// reproduces byte for byte. A `.json` pin holds the document that
/// `<name> <args> --json results/<file>` writes; any other pin holds the
/// stdout of `<name> <args>`. `crates/bench/tests/goldens.rs` regenerates
/// every pin in-process and checks that each file under `results/` but
/// its README is pinned exactly once.
pub struct Pin {
    /// File name under `results/`.
    pub file: &'static str,
    /// The flags that produce it.
    pub args: &'static [&'static str],
    /// Too slow for every test run: only the `--ignored` golden test,
    /// run on a schedule in release, regenerates it.
    pub heavy: bool,
}

/// A pin that every test run checks.
const fn pin(file: &'static str, args: &'static [&'static str]) -> Pin {
    let heavy = false;
    Pin { file, args, heavy }
}

const FULL: &[&str] = &["--full"];

/// Every experiment, in CI order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3",
        what: "Figure 3 (the experimentation platform)",
        run: fig3,
        pinned: &[pin("fig3.json", &[])],
    },
    Experiment {
        name: "fig4",
        what: "Figure 4 (synchronous migration throughput)",
        run: fig4,
        pinned: &[pin("fig4.json", &[]), pin("fig4_full.txt", FULL)],
    },
    Experiment {
        name: "fig5",
        what: "Figure 5 (next-touch throughput comparison)",
        run: fig5,
        pinned: &[pin("fig5.json", &[]), pin("fig5_full.txt", FULL)],
    },
    Experiment {
        name: "fig6",
        what: "Figure 6 (next-touch cost breakdowns)",
        run: fig6,
        pinned: &[pin("fig6.json", &[]), pin("fig6_full.txt", FULL)],
    },
    Experiment {
        name: "fig7",
        what: "Figure 7 (threaded migration scalability)",
        run: fig7,
        pinned: &[pin("fig7.json", &[]), pin("fig7_full.txt", FULL)],
    },
    Experiment {
        name: "fig8",
        what: "Figure 8 (16 concurrent BLAS3 multiplications)",
        run: fig8,
        pinned: &[pin("fig8.json", &[]), pin("fig8_full.txt", FULL)],
    },
    Experiment {
        name: "table1",
        what: "Table 1 (LU factorization times)",
        run: table1,
        pinned: &[
            pin("table1.json", &[]),
            Pin {
                file: "table1_full.txt",
                args: &["--full", "--jobs", "2"],
                heavy: true,
            },
        ],
    },
    Experiment {
        name: "scaling8",
        what: "the §6 larger-machines outlook",
        run: scaling8,
        pinned: &[pin("scaling8.json", &[])],
    },
    Experiment {
        name: "blas1_check",
        what: "the BLAS1 no-improvement check (§4.5)",
        run: blas1_check,
        pinned: &[
            pin("blas1_check.json", &[]),
            pin("blas1_check_full.txt", FULL),
        ],
    },
    Experiment {
        name: "ablations",
        what: "design-choice ablations",
        run: ablations,
        pinned: &[pin("ablations.json", &[]), pin("ablations_full.txt", FULL)],
    },
    Experiment {
        name: "tiering",
        what: "heterogeneous-memory tiering (transactional vs stop-the-world promotion)",
        run: tiering,
        pinned: &[pin("tiering.json", &[])],
    },
    Experiment {
        name: "chaos",
        what: "the fault-injection sweep (retry/degradation robustness)",
        run: chaos,
        pinned: &[pin("chaos.json", &[]), pin("chaos_full.json", FULL)],
    },
    Experiment {
        name: "ptrepl",
        what: "the page-table placement comparison",
        run: ptrepl,
        pinned: &[pin("ptrepl.json", &[]), pin("ptrepl_full.txt", FULL)],
    },
    Experiment {
        name: "pressure",
        what: "the memory-pressure sweep (reclaim/OOM/watchdog resilience)",
        run: pressure,
        pinned: &[pin("pressure.json", &[])],
    },
    Experiment {
        name: "multitenant",
        what: "the 1,000-tenant churn run on the sharded engine",
        run: multitenant,
        pinned: &[
            pin("multitenant.json", &[]),
            pin("multitenant_full.json", FULL),
        ],
    },
];

/// Figure 3 counterpart: print the simulated experimentation platform —
/// nodes, cores, links, routes and NUMA factors — so every other
/// experiment's context is inspectable.
fn fig3(_opts: &Options, out: &mut RunOutput) {
    let m = Machine::opteron_4p();
    let topo = m.topology();
    let cost = topo.cost();

    out.note(&format!(
        "The experimentation host: {} nodes x {} cores ({} total), \
         {:.1} GHz, {} GB + {} MB L3 per node\n\n",
        topo.node_count(),
        topo.core_count() / topo.node_count(),
        topo.core_count(),
        topo.core(CoreId(0)).freq_hz as f64 / 1e9,
        topo.node(NodeId(0)).memory_bytes >> 30,
        topo.node(NodeId(0)).l3_bytes >> 20,
    ));

    let mut links = Table::new(["link", "endpoints", "bandwidth GB/s"]);
    for i in 0..topo.link_count() {
        let l = topo.link(numa_migrate::topology::LinkId(i as u16));
        links.row([
            format!("#{i}"),
            format!("{} <-> {}", l.a, l.b),
            format!("{:.1}", l.bandwidth_bytes_per_ns),
        ]);
    }
    out.table("HyperTransport links:", &links);

    let mut routes = Table::new(["from\\to", "node#0", "node#1", "node#2", "node#3"]);
    for a in topo.node_ids() {
        let mut row = vec![a.to_string()];
        for b in topo.node_ids() {
            row.push(format!(
                "{} hop(s), x{:.2}",
                topo.hops(a, b),
                topo.numa_factor(a, b)
            ));
        }
        routes.row(row);
    }
    out.table("\nRoutes and NUMA factors (paper: 1.2-1.4):", &routes);

    let mut consts = Table::new(["constant", "value", "paper source"]);
    consts.row([
        "move_pages base".into(),
        format!("{} us", cost.move_pages_base_ns / 1000),
        "\u{a7}4.2 (~160 us)".to_string(),
    ]);
    consts.row([
        "migrate_pages base".into(),
        format!("{} us", cost.migrate_pages_base_ns / 1000),
        "\u{a7}4.2 (~400 us)".to_string(),
    ]);
    consts.row([
        "kernel copy bandwidth".into(),
        format!("{:.1} GB/s", cost.kernel_copy_bw),
        "\u{a7}4.2 (1 GB/s)".to_string(),
    ]);
    consts.row([
        "pt-lock serialized fraction".into(),
        format!("{:.2}", cost.pt_lock_fraction),
        "Fig. 7 scaling".to_string(),
    ]);
    consts.row([
        "unpatched lookup per entry".into(),
        format!("{:.0} ns", cost.unpatched_lookup_ns_per_entry),
        "Fig. 4 shape".to_string(),
    ]);
    out.table(
        "\nCalibrated kernel constants (DESIGN.md \u{a7}4):",
        &consts,
    );
}

/// Regenerates Figure 4: migration and memory-copy throughput between
/// NUMA nodes #0 and #1 (memcpy / migrate_pages / move_pages /
/// move_pages without the complexity patch).
fn fig4(opts: &Options, out: &mut RunOutput) {
    let pages = if opts.full {
        fig4_page_counts()
    } else {
        vec![1, 16, 256, 2048, 8192]
    };
    let rows = fig4::run(&pages, opts.jobs);
    let mut table = Table::new([
        "pages",
        "memcpy MB/s",
        "migrate_pages MB/s",
        "move_pages MB/s",
        "move_pages(no patch) MB/s",
    ]);
    for r in rows {
        table.row([
            r.pages.to_string(),
            mbps(r.memcpy_mbps),
            mbps(r.migrate_pages_mbps),
            mbps(r.move_pages_mbps),
            mbps(r.move_pages_nopatch_mbps),
        ]);
    }
    out.table(
        "Figure 4: migration and memory copy throughput, node #0 -> node #1",
        &table,
    );
}

/// Regenerates Figure 5: next-touch migration throughput — user-space
/// (with and without the move_pages patch) vs the kernel implementation.
///
/// With `--trace`/`--json`, additionally runs one traced kernel-NT
/// episode and exports its Chrome trace, cost breakdown and resource
/// utilisation — the trace's per-component span sums reconcile exactly
/// with the printed breakdown table (asserted in
/// `tests/trace_reconcile.rs`).
fn fig5(opts: &Options, out: &mut RunOutput) {
    let pages = if opts.full {
        fig5_page_counts()
    } else {
        vec![4, 16, 128, 1024, 4096]
    };
    let rows = fig5::run(&pages, opts.jobs);
    let mut table = Table::new([
        "pages",
        "user NT (no patch) MB/s",
        "user NT MB/s",
        "kernel NT MB/s",
    ]);
    for r in rows {
        table.row([
            r.pages.to_string(),
            mbps(r.user_nopatch_mbps),
            mbps(r.user_mbps),
            mbps(r.kernel_mbps),
        ]);
    }
    out.table("Figure 5: next-touch performance comparison", &table);

    if opts.trace.is_some() || opts.json.is_some() {
        // One traced episode whose exported trace reconciles with the
        // breakdown printed below.
        let episode_pages: u64 = 1024;
        let (r, m) = fig5::measure_traced(episode_pages, NtVariant::Kernel, 1 << 16);
        let mut bt = Table::new(["component", "ns", "percent"]);
        for (c, ns, pct) in r.stats.breakdown.entries() {
            bt.row([c.label().to_string(), ns.to_string(), format!("{pct:.2}")]);
        }
        out.table(
            &format!("\nTraced episode (kernel NT, {episode_pages} pages): cost breakdown"),
            &bt,
        );
        let util = m.utilisation_report(r.makespan);
        out.table("\nTraced episode: resource utilisation", &util.to_table());
        out.meta(
            "traced_episode",
            Json::obj()
                .set("variant", "kernel-nt")
                .set("pages", episode_pages)
                .set("makespan_ns", r.makespan.ns())
                .set("trace_events", m.trace.len() as u64)
                .set("trace_dropped", m.trace.dropped())
                .set("utilisation", util.to_json()),
        );
        let mut counters = m.kernel.counters.clone();
        counters.merge(&r.stats.counters);
        out.set_trace_json(embed_counters(&m.trace.chrome_trace_json(), &counters));
    }
}

/// Regenerates Figure 6: per-component cost breakdown of the two
/// next-touch implementations (stacked percentages).
fn fig6(opts: &Options, out: &mut RunOutput) {
    let pages = if opts.full {
        vec![4, 16, 64, 256, 1024, 4096]
    } else {
        vec![16, 256, 1024]
    };

    let mut ta = Table::new([
        "pages",
        "copy %",
        "control %",
        "restore %",
        "fault+signal %",
        "mark %",
        "tlb %",
        "lock wait %",
    ]);
    for r in fig6::run_user(&pages) {
        use numa_migrate::stats::CostComponent as C;
        ta.row([
            r.pages.to_string(),
            format!("{:.1}", r.percent(C::MovePagesCopy)),
            format!("{:.1}", r.percent(C::MovePagesControl)),
            format!("{:.1}", r.percent(C::MprotectRestore)),
            format!("{:.1}", r.percent(C::PageFaultSignal)),
            format!("{:.1}", r.percent(C::MprotectMark)),
            format!("{:.1}", r.percent(C::TlbFlush)),
            format!("{:.1}", r.percent(C::LockWait)),
        ]);
    }
    out.table(
        "Figure 6(a): next-touch in user space — cost percentage per component",
        &ta,
    );

    let mut tb = Table::new([
        "pages",
        "copy %",
        "fault+control %",
        "madvise %",
        "tlb %",
        "lock wait %",
    ]);
    for r in fig6::run_kernel(&pages) {
        use numa_migrate::stats::CostComponent as C;
        tb.row([
            r.pages.to_string(),
            format!("{:.1}", r.percent(C::FaultCopy)),
            format!("{:.1}", r.percent(C::FaultControl)),
            format!("{:.1}", r.percent(C::Madvise)),
            format!("{:.1}", r.percent(C::TlbFlush)),
            format!("{:.1}", r.percent(C::LockWait)),
        ]);
    }
    out.table(
        "\nFigure 6(b): next-touch in the kernel — cost percentage per component",
        &tb,
    );
}

/// Regenerates Figure 7: aggregate throughput of parallel lazy migration
/// (kernel next-touch) and synchronous migration (move_pages) with up to
/// 4 threads on the destination node.
fn fig7(opts: &Options, out: &mut RunOutput) {
    let pages = if opts.full {
        fig7_page_counts()
    } else {
        vec![64, 512, 4096, 16384]
    };
    let rows = fig7::run(&pages, 4, opts.jobs);
    let mut table = Table::new([
        "pages", "sync-1", "sync-2", "sync-3", "sync-4", "lazy-1", "lazy-2", "lazy-3", "lazy-4",
    ]);
    for r in rows {
        let mut cells = vec![r.pages.to_string()];
        cells.extend(r.sync_mbps.iter().map(|v| mbps(*v)));
        cells.extend(r.lazy_mbps.iter().map(|v| mbps(*v)));
        table.row(cells);
    }
    out.table(
        "Figure 7: aggregate migration throughput (MB/s), node #0 -> node #1,\n\
         1-4 threads bound to node #1",
        &table,
    );
}

/// Regenerates Figure 8: execution time of 16 concurrent BLAS3 matrix
/// multiplications in 16 independent threads — static allocation vs
/// kernel and user next-touch.
fn fig8(opts: &Options, out: &mut RunOutput) {
    let sizes = if opts.full {
        fig8::paper_sizes()
    } else {
        vec![128, 256, 512, 1024]
    };
    let mut table = Table::new(["N", "Static", "Next-touch kernel", "Next-touch user"]);
    for row in fig8::run(&sizes, opts.jobs) {
        table.row([
            row.n.to_string(),
            secs(row.static_s),
            secs(row.kernel_nt_s),
            secs(row.user_nt_s),
        ]);
    }
    out.table(
        "Figure 8: execution time of 16 concurrent BLAS3 multiplications\n\
         (NxN doubles per thread, virtual seconds)",
        &table,
    );
}

/// Regenerates Table 1: execution time of the threaded LU factorization
/// with 16 OpenMP threads — static interleaved allocation vs the kernel
/// next-touch policy.
fn table1(opts: &Options, out: &mut RunOutput) {
    let cases = if opts.full {
        table1::paper_cases()
    } else {
        table1::quick_cases()
    };
    let mut table = Table::new([
        "Matrix size",
        "Block size",
        "Static",
        "Next-touch",
        "Improvement",
    ]);
    for row in table1::run(&cases, opts.jobs) {
        table.row([
            format!("{}k x {}k", row.n / 1024, row.n / 1024),
            format!("{} x {}", row.bs, row.bs),
            secs(row.static_s),
            secs(row.next_touch_s),
            percent(row.improvement_percent()),
        ]);
    }
    out.table(
        "Table 1: LU factorization time, 16 OpenMP threads (virtual seconds)",
        &table,
    );
}

/// The §6 outlook experiment: the next-touch improvement as the machine
/// grows from 2 to 8 NUMA nodes ("larger NUMA machines where data
/// locality is more critical ... making the Next-touch policy even more
/// interesting").
fn scaling8(opts: &Options, out: &mut RunOutput) {
    let n = if opts.full { 1024 } else { 512 };
    let mut table = Table::new(["nodes", "threads", "Static", "Next-touch", "Improvement"]);
    for r in scaling::run(n, opts.jobs) {
        table.row([
            r.nodes.to_string(),
            r.threads.to_string(),
            secs(r.static_s),
            secs(r.next_touch_s),
            percent(r.improvement_percent()),
        ]);
    }
    out.table(
        &format!(
            "Next-touch improvement vs machine size ({n}x{n} GEMM per thread, one\n\
             thread per core, data initially on node 0)"
        ),
        &table,
    );
}

/// Regenerates the §4.5 BLAS1 observation: migration never improves
/// vector operations.
fn blas1_check(opts: &Options, out: &mut RunOutput) {
    let sizes = if opts.full {
        blas1::paper_sizes()
    } else {
        vec![1 << 12, 1 << 16]
    };
    let mut table = Table::new([
        "elements",
        "Static",
        "Next-touch",
        "Sync move_pages",
        "NT improvement",
    ]);
    for r in blas1::run(&sizes) {
        table.row([
            r.elements.to_string(),
            secs(r.static_s),
            secs(r.next_touch_s),
            secs(r.sync_s),
            percent(r.nt_improvement_percent()),
        ]);
    }
    out.table(
        "BLAS1 (daxpy) with 16 threads: migration must never improve\n\
         (paper \u{00a7}4.5: \"BLAS1 operations never improve thanks to memory migration\")",
        &table,
    );
}

/// Design-choice ablations (DESIGN.md §6): the move_pages lookup fix in
/// isolation, the page-table-lock serialized fraction, user next-touch
/// region granularity, and the paper's §6 future-work extensions
/// (huge-page migration, read-only replication).
fn ablations(opts: &Options, out: &mut RunOutput) {
    let pages = if opts.full {
        vec![16, 64, 256, 1024, 4096, 16384]
    } else {
        vec![64, 1024, 4096]
    };
    let mut t = Table::new(["pages", "patched MB/s", "quadratic MB/s", "ratio"]);
    for (p, a, b) in ablations::lookup_ablation(&pages, opts.jobs) {
        t.row([p.to_string(), mbps(a), mbps(b), format!("{:.1}x", a / b)]);
    }
    out.table(
        "A1. move_pages destination-lookup fix (patched vs quadratic)",
        &t,
    );

    let fractions = [0.1, 0.3, 0.55, 0.7, 0.9];
    let mut t = Table::new(["fraction", "4-thread speedup"]);
    for (f, s) in ablations::lock_fraction_sweep(&fractions, 8192, opts.jobs) {
        t.row([format!("{f:.2}"), format!("{s:.2}x")]);
    }
    out.table(
        "\nA2. page-table-lock serialized fraction vs 4-thread lazy speedup",
        &t,
    );

    let (whole, per_chunk) = ablations::user_granularity(64);
    let mut t = Table::new(["marking granularity", "misplaced pages"]);
    t.row(["whole buffer".to_string(), whole.to_string()]);
    t.row(["region per chunk".to_string(), per_chunk.to_string()]);
    out.table(
        "\nA3. user next-touch granularity (4 threads on 4 nodes, 64 pages)",
        &t,
    );

    let (base, huge) = ablations::huge_page_migration();
    let mut t = Table::new(["granularity", "time", "throughput MB/s"]);
    t.row([
        "512 x 4 kB pages".to_string(),
        numa_migrate::stats::fmt_ns(base),
        mbps(numa_migrate::stats::mb_per_s(2 << 20, base)),
    ]);
    t.row([
        "1 x 2 MB huge page".to_string(),
        numa_migrate::stats::fmt_ns(huge),
        mbps(numa_migrate::stats::mb_per_s(2 << 20, huge)),
    ]);
    out.table(
        "\nA4. huge-page migration (2 MB payload, lazy next-touch)",
        &t,
    );

    let (plain, replicated) = ablations::replication_benefit(64, 4);
    let mut t = Table::new(["placement", "time"]);
    t.row([
        "single copy on node 0".to_string(),
        numa_migrate::stats::fmt_ns(plain),
    ]);
    t.row([
        "replica per node".to_string(),
        numa_migrate::stats::fmt_ns(replicated),
    ]);
    out.table(
        "\nA5. read-only replication (16 threads reading a shared table)",
        &t,
    );

    let (stat, hooked, auto) = ablations::hooked_vs_auto(4096, 6);
    let mut t = Table::new(["policy", "time"]);
    t.row([
        "static (no migration)".to_string(),
        numa_migrate::stats::fmt_ns(stat),
    ]);
    t.row([
        "explicit hooks (the paper)".to_string(),
        numa_migrate::stats::fmt_ns(hooked),
    ]);
    t.row([
        "automatic sampling (AutoNUMA-style)".to_string(),
        numa_migrate::stats::fmt_ns(auto),
    ]);
    out.table(
        "\nA6. explicit next-touch hooks vs AutoNUMA-style blind scanning",
        &t,
    );
}

/// Regenerates the tiering experiment: transactional (Nomad-style
/// non-exclusive copy) vs stop-the-world page promotion under concurrent
/// writers, and the application-time sweep whose advantage collapses once
/// the hot working set exceeds DRAM capacity.
fn tiering(opts: &Options, out: &mut RunOutput) {
    let (writer_counts, pages, hot): (Vec<usize>, u64, u64) = if opts.full {
        (vec![1, 2, 4, 8, 16], 1024, 256)
    } else {
        (vec![1, 4], 256, 64)
    };
    let mech = tiering_mechanism_table(&writer_counts, pages, hot, opts.seed, opts.jobs);
    out.table(
        &format!(
            "Tiering mechanism: writer completion time (ms) while {pages} slow-tier pages\n\
             are promoted; writers hammer the {hot} hottest (seed {})",
            opts.seed
        ),
        &mech,
    );

    let (hot_counts, dram_per_node, rounds): (Vec<u64>, u64, usize) = if opts.full {
        (vec![512, 1024, 2048, 4096, 8192, 16384], 512, 6)
    } else {
        (vec![1024, 4096, 8192], 512, 4)
    };
    let cap = tiering_capacity_table(&hot_counts, dram_per_node, rounds, opts.jobs);
    out.table(
        &format!(
            "\nTiering capacity sweep: 4 readers over a slow-resident hot set,\n\
             threshold daemon vs static placement, DRAM = {} pages total",
            4 * dram_per_node
        ),
        &cap,
    );
}

/// Build the tiering mechanism-comparison table (transactional vs
/// stop-the-world promotion under concurrent writers).
pub fn tiering_mechanism_table(
    writer_counts: &[usize],
    pages: u64,
    hot: u64,
    seed: u64,
    jobs: usize,
) -> Table {
    let mut table = Table::new([
        "writers", "txn-ms", "stw-ms", "commits", "aborts", "stalls", "txn-prom", "stw-prom",
    ]);
    for r in tiering::mechanism(writer_counts, pages, hot, seed, jobs) {
        table.row([
            r.writers.to_string(),
            format!("{:.3}", r.txn_writer_ns as f64 / 1e6),
            format!("{:.3}", r.stw_writer_ns as f64 / 1e6),
            r.txn_commits.to_string(),
            r.txn_aborts.to_string(),
            r.stw_stalls.to_string(),
            r.txn_promoted.to_string(),
            r.stw_promoted.to_string(),
        ]);
    }
    table
}

/// Build the tiering capacity-sweep table (app time vs hot-set size,
/// with the crossover where the hot set exceeds DRAM).
pub fn tiering_capacity_table(
    hot_page_counts: &[u64],
    dram_pages_per_node: u64,
    rounds: usize,
    jobs: usize,
) -> Table {
    let mut table = Table::new([
        "hot-pages",
        "dram-pages",
        "tiered-ms",
        "static-ms",
        "speedup",
        "promotions",
    ]);
    for r in tiering::capacity_sweep(hot_page_counts, dram_pages_per_node, rounds, jobs) {
        table.row([
            r.hot_pages.to_string(),
            r.dram_pages.to_string(),
            format!("{:.3}", r.tiered_ns as f64 / 1e6),
            format!("{:.3}", r.static_ns as f64 / 1e6),
            format!("{:.2}x", r.speedup()),
            r.promotions.to_string(),
        ]);
    }
    table
}

/// Regenerates the chaos sweep: deterministic fault injection across
/// every migration path (`move_pages`, `migrate_pages`, kernel and
/// user-space next-touch, tier promotion), with bounded retries and
/// graceful degradation. Every case runs twice and is audited — page
/// table consistent, frame accounting balanced, results byte-identical —
/// so a nonzero `violations` column (or a panic) is a real bug.
fn chaos(opts: &Options, out: &mut RunOutput) {
    let rates = chaos::default_rates(opts.full);
    // --full also sweeps the memory-pressure paths (node evacuation,
    // direct reclaim); the default workload list — and so the golden
    // JSON — is unchanged.
    let mut workloads = chaos::WORKLOADS.to_vec();
    if opts.full {
        workloads.extend(chaos::PRESSURE_WORKLOADS);
    }
    let mut table = Table::new([
        "workload",
        "rate-ppm",
        "makespan-ms",
        "injected",
        "retried",
        "degraded",
        "gave-up",
        "moved",
        "left",
        "violations",
    ]);
    for r in chaos::sweep(&workloads, &rates, opts.seed, opts.jobs) {
        table.row([
            r.workload.to_string(),
            r.rate_ppm.to_string(),
            format!("{:.3}", r.makespan_ns as f64 / 1e6),
            r.injected.to_string(),
            r.retried.to_string(),
            r.degraded.to_string(),
            r.gave_up.to_string(),
            r.moved.to_string(),
            r.left_behind.to_string(),
            r.invariant_violations.to_string(),
        ]);
    }
    out.table(
        &format!(
            "Chaos sweep: {} pages per workload; transient-copy (EBUSY), frame-exhausted\n\
             (ENOMEM) and racing-unmap (ENOENT) faults injected at each swept rate\n\
             (seed {}); every case audited and executed twice for determinism",
            chaos::PAGES,
            opts.seed
        ),
        &table,
    );
}

/// Page-table placement comparison (ptplace subsystem): each workload
/// measured with a co-located single-home page table, Mitosis-style
/// per-node replicas, and a deliberately remote single home.
fn ptrepl(opts: &Options, out: &mut RunOutput) {
    let pages = if opts.full {
        ptrepl::default_page_counts()
    } else {
        vec![64, 512, 2048]
    };
    let cases = ptrepl::cases(&pages);
    let rows = ptrepl::run(&cases, opts.jobs);
    let mut table = Table::new([
        "workload",
        "pages",
        "local-ms",
        "repl-ms",
        "remote-ms",
        "remote-x",
        "repl-recovery",
    ]);
    for r in &rows {
        table.row([
            r.workload.to_string(),
            r.pages.to_string(),
            format!("{:.3}", r.local_ns as f64 / 1e6),
            format!("{:.3}", r.repl_ns as f64 / 1e6),
            format!("{:.3}", r.remote_ns as f64 / 1e6),
            format!("{:.2}x", r.remote_slowdown()),
            format!("{:+.0} %", r.repl_recovery() * 100.0),
        ]);
    }
    out.table(
        "Page-table placement: local home vs per-node replicas vs remote home\n\
         (walk = TLB-walk bound, migrate/next_touch = PTE-rewrite bound, lu = Table 1 app)",
        &table,
    );
}

/// Regenerates the memory-pressure sweep: three redistribution
/// strategies (synchronous `move_pages` plus a node hot-remove episode,
/// kernel next-touch, tiered background reclaim) as working-set
/// occupancy crosses 100 % of DRAM. Every run has watermarks, direct
/// reclaim, the OOM killer and the retry-livelock watchdog enabled plus
/// chaos fault injection, so the table shows the defences engaging —
/// reclaim and evacuation below capacity, OOM kills and watchdog
/// firings past it — while every case stays audited, deterministic and
/// panic-free.
fn pressure(opts: &Options, out: &mut RunOutput) {
    let occupancies = pressure::default_occupancies(opts.full);
    let mut table = Table::new([
        "strategy",
        "occupancy",
        "makespan-ms",
        "moved",
        "reclaimed",
        "evacuated",
        "oom-kills",
        "watchdog",
        "degraded",
        "retried",
        "violations",
    ]);
    for r in pressure::sweep(&occupancies, opts.seed, opts.jobs) {
        table.row([
            r.strategy.to_string(),
            format!("{}%", r.occupancy_pct),
            format!("{:.3}", r.makespan_ns as f64 / 1e6),
            r.moved.to_string(),
            r.reclaimed.to_string(),
            r.evacuated.to_string(),
            r.oom_kills.to_string(),
            r.watchdog_firings.to_string(),
            r.degraded.to_string(),
            r.retried.to_string(),
            r.violations.to_string(),
        ]);
    }
    out.table(
        &format!(
            "Pressure sweep: 4 threads on {}-frame nodes, occupancy 60%..105% of DRAM;\n\
             watermarks {}/{} frames, direct reclaim, OOM killer and retry watchdog on,\n\
             {} ppm chaos injection (seed {}); every case audited and executed twice\n\
             for determinism",
            pressure::FRAMES_PER_NODE,
            pressure::LOW_WATERMARK,
            pressure::MIN_WATERMARK,
            pressure::INJECT_PPM,
            opts.seed
        ),
        &table,
    );
}

/// Regenerates the multitenant churn run: 1,000 tenant processes
/// (2,000 with `--full`) doing mmap → populate → next-touch → migrate →
/// `move_pages` → munmap generations on the sharded deterministic
/// engine, coupled through a shared frame-capacity ledger and the
/// machine-wide L3-thrash model, reconciled at virtual-time window
/// boundaries. `--shards`/`--jobs` parallelise the host work; the table
/// and JSON are byte-identical for any combination (the regression
/// suite and the golden checksum both assert this).
fn multitenant(opts: &Options, out: &mut RunOutput) {
    let tenants = if opts.full {
        multitenant::TENANTS_FULL
    } else {
        multitenant::TENANTS
    };
    let outcome = multitenant::run(tenants, opts.seed, opts.shards, opts.jobs);
    out.table(
        &format!(
            "Multitenant churn: {} tenant processes (seed {}) in {} cohorts;\n\
             shared pool {} frames/node, initial slice {} frames/node, refills of {}\n\
             below {} free, surplus above {} recycled; thrash limit {} misses/window.\n\
             Output is identical for any --shards/--jobs.",
            tenants,
            opts.seed,
            multitenant::COHORTS,
            multitenant::POOL_FRAMES_PER_NODE,
            multitenant::INITIAL_FRAMES_PER_NODE,
            multitenant::REFILL_FRAMES,
            multitenant::LOW_FREE_FRAMES,
            multitenant::KEEP_FREE_FRAMES,
            multitenant::THRASH_MISS_LIMIT,
        ),
        &multitenant_table(&outcome),
    );
    out.meta("summary", multitenant_summary(&outcome));
}

/// Build the multitenant cohort table from a finished churn run;
/// contains nothing shard- or job-dependent.
pub fn multitenant_table(outcome: &MultitenantOutcome) -> Table {
    let mut table = Table::new([
        "cohort",
        "tenants",
        "makespan-sum-ms",
        "makespan-max-ms",
        "local",
        "remote",
        "l3-misses",
    ]);
    for r in &outcome.rows {
        table.row([
            r.cohort.to_string(),
            r.tenants.to_string(),
            format!("{:.3}", r.makespan_sum_ns as f64 / 1e6),
            format!("{:.3}", r.makespan_max_ns as f64 / 1e6),
            r.local_accesses.to_string(),
            r.remote_accesses.to_string(),
            r.cache_misses.to_string(),
        ]);
    }
    table
}

/// The multitenant run's global fold as `--json` metadata (window
/// schedule, ledger pressure, kernel counters). Every value is a
/// deterministic function of (tenants, seed); `--shards`/`--jobs` are
/// deliberately absent so the file is byte-identical for any host
/// parallelism.
pub fn multitenant_summary(outcome: &MultitenantOutcome) -> Json {
    Json::obj()
        .set("tenants", outcome.tenants)
        .set("makespan_ns", outcome.makespan_ns)
        .set("window_ns", outcome.window_ns)
        .set("windows", outcome.windows)
        .set("windows_skipped", outcome.windows_skipped)
        .set("ledger_grants", outcome.ledger_grants)
        .set("ledger_denials", outcome.ledger_denials)
        .set("ledger_yields", outcome.ledger_yields)
        .set("flush_windows", outcome.flush_windows)
        .set("moved_syscall", outcome.moved_syscall)
        .set("moved_fault", outcome.moved_fault)
        .set("frames_freed", outcome.frames_freed)
        .set("oom_kills", outcome.oom_kills)
        .set("tlb_shootdowns", outcome.tlb_shootdowns)
}
