//! A guided tour of the migration primitives and their costs — the
//! paper's §4.2–§4.4 microbenchmarks in one program: synchronous
//! `move_pages` (patched vs quadratic), `migrate_pages`, both next-touch
//! implementations, and multi-threaded lazy migration.
//!
//! Run with:
//! `cargo run --release -p numa-migrate --example migration_microbench`

use numa_migrate::experiments::{fig4, fig5, fig7};

fn main() {
    let pages = 2048u64; // 8 MB
    println!("== synchronous migration of {pages} pages (8 MB), node #0 -> #1 ==\n");
    let rows = fig4::run(&[pages], 1);
    let r = &rows[0];
    println!("user-space memcpy            {:>8.1} MB/s", r.memcpy_mbps);
    println!(
        "migrate_pages (whole space)  {:>8.1} MB/s",
        r.migrate_pages_mbps
    );
    println!(
        "move_pages (patched)         {:>8.1} MB/s",
        r.move_pages_mbps
    );
    println!(
        "move_pages (quadratic)       {:>8.1} MB/s",
        r.move_pages_nopatch_mbps
    );
    println!(
        "\nthe paper's diagnosis (§3.1): the un-patched kernel scanned the whole\n\
         destination-node array once per page — O(n^2) — which this library\n\
         implements both ways (KernelConfig::patched_move_pages).\n"
    );

    println!("== next-touch migration of the same buffer ==\n");
    let rows = fig5::run(&[pages], 1);
    let r = &rows[0];
    println!(
        "user-space (mprotect+SIGSEGV+move_pages)  {:>8.1} MB/s",
        r.user_mbps
    );
    println!(
        "kernel (madvise + fault-path migration)   {:>8.1} MB/s",
        r.kernel_mbps
    );
    println!(
        "\nthe kernel path wins ~30 % (paper §4.3): no signal round-trip, no\n\
         second syscall pair, and only a local TLB invalidation per fault.\n"
    );

    println!("== lazy migration with 1-4 threads on the destination node ==\n");
    let rows = fig7::run(&[16384], 4, 1);
    let r = &rows[0];
    for t in 0..4 {
        println!(
            "{} thread(s): sync {:>7.1} MB/s   lazy {:>7.1} MB/s",
            t + 1,
            r.sync_mbps[t],
            r.lazy_mbps[t]
        );
    }
    println!(
        "\nlazy migration tops out near 1.3 GB/s (paper Fig. 7) — every page\n\
         still takes a fault and the page-table lock, which is also why\n\
         parallel migration cannot approach raw memcpy bandwidth."
    );
}
