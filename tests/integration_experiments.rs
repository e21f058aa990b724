//! Shape assertions for every paper artifact, at reduced scale — the
//! executable form of EXPERIMENTS.md. Each test states the paper claim it
//! checks.

use numa_migrate::experiments::{ablations, blas1, fig4, fig5, fig6, fig7, fig8, table1};
use numa_migrate::stats::CostComponent;

/// Fig. 4: "our improvement of the move_pages system call behaves as
/// expected. When thousands of pages are manipulated at once, the
/// throughput remains near 600 MB/s while the original implementation
/// drops dramatically"; migrate_pages reaches ~780 MB/s; memcpy is far
/// above all of them.
#[test]
fn figure4_claims() {
    let rows = fig4::run(&[512, 8192], 1);
    let large = &rows[1];
    assert!((500.0..700.0).contains(&large.move_pages_mbps));
    assert!((650.0..860.0).contains(&large.migrate_pages_mbps));
    assert!(large.memcpy_mbps >= 1700.0);
    assert!(large.move_pages_nopatch_mbps < large.move_pages_mbps / 3.0);
    // Buffer-size independence of the patched path.
    let flat = large.move_pages_mbps / rows[0].move_pages_mbps;
    assert!((0.9..1.3).contains(&flat), "flatness {flat}");
}

/// Fig. 5: "our kernel-based Next-touch implementation achieves 800 MB/s
/// even for very small buffers" while the user-space strategy "basically
/// maps the move_pages performance".
#[test]
fn figure5_claims() {
    let rows = fig5::run(&[16, 1024], 1);
    let small = &rows[0];
    let large = &rows[1];
    assert!(
        small.kernel_mbps > 500.0,
        "kernel NT small {}",
        small.kernel_mbps
    );
    assert!(small.user_mbps < small.kernel_mbps / 2.0);
    let track = (large.user_mbps / 577.0 - 1.0).abs();
    assert!(
        track < 0.15,
        "user NT must track move_pages: {}",
        large.user_mbps
    );
}

/// Fig. 6: copy dominates both breakdowns; kernel control ≈ 20 %, user
/// control ≈ 38 %.
#[test]
fn figure6_claims() {
    let user = &fig6::run_user(&[1024])[0];
    let kernel = &fig6::run_kernel(&[1024])[0];
    let user_ctl = user.percent(CostComponent::MovePagesControl)
        + user.percent(CostComponent::LockWait)
        + user.percent(CostComponent::TlbFlush);
    let kernel_ctl =
        kernel.percent(CostComponent::FaultControl) + kernel.percent(CostComponent::LockWait);
    assert!((28.0..48.0).contains(&user_ctl), "user control {user_ctl}");
    assert!(
        (12.0..28.0).contains(&kernel_ctl),
        "kernel control {kernel_ctl}"
    );
    assert!(kernel.percent(CostComponent::FaultCopy) > 65.0);
}

/// Fig. 7: "parallelizing the migration (either lazy or synchronous) does
/// not bring any improvement for buffers smaller than 1 MB"; large
/// buffers gain ~50-60 % with 4 threads; lazy reaches ~1.3 GB/s and
/// "remains much lower than a regular memory copy".
#[test]
fn figure7_claims() {
    let rows = fig7::run(&[64, 16384], 4, 1);
    let small = &rows[0];
    let large = &rows[1];
    assert!(
        small.sync_mbps[3] < small.sync_mbps[0] * 1.25,
        "small sync must not scale: {:?}",
        small.sync_mbps
    );
    let sync_gain = large.sync_mbps[3] / large.sync_mbps[0];
    let lazy_gain = large.lazy_mbps[3] / large.lazy_mbps[0];
    assert!((1.3..2.1).contains(&sync_gain), "sync gain {sync_gain}");
    assert!(lazy_gain >= 1.4, "lazy gain {lazy_gain}");
    assert!((1000.0..1600.0).contains(&large.lazy_mbps[3]));
    assert!(large.lazy_mbps[3] < 1800.0, "stays under memcpy bandwidth");
}

/// Table 1: negative improvement for sub-page-sharing blocks, positive
/// for 512-wide blocks on large matrices.
#[test]
fn table1_claims() {
    let small = table1::run_case(2048, 64);
    assert!(
        small.improvement_percent() < 0.0,
        "2k/64 must lose: {:+.1}%",
        small.improvement_percent()
    );
    let large = table1::run_case(4096, 512);
    assert!(
        large.improvement_percent() > 5.0,
        "4k/512 must win: {:+.1}%",
        large.improvement_percent()
    );
}

/// Fig. 8: "512 is the block size where data locality becomes critical
/// since memory migration (even with the user-space implementation)
/// becomes interesting".
#[test]
fn figure8_claims() {
    let small = fig8::run_case(256);
    let big = fig8::run_case(512);
    assert!(small.static_s <= small.kernel_nt_s * 1.02);
    assert!(big.kernel_nt_s < big.static_s);
    assert!(big.user_nt_s < big.static_s, "even user NT wins at 512");
    assert!(big.kernel_nt_s <= big.user_nt_s * 1.02);
}

/// §4.5: "the performance of BLAS1 operations never improves thanks to
/// memory migration".
#[test]
fn blas1_claims() {
    for row in blas1::run(&[1 << 13, 1 << 16]) {
        assert!(
            row.nt_improvement_percent() <= 0.5,
            "{} elements: {:+.1}%",
            row.elements,
            row.nt_improvement_percent()
        );
    }
}

/// The §6 extensions pay off in their target scenarios.
#[test]
fn extension_claims() {
    let (base, huge) = ablations::huge_page_migration();
    assert!(
        huge < base,
        "huge pages reduce fault count: {huge} vs {base}"
    );
    let (plain, replicated) = ablations::replication_benefit(64, 4);
    assert!(replicated < plain, "replication localizes reads");
}
