//! Regression: the multitenant churn run's table and `--json` payload
//! are byte-identical whether the host executes it serially
//! (`--shards 1 --jobs 1`) or sharded across workers
//! (`--shards 8 --jobs 4`) — the sharded engine's output contract
//! (DESIGN.md §15), at the bench's real tenant count and seed, on the
//! exact strings the `multitenant` binary writes. The committed
//! `results/multitenant.json` golden checksum enforces the same thing
//! across commits; this test enforces it across packings in one build.

use numa_bench::registry::{multitenant_summary, multitenant_table};
use numa_migrate::experiments::multitenant;

#[test]
fn sharded_run_matches_serial_byte_for_byte() {
    let serial = multitenant::run(multitenant::TENANTS, 42, 1, 1);
    let sharded = multitenant::run(multitenant::TENANTS, 42, 8, 4);
    assert_eq!(serial, sharded, "outcome fold diverged across packings");
    assert_eq!(
        multitenant_table(&serial).to_string(),
        multitenant_table(&sharded).to_string(),
        "rendered table diverged across packings"
    );
    assert_eq!(
        multitenant_table(&serial).to_csv(),
        multitenant_table(&sharded).to_csv()
    );
    assert_eq!(
        multitenant_summary(&serial).to_string(),
        multitenant_summary(&sharded).to_string(),
        "JSON summary diverged across packings"
    );
    // The acceptance floor: at least a thousand tenants, all accounted for.
    assert!(serial.tenants >= 1_000);
    assert_eq!(
        serial.rows.iter().map(|r| r.tenants).sum::<u64>(),
        serial.tenants
    );
}
