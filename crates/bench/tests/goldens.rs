//! Tier-1 golden check: every registry row except `table1` runs
//! in-process with `--json` and must reproduce its committed
//! `results/<name>.json` byte for byte, as must `chaos --full` and
//! `multitenant --full` against `results/<name>_full.json`. Quick
//! `table1` takes about 18 s under the debug profile, so only CI's
//! `sha256sum -c` step pins it.

use numa_bench::{Options, RunOutput, EXPERIMENTS};

/// The `--json` document `name` writes for `args`, built in-process.
fn results_json(name: &str, args: &[&str]) -> String {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .expect("registry row");
    let opts = Options::try_parse_from(args.iter().map(|s| s.to_string())).expect("valid flags");
    let mut out = RunOutput::new(exp, opts.clone());
    (exp.run)(&opts, &mut out);
    out.results_json().to_string()
}

fn committed(file: &str) -> String {
    let path = format!("{}/../../results/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn quick_json_matches_committed_results() {
    // `--json` matters: fig5 adds its traced episode only when a JSON or
    // trace file is requested. Nothing is written to the path.
    let moved: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .filter(|&name| name != "table1")
        .filter(|&name| {
            results_json(name, &["--json", "unused.json"]) != committed(&format!("{name}.json"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "virtual-time results moved: {moved:?} no longer match results/<name>.json"
    );
}

#[test]
fn chaos_full_json_matches_committed_results() {
    assert!(
        results_json("chaos", &["--full", "--json", "unused.json"]) == committed("chaos_full.json"),
        "virtual-time results moved: chaos --full no longer matches results/chaos_full.json"
    );
}

#[test]
fn multitenant_full_json_matches_committed_results() {
    // The one cheap run whose L3-thrash flush fires (`flush_windows` 2),
    // and a long run of the engine's horizon-gated windows.
    assert!(
        results_json("multitenant", &["--full", "--json", "unused.json"])
            == committed("multitenant_full.json"),
        "virtual-time results moved: multitenant --full no longer matches \
         results/multitenant_full.json"
    );
}
