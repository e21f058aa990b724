//! Golden check over the registry's pins: every [`Pin`] of every
//! [`EXPERIMENTS`] row is regenerated in-process and must reproduce its
//! committed file under `results/` byte for byte. Output does not depend
//! on host threads, so the pins are spread over `threadpool::par_map`.
//! The non-heavy pins fall into [`Group`]s, one test each: the quick
//! `--json` documents, `chaos --full`, `multitenant --full`, and every
//! other pin. Heavy pins run only under `--ignored`, which the scheduled
//! `goldens-heavy` workflow does in release. The completeness test keeps
//! `results/`, the pins and `ci/golden_checksums.sha256` in step, so
//! adding a pinned output is one row edit in the registry.

use numa_bench::{Experiment, Options, Pin, RunOutput, EXPERIMENTS};
use std::collections::BTreeSet;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn pins() -> impl Iterator<Item = (&'static Experiment, &'static Pin)> {
    EXPERIMENTS
        .iter()
        .flat_map(|e| e.pinned.iter().map(move |p| (e, p)))
}

/// What `pin` holds, built in-process: the `--json` document for a
/// `.json` file, the stdout text otherwise. Nothing is written.
fn regenerate(exp: &'static Experiment, pin: &Pin) -> String {
    let json = pin.file.ends_with(".json");
    let mut args: Vec<String> = pin.args.iter().map(|a| a.to_string()).collect();
    if json {
        // `--json` matters: a row may add a traced episode only when a
        // JSON or trace file is requested.
        args.extend(["--json".to_string(), format!("results/{}", pin.file)]);
    }
    let opts = Options::try_parse_from(args).expect("valid flags");
    let mut out = RunOutput::new(exp, opts.clone());
    (exp.run)(&opts, &mut out);
    if json {
        out.results_json().to_string()
    } else {
        out.stdout().to_string()
    }
}

/// Which golden test regenerates a pin. Every pin is in exactly one
/// group, so the tests together cover the whole registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Group {
    /// The `--json` document of a run without flags.
    QuickJson,
    ChaosFull,
    MultitenantFull,
    /// Any other non-heavy pin, such as the `--full` texts.
    Other,
    Heavy,
}

fn group(pin: &Pin) -> Group {
    match pin.file {
        _ if pin.heavy => Group::Heavy,
        "chaos_full.json" => Group::ChaosFull,
        "multitenant_full.json" => Group::MultitenantFull,
        file if file.ends_with(".json") && pin.args.is_empty() => Group::QuickJson,
        _ => Group::Other,
    }
}

/// Regenerate every pin in `which` and assert that each matches its
/// committed file.
fn check_pins(which: Group) {
    let pins: Vec<_> = pins().filter(|(_, p)| group(p) == which).collect();
    assert!(!pins.is_empty(), "no pins in {which:?}");
    let jobs = threadpool::available_parallelism();
    let same = threadpool::par_map(jobs, &pins, |_, &(exp, pin)| {
        let path = format!("{ROOT}/results/{}", pin.file);
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        regenerate(exp, pin) == committed
    });
    let moved: Vec<String> = pins
        .iter()
        .zip(same)
        .filter(|(_, same)| !same)
        .map(|((exp, pin), _)| {
            format!(
                "{} {} -> results/{}",
                exp.name,
                pin.args.join(" "),
                pin.file
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "virtual-time results moved; these runs no longer match their committed files: {moved:#?}"
    );
}

#[test]
fn quick_json_matches_committed_results() {
    check_pins(Group::QuickJson);
}

#[test]
fn chaos_full_json_matches_committed_results() {
    check_pins(Group::ChaosFull);
}

#[test]
fn multitenant_full_json_matches_committed_results() {
    // The one cheap run whose L3-thrash flush fires (`flush_windows` 2),
    // and a long run of the engine's horizon-gated windows.
    check_pins(Group::MultitenantFull);
}

#[test]
fn pinned_outputs_match_committed_results() {
    check_pins(Group::Other);
}

#[test]
#[ignore = "paper-size run, minutes even in release; the scheduled goldens-heavy workflow runs it"]
fn heavy_pinned_outputs_match_committed_results() {
    check_pins(Group::Heavy);
}

#[test]
fn every_result_is_pinned_once() {
    let mut pinned = BTreeSet::new();
    for (exp, pin) in pins() {
        assert!(
            pinned.insert(pin.file),
            "results/{} is pinned twice (again by {})",
            pin.file,
            exp.name
        );
        assert!(
            std::path::Path::new(&format!("{ROOT}/results/{}", pin.file)).is_file(),
            "{} pins results/{}, which does not exist",
            exp.name,
            pin.file
        );
    }

    for entry in std::fs::read_dir(format!("{ROOT}/results")).expect("results/ is readable") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            name == "README.md" || pinned.contains(name.as_ref()),
            "results/{name} is pinned by no registry row"
        );
    }

    let sums = std::fs::read_to_string(format!("{ROOT}/ci/golden_checksums.sha256"))
        .expect("ci/golden_checksums.sha256 is readable");
    for line in sums.lines() {
        let file = line
            .split_whitespace()
            .nth(1)
            .and_then(|path| path.strip_prefix("results/"))
            .unwrap_or_else(|| panic!("not a `<sha256>  results/<file>` line: {line}"));
        assert!(
            pinned.contains(file),
            "ci/golden_checksums.sha256 names results/{file}, which no registry row pins"
        );
    }
}
