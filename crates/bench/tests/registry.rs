//! The experiment registry is the one list of experiments: every binary
//! but `hostbench` is a row whose `main` runs that row, and `--list`
//! prints the rows in registry order.

use numa_bench::EXPERIMENTS;
use std::collections::BTreeSet;

const BIN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");

#[test]
fn every_binary_is_a_registry_row() {
    let stems: BTreeSet<String> = std::fs::read_dir(BIN_DIR)
        .expect("src/bin is readable")
        .map(|e| {
            let path = e.expect("directory entry").path();
            path.file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut names: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(
        names.len(),
        EXPERIMENTS.len(),
        "registry names must be unique"
    );
    names.insert("hostbench".to_string());
    assert_eq!(stems, names, "src/bin and the registry disagree");

    for e in EXPERIMENTS {
        let src = std::fs::read_to_string(format!("{BIN_DIR}/{}.rs", e.name)).expect("bin source");
        assert!(
            src.contains(&format!("numa_bench::main(\"{}\")", e.name)),
            "src/bin/{}.rs must run its own registry row",
            e.name
        );
    }
}

#[test]
fn list_prints_the_registry_in_order() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig3"))
        .arg("--list")
        .output()
        .expect("fig3 runs");
    assert!(out.status.success());
    let expected: String = EXPERIMENTS
        .iter()
        .map(|e| format!("{}\n", e.name))
        .collect();
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), expected);
}
