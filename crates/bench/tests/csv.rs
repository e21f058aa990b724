//! `--csv` output is CSV: stdout holds one CSV block per table, blocks
//! separated by one blank line, with every title and prose line sent to
//! stderr. Each block must parse back to the table the `--json` document
//! records.

use numa_bench::{Options, RunOutput, EXPERIMENTS};
use numa_migrate::stats::Json;

/// Split one CSV line into cells, honouring `"`-quoted cells with `""`
/// escapes (the quoting `Table::to_csv` emits).
fn parse_line(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                cells.last_mut().expect("one cell").push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => cells.push(String::new()),
            (c, _) => cells.last_mut().expect("one cell").push(c),
        }
    }
    assert!(!quoted, "unterminated quote in {line:?}");
    cells
}

fn strings(v: &Json) -> Vec<String> {
    v.as_arr()
        .expect("array")
        .iter()
        .map(|c| c.as_str().expect("string cell").to_string())
        .collect()
}

/// Run `name` in-process under `--csv` and check its stdout against the
/// tables it recorded.
fn check_csv(name: &str) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .expect("registry row");
    let opts = Options::try_parse_from(["--csv".to_string()]).expect("valid flags");
    let mut out = RunOutput::new(exp, opts.clone());
    (exp.run)(&opts, &mut out);
    let doc = out.results_json();
    let tables = doc
        .get("tables")
        .and_then(Json::as_arr)
        .expect("tables array");

    let stdout = out.stdout();
    assert!(stdout.ends_with('\n') && !stdout.ends_with("\n\n"));
    let blocks: Vec<&str> = stdout.trim_end_matches('\n').split("\n\n").collect();
    assert_eq!(blocks.len(), tables.len(), "{name}: one block per table");
    assert!(tables.len() > 1, "{name}: the check wants several tables");
    for (block, table) in blocks.iter().zip(tables) {
        let mut lines = block.lines().map(parse_line);
        let header = lines.next().expect("header row");
        assert_eq!(header, strings(table.get("headers").expect("headers")));
        let rows: Vec<Vec<String>> = lines.collect();
        for r in &rows {
            assert_eq!(r.len(), header.len(), "{name}: ragged row {r:?}");
        }
        let want: Vec<Vec<String>> = table
            .get("rows")
            .and_then(Json::as_arr)
            .expect("rows")
            .iter()
            .map(strings)
            .collect();
        assert_eq!(rows, want, "{name}: CSV rows differ from the table");
    }
}

#[test]
fn fig3_csv_is_only_csv() {
    check_csv("fig3");
}

#[test]
fn multi_table_csv_is_only_csv() {
    check_csv("fig6");
}
