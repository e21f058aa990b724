//! Per-run output collection: printed tables, the machine-readable
//! `--json` results file, and the `--trace` Chrome-trace export.
//!
//! [`crate::main`] opens a [`RunOutput`] for the experiment's row and
//! parsed [`crate::Options`]; the row feeds each finished table through
//! [`RunOutput::table`] (which both prints it and records it), and
//! `main` calls [`RunOutput::finish`] at the end. With neither `--json`
//! nor `--trace` given, `finish` is a no-op beyond the printing already
//! done. Rows print only through [`RunOutput::table`] and the
//! crate-private `RunOutput::note`, so [`RunOutput::stdout`] is the exact
//! stdout of its run.

use crate::{Experiment, Options};
use numa_migrate::stats::{Json, Table};
use std::path::Path;

/// Collects one experiment run's tables and metadata.
pub struct RunOutput {
    exp: &'static Experiment,
    opts: Options,
    tables: Vec<(String, Table)>,
    meta: Vec<(String, Json)>,
    trace_json: Option<String>,
    stdout: String,
}

impl RunOutput {
    /// Start collecting for `exp` under the parsed options.
    pub fn new(exp: &'static Experiment, opts: Options) -> Self {
        RunOutput {
            exp,
            opts,
            tables: Vec::new(),
            meta: Vec::new(),
            trace_json: None,
            stdout: String::new(),
        }
    }

    /// Print `text` verbatim and keep it as part of [`RunOutput::stdout`].
    fn print(&mut self, text: &str) {
        print!("{text}");
        self.stdout.push_str(text);
    }

    /// Print prose that is not a table: to stdout, or to stderr under
    /// `--csv` so that stdout holds only CSV.
    pub(crate) fn note(&mut self, text: &str) {
        if self.opts.csv {
            eprint!("{text}");
        } else {
            self.print(text);
        }
    }

    /// Print `table` under `title` and record it for the `--json` file.
    /// The title is printed verbatim followed by a blank line; embed a
    /// leading `\n` for visual separation between consecutive tables.
    /// Under `--csv` the title goes to stderr and stdout gets one CSV
    /// block per table, blocks separated by one blank line.
    pub fn table(&mut self, title: &str, table: &Table) {
        if self.opts.csv {
            self.note(&format!("{title}\n"));
            let sep = if self.tables.is_empty() { "" } else { "\n" };
            self.print(&format!("{sep}{}", table.to_csv()));
        } else {
            self.print(&format!("{title}\n\n{table}"));
        }
        self.tables.push((title.trim().to_string(), table.clone()));
    }

    /// Attach an extra key/value to the `--json` document root.
    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Override the `--trace` file contents with a trace produced by this
    /// experiment's own run (the default is a representative seeded
    /// next-touch episode, see [`crate::traced_next_touch_episode`]).
    pub fn set_trace_json(&mut self, chrome_trace: String) {
        self.trace_json = Some(chrome_trace);
    }

    /// Everything the run printed so far (exposed for tests).
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    /// Build the `--json` document (exposed for tests).
    pub fn results_json(&self) -> Json {
        let tables: Vec<Json> = self
            .tables
            .iter()
            .map(|(title, t)| {
                let mut obj = Json::obj().set("title", title.as_str());
                if let (Json::Obj(pairs), Json::Obj(shape)) = (&mut obj, t.to_json()) {
                    pairs.extend(shape);
                }
                obj
            })
            .collect();
        let mut root = Json::obj()
            .set("binary", self.exp.name)
            .set("seed", self.opts.seed)
            .set("full", self.opts.full)
            .set("tables", tables);
        if let Json::Obj(pairs) = &mut root {
            pairs.extend(self.meta.iter().cloned());
        }
        root
    }

    /// Write the `--json` and `--trace` files, if requested. Creates
    /// parent directories (e.g. `results/`) as needed.
    pub fn finish(self) {
        if let Some(path) = self.opts.json.clone() {
            write_file(self.exp.name, &path, &self.results_json().to_string());
        }
        if let Some(path) = self.opts.trace.clone() {
            let trace = match self.trace_json {
                Some(t) => t,
                None => crate::traced_next_touch_episode(self.opts.seed).chrome_json,
            };
            write_file(self.exp.name, &path, &trace);
        }
    }
}

fn write_file(binary: &str, path: &str, contents: &str) {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("{binary}: cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("{binary}: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("{binary}: wrote {path}");
}
