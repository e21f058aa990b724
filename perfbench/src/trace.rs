//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Nothing inside the program is instrumented.
//!
//! Spans are kept in memory and written out once, when the run ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Repetition the span belongs to (spans of one repetition share it).
    pub rep: u32,
    /// Crate the called function lives in (`core`, `apps`, `kernel`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Records spans when on; when off, a span is one branch around the call.
/// Shared by reference with worker threads (the churn builder closure).
pub struct Tracer {
    epoch: Instant,
    rep: u32,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            rep: 0,
            spans: None,
        }
    }

    /// A recording tracer for repetition `rep`, timing against `epoch`.
    pub fn on(epoch: Instant, rep: u32) -> Self {
        Tracer {
            epoch,
            rep,
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Call `f`, recording a span around it when on.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &self.spans else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            rep: self.rep,
            layer,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        };
        spans.lock().expect("span list poisoned").push(span);
        out
    }

    fn with_spans<R>(&self, f: impl FnOnce(&[Span]) -> R) -> R {
        match &self.spans {
            Some(s) => f(&s.lock().expect("span list poisoned")),
            None => f(&[]),
        }
    }

    /// Total seconds in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.with_spans(|s| {
            s.iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns)
                .sum::<u64>() as f64
                * 1e-9
        })
    }

    /// Latest end (ns since the epoch) of the spans named `name`.
    pub fn last_end_ns(&self, name: &str) -> u64 {
        self.with_spans(|s| {
            s.iter()
                .filter(|s| s.name == name)
                .map(|s| s.start_ns + s.dur_ns)
                .max()
                .unwrap_or(0)
        })
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .map(|s| s.into_inner().expect("span list poisoned"))
            .unwrap_or_default()
    }
}

/// Write `spans`, each tagged with its workload, as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[(&str, Span)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (workload, s) in spans {
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"rep\": {}, \"layer\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"dur_ns\": {}}}",
            s.rep, s.layer, s.name, s.start_ns, s.dur_ns
        )?;
    }
    out.flush()
}
