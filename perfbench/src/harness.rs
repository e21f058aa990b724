//! Timing, output checking and reporting shared by the workloads.

use crate::trace::Tracer;
use numa_migrate::sim::hash::FxHasher;
use numa_migrate::stats::{Counter, Counters};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which the Linux
/// ABI fixes at 100 per second whatever the kernel's internal HZ.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread), in
/// clock ticks.
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being
    // fields 14 and 15 of the line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> u64 { fields[i - 3].parse().expect("numeric tick field") };
    field(14) + field(15)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Wall-clock and process CPU time accumulated over the timed sections
/// of one repetition. Output checks run between sections, untimed.
#[derive(Debug, Default, Clone)]
pub struct Clock {
    wall: Duration,
    ticks: u64,
}

impl Clock {
    /// Run `f` as a timed section.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let ticks = cpu_ticks();
        let t0 = Instant::now();
        let out = f();
        self.wall += t0.elapsed();
        self.ticks += cpu_ticks() - ticks;
        out
    }

    /// Host seconds in timed sections.
    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Process CPU seconds in timed sections.
    pub fn cpu_s(&self) -> f64 {
        self.ticks as f64 / TICKS_PER_SECOND
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// What one repetition of a workload produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Digest of the repetition's output; equal across repetitions of
    /// one workload and seed.
    pub digest: u64,
    /// Simulated page operations performed (see [`sim_pages`]).
    pub sim_pages: u64,
    /// Invariant violations the workload found while running.
    pub failures: Vec<String>,
    /// Per-layer metrics, filled only when the tracer is on.
    pub layers: Vec<Metric>,
}

/// A benchmark workload: fixed inputs, run once per repetition.
pub trait Workload {
    /// Run one repetition: the work is timed on `clock`, its calls into
    /// the layers are recorded on `tracer`, and its output is checked.
    fn rep(&mut self, clock: &mut Clock, tracer: &Tracer) -> Rep;
}

/// FxHash of a value's `Debug` rendering — the checksum `hostbench`
/// uses for its result rows.
pub fn digest_debug(value: &impl std::fmt::Debug) -> u64 {
    let mut h = FxHasher::default();
    h.write(format!("{value:?}").as_bytes());
    h.finish()
}

/// Simulated page operations recorded in `c`: page touches, faults, and
/// pages relocated or freed. Engine and kernel counters use disjoint
/// counter kinds, so one function covers both.
pub fn sim_pages(c: &Counters) -> u64 {
    [
        Counter::LocalAccesses,
        Counter::RemoteAccesses,
        Counter::FirstTouchFaults,
        Counter::NextTouchFaults,
        Counter::PagesMovedSyscall,
        Counter::PagesMovedFault,
        Counter::PagesMovedProcess,
        Counter::PagesEvacuated,
        Counter::PagesReclaimed,
        Counter::TierPromotions,
        Counter::TierDemotions,
        Counter::FramesFreed,
    ]
    .iter()
    .map(|&k| c.get(k))
    .sum()
}

/// A checked, timed repetition.
#[derive(Debug)]
pub struct Checked {
    /// The repetition's result.
    pub rep: Rep,
    /// Its timed sections.
    pub clock: Clock,
    /// Whether its output check passed.
    pub ok: bool,
}

/// Runs a workload's repetitions and checks each one: the output digest
/// must equal the expected one (pinned to the first passing repetition's
/// unless given) and the workload must report no invariant violation. A
/// panicking repetition is a failed one; it never ends the run.
pub struct Runner {
    workload: Box<dyn Workload>,
    expected: Option<u64>,
    /// Repetitions run.
    pub attempted: u64,
    /// Repetitions whose check failed.
    pub failed: u64,
}

impl Runner {
    /// A runner for `workload`; `expected` pins the output digest.
    pub fn new(workload: Box<dyn Workload>, expected: Option<u64>) -> Self {
        Runner {
            workload,
            expected,
            attempted: 0,
            failed: 0,
        }
    }

    /// Run and check one repetition.
    pub fn rep(&mut self, tracer: &Tracer) -> Checked {
        let mut clock = Clock::default();
        let workload = &mut self.workload;
        let rep = catch_unwind(AssertUnwindSafe(|| workload.rep(&mut clock, tracer)))
            .unwrap_or_else(|panic| Rep {
                failures: vec![format!("repetition panicked: {}", panic_message(&panic))],
                ..Rep::default()
            });
        let mut failures = rep.failures.clone();
        match self.expected {
            Some(expected) if rep.digest != expected => failures.push(format!(
                "output digest {:016x} != expected {expected:016x}",
                rep.digest
            )),
            None if failures.is_empty() => self.expected = Some(rep.digest),
            _ => {}
        }
        self.attempted += 1;
        for f in &failures {
            eprintln!("perfbench: check failed: {f}");
        }
        let ok = failures.is_empty();
        if !ok {
            self.failed += 1;
        }
        Checked { rep, clock, ok }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values` without the lowest and highest tenth of them. Uses
/// every sample of a run's host phases, as a mean does, while a few
/// stalled repetitions cannot move it, as with a median.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a degenerate ratio reads as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), 5.5);
    }

    #[test]
    fn proc_readers_work() {
        let t0 = cpu_ticks();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_ticks() >= t0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(3, 0, &[Metric::new("wall_s", "s", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
