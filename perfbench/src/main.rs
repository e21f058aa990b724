//! `perfbench --workload <lu|migrate|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): set up, run one warm-up repetition, then timed
//! repetitions for `--seconds`, with the set-up of a few fresh child
//! processes timed in between, and print the five end-to-end metrics.
//! Traced (`--trace 1`): for every workload, whichever `--workload` names,
//! alternate untraced and traced repetitions and print every per-layer
//! metric plus the tracing overhead; spans go to `out/` beside this
//! package. Every repetition's output is checked. The last stdout line is
//! the JSON result.

use perfbench::harness::{median, peak_rss_mb, result_json, trimmed_mean, Metric, Runner};
use perfbench::trace::{write_spans, Span, Tracer};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

/// Fresh child processes whose set-up is timed in each untraced run,
/// besides this process's own: every sample keeps the one-time start-up
/// cost, and spreading them over the run lets them see the same host
/// phases as the timed repetitions.
const CHILD_SETUPS: u32 = 4;
/// A run that has not finished by then is hung; it ends with an error.
const DEADLINE: Duration = Duration::from_secs(170);

const USAGE: &str =
    "usage: perfbench --workload <lu|migrate|churn> --seed <u64> --seconds <1-60> --trace <0|1>
  --trace 1 runs every workload in turn; --workload must then still name one, but does not choose";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: only set up, and print the set-up time and whether the
    /// warm-up passed its check.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 60)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !perfbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn runner(name: &str, seed: u64) -> Runner {
    let (w, expected) = perfbench::workload(name, seed).expect("validated workload name");
    Runner::new(w, expected)
}

/// The set-up time of a fresh child process, and whether its warm-up
/// passed its check.
fn child_setup(args: &Args) -> Result<(f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &seed,
            "--setup-only",
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let mut fields = line.split_whitespace();
    match (
        out.status.success(),
        fields.next().and_then(|v| v.parse::<f64>().ok()),
        fields.next(),
    ) {
        (true, Some(secs), Some(ok)) => Ok((secs, ok == "true")),
        _ => Err(format!("set-up child failed ({}): {line}", out.status)),
    }
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn untraced(args: &Args, entry: Instant) -> (u64, u64, Vec<Metric>) {
    let mut r = runner(&args.workload, args.seed);
    let off = Tracer::off();
    let warm = r.rep(&off);
    let own_setup = entry.elapsed().as_secs_f64();
    if args.setup_only {
        println!("{own_setup:?} {}", warm.ok);
        exit(0);
    }
    let peak_mb = peak_rss_mb();

    // Child set-ups are due at the middle of each of CHILD_SETUPS equal
    // slices of the run; any the loop did not reach run after it.
    let run = Duration::from_secs(args.seconds);
    let due = |i: u32| run.mul_f64((f64::from(i) + 0.5) / f64::from(CHILD_SETUPS));
    let mut setups = vec![own_setup];
    let (mut attempted, mut failed) = (0, 0);
    let mut child = || {
        attempted += 1;
        match child_setup(args) {
            Ok((secs, ok)) => {
                setups.push(secs);
                failed += u64::from(!ok);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                failed += 1;
            }
        }
    };
    let (mut walls, mut rates, mut cpu) = (Vec::new(), Vec::new(), 0.0);
    let mut children = 0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < run {
        if children < CHILD_SETUPS && start.elapsed() >= due(children) {
            child();
            children += 1;
            continue;
        }
        let c = r.rep(&off);
        let wall = c.clock.wall_s();
        walls.push(wall);
        rates.push(c.rep.sim_pages as f64 / wall);
        cpu += c.clock.cpu_s();
    }
    for _ in children..CHILD_SETUPS {
        child();
    }

    let reps = walls.len();
    eprintln!(
        "perfbench: {}: {reps} timed reps, wall {:.4}..{:.4} s, set-ups {setups:.4?} s \
         (this process first), peak after all reps {:.1} MiB",
        args.workload,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        peak_rss_mb(),
    );
    let metrics = vec![
        Metric::new("wall_s", "s", trimmed_mean(&walls)),
        Metric::new("cpu_s", "s", cpu / reps as f64),
        Metric::new("sim_pages_per_s", "1/s", trimmed_mean(&rates)),
        Metric::new("setup_s", "s", median(&setups)),
        Metric::new("peak_rss_mb", "MiB", peak_mb),
    ];
    (r.attempted + attempted, r.failed + failed, metrics)
}

/// `--trace 1`: every workload's per-layer metrics and tracing overhead.
/// All three workloads run so that every run reports every per-layer
/// metric; each gets a third of `--seconds`.
fn traced(args: &Args, entry: Instant) -> (u64, u64, Vec<Metric>) {
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    let mut spans: Vec<(&str, Span)> = Vec::new();
    let budget = Duration::from_secs(args.seconds).div_f64(perfbench::WORKLOADS.len() as f64);
    for name in perfbench::WORKLOADS {
        let mut r = runner(name, args.seed);
        let off = Tracer::off();
        r.rep(&off);
        // Traced over untraced wall time of back-to-back repetitions: a
        // pair shares the host's phase, which a ratio of medians would not.
        let mut ratios = Vec::new();
        let mut samples: Vec<Vec<Metric>> = Vec::new();
        let start = Instant::now();
        let mut pair = 0u32;
        while pair == 0 || start.elapsed() < budget {
            // Alternate which side of the pair runs first.
            let traced_first = pair % 2 == 1;
            let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
            for traced_turn in [traced_first, !traced_first] {
                if traced_turn {
                    let tracer = Tracer::on(entry, pair);
                    let c = r.rep(&tracer);
                    traced_wall = c.clock.wall_s();
                    samples.push(c.rep.layers);
                    spans.extend(tracer.into_spans().into_iter().map(|s| (name, s)));
                } else {
                    untraced_wall = r.rep(&off).clock.wall_s();
                }
            }
            ratios.push(traced_wall / untraced_wall);
            pair += 1;
        }
        // A repetition that panicked has no layers: take names from the
        // fullest sample and values from every sample that has them.
        let names = samples
            .iter()
            .max_by_key(|s| s.len())
            .expect("one traced rep");
        for m in names {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            metrics.push(Metric::new(
                format!("{name}.{}", m.name),
                m.unit,
                median(&values),
            ));
        }
        eprintln!("perfbench: {name}: traced/untraced wall of each pair {ratios:.3?}");
        metrics.push(Metric::new(
            format!("{name}.bench.trace_overhead"),
            "ratio",
            median(&ratios) - 1.0,
        ));
        metrics.push(Metric::new(
            format!("{name}.bench.trace_pairs"),
            "count",
            f64::from(pair),
        ));
        attempted += r.attempted;
        failed += r.failed;
    }
    let path = std::path::PathBuf::from(format!(
        "{}/out/spans-seed{}.jsonl",
        env!("CARGO_MANIFEST_DIR"),
        args.seed
    ));
    match write_spans(&path, &spans) {
        Ok(()) => eprintln!("perfbench: {} spans in {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    (attempted, failed, metrics)
}

fn main() {
    let entry = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("perfbench: no result after {DEADLINE:?}; giving up");
        exit(3);
    });
    let (attempted, failed, metrics) = if args.trace {
        traced(&args, entry)
    } else {
        untraced(&args, entry)
    };
    println!("{}", result_json(attempted, failed, &metrics));
}
