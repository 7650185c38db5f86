//! Fixed-work, single-caller benchmark of offline CLUDE, the sharded serving
//! engine and the durable engine.
//!
//! ```text
//! clude-perfbench --workload ludem-offline|serve-sharded|churn-durable \
//!     --seed N --seconds S --trace 0|1 [--source-id ID]
//! clude-perfbench --reference
//! ```
//!
//! A run repeats whole rounds of one workload's fixed work until `--seconds`
//! have passed (at least one round; with `--trace 1` at least one untraced
//! and one traced round, alternating).  Every call into the program is made
//! from this thread and returns before the next starts.  The run prints one
//! line per round, every metric by name with its unit, and as its last line
//! a JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! See `README.md` beside this crate for the workloads and metrics.

// A benchmark's output is its purpose.
#![allow(clippy::print_stdout)]

mod check;
mod clock;
mod inputs;
mod ludem;
mod reference;
mod report;
mod sample;
mod serving;

use inputs::Scale;
use report::{Round, Tally};
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["ludem-offline", "serve-sharded", "churn-durable"];

/// Directory (relative to the working directory) that holds the durable
/// workload's per-round spools while it runs.
const SPOOL_ROOT: &str = ".perfbench_spool";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    source_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        source_id: String::from("unknown"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--source-id" => args.source_id = value,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    args.seed = seed.ok_or("--seed needs a non-negative integer")?;
    args.seconds = seconds.ok_or("--seconds needs a non-negative integer")?;
    args.trace = trace.ok_or("--trace needs 0 or 1")?;
    Ok(args)
}

/// One workload's fixed inputs, able to run a round of its work.
enum Workload {
    Ludem(ludem::Ludem),
    Serving(Box<serving::Serving>),
}

impl Workload {
    fn new(name: &str, scale: Scale, seed: u64) -> Self {
        match name {
            "ludem-offline" => Workload::Ludem(ludem::Ludem::new(scale, seed)),
            "serve-sharded" => Workload::Serving(Box::new(serving::Serving::sharded(scale, seed))),
            _ => Workload::Serving(Box::new(serving::Serving::durable(
                scale,
                seed,
                Path::new(SPOOL_ROOT),
            ))),
        }
    }

    fn describe(&self) -> String {
        match self {
            Workload::Ludem(w) => w.describe(),
            Workload::Serving(w) => w.describe(),
        }
    }

    /// Whether the workload's path records telemetry; the offline CLUDE
    /// path has none.
    fn has_telemetry(&self) -> bool {
        matches!(self, Workload::Serving(_))
    }

    fn round(&self, traced: bool, tally: &mut Tally) -> Round {
        match self {
            Workload::Ludem(w) => w.round(traced, tally),
            Workload::Serving(w) => w.round(traced, tally),
        }
    }
}

/// Runs whole rounds until `seconds` have passed; a traced run alternates
/// untraced and traced rounds and runs at least one of each.
fn run(workload: &Workload, seconds: u64, trace: bool, tally: &mut Tally) -> Vec<Round> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let index = rounds.len();
        let traced = trace && index % 2 == 1;
        let round = workload.round(traced, tally);
        println!(
            "round {index} ({}): setup {:.4} s (median of {}), {} edge changes in {:.4} s, {} queries in {:.4} s (wall p50 {:.1} us, p99 {:.1} us; cpu p50 {:.1} us, p99 {:.1} us); {}",
            if traced { "traced" } else { "untraced" },
            round.setup_s.median(),
            round.setup_s.len(),
            round.ops,
            round.update_s,
            round.query_us.len(),
            round.query_busy_s,
            round.query_us.quantile(0.5),
            round.query_us.quantile(0.99),
            round.query_cpu_us.quantile(0.5),
            round.query_cpu_us.quantile(0.99),
            round.notes.join("; ")
        );
        rounds.push(round);
        let enough = !trace || rounds.len() >= 2;
        if enough && start.elapsed() >= budget {
            return rounds;
        }
    }
}

/// Runs one workload and returns its result line.
pub fn bench(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> (Tally, Vec<report::Metric>) {
    let w = Workload::new(workload, scale, seed);
    println!("input: {}", w.describe());
    let mut tally = Tally::default();
    let rounds = run(&w, seconds, trace, &mut tally);
    let metrics = if trace {
        report::per_layer(&rounds, w.has_telemetry())
    } else {
        report::end_to_end(&rounds, report::peak_rss_mb())
    };
    let _ = std::fs::remove_dir(SPOOL_ROOT);
    (tally, metrics)
}

fn main() {
    // `--reference`: the BF/INC/CINC/CLUDE table of README.md.
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        reference::print_table();
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "clude-perfbench: workload {}, seed {}, {} s, trace {}, nproc {nproc}, source {}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.source_id
    );
    let (tally, metrics) = bench(
        &args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    for line in &tally.lines {
        println!("{line}");
    }
    for m in &metrics {
        match m.samples {
            Some(n) => println!("metric {} = {} {} (n = {n})", m.name, m.value, m.unit),
            None => println!("metric {} = {} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "operations: {} attempted, {} failed; correct: {}",
        tally.attempted, tally.failed, tally.correct
    );
    println!("{}", report::result_json(&tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, untraced and traced, at the tiny scale: all checks
    /// pass, nothing fails, and every metric is reported and finite.
    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let (tally, metrics) = bench(workload, Scale::Tiny, 7, 0, trace);
                assert!(tally.correct, "{workload} trace {trace}: {:?}", tally.lines);
                assert_eq!(
                    tally.failed, 0,
                    "{workload} trace {trace}: {:?}",
                    tally.lines
                );
                assert!(tally.attempted > 0);
                let expected: Vec<&str> = if trace {
                    report::PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    report::END_TO_END.iter().map(|m| m.0).collect()
                };
                let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, expected);
                for m in &metrics {
                    assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
                    assert!(trace || m.value > 0.0, "{workload}: {} reads 0", m.name);
                }
                let json = report::result_json(&tally, &metrics);
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }
}
