//! Per-round records, the run's operation tally, and the result line.

use crate::sample::{median, Samples};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ingest_ops_per_s", "ops/s"),
    ("factor_mb", "MiB"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported by every traced run.  A layer
/// a workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    // clude (offline LUDEM)
    ("clude.clustering_s", "s"),
    ("clude.decompose_s", "s"),
    ("clude.ordering_s", "s"),
    ("clude.symbolic_s", "s"),
    ("clude.bennett_s", "s"),
    ("clude.clusters", "count"),
    ("clude.factor_nnz", "count"),
    ("lu.bennett_pivots", "count"),
    ("lu.bennett_ns_per_pivot", "ns"),
    // engine ingest
    ("engine.offer_buffered_us", "us"),
    ("engine.publish_p50_ms", "ms"),
    ("engine.publish_p90_ms", "ms"),
    ("ingest.merge_s", "s"),
    ("ingest.apply_s", "s"),
    ("engine.unattributed_s", "s"),
    // factor store shards and the LU kernels under them
    ("shard.sweep_s", "s"),
    ("shard.sweeps", "count"),
    ("engine.bennett_pivots", "count"),
    ("lu.sweep_ns_per_pivot", "ns"),
    ("shard.refresh_s", "s"),
    ("shard.refreshes", "count"),
    ("shard.refactor_s", "s"),
    ("shard.refactors", "count"),
    ("shard.refactor_fallbacks", "count"),
    ("snapshot.freeze_s", "s"),
    // coupling
    ("coupling.solve_s", "s"),
    ("coupling.nnz", "count"),
    ("coupling.convergence_failures", "count"),
    // query and cache
    ("query.miss_us", "us"),
    ("query.hit_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("query.solve_s", "s"),
    ("query.solves", "count"),
    // durability
    ("wal.append_s", "s"),
    ("checkpoint.write_s", "s"),
    ("recovery.total_s", "s"),
    ("recovery.replay_s", "s"),
    ("recovery.load_s", "s"),
    ("recovery.records", "count"),
    // snapshot ring
    ("ring.resident_mb", "MiB"),
    ("ring.blocks_cloned", "count"),
    // telemetry
    ("telemetry.overhead_pct", "%"),
];

/// What one round measured.  Untraced rounds feed the end-to-end metrics,
/// traced rounds the per-layer ones.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Program set-up times: each round sets up several times and keeps
    /// the last set-up for its work.
    pub setup_s: Samples,
    /// Time spent absorbing the round's edge changes.
    pub update_s: f64,
    /// Edge changes absorbed.
    pub ops: usize,
    /// Wall-clock latency of every query call, in microseconds.
    pub query_us: Samples,
    /// CPU time of the calling thread inside every query call, in
    /// microseconds (see `clock`).
    pub query_cpu_us: Samples,
    /// Wall-clock time spent inside query calls.
    pub query_busy_s: f64,
    /// Resident size of the factors the program keeps.
    pub factor_mb: f64,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Round {
    pub fn new(traced: bool) -> Self {
        Round {
            traced,
            ..Round::default()
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Operations attempted and failed, and whether every check passed.
#[derive(Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub lines: Vec<String>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            correct: true,
            lines: Vec::new(),
        }
    }
}

impl Tally {
    /// Counts one check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.correct = false;
            self.lines.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Counts an attempted operation that returned an error.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.lines.push(format!("OPERATION FAILED: {what}"));
    }

    pub fn note_check(&mut self, line: String) {
        self.lines.push(format!("checks: {line}"));
    }
}

/// A named metric value with its unit and, for quantiles, its sample count.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
}

/// The end-to-end metrics over the untraced rounds.
pub fn end_to_end(rounds: &[Round], peak_rss_mb: f64) -> Vec<Metric> {
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let mut setups = Samples::default();
    for r in &untraced {
        setups.extend(&r.setup_s);
    }
    let queries: usize = untraced.iter().map(|r| r.query_us.len()).sum();
    // Rates and quantiles are taken per round and reported as the median
    // over rounds, so one round slowed by a noisy neighbour moves nothing.
    // Query quantiles are CPU time (see `clock`), the query rate wall time.
    let per_round =
        |f: &dyn Fn(&Round) -> f64| median(&untraced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let values = [
        (setups.median(), Some(setups.len())),
        (
            per_round(&|r| r.ops as f64 / r.update_s),
            Some(untraced.len()),
        ),
        (per_round(&|r| r.factor_mb), None),
        (per_round(&|r| r.query_cpu_us.quantile(0.50)), Some(queries)),
        (per_round(&|r| r.query_cpu_us.quantile(0.99)), Some(queries)),
        (
            per_round(&|r| r.query_us.len() as f64 / r.query_busy_s),
            Some(queries),
        ),
        (peak_rss_mb, None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect()
}

/// The per-layer metrics: the median over traced rounds of each layer's
/// per-round value, plus the telemetry overhead of traced against untraced
/// rounds on the time spent inside ingest and query calls.  A workload whose
/// path has no telemetry (`has_telemetry` false) runs the same code in both
/// kinds of round, so its overhead is 0 by definition, not a measurement.
pub fn per_layer(rounds: &[Round], has_telemetry: bool) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let busy = |rs: &[&Round]| {
        median(
            &rs.iter()
                .map(|r| r.update_s + r.query_busy_s)
                .collect::<Vec<_>>(),
        )
    };
    let (t, u) = (busy(&traced), busy(&untraced));
    let overhead_pct = if has_telemetry && u > 0.0 {
        (t / u - 1.0) * 100.0
    } else {
        0.0
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "telemetry.overhead_pct" {
                overhead_pct
            } else {
                let values: Vec<f64> = traced
                    .iter()
                    .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&values)
            };
            Metric {
                name,
                unit,
                value,
                samples: Some(traced.len()),
            }
        })
        .collect()
}

/// The result line: one JSON object, the run's last line of output.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(
                m.value.is_finite(),
                "metric {} is not finite: {}",
                m.name,
                m.value
            );
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}
