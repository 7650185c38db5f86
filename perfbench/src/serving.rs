//! `serve-sharded` and `churn-durable`: the streaming engine, driven from
//! one calling thread in a closed loop.
//!
//! One round builds the engine (set-up), streams every edge operation
//! through `insert_edge`/`remove_edge`, sends 16 queries from the skewed mix
//! after every published batch, flushes, and checks the final snapshot.  A
//! durable round then drops the engine and reopens its spool (recovery).
//! Every timed window covers exactly one call into the engine; checks run
//! between them.

use crate::check::{self, OwnGraph, BACKWARD_ERROR_GATE, POWER_ITERATION_GATE};
use crate::clock::thread_cpu_time;
use crate::inputs::{self, CheckSampler, QueryMix, Scale, Stream};
use crate::report::{Round, Tally};
use crate::sample::Samples;
use clude_engine::{
    BatchPolicy, CludeEngine, DurabilityConfig, EdgeOp, EngineConfig, EngineResult, RefreshPolicy,
};
use clude_measures::MeasureQuery;
use clude_telemetry::{Counter, EventKind, Stage, TelemetryConfig, TelemetryRegistry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Spool directories handed out by this process (names stay unique when
/// several runs share the process, as the self-test's do).
static SPOOLS: AtomicUsize = AtomicUsize::new(0);

/// Queries sent after every published batch.
const QUERIES_PER_BATCH: usize = 16;

/// Edge operations per batch.
const BATCH: usize = 64;

/// Stages whose spans do not nest inside another stage on the ingest path:
/// together they are the time a publishing call can account for.
const INGEST_STAGES: [Stage; 4] = [
    Stage::IngestMerge,
    Stage::WalAppend,
    Stage::IngestApply,
    Stage::CheckpointWrite,
];

/// Span time booked so far in the stages a publishing call can account for.
fn claimed_nanos(telemetry: &TelemetryRegistry) -> u64 {
    INGEST_STAGES
        .iter()
        .map(|&s| telemetry.stage_histogram(s).sum())
        .sum()
}

const COUPLING_STAGES: [Stage; 4] = [
    Stage::CouplingJacobi,
    Stage::CouplingGaussSeidel,
    Stage::CouplingWoodburyBuild,
    Stage::CouplingWoodburyApply,
];

/// Write-ahead-log and checkpoint policy of the durable engine.
#[derive(Debug, Clone, Copy)]
struct Durable {
    group_commit: usize,
    checkpoint_every: u64,
}

/// The fixed inputs and configuration of every round of one run.
#[derive(Debug)]
pub struct Serving {
    name: &'static str,
    stream: Stream,
    config: EngineConfig,
    durable: Option<Durable>,
    seed: u64,
    /// Parent of the per-round spool directories.
    spool_root: PathBuf,
    /// Set-ups per round (the median of all set-ups is `setup_s`).
    setups: usize,
}

fn base_config(n_shards: usize) -> EngineConfig {
    EngineConfig {
        batch: BatchPolicy::by_count(BATCH),
        refresh: RefreshPolicy::QualityTriggered {
            max_quality_loss: 0.25,
        },
        ring_capacity: 8,
        cache_shards: 16,
        cache_capacity_per_shard: 256,
        n_shards,
        ..EngineConfig::default()
    }
}

impl Serving {
    /// Four factor shards under the default coupling solver, fed the
    /// wiki-like growth stream; in memory.
    pub fn sharded(scale: Scale, seed: u64) -> Self {
        Serving {
            name: "serve-sharded",
            stream: inputs::growth_stream(scale),
            config: base_config(4),
            durable: None,
            seed,
            spool_root: PathBuf::new(),
            setups: 10,
        }
    }

    /// One factor shard fed the value-churn toggle stream, opened durably
    /// on a fresh spool under `spool_root` and recovered from it at the end.
    pub fn durable(scale: Scale, seed: u64, spool_root: &Path) -> Self {
        Serving {
            name: "churn-durable",
            stream: inputs::toggle_stream(scale),
            config: base_config(1),
            durable: Some(Durable {
                group_commit: 8,
                checkpoint_every: match scale {
                    Scale::Full => 250,
                    Scale::Tiny => 6,
                },
            }),
            seed,
            spool_root: spool_root.to_path_buf(),
            setups: 5,
        }
    }

    pub fn describe(&self) -> String {
        let base = &self.stream.base;
        let mut line = format!(
            "{}: {} nodes, {} base edges, {} edge operations in batches of {BATCH}, {} factor shard(s), {QUERIES_PER_BATCH} queries per published batch",
            self.name,
            base.n_nodes(),
            base.n_edges(),
            self.stream.ops.len(),
            self.config.n_shards,
        );
        if let Some(d) = self.durable {
            line.push_str(&format!(
                ", durable: group commit {}, checkpoint every {} batches, spools under {}",
                d.group_commit,
                d.checkpoint_every,
                std::env::current_dir()
                    .map(|cwd| cwd.join(&self.spool_root))
                    .unwrap_or_else(|_| self.spool_root.clone())
                    .display()
            ));
        }
        line
    }

    fn open(&self, config: EngineConfig, spool: Option<&Path>) -> EngineResult<CludeEngine> {
        let base = self.stream.base.clone();
        match (self.durable, spool) {
            (Some(d), Some(dir)) => {
                let durability = DurabilityConfig::new(dir)
                    .group_commit(d.group_commit)
                    .checkpoint_every(d.checkpoint_every);
                CludeEngine::open_durable(base, config, durability).map(|(engine, _)| engine)
            }
            _ => CludeEngine::new(base, config),
        }
    }

    pub fn round(&self, traced: bool, tally: &mut Tally) -> Round {
        let mut round = Round::new(traced);
        let mut config = self.config;
        config.telemetry = if traced {
            TelemetryConfig::default()
        } else {
            TelemetryConfig::disabled()
        };
        let spool = self.durable.map(|_| {
            let serial = SPOOLS.fetch_add(1, Ordering::Relaxed);
            self.spool_root
                .join(format!("{}-{}-{serial}", self.name, std::process::id()))
        });

        let mut engine = None;
        for _ in 0..self.setups {
            drop(engine.take());
            // Every set-up opens a cold spool: nothing left behind by an
            // earlier set-up or an interrupted run is recovered from.
            if let Some(dir) = &spool {
                let _ = std::fs::remove_dir_all(dir);
            }
            let t = Instant::now();
            engine = Some(
                self.open(config, spool.as_deref())
                    .expect("the base graph factorizes"),
            );
            round.setup_s.push(t.elapsed().as_secs_f64());
        }
        let engine = engine.expect("at least one set-up");
        let telemetry = Arc::clone(engine.telemetry());
        let at_setup = StageSums::read(&telemetry);

        let base = &self.stream.base;
        let n = base.n_nodes();
        let mut graph = OwnGraph::new(n, base.edges());
        let mut client = Client {
            engine: &engine,
            telemetry: &telemetry,
            traced,
            mix: QueryMix::new(self.seed, n),
            sampler: CheckSampler::new(self.seed, 1.0 / 64.0),
            round: &mut round,
            buffered_us: Samples::default(),
            publish_ms: Samples::default(),
            hit_us: Samples::default(),
            miss_us: Samples::default(),
            unattributed_s: 0.0,
            worst_backward: 0.0,
            sampled: 0,
        };
        for &op in &self.stream.ops {
            let before = traced.then(|| claimed_nanos(&telemetry));
            tally.attempted += 1;
            let t = Instant::now();
            let outcome = match op {
                EdgeOp::Insert(u, v) => engine.insert_edge(u, v),
                EdgeOp::Remove(u, v) => engine.remove_edge(u, v),
            };
            let elapsed = t.elapsed().as_secs_f64();
            client.round.update_s += elapsed;
            match outcome {
                Ok(published) => {
                    match op {
                        EdgeOp::Insert(u, v) => graph.insert(u, v),
                        EdgeOp::Remove(u, v) => graph.remove(u, v),
                    };
                    match published {
                        None => client.buffered_us.push(elapsed * 1e6),
                        Some(_) => client.published(elapsed, before, &graph, tally),
                    }
                }
                Err(e) => tally.fail(format!("{op:?}: {e}")),
            }
        }
        let before = traced.then(|| claimed_nanos(&telemetry));
        let t = Instant::now();
        let flushed = engine.flush();
        let elapsed = t.elapsed().as_secs_f64();
        client.round.update_s += elapsed;
        match flushed {
            Ok(Some(_)) => client.published(elapsed, before, &graph, tally),
            Ok(None) => {}
            Err(e) => tally.fail(format!("flush: {e}")),
        }
        client.finish(tally);
        round.ops = self.stream.ops.len();
        round.query_busy_s = round.query_us.sum() / 1e6;

        // Final snapshot: backward error and the power iteration.
        let checks = inputs::check_queries(n);
        let mut served = Vec::with_capacity(checks.len());
        let (mut worst_error, mut worst_distance) = (0.0f64, 0.0f64);
        for query in checks {
            tally.attempted += 1;
            match engine.query(&query) {
                Ok(x) => {
                    let b = check::rhs(&query, n);
                    let error = graph.backward_error(&b, &x);
                    let distance = check::normalized_distance(&x, &graph.power_solve(&b));
                    worst_error = worst_error.max(error);
                    worst_distance = worst_distance.max(distance);
                    tally.check(
                        error <= BACKWARD_ERROR_GATE && distance <= POWER_ITERATION_GATE,
                        format!("{query:?} on the final snapshot: backward error {error:.3e}, power-iteration distance {distance:.3e}"),
                    );
                    served.push((query, Some(x)));
                }
                Err(e) => {
                    tally.fail(format!("check query {query:?}: {e}"));
                    served.push((query, None));
                }
            }
        }
        tally.note_check(format!(
            "final snapshot ({} edges): max backward error {worst_error:.2e} (gate {BACKWARD_ERROR_GATE:.0e}), max power-iteration distance {worst_distance:.2e} (gate {POWER_ITERATION_GATE:.0e})",
            graph.n_edges()
        ));

        let stats = engine.stats();
        round.factor_mb = stats.resident_factor_bytes as f64 / (1024.0 * 1024.0);
        if traced {
            let spent = StageSums::read(&telemetry).minus(&at_setup);
            let layer = |round: &mut Round, name, stages: &[Stage]| {
                round.layer(name, stages.iter().map(|&s| spent.seconds(s)).sum());
            };
            layer(&mut round, "ingest.merge_s", &[Stage::IngestMerge]);
            layer(&mut round, "ingest.apply_s", &[Stage::IngestApply]);
            layer(&mut round, "shard.sweep_s", &[Stage::ShardSweep]);
            layer(&mut round, "shard.refresh_s", &[Stage::ShardRefresh]);
            layer(&mut round, "shard.refactor_s", &[Stage::ShardRefactor]);
            layer(&mut round, "snapshot.freeze_s", &[Stage::SnapshotFreeze]);
            layer(&mut round, "coupling.solve_s", &COUPLING_STAGES);
            layer(&mut round, "query.solve_s", &[Stage::QuerySolve]);
            layer(&mut round, "wal.append_s", &[Stage::WalAppend]);
            layer(&mut round, "checkpoint.write_s", &[Stage::CheckpointWrite]);
            round.layer("shard.sweeps", spent.count(Stage::ShardSweep));
            round.layer("shard.refreshes", spent.count(Stage::ShardRefresh));
            round.layer("shard.refactors", spent.count(Stage::ShardRefactor));
            round.layer("query.solves", spent.count(Stage::QuerySolve));
            round.layer(
                "shard.refactor_fallbacks",
                telemetry.journal().count_of(EventKind::RefactorFallback) as f64,
            );
            round.layer(
                "coupling.convergence_failures",
                telemetry.counter(Counter::ConvergenceFailures) as f64,
            );
            round.layer("coupling.nnz", stats.coupling_nnz as f64);
            round.layer("engine.bennett_pivots", stats.bennett_pivots as f64);
            round.layer(
                "lu.sweep_ns_per_pivot",
                spent.nanos(Stage::ShardSweep) as f64 / stats.bennett_pivots.max(1) as f64,
            );
            round.layer("ring.resident_mb", round.factor_mb);
            round.layer("ring.blocks_cloned", stats.cow_shards_cloned as f64);
        }
        round.note(format!(
            "{} batches, {} refreshes, final snapshot {}, cache hit rate {:.1}%, coupling nnz {}",
            stats.batches_applied,
            stats.refreshes,
            engine.current_snapshot_id(),
            100.0 * stats.hit_rate(),
            stats.coupling_nnz
        ));

        if let Some(dir) = spool {
            let last = engine.current_snapshot_id();
            drop(engine);
            self.recover(&dir, config, last, &served, &mut round, tally);
            let _ = std::fs::remove_dir_all(&dir);
        }
        round
    }

    /// Reopens the spool of a dropped durable engine and checks that it
    /// lands on the last published snapshot and answers the check queries
    /// bit-for-bit as the engine did before it was dropped.
    fn recover(
        &self,
        dir: &Path,
        config: EngineConfig,
        last: u64,
        served: &[(MeasureQuery, Option<Arc<Vec<f64>>>)],
        round: &mut Round,
        tally: &mut Tally,
    ) {
        let d = self.durable.expect("only durable rounds recover");
        let durability = DurabilityConfig::new(dir)
            .group_commit(d.group_commit)
            .checkpoint_every(d.checkpoint_every);
        let t = Instant::now();
        let (engine, report) =
            CludeEngine::open_durable(self.stream.base.clone(), config, durability)
                .expect("the spool recovers");
        let total = t.elapsed().as_secs_f64();
        let replay = StageSums::read(engine.telemetry()).seconds(Stage::RecoveryReplay);
        tally.check(
            report.recovered_snapshot == Some(last) && engine.current_snapshot_id() == last,
            format!(
                "recovery landed on {:?} (engine at {}), last published {last}",
                report.recovered_snapshot,
                engine.current_snapshot_id()
            ),
        );
        let mut identical = 0;
        for (query, before) in served {
            tally.attempted += 1;
            match (engine.query(query), before) {
                (Ok(after), Some(before)) => {
                    let same = after.len() == before.len()
                        && after
                            .iter()
                            .zip(before.iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    identical += same as usize;
                    tally.check(
                        same,
                        format!("{query:?} after recovery differs from before the drop"),
                    );
                }
                (Ok(_), None) => {}
                (Err(e), _) => tally.fail(format!("{query:?} after recovery: {e}")),
            }
        }
        tally.note_check(format!(
            "recovery from checkpoint {:?} + {} WAL records landed on snapshot {:?} (last published {last}); {identical}/{} check answers bit-identical",
            report.checkpoint_snapshot,
            report.wal_records_replayed,
            report.recovered_snapshot,
            served.len()
        ));
        round.note(format!("recovery {total:.4} s"));
        if round.traced {
            round.layer("recovery.total_s", total);
            round.layer("recovery.replay_s", replay);
            round.layer("recovery.load_s", total - replay);
            round.layer("recovery.records", report.wal_records_replayed as f64);
        }
    }
}

/// The per-round state of the single calling client.
struct Client<'a> {
    engine: &'a CludeEngine,
    telemetry: &'a TelemetryRegistry,
    traced: bool,
    mix: QueryMix,
    sampler: CheckSampler,
    round: &'a mut Round,
    buffered_us: Samples,
    publish_ms: Samples,
    hit_us: Samples,
    miss_us: Samples,
    unattributed_s: f64,
    worst_backward: f64,
    sampled: usize,
}

impl Client<'_> {
    /// A call published a batch: record it, then send the query burst.
    fn published(
        &mut self,
        elapsed: f64,
        before: Option<u64>,
        graph: &OwnGraph,
        tally: &mut Tally,
    ) {
        self.publish_ms.push(elapsed * 1e3);
        if let Some(before) = before {
            let claimed = claimed_nanos(self.telemetry) - before;
            self.unattributed_s += elapsed - claimed as f64 * 1e-9;
        }
        let n = graph.n();
        for _ in 0..QUERIES_PER_BATCH {
            let query = self.mix.next_query();
            let hits = self
                .traced
                .then(|| self.telemetry.counter(Counter::CacheHits));
            tally.attempted += 1;
            let cpu = thread_cpu_time();
            let t = Instant::now();
            let answer = self.engine.query(&query);
            self.round.query_us.push(t.elapsed().as_secs_f64() * 1e6);
            let cpu_us = (thread_cpu_time() - cpu).as_secs_f64() * 1e6;
            self.round.query_cpu_us.push(cpu_us);
            if let Some(hits) = hits {
                if self.telemetry.counter(Counter::CacheHits) > hits {
                    self.hit_us.push(cpu_us);
                } else {
                    self.miss_us.push(cpu_us);
                }
            }
            match answer {
                Ok(x) => {
                    if self.sampler.sample() {
                        // The snapshot this answer was served from is the
                        // one just published: no operation is pending.
                        let error = graph.backward_error(&check::rhs(&query, n), &x);
                        self.worst_backward = self.worst_backward.max(error);
                        self.sampled += 1;
                        tally.check(
                            error <= BACKWARD_ERROR_GATE,
                            format!("{query:?}: served answer has backward error {error:.3e}"),
                        );
                    }
                }
                Err(e) => tally.fail(format!("{query:?}: {e}")),
            }
        }
    }

    fn finish(self, tally: &mut Tally) {
        tally.note_check(format!(
            "{} sampled served answers: max backward error {:.2e} (gate {BACKWARD_ERROR_GATE:.0e})",
            self.sampled, self.worst_backward
        ));
        let round = self.round;
        round.note(format!(
            "{} publishing calls (p50 {:.4} ms, p90 {:.4} ms), {} buffered offers (median {:.3} us)",
            self.publish_ms.len(),
            self.publish_ms.quantile(0.5),
            self.publish_ms.quantile(0.9),
            self.buffered_us.len(),
            self.buffered_us.median()
        ));
        if self.traced {
            let queries = (self.hit_us.len() + self.miss_us.len()).max(1);
            round.layer("engine.offer_buffered_us", self.buffered_us.median());
            round.layer("engine.publish_p50_ms", self.publish_ms.quantile(0.5));
            round.layer("engine.publish_p90_ms", self.publish_ms.quantile(0.9));
            round.layer("engine.unattributed_s", self.unattributed_s);
            round.layer("query.hit_us", self.hit_us.median());
            round.layer("query.miss_us", self.miss_us.median());
            round.layer("cache.hit_ratio", self.hit_us.len() as f64 / queries as f64);
        }
    }
}

/// Cumulative per-stage span sums and counts of one registry.
struct StageSums {
    nanos: [u64; Stage::COUNT],
    counts: [u64; Stage::COUNT],
}

impl StageSums {
    fn read(telemetry: &TelemetryRegistry) -> Self {
        let mut sums = StageSums {
            nanos: [0; Stage::COUNT],
            counts: [0; Stage::COUNT],
        };
        for stage in Stage::ALL {
            let h = telemetry.stage_histogram(stage);
            sums.nanos[stage.index()] = h.sum();
            sums.counts[stage.index()] = h.count();
        }
        sums
    }

    fn minus(&self, earlier: &StageSums) -> StageSums {
        let mut out = StageSums {
            nanos: self.nanos,
            counts: self.counts,
        };
        for i in 0..Stage::COUNT {
            out.nanos[i] -= earlier.nanos[i];
            out.counts[i] -= earlier.counts[i];
        }
        out
    }

    fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage.index()]
    }

    fn seconds(&self, stage: Stage) -> f64 {
        self.nanos(stage) as f64 * 1e-9
    }

    fn count(&self, stage: Stage) -> f64 {
        self.counts[stage.index()] as f64
    }
}
