//! `ludem-offline`: the paper's own problem.
//!
//! One round derives the evolving matrix sequence from the DBLP-like
//! sequence (set-up), runs CLUDE over all of it with factors kept, and then
//! answers the skewed query mix through `LudemSolution::solve` at seeded
//! snapshots.  Traced and untraced rounds both call `Clude::solve`: no
//! telemetry exists on this path, so traced rounds take their per-layer
//! figures from the `RunReport` the solve returns.

use crate::check::{self, OwnGraph, BACKWARD_ERROR_GATE, DAMPING, POWER_ITERATION_GATE};
use crate::clock::thread_cpu_time;
use crate::inputs::{self, CheckSampler, QueryMix, Scale};
use crate::report::{Round, Tally};
use clude::algorithms::{LudemSolution, LudemSolver};
use clude::{Clude, EvolvingMatrixSequence, SolverConfig};
use clude_graph::{EvolvingGraphSequence, MatrixKind};
use std::time::Instant;

/// CLUDE's clustering threshold (the paper's sweet spot).
const ALPHA: f64 = 0.95;

/// Set-ups per round (the median of all set-ups is `setup_s`).
const SETUPS: usize = 3;

/// Queries per snapshot of the sequence: 7,200 per round, so the per-round
/// p99 has 72 samples beyond it.
const QUERIES_PER_SNAPSHOT: usize = 48;

/// The fixed inputs of every round of one run.
#[derive(Debug)]
pub struct Ludem {
    egs: EvolvingGraphSequence,
    seed: u64,
    /// Directed edge changes across the whole sequence.
    edge_ops: usize,
}

impl Ludem {
    pub fn new(scale: Scale, seed: u64) -> Self {
        let egs = inputs::ludem_sequence(scale);
        let edge_ops = (0..egs.len() - 1).map(|i| egs.delta(i).size()).sum();
        Ludem {
            egs,
            seed,
            edge_ops,
        }
    }

    pub fn describe(&self) -> String {
        let (first, last) = self.egs.first_last_edge_counts();
        format!(
            "DBLP-like random-walk sequence: {} authors, {} snapshots, {} -> {} directed edges, {} edge changes, {} queries per round",
            self.egs.n_nodes(),
            self.egs.len(),
            first,
            last,
            self.edge_ops,
            self.n_queries()
        )
    }

    fn n_queries(&self) -> usize {
        QUERIES_PER_SNAPSHOT * self.egs.len()
    }

    pub fn round(&self, traced: bool, tally: &mut Tally) -> Round {
        let mut round = Round::new(traced);
        let kind = MatrixKind::RandomWalk { damping: DAMPING };
        let mut ems = None;
        for _ in 0..SETUPS {
            drop(ems.take());
            let t = Instant::now();
            ems = Some(EvolvingMatrixSequence::from_egs(&self.egs, kind));
            round.setup_s.push(t.elapsed().as_secs_f64());
        }
        let ems = ems.expect("at least one set-up");

        let t = Instant::now();
        let solution = Clude::new(ALPHA).solve(&ems, &SolverConfig::default());
        let solve_s = t.elapsed().as_secs_f64();
        let solution = solution.expect("CLUDE decomposes every matrix of the sequence");
        round.update_s = solve_s;
        round.ops = self.edge_ops;
        let report = &solution.report;
        let factor_nnz: usize = report.factor_nnz.iter().sum();
        round.factor_mb = solution
            .decomposed
            .iter()
            .map(|d| d.approx_bytes())
            .sum::<usize>() as f64
            / (1024.0 * 1024.0);
        round.note(format!(
            "CLUDE solve {solve_s:.4} s (ludem_s), factor nnz {factor_nnz} (ludem_factor_nnz), {} clusters",
            report.cluster_count()
        ));
        if traced {
            let t = &report.timings;
            let pivots = report.bennett.pivots_processed;
            // `Clude::solve` books its `alpha_clustering` pass in the
            // clustering phase; the rest of the solve is the per-cluster
            // `decompose_cluster_universal` calls.
            let clustering_s = t.clustering.as_secs_f64();
            round.layer("clude.clustering_s", clustering_s);
            round.layer("clude.decompose_s", solve_s - clustering_s);
            round.layer("clude.ordering_s", t.ordering.as_secs_f64());
            round.layer("clude.symbolic_s", t.symbolic.as_secs_f64());
            round.layer("clude.bennett_s", t.incremental.as_secs_f64());
            round.layer("clude.clusters", report.cluster_count() as f64);
            round.layer("clude.factor_nnz", factor_nnz as f64);
            round.layer("lu.bennett_pivots", pivots as f64);
            round.layer(
                "lu.bennett_ns_per_pivot",
                t.incremental.as_nanos() as f64 / pivots.max(1) as f64,
            );
        }

        // Closed-loop queries at seeded snapshots; a seeded sample of the
        // answers is kept for the backward-error check.
        let n = self.egs.n_nodes();
        let len = self.egs.len();
        let mut mix = QueryMix::new(self.seed, n);
        let mut sampler = CheckSampler::new(self.seed, 1.0 / 32.0);
        let mut kept = Vec::new();
        for _ in 0..self.n_queries() {
            let i = mix.pick(len);
            let query = mix.next_query();
            let b = check::rhs(&query, n);
            tally.attempted += 1;
            let cpu = thread_cpu_time();
            let t = Instant::now();
            let answer = solution.solve(i, &b);
            round.query_us.push(t.elapsed().as_secs_f64() * 1e6);
            round
                .query_cpu_us
                .push((thread_cpu_time() - cpu).as_secs_f64() * 1e6);
            match answer {
                Ok(x) if sampler.sample() => kept.push((i, b, x)),
                Ok(_) => {}
                Err(e) => tally.fail(format!("query at snapshot {i}: {e}")),
            }
        }
        round.query_busy_s = round.query_us.sum() / 1e6;

        self.check(&solution, kept, tally);
        round
    }

    /// Backward error of the kept answers at the snapshot each was served
    /// from, and agreement with the power iteration on the last snapshot.
    fn check(
        &self,
        solution: &LudemSolution,
        mut kept: Vec<(usize, Vec<f64>, Vec<f64>)>,
        tally: &mut Tally,
    ) {
        kept.sort_by_key(|k| k.0);
        let base = self.egs.snapshot(0);
        let mut graph = OwnGraph::new(base.n_nodes(), base.edges());
        let mut at = 0;
        let mut worst: f64 = 0.0;
        let n_kept = kept.len();
        for (i, b, x) in kept {
            while at < i {
                let delta = self.egs.delta(at);
                for &(u, v) in &delta.removed {
                    graph.remove(u, v);
                }
                for &(u, v) in &delta.added {
                    graph.insert(u, v);
                }
                at += 1;
            }
            let error = graph.backward_error(&b, &x);
            worst = worst.max(error);
            tally.check(
                error <= BACKWARD_ERROR_GATE,
                format!("backward error {error:.3e} at snapshot {i}"),
            );
        }
        while at < self.egs.len() - 1 {
            let delta = self.egs.delta(at);
            for &(u, v) in &delta.removed {
                graph.remove(u, v);
            }
            for &(u, v) in &delta.added {
                graph.insert(u, v);
            }
            at += 1;
        }
        let mut worst_power: f64 = 0.0;
        for query in inputs::check_queries(graph.n()) {
            let b = check::rhs(&query, graph.n());
            tally.attempted += 1;
            match solution.solve(at, &b) {
                Ok(x) => {
                    let error = graph.backward_error(&b, &x);
                    let distance = check::normalized_distance(&x, &graph.power_solve(&b));
                    worst = worst.max(error);
                    worst_power = worst_power.max(distance);
                    tally.check(
                        error <= BACKWARD_ERROR_GATE && distance <= POWER_ITERATION_GATE,
                        format!("{query:?} at the last snapshot: backward error {error:.3e}, power-iteration distance {distance:.3e}"),
                    );
                }
                Err(e) => tally.fail(format!("check query {query:?}: {e}")),
            }
        }
        tally.note_check(format!(
            "{n_kept} sampled answers + 4 last-snapshot checks: max backward error {worst:.2e} (gate {BACKWARD_ERROR_GATE:.0e}), max power-iteration distance {worst_power:.2e} (gate {POWER_ITERATION_GATE:.0e})"
        ));
    }
}
