//! Correctness checks computed apart from the program.
//!
//! The benchmark keeps its own copy of every snapshot graph, applies each
//! edge operation to it as the program is fed the same operation, and
//! rebuilds the snapshot matrix `A = I − d·W` from that copy
//! (`W(v, u) = 1 / out_degree(u)` for every edge `u → v`).  Against that
//! matrix it checks
//!
//! * the normwise backward error `‖b − A·x̂‖∞ / (‖A‖∞‖x̂‖∞ + ‖b‖∞)` of a
//!   served answer `x̂`, after rescaling `x̂` by the scalar that best fits
//!   `b` (the engine serves L1-normalised scores), and
//! * agreement with a power iteration `x ← b + d·W·x` written here.
//!
//! Nothing is compared against stored output of an earlier run.

use clude_measures::MeasureQuery;
use std::collections::BTreeSet;

/// Damping factor of every measure matrix and query in the benchmark.
pub const DAMPING: f64 = 0.85;

/// Largest normwise backward error accepted for a served answer.  A
/// backward-stable triangular solve lands near `n·ε ≈ 1e-13` on these
/// matrices; the coupled solves stop at a 1e-13 relative iterate change.
pub const BACKWARD_ERROR_GATE: f64 = 1e-10;

/// Largest entry-wise difference accepted between L1-normalised served
/// scores and the power iteration (the engine's own equivalence bar).
pub const POWER_ITERATION_GATE: f64 = 1e-9;

/// The benchmark's own copy of a snapshot graph: sorted out-neighbour sets.
#[derive(Debug, Clone)]
pub struct OwnGraph {
    out: Vec<BTreeSet<usize>>,
}

impl OwnGraph {
    pub fn new(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = OwnGraph {
            out: vec![BTreeSet::new(); n],
        };
        for (u, v) in edges {
            g.out[u].insert(v);
        }
        g
    }

    pub fn n(&self) -> usize {
        self.out.len()
    }

    pub fn n_edges(&self) -> usize {
        self.out.iter().map(BTreeSet::len).sum()
    }

    pub fn insert(&mut self, u: usize, v: usize) -> bool {
        self.out[u].insert(v)
    }

    pub fn remove(&mut self, u: usize, v: usize) -> bool {
        self.out[u].remove(&v)
    }

    /// `y = b + s·d·W·x`: the shared kernel of the matrix-vector product
    /// (`b = x`, `s = −1`) and the power iteration (`s = +1`).
    fn walk_step(&self, x: &[f64], b: &[f64], sign: f64) -> Vec<f64> {
        let mut y = b.to_vec();
        for (u, succ) in self.out.iter().enumerate() {
            if succ.is_empty() {
                continue;
            }
            let w = sign * DAMPING * x[u] / succ.len() as f64;
            for &v in succ {
                y[v] += w;
            }
        }
        y
    }

    /// `A·x` with `A = I − d·W`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        self.walk_step(x, x, -1.0)
    }

    /// `‖A‖∞`, the largest absolute row sum of `A`.
    pub fn norm_inf(&self) -> f64 {
        let mut rows = vec![1.0; self.n()];
        for succ in &self.out {
            if succ.is_empty() {
                continue;
            }
            let w = DAMPING / succ.len() as f64;
            for &v in succ {
                rows[v] += w;
            }
        }
        rows.into_iter().fold(0.0, f64::max)
    }

    /// Solves `A·x = b` by the power iteration `x ← b + d·W·x`, which
    /// contracts by `d` per step in the 1-norm.
    pub fn power_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        for _ in 0..5_000 {
            let next = self.walk_step(&x, b, 1.0);
            let change: f64 = next.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
            let size: f64 = next.iter().map(|a| a.abs()).sum();
            x = next;
            if change <= 1e-15 * size {
                break;
            }
        }
        x
    }

    /// The normwise backward error of `x_hat` as a solution of `A·x = b`,
    /// after rescaling `x_hat` by the least-squares best-fit scalar.
    pub fn backward_error(&self, b: &[f64], x_hat: &[f64]) -> f64 {
        if x_hat.len() != self.n() || b.len() != self.n() {
            return f64::INFINITY;
        }
        let ax = self.apply(x_hat);
        let fit = dot(&ax, &ax);
        // A zero (or NaN) answer fits nothing.
        if fit.is_nan() || fit <= 0.0 {
            return f64::INFINITY;
        }
        let c = dot(b, &ax) / fit;
        let residual = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - c * ai).abs())
            .fold(0.0, f64::max);
        let x_norm = c.abs() * norm_inf(x_hat);
        residual / (self.norm_inf() * x_norm + norm_inf(b))
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Scales `v` to unit L1 norm.
pub fn l1_normalized(v: &[f64]) -> Vec<f64> {
    let total: f64 = v.iter().map(|x| x.abs()).sum();
    v.iter().map(|x| x / total).collect()
}

/// The largest entry-wise difference between two L1-normalised vectors.
pub fn normalized_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    l1_normalized(a)
        .iter()
        .zip(&l1_normalized(b))
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The right-hand side of a measure query's system `A·x = b`, built here
/// rather than by the program: PageRank restarts uniformly, RWR at its seed,
/// PPR uniformly over its seed set, each with restart mass `1 − d`.
pub fn rhs(query: &MeasureQuery, n: usize) -> Vec<f64> {
    let restart = 1.0 - DAMPING;
    let mut b = vec![0.0; n];
    match query {
        MeasureQuery::PageRank { .. } => b.iter_mut().for_each(|x| *x = restart / n as f64),
        MeasureQuery::Rwr { seed, .. } => b[*seed] = restart,
        MeasureQuery::PprSeedSet { seeds, .. } => {
            for &s in seeds {
                b[s] += restart / seeds.len() as f64;
            }
        }
        MeasureQuery::HittingTime { .. } => {
            unreachable!("the query mix has no hitting-time queries")
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_iteration_solves_the_measure_system() {
        let g = OwnGraph::new(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
        let b = rhs(
            &MeasureQuery::Rwr {
                seed: 0,
                damping: DAMPING,
            },
            4,
        );
        let x = g.power_solve(&b);
        assert!(g.backward_error(&b, &x) < 1e-14);
        // A rescaled answer is as good; a perturbed one is not.
        let scaled: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
        assert!(g.backward_error(&b, &scaled) < 1e-14);
        let mut wrong = x.clone();
        wrong[3] += 1e-3;
        assert!(g.backward_error(&b, &wrong) > 1e-6);
        assert!(normalized_distance(&x, &scaled) < 1e-15);
    }

    #[test]
    fn edits_track_the_edge_set() {
        let mut g = OwnGraph::new(3, [(0, 1)]);
        assert!(g.insert(1, 2));
        assert!(!g.insert(1, 2));
        assert!(g.remove(0, 1));
        assert_eq!(g.n_edges(), 1);
        // Row 2 gets d from node 1's single out-edge.
        assert!((g.norm_inf() - (1.0 + DAMPING)).abs() < 1e-15);
    }
}
