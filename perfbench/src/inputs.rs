//! Inputs of the three workloads, and the seeded query mix.
//!
//! The graphs are the repository's canonical datasets, generated with the
//! generator seeds the figure binaries (`Datasets` seed 42) and
//! `engine_throughput` (seed 7) use, so the figures here are comparable to
//! theirs and every run measures the same graph work.  The `--seed` argument
//! drives everything stochastic about the load: which queries are sent, at
//! which snapshots, and which answers are checked.  The program under test
//! receives only the generated graphs, operations and queries.

use clude_engine::EdgeOp;
use clude_graph::generators::{dblp_like, wiki_like, DblpLikeConfig, WikiLikeConfig};
use clude_graph::{DiGraph, EvolvingGraphSequence};
use clude_measures::MeasureQuery;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::DAMPING;

/// Input size: the measured scale, or the self-test's tiny one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Derives an independent RNG stream from the run seed.
fn stream(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generator seed of the DBLP-like sequence: `Datasets::new(_, 42)` draws
/// it from seed 42 + 1.
const DBLP_SEED: u64 = 43;

/// Generator seed of the wiki-like graphs, as in `engine_throughput`.
const WIKI_SEED: u64 = 7;

/// The DBLP-like co-authorship sequence of `ludem-offline`: 900 authors and
/// 150 snapshots at full scale (the figure binaries' Default scale).
pub fn ludem_sequence(scale: Scale) -> EvolvingGraphSequence {
    let config = match scale {
        Scale::Full => DblpLikeConfig {
            n_authors: 900,
            initial_papers: 1_100,
            papers_per_snapshot: 3,
            max_authors_per_paper: 4,
            n_snapshots: 150,
        },
        Scale::Tiny => DblpLikeConfig {
            n_authors: 200,
            initial_papers: 240,
            papers_per_snapshot: 3,
            max_authors_per_paper: 4,
            n_snapshots: 20,
        },
    };
    dblp_like::generate(&config, &mut StdRng::seed_from_u64(DBLP_SEED))
}

/// A base graph plus the edge operations streamed into it.
#[derive(Debug, Clone)]
pub struct Stream {
    pub base: DiGraph,
    pub ops: Vec<EdgeOp>,
}

/// The wiki-like growth stream of `serve-sharded` (the one
/// `engine_throughput` replays): 400 pages, about 11k edge operations.
pub fn growth_stream(scale: Scale) -> Stream {
    let config = match scale {
        Scale::Full => WikiLikeConfig {
            n_pages: 400,
            initial_links: 1_200,
            final_links: 1_200 + 9_200,
            n_snapshots: 120,
            removals_per_snapshot: 8,
            burst_probability: 0.08,
            burst_size: 25,
        },
        Scale::Tiny => WikiLikeConfig {
            n_pages: 150,
            initial_links: 450,
            final_links: 450 + 1_000,
            n_snapshots: 20,
            removals_per_snapshot: 4,
            burst_probability: 0.08,
            burst_size: 10,
        },
    };
    let egs = wiki_like::generate(&config, &mut StdRng::seed_from_u64(WIKI_SEED));
    let mut ops = Vec::new();
    for step in 0..egs.len() - 1 {
        let delta = egs.delta(step);
        ops.extend(delta.removed.iter().map(|&(u, v)| EdgeOp::Remove(u, v)));
        ops.extend(delta.added.iter().map(|&(u, v)| EdgeOp::Insert(u, v)));
    }
    Stream {
        base: egs.snapshot(0),
        ops,
    }
}

/// The value-churn stream of `churn-durable`: a 4,000-page wiki-like base
/// whose 512 highest-out-degree edges are removed and re-inserted in 88
/// alternating full passes (704 batches of 64).  Every batch is all removals
/// or all re-insertions of edges the base factors already hold, so the
/// factor pattern never changes; the stream ends on a re-insert pass.
pub fn toggle_stream(scale: Scale) -> Stream {
    let (n_pages, pool_size, passes) = match scale {
        Scale::Full => (4_000, 512, 88),
        Scale::Tiny => (400, 128, 8),
    };
    let config = WikiLikeConfig {
        n_pages,
        initial_links: 3 * n_pages,
        final_links: 3 * n_pages,
        n_snapshots: 1,
        removals_per_snapshot: 0,
        burst_probability: 0.0,
        burst_size: 0,
    };
    let base = wiki_like::generate(&config, &mut StdRng::seed_from_u64(WIKI_SEED)).snapshot(0);
    let mut pool: Vec<(usize, usize)> = base.edges().collect();
    pool.sort_by_key(|&(u, v)| (std::cmp::Reverse(base.out_degree(u)), u, v));
    pool.truncate(pool_size);
    let mut ops = Vec::with_capacity(passes * pool.len());
    for pass in 0..passes {
        ops.extend(pool.iter().map(|&(u, v)| {
            if pass % 2 == 0 {
                EdgeOp::Remove(u, v)
            } else {
                EdgeOp::Insert(u, v)
            }
        }));
    }
    Stream { base, ops }
}

/// Number of hot pages that receive most RWR seeds.
const HOT_SET: usize = 32;

/// The skewed query mix sent after every published batch: 70 % RWR (80 % of
/// seeds from a 32-page hot set), 20 % PageRank, 10 % two-seed PPR.
#[derive(Debug)]
pub struct QueryMix {
    rng: StdRng,
    n: usize,
}

impl QueryMix {
    pub fn new(seed: u64, n: usize) -> Self {
        QueryMix {
            rng: stream(seed, 4),
            n,
        }
    }

    pub fn next_query(&mut self) -> MeasureQuery {
        let (rng, n) = (&mut self.rng, self.n);
        match rng.gen_range(0usize..10) {
            0..=6 => MeasureQuery::Rwr {
                seed: if rng.gen_bool(0.8) {
                    rng.gen_range(0..HOT_SET.min(n))
                } else {
                    rng.gen_range(0..n)
                },
                damping: DAMPING,
            },
            7..=8 => MeasureQuery::PageRank { damping: DAMPING },
            _ => MeasureQuery::PprSeedSet {
                seeds: vec![rng.gen_range(0..n), rng.gen_range(0..n)],
                damping: DAMPING,
            },
        }
    }

    /// Index in `0..bound` drawn from the mix's own stream.
    pub fn pick(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound)
    }
}

/// The fixed check queries asked of every final snapshot.
pub fn check_queries(n: usize) -> Vec<MeasureQuery> {
    vec![
        MeasureQuery::PageRank { damping: DAMPING },
        MeasureQuery::Rwr {
            seed: 0,
            damping: DAMPING,
        },
        MeasureQuery::Rwr {
            seed: n - 1,
            damping: DAMPING,
        },
        MeasureQuery::PprSeedSet {
            seeds: vec![1, n / 2],
            damping: DAMPING,
        },
    ]
}

/// Samples which served answers get a backward-error check.
#[derive(Debug)]
pub struct CheckSampler {
    rng: StdRng,
    rate: f64,
}

impl CheckSampler {
    pub fn new(seed: u64, rate: f64) -> Self {
        CheckSampler {
            rng: stream(seed, 5),
            rate,
        }
    }

    pub fn sample(&mut self) -> bool {
        self.rng.gen_bool(self.rate)
    }
}
