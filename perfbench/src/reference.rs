//! The paper's comparison on the `ludem-offline` sequence: BF, INC, CINC
//! and CLUDE, each run once with factors discarded (timing only), for the
//! reference table in `README.md`.  Not part of any measured workload.

use crate::check::DAMPING;
use crate::inputs::{self, Scale};
use clude::{
    BruteForce, Clude, ClusterIncremental, EvolvingMatrixSequence, Incremental, LudemSolver,
    SolverConfig,
};
use clude_graph::MatrixKind;
use std::time::Instant;

pub fn print_table() {
    let egs = inputs::ludem_sequence(Scale::Full);
    let ems = EvolvingMatrixSequence::from_egs(&egs, MatrixKind::RandomWalk { damping: DAMPING });
    println!(
        "LUDEM reference on the ludem-offline sequence: {} nodes, {} snapshots",
        ems.order(),
        ems.len()
    );
    println!("| algorithm | wall s | phase sum s | factor nnz (sum) | clusters |");
    println!("|---|---|---|---|---|");
    let solvers: [Box<dyn LudemSolver>; 4] = [
        Box::new(BruteForce),
        Box::new(Incremental),
        Box::new(ClusterIncremental::new(0.95)),
        Box::new(Clude::new(0.95)),
    ];
    for solver in &solvers {
        let t = Instant::now();
        let solution = solver
            .solve(&ems, &SolverConfig::timing_only())
            .expect("every solver decomposes the sequence");
        let wall = t.elapsed().as_secs_f64();
        let report = &solution.report;
        println!(
            "| {} | {wall:.2} | {:.2} | {} | {} |",
            solver.name(),
            report.timings.total().as_secs_f64(),
            report.factor_nnz.iter().sum::<usize>(),
            report.cluster_count()
        );
    }
}
