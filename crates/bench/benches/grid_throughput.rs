//! Whole-grid fleet throughput: cells per second of the paper's 18 × 5
//! result grid (every suite benchmark crossed with five DTM policies on
//! a hot 107 C heatsink) through `ExperimentGrid::run_threads` — the
//! quantity the grouped dispatch optimizes and the one
//! `BENCH_grid.json` pins.
//!
//! Two rows, both normalized to ns per grid cell (grid wall time over
//! cell count, so lower is better and the checker's ratio convention
//! holds):
//!
//! - `grid18x5_ref_ns_per_cell`: the per-cell reference dispatch (one
//!   `Simulator::run` per cell, grouping off).
//! - `grid18x5_grouped_ns_per_cell`: the grouped dispatch (each
//!   program's policy cells run as one policy group, forked where their
//!   DTM commands diverge).
//!
//! The committed baseline also carries a `*_before` row — the per-cell
//! dispatch measured before an earlier optimization round, kept for the
//! speedup record; `--check` ignores rows the current run does not
//! produce.
//!
//! Flags (after `--`):
//!
//! - `--json <path>`: write the measured rows as JSON (the committed
//!   baseline at the repo root is `BENCH_grid.json`).
//! - `--check <path>`: compare against a committed baseline and exit
//!   nonzero if any shared row regressed more than 3×.
//! - `--quick`: single repetition per row (the tier-1 smoke).

use tdtm_bench::microbench::{black_box, Harness};
use tdtm_core::engine::ExperimentGrid;
use tdtm_core::experiments::ExperimentScale;
use tdtm_core::SimConfig;
use tdtm_dtm::PolicyKind;

/// Worker threads for the grid runs — fixed so the row is comparable
/// across environments regardless of `TDTM_THREADS` or machine shape.
const THREADS: usize = 4;

/// The paper's result grid at quick scale, on a hot heatsink so every
/// policy actually actuates: 18 benchmarks × 5 policies = 90 cells.
fn grid() -> ExperimentGrid {
    fn hot(cfg: &mut SimConfig) {
        cfg.heatsink_temp = 107.0;
    }
    ExperimentGrid::new(ExperimentScale::quick()).suite().policies(&[
        PolicyKind::None,
        PolicyKind::Toggle1,
        PolicyKind::Pid,
        PolicyKind::VfScale,
        PolicyKind::Hierarchical,
    ])
    .variant("hot", hot)
}

/// Times whole grid executions on [`THREADS`] workers, normalized to ns
/// per cell, and prints the fleet rate in cells per second.
fn bench_grid(h: &mut Harness, name: &str, grouping: bool, reps: u32) {
    let grid = grid();
    let cells = grid.len() as f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let results = grid.run_threads_with_grouping(THREADS, grouping);
        assert_eq!(results.runs.len(), grid.len());
        black_box(&results.runs);
        best = best.min(results.wall_seconds);
    }
    let ns = best * 1e9 / cells;
    println!(
        "{name:<44} {ns:>14.0} ns/cell {:>10.2} cells/s  ({} cells, {THREADS} threads)",
        cells / best,
        grid.len(),
    );
    h.push_row(name, ns);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let mut h = Harness::new();

    bench_grid(&mut h, "grid18x5_ref_ns_per_cell", false, reps);
    bench_grid(&mut h, "grid18x5_grouped_ns_per_cell", true, reps);

    h.finish(&args);
}
