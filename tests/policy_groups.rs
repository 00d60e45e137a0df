//! The policy-group contract: cells that differ only in their DTM policy
//! run as one trajectory forked where their commands diverge
//! (`tdtm_core::group`), and every grouped report is byte-identical to
//! the cell's own solo `Simulator::run`.

use tdtm::core::engine::{ConfigPatch, ExperimentGrid};
use tdtm::core::experiments::ExperimentScale;
use tdtm::core::group::run_policy_group;
use tdtm::core::SimConfig;
use tdtm::dtm::PolicyKind;
use tdtm::workloads::suite;

/// Heatsinks from cool (nothing ever triggers) to 107 C (every policy
/// actuates), each with and without a warm start. The cycle cap keeps
/// memory-bound programs short and exercises the cycle-budget stop.
fn variants() -> Vec<(&'static str, ConfigPatch)> {
    fn at(cfg: &mut SimConfig, heatsink: f64, warm_start: bool) {
        cfg.heatsink_temp = heatsink;
        cfg.warm_start = warm_start;
        cfg.max_cycles = 80_000;
    }
    vec![
        ("80C/warm", |cfg| at(cfg, 80.0, true)),
        ("80C/cold", |cfg| at(cfg, 80.0, false)),
        ("100C/warm", |cfg| at(cfg, 100.0, true)),
        ("100C/cold", |cfg| at(cfg, 100.0, false)),
        ("103C/warm", |cfg| at(cfg, 103.0, true)),
        ("103C/cold", |cfg| at(cfg, 103.0, false)),
        ("105C/warm", |cfg| at(cfg, 105.0, true)),
        ("105C/cold", |cfg| at(cfg, 105.0, false)),
        ("107C/warm", |cfg| at(cfg, 107.0, true)),
        ("107C/cold", |cfg| at(cfg, 107.0, false)),
    ]
}

#[test]
fn grouped_reports_are_byte_identical_to_solo_runs() {
    // Property: a random program under every policy kind, at two random
    // heatsink/warm-start variants and a random budget, groups into one
    // policy group per variant; every member's report equals its solo
    // run down to the bits (the Debug rendering distinguishes every bit
    // pattern short of NaN).
    let programs = suite();
    let variants = variants();
    tdtm_prng::cases(5, 0x9a09_5eed, |rng| {
        let program = programs[rng.index(programs.len())].clone();
        let scale = ExperimentScale {
            insts: 2_000 + rng.below(10_000),
            warmup_cycles: rng.below(5_000),
        };
        let picked = [variants[rng.index(variants.len())], variants[rng.index(variants.len())]];
        let grid = ExperimentGrid::new(scale)
            .workload(program)
            .policies(&PolicyKind::all())
            .variants(&picked);
        let grouped = grid.run_threads_with_grouping(1, true);
        for (cell, run) in grid.cells().iter().zip(&grouped.runs) {
            let solo = cell.simulator().run();
            assert_eq!(
                format!("{:?}", run.report),
                format!("{solo:?}"),
                "{} at {scale:?}: grouped report differs from the solo run",
                cell.label()
            );
        }
    });
}

#[test]
fn groups_fork_only_where_commands_diverge() {
    // On a hot heatsink every policy kind actuates, so a group of all of
    // them must fork, yet no more often than there are trajectories to
    // tell apart: one per member at most.
    let grid = ExperimentGrid::new(ExperimentScale { insts: 10_000, warmup_cycles: 1_000 })
        .workload(tdtm::workloads::by_name("gcc").expect("suite workload"))
        .policies(&PolicyKind::all())
        .variant("hot", |cfg| cfg.heatsink_temp = 107.0);
    let cells = grid.cells();
    let run = run_policy_group(&cells.iter().collect::<Vec<_>>());
    let trajectories = 1 + run.splits.iter().map(|s| s.classes - 1).sum::<usize>();
    assert!(trajectories > 1, "hot policies must diverge");
    assert!(trajectories <= cells.len(), "{trajectories} trajectories for {} cells", cells.len());
    for (cell, report) in cells.iter().zip(&run.reports) {
        assert_eq!(format!("{report:?}"), format!("{:?}", cell.simulator().run()), "{}", cell.label());
    }
}

#[test]
fn one_program_forks_across_workers_byte_identically() {
    // A grid of one hot program is a single policy group. Its forks join
    // the engine's shared work queue and run on any worker; whichever
    // worker runs a branch, every report equals the per-cell path's.
    let grid = ExperimentGrid::new(ExperimentScale { insts: 10_000, warmup_cycles: 1_000 })
        .workload(tdtm::workloads::by_name("gcc").expect("suite workload"))
        .policies(&PolicyKind::all())
        .variant("hot", |cfg| cfg.heatsink_temp = 107.0);
    let reference = grid.run_threads_with_grouping(1, false);
    for threads in [2, 4] {
        let grouped = grid.run_threads_with_grouping(threads, true);
        assert_eq!(grouped.runs.len(), reference.runs.len());
        for (g, r) in grouped.runs.iter().zip(&reference.runs) {
            assert_eq!(g.index, r.index);
            assert_eq!(
                format!("{:?}", g.report),
                format!("{:?}", r.report),
                "{} on {threads} threads",
                g.label()
            );
        }
    }
}
