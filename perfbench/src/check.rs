//! The output check: results the engine returned must equal a fresh,
//! uncached, one-at-a-time simulation with idle-gap skipping off.

use tdtm_core::engine::GridCell;
use tdtm_core::{MulticoreSim, RunReport, Simulator};
use tdtm_prng::Fnv128;

/// The `Debug` rendering a report is compared by. `f64` renders as its
/// shortest round-trip form, so equal renderings mean equal bits.
pub fn render(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Re-simulates `cell` from scratch on the reference dispatch: one cell,
/// no cache, no idle-gap skipping, on the chip simulator when the cell
/// configures a chip. Returns core 0's report, as the engine does.
pub fn resimulate(cell: &GridCell) -> RunReport {
    let cfg = cell.config();
    if cfg.chip.cores == 1 && cfg.chip.supervisor.is_none() {
        let mut sim = Simulator::for_workload_with_power(cfg, &cell.workload, cell.power_model());
        sim.set_skip(false);
        sim.run()
    } else {
        let mut sim =
            MulticoreSim::for_workload_with_power(cfg, &cell.workload, cell.power_model());
        sim.set_skip(false);
        sim.run().cores.swap_remove(0)
    }
}

/// Whether `returned` (a rendering of what the engine returned) matches
/// a fresh reference simulation of `cell`.
pub fn matches_reference(cell: &GridCell, returned: &str) -> bool {
    render(&resimulate(cell)) == returned
}

/// FNV-128 digest over `(label, rendering)` pairs in label order: two
/// commits that simulate the same statistics print the same digest.
pub fn digest<'a>(pairs: impl IntoIterator<Item = (String, &'a RunReport)>) -> String {
    let mut rows: Vec<(String, String)> = pairs
        .into_iter()
        .map(|(label, r)| (label, render(r)))
        .collect();
    rows.sort();
    let mut h = Fnv128::new();
    for (label, text) in &rows {
        h.write(label.as_bytes());
        h.write(b"\n");
        h.write(text.as_bytes());
        h.write(b"\n");
    }
    format!("{:032x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_core::engine::ExperimentGrid;
    use tdtm_core::experiments::ExperimentScale;
    use tdtm_dtm::PolicyKind;

    fn small_cells() -> Vec<GridCell> {
        let scale = ExperimentScale {
            insts: 8_000,
            warmup_cycles: 1_000,
        };
        ExperimentGrid::new(scale)
            .workload(tdtm_workloads::by_name("gcc").expect("suite program"))
            .policies(&[PolicyKind::Toggle1])
            .variants(&[("base", |_| {}), ("2core", |cfg| cfg.chip.cores = 2)])
            .cells()
    }

    #[test]
    fn engine_results_pass_and_a_perturbed_report_fails() {
        let cells = small_cells();
        let results = ExperimentGrid::new(cells[0].scale)
            .workload(cells[0].workload.clone())
            .policies(&[PolicyKind::Toggle1])
            .variants(&[("base", |_| {}), ("2core", |cfg| cfg.chip.cores = 2)])
            .run_threads(2);
        for run in &results.runs {
            let cell = &cells[run.index];
            assert!(
                matches_reference(cell, &render(&run.report)),
                "{}",
                cell.label()
            );

            let mut ipc_off_by_one_ulp = run.report.clone();
            ipc_off_by_one_ulp.ipc = f64::from_bits(ipc_off_by_one_ulp.ipc.to_bits() + 1);
            assert!(!matches_reference(cell, &render(&ipc_off_by_one_ulp)));

            let mut one_more_emergency = run.report.clone();
            one_more_emergency.blocks[0].emergency_cycles += 1;
            assert!(!matches_reference(cell, &render(&one_more_emergency)));
        }
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let cells = small_cells();
        let reports: Vec<RunReport> = cells.iter().map(resimulate).collect();
        let a = digest([
            ("x".to_string(), &reports[0]),
            ("y".to_string(), &reports[1]),
        ]);
        let b = digest([
            ("y".to_string(), &reports[1]),
            ("x".to_string(), &reports[0]),
        ]);
        assert_eq!(a, b);
        let mut perturbed = reports[1].clone();
        perturbed.committed += 1;
        let c = digest([
            ("x".to_string(), &reports[0]),
            ("y".to_string(), &perturbed),
        ]);
        assert_ne!(a, c);
    }
}
