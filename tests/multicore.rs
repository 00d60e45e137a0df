//! The multicore chip simulator's contracts.
//!
//! Three pins from the chip tentpole (see DESIGN.md):
//!
//! 1. **N = 1 degeneracy** — a one-core chip with no supervisor produces
//!    a core-0 report byte-identical to the single-core `Simulator`, for
//!    every policy family including V/f scaling and the new
//!    retrieved-literature controllers, with and without
//!    temperature-dependent leakage.
//! 2. **Interference is real** — an unthrottled hot neighbor raises the
//!    throttled core's peak block temperature versus the same chip with
//!    coupling disabled, and more strongly at higher coupling.
//! 3. **Hierarchical DTM is deterministic** — supervisor plus the new
//!    policies run end-to-end across core counts 1/2/4 through the
//!    experiment engine with byte-identical results at any thread count.

use tdtm::core::engine::ExperimentGrid;
use tdtm::core::experiments::ExperimentScale;
use tdtm::core::{MulticoreSim, RunReport, SimConfig, Simulator};
use tdtm::dtm::{PolicyKind, SupervisorConfig};
use tdtm::power::LeakageModel;
use tdtm::workloads::by_name;

/// Byte-level equality (see `tests/hot_loop_identity.rs`): `PartialEq`
/// plus the shortest-roundtrip debug rendering, which distinguishes every
/// bit pattern short of NaN.
fn assert_byte_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a, b, "{what}: reports differ");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: bit patterns differ");
}

fn hot_cfg(policy: PolicyKind) -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.max_insts = 120_000;
    cfg.heatsink_temp = 107.0;
    cfg.dtm.policy = policy;
    cfg
}

#[test]
fn one_core_chip_is_byte_identical_to_the_single_core_simulator() {
    let w = by_name("gcc").expect("suite workload");
    let cases = [
        PolicyKind::None,
        PolicyKind::Pid,
        PolicyKind::VfScale,
        PolicyKind::AdaptiveI,
        PolicyKind::StabilityAware,
    ]
    .into_iter()
    .map(|policy| (policy, false))
    .chain([(PolicyKind::Pid, true), (PolicyKind::VfScale, true)]);
    for (policy, leakage) in cases {
        let mut cfg = hot_cfg(policy);
        cfg.leakage = leakage.then(LeakageModel::node_180nm);
        let mut single = Simulator::for_workload(cfg.clone(), &w);
        let expected = single.run();

        let mut chip_sim = MulticoreSim::for_workload(cfg, &w);
        let chip = chip_sim.run();
        assert_eq!(chip.cores.len(), 1);
        assert!(!chip.coupled, "one core has no coupling edges");
        assert_eq!(chip.supervisor_interventions, 0);
        assert_byte_identical(
            &expected,
            &chip.cores[0],
            &format!("policy {policy:?}, leakage {leakage}"),
        );
        assert_eq!(
            single.duty_history(),
            chip_sim.duty_history(0),
            "policy {policy:?}, leakage {leakage}: duty histories differ"
        );
    }
}

/// The tentpole's observable, at the simulator level: run a permanently
/// throttled core 0 (Toggle1 with the trigger below the heatsink, so its
/// duty pins to zero and no feedback can mask the effect) next to an
/// unthrottled hot neighbor, and compare its peak block temperature with
/// the thermally disconnected chip.
#[test]
fn hot_neighbor_raises_the_throttled_cores_peak_temperature() {
    let core0_peak = |coupling: f64| -> f64 {
        let mut cfg = SimConfig::quick_test();
        cfg.heatsink_temp = 107.0;
        cfg.dtm.policy = PolicyKind::Toggle1;
        cfg.dtm.trigger = 104.0; // below the heatsink: engaged from cycle one
        cfg.max_insts = 30_000;
        cfg.max_cycles = 60_000; // the gated core parks here
        cfg.thermal_warmup_cycles = 2_000;
        cfg.chip.cores = 2;
        cfg.chip.coupling = coupling;
        cfg.chip.neighbor_policy = Some(PolicyKind::None);
        let w = by_name("gcc").expect("suite workload");
        let chip = MulticoreSim::for_workload(cfg, &w).run();
        assert_eq!(chip.cores[1].policy, "none", "the neighbor must run unthrottled");
        chip.cores[0]
            .blocks
            .iter()
            .map(|b| b.max_temp)
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let isolated = core0_peak(0.0);
    let coupled = core0_peak(1.0);
    let strong = core0_peak(4.0);
    assert!(
        coupled > isolated + 1e-6,
        "the hot neighbor must leak into the throttled core: {coupled} vs {isolated}"
    );
    assert!(
        strong > coupled + 1e-6,
        "stronger coupling must leak more: {strong} vs {coupled}"
    );
}

/// Hierarchical DTM end-to-end: the supervisor over the per-core
/// policies — including both retrieved-literature controllers — across
/// core counts 1, 2, and 4, through the experiment engine, with
/// byte-identical reports and chip reports at any worker-thread count.
#[test]
fn supervised_chips_are_thread_count_invariant_across_core_counts() {
    fn supervised(cfg: &mut SimConfig, cores: usize) {
        cfg.max_insts = 10_000;
        cfg.thermal_warmup_cycles = 500;
        cfg.heatsink_temp = 107.0;
        cfg.chip.cores = cores;
        cfg.chip.supervisor = Some(SupervisorConfig::default());
    }
    let grid = ExperimentGrid::new(ExperimentScale::quick())
        .workload(by_name("gcc").expect("suite workload"))
        .policies(&[PolicyKind::Pid, PolicyKind::AdaptiveI, PolicyKind::StabilityAware])
        .variants(&[
            ("1core", |cfg: &mut SimConfig| supervised(cfg, 1)),
            ("2core", |cfg: &mut SimConfig| supervised(cfg, 2)),
            ("4core", |cfg: &mut SimConfig| supervised(cfg, 4)),
        ]);
    let serial = grid.run_with_threads(1, |cell| cell.run_chip());
    let parallel = grid.run_with_threads(4, |cell| cell.run_chip());
    assert_eq!(serial.runs.len(), 3 * 3);
    for (a, b) in serial.runs.iter().zip(&parallel.runs) {
        assert_byte_identical(&a.report, &b.report, &a.label());
        assert_eq!(
            format!("{:?}", a.extra),
            format!("{:?}", b.extra),
            "{}: chip reports diverged across thread counts",
            a.label()
        );
        let chip = a.extra.as_ref().expect("every supervised cell runs the chip simulator");
        let expected_cores = match a.variant {
            "1core" => 1,
            "2core" => 2,
            "4core" => 4,
            v => panic!("unknown variant {v}"),
        };
        assert_eq!(chip.cores.len(), expected_cores, "{}", a.label());
        assert_eq!(chip.cores[0], a.report, "{}: report must be core 0's", a.label());
        assert!(chip.cores[0].samples > 0, "{}: the per-core policy must sample", a.label());
    }
}
