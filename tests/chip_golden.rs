//! Golden digests of N ≥ 2 chip runs.
//!
//! The other chip pins compare a chip against itself (skip on vs off,
//! telemetry on vs off, one thread vs many) or degenerate it to one core.
//! These pin 2- and 4-core `ChipReport`s and per-core duty histories to
//! fixed FNV-1a-128 digests of their `Debug` renderings (which distinguish
//! every f64 bit pattern short of NaN), so a refactor of the chip loop
//! that shifts any cycle, sample or bit fails here. Every case runs with
//! idle-gap skipping on and off, and both must hit the same digests.
//!
//! A change that alters chip semantics on purpose must re-record the
//! digests and say why.

use std::fmt::Write as _;
use tdtm::core::{MulticoreSim, SimConfig};
use tdtm::dtm::{PolicyKind, SupervisorConfig};
use tdtm::power::LeakageModel;
use tdtm::workloads::by_name;
use tdtm_prng::Fnv128;

/// One pinned chip configuration.
struct Case {
    label: &'static str,
    cores: usize,
    policy: PolicyKind,
    supervisor: bool,
    heterogeneity: f64,
    leakage: bool,
    warm_start: bool,
    /// Runs cores 1..N unthrottled, so they finish early and park.
    neighbors_unthrottled: bool,
    /// Digest of `format!("{:?}", ChipReport)`.
    report: u128,
    /// Digest of every core's duty history, in core order.
    duty: u128,
}

impl Case {
    fn config(&self) -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.max_insts = 20_000;
        // Bounds the runs no policy can finish (runaway leakage, a core
        // gated shut) and pins the cycle-budget park.
        cfg.max_cycles = 80_000;
        cfg.thermal_warmup_cycles = 1_000;
        cfg.heatsink_temp = 107.0;
        cfg.dtm.policy = self.policy;
        cfg.warm_start = self.warm_start;
        if !self.warm_start {
            // A cold chip starts at the heatsink; thresholds just above
            // it make the policies act within the short run.
            cfg.dtm.trigger = 107.2;
            cfg.dtm.setpoint = 107.4;
        }
        cfg.leakage = self.leakage.then(LeakageModel::node_180nm);
        cfg.chip.cores = self.cores;
        cfg.chip.heterogeneity = self.heterogeneity;
        cfg.chip.supervisor = self.supervisor.then(SupervisorConfig::default);
        if self.neighbors_unthrottled {
            cfg.chip.neighbor_policy = Some(PolicyKind::None);
        }
        cfg
    }

    /// The report and duty-history digests of one run.
    fn run(&self, skip: bool) -> (u128, u128) {
        let w = by_name("gcc").expect("suite workload");
        let mut sim = MulticoreSim::for_workload(self.config(), &w);
        sim.set_skip(skip);
        let report = sim.run();
        let mut h = Fnv128::new();
        write!(h, "{report:?}").expect("hashing never fails");
        let mut d = Fnv128::new();
        for k in 0..sim.cores() {
            write!(d, "{:?};", sim.duty_history(k)).expect("hashing never fails");
        }
        (h.finish(), d.finish())
    }
}

const fn case(
    label: &'static str,
    cores: usize,
    policy: PolicyKind,
    (supervisor, heterogeneity, leakage, warm_start): (bool, f64, bool, bool),
    neighbors_unthrottled: bool,
    (report, duty): (u128, u128),
) -> Case {
    Case {
        label,
        cores,
        policy,
        supervisor,
        heterogeneity,
        leakage,
        warm_start,
        neighbors_unthrottled,
        report,
        duty,
    }
}

// (supervisor, heterogeneity, leakage, warm start), then the digests
// recorded before the chip loop moved onto the shared per-core step.
#[rustfmt::skip]
const CASES: &[Case] = &[
    case("pid x2", 2, PolicyKind::Pid, (false, 0.0, false, true), false,
        (0xecf624b4_616fdd33_8db8a002_41069ea2, 0x078550df_c44d4f26_cc76eccb_a42b7ed3)),
    case("pid x2 sup het", 2, PolicyKind::Pid, (true, 0.3, false, true), false,
        (0x0fb8a95b_68ee6c5c_3b0c4116_677b0f9d, 0x37e91ff5_95c28cba_3cdc950b_bc0d1936)),
    case("pid x2 leak cold", 2, PolicyKind::Pid, (false, 0.0, true, false), false,
        (0xff2dd287_7610a107_d6525163_1426702a, 0x40556f21_9cf771b1_7b244ef9_542ae45b)),
    case("pid x4 sup", 4, PolicyKind::Pid, (true, 0.0, false, true), false,
        (0x91d9829f_89cea625_d0fbd179_66ef8d5e, 0x9629cfe8_5fc98a4d_b3e909ae_7559bd31)),
    case("pid x4 cold het", 4, PolicyKind::Pid, (false, 0.5, false, false), false,
        (0xc54ca80c_adc17577_42c9d99e_350e03a2, 0xf1089f2b_a2c555d5_94c894fe_0f3e5c1d)),
    case("vf x2", 2, PolicyKind::VfScale, (false, 0.0, false, true), false,
        (0xf7d026e0_fe135ded_8168f37d_17d3ec24, 0x14deb2ff_23672945_fe16cb80_0713cbdd)),
    case("vf x2 sup cold", 2, PolicyKind::VfScale, (true, 0.0, false, false), false,
        (0xd141a679_09020488_df2983e7_bbf80293, 0xca17e588_5e99da53_5ba8b022_a7d180dd)),
    case("vf x4 sup het leak", 4, PolicyKind::VfScale, (true, 0.5, true, true), false,
        (0x5ffc3a68_dd72d5dd_495d974a_34f68b13, 0x5a3590dc_21e3c1d2_8d016fe6_6f44cced)),
    case("toggle x2", 2, PolicyKind::Toggle1, (false, 0.0, false, true), false,
        (0x6b01ac58_96a4f60b_2fa512b1_97fc3184, 0x7bd19d4c_c142cade_08e4de44_dee96b75)),
    case("toggle x2 het leak", 2, PolicyKind::Toggle1, (false, 0.3, true, true), false,
        (0x12531ed5_4fe10e3b_3b9f218b_290bb7a5, 0x02e901e4_e7450678_1878a458_074c7ec5)),
    case("toggle x4 sup cold", 4, PolicyKind::Toggle1, (true, 0.0, false, false), false,
        (0x4bbe6f5d_1fd6818a_2f55c0f9_93e112c1, 0xfb9f0851_209086b0_e461f523_1ba44a71)),
    case("toggle x4 parked", 4, PolicyKind::Toggle1, (false, 0.0, false, true), true,
        (0x36437cca_a2607700_a2eaca77_9ba51f95, 0x556fe6b6_ab071176_f2ddacbf_304cf23c)),
];

#[test]
fn chip_reports_match_their_recorded_digests() {
    let mut mismatches = Vec::new();
    for case in CASES {
        for skip in [true, false] {
            let (report, duty) = case.run(skip);
            if (report, duty) != (case.report, case.duty) {
                mismatches.push(format!(
                    "{} (skip {skip}): report {report:#034x}, duty {duty:#034x}",
                    case.label
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}
