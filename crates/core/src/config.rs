//! Top-level simulation configuration.

use tdtm_dtm::{DtmConfig, PolicyKind, SupervisorConfig};
use tdtm_power::PowerConfig;
use tdtm_thermal::block_model::{table3_blocks, BlockParams};
use tdtm_uarch::CoreConfig;

/// Ambient temperature of the paper's Table-4 chip-average convention
/// (°C).
pub const TABLE4_AMBIENT_C: f64 = 27.0;

/// Chip-wide junction-to-ambient thermal resistance of the Table-4
/// convention (K/W).
pub const TABLE4_CHIP_R_K_PER_W: f64 = 0.34;

/// The paper's Table-4 chip-average temperature convention: ambient plus
/// chip-wide R times average power.
pub fn table4_chip_temp(avg_power_w: f64) -> f64 {
    TABLE4_AMBIENT_C + TABLE4_CHIP_R_K_PER_W * avg_power_w
}

/// Multicore chip topology and hierarchical-DTM settings. The default is
/// a single core with no supervisor, under which the multicore simulator
/// reproduces the single-core path byte-identically.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChipConfig {
    /// Number of replicated cores on the chip.
    pub cores: usize,
    /// Lateral coupling strength: multiplier on the tangential conductance
    /// joining corresponding blocks of adjacent cores (0.0 disconnects the
    /// cores thermally).
    pub coupling: f64,
    /// Heterogeneity factor `h`: core `k` of `N` gets its thermal
    /// resistances scaled by `1 + h·k/(N-1)` (core 0 always nominal).
    pub heterogeneity: f64,
    /// Chip-level supervisor redistributing the thermal budget across
    /// cores (`None` leaves the per-core policies fully autonomous).
    pub supervisor: Option<SupervisorConfig>,
    /// Policy run on cores 1..N when set (core 0 always runs the main
    /// `dtm.policy`); used by the interference experiments to pit a
    /// throttled core against unthrottled hot neighbors.
    pub neighbor_policy: Option<PolicyKind>,
}

impl Default for ChipConfig {
    fn default() -> ChipConfig {
        ChipConfig {
            cores: 1,
            coupling: 1.0,
            heterogeneity: 0.0,
            supervisor: None,
            neighbor_policy: None,
        }
    }
}

impl ChipConfig {
    /// Whether this is a lone core without a supervisor: such a cell runs
    /// on the single-core [`Simulator`](crate::Simulator), everything
    /// else on the multicore chip.
    pub fn is_single_core(&self) -> bool {
        self.cores == 1 && self.supervisor.is_none()
    }
}

/// Everything one simulation run needs.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Core microarchitecture (paper Table 2).
    pub core: CoreConfig,
    /// Power model settings.
    pub power: PowerConfig,
    /// DTM policy and thresholds.
    pub dtm: DtmConfig,
    /// Thermal parameters of the tracked blocks (paper Table 3). Must
    /// stay in `THERMAL_BLOCKS` order.
    pub blocks: Vec<BlockParams>,
    /// Heatsink temperature during the run (C). The paper holds the
    /// heatsink constant — its time constant is minutes — at a
    /// "has-risen-to" operating value for the DTM experiments.
    pub heatsink_temp: f64,
    /// Committed instructions to simulate (after warmups).
    pub max_insts: u64,
    /// Hard cycle bound (safety net for fully-gated runs).
    pub max_cycles: u64,
    /// Cycles of thermal/pipeline warmup excluded from metrics. During
    /// warmup the thermal state evolves and DTM runs, but nothing is
    /// counted.
    pub thermal_warmup_cycles: u64,
    /// Whether to jump-start block temperatures at the steady state of
    /// the power observed over the first sampling interval (in addition
    /// to the warmup window).
    pub warm_start: bool,
    /// Optional temperature-dependent leakage (an extension — the paper's
    /// 0.18 µm model is dynamic-power only; `None` reproduces it).
    pub leakage: Option<tdtm_power::LeakageModel>,
    /// Chip topology: core count, thermal coupling, and the hierarchical
    /// DTM supervisor. Ignored by the single-core [`Simulator`]; the
    /// multicore simulator reads it.
    ///
    /// [`Simulator`]: crate::simulator::Simulator
    pub chip: ChipConfig,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            core: CoreConfig::alpha21264_like(),
            power: PowerConfig::default(),
            dtm: DtmConfig::default(),
            blocks: table3_blocks(),
            heatsink_temp: 103.0,
            max_insts: 1_000_000,
            max_cycles: 200_000_000,
            thermal_warmup_cycles: 100_000,
            warm_start: true,
            leakage: None,
            chip: ChipConfig::default(),
        }
    }
}

impl SimConfig {
    /// Cycle time in seconds at nominal frequency.
    pub fn cycle_time(&self) -> f64 {
        self.core.cycle_time()
    }

    /// A configuration scaled for quick tests: small instruction budget
    /// and short warmup.
    pub fn quick_test() -> SimConfig {
        SimConfig {
            max_insts: 30_000,
            thermal_warmup_cycles: 2_000,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_uarch::activity::THERMAL_BLOCKS;

    #[test]
    fn default_blocks_match_thermal_block_order() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.blocks.len(), THERMAL_BLOCKS.len());
        // Names line up pairwise (table3 uses the paper's table names).
        let pairs = [
            ("LSQ", "LSQ"),
            ("inst. window", "window"),
            ("regfile", "regfile"),
            ("bpred", "bpred"),
            ("D-cache", "D-cache"),
            ("int exec. unit", "IntALU"),
            ("FP exec. unit", "FPALU"),
        ];
        for ((b, t), (bn, tn)) in cfg.blocks.iter().zip(THERMAL_BLOCKS).zip(pairs) {
            assert_eq!(b.name, bn);
            assert_eq!(t.name(), tn);
        }
    }

    #[test]
    fn defaults_are_runnable() {
        let cfg = SimConfig::default();
        assert!(cfg.heatsink_temp < cfg.dtm.emergency);
        assert!(cfg.max_cycles > cfg.max_insts);
    }

    #[test]
    fn default_chip_is_a_lone_core() {
        let chip = ChipConfig::default();
        assert_eq!(chip.cores, 1);
        assert_eq!(chip.heterogeneity, 0.0);
        assert!(chip.supervisor.is_none());
        assert!(chip.neighbor_policy.is_none());
        assert!(chip.is_single_core());
        assert_eq!(SimConfig::default().chip, chip);
    }

    #[test]
    fn table4_convention_matches_paper_numbers() {
        assert!((table4_chip_temp(0.0) - 27.0).abs() < 1e-12);
        assert!((table4_chip_temp(40.0) - 40.6).abs() < 1e-12);
    }
}
