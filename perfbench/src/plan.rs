//! The benchmark's workloads: the inputs each one feeds the simulator,
//! generated from the `--seed` argument alone.
//!
//! The simulator only ever sees the generated grids; the seed never
//! reaches it.

use tdtm_core::engine::{ExperimentGrid, GridCell, GridResults};
use tdtm_core::experiments::{interference_variants, ExperimentScale};
use tdtm_core::RunReport;
use tdtm_dtm::PolicyKind;
use tdtm_prng::Rng;
use tdtm_workloads::{ThermalCategory, Workload};

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// The Section 7 grid: 18 programs × 7 policies, cold.
    PaperGrid,
    /// Hot coupled multicore chips under per-core DTM.
    HotChip,
    /// Repeated sweeps served mostly from a warm disk cache.
    WarmSweep,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper_grid" => Some(Kind::PaperGrid),
            "hot_chip" => Some(Kind::HotChip),
            "warm_sweep" => Some(Kind::WarmSweep),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper_grid",
            Kind::HotChip => "hot_chip",
            Kind::WarmSweep => "warm_sweep",
        }
    }

    /// Keeps the workloads' random streams apart for one seed.
    fn stream(self) -> u64 {
        match self {
            Kind::PaperGrid => 0x7061_7065_725f_6772,
            Kind::HotChip => 0x686f_745f_6368_6970,
            Kind::WarmSweep => 0x7761_726d_5f73_7770,
        }
    }

    /// The seeded random stream of this workload's `order`th cell order.
    pub fn rng(self, seed: u64, order: u64) -> Rng {
        Rng::new(seed ^ self.stream() ^ order.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Cell orders a grid workload's seed draws. Cold pass `k` runs order
/// `k % ORDERS`, so every run (at least [`ORDERS`] passes) averages its
/// throughput over the same few dispatch orders instead of resting on
/// one: under batched dispatch the order alone moved a pass's time by
/// about a tenth.
pub const ORDERS: u64 = 4;

/// Budget of one `paper_grid` cell: short enough that a cold grid pass
/// takes about five seconds on two workers, so a run holds several.
pub const PAPER_SCALE: ExperimentScale = ExperimentScale {
    insts: 40_000,
    warmup_cycles: 4_000,
};

/// Budget of one `hot_chip` cell (per core).
pub const HOT_SCALE: ExperimentScale = ExperimentScale {
    insts: 40_000,
    warmup_cycles: 4_000,
};

/// Budget of one `warm_sweep` pool cell: small, because the workload is
/// about serving results, not computing them.
pub const POOL_SCALE: ExperimentScale = ExperimentScale {
    insts: 5_000,
    warmup_cycles: 1_000,
};

/// The Section 7 policy axis: the non-DTM baseline, fixed toggling, the
/// hand-built controller "M", and the control-theoretic P/PI/PID.
pub const PAPER_POLICIES: [PolicyKind; 7] = [
    PolicyKind::None,
    PolicyKind::Toggle1,
    PolicyKind::Toggle2,
    PolicyKind::Manual,
    PolicyKind::P,
    PolicyKind::Pi,
    PolicyKind::Pid,
];

/// The `hot_chip` policy axis, with the adaptive-gain (Rao et al.) and
/// stability-aware (Bhat et al.) controllers.
pub const HOT_POLICIES: [PolicyKind; 5] = [
    PolicyKind::None,
    PolicyKind::Pid,
    PolicyKind::Toggle1,
    PolicyKind::StabilityAware,
    PolicyKind::AdaptiveI,
];

/// The coupled-chip variants of `hot_chip` (107 °C heatsink, unthrottled
/// neighbors that finish and park).
pub const HOT_VARIANTS: [&str; 3] = ["4core-super", "4core-hetero", "2core-strong"];

/// The `warm_sweep` pool's policy axis; it holds the baseline, toggle1
/// and PID so the paper's claim can be read off the pool.
pub const POOL_POLICIES: [PolicyKind; 4] = [
    PolicyKind::None,
    PolicyKind::Toggle1,
    PolicyKind::Pi,
    PolicyKind::Pid,
];

/// Programs each sweep requests from the pool (× every pool policy).
pub const SWEEP_PROGRAMS: usize = 16;

/// One sweep in this many also requests a cell the pool does not hold.
/// Rare enough that simulation stays a small share of the sweeps' time
/// and that `request_ms_p90` falls among the cached sweeps, rather than
/// following which programs a seed draws for its new cells.
pub const MISS_EVERY: u64 = 20;

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// The `paper_grid` grid: every suite program under every Section 7
/// policy at the default heatsink. The seed and `order` permute the
/// program and policy axes, and so the cell order the engine dispatches.
pub fn paper_grid(seed: u64, order: u64, suite: &[Workload]) -> ExperimentGrid {
    let mut rng = Kind::PaperGrid.rng(seed, order);
    let mut programs = suite.to_vec();
    shuffle(&mut programs, &mut rng);
    let mut policies = PAPER_POLICIES.to_vec();
    shuffle(&mut policies, &mut rng);
    with_programs(
        ExperimentGrid::new(PAPER_SCALE).policies(&policies),
        programs,
    )
}

/// The `hot_chip` grid: every Extreme- and High-category program × the
/// hot policies × the coupled-chip variants. The seed and `order` draw
/// the order of all three axes. It keeps every program of the two
/// categories: a partial draw makes the cell mix, and so `cells_per_s`,
/// differ from seed to seed by more than run-to-run noise.
pub fn hot_chip(seed: u64, order: u64, suite: &[Workload]) -> ExperimentGrid {
    let mut rng = Kind::HotChip.rng(seed, order);
    let mut programs: Vec<Workload> = suite
        .iter()
        .filter(|w| matches!(w.category, ThermalCategory::Extreme | ThermalCategory::High))
        .cloned()
        .collect();
    shuffle(&mut programs, &mut rng);
    let mut policies = HOT_POLICIES.to_vec();
    shuffle(&mut policies, &mut rng);
    let mut variants: Vec<_> = interference_variants()
        .into_iter()
        .filter(|(name, _)| HOT_VARIANTS.contains(name))
        .collect();
    assert_eq!(
        variants.len(),
        HOT_VARIANTS.len(),
        "every hot variant exists"
    );
    shuffle(&mut variants, &mut rng);
    with_programs(
        ExperimentGrid::new(HOT_SCALE)
            .policies(&policies)
            .variants(&variants),
        programs,
    )
}

/// The `warm_sweep` pool: every suite program × the pool policies, in a
/// seeded order. Set-up simulates it once into a fresh disk cache.
pub fn pool_grid(seed: u64, suite: &[Workload]) -> ExperimentGrid {
    let mut rng = Kind::WarmSweep.rng(seed, 0);
    let mut programs = suite.to_vec();
    shuffle(&mut programs, &mut rng);
    let mut policies = POOL_POLICIES.to_vec();
    shuffle(&mut policies, &mut rng);
    with_programs(
        ExperimentGrid::new(POOL_SCALE).policies(&policies),
        programs,
    )
}

/// The grids sweep number `sweep` streams: a seeded draw of
/// [`SWEEP_PROGRAMS`] pool programs × every pool policy (all cached),
/// and on one sweep in [`MISS_EVERY`] one cell the pool does not hold.
/// The new cell runs at a budget no earlier sweep used, so it is a
/// cache miss every time.
pub fn sweep_grids(
    seed: u64,
    sweep: u64,
    suite: &[Workload],
) -> (ExperimentGrid, Option<ExperimentGrid>) {
    let mut rng = Kind::WarmSweep.rng(seed, sweep + 1);
    let mut programs = suite.to_vec();
    shuffle(&mut programs, &mut rng);
    programs.truncate(SWEEP_PROGRAMS);
    let fresh_program = programs[rng.index(programs.len())].clone();
    let fresh_policy = *rng.choose(&POOL_POLICIES);
    let hits = with_programs(
        ExperimentGrid::new(POOL_SCALE).policies(&POOL_POLICIES),
        programs,
    );
    let fresh = sweep.is_multiple_of(MISS_EVERY).then(|| {
        let scale = ExperimentScale {
            insts: POOL_SCALE.insts + 1 + sweep / MISS_EVERY,
            warmup_cycles: POOL_SCALE.warmup_cycles,
        };
        ExperimentGrid::new(scale)
            .workload(fresh_program)
            .policies(&[fresh_policy])
            .variant("fresh", |_| {})
    });
    (hits, fresh)
}

fn with_programs(mut grid: ExperimentGrid, programs: Vec<Workload>) -> ExperimentGrid {
    for program in programs {
        grid = grid.workload(program);
    }
    grid
}

/// The grid a workload times in `order` (`warm_sweep`: its pool, which
/// has one order).
pub fn timed_grid(kind: Kind, seed: u64, order: u64, suite: &[Workload]) -> ExperimentGrid {
    match kind {
        Kind::PaperGrid => paper_grid(seed, order % ORDERS, suite),
        Kind::HotChip => hot_chip(seed, order % ORDERS, suite),
        Kind::WarmSweep => pool_grid(seed, suite),
    }
}

/// A seeded sample of `k` distinct cell positions out of `n`, sorted.
pub fn sample(kind: Kind, seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ kind.stream() ^ 0x6368_6563_6b5f_7361);
    let mut idx: Vec<usize> = (0..n).collect();
    shuffle(&mut idx, &mut rng);
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

/// The paper's headline claim: the control-theoretic policies cut DTM's
/// performance loss by about this share relative to toggle1 (percent).
pub const PAPER_LOSS_REDUCTION_PCT: f64 = 65.0;

/// Absolute gap, in percentage points, between the PID-vs-toggle1 loss
/// reduction measured over `runs` and the paper's ~65%. The loss of a
/// policy is `100 − % of non-DTM IPC`, averaged over every
/// (program, variant) group that holds the baseline, toggle1 and PID —
/// the same reduction `fig_dtm_performance` prints. `NaN` when no group
/// is complete.
pub fn claim_error_pp<'a>(runs: impl IntoIterator<Item = (&'a GridCellKey, &'a RunReport)>) -> f64 {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, String), [Option<&RunReport>; 3]> = BTreeMap::new();
    for (key, report) in runs {
        let Some(slot) = [PolicyKind::None, PolicyKind::Toggle1, PolicyKind::Pid]
            .iter()
            .position(|p| p.name() == key.policy)
        else {
            continue;
        };
        groups
            .entry((key.bench.clone(), key.variant.clone()))
            .or_default()[slot] = Some(report);
    }
    let (mut loss_t1, mut loss_pid, mut n) = (0.0, 0.0, 0usize);
    for group in groups.values() {
        if let [Some(base), Some(t1), Some(pid)] = group {
            loss_t1 += 100.0 - t1.percent_of(base);
            loss_pid += 100.0 - pid.percent_of(base);
            n += 1;
        }
    }
    if n == 0 || loss_t1 == 0.0 {
        return f64::NAN;
    }
    let reduction = 100.0 * (1.0 - loss_pid / loss_t1);
    (reduction - PAPER_LOSS_REDUCTION_PCT).abs()
}

/// The identity of a cell's result, independent of its grid position.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct GridCellKey {
    /// Program name.
    pub bench: String,
    /// DTM policy name.
    pub policy: String,
    /// Variant name.
    pub variant: String,
    /// Committed-instruction budget (sweeps mix budgets).
    pub insts: u64,
}

impl GridCellKey {
    /// The key of a grid cell.
    pub fn of(cell: &GridCell) -> GridCellKey {
        GridCellKey {
            bench: cell.workload.name.to_string(),
            policy: cell.policy.to_string(),
            variant: cell.variant.to_string(),
            insts: cell.scale.insts,
        }
    }

    /// A printable label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}@{}",
            self.bench, self.policy, self.variant, self.insts
        )
    }
}

/// Pairs each result of a grid run with its cell's key.
pub fn keyed<'a, R>(
    cells: &'a [GridCell],
    results: &'a GridResults<R>,
) -> impl Iterator<Item = (GridCellKey, &'a RunReport)> + 'a {
    results
        .runs
        .iter()
        .map(move |run| (GridCellKey::of(&cells[run.index]), &run.report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(grid: &ExperimentGrid) -> Vec<String> {
        grid.cells()
            .iter()
            .map(|c| GridCellKey::of(c).label())
            .collect()
    }

    #[test]
    fn a_seed_generates_the_same_grids_every_time() {
        let suite = tdtm_workloads::suite();
        for kind in [Kind::PaperGrid, Kind::HotChip, Kind::WarmSweep] {
            assert_eq!(
                labels(&timed_grid(kind, 7, 1, &suite)),
                labels(&timed_grid(kind, 7, 1, &suite))
            );
            assert_eq!(sample(kind, 7, 100, 4), sample(kind, 7, 100, 4));
        }
        let (a, fa) = sweep_grids(7, 3, &suite);
        let (b, fb) = sweep_grids(7, 3, &suite);
        assert_eq!(labels(&a), labels(&b));
        assert_eq!(fa.map(|g| labels(&g)), fb.map(|g| labels(&g)));
    }

    #[test]
    fn different_seeds_reorder_or_redraw() {
        let suite = tdtm_workloads::suite();
        for kind in [Kind::PaperGrid, Kind::HotChip, Kind::WarmSweep] {
            let a = labels(&timed_grid(kind, 1, 0, &suite));
            let b = labels(&timed_grid(kind, 2, 0, &suite));
            assert_ne!(a, b, "{kind:?}: seeds 1 and 2 gave the same order");
            let (mut sa, mut sb) = (a.clone(), b.clone());
            sa.sort();
            sb.sort();
            assert_eq!(
                sa, sb,
                "{kind:?}: a seed changes the order, not the cell set"
            );
        }
        for kind in [Kind::PaperGrid, Kind::HotChip] {
            let orders: Vec<Vec<String>> = (0..ORDERS)
                .map(|o| labels(&timed_grid(kind, 1, o, &suite)))
                .collect();
            for (i, a) in orders.iter().enumerate() {
                for b in &orders[i + 1..] {
                    assert_ne!(a, b, "{kind:?}: two orders of one seed coincide");
                }
            }
            assert_eq!(orders[0], labels(&timed_grid(kind, 1, ORDERS, &suite)));
        }
        assert_ne!(
            labels(&sweep_grids(1, 0, &suite).0),
            labels(&sweep_grids(2, 0, &suite).0)
        );
        assert_ne!(
            labels(&sweep_grids(1, 0, &suite).0),
            labels(&sweep_grids(1, 1, &suite).0)
        );
    }

    #[test]
    fn grids_have_the_documented_shape() {
        let suite = tdtm_workloads::suite();
        assert_eq!(paper_grid(0, 0, &suite).len(), 18 * 7);
        assert_eq!(hot_chip(0, 0, &suite).len(), 8 * 5 * 3);
        assert_eq!(pool_grid(0, &suite).len(), 18 * 4);
        let (hits, fresh) = sweep_grids(0, 0, &suite);
        assert_eq!(hits.len(), SWEEP_PROGRAMS * POOL_POLICIES.len());
        assert_eq!(fresh.map(|g| g.len()), Some(1));
        assert!(sweep_grids(0, 1, &suite).1.is_none());
        for cell in hot_chip(0, 0, &suite).cells() {
            let cfg = cell.config();
            assert!(cfg.chip.cores > 1);
            assert_eq!(cfg.heatsink_temp, 107.0);
            assert_eq!(cfg.chip.neighbor_policy, Some(PolicyKind::None));
        }
    }

    #[test]
    fn fresh_cells_never_repeat_a_budget() {
        let suite = tdtm_workloads::suite();
        let budgets: Vec<u64> = (0..30)
            .filter_map(|s| sweep_grids(5, s, &suite).1)
            .map(|g| g.cells()[0].scale.insts)
            .collect();
        let mut unique = budgets.clone();
        unique.dedup();
        assert_eq!(unique, budgets);
        assert!(budgets.iter().all(|&b| b != POOL_SCALE.insts));
    }
}
