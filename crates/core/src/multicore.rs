//! The multicore chip simulator: N replicated cores over a thermally
//! coupled die, under hierarchical DTM.
//!
//! [`MulticoreSim`] runs `cfg.chip.cores` copies of the single-core
//! machine in chip-cycle lockstep. The thermal side is the bit-tested
//! coupled kernel ([`CoupledChip`]): per-core exact-decay block models
//! joined block-by-block through tangential resistances, with inter-core
//! flows evaluated from pre-step temperatures once per cycle. The DTM
//! side is two-level: each core keeps its own sensors, policy, and
//! actuators (fetch toggling and V/f scaling, exactly the single-core
//! mechanisms), and an optional chip-level [`ChipSupervisor`] redistributes
//! the shared thermal budget each sampling interval by capping hot cores'
//! duty ceilings.
//!
//! The degenerate cases are exact, not approximate:
//!
//! * **N = 1** (or zero coupling) has no coupling edges, so the thermal
//!   step is the plain single-core kernel bit for bit, and the per-core
//!   cycle body is the single-core loops' own per-core step
//!   (`CoreState`) in the same order — core 0's [`RunReport`] is
//!   byte-identical to [`Simulator::run`] (pinned by
//!   `tests/multicore.rs`).
//! * A cool chip makes the supervisor the identity, so attaching it to a
//!   chip with thermal headroom changes nothing.
//!
//! A core *parks* when it hits its stop condition (instruction budget,
//! cycle budget, or program halt): it stops cycling, stepping, and
//! counting, and its block temperatures freeze — still visible to
//! neighbors as a thermal boundary condition — until every core is parked
//! and the chip stops. Parked cores report `-inf` to the supervisor and
//! take no further DTM samples.
//!
//! The chip loop supports the direct trigger mechanism only (the
//! single-core reference loop keeps the interrupt-delay model).

use crate::config::SimConfig;
use crate::metrics::RunReport;
use crate::simulator::{
    finalize_report, skip_default, warm_start_jump, CoreState, RunAccum, RunConsts, Simulator,
    SkipReason, SkipWindow, TelemetryState, NUM_THERMAL,
};
use std::sync::Arc;
use tdtm_dtm::{build_policy_at, ChipSupervisor, DtmCommand, DtmConfig, DtmPolicy, TriggerMechanism};
use tdtm_isa::Program;
use tdtm_power::PowerModel;
use tdtm_telemetry::{Event, EventTrace, RegistrySnapshot, Telemetry, TelemetryConfig};
use tdtm_thermal::{CoupledChip, MulticoreFloorplan};
use tdtm_workloads::Workload;

/// One core of the chip: its actuated state ([`CoreState`], the same
/// per-core step the single-core loops take), policy, and accumulators.
/// Its thermal model lives in the coupled chip.
struct CoreSlot {
    state: CoreState,
    policy: Box<dyn DtmPolicy>,
    /// This core's DTM configuration (the chip configuration with the
    /// policy swapped for neighbor cores).
    dtm: DtmConfig,
    name: String,
    duty_history: Vec<f64>,
    acc: RunAccum,
    warm_start_power: [f64; NUM_THERMAL],
    parked: bool,
}

/// The collected telemetry of one chip run: one per-core [`Telemetry`]
/// (events tagged with the core id, one metrics registry per core, stage
/// phase timers) plus a chip-level event ring for the hierarchy's own
/// decisions ([`Event::SupervisorCap`], [`Event::Park`]).
///
/// [`Event::SupervisorCap`]: tdtm_telemetry::Event::SupervisorCap
/// [`Event::Park`]: tdtm_telemetry::Event::Park
#[derive(Debug, Default)]
pub struct ChipTelemetry {
    /// Per-core collections, in core order.
    pub cores: Vec<Telemetry>,
    /// Supervisor cap decisions and park transitions, chip-wide, if the
    /// event trace was enabled.
    pub chip_events: Option<EventTrace>,
}

impl ChipTelemetry {
    /// Merges the per-core metric snapshots in core order (all cores
    /// share the simulator schema, so the merge is well-defined). `None`
    /// when metrics collection was off.
    pub fn merged_metrics(&self) -> Option<RegistrySnapshot> {
        let mut merged: Option<RegistrySnapshot> = None;
        for t in &self.cores {
            let snap = t.metrics.as_ref()?.snapshot();
            match &mut merged {
                None => merged = Some(snap),
                Some(m) => m.merge_from(&snap),
            }
        }
        merged
    }
}

/// In-flight chip telemetry: one per-core collector plus the chip-level
/// event ring. Purely observational — the run loop only touches it behind
/// `Option` tests, so a telemetry-off run executes identical simulation
/// code (ChipReports byte-identical on vs off, pinned by
/// `tests/observability.rs`).
struct ChipTelemetryState {
    cores: Vec<TelemetryState>,
    chip_events: Option<EventTrace>,
}

/// Results of one chip run: per-core reports plus chip-level counters.
#[derive(Clone, PartialEq, Debug)]
pub struct ChipReport {
    /// One report per core, in core order (core 0 keeps the plain
    /// workload name; core `k` is suffixed `#k`).
    pub cores: Vec<RunReport>,
    /// Sampling intervals on which the supervisor capped at least one
    /// core (0 without a supervisor).
    pub supervisor_interventions: u64,
    /// Whether any inter-core coupling edges were present.
    pub coupled: bool,
    /// Chip cycles executed (the lockstep clock, counting warmup).
    pub chip_cycles: u64,
}

impl ChipReport {
    /// The chip-wide peak block temperature: `(core, block, temp)`.
    pub fn hottest(&self) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::NEG_INFINITY);
        for (k, r) in self.cores.iter().enumerate() {
            for (b, m) in r.blocks.iter().enumerate() {
                if m.max_temp > best.2 {
                    best = (k, b, m.max_temp);
                }
            }
        }
        best
    }

    /// Total cycles any core spent in thermal emergency.
    pub fn emergency_cycles(&self) -> u64 {
        self.cores.iter().map(|r| r.emergency_cycles).sum()
    }
}

/// A full simulation of one program on an N-core chip.
///
/// All cores run the same program (each on its own pipeline), which makes
/// the cross-core-interference scenarios deterministic: differences
/// between cores come only from DTM throttling, heterogeneity, and
/// thermal coupling, never from workload skew.
pub struct MulticoreSim {
    cfg: SimConfig,
    chip: CoupledChip,
    slots: Vec<CoreSlot>,
    supervisor: Option<ChipSupervisor>,
    power: Arc<PowerModel>,
    chip_cycles: u64,
    /// Telemetry to collect on the next [`run`](MulticoreSim::run).
    telemetry: Option<ChipTelemetryState>,
    /// Collected telemetry of the last run.
    collected: Option<ChipTelemetry>,
    /// Fast-forwards chip-level gaps in which every active core is
    /// provably idle (see [`set_skip`](MulticoreSim::set_skip); defaults
    /// from `TDTM_SKIP`).
    skip: bool,
    /// Records one [`SkipWindow`] per chip-level gap when enabled.
    log_skip_windows: bool,
    /// The skip-window log of the last run (when enabled).
    skip_windows: Vec<SkipWindow>,
}

impl MulticoreSim {
    /// Builds a chip simulator over an arbitrary program (no warmup
    /// skip).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.chip.cores` is zero or the DTM trigger mechanism is
    /// not [`TriggerMechanism::Direct`].
    pub fn new(cfg: SimConfig, program: Program) -> MulticoreSim {
        let name = program.name.clone();
        MulticoreSim::build(cfg, Arc::new(program), &name, 0, None)
    }

    /// Builds a chip simulator for a suite workload, honoring its
    /// functional warmup skip on every core.
    pub fn for_workload(cfg: SimConfig, workload: &Workload) -> MulticoreSim {
        MulticoreSim::build(
            cfg,
            workload.program_shared(),
            workload.name,
            workload.warmup_insts,
            None,
        )
    }

    /// [`for_workload`](MulticoreSim::for_workload) with a prebuilt,
    /// shared power model (one model serves every core — all cores share
    /// `cfg.power`/`cfg.core`).
    pub fn for_workload_with_power(
        cfg: SimConfig,
        workload: &Workload,
        power: Arc<PowerModel>,
    ) -> MulticoreSim {
        MulticoreSim::build(
            cfg,
            workload.program_shared(),
            workload.name,
            workload.warmup_insts,
            Some(power),
        )
    }

    fn build(
        cfg: SimConfig,
        program: Arc<Program>,
        name: &str,
        skip: u64,
        power: Option<Arc<PowerModel>>,
    ) -> MulticoreSim {
        let n = cfg.chip.cores;
        assert!(n > 0, "need at least one core");
        assert!(
            matches!(cfg.dtm.mechanism, TriggerMechanism::Direct),
            "the multicore simulator supports direct triggering only"
        );
        let power = power.unwrap_or_else(|| Arc::new(PowerModel::new(&cfg.power, &cfg.core)));
        let chip = MulticoreFloorplan::with_blocks(n, cfg.blocks.clone())
            .coupling(cfg.chip.coupling)
            .heterogeneity(cfg.chip.heterogeneity)
            .build_chip(cfg.heatsink_temp, cfg.cycle_time());
        let slots = (0..n)
            .map(|k| {
                let mut dtm = cfg.dtm;
                if k > 0 {
                    if let Some(p) = cfg.chip.neighbor_policy {
                        dtm.policy = p;
                    }
                }
                CoreSlot {
                    state: CoreState::new(&cfg, program.clone(), skip),
                    policy: build_policy_at(&dtm, cfg.core.clock_hz),
                    dtm,
                    name: if k == 0 {
                        name.to_string()
                    } else {
                        format!("{name}#{k}")
                    },
                    duty_history: Vec::new(),
                    acc: RunAccum::new(),
                    warm_start_power: [0.0; NUM_THERMAL],
                    parked: false,
                }
            })
            .collect();
        let supervisor = cfg.chip.supervisor.map(|sc| ChipSupervisor::new(sc, n));
        MulticoreSim {
            cfg,
            chip,
            slots,
            supervisor,
            power,
            chip_cycles: 0,
            telemetry: None,
            collected: None,
            skip: skip_default(),
            log_skip_windows: false,
            skip_windows: Vec::new(),
        }
    }

    /// Enables or disables chip-level idle-gap skipping, overriding the
    /// `TDTM_SKIP` default. A gap opens only when *every* active core is
    /// simultaneously inside a provably-idle window (parked cores are
    /// idle by definition), and elides only the pipeline/power phase —
    /// the coupled thermal step and all accounting still run per cycle —
    /// so [`ChipReport`]s stay byte-identical either way (pinned by
    /// `tests/hot_loop_identity.rs`).
    pub fn set_skip(&mut self, on: bool) {
        self.skip = on;
    }

    /// Enables skip-window logging for the next
    /// [`run`](MulticoreSim::run); see
    /// [`skip_windows`](MulticoreSim::skip_windows).
    pub fn record_skip_windows(&mut self) {
        self.log_skip_windows = true;
    }

    /// The chip-level skip-window log of the last run (empty unless
    /// [`record_skip_windows`](MulticoreSim::record_skip_windows) was
    /// enabled and gaps actually opened). A gap in which at least one
    /// core sat parked reports [`SkipReason::Parked`]; an all-resync gap
    /// reports [`SkipReason::Resync`]; otherwise the gated cause wins
    /// over the drained one.
    pub fn skip_windows(&self) -> &[SkipWindow] {
        &self.skip_windows
    }

    /// Enables telemetry collection for the next [`run`](MulticoreSim::run):
    /// one collector per core (every event tagged with its core id) plus a
    /// chip-level event ring for supervisor caps and park transitions.
    /// The collected [`ChipTelemetry`] is available from
    /// [`take_telemetry`](MulticoreSim::take_telemetry) afterwards.
    /// Collection never changes the simulation: the [`ChipReport`] is
    /// byte-identical with telemetry on or off (pinned by test).
    ///
    /// Phase timing on the chip covers the pipeline stage timers only;
    /// the lockstep loop does not wrap the shared thermal step or the
    /// controllers in per-call timers.
    pub fn enable_telemetry(&mut self, cfg: &TelemetryConfig) {
        if cfg.phases {
            for slot in &mut self.slots {
                slot.state.core.set_stage_profiling(true);
            }
        }
        self.telemetry = Some(ChipTelemetryState {
            cores: (0..self.slots.len())
                .map(|k| TelemetryState::with_core(cfg, k))
                .collect(),
            chip_events: cfg.events.map(|e| EventTrace::new(e.capacity, e.stride)),
        });
    }

    /// The telemetry collected by the last run, if enabled.
    pub fn telemetry(&self) -> Option<&ChipTelemetry> {
        self.collected.as_ref()
    }

    /// Takes ownership of the collected telemetry.
    pub fn take_telemetry(&mut self) -> Option<ChipTelemetry> {
        self.collected.take()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.slots.len()
    }

    /// The coupled thermal model (current temperatures, edges).
    pub fn chip(&self) -> &CoupledChip {
        &self.chip
    }

    /// The chip-level supervisor, if configured.
    pub fn supervisor(&self) -> Option<&ChipSupervisor> {
        self.supervisor.as_ref()
    }

    /// Sampled fetch-duty history of core `k` (post-supervisor-cap, one
    /// entry per DTM sample taken by that core).
    pub fn duty_history(&self, k: usize) -> &[f64] {
        &self.slots[k].duty_history
    }

    /// Runs every core to its stop condition and returns the chip report.
    ///
    /// The loop advances all cores in chip-cycle lockstep, chunked to the
    /// DTM sampling boundary exactly like the single-core fast loop. Each
    /// cycle: (1) every active core checks its stop conditions, then
    /// executes one pipeline cycle and computes its scaled block powers
    /// (plus optional leakage from its own pre-step temperatures); (2)
    /// the coupled kernel steps the whole chip once, evaluating the
    /// inter-core flows from pre-step temperatures; (3) every active core
    /// folds the cycle into its accumulators. At each sampling boundary
    /// every active core senses and samples its policy; the supervisor
    /// (if any) then caps the commands before they are applied.
    ///
    /// Conducted heat is a flow, not dissipation: reported per-block and
    /// chip powers exclude the coupling flows.
    pub fn run(&mut self) -> ChipReport {
        let MulticoreSim {
            cfg,
            chip,
            slots,
            supervisor,
            power,
            chip_cycles,
            telemetry,
            collected,
            skip,
            log_skip_windows,
            skip_windows,
        } = self;
        skip_windows.clear();
        // Detached for the loop (same discipline as the single-core
        // path); flushed into `collected` at the end.
        let mut tstate = telemetry.take();
        let stage_start: Vec<[u64; 6]> =
            slots.iter().map(|s| s.state.core.stage_nanos()).collect();
        let cycles_start: Vec<u64> = slots.iter().map(|s| s.state.core.stats().cycles).collect();
        let rc = RunConsts::new(cfg, power, *skip);
        let n = slots.len();
        let mut powers: Vec<Vec<f64>> = vec![vec![0.0; NUM_THERMAL]; n];
        let mut totals = vec![0.0f64; n];
        let mut active: Vec<bool> = slots.iter().map(|s| !s.parked).collect();
        let mut hottest = vec![f64::NEG_INFINITY; n];
        let mut cmds: Vec<Option<DtmCommand>> = (0..n).map(|_| None).collect();
        let mut gap_remaining: u64 = 0;

        'run: loop {
            if active.iter().all(|a| !a) {
                break;
            }
            let mut remaining = rc.interval - *chip_cycles % rc.interval;
            while remaining > 0 {
                // Chip-level idle-gap fast-forward: when every active
                // core is simultaneously inside a provably-idle window
                // ([`CoreState::idle_window`] — parked cores are idle by
                // definition), phase 1 produces the bitwise-same idle
                // powers every cycle. The loop stages those powers once,
                // applies the cores' window bookkeeping wholesale
                // (nothing observes a core mid-gap), and elides phase 1
                // for the gap; phases 2 and 3 — the coupled thermal
                // step, telemetry, and accounting — still run per cycle,
                // which is what keeps ChipReports and telemetry
                // byte-identical to the non-skipping loop even with
                // coupling attached. Gaps are clipped so no stop
                // condition, park transition, warmup crossing, or DTM
                // boundary can fall inside them; a core due to park
                // *this* cycle must park through phase 1 (the active
                // mask feeds the masked thermal step).
                if gap_remaining == 0 && rc.skip {
                    let mut gap = Some(remaining);
                    let (mut any_parked, mut all_resync, mut any_gated) = (false, true, false);
                    for slot in slots.iter_mut() {
                        if slot.parked {
                            any_parked = true;
                            continue;
                        }
                        let window = if slot.state.stopped(&mut slot.acc, &rc) {
                            None
                        } else {
                            slot.state.idle_window(&slot.acc, remaining, &rc)
                        };
                        let Some((len, reason)) = window else {
                            gap = None;
                            break;
                        };
                        gap = gap.map(|m| m.min(len));
                        all_resync &= reason == SkipReason::Resync;
                        any_gated |= reason == SkipReason::Gated;
                    }
                    if let Some(m) = gap {
                        for (k, slot) in slots.iter_mut().enumerate() {
                            if !slot.parked {
                                let (p, total) = slot.state.skip_window(m, &rc);
                                powers[k].copy_from_slice(&p);
                                totals[k] = total;
                            }
                        }
                        if *log_skip_windows {
                            let reason = if any_parked {
                                SkipReason::Parked
                            } else if all_resync {
                                SkipReason::Resync
                            } else if any_gated {
                                SkipReason::Gated
                            } else {
                                SkipReason::Drained
                            };
                            skip_windows.push(SkipWindow {
                                start: *chip_cycles,
                                end: *chip_cycles + m,
                                reason,
                            });
                        }
                        gap_remaining = m;
                    }
                }

                if gap_remaining > 0 {
                    // Inside a gap: phase 1 is elided — `powers`,
                    // `totals`, and `active` are loop constants.
                    gap_remaining -= 1;
                } else {
                    // Phase 1: per-core stop checks, pipeline cycle, power.
                    for (k, slot) in slots.iter_mut().enumerate() {
                        if slot.parked {
                            continue;
                        }
                        if slot.state.stopped(&mut slot.acc, &rc) {
                            slot.parked = true;
                            active[k] = false;
                            if let Some(ts) = tstate.as_mut() {
                                ts.cores[k].bump_park();
                                if let Some(ring) = &mut ts.chip_events {
                                    ring.record(Event::Park {
                                        cycle: *chip_cycles,
                                        core: k,
                                        parked: true,
                                    });
                                }
                            }
                            continue;
                        }
                        let sample = slot.state.cycle_power(&rc, |a| rc.power.cycle_power(a));
                        let (p, total) =
                            slot.state.powers_with_leakage(&sample, chip.temperatures(k), &rc);
                        powers[k].copy_from_slice(&p);
                        totals[k] = total;
                    }
                }
                if active.iter().all(|a| !a) {
                    break 'run;
                }

                // Phase 2: one coupled thermal step for the whole chip.
                chip.step_masked(&powers, &active);

                // Phase 3: per-core warm start and accounting.
                for (k, slot) in slots.iter_mut().enumerate() {
                    if slot.parked {
                        continue;
                    }
                    if let Some(ts) = tstate.as_mut() {
                        let cts = &mut ts.cores[k];
                        cts.thermal_steps += 1;
                        let temps = chip.core_models()[k].temperatures_fixed::<NUM_THERMAL>();
                        let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                        let (emergency, stress) = (rc.emergency, rc.stress);
                        cts.observe_cycle(slot.acc.cycle, &temps[..], hottest, emergency, stress);
                    }
                    if rc.warm_start_due(slot.acc.cycle, &mut slot.warm_start_power, &powers[k]) {
                        warm_start_jump(
                            chip.core_mut(k),
                            &slot.dtm,
                            &mut slot.warm_start_power,
                            rc.interval,
                        );
                    }
                    let block_powers: &[f64; NUM_THERMAL] =
                        powers[k].as_slice().try_into().expect("seven thermal blocks");
                    let temps = chip.core_models()[k].temperatures_fixed();
                    slot.state.record_cycle(&mut slot.acc, temps, block_powers, totals[k], &rc);
                    slot.acc.cycle += 1;
                }
                *chip_cycles += 1;
                remaining -= 1;
            }

            // DTM boundary: every active core senses and samples its own
            // policy; the supervisor then caps the commands chip-wide.
            // Events here stamp the chunk's last executed cycle (the loop
            // has already advanced past it — the fast-loop convention).
            for (k, slot) in slots.iter_mut().enumerate() {
                cmds[k] = None;
                hottest[k] = f64::NEG_INFINITY;
                if slot.parked {
                    continue;
                }
                let sensed = slot.state.sense(chip.temperatures(k));
                hottest[k] = sensed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let cmd = match tstate.as_mut() {
                    Some(ts) => {
                        // Observed and unobserved policy paths produce
                        // bit-equal commands (`sample` delegates to
                        // `sample_observed`); dense per-sample events
                        // honor the trace stride.
                        let cts = &mut ts.cores[k];
                        let due = cts.sample_due(slot.acc.samples);
                        let cycle = slot.acc.cycle - 1;
                        if due {
                            cts.record_sensor_reads(cycle, &sensed);
                        }
                        slot.policy.sample_observed(&sensed, &mut |block, s| {
                            if due {
                                cts.record_controller(cycle, block, &s);
                            }
                        })
                    }
                    None => slot.policy.sample(&sensed),
                };
                slot.acc.samples += 1;
                cmds[k] = Some(cmd);
            }
            if let Some(sup) = supervisor {
                let caps = match tstate.as_mut() {
                    Some(ts) => {
                        let cycle = *chip_cycles - 1;
                        let cores = &mut ts.cores;
                        let ring = &mut ts.chip_events;
                        sup.allocate_observed(&hottest, &mut |core, hot, cap| {
                            cores[core].bump_supervisor_cap();
                            if let Some(ring) = ring {
                                ring.record(Event::SupervisorCap {
                                    cycle,
                                    core,
                                    hottest: hot,
                                    cap,
                                });
                            }
                        })
                    }
                    None => sup.allocate(&hottest),
                };
                for (cmd, &cap) in cmds.iter_mut().zip(caps) {
                    if let Some(c) = cmd {
                        c.fetch_duty = c.fetch_duty.min(cap);
                    }
                }
            }
            for (k, slot) in slots.iter_mut().enumerate() {
                let Some(cmd) = cmds[k].take() else { continue };
                if let Some(ts) = tstate.as_mut() {
                    // The histogram and change events see the *applied*
                    // (post-supervisor-cap) duty, matching duty_history.
                    let cts = &mut ts.cores[k];
                    cts.record_duty_hist(cmd.fetch_duty);
                    let from = slot.state.core.control().fetch_duty;
                    cts.record_duty_change(slot.acc.cycle - 1, from, cmd.fetch_duty);
                }
                slot.duty_history.push(cmd.fetch_duty);
                slot.state.apply(chip.core_mut(k), cmd, &rc);
            }
        }

        if let Some(ts) = tstate {
            let cores = ts
                .cores
                .into_iter()
                .enumerate()
                .map(|(k, cts)| {
                    cts.flush(
                        &slots[k].state.core,
                        slots[k].acc.cycle,
                        slots[k].acc.samples,
                        stage_start[k],
                        cycles_start[k],
                    )
                })
                .collect();
            *collected = Some(ChipTelemetry {
                cores,
                chip_events: ts.chip_events,
            });
        }

        ChipReport {
            cores: slots
                .iter()
                .enumerate()
                .map(|(k, slot)| {
                    finalize_report(
                        &slot.name,
                        slot.policy.as_ref(),
                        chip.core_models()[k].params(),
                        slot.state.core.stats(),
                        slot.state.core.bpred().accuracy(),
                        &slot.acc,
                    )
                })
                .collect(),
            supervisor_interventions: supervisor.as_ref().map_or(0, ChipSupervisor::interventions),
            coupled: !chip.edges().is_empty(),
            chip_cycles: *chip_cycles,
        }
    }
}

/// Runs `cfg` either on the single-core [`Simulator`] (when
/// [`cfg.chip.is_single_core()`](crate::ChipConfig::is_single_core)) or
/// on the multicore chip, returning core 0's report plus the chip report
/// when a chip actually ran. Experiment drivers use this to make any grid cell
/// chip-aware without forking their plumbing.
pub fn run_chip_cell(
    cfg: SimConfig,
    workload: &Workload,
    power: Arc<PowerModel>,
) -> (RunReport, Option<ChipReport>) {
    if cfg.chip.is_single_core() {
        let mut sim = Simulator::for_workload_with_power(cfg, workload, power);
        (sim.run(), None)
    } else {
        let mut sim = MulticoreSim::for_workload_with_power(cfg, workload, power);
        let chip = sim.run();
        (chip.cores[0].clone(), Some(chip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_dtm::PolicyKind;

    fn quick(policy: PolicyKind, cores: usize) -> SimConfig {
        let mut cfg = SimConfig::quick_test();
        cfg.dtm.policy = policy;
        cfg.chip.cores = cores;
        cfg
    }

    fn workload() -> Workload {
        tdtm_workloads::by_name("gcc").expect("known workload")
    }

    #[test]
    fn single_core_chip_produces_a_sane_report() {
        let mut sim = MulticoreSim::for_workload(quick(PolicyKind::Pid, 1), &workload());
        let chip = sim.run();
        assert_eq!(chip.cores.len(), 1);
        assert!(!chip.coupled, "one core has no neighbors");
        assert_eq!(chip.supervisor_interventions, 0);
        let r = &chip.cores[0];
        assert!(r.committed >= 30_000);
        assert_eq!(r.blocks.len(), NUM_THERMAL);
        assert_eq!(r.name, "gcc");
    }

    #[test]
    fn chip_report_names_and_sizes_scale_with_cores() {
        let mut cfg = quick(PolicyKind::Pid, 3);
        cfg.max_insts = 10_000;
        cfg.thermal_warmup_cycles = 500;
        let mut sim = MulticoreSim::for_workload(cfg, &workload());
        let chip = sim.run();
        assert_eq!(chip.cores.len(), 3);
        assert!(chip.coupled);
        assert_eq!(chip.cores[0].name, "gcc");
        assert_eq!(chip.cores[1].name, "gcc#1");
        assert_eq!(chip.cores[2].name, "gcc#2");
        // Identical cores, identical program, homogeneous chip: every
        // core commits the same work.
        assert_eq!(chip.cores[0].committed, chip.cores[1].committed);
        assert_eq!(chip.cores[0].committed, chip.cores[2].committed);
    }

    #[test]
    fn neighbor_policy_splits_the_chip() {
        let mut cfg = quick(PolicyKind::Toggle1, 2);
        cfg.max_insts = 10_000;
        cfg.thermal_warmup_cycles = 500;
        cfg.chip.neighbor_policy = Some(PolicyKind::None);
        let mut sim = MulticoreSim::for_workload(cfg, &workload());
        let chip = sim.run();
        assert_eq!(chip.cores[0].policy, "toggle1");
        assert_eq!(chip.cores[1].policy, "none");
    }

    #[test]
    fn supervisor_caps_hot_cores_duty() {
        // Hot chip, weak per-core policy (none), supervisor on: the
        // supervisor must intervene and cap duty below 1.
        let mut cfg = quick(PolicyKind::None, 2);
        cfg.max_insts = 60_000;
        cfg.heatsink_temp = 107.0;
        cfg.thermal_warmup_cycles = 1_000;
        cfg.chip.supervisor = Some(tdtm_dtm::SupervisorConfig::default());
        let mut sim = MulticoreSim::for_workload(cfg, &workload());
        let chip = sim.run();
        assert!(
            chip.supervisor_interventions > 0,
            "hot chip must trigger the supervisor"
        );
        let mut duties = Vec::new();
        for k in 0..2 {
            duties.extend_from_slice(sim.duty_history(k));
        }
        assert!(
            duties.iter().any(|&d| d < 1.0),
            "at least one capped duty recorded"
        );
    }

    #[test]
    #[should_panic(expected = "direct triggering only")]
    fn interrupt_mechanism_is_rejected() {
        let mut cfg = quick(PolicyKind::Pid, 2);
        cfg.dtm.mechanism = TriggerMechanism::Interrupt {
            latency_cycles: 250,
        };
        let _ = MulticoreSim::for_workload(cfg, &workload());
    }

    #[test]
    fn run_chip_cell_dispatches_by_core_count() {
        let cfg = quick(PolicyKind::Pid, 1);
        let power = Arc::new(PowerModel::new(&cfg.power, &cfg.core));
        let (_, chip) = run_chip_cell(cfg.clone(), &workload(), power.clone());
        assert!(
            chip.is_none(),
            "one supervisor-less core takes the single-core path"
        );
        let mut cfg2 = cfg;
        cfg2.chip.cores = 2;
        cfg2.max_insts = 10_000;
        cfg2.thermal_warmup_cycles = 500;
        let (r0, chip) = run_chip_cell(cfg2, &workload(), power);
        let chip = chip.expect("two cores take the chip path");
        assert_eq!(chip.cores[0], r0);
    }
}
