//! The DTM policies.
//!
//! Every policy implements [`DtmPolicy`]: once per sampling interval it
//! receives the sensed per-block temperatures and returns a
//! [`DtmCommand`]. Policies are stateful (policy delays, controller
//! integrals) and deterministic.

use crate::command::DtmCommand;
use crate::config::{DtmConfig, PolicyKind};
use tdtm_control::design::{design_controller, ControllerKind, FopdtPlant};
use tdtm_control::pid::{quantize, PidController, PidSample};

/// A dynamic thermal management policy. Policies are `Send` so a run's
/// policy can move to another worker thread with the run (a policy
/// group's forks run on any engine worker).
pub trait DtmPolicy: Send {
    /// Consumes one sample of sensed block temperatures and returns the
    /// actuator command for the next interval.
    fn sample(&mut self, temps: &[f64]) -> DtmCommand;

    /// Like [`sample`](Self::sample), but reports each internal PID step
    /// as `(block_index, PidSample)` through `observe`. Policies without
    /// internal controllers ignore the observer; controller-backed
    /// policies override this so telemetry can watch the P/I/D terms
    /// without re-deriving them. Implementations must guarantee the
    /// observed and unobserved paths produce identical commands.
    fn sample_observed(
        &mut self,
        temps: &[f64],
        observe: &mut dyn FnMut(usize, PidSample),
    ) -> DtmCommand {
        let _ = observe;
        self.sample(temps)
    }

    /// Number of samples on which the policy restricted the machine.
    fn engaged_samples(&self) -> u64;

    /// The policy's kind (for reporting).
    fn kind(&self) -> PolicyKind;
}

/// Builds the policy selected by `config`.
pub fn build_policy(config: &DtmConfig) -> Box<dyn DtmPolicy> {
    build_policy_at(config, 1.5e9)
}

/// [`build_policy`] with an explicit clock (the controller designs depend
/// on the sampling period in seconds).
pub fn build_policy_at(config: &DtmConfig, clock_hz: f64) -> Box<dyn DtmPolicy> {
    match config.policy {
        PolicyKind::None => Box::new(NoDtm { samples: 0 }),
        PolicyKind::Toggle1 => Box::new(Triggered::new(*config, TriggeredAction::Toggle(0.0))),
        PolicyKind::Toggle2 => Box::new(Triggered::new(*config, TriggeredAction::Toggle(0.5))),
        PolicyKind::Throttle => Box::new(Triggered::new(
            *config,
            TriggeredAction::Throttle(config.throttle_width),
        )),
        PolicyKind::SpecControl => Box::new(Triggered::new(
            *config,
            TriggeredAction::SpecControl(config.spec_control_branches),
        )),
        PolicyKind::VfScale => Box::new(Triggered::new(*config, TriggeredAction::VfScale)),
        PolicyKind::Manual => Box::new(ManualProportional { cfg: *config, engaged: 0 }),
        PolicyKind::P | PolicyKind::Pd | PolicyKind::Pi | PolicyKind::Pid => {
            Box::new(CtPolicy::new(*config, clock_hz))
        }
        PolicyKind::Hierarchical => Box::new(Hierarchical::new(*config, clock_hz)),
        PolicyKind::AdaptiveI => Box::new(AdaptiveIntegral::new(*config)),
        PolicyKind::StabilityAware => Box::new(StabilityAwarePi::new(*config, clock_hz)),
    }
}

// ----------------------------------------------------------------------
// No DTM
// ----------------------------------------------------------------------

struct NoDtm {
    samples: u64,
}

impl DtmPolicy for NoDtm {
    fn sample(&mut self, _temps: &[f64]) -> DtmCommand {
        self.samples += 1;
        DtmCommand::full_speed()
    }

    fn engaged_samples(&self) -> u64 {
        0
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::None
    }
}

// ----------------------------------------------------------------------
// Trigger-threshold policies (toggle1/2, throttle, spec control, V/f)
// ----------------------------------------------------------------------

#[derive(Clone, Copy)]
enum TriggeredAction {
    Toggle(f64),
    Throttle(usize),
    SpecControl(usize),
    VfScale,
}

/// A fixed-response policy engaged whenever any block exceeds the trigger
/// threshold, held for at least the policy delay ("too short a policy, and
/// the system will stay at or near trigger; too long, and the system will
/// incur an unnecessary loss in performance").
struct Triggered {
    cfg: DtmConfig,
    action: TriggeredAction,
    engaged_until_sample: u64,
    sample_count: u64,
    engaged: u64,
}

impl Triggered {
    fn new(cfg: DtmConfig, action: TriggeredAction) -> Triggered {
        Triggered { cfg, action, engaged_until_sample: 0, sample_count: 0, engaged: 0 }
    }
}

impl DtmPolicy for Triggered {
    fn sample(&mut self, temps: &[f64]) -> DtmCommand {
        self.sample_count += 1;
        let hot = temps.iter().any(|&t| t > self.cfg.trigger);
        if hot {
            let delay_samples = self.cfg.policy_delay / self.cfg.sample_interval.max(1);
            self.engaged_until_sample = self.sample_count + delay_samples;
        }
        if self.sample_count <= self.engaged_until_sample || hot {
            self.engaged += 1;
            match self.action {
                TriggeredAction::Toggle(duty) => DtmCommand::toggle(duty),
                TriggeredAction::Throttle(w) => DtmCommand {
                    fetch_width_limit: Some(w),
                    ..DtmCommand::full_speed()
                },
                TriggeredAction::SpecControl(n) => DtmCommand {
                    max_unresolved_branches: Some(n),
                    ..DtmCommand::full_speed()
                },
                TriggeredAction::VfScale => DtmCommand {
                    vf: Some(self.cfg.vf_setting),
                    ..DtmCommand::full_speed()
                },
            }
        } else {
            DtmCommand::full_speed()
        }
    }

    fn engaged_samples(&self) -> u64 {
        self.engaged
    }

    fn kind(&self) -> PolicyKind {
        match self.action {
            TriggeredAction::Toggle(d) => {
                if d == 0.0 {
                    PolicyKind::Toggle1
                } else {
                    PolicyKind::Toggle2
                }
            }
            TriggeredAction::Throttle(_) => PolicyKind::Throttle,
            TriggeredAction::SpecControl(_) => PolicyKind::SpecControl,
            TriggeredAction::VfScale => PolicyKind::VfScale,
        }
    }
}

// ----------------------------------------------------------------------
// The hand-built proportional controller "M"
// ----------------------------------------------------------------------

/// The paper's manually designed comparison controller: "sets the toggling
/// rate equal to the percentage error in temperature" across the sensor
/// range above the trigger, quantized to the actuator's 8 levels.
struct ManualProportional {
    cfg: DtmConfig,
    engaged: u64,
}

impl DtmPolicy for ManualProportional {
    fn sample(&mut self, temps: &[f64]) -> DtmCommand {
        let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let error_fraction =
            ((hottest - self.cfg.trigger) / self.cfg.sensor_range).clamp(0.0, 1.0);
        let duty = quantize(1.0 - error_fraction, self.cfg.quantize_levels);
        if duty < 1.0 {
            self.engaged += 1;
        }
        DtmCommand::toggle(duty)
    }

    fn engaged_samples(&self) -> u64 {
        self.engaged
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Manual
    }
}

// ----------------------------------------------------------------------
// Control-theoretic policies
// ----------------------------------------------------------------------

/// One designed controller per thermal block; the actuator takes the most
/// restrictive (minimum) duty across blocks, so the hottest structure
/// governs.
struct CtPolicy {
    cfg: DtmConfig,
    controllers: Vec<PidController>,
    /// Output bias: P/PD controllers have no integral action to hold the
    /// operating point, so they modulate around full speed.
    bias: f64,
    kind: ControllerKind,
    engaged: u64,
    initialized: bool,
}

impl CtPolicy {
    fn new(cfg: DtmConfig, clock_hz: f64) -> CtPolicy {
        let kind = match cfg.policy {
            PolicyKind::P => ControllerKind::P,
            PolicyKind::Pd => ControllerKind::Pd,
            PolicyKind::Pi => ControllerKind::Pi,
            PolicyKind::Pid => ControllerKind::Pid,
            other => panic!("CtPolicy built for non-CT policy {other:?}"),
        };
        let plant = FopdtPlant {
            gain: cfg.plant_gain,
            time_constant: cfg.plant_tau,
            delay: cfg.loop_delay(clock_hz),
        };
        let gains = design_controller(&plant, kind);
        let period = cfg.sample_period(clock_hz);
        let has_integral = gains.ki > 0.0;
        // With integral action the controller output lives in [0, 1]
        // directly (the integral supplies the operating point). Without
        // it, the proportional/derivative terms modulate downward from
        // full speed: output range [-1, 0], duty = 1 + output.
        let (lo, hi, bias) = if has_integral { (0.0, 1.0, 0.0) } else { (-1.0, 0.0, 1.0) };
        let mut prototype = PidController::new(gains, period, lo, hi);
        if !cfg.anti_windup {
            prototype = prototype.without_anti_windup();
        }
        let controllers = vec![prototype; 7];
        CtPolicy { cfg, controllers, bias, kind, engaged: 0, initialized: false }
    }

    fn ensure_size(&mut self, n: usize) {
        if self.controllers.len() != n {
            let proto = self.controllers[0].clone();
            self.controllers = vec![proto; n];
            for c in &mut self.controllers {
                c.reset();
            }
        }
        self.initialized = true;
    }
}

impl DtmPolicy for CtPolicy {
    fn sample(&mut self, temps: &[f64]) -> DtmCommand {
        // Delegate so the observed and unobserved paths are literally the
        // same code — attaching telemetry cannot change the command.
        self.sample_observed(temps, &mut |_, _| {})
    }

    fn sample_observed(
        &mut self,
        temps: &[f64],
        observe: &mut dyn FnMut(usize, PidSample),
    ) -> DtmCommand {
        if !self.initialized {
            self.ensure_size(temps.len());
        }
        assert_eq!(temps.len(), self.controllers.len(), "one controller per sensed block");
        let mut duty: f64 = 1.0;
        for (block, (c, &t)) in self.controllers.iter_mut().zip(temps).enumerate() {
            let error = self.cfg.setpoint - t;
            let s = c.sample_detailed(error);
            observe(block, s);
            let u = (s.output + self.bias).clamp(0.0, 1.0);
            duty = duty.min(u);
        }
        let duty = quantize(duty, self.cfg.quantize_levels);
        if duty < 1.0 {
            self.engaged += 1;
        }
        DtmCommand::toggle(duty)
    }

    fn engaged_samples(&self) -> u64 {
        self.engaged
    }

    fn kind(&self) -> PolicyKind {
        match self.kind {
            ControllerKind::P => PolicyKind::P,
            ControllerKind::Pd => PolicyKind::Pd,
            ControllerKind::Pi => PolicyKind::Pi,
            ControllerKind::Pid => PolicyKind::Pid,
        }
    }
}

// ----------------------------------------------------------------------
// Hierarchical: CT toggling primary, V/f backup
// ----------------------------------------------------------------------

/// The Section 2.1 hierarchy: a PID toggling controller handles normal
/// thermal stress; if temperature nevertheless gets "truly close to
/// emergency" (past the backup trigger), voltage/frequency scaling engages
/// as well, and — because scaling has invocation overhead — stays engaged
/// for the policy delay.
struct Hierarchical {
    cfg: DtmConfig,
    primary: CtPolicy,
    backup_until_sample: u64,
    sample_count: u64,
    engaged: u64,
}

impl Hierarchical {
    fn new(cfg: DtmConfig, clock_hz: f64) -> Hierarchical {
        let primary_cfg = DtmConfig { policy: PolicyKind::Pid, ..cfg };
        Hierarchical {
            cfg,
            primary: CtPolicy::new(primary_cfg, clock_hz),
            backup_until_sample: 0,
            sample_count: 0,
            engaged: 0,
        }
    }
}

impl DtmPolicy for Hierarchical {
    fn sample(&mut self, temps: &[f64]) -> DtmCommand {
        self.sample_observed(temps, &mut |_, _| {})
    }

    fn sample_observed(
        &mut self,
        temps: &[f64],
        observe: &mut dyn FnMut(usize, PidSample),
    ) -> DtmCommand {
        self.sample_count += 1;
        let mut cmd = self.primary.sample_observed(temps, observe);
        let truly_hot = temps.iter().any(|&t| t > self.cfg.backup_trigger);
        if truly_hot {
            let delay_samples = self.cfg.policy_delay / self.cfg.sample_interval.max(1);
            self.backup_until_sample = self.sample_count + delay_samples;
        }
        if truly_hot || self.sample_count <= self.backup_until_sample {
            cmd.vf = Some(self.cfg.vf_setting);
        }
        if cmd.is_restrictive() {
            self.engaged += 1;
        }
        cmd
    }

    fn engaged_samples(&self) -> u64 {
        self.engaged
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Hierarchical
    }
}

// ----------------------------------------------------------------------
// Adjustable-gain integral controller (Rao et al., arXiv:1507.06357)
// ----------------------------------------------------------------------

/// Initial integral gain, duty per kelvin of error per sample.
const ADAPTIVE_G0: f64 = 0.05;
/// Gain adaptation bounds.
const ADAPTIVE_G_MIN: f64 = 0.005;
const ADAPTIVE_G_MAX: f64 = 0.5;
/// Multiplicative shrink applied when the error changes sign (the loop is
/// oscillating: back off).
const ADAPTIVE_SHRINK: f64 = 0.5;
/// Multiplicative growth applied under persistent unsaturated error (the
/// loop is sluggish: speed up).
const ADAPTIVE_GROW: f64 = 1.05;
/// Error magnitude (K) below which the gain is left alone.
const ADAPTIVE_DEADBAND: f64 = 0.1;

/// Per-block state of the adjustable-gain integral law.
#[derive(Clone, Copy)]
struct AdaptiveBlock {
    /// Integral accumulator — directly the block's duty vote in [0, 1].
    u: f64,
    /// Current integral gain.
    g: f64,
    /// Previous error, for oscillation detection (0 = no history).
    prev_e: f64,
}

/// Rao et al.'s adjustable-gain integral controller: a pure integral law
/// `u += g·e` per block, with the gain adapted online — halved when the
/// error changes sign (oscillation), grown geometrically while a large
/// error persists without saturating the accumulator (sluggishness). The
/// integral accumulator doubles as the duty vote, clamped to [0, 1]
/// (which is also the anti-windup), and the hottest block's vote governs
/// through the usual minimum.
struct AdaptiveIntegral {
    cfg: DtmConfig,
    blocks: Vec<AdaptiveBlock>,
    engaged: u64,
    initialized: bool,
}

impl AdaptiveIntegral {
    fn new(cfg: DtmConfig) -> AdaptiveIntegral {
        let proto = AdaptiveBlock { u: 1.0, g: ADAPTIVE_G0, prev_e: 0.0 };
        AdaptiveIntegral { cfg, blocks: vec![proto; 7], engaged: 0, initialized: false }
    }

    fn ensure_size(&mut self, n: usize) {
        if self.blocks.len() != n {
            self.blocks = vec![AdaptiveBlock { u: 1.0, g: ADAPTIVE_G0, prev_e: 0.0 }; n];
        }
        self.initialized = true;
    }
}

impl DtmPolicy for AdaptiveIntegral {
    fn sample(&mut self, temps: &[f64]) -> DtmCommand {
        if !self.initialized {
            self.ensure_size(temps.len());
        }
        assert_eq!(temps.len(), self.blocks.len(), "one accumulator per sensed block");
        let mut duty: f64 = 1.0;
        for (b, &t) in self.blocks.iter_mut().zip(temps) {
            let e = self.cfg.setpoint - t;
            if e * b.prev_e < 0.0 {
                b.g = (b.g * ADAPTIVE_SHRINK).max(ADAPTIVE_G_MIN);
            } else if e.abs() > ADAPTIVE_DEADBAND && b.u > 0.0 && b.u < 1.0 {
                // Persistent error while the actuator still has headroom:
                // grow the gain (growing against a saturated accumulator
                // would only wind the gain up).
                b.g = (b.g * ADAPTIVE_GROW).min(ADAPTIVE_G_MAX);
            }
            b.u = (b.u + b.g * e).clamp(0.0, 1.0);
            b.prev_e = e;
            duty = duty.min(b.u);
        }
        let duty = quantize(duty, self.cfg.quantize_levels);
        if duty < 1.0 {
            self.engaged += 1;
        }
        DtmCommand::toggle(duty)
    }

    fn engaged_samples(&self) -> u64 {
        self.engaged
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::AdaptiveI
    }
}

// ----------------------------------------------------------------------
// Stability-aware gain schedule (Bhat et al., arXiv:2003.11081)
// ----------------------------------------------------------------------

/// Kelvin above the emergency threshold at which the power-temperature
/// loop is taken to run away (leakage feedback divergence).
const RUNAWAY_MARGIN: f64 = 2.0;
/// Floor on the stability-margin gain scale.
const MIN_MARGIN_SCALE: f64 = 0.2;
/// Band (K) below emergency inside which the hard duty clamp engages.
const HARD_CLAMP_BAND: f64 = 0.05;

/// Per-block PI state for the stability-aware schedule.
#[derive(Clone, Copy)]
struct ScheduledBlock {
    /// Integral state — the operating-point duty, in [0, 1].
    i: f64,
}

/// Bhat et al.'s stability-aware schedule: a PI law whose designed gains
/// are scaled by the margin to thermal runaway — full gains when safely
/// at the setpoint, backed off toward [`MIN_MARGIN_SCALE`] as the hottest
/// block approaches the runaway temperature (high loop gain near the
/// stability boundary is what drives power-temperature oscillation), plus
/// a hard zero-duty clamp within [`HARD_CLAMP_BAND`] of emergency.
struct StabilityAwarePi {
    cfg: DtmConfig,
    kp: f64,
    ki: f64,
    period: f64,
    blocks: Vec<ScheduledBlock>,
    engaged: u64,
    initialized: bool,
}

impl StabilityAwarePi {
    fn new(cfg: DtmConfig, clock_hz: f64) -> StabilityAwarePi {
        let plant = FopdtPlant {
            gain: cfg.plant_gain,
            time_constant: cfg.plant_tau,
            delay: cfg.loop_delay(clock_hz),
        };
        let gains = design_controller(&plant, ControllerKind::Pi);
        StabilityAwarePi {
            cfg,
            kp: gains.kp,
            ki: gains.ki,
            period: cfg.sample_period(clock_hz),
            blocks: vec![ScheduledBlock { i: 1.0 }; 7],
            engaged: 0,
            initialized: false,
        }
    }

    fn ensure_size(&mut self, n: usize) {
        if self.blocks.len() != n {
            self.blocks = vec![ScheduledBlock { i: 1.0 }; n];
        }
        self.initialized = true;
    }

    /// The gain scale for the current hottest temperature: 1 at (or
    /// below) the setpoint, falling linearly to [`MIN_MARGIN_SCALE`] at
    /// the runaway temperature.
    fn margin_scale(&self, hottest: f64) -> f64 {
        let runaway = self.cfg.emergency + RUNAWAY_MARGIN;
        ((runaway - hottest) / (runaway - self.cfg.setpoint)).clamp(MIN_MARGIN_SCALE, 1.0)
    }
}

impl DtmPolicy for StabilityAwarePi {
    fn sample(&mut self, temps: &[f64]) -> DtmCommand {
        if !self.initialized {
            self.ensure_size(temps.len());
        }
        assert_eq!(temps.len(), self.blocks.len(), "one controller per sensed block");
        let hottest = temps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let m = self.margin_scale(hottest);
        let mut duty: f64 = 1.0;
        for (b, &t) in self.blocks.iter_mut().zip(temps) {
            let e = self.cfg.setpoint - t;
            let u = (b.i + m * self.kp * e).clamp(0.0, 1.0);
            // Conditional integration (anti-windup): the integral state is
            // itself clamped to the actuator range.
            b.i = (b.i + m * self.ki * self.period * e).clamp(0.0, 1.0);
            duty = duty.min(u);
        }
        let mut duty = quantize(duty, self.cfg.quantize_levels);
        if hottest >= self.cfg.emergency - HARD_CLAMP_BAND {
            duty = 0.0;
        }
        if duty < 1.0 {
            self.engaged += 1;
        }
        DtmCommand::toggle(duty)
    }

    fn engaged_samples(&self) -> u64 {
        self.engaged
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::StabilityAware
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: PolicyKind) -> DtmConfig {
        DtmConfig { policy, ..DtmConfig::default() }
    }

    fn cool() -> [f64; 7] {
        [100.0; 7]
    }

    fn hot_block(temp: f64) -> [f64; 7] {
        let mut t = cool();
        t[3] = temp;
        t
    }

    #[test]
    fn no_dtm_never_restricts() {
        let mut p = build_policy(&config(PolicyKind::None));
        assert_eq!(p.sample(&hot_block(150.0)), DtmCommand::full_speed());
        assert_eq!(p.engaged_samples(), 0);
    }

    #[test]
    fn toggle1_stops_fetch_above_trigger() {
        let mut p = build_policy(&config(PolicyKind::Toggle1));
        assert_eq!(p.sample(&cool()).fetch_duty, 1.0);
        let cmd = p.sample(&hot_block(109.5));
        assert_eq!(cmd.fetch_duty, 0.0);
        assert_eq!(p.kind(), PolicyKind::Toggle1);
    }

    #[test]
    fn toggle2_halves_fetch() {
        let mut p = build_policy(&config(PolicyKind::Toggle2));
        assert_eq!(p.sample(&hot_block(110.0)).fetch_duty, 0.5);
    }

    #[test]
    fn policy_delay_holds_the_response() {
        let cfg = DtmConfig {
            policy: PolicyKind::Toggle1,
            policy_delay: 5_000,
            sample_interval: 1000,
            ..DtmConfig::default()
        };
        let mut p = build_policy(&cfg);
        assert_eq!(p.sample(&hot_block(110.0)).fetch_duty, 0.0);
        // Temperature back below trigger, but the policy stays engaged for
        // 5 more samples.
        for _ in 0..5 {
            assert_eq!(p.sample(&cool()).fetch_duty, 0.0, "held by policy delay");
        }
        assert_eq!(p.sample(&cool()).fetch_duty, 1.0, "released after delay");
    }

    #[test]
    fn throttle_and_spec_control_set_their_actuators() {
        let mut th = build_policy(&config(PolicyKind::Throttle));
        let cmd = th.sample(&hot_block(110.0));
        assert_eq!(cmd.fetch_width_limit, Some(1));
        assert_eq!(cmd.fetch_duty, 1.0);

        let mut sc = build_policy(&config(PolicyKind::SpecControl));
        let cmd = sc.sample(&hot_block(110.0));
        assert_eq!(cmd.max_unresolved_branches, Some(1));
    }

    #[test]
    fn vf_scaling_reduces_power_cubed_ish() {
        let mut p = build_policy(&config(PolicyKind::VfScale));
        let cmd = p.sample(&hot_block(110.0));
        let vf = cmd.vf.expect("engaged");
        assert!(vf.power_scale() < 0.6, "f·V² scale {}", vf.power_scale());
    }

    #[test]
    fn manual_matches_percentage_error_mapping() {
        let mut p = build_policy(&config(PolicyKind::Manual));
        // Below trigger: full speed.
        assert_eq!(p.sample(&hot_block(108.9)).fetch_duty, 1.0);
        // Midpoint of the 109..111 range: 50% error → toggle2.
        assert_eq!(p.sample(&hot_block(110.0)).fetch_duty, 0.5);
        // At/above range top: full stop.
        assert_eq!(p.sample(&hot_block(111.0)).fetch_duty, 0.0);
        assert_eq!(p.sample(&hot_block(115.0)).fetch_duty, 0.0);
    }

    #[test]
    fn manual_quantizes_to_eight_levels() {
        let mut p = build_policy(&config(PolicyKind::Manual));
        let duty = p.sample(&hot_block(109.3)).fetch_duty;
        assert!((duty * 8.0 - (duty * 8.0).round()).abs() < 1e-9, "duty {duty} on the 8-level grid");
    }

    #[test]
    fn ct_policies_run_full_speed_when_cool() {
        for kind in [PolicyKind::P, PolicyKind::Pd, PolicyKind::Pi, PolicyKind::Pid] {
            let mut p = build_policy(&config(kind));
            for _ in 0..10 {
                assert_eq!(p.sample(&cool()).fetch_duty, 1.0, "{kind}");
            }
            assert_eq!(p.engaged_samples(), 0, "{kind}");
        }
    }

    #[test]
    fn ct_policies_throttle_when_past_setpoint() {
        for kind in [PolicyKind::P, PolicyKind::Pd, PolicyKind::Pi, PolicyKind::Pid] {
            let mut p = build_policy(&config(kind));
            p.sample(&cool());
            let mut last = 1.0;
            for _ in 0..20 {
                last = p.sample(&hot_block(112.5)).fetch_duty;
            }
            assert!(last < 0.8, "{kind}: sustained 1.7K overshoot should throttle, duty {last}");
        }
    }

    #[test]
    fn ct_response_scales_with_severity() {
        // The pure P policy makes the proportionality visible: duty is
        // 1 + Kp·e with no integral/derivative state. (The designed Kp is
        // aggressive — a few tenths of a kelvin span the full actuator
        // range — which is exactly the tight control the paper reports.)
        let mut p = build_policy(&config(PolicyKind::P));
        let mild = p.sample(&hot_block(110.81)).fetch_duty;
        let severe = p.sample(&hot_block(110.9)).fetch_duty;
        let extreme = p.sample(&hot_block(113.0)).fetch_duty;
        assert!(
            severe < mild,
            "stronger thermal stress should get a stronger response ({severe} vs {mild})"
        );
        assert_eq!(extreme, 0.0, "far past the setpoint the actuator saturates");
        assert!(mild > 0.0, "mild overshoot gets a mild response");
    }

    #[test]
    fn hottest_block_governs() {
        let mut all_hot = build_policy(&config(PolicyKind::Pid));
        let mut one_hot = build_policy(&config(PolicyKind::Pid));
        all_hot.sample(&[112.0; 7]);
        one_hot.sample(&hot_block(112.0));
        let a = all_hot.sample(&[112.0; 7]).fetch_duty;
        let b = one_hot.sample(&hot_block(112.0)).fetch_duty;
        assert!((a - b).abs() < 1e-9, "min across blocks equals the hottest block's command");
    }

    #[test]
    fn hierarchical_engages_backup_only_when_truly_hot() {
        let mut p = build_policy(&config(PolicyKind::Hierarchical));
        // Cool: nothing.
        let cmd = p.sample(&cool());
        assert_eq!(cmd.fetch_duty, 1.0);
        assert!(cmd.vf.is_none());
        // Past the setpoint but under the backup trigger: toggling only.
        let cmd = p.sample(&hot_block(110.9));
        assert!(cmd.fetch_duty < 1.0, "primary controller engaged");
        assert!(cmd.vf.is_none(), "backup stays out below its trigger");
        // Truly close to emergency: V/f backup engages too.
        let cmd = p.sample(&hot_block(110.98));
        assert!(cmd.vf.is_some(), "backup engages past {:.2}", 110.95);
    }

    #[test]
    fn hierarchical_backup_held_for_policy_delay() {
        let cfg = DtmConfig {
            policy: PolicyKind::Hierarchical,
            policy_delay: 3_000,
            sample_interval: 1000,
            ..DtmConfig::default()
        };
        let mut p = build_policy(&cfg);
        assert!(p.sample(&hot_block(111.2)).vf.is_some());
        for i in 0..3 {
            assert!(p.sample(&cool()).vf.is_some(), "held at sample {i}");
        }
        assert!(p.sample(&cool()).vf.is_none(), "released after the delay");
    }

    #[test]
    fn observed_and_unobserved_sampling_agree_bitwise() {
        let mut plain = build_policy(&config(PolicyKind::Pid));
        let mut observed = build_policy(&config(PolicyKind::Hierarchical));
        let mut plain_h = build_policy(&config(PolicyKind::Hierarchical));
        let mut observed_p = build_policy(&config(PolicyKind::Pid));
        let mut seen = 0usize;
        for t in [108.0, 110.9, 111.5, 112.0, 109.0, 110.85] {
            let temps = hot_block(t);
            let a = plain.sample(&temps);
            let b = observed_p.sample_observed(&temps, &mut |_, s| {
                seen += 1;
                assert!(s.output.is_finite());
            });
            assert_eq!(a.fetch_duty.to_bits(), b.fetch_duty.to_bits());
            let c = plain_h.sample(&temps);
            let d = observed.sample_observed(&temps, &mut |_, _| {});
            assert_eq!(c, d, "hierarchical observed path diverged at {t}");
        }
        assert_eq!(seen, 6 * 7, "one PidSample per block per sample");
    }

    #[test]
    fn ct_duty_is_quantized() {
        let mut p = build_policy(&config(PolicyKind::Pi));
        p.sample(&cool());
        for t in [110.9, 111.2, 111.8, 112.4] {
            let duty = p.sample(&hot_block(t)).fetch_duty;
            assert!((duty * 8.0 - (duty * 8.0).round()).abs() < 1e-9, "duty {duty}");
        }
    }

    #[test]
    fn adaptive_integral_throttles_when_hot_and_recovers_when_cool() {
        let mut p = build_policy(&config(PolicyKind::AdaptiveI));
        assert_eq!(p.kind(), PolicyKind::AdaptiveI);
        for _ in 0..5 {
            assert_eq!(p.sample(&cool()).fetch_duty, 1.0, "cool chip runs at full speed");
        }
        assert_eq!(p.engaged_samples(), 0);
        let mut last = 1.0;
        for _ in 0..40 {
            last = p.sample(&hot_block(112.5)).fetch_duty;
        }
        assert!(last < 0.8, "sustained overshoot integrates into throttling, duty {last}");
        assert!(p.engaged_samples() > 0);
        for _ in 0..400 {
            last = p.sample(&cool()).fetch_duty;
        }
        assert_eq!(last, 1.0, "sustained slack releases the throttle");
    }

    #[test]
    fn adaptive_gain_shrinks_on_oscillation() {
        // Alternate the error sign every sample: the gain must halve its
        // way down, so late oscillations move the duty *less* than early
        // ones instead of slamming rail to rail.
        let mut p = build_policy(&config(PolicyKind::AdaptiveI));
        let swing = |p: &mut Box<dyn DtmPolicy>| -> f64 {
            let a = p.sample(&hot_block(112.0)).fetch_duty;
            let b = p.sample(&hot_block(109.0)).fetch_duty;
            (a - b).abs()
        };
        // Let the loop settle into the oscillating regime first.
        let early = swing(&mut p).max(swing(&mut p));
        let mut late = 0.0;
        for _ in 0..20 {
            late = swing(&mut p);
        }
        assert!(
            late <= early,
            "adapted gain must not amplify oscillation: early {early} vs late {late}"
        );
    }

    #[test]
    fn adaptive_integral_duty_is_quantized() {
        let mut p = build_policy(&config(PolicyKind::AdaptiveI));
        for t in [111.0, 111.6, 112.2, 110.2] {
            let duty = p.sample(&hot_block(t)).fetch_duty;
            assert!((duty * 8.0 - (duty * 8.0).round()).abs() < 1e-9, "duty {duty}");
        }
    }

    #[test]
    fn stability_aware_regulates_and_hard_clamps_near_emergency() {
        let mut p = build_policy(&config(PolicyKind::StabilityAware));
        assert_eq!(p.kind(), PolicyKind::StabilityAware);
        for _ in 0..5 {
            assert_eq!(p.sample(&cool()).fetch_duty, 1.0, "cool chip runs at full speed");
        }
        let mut last = 1.0;
        for _ in 0..30 {
            last = p.sample(&hot_block(112.0)).fetch_duty;
        }
        assert!(last < 0.8, "sustained overshoot throttles, duty {last}");
        // Within the hard-clamp band of emergency: fetch stops outright,
        // whatever the PI state says.
        assert_eq!(p.sample(&hot_block(110.97)).fetch_duty, 0.0, "hard clamp");
        assert_eq!(p.sample(&hot_block(113.0)).fetch_duty, 0.0);
    }

    #[test]
    fn stability_margin_schedule_backs_gains_off_near_runaway() {
        // Two fresh controllers, one mildly and one severely hot: the
        // severe one sees a *smaller* gain scale (that is the schedule),
        // observable through the first-sample integral movement.
        let cfg = config(PolicyKind::StabilityAware);
        let mild_t = 111.2; // above setpoint, below the clamp band? no — above emergency
        let mut mild = StabilityAwarePi::new(cfg, 1.5e9);
        let mut severe = StabilityAwarePi::new(cfg, 1.5e9);
        assert!(severe.margin_scale(112.8) < mild.margin_scale(mild_t));
        assert_eq!(mild.margin_scale(110.0), 1.0, "at/below setpoint: full designed gains");
        assert_eq!(severe.margin_scale(120.0), MIN_MARGIN_SCALE, "floor past runaway");
        // And the scheduled integral actually moves more slowly when the
        // margin is thin: compare integral states after one equal-error
        // sample at different margins (error fixed by feeding one block).
        mild.sample(&hot_block(mild_t));
        severe.sample(&hot_block(112.8));
        let mild_i = mild.blocks[3].i;
        let severe_i = severe.blocks[3].i;
        // Same sign of motion (down), but the severe case moved by a
        // *smaller* multiple of its (larger) error.
        let mild_step = (1.0 - mild_i) / (mild_t - cfg.setpoint);
        let severe_step = (1.0 - severe_i) / (112.8 - cfg.setpoint);
        assert!(mild_step > 0.0 && severe_step > 0.0);
        assert!(severe_step < mild_step, "thin margin integrates more gently per kelvin");
    }

    #[test]
    fn new_policies_build_through_the_factory() {
        for kind in [PolicyKind::AdaptiveI, PolicyKind::StabilityAware] {
            let mut p = build_policy(&config(kind));
            assert_eq!(p.kind(), kind);
            assert_eq!(p.sample(&cool()), DtmCommand::toggle(1.0));
        }
    }
}
