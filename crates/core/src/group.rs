//! Policy groups: the grid cells of one program that differ only in
//! their DTM policy, simulated as one trajectory that forks where their
//! commands diverge.
//!
//! A policy can change the machine in exactly two ways: the command it
//! issues at each DTM sample, and the ceiling it puts on the warm-start
//! jump at the end of the first sampling interval. Until one of those
//! differs, every member of a group simulates the same cycles bit for
//! bit, so a `PolicyGroup` simulates each distinct trajectory once:
//!
//! - A `Branch` is one machine state plus the members riding on it,
//!   each with its own policy. It advances through the fast loop
//!   (`Machine::advance`) from one DTM boundary to the next.
//! - At each boundary every member samples its own policy on the
//!   branch's sensed temperatures. Members are partitioned by the bits
//!   of every [`DtmCommand`] field; the branch continues with the first
//!   class, and each other class continues on a clone.
//! - At the warm-start cycle the partition is by the bits of the block
//!   temperatures after each member's clamp, before the cycle is
//!   recorded.
//! - `PolicyGroup::run_branch` hands each fork to its caller, which
//!   queues it: [`run_policy_group`] on a local stack, run depth-first;
//!   the engine on its shared work queue, so the forks of one group run
//!   on all workers. A branch owns its members' policies, so a fork runs
//!   on any thread, and it is dropped as it finishes.
//!
//! Each member's report is finalized through the same
//! `finalize_report` path as a solo run, with its own policy, so
//! `policy` and `engaged_samples` stay per cell and every report is
//! byte-identical to the cell's own [`Simulator::run`] (pinned by
//! `tests/policy_groups.rs`).
//!
//! [`Simulator::run`]: crate::Simulator::run

use crate::cache::{program_fingerprint, workload_config_hash};
use crate::config::SimConfig;
use crate::engine::GridCell;
use crate::metrics::RunReport;
use crate::simulator::{
    clamped, finalize_report, skip_default, warm_start_ceiling, Machine, Pause, RunAccum,
    RunConsts, NUM_THERMAL,
};
use tdtm_dtm::{build_policy_at, DtmCommand, DtmPolicy, PolicyKind, TriggerMechanism};

/// The key under which a cell joins a policy group, or `None` when it
/// runs solo.
///
/// A cell is groupable when the fast loop runs it unobserved: one core,
/// no supervisor, direct DTM triggering, and no temperature-dependent
/// leakage. Two groupable cells share a key when they run the same
/// workload under configurations equal in every field but `dtm.policy`
/// — the cell fingerprint's encoding with the policy masked.
pub fn group_key(cell: &GridCell) -> Option<u128> {
    let mut cfg = cell.config();
    let groupable = cfg.chip.is_single_core()
        && matches!(cfg.dtm.mechanism, TriggerMechanism::Direct)
        && cfg.leakage.is_none();
    if !groupable {
        return None;
    }
    cfg.dtm.policy = PolicyKind::None;
    let program_fp = cell.workload.program_digest(program_fingerprint);
    Some(workload_config_hash(b"tdtm/group/v1\0", cell, program_fp, &cfg))
}

/// One point where a branch's members diverged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    /// The cycle whose sample (or warm-start jump) split the branch.
    pub cycle: u64,
    /// Whether the split came from the warm-start clamp rather than a
    /// DTM command.
    pub warm_start: bool,
    /// Number of classes the branch split into (at least two).
    pub classes: usize,
}

/// What [`run_policy_group`] returns.
#[derive(Clone, Debug)]
pub struct GroupRun {
    /// One report per member, in member order.
    pub reports: Vec<RunReport>,
    /// Every split, in the order the branches reached them. The group
    /// simulated one trajectory plus `classes - 1` per split.
    pub splits: Vec<Split>,
}

/// What [`PolicyGroup::run_branch`] returns once its branch stops.
pub(crate) struct BranchEnd {
    /// `(member index, report)` for every member still on the branch.
    pub(crate) reports: Vec<(usize, RunReport)>,
    /// The splits the branch passed, in order.
    pub(crate) splits: Vec<Split>,
}

/// One member of a group: its position and its own policy.
struct Member {
    index: usize,
    policy: Box<dyn DtmPolicy>,
}

/// One machine state and the members riding on it. Create the group's
/// first branch with [`PolicyGroup::trunk`]; the others are forks.
pub(crate) struct Branch {
    m: Machine,
    acc: RunAccum,
    warm_start_power: [f64; NUM_THERMAL],
    /// The branch paused on a DTM boundary whose sample is still due (a
    /// fork split off at the warm start resumes there).
    due: bool,
    members: Vec<Member>,
}

impl Branch {
    fn fork(&self, members: Vec<Member>) -> Branch {
        Branch {
            m: self.m.clone(),
            acc: self.acc.clone(),
            warm_start_power: self.warm_start_power,
            due: self.due,
            members,
        }
    }

    /// Keeps the first class on this branch and hands a fork for each
    /// other class to `spawn`; `enter` moves a branch onto its class's
    /// value.
    fn split<V>(
        &mut self,
        mut classes: Vec<(V, Vec<Member>)>,
        spawn: &mut dyn FnMut(Branch),
        mut enter: impl FnMut(&mut Branch, V),
    ) {
        let rest = classes.split_off(1);
        for (value, members) in rest {
            let mut fork = self.fork(members);
            enter(&mut fork, value);
            spawn(fork);
        }
        let (value, members) = classes.pop().expect("every branch has a member");
        self.members = members;
        enter(self, value);
    }
}

/// Partitions `members` by `key` of their values, in order of first
/// appearance; each class carries its first member's value.
fn partition<V, K: PartialEq>(
    members: Vec<Member>,
    mut value: impl FnMut(&mut Member) -> V,
    key: impl Fn(&V) -> K,
) -> Vec<(V, Vec<Member>)> {
    let mut classes: Vec<(K, V, Vec<Member>)> = Vec::new();
    for mut member in members {
        let v = value(&mut member);
        let k = key(&v);
        match classes.iter_mut().find(|(ck, _, _)| *ck == k) {
            Some((_, _, class)) => class.push(member),
            None => classes.push((k, v, vec![member])),
        }
    }
    classes.into_iter().map(|(_, v, class)| (v, class)).collect()
}

/// The bits of every field of a command: two commands with equal bits
/// drive the machine identically.
type CommandBits = (u64, Option<usize>, Option<usize>, Option<(u64, u64)>);

fn command_bits(cmd: &DtmCommand) -> CommandBits {
    (
        cmd.fetch_duty.to_bits(),
        cmd.fetch_width_limit,
        cmd.max_unresolved_branches,
        cmd.vf.map(|vf| (vf.freq_scale.to_bits(), vf.vdd_scale.to_bits())),
    )
}

/// The run constants of one policy group, shared by all its branches.
pub(crate) struct PolicyGroup<'c> {
    cells: Vec<&'c GridCell>,
    cfg: SimConfig,
    rc: RunConsts<'c>,
    ceilings: Vec<Option<f64>>,
}

impl<'c> PolicyGroup<'c> {
    /// A group over `cells`, which must share one [`group_key`].
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, or if its cells do not all share one
    /// [`group_key`].
    pub(crate) fn new(cells: &[&'c GridCell]) -> PolicyGroup<'c> {
        let first = cells[0];
        let key = group_key(first);
        assert!(
            key.is_some() && cells.iter().all(|c| group_key(c) == key),
            "a policy group's cells share one group key"
        );
        let cfg = first.config();
        PolicyGroup {
            rc: RunConsts::new(&cfg, first.power_ref(), skip_default()),
            ceilings: cells.iter().map(|c| warm_start_ceiling(&c.config().dtm)).collect(),
            cells: cells.to_vec(),
            cfg,
        }
    }

    /// The group's first branch: a fresh machine carrying every member,
    /// each with a fresh policy.
    pub(crate) fn trunk(&self) -> Branch {
        let members = self
            .cells
            .iter()
            .enumerate()
            .map(|(index, cell)| Member {
                index,
                policy: build_policy_at(&cell.config().dtm, self.cfg.core.clock_hz),
            })
            .collect();
        Branch {
            m: Machine::for_workload(&self.cfg, &self.cells[0].workload),
            acc: RunAccum::new(),
            warm_start_power: [0.0; NUM_THERMAL],
            due: false,
            members,
        }
    }

    /// Runs `b` until it stops, handing each branch that forks off it to
    /// `spawn` (run those the same way), and returns the reports of the
    /// members that stayed on `b`.
    pub(crate) fn run_branch(&self, mut b: Branch, spawn: &mut dyn FnMut(Branch)) -> BranchEnd {
        let rc = &self.rc;
        let mut splits = Vec::new();
        loop {
            if !b.due {
                match b.m.advance::<false>(&mut b.acc, &mut b.warm_start_power, rc, None) {
                    Pause::Stop => break,
                    Pause::Boundary => {}
                    Pause::WarmStart(cycle) => {
                        let spread = *b.m.thermal.temperatures_fixed::<NUM_THERMAL>();
                        let classes = partition(
                            std::mem::take(&mut b.members),
                            |member| spread.map(|t| clamped(t, self.ceilings[member.index])),
                            |temps| temps.map(f64::to_bits),
                        );
                        if classes.len() > 1 {
                            let (cycle, classes) = (b.acc.cycle, classes.len());
                            splits.push(Split { cycle, warm_start: true, classes });
                        }
                        b.split(classes, spawn, |branch, temps| {
                            for (block, &t) in temps.iter().enumerate() {
                                branch.m.thermal.set_temperature(block, t);
                            }
                            branch.m.finish_warm_cycle(&mut branch.acc, &cycle, rc);
                            branch.due = true;
                        });
                    }
                }
            }
            b.due = false;
            let sample_cycle = b.acc.cycle - 1;
            let sensed = b.m.sense();
            b.acc.samples += 1;
            let classes = partition(
                std::mem::take(&mut b.members),
                |member| member.policy.sample(&sensed),
                command_bits,
            );
            if classes.len() > 1 {
                let classes = classes.len();
                splits.push(Split { cycle: sample_cycle, warm_start: false, classes });
            }
            b.split(classes, spawn, |branch, cmd| {
                branch.m.state.apply(&mut branch.m.thermal, cmd, rc);
            });
        }
        let reports = b
            .members
            .iter()
            .map(|member| {
                let report = finalize_report(
                    self.cells[0].workload.name,
                    member.policy.as_ref(),
                    b.m.thermal.params(),
                    b.m.state.core.stats(),
                    b.m.state.core.bpred().accuracy(),
                    &b.acc,
                );
                (member.index, report)
            })
            .collect();
        BranchEnd { reports, splits }
    }
}

/// Runs the cells of one policy group on this thread, forks depth-first,
/// each report byte-identical to the cell's solo run.
///
/// # Panics
///
/// Panics if `cells` is empty, or if its cells do not all share one
/// [`group_key`].
pub fn run_policy_group(cells: &[&GridCell]) -> GroupRun {
    let group = PolicyGroup::new(cells);
    let mut reports: Vec<Option<RunReport>> = vec![None; cells.len()];
    let mut splits = Vec::new();
    let mut stack = vec![group.trunk()];
    while let Some(b) = stack.pop() {
        let end = group.run_branch(b, &mut |fork| stack.push(fork));
        splits.extend(end.splits);
        for (i, report) in end.reports {
            reports[i] = Some(report);
        }
    }
    GroupRun {
        reports: reports.into_iter().map(|r| r.expect("every member finished")).collect(),
        splits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExperimentGrid;
    use crate::experiments::ExperimentScale;
    use crate::SimConfig;
    use tdtm_dtm::DtmConfig;

    /// Runs `policies` on gcc as one group under `patch`, checks every
    /// member's report against its solo run bit for bit, and returns the
    /// group's splits.
    fn grouped_vs_solo(policies: &[PolicyKind], patch: fn(&mut SimConfig)) -> Vec<Split> {
        let scale = ExperimentScale { insts: 20_000, warmup_cycles: 2_000 };
        let cells = ExperimentGrid::new(scale)
            .workload(tdtm_workloads::by_name("gcc").expect("suite workload"))
            .policies(policies)
            .variant("hot", patch)
            .cells();
        let refs: Vec<&GridCell> = cells.iter().collect();
        let run = run_policy_group(&refs);
        for (cell, report) in cells.iter().zip(&run.reports) {
            let solo = cell.simulator().run();
            assert_eq!(format!("{report:?}"), format!("{solo:?}"), "{}", cell.label());
        }
        run.splits
    }

    #[test]
    fn warm_start_forks_by_clamped_temperatures() {
        // On a 107 C heatsink gcc's warm-start steady state passes both
        // the 109 C trigger and the 110.8 C setpoint, so no DTM, the
        // threshold policies and the controllers each clamp to different
        // temperatures: three classes before the first sample.
        let splits = grouped_vs_solo(
            &[PolicyKind::None, PolicyKind::Toggle1, PolicyKind::Pid, PolicyKind::P],
            |cfg| {
                cfg.heatsink_temp = 107.0;
                cfg.max_cycles = 100_000;
            },
        );
        let interval = DtmConfig::default().sample_interval;
        assert_eq!(
            splits.first(),
            Some(&Split { cycle: interval - 1, warm_start: true, classes: 3 }),
            "{splits:?}"
        );
    }

    #[test]
    fn one_boundary_splits_into_as_many_classes_as_commands() {
        // The threshold policies share one warm-start ceiling and one
        // trigger, so they ride one trajectory until the first sample
        // that sees the trigger crossed, which splits full toggling, half
        // toggling, width throttling and speculation control four ways.
        let splits = grouped_vs_solo(
            &[
                PolicyKind::Toggle1,
                PolicyKind::Toggle2,
                PolicyKind::Throttle,
                PolicyKind::SpecControl,
            ],
            |cfg| {
                cfg.heatsink_temp = 107.0;
                cfg.max_cycles = 100_000;
            },
        );
        let first = splits.first().expect("the policies diverge");
        assert!(!first.warm_start, "{splits:?}");
        assert_eq!(first.classes, 4, "{splits:?}");
    }

    #[test]
    fn identical_commands_never_fork() {
        // On a cool heatsink nothing ever triggers: one trajectory.
        let splits = grouped_vs_solo(
            &[PolicyKind::None, PolicyKind::Toggle1, PolicyKind::Pid],
            |cfg| cfg.heatsink_temp = 80.0,
        );
        assert_eq!(splits, Vec::new());
    }

    #[test]
    #[should_panic(expected = "share one group key")]
    fn cells_of_different_programs_are_rejected() {
        let cells = ExperimentGrid::new(ExperimentScale::quick())
            .workload(tdtm_workloads::by_name("gcc").expect("suite workload"))
            .workload(tdtm_workloads::by_name("art").expect("suite workload"))
            .cells();
        run_policy_group(&cells.iter().collect::<Vec<_>>());
    }
}
