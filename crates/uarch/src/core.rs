//! The out-of-order core: fetch (with DTM actuators), decode/rename,
//! RUU/LSQ dispatch, issue, execute, writeback (with misprediction
//! recovery), and in-order commit.
//!
//! Structure follows SimpleScalar's `sim-outorder` with the paper's
//! modifications: a deeper front end (three extra rename/enqueue stages),
//! one I-cache access of fetch-width granularity per cycle, and the
//! fetch-toggling / throttling / speculation-control hooks that DTM
//! policies drive.

use crate::activity::{Activity, Block};
use crate::bpred::{HybridPredictor, Prediction};
use crate::cache::{Cache, Tlb};
use crate::config::CoreConfig;
use crate::stream::{OracleStream, WrongPathGenerator};
use crate::toggle::FetchGate;
use tdtm_frontend::Retired;
use tdtm_isa::{Inst, Op, OpClass, Program};
use std::collections::VecDeque;

/// DTM actuator settings, applied by policies between samples.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CoreControl {
    /// Fetch duty cycle in `[0, 1]` (1 = unrestricted, 0 = toggle1's full
    /// stop, 0.5 = toggle2).
    pub fetch_duty: f64,
    /// Fetch-width cap (throttling); `None` = full width.
    pub fetch_width_limit: Option<usize>,
    /// Stall fetch while more than this many unresolved branches are in
    /// flight (speculation control); `None` = off.
    pub max_unresolved_branches: Option<usize>,
}

impl Default for CoreControl {
    fn default() -> CoreControl {
        CoreControl { fetch_duty: 1.0, fetch_width_limit: None, max_unresolved_branches: None }
    }
}

/// Aggregate execution statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Correct-path instructions committed.
    pub committed: u64,
    /// All micro-ops fetched (correct + wrong path).
    pub fetched: u64,
    /// Wrong-path micro-ops fetched.
    pub wrong_path_fetched: u64,
    /// Micro-ops dispatched into the window.
    pub dispatched: u64,
    /// Micro-ops issued to functional units.
    pub issued: u64,
    /// Mispredictions recovered.
    pub recoveries: u64,
    /// Cycles fetch was blocked by the DTM gate.
    pub gated_cycles: u64,
    /// Cycles fetch was stalled by speculation control.
    pub spec_control_stalls: u64,
    /// L1 I-cache misses.
    pub icache_misses: u64,
    /// L1 D-cache misses.
    pub dcache_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Store-to-load forwards.
    pub forwards: u64,
    /// Sum of per-cycle RUU occupancy (divide by `cycles` for the mean).
    pub ruu_occupancy_sum: u64,
    /// Sum of per-cycle LSQ occupancy.
    pub lsq_occupancy_sum: u64,
}

impl CoreStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean instruction-window (RUU) occupancy.
    pub fn avg_ruu_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ruu_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Mean load/store-queue occupancy.
    pub fn avg_lsq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.lsq_occupancy_sum as f64 / self.cycles as f64
        }
    }
}

/// A fetched micro-op flowing down the pipeline.
#[derive(Clone, Debug)]
struct Uop {
    inst: Inst,
    pc: u64,
    wrong_path: bool,
    /// Oracle index for correct-path uops.
    oracle_idx: Option<u64>,
    /// Effective address for memory ops (oracle or synthetic).
    mem_addr: Option<u64>,
    /// Architectural branch outcome (correct path only).
    actual_taken: bool,
    actual_target: u64,
    pred: Option<Prediction>,
    will_mispredict: bool,
}

#[derive(Clone, Debug)]
struct RuuEntry {
    seq: u64,
    uop: Uop,
    class: OpClass,
    /// Producing seq numbers this entry still waits on.
    deps: [Option<u64>; 2],
    issued: bool,
    completed: bool,
    complete_cycle: u64,
    /// Destination architectural register (0..31 int, 32..63 fp).
    dest: Option<usize>,
    /// For a load: the older store whose unknown address blocked its
    /// last issue attempt. While that store stays unissued the LSQ
    /// verdict cannot change, so issue skips the search.
    blocked_by: Option<u64>,
}

impl RuuEntry {
    fn ready(&self) -> bool {
        self.deps[0].is_none() && self.deps[1].is_none()
    }

    fn is_control(&self) -> bool {
        matches!(self.class, OpClass::Branch | OpClass::Jump)
    }
}

#[derive(Clone, Copy, Debug)]
struct LsqEntry {
    seq: u64,
    is_store: bool,
    addr: u64,
    /// Address considered known once the op has issued (address
    /// generation); loads may not bypass earlier stores before that.
    addr_known: bool,
}

/// The LSQ's verdict on a load: decided by the youngest older store that
/// either has an unknown address or writes the load's 8-byte word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LsqConflict {
    /// No older store is in the way; the load reads the D-cache.
    Clear,
    /// An older store to the same word has a known address: forward.
    Forward,
    /// The older store with this seq has not generated its address yet
    /// (conservative: the load waits).
    Blocked(u64),
}

/// Searches `lsq` from its youngest end for the stores older than the
/// load `seq` reading `addr`.
fn lsq_conflict(lsq: &VecDeque<LsqEntry>, seq: u64, addr: u64) -> LsqConflict {
    for e in lsq.iter().rev() {
        if e.seq >= seq || !e.is_store {
            continue;
        }
        if !e.addr_known {
            return LsqConflict::Blocked(e.seq);
        }
        if e.addr >> 3 == addr >> 3 {
            return LsqConflict::Forward;
        }
    }
    LsqConflict::Clear
}

#[derive(Clone, Copy, Debug)]
enum FetchSource {
    /// Fetching the correct path; the next oracle index to fetch.
    OnPath(u64),
    /// Fetching a synthesized wrong path; resume here after recovery.
    WrongPath { resume_idx: u64, pc: u64 },
}

/// Why a provably-idle window is idle — the annotation skip tracing
/// attaches to fast-forwarded windows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IdleKind {
    /// Fetch is held off (duty gate closed, width capped to zero, or the
    /// oracle exhausted) and the window ends when the gate next opens
    /// with fetch supply and IFQ room available.
    Gated,
    /// No stage can move before the earliest in-flight completion: the
    /// pipeline is either drained down to in-flight long-latency
    /// operations, or back-pressured behind them (window or LSQ full,
    /// rename pipe and IFQ full behind it), and their completion cycles
    /// are already known.
    Drained,
}

/// The cycle-level out-of-order core. Cloning it forks the whole
/// machine state, program supply included.
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    control: CoreControl,
    gate: FetchGate,

    oracle: OracleStream,
    wrong_path: WrongPathGenerator,
    fetch_source: FetchSource,
    fetch_stall_until: u64,

    ifq: VecDeque<Uop>,
    /// (cycle at which the uop reaches dispatch, uop).
    frontend: VecDeque<(u64, Uop)>,
    ruu: VecDeque<RuuEntry>,
    lsq: VecDeque<LsqEntry>,
    /// Arch-reg (0..63) to producing seq.
    rename_map: [Option<u64>; 64],
    next_seq: u64,
    unresolved_branches: usize,

    bpred: HybridPredictor,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    itlb: Tlb,
    dtlb: Tlb,

    cycle: u64,
    activity: Activity,
    stats: CoreStats,
    halted_seen: bool,
    /// Writeback's per-cycle completion scratch `(ruu index, seq)`,
    /// hoisted to a field so the cycle loop never heap-allocates.
    wb_completed: Vec<(usize, u64)>,
    /// Writeback's per-cycle wakeup scratch (seqs that became ready),
    /// hoisted for the same reason.
    wb_woken: Vec<u64>,
    /// Issue-select ready list: seqs of RUU entries that are ready (no
    /// outstanding deps) and not yet issued, ascending. Maintained
    /// incrementally — dispatch adds born-ready entries, writeback adds
    /// entries whose last dep cleared, issue removes what it issues, and
    /// recovery drops squashed seqs — so the select loop visits only
    /// actual candidates instead of rescanning the window every cycle.
    /// The candidate *order* (oldest first) matches the scan it replaced,
    /// so issue selection and unit allocation are bit-identical.
    ready_unissued: Vec<u64>,
    /// The earliest `complete_cycle` among issued, uncompleted RUU
    /// entries (`u64::MAX` when none is in flight). Issue lowers it,
    /// writeback recomputes it from the entries it leaves in flight, and
    /// recovery from the survivors. Writeback skips its window scan on
    /// cycles before it, and [`idle_window`](Core::idle_window) reads it
    /// as the drain bound.
    next_completion: u64,

    /// When set, each pipeline stage is wrapped in a host timer and the
    /// accumulated nanoseconds land in `stage_nanos`. Off by default — the
    /// untimed path has no `Instant` calls at all.
    stage_profiling: bool,
    /// Accumulated host nanoseconds per stage, in [`STAGE_NAMES`] order.
    stage_nanos: [u64; 6],
}

/// Stage names matching the `stage_nanos` accumulator order.
pub const STAGE_NAMES: [&str; 6] =
    ["commit", "writeback", "issue", "dispatch", "decode", "fetch"];

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed)
            .field("ruu_occupancy", &self.ruu.len())
            .finish()
    }
}

impl Core {
    /// Creates a core that fast-forwards the first `skip` instructions
    /// functionally (no timing, no cache/predictor warmup) and starts
    /// cycle-level simulation there — the analogue of the paper's
    /// skip-then-simulate methodology.
    pub fn with_skip(cfg: CoreConfig, program: &Program, skip: u64) -> Core {
        Core::with_skip_shared(cfg, std::sync::Arc::new(program.clone()), skip)
    }

    /// [`with_skip`](Core::with_skip) over a shared, immutable program —
    /// no deep clone of the text or data segments.
    pub fn with_skip_shared(cfg: CoreConfig, program: std::sync::Arc<Program>, skip: u64) -> Core {
        let mut core = Core::from_shared(cfg, program);
        if skip > 0 {
            let skipped = core.oracle.skip(skip);
            core.fetch_source = FetchSource::OnPath(skipped);
        }
        core
    }

    /// Creates a core executing `program` from its entry point
    /// (deep-clones it; prefer [`from_shared`](Core::from_shared) when an
    /// `Arc` is already at hand).
    pub fn new(cfg: CoreConfig, program: &Program) -> Core {
        Core::from_shared(cfg, std::sync::Arc::new(program.clone()))
    }

    /// [`new`](Core::new) over a shared, immutable program.
    pub fn from_shared(cfg: CoreConfig, program: std::sync::Arc<Program>) -> Core {
        Core {
            control: CoreControl::default(),
            gate: FetchGate::open(),
            oracle: OracleStream::from_shared(program),
            wrong_path: WrongPathGenerator::new(0x7D7D_0001),
            fetch_source: FetchSource::OnPath(0),
            fetch_stall_until: 0,
            ifq: VecDeque::with_capacity(cfg.ifq_size),
            frontend: VecDeque::new(),
            ruu: VecDeque::with_capacity(cfg.ruu_size),
            lsq: VecDeque::with_capacity(cfg.lsq_size),
            rename_map: [None; 64],
            next_seq: 0,
            unresolved_branches: 0,
            bpred: HybridPredictor::new(cfg.bpred),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            itlb: Tlb::new(cfg.tlb_entries, cfg.page_size),
            dtlb: Tlb::new(cfg.tlb_entries, cfg.page_size),
            cycle: 0,
            activity: Activity::new(),
            stats: CoreStats::default(),
            halted_seen: false,
            wb_completed: Vec::new(),
            wb_woken: Vec::new(),
            ready_unissued: Vec::with_capacity(cfg.ruu_size),
            next_completion: u64::MAX,
            stage_profiling: false,
            stage_nanos: [0; 6],
            cfg,
        }
    }

    /// Enables or disables per-stage host timing (see [`STAGE_NAMES`]).
    pub fn set_stage_profiling(&mut self, on: bool) {
        self.stage_profiling = on;
    }

    /// Accumulated host nanoseconds per stage, in [`STAGE_NAMES`] order.
    /// All zeros unless [`set_stage_profiling`](Self::set_stage_profiling)
    /// was turned on.
    pub fn stage_nanos(&self) -> [u64; 6] {
        self.stage_nanos
    }

    /// Applies DTM actuator settings.
    pub fn set_control(&mut self, control: CoreControl) {
        self.control = control;
        self.gate.set_duty(control.fetch_duty);
    }

    /// The current actuator settings.
    pub fn control(&self) -> CoreControl {
        self.control
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The branch predictor (for accuracy reporting).
    pub fn bpred(&self) -> &HybridPredictor {
        &self.bpred
    }

    /// Cache miss statistics: (L1I, L1D, L2) miss ratios.
    pub fn cache_miss_ratios(&self) -> (f64, f64, f64) {
        (self.l1i.miss_ratio(), self.l1d.miss_ratio(), self.l2.miss_ratio())
    }

    /// Whether the program has halted and the pipeline fully drained.
    pub fn finished(&self) -> bool {
        self.halted_seen
            && self.ruu.is_empty()
            && self.frontend.is_empty()
            && self.ifq.is_empty()
    }

    /// Values the program has written with `out`.
    pub fn output(&self) -> &[i64] {
        self.oracle.output()
    }

    /// A human-readable snapshot of pipeline state (debugging aid).
    pub fn debug_snapshot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "cycle={} ruu={} lsq={} ifq={} fe={} unresolved={} src={:?} stall_until={}",
            self.cycle,
            self.ruu.len(),
            self.lsq.len(),
            self.ifq.len(),
            self.frontend.len(),
            self.unresolved_branches,
            self.fetch_source,
            self.fetch_stall_until
        );
        for e in self.ruu.iter().take(8) {
            let _ = writeln!(
                s,
                "  seq={} {:?} {} wp={} deps={:?} issued={} done={} at={} mp={}",
                e.seq,
                e.class,
                e.uop.inst,
                e.uop.wrong_path,
                e.deps,
                e.issued,
                e.completed,
                e.complete_cycle,
                e.uop.will_mispredict
            );
        }
        for l in self.lsq.iter().take(8) {
            let _ = writeln!(s, "  lsq seq={} store={} known={} addr={:#x}", l.seq, l.is_store, l.addr_known, l.addr);
        }
        s
    }

    /// Advances one clock cycle and returns the cycle's per-structure
    /// activity.
    pub fn cycle(&mut self) -> &Activity {
        self.activity.clear();
        if self.stage_profiling {
            self.cycle_stages_timed();
        } else {
            self.commit();
            self.writeback();
            self.issue();
            self.dispatch();
            self.decode();
            self.fetch();
        }
        self.stats.ruu_occupancy_sum += self.ruu.len() as u64;
        self.stats.lsq_occupancy_sum += self.lsq.len() as u64;
        self.cycle += 1;
        self.stats.cycles += 1;
        &self.activity
    }

    /// Cheap pre-probe for [`idle_window`](Core::idle_window): whether the
    /// current cycle *could* start a provably-idle window. A `false`
    /// result is definitive; a `true` result still needs the full window
    /// walk.
    ///
    /// Accepts both idle shapes: a *drained* pipeline (IFQ and rename
    /// pipe empty) and a *back-pressured* one, where dispatch is blocked
    /// (rename pipe empty, RUU full, or a load/store at the rename-pipe
    /// head facing a full LSQ) and decode is blocked (IFQ empty or rename
    /// pipe at capacity). Either way nothing is ready to issue and
    /// speculation control is off.
    #[inline]
    pub fn maybe_idle(&self) -> bool {
        self.ready_unissued.is_empty()
            && self.control.max_unresolved_branches.is_none()
            && self.dispatch_blocked()
            && (self.ifq.is_empty() || self.frontend.len() >= self.frontend_capacity())
    }

    /// Whether dispatch cannot move until commit frees a window or LSQ
    /// slot: the rename pipe is empty, the RUU is full, or the rename-pipe
    /// head is a load/store facing a full LSQ.
    #[inline]
    fn dispatch_blocked(&self) -> bool {
        match self.frontend.front() {
            None => true,
            Some((_, head)) => {
                self.ruu.len() >= self.cfg.ruu_size
                    || (self.lsq.len() >= self.cfg.lsq_size
                        && matches!(head.inst.op.class(), OpClass::Load | OpClass::Store))
            }
        }
    }

    /// Rename-pipe capacity: at most `decode_width` uops per stage.
    #[inline]
    fn frontend_capacity(&self) -> usize {
        self.cfg.decode_width * (self.cfg.frontend_depth as usize + 1)
    }

    /// Detects a provably-idle window starting at the current cycle: a
    /// run of cycles over which [`cycle`](Core::cycle) would do no work
    /// beyond duty-gate bookkeeping — no fetch, decode, dispatch, issue,
    /// writeback, or commit, and an all-zero [`Activity`]. Returns the
    /// window length (clamped to `horizon`) and why it is idle, or
    /// `None` if the next cycle may do work.
    ///
    /// The window is bounded by the two events that can wake the
    /// pipeline. The *drain* bound is the earliest `complete_cycle` of
    /// an in-flight (issued, uncompleted) RUU entry — writeback fires
    /// the cycle it is reached. The *fetch* bound is the first cycle at
    /// which the duty gate opens while fetch has room (IFQ not full),
    /// supply (an oracle record, or any wrong-path cycle) and nonzero
    /// width; the gate is simulated on a copy, and only advanced for real
    /// when the caller commits via [`skip_idle`](Core::skip_idle).
    ///
    /// Preconditions for any window ([`maybe_idle`](Core::maybe_idle)):
    /// nothing ready to issue, speculation control off (its stall counter
    /// is not modeled here), dispatch and decode blocked, and the window
    /// head not yet committable. Until the drain bound nothing completes,
    /// so nothing commits; with nothing committing no RUU or LSQ slot
    /// frees, so a blocked dispatch stays blocked, the rename pipe stays
    /// as full as it is, and a blocked decode stays blocked. This covers
    /// both a drained pipeline and one back-pressured behind a long miss
    /// with the RUU, LSQ, rename pipe and IFQ full.
    ///
    /// Takes `&mut self` because checking fetch supply may run the
    /// functional oracle forward — deterministic and cached, exactly as
    /// fetch itself would have.
    pub fn idle_window(&mut self, horizon: u64) -> Option<(u64, IdleKind)> {
        if horizon == 0 || !self.maybe_idle() {
            return None;
        }
        if self.ruu.front().is_some_and(|e| e.completed) {
            return None; // commit would retire it this cycle
        }
        let drain_wake = self.next_completion;
        debug_assert_eq!(drain_wake, self.earliest_completion(), "stale completion bound");
        if drain_wake <= self.cycle {
            return None; // a completion lands this cycle
        }
        let bound = self.cycle.saturating_add(horizon).min(drain_wake);
        let fetchable = self.effective_fetch_width() > 0
            && self.ifq.len() < self.cfg.ifq_size
            && match self.fetch_source {
                FetchSource::OnPath(idx) => self.oracle.has_record(idx),
                FetchSource::WrongPath { .. } => true,
            };
        let mut fetch_wake = u64::MAX;
        if fetchable {
            let mut gate = self.gate;
            let mut c = self.cycle;
            while c < bound {
                if c >= self.fetch_stall_until && gate.tick() {
                    fetch_wake = c;
                    break;
                }
                c += 1;
            }
        }
        let end = bound.min(fetch_wake);
        let len = end - self.cycle;
        if len == 0 {
            return None;
        }
        let kind = if end == fetch_wake {
            IdleKind::Gated
        } else if end == drain_wake {
            IdleKind::Drained
        } else if fetchable {
            IdleKind::Gated // horizon-capped with the gate still closed
        } else {
            IdleKind::Drained // horizon-capped with no fetch supply
        };
        Some((len, kind))
    }

    /// Fast-forwards `cycles` provably-idle cycles, replicating exactly
    /// what [`cycle`](Core::cycle) would have mutated over the window:
    /// the duty gate ticks on every non-stalled cycle (closed ticks
    /// count as gated), the occupancy sums fold as `cycles × current
    /// occupancy` (nothing enters or leaves the queues while idle), and
    /// the cycle counters advance. The per-cycle [`Activity`] of every
    /// skipped cycle is all-zero by construction. The caller must have
    /// validated the window with [`idle_window`](Core::idle_window).
    pub fn skip_idle(&mut self, cycles: u64) {
        debug_assert!(self.maybe_idle(), "skip_idle outside a validated idle window");
        for c in self.cycle..self.cycle + cycles {
            if c >= self.fetch_stall_until && !self.gate.tick() {
                self.stats.gated_cycles += 1;
            }
        }
        self.stats.ruu_occupancy_sum += cycles * self.ruu.len() as u64;
        self.stats.lsq_occupancy_sum += cycles * self.lsq.len() as u64;
        self.cycle += cycles;
        self.stats.cycles += cycles;
    }

    /// The fetch width after DTM throttling.
    fn effective_fetch_width(&self) -> usize {
        self.control
            .fetch_width_limit
            .map_or(self.cfg.fetch_width, |l| l.min(self.cfg.fetch_width))
    }

    /// The stage sequence of [`cycle`](Self::cycle) with each stage under
    /// a host timer. Kept as a separate body so the untimed path carries
    /// no `Instant` overhead.
    fn cycle_stages_timed(&mut self) {
        use std::time::Instant;
        let mut mark = Instant::now();
        self.commit();
        let mut now = Instant::now();
        self.stage_nanos[0] += (now - mark).as_nanos() as u64;
        mark = now;
        self.writeback();
        now = Instant::now();
        self.stage_nanos[1] += (now - mark).as_nanos() as u64;
        mark = now;
        self.issue();
        now = Instant::now();
        self.stage_nanos[2] += (now - mark).as_nanos() as u64;
        mark = now;
        self.dispatch();
        now = Instant::now();
        self.stage_nanos[3] += (now - mark).as_nanos() as u64;
        mark = now;
        self.decode();
        now = Instant::now();
        self.stage_nanos[4] += (now - mark).as_nanos() as u64;
        mark = now;
        self.fetch();
        self.stage_nanos[5] += mark.elapsed().as_nanos() as u64;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self) {
        let mut n = 0;
        while n < self.cfg.commit_width {
            let Some(front) = self.ruu.front() else { break };
            if !front.completed {
                break;
            }
            let entry = self.ruu.pop_front().expect("checked front");
            debug_assert!(!entry.uop.wrong_path, "wrong-path uop survived to commit");
            self.activity.bump(Block::Window);

            if entry.dest.is_some() {
                self.activity.bump(Block::Regfile);
            }
            if let Some(dest) = entry.dest {
                if self.rename_map[dest] == Some(entry.seq) {
                    self.rename_map[dest] = None;
                }
            }

            match entry.class {
                OpClass::Store => {
                    let addr = entry.uop.mem_addr.expect("stores have addresses");
                    self.activity.bump(Block::Dcache);
                    self.activity.bump(Block::Dtlb);
                    self.dtlb.access(addr);
                    let out = self.l1d.access(addr, true);
                    if !out.hit {
                        self.stats.dcache_misses += 1;
                        self.activity.bump(Block::L2);
                        if !self.l2.access(addr, true).hit {
                            self.stats.l2_misses += 1;
                        }
                    }
                    self.lsq_remove(entry.seq);
                    self.wrong_path.observe_addr(addr);
                }
                OpClass::Load => {
                    self.lsq_remove(entry.seq);
                    if let Some(addr) = entry.uop.mem_addr {
                        self.wrong_path.observe_addr(addr);
                    }
                }
                OpClass::Branch | OpClass::Jump => {
                    self.activity.bump(Block::Bpred);
                    if let Some(pred) = &entry.uop.pred {
                        self.bpred.commit(
                            entry.uop.pc,
                            &entry.uop.inst,
                            pred,
                            entry.uop.actual_taken,
                            entry.uop.actual_target,
                        );
                    }
                }
                _ => {}
            }

            if entry.uop.inst.op == Op::Halt {
                self.halted_seen = true;
            }
            if let Some(idx) = entry.uop.oracle_idx {
                self.oracle.trim(idx);
            }
            self.stats.committed += 1;
            n += 1;
        }
    }

    // ------------------------------------------------------------------
    // Writeback / completion / recovery
    // ------------------------------------------------------------------

    /// The earliest `complete_cycle` among in-flight RUU entries, by a
    /// fresh scan (what `next_completion` caches).
    fn earliest_completion(&self) -> u64 {
        self.ruu
            .iter()
            .filter(|e| e.issued && !e.completed)
            .map(|e| e.complete_cycle)
            .min()
            .unwrap_or(u64::MAX)
    }

    fn writeback(&mut self) {
        if self.cycle < self.next_completion {
            return; // nothing in flight lands this cycle
        }
        // Collect completions for this cycle into a persistent buffer
        // (reused across cycles — the cycle loop never heap-allocates).
        let mut completed = std::mem::take(&mut self.wb_completed);
        completed.clear();
        let mut recovery: Option<usize> = None;
        let mut next_completion = u64::MAX;
        for (i, e) in self.ruu.iter_mut().enumerate() {
            if !e.issued || e.completed {
                continue;
            }
            if e.complete_cycle > self.cycle {
                next_completion = next_completion.min(e.complete_cycle);
                continue;
            }
            e.completed = true;
            completed.push((i, e.seq));
            if e.is_control() {
                self.unresolved_branches = self.unresolved_branches.saturating_sub(1);
                if e.uop.will_mispredict && recovery.is_none() {
                    recovery = Some(i);
                }
            }
        }
        self.next_completion = next_completion;

        // Broadcast results: wake dependents. Dependences always point at
        // older (smaller-seq) producers, so only entries *behind* the
        // earliest completing one can be waiting on any of this cycle's
        // results. One pass over that suffix matches each sleeping dep
        // against the completion set (seqs ascending — collected in RUU
        // order), instead of rescanning the window per completing uop.
        for _ in &completed {
            self.activity.bump(Block::ResultBus);
            self.activity.bump(Block::Window);
        }
        if let (Some(&(first_idx, first_seq)), Some(&(_, last_seq))) =
            (completed.first(), completed.last())
        {
            let mut woken = std::mem::take(&mut self.wb_woken);
            woken.clear();
            for e in self.ruu.range_mut(first_idx + 1..) {
                let mut cleared = false;
                for d in e.deps.iter_mut() {
                    if let Some(v) = *d {
                        if v >= first_seq
                            && v <= last_seq
                            && completed.binary_search_by_key(&v, |&(_, s)| s).is_ok()
                        {
                            *d = None;
                            cleared = true;
                        }
                    }
                }
                // A cleared dep means the entry was not ready before this
                // cycle, so it cannot already be on the ready list.
                if cleared && !e.issued && e.ready() {
                    woken.push(e.seq);
                }
            }
            for &seq in &woken {
                let pos = self.ready_unissued.partition_point(|&s| s < seq);
                self.ready_unissued.insert(pos, seq);
            }
            self.wb_woken = woken;
        }
        self.wb_completed = completed;

        if let Some(idx) = recovery {
            self.recover(idx);
        }
    }

    /// Squashes everything younger than the mispredicted branch at RUU
    /// index `idx` and redirects fetch to the correct path.
    fn recover(&mut self, idx: usize) {
        let branch_seq = self.ruu[idx].seq;
        let (inst, ckpt, actual_taken, resume_idx) = {
            let e = &self.ruu[idx];
            (
                e.uop.inst,
                e.uop.pred.as_ref().expect("mispredicted branch has prediction").checkpoint,
                e.uop.actual_taken,
                e.uop.oracle_idx.expect("correct-path branch").checked_add(1).expect("seq"),
            )
        };

        while self.ruu.back().is_some_and(|e| e.seq > branch_seq) {
            self.ruu.pop_back();
        }
        while self.lsq.back().is_some_and(|e| e.seq > branch_seq) {
            self.lsq.pop_back();
        }
        self.ifq.clear();
        self.frontend.clear();

        // Rebuild the rename map from surviving entries.
        self.rename_map = [None; 64];
        for e in &self.ruu {
            if let Some(dest) = e.dest {
                self.rename_map[dest] = Some(e.seq);
            }
        }
        self.unresolved_branches = self.ruu.iter().filter(|e| e.is_control() && !e.completed).count();

        self.bpred.repair(&inst, ckpt, actual_taken);
        self.fetch_source = FetchSource::OnPath(resume_idx);
        self.fetch_stall_until = self.cycle + 1;
        self.stats.recoveries += 1;
        // RUU sequence numbers must stay contiguous (dependence lookups
        // index by `seq - front.seq`): recycle the squashed numbers.
        self.next_seq = branch_seq + 1;
        // Squashed entries leave the ready list too — the recycled seqs
        // will name fresh entries that must earn their own readiness.
        self.ready_unissued.retain(|&s| s <= branch_seq);
        self.next_completion = self.earliest_completion();
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    fn issue(&mut self) {
        if self.ready_unissued.is_empty() {
            return;
        }
        let mut issued = 0;
        let mut int_alu = self.cfg.int_alu_count;
        let mut int_mult = self.cfg.int_mult_count;
        let mut fp_alu = self.cfg.fp_alu_count;
        let mut fp_mult = self.cfg.fp_mult_count;
        let mut mem_ports = self.cfg.mem_ports;

        let front_seq =
            self.ruu.front().expect("a ready entry implies a nonempty window").seq;

        // Oldest-first over the ready candidates only. Entries that fail
        // to issue (no free unit, LSQ-blocked load, or past the issue
        // width) are kept, in order, for next cycle.
        let mut ready = std::mem::take(&mut self.ready_unissued);
        let mut kept = 0;
        for r in 0..ready.len() {
            let seq = ready[r];
            if issued >= self.cfg.issue_width {
                ready[kept] = seq;
                kept += 1;
                continue;
            }
            let i = (seq - front_seq) as usize;
            debug_assert!(self.ruu[i].ready() && !self.ruu[i].issued);
            let class = self.ruu[i].class;
            let latency = match class {
                OpClass::IntAlu | OpClass::Branch | OpClass::Jump | OpClass::System => {
                    if int_alu == 0 {
                        None
                    } else {
                        int_alu -= 1;
                        self.activity.bump(Block::IntExec);
                        Some(1)
                    }
                }
                OpClass::IntMul => {
                    if int_mult == 0 {
                        None
                    } else {
                        int_mult -= 1;
                        self.activity.bump(Block::IntExec);
                        Some(self.cfg.lat_int_mul)
                    }
                }
                OpClass::IntDiv => {
                    if int_mult == 0 {
                        None
                    } else {
                        int_mult -= 1;
                        self.activity.bump(Block::IntExec);
                        Some(self.cfg.lat_int_div)
                    }
                }
                OpClass::FpAdd => {
                    if fp_alu == 0 {
                        None
                    } else {
                        fp_alu -= 1;
                        self.activity.bump(Block::FpExec);
                        Some(self.cfg.lat_fp_add)
                    }
                }
                OpClass::FpMul => {
                    if fp_mult == 0 {
                        None
                    } else {
                        fp_mult -= 1;
                        self.activity.bump(Block::FpExec);
                        Some(self.cfg.lat_fp_mul)
                    }
                }
                OpClass::FpDiv => {
                    if fp_mult == 0 {
                        None
                    } else {
                        fp_mult -= 1;
                        self.activity.bump(Block::FpExec);
                        Some(self.cfg.lat_fp_div)
                    }
                }
                OpClass::Store => {
                    if mem_ports == 0 {
                        None
                    } else {
                        mem_ports -= 1;
                        // Address generation; the cache write happens at commit.
                        self.activity.bump(Block::IntExec);
                        self.lsq_mark_addr_known(seq);
                        Some(1)
                    }
                }
                OpClass::Load => {
                    if mem_ports == 0 {
                        None
                    } else {
                        match self.try_issue_load(i, front_seq) {
                            Some(lat) => {
                                mem_ports -= 1;
                                Some(lat)
                            }
                            None => None,
                        }
                    }
                }
            };
            let Some(latency) = latency else {
                ready[kept] = seq;
                kept += 1;
                continue;
            };

            let e = &mut self.ruu[i];
            e.issued = true;
            e.complete_cycle = self.cycle + latency;
            self.next_completion = self.next_completion.min(e.complete_cycle);
            self.activity.bump(Block::Window);
            issued += 1;
            self.stats.issued += 1;
        }
        ready.truncate(kept);
        self.ready_unissued = ready;
    }

    /// Checks LSQ ordering constraints for the load at RUU index `i` and
    /// performs the cache access if it may issue. Returns the load
    /// latency, or `None` if it must wait.
    fn try_issue_load(&mut self, ruu_idx: usize, front_seq: u64) -> Option<u64> {
        let entry = &self.ruu[ruu_idx];
        let (seq, addr) = (entry.seq, entry.uop.mem_addr.expect("loads have addresses"));

        // A load blocked by a store that is still in the window and still
        // unissued stays blocked: no store can enter between the two
        // (dispatch appends younger ones), none can leave (commit is in
        // order behind the blocker, and a squash that removed one would
        // remove the load too), and the ones between keep their known
        // addresses. Only the blocker's issue changes the verdict. A
        // committed blocker has a seq below the window head.
        if let Some(store) = entry.blocked_by {
            if store >= front_seq && !self.ruu[(store - front_seq) as usize].issued {
                debug_assert_eq!(
                    lsq_conflict(&self.lsq, seq, addr),
                    LsqConflict::Blocked(store),
                    "stale LSQ block memo"
                );
                return None;
            }
        }
        let conflict = lsq_conflict(&self.lsq, seq, addr);
        if let LsqConflict::Blocked(store) = conflict {
            self.ruu[ruu_idx].blocked_by = Some(store);
            return None;
        }

        // The LSQ CAM search is charged once per successfully issued load
        // (a blocked load does not re-search every cycle).
        self.activity.bump(Block::Lsq);
        if conflict == LsqConflict::Forward {
            self.stats.forwards += 1;
            return Some(1);
        }

        self.activity.bump(Block::Dcache);
        self.activity.bump(Block::Dtlb);
        let mut lat = self.l1d.latency();
        if !self.dtlb.access(addr) {
            lat += self.cfg.tlb_miss_penalty;
        }
        let out = self.l1d.access(addr, false);
        if !out.hit {
            self.stats.dcache_misses += 1;
            self.activity.bump(Block::L2);
            lat += self.l2.latency();
            if !self.l2.access(addr, false).hit {
                self.stats.l2_misses += 1;
                lat += self.cfg.mem_latency;
            }
        }
        Some(lat)
    }

    fn lsq_mark_addr_known(&mut self, seq: u64) {
        if let Some(e) = self.lsq.iter_mut().find(|e| e.seq == seq) {
            e.addr_known = true;
        }
    }

    fn lsq_remove(&mut self, seq: u64) {
        if let Some(pos) = self.lsq.iter().position(|e| e.seq == seq) {
            self.lsq.remove(pos);
            self.activity.bump(Block::Lsq);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (rename into RUU/LSQ)
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        let mut n = 0;
        while n < self.cfg.decode_width {
            let Some(&(ready_at, _)) = self.frontend.front().map(|(c, u)| (c, u)).as_ref() else {
                break;
            };
            if *ready_at > self.cycle {
                break;
            }
            if self.ruu.len() >= self.cfg.ruu_size {
                break;
            }
            let is_mem = matches!(
                self.frontend.front().expect("checked").1.inst.op.class(),
                OpClass::Load | OpClass::Store
            );
            if is_mem && self.lsq.len() >= self.cfg.lsq_size {
                break;
            }
            let (_, uop) = self.frontend.pop_front().expect("checked");
            self.dispatch_one(uop);
            n += 1;
        }
    }

    fn dispatch_one(&mut self, uop: Uop) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let inst = uop.inst;
        let class = inst.op.class();

        // Resolve register dependences through the rename map.
        let mut deps: [Option<u64>; 2] = [None, None];
        let mut di = 0;
        let mut regfile_reads = 0u32;
        let front = self.ruu.front().map(|e| e.seq).unwrap_or(seq);
        let mut add_src = |arch: usize, this: &mut Core| {
            match this.rename_map[arch] {
                Some(producer) => {
                    let idx = (producer - front) as usize;
                    if this.ruu.get(idx).map(|e| !e.completed).unwrap_or(false) {
                        if di < 2 {
                            deps[di] = Some(producer);
                            di += 1;
                        }
                    } else {
                        regfile_reads += 1;
                    }
                }
                None => regfile_reads += 1,
            }
        };
        for r in inst.int_sources() {
            add_src(r.index(), self);
        }
        for r in inst.fp_sources() {
            add_src(32 + r.index(), self);
        }

        self.activity.add(Block::Regfile, regfile_reads);
        self.activity.bump(Block::Window);

        let dest = inst
            .int_dest()
            .map(|r| r.index())
            .or_else(|| inst.fp_dest().map(|r| 32 + r.index()));
        if let Some(d) = dest {
            self.rename_map[d] = Some(seq);
        }

        if matches!(class, OpClass::Load | OpClass::Store) {
            self.activity.bump(Block::Lsq);
            self.lsq.push_back(LsqEntry {
                seq,
                is_store: class == OpClass::Store,
                addr: uop.mem_addr.unwrap_or(0),
                addr_known: false,
            });
        }
        if matches!(class, OpClass::Branch | OpClass::Jump) {
            self.unresolved_branches += 1;
        }

        let born_ready = deps[0].is_none() && deps[1].is_none();
        self.ruu.push_back(RuuEntry {
            seq,
            uop,
            class,
            deps,
            issued: false,
            completed: false,
            complete_cycle: 0,
            dest,
            blocked_by: None,
        });
        if born_ready {
            // `seq` exceeds every live seq, so a push keeps the list sorted.
            debug_assert!(self.ready_unissued.last().is_none_or(|&s| s < seq));
            self.ready_unissued.push(seq);
        }
        self.stats.dispatched += 1;
    }

    // ------------------------------------------------------------------
    // Decode: IFQ -> frontend pipe
    // ------------------------------------------------------------------

    fn decode(&mut self) {
        let capacity = self.frontend_capacity();
        let mut n = 0;
        while n < self.cfg.decode_width && self.frontend.len() < capacity {
            let Some(uop) = self.ifq.pop_front() else { break };
            self.activity.bump(Block::Rename);
            self.frontend.push_back((self.cycle + self.cfg.frontend_depth, uop));
            n += 1;
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self) {
        if self.cycle < self.fetch_stall_until {
            return;
        }
        if !self.gate.tick() {
            self.stats.gated_cycles += 1;
            return;
        }
        if let Some(limit) = self.control.max_unresolved_branches {
            if self.unresolved_branches > limit {
                self.stats.spec_control_stalls += 1;
                return;
            }
        }

        let width = self.effective_fetch_width();
        if width == 0 || self.ifq.len() >= self.cfg.ifq_size {
            return;
        }

        // One I-cache (and I-TLB) access of fetch-width granularity.
        let fetch_pc = match self.fetch_source {
            FetchSource::OnPath(idx) => match self.oracle.get(idx) {
                Some(r) => r.pc,
                None => return, // program exhausted
            },
            FetchSource::WrongPath { pc, .. } => pc,
        };
        self.activity.bump(Block::Icache);
        self.activity.bump(Block::Itlb);
        let mut stall = 0;
        if !self.itlb.access(fetch_pc) {
            stall += self.cfg.tlb_miss_penalty;
        }
        let out = self.l1i.access(fetch_pc, false);
        if !out.hit {
            self.stats.icache_misses += 1;
            self.activity.bump(Block::L2);
            stall += self.l2.latency();
            if !self.l2.access(fetch_pc, false).hit {
                self.stats.l2_misses += 1;
                stall += self.cfg.mem_latency;
            }
        }
        if stall > 0 {
            self.fetch_stall_until = self.cycle + stall;
            return;
        }

        self.activity.bump(Block::Bpred); // per-group predictor/BTB probe
        for _ in 0..width {
            if self.ifq.len() >= self.cfg.ifq_size {
                break;
            }
            match self.fetch_source {
                FetchSource::OnPath(idx) => {
                    let Some(r) = self.oracle.get(idx).copied() else { break };
                    let stop = self.fetch_correct_path(idx, &r);
                    if stop {
                        break;
                    }
                }
                FetchSource::WrongPath { resume_idx, pc } => {
                    self.fetch_wrong_path(resume_idx, pc);
                }
            }
        }
    }

    /// Fetches one correct-path instruction; returns `true` if the fetch
    /// group must stop (taken branch or redirect).
    fn fetch_correct_path(&mut self, idx: u64, r: &Retired) -> bool {
        let mut uop = Uop {
            inst: r.inst,
            pc: r.pc,
            wrong_path: false,
            oracle_idx: Some(idx),
            mem_addr: r.mem.map(|m| m.addr),
            actual_taken: r.branch.map(|b| b.taken).unwrap_or(false),
            actual_target: r.next_pc,
            pred: None,
            will_mispredict: false,
        };

        let mut stop = false;
        if r.inst.op.is_control() {
            self.activity.bump(Block::Bpred);
            let pred = self.bpred.predict(r.pc, &r.inst);
            let pred_taken = pred.taken && pred.target.is_some();
            let pred_next = if pred_taken {
                pred.target.expect("checked")
            } else {
                r.pc + 4
            };
            let mispredict = pred_next != r.next_pc;
            uop.pred = Some(pred);
            uop.will_mispredict = mispredict;
            if mispredict {
                self.fetch_source = FetchSource::WrongPath { resume_idx: idx + 1, pc: pred_next };
                stop = true; // redirect (even a wrong one) ends the group
            } else {
                self.fetch_source = FetchSource::OnPath(idx + 1);
                stop = pred_taken; // fetch stops at a taken branch
            }
        } else {
            self.fetch_source = FetchSource::OnPath(idx + 1);
        }

        self.ifq.push_back(uop);
        self.stats.fetched += 1;
        stop
    }

    fn fetch_wrong_path(&mut self, resume_idx: u64, pc: u64) {
        let (inst, addr) = self.wrong_path.next_inst();
        if inst.op.is_control() {
            self.activity.bump(Block::Bpred);
            // Pollutes speculative history/RAS exactly like a real wrong
            // path; repaired at recovery via the mispredicted branch's
            // checkpoint.
            let _ = self.bpred.predict(pc, &inst);
        }
        let uop = Uop {
            inst,
            pc,
            wrong_path: true,
            oracle_idx: None,
            mem_addr: addr,
            actual_taken: false,
            actual_target: 0,
            pred: None,
            will_mispredict: false,
        };
        self.fetch_source = FetchSource::WrongPath { resume_idx, pc: pc + 4 };
        self.ifq.push_back(uop);
        self.stats.fetched += 1;
        self.stats.wrong_path_fetched += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_isa::asm::assemble;

    fn run_to_completion(src: &str) -> Core {
        let p = assemble(src).expect("assembles");
        let mut core = Core::new(CoreConfig::alpha21264_like(), &p);
        for _ in 0..2_000_000 {
            if core.finished() {
                return core;
            }
            core.cycle();
        }
        panic!("program did not finish; committed={}", core.stats().committed);
    }

    #[test]
    fn straight_line_code_commits_everything() {
        let core = run_to_completion(
            "addi x1, x0, 1
             addi x2, x0, 2
             add  x3, x1, x2
             out  x3
             halt",
        );
        assert_eq!(core.stats().committed, 5);
        assert_eq!(core.output(), &[3]);
    }

    #[test]
    fn tight_loop_reaches_superscalar_ipc() {
        let core = run_to_completion(
            "     li x1, 5000
             l:   addi x2, x2, 1
                  addi x3, x3, 2
                  addi x4, x4, 3
                  addi x1, x1, -1
                  bne  x1, x0, l
                  halt",
        );
        let ipc = core.stats().ipc();
        assert!(ipc > 1.5, "independent ALU loop should exceed 1.5 IPC, got {ipc}");
        assert!(core.bpred().accuracy() > 0.99, "loop branch is highly predictable");
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // A multiply chain can't beat 1/lat IPC.
        let core = run_to_completion(
            "     li x1, 2000
                  li x2, 3
             l:   mul x2, x2, x2
                  addi x1, x1, -1
                  bne x1, x0, l
                  halt",
        );
        let ipc = core.stats().ipc();
        assert!(ipc < 1.5, "3-cycle dependent multiplies bound IPC, got {ipc}");
    }

    #[test]
    fn loads_and_stores_flow_through_lsq() {
        let core = run_to_completion(
            "        .data
             buf:    .zero 800
                     .text
                     la  x1, buf
                     li  x2, 100
             fill:   sw  x2, 0(x1)
                     lw  x3, 0(x1)       # forwarded from the store
                     add x4, x4, x3
                     addi x1, x1, 8
                     addi x2, x2, -1
                     bne x2, x0, fill
                     halt",
        );
        assert!(core.stats().forwards > 50, "store-to-load forwarding expected");
        assert_eq!(core.stats().committed, 3 + 100 * 6);
    }

    #[test]
    fn mispredictions_trigger_recovery_and_wrong_path_fetch() {
        // Data-dependent unpredictable branch pattern: bit 13 of an LCG.
        let core = run_to_completion(
            "     li x1, 3000
                  li x5, 12345
                  li x8, 1103515245
             l:   mul x5, x5, x8
                  addi x5, x5, 12345
                  andi x6, x5, 8192
                  beq x6, x0, skip
                  addi x7, x7, 1
             skip: addi x1, x1, -1
                  bne x1, x0, l
                  halt",
        );
        assert!(core.stats().recoveries > 100, "expected recoveries, got {}", core.stats().recoveries);
        assert!(core.stats().wrong_path_fetched > 0);
        let acc = core.bpred().accuracy();
        assert!(acc < 0.999, "pattern should not be perfectly predictable: {acc}");
    }

    #[test]
    fn fetch_gating_slows_execution_proportionally() {
        let src = "     li x1, 3000
                   l:   addi x2, x2, 1
                        addi x3, x3, 1
                        addi x1, x1, -1
                        bne  x1, x0, l
                        halt";
        let p = assemble(src).unwrap();
        let mut free = Core::new(CoreConfig::alpha21264_like(), &p);
        while !free.finished() {
            free.cycle();
        }
        let mut gated = Core::new(CoreConfig::alpha21264_like(), &p);
        gated.set_control(CoreControl { fetch_duty: 0.25, ..CoreControl::default() });
        while !gated.finished() {
            gated.cycle();
            assert!(gated.stats().cycles < 10_000_000, "gated run must still finish");
        }
        let slowdown = gated.stats().cycles as f64 / free.stats().cycles as f64;
        assert!(
            slowdown > 2.0,
            "quarter-duty fetch should slow this fetch-bound loop >2x, got {slowdown}"
        );
        assert!(gated.stats().gated_cycles > gated.stats().cycles / 2);
    }

    #[test]
    fn zero_duty_stops_fetch_entirely() {
        let p = assemble("l: j l").unwrap();
        let mut core = Core::new(CoreConfig::alpha21264_like(), &p);
        // Let the pipeline fill, then gate fully.
        for _ in 0..100 {
            core.cycle();
        }
        core.set_control(CoreControl { fetch_duty: 0.0, ..CoreControl::default() });
        let fetched_before = core.stats().fetched;
        for _ in 0..1000 {
            core.cycle();
        }
        assert_eq!(core.stats().fetched, fetched_before, "toggle1 stops all fetch");
    }

    #[test]
    fn speculation_control_limits_unresolved_branches() {
        let src = "     li x1, 2000
                   l:   addi x2, x2, 1
                        addi x1, x1, -1
                        bne  x1, x0, l
                        halt";
        let p = assemble(src).unwrap();
        let mut limited = Core::new(CoreConfig::alpha21264_like(), &p);
        limited.set_control(CoreControl {
            max_unresolved_branches: Some(1),
            ..CoreControl::default()
        });
        while !limited.finished() {
            limited.cycle();
        }
        assert!(limited.stats().spec_control_stalls > 0);
        let mut free = Core::new(CoreConfig::alpha21264_like(), &p);
        while !free.finished() {
            free.cycle();
        }
        assert!(limited.stats().cycles >= free.stats().cycles);
    }

    #[test]
    fn activity_counters_track_pipeline_events() {
        let p = assemble(
            "     li x1, 50
             l:   addi x2, x2, 1
                  addi x1, x1, -1
                  bne x1, x0, l
                  halt",
        )
        .unwrap();
        let mut core = Core::new(CoreConfig::alpha21264_like(), &p);
        let mut saw_icache = false;
        let mut saw_window = false;
        let mut saw_int = false;
        while !core.finished() {
            let a = core.cycle();
            saw_icache |= a[Block::Icache] > 0;
            saw_window |= a[Block::Window] > 0;
            saw_int |= a[Block::IntExec] > 0;
        }
        assert!(saw_icache && saw_window && saw_int);
    }

    #[test]
    fn skip_fast_forwards_functional_state() {
        let src = "     li x1, 1000
                   l:   addi x5, x5, 1
                        addi x1, x1, -1
                        bne  x1, x0, l
                        out  x5
                        halt";
        let p = assemble(src).unwrap();
        // Skip most of the loop; the timed region still produces the
        // architecturally correct output.
        let mut core = Core::with_skip(CoreConfig::alpha21264_like(), &p, 2_500);
        while !core.finished() {
            core.cycle();
        }
        assert_eq!(core.output(), &[1000]);
        assert!(
            core.stats().committed < 600,
            "only the tail should be timed, committed {}",
            core.stats().committed
        );
    }

    #[test]
    fn program_output_matches_functional_semantics() {
        // The timing model must not change architectural results.
        let core = run_to_completion(
            "     li x1, 10
                  li x2, 0
             l:   add x2, x2, x1
                  addi x1, x1, -1
                  bne x1, x0, l
                  out x2
                  halt",
        );
        assert_eq!(core.output(), &[55]);
    }

    /// Runs `p` on a ticking core and on a twin that fast-forwards every
    /// window [`Core::idle_window`] finds, in lockstep. Every skipped
    /// cycle must be a zero-activity cycle on the ticking core, and the
    /// twins' stats (cycle, gated-cycle and occupancy counters included)
    /// must agree after every step. `on_window` sees the skipping core at
    /// the start of each window. Returns the skipping core.
    fn lockstep_with_skipping(
        p: &Program,
        control: CoreControl,
        mut on_window: impl FnMut(&Core, u64, IdleKind),
    ) -> Core {
        let mut reference = Core::new(CoreConfig::alpha21264_like(), p);
        let mut skipping = Core::new(CoreConfig::alpha21264_like(), p);
        reference.set_control(control);
        skipping.set_control(control);
        let mut guard = 0u64;
        while !skipping.finished() {
            guard += 1;
            assert!(guard < 2_000_000, "{control:?}: run did not finish");
            if let Some((k, kind)) = skipping.idle_window(256) {
                on_window(&skipping, k, kind);
                for _ in 0..k {
                    let a = reference.cycle();
                    assert_eq!(a.total(), 0, "{control:?}: skipped cycle had activity");
                }
                skipping.skip_idle(k);
            } else {
                reference.cycle();
                skipping.cycle();
            }
            assert_eq!(reference.stats(), skipping.stats(), "{control:?}");
        }
        assert!(reference.finished(), "lockstep twins finish together");
        assert_eq!(reference.output(), skipping.output());
        skipping
    }

    /// The idle-window contract, end to end: a core that fast-forwards
    /// every detected window must be indistinguishable — stats, cycle
    /// counter, gated-cycle counter, occupancy sums, architectural
    /// output — from one ticking cycle by cycle, and every skipped cycle
    /// must have been a zero-activity cycle on the reference.
    #[test]
    fn idle_window_skip_is_indistinguishable_from_ticking() {
        let src = "     li x1, 400
                   l:   addi x2, x2, 1
                        addi x3, x3, 1
                        addi x1, x1, -1
                        bne  x1, x0, l
                        halt";
        let p = assemble(src).unwrap();
        for duty in [0.125, 0.25, 0.5] {
            let mut windows = 0u64;
            let control = CoreControl { fetch_duty: duty, ..CoreControl::default() };
            let core = lockstep_with_skipping(&p, control, |_, _, _| windows += 1);
            assert!(windows > 0, "duty {duty}: gated loop should expose idle windows");
            assert!(core.stats().gated_cycles > 0);
        }
    }

    #[test]
    fn drained_miss_chains_expose_idle_windows_at_full_duty() {
        // Pointer-chase of cold misses: the pipeline drains down to one
        // in-flight load whose completion cycle is known, so windows are
        // detected even with the fetch gate wide open (the stall comes
        // from the I-cache-miss fetch stall + drained window).
        let p = assemble(
            "        li x1, 0x200000
                     li x2, 300
             l:      lw x3, 0(x1)
                     lw x4, 0(x3)        # depends on the missing load
                     addi x1, x1, 8192
                     addi x2, x2, -1
                     bne x2, x0, l
                     halt",
        )
        .unwrap();
        let mut drained = 0u64;
        lockstep_with_skipping(&p, CoreControl::default(), |_, _, kind| {
            drained += (kind == IdleKind::Drained) as u64;
        });
        assert!(drained > 0, "miss-bound chase should expose drained windows");
    }

    #[test]
    fn back_pressured_miss_chains_expose_idle_windows_at_full_duty() {
        // A serialized chain of cold misses (each load's address waits on
        // the previous load) with a loop body that all waits on the miss.
        // The window fills behind it, then the rename pipe and the IFQ
        // fill behind the window, and no stage can move until the miss
        // returns. An ALU-heavy body fills the RUU first; a memory-heavy
        // body (5 of 9 ops) fills the LSQ first, so dispatch stalls on a
        // load/store at the rename-pipe head.
        let chase = |body: &str| {
            format!(
                "        li x1, 0x200000
                         li x2, 120
                 l:      lw   x4, 0(x1)       # cold miss
                         add  x1, x1, x4      # the next address waits on it
                         addi x1, x1, 8192
                         {body}
                         addi x2, x2, -1
                         bne  x2, x0, l
                         out  x5
                         halt"
            )
        };
        let alu = chase(
            "add x5, x5, x4
             add x6, x6, x4
             add x7, x7, x4
             add x8, x8, x4
             add x9, x9, x4
             add x10, x10, x4",
        );
        let mem = chase(
            "lw  x5, 8(x4)
             sw  x5, 16(x4)
             lw  x6, 24(x4)
             sw  x6, 32(x4)",
        );
        for (what, src) in [("alu", alu), ("mem", mem)] {
            let p = assemble(&src).unwrap();
            let cfg = CoreConfig::alpha21264_like();
            let (mut ruu_full, mut lsq_full, mut ifq_full, mut skipped) = (0u64, 0u64, 0u64, 0u64);
            let core = lockstep_with_skipping(&p, CoreControl::default(), |c, k, _| {
                skipped += k;
                if c.frontend.len() == c.frontend_capacity() {
                    ruu_full += (c.ruu.len() == cfg.ruu_size) as u64;
                    lsq_full += (c.lsq.len() == cfg.lsq_size) as u64;
                    ifq_full += (c.ifq.len() == cfg.ifq_size) as u64;
                }
            });
            assert!(ifq_full > 0, "{what}: no window behind a full IFQ and rename pipe");
            match what {
                "alu" => assert!(ruu_full > 0, "alu: no window behind a full RUU"),
                _ => assert!(lsq_full > 0, "mem: no window behind a full LSQ"),
            }
            let frac = skipped as f64 / core.stats().cycles as f64;
            assert!(frac > 0.5, "{what}: miss-bound chase skipped only {frac:.2} of its cycles");
        }
    }

    #[test]
    fn memory_latency_shows_up_for_cold_misses() {
        // Pointer-chase across 8 KB-spaced lines: every load is a cold
        // L1 (and mostly L2) miss and each depends on the previous one.
        let core = run_to_completion(
            "        li x1, 0x200000
                     li x2, 500
             l:      lw x3, 0(x1)        # cold miss chain
                     addi x1, x1, 8192
                     addi x2, x2, -1
                     bne x2, x0, l
                     halt",
        );
        let ipc = core.stats().ipc();
        assert!(ipc < 1.0, "miss-bound chase should be slow, got {ipc}");
        assert!(core.stats().dcache_misses > 400);
    }
}
