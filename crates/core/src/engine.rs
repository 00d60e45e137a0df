//! The parallel, deterministic experiment engine.
//!
//! The paper's result tables are grids: every benchmark crossed with every
//! policy (Section 7), or with every proxy configuration (Tables 9/10).
//! Each cell is an independent simulation, so the grid shards perfectly
//! across threads — but the *results* must not depend on scheduling.
//!
//! [`ExperimentGrid`] enumerates (workload × policy × config-variant)
//! cells in a fixed order, [`shard_map`] fans them out over
//! `std::thread::scope` workers, and results come back keyed by cell
//! index. The reports are byte-identical regardless of worker count:
//! `TDTM_THREADS=1` reproduces `TDTM_THREADS=8` exactly (only the
//! wall-clock observability in [`RunObservation`] varies).
//!
//! ```
//! use tdtm_core::engine::ExperimentGrid;
//! use tdtm_core::experiments::ExperimentScale;
//! use tdtm_dtm::PolicyKind;
//!
//! let grid = ExperimentGrid::new(ExperimentScale::quick())
//!     .workload(tdtm_workloads::by_name("gcc").unwrap())
//!     .policies(&[PolicyKind::None, PolicyKind::Pid]);
//! let results = grid.run();
//! assert_eq!(results.runs.len(), 2);
//! assert!(results.runs[0].obs.thermal_steps > 0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use crate::cache::{self, CacheStats, CellArtifact, Claim, ResultCache};
use crate::config::SimConfig;
use crate::experiments::ExperimentScale;
use crate::group::{Branch, PolicyGroup};
use crate::metrics::RunReport;
use crate::simulator::Simulator;
use tdtm_dtm::PolicyKind;
use tdtm_telemetry::{
    CellRecord, Histogram, HistogramSnapshot, Phase, PhaseProfile, RegistrySnapshot, StampedSink,
    StreamSink, Telemetry, TelemetryConfig,
};
use tdtm_workloads::{suite, Workload};

/// A configuration override applied to a cell's [`SimConfig`] after the
/// scale and policy are set. A plain function pointer so cells stay
/// `Clone` and trivially shareable across workers.
pub type ConfigPatch = fn(&mut SimConfig);

/// Worker count for [`ExperimentGrid::run`]: the `TDTM_THREADS`
/// environment variable if set to a positive integer, else the machine's
/// available parallelism.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("TDTM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item of `items`, sharding the work across
/// `threads` scoped worker threads. Workers take items in order from one
/// shared queue (so uneven cell costs still balance), but the returned
/// vector is ordered by item index — identical for any thread count.
///
/// # Panics
///
/// Propagates a panic from `f` (the first worker panic observed).
pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let keyed = Mutex::new(Vec::with_capacity(items.len()));
    let threads = threads.min(items.len());
    run_queue((0..items.len()).collect(), threads, |i, _| {
        let r = f(i, &items[i]);
        keyed.lock().expect("shard_map results lock poisoned").push((i, r));
    });
    let mut keyed = keyed.into_inner().expect("shard_map results lock poisoned");
    keyed.sort_by_key(|&(i, _)| i);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Runs `tasks`, and every task they spawn, on `threads` scoped worker
/// threads; `f` runs one task and records its result itself. Workers
/// take the most recently queued task first, so spawned tasks run before
/// the tasks queued ahead of them (depth-first, which keeps few of them
/// alive at once), and `tasks` start in order.
///
/// # Panics
///
/// Propagates a panic from `f` (the first worker panic observed); the
/// other workers stop taking tasks.
fn run_queue<T, F>(tasks: Vec<T>, threads: usize, f: F)
where
    T: Send,
    F: Fn(T, &dyn Fn(T)) + Sync,
{
    struct Queue<T> {
        tasks: Vec<T>,
        /// Tasks queued or running.
        open: usize,
        failed: bool,
    }
    /// Marks a taken task finished — also when `f` unwinds, so the
    /// other workers wake and stop instead of waiting on it forever.
    struct Finish<'a, T>(&'a Mutex<Queue<T>>, &'a Condvar);
    impl<T> Drop for Finish<'_, T> {
        fn drop(&mut self) {
            let mut q = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            q.open -= 1;
            q.failed |= std::thread::panicking();
            if q.open == 0 || q.failed {
                self.1.notify_all();
            }
        }
    }

    if tasks.is_empty() {
        return;
    }
    let queue = Mutex::new(Queue {
        open: tasks.len(),
        tasks: tasks.into_iter().rev().collect(),
        failed: false,
    });
    let ready = Condvar::new();
    let lock = || queue.lock().unwrap_or_else(PoisonError::into_inner);
    let spawn = |task: T| {
        let mut q = lock();
        q.tasks.push(task);
        q.open += 1;
        ready.notify_one();
    };
    let work = || loop {
        let task = {
            let mut q = lock();
            loop {
                if q.failed {
                    return;
                }
                if let Some(task) = q.tasks.pop() {
                    break task;
                }
                if q.open == 0 {
                    return;
                }
                q = ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let _finish = Finish(&queue, &ready);
        f(task, &spawn);
    };
    if threads <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Assembles one cell's [`RunResult`] from its report and payload — the
/// one constructor of every run path (solo, grouped, cached, follower,
/// custom drivers, and streaming).
fn result_from_report<R>(cell: &GridCell, report: RunReport, wall: f64, extra: R) -> RunResult<R> {
    RunResult {
        index: cell.index,
        bench: cell.workload.name.to_string(),
        policy: cell.policy,
        variant: cell.variant,
        obs: RunObservation::from_report(&report, wall),
        report,
        extra,
    }
}

/// Runs a set of cells with grouped dispatch: cells that differ only in
/// their DTM policy form one policy group ([`crate::group`]), simulated
/// as one trajectory that forks where the members' commands diverge;
/// everything else — and a group of one — runs the per-cell chip path.
/// A group's forks join the shared work queue, so even a grid of one
/// program keeps every worker busy once its policies diverge. `publish`
/// runs in the worker for each finished result (the cached path's
/// publication hook; a no-op for plain runs). Results come back in
/// completion order — callers sort or index by [`RunResult::index`].
fn run_cells_grouped(
    cells: &[&GridCell],
    threads: usize,
    publish: &(dyn Fn(&RunResult) + Sync),
) -> Vec<RunResult> {
    // Work items in order of each one's first cell.
    let mut items: Vec<Vec<&GridCell>> = Vec::new();
    let mut item_of: HashMap<u128, usize> = HashMap::new();
    for &cell in cells {
        match crate::group::group_key(cell) {
            Some(key) => match item_of.get(&key) {
                Some(&item) => items[item].push(cell),
                None => {
                    item_of.insert(key, items.len());
                    items.push(vec![cell]);
                }
            },
            None => items.push(vec![cell]),
        }
    }

    /// A group in flight: its branches queued or running, the member
    /// reports so far, and the worker seconds its branches took.
    struct Progress {
        live: usize,
        reports: Vec<Option<RunReport>>,
        seconds: f64,
    }
    let groups: Vec<Option<(PolicyGroup, Mutex<Progress>)>> = items
        .iter()
        .map(|item| {
            (item.len() > 1).then(|| {
                let progress = Progress { live: 1, reports: vec![None; item.len()], seconds: 0.0 };
                (PolicyGroup::new(item), Mutex::new(progress))
            })
        })
        .collect();
    enum Task {
        /// Item `k`: its solo cell, or its group's trunk.
        Item(usize),
        /// A branch forked off group `k`.
        Fork(usize, Box<Branch>),
    }

    let results = Mutex::new(Vec::with_capacity(cells.len()));
    let finish = |cell: &GridCell, report: RunReport, wall: f64| {
        let run = result_from_report(cell, report, wall, ());
        publish(&run);
        results.lock().expect("results lock poisoned").push(run);
    };
    let tasks = (0..items.len()).map(Task::Item).collect();
    // Every branch carries at least one cell, so no more than one worker
    // per cell can ever be busy.
    run_queue(tasks, threads.min(cells.len()), |task, spawn| {
        let start = Instant::now();
        let (k, branch) = match task {
            Task::Item(k) => match &groups[k] {
                None => {
                    let (report, _chip) = items[k][0].run_chip();
                    return finish(items[k][0], report, start.elapsed().as_secs_f64());
                }
                Some((group, _)) => (k, group.trunk()),
            },
            Task::Fork(k, branch) => (k, *branch),
        };
        let (group, progress) = groups[k].as_ref().expect("branches belong to a group");
        let lock = || progress.lock().expect("policy group lock poisoned");
        let end = group.run_branch(branch, &mut |fork| {
            lock().live += 1;
            spawn(Task::Fork(k, Box::new(fork)));
        });
        let mut p = lock();
        p.seconds += start.elapsed().as_secs_f64();
        for (i, report) in end.reports {
            p.reports[i] = Some(report);
        }
        p.live -= 1;
        if p.live == 0 {
            // Members share simulation, so per-cell wall time is not
            // separable; each cell is charged an even share of the worker
            // time its group took (wall_seconds is nondeterministic and
            // never part of identity pins).
            let wall = p.seconds / items[k].len() as f64;
            let reports = std::mem::take(&mut p.reports);
            drop(p);
            for (cell, report) in items[k].iter().zip(reports) {
                finish(cell, report.expect("every member finished"), wall);
            }
        }
    });
    results.into_inner().expect("results lock poisoned")
}

/// One cell of an [`ExperimentGrid`]: a workload under a policy with a
/// named configuration variant, at a fixed position in the grid.
#[derive(Clone)]
pub struct GridCell {
    /// Position in the grid's enumeration order (results come back in
    /// this order).
    pub index: usize,
    /// The benchmark to run.
    pub workload: Workload,
    /// The DTM policy for this cell.
    pub policy: PolicyKind,
    /// Name of the configuration variant ("base" when none was given).
    pub variant: &'static str,
    /// The grid's scale.
    pub scale: ExperimentScale,
    patch: ConfigPatch,
    /// Power model shared across every cell with the same power/core
    /// configuration — the tables are immutable, so one model serves all
    /// (policy × variant) cells of a grid.
    power: Arc<tdtm_power::PowerModel>,
}

impl GridCell {
    /// A human-readable cell label, e.g. `gcc/PID` or `art/none/cold`.
    pub fn label(&self) -> String {
        if self.variant == "base" {
            format!("{}/{}", self.workload.name, self.policy)
        } else {
            format!("{}/{}/{}", self.workload.name, self.policy, self.variant)
        }
    }

    /// The cell's full configuration: scale + policy, then the variant
    /// patch.
    pub fn config(&self) -> SimConfig {
        let mut cfg = self.scale.config(self.policy);
        (self.patch)(&mut cfg);
        cfg
    }

    /// A ready-to-run simulator for this cell, reusing the grid's shared
    /// program and power-model artifacts.
    pub fn simulator(&self) -> Simulator {
        Simulator::for_workload_with_power(self.config(), &self.workload, Arc::clone(&self.power))
    }

    /// The grid's shared power model for this cell (custom drivers that
    /// build a [`crate::multicore::MulticoreSim`] themselves reuse it).
    pub fn power_model(&self) -> Arc<tdtm_power::PowerModel> {
        Arc::clone(&self.power)
    }

    /// The grid's shared power model for this cell, borrowed.
    pub(crate) fn power_ref(&self) -> &tdtm_power::PowerModel {
        &self.power
    }

    /// Runs this cell, dispatching on its chip configuration: a plain
    /// single-core cell takes [`GridCell::simulator`], while a cell whose
    /// variant configures multiple cores or a supervisor runs on the
    /// multicore chip simulator (returning core 0's report plus the full
    /// [`ChipReport`](crate::multicore::ChipReport)).
    pub fn run_chip(&self) -> (RunReport, Option<crate::multicore::ChipReport>) {
        crate::multicore::run_chip_cell(self.config(), &self.workload, self.power_model())
    }
}

/// Host-side observability for one cell run: wall-clock cost, simulated
/// throughput, and work counters.
///
/// The work counters (`thermal_steps`, `committed`, `dtm_samples`) are
/// deterministic functions of the cell's configuration. `wall_seconds` is
/// host wall-clock time and is **nondeterministic** — it varies run to
/// run, machine to machine, and with the worker-thread count — so it is
/// explicitly excluded from byte-identity pins; tests compare
/// observations with [`deterministic_eq`](RunObservation::deterministic_eq)
/// rather than `==`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RunObservation {
    /// Host wall-clock seconds spent on the cell (nondeterministic; never
    /// part of byte-identity pins).
    pub wall_seconds: f64,
    /// Thermal-model steps taken (= total simulated cycles, including
    /// warmup).
    pub thermal_steps: u64,
    /// Instructions retired over counted cycles.
    pub committed: u64,
    /// Controller (DTM policy) invocations.
    pub dtm_samples: u64,
}

impl RunObservation {
    fn from_report(report: &RunReport, wall_seconds: f64) -> RunObservation {
        RunObservation {
            wall_seconds,
            thermal_steps: report.total_cycles,
            committed: report.committed,
            dtm_samples: report.samples,
        }
    }

    /// Compares the deterministic fields only — everything except
    /// `wall_seconds`. This is what determinism tests should use instead
    /// of hand-rolling per-field comparisons.
    pub fn deterministic_eq(&self, other: &RunObservation) -> bool {
        self.thermal_steps == other.thermal_steps
            && self.committed == other.committed
            && self.dtm_samples == other.dtm_samples
    }

    /// Simulated cycles per host second (the simulator's throughput on
    /// this cell).
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.thermal_steps as f64 / self.wall_seconds
        }
    }
}

/// The result of one grid cell: the cell's identity, its deterministic
/// [`RunReport`], host-side observability, and any extra payload produced
/// by a [`run_with`](ExperimentGrid::run_with) closure.
#[derive(Clone, Debug)]
pub struct RunResult<R = ()> {
    /// The cell's position in the grid enumeration.
    pub index: usize,
    /// Benchmark name.
    pub bench: String,
    /// Policy of the cell.
    pub policy: PolicyKind,
    /// Configuration-variant name.
    pub variant: &'static str,
    /// The deterministic simulation report.
    pub report: RunReport,
    /// Host-side timing and counters (not deterministic).
    pub obs: RunObservation,
    /// Extra payload from `run_with` (unit for plain runs).
    pub extra: R,
}

impl<R> RunResult<R> {
    /// The cell label (`bench/policy[/variant]`).
    pub fn label(&self) -> String {
        if self.variant == "base" {
            format!("{}/{}", self.bench, self.policy)
        } else {
            format!("{}/{}/{}", self.bench, self.policy, self.variant)
        }
    }
}

/// Merged telemetry of a whole grid execution.
///
/// The simulation metrics merge per-cell snapshots *in cell order*, so
/// `sim` is byte-identical for any worker-thread count. The phase profile
/// and wall-time histogram are host-side timing and vary run to run.
#[derive(Clone, Debug)]
pub struct GridTelemetry {
    /// Deterministic simulation metrics summed over all cells.
    pub sim: RegistrySnapshot,
    /// Host-time phase profile summed over all cells (includes one
    /// `GridCell` entry per cell).
    pub phases: PhaseProfile,
    /// Histogram of per-cell wall time in milliseconds.
    pub cell_wall_ms: HistogramSnapshot,
}

/// All results of one grid execution, in cell order.
#[derive(Clone, Debug)]
pub struct GridResults<R = ()> {
    /// One result per cell, ordered by cell index.
    pub runs: Vec<RunResult<R>>,
    /// Worker threads used.
    pub threads: usize,
    /// Host wall-clock seconds for the whole grid.
    pub wall_seconds: f64,
    /// Merged grid telemetry, populated by
    /// [`ExperimentGrid::run_telemetry`] (`None` for plain runs).
    pub telemetry: Option<GridTelemetry>,
    /// Result-cache tallies for this grid (`None` when the grid ran
    /// without a cache, e.g. `TDTM_CACHE=0` or an explicit uncached
    /// path).
    pub cache_stats: Option<CacheStats>,
}

impl<R> GridResults<R> {
    /// The deterministic reports alone, in cell order.
    pub fn reports(&self) -> Vec<RunReport> {
        self.runs.iter().map(|r| r.report.clone()).collect()
    }

    /// Total thermal steps across all cells.
    pub fn total_thermal_steps(&self) -> u64 {
        self.runs.iter().map(|r| r.obs.thermal_steps).sum()
    }

    /// Total instructions retired across all cells.
    pub fn total_committed(&self) -> u64 {
        self.runs.iter().map(|r| r.obs.committed).sum()
    }

    /// Aggregate simulated cycles per host second over the grid (total
    /// steps over grid wall time — reflects the parallel speedup).
    pub fn aggregate_cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.total_thermal_steps() as f64 / self.wall_seconds
        }
    }
}

/// A (workload × policy × config-variant) experiment grid.
///
/// Build with the fluent methods, then [`run`](ExperimentGrid::run) (or
/// [`run_with`](ExperimentGrid::run_with) to attach per-cell
/// instrumentation). Cells are enumerated workload-major, then policy,
/// then variant, and results always come back in that order.
#[derive(Clone)]
pub struct ExperimentGrid {
    scale: ExperimentScale,
    workloads: Vec<Workload>,
    policies: Vec<PolicyKind>,
    variants: Vec<(&'static str, ConfigPatch)>,
}

fn no_patch(_: &mut SimConfig) {}

impl ExperimentGrid {
    /// An empty grid at the given scale (no workloads yet; one implicit
    /// `None` policy and one implicit `base` variant).
    pub fn new(scale: ExperimentScale) -> ExperimentGrid {
        ExperimentGrid {
            scale,
            workloads: Vec::new(),
            policies: vec![PolicyKind::None],
            variants: vec![("base", no_patch)],
        }
    }

    /// Adds the full 18-benchmark suite as the workload axis.
    pub fn suite(mut self) -> ExperimentGrid {
        self.workloads.extend(suite());
        self
    }

    /// Adds one workload to the workload axis.
    pub fn workload(mut self, workload: Workload) -> ExperimentGrid {
        self.workloads.push(workload);
        self
    }

    /// Replaces the policy axis.
    pub fn policies(mut self, policies: &[PolicyKind]) -> ExperimentGrid {
        self.policies = policies.to_vec();
        self
    }

    /// Replaces the variant axis with a single named configuration patch.
    pub fn variant(mut self, name: &'static str, patch: ConfigPatch) -> ExperimentGrid {
        self.variants = vec![(name, patch)];
        self
    }

    /// Replaces the variant axis with several named configuration patches
    /// (one cell per variant per workload per policy).
    pub fn variants(mut self, variants: &[(&'static str, ConfigPatch)]) -> ExperimentGrid {
        self.variants = variants.to_vec();
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.policies.len() * self.variants.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cells in grid order: workload-major, then policy,
    /// then variant.
    ///
    /// Immutable per-cell artifacts are shared, not rebuilt: workloads
    /// hold their assembled program behind an `Arc` (18 programs for an
    /// 18 × 5 grid, not 90), and one power model is built per *distinct*
    /// (power config, core config) pair across the whole grid — for most
    /// grids that is a single model serving every cell.
    pub fn cells(&self) -> Vec<GridCell> {
        // Models are deduped by content fingerprint (O(1) per cell,
        // instead of the old O(cells) linear scan per cell): the
        // fingerprint covers exactly the (power config, core config)
        // pair that determines the model's tables.
        let mut power_cache: HashMap<u128, Arc<tdtm_power::PowerModel>> = HashMap::new();
        let mut cells = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &policy in &self.policies {
                for &(variant, patch) in &self.variants {
                    let mut cfg = self.scale.config(policy);
                    patch(&mut cfg);
                    let key = cache::power_fingerprint(&cfg.power, &cfg.core);
                    let power = Arc::clone(power_cache.entry(key).or_insert_with(|| {
                        Arc::new(tdtm_power::PowerModel::new(&cfg.power, &cfg.core))
                    }));
                    cells.push(GridCell {
                        index: cells.len(),
                        workload: workload.clone(),
                        policy,
                        variant,
                        scale: self.scale,
                        patch,
                        power,
                    });
                }
            }
        }
        cells
    }

    /// Runs every cell on [`thread_count`] workers.
    pub fn run(&self) -> GridResults {
        self.run_threads(thread_count())
    }

    /// Runs every cell on exactly `threads` workers. The reports are
    /// identical for any `threads` value. Cells whose variant configures
    /// a multicore chip run on the chip simulator (reporting core 0);
    /// everything else takes the single-core path.
    ///
    /// Uninstrumented single-core cells that differ only in their DTM
    /// policy additionally run as policy groups ([`crate::group`]): one
    /// simulation per distinct trajectory, forked where the members'
    /// commands diverge — a host-side execution strategy that leaves
    /// every report byte-identical to the per-cell path (pinned by
    /// `tests/engine.rs` and `tests/policy_groups.rs`).
    ///
    /// Runs through the process-wide content-addressed result cache
    /// ([`ResultCache::global`]) unless `TDTM_CACHE=0`: previously
    /// simulated cells replay their byte-identical report without
    /// simulating, and identical cells within the grid simulate once.
    pub fn run_threads(&self, threads: usize) -> GridResults {
        match ResultCache::global() {
            Some(cache) => self.run_threads_cached(threads, cache),
            None => self.run_threads_with_grouping(threads, true),
        }
    }

    /// [`run_threads`](ExperimentGrid::run_threads) with no result cache
    /// and the grouped dispatch chosen explicitly: `grouping == false`
    /// runs every cell on its own — the per-cell reference path identity
    /// tests and benchmarks compare against.
    pub fn run_threads_with_grouping(&self, threads: usize, grouping: bool) -> GridResults {
        if !grouping {
            return self.run_with_threads(threads, |cell| {
                let (report, _chip) = cell.run_chip();
                (report, ())
            });
        }
        let cells = self.cells();
        let grid_start = Instant::now();
        let cell_refs: Vec<&GridCell> = cells.iter().collect();
        let mut runs = run_cells_grouped(&cell_refs, threads, &|_| {});
        runs.sort_by_key(|r| r.index);
        GridResults {
            runs,
            threads,
            wall_seconds: grid_start.elapsed().as_secs_f64(),
            telemetry: None,
            cache_stats: None,
        }
    }

    /// [`run_threads`](ExperimentGrid::run_threads) against an explicit
    /// [`ResultCache`] (tests and benchmarks use their own instead of
    /// the process-wide one). Cached cells replay without simulating;
    /// misses run on the usual solo/grouped paths and publish their
    /// artifact as they complete; identical cells within the grid are
    /// deduped against the in-flight leader. Reports are byte-identical
    /// to [`run_threads_with_grouping`](ExperimentGrid::run_threads_with_grouping)
    /// — pinned by `tests/engine.rs`.
    pub fn run_threads_cached(&self, threads: usize, cache: &ResultCache) -> GridResults {
        let cells = self.cells();
        let grid_start = Instant::now();
        let fps = cache::cell_fingerprints(&cells);
        let mut runs: Vec<Option<RunResult>> = (0..cells.len()).map(|_| None).collect();
        let mut stats = CacheStats::default();

        // Resolve each cell: cache hit, follower of an identical cell
        // already claimed in this grid (resolved after the leader runs —
        // a follower must not block inside a worker that could also hold
        // its leader), or a claimed miss to simulate.
        let mut leader_of: HashMap<u128, usize> = HashMap::new();
        let mut followers: Vec<(usize, usize)> = Vec::new();
        let mut guards = Vec::new();
        let mut miss_cells: Vec<&GridCell> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let start = Instant::now();
            if let Some(&leader) = leader_of.get(&fps[i].0) {
                followers.push((i, leader));
                stats.cache_hits += 1;
                stats.cache_inflight_waits += 1;
                continue;
            }
            match cache.claim(fps[i]) {
                Claim::Hit { artifact, waited } => {
                    stats.cache_hits += 1;
                    if waited {
                        stats.cache_inflight_waits += 1;
                    }
                    let wall = start.elapsed().as_secs_f64().max(1e-9);
                    runs[i] = Some(result_from_report(cell, artifact.report.clone(), wall, ()));
                }
                Claim::Miss(guard) => {
                    guards.push(guard);
                    leader_of.insert(fps[i].0, i);
                    miss_cells.push(cell);
                }
            }
        }
        stats.cache_misses = miss_cells.len() as u64;

        // Simulate the misses on the normal paths, publishing each
        // artifact the moment its cell completes (so concurrent grids
        // sharing the cache can hit it while this grid still runs).
        let publish = |run: &RunResult| {
            cache.publish(
                fps[run.index],
                CellArtifact { report: run.report.clone(), record: None },
            );
        };
        for run in run_cells_grouped(&miss_cells, threads, &publish) {
            let i = run.index;
            runs[i] = Some(run);
        }
        drop(guards); // all claims published; drops are no-ops

        // Followers replay their leader's report under their own cell
        // identity.
        for (i, leader) in followers {
            let start = Instant::now();
            let report =
                runs[leader].as_ref().expect("leader cell was simulated").report.clone();
            let wall = start.elapsed().as_secs_f64().max(1e-9);
            runs[i] = Some(result_from_report(&cells[i], report, wall, ()));
        }

        GridResults {
            runs: runs.into_iter().map(|r| r.expect("every cell resolved")).collect(),
            threads,
            wall_seconds: grid_start.elapsed().as_secs_f64(),
            telemetry: None,
            cache_stats: Some(stats),
        }
    }

    /// Runs every cell through a custom driver on [`thread_count`]
    /// workers. The driver builds and runs the cell's simulator itself
    /// (typically starting from [`GridCell::simulator`]) so it can attach
    /// proxies, traces, or sensors, and returns the report plus any extra
    /// payload.
    pub fn run_with<R, F>(&self, f: F) -> GridResults<R>
    where
        R: Send,
        F: Fn(&GridCell) -> (RunReport, R) + Sync,
    {
        self.run_with_threads(thread_count(), f)
    }

    /// [`run_with`](ExperimentGrid::run_with) on exactly `threads`
    /// workers.
    pub fn run_with_threads<R, F>(&self, threads: usize, f: F) -> GridResults<R>
    where
        R: Send,
        F: Fn(&GridCell) -> (RunReport, R) + Sync,
    {
        let cells = self.cells();
        let grid_start = Instant::now();
        let runs = shard_map(&cells, threads, |_, cell| {
            let start = Instant::now();
            let (report, extra) = f(cell);
            result_from_report(cell, report, start.elapsed().as_secs_f64(), extra)
        });
        GridResults {
            runs,
            threads,
            wall_seconds: grid_start.elapsed().as_secs_f64(),
            telemetry: None,
            cache_stats: None,
        }
    }

    /// Runs every cell with the given telemetry enabled and merges the
    /// per-cell collections into [`GridResults::telemetry`]. Reports stay
    /// byte-identical to a plain [`run`](ExperimentGrid::run), and the
    /// merged simulation metrics (`telemetry.sim`) are identical for any
    /// `threads` value because per-cell snapshots merge in cell order.
    pub fn run_telemetry(&self, threads: usize, cfg: &TelemetryConfig) -> GridResults<Telemetry> {
        let mut results = self.run_with_threads(threads, |cell| {
            let mut sim = cell.simulator();
            sim.enable_telemetry(cfg);
            let report = sim.run();
            let telemetry = sim.take_telemetry().expect("telemetry was enabled");
            (report, telemetry)
        });
        let mut sim_merged: Option<RegistrySnapshot> = None;
        let mut phases = PhaseProfile::new();
        let wall_hist = Histogram::new(0.0, 10_000.0, 100);
        for run in &results.runs {
            if let Some(metrics) = &run.extra.metrics {
                let snap = metrics.snapshot();
                match &mut sim_merged {
                    Some(acc) => acc.merge_from(&snap),
                    None => sim_merged = Some(snap),
                }
            }
            if let Some(profile) = &run.extra.phases {
                phases.merge_from(profile);
            }
            phases.add(Phase::GridCell, (run.obs.wall_seconds * 1e9) as u64, 1);
            wall_hist.record(run.obs.wall_seconds * 1e3);
        }
        results.telemetry = Some(GridTelemetry {
            sim: sim_merged.unwrap_or_default(),
            phases,
            cell_wall_ms: wall_hist.snapshot(),
        });
        results
    }

    /// Runs every cell with the given telemetry enabled, streaming one
    /// [`CellRecord`] to `sink` *as each cell completes* — a live progress
    /// feed for long grids, instead of silence until the whole grid
    /// returns. Cells are chip-aware (multicore variants run on
    /// [`MulticoreSim`](crate::multicore::MulticoreSim) with chip
    /// telemetry, merging the per-core metric snapshots).
    ///
    /// Records are emitted in completion order with a monotone `seq`
    /// stamp assigned under the sink's lock, so the stream's physical
    /// order always matches `seq`. Determinism contract (pinned by
    /// `tests/observability.rs`): sort any N-thread stream by cell
    /// `index` and its deterministic fields equal a 1-thread run's stream
    /// ([`CellRecord::deterministic_eq`]); reports stay byte-identical to
    /// a plain [`run`](ExperimentGrid::run).
    ///
    /// Returns the usual cell-ordered results with each cell's emitted
    /// record (including its stamp) as the extra payload.
    ///
    /// Runs through the process-wide result cache ([`ResultCache::global`])
    /// unless `TDTM_CACHE=0`: a cached cell re-emits its stored record —
    /// identical on every deterministic field, flagged `cached: true` —
    /// without simulating. With the cache off, records carry `cached:
    /// None` and the stream is byte-identical to pre-cache builds.
    pub fn run_streaming(
        &self,
        threads: usize,
        cfg: &TelemetryConfig,
        sink: &mut dyn StreamSink,
    ) -> GridResults<CellRecord> {
        self.run_streaming_inner(threads, cfg, sink, ResultCache::global())
    }

    /// [`run_streaming`](ExperimentGrid::run_streaming) against an
    /// explicit [`ResultCache`] (tests and benchmarks use their own
    /// instead of the process-wide one).
    pub fn run_streaming_cached(
        &self,
        threads: usize,
        cfg: &TelemetryConfig,
        sink: &mut dyn StreamSink,
        cache: &ResultCache,
    ) -> GridResults<CellRecord> {
        self.run_streaming_inner(threads, cfg, sink, Some(cache))
    }

    fn run_streaming_inner(
        &self,
        threads: usize,
        cfg: &TelemetryConfig,
        sink: &mut dyn StreamSink,
        cache: Option<&ResultCache>,
    ) -> GridResults<CellRecord> {
        let cells = self.cells();
        let grid_start = Instant::now();
        // Streamed artifacts live under their own fingerprint domain
        // (cell key ⊕ telemetry config): the stored record embeds a
        // metric snapshot, so the telemetry config is part of the key.
        let fps = match cache {
            Some(_) => cache::cell_fingerprints(&cells)
                .into_iter()
                .map(|fp| cache::stream_fingerprint(fp, cfg))
                .collect(),
            None => Vec::new(),
        };
        let hits = AtomicU64::new(0);
        let misses = AtomicU64::new(0);
        let inflight_waits = AtomicU64::new(0);
        let stamped = StampedSink::new(sink);
        let runs = shard_map(&cells, threads, |i, cell| {
            let start = Instant::now();
            // A worker holds at most one claim at a time, so blocking on
            // an identical in-flight cell (another worker's claim) can
            // never self-deadlock; a 1-thread run completes each cell —
            // publishing its artifact — before claiming the next.
            let mut claim = None;
            if let Some(cache) = cache {
                match cache.claim(fps[i]) {
                    Claim::Hit { artifact, waited } if artifact.record.is_some() => {
                        hits.fetch_add(1, Ordering::Relaxed);
                        if waited {
                            inflight_waits.fetch_add(1, Ordering::Relaxed);
                        }
                        let wall = start.elapsed().as_secs_f64().max(1e-9);
                        let stored = artifact.record.as_ref().expect("checked above");
                        // Replay the stored record under this cell's
                        // identity: the key is content, so everything
                        // except identity and host-side stamps is the
                        // stored bytes.
                        let mut record = stored.clone();
                        record.index = cell.index;
                        record.label = cell.label();
                        record.bench = cell.workload.name.to_string();
                        record.policy = cell.policy.to_string();
                        record.variant = cell.variant.to_string();
                        record.wall_seconds = wall;
                        record.cached = Some(true);
                        stamped.emit(&mut record);
                        return result_from_report(cell, artifact.report.clone(), wall, record);
                    }
                    // An artifact without a record is a malformed entry
                    // for this domain (e.g. hand-edited disk file):
                    // recompute below and overwrite it.
                    Claim::Hit { .. } => {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    Claim::Miss(guard) => {
                        misses.fetch_add(1, Ordering::Relaxed);
                        claim = Some(guard);
                    }
                };
            }
            let cell_cfg = cell.config();
            let (report, chip, snapshot) = if cell_cfg.chip.is_single_core() {
                let mut sim = cell.simulator();
                sim.enable_telemetry(cfg);
                let report = sim.run();
                let telemetry = sim.take_telemetry().expect("telemetry was enabled");
                let snapshot = telemetry.metrics.as_ref().map(|m| m.snapshot());
                (report, None, snapshot)
            } else {
                let mut sim = crate::multicore::MulticoreSim::for_workload_with_power(
                    cell_cfg,
                    &cell.workload,
                    cell.power_model(),
                );
                sim.enable_telemetry(cfg);
                let chip = sim.run();
                let telemetry = sim.take_telemetry().expect("telemetry was enabled");
                let snapshot = telemetry.merged_metrics();
                (chip.cores[0].clone(), Some(chip), snapshot)
            };
            let wall = start.elapsed().as_secs_f64();

            // Emergency/stress and the hottest block are chip-wide when a
            // chip ran; core 0's report supplies the throughput numbers.
            let (emergency_cycles, stress_cycles, hottest_block, hottest_temp_c) = match &chip {
                Some(chip) => {
                    let (core, block, temp) = chip.hottest();
                    (
                        chip.emergency_cycles(),
                        chip.cores.iter().map(|r| r.stress_cycles).sum(),
                        chip.cores[core].blocks[block].name.clone(),
                        temp,
                    )
                }
                None => match report.hottest_block() {
                    Some(b) => {
                        (report.emergency_cycles, report.stress_cycles, b.name.clone(), b.max_temp)
                    }
                    None => (report.emergency_cycles, report.stress_cycles, String::new(), f64::NAN),
                },
            };
            let mut record = CellRecord {
                seq: 0, // stamped at emit
                index: cell.index,
                label: cell.label(),
                bench: cell.workload.name.to_string(),
                policy: cell.policy.to_string(),
                variant: cell.variant.to_string(),
                wall_seconds: wall,
                elapsed_seconds: 0.0, // stamped at emit
                thermal_steps: report.total_cycles,
                committed: report.committed,
                dtm_samples: report.samples,
                ipc: report.ipc,
                emergency_cycles,
                stress_cycles,
                hottest_block,
                hottest_temp_c,
                metrics: snapshot
                    .map(|s| s.counters.iter().map(|&(n, v)| (n.to_string(), v)).collect())
                    .unwrap_or_default(),
                cached: cache.map(|_| false),
            };
            if let Some(cache) = cache {
                // Publish before stamping: the stored record is the
                // pre-stamp normal form (seq 0, zero wall/elapsed, no
                // provenance flag) so the artifact's bytes are a pure
                // function of the fingerprint.
                let mut stored = record.clone();
                stored.wall_seconds = 0.0;
                stored.cached = None;
                let artifact = CellArtifact { report: report.clone(), record: Some(stored) };
                match claim.take() {
                    Some(guard) => drop(guard.complete(artifact)),
                    // Wrong-shaped hit (no record): overwrite in place.
                    None => drop(cache.publish(fps[i], artifact)),
                }
            }
            stamped.emit(&mut record);
            result_from_report(cell, report, wall, record)
        });
        GridResults {
            runs,
            threads,
            wall_seconds: grid_start.elapsed().as_secs_f64(),
            telemetry: None,
            cache_stats: cache.map(|_| CacheStats {
                cache_hits: hits.load(Ordering::Relaxed),
                cache_misses: misses.load(Ordering::Relaxed),
                cache_inflight_waits: inflight_waits.load(Ordering::Relaxed),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use tdtm_workloads::by_name;

    #[test]
    fn shard_map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 16, 64] {
            let out = shard_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * 10).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn shard_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(shard_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(shard_map(&[9u8], 4, |_, &x| x), vec![9]);
    }

    #[test]
    #[should_panic(expected = "cell exploded")]
    fn shard_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..8).collect();
        shard_map(&items, 4, |_, &x| {
            if x == 5 {
                panic!("cell exploded");
            }
            x
        });
    }

    #[test]
    fn run_queue_runs_spawned_tasks_at_any_thread_count() {
        // Each task n > 0 spawns n - 1 and n - 2: a tree of fib-many
        // tasks, most of them spawned mid-run.
        for threads in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            run_queue(vec![10u32, 3, 0], threads, |n, spawn| {
                ran.fetch_add(1, Ordering::Relaxed);
                if n > 0 {
                    spawn(n - 1);
                }
                if n > 1 {
                    spawn(n - 2);
                }
            });
            // Task n runs t(n) = 1 + t(n - 1) + t(n - 2) tasks, with
            // t(0) = 1 and t(1) = 2: t(10) = 232, t(3) = 7.
            assert_eq!(ran.into_inner(), 232 + 7 + 1, "threads={threads}");
        }
        run_queue(Vec::<u8>::new(), 4, |_, _| unreachable!("no tasks"));
    }

    #[test]
    #[should_panic(expected = "task exploded")]
    fn run_queue_propagates_worker_panics() {
        // The other workers must stop rather than wait on the failed
        // task's spawns forever.
        run_queue((0..8).collect(), 4, |x: usize, spawn| {
            if x == 5 {
                panic!("task exploded");
            }
            if x < 100 {
                spawn(x + 100);
            }
        });
    }

    #[test]
    fn cells_enumerate_workload_major_with_stable_indices() {
        let grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(by_name("gcc").unwrap())
            .workload(by_name("art").unwrap())
            .policies(&[PolicyKind::None, PolicyKind::Pid])
            .variants(&[("base", no_patch), ("hot", |cfg| cfg.heatsink_temp = 107.0)]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(grid.len(), 8);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
        assert_eq!(cells[0].label(), "gcc/none");
        assert_eq!(cells[1].label(), "gcc/none/hot");
        assert_eq!(cells[2].label(), "gcc/PID");
        assert_eq!(cells[4].label(), "art/none");
        assert!((cells[1].config().heatsink_temp - 107.0).abs() < 1e-12);
        assert!((cells[0].config().heatsink_temp - 107.0).abs() > 1.0);
    }

    #[test]
    fn grid_run_reports_come_back_in_cell_order() {
        let grid = ExperimentGrid::new(ExperimentScale::quick())
            .workload(by_name("gcc").unwrap())
            .policies(&[PolicyKind::None, PolicyKind::Toggle1]);
        let results = grid.run_threads(2);
        assert_eq!(results.threads, 2);
        assert_eq!(results.runs.len(), 2);
        assert_eq!(results.runs[0].policy, PolicyKind::None);
        assert_eq!(results.runs[1].policy, PolicyKind::Toggle1);
        for run in &results.runs {
            assert!(run.obs.thermal_steps >= run.report.cycles);
            assert!(run.obs.committed >= 30_000);
            assert!(run.obs.wall_seconds > 0.0);
            assert!(run.obs.cycles_per_second() > 0.0);
        }
        assert!(results.total_thermal_steps() > 0);
        assert!(results.aggregate_cycles_per_second() > 0.0);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
