//! The traced run: host time per layer, recorded as spans from the
//! benchmark's own files around its calls into each layer.
//!
//! The per-cycle layers (pipeline, controller, gap fold) are timed on a
//! replica of the simulator's uninstrumented single-core loop, written
//! here over the same public calls. Only one pipeline cycle in
//! [`CYCLE_STRIDE`] is timed, and the cost of reading the clock is
//! measured and subtracted. Calls that take about as long as a clock
//! read (`PowerModel::cycle_power`, `BlockModel::step_scaled`) are timed
//! in batches instead, replaying inputs the replica recorded. The
//! replica's cycle and instruction counts are reported beside
//! `Simulator::run`'s for the same cell, and its traced time beside its
//! untraced time.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tdtm_core::cache::{self, CellArtifact, Claim, Fingerprint};
use tdtm_core::engine::{ExperimentGrid, GridCell, GridResults};
use tdtm_core::experiments::interference_variants;
use tdtm_core::report::obs_dashboard;
use tdtm_core::{ChipConfig, MulticoreSim, ResultCache, SimConfig, Simulator};
use tdtm_dtm::{build_policy_at, ChipSupervisor, PolicyKind, SensorModel, SupervisorConfig};
use tdtm_power::PowerModel;
use tdtm_telemetry::{CellRecord, JsonlSink};
use tdtm_thermal::{BlockModel, MulticoreFloorplan};
use tdtm_uarch::{Activity, Core, CoreControl, STAGE_NAMES};

/// Inputs recorded for batched replays: one in this many executed cycles.
const RECORD_STRIDE: u64 = 64;

/// At most this many recorded inputs per cell.
const RECORD_CAP: usize = 4096;
use tdtm_workloads::Workload;

use crate::check;
use crate::out::Metric;
use crate::plan::{self, Kind};
use crate::sweep::{self, Sweeper, TimedSink};

/// One pipeline cycle (and one idle-window probe) in this many is timed
/// in the traced replica.
pub const CYCLE_STRIDE: u64 = 32;

/// The benchmark states this tolerance for the layer-sum check: the
/// per-layer self times of one simulated cycle should add up to
/// `simulator.ns_per_cycle` within this share of it.
pub const LAYER_SUM_TOLERANCE: f64 = 0.20;

const BLOCKS: usize = 7;

/// One span: a named interval, the span that caused it, and a work count
/// (bytes, folded cycles or calls, by span name).
pub struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    work: u64,
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Totals of one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Layer {
    /// Spans recorded.
    pub count: u64,
    /// Summed self time: duration minus the time child spans cover (ns).
    pub self_ns: f64,
    /// Summed work count.
    pub work: u64,
}

impl Layer {
    /// Mean self time per span, less one clock read (`timer_ns`).
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.self_ns / self.count as f64 - timer_ns).max(0.0)
    }

    /// Self time per unit of work (a batched call, a folded cycle), less
    /// one clock read per span.
    pub fn per_work_ns(&self, timer_ns: f64) -> f64 {
        if self.work == 0 {
            return 0.0;
        }
        ((self.self_ns - self.count as f64 * timer_ns) / self.work as f64).max(0.0)
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.record_work(name, parent, start, end, 1)
    }

    /// Records a finished span with a work count.
    pub fn record_work(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
            work,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`close`](Tracer::close), so spans
    /// recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Ends a span opened with [`open`](Tracer::open).
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Per span name: count, self time and work.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos() as f64;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = out.entry(s.name).or_default();
            layer.count += 1;
            layer.self_ns += (s.end - s.start).as_nanos() as f64 - child_ns[i];
            layer.work += s.work;
        }
        out
    }

    /// Writes every span as one JSON object per line: name, start and
    /// end (ns since the tracer started), parent id, work.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"work\":{}}}",
                s.name,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.work,
            )?;
        }
        w.flush()
    }
}

/// The cost of one clock read (ns): the median gap between back-to-back
/// `Instant::now()` calls.
pub fn timer_cost_ns() -> f64 {
    let mut gaps: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    gaps.sort_by(f64::total_cmp);
    gaps[gaps.len() / 2]
}

/// How a replica run is observed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Timing {
    /// No clock reads at all.
    Off,
    /// Spans on one pipeline cycle and one idle-window probe in
    /// [`CYCLE_STRIDE`], every controller sample and every gap fold.
    Sampled,
    /// The core's own per-stage timers on every cycle.
    Stages,
}

/// What one replica run did.
#[derive(Default)]
struct Replica {
    cycles: u64,
    executed: u64,
    core_cycles: u64,
    idle_probes: u64,
    folded: u64,
    committed: u64,
    core_committed: u64,
    samples: u64,
    wall_ns: f64,
    stage_ns: [u64; 6],
    /// Every [`RECORD_STRIDE`]th executed cycle's activity, unscaled block
    /// powers and temperatures, replayed into the batched timings.
    activities: Vec<Activity>,
    powers: Vec<[f64; BLOCKS]>,
    temps: Vec<[f64; BLOCKS]>,
}

/// The counted-cycle bookkeeping of the simulator's loop, kept so the
/// replica does the same work per cycle.
#[derive(Default)]
struct Accum {
    counted: u64,
    wall: f64,
    sum_power: f64,
    max_power: f64,
    emergency: u64,
    block_sum_t: [f64; BLOCKS],
    block_max_t: [f64; BLOCKS],
    block_emerg: [u64; BLOCKS],
    block_sum_p: [f64; BLOCKS],
}

impl Accum {
    #[inline(always)]
    fn record(
        &mut self,
        temps: &[f64; BLOCKS],
        powers: &[f64; BLOCKS],
        total: f64,
        dt: f64,
        emergency: f64,
    ) {
        self.counted += 1;
        self.wall += dt;
        self.sum_power += total;
        self.max_power = self.max_power.max(total);
        let mut any = false;
        for i in 0..BLOCKS {
            self.block_sum_t[i] += temps[i];
            self.block_max_t[i] = self.block_max_t[i].max(temps[i]);
            if temps[i] > emergency {
                self.block_emerg[i] += 1;
                any = true;
            }
            self.block_sum_p[i] += powers[i];
        }
        self.emergency += u64::from(any);
    }
}

/// The simulator's uninstrumented single-core loop, over public calls:
/// `Core::cycle`, `PowerModel::cycle_power`, `BlockModel::step_scaled`,
/// the gap folds `BlockModel::step_gap_fixed`/`step_gap_observed`, and
/// `DtmPolicy::sample`. No leakage (no benchmark cell enables it).
fn replica(
    cfg: &SimConfig,
    workload: &Workload,
    power: &PowerModel,
    timing: Timing,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Replica {
    assert!(
        cfg.leakage.is_none(),
        "the replica models the leakage-free loop"
    );
    let mut core =
        Core::with_skip_shared(cfg.core, workload.program_shared(), workload.warmup_insts);
    core.set_stage_profiling(timing == Timing::Stages);
    let mut thermal = BlockModel::new(cfg.blocks.clone(), cfg.heatsink_temp, cfg.cycle_time());
    let mut policy = build_policy_at(&cfg.dtm, cfg.core.clock_hz);
    let mut sensors = SensorModel::ideal();
    let interval = cfg.dtm.sample_interval.max(1);
    let emergency = cfg.dtm.emergency;
    let warmup = cfg.thermal_warmup_cycles;
    let nominal_dt = cfg.cycle_time();
    let idle = power.cycle_power(&Activity::new());
    let warm_window = if cfg.warm_start { interval } else { 0 };
    let sampled = timing == Timing::Sampled;
    let mut warm_power = [0.0f64; BLOCKS];
    let mut sensed = [0.0f64; BLOCKS];
    let (mut vf_power, mut vf_freq, mut vf_on, mut resync) = (1.0f64, 1.0f64, false, 0u64);
    let mut acc = Accum::default();
    let mut out = Replica::default();
    let core_start = core.stats().committed;
    let mut count_start: Option<u64> = None;
    let mut cycle = 0u64;
    let started = Instant::now();

    'run: loop {
        let mut remaining = interval - cycle % interval;
        while remaining > 0 {
            let counting = cycle >= warmup;
            if counting && count_start.is_none() {
                count_start = Some(core.stats().committed);
            }
            let committed = core
                .stats()
                .committed
                .saturating_sub(count_start.unwrap_or(0));
            if counting && committed >= cfg.max_insts {
                break 'run;
            }
            if cycle >= cfg.max_cycles || core.finished() {
                break 'run;
            }

            if cycle >= warm_window {
                let mut cap = remaining.min(cfg.max_cycles - cycle);
                if cycle < warmup {
                    cap = cap.min(warmup - cycle);
                }
                let window = if resync > 0 {
                    Some((resync.min(cap), true))
                } else {
                    out.idle_probes += 1;
                    let t0 = (sampled && out.idle_probes % CYCLE_STRIDE == 0).then(Instant::now);
                    let window = core.idle_window(cap).map(|(k, _)| (k, false));
                    if let Some(t0) = t0 {
                        tr.record("uarch.idle_window", parent, t0, Instant::now());
                    }
                    window
                };
                if let Some((k, is_resync)) = window.filter(|&(k, _)| k >= 4) {
                    let mut gap = idle.thermal_powers();
                    for p in &mut gap {
                        *p *= vf_power;
                    }
                    let gap_total = idle.total * vf_power;
                    let t0 = sampled.then(Instant::now);
                    if counting {
                        let dt = nominal_dt / vf_freq;
                        thermal.step_gap_observed(&gap, k, |t| {
                            acc.record(t, &gap, gap_total, dt, emergency)
                        });
                    } else {
                        thermal.step_gap_fixed(&gap, k);
                    }
                    if let Some(t0) = t0 {
                        tr.record_work("thermal.gap_fold", parent, t0, Instant::now(), k);
                    }
                    if is_resync {
                        resync -= k;
                    } else {
                        core.skip_idle(k);
                    }
                    cycle += k;
                    remaining -= k;
                    out.folded += k;
                    continue;
                }
            }

            let record = out.executed % RECORD_STRIDE == 0 && out.powers.len() < RECORD_CAP;
            let sample = if resync > 0 {
                resync -= 1;
                idle
            } else {
                out.core_cycles += 1;
                let t0 = (sampled && out.core_cycles % CYCLE_STRIDE == 0).then(Instant::now);
                let activity = core.cycle();
                if let Some(t0) = t0 {
                    tr.record("uarch.cycle", parent, t0, Instant::now());
                }
                if record {
                    out.activities.push(*activity);
                }
                power.cycle_power(activity)
            };
            let mut powers = sample.thermal_powers();
            if record {
                out.powers.push(powers);
                out.temps.push(*thermal.temperatures_fixed::<BLOCKS>());
            }
            thermal.step_scaled(&mut powers, vf_power);
            let total = sample.total * vf_power;
            if cycle < warm_window {
                for i in 0..BLOCKS {
                    warm_power[i] += powers[i];
                }
                if cycle + 1 == interval {
                    warm_start(&mut thermal, cfg, &mut warm_power, interval);
                }
            }
            if counting {
                acc.record(
                    thermal.temperatures_fixed(),
                    &powers,
                    total,
                    nominal_dt / vf_freq,
                    emergency,
                );
            }
            cycle += 1;
            remaining -= 1;
            out.executed += 1;
        }

        let temps = *thermal.temperatures_fixed::<BLOCKS>();
        sensors.read_all(&temps, &mut sensed);
        let t0 = sampled.then(Instant::now);
        let cmd = policy.sample(&sensed);
        if let Some(t0) = t0 {
            tr.record("dtm.sample", parent, t0, Instant::now());
        }
        out.samples += 1;
        core.set_control(CoreControl {
            fetch_duty: cmd.fetch_duty,
            fetch_width_limit: cmd.fetch_width_limit,
            max_unresolved_branches: cmd.max_unresolved_branches,
        });
        match (cmd.vf, vf_on) {
            (Some(vf), false) => {
                vf_on = true;
                vf_power = vf.power_scale();
                vf_freq = vf.freq_scale;
                thermal.set_dt(nominal_dt / vf.freq_scale);
                resync = cfg.dtm.vf_resync_cycles;
            }
            (None, true) => {
                vf_on = false;
                vf_power = 1.0;
                vf_freq = 1.0;
                thermal.set_dt(nominal_dt);
                resync = cfg.dtm.vf_resync_cycles;
            }
            _ => {}
        }
    }
    std::hint::black_box(&acc);
    out.cycles = cycle;
    out.committed = core
        .stats()
        .committed
        .saturating_sub(count_start.unwrap_or(0));
    out.core_committed = core.stats().committed - core_start;
    out.stage_ns = core.stage_nanos();
    out.wall_ns = started.elapsed().as_nanos() as f64;
    out
}

/// The warm-start jump at the end of the first sampling interval.
fn warm_start(thermal: &mut BlockModel, cfg: &SimConfig, power: &mut [f64; BLOCKS], interval: u64) {
    for p in power.iter_mut() {
        *p /= interval as f64;
    }
    thermal.warm_start(&power[..]);
    if cfg.dtm.policy != PolicyKind::None {
        let ceiling = if cfg.dtm.policy.is_control_theoretic() {
            cfg.dtm.setpoint
        } else {
            cfg.dtm.trigger
        };
        for i in 0..BLOCKS {
            if thermal.temperatures()[i] > ceiling {
                thermal.set_temperature(i, ceiling);
            }
        }
    }
}

/// Single-core configuration of a cell: a chip cell's core 0 alone, with
/// its program, policy and heatsink.
fn core0_config(cell: &GridCell) -> SimConfig {
    let mut cfg = cell.config();
    cfg.chip = ChipConfig::default();
    cfg
}

/// Everything a traced run produced.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Cells simulated or served.
    pub attempted: u64,
    /// Output-check mismatches.
    pub failed: u64,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn median_of<F: FnMut() -> f64>(reps: usize, mut f: F) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    crate::stats::median(&v)
}

/// The traced run of `kind`: spans around every layer, written under
/// `scratch`, summarized as per-layer metrics.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    threads: usize,
    scratch: &Path,
) -> Result<Traced, String> {
    let mut tr = Tracer::default();
    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let timer_ns = timer_cost_ns();
    notes.push(format!(
        "clock read costs {timer_ns:.1} ns; subtracted once per span"
    ));

    // workloads: assembling the 18 programs.
    let assemble_ms = median_of(5, || {
        let t = Instant::now();
        let suite = tdtm_workloads::suite();
        let end = Instant::now();
        tr.record_work("workloads.assemble", None, t, end, suite.len() as u64);
        (end - t).as_secs_f64() * 1e3
    });
    metrics.push(Metric::new("workloads.assemble_ms", assemble_ms, "ms"));
    let suite = tdtm_workloads::suite();

    // engine: building the cells (and their shared power models).
    let grid = plan::timed_grid(kind, seed, 0, &suite);
    let build_ms = median_of(5, || {
        let t = Instant::now();
        let cells = grid.cells();
        let end = Instant::now();
        tr.record_work("engine.cells", None, t, end, cells.len() as u64);
        (end - t).as_secs_f64() * 1e3
    });
    metrics.push(Metric::new("engine.cells_build_ms", build_ms, "ms"));
    let cells = grid.cells();

    // engine: one grid pass on the workload's own path, for scheduling
    // balance; warm_sweep's is its pool fill (its sweeps are traced below).
    let (wall, cell_walls, hit_rate, artifacts) = match kind {
        Kind::PaperGrid | Kind::HotChip => {
            let t = Instant::now();
            let results = grid.run_threads(threads);
            let end = Instant::now();
            tr.record_work("engine.grid", None, t, end, results.runs.len() as u64);
            attempted += results.runs.len() as u64;
            let walls: Vec<f64> = results.runs.iter().map(|r| r.obs.wall_seconds).collect();
            let hit_rate = results
                .cache_stats
                .and_then(|s| s.hit_rate())
                .unwrap_or(0.0);
            let picks = plan::sample(kind, seed, cells.len(), 2);
            failed += check_sample(&cells, &results, &picks, &mut notes);
            let artifacts: Vec<(Fingerprint, CellArtifact)> = picks
                .iter()
                .map(|&i| {
                    let run = &results.runs[i];
                    (
                        cache::cell_fingerprint(&cells[i]),
                        CellArtifact {
                            report: run.report.clone(),
                            record: None,
                        },
                    )
                })
                .collect();
            ((end - t).as_secs_f64(), walls, hit_rate, artifacts)
        }
        Kind::WarmSweep => {
            let dir = scratch.join("pool");
            let t = Instant::now();
            let (_, results) = sweep::fill_pool(seed, &suite, &dir, threads);
            let end = Instant::now();
            tr.record_work("engine.pool_fill", None, t, end, results.runs.len() as u64);
            attempted += results.runs.len() as u64;
            let walls: Vec<f64> = results.runs.iter().map(|r| r.obs.wall_seconds).collect();
            let stream_cfg = sweep::stream_config();
            let artifacts = plan::sample(kind, seed, cells.len(), 2)
                .into_iter()
                .map(|i| {
                    let run = &results.runs[i];
                    let mut record = run.extra.clone();
                    record.wall_seconds = 0.0;
                    record.cached = None;
                    (
                        cache::stream_fingerprint(cache::cell_fingerprint(&cells[i]), &stream_cfg),
                        CellArtifact {
                            report: run.report.clone(),
                            record: Some(record),
                        },
                    )
                })
                .collect();

            // The sweeps themselves, traced, for a quarter of the run.
            let mut sweeper = Sweeper::new(
                seed,
                &suite,
                dir.clone(),
                scratch.join("sweep.jsonl"),
                threads,
            );
            let (mut hits, mut misses) = (0u64, 0u64);
            let traced_from = Instant::now();
            while seconds_since(traced_from) < seconds / 4.0 || hits + misses == 0 {
                let mut s = sweeper.sweep(Some(&mut tr))?;
                hits += s.hits;
                misses += s.misses;
                attempted += s.cells;
                failed += s.failures;
                s.returned.clear();
            }
            let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
            ((end - t).as_secs_f64(), walls, hit_rate, artifacts)
        }
    };
    let busy: f64 = cell_walls.iter().sum();
    metrics.push(Metric::new(
        "engine.imbalance_s",
        wall - busy / threads as f64,
        "s",
    ));
    metrics.push(Metric::new(
        "engine.worker_busy_frac",
        busy / (threads as f64 * wall),
        "ratio",
    ));
    metrics.push(Metric::new("cache.hit_rate", hit_rate, "ratio"));

    // The per-cycle layers, on a seeded sample of the workload's cells.
    let per_cycle = per_cycle_layers(kind, seed, &cells, seconds, timer_ns, &mut tr, &mut notes)?;
    attempted += per_cycle.cells;
    metrics.extend(per_cycle.metrics);

    // cache: fingerprinting, publishing, memory and disk hits.
    metrics.extend(cache_layer(
        &cells,
        &artifacts,
        &scratch.join("cache"),
        timer_ns,
        &mut tr,
    )?);

    // stream + report: for warm_sweep, from its traced sweeps; otherwise
    // a small grid of the workload's own cells streamed through the same
    // timed sink.
    if kind != Kind::WarmSweep {
        stream_probe(
            kind,
            seed,
            &cells,
            &scratch.join("probe.jsonl"),
            threads,
            &mut tr,
        )?;
    }
    let layers = tr.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let emit = get("stream.emit");
    metrics.push(Metric::new(
        "stream.emit_us",
        emit.mean_ns(timer_ns) / 1e3,
        "us",
    ));
    metrics.push(Metric::new(
        "stream.record_bytes",
        emit.work as f64 / emit.count.max(1) as f64,
        "bytes",
    ));
    let parse = get("stream.parse");
    let records = emit.count.max(1) as f64 / parse.count.max(1) as f64;
    metrics.push(Metric::new(
        "stream.parse_us",
        parse.mean_ns(timer_ns) / 1e3 / records,
        "us",
    ));
    metrics.push(Metric::new(
        "report.dashboard_ms",
        get("report.dashboard").mean_ns(timer_ns) / 1e6,
        "ms",
    ));
    notes.push(format!(
        "stream: {} records emitted, {} files parsed",
        emit.count, parse.count
    ));

    let path = scratch.join(format!("trace-{}-{seed}.jsonl", kind.name()));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        tr.spans.len(),
        path.display()
    ));
    Ok(Traced {
        metrics,
        attempted,
        failed,
        notes,
    })
}

/// Compares sampled engine results against fresh reference simulations.
fn check_sample<R>(
    cells: &[GridCell],
    results: &GridResults<R>,
    picks: &[usize],
    notes: &mut Vec<String>,
) -> u64 {
    let mut bad = 0;
    for &i in picks {
        if !check::matches_reference(&cells[i], &check::render(&results.runs[i].report)) {
            bad += 1;
            notes.push(format!(
                "MISMATCH: {} differs from its reference simulation",
                cells[i].label()
            ));
        }
    }
    bad
}

struct PerCycle {
    metrics: Vec<Metric>,
    cells: u64,
}

/// Times `PowerModel::cycle_power` and `BlockModel::step_scaled` in
/// batches over inputs a replica recorded.
fn replay_power_thermal(cfg: &SimConfig, power: &PowerModel, rep: &Replica, tr: &mut Tracer) {
    for _ in 0..10 {
        let t = Instant::now();
        for a in &rep.activities {
            std::hint::black_box(power.cycle_power(std::hint::black_box(a)));
        }
        tr.record_work(
            "power.cycle_power",
            None,
            t,
            Instant::now(),
            rep.activities.len() as u64,
        );
    }
    let mut thermal = BlockModel::new(cfg.blocks.clone(), cfg.heatsink_temp, cfg.cycle_time());
    for _ in 0..10 {
        let t = Instant::now();
        for p in &rep.powers {
            let mut p = *std::hint::black_box(p);
            thermal.step_scaled(&mut p, 1.0);
        }
        tr.record_work(
            "thermal.step",
            None,
            t,
            Instant::now(),
            rep.powers.len() as u64,
        );
    }
    std::hint::black_box(thermal.temperatures());
}

/// The pipeline, power, thermal and controller layers, the chip kernel
/// and supervisor, and the untraced simulator loops, on sampled cells.
fn per_cycle_layers(
    kind: Kind,
    seed: u64,
    cells: &[GridCell],
    seconds: f64,
    timer_ns: f64,
    tr: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<PerCycle, String> {
    let picks = plan::sample(kind, seed ^ 0x5eed, cells.len(), 8);
    let budget = Instant::now();
    let (mut sim_ns, mut sim_cycles, mut sim_committed) = (0.0, 0u64, 0u64);
    let (mut mc_ns, mut mc_core_cycles) = (0.0, 0u64);
    let (mut folded_real, mut cycles_real) = (0u64, 0u64);
    let (mut off_ns, mut sampled_ns, mut staged_ns) = (0.0, 0.0, 0.0);
    let mut rep = Replica::default();
    let mut stage_ns = [0u64; 6];
    let mut staged_core_cycles = 0u64;
    let mut mismatches = 0u64;
    let mut chip_shape: Option<(SimConfig, usize)> = None;
    let mut done = 0u64;
    for (n, &i) in picks.iter().enumerate() {
        if n >= 2 && seconds_since(budget) > seconds * 0.4 {
            break;
        }
        let cell = &cells[i];
        let cfg = core0_config(cell);
        let power: Arc<PowerModel> = cell.power_model();

        // simulator: the shipped single-core loop, untraced.
        let mut sim =
            Simulator::for_workload_with_power(cfg.clone(), &cell.workload, Arc::clone(&power));
        let t = Instant::now();
        let report = sim.run();
        let end = Instant::now();
        tr.record_work("simulator.run", None, t, end, report.total_cycles);
        sim_ns += (end - t).as_nanos() as f64;
        sim_cycles += report.total_cycles;
        sim_committed += report.committed;

        // multicore: the chip loop on the cell's own chip (one core for
        // single-core cells), untraced but for its gap log.
        let chip_cfg = cell.config();
        let cores = chip_cfg.chip.cores;
        let mut chip = MulticoreSim::for_workload_with_power(
            chip_cfg.clone(),
            &cell.workload,
            Arc::clone(&power),
        );
        chip.record_skip_windows();
        let t = Instant::now();
        let chip_report = chip.run();
        let end = Instant::now();
        let core_cycles: u64 = chip_report.cores.iter().map(|r| r.total_cycles).sum();
        tr.record_work("multicore.run", None, t, end, core_cycles);
        mc_ns += (end - t).as_nanos() as f64;
        mc_core_cycles += core_cycles;
        folded_real += chip.skip_windows().iter().map(|w| w.len()).sum::<u64>();
        cycles_real += chip_report.chip_cycles;

        // The replica: untraced, traced, and with the core's stage timers.
        let off = replica(&cfg, &cell.workload, &power, Timing::Off, tr, None);
        let root = tr.open("replica.run", None);
        let traced = replica(
            &cfg,
            &cell.workload,
            &power,
            Timing::Sampled,
            tr,
            Some(root),
        );
        tr.close(root);
        let staged = replica(&cfg, &cell.workload, &power, Timing::Stages, tr, None);
        replay_power_thermal(&cfg, &power, &traced, tr);
        if (traced.cycles, traced.committed, traced.samples)
            != (report.total_cycles, report.committed, report.samples)
        {
            mismatches += 1;
        }
        notes.push(format!(
            "{}: replica {} cycles / {} insts / {} samples; Simulator::run {} / {} / {}",
            cell.label(),
            traced.cycles,
            traced.committed,
            traced.samples,
            report.total_cycles,
            report.committed,
            report.samples
        ));
        off_ns += off.wall_ns;
        sampled_ns += traced.wall_ns;
        staged_ns += staged.wall_ns;
        for (s, v) in stage_ns.iter_mut().zip(staged.stage_ns) {
            *s += v;
        }
        staged_core_cycles += staged.core_cycles;
        rep.cycles += traced.cycles;
        rep.executed += traced.executed;
        rep.core_cycles += traced.core_cycles;
        rep.idle_probes += traced.idle_probes;
        rep.folded += traced.folded;
        rep.committed += traced.committed;
        rep.core_committed += traced.core_committed;
        rep.samples += traced.samples;
        rep.powers.extend(traced.powers);
        rep.temps.extend(traced.temps);
        if chip_shape.as_ref().is_none_or(|(_, c)| cores > *c) {
            chip_shape = Some((chip_cfg, cores));
        }
        done += 1;
    }

    let layers = tr.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let uarch = get("uarch.cycle").mean_ns(timer_ns);
    let idle_probe = get("uarch.idle_window").mean_ns(timer_ns);
    let power = get("power.cycle_power").per_work_ns(timer_ns);
    let thermal = get("thermal.step").per_work_ns(timer_ns);
    let dtm = get("dtm.sample").mean_ns(timer_ns);
    let gap = get("thermal.gap_fold");
    let gap_per_cycle = gap.per_work_ns(timer_ns);
    let sim_ns_per_cycle = sim_ns / sim_cycles.max(1) as f64;

    // Layer sum: each layer's time over the replica's cycles, against the
    // shipped loop's time per simulated cycle. What is left is the loop's
    // own bookkeeping (stop checks, accumulators).
    let layer_sum = (rep.core_cycles as f64 * uarch
        + rep.idle_probes as f64 * idle_probe
        + rep.executed as f64 * (power + thermal)
        + rep.samples as f64 * dtm
        + gap_per_cycle * gap.work as f64)
        / rep.cycles.max(1) as f64;
    let gap_frac = layer_sum / sim_ns_per_cycle - 1.0;
    notes.push(format!(
        "layer sum {layer_sum:.1} ns/cycle vs simulator.ns_per_cycle {sim_ns_per_cycle:.1}: gap {:+.1}% \
         (stated tolerance ±{:.0}%{})",
        gap_frac * 100.0,
        LAYER_SUM_TOLERANCE * 100.0,
        if gap_frac.abs() <= LAYER_SUM_TOLERANCE { "" } else { ", EXCEEDED" }
    ));

    let mut m = vec![
        Metric::new("uarch.ns_per_cycle", uarch, "ns"),
        Metric::new("uarch.idle_probe_ns", idle_probe, "ns"),
        Metric::new(
            "uarch.ipc",
            rep.core_committed as f64 / rep.core_cycles.max(1) as f64,
            "insts/cycle",
        ),
        Metric::new(
            "uarch.idle_frac",
            rep.folded as f64 / rep.cycles.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "uarch.stage_profiling_overhead_frac",
            staged_ns / off_ns - 1.0,
            "ratio",
        ),
        Metric::new("power.ns_per_cycle", power, "ns"),
        Metric::new("thermal.step_ns", thermal, "ns"),
        Metric::new("thermal.gap_ns_per_folded_cycle", gap_per_cycle, "ns"),
        Metric::new(
            "thermal.folded_frac",
            folded_real as f64 / cycles_real.max(1) as f64,
            "ratio",
        ),
        Metric::new("dtm.sample_ns", dtm, "ns"),
        Metric::new("simulator.ns_per_cycle", sim_ns_per_cycle, "ns"),
        Metric::new(
            "multicore.ns_per_core_cycle",
            mc_ns / mc_core_cycles.max(1) as f64,
            "ns",
        ),
        Metric::new("trace.overhead_frac", sampled_ns / off_ns - 1.0, "ratio"),
        Metric::new(
            "trace.replica_vs_simulator_frac",
            off_ns / sim_ns - 1.0,
            "ratio",
        ),
        Metric::new("trace.layer_sum_gap_frac", gap_frac.abs(), "ratio"),
        Metric::new("trace.replica_cycles", rep.cycles as f64, "count"),
        Metric::new("trace.simulator_cycles", sim_cycles as f64, "count"),
        Metric::new("trace.replica_insts", rep.committed as f64, "count"),
        Metric::new("trace.simulator_insts", sim_committed as f64, "count"),
        Metric::new("trace.replica_count_mismatches", mismatches as f64, "count"),
    ];
    for (name, ns) in STAGE_NAMES.iter().zip(stage_ns) {
        m.push(Metric::new(
            format!("uarch.stage_ns.{name}"),
            ns as f64 / staged_core_cycles.max(1) as f64,
            "ns",
        ));
    }

    // thermal.chip_step and dtm.supervisor: the coupled kernel and the
    // supervisor fed the replica's recorded powers and temperatures, on
    // the largest chip among the sampled cells.
    let (chip_cfg, cores) = chip_shape.ok_or("no cell was sampled")?;
    m.push(Metric::new(
        "thermal.chip_step_ns_per_core",
        chip_step_ns(&chip_cfg, cores, &rep.powers, timer_ns, tr),
        "ns",
    ));
    m.push(Metric::new(
        "dtm.supervisor_ns",
        supervisor_ns(
            chip_cfg.chip.supervisor.unwrap_or_default(),
            cores,
            &rep.temps,
            timer_ns,
            tr,
        ),
        "ns",
    ));
    notes.push(format!(
        "per-cycle layers from {done} sampled cells; replica count mismatches: {mismatches}"
    ));
    Ok(PerCycle {
        metrics: m,
        cells: done,
    })
}

/// ns per core of one `CoupledChip::step`.
fn chip_step_ns(
    cfg: &SimConfig,
    cores: usize,
    powers: &[[f64; BLOCKS]],
    timer_ns: f64,
    tr: &mut Tracer,
) -> f64 {
    let mut chip = MulticoreFloorplan::with_blocks(cores, cfg.blocks.clone())
        .coupling(cfg.chip.coupling)
        .heterogeneity(cfg.chip.heterogeneity)
        .build_chip(cfg.heatsink_temp, cfg.cycle_time());
    let mut input: Vec<Vec<f64>> = vec![vec![0.0; BLOCKS]; cores];
    const STEPS: u64 = 1_000;
    for round in 0..200usize {
        let t = Instant::now();
        for s in 0..STEPS as usize {
            for (k, core) in input.iter_mut().enumerate() {
                core.copy_from_slice(&powers[(round * 7 + s + k * 131) % powers.len()]);
            }
            chip.step(&input);
        }
        tr.record_work(
            "thermal.chip_step",
            None,
            t,
            Instant::now(),
            STEPS * cores as u64,
        );
    }
    std::hint::black_box(chip.hottest());
    tr.layers()["thermal.chip_step"].per_work_ns(timer_ns)
}

/// ns of one `ChipSupervisor::allocate`.
fn supervisor_ns(
    cfg: SupervisorConfig,
    cores: usize,
    temps: &[[f64; BLOCKS]],
    timer_ns: f64,
    tr: &mut Tracer,
) -> f64 {
    let mut sup = ChipSupervisor::new(cfg, cores);
    let hottest: Vec<f64> = temps
        .iter()
        .map(|t| t.iter().copied().fold(f64::NEG_INFINITY, f64::max))
        .collect();
    let mut input = vec![0.0; cores];
    const CALLS: u64 = 1_000;
    for round in 0..100usize {
        let t = Instant::now();
        for s in 0..CALLS as usize {
            for (k, h) in input.iter_mut().enumerate() {
                *h = hottest[(round * 13 + s + k * 97) % hottest.len()];
            }
            std::hint::black_box(sup.allocate(&input));
        }
        tr.record_work("dtm.supervisor", None, t, Instant::now(), CALLS);
    }
    tr.layers()["dtm.supervisor"].per_work_ns(timer_ns)
}

/// The result cache's costs on the workload's own artifacts.
fn cache_layer(
    cells: &[GridCell],
    artifacts: &[(Fingerprint, CellArtifact)],
    dir: &Path,
    timer_ns: f64,
    tr: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    // Fingerprinting every cell, as the engine does before dispatch.
    for _ in 0..20 {
        let t = Instant::now();
        let fps = cache::cell_fingerprints(cells);
        tr.record_work(
            "cache.fingerprint",
            None,
            t,
            Instant::now(),
            fps.len() as u64,
        );
    }
    let _ = std::fs::remove_dir_all(dir);
    let store = ResultCache::with_disk(dir);
    if !store.has_disk_tier() {
        return Err(format!("cannot use {} as a cache directory", dir.display()));
    }
    const REPS: usize = 40;
    for _ in 0..REPS {
        for (fp, artifact) in artifacts {
            let t = Instant::now();
            store.publish(*fp, artifact.clone());
            tr.record("cache.publish", None, t, Instant::now());
        }
    }
    for _ in 0..REPS {
        for (fp, _) in artifacts {
            let t = Instant::now();
            let hit = matches!(store.claim(*fp), Claim::Hit { .. });
            tr.record("cache.mem_hit", None, t, Instant::now());
            if !hit {
                return Err("a just-published entry missed the memory tier".into());
            }
        }
    }
    for _ in 0..REPS {
        let cold = ResultCache::with_disk(dir);
        for (fp, _) in artifacts {
            let t = Instant::now();
            let hit = matches!(cold.claim(*fp), Claim::Hit { .. });
            tr.record("cache.disk_hit", None, t, Instant::now());
            if !hit {
                return Err("a published entry missed the disk tier".into());
            }
        }
    }
    let entry_bytes: u64 = artifacts
        .iter()
        .map(|(_, a)| a.to_json().len() as u64)
        .sum();
    let layers = tr.layers();
    let fp = layers["cache.fingerprint"];
    Ok(vec![
        Metric::new("cache.fingerprint_us", fp.per_work_ns(timer_ns) / 1e3, "us"),
        Metric::new(
            "cache.publish_us",
            layers["cache.publish"].mean_ns(timer_ns) / 1e3,
            "us",
        ),
        Metric::new(
            "cache.mem_hit_us",
            layers["cache.mem_hit"].mean_ns(timer_ns) / 1e3,
            "us",
        ),
        Metric::new(
            "cache.disk_hit_us",
            layers["cache.disk_hit"].mean_ns(timer_ns) / 1e3,
            "us",
        ),
        Metric::new(
            "cache.entry_bytes",
            entry_bytes as f64 / artifacts.len().max(1) as f64,
            "bytes",
        ),
    ])
}

/// Streams a small grid of the workload's own cells (one sampled
/// program and variant × two policies) through a timed sink, re-parses
/// the file and renders the dashboard; then replays it warm.
fn stream_probe(
    kind: Kind,
    seed: u64,
    cells: &[GridCell],
    file: &Path,
    threads: usize,
    tr: &mut Tracer,
) -> Result<(), String> {
    let cell = &cells[plan::sample(kind, seed ^ 0x57, cells.len(), 1)[0]];
    let mut grid = ExperimentGrid::new(cell.scale)
        .workload(cell.workload.clone())
        .policies(&[
            cell.policy,
            if cell.policy == PolicyKind::None {
                PolicyKind::Pid
            } else {
                PolicyKind::None
            },
        ]);
    if let Some(&(name, patch)) = interference_variants()
        .iter()
        .find(|(name, _)| *name == cell.variant)
    {
        grid = grid.variant(name, patch);
    }
    let cache = ResultCache::in_memory();
    let mut previous: Option<Vec<CellRecord>> = None;
    for _ in 0..20 {
        let start = Instant::now();
        let mut jsonl = JsonlSink::create(file).map_err(|e| e.to_string())?;
        let mut sink = TimedSink::new(&mut jsonl);
        grid.run_streaming_cached(threads, &sweep::stream_config(), &mut sink, &cache);
        let streamed = Instant::now();
        let emits = sink.emits;
        drop(jsonl);
        let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
        let records = CellRecord::parse_jsonl(&text)?;
        let parsed = Instant::now();
        std::hint::black_box(obs_dashboard(&records, previous.as_deref()).len());
        let end = Instant::now();
        let root = tr.record("stream_probe", None, start, end);
        let stream = tr.record("engine.stream", Some(root), start, streamed);
        for (a, b, len) in emits {
            tr.record_work("stream.emit", Some(stream), a, b, len as u64);
        }
        tr.record_work(
            "stream.parse",
            Some(root),
            streamed,
            parsed,
            text.len() as u64,
        );
        tr.record("report.dashboard", Some(root), parsed, end);
        previous = Some(records);
    }
    Ok(())
}
