//! The `warm_sweep` workload: a disk cache filled once, then many sweeps
//! that each open it as a new process would, stream a draw of mostly
//! cached cells to JSONL, re-parse the file and render the A/B dashboard
//! against the previous sweep.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tdtm_core::engine::{ExperimentGrid, GridCell, GridResults};
use tdtm_core::report::obs_dashboard;
use tdtm_core::ResultCache;
use tdtm_telemetry::{CellRecord, JsonlSink, MemorySink, StreamSink, TelemetryConfig};
use tdtm_workloads::Workload;

use crate::check;
use crate::layers::Tracer;
use crate::plan::{self, GridCellKey, Kind};

/// What the sweeps stream: metrics and phases, as `obs_report` does.
pub fn stream_config() -> TelemetryConfig {
    TelemetryConfig::metrics_and_phases()
}

/// Simulates the seeded pool into a fresh disk cache at `dir`.
pub fn fill_pool(
    seed: u64,
    suite: &[Workload],
    dir: &Path,
    threads: usize,
) -> (Vec<GridCell>, GridResults<CellRecord>) {
    let grid = plan::pool_grid(seed, suite);
    let cache = ResultCache::with_disk(dir);
    let mut sink = MemorySink::new();
    let results = grid.run_streaming_cached(threads, &stream_config(), &mut sink, &cache);
    (grid.cells(), results)
}

/// A sink that times each emit of the sink it wraps (traced runs only).
pub struct TimedSink<'a> {
    inner: &'a mut dyn StreamSink,
    /// `(start, end, record bytes)` per emit.
    pub emits: Vec<(Instant, Instant, usize)>,
}

impl<'a> TimedSink<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn StreamSink) -> TimedSink<'a> {
        TimedSink {
            inner,
            emits: Vec::new(),
        }
    }
}

impl StreamSink for TimedSink<'_> {
    fn emit(&mut self, record: &CellRecord) {
        let start = Instant::now();
        self.inner.emit(record);
        let end = Instant::now();
        self.emits.push((start, end, record.to_json().len() + 1));
    }
}

/// One finished sweep.
pub struct Sweep {
    /// Host wall time of the whole sweep (ms).
    pub wall_ms: f64,
    /// Cells returned.
    pub cells: u64,
    /// Committed instructions in the returned reports.
    pub committed: u64,
    /// Cache hits and misses over the sweep's grids.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Operations that went wrong: a pooled cell that missed, or a
    /// streamed file that does not parse back to one record per cell.
    pub failures: u64,
    /// Returned reports with their cells, for the output check.
    pub returned: Vec<(GridCell, String)>,
}

/// State carried from sweep to sweep.
pub struct Sweeper<'a> {
    seed: u64,
    suite: &'a [Workload],
    pool: PathBuf,
    stream_file: PathBuf,
    threads: usize,
    previous: Option<Vec<CellRecord>>,
    next: u64,
}

impl<'a> Sweeper<'a> {
    /// Sweeps over the pool at `pool`, streaming to `stream_file`.
    pub fn new(
        seed: u64,
        suite: &'a [Workload],
        pool: PathBuf,
        stream_file: PathBuf,
        threads: usize,
    ) -> Sweeper<'a> {
        Sweeper {
            seed,
            suite,
            pool,
            stream_file,
            threads,
            previous: None,
            next: 0,
        }
    }

    /// Runs the next sweep. With a tracer, records a span per step and
    /// times every emit through a [`TimedSink`].
    pub fn sweep(&mut self, tracer: Option<&mut Tracer>) -> Result<Sweep, String> {
        let n = self.next;
        self.next += 1;
        let (hit_grid, fresh_grid) = plan::sweep_grids(self.seed, n, self.suite);
        let start = Instant::now();

        let cache = ResultCache::with_disk(&self.pool);
        let opened = Instant::now();
        let mut file = JsonlSink::create(&self.stream_file).map_err(|e| e.to_string())?;
        let stream = |sink: &mut dyn StreamSink| {
            let run = |grid: &ExperimentGrid, sink: &mut dyn StreamSink| {
                grid.run_streaming_cached(self.threads, &stream_config(), sink, &cache)
            };
            let hits = run(&hit_grid, sink);
            (hits, fresh_grid.as_ref().map(|grid| run(grid, sink)))
        };
        let ((hit_results, fresh_results), emits) = if tracer.is_some() {
            let mut timed = TimedSink::new(&mut file);
            (stream(&mut timed), timed.emits)
        } else {
            (stream(&mut file), Vec::new())
        };
        let streamed = Instant::now();
        drop(file);

        let text = std::fs::read_to_string(&self.stream_file).map_err(|e| e.to_string())?;
        let records = CellRecord::parse_jsonl(&text)?;
        let parsed = Instant::now();
        let dashboard = obs_dashboard(&records, self.previous.as_deref());
        std::hint::black_box(dashboard.len());
        let end = Instant::now();

        if let Some(tr) = tracer {
            let root = tr.record("sweep", None, start, end);
            tr.record("cache.open", Some(root), start, opened);
            let stream = tr.record("engine.stream", Some(root), opened, streamed);
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
        }

        let mut sweep = Sweep {
            wall_ms: (end - start).as_secs_f64() * 1e3,
            cells: 0,
            committed: 0,
            hits: 0,
            misses: 0,
            failures: 0,
            returned: Vec::new(),
        };
        let hit_cells = hit_grid.cells();
        let hit_stats = hit_results.cache_stats.unwrap_or_default();
        sweep.failures += hit_stats.cache_misses;
        for (grid_cells, results) in [
            (hit_cells, Some(&hit_results)),
            (
                fresh_grid.map(|g| g.cells()).unwrap_or_default(),
                fresh_results.as_ref(),
            ),
        ] {
            let Some(results) = results else { continue };
            let stats = results.cache_stats.unwrap_or_default();
            sweep.hits += stats.cache_hits;
            sweep.misses += stats.cache_misses;
            for run in &results.runs {
                sweep.cells += 1;
                sweep.committed += run.report.committed;
                sweep
                    .returned
                    .push((grid_cells[run.index].clone(), check::render(&run.report)));
            }
        }
        if records.len() as u64 != sweep.cells {
            sweep.failures += 1;
        }
        self.previous = Some(records);
        Ok(sweep)
    }
}

/// Collects, per distinct cell, what the sweeps returned for it; a cell
/// returned with two different reports counts as a mismatch.
#[derive(Default)]
pub struct Returned {
    seen: BTreeMap<GridCellKey, (GridCell, String)>,
    /// Cells returned twice with different reports.
    pub inconsistent: u64,
}

impl Returned {
    /// Adds one sweep's returned cells.
    pub fn add(&mut self, sweep: &mut Sweep) {
        for (cell, text) in sweep.returned.drain(..) {
            let key = GridCellKey::of(&cell);
            match self.seen.get(&key) {
                Some((_, seen)) if *seen != text => self.inconsistent += 1,
                Some(_) => {}
                None => {
                    self.seen.insert(key, (cell, text));
                }
            }
        }
    }

    /// A seeded sample of `k` pooled and `k` fresh cells to re-simulate.
    pub fn sample(&self, seed: u64, k: usize) -> Vec<&(GridCell, String)> {
        let (pooled, fresh): (Vec<_>, Vec<_>) = self
            .seen
            .values()
            .partition(|(cell, _)| cell.variant != "fresh");
        let mut out = Vec::new();
        for set in [pooled, fresh] {
            for i in plan::sample(Kind::WarmSweep, seed, set.len(), k) {
                out.push(set[i]);
            }
        }
        out
    }
}
