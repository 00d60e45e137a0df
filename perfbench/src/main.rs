//! End-to-end and per-layer benchmark of the tdtm DTM simulator.
//!
//! ```text
//! tdtm-perfbench --workload <paper_grid|hot_chip|warm_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable `#` lines, then one JSON result line. Every timed
//! run starts in a fresh process (this binary re-run as a child), with
//! every `TDTM_*` variable cleared, so the process-wide result cache
//! starts cold and each run takes the default dispatch. See `README.md`
//! for the workloads and metrics.

mod check;
mod layers;
mod out;
mod plan;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use out::{f64_field, f64s_field, pairs_field, str_field, u64_field, Metric};
use plan::{GridCellKey, Kind};

/// Cells of each grid pass re-simulated by the output check.
const CHECK_CELLS: usize = 3;

/// Warm re-requests of the grid after each cold pass: the request
/// latency samples of the grid workloads.
const WARM_REPEATS: usize = 25;

/// Fewest cold passes per run: each of the seed's [`plan::ORDERS`] cell
/// orders runs once, and the warm re-requests fill one p90 block
/// (4 × [`WARM_REPEATS`] = [`REQUEST_BLOCK`]).
const MIN_PASSES: usize = plan::ORDERS as usize;

/// Requests per block for the blocked p90 and the `warm_sweep`
/// throughput: the fewest a p90 needs.
const REQUEST_BLOCK: usize = 10 * stats::MIN_BEYOND;

/// Fewest `warm_sweep` sweeps per run: three blocks.
const MIN_SWEEPS: usize = 3 * REQUEST_BLOCK;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// Pool fills per `warm_sweep` run (each is a full set-up).
const POOL_FILLS: usize = 3;

/// The environment knobs the simulator reads; cleared for every run.
const TDTM_VARS: [&str; 7] = [
    "TDTM_INSTS",
    "TDTM_THREADS",
    "TDTM_BATCH",
    "TDTM_SKIP",
    "TDTM_SKIP_CLOSED",
    "TDTM_CACHE",
    "TDTM_CACHE_DIR",
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
    pool: Option<PathBuf>,
    pass: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Kind::PaperGrid,
        seed: 0,
        seconds: 10.0,
        trace: false,
        child: None,
        pool: None,
        pass: 0,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--child" => args.child = Some(value()?),
            "--pool" => args.pool = Some(PathBuf::from(value()?)),
            "--pass" => args.pass = value()?.parse().map_err(|e| format!("--pass: {e}"))?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| match args.child.as_deref() {
        None => orchestrate(&args),
        Some("pass") => child_pass(&args).map(|()| 0),
        Some("sweeps") => child_sweeps(&args).map(|()| 0),
        Some(other) => Err(format!("unknown child mode `{other}`")),
    }) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Grid workers: the host's cores, at most two, so one process is the
/// whole load and hosts of different sizes run the same schedule.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Per-run scratch space inside the checkout (removed at exit, except
/// the trace file).
fn scratch_dir(kind: Kind, seed: u64) -> Result<PathBuf, String> {
    let dir =
        Path::new(".perfbench_out").join(format!("{}-{seed}-{}", kind.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs this binary again as a child in a fresh process and returns its
/// result line.
fn spawn_child(
    mode: &str,
    args: &Args,
    extra: &[&str],
) -> Result<tdtm_telemetry::stream::json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        mode,
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .args(extra);
    for var in TDTM_VARS {
        cmd.env_remove(var);
    }
    let output = cmd.output().map_err(|e| format!("starting child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child `{mode}` failed with {}", output.status));
    }
    out::parse_child(&String::from_utf8_lossy(&output.stdout))
}

/// The cells the output check re-simulates: a seeded sample of the
/// workload's cells, by label (every cell order holds them).
fn check_labels(args: &Args, suite: &[tdtm_workloads::Workload]) -> Vec<String> {
    let cells = plan::timed_grid(args.workload, args.seed, 0, suite).cells();
    plan::sample(args.workload, args.seed, cells.len(), CHECK_CELLS)
        .into_iter()
        .map(|i| cells[i].label())
        .collect()
}

/// One cold pass of a grid workload, timed in its own process, then
/// [`WARM_REPEATS`] re-requests of the same grid, which the process-wide
/// result cache now serves.
fn child_pass(args: &Args) -> Result<(), String> {
    let threads = workers();
    let suite = tdtm_workloads::suite();
    let grid = plan::timed_grid(args.workload, args.seed, args.pass, &suite);
    let cells = grid.cells();
    let start = Instant::now();
    let results = grid.run_threads(threads);
    let wall = start.elapsed().as_secs_f64();

    let keyed: Vec<(GridCellKey, &tdtm_core::RunReport)> = plan::keyed(&cells, &results).collect();
    let digest = check::digest(keyed.iter().map(|(k, r)| (k.label(), *r)));
    let claim = plan::claim_error_pp(keyed.iter().map(|(k, r)| (k, *r)));
    let stats = results.cache_stats.unwrap_or_default();
    let mut failures = u64::from(stats.cache_hits + stats.cache_misses != cells.len() as u64)
        + u64::from(results.runs.len() != cells.len());

    let mut warm_ms = Vec::with_capacity(WARM_REPEATS);
    for _ in 0..WARM_REPEATS {
        let start = Instant::now();
        let warm = grid.run_threads(threads);
        warm_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let hits = warm.cache_stats.map_or(0, |s| s.cache_hits);
        let same = check::digest(plan::keyed(&cells, &warm).map(|(k, r)| (k.label(), r))) == digest;
        failures += u64::from(hits != cells.len() as u64 || !same);
    }
    let mut samples = Vec::new();
    for label in check_labels(args, &suite) {
        let i = cells
            .iter()
            .position(|c| c.label() == label)
            .ok_or("a sampled cell is missing from the grid")?;
        samples.push(out::array([
            out::string(&label),
            out::string(&check::render(&results.runs[i].report)),
        ]));
    }
    println!(
        "{}",
        out::object([
            ("wall_s", out::num(wall)),
            ("cells", results.runs.len().to_string()),
            (
                "committed",
                results
                    .runs
                    .iter()
                    .map(|r| r.report.committed)
                    .sum::<u64>()
                    .to_string()
            ),
            ("warm_ms", out::array(warm_ms.iter().map(|&v| out::num(v)))),
            ("digest", out::string(&digest)),
            ("claim_pp", out::num(claim)),
            ("failures", failures.to_string()),
            ("samples", out::array(samples)),
            ("vm_hwm_kib", out::vm_hwm_kib().to_string()),
        ])
    );
    Ok(())
}

/// The timed sweeps of `warm_sweep` over a filled pool, in their own
/// process, followed by the output check of a sample of what they served.
fn child_sweeps(args: &Args) -> Result<(), String> {
    let pool = args.pool.clone().ok_or("--pool is required")?;
    let threads = workers();
    let suite = tdtm_workloads::suite();
    let stream_file = pool.with_extension("jsonl");
    let mut sweeper = sweep::Sweeper::new(args.seed, &suite, pool, stream_file, threads);
    let mut returned = sweep::Returned::default();
    let (mut ms, mut cells, mut committed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses, mut failures) = (0u64, 0u64, 0u64);
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds || ms.len() < MIN_SWEEPS {
        let mut s = sweeper.sweep(None)?;
        ms.push(s.wall_ms);
        cells.push(s.cells);
        committed.push(s.committed);
        hits += s.hits;
        misses += s.misses;
        failures += s.failures;
        returned.add(&mut s);
    }
    let mut mismatches = returned.inconsistent;
    let sample = returned.sample(args.seed, CHECK_CELLS);
    for (cell, text) in &sample {
        if !check::matches_reference(cell, text) {
            mismatches += 1;
            eprintln!(
                "perfbench: MISMATCH: {} differs from its reference simulation",
                cell.label()
            );
        }
    }
    println!(
        "{}",
        out::object([
            ("sweep_ms", out::array(ms.iter().map(|&v| out::num(v)))),
            ("sweep_cells", out::array(cells.iter().map(u64::to_string))),
            (
                "sweep_committed",
                out::array(committed.iter().map(u64::to_string))
            ),
            ("hits", hits.to_string()),
            ("misses", misses.to_string()),
            ("failures", failures.to_string()),
            ("checked", sample.len().to_string()),
            ("mismatches", mismatches.to_string()),
            ("vm_hwm_kib", out::vm_hwm_kib().to_string()),
        ])
    );
    Ok(())
}

/// What the timed phase measured, before it becomes metrics.
struct Timed {
    /// Per pass or per block of sweeps: cells per second and Minsts per
    /// second.
    cells_per_s: Vec<f64>,
    minsts_per_s: Vec<f64>,
    /// Request latencies (ms): warm re-requests of the grid on grid
    /// workloads, sweeps on `warm_sweep`.
    request_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    peak_kib: u64,
}

fn orchestrate(args: &Args) -> Result<i32, String> {
    // Children get a cleared environment too (see `spawn_child`).
    for var in TDTM_VARS {
        std::env::remove_var(var);
    }
    let threads = workers();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={nproc} workers={threads} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    );
    let scratch = scratch_dir(args.workload, args.seed)?;
    let result = if args.trace {
        traced(args, threads, &scratch)
    } else {
        untraced(args, threads, &scratch)
    };
    if !args.trace {
        let _ = std::fs::remove_dir_all(&scratch);
    } else {
        for entry in std::fs::read_dir(&scratch)
            .map_err(|e| e.to_string())?
            .flatten()
        {
            if !entry.file_name().to_string_lossy().starts_with("trace-") {
                let path = entry.path();
                let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
            }
        }
    }
    result
}

fn traced(args: &Args, threads: usize, scratch: &Path) -> Result<i32, String> {
    let t = layers::run(args.workload, args.seed, args.seconds, threads, scratch)?;
    for note in &t.notes {
        println!("# {note}");
    }
    for m in &t.metrics {
        println!("# {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = t
        .metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!(
        "{}",
        out::result_line(t.failed == 0, t.attempted.max(1), t.failed, &metrics)
    );
    Ok(if t.failed == 0 { 0 } else { 1 })
}

fn untraced(args: &Args, threads: usize, scratch: &Path) -> Result<i32, String> {
    let kind = args.workload;
    let mut notes: Vec<String> = Vec::new();

    // Set-up: assembly and grid/power-model build; for warm_sweep also the
    // pool fill. Repeated, and reported as the median.
    let (setup_s, claim_pp, digest, timed) = if kind == Kind::WarmSweep {
        let mut times = Vec::new();
        let mut last = None;
        for i in 0..POOL_FILLS {
            let dir = scratch.join(format!("pool{i}"));
            let t = Instant::now();
            let suite = tdtm_workloads::suite();
            let (cells, results) = sweep::fill_pool(args.seed, &suite, &dir, threads);
            times.push(t.elapsed().as_secs_f64());
            if let Some((old, _, _)) = last.replace((dir, cells, results)) {
                let _ = std::fs::remove_dir_all::<PathBuf>(old);
            }
        }
        let (pool, cells, results) = last.expect("at least one pool fill");
        let keyed: Vec<_> = plan::keyed(&cells, &results).collect();
        let digest = check::digest(keyed.iter().map(|(k, r)| (k.label(), *r)));
        let claim = plan::claim_error_pp(keyed.iter().map(|(k, r)| (k, *r)));
        let pool_arg = pool.to_string_lossy().into_owned();
        let child = spawn_child("sweeps", args, &["--pool", &pool_arg])?;
        let ms = f64s_field(&child, "sweep_ms")?;
        let cells = f64s_field(&child, "sweep_cells")?;
        let committed = f64s_field(&child, "sweep_committed")?;
        // Throughput per block of consecutive sweeps, median over blocks.
        let per_block = |counts: &[f64], unit: f64| -> Vec<f64> {
            stats::blocks(ms.len(), REQUEST_BLOCK)
                .into_iter()
                .map(|r| {
                    counts[r.clone()].iter().sum::<f64>() / (ms[r].iter().sum::<f64>() / 1e3) / unit
                })
                .collect()
        };
        let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
        let cells_n = cells.iter().sum::<f64>() as u64;
        let (hits, misses) = (u64_field(&child, "hits")?, u64_field(&child, "misses")?);
        let mismatches = u64_field(&child, "mismatches")?;
        notes.push(format!(
            "{} sweeps, {cells_n} cells served ({hits} hits, {misses} misses) in {total_s:.3} s",
            ms.len()
        ));
        notes.push(format!(
            "output check: {} sampled cells re-simulated uncached with skipping off: {mismatches} mismatches",
            u64_field(&child, "checked")?
        ));
        let timed = Timed {
            cells_per_s: per_block(&cells, 1.0),
            minsts_per_s: per_block(&committed, 1e6),
            request_ms: ms,
            attempted: cells_n + results.runs.len() as u64,
            failed: mismatches + u64_field(&child, "failures")?,
            peak_kib: u64_field(&child, "vm_hwm_kib")?,
        };
        (stats::median(&times), claim, digest, timed)
    } else {
        let times: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                let suite = tdtm_workloads::suite();
                std::hint::black_box(plan::timed_grid(kind, args.seed, 0, &suite).cells());
                t.elapsed().as_secs_f64()
            })
            .collect();
        let (claim, digest, timed) = grid_passes(args, &mut notes)?;
        (stats::median(&times), claim, digest, timed)
    };

    let peak_kib = timed.peak_kib.max(out::vm_hwm_kib());
    let error_rate = timed.failed as f64 / timed.attempted.max(1) as f64;
    let p50 = stats::median(&timed.request_ms);
    let p90 = stats::blocked_tail_quantile(&timed.request_ms, 0.9, REQUEST_BLOCK)
        .ok_or_else(|| format!("{} requests are too few for a p90", timed.request_ms.len()))?;
    let metrics = vec![
        Metric::new("cells_per_s", stats::median(&timed.cells_per_s), "1/s"),
        Metric::new(
            "sim_minsts_per_s",
            stats::median(&timed.minsts_per_s),
            "Minst/s",
        ),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB"),
        Metric::new("correct_frac", 1.0 - error_rate, "ratio"),
        Metric::new("request_ms_p50", p50, "ms"),
        Metric::new("request_ms_p90", p90, "ms"),
        Metric::new("paper_claim_err_pp", claim_pp, "pp"),
    ];
    for note in &notes {
        println!("# {note}");
    }
    println!("# digest of all simulated statistics: {digest}");
    println!(
        "# error_rate {error_rate} ({} of {} cells failed or mismatched)",
        timed.failed, timed.attempted
    );
    println!(
        "# request latency over {} samples in {} blocks",
        timed.request_ms.len(),
        stats::blocks(timed.request_ms.len(), REQUEST_BLOCK).len()
    );
    for m in &metrics {
        println!("# {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let ok = timed.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        out::result_line(ok, timed.attempted, timed.failed, &metrics)
    );
    Ok(if ok { 0 } else { 1 })
}

/// Cold grid passes, each in a fresh process, until `--seconds` pass
/// (and at least [`MIN_PASSES`]);
/// then the output check of a sample of cells against every pass.
fn grid_passes(args: &Args, notes: &mut Vec<String>) -> Result<(f64, String, Timed), String> {
    let mut timed = Timed {
        cells_per_s: Vec::new(),
        minsts_per_s: Vec::new(),
        request_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        peak_kib: 0,
    };
    let mut passes = Vec::new();
    let window = Instant::now();
    while passes.len() < MIN_PASSES || window.elapsed().as_secs_f64() < args.seconds {
        let pass = spawn_child("pass", args, &["--pass", &passes.len().to_string()])?;
        let wall = f64_field(&pass, "wall_s")?;
        let cells = u64_field(&pass, "cells")?;
        timed.cells_per_s.push(cells as f64 / wall);
        timed
            .minsts_per_s
            .push(u64_field(&pass, "committed")? as f64 / wall / 1e6);
        let warm_ms = f64s_field(&pass, "warm_ms")?;
        timed.attempted += cells * (1 + warm_ms.len() as u64);
        timed.request_ms.extend(warm_ms);
        timed.failed += u64_field(&pass, "failures")?;
        timed.peak_kib = timed.peak_kib.max(u64_field(&pass, "vm_hwm_kib")?);
        notes.push(format!(
            "pass {}: {cells} cells in {wall:.3} s",
            passes.len() + 1
        ));
        passes.push(pass);
    }

    let digest = str_field(&passes[0], "digest")?.to_string();
    let claim = f64_field(&passes[0], "claim_pp")?;
    for pass in &passes[1..] {
        if str_field(pass, "digest")? != digest
            || f64_field(pass, "claim_pp")?.to_bits() != claim.to_bits()
        {
            timed.failed += 1;
            notes.push("MISMATCH: a pass simulated different statistics than the first".into());
        }
    }

    let suite = tdtm_workloads::suite();
    let cells = plan::timed_grid(args.workload, args.seed, 0, &suite).cells();
    let labels = check_labels(args, &suite);
    let mut mismatches = 0u64;
    for (n, label) in labels.iter().enumerate() {
        let cell = cells
            .iter()
            .find(|c| c.label() == *label)
            .ok_or("a sampled cell is missing from the grid")?;
        let reference = check::render(&check::resimulate(cell));
        for pass in &passes {
            let samples = pairs_field(pass, "samples")?;
            let (got, text) = samples.get(n).ok_or("a pass returned too few samples")?;
            if got != label || *text != reference {
                mismatches += 1;
                notes.push(format!(
                    "MISMATCH: {label} differs from its reference simulation"
                ));
            }
        }
    }
    timed.failed += mismatches;
    notes.push(format!(
        "output check: {} sampled cells × {} passes re-simulated uncached with skipping off: {mismatches} mismatches",
        labels.len(),
        passes.len()
    ));
    Ok((claim, digest, timed))
}
