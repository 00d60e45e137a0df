//! A minimal wall-clock microbenchmark harness (std-only).
//!
//! The registry mirror this repo builds against is offline, so the
//! Criterion dependency is out; the four `[[bench]]` targets use this
//! harness instead. It keeps the parts that matter for the paper's
//! "computationally efficient" claims — warmup, automatic iteration
//! calibration, best-of-N batches, ns/op — and skips the statistics
//! machinery.

use std::hint::black_box as std_black_box;
use std::time::Instant;

/// Re-export of [`std::hint::black_box`], so bench code reads the same as
/// it did under Criterion.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Regression tolerance of `--check` (see [`Harness::finish`]): a row
/// may take at most this many times its committed baseline.
pub const CHECK_TOLERANCE: f64 = 3.0;

/// Target wall time per measured batch.
const BATCH_SECONDS: f64 = 0.02;
/// Number of measured batches; the minimum is reported.
const BATCHES: usize = 7;

/// A named group of microbenchmarks, printed as `name  ns/op  ops/s`.
pub struct Harness {
    rows: Vec<(String, f64)>,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

impl Harness {
    /// Creates an empty harness.
    pub fn new() -> Harness {
        Harness { rows: Vec::new() }
    }

    /// Measures `f`, recording the minimum per-iteration time over
    /// `BATCHES` calibrated batches (the minimum is the standard
    /// low-noise estimator for microbenchmarks).
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibrate: grow the batch until it runs long enough to time.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(f());
            }
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= BATCH_SECONDS || iters >= 1 << 30 {
                break;
            }
            // Aim straight for the target, with a growth cap.
            let scale = (BATCH_SECONDS / elapsed.max(1e-9)).min(100.0);
            iters = ((iters as f64 * scale).ceil() as u64).max(iters + 1);
        }
        let mut best = f64::INFINITY;
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(f());
            }
            best = best.min(start.elapsed().as_secs_f64() / iters as f64);
        }
        let ns = best * 1e9;
        println!("{name:<44} {ns:>12.2} ns/op {:>16.0} ops/s", 1.0 / best);
        self.rows.push((name.to_string(), ns));
    }

    /// Appends an externally measured row (e.g. a whole-run measurement
    /// normalized per cycle) so it shows up in [`Harness::to_json`]
    /// alongside the calibrated ones.
    pub fn push_row(&mut self, name: &str, ns_per_op: f64) {
        self.rows.push((name.to_string(), ns_per_op));
    }

    /// The recorded `(name, ns_per_op)` rows.
    pub fn results(&self) -> &[(String, f64)] {
        &self.rows
    }

    /// Renders the recorded rows as a JSON object mapping benchmark name
    /// to ns/op, for committing machine-readable baselines (e.g.
    /// `BENCH_telemetry.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, ns)) in self.rows.iter().enumerate() {
            let sep = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("  \"{name}\": {ns:.2}{sep}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Compares the recorded rows against `baseline` (the flat JSON
    /// [`to_json`](Harness::to_json) writes), printing one verdict line
    /// per row the baseline also holds. Returns whether every such row
    /// stays within `tolerance` times its baseline; rows the baseline
    /// lacks, and baseline rows this run did not measure, are ignored.
    pub fn check_against(&self, baseline: &str, tolerance: f64) -> bool {
        let baseline = parse_baseline(baseline);
        let mut ok = true;
        for (name, ns) in &self.rows {
            let Some((_, base)) = baseline.iter().find(|(b, _)| b == name) else {
                continue;
            };
            let ratio = ns / base;
            let verdict = if ratio <= tolerance { "ok" } else { "REGRESSED" };
            println!("check {name:<40} {ns:>14.2} vs {base:>14.2} ns/op  ({ratio:>5.2}x)  {verdict}");
            ok &= ratio <= tolerance;
        }
        ok
    }

    /// Handles the flags every bench binary shares, once all rows are
    /// recorded: `--json <path>` writes the rows as a baseline, and
    /// `--check <path>` compares them against a committed one, exiting
    /// nonzero if any shared row regressed more than
    /// [`CHECK_TOLERANCE`]×.
    pub fn finish(&self, args: &[String]) {
        if let Some(i) = args.iter().position(|a| a == "--json") {
            let path = args.get(i + 1).expect("--json needs a path");
            std::fs::write(path, self.to_json()).expect("write json baseline");
            eprintln!("wrote {path}");
        }
        if let Some(i) = args.iter().position(|a| a == "--check") {
            let path = args.get(i + 1).expect("--check needs a path");
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
            if !self.check_against(&text, CHECK_TOLERANCE) {
                eprintln!("bench regression check FAILED (>{CHECK_TOLERANCE}x vs {path})");
                std::process::exit(1);
            }
            eprintln!("bench regression check passed (tolerance {CHECK_TOLERANCE}x)");
        }
    }
}

/// Reads the numeric rows of a flat `{"name": ns, ...}` baseline (the
/// shape [`Harness::to_json`] writes); other keys, such as a
/// `"_comment"` string, are skipped.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim().trim_matches('"');
        if let Ok(ns) = value.trim().parse::<f64>() {
            rows.push((name.to_string(), ns));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_a_row() {
        let mut h = Harness::new();
        let mut x = 0u64;
        h.bench("wrapping_add", || {
            x = x.wrapping_add(black_box(3));
            x
        });
        assert_eq!(h.results().len(), 1);
        assert!(h.results()[0].1 > 0.0, "measured time must be positive");
        let json = h.to_json();
        assert!(json.starts_with("{\n  \"wrapping_add\": "));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn check_against_gates_shared_rows_only() {
        let mut h = Harness::new();
        h.push_row("steady", 250.0);
        h.push_row("slower", 400.0);
        h.push_row("new_row", 1e12);
        let baseline = "{\n  \"_comment\": \"a: b\",\n  \"steady\": 100.00,\n  \"slower\": 100.00,\n  \"gone\": 1.00\n}\n";
        assert!(!h.check_against(baseline, 3.0), "4x is past a 3x tolerance");
        assert!(h.check_against(baseline, 4.0), "unmeasured and new rows are ignored");
        assert!(h.check_against(&h.to_json(), 1.0), "a run passes against itself");
    }
}
