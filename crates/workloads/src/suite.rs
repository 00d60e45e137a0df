//! The 18-program suite and its thermal-category assignments.

use std::sync::{Arc, OnceLock};

use crate::kernels;
use tdtm_isa::asm::assemble_named;
use tdtm_isa::Program;

/// Thermal-behavior category (the paper's Table 5 partitioning).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThermalCategory {
    /// Sustained operation at or past the emergency threshold without DTM.
    Extreme,
    /// Long stretches just under the threshold, few or no emergencies.
    High,
    /// Occasional thermal stress.
    Medium,
    /// Never near the threshold.
    Low,
}

impl ThermalCategory {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            ThermalCategory::Extreme => "extreme",
            ThermalCategory::High => "high",
            ThermalCategory::Medium => "medium",
            ThermalCategory::Low => "low",
        }
    }
}

impl std::fmt::Display for ThermalCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One benchmark: a named program plus its intended thermal category and
/// functional warmup length.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (a SPEC CPU2000 program name).
    pub name: &'static str,
    /// Intended thermal category.
    pub category: ThermalCategory,
    /// Instructions to fast-forward functionally before timing (the
    /// analogue of the paper's 2-billion-instruction skip).
    pub warmup_insts: u64,
    /// The assembled program, shared: cloning a `Workload` (one clone per
    /// grid cell) bumps a reference count instead of deep-copying data
    /// segments that can run to megabytes.
    program: Arc<Program>,
    /// The program's content digest, filled on first use and shared by
    /// every clone. It lives exactly as long as `program` (both are
    /// created together and never reassigned), so it can never describe
    /// another program.
    digest: Arc<OnceLock<u128>>,
}

impl Workload {
    fn new(
        name: &'static str,
        category: ThermalCategory,
        warmup_insts: u64,
        source: String,
    ) -> Workload {
        let program = assemble_named(&source, name)
            .unwrap_or_else(|e| panic!("workload `{name}` failed to assemble: {e}"));
        Workload {
            name,
            category,
            warmup_insts,
            program: Arc::new(program),
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// The assembled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The assembled program as a shared handle (no deep clone).
    pub fn program_shared(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// The program's content digest, computed by `hash` on the first
    /// call for this program and then read back by every clone, from any
    /// thread. Assembly never hashes, so [`suite`] stays as cheap as
    /// assembling.
    ///
    /// The slot keeps whichever digest it was filled with, so every
    /// caller must pass the same hash function (in this workspace,
    /// `tdtm_core::cache::program_fingerprint`).
    pub fn program_digest(&self, hash: impl FnOnce(&Program) -> u128) -> u128 {
        *self.digest.get_or_init(|| hash(&self.program))
    }
}

/// The suite's programs, in the paper's Table 4 order: name, intended
/// thermal category, functional warmup, and assembly source.
fn sources() -> Vec<(&'static str, ThermalCategory, u64, String)> {
    use ThermalCategory::*;
    vec![
        // gzip: integer compression windows — L1-resident load bursts.
        ("gzip", Medium, 64, kernels::load_bound(32 * 1024, 4, true)),
        // wupwise: large-stride FP-era stream — memory-bound and cool.
        ("wupwise", Low, 64, kernels::mem_stream(8 * 1024 * 1024, 8192, false)),
        // vpr: placement/routing pointer structures — serialized chase.
        (
            "vpr",
            Low,
            kernels::pointer_chase_warmup(1 << 17),
            kernels::pointer_chase(1 << 17, 40961),
        ),
        // gcc: dense, high-ILP integer code.
        ("gcc", Extreme, 64, kernels::int_dense(10)),
        // mesa: moderate-ILP FP rendering loop.
        ("mesa", High, 64, kernels::fp_dense(6, 4)),
        // art: bursty — alternating hot FP bursts and cold miss phases.
        ("art", Extreme, 64, kernels::mixed_phases(100_000, 15_000, 1 << 20)),
        // equake: dense FP with heavy multiplies.
        ("equake", Extreme, 64, kernels::fp_dense(8, 6)),
        // crafty: search code — effectively random branches.
        ("crafty", Low, 64, kernels::branchy(0x2000, 4)),
        // facerec: FP plus integer address arithmetic, both clusters busy.
        ("facerec", High, 64, kernels::fp_dense(10, 2)),
        // fma3d: dense matrix arithmetic (FP + memory).
        ("fma3d", Medium, kernels::matmul_warmup(20), kernels::matmul(20)),
        // parser: branchy with moderate work.
        ("parser", Low, 64, kernels::branchy(0x1000, 8)),
        // eon: mixed int/FP rendering at moderate intensity.
        ("eon", Medium, 64, kernels::int_fp_mix(3, 3)),
        // perlbmk: call-dense interpreter-style integer code.
        ("perlbmk", High, 64, kernels::call_heavy(12)),
        // gap: hashed small-table accesses with integer work.
        ("gap", Medium, 64, kernels::hash_mix(1 << 15, 6)),
        // vortex: database-ish object accesses over a hot working set.
        ("vortex", Medium, 64, kernels::hash_mix(1 << 14, 6)),
        // bzip2: high-IPC integer with predictable branches.
        ("bzip2", Extreme, 64, kernels::int_dense(16)),
        // twolf: pointer-chasing placement with a medium footprint.
        (
            "twolf",
            Low,
            kernels::pointer_chase_warmup(1 << 15),
            kernels::pointer_chase(1 << 15, 10241),
        ),
        // apsi: both execution clusters saturated.
        ("apsi", Extreme, 64, kernels::int_fp_mix(6, 5)),
    ]
}

/// Builds the full 18-program suite, in the paper's Table 4 order.
pub fn suite() -> Vec<Workload> {
    sources()
        .into_iter()
        .map(|(name, category, warmup, source)| Workload::new(name, category, warmup, source))
        .collect()
}

/// Looks up one workload by benchmark name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_frontend::Cpu;

    #[test]
    fn suite_has_the_papers_18_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 18);
        let names: std::collections::HashSet<&str> = s.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 18, "names are unique");
        for expected in [
            "gzip", "wupwise", "vpr", "gcc", "mesa", "art", "equake", "crafty", "facerec",
            "fma3d", "parser", "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf", "apsi",
        ] {
            assert!(names.contains(expected), "missing {expected}");
        }
    }

    #[test]
    fn all_categories_are_represented() {
        let s = suite();
        for cat in [
            ThermalCategory::Extreme,
            ThermalCategory::High,
            ThermalCategory::Medium,
            ThermalCategory::Low,
        ] {
            let n = s.iter().filter(|w| w.category == cat).count();
            assert!(n >= 3, "category {cat} has only {n} members");
        }
    }

    #[test]
    fn every_workload_executes_past_its_warmup() {
        for w in suite() {
            let mut cpu = Cpu::new(w.program());
            let budget = w.warmup_insts + 20_000;
            for i in 0..budget {
                let stepped = cpu
                    .step()
                    .unwrap_or_else(|e| panic!("{} failed at inst {i}: {e}", w.name));
                assert!(stepped.is_some(), "{} halted early at inst {i}", w.name);
            }
        }
    }

    #[test]
    fn by_name_round_trips() {
        let w = by_name("gcc").expect("gcc exists");
        assert_eq!(w.name, "gcc");
        assert!(by_name("not-a-benchmark").is_none());
    }

    #[test]
    fn suite_leaves_every_digest_slot_empty() {
        // An empty slot runs the hasher it is handed; a filled one
        // would return its stored digest instead.
        for w in suite() {
            assert_eq!(w.program_digest(|_| 7), 7, "{} was hashed during assembly", w.name);
        }
    }

    #[test]
    fn clones_share_one_digest_slot() {
        let a = by_name("gcc").expect("gcc exists");
        let b = a.clone();
        assert_eq!(a.program_digest(|p| p.insts.len() as u128), a.program().insts.len() as u128);
        let from_thread = std::thread::scope(|scope| {
            scope
                .spawn(|| b.program_digest(|_| panic!("a clone re-hashed its program")))
                .join()
                .expect("digest thread")
        });
        assert_eq!(from_thread, a.program().insts.len() as u128);
        // A separately assembled workload owns a fresh slot.
        let c = by_name("gcc").expect("gcc exists");
        assert_eq!(c.program_digest(|_| 1), 1);
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = by_name("crafty").unwrap();
        let b = by_name("crafty").unwrap();
        assert_eq!(a.program().insts, b.program().insts);
    }

    /// The assembler is an input boundary: a corrupt source must come
    /// back as an `AsmError` (or, if still well-formed, a program), never
    /// a panic. Every suite kernel's source is truncated, bit-flipped,
    /// and spliced with another kernel's; each mutant must return.
    #[test]
    fn mutated_kernel_sources_never_panic_the_assembler() {
        use tdtm_isa::asm::assemble;
        let sources: Vec<String> = sources().into_iter().map(|(.., src)| src).collect();
        let mut rng = tdtm_prng::Rng::new(0xA55E_4B1E);
        for (k, src) in sources.iter().enumerate() {
            let bytes = src.as_bytes();
            let lines: Vec<&str> = src.lines().collect();
            for i in 0..24 {
                // Truncation at any byte.
                let cut = rng.index(bytes.len() + 1);
                let truncated = String::from_utf8_lossy(&bytes[..cut]).into_owned();
                // One to three bit flips (may leave invalid UTF-8, which
                // decodes lossily into non-ASCII text).
                let mut flipped = bytes.to_vec();
                for _ in 0..=rng.below(3) {
                    let at = rng.index(flipped.len());
                    flipped[at] ^= 1 << rng.below(8);
                }
                let flipped = String::from_utf8_lossy(&flipped).into_owned();
                // A prefix of this kernel's lines joined to a suffix of
                // another's. Cutting at line boundaries keeps numbers
                // whole, so no splice can invent a huge `.zero` size.
                let other: Vec<&str> = sources[rng.index(sources.len())].lines().collect();
                let (a, b) = (rng.index(lines.len() + 1), rng.index(other.len() + 1));
                let spliced = [&lines[..a], &other[b..]].concat().join("\n");
                for (kind, mutant) in
                    [("truncated", truncated), ("bit-flipped", flipped), ("spliced", spliced)]
                {
                    let outcome = std::panic::catch_unwind(|| assemble(&mutant).map(drop));
                    assert!(
                        outcome.is_ok(),
                        "kernel {k} mutant {i} ({kind}) panicked the assembler:\n{mutant}"
                    );
                }
            }
        }
    }
}
