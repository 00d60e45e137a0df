//! Instruction supply for the timing model: the oracle (correct-path)
//! stream from the functional simulator, and the synthetic wrong-path
//! generator used between a mispredicted fetch and the branch's
//! resolution.

use tdtm_frontend::{Cpu, ExecError, Retired};
use tdtm_prng::Rng;
use tdtm_isa::{FReg, Inst, Op, Program, Reg};

/// Buffered access to the functional simulator's retired-instruction
/// stream, indexed by dynamic instruction number.
///
/// The timing model's fetch stage reads ahead of commit, so the stream
/// keeps a sliding window `[base, base+len)` of records; `trim` releases
/// records older than the oldest in-flight instruction.
#[derive(Clone, Debug)]
pub struct OracleStream {
    cpu: Cpu,
    buf: std::collections::VecDeque<Retired>,
    base: u64,
    done: bool,
}

impl OracleStream {
    /// Creates a stream over a freshly loaded program (deep-clones it;
    /// prefer [`from_shared`](OracleStream::from_shared) when an `Arc` is
    /// already at hand).
    pub fn new(program: &Program) -> OracleStream {
        OracleStream::from_shared(std::sync::Arc::new(program.clone()))
    }

    /// Creates a stream over a shared, immutable program without cloning
    /// its text or data segments.
    pub fn from_shared(program: std::sync::Arc<Program>) -> OracleStream {
        OracleStream {
            cpu: Cpu::from_shared(program),
            buf: std::collections::VecDeque::new(),
            base: 0,
            done: false,
        }
    }

    /// The record with dynamic index `idx`, executing the functional
    /// simulator forward as needed. Returns `None` once the program has
    /// halted before `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has already been trimmed, or if the program takes a
    /// wild PC (a workload bug, not a simulator condition).
    pub fn get(&mut self, idx: u64) -> Option<&Retired> {
        assert!(idx >= self.base, "index {idx} already trimmed (base {})", self.base);
        while !self.done && self.base + self.buf.len() as u64 <= idx {
            match self.cpu.step() {
                Ok(Some(r)) => self.buf.push_back(r),
                Ok(None) => self.done = true,
                Err(ExecError::BadPc(pc)) => panic!("workload escaped text segment at {pc:#x}"),
                Err(e) => panic!("functional execution failed: {e}"),
            }
        }
        let off = (idx - self.base) as usize;
        self.buf.get(off)
    }

    /// Whether the program has halted (no records at or past `idx` will
    /// appear once `get` returns `None`).
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Whether a record with dynamic index `idx` exists, executing the
    /// functional simulator forward as needed — the fetch-supply half of
    /// the timing model's idle-window probe ("will the oracle ever feed
    /// this fetch index"). Exactly [`get`](OracleStream::get)`.is_some()`,
    /// with the same buffering side effects fetch itself would have.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has already been trimmed.
    pub fn has_record(&mut self, idx: u64) -> bool {
        self.get(idx).is_some()
    }

    /// Fast-forwards the functional machine past the first `n`
    /// instructions without buffering them — the stand-in for the paper's
    /// "skip the first 2 billion instructions" warmup. Returns how many
    /// instructions were actually skipped (fewer if the program halts).
    ///
    /// # Panics
    ///
    /// Panics if records have already been buffered or the program takes a
    /// wild PC.
    pub fn skip(&mut self, n: u64) -> u64 {
        assert!(self.buf.is_empty() && self.base == 0, "skip before any reads");
        let mut skipped = 0;
        while skipped < n && !self.done {
            match self.cpu.step() {
                Ok(Some(_)) => skipped += 1,
                Ok(None) => self.done = true,
                Err(e) => panic!("functional execution failed during skip: {e}"),
            }
        }
        self.base = skipped;
        skipped
    }

    /// Releases records with index `< min_idx`.
    pub fn trim(&mut self, min_idx: u64) {
        while self.base < min_idx && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
        }
    }

    /// Output values the program has emitted so far.
    pub fn output(&self) -> &[i64] {
        self.cpu.output()
    }
}

/// Deterministic generator of plausible wrong-path instructions.
///
/// Real wrong paths execute whatever bytes live at the mispredicted
/// target; their first-order effect on DTM is that fetch, decode, the
/// window, and the functional units stay busy until the branch resolves.
/// The generator produces a representative mix (ALU, loads near recently
/// touched addresses, stores, not-taken branches, FP) from a fixed seed so
/// runs remain reproducible.
#[derive(Clone, Debug)]
pub struct WrongPathGenerator {
    rng: Rng,
    recent_addrs: [u64; 16],
    cursor: usize,
}

impl WrongPathGenerator {
    /// Creates a generator with a fixed seed.
    pub fn new(seed: u64) -> WrongPathGenerator {
        WrongPathGenerator {
            rng: Rng::new(seed),
            recent_addrs: [0x10_0000; 16],
            cursor: 0,
        }
    }

    /// Records a committed-path data address, biasing wrong-path loads
    /// toward the program's working set.
    pub fn observe_addr(&mut self, addr: u64) {
        self.recent_addrs[self.cursor] = addr;
        self.cursor = (self.cursor + 1) % self.recent_addrs.len();
    }

    /// Produces the next synthetic instruction and, for memory ops, its
    /// synthetic effective address.
    pub fn next_inst(&mut self) -> (Inst, Option<u64>) {
        let r = |rng: &mut Rng| Reg::new(rng.range_i64(1, 32) as u8);
        let f = |rng: &mut Rng| FReg::new(rng.range_i64(0, 32) as u8);
        let roll = self.rng.range_i64(0, 100);
        if roll < 40 {
            let ops = [Op::Add, Op::Sub, Op::And, Op::Or, Op::Xor, Op::Slt, Op::Addi, Op::Slli];
            let op = ops[self.rng.index(ops.len())];
            (
                Inst {
                    op,
                    rd: r(&mut self.rng),
                    rs1: r(&mut self.rng),
                    rs2: r(&mut self.rng),
                    imm: self.rng.range_i64(-64, 64) as i32,
                    ..Inst::default()
                },
                None,
            )
        } else if roll < 60 {
            let addr = self.synthetic_addr();
            (
                Inst {
                    op: Op::Lw,
                    rd: r(&mut self.rng),
                    rs1: r(&mut self.rng),
                    ..Inst::default()
                },
                Some(addr),
            )
        } else if roll < 70 {
            let addr = self.synthetic_addr();
            (
                Inst {
                    op: Op::Sw,
                    rs1: r(&mut self.rng),
                    rs2: r(&mut self.rng),
                    ..Inst::default()
                },
                Some(addr),
            )
        } else if roll < 85 {
            (
                Inst {
                    op: Op::Beq,
                    rs1: r(&mut self.rng),
                    rs2: r(&mut self.rng),
                    imm: self.rng.range_i64(-32, 32) as i32 * 4,
                    ..Inst::default()
                },
                None,
            )
        } else {
            let ops = [Op::Fadd, Op::Fmul, Op::Fsub];
            let op = ops[self.rng.index(ops.len())];
            (
                Inst {
                    op,
                    fd: f(&mut self.rng),
                    fs1: f(&mut self.rng),
                    fs2: f(&mut self.rng),
                    ..Inst::default()
                },
                None,
            )
        }
    }

    fn synthetic_addr(&mut self) -> u64 {
        let base = self.recent_addrs[self.rng.index(self.recent_addrs.len())];
        let offset = self.rng.range_i64(-256, 256);
        (base as i64 + offset * 8).max(0x1000) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdtm_isa::asm::assemble;

    fn program() -> Program {
        assemble(
            "     li x1, 4
             l:   addi x2, x2, 1
                  addi x1, x1, -1
                  bne x1, x0, l
                  halt",
        )
        .unwrap()
    }

    #[test]
    fn stream_is_indexable_and_ends() {
        let p = program();
        let mut s = OracleStream::new(&p);
        assert_eq!(s.get(0).unwrap().seq, 0);
        assert_eq!(s.get(5).unwrap().seq, 5);
        assert_eq!(s.get(1).unwrap().seq, 1, "backwards reads within window");
        // li + 4*(addi,addi,bne) + halt = 14 records (0..=13).
        assert!(s.get(13).is_some());
        assert!(s.get(14).is_none());
        assert!(s.finished());
    }

    #[test]
    fn trim_releases_old_records() {
        let p = program();
        let mut s = OracleStream::new(&p);
        s.get(10);
        s.trim(8);
        assert_eq!(s.get(8).unwrap().seq, 8);
    }

    #[test]
    #[should_panic(expected = "already trimmed")]
    fn reading_trimmed_index_panics() {
        let p = program();
        let mut s = OracleStream::new(&p);
        s.get(10);
        s.trim(8);
        let _ = s.get(3);
    }

    #[test]
    fn wrong_path_generator_is_deterministic() {
        let mut a = WrongPathGenerator::new(42);
        let mut b = WrongPathGenerator::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
        let mut c = WrongPathGenerator::new(43);
        let differs = (0..100).any(|_| a.next_inst() != c.next_inst());
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn wrong_path_mix_is_plausible() {
        let mut g = WrongPathGenerator::new(7);
        g.observe_addr(0x20_0000);
        let mut loads = 0;
        let mut branches = 0;
        let mut wild_addrs = 0;
        for _ in 0..1000 {
            let (inst, addr) = g.next_inst();
            match inst.op {
                Op::Lw => {
                    loads += 1;
                    let a = addr.expect("loads have addresses");
                    if a.abs_diff(0x20_0000) > 1 << 20 && a.abs_diff(0x10_0000) > 1 << 20 {
                        wild_addrs += 1;
                    }
                }
                Op::Beq => branches += 1,
                _ => {}
            }
        }
        assert!((100..350).contains(&loads), "loads {loads}");
        assert!((50..300).contains(&branches), "branches {branches}");
        assert_eq!(wild_addrs, 0, "wrong-path loads stay near the working set");
    }
}
