//! A two-pass assembler for TDISA assembly text.
//!
//! Syntax, by example:
//!
//! ```text
//! # comments run to end of line; ';' also starts a comment
//!         .data                  # switch to data emission
//! table:  .word 1, 2, 3          # 64-bit little-endian words
//! buf:    .zero 256              # 256 zero bytes
//! pi:     .double 3.14159        # 64-bit IEEE double
//!         .text                  # back to instructions
//! main:   la   x5, table         # pseudo: load address
//!         li   x6, 42            # pseudo: load immediate
//! loop:   lw   x7, 0(x5)
//!         addi x5, x5, 8
//!         addi x6, x6, -1
//!         bne  x6, x0, loop
//!         halt
//! ```
//!
//! Labels may be used as branch/jump targets (assembled pc-relative) or as
//! `la` addresses. Pseudo-instructions: `li`, `la`, `mv`, `j`, `call`,
//! `ret`, `bgt`, `ble`, `fmvi` (load an f64 constant through the integer
//! path: `fmvi f1, 2.5` emits a data-free `fcvt.d.w`-based sequence only for
//! whole numbers; use `.double` data for general constants).

use crate::inst::{Inst, Op};
use crate::program::{DataSegment, Program, DATA_BASE, STACK_BASE, TEXT_BASE};
use crate::reg::{FReg, Reg};
use std::collections::HashMap;
use std::fmt;

/// An assembly error, with the 1-based source line where it occurred.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError { line, message: message.into() }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// One parsed instruction-to-be, possibly awaiting label resolution.
struct Pending {
    line: usize,
    inst: Inst,
    /// Label whose resolved value patches `imm`.
    fixup: Option<(String, FixupKind)>,
}

enum FixupKind {
    /// `imm = label_addr - inst_addr` (branches, jumps).
    PcRelative,
    /// `imm = label_addr` (for `la`).
    Absolute,
}

/// Assembles TDISA source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics or registers, duplicate or undefined labels, and
/// out-of-range operands.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    assemble_named(source, "anonymous")
}

/// Assembles source text into a [`Program`] with the given name.
///
/// # Errors
///
/// See [`assemble`].
pub fn assemble_named(source: &str, name: &str) -> Result<Program, AsmError> {
    let mut labels: HashMap<String, u64> = HashMap::new();
    let mut pendings: Vec<Pending> = Vec::new();
    let mut data: Vec<u8> = Vec::new();
    let mut section = Section::Text;

    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut rest = line;
        // Labels (possibly several) at the start of the line.
        while let Some(colon) = find_label(rest) {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            validate_label(label, lineno)?;
            let value = match section {
                Section::Text => TEXT_BASE + 4 * pendings.len() as u64,
                Section::Data => DATA_BASE + data.len() as u64,
            };
            if labels.insert(label.to_string(), value).is_some() {
                return Err(err(lineno, format!("duplicate label `{label}`")));
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        if let Some(directive) = rest.strip_prefix('.') {
            handle_directive(directive, &mut section, &mut data, lineno)?;
            continue;
        }
        if section == Section::Data {
            return Err(err(lineno, "instructions are not allowed in the .data section"));
        }
        parse_statement(rest, lineno, &mut pendings)?;
    }

    // Second pass: resolve label fixups.
    let mut insts = Vec::with_capacity(pendings.len());
    for (i, p) in pendings.into_iter().enumerate() {
        let mut inst = p.inst;
        if let Some((label, kind)) = p.fixup {
            let &target = labels
                .get(&label)
                .ok_or_else(|| err(p.line, format!("undefined label `{label}`")))?;
            let here = TEXT_BASE + 4 * i as u64;
            inst.imm = match kind {
                FixupKind::PcRelative => (target as i64 - here as i64) as i32,
                FixupKind::Absolute => target as i32,
            };
        }
        insts.push(inst);
    }

    let mut program = Program::new(name);
    program.insts = insts;
    if !data.is_empty() {
        program.data.push(DataSegment { base: DATA_BASE, bytes: data });
    }
    Ok(program)
}

fn strip_comment(line: &str) -> &str {
    match line.find(['#', ';']) {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Finds the byte offset of a label-terminating ':' if the line starts with a
/// label (i.e., the colon appears before any whitespace-separated operand).
fn find_label(line: &str) -> Option<usize> {
    let colon = line.find(':')?;
    let head = &line[..colon];
    if head.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '.') && !head.is_empty() {
        Some(colon)
    } else {
        None
    }
}

fn validate_label(label: &str, line: usize) -> Result<(), AsmError> {
    if label.is_empty() || label.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return Err(err(line, format!("invalid label `{label}`")));
    }
    Ok(())
}

fn handle_directive(
    directive: &str,
    section: &mut Section,
    data: &mut Vec<u8>,
    line: usize,
) -> Result<(), AsmError> {
    let (name, args) = match directive.find(char::is_whitespace) {
        Some(i) => (&directive[..i], directive[i..].trim()),
        None => (directive, ""),
    };
    match name {
        "text" => *section = Section::Text,
        "data" => *section = Section::Data,
        "word" => {
            if *section != Section::Data {
                return Err(err(line, ".word outside .data section"));
            }
            for part in args.split(',') {
                let v = parse_int(part.trim())
                    .ok_or_else(|| err(line, format!("bad .word operand `{part}`")))?;
                data.extend_from_slice(&v.to_le_bytes());
            }
        }
        "double" => {
            if *section != Section::Data {
                return Err(err(line, ".double outside .data section"));
            }
            for part in args.split(',') {
                let v: f64 = part
                    .trim()
                    .parse()
                    .map_err(|_| err(line, format!("bad .double operand `{part}`")))?;
                data.extend_from_slice(&v.to_le_bytes());
            }
        }
        "zero" | "space" => {
            if *section != Section::Data {
                return Err(err(line, ".zero outside .data section"));
            }
            let n = parse_int(args).ok_or_else(|| err(line, "bad .zero size"))?;
            if n < 0 {
                return Err(err(line, "negative .zero size"));
            }
            // The data segment may not grow into the stack.
            let end = (data.len() as u64).saturating_add(n as u64);
            if end > STACK_BASE - DATA_BASE {
                return Err(err(line, format!(".zero size {n} overruns the data segment")));
            }
            data.resize(end as usize, 0);
        }
        other => return Err(err(line, format!("unknown directive `.{other}`"))),
    }
    Ok(())
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(hex) = s.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).ok().map(|v| -v)
    } else {
        s.parse().ok()
    }
}

fn parse_statement(text: &str, line: usize, out: &mut Vec<Pending>) -> Result<(), AsmError> {
    let (mnemonic, argstr) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let args: Vec<&str> = if argstr.is_empty() {
        Vec::new()
    } else {
        argstr.split(',').map(str::trim).collect()
    };
    let m = mnemonic.to_ascii_lowercase();
    expand(&m, &args, line, out)
}

fn ireg(s: &str, line: usize) -> Result<Reg, AsmError> {
    let body = s
        .strip_prefix(['x', 'X'])
        .ok_or_else(|| err(line, format!("expected integer register, got `{s}`")))?;
    let n: u8 = body
        .parse()
        .map_err(|_| err(line, format!("bad register `{s}`")))?;
    if n >= 32 {
        return Err(err(line, format!("register `{s}` out of range")));
    }
    Ok(Reg::new(n))
}

fn freg(s: &str, line: usize) -> Result<FReg, AsmError> {
    let body = s
        .strip_prefix(['f', 'F'])
        .ok_or_else(|| err(line, format!("expected fp register, got `{s}`")))?;
    let n: u8 = body
        .parse()
        .map_err(|_| err(line, format!("bad fp register `{s}`")))?;
    if n >= 32 {
        return Err(err(line, format!("fp register `{s}` out of range")));
    }
    Ok(FReg::new(n))
}

fn imm32(s: &str, line: usize) -> Result<i32, AsmError> {
    let v = parse_int(s).ok_or_else(|| err(line, format!("bad immediate `{s}`")))?;
    i32::try_from(v).map_err(|_| err(line, format!("immediate `{s}` out of 32-bit range")))
}

/// Parses `imm(reg)` memory-operand syntax.
fn memop(s: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let open = s
        .find('(')
        .ok_or_else(|| err(line, format!("expected `imm(reg)`, got `{s}`")))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| err(line, format!("missing `)` in `{s}`")))?;
    let offs = s[..open].trim();
    let imm = if offs.is_empty() { 0 } else { imm32(offs, line)? };
    let reg = ireg(s[open + 1..close].trim(), line)?;
    Ok((imm, reg))
}

fn need(args: &[&str], n: usize, m: &str, line: usize) -> Result<(), AsmError> {
    if args.len() == n {
        Ok(())
    } else {
        Err(err(line, format!("`{m}` expects {n} operands, got {}", args.len())))
    }
}

/// Whether an operand looks like a label rather than a number.
fn is_label_operand(s: &str) -> bool {
    parse_int(s).is_none()
}

#[allow(clippy::too_many_lines)]
fn expand(m: &str, args: &[&str], line: usize, out: &mut Vec<Pending>) -> Result<(), AsmError> {
    use Op::*;
    let mut push = |inst: Inst, fixup: Option<(String, FixupKind)>| {
        out.push(Pending { line, inst, fixup });
    };

    let rrr = |op: Op, args: &[&str]| -> Result<Inst, AsmError> {
        need(args, 3, m, line)?;
        Ok(Inst {
            op,
            rd: ireg(args[0], line)?,
            rs1: ireg(args[1], line)?,
            rs2: ireg(args[2], line)?,
            ..Inst::default()
        })
    };
    let rri = |op: Op, args: &[&str]| -> Result<Inst, AsmError> {
        need(args, 3, m, line)?;
        Ok(Inst {
            op,
            rd: ireg(args[0], line)?,
            rs1: ireg(args[1], line)?,
            imm: imm32(args[2], line)?,
            ..Inst::default()
        })
    };
    let fff = |op: Op, args: &[&str]| -> Result<Inst, AsmError> {
        need(args, 3, m, line)?;
        Ok(Inst {
            op,
            fd: freg(args[0], line)?,
            fs1: freg(args[1], line)?,
            fs2: freg(args[2], line)?,
            ..Inst::default()
        })
    };
    let ff = |op: Op, args: &[&str]| -> Result<Inst, AsmError> {
        need(args, 2, m, line)?;
        Ok(Inst {
            op,
            fd: freg(args[0], line)?,
            fs1: freg(args[1], line)?,
            ..Inst::default()
        })
    };

    match m {
        "add" => push(rrr(Add, args)?, None),
        "sub" => push(rrr(Sub, args)?, None),
        "mul" => push(rrr(Mul, args)?, None),
        "div" => push(rrr(Div, args)?, None),
        "rem" => push(rrr(Rem, args)?, None),
        "and" => push(rrr(And, args)?, None),
        "or" => push(rrr(Or, args)?, None),
        "xor" => push(rrr(Xor, args)?, None),
        "sll" => push(rrr(Sll, args)?, None),
        "srl" => push(rrr(Srl, args)?, None),
        "sra" => push(rrr(Sra, args)?, None),
        "slt" => push(rrr(Slt, args)?, None),
        "sltu" => push(rrr(Sltu, args)?, None),
        "addi" => push(rri(Addi, args)?, None),
        "andi" => push(rri(Andi, args)?, None),
        "ori" => push(rri(Ori, args)?, None),
        "xori" => push(rri(Xori, args)?, None),
        "slli" => push(rri(Slli, args)?, None),
        "srli" => push(rri(Srli, args)?, None),
        "srai" => push(rri(Srai, args)?, None),
        "slti" => push(rri(Slti, args)?, None),
        "lui" => {
            need(args, 2, m, line)?;
            push(
                Inst { op: Lui, rd: ireg(args[0], line)?, imm: imm32(args[1], line)?, ..Inst::default() },
                None,
            );
        }
        "lw" | "lb" => {
            need(args, 2, m, line)?;
            let (imm, rs1) = memop(args[1], line)?;
            let op = if m == "lw" { Lw } else { Lb };
            push(Inst { op, rd: ireg(args[0], line)?, rs1, imm, ..Inst::default() }, None);
        }
        "sw" | "sb" => {
            need(args, 2, m, line)?;
            let (imm, rs1) = memop(args[1], line)?;
            let op = if m == "sw" { Sw } else { Sb };
            push(Inst { op, rs2: ireg(args[0], line)?, rs1, imm, ..Inst::default() }, None);
        }
        "flw" => {
            need(args, 2, m, line)?;
            let (imm, rs1) = memop(args[1], line)?;
            push(Inst { op: Flw, fd: freg(args[0], line)?, rs1, imm, ..Inst::default() }, None);
        }
        "fsw" => {
            need(args, 2, m, line)?;
            let (imm, rs1) = memop(args[1], line)?;
            push(Inst { op: Fsw, fs2: freg(args[0], line)?, rs1, imm, ..Inst::default() }, None);
        }
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" | "bgt" | "ble" => {
            need(args, 3, m, line)?;
            let (op, a, b) = match m {
                "beq" => (Beq, 0, 1),
                "bne" => (Bne, 0, 1),
                "blt" => (Blt, 0, 1),
                "bge" => (Bge, 0, 1),
                "bltu" => (Bltu, 0, 1),
                "bgeu" => (Bgeu, 0, 1),
                // bgt a,b == blt b,a ; ble a,b == bge b,a
                "bgt" => (Blt, 1, 0),
                _ => (Bge, 1, 0),
            };
            let inst = Inst { op, rs1: ireg(args[a], line)?, rs2: ireg(args[b], line)?, ..Inst::default() };
            if is_label_operand(args[2]) {
                push(inst, Some((args[2].to_string(), FixupKind::PcRelative)));
            } else {
                push(Inst { imm: imm32(args[2], line)?, ..inst }, None);
            }
        }
        "jal" => {
            need(args, 2, m, line)?;
            let inst = Inst { op: Jal, rd: ireg(args[0], line)?, ..Inst::default() };
            if is_label_operand(args[1]) {
                push(inst, Some((args[1].to_string(), FixupKind::PcRelative)));
            } else {
                push(Inst { imm: imm32(args[1], line)?, ..inst }, None);
            }
        }
        "jalr" => {
            need(args, 3, m, line)?;
            push(
                Inst {
                    op: Jalr,
                    rd: ireg(args[0], line)?,
                    rs1: ireg(args[1], line)?,
                    imm: imm32(args[2], line)?,
                    ..Inst::default()
                },
                None,
            );
        }
        "fadd" => push(fff(Fadd, args)?, None),
        "fsub" => push(fff(Fsub, args)?, None),
        "fmul" => push(fff(Fmul, args)?, None),
        "fdiv" => push(fff(Fdiv, args)?, None),
        "fmin" => push(fff(Fmin, args)?, None),
        "fmax" => push(fff(Fmax, args)?, None),
        "fsqrt" => push(ff(Fsqrt, args)?, None),
        "fabs" => push(ff(Fabs, args)?, None),
        "fneg" => push(ff(Fneg, args)?, None),
        "fmv" => push(ff(Fmv, args)?, None),
        "fcvt.d.w" | "fcvtdw" => {
            need(args, 2, m, line)?;
            push(
                Inst { op: Fcvtdw, fd: freg(args[0], line)?, rs1: ireg(args[1], line)?, ..Inst::default() },
                None,
            );
        }
        "fcvt.w.d" | "fcvtwd" => {
            need(args, 2, m, line)?;
            push(
                Inst { op: Fcvtwd, rd: ireg(args[0], line)?, fs1: freg(args[1], line)?, ..Inst::default() },
                None,
            );
        }
        "feq" | "flt" | "fle" => {
            need(args, 3, m, line)?;
            let op = match m {
                "feq" => Feq,
                "flt" => Flt,
                _ => Fle,
            };
            push(
                Inst {
                    op,
                    rd: ireg(args[0], line)?,
                    fs1: freg(args[1], line)?,
                    fs2: freg(args[2], line)?,
                    ..Inst::default()
                },
                None,
            );
        }
        "halt" => push(Inst::with_op(Halt), None),
        "nop" => push(Inst::with_op(Nop), None),
        "out" => {
            need(args, 1, m, line)?;
            push(Inst { op: Out, rs1: ireg(args[0], line)?, ..Inst::default() }, None);
        }
        // --- pseudo-instructions ---
        "li" => {
            need(args, 2, m, line)?;
            push(
                Inst { op: Addi, rd: ireg(args[0], line)?, rs1: Reg::ZERO, imm: imm32(args[1], line)?, ..Inst::default() },
                None,
            );
        }
        "la" => {
            need(args, 2, m, line)?;
            let inst = Inst { op: Addi, rd: ireg(args[0], line)?, rs1: Reg::ZERO, ..Inst::default() };
            push(inst, Some((args[1].to_string(), FixupKind::Absolute)));
        }
        "mv" => {
            need(args, 2, m, line)?;
            push(
                Inst { op: Addi, rd: ireg(args[0], line)?, rs1: ireg(args[1], line)?, imm: 0, ..Inst::default() },
                None,
            );
        }
        "j" => {
            need(args, 1, m, line)?;
            let inst = Inst { op: Jal, rd: Reg::ZERO, ..Inst::default() };
            if is_label_operand(args[0]) {
                push(inst, Some((args[0].to_string(), FixupKind::PcRelative)));
            } else {
                push(Inst { imm: imm32(args[0], line)?, ..inst }, None);
            }
        }
        "call" => {
            need(args, 1, m, line)?;
            let inst = Inst { op: Jal, rd: Reg::RA, ..Inst::default() };
            push(inst, Some((args[0].to_string(), FixupKind::PcRelative)));
        }
        "ret" => {
            need(args, 0, m, line)?;
            push(Inst { op: Jalr, rd: Reg::ZERO, rs1: Reg::RA, imm: 0, ..Inst::default() }, None);
        }
        other => return Err(err(line, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::OpClass;

    #[test]
    fn assembles_loop_with_backward_branch() {
        let p = assemble(
            "        li   x1, 3
             loop:   addi x2, x2, 1
                     addi x1, x1, -1
                     bne  x1, x0, loop
                     halt",
        )
        .unwrap();
        assert_eq!(p.insts.len(), 5);
        let b = &p.insts[3];
        assert_eq!(b.op, Op::Bne);
        assert_eq!(b.imm, -8, "branch back two instructions");
    }

    #[test]
    fn forward_references_resolve() {
        let p = assemble(
            "        beq x0, x0, end
                     addi x1, x1, 1
             end:    halt",
        )
        .unwrap();
        assert_eq!(p.insts[0].imm, 8);
    }

    #[test]
    fn data_labels_and_la() {
        let p = assemble(
            "        .data
             a:      .word 7, 8
             b:      .double 1.5
                     .text
                     la x1, b
                     halt",
        )
        .unwrap();
        assert_eq!(p.data.len(), 1);
        assert_eq!(p.data[0].bytes.len(), 24);
        // `b` is 16 bytes into the data section.
        assert_eq!(p.insts[0].imm as u64, DATA_BASE + 16);
        let f = f64::from_le_bytes(p.data[0].bytes[16..24].try_into().unwrap());
        assert_eq!(f, 1.5);
    }

    #[test]
    fn memory_operand_syntax() {
        let p = assemble("lw x3, 16(x4)\nsw x3, -8(x4)\nhalt").unwrap();
        assert_eq!(p.insts[0].imm, 16);
        assert_eq!(p.insts[0].rs1, Reg::new(4));
        assert_eq!(p.insts[1].imm, -8);
        assert_eq!(p.insts[1].rs2, Reg::new(3));
    }

    #[test]
    fn pseudo_expansion() {
        let p = assemble("mv x1, x2\nj next\nnext: ret\nhalt").unwrap();
        assert_eq!(p.insts[0].op, Op::Addi);
        assert_eq!(p.insts[1].op, Op::Jal);
        assert!(p.insts[1].rd.is_zero());
        assert_eq!(p.insts[2].op, Op::Jalr);
    }

    #[test]
    fn swapped_comparisons() {
        let p = assemble("bgt x1, x2, t\nt: halt").unwrap();
        assert_eq!(p.insts[0].op, Op::Blt);
        assert_eq!(p.insts[0].rs1, Reg::new(2));
        assert_eq!(p.insts[0].rs2, Reg::new(1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus x1, x2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));

        let e = assemble("lw x1, nope").unwrap_err();
        assert!(e.message.contains("imm(reg)"));

        let e = assemble("addi x99, x0, 1").unwrap_err();
        assert!(e.message.contains("x99"));
    }

    #[test]
    fn zero_sizes_past_the_data_segment_are_rejected() {
        // Sizes that would run the data segment into the stack come back
        // as errors instead of reaching the allocator.
        let limit = STACK_BASE - DATA_BASE;
        for src in [
            ".data\n.zero 9223372036854775807".to_string(),
            ".data\n.space 0x7fffffffffffffff".to_string(),
            format!(".data\n.zero {}", limit + 1),
            format!(".data\n.word 1\n.zero {}", limit - 7),
        ] {
            let e = assemble(&src).unwrap_err();
            assert_eq!(e.line, src.lines().count(), "{src}");
            assert!(e.message.contains("overruns the data segment"), "{src}: {e}");
        }
        let p = assemble(".data\n.word 1\n.zero 24\n.text\nhalt").unwrap();
        assert_eq!(p.data[0].bytes.len(), 32);
    }

    #[test]
    fn duplicate_and_missing_labels_rejected() {
        let e = assemble("a: nop\na: nop").unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = assemble("j nowhere").unwrap_err();
        assert!(e.message.contains("undefined"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# header\n\n  ; another\n nop # trailing\n halt").unwrap();
        assert_eq!(p.insts.len(), 2);
    }

    #[test]
    fn hex_immediates() {
        let p = assemble("li x1, 0x10\nhalt").unwrap();
        assert_eq!(p.insts[0].imm, 16);
    }

    #[test]
    fn classes_of_assembled_insts() {
        let p = assemble("fadd f1, f2, f3\nfdiv f1, f1, f2\nhalt").unwrap();
        assert_eq!(p.insts[0].op.class(), OpClass::FpAdd);
        assert_eq!(p.insts[1].op.class(), OpClass::FpDiv);
    }
}
