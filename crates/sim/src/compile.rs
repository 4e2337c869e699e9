//! Compilation of a [`FlatCircuit`] into a dense micro-op program.
//!
//! This is the Verilator-analog architecture: the combinational logic is
//! topologically sorted and flattened into three-address code over `u64`
//! value slots, executed in a tight loop. The activity-driven (ESSENT
//! analog) backend reuses the same program with partition-level skipping.
//!
//! Restriction: every signal (including intermediate node widths) must fit
//! in 64 bits; wider designs are served by the interpreter backend.

use crate::elaborate::{Def, FlatCircuit};
use rtlcov_firrtl::ir::{Expr, PrimOp};
use std::collections::HashMap;
use std::fmt;

/// Error produced during program compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// A micro operation. `dst` and operand fields index the slot array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MicroOp {
    /// `dst = a`
    Copy,
    /// `dst = (a + b) & mask`
    Add,
    /// `dst = (a - b) & mask`
    Sub,
    /// `dst = (a * b) & mask` (128-bit intermediate)
    Mul,
    /// unsigned divide, 0 on division by zero
    Div,
    /// signed divide
    DivS,
    /// unsigned remainder
    Rem,
    /// signed remainder
    RemS,
    /// unsigned less-than
    Lt,
    /// signed less-than
    LtS,
    /// unsigned ≤
    Leq,
    /// signed ≤
    LeqS,
    /// unsigned >
    Gt,
    /// signed >
    GtS,
    /// unsigned ≥
    Geq,
    /// signed ≥
    GeqS,
    /// equality
    Eq,
    /// inequality
    Neq,
    /// bitwise and
    And,
    /// bitwise or
    Or,
    /// bitwise xor
    Xor,
    /// bitwise not (masked)
    Not,
    /// arithmetic negate (masked)
    Neg,
    /// reduction and: all `aw` bits set
    Andr,
    /// reduction or
    Orr,
    /// reduction xor (parity)
    Xorr,
    /// sign-extend from `aw` bits into the dst width (pad on SInt)
    Sext,
    /// static shift left by `imm`
    Shl,
    /// static logical shift right by `imm`
    Shr,
    /// static arithmetic shift right by `imm` (operand width `aw`)
    ShrS,
    /// dynamic shift left
    Dshl,
    /// dynamic logical shift right
    Dshr,
    /// dynamic arithmetic shift right (operand width `aw`)
    DshrS,
    /// `dst = (a << imm) | b` — concatenation, `imm` = width of `b`
    Cat,
    /// `dst = (a >> imm) & mask` — bit slice
    Bits,
    /// `dst = c ? a : b`
    Mux,
    /// `dst = en(b) ? mem[a & addr_mask] : 0`, `imm` = memory index
    MemRead,
}

/// One three-address instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Operation.
    pub op: MicroOp,
    /// Destination slot.
    pub dst: u32,
    /// First operand slot.
    pub a: u32,
    /// Second operand slot (0 when unused).
    pub b: u32,
    /// Third operand slot (mux condition; 0 when unused).
    pub c: u32,
    /// Immediate (shift amounts, slice offsets, memory index).
    pub imm: u32,
    /// Width of operand `a` (needed by signed/reduction ops).
    pub aw: u32,
    /// Result mask (`(1 << width) - 1`, or `!0` for width 64).
    pub mask: u64,
}

/// Register bookkeeping in a compiled program.
#[derive(Debug, Clone)]
pub struct RegSlots {
    /// Slot holding the committed register value.
    pub value: u32,
    /// Slot holding the computed next value (committed at the clock edge).
    pub next: u32,
    /// Register name.
    pub name: String,
}

/// Memory write port slots.
#[derive(Debug, Clone)]
pub struct WriterSlots {
    /// Address slot.
    pub addr: u32,
    /// Enable slot.
    pub en: u32,
    /// Data slot.
    pub data: u32,
    /// Mask slot.
    pub mask: u32,
}

/// Memory bookkeeping.
#[derive(Debug, Clone)]
pub struct MemSlots {
    /// Memory name.
    pub name: String,
    /// Element count.
    pub depth: usize,
    /// Element mask.
    pub mask: u64,
    /// Write ports.
    pub writers: Vec<WriterSlots>,
}

/// Cover bookkeeping.
#[derive(Debug, Clone)]
pub struct CoverSlots {
    /// Hierarchical cover name.
    pub name: String,
    /// Predicate slot.
    pub pred: u32,
    /// Enable slot.
    pub enable: u32,
}

/// Cover-values bookkeeping (§6).
#[derive(Debug, Clone)]
pub struct CoverValuesSlots {
    /// Hierarchical cover name.
    pub name: String,
    /// Observed signal slot.
    pub signal: u32,
    /// Enable slot.
    pub enable: u32,
    /// Signal width (bins = `2^width`, capped by the runtime).
    pub width: u32,
}

/// A compiled program: slots + instructions + state bookkeeping.
#[derive(Debug, Clone)]
pub struct Program {
    /// Initial slot values (constants pre-folded).
    pub init_slots: Vec<u64>,
    /// Width of each slot.
    pub slot_width: Vec<u32>,
    /// Signal name → slot.
    pub signal_slot: HashMap<String, u32>,
    /// Topologically ordered combinational instructions.
    pub instrs: Vec<Instr>,
    /// Registers.
    pub regs: Vec<RegSlots>,
    /// Memories (index = `imm` of `MemRead`).
    pub mems: Vec<MemSlots>,
    /// Covers.
    pub covers: Vec<CoverSlots>,
    /// Cover-values statements.
    pub cover_values: Vec<CoverValuesSlots>,
    /// Top-level input slots.
    pub inputs: Vec<(String, u32)>,
    /// Top-level output slots.
    pub outputs: Vec<(String, u32)>,
}

pub(crate) fn mask_for(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

struct Compiler {
    prog: Program,
    /// signal name -> (slot, signed)
    bound: HashMap<String, (u32, bool)>,
    mem_index: HashMap<String, u32>,
}

impl Compiler {
    fn new_slot(&mut self, width: u32, init: u64) -> u32 {
        if width > 64 {
            // caught earlier for signals; defensive for temps
            panic!("slot width {width} exceeds 64 bits");
        }
        let slot = self.prog.init_slots.len() as u32;
        self.prog.init_slots.push(init & mask_for(width));
        self.prog.slot_width.push(width);
        slot
    }

    /// Compile an expression, returning `(slot, width, signed)`.
    fn emit(&mut self, e: &Expr) -> Result<(u32, u32, bool), CompileError> {
        match e {
            Expr::Ref(name) => {
                let (slot, signed) = *self
                    .bound
                    .get(name)
                    .ok_or_else(|| CompileError(format!("unbound signal `{name}`")))?;
                Ok((slot, self.prog.slot_width[slot as usize], signed))
            }
            Expr::UIntLit(v) => {
                if v.width() > 64 {
                    return Err(CompileError("literal wider than 64 bits".into()));
                }
                let slot = self.new_slot(v.width().max(1), v.to_u64());
                Ok((slot, v.width().max(1), false))
            }
            Expr::SIntLit(v) => {
                if v.width() > 64 {
                    return Err(CompileError("literal wider than 64 bits".into()));
                }
                let slot = self.new_slot(v.width().max(1), v.to_u64());
                Ok((slot, v.width().max(1), true))
            }
            Expr::Mux(c, t, f) => {
                let (cs, _, _) = self.emit(c)?;
                let (ts, tw, tsg) = self.emit(t)?;
                let (fs, fw, fsg) = self.emit(f)?;
                let w = tw.max(fw);
                let signed = tsg && fsg;
                let ts = self.extend(ts, tw, w, tsg)?;
                let fs = self.extend(fs, fw, w, fsg)?;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: MicroOp::Mux,
                    dst,
                    a: ts,
                    b: fs,
                    c: cs,
                    imm: 0,
                    aw: w,
                    mask: mask_for(w),
                });
                Ok((dst, w, signed))
            }
            Expr::ValidIf(c, v) => {
                let (cs, _, _) = self.emit(c)?;
                let (vs, vw, vsg) = self.emit(v)?;
                let zero = self.new_slot(vw, 0);
                let dst = self.new_slot(vw, 0);
                self.prog.instrs.push(Instr {
                    op: MicroOp::Mux,
                    dst,
                    a: vs,
                    b: zero,
                    c: cs,
                    imm: 0,
                    aw: vw,
                    mask: mask_for(vw),
                });
                Ok((dst, vw, vsg))
            }
            Expr::Prim { op, args, consts } => self.emit_prim(*op, args, consts),
            other => Err(CompileError(format!("unexpected expression {other:?}"))),
        }
    }

    /// Zero/sign extend a slot from `from` to `to` bits; identity if equal.
    fn extend(&mut self, slot: u32, from: u32, to: u32, signed: bool) -> Result<u32, CompileError> {
        if from == to {
            return Ok(slot);
        }
        if to < from {
            // truncate
            let dst = self.new_slot(to, 0);
            self.prog.instrs.push(Instr {
                op: MicroOp::Bits,
                dst,
                a: slot,
                b: 0,
                c: 0,
                imm: 0,
                aw: from,
                mask: mask_for(to),
            });
            return Ok(dst);
        }
        if to > 64 {
            return Err(CompileError(format!(
                "width {to} exceeds the 64-bit fast path"
            )));
        }
        let dst = self.new_slot(to, 0);
        let op = if signed { MicroOp::Sext } else { MicroOp::Copy };
        self.prog.instrs.push(Instr {
            op,
            dst,
            a: slot,
            b: 0,
            c: 0,
            imm: 0,
            aw: from,
            mask: mask_for(to),
        });
        Ok(dst)
    }

    fn emit_prim(
        &mut self,
        op: PrimOp,
        args: &[Expr],
        consts: &[u64],
    ) -> Result<(u32, u32, bool), CompileError> {
        use MicroOp as M;
        use PrimOp as P;
        match op {
            P::Add | P::Sub => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, bw, bsg) = self.emit(&args[1])?;
                let w = aw.max(bw) + 1;
                if w > 64 {
                    return Err(CompileError("add/sub result exceeds 64 bits".into()));
                }
                let signed = asg || bsg;
                let a = self.extend(as_, aw, w, asg)?;
                let b = self.extend(bs, bw, w, bsg)?;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: if op == P::Add { M::Add } else { M::Sub },
                    dst,
                    a,
                    b,
                    c: 0,
                    imm: 0,
                    aw: w,
                    mask: mask_for(w),
                });
                Ok((dst, w, signed))
            }
            P::Mul => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, bw, bsg) = self.emit(&args[1])?;
                let w = aw + bw;
                if w > 64 {
                    return Err(CompileError("mul result exceeds 64 bits".into()));
                }
                let signed = asg || bsg;
                let a = self.extend(as_, aw, w, asg)?;
                let b = self.extend(bs, bw, w, bsg)?;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Mul,
                    dst,
                    a,
                    b,
                    c: 0,
                    imm: 0,
                    aw: w,
                    mask: mask_for(w),
                });
                Ok((dst, w, signed))
            }
            P::Div => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, bw, bsg) = self.emit(&args[1])?;
                let w = if asg { aw + 1 } else { aw };
                if w > 64 {
                    return Err(CompileError("div result exceeds 64 bits".into()));
                }
                let ew = aw.max(bw).max(w);
                let a = self.extend(as_, aw, ew, asg)?;
                let b = self.extend(bs, bw, ew, bsg)?;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: if asg { M::DivS } else { M::Div },
                    dst,
                    a,
                    b,
                    c: 0,
                    imm: 0,
                    aw: ew,
                    mask: mask_for(w),
                });
                Ok((dst, w, asg))
            }
            P::Rem => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, bw, bsg) = self.emit(&args[1])?;
                let w = aw.min(bw).max(1);
                let ew = aw.max(bw);
                let a = self.extend(as_, aw, ew, asg)?;
                let b = self.extend(bs, bw, ew, bsg)?;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: if asg { M::RemS } else { M::Rem },
                    dst,
                    a,
                    b,
                    c: 0,
                    imm: 0,
                    aw: ew,
                    mask: mask_for(w),
                });
                Ok((dst, w, asg))
            }
            P::Lt => bin_cmp(self, args, M::Lt, M::LtS),
            P::Leq => bin_cmp(self, args, M::Leq, M::LeqS),
            P::Gt => bin_cmp(self, args, M::Gt, M::GtS),
            P::Geq => bin_cmp(self, args, M::Geq, M::GeqS),
            P::Eq => bin_cmp(self, args, M::Eq, M::Eq),
            P::Neq => bin_cmp(self, args, M::Neq, M::Neq),
            P::And | P::Or | P::Xor => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, bw, bsg) = self.emit(&args[1])?;
                let w = aw.max(bw);
                let a = self.extend(as_, aw, w, asg)?;
                let b = self.extend(bs, bw, w, bsg)?;
                let dst = self.new_slot(w, 0);
                let micro = match op {
                    P::And => M::And,
                    P::Or => M::Or,
                    _ => M::Xor,
                };
                self.prog.instrs.push(Instr {
                    op: micro,
                    dst,
                    a,
                    b,
                    c: 0,
                    imm: 0,
                    aw: w,
                    mask: mask_for(w),
                });
                Ok((dst, w, false))
            }
            P::Not => {
                let (as_, aw, _) = self.emit(&args[0])?;
                let dst = self.new_slot(aw, 0);
                self.prog.instrs.push(Instr {
                    op: M::Not,
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    imm: 0,
                    aw,
                    mask: mask_for(aw),
                });
                Ok((dst, aw, false))
            }
            P::Neg => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let w = aw + 1;
                if w > 64 {
                    return Err(CompileError("neg result exceeds 64 bits".into()));
                }
                let a = self.extend(as_, aw, w, asg)?;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Neg,
                    dst,
                    a,
                    b: 0,
                    c: 0,
                    imm: 0,
                    aw: w,
                    mask: mask_for(w),
                });
                Ok((dst, w, true))
            }
            P::Andr | P::Orr | P::Xorr => {
                let (as_, aw, _) = self.emit(&args[0])?;
                let dst = self.new_slot(1, 0);
                let micro = match op {
                    P::Andr => M::Andr,
                    P::Orr => M::Orr,
                    _ => M::Xorr,
                };
                self.prog.instrs.push(Instr {
                    op: micro,
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    imm: 0,
                    aw,
                    mask: 1,
                });
                Ok((dst, 1, false))
            }
            P::Pad => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let w = aw.max(consts[0] as u32);
                let slot = self.extend(as_, aw, w, asg)?;
                Ok((slot, w, asg))
            }
            P::Shl => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let n = consts[0] as u32;
                let w = aw + n;
                if w > 64 {
                    return Err(CompileError("shl result exceeds 64 bits".into()));
                }
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Shl,
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    imm: n,
                    aw,
                    mask: mask_for(w),
                });
                Ok((dst, w, asg))
            }
            P::Shr => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let n = consts[0] as u32;
                let w = aw.saturating_sub(n).max(1);
                if !asg && n >= aw {
                    // everything shifted out: constant zero (slot 0)
                    return Ok((0, 1, false));
                }
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: if asg { M::ShrS } else { M::Shr },
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    // a signed shift past the width drains to the sign bit,
                    // which shifting by aw-1 already produces
                    imm: n.min(aw.saturating_sub(1)),
                    aw,
                    mask: mask_for(w),
                });
                Ok((dst, w, asg))
            }
            P::Dshl => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, bw, _) = self.emit(&args[1])?;
                let grow = if bw >= 7 { 64 } else { (1u32 << bw) - 1 };
                let w = aw + grow;
                if w > 64 {
                    return Err(CompileError(format!(
                        "dshl result width {w} exceeds 64 bits; narrow the shift amount"
                    )));
                }
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Dshl,
                    dst,
                    a: as_,
                    b: bs,
                    c: 0,
                    imm: 0,
                    aw,
                    mask: mask_for(w),
                });
                Ok((dst, w, asg))
            }
            P::Dshr => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                let (bs, _, _) = self.emit(&args[1])?;
                let dst = self.new_slot(aw, 0);
                self.prog.instrs.push(Instr {
                    op: if asg { M::DshrS } else { M::Dshr },
                    dst,
                    a: as_,
                    b: bs,
                    c: 0,
                    imm: 0,
                    aw,
                    mask: mask_for(aw),
                });
                Ok((dst, aw, asg))
            }
            P::Cat => {
                let (as_, aw, _) = self.emit(&args[0])?;
                let (bs, bw, _) = self.emit(&args[1])?;
                let w = aw + bw;
                if w > 64 {
                    return Err(CompileError("cat result exceeds 64 bits".into()));
                }
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Cat,
                    dst,
                    a: as_,
                    b: bs,
                    c: 0,
                    imm: bw,
                    aw,
                    mask: mask_for(w),
                });
                Ok((dst, w, false))
            }
            P::Bits => {
                let (as_, aw, _) = self.emit(&args[0])?;
                let (hi, lo) = (consts[0] as u32, consts[1] as u32);
                if hi >= aw || hi < lo {
                    return Err(CompileError(format!(
                        "bits({hi},{lo}) out of range for {aw}"
                    )));
                }
                let w = hi - lo + 1;
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Bits,
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    imm: lo,
                    aw,
                    mask: mask_for(w),
                });
                Ok((dst, w, false))
            }
            P::Head => {
                let (as_, aw, _) = self.emit(&args[0])?;
                let n = (consts[0] as u32).max(1);
                let dst = self.new_slot(n, 0);
                self.prog.instrs.push(Instr {
                    op: M::Bits,
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    imm: aw - n,
                    aw,
                    mask: mask_for(n),
                });
                Ok((dst, n, false))
            }
            P::Tail => {
                let (as_, aw, _) = self.emit(&args[0])?;
                let n = consts[0] as u32;
                let w = aw.saturating_sub(n).max(1);
                let dst = self.new_slot(w, 0);
                self.prog.instrs.push(Instr {
                    op: M::Bits,
                    dst,
                    a: as_,
                    b: 0,
                    c: 0,
                    imm: 0,
                    aw,
                    mask: mask_for(w),
                });
                Ok((dst, w, false))
            }
            P::AsUInt | P::AsClock => {
                let (as_, aw, _) = self.emit(&args[0])?;
                Ok((as_, aw, false))
            }
            P::AsSInt => {
                let (as_, aw, _) = self.emit(&args[0])?;
                Ok((as_, aw, true))
            }
            P::Cvt => {
                let (as_, aw, asg) = self.emit(&args[0])?;
                if asg {
                    Ok((as_, aw, true))
                } else {
                    let w = aw + 1;
                    if w > 64 {
                        return Err(CompileError("cvt result exceeds 64 bits".into()));
                    }
                    let slot = self.extend(as_, aw, w, false)?;
                    Ok((slot, w, true))
                }
            }
        }
    }
}

fn bin_cmp(
    this: &mut Compiler,
    args: &[Expr],
    u: MicroOp,
    s: MicroOp,
) -> Result<(u32, u32, bool), CompileError> {
    let (as_, aw, asg) = this.emit(&args[0])?;
    let (bs, bw, bsg) = this.emit(&args[1])?;
    let signed = asg || bsg;
    let w = aw.max(bw);
    let a = this.extend(as_, aw, w, asg)?;
    let b = this.extend(bs, bw, w, bsg)?;
    let dst = this.new_slot(1, 0);
    this.prog.instrs.push(Instr {
        op: if signed { s } else { u },
        dst,
        a,
        b,
        c: 0,
        imm: 0,
        aw: w,
        mask: 1,
    });
    // comparison results are UInt<1> regardless of operand signedness
    Ok((dst, 1, false))
}

/// Compile a flat circuit into a program.
///
/// # Errors
///
/// Fails on combinational loops, signals wider than 64 bits, or unbound
/// references.
pub fn compile(flat: &FlatCircuit) -> Result<Program, CompileError> {
    for sig in flat.signals.values() {
        if sig.width > 64 {
            return Err(CompileError(format!(
                "signal `{}` is {} bits wide; the compiled backend supports ≤ 64 (use the interpreter)",
                sig.name, sig.width
            )));
        }
    }

    let mut c = Compiler {
        prog: Program {
            init_slots: vec![0], // slot 0 is a constant zero scratch
            slot_width: vec![1],
            signal_slot: HashMap::new(),
            instrs: Vec::new(),
            regs: Vec::new(),
            mems: Vec::new(),
            covers: Vec::new(),
            cover_values: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        },
        bound: HashMap::new(),
        mem_index: HashMap::new(),
    };

    // 1. allocate slots for every named signal
    let mut names: Vec<&String> = flat.signals.keys().collect();
    names.sort();
    for name in &names {
        let sig = &flat.signals[*name];
        let slot = c.new_slot(sig.width, 0);
        c.bound.insert((*name).clone(), (slot, sig.signed));
        c.prog.signal_slot.insert((*name).clone(), slot);
    }
    for (i, m) in flat.mems.iter().enumerate() {
        c.mem_index.insert(m.name.clone(), i as u32);
    }

    // 2. topological order over signal defs
    let order = topo_order(flat)?;

    // 3. emit instructions per def in topo order
    for name in &order {
        let sig = &flat.signals[name];
        let dst = c.prog.signal_slot[name];
        match &sig.def {
            Def::Expr(e) => {
                let (slot, w, sg) = c.emit(e)?;
                let src = c.extend(slot, w, sig.width, sg)?;
                c.prog.instrs.push(Instr {
                    op: MicroOp::Copy,
                    dst,
                    a: src,
                    b: 0,
                    c: 0,
                    imm: 0,
                    aw: sig.width,
                    mask: mask_for(sig.width),
                });
            }
            Def::MemRead { mem, addr, en } => {
                let mem_id = c.mem_index[mem];
                let addr_slot = c.prog.signal_slot[addr];
                let en_slot = c.prog.signal_slot[en];
                c.prog.instrs.push(Instr {
                    op: MicroOp::MemRead,
                    dst,
                    a: addr_slot,
                    b: en_slot,
                    c: 0,
                    imm: mem_id,
                    aw: sig.width,
                    mask: mask_for(sig.width),
                });
            }
            Def::Input | Def::Reg | Def::Zero => {}
        }
    }

    // 4. registers: compile next = mux(reset, init, next_expr)
    for r in &flat.regs {
        let value = c.prog.signal_slot[&r.name];
        let (next_slot, nw, nsg) = c.emit(&r.next)?;
        let next_sized = c.extend(next_slot, nw, r.width, nsg)?;
        let final_next = match &r.reset {
            None => next_sized,
            Some((rst, init)) => {
                let (rs, _, _) = c.emit(rst)?;
                let (is_, iw, isg) = c.emit(init)?;
                let init_sized = c.extend(is_, iw, r.width, isg)?;
                let dst = c.new_slot(r.width, 0);
                c.prog.instrs.push(Instr {
                    op: MicroOp::Mux,
                    dst,
                    a: init_sized,
                    b: next_sized,
                    c: rs,
                    imm: 0,
                    aw: r.width,
                    mask: mask_for(r.width),
                });
                dst
            }
        };
        // commit copies slots[next] -> slots[value] for every register in
        // sequence; if `next` aliased another register's value slot (e.g.
        // `next = Ref(other_reg)`), an earlier commit could clobber it.
        // A dedicated next slot decouples the phases.
        let dedicated = c.new_slot(r.width, 0);
        c.prog.instrs.push(Instr {
            op: MicroOp::Copy,
            dst: dedicated,
            a: final_next,
            b: 0,
            c: 0,
            imm: 0,
            aw: r.width,
            mask: mask_for(r.width),
        });
        c.prog.regs.push(RegSlots {
            value,
            next: dedicated,
            name: r.name.clone(),
        });
    }

    // 5. memories
    for m in &flat.mems {
        let writers = m
            .writers
            .iter()
            .map(|w| WriterSlots {
                addr: c.prog.signal_slot[&w.addr],
                en: c.prog.signal_slot[&w.en],
                data: c.prog.signal_slot[&w.data],
                mask: c.prog.signal_slot[&w.mask],
            })
            .collect();
        c.prog.mems.push(MemSlots {
            name: m.name.clone(),
            depth: m.depth,
            mask: mask_for(m.width),
            writers,
        });
    }

    // 6. covers
    for cov in &flat.covers {
        let (p, _, _) = c.emit(&cov.pred)?;
        let (e, _, _) = c.emit(&cov.enable)?;
        c.prog.covers.push(CoverSlots {
            name: cov.name.clone(),
            pred: p,
            enable: e,
        });
    }
    for cv in &flat.cover_values {
        let (s, _, _) = c.emit(&cv.signal)?;
        let (e, _, _) = c.emit(&cv.enable)?;
        c.prog.cover_values.push(CoverValuesSlots {
            name: cv.name.clone(),
            signal: s,
            enable: e,
            width: cv.width,
        });
    }

    // 7. io
    for i in &flat.inputs {
        c.prog.inputs.push((i.clone(), c.prog.signal_slot[i]));
    }
    for o in &flat.outputs {
        c.prog.outputs.push((o.clone(), c.prog.signal_slot[o]));
    }

    Ok(c.prog)
}

/// Topological order of combinational signal definitions.
pub fn topo_order(flat: &FlatCircuit) -> Result<Vec<String>, CompileError> {
    // deps: comb signal -> comb signals it reads
    let mut deps: HashMap<&str, Vec<String>> = HashMap::new();
    for (name, sig) in &flat.signals {
        let mut reads = Vec::new();
        match &sig.def {
            Def::Expr(e) => e.refs(&mut reads),
            Def::MemRead { addr, en, .. } => {
                reads.push(addr.clone());
                reads.push(en.clone());
            }
            _ => {}
        }
        // registers/inputs/zeros are sources, not deps
        reads.retain(|r| {
            flat.signals
                .get(r)
                .map(|s| matches!(s.def, Def::Expr(_) | Def::MemRead { .. }))
                .unwrap_or(false)
        });
        deps.insert(name.as_str(), reads);
    }

    #[derive(Clone, Copy, PartialEq)]
    enum State {
        White,
        Grey,
        Black,
    }
    let mut state: HashMap<&str, State> = deps.keys().map(|&k| (k, State::White)).collect();
    let mut order: Vec<String> = Vec::new();

    // iterative DFS
    let mut names: Vec<&str> = deps.keys().copied().collect();
    names.sort();
    for start in names {
        if state[start] != State::White {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        state.insert(start, State::Grey);
        while let Some((node, idx)) = stack.last().copied() {
            let node_deps = &deps[node];
            if idx < node_deps.len() {
                stack.last_mut().expect("non-empty stack").1 += 1;
                let dep = node_deps[idx].as_str();
                if let Some((&dep_key, _)) = deps.get_key_value(dep) {
                    match state[dep_key] {
                        State::White => {
                            state.insert(dep_key, State::Grey);
                            stack.push((dep_key, 0));
                        }
                        State::Grey => {
                            return Err(CompileError(format!(
                                "combinational loop through `{dep}`"
                            )));
                        }
                        State::Black => {}
                    }
                }
            } else {
                state.insert(node, State::Black);
                order.push(node.to_string());
                stack.pop();
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;
    use rtlcov_firrtl::parser::parse;
    use rtlcov_firrtl::passes;

    fn program(src: &str) -> Program {
        let low = passes::lower(parse(src).unwrap()).unwrap();
        compile(&elaborate(&low).unwrap()).unwrap()
    }

    #[test]
    fn compiles_simple_logic() {
        let p = program(
            "
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<5>
    o <= add(a, b)
",
        );
        assert!(!p.instrs.is_empty());
        assert_eq!(p.inputs.len(), 2);
        assert_eq!(p.outputs.len(), 1);
    }

    #[test]
    fn rejects_combinational_loop() {
        let src = "
circuit T :
  module T :
    input a : UInt<1>
    output o : UInt<1>
    wire x : UInt<1>
    wire y : UInt<1>
    x <= and(y, a)
    y <= or(x, a)
    o <= x
";
        let low = passes::lower(parse(src).unwrap()).unwrap();
        let err = compile(&elaborate(&low).unwrap()).unwrap_err();
        assert!(err.0.contains("loop"), "{err}");
    }

    #[test]
    fn rejects_wide_signals() {
        let src = "
circuit T :
  module T :
    input a : UInt<80>
    output o : UInt<80>
    o <= a
";
        let low = passes::lower(parse(src).unwrap()).unwrap();
        let err = compile(&elaborate(&low).unwrap()).unwrap_err();
        assert!(err.0.contains("64"), "{err}");
    }

    #[test]
    fn topological_order_respects_deps() {
        let p = program(
            "
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<4>
    wire w1 : UInt<4>
    wire w2 : UInt<4>
    w2 <= not(w1)
    w1 <= not(a)
    o <= w2
",
        );
        // find copy-to-w1 and copy-to-w2 positions
        let w1 = p.signal_slot["w1"];
        let w2 = p.signal_slot["w2"];
        let pos = |slot: u32| p.instrs.iter().position(|i| i.dst == slot).unwrap();
        assert!(pos(w1) < pos(w2));
    }
}
