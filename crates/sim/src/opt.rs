//! Micro-op program optimizer — the GSIM-style compile-time layer between
//! [`compile`](crate::compile::compile) and execution.
//!
//! Rewrites a [`Program`] with constant folding, peephole simplification,
//! common-subexpression elimination, dead-slot elimination, and slot
//! compaction. Every pass preserves two invariants the rest of the system
//! depends on:
//!
//! 1. **Bit-exact slot semantics** — after any settle, every surviving
//!    slot holds exactly the value the unoptimized program would compute
//!    (masked to its width), so `peek` answers are unchanged.
//! 2. **Bit-identical coverage** — cover predicate/enable slots and
//!    cover-values slots are pinned, so the `CoverageMap` a backend reports
//!    is byte-for-byte identical with or without optimization.
//!
//! Slots fall into three classes: *variable* slots written each settle
//! (instruction destinations), *state* slots written between settles
//! (inputs, register values, memory-backed reads), and *constant* slots —
//! anonymous literals that are never written. Only constants participate
//! in folding; named signals are never folded through so that an
//! out-of-contract `poke` of an internal wire still behaves like the
//! unoptimized program (the producing instruction recomputes it on the
//! next settle).

use crate::compile::{mask_for, Instr, MicroOp, Program};
use crate::compiled::exec_instr;
use std::collections::HashMap;

/// Which slots dead-code elimination must treat as observable roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Observability {
    /// Every named signal stays computed — `peek` of any internal wire
    /// returns the same value as the unoptimized program. The safe
    /// default.
    #[default]
    AllSignals,
    /// Only registers, memories, covers, inputs and outputs are roots;
    /// internal wires feeding none of them are eliminated. `peek` of an
    /// eliminated wire returns its initial value — use only for harnesses
    /// that read outputs and coverage exclusively.
    StateAndOutputs,
}

/// Optimizer knobs. [`OptOptions::default`] enables every pass;
/// [`OptOptions::none`] is the A/B escape hatch that returns the compiled
/// program unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptOptions {
    /// Constant-fold instructions whose operands are all constants.
    pub fold: bool,
    /// Eliminate repeated identical computations.
    pub cse: bool,
    /// Algebraic rewrites (constant-condition mux, shift-by-zero,
    /// compare-with-zero → `Orr`, identity arithmetic).
    pub peephole: bool,
    /// Drop instructions whose results nobody observes.
    pub dce: bool,
    /// Renumber slots densely after elimination.
    pub compact: bool,
    /// Root set for dead-code elimination.
    pub observe: Observability,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            fold: true,
            cse: true,
            peephole: true,
            dce: true,
            compact: true,
            observe: Observability::AllSignals,
        }
    }
}

impl OptOptions {
    /// Disable every pass — the compiled program is returned untouched.
    pub fn none() -> Self {
        OptOptions {
            fold: false,
            cse: false,
            peephole: false,
            dce: false,
            compact: false,
            observe: Observability::AllSignals,
        }
    }

    fn any(&self) -> bool {
        self.fold || self.cse || self.peephole || self.dce || self.compact
    }
}

/// What the optimizer did to a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instruction count before optimization.
    pub instrs_before: usize,
    /// Instruction count after optimization.
    pub instrs_after: usize,
    /// Slot count before optimization.
    pub slots_before: usize,
    /// Slot count after optimization.
    pub slots_after: usize,
    /// Instructions folded to compile-time constants.
    pub folded: usize,
    /// Peephole rewrites applied.
    pub peephole: usize,
    /// Copies propagated away.
    pub copy_propagated: usize,
    /// Common subexpressions eliminated.
    pub cse: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
}

/// Operand usage per op: whether `b` participates in the computation.
fn uses_b(op: MicroOp) -> bool {
    use MicroOp::*;
    matches!(
        op,
        Add | Sub
            | Mul
            | Div
            | DivS
            | Rem
            | RemS
            | Lt
            | LtS
            | Leq
            | LeqS
            | Gt
            | GtS
            | Geq
            | GeqS
            | Eq
            | Neq
            | And
            | Or
            | Xor
            | Dshl
            | Dshr
            | DshrS
            | Cat
            | MemRead
    )
}

fn commutative(op: MicroOp) -> bool {
    use MicroOp::*;
    matches!(op, Add | Mul | And | Or | Xor | Eq | Neq)
}

/// Evaluate an instruction whose used operands are all constants by
/// running it through the real executor on a scratch slot file — the
/// folder can never disagree with the interpreter it replaces.
fn try_fold(ri: &Instr, cv: &[Option<u64>]) -> Option<u64> {
    if ri.op == MicroOp::MemRead {
        return None;
    }
    let va = cv[ri.a as usize]?;
    let vb = if uses_b(ri.op) { cv[ri.b as usize]? } else { 0 };
    let vc = if ri.op == MicroOp::Mux {
        cv[ri.c as usize]?
    } else {
        0
    };
    let mut scratch = [0u64, va, vb, vc];
    let si = Instr {
        op: ri.op,
        dst: 0,
        a: 1,
        b: 2,
        c: 3,
        imm: ri.imm,
        aw: ri.aw,
        mask: ri.mask,
    };
    exec_instr(&si, &mut scratch, &[]);
    Some(scratch[0])
}

fn to_copy(ri: &mut Instr, src: u32) {
    ri.op = MicroOp::Copy;
    ri.a = src;
    ri.b = 0;
    ri.c = 0;
    ri.imm = 0;
}

/// Algebraic rewrites on a single (operand-resolved) instruction. Every
/// rewrite produces the identical masked result: operand slot values are
/// invariantly ≤ their width mask, and `Copy` re-applies the destination
/// mask, so identity rewrites hold whenever the source width fits the
/// destination (which the compiler's width rules guarantee for the cases
/// below). Returns true if the instruction was rewritten.
fn peephole(ri: &mut Instr, cv: &[Option<u64>], widths: &[u32]) -> bool {
    use MicroOp::*;
    let ca = cv[ri.a as usize];
    let cb = cv[ri.b as usize];
    match ri.op {
        Mux => {
            if let Some(c) = cv[ri.c as usize] {
                let src = if c != 0 { ri.a } else { ri.b };
                to_copy(ri, src);
                return true;
            }
        }
        Add | Or | Xor => {
            if cb == Some(0) {
                let s = ri.a;
                to_copy(ri, s);
                return true;
            }
            if ca == Some(0) {
                let s = ri.b;
                to_copy(ri, s);
                return true;
            }
        }
        Sub if cb == Some(0) => {
            let s = ri.a;
            to_copy(ri, s);
            return true;
        }
        Mul => {
            if ca == Some(0) || cb == Some(0) {
                to_copy(ri, 0);
                return true;
            }
            if cb == Some(1) {
                let s = ri.a;
                to_copy(ri, s);
                return true;
            }
            if ca == Some(1) {
                let s = ri.b;
                to_copy(ri, s);
                return true;
            }
        }
        And => {
            if ca == Some(0) || cb == Some(0) {
                to_copy(ri, 0);
                return true;
            }
            if cb == Some(mask_for(widths[ri.a as usize])) {
                let s = ri.a;
                to_copy(ri, s);
                return true;
            }
            if ca == Some(mask_for(widths[ri.b as usize])) {
                let s = ri.b;
                to_copy(ri, s);
                return true;
            }
        }
        Shl | Shr | Bits if ri.imm == 0 => {
            let s = ri.a;
            to_copy(ri, s);
            return true;
        }
        ShrS if ri.imm == 0 => {
            // shift-by-zero on a signed operand is exactly sign extension
            ri.op = Sext;
            return true;
        }
        Dshl => {
            if let Some(k) = cb {
                if k >= 64 {
                    to_copy(ri, 0);
                } else {
                    ri.op = Shl;
                    ri.imm = k as u32;
                    ri.b = 0;
                }
                return true;
            }
        }
        Dshr => {
            if let Some(k) = cb {
                if k >= 64 {
                    to_copy(ri, 0);
                } else {
                    ri.op = Shr;
                    ri.imm = k as u32;
                    ri.b = 0;
                }
                return true;
            }
        }
        DshrS => {
            if let Some(k) = cb {
                ri.op = ShrS;
                ri.imm = k.min(63) as u32;
                ri.b = 0;
                return true;
            }
        }
        Neq => {
            if cb == Some(0) {
                ri.op = Orr;
                ri.b = 0;
                return true;
            }
            if ca == Some(0) {
                ri.op = Orr;
                ri.a = ri.b;
                ri.b = 0;
                return true;
            }
        }
        Gt => {
            if cb == Some(0) {
                // a > 0 (unsigned) ⇔ a ≠ 0
                ri.op = Orr;
                ri.b = 0;
                return true;
            }
            if ca == Some(0) {
                to_copy(ri, 0);
                return true;
            }
        }
        Lt => {
            if ca == Some(0) {
                // 0 < b (unsigned) ⇔ b ≠ 0
                ri.op = Orr;
                ri.a = ri.b;
                ri.b = 0;
                return true;
            }
            if cb == Some(0) {
                to_copy(ri, 0);
                return true;
            }
        }
        Eq => {
            if cb == Some(0) && widths[ri.a as usize] == 1 {
                ri.op = Not;
                ri.b = 0;
                return true;
            }
            if ca == Some(0) && widths[ri.b as usize] == 1 {
                ri.op = Not;
                ri.a = ri.b;
                ri.b = 0;
                return true;
            }
        }
        _ => {}
    }
    false
}

#[derive(PartialEq, Eq, Hash)]
struct CseKey {
    op: u8,
    a: u32,
    b: u32,
    c: u32,
    imm: u32,
    aw: u32,
    mask: u64,
}

fn cse_key(ri: &Instr) -> CseKey {
    let (a, b) = if commutative(ri.op) && ri.a > ri.b {
        (ri.b, ri.a)
    } else {
        (ri.a, ri.b)
    };
    CseKey {
        op: ri.op as u8,
        a,
        b,
        c: ri.c,
        imm: ri.imm,
        aw: ri.aw,
        mask: ri.mask,
    }
}

/// Optimize a program. Returns the rewritten program and pass statistics.
///
/// The result is execution-equivalent to the input: identical values in
/// every surviving slot after any settle, identical register/memory/cover
/// behavior across steps, identical `CoverageMap` output.
pub fn optimize(prog: &Program, opts: &OptOptions) -> (Program, OptStats) {
    let n = prog.init_slots.len();
    let mut stats = OptStats {
        instrs_before: prog.instrs.len(),
        instrs_after: prog.instrs.len(),
        slots_before: n,
        slots_after: n,
        ..Default::default()
    };
    if !opts.any() {
        return (prog.clone(), stats);
    }

    // --- classify slots -------------------------------------------------
    let mut written = vec![0u32; n];
    for i in &prog.instrs {
        written[i.dst as usize] += 1;
    }
    // pinned slots must keep their producing instruction and may never be
    // substituted away: anything with a name or read by the runtime
    // (commit, cover sampling, peek, poke)
    let mut pinned = vec![false; n];
    pinned[0] = true;
    for &s in prog.signal_slot.values() {
        pinned[s as usize] = true;
    }
    for r in &prog.regs {
        pinned[r.value as usize] = true;
        pinned[r.next as usize] = true;
    }
    for m in &prog.mems {
        for w in &m.writers {
            for s in [w.addr, w.en, w.data, w.mask] {
                pinned[s as usize] = true;
            }
        }
    }
    for c in &prog.covers {
        pinned[c.pred as usize] = true;
        pinned[c.enable as usize] = true;
    }
    for cv in &prog.cover_values {
        pinned[cv.signal as usize] = true;
        pinned[cv.enable as usize] = true;
    }
    for (_, s) in prog.inputs.iter().chain(prog.outputs.iter()) {
        pinned[*s as usize] = true;
    }

    // constants: anonymous literal slots — never written, never pinned
    let mut const_val: Vec<Option<u64>> = (0..n)
        .map(|s| (written[s] == 0 && !pinned[s]).then(|| prog.init_slots[s]))
        .collect();
    // slot 0 is the shared constant-zero scratch
    const_val[0] = Some(0);

    // --- forward pass: fold / peephole / copy-prop / CSE ----------------
    let mut subst: Vec<u32> = (0..n as u32).collect();
    let mut new_init = prog.init_slots.clone();
    let mut new_widths = prog.slot_width.clone();
    let mut out: Vec<Instr> = Vec::with_capacity(prog.instrs.len());
    let mut cse_map: HashMap<CseKey, u32> = HashMap::new();
    let mut const_memo: HashMap<(u64, u32), u32> = HashMap::new();

    for instr in &prog.instrs {
        let mut ri = *instr;
        ri.a = subst[ri.a as usize];
        ri.b = subst[ri.b as usize];
        ri.c = subst[ri.c as usize];

        if opts.peephole && peephole(&mut ri, &const_val, &new_widths) {
            stats.peephole += 1;
        }

        let free = !pinned[ri.dst as usize] && written[ri.dst as usize] == 1;

        if opts.fold {
            if let Some(v) = try_fold(&ri, &const_val) {
                stats.folded += 1;
                if free {
                    const_val[ri.dst as usize] = Some(v);
                    new_init[ri.dst as usize] = v;
                    continue;
                }
                // pinned destination: keep an instruction so the slot is
                // recomputed every settle (poke-override semantics), but
                // load it from a shared constant slot
                if ri.op == MicroOp::Copy && const_val[ri.a as usize] == Some(v) {
                    out.push(ri);
                    continue;
                }
                let w = new_widths[ri.dst as usize];
                let cs = *const_memo.entry((v, w)).or_insert_with(|| {
                    let s = new_init.len() as u32;
                    new_init.push(v);
                    new_widths.push(w);
                    const_val.push(Some(v));
                    s
                });
                to_copy(&mut ri, cs);
                out.push(ri);
                continue;
            }
        }

        // copy propagation: an identity copy (no truncation) of a
        // non-pinned single-assignment destination is pure aliasing
        if ri.op == MicroOp::Copy && free && (mask_for(new_widths[ri.a as usize]) & !ri.mask) == 0 {
            subst[ri.dst as usize] = ri.a;
            stats.copy_propagated += 1;
            continue;
        }

        if opts.cse {
            use std::collections::hash_map::Entry;
            match cse_map.entry(cse_key(&ri)) {
                Entry::Occupied(e) => {
                    let rep = *e.get();
                    stats.cse += 1;
                    if free {
                        subst[ri.dst as usize] = rep;
                        continue;
                    }
                    if rep != ri.dst {
                        to_copy(&mut ri, rep);
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(ri.dst);
                }
            }
        }

        out.push(ri);
    }

    // --- dead-code elimination ------------------------------------------
    if opts.dce {
        let mut live = vec![false; new_init.len()];
        match opts.observe {
            Observability::AllSignals => {
                for (s, &p) in pinned.iter().enumerate() {
                    live[s] = p;
                }
            }
            Observability::StateAndOutputs => {
                live[0] = true;
                for r in &prog.regs {
                    live[r.value as usize] = true;
                    live[r.next as usize] = true;
                }
                for m in &prog.mems {
                    for w in &m.writers {
                        for s in [w.addr, w.en, w.data, w.mask] {
                            live[s as usize] = true;
                        }
                    }
                }
                for c in &prog.covers {
                    live[c.pred as usize] = true;
                    live[c.enable as usize] = true;
                }
                for cv in &prog.cover_values {
                    live[cv.signal as usize] = true;
                    live[cv.enable as usize] = true;
                }
                for (_, s) in prog.inputs.iter().chain(prog.outputs.iter()) {
                    live[*s as usize] = true;
                }
            }
        }
        let mut keep = vec![false; out.len()];
        for (k, i) in out.iter().enumerate().rev() {
            if live[i.dst as usize] {
                keep[k] = true;
                live[i.a as usize] = true;
                live[i.b as usize] = true;
                live[i.c as usize] = true;
            }
        }
        let before = out.len();
        let mut k = 0;
        out.retain(|_| {
            k += 1;
            keep[k - 1]
        });
        stats.dce_removed = before - out.len();
    }

    // --- slot compaction -------------------------------------------------
    let (init_slots, slot_width, remap): (Vec<u64>, Vec<u32>, Vec<u32>) = if opts.compact {
        let mut used = vec![false; new_init.len()];
        used[0] = true;
        for (s, &p) in pinned.iter().enumerate() {
            used[s] |= p;
        }
        for i in &out {
            used[i.dst as usize] = true;
            used[i.a as usize] = true;
            used[i.b as usize] = true;
            used[i.c as usize] = true;
        }
        let mut map = vec![u32::MAX; new_init.len()];
        let mut init = Vec::new();
        let mut widths = Vec::new();
        for (s, &u) in used.iter().enumerate() {
            if u {
                map[s] = init.len() as u32;
                init.push(new_init[s]);
                widths.push(new_widths[s]);
            }
        }
        (init, widths, map)
    } else {
        let map = (0..new_init.len() as u32).collect();
        (new_init, new_widths, map)
    };
    let m = |s: u32| remap[s as usize];

    let optimized = Program {
        init_slots,
        slot_width,
        signal_slot: prog
            .signal_slot
            .iter()
            .map(|(k, &s)| (k.clone(), m(s)))
            .collect(),
        instrs: out
            .iter()
            .map(|i| Instr {
                dst: m(i.dst),
                a: m(i.a),
                b: m(i.b),
                c: m(i.c),
                ..*i
            })
            .collect(),
        regs: prog
            .regs
            .iter()
            .map(|r| crate::compile::RegSlots {
                value: m(r.value),
                next: m(r.next),
                name: r.name.clone(),
            })
            .collect(),
        mems: prog
            .mems
            .iter()
            .map(|mm| crate::compile::MemSlots {
                name: mm.name.clone(),
                depth: mm.depth,
                mask: mm.mask,
                writers: mm
                    .writers
                    .iter()
                    .map(|w| crate::compile::WriterSlots {
                        addr: m(w.addr),
                        en: m(w.en),
                        data: m(w.data),
                        mask: m(w.mask),
                    })
                    .collect(),
            })
            .collect(),
        covers: prog
            .covers
            .iter()
            .map(|c| crate::compile::CoverSlots {
                name: c.name.clone(),
                pred: m(c.pred),
                enable: m(c.enable),
            })
            .collect(),
        cover_values: prog
            .cover_values
            .iter()
            .map(|cv| crate::compile::CoverValuesSlots {
                name: cv.name.clone(),
                signal: m(cv.signal),
                enable: m(cv.enable),
                width: cv.width,
            })
            .collect(),
        inputs: prog
            .inputs
            .iter()
            .map(|(k, s)| (k.clone(), m(*s)))
            .collect(),
        outputs: prog
            .outputs
            .iter()
            .map(|(k, s)| (k.clone(), m(*s)))
            .collect(),
    };
    stats.instrs_after = optimized.instrs.len();
    stats.slots_after = optimized.init_slots.len();
    (optimized, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::compiled::CompiledSim;
    use crate::elaborate::elaborate;
    use crate::Simulator;
    use rtlcov_firrtl::parser::parse;
    use rtlcov_firrtl::passes;

    fn prog_for(src: &str) -> Program {
        let low = passes::lower(parse(src).unwrap()).unwrap();
        compile(&elaborate(&low).unwrap()).unwrap()
    }

    /// Hand-built program: the FIRRTL lowering already const-folds and
    /// DCEs trivial sources, so micro-op-level pass tests construct their
    /// input directly.
    fn raw_prog(
        init: &[u64],
        widths: &[u32],
        instrs: Vec<Instr>,
        named: &[(&str, u32)],
        inputs: &[(&str, u32)],
        outputs: &[(&str, u32)],
    ) -> Program {
        Program {
            init_slots: init.to_vec(),
            slot_width: widths.to_vec(),
            signal_slot: named.iter().map(|(n, s)| (n.to_string(), *s)).collect(),
            instrs,
            regs: Vec::new(),
            mems: Vec::new(),
            covers: Vec::new(),
            cover_values: Vec::new(),
            inputs: inputs.iter().map(|(n, s)| (n.to_string(), *s)).collect(),
            outputs: outputs.iter().map(|(n, s)| (n.to_string(), *s)).collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn ins(op: MicroOp, dst: u32, a: u32, b: u32, c: u32, imm: u32, aw: u32, mask: u64) -> Instr {
        Instr {
            op,
            dst,
            a,
            b,
            c,
            imm,
            aw,
            mask,
        }
    }

    fn sims_for(src: &str) -> (CompiledSim, CompiledSim, OptStats) {
        let low = passes::lower(parse(src).unwrap()).unwrap();
        let raw = CompiledSim::new_with(&low, &OptOptions::none()).unwrap();
        let opt = CompiledSim::new_with(&low, &OptOptions::default()).unwrap();
        let stats = opt.opt_stats();
        (raw, opt, stats)
    }

    #[test]
    fn constant_expressions_fold() {
        // slot 1 = const 3, slot 2 = const 4, slot 3 = anon temp, slot 4 = o
        let prog = raw_prog(
            &[0, 3, 4, 0, 0],
            &[1, 4, 4, 5, 5],
            vec![
                ins(MicroOp::Add, 3, 1, 2, 0, 0, 4, 0x1F),
                ins(MicroOp::Copy, 4, 3, 0, 0, 0, 5, 0x1F),
            ],
            &[("o", 4)],
            &[],
            &[("o", 4)],
        );
        let (optd, stats) = optimize(&prog, &OptOptions::default());
        assert!(stats.folded >= 1, "{stats:?}");
        assert!(optd.instrs.len() < prog.instrs.len());
        let s = CompiledSim::from_program(optd);
        assert_eq!(s.peek("o"), 7);
    }

    #[test]
    fn mux_with_constant_condition_is_rewritten() {
        // slot 3 = const 1 condition; o = mux(c, a, b)
        let prog = raw_prog(
            &[0, 0, 0, 1, 0],
            &[1, 4, 4, 1, 4],
            vec![ins(MicroOp::Mux, 4, 1, 2, 3, 0, 4, 0xF)],
            &[("a", 1), ("b", 2), ("o", 4)],
            &[("a", 1), ("b", 2)],
            &[("o", 4)],
        );
        let (optd, stats) = optimize(&prog, &OptOptions::default());
        assert!(stats.peephole >= 1, "{stats:?}");
        assert!(optd.instrs.iter().all(|i| i.op != MicroOp::Mux));
        let mut raw = CompiledSim::from_program(prog);
        let mut opt = CompiledSim::from_program(optd);
        for v in 0..16u64 {
            raw.poke("a", v);
            raw.poke("b", 15 - v);
            opt.poke("a", v);
            opt.poke("b", 15 - v);
            assert_eq!(raw.peek("o"), opt.peek("o"));
            assert_eq!(opt.peek("o"), v);
        }
    }

    #[test]
    fn compare_with_zero_becomes_orr() {
        let prog = prog_for(
            "
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<1>
    o <= neq(a, UInt<4>(0))
",
        );
        let (optd, stats) = optimize(&prog, &OptOptions::default());
        assert!(stats.peephole >= 1, "{stats:?}");
        assert!(optd.instrs.iter().any(|i| i.op == MicroOp::Orr));
        let mut s = CompiledSim::from_program(optd);
        s.poke("a", 0);
        assert_eq!(s.peek("o"), 0);
        s.poke("a", 9);
        assert_eq!(s.peek("o"), 1);
    }

    #[test]
    fn common_subexpressions_are_shared() {
        let (mut raw, mut opt, stats) = sims_for(
            "
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<4>
    output o1 : UInt<5>
    output o2 : UInt<5>
    o1 <= add(a, b)
    o2 <= add(b, a)
",
        );
        assert!(stats.cse >= 1, "{stats:?}");
        raw.poke("a", 7);
        raw.poke("b", 9);
        opt.poke("a", 7);
        opt.poke("b", 9);
        assert_eq!(raw.peek("o1"), opt.peek("o1"));
        assert_eq!(raw.peek("o2"), opt.peek("o2"));
        assert_eq!(opt.peek("o1"), 16);
    }

    /// Named wire `u = add(a, b)` feeding nothing observable, plus
    /// `o = a`. Exercises the two DCE root policies.
    fn dead_wire_prog() -> Program {
        raw_prog(
            &[0, 0, 0, 0, 0],
            &[1, 4, 4, 5, 4],
            vec![
                ins(MicroOp::Add, 3, 1, 2, 0, 0, 4, 0x1F),
                ins(MicroOp::Copy, 4, 1, 0, 0, 0, 4, 0xF),
            ],
            &[("a", 1), ("b", 2), ("u", 3), ("o", 4)],
            &[("a", 1), ("b", 2)],
            &[("o", 4)],
        )
    }

    #[test]
    fn named_signals_survive_default_dce() {
        let (optd, _) = optimize(&dead_wire_prog(), &OptOptions::default());
        let mut s = CompiledSim::from_program(optd);
        s.poke("a", 3);
        s.poke("b", 4);
        // the unused wire is still peekable under AllSignals
        assert_eq!(s.peek("u"), 7);
        assert_eq!(s.peek("o"), 3);
    }

    #[test]
    fn state_and_outputs_dce_drops_unobserved_wires() {
        let prog = dead_wire_prog();
        let all = optimize(&prog, &OptOptions::default()).0;
        let lean = optimize(
            &prog,
            &OptOptions {
                observe: Observability::StateAndOutputs,
                ..OptOptions::default()
            },
        );
        assert!(lean.1.dce_removed >= 1, "{:?}", lean.1);
        assert!(lean.0.instrs.len() < all.instrs.len());
        let mut s = CompiledSim::from_program(lean.0);
        s.poke("a", 5);
        assert_eq!(s.peek("o"), 5);
    }

    #[test]
    fn counter_equivalence_with_all_passes() {
        let src = "
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output o : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
";
        let (mut raw, mut opt, _) = sims_for(src);
        for s in [&mut raw as &mut dyn Simulator, &mut opt] {
            s.reset(1);
            s.poke("en", 1);
            s.step_n(5);
            s.poke("en", 0);
            s.step_n(3);
        }
        assert_eq!(raw.peek("o"), 5);
        assert_eq!(opt.peek("o"), 5);
        assert_eq!(raw.peek("r"), opt.peek("r"));
    }

    #[test]
    fn shift_by_zero_is_removed() {
        let prog = prog_for(
            "
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<4>
    o <= shr(a, 0)
",
        );
        let (optd, _) = optimize(&prog, &OptOptions::default());
        assert!(optd.instrs.iter().all(|i| i.op != MicroOp::Shr));
        let mut s = CompiledSim::from_program(optd);
        s.poke("a", 11);
        assert_eq!(s.peek("o"), 11);
    }

    #[test]
    fn none_options_are_identity() {
        let prog = prog_for(
            "
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<5>
    o <= add(a, UInt<4>(0))
",
        );
        let (same, stats) = optimize(&prog, &OptOptions::none());
        assert_eq!(same.instrs.len(), prog.instrs.len());
        assert_eq!(
            stats.folded + stats.peephole + stats.cse + stats.dce_removed,
            0
        );
    }
}
