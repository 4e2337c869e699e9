//! The compiled simulator backend (Verilator analog).
//!
//! Executes a [`Program`] over dense `u64` slots in a tight loop. By
//! default the program first runs through the [`crate::opt`] pipeline
//! (constant folding, CSE, peephole rewrites, dead-slot elimination);
//! [`CompiledSim::new_with`] and [`CompiledSim::from_program`] expose the
//! unoptimized path for A/B benchmarking. Optionally collects *native*
//! structural coverage — per-mux condition counters, the analog of
//! Verilator's built-in coverage on the generated Verilog — which
//! Figure 8 compares against the paper's FIRRTL-level instrumentation.
//!
//! The slots and memories live in one `ExecState`, which the
//! activity-driven backend ([`crate::essent`]) shares. It sits behind a
//! [`RefCell`] so that [`Simulator::peek`] can lazily settle
//! combinational logic through a shared reference; a `settled` flag makes
//! repeated peeks (e.g. VCD sampling of every signal) O(1) instead of a
//! full re-evaluation each.

use crate::compile::{compile, mask_for, Instr, MicroOp, Program};
use crate::elaborate::elaborate;
use crate::opt::{optimize, OptOptions, OptStats};
use crate::{Fuel, SimBuildOptions, SimError, Simulator};
use rtlcov_core::CoverageMap;
use rtlcov_firrtl::ir::Circuit;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Elaborate, compile and optimize a lowered circuit.
pub(crate) fn build_program(
    circuit: &Circuit,
    opts: &OptOptions,
) -> Result<(Program, OptStats), SimError> {
    let flat = elaborate(circuit).map_err(|e| SimError(e.0))?;
    let prog = compile(&flat).map_err(|e| SimError(e.0))?;
    Ok(optimize(&prog, opts))
}

/// Everything a running [`Program`] mutates — every slot and every memory
/// word — in one place, shared by the compiled and activity-driven
/// backends. The program stays with the backend (essent keeps its
/// reordered copy in a [`crate::partition::PartitionedProgram`]), so the
/// methods take it by reference.
#[derive(Debug, Clone)]
pub(crate) struct ExecState {
    pub(crate) slots: Vec<u64>,
    pub(crate) mems: Vec<Vec<u64>>,
}

impl ExecState {
    /// Initial slot values and zeroed memories.
    pub(crate) fn new(prog: &Program) -> Self {
        ExecState {
            slots: prog.init_slots.clone(),
            mems: prog.mems.iter().map(|m| vec![0; m.depth]).collect(),
        }
    }

    /// Execute `instrs` in order: the settle hot loop of both backends.
    #[inline]
    pub(crate) fn exec(&mut self, instrs: &[Instr]) {
        for instr in instrs {
            exec_instr(instr, &mut self.slots, &self.mems);
        }
    }

    /// Current value of a named signal.
    pub(crate) fn peek(&self, prog: &Program, signal: &str) -> u64 {
        self.slots[prog.signal_slot[signal] as usize]
    }

    /// Drive a signal, masked to its width. Returns its slot if the value
    /// changed.
    pub(crate) fn poke(&mut self, prog: &Program, signal: &str, value: u64) -> Option<usize> {
        let slot = prog.signal_slot[signal] as usize;
        let v = value & mask_for(prog.slot_width[slot]);
        if self.slots[slot] == v {
            return None;
        }
        self.slots[slot] = v;
        Some(slot)
    }

    /// Apply every enabled memory write with pre-edge slot values; calls
    /// `changed(m)` for each write that changed memory `m`.
    pub(crate) fn commit_mems(&mut self, prog: &Program, mut changed: impl FnMut(usize)) {
        for (m, mem) in prog.mems.iter().enumerate() {
            for w in &mem.writers {
                if self.slots[w.en as usize] == 0 || self.slots[w.mask as usize] == 0 {
                    continue;
                }
                let data = self.slots[w.data as usize] & mem.mask;
                match self.mems[m].get_mut(self.slots[w.addr as usize] as usize) {
                    Some(word) if *word != data => {
                        *word = data;
                        changed(m);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Latch every register's next value; calls `changed(slot)` for each
    /// register whose value changed.
    pub(crate) fn commit_regs(&mut self, prog: &Program, mut changed: impl FnMut(usize)) {
        for r in &prog.regs {
            let (value, next) = (r.value as usize, self.slots[r.next as usize]);
            if self.slots[value] != next {
                self.slots[value] = next;
                changed(value);
            }
        }
    }

    /// Backdoor write, masked to the memory's width. Returns the memory's
    /// index.
    pub(crate) fn write_mem(
        &mut self,
        prog: &Program,
        mem: &str,
        addr: u64,
        value: u64,
    ) -> Result<usize, SimError> {
        let m = mem_index(prog, mem)?;
        let word = self.mems[m]
            .get_mut(addr as usize)
            .ok_or_else(|| out_of_range(mem, addr))?;
        *word = value & prog.mems[m].mask;
        Ok(m)
    }

    /// Backdoor read.
    pub(crate) fn read_mem(&self, prog: &Program, mem: &str, addr: u64) -> Result<u64, SimError> {
        let m = mem_index(prog, mem)?;
        self.mems[m]
            .get(addr as usize)
            .copied()
            .ok_or_else(|| out_of_range(mem, addr))
    }

    /// All signal names of `prog`, sorted.
    pub(crate) fn signals(prog: &Program) -> Vec<String> {
        let mut v: Vec<String> = prog.signal_slot.keys().cloned().collect();
        v.sort();
        v
    }

    /// The §3 cover map: each cover's count from `count(i)` (declared even
    /// at zero) and each `cover_values` bucket from `values`.
    pub(crate) fn cover_map(
        prog: &Program,
        count: impl Fn(usize) -> u64,
        values: &[HashMap<u64, u64>],
    ) -> CoverageMap {
        let mut map = CoverageMap::new();
        for (i, cov) in prog.covers.iter().enumerate() {
            map.record(&cov.name, count(i));
            map.declare(&cov.name);
        }
        for (cv, counts) in prog.cover_values.iter().zip(values) {
            for (value, count) in counts {
                map.record(format!("{}[{value}]", cv.name), *count);
            }
        }
        map
    }
}

fn mem_index(prog: &Program, mem: &str) -> Result<usize, SimError> {
    prog.mems
        .iter()
        .position(|m| m.name == mem)
        .ok_or_else(|| SimError(format!("unknown memory `{mem}`")))
}

fn out_of_range(mem: &str, addr: u64) -> SimError {
    SimError(format!("address {addr} out of range for `{mem}`"))
}

/// Dense-slot compiled simulator.
#[derive(Debug, Clone)]
pub struct CompiledSim {
    prog: Program,
    st: RefCell<ExecState>,
    /// Combinational logic is consistent with current inputs/state.
    settled: Cell<bool>,
    cover_counts: Vec<u64>,
    cover_values_counts: Vec<HashMap<u64, u64>>,
    /// Verilator-style structural coverage: (true_count, false_count) per
    /// mux, with names interned at enable time.
    native_mux: Option<Vec<(u64, u64)>>,
    native_names: Vec<(String, String)>,
    /// Condition slot of each mux instruction (dense, precomputed).
    mux_conds: Vec<u32>,
    cycles: u64,
    fuel: Fuel,
    opt_stats: OptStats,
}

impl CompiledSim {
    /// Build a compiled simulator from a lowered circuit with the default
    /// optimization pipeline (honoring [`SimBuildOptions::from_env`]).
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures (combinational loops,
    /// >64-bit signals).
    pub fn new(circuit: &Circuit) -> Result<Self, SimError> {
        Self::new_with(circuit, &SimBuildOptions::from_env().opt_options())
    }

    /// Build with explicit optimizer options ([`OptOptions::none`] gives
    /// the seed unoptimized program, for A/B benchmarking).
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures.
    pub fn new_with(circuit: &Circuit, opts: &OptOptions) -> Result<Self, SimError> {
        let (prog, stats) = build_program(circuit, opts)?;
        let mut sim = Self::from_program(prog);
        sim.opt_stats = stats;
        Ok(sim)
    }

    /// Build from an already-compiled program, as-is (no optimization).
    pub fn from_program(prog: Program) -> Self {
        let mux_conds = prog
            .instrs
            .iter()
            .filter(|i| i.op == MicroOp::Mux)
            .map(|i| i.c)
            .collect();
        CompiledSim {
            st: RefCell::new(ExecState::new(&prog)),
            settled: Cell::new(false),
            cover_counts: vec![0; prog.covers.len()],
            cover_values_counts: vec![HashMap::new(); prog.cover_values.len()],
            native_mux: None,
            native_names: Vec::new(),
            mux_conds,
            cycles: 0,
            fuel: Fuel::unlimited(),
            opt_stats: OptStats::default(),
            prog,
        }
    }

    /// What the optimizer did while building this simulator (all zeros
    /// when constructed via [`CompiledSim::from_program`]).
    pub fn opt_stats(&self) -> OptStats {
        self.opt_stats
    }

    /// Enable native structural (per-mux branch) coverage — the built-in
    /// coverage a monolithic simulator would offer. Counter names are
    /// interned once here instead of formatted per query.
    pub fn enable_native_coverage(&mut self) {
        self.native_mux = Some(vec![(0, 0); self.mux_conds.len()]);
        self.native_names = (0..self.mux_conds.len())
            .map(|i| (format!("native.mux{i}.t"), format!("native.mux{i}.f")))
            .collect();
    }

    /// Native structural coverage counts, named `native.mux<i>.{t,f}`.
    pub fn native_coverage(&self) -> CoverageMap {
        let mut map = CoverageMap::new();
        if let Some(counts) = &self.native_mux {
            for (i, (t, f)) in counts.iter().enumerate() {
                map.record_ref(&self.native_names[i].0, *t);
                map.record_ref(&self.native_names[i].1, *f);
            }
        }
        map
    }

    /// Number of cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The compiled program (for the activity-driven backend and tests).
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Bring combinational logic up to date with inputs/state. Idempotent
    /// until the next poke/step/memory write.
    fn settle(&self) {
        if !self.settled.get() {
            self.st.borrow_mut().exec(&self.prog.instrs);
            self.settled.set(true);
        }
    }

    fn sample_covers(&mut self) {
        let st = self.st.get_mut();
        for (i, cov) in self.prog.covers.iter().enumerate() {
            if st.slots[cov.pred as usize] != 0 && st.slots[cov.enable as usize] != 0 {
                self.cover_counts[i] = self.cover_counts[i].saturating_add(1);
            }
        }
        for (i, cv) in self.prog.cover_values.iter().enumerate() {
            if st.slots[cv.enable as usize] != 0 {
                let v = st.slots[cv.signal as usize];
                let entry = self.cover_values_counts[i].entry(v).or_insert(0);
                *entry = entry.saturating_add(1);
            }
        }
    }

    fn commit(&mut self) {
        let st = self.st.get_mut();
        st.commit_mems(&self.prog, |_| {});
        st.commit_regs(&self.prog, |_| {});
        self.settled.set(false);
    }
}

#[inline(always)]
fn sext(v: u64, w: u32) -> i64 {
    if w == 0 || w >= 64 {
        v as i64
    } else {
        ((v << (64 - w)) as i64) >> (64 - w)
    }
}

#[inline(always)]
pub(crate) fn exec_instr(i: &Instr, slots: &mut [u64], mems: &[Vec<u64>]) {
    let a = slots[i.a as usize];
    let b = slots[i.b as usize];
    let v = match i.op {
        MicroOp::Copy => a,
        MicroOp::Add => a.wrapping_add(b),
        MicroOp::Sub => a.wrapping_sub(b),
        MicroOp::Mul => ((a as u128).wrapping_mul(b as u128)) as u64,
        MicroOp::Div => a.checked_div(b).unwrap_or(0),
        MicroOp::DivS => {
            let (sa, sb) = (sext(a, i.aw), sext(b, i.aw));
            if sb == 0 {
                0
            } else {
                sa.wrapping_div(sb) as u64
            }
        }
        MicroOp::Rem => a.checked_rem(b).unwrap_or(0),
        MicroOp::RemS => {
            let (sa, sb) = (sext(a, i.aw), sext(b, i.aw));
            if sb == 0 {
                0
            } else {
                sa.wrapping_rem(sb) as u64
            }
        }
        MicroOp::Lt => (a < b) as u64,
        MicroOp::LtS => (sext(a, i.aw) < sext(b, i.aw)) as u64,
        MicroOp::Leq => (a <= b) as u64,
        MicroOp::LeqS => (sext(a, i.aw) <= sext(b, i.aw)) as u64,
        MicroOp::Gt => (a > b) as u64,
        MicroOp::GtS => (sext(a, i.aw) > sext(b, i.aw)) as u64,
        MicroOp::Geq => (a >= b) as u64,
        MicroOp::GeqS => (sext(a, i.aw) >= sext(b, i.aw)) as u64,
        MicroOp::Eq => (a == b) as u64,
        MicroOp::Neq => (a != b) as u64,
        MicroOp::And => a & b,
        MicroOp::Or => a | b,
        MicroOp::Xor => a ^ b,
        MicroOp::Not => !a,
        MicroOp::Neg => (a as i64).wrapping_neg() as u64,
        MicroOp::Andr => {
            let mask = if i.aw >= 64 {
                u64::MAX
            } else {
                (1u64 << i.aw) - 1
            };
            (a & mask == mask) as u64
        }
        MicroOp::Orr => (a != 0) as u64,
        MicroOp::Xorr => (a.count_ones() % 2) as u64,
        MicroOp::Sext => sext(a, i.aw) as u64,
        MicroOp::Shl => a << i.imm,
        MicroOp::Shr => a >> i.imm,
        MicroOp::ShrS => (sext(a, i.aw) >> i.imm) as u64,
        MicroOp::Dshl => {
            if b >= 64 {
                0
            } else {
                a << b
            }
        }
        MicroOp::Dshr => {
            if b >= 64 {
                0
            } else {
                a >> b
            }
        }
        MicroOp::DshrS => {
            let sa = sext(a, i.aw);
            let sh = b.min(63);
            (sa >> sh) as u64
        }
        MicroOp::Cat => (a << i.imm) | b,
        MicroOp::Bits => a >> i.imm,
        MicroOp::Mux => {
            let c = slots[i.c as usize];
            if c != 0 {
                a
            } else {
                b
            }
        }
        MicroOp::MemRead => {
            let mem = &mems[i.imm as usize];
            let addr = a as usize;
            if b != 0 && addr < mem.len() {
                mem[addr]
            } else {
                0
            }
        }
    };
    slots[i.dst as usize] = v & i.mask;
}

impl Simulator for CompiledSim {
    fn poke(&mut self, signal: &str, value: u64) {
        if self.st.get_mut().poke(&self.prog, signal, value).is_some() {
            self.settled.set(false);
        }
    }

    fn peek(&self, signal: &str) -> u64 {
        self.settle();
        self.st.borrow().peek(&self.prog, signal)
    }

    fn step(&mut self) {
        if !self.fuel.consume() {
            return;
        }
        self.settle();
        // native mux counting happens once per clock cycle (peeks between
        // steps no longer inflate the branch counters)
        if let Some(native) = &mut self.native_mux {
            let st = self.st.get_mut();
            for (k, &cs) in self.mux_conds.iter().enumerate() {
                if st.slots[cs as usize] != 0 {
                    native[k].0 = native[k].0.saturating_add(1);
                } else {
                    native[k].1 = native[k].1.saturating_add(1);
                }
            }
        }
        self.sample_covers();
        self.commit();
        self.cycles += 1;
    }

    fn set_fuel(&mut self, fuel: u64) {
        self.fuel.set(fuel);
    }

    fn out_of_fuel(&self) -> bool {
        self.fuel.starved()
    }

    fn cover_counts(&self) -> CoverageMap {
        ExecState::cover_map(
            &self.prog,
            |i| self.cover_counts[i],
            &self.cover_values_counts,
        )
    }

    fn write_mem(&mut self, mem: &str, addr: u64, value: u64) -> Result<(), SimError> {
        self.st.get_mut().write_mem(&self.prog, mem, addr, value)?;
        self.settled.set(false);
        Ok(())
    }

    fn read_mem(&self, mem: &str, addr: u64) -> Result<u64, SimError> {
        self.st.borrow().read_mem(&self.prog, mem, addr)
    }

    fn signals(&self) -> Vec<String> {
        ExecState::signals(&self.prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcov_firrtl::parser::parse;
    use rtlcov_firrtl::passes;

    fn sim(src: &str) -> CompiledSim {
        CompiledSim::new(&passes::lower(parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn combinational_add() {
        let mut s = sim("
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<5>
    o <= add(a, b)
");
        s.poke("a", 9);
        s.poke("b", 8);
        assert_eq!(s.peek("o"), 17);
    }

    #[test]
    fn register_counts() {
        let mut s = sim("
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    output o : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
");
        s.poke("reset", 1);
        s.step();
        s.poke("reset", 0);
        for _ in 0..5 {
            s.step();
        }
        assert_eq!(s.peek("o"), 5);
    }

    #[test]
    fn cover_counting() {
        let mut s = sim("
circuit T :
  module T :
    input clock : Clock
    input a : UInt<1>
    cover(clock, a, UInt<1>(1)) : hit
");
        s.poke("a", 1);
        s.step();
        s.step();
        s.poke("a", 0);
        s.step();
        assert_eq!(s.cover_counts().count("hit"), Some(2));
    }

    #[test]
    fn memory_write_read() {
        let mut s = sim("
circuit T :
  module T :
    input clock : Clock
    input addr : UInt<4>
    input wdata : UInt<8>
    input wen : UInt<1>
    output o : UInt<8>
    mem m : UInt<8>[16], readers(r), writers(w)
    m.r.addr <= addr
    m.r.en <= UInt<1>(1)
    m.w.addr <= addr
    m.w.en <= wen
    m.w.data <= wdata
    m.w.mask <= UInt<1>(1)
    o <= m.r.data
");
        s.poke("addr", 3);
        s.poke("wdata", 42);
        s.poke("wen", 1);
        s.step();
        s.poke("wen", 0);
        assert_eq!(s.peek("o"), 42);
        assert_eq!(s.read_mem("m", 3).unwrap(), 42);
        s.write_mem("m", 5, 7).unwrap();
        s.poke("addr", 5);
        assert_eq!(s.peek("o"), 7);
    }

    #[test]
    fn hierarchy_executes() {
        let mut s = sim("
circuit Top :
  module Inv :
    input in : UInt<4>
    output out : UInt<4>
    out <= not(in)
  module Top :
    input x : UInt<4>
    output o : UInt<4>
    inst i1 of Inv
    inst i2 of Inv
    i1.in <= x
    i2.in <= i1.out
    o <= i2.out
");
        s.poke("x", 0b1010);
        assert_eq!(s.peek("o"), 0b1010);
        assert_eq!(s.peek("i1.out"), 0b0101);
    }

    #[test]
    fn native_mux_coverage() {
        let mut s = sim("
circuit T :
  module T :
    input s : UInt<1>
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<4>
    o <= mux(s, a, b)
");
        s.enable_native_coverage();
        s.poke("s", 1);
        s.step();
        s.poke("s", 0);
        s.step();
        s.step();
        let native = s.native_coverage();
        assert_eq!(native.count("native.mux0.t"), Some(1));
        assert_eq!(native.count("native.mux0.f"), Some(2));
    }

    #[test]
    fn peeks_between_steps_do_not_inflate_native_counts() {
        let mut s = sim("
circuit T :
  module T :
    input s : UInt<1>
    input a : UInt<4>
    input b : UInt<4>
    output o : UInt<4>
    o <= mux(s, a, b)
");
        s.enable_native_coverage();
        s.poke("s", 1);
        s.peek("o");
        s.peek("o");
        s.step();
        let native = s.native_coverage();
        assert_eq!(native.count("native.mux0.t"), Some(1));
    }

    #[test]
    fn signed_arithmetic() {
        let mut s = sim("
circuit T :
  module T :
    input a : SInt<8>
    input b : SInt<8>
    output lt : UInt<1>
    output d : SInt<9>
    lt <= lt(a, b)
    d <= div(a, b)
");
        s.poke("a", 0xF8); // -8
        s.poke("b", 3);
        assert_eq!(s.peek("lt"), 1);
        let d = s.peek("d");
        assert_eq!(sext(d, 9), -2);
    }

    #[test]
    fn validif_reads_zero_when_invalid() {
        let mut s = sim("
circuit T :
  module T :
    input c : UInt<1>
    input v : UInt<8>
    output o : UInt<8>
    o <= validif(c, v)
");
        s.poke("v", 99);
        s.poke("c", 0);
        assert_eq!(s.peek("o"), 0);
        s.poke("c", 1);
        assert_eq!(s.peek("o"), 99);
    }
}
