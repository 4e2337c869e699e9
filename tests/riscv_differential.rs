//! Differential testing: random RV32I programs run on the golden-model
//! ISS and on the RTL core (compiled backend), and the architectural
//! state — register file, data memory, retired count — must agree. One
//! random program also runs on every simulator configuration of
//! `rtlcov::fuzz::equivalence`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlcov::designs::iss::Iss;
use rtlcov::designs::programs::{asm, Program};
use rtlcov::designs::riscv_mini::riscv_mini_with;
use rtlcov::firrtl::passes;
use rtlcov::fuzz::equivalence::differential;
use rtlcov::sim::compiled::CompiledSim;
use rtlcov::sim::Simulator;
use std::ops::Range;

const DMEM_WORDS: usize = 256;

/// Generate a random straight-line program ending in `ecall`: ALU ops,
/// word loads/stores within the data memory, and short forward branches.
fn random_program(rng: &mut StdRng, len: usize) -> Vec<u32> {
    let mut text = Vec::with_capacity(len + 1);
    for i in 0..len {
        let rd = rng.gen_range(0..8);
        let rs1 = rng.gen_range(0..8);
        let rs2 = rng.gen_range(0..8);
        let insn = match rng.gen_range(0..14) {
            0 => asm::addi(rd, rs1, rng.gen_range(-512..512)),
            1 => asm::add(rd, rs1, rs2),
            2 => asm::sub(rd, rs1, rs2),
            3 => asm::and(rd, rs1, rs2),
            4 => asm::or(rd, rs1, rs2),
            5 => asm::xor(rd, rs1, rs2),
            6 => asm::slt(rd, rs1, rs2),
            7 => asm::sltu(rd, rs1, rs2),
            8 => asm::slli(rd, rs1, rng.gen_range(0..31)),
            9 => asm::srli(rd, rs1, rng.gen_range(0..31)),
            10 => asm::srai(rd, rs1, rng.gen_range(0..31)),
            11 => {
                // aligned store within dmem
                let offset = rng.gen_range(0..DMEM_WORDS as i32 / 2) * 4;
                asm::sw(rs2, 0, offset)
            }
            12 => {
                let offset = rng.gen_range(0..DMEM_WORDS as i32 / 2) * 4;
                asm::lw(rd, 0, offset)
            }
            _ => {
                // short forward branch (skips at most 2 instructions,
                // always lands inside the program — the furthest legal
                // target is the trailing ecall at index `len`)
                let skip = rng.gen_range(1..=2).min((len - 1 - i) as i32);
                let offset = (skip + 1) * 4;
                match rng.gen_range(0..4) {
                    0 => asm::beq(rs1, rs2, offset),
                    1 => asm::bne(rs1, rs2, offset),
                    2 => asm::blt(rs1, rs2, offset),
                    _ => asm::bgeu(rs1, rs2, offset),
                }
            }
        };
        text.push(insn);
    }
    text.push(asm::ecall());
    text
}

/// Load `text` and run until the core halts, for at most 4000 cycles.
fn run_to_halt(sim: &mut dyn Simulator, text: &[u32]) {
    Program::new(text.to_vec())
        .load(sim, "icache.mem", "dcache.mem")
        .unwrap();
    sim.reset(2);
    for _ in 0..4000 {
        if sim.peek("halted") == 1 {
            break;
        }
        sim.step();
    }
}

/// Words `words` of memory `mem`, as 32-bit values.
fn read(sim: &dyn Simulator, mem: &str, words: Range<u64>) -> Vec<u32> {
    words
        .map(|w| sim.read_mem(mem, w).unwrap() as u32)
        .collect()
}

#[test]
fn random_programs_match_the_golden_model() {
    let low = passes::lower(riscv_mini_with(256)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xdead);
    for round in 0..25 {
        let text = random_program(&mut rng, 30);
        // golden model
        let mut iss = Iss::new(&text, DMEM_WORDS);
        iss.run(100);
        assert!(iss.halted, "round {round}: ISS did not halt");
        // RTL core
        let mut sim = CompiledSim::new(&low).unwrap();
        run_to_halt(&mut sim, &text);
        assert_eq!(sim.peek("halted"), 1, "round {round}: RTL did not halt");
        // architectural state comparison
        let regs = read(&sim, "core.rf", 1..8);
        assert_eq!(regs, iss.regs[1..8], "round {round}: x1..x7 mismatch");
        let dmem = read(&sim, "dcache.mem", 0..DMEM_WORDS as u64 / 2);
        assert_eq!(dmem, iss.dmem[..dmem.len()], "round {round}: dmem mismatch");
        assert_eq!(
            sim.peek("retired"),
            iss.retired,
            "round {round}: retired mismatch"
        );
    }
}

#[test]
fn differential_across_backends() {
    // every configuration agrees with the interpreter (and so with the ISS)
    let low = passes::lower(riscv_mini_with(256)).unwrap();
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let text = random_program(&mut rng, 25);
    let (_, sims) = differential(&low, |sim| run_to_halt(sim, &text)).unwrap();
    let want = read(sims[0].1.as_ref(), "core.rf", 0..32);
    assert_eq!(sims[0].1.peek("halted"), 1, "the program halts");
    for (name, sim) in &sims[1..] {
        assert_eq!(
            read(sim.as_ref(), "core.rf", 0..32),
            want,
            "{name}: core.rf"
        );
    }
}
