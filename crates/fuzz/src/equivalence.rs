//! Differential equivalence fuzzing for the simulator pipeline.
//!
//! A byte script deterministically generates a random FIRRTL circuit and
//! an input stimulus; the circuit then runs on every software backend
//! configuration: the interpreter (the reference oracle), compiled with
//! and without the micro-op optimizer, and the activity-driven engine with
//! default partitions and with one-instruction partitions on the
//! unoptimized program. All five must agree bit-for-bit on every named
//! signal at every cycle and on the final coverage maps. This is the
//! executable statement of the optimizer/partitioner contract: pure
//! performance, zero observable difference.

use rtlcov_sim::compiled::CompiledSim;
use rtlcov_sim::essent::{EssentOptions, EssentSim};
use rtlcov_sim::interp::InterpSim;
use rtlcov_sim::opt::OptOptions;
use rtlcov_sim::{SimError, Simulator};

/// Cycling byte reader: any byte slice is a valid script.
struct Script<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Script<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Script { bytes, pos: 0 }
    }

    fn next(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn next_u16(&mut self) -> u16 {
        u16::from_le_bytes([self.next(), self.next()])
    }

    fn pick(&mut self, pool: &[String]) -> String {
        pool[self.next() as usize % pool.len()].clone()
    }
}

/// Generate a random-but-deterministic FIRRTL circuit from a byte script.
///
/// Every node is normalised to `UInt<16>` via `tail(pad(x, 32), 16)`, so
/// arbitrary op choices always width-check. The op table deliberately
/// covers the micro-ops the optimizer rewrites (constant folds, shifts,
/// compares, muxes, signed shifts, reductions) and the circuit carries
/// `cover` and `cover_values` statements so batched sampling is exercised.
/// One 8-word memory `m` has a reader whose data joins the operand pool
/// and a writer; both take their address from the pool, and half the
/// scripts give them the same address, so a cycle can write and read one
/// word.
pub fn generate_circuit(script: &[u8]) -> String {
    let mut s = Script::new(script);
    let n_inputs = 1 + (s.next() % 3) as usize;
    let n_regs = 1 + (s.next() % 2) as usize;
    let n_nodes = 4 + (s.next() % 12) as usize;

    let mut src = String::from("circuit Gen :\n  module Gen :\n");
    src.push_str("    input clock : Clock\n    input reset : UInt<1>\n");

    // operand pool: names of 16-bit values usable as arguments
    let mut pool: Vec<String> = Vec::new();
    let mut mem_addr = String::new();

    let mut input_widths = Vec::new();
    for i in 0..n_inputs {
        let w = 1 + (s.next() % 16) as u32;
        src.push_str(&format!("    input in{i} : UInt<{w}>\n"));
        input_widths.push(w);
    }
    src.push_str("    output out : UInt<16>\n");

    for j in 0..n_regs {
        let init = s.next_u16();
        src.push_str(&format!(
            "    reg r{j} : UInt<16>, clock with : (reset => (reset, UInt<16>({init})))\n"
        ));
        pool.push(format!("r{j}"));
    }
    for i in 0..n_inputs {
        src.push_str(&format!("    node s{i} = pad(in{i}, 16)\n"));
        pool.push(format!("s{i}"));
    }
    for k in 0..2 {
        let c = s.next_u16();
        src.push_str(&format!("    node k{k} = UInt<16>({c})\n"));
        pool.push(format!("k{k}"));
    }

    for n in 0..n_nodes {
        if n == n_nodes / 2 {
            let addr = s.pick(&pool);
            let en = s.pick(&pool);
            src.push_str(&format!(
                "    mem m : UInt<16>[8], readers(r), writers(w)\n    \
                 m.r.addr <= tail({addr}, 13)\n    m.r.en <= orr({en})\n    \
                 node rd = m.r.data\n"
            ));
            pool.push("rd".into());
            mem_addr = addr;
        }
        let a = s.pick(&pool);
        let b = s.pick(&pool);
        let c = s.pick(&pool);
        let imm = s.next();
        let raw = match s.next() % 20 {
            0 => format!("add({a}, {b})"),
            1 => format!("sub({a}, {b})"),
            2 => format!("mul({a}, {b})"),
            3 => format!("and({a}, {b})"),
            4 => format!("or({a}, {b})"),
            5 => format!("xor({a}, {b})"),
            6 => format!("not({a})"),
            7 => format!("asUInt(neg({a}))"),
            8 => format!("eq({a}, {b})"),
            9 => format!("lt({a}, {b})"),
            10 => format!("gt({a}, {b})"),
            11 => format!("mux(orr({c}), {a}, {b})"),
            12 => format!("shl({a}, {})", imm % 8),
            13 => format!("shr({a}, {})", imm % 16),
            14 => format!("asUInt(shr(asSInt({a}), {}))", imm % 16),
            15 => format!("cat({a}, {b})"),
            16 => format!("andr({a})"),
            17 => format!("orr({a})"),
            18 => format!("xorr({a})"),
            _ => format!("dshr({a}, tail({b}, 12))"),
        };
        src.push_str(&format!("    node n{n} = tail(pad({raw}, 32), 16)\n"));
        pool.push(format!("n{n}"));
    }

    for j in 0..n_regs {
        let v = s.pick(&pool);
        src.push_str(&format!("    r{j} <= {v}\n"));
    }
    let o = s.pick(&pool);
    src.push_str(&format!("    out <= {o}\n"));
    let wa = if s.next() < 128 {
        mem_addr
    } else {
        s.pick(&pool)
    };
    let (wen, wd) = (s.pick(&pool), s.pick(&pool));
    src.push_str(&format!(
        "    m.w.addr <= tail({wa}, 13)\n    m.w.en <= orr({wen})\n    \
         m.w.data <= {wd}\n    m.w.mask <= UInt<1>(1)\n"
    ));

    let p0 = s.pick(&pool);
    let p1 = s.pick(&pool);
    let p2 = s.pick(&pool);
    src.push_str(&format!(
        "    cover(clock, orr({p0}), UInt<1>(1)) : c0\n    cover(clock, eq({p1}, {p2}), UInt<1>(1)) : c1\n"
    ));
    // a 4-bit observed signal keeps the cover_values key space small
    let cv = s.pick(&pool);
    let en = s.pick(&pool);
    src.push_str(&format!(
        "    node cvn = tail({cv}, 12)\n    cover_values(clock, cvn, orr({en})) : v0\n"
    ));
    src
}

/// What [`check_equivalence`] verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivReport {
    /// Cycles stepped.
    pub cycles: usize,
    /// Named signals compared per cycle.
    pub signals: usize,
}

/// Generate a circuit and stimulus from `script` and require the four
/// compiled and essent configurations to agree with the interpreter on
/// every peek each cycle and on the final cover maps. Every cycle also issues
/// one script-derived backdoor `write_mem` on every simulator.
///
/// # Errors
///
/// A message naming the first divergence (or a build failure).
pub fn check_equivalence(script: &[u8]) -> Result<EquivReport, String> {
    let src = generate_circuit(script);
    let circuit = rtlcov_firrtl::parser::parse(&src).map_err(|e| format!("parse: {e:?}"))?;
    let low = rtlcov_firrtl::passes::lower(circuit).map_err(|e| format!("lower: {e:?}"))?;

    let one_instr = EssentOptions {
        optimize: false,
        partition: false,
    };
    fn boxed(s: impl Simulator + 'static) -> Box<dyn Simulator> {
        Box::new(s)
    }
    type Build = Result<Box<dyn Simulator>, SimError>;
    let build: Vec<(&str, Build)> = vec![
        ("interp", InterpSim::new(&low).map(boxed)),
        (
            "compiled-raw",
            CompiledSim::new_with(&low, &OptOptions::none()).map(boxed),
        ),
        (
            "compiled-opt",
            CompiledSim::new_with(&low, &OptOptions::default()).map(boxed),
        ),
        ("essent", EssentSim::new_with(&low, &one_instr).map(boxed)),
        (
            "essent-part",
            EssentSim::new_with(&low, &EssentOptions::default()).map(boxed),
        ),
    ];
    let mut sims: Vec<(&str, Box<dyn Simulator>)> = Vec::new();
    for (name, r) in build {
        sims.push((name, r.map_err(|e| format!("{name}: {e}"))?));
    }

    let signals = sims[0].1.signals();
    for (name, sim) in &sims[1..] {
        if sim.signals() != signals {
            return Err(format!("{name}: signal set differs from interp"));
        }
    }
    let agree = |sims: &[(&str, Box<dyn Simulator>)], when: &str| -> Result<(), String> {
        for sig in &signals {
            let want = sims[0].1.peek(sig);
            for (name, sim) in &sims[1..] {
                let got = sim.peek(sig);
                if got != want {
                    return Err(format!("{when} `{sig}`: interp={want} {name}={got}"));
                }
            }
        }
        Ok(())
    };

    let mut s = Script::new(script);
    // skip the generator prefix so stimulus differs from structure
    for _ in 0..32 {
        s.next();
    }
    let cycles = 8 + (s.next() % 25) as usize;
    let n_inputs = 1 + (script.first().copied().unwrap_or(0) % 3) as usize;

    for (_, sim) in sims.iter_mut() {
        sim.reset(1);
    }
    for cycle in 0..cycles {
        let (addr, word) = (u64::from(s.next() % 8), u64::from(s.next_u16()));
        for (name, sim) in sims.iter_mut() {
            sim.write_mem("m", addr, word)
                .map_err(|e| format!("cycle {cycle} {name}: {e}"))?;
        }
        for i in 0..n_inputs {
            let v = u64::from(s.next_u16());
            for (_, sim) in sims.iter_mut() {
                sim.poke(&format!("in{i}"), v);
            }
        }
        // pre-step peeks exercise settle-under-poke on every backend
        agree(&sims, &format!("cycle {cycle} pre-step"))?;
        for (_, sim) in sims.iter_mut() {
            sim.step();
        }
    }
    agree(&sims, "final")?;

    let want = sims[0].1.cover_counts();
    for (name, sim) in &sims[1..] {
        let got = sim.cover_counts();
        if got != want {
            return Err(format!("cover maps differ: interp={want:?} {name}={got:?}"));
        }
    }
    Ok(EquivReport {
        cycles,
        signals: signals.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_circuits_parse_and_lower() {
        for seed in 0u8..16 {
            let script: Vec<u8> = (0..64)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            let src = generate_circuit(&script);
            let c = rtlcov_firrtl::parser::parse(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed {e:?}\n{src}"));
            rtlcov_firrtl::passes::lower(c)
                .unwrap_or_else(|e| panic!("seed {seed}: lower failed {e:?}\n{src}"));
        }
    }

    #[test]
    fn backends_agree_on_deterministic_scripts() {
        for seed in 0u8..24 {
            let script: Vec<u8> = (0..96)
                .map(|i| seed.wrapping_mul(17).wrapping_add(i ^ seed))
                .collect();
            let report = check_equivalence(&script).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(report.cycles >= 8);
            assert!(report.signals > 0, "seed {seed}: no signals compared");
        }
    }

    #[test]
    fn empty_script_is_a_valid_circuit() {
        check_equivalence(&[]).unwrap();
    }
}
