//! The one list of simulator configurations that must agree, [`CONFIGS`],
//! and the differential that compares them: [`agree`] (every signal) and
//! [`same_coverage`] (the cover maps). The fuzzer, [`check_equivalence`],
//! drives the list with circuits and stimulus generated from a byte
//! script: the optimizer/partitioner contract of pure performance, zero
//! observable difference, as an executable check.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlcov_core::CoverageMap;
use rtlcov_firrtl::ir::Circuit;
use rtlcov_sim::compiled::CompiledSim;
use rtlcov_sim::essent::EssentSim;
use rtlcov_sim::testbench::InputTrace;
use rtlcov_sim::{SimBuildOptions, SimError, SimKind, Simulator};

/// One simulator configuration: a backend and its build options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Stable name, also `bench_sim`'s row name.
    pub name: &'static str,
    /// The backend.
    pub kind: SimKind,
    /// Optimizer and partition knobs; the interpreter ignores both.
    pub options: SimBuildOptions,
}

const fn entry(name: &'static str, kind: SimKind, optimize: bool, partition: bool) -> SimConfig {
    let options = SimBuildOptions {
        optimize,
        partition,
    };
    SimConfig {
        name,
        kind,
        options,
    }
}

/// Every configuration that must agree, the reference first. After the
/// backend: optimize, then partition (`false`: one-instruction partitions).
pub const CONFIGS: [SimConfig; 6] = [
    entry("interp", SimKind::Interp, true, true),
    entry("compiled_raw", SimKind::Compiled, false, true),
    entry("compiled_opt", SimKind::Compiled, true, true),
    entry("essent_part", SimKind::Essent, true, true),
    entry("essent_1", SimKind::Essent, true, false),
    // the only configuration that runs constant-only instructions on the
    // activity engine: the optimizer folds them away everywhere else
    entry("essent_raw_1", SimKind::Essent, false, false),
];

/// The configuration called `name`; panics if [`CONFIGS`] has none.
pub fn config(name: &str) -> SimConfig {
    let found = CONFIGS.into_iter().find(|c| c.name == name);
    found.unwrap_or_else(|| panic!("no simulator configuration `{name}`"))
}

impl SimConfig {
    /// Build this configuration for a lowered circuit; an error names it.
    pub fn build(&self, low: &Circuit) -> Result<Box<dyn Simulator>, String> {
        let sim = self.kind.build_with(low, &self.options);
        sim.map_err(|e| format!("{}: {e}", self.name))
    }

    /// A compiled configuration as its concrete type, for its statistics.
    pub fn compiled(&self, low: &Circuit) -> Result<CompiledSim, SimError> {
        CompiledSim::new_with(low, &self.options.opt_options())
    }

    /// An essent configuration as its concrete type, for its statistics.
    pub fn essent(&self, low: &Circuit) -> Result<EssentSim, SimError> {
        EssentSim::new_with(low, &self.options)
    }
}

/// A simulator under its configuration's name.
pub type Named = (&'static str, Box<dyn Simulator>);

/// Every configuration in [`CONFIGS`], built for `low`.
fn build_all(low: &Circuit) -> Result<Vec<Named>, String> {
    let named = |c: &SimConfig| Ok((c.name, c.build(low)?));
    CONFIGS.iter().map(named).collect()
}

/// Build every configuration, run `drive` on each (its result is
/// dropped), then require [`agree`] and [`same_coverage`]. Returns the
/// reference's cover map and the simulators, for further comparisons.
pub fn differential<R>(
    low: &Circuit,
    mut drive: impl FnMut(&mut dyn Simulator) -> R,
) -> Result<(CoverageMap, Vec<Named>), String> {
    let mut sims = build_all(low)?;
    for (_, sim) in &mut sims {
        drive(sim.as_mut());
    }
    agree(&sims, "end")?;
    Ok((same_coverage(&sims)?, sims))
}

/// The reference (the first simulator) and the rest; a comparison needs
/// both.
fn split(sims: &[Named]) -> Result<(&Named, &[Named]), String> {
    let pair = sims.split_first().filter(|(_, rest)| !rest.is_empty());
    pair.ok_or_else(|| format!("{} simulator(s): nothing to compare", sims.len()))
}

/// Require every simulator to read the reference's value on each of
/// `signals`. An error names the first disagreement and `when`. Fewer than
/// two simulators or no signals is an error too: it would compare nothing.
pub fn agree_on(sims: &[Named], signals: &[String], when: &str) -> Result<(), String> {
    let ((reference, want_sim), others) = split(sims)?;
    if signals.is_empty() {
        return Err(format!("{when}: no signals to compare"));
    }
    for sig in signals {
        let want = want_sim.peek(sig);
        for (name, sim) in others {
            let got = sim.peek(sig);
            if got != want {
                return Err(format!("{when} `{sig}`: {reference}={want} {name}={got}"));
            }
        }
    }
    Ok(())
}

/// [`agree_on`] every signal, after requiring every simulator to expose
/// the reference's signal set. Returns the number of signals compared.
pub fn agree(sims: &[Named], when: &str) -> Result<usize, String> {
    let ((reference, want_sim), others) = split(sims)?;
    let signals = want_sim.signals();
    if let Some((name, _)) = others.iter().find(|(_, sim)| sim.signals() != signals) {
        return Err(format!("{name}: signal set differs from {reference}"));
    }
    agree_on(sims, &signals, when)?;
    Ok(signals.len())
}

/// Require every simulator's cover map to equal the reference's, and
/// return it. An error names the first differing cover point.
pub fn same_coverage(sims: &[Named]) -> Result<CoverageMap, String> {
    let ((reference, want_sim), others) = split(sims)?;
    let want = want_sim.cover_counts();
    for (name, sim) in others {
        let got = sim.cover_counts();
        let differs = |point: &&str| want.count(point) != got.count(point);
        let point = want.iter().chain(got.iter()).map(|(p, _)| p).find(differs);
        if let Some(point) = point {
            let (w, g) = (want.count(point), got.count(point));
            return Err(format!("cover `{point}`: {reference}={w:?} {name}={g:?}"));
        }
    }
    Ok(want)
}

/// Seeded random stimulus for a lowered circuit: one reset cycle, then
/// `cycles` cycles of random values on every other input (`poke` masks
/// each to its width).
pub fn random_trace(low: &Circuit, seed: u64, cycles: usize) -> Result<InputTrace, String> {
    let flat = rtlcov_sim::elaborate::elaborate(low).map_err(|e| format!("elaborate: {}", e.0))?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(InputTrace::record(
        flat.inputs.clone(),
        cycles + 1,
        |cycle| {
            let value = |name: &String| match (cycle, name == "reset") {
                (0, reset) => u64::from(reset),
                (_, true) => 0,
                (_, false) => rng.gen(),
            };
            flat.inputs.iter().map(value).collect()
        },
    ))
}

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

/// Generate a circuit and stimulus from `script` and require every
/// configuration in [`CONFIGS`] to [`agree`] with the interpreter before
/// each step and at the end, and to have the [`same_coverage`]. Every
/// cycle also issues one script-derived backdoor `write_mem` on every
/// simulator. An error names the first divergence or build failure.
pub fn check_equivalence(script: &[u8]) -> Result<EquivReport, String> {
    let src = generate_circuit(script);
    let circuit = rtlcov_firrtl::parser::parse(&src).map_err(|e| format!("parse: {e:?}"))?;
    let low = rtlcov_firrtl::passes::lower(circuit).map_err(|e| format!("lower: {e:?}"))?;
    let mut sims = build_all(&low)?;

    let mut s = Script::new(script);
    // skip the generator prefix so stimulus differs from structure
    s.pos = 32;
    let cycles = 8 + (s.next() % 25) as usize;
    let n_inputs = 1 + (script.first().copied().unwrap_or(0) % 3) as usize;

    for (_, sim) in sims.iter_mut() {
        sim.reset(1);
    }
    for cycle in 0..cycles {
        let (addr, word) = (u64::from(s.next() % 8), u64::from(s.next_u16()));
        let inputs: Vec<u64> = (0..n_inputs).map(|_| u64::from(s.next_u16())).collect();
        for (name, sim) in sims.iter_mut() {
            sim.write_mem("m", addr, word)
                .map_err(|e| format!("cycle {cycle} {name}: {e}"))?;
            for (i, v) in inputs.iter().enumerate() {
                sim.poke(&format!("in{i}"), *v);
            }
        }
        // pre-step peeks exercise settle-under-poke on every backend
        agree(&sims, &format!("cycle {cycle} pre-step"))?;
        for (_, sim) in sims.iter_mut() {
            sim.step();
        }
    }
    let signals = agree(&sims, "final")?;
    same_coverage(&sims)?;
    Ok(EquivReport { cycles, signals })
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

    /// A simulator that misreads one signal or one cover count.
    struct Perturbed {
        inner: Box<dyn Simulator>,
        signal: Option<String>,
        cover: Option<String>,
    }

    impl Simulator for Perturbed {
        fn poke(&mut self, signal: &str, value: u64) {
            self.inner.poke(signal, value);
        }
        fn peek(&self, signal: &str) -> u64 {
            let flip = u64::from(self.signal.as_deref() == Some(signal));
            self.inner.peek(signal) ^ flip
        }
        fn step(&mut self) {
            self.inner.step();
        }
        fn cover_counts(&self) -> CoverageMap {
            let mut map = self.inner.cover_counts();
            if let Some(point) = &self.cover {
                map.record_ref(point, 1);
            }
            map
        }
        fn write_mem(&mut self, mem: &str, addr: u64, value: u64) -> Result<(), SimError> {
            self.inner.write_mem(mem, addr, value)
        }
        fn read_mem(&self, mem: &str, addr: u64) -> Result<u64, SimError> {
            self.inner.read_mem(mem, addr)
        }
        fn signals(&self) -> Vec<String> {
            self.inner.signals()
        }
    }

    /// The reference and a perturbed compiled build of one generated
    /// circuit, after a few cycles.
    fn pair(signal: Option<&str>, cover: Option<&str>) -> Vec<Named> {
        let src = generate_circuit(&[7, 3, 11, 200, 5]);
        let low =
            rtlcov_firrtl::passes::lower(rtlcov_firrtl::parser::parse(&src).unwrap()).unwrap();
        let perturbed = Perturbed {
            inner: config("compiled_opt").build(&low).unwrap(),
            signal: signal.map(str::to_string),
            cover: cover.map(str::to_string),
        };
        let mut sims: Vec<Named> = vec![
            ("interp", config("interp").build(&low).unwrap()),
            ("perturbed", Box::new(perturbed)),
        ];
        for (_, sim) in &mut sims {
            sim.reset(1);
            sim.step_n(4);
        }
        sims
    }

    #[test]
    fn the_comparisons_report_a_perturbed_simulator() {
        let honest = pair(None, None);
        assert!(agree(&honest, "t").unwrap() > 0);
        let map = same_coverage(&honest).unwrap();

        let err = agree(&pair(Some("out"), None), "t").unwrap_err();
        assert!(err.contains("`out`: interp="), "{err}");
        same_coverage(&pair(Some("out"), None)).unwrap();

        let (point, _) = map.iter().next().expect("the circuit has covers");
        let err = same_coverage(&pair(None, Some(point))).unwrap_err();
        assert!(err.contains(&format!("`{point}`")), "{err}");
        agree(&pair(None, Some(point)), "t").unwrap();
    }

    #[test]
    fn comparing_nothing_is_an_error() {
        let mut sims = pair(None, None);
        assert!(agree_on(&sims, &[], "t").is_err());
        sims.truncate(1);
        assert!(agree(&sims, "t").is_err());
        assert!(same_coverage(&sims).is_err());
        assert!(agree_on(&[], &["out".to_string()], "t").is_err());
    }
}
