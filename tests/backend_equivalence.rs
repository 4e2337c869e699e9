//! Cross-backend equivalence: the paper's §3 claim that every backend
//! reports the *same* coverage interface. We run identical stimulus on
//! every simulator configuration of `rtlcov::fuzz::equivalence` (Treadle,
//! Verilator and ESSENT analogs) and on the emulated FPGA host (FireSim
//! analog), and require bit-identical `CoverageMap`s.

use rtlcov::core::instrument::{CoverageCompiler, Metrics};
use rtlcov::core::CoverageMap;
use rtlcov::designs::programs::{isa_suite, Program};
use rtlcov::designs::riscv_mini::riscv_mini_with;
use rtlcov::firrtl::Circuit;
use rtlcov::fpga::{insert_scan_chain, FpgaHost};
use rtlcov::fuzz::equivalence::{config, differential, CONFIGS};
use rtlcov::sim::{compiled::CompiledSim, Simulator};

const CYCLES: usize = 1200;

fn run_program(sim: &mut dyn Simulator, p: &Program) -> CoverageMap {
    p.load(sim, "icache.mem", "dcache.mem").unwrap();
    sim.reset(2);
    sim.step_n(CYCLES);
    sim.cover_counts()
}

/// Run `p` on the FPGA host with `width`-bit cover counters.
fn run_on_fpga(circuit: &Circuit, p: &Program, width: u32) -> CoverageMap {
    let mut fpga_circuit = circuit.clone();
    let info = insert_scan_chain(&mut fpga_circuit, width).unwrap();
    let mut host = FpgaHost::new(&fpga_circuit, info).unwrap();
    for (addr, word) in p.text.iter().enumerate() {
        host.write_mem("icache.mem", addr as u64, *word as u64)
            .unwrap();
    }
    host.reset(2);
    host.run(CYCLES as u64);
    host.scan_out_counts().0
}

#[test]
fn software_backends_agree_on_riscv_mini() {
    let inst = CoverageCompiler::new(Metrics::all())
        .run(riscv_mini_with(256))
        .unwrap();
    // the programs are independent and the interpreter dominates: one
    // thread each (a panicking thread fails the scope)
    std::thread::scope(|scope| {
        for (name, program) in isa_suite() {
            let circuit = &inst.circuit;
            scope.spawn(move || {
                let run = |sim: &mut dyn Simulator| run_program(sim, &program);
                let (map, _) = differential(circuit, run).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(map.covered() > 0, "{name} covers something");
            });
        }
    });
}

#[test]
fn fpga_host_agrees_with_software() {
    // wide counters so no saturation differences
    let inst = CoverageCompiler::new(Metrics::line_only())
        .run(riscv_mini_with(256))
        .unwrap();
    let (_, program) = isa_suite().remove(0);

    let mut sw = CompiledSim::new(&inst.circuit).unwrap();
    let sw_counts = run_program(&mut sw, &program);

    let fpga_counts = run_on_fpga(&inst.circuit, &program, 32);

    assert_eq!(sw_counts, fpga_counts);
}

#[test]
fn narrow_fpga_counters_saturate_but_preserve_coverage_set() {
    let inst = CoverageCompiler::new(Metrics::line_only())
        .run(riscv_mini_with(256))
        .unwrap();
    let (_, program) = isa_suite().remove(4); // memory test
    let mut sw = CompiledSim::new(&inst.circuit).unwrap();
    let sw_counts = run_program(&mut sw, &program);

    let fpga_counts = run_on_fpga(&inst.circuit, &program, 2);

    // counts saturate at 3, but the covered/uncovered *set* is identical —
    // "as long as we are only interested in finding lines that have never
    // been covered, small counters offer minimal area overhead" (§5.2)
    for (name, sw_count) in sw_counts.iter() {
        let fpga_count = fpga_counts.count(name).unwrap();
        assert_eq!(sw_count.min(3), fpga_count.min(3), "{name}");
        assert_eq!(sw_count == 0, fpga_count == 0, "{name}");
    }
}

#[test]
fn merging_across_backends_is_exact() {
    let inst = CoverageCompiler::new(Metrics::line_only())
        .run(riscv_mini_with(256))
        .unwrap();
    // a union of per-configuration runs equals one of same-configuration runs
    let mut merged_mixed = CoverageMap::new();
    let mut merged_same = CoverageMap::new();
    for (mixed, (_, program)) in CONFIGS.iter().zip(&isa_suite()) {
        for (cfg, merged) in [
            (mixed, &mut merged_mixed),
            (&config("compiled_opt"), &mut merged_same),
        ] {
            let mut sim = cfg.build(&inst.circuit).unwrap();
            merged.merge(&run_program(sim.as_mut(), program));
        }
    }
    assert_eq!(merged_same, merged_mixed);
}
