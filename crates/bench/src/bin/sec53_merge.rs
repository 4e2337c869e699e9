//! **§5.3**: coverage merging and removal.
//!
//! Run the RISC-V ISA test suite on the software simulator, merge the
//! per-test coverage maps (trivial by construction), and remove the cover
//! points hit at least 10 times before building the FPGA image. The paper
//! removes 42 % of counters and cuts the 32-bit LUT overhead from 2.8× to
//! 2.0×.

use rtlcov_bench::{runtime_cover_count, Table};
use rtlcov_core::instrument::{CoverageCompiler, Metrics};
use rtlcov_core::passes::remove::remove_covered;
use rtlcov_core::CoverageMap;
use rtlcov_designs::workloads::riscv_isa_workloads;
use rtlcov_fpga::{estimate, insert_scan_chain};
use rtlcov_sim::compiled::CompiledSim;

fn main() {
    println!("§5.3: coverage merging and removal (riscv-mini, ISA suite, threshold 10)");
    println!("(paper: 42% of counters removed; 32-bit LUT overhead 2.8x -> 2.0x)\n");
    let inst = CoverageCompiler::new(Metrics::line_only())
        .run(rtlcov_designs::riscv_mini::riscv_mini())
        .expect("riscv-mini lowers");
    let total = runtime_cover_count(&inst);

    // run each ISA test and merge the maps
    let mut merged = CoverageMap::new();
    let mut table = Table::new();
    table.row(vec![
        "test".into(),
        "covered".into(),
        "merged so far".into(),
    ]);
    for w in riscv_isa_workloads(800) {
        let mut sim = CompiledSim::new(&inst.circuit).expect("compiles");
        let counts = w.run(&mut sim);
        merged.merge(&counts);
        table.row(vec![
            w.name.to_string(),
            format!("{}/{}", counts.covered(), counts.len()),
            format!("{}/{}", merged.covered(), merged.len()),
        ]);
    }
    println!("{}", table.render());

    // removal
    let mut removed_circuit = inst.circuit.clone();
    let stats = remove_covered(&mut removed_circuit, &merged, 10);
    println!(
        "cover statements: {} declared ({total} runtime points); {} remain after removal",
        stats.before, stats.after
    );
    println!("removed: {:.0}%\n", stats.removed_fraction() * 100.0);

    // LUT impact at 32-bit counters
    let mut base = inst.circuit.clone();
    remove_covered(&mut base, &CoverageMap::new(), 0); // strip all covers
    let base_luts = estimate(&base).luts;
    let mut full = inst.circuit.clone();
    insert_scan_chain(&mut full, 32).expect("scan chain");
    let full_luts = estimate(&full).luts;
    insert_scan_chain(&mut removed_circuit, 32).expect("scan chain");
    let removed_luts = estimate(&removed_circuit).luts;
    println!("32-bit counters, LUTs: baseline {base_luts}, full {full_luts} ({:.2}x), after removal {removed_luts} ({:.2}x)",
        full_luts as f64 / base_luts as f64, removed_luts as f64 / base_luts as f64);
}
