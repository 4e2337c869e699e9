//! Random-stimulus equivalence across every simulator configuration of
//! `rtlcov::fuzz::equivalence` for every benchmark design: each signal,
//! hierarchical ones included, and the cover map must equal the
//! interpreter's at the end (complementing the riscv-mini-focused
//! `backend_equivalence.rs`).

use rtlcov::core::instrument::{CoverageCompiler, Metrics};
use rtlcov::firrtl::Circuit;
use rtlcov::fuzz::equivalence::{differential, random_trace};

fn check_design(circuit: Circuit, cycles: usize) {
    let inst = CoverageCompiler::new(Metrics::all()).run(circuit).unwrap();
    let trace = random_trace(&inst.circuit, 42, cycles).unwrap();
    let (map, _) = differential(&inst.circuit, |sim| trace.replay(sim)).unwrap();
    assert!(map.covered() > 0, "random stimulus covers something");
}

#[test]
fn gcd_equivalence() {
    check_design(rtlcov::designs::gcd::gcd(16), 300);
}

#[test]
fn tlram_equivalence() {
    check_design(rtlcov::designs::tlram::tlram(32, 64), 300);
}

#[test]
fn serv_equivalence() {
    check_design(rtlcov::designs::serv_like::serv_like(16), 300);
}

#[test]
fn neuroproc_equivalence() {
    check_design(rtlcov::designs::neuroproc_like::neuroproc_like(8), 300);
}

#[test]
fn i2c_equivalence() {
    check_design(rtlcov::designs::i2c::i2c(), 500);
}

#[test]
fn queue_equivalence() {
    check_design(rtlcov::designs::queue::queue(8, 4), 300);
}

#[test]
fn fsm_examples_equivalence() {
    check_design(rtlcov::designs::fsm_examples::figure7(), 200);
    check_design(rtlcov::designs::fsm_examples::traffic_light(), 200);
}
