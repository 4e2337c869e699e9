//! # rtlcov
//!
//! A from-scratch Rust reproduction of *Simulator Independent Coverage for
//! RTL Hardware Languages* (ASPLOS 2023): automated coverage metrics
//! implemented as compiler passes over a FIRRTL-subset IR, lowered to a
//! single `cover` primitive that five very different backends implement —
//! three software simulators, an emulated FPGA-accelerated simulator with
//! coverage scan chains, and a SAT-based formal engine.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`firrtl`] — IR, parser, Chisel-like builder, lowering passes;
//! * [`core`] — the coverage passes, report generators, and the
//!   `CoverageMap` interchange format (the paper's contribution);
//! * [`sim`] — interpreter / compiled / activity-driven simulators;
//! * [`fpga`] — scan-chain pass, emulated FPGA host, resource model;
//! * [`formal`] — CDCL SAT solver + bounded model checking;
//! * [`fuzz`] — AFL-style coverage-guided fuzzing;
//! * [`designs`] — the benchmark circuits (riscv-mini analog, TLRAM, ...);
//! * [`campaign`] — parallel multi-backend coverage campaigns with
//!   sharded merging and saturation-aware scheduling;
//! * [`db`] — embedded append-only coverage database: checksummed
//!   segments, string interning, name-id-space queries, HTTP serving.
//!
//! Start with `examples/quickstart.rs`.

#![warn(missing_docs)]

pub use rtlcov_campaign as campaign;
pub use rtlcov_core as core;
pub use rtlcov_db as db;
pub use rtlcov_designs as designs;
pub use rtlcov_firrtl as firrtl;
pub use rtlcov_formal as formal;
pub use rtlcov_fpga as fpga;
pub use rtlcov_fuzz as fuzz;
pub use rtlcov_sim as sim;
