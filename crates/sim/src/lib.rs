//! # rtlcov-sim
//!
//! Software simulator backends implementing the paper's simulator-
//! independent cover interface (§3). Three backends with the same
//! architectural split as the paper's targets:
//!
//! * [`interp::InterpSim`] — a tree-walking interpreter with fast spin-up
//!   (the Treadle analog, §3.1);
//! * [`compiled::CompiledSim`] — dense compiled evaluation (the Verilator
//!   analog, §3.2), with an optional *native* structural-coverage mode used
//!   as the built-in-coverage baseline of Figure 8;
//! * [`essent::EssentSim`] — activity-driven evaluation that skips
//!   quiescent logic (the ESSENT analog, §3.5).
//!
//! All of them implement [`Simulator`] and report the same
//! [`rtlcov_core::CoverageMap`], so coverage merges trivially across
//! backends.

#![warn(missing_docs)]

pub mod compile;
pub mod compiled;
pub mod elaborate;
pub mod essent;
pub mod interp;
pub mod opt;
pub mod partition;
pub mod testbench;
pub mod vcd;

use rtlcov_core::CoverageMap;
use rtlcov_firrtl::ir::Circuit;
use std::fmt;

/// Error raised by simulator construction or memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulator error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// A step budget shared by every backend: each [`Simulator::step`] call
/// consumes one unit, and once the tank is dry further steps are refused
/// (recorded as starvation) instead of executed. Campaign runners use
/// this to turn runaway workloads into deterministic timeouts whose
/// partial coverage is still usable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fuel {
    remaining: Option<u64>,
    starved: bool,
}

impl Fuel {
    /// No budget: every step is allowed.
    pub fn unlimited() -> Self {
        Fuel::default()
    }

    /// Install a budget of `fuel` steps (clearing any prior starvation).
    pub fn set(&mut self, fuel: u64) {
        self.remaining = Some(fuel);
        self.starved = false;
    }

    /// Try to consume one unit. Returns `false` — and records starvation —
    /// when the budget is exhausted; unlimited fuel always succeeds.
    pub fn consume(&mut self) -> bool {
        match &mut self.remaining {
            None => true,
            Some(0) => {
                self.starved = true;
                false
            }
            Some(n) => {
                *n -= 1;
                true
            }
        }
    }

    /// Whether a step has been refused for lack of fuel.
    pub fn starved(&self) -> bool {
        self.starved
    }

    /// Remaining budget (`None` = unlimited).
    pub fn remaining(&self) -> Option<u64> {
        self.remaining
    }
}

/// The paper's simulator interface: drive inputs, step the clock, and read
/// back a map from cover-point name to saturating count.
pub trait Simulator {
    /// Drive a top-level input (masked to its width).
    ///
    /// # Panics
    ///
    /// Implementations may panic on unknown signal names.
    fn poke(&mut self, signal: &str, value: u64);

    /// Read any signal's current value (after combinational settle).
    /// Backends settle lazily through interior mutability, so peeking
    /// never requires `&mut`.
    fn peek(&self, signal: &str) -> u64;

    /// Advance one clock cycle: settle combinational logic, sample covers
    /// on the rising edge, commit registers and memory writes.
    fn step(&mut self);

    /// Advance `n` cycles.
    fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Assert the `reset` input for `cycles` cycles, then deassert.
    fn reset(&mut self, cycles: usize) {
        self.poke("reset", 1);
        self.step_n(cycles);
        self.poke("reset", 0);
    }

    /// Install a fuel budget of `fuel` clock steps. Once the budget is
    /// exhausted, [`Simulator::step`] becomes a refusal (state freezes and
    /// [`Simulator::out_of_fuel`] turns true) rather than an execution.
    /// Backends without a budget implementation may ignore the call.
    fn set_fuel(&mut self, fuel: u64) {
        let _ = fuel;
    }

    /// Whether a step has been refused because the fuel budget ran dry.
    /// Drivers (e.g. trace replay) should stop stepping once this is true;
    /// the coverage accumulated so far remains valid as a partial result.
    fn out_of_fuel(&self) -> bool {
        false
    }

    /// The cover-point counts accumulated so far (the §3 interface).
    fn cover_counts(&self) -> CoverageMap;

    /// Backdoor memory write (program loading).
    ///
    /// # Errors
    ///
    /// Unknown memory name or out-of-range address.
    fn write_mem(&mut self, mem: &str, addr: u64, value: u64) -> Result<(), SimError>;

    /// Backdoor memory read.
    ///
    /// # Errors
    ///
    /// Unknown memory name or out-of-range address.
    fn read_mem(&self, mem: &str, addr: u64) -> Result<u64, SimError>;

    /// All signal names, sorted.
    fn signals(&self) -> Vec<String>;
}

/// The software simulator backends as selectable values — the uniform
/// construction entry point campaign runners fan jobs out over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimKind {
    /// Tree-walking interpreter ([`interp::InterpSim`], Treadle analog).
    Interp,
    /// Dense compiled evaluation ([`compiled::CompiledSim`], Verilator
    /// analog).
    Compiled,
    /// Activity-driven evaluation ([`essent::EssentSim`], ESSENT analog).
    Essent,
}

impl SimKind {
    /// Every software backend, in a stable order.
    pub const ALL: [SimKind; 3] = [SimKind::Interp, SimKind::Compiled, SimKind::Essent];

    /// Stable lower-case name (CLI/report identifier).
    pub fn name(&self) -> &'static str {
        match self {
            SimKind::Interp => "interp",
            SimKind::Compiled => "compiled",
            SimKind::Essent => "essent",
        }
    }

    /// Parse a [`SimKind::name`] back into a kind.
    pub fn parse(name: &str) -> Option<SimKind> {
        SimKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Build this backend for a lowered circuit with default options
    /// (optimizer and partitioning on), honoring
    /// [`SimBuildOptions::from_env`].
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures (elaboration errors,
    /// combinational loops).
    pub fn build(&self, circuit: &Circuit) -> Result<Box<dyn Simulator>, SimError> {
        self.build_with(circuit, &SimBuildOptions::from_env())
    }

    /// Build this backend with explicit pipeline options. The interpreter
    /// has no compiled program, so it ignores both knobs.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction failures (elaboration errors,
    /// combinational loops).
    pub fn build_with(
        &self,
        circuit: &Circuit,
        opts: &SimBuildOptions,
    ) -> Result<Box<dyn Simulator>, SimError> {
        Ok(match self {
            SimKind::Interp => Box::new(interp::InterpSim::new(circuit)?),
            SimKind::Compiled => Box::new(compiled::CompiledSim::new_with(
                circuit,
                &opts.opt_options(),
            )?),
            SimKind::Essent => Box::new(essent::EssentSim::new_with(circuit, opts)?),
        })
    }
}

/// Backend-agnostic pipeline knobs for [`SimKind::build_with`] — the
/// subset of per-backend options a campaign can configure uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBuildOptions {
    /// Run the micro-op program optimizer (compiled and essent backends).
    pub optimize: bool,
    /// Partitions of up to [`partition::DEFAULT_MAX_PARTITION`]
    /// instructions; `false` gives one-instruction partitions (essent
    /// backend).
    pub partition: bool,
}

impl Default for SimBuildOptions {
    fn default() -> Self {
        SimBuildOptions {
            optimize: true,
            partition: true,
        }
    }
}

impl SimBuildOptions {
    /// Defaults, honoring the `RTLCOV_SIM_NO_OPT` escape hatch (set to any
    /// value to turn the optimizer off). The only reader of the
    /// environment in the simulator pipeline.
    pub fn from_env() -> Self {
        SimBuildOptions {
            optimize: std::env::var_os("RTLCOV_SIM_NO_OPT").is_none(),
            ..SimBuildOptions::default()
        }
    }

    /// The optimizer passes `optimize` selects: all of them or none.
    pub fn opt_options(&self) -> opt::OptOptions {
        if self.optimize {
            opt::OptOptions::default()
        } else {
            opt::OptOptions::none()
        }
    }
}
