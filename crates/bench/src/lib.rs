//! # rtlcov-bench
//!
//! Shared plumbing for the benchmark binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §4 for the experiment index).
//! Each `src/bin/*.rs` binary prints the rows/series of one table or
//! figure; `bench_sim` and `bench_db` write the committed `BENCH_*.json`
//! tables.

#![warn(missing_docs)]

use rtlcov_core::instrument::{CoverageCompiler, Instrumented, Metrics};
use rtlcov_core::json::Json;
use rtlcov_designs::workloads::Workload;
use rtlcov_sim::compiled::CompiledSim;
use rtlcov_sim::Simulator;
use std::time::{Duration, Instant};

/// Instrument a workload's circuit with the given metrics and build a
/// compiled simulator for it.
///
/// # Panics
///
/// Panics on lowering or simulator construction failure (bench designs
/// are known-good).
pub fn instrumented_sim(workload: &Workload, metrics: Metrics) -> (CompiledSim, Instrumented) {
    let inst = CoverageCompiler::new(metrics)
        .run(workload.circuit.clone())
        .expect("benchmark designs lower cleanly");
    let sim = CompiledSim::new(&inst.circuit).expect("benchmark designs compile");
    (sim, inst)
}

/// Run a closure and return its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Integer microseconds elapsed since `from` (the `BENCH_*.json` time
/// unit: the workspace's mini-JSON is integer-only by design).
pub fn micros(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// `count` events over `elapsed_us` microseconds, as a per-second rate.
pub fn per_second(count: u64, elapsed_us: u64) -> u64 {
    if elapsed_us == 0 {
        return u64::MAX;
    }
    count.saturating_mul(1_000_000) / elapsed_us
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Replay a workload (loading its program if any) and return the elapsed
/// simulation time.
pub fn run_workload(workload: &Workload, sim: &mut dyn Simulator) -> Duration {
    if let Some((imem, dmem, program)) = &workload.program {
        program.load(sim, imem, dmem).expect("program fits");
    }
    let (_counts, elapsed) = timed(|| workload.trace.replay(sim));
    elapsed
}

/// Number of runtime cover points of an instrumented circuit (covers per
/// instance, i.e. what a simulator reports).
pub fn runtime_cover_count(inst: &Instrumented) -> usize {
    rtlcov_sim::elaborate::elaborate(&inst.circuit)
        .map(|f| f.covers.len())
        .unwrap_or(0)
}

/// Simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Add a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let cols = self.rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                out.push_str(c);
                out.push_str(&" ".repeat(pad + 2));
            }
            out.push('\n');
        }
        out
    }
}

/// Environment-variable override for experiment scale (`RTLCOV_SCALE`),
/// defaulting to `default_scale`. Benchmarks document their row counts at
/// scale 1.
pub fn scale(default_scale: usize) -> usize {
    std::env::var("RTLCOV_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcov_designs::workloads::gcd_workload;

    #[test]
    fn instrumented_sim_builds_and_runs() {
        let w = gcd_workload(2);
        let (mut sim, inst) = instrumented_sim(&w, Metrics::line_only());
        assert!(inst.artifacts.line.cover_count() > 0);
        let elapsed = run_workload(&w, &mut sim);
        assert!(elapsed.as_nanos() > 0);
        let counts = sim.cover_counts();
        assert!(counts.covered() > 0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new();
        t.row(vec!["a".into(), "long-cell".into()]);
        t.row(vec!["longer".into(), "b".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("a       long-cell"));
    }

    #[test]
    fn runtime_covers_count_instances() {
        let w = rtlcov_designs::workloads::riscv_mini_workload(1);
        let (_, inst) = instrumented_sim(&w, Metrics::line_only());
        let per_module = inst.artifacts.line.cover_count();
        let runtime = runtime_cover_count(&inst);
        // Cache is instantiated twice, so runtime covers exceed module covers
        assert!(runtime > per_module, "{runtime} vs {per_module}");
    }
}
