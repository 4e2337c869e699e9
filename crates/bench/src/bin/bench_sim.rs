//! The simulator benchmark: the compiled and activity-driven backends on
//! every campaign design, stimulated and idle, with all coverage metrics.
//!
//! Each campaign design is instrumented with `Metrics::all()` (what a
//! campaign runs) and replayed twice: on its campaign workload, and as
//! `<name>-idle` — reset, then constant-zero inputs with no program
//! loaded, so riscv-mini spins in its fetch state. Every workload runs
//! four entries of `rtlcov_fuzz::equivalence::CONFIGS`, named in
//! [`TIMED`], and they must return the same cover map. `essent_1`'s
//! instruction activity is the share of instructions whose inputs
//! changed: the ESSENT premise that an idle design executes a small share
//! of its program.
//!
//! Reports cycles/second (best of [`REPS`]) and program size per
//! configuration, plus executed-instruction and executed-partition
//! activity for essent. Writes `BENCH_sim.json` (or `$1`) and prints a
//! summary. Times are integer microseconds and ratios permille, because
//! the workspace's mini-JSON is integer-only by design. `RTLCOV_SCALE`
//! multiplies the stimulus length (default 1).

use rtlcov_bench::{micros, obj, per_second, scale};
use rtlcov_core::instrument::{CoverageCompiler, Metrics};
use rtlcov_core::json::Json;
use rtlcov_designs::workloads::{campaign_workload, Workload};
use rtlcov_fuzz::equivalence::{config, same_coverage};
use rtlcov_sim::compiled::CompiledSim;
use rtlcov_sim::essent::EssentSim;
use rtlcov_sim::testbench::InputTrace;
use rtlcov_sim::{SimError, SimKind, Simulator};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-design stimulus scale at `RTLCOV_SCALE=1`, sized so each run takes
/// long enough to time but the full sweep stays CI-friendly.
const DESIGNS: [(&str, usize); 7] = [
    ("gcd", 12),
    ("queue", 30),
    ("tlram", 20),
    ("serv", 10),
    ("neuroproc", 10),
    ("i2c", 20),
    ("riscv-mini", 2),
];

/// Timing repetitions per configuration; the minimum is reported
/// (standard best-of-N to shed scheduler noise).
const REPS: usize = 3;

/// Idle-variant cycle count at `RTLCOV_SCALE=1`.
const IDLE_CYCLES: usize = 20_000;

/// The configurations every workload runs, by row name: compiled without
/// and with the optimizer, and essent with default and with
/// one-instruction partitions.
const TIMED: [&str; 4] = ["compiled_raw", "compiled_opt", "essent_part", "essent_1"];

fn compiled_stats(sim: &CompiledSim) -> Vec<(&'static str, Json)> {
    vec![("instrs", Json::UInt(sim.opt_stats().instrs_after as u64))]
}

fn essent_stats(sim: &EssentSim) -> Vec<(&'static str, Json)> {
    let permille = |f: f64| Json::UInt((f.clamp(0.0, 1.0) * 1000.0).round() as u64);
    vec![
        ("instrs", Json::UInt(sim.opt_stats().instrs_after as u64)),
        ("instr_activity_permille", permille(sim.activity_factor())),
        (
            "partition_activity_permille",
            permille(sim.partition_activity().unwrap_or(1.0)),
        ),
        ("partitions", Json::UInt(sim.partitions() as u64)),
    ]
}

/// An idle variant: same circuit, reset then constant-zero inputs and no
/// program — the low-activity regime where a quiescent design should cost
/// almost nothing to simulate.
fn idle_variant(base: &Workload, cycles: usize) -> Workload {
    let inputs = base.trace.inputs.clone();
    let mut trace = InputTrace::new(inputs.clone());
    trace.push(inputs.iter().map(|n| u64::from(n == "reset")).collect());
    for _ in 0..cycles {
        trace.push(vec![0; inputs.len()]);
    }
    Workload {
        name: base.name,
        circuit: base.circuit.clone(),
        trace,
        program: None,
    }
}

/// Best-of-[`REPS`] replay of one configuration: its JSON row (time and
/// rate, then `stats`, which do not depend on the repetition) and the
/// last simulator run.
fn time<S: Simulator + 'static>(
    workload: &Workload,
    build: impl Fn() -> Result<S, SimError>,
    stats: fn(&S) -> Vec<(&'static str, Json)>,
) -> (Json, Box<dyn Simulator>) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let mut sim = build().expect("benchmark designs compile");
        let start = Instant::now();
        let map = workload.run(&mut sim);
        best = best.min(micros(start));
        assert!(!map.is_empty(), "instrumentation must yield cover points");
        last = Some(sim);
    }
    let last = last.expect("REPS > 0");
    let cycles = workload.trace.cycles() as u64;
    let mut entries = vec![
        ("us", Json::UInt(best)),
        ("cycles_per_sec", Json::UInt(per_second(cycles, best))),
    ];
    entries.extend(stats(&last));
    (obj(entries), Box::new(last))
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".into());
    let scale = scale(1);

    let mut designs = BTreeMap::new();
    for (design, s) in DESIGNS {
        let busy = campaign_workload(design, 0, s * scale).expect("campaign design");
        let idle = idle_variant(&busy, IDLE_CYCLES * scale);
        let inst = CoverageCompiler::new(Metrics::all())
            .run(busy.circuit.clone())
            .expect("instrument");
        for (name, workload) in [
            (busy.name.to_string(), &busy),
            (format!("{}-idle", busy.name), &idle),
        ] {
            let mut entries = vec![("cycles", Json::UInt(workload.trace.cycles() as u64))];
            let mut line = format!("{name:<16} {:>7} cycles |", workload.trace.cycles());
            let mut sims = Vec::new();
            for cfg in TIMED.map(config) {
                let c = &inst.circuit;
                let (row, sim) = match cfg.kind {
                    SimKind::Compiled => time(workload, || cfg.compiled(c), compiled_stats),
                    SimKind::Essent => time(workload, || cfg.essent(c), essent_stats),
                    SimKind::Interp => unreachable!("bench_sim times compiled programs"),
                };
                sims.push((cfg.name, sim));
                let cps = row
                    .get("cycles_per_sec")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                line += &format!(" {} {cps}/s", cfg.name);
                if let Some(a) = row.get("instr_activity_permille").and_then(Json::as_u64) {
                    line += &format!(" ({a}‰)");
                }
                entries.push((cfg.name, row));
            }
            same_coverage(&sims).unwrap_or_else(|e| panic!("{name}: {e}"));
            println!("{line}");
            designs.insert(name, obj(entries));
        }
    }

    let report = obj(vec![
        ("version", Json::UInt(2)),
        ("scale", Json::UInt(scale as u64)),
        ("designs", Json::Object(designs)),
    ]);
    let text = report.to_string();
    // self-check: the report must round-trip through the workspace parser
    rtlcov_core::json::parse(&text).expect("report is valid mini-JSON");
    std::fs::write(&out, &text).expect("write BENCH_sim.json");
    println!("wrote {out}");
}
