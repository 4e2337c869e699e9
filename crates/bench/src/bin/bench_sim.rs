//! Software-simulator benchmark: the micro-op optimizer and partitioned
//! activity scheduling, A/B'd against the unoptimized compiled pipeline.
//!
//! Every campaign design (plus two deliberately idle variants, where
//! activity scheduling shines) is instrumented with line coverage and
//! replayed on three configurations:
//!
//! 1. **compiled-raw** — the straight-line executor, optimizer off;
//! 2. **compiled-opt** — the same executor on the optimized program;
//! 3. **essent-part**  — the partitioned worklist engine on the optimized
//!    program (the default pipeline).
//!
//! Reports cycles/second per configuration, the executed-instruction and
//! executed-partition activity ratios, the optimizer's static shrink, and
//! the resulting speedups. Writes `BENCH_sim.json` (or `$1`) and prints a
//! summary. Times are integer microseconds and ratios permille, because
//! the workspace's mini-JSON is integer-only by design. `RTLCOV_SCALE`
//! multiplies the stimulus length (default 1).

use rtlcov_core::instrument::{CoverageCompiler, Metrics};
use rtlcov_core::json::Json;
use rtlcov_designs::workloads::{campaign_workload, Workload};
use rtlcov_firrtl::ir::Circuit;
use rtlcov_sim::compiled::CompiledSim;
use rtlcov_sim::essent::{EssentOptions, EssentSim};
use rtlcov_sim::opt::{OptOptions, OptStats};
use rtlcov_sim::testbench::InputTrace;
use rtlcov_sim::Simulator;
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

fn micros(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn per_second(count: u64, elapsed_us: u64) -> u64 {
    if elapsed_us == 0 {
        return u64::MAX;
    }
    count.saturating_mul(1_000_000) / elapsed_us
}

fn permille(num: u64, den: u64) -> u64 {
    num.saturating_mul(1000) / den.max(1)
}

fn fraction_permille(f: f64) -> u64 {
    (f.clamp(0.0, 1.0) * 1000.0).round() as u64
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// An idle variant: same circuit, reset then constant-zero inputs — the
/// low-activity regime where a quiescent design should cost almost
/// nothing to simulate.
fn idle_variant(base: Workload, idle_name: &'static str, cycles: usize) -> Workload {
    let inputs = base.trace.inputs.clone();
    let mut trace = InputTrace::new(inputs.clone());
    let reset_row: Vec<u64> = inputs.iter().map(|n| u64::from(n == "reset")).collect();
    trace.push(reset_row);
    for _ in 0..cycles {
        trace.push(vec![0; inputs.len()]);
    }
    Workload {
        name: idle_name,
        circuit: base.circuit,
        trace,
        program: base.program,
    }
}

struct ConfigRun {
    us: u64,
    cps: u64,
    activity_permille: Option<u64>,
    partition_activity_permille: Option<u64>,
    partitions: Option<usize>,
    opt: Option<OptStats>,
}

/// Best-of-[`REPS`] replay time; returns the last simulator so callers
/// can read its (deterministic, rep-independent) activity statistics.
fn time_run<S: Simulator>(workload: &Workload, mut mk: impl FnMut() -> S) -> (u64, S) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..REPS {
        let mut sim = mk();
        let start = Instant::now();
        let map = workload.run(&mut sim);
        best = best.min(micros(start));
        assert!(!map.is_empty(), "instrumentation must yield cover points");
        last = Some(sim);
    }
    (best, last.expect("REPS > 0"))
}

fn run_configs(workload: &Workload, inst: &Circuit) -> Vec<(&'static str, ConfigRun)> {
    let cycles = workload.trace.cycles() as u64;
    let mut out = Vec::new();

    let (us, _) = time_run(workload, || {
        CompiledSim::new_with(inst, &OptOptions::none()).expect("compiled-raw")
    });
    out.push((
        "compiled_raw",
        ConfigRun {
            us,
            cps: per_second(cycles, us),
            activity_permille: None,
            partition_activity_permille: None,
            partitions: None,
            opt: None,
        },
    ));

    let (us, sim) = time_run(workload, || {
        CompiledSim::new_with(inst, &OptOptions::default()).expect("compiled-opt")
    });
    out.push((
        "compiled_opt",
        ConfigRun {
            us,
            cps: per_second(cycles, us),
            activity_permille: None,
            partition_activity_permille: None,
            partitions: None,
            opt: Some(sim.opt_stats()),
        },
    ));

    let (us, sim) = time_run(workload, || {
        EssentSim::new_with(inst, &EssentOptions::default()).expect("essent-part")
    });
    out.push((
        "essent_part",
        ConfigRun {
            us,
            cps: per_second(cycles, us),
            activity_permille: Some(fraction_permille(sim.activity_factor())),
            partition_activity_permille: sim.partition_activity().map(fraction_permille),
            partitions: Some(sim.partitions()),
            opt: Some(sim.opt_stats()),
        },
    ));
    out
}

fn config_json(run: &ConfigRun) -> Json {
    let mut entries = vec![
        ("us", Json::UInt(run.us)),
        ("cycles_per_sec", Json::UInt(run.cps)),
    ];
    if let Some(a) = run.activity_permille {
        entries.push(("instr_activity_permille", Json::UInt(a)));
    }
    if let Some(p) = run.partition_activity_permille {
        entries.push(("partition_activity_permille", Json::UInt(p)));
    }
    if let Some(n) = run.partitions {
        entries.push(("partitions", Json::UInt(n as u64)));
    }
    if let Some(s) = run.opt {
        entries.push((
            "opt",
            obj(vec![
                ("instrs_before", Json::UInt(s.instrs_before as u64)),
                ("instrs_after", Json::UInt(s.instrs_after as u64)),
                ("slots_before", Json::UInt(s.slots_before as u64)),
                ("slots_after", Json::UInt(s.slots_after as u64)),
                ("folded", Json::UInt(s.folded as u64)),
                ("peephole", Json::UInt(s.peephole as u64)),
                ("copy_propagated", Json::UInt(s.copy_propagated as u64)),
                ("cse", Json::UInt(s.cse as u64)),
                ("dce_removed", Json::UInt(s.dce_removed as u64)),
            ]),
        ));
    }
    obj(entries)
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".into());
    let scale: usize = std::env::var("RTLCOV_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    let mut workloads: Vec<Workload> = DESIGNS
        .iter()
        .map(|(name, s)| campaign_workload(name, 0, s * scale).expect("campaign design"))
        .collect();
    workloads.push(idle_variant(
        campaign_workload("queue", 0, 1).unwrap(),
        "queue-idle",
        IDLE_CYCLES * scale,
    ));
    workloads.push(idle_variant(
        campaign_workload("i2c", 0, 1).unwrap(),
        "i2c-idle",
        IDLE_CYCLES * scale,
    ));

    let mut designs = BTreeMap::new();
    for workload in &workloads {
        let inst = CoverageCompiler::new(Metrics::line_only())
            .run(workload.circuit.clone())
            .expect("instrument");
        let runs = run_configs(workload, &inst.circuit);
        let by_name: BTreeMap<&str, &ConfigRun> = runs.iter().map(|(n, r)| (*n, r)).collect();
        let opt_vs_raw = permille(by_name["compiled_opt"].cps, by_name["compiled_raw"].cps);

        println!(
            "{:<12} {:>8} cycles | raw {:>9}/s opt {:>9}/s | essent {:>9}/s \
             (instr activity {}‰)",
            workload.name,
            workload.trace.cycles(),
            by_name["compiled_raw"].cps,
            by_name["compiled_opt"].cps,
            by_name["essent_part"].cps,
            by_name["essent_part"].activity_permille.unwrap_or(1000),
        );

        let mut entries = vec![
            ("cycles", Json::UInt(workload.trace.cycles() as u64)),
            (
                "speedup",
                obj(vec![(
                    "compiled_opt_vs_raw_permille",
                    Json::UInt(opt_vs_raw),
                )]),
            ),
        ];
        for (cfg, run) in &runs {
            entries.push((cfg, config_json(run)));
        }
        designs.insert(workload.name.to_string(), obj(entries));
    }

    let report = obj(vec![
        ("version", Json::UInt(1)),
        ("scale", Json::UInt(scale as u64)),
        ("designs", Json::Object(designs)),
    ]);
    let text = report.to_string();
    // self-check: the report must round-trip through the workspace parser
    rtlcov_core::json::parse(&text).expect("report is valid mini-JSON");
    std::fs::write(&out, &text).expect("write BENCH_sim.json");
    println!("wrote {out}");
}
