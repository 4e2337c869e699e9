//! End-to-end campaign and coverage-db benchmark with a per-layer
//! breakdown.
//!
//! ```text
//! e2e_bench --workload <default-mix|shards-to-db>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload (campaign, then a closed-loop query
//! phase over HTTP) until `--seconds` is spent and reports the end-to-end
//! metrics as medians. `--trace 1` runs the traced breakdown instead
//! (see `traced`). Human-readable tables go to standard error; the last
//! line of standard output is one JSON object. Any failed output check
//! makes the exit code non-zero.

mod dbphase;
mod e2e;
mod host;
mod traced;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use util::{result_line, Metric};

/// What one run measured and checked.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed output checks and operations; any entry fails the run.
    errors: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn failure(error: String) -> Self {
        Outcome {
            attempted: 1,
            failed: 1,
            errors: vec![error],
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            eprintln!(
                "usage: e2e_bench --workload <{}> --seed N --seconds S --trace 0|1",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::workload(&args.workload) else {
        eprintln!("e2e_bench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    // everything the run writes stays under the working directory
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", workload.name, std::process::id()));
    let outcome = if args.trace {
        traced::run(&workload, args.seed, args.seconds, &scratch)
    } else {
        e2e::run(&workload, args.seed, args.seconds, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let mode = if args.trace { "traced" } else { "end to end" };
    eprintln!("== {} (seed {}, {mode}) ==", workload.name, args.seed);
    for m in &outcome.metrics {
        let tag = traced::TAGS
            .iter()
            .find(|(name, _, _)| *name == m.name)
            .map_or(String::new(), |(_, moves, on)| {
                format!("  -> {moves} on {on}")
            });
        eprintln!("{:<42} {:>16.4} {:<9}{tag}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        eprintln!("note: {note}");
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = outcome.errors.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
