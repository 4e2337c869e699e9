//! `rtlcov` — command-line front door to the coverage system.
//!
//! ```text
//! rtlcov instrument <file.fir> [--metrics line,toggle,fsm,rv]        print instrumented FIRRTL
//! rtlcov run <file.fir> [--metrics ...] [--cycles N] [--seed S]      simulate with random inputs, print reports
//! rtlcov bmc <file.fir> [--metrics ...] [--steps K]                  formal cover reachability
//! rtlcov verilog <file.fir>                                          emit structural Verilog
//! rtlcov campaign [--designs a,b] [--backends ...] [--metrics ...]   parallel multi-backend coverage campaign
//!                 [--shards N] [--scale N] [--workers N] [--plateau K]
//!                 [--shard-dir DIR] [--format json|bin] [--bmc-steps K]
//!                 [--max-retries N] [--job-fuel N] [--fault-plan SPEC] [--keep-going]
//!                 [--db DIR] [--db-label L]
//! rtlcov db ingest --db DIR --shard-dir DIR [--label L]              commit loose campaign shards
//! rtlcov db query --db DIR [--select k=v,..]                         merged coverage for a run selection
//! rtlcov db holes --db DIR [--select k=v,..]                         never-hit cover points
//! rtlcov db diff --db DIR --a k=v,.. --b k=v,..                      compare two run selections
//! rtlcov db gc --db DIR                                              delete unreferenced files
//! rtlcov db serve --db DIR [--addr HOST:PORT] [--max-requests N]     HTTP query endpoint
//! ```
//!
//! `--metrics` defaults to `line` for the commands that take a file and
//! to `all` for `campaign` (the library's `CampaignConfig` default).
//!
//! `db` selectors are comma-separated `key=value` filters over
//! `design`, `workload`, `backend`, `label`, and `since` (logical time).
//!
//! `campaign` exits non-zero when any job ends failed, panicked, or timed
//! out — `--keep-going` downgrades that to a warning (coverage from the
//! healthy jobs is still printed either way). `--fault-plan` injects
//! reproducible faults for robustness testing, e.g.
//! `panic@gcd:0:interp=1,stall@queue:*:*,corrupt@*:1:*=2` or
//! `random@42:10`.

use rtlcov::campaign::runner::{run_campaign, CampaignConfig};
use rtlcov::campaign::{report as campaign_report, Backend, FaultPlan, ShardFormat, ShardStore};
use rtlcov::core::instrument::{CoverageCompiler, Instrumented, Metrics};
use rtlcov::core::passes::toggle::ToggleOptions;
use rtlcov::core::report::{
    fsm::FsmReport, line::LineReport, ready_valid::ReadyValidReport, toggle::ToggleReport,
};
use rtlcov::db::http::Server;
use rtlcov::db::{CoverageDb, RunKey, Selector};
use rtlcov::sim::{compiled::CompiledSim, Simulator};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  rtlcov instrument <file.fir> [--metrics line,toggle,fsm,rv]\n  \
         rtlcov run <file.fir> [--metrics ...] [--cycles N] [--seed S]\n  \
         rtlcov bmc <file.fir> [--metrics ...] [--steps K]\n  \
         rtlcov verilog <file.fir>\n  \
         rtlcov campaign [--designs gcd,queue,...] [--backends interp,compiled,essent,fpga,formal]\n                  \
         [--metrics ...] [--shards N] [--scale N] [--workers N] [--plateau K]\n                  \
         [--shard-dir DIR] [--format json|bin] [--bmc-steps K]\n                  \
         [--max-retries N] [--job-fuel N] [--fault-plan SPEC] [--keep-going]\n                  \
         [--db DIR] [--db-label L]\n  \
         rtlcov db ingest --db DIR --shard-dir DIR [--label L]\n  \
         rtlcov db query|holes --db DIR [--select k=v,..]\n  \
         rtlcov db diff --db DIR --a k=v,.. --b k=v,..\n  \
         rtlcov db gc --db DIR\n  \
         rtlcov db serve --db DIR [--addr HOST:PORT] [--max-requests N]"
    );
    ExitCode::from(2)
}

fn parse_metrics(spec: &str) -> Result<Metrics, String> {
    let mut m = Metrics::none();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        match part {
            "line" => m.line = true,
            "toggle" => m.toggle = Some(ToggleOptions::default()),
            "toggle-regs" => m.toggle = Some(ToggleOptions::regs_only()),
            "fsm" => m.fsm = true,
            "rv" | "ready-valid" => m.ready_valid = true,
            "all" => m = Metrics::all(),
            other => return Err(format!("unknown metric `{other}`")),
        }
    }
    Ok(m)
}

struct Args {
    command: String,
    file: String,
    metrics: Metrics,
    cycles: usize,
    steps: usize,
    seed: u64,
    campaign: CampaignConfig,
    /// Report unhealthy campaigns (failed/panicked/timed-out jobs) but
    /// still exit 0.
    keep_going: bool,
}

fn parse_list(spec: &str) -> Vec<String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_backends(spec: &str) -> Result<Vec<Backend>, String> {
    parse_list(spec)
        .iter()
        .map(|name| Backend::parse(name).ok_or_else(|| format!("unknown backend `{name}`")))
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err("missing command".into());
    }
    let command = argv[0].clone();
    // `campaign` builds its designs in-process; every other command reads
    // a FIRRTL file as its second argument
    let takes_file = command != "campaign";
    if takes_file && argv.len() < 2 {
        return Err("missing command or file".into());
    }
    let mut args = Args {
        command,
        file: if takes_file {
            argv[1].clone()
        } else {
            String::new()
        },
        metrics: Metrics::line_only(),
        cycles: 1000,
        steps: 20,
        seed: 0,
        campaign: CampaignConfig::default(),
        keep_going: false,
    };
    let mut i = if takes_file { 2 } else { 1 };
    while i < argv.len() {
        let flag = argv[i].as_str();
        // boolean flags take no value
        if flag == "--keep-going" {
            args.keep_going = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--metrics" => {
                args.metrics = parse_metrics(value)?;
                args.campaign.metrics = args.metrics;
            }
            "--cycles" => args.cycles = value.parse().map_err(|_| "bad --cycles")?,
            "--steps" => args.steps = value.parse().map_err(|_| "bad --steps")?,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--designs" => args.campaign.designs = parse_list(value),
            "--backends" => args.campaign.backends = parse_backends(value)?,
            "--shards" => args.campaign.shards = value.parse().map_err(|_| "bad --shards")?,
            "--scale" => args.campaign.scale = value.parse().map_err(|_| "bad --scale")?,
            "--workers" => args.campaign.workers = value.parse().map_err(|_| "bad --workers")?,
            "--plateau" => args.campaign.plateau = value.parse().map_err(|_| "bad --plateau")?,
            "--shard-dir" => args.campaign.shard_dir = Some(value.into()),
            "--format" => {
                args.campaign.format = match value.as_str() {
                    "json" => ShardFormat::Json,
                    "bin" | "binary" => ShardFormat::Binary,
                    other => return Err(format!("unknown shard format `{other}`")),
                }
            }
            "--bmc-steps" => {
                args.campaign.bmc_steps = value.parse().map_err(|_| "bad --bmc-steps")?
            }
            "--max-retries" => {
                args.campaign.max_retries = value.parse().map_err(|_| "bad --max-retries")?
            }
            "--job-fuel" => {
                args.campaign.job_fuel = Some(value.parse().map_err(|_| "bad --job-fuel")?)
            }
            "--fault-plan" => {
                let plan = FaultPlan::parse(value).map_err(|e| format!("--fault-plan: {e}"))?;
                args.campaign.faults = (!plan.is_empty()).then(|| Arc::new(plan));
            }
            "--db" => args.campaign.db_dir = Some(value.into()),
            "--db-label" => args.campaign.db_label = value.clone(),
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(args)
}

/// The `rtlcov db <verb>` family: the database has its own argument
/// shape (no FIRRTL file, selector flags), so it bypasses [`Args`].
fn run_db(argv: &[String]) -> Result<(), String> {
    let verb = argv.first().ok_or("db: missing subcommand")?.as_str();
    let mut db_dir: Option<PathBuf> = None;
    let mut shard_dir: Option<PathBuf> = None;
    let mut label = String::from("campaign");
    let mut select = String::new();
    let mut sel_a: Option<String> = None;
    let mut sel_b: Option<String> = None;
    let mut addr = String::from("127.0.0.1:8722");
    let mut max_requests: Option<usize> = None;
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--db" => db_dir = Some(value.into()),
            "--shard-dir" => shard_dir = Some(value.into()),
            "--label" => label = value.clone(),
            "--select" => select = value.clone(),
            "--a" => sel_a = Some(value.clone()),
            "--b" => sel_b = Some(value.clone()),
            "--addr" => addr = value.clone(),
            "--max-requests" => {
                max_requests = Some(value.parse().map_err(|_| "bad --max-requests")?)
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let db_dir = db_dir.ok_or("db: --db DIR is required")?;
    let mut db = CoverageDb::open(&db_dir).map_err(|e| e.to_string())?;
    match verb {
        "ingest" => {
            let shard_dir = shard_dir.ok_or("db ingest: --shard-dir DIR is required")?;
            // scan auto-detects the on-disk format per file
            let (shards, rejected) = ShardStore::new(&shard_dir, ShardFormat::Binary).scan();
            let (mut committed, mut deduplicated) = (0u64, 0u64);
            for shard in &shards {
                let key = RunKey {
                    design: shard.job.design.clone(),
                    workload: format!("s{}", shard.job.shard),
                    backend: shard.job.backend.name().to_string(),
                    label: label.clone(),
                };
                let outcome = db.ingest(&key, &shard.map).map_err(|e| e.to_string())?;
                if outcome.deduplicated {
                    deduplicated += 1;
                } else {
                    committed += 1;
                }
            }
            println!(
                "ingested {committed} new run(s), {deduplicated} already committed, {} rejected file(s)",
                rejected.len()
            );
            for (path, err) in rejected {
                eprintln!("  rejected {}: {err}", path.display());
            }
        }
        "query" => {
            let sel = Selector::parse(&select)?;
            let ids = db.select(&sel);
            let merged = db.merged_ids(&ids).map_err(|e| e.to_string())?;
            println!("runs merged: {ids:?}");
            print!("{merged}");
        }
        "holes" => {
            let sel = Selector::parse(&select)?;
            let holes = db.holes(&sel).map_err(|e| e.to_string())?;
            println!("{} hole(s)", holes.len());
            for name in holes {
                println!("  {name}");
            }
        }
        "diff" => {
            let a = Selector::parse(&sel_a.ok_or("db diff: --a SPEC is required")?)?;
            let b = Selector::parse(&sel_b.ok_or("db diff: --b SPEC is required")?)?;
            let diff = db.diff(&a, &b).map_err(|e| e.to_string())?;
            let count = |c: Option<u64>| c.map_or("-".to_string(), |v| v.to_string());
            println!("{} differing point(s)", diff.len());
            for entry in diff {
                println!(
                    "  {:<48} a={} b={}",
                    entry.name,
                    count(entry.a),
                    count(entry.b)
                );
            }
        }
        "gc" => {
            let removed = db.gc().map_err(|e| e.to_string())?;
            println!("removed {} unreferenced file(s)", removed.len());
            for path in removed {
                println!("  {}", path.display());
            }
        }
        "serve" => {
            let server = Server::bind(&addr).map_err(|e| e.to_string())?;
            let bound = server.local_addr().map_err(|e| e.to_string())?;
            println!("serving coverage db {} on http://{bound}", db_dir.display());
            server
                .serve(&mut db, max_requests)
                .map_err(|e| e.to_string())?;
        }
        other => return Err(format!("unknown db subcommand `{other}`")),
    }
    Ok(())
}

fn instrument(args: &Args) -> Result<Instrumented, String> {
    let src = std::fs::read_to_string(&args.file)
        .map_err(|e| format!("cannot read `{}`: {e}", args.file))?;
    let circuit = rtlcov::firrtl::parser::parse(&src).map_err(|e| e.to_string())?;
    CoverageCompiler::new(args.metrics)
        .run(circuit)
        .map_err(|e| e.to_string())
}

fn run(args: &Args) -> Result<(), String> {
    if args.command == "campaign" {
        let result = run_campaign(&args.campaign).map_err(|e| e.to_string())?;
        print!("{}", campaign_report::summary(&result));
        print!(
            "{}",
            campaign_report::render(&result, args.campaign.metrics)
        );
        println!("{}", campaign_report::health(&result));
        if !result.healthy() && !args.keep_going {
            return Err("campaign unhealthy (rerun with --keep-going to tolerate)".into());
        }
        return Ok(());
    }
    let inst = instrument(args)?;
    match args.command.as_str() {
        "instrument" => {
            print!("{}", rtlcov::firrtl::printer::print_circuit(&inst.circuit));
        }
        "verilog" => {
            print!("{}", rtlcov::firrtl::verilog::emit_verilog(&inst.circuit));
        }
        "run" => {
            use rand::{Rng, SeedableRng};
            let mut sim = CompiledSim::new(&inst.circuit).map_err(|e| e.to_string())?;
            let flat =
                rtlcov::sim::elaborate::elaborate(&inst.circuit).map_err(|e| e.to_string())?;
            let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
            sim.reset(2);
            for _ in 0..args.cycles {
                for name in &flat.inputs {
                    if name != "reset" {
                        sim.poke(name, rng.gen());
                    }
                }
                sim.step();
            }
            let counts = sim.cover_counts();
            println!("== raw counts ==\n{counts}");
            if args.metrics.line {
                println!(
                    "{}",
                    LineReport::build(&inst.circuit, &inst.artifacts.line, &counts).render()
                );
            }
            if args.metrics.toggle.is_some() {
                println!(
                    "{}",
                    ToggleReport::build(&inst.circuit, &inst.artifacts.toggle, &counts).render()
                );
            }
            if args.metrics.fsm {
                println!(
                    "{}",
                    FsmReport::build(&inst.circuit, &inst.artifacts.fsm, &counts).render()
                );
            }
            if args.metrics.ready_valid {
                println!(
                    "{}",
                    ReadyValidReport::build(&inst.circuit, &inst.artifacts.ready_valid, &counts)
                        .render()
                );
            }
        }
        "bmc" => {
            let flat =
                rtlcov::sim::elaborate::elaborate(&inst.circuit).map_err(|e| e.to_string())?;
            let results = rtlcov::formal::bmc::check_covers(
                &flat,
                rtlcov::formal::bmc::BmcOptions {
                    max_steps: args.steps,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            for r in results {
                use rtlcov::formal::bmc::CoverOutcome;
                match r.outcome {
                    CoverOutcome::Reached { step, .. } => {
                        println!("{:<40} reached @ step {step}", r.name)
                    }
                    CoverOutcome::UnreachableWithin(k) => {
                        println!("{:<40} UNREACHABLE within {k}", r.name)
                    }
                    CoverOutcome::Unknown => println!("{:<40} unknown", r.name),
                }
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("db") {
        return match run_db(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
