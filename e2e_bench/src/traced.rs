//! The traced run: replay the workload's job list single-threaded from the
//! benchmark's own code, calling each layer's public functions in the
//! order `run_job` and the coordinator do, with a span around every call.
//! Traced and bare (span-free) runs of the same sequence alternate, in
//! pairs, to price the tracing.

use crate::dbphase::{Mix, Model, Op, QUERY_KINDS};
use crate::e2e::failed_jobs;
use crate::util::{median, metric, quantile, us, Metric};
use crate::workloads::Workload;
use crate::Outcome;
use rtlcov_campaign::{
    run_campaign, Backend, CampaignConfig, JobSpec, MergeTree, SaturationTracker, ShardFormat,
    ShardStore,
};
use rtlcov_core::instrument::{CoverageCompiler, Instrumented};
use rtlcov_core::CoverageMap;
use rtlcov_db::{http, CoverageDb, RunKey, Selector};
use rtlcov_designs::workloads::{campaign_workload, Workload as Stimulus};
use rtlcov_formal::bmc::{cover_map_fueled, BmcOptions};
use rtlcov_fpga::FpgaBackend;
use rtlcov_sim::compiled::CompiledSim;
use rtlcov_sim::elaborate::elaborate;
use rtlcov_sim::essent::{EssentOptions, EssentSim};
use rtlcov_sim::opt::OptOptions;
use rtlcov_sim::SimKind;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span: name, start, end, and the span that caused it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder; with `enabled` off every call runs bare.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end - s.start))
            .collect()
    }

    fn total_us(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time per layer: each span's duration minus its children's.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += us(s.end - s.start);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(layer_of(s.name)).or_insert(0.0) += us(s.end - s.start) - child[i];
        }
        out
    }

    fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tname\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{:.3}\t{:.3}",
                s.name,
                us(s.start),
                us(s.end)
            );
        }
        fs::write(path, out)
    }
}

/// Layers are named after the crate modules whose calls the spans wrap.
fn layer_of(span: &str) -> &'static str {
    match span {
        "core.instrument" => "core.instrument",
        "designs.workload" => "designs.workload",
        "sim.elaborate" => "sim.elaborate",
        s if s.starts_with("sim.build") => "sim.build",
        s if s.starts_with("sim.") => "sim.replay",
        s if s.starts_with("fpga.") => "fpga",
        s if s.starts_with("formal.") => "formal.bmc",
        "campaign.merge" => "campaign.merge",
        "campaign.shard.save" => "campaign.shard",
        "db.open" | "db.refresh" | "db.ingest" => "db.store",
        s if s.starts_with("db.query") => "db.query",
        "db.http.respond" => "db.http",
        _ => "unattributed",
    }
}

const REPLAY_SPANS: [&str; 3] = [
    "sim.replay.interp",
    "sim.replay.compiled",
    "sim.replay.essent",
];

fn sim_names(kind: SimKind) -> (&'static str, &'static str) {
    match kind {
        SimKind::Interp => ("sim.build.interp", REPLAY_SPANS[0]),
        SimKind::Compiled => ("sim.build.compiled", REPLAY_SPANS[1]),
        SimKind::Essent => ("sim.build.essent", REPLAY_SPANS[2]),
    }
}

/// Counts the traced sequence gathers (identical with spans off).
#[derive(Default)]
struct Counts {
    cover_points: u64,
    replay_cycles: BTreeMap<&'static str, u64>,
    fpga_cycles: u64,
    scan_cycles: u64,
    bmc_reached: u64,
    merged_maps: u64,
    shard_bytes: u64,
    manifest_bytes: u64,
    memo: (u64, u64),
    ops: u64,
}

/// One simulation job as `run_job` runs it: `SimKind::build_with` with the
/// campaign's options, then `Workload::run` through the returned
/// `Box<dyn Simulator>`. Afterwards the trace's pokes alone and one more
/// `cover_counts` are timed, for the poke share and the sampling cost.
fn sim_job(
    t: &mut Tracer,
    kind: SimKind,
    instrumented: &Instrumented,
    config: &CampaignConfig,
    w: &Stimulus,
    c: &mut Counts,
) -> Result<CoverageMap, String> {
    let (build, run) = sim_names(kind);
    *c.replay_cycles.entry(run).or_insert(0) += w.trace.cycles() as u64;
    let mut sim = t
        .span(build, |_| {
            kind.build_with(&instrumented.circuit, &config.sim_options)
        })
        .map_err(|e| e.to_string())?;
    let map = t.span(run, |_| w.run(&mut *sim));
    t.span("sim.poke_only", |_| {
        for values in &w.trace.values {
            for (input, value) in w.trace.inputs.iter().zip(values) {
                sim.poke(input, *value);
            }
        }
    });
    black_box(t.span("sim.cover_counts", |_| sim.cover_counts()));
    Ok(map)
}

/// Figures only the concrete simulator types expose, gathered untimed
/// before any sequence runs: the optimized program size of every design
/// (compiled) and essent's partition activity over each design's shard 0,
/// weighted by its cycles.
struct Probe {
    instrs_after: u64,
    activity_permille: f64,
}

fn probe(w: &Workload) -> Result<Probe, String> {
    let config = w.config(Path::new("unused"));
    let opts = &config.sim_options;
    let program = if opts.optimize {
        OptOptions::default()
    } else {
        OptOptions::none()
    };
    let essent = EssentOptions {
        optimize: opts.optimize,
        partition: opts.partition,
        ..EssentOptions::default()
    };
    let has = |kind| config.backends.contains(&Backend::Sim(kind));
    let mut out = Probe {
        instrs_after: 0,
        activity_permille: 0.0,
    };
    let mut cycles = 0;
    for design in &config.designs {
        let stimulus = campaign_workload(design, 0, config.scale).ok_or("unknown design")?;
        let instrumented = CoverageCompiler::new(config.metrics)
            .run(stimulus.circuit.clone())
            .map_err(|e| e.to_string())?;
        let circuit = &instrumented.circuit;
        if has(SimKind::Compiled) {
            let sim = CompiledSim::new_with(circuit, &program).map_err(|e| e.to_string())?;
            out.instrs_after += sim.opt_stats().instrs_after as u64;
        }
        if has(SimKind::Essent) {
            let mut sim = EssentSim::new_with(circuit, &essent).map_err(|e| e.to_string())?;
            black_box(stimulus.run(&mut sim));
            let n = stimulus.trace.cycles() as u64;
            out.activity_permille += 1000.0 * sim.partition_activity().unwrap_or(1.0) * n as f64;
            cycles += n;
        }
    }
    if cycles > 0 {
        out.activity_permille /= cycles as f64;
    }
    Ok(out)
}

/// The job list run single-threaded: instrument, then per job
/// `campaign_workload`, build, `Workload::run`, `save_verified`, `ingest`
/// and merge (or `cover_map_fueled` for formal). Returns the per-design
/// merges, every job's map, and the model of what was ingested.
#[allow(clippy::type_complexity)]
fn campaign_sequence(
    t: &mut Tracer,
    w: &Workload,
    work: &Path,
    c: &mut Counts,
    errors: &mut Vec<String>,
) -> (
    BTreeMap<String, CoverageMap>,
    Vec<(JobSpec, CoverageMap)>,
    Model,
) {
    let config = w.config(work);
    let needs_formal = config.backends.contains(&Backend::Formal);
    let mut contexts = BTreeMap::new();
    for design in &config.designs {
        let Some(stimulus) = t.span("designs.workload", |_| campaign_workload(design, 0, 1)) else {
            errors.push(format!("unknown design {design}"));
            continue;
        };
        let instrumented = match t.span("core.instrument", |_| {
            CoverageCompiler::new(config.metrics).run(stimulus.circuit)
        }) {
            Ok(i) => i,
            Err(e) => {
                errors.push(format!("instrument {design}: {e}"));
                continue;
            }
        };
        c.cover_points += instrumented.artifacts.cover_count() as u64;
        let flat = if needs_formal {
            match t.span("sim.elaborate", |_| elaborate(&instrumented.circuit)) {
                Ok(f) => Some(f),
                Err(e) => {
                    errors.push(format!("elaborate {design}: {e:?}"));
                    continue;
                }
            }
        } else {
            None
        };
        contexts.insert(design.clone(), (instrumented, flat));
    }

    let store = config
        .shard_dir
        .as_ref()
        .map(|d| ShardStore::new(d, ShardFormat::Binary));
    let mut db = match config.db_dir.as_ref().map(CoverageDb::open).transpose() {
        Ok(db) => db,
        Err(e) => {
            errors.push(format!("campaign db: {e}"));
            None
        }
    };
    let mut trees: BTreeMap<String, (MergeTree, SaturationTracker)> = BTreeMap::new();
    let mut jobs = Vec::new();
    let mut model = Model::default();
    for job in w.jobs() {
        let Some((instrumented, flat)) = contexts.get(&job.design) else {
            continue;
        };
        let map = t.span("job", |t| -> Result<CoverageMap, String> {
            if job.backend == Backend::Formal {
                let flat = flat.as_ref().ok_or("design was not elaborated")?;
                let options = BmcOptions {
                    max_steps: config.bmc_steps,
                    fuel: config.job_fuel,
                    ..BmcOptions::default()
                };
                let (map, _) = t
                    .span("formal.bmc", |_| cover_map_fueled(flat, options))
                    .map_err(|e| e.to_string())?;
                c.bmc_reached += map.covered() as u64;
                return Ok(map);
            }
            let stimulus = t
                .span("designs.workload", |_| {
                    campaign_workload(&job.design, job.shard, config.scale)
                })
                .ok_or("no workload")?;
            match job.backend {
                Backend::Sim(kind) => sim_job(t, kind, instrumented, &config, &stimulus, c),
                _ => {
                    let circuit = &instrumented.circuit;
                    let mut sim = t
                        .span("fpga.build", |_| FpgaBackend::with_default_width(circuit))
                        .map_err(|e| e.to_string())?;
                    let map = t.span("fpga.replay", |_| stimulus.run(&mut sim));
                    c.fpga_cycles += stimulus.trace.cycles() as u64;
                    c.scan_cycles += sim.scan_cycles();
                    Ok(map)
                }
            }
        });
        let map = match map {
            Ok(m) => m,
            Err(e) => {
                errors.push(format!("{job}: {e}"));
                continue;
            }
        };
        if let Some(store) = &store {
            match t.span("campaign.shard.save", |_| store.save_verified(&job, &map)) {
                Ok(path) => c.shard_bytes += fs::metadata(path).map_or(0, |m| m.len()),
                Err(e) => errors.push(format!("save {job}: {e}")),
            }
        }
        if let Some(db) = db.as_mut() {
            let key = RunKey {
                design: job.design.clone(),
                workload: format!("s{}", job.shard),
                backend: job.backend.name().to_string(),
                label: config.db_label.clone(),
            };
            match t.span("db.ingest", |_| db.ingest(&key, &map)) {
                Ok(out) => model.add(out.id, key, map.clone()),
                Err(e) => errors.push(format!("ingest {job}: {e}")),
            }
        }
        jobs.push((job.clone(), map.clone()));
        let (tree, tracker) = trees
            .entry(job.design.clone())
            .or_insert_with(|| (MergeTree::new(), SaturationTracker::new(config.plateau)));
        t.span("campaign.merge", |_| {
            tracker.observe(&map);
            tree.insert(map);
        });
        c.merged_maps += 1;
    }
    let merged: BTreeMap<String, CoverageMap> = trees
        .iter()
        .map(|(d, (tree, _))| (d.clone(), t.span("campaign.merge", |_| tree.merged())))
        .collect();
    // the global `{design}::{cover}` map run_campaign also returns
    t.span("campaign.merge", |_| {
        let mut global = CoverageMap::new();
        for (design, map) in &merged {
            for (name, count) in map.iter() {
                let name = format!("{design}::{name}");
                global.declare(name.clone());
                global.record(name, count);
            }
        }
        black_box(global)
    });
    (merged, jobs, model)
}

/// The query phase through the layers' own functions: per operation a
/// `refresh`, the query function on one handle and `respond` on another
/// (so neither warms the other's caches), with ingests through a third.
fn query_sequence(
    t: &mut Tracer,
    w: &Workload,
    db_dir: &Path,
    mut model: Model,
    seed: u64,
    c: &mut Counts,
    errors: &mut Vec<String>,
) {
    let open = |t: &mut Tracer| t.span("db.open", |_| CoverageDb::open(db_dir));
    let (mut direct, mut served, mut writer) = match (open(t), open(t), open(t)) {
        (Ok(a), Ok(b), Ok(w)) => (a, b, w),
        _ => {
            errors.push("query phase: db open failed".into());
            return;
        }
    };
    // a cold full merge, split into segment decode and merge
    match open(t) {
        Ok(cold) => {
            let ids = cold.select(&Selector::all());
            let decoded = t.span("db.query.segment_load", |_| {
                ids.iter()
                    .try_for_each(|&id| cold.segment_map(id).map(drop))
            });
            let merged = t.span("db.query.merge", |_| cold.merged_ids(&ids).map(drop));
            if let Err(e) = decoded.and(merged) {
                errors.push(format!("cold merge: {e}"));
            }
        }
        Err(e) => errors.push(format!("cold open: {e}")),
    }
    let mut mix = Mix::new(seed.wrapping_mul(0x100_0003), format!("t{seed}"));
    let mut queries = 0;
    while queries < w.queries {
        let op = mix.next_op(&model);
        c.ops += 1;
        let Some(kind) = op.kind() else {
            if let Op::Ingest(key, map) = op {
                match t.span("db.ingest", |_| writer.ingest(&key, &map)) {
                    Ok(out) => model.add(out.id, key, map),
                    Err(e) => errors.push(format!("ingest: {e}")),
                }
            }
            continue;
        };
        queries += 1;
        let refreshed = t
            .span("db.refresh", |_| direct.refresh())
            .and_then(|_| t.span("db.refresh", |_| served.refresh()));
        if let Err(e) = refreshed {
            errors.push(format!("refresh: {e}"));
            continue;
        }
        if let Err(e) = t.span(QUERY_SPANS[kind], |_| op.run_direct(&direct)) {
            errors.push(format!("{op:?}: {e}"));
        }
        let (path, query) = op.target();
        let (status, body) = t.span("db.http.respond", |_| {
            http::respond(&served, "GET", path, &query)
        });
        if status != 200 {
            errors.push(format!("{path}?{query} -> {status}"));
        } else if mix.sample_check() {
            if let Err(e) = op.check(&body, &model) {
                errors.push(e);
            }
        }
    }
    c.memo = direct.memo_stats();
    c.manifest_bytes = fs::metadata(db_dir.join("MANIFEST.json")).map_or(0, |m| m.len());
}

const QUERY_SPANS: [&str; 5] = [
    "db.query.merged",
    "db.query.point",
    "db.query.holes",
    "db.query.diff",
    "db.query.rollup",
];

/// Campaign then query phase, traced or bare, in a fresh directory.
fn sequence(
    t: &mut Tracer,
    w: &Workload,
    work: &Path,
    seed: u64,
    c: &mut Counts,
    errors: &mut Vec<String>,
) -> (BTreeMap<String, CoverageMap>, Vec<(JobSpec, CoverageMap)>) {
    let (merged, jobs, model) = t.span("campaign", |t| campaign_sequence(t, w, work, c, errors));
    t.span("query_phase", |t| {
        query_sequence(t, w, &work.join("db"), model, seed, c, errors);
    });
    (merged, jobs)
}

/// Per-layer metrics, each with the end-to-end metric and workload it
/// should move.
pub const TAGS: &[(&str, &str, &str)] = &[
    ("core.instrument.us", "campaign_s", "shards-to-db"),
    ("core.instrument.cover_points", "campaign_s", "shards-to-db"),
    (
        "designs.workload.us",
        "campaign_s, peak_rss_mb",
        "shards-to-db",
    ),
    ("sim.build.interp.us", "campaign_s", "default-mix"),
    ("sim.build.compiled.us", "campaign_s", "shards-to-db"),
    ("sim.build.essent.us", "campaign_s", "shards-to-db"),
    ("sim.opt.instrs_after", "campaign_s", "shards-to-db"),
    (
        "sim.replay.interp.ns_per_cycle",
        "sim_cycles_per_s, campaign_s",
        "default-mix",
    ),
    (
        "sim.replay.compiled.ns_per_cycle",
        "sim_cycles_per_s, campaign_s",
        "default-mix",
    ),
    (
        "sim.replay.essent.ns_per_cycle",
        "sim_cycles_per_s, campaign_s",
        "default-mix",
    ),
    (
        "sim.replay.poke_share",
        "sim_cycles_per_s, campaign_s",
        "default-mix",
    ),
    (
        "sim.cover_counts.us",
        "sim_cycles_per_s, campaign_s",
        "default-mix",
    ),
    (
        "sim.essent.partition_activity_permille",
        "sim_cycles_per_s",
        "default-mix",
    ),
    ("fpga.build.us", "campaign_s", "default-mix"),
    ("fpga.replay.ns_per_cycle", "campaign_s", "default-mix"),
    ("fpga.scan_cycles", "campaign_s", "default-mix"),
    ("formal.bmc.us", "campaign_s", "default-mix"),
    ("formal.bmc.reached", "campaign_s", "default-mix"),
    ("campaign.merge.us", "campaign_s", "shards-to-db"),
    ("campaign.merge.maps", "campaign_s", "shards-to-db"),
    ("campaign.shard.save_us", "campaign_s", "shards-to-db"),
    ("campaign.shard.bytes", "campaign_s", "shards-to-db"),
    ("campaign.retries", "failed_ratio", "all"),
    ("campaign.degraded", "failed_ratio", "all"),
    (
        "db.ingest.first_p50_us",
        "campaign_s, ingest latency",
        "shards-to-db",
    ),
    (
        "db.ingest.last_p50_us",
        "campaign_s, ingest latency",
        "shards-to-db",
    ),
    (
        "db.manifest.bytes",
        "campaign_s, ingest latency",
        "shards-to-db",
    ),
    ("db.open.us", "setup_s", "shards-to-db"),
    ("db.refresh.us", "query_p50_ms", "shards-to-db"),
    (
        "db.query.merged.p50_us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    (
        "db.query.point.p50_us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    (
        "db.query.holes.p50_us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    (
        "db.query.diff.p50_us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    (
        "db.query.rollup.p50_us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    (
        "db.query.segment_load.us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    (
        "db.query.merge.us",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    ("db.memo.hits", "query_p50_ms, query_p90_ms", "shards-to-db"),
    (
        "db.memo.misses",
        "query_p50_ms, query_p90_ms",
        "shards-to-db",
    ),
    ("db.http.respond.p50_us", "query_p50_ms", "shards-to-db"),
    (
        "trace.campaign_s",
        "campaign_s (run_campaign, same process)",
        "all",
    ),
    (
        "trace.traced_campaign_s",
        "campaign_s (single-threaded sum)",
        "all",
    ),
    ("trace.traced_s", "-", "all"),
    ("trace.untraced_s", "-", "all"),
    ("trace.overhead_pct", "-", "all"),
    ("trace.pairs", "-", "all"),
    ("trace.untraced_spread_pct", "-", "all"),
];

/// Layers whose self time is reported as `self.<layer>.ms`.
pub const LAYERS: [&str; 14] = [
    "core.instrument",
    "designs.workload",
    "sim.elaborate",
    "sim.build",
    "sim.replay",
    "fpga",
    "formal.bmc",
    "campaign.merge",
    "campaign.shard",
    "db.store",
    "db.query",
    "db.http",
    "unattributed",
    "total",
];

/// First and last tenth of a sequence (at least one element each).
fn tenths(values: &[f64]) -> (&[f64], &[f64]) {
    let n = (values.len() / 10).max(1).min(values.len());
    (&values[..n], &values[values.len() - n..])
}

/// One run of the sequence, traced or bare.
struct Sequence {
    seconds: f64,
    tracer: Tracer,
    counts: Counts,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let start = Instant::now();
    let mut errors = Vec::new();
    let mut notes = Vec::new();

    // the real campaign, for its wall time and the merge check
    let reference_dir = scratch.join("reference");
    let t0 = Instant::now();
    let reference = run_campaign(&w.config(&reference_dir));
    let campaign_s = t0.elapsed().as_secs_f64();
    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            return Outcome::failure(format!("run_campaign: {e}"));
        }
    };
    let _ = fs::remove_dir_all(&reference_dir);
    let probe = match probe(w) {
        Ok(p) => p,
        Err(e) => return Outcome::failure(format!("probe: {e}")),
    };

    // Traced and bare sequences in pairs, alternating which side runs
    // first, until the next pair would overrun the time budget; at least
    // two pairs, so each side runs once first. Every sequence is checked.
    let (mut traced, mut bare) = (Vec::new(), Vec::new());
    let mut longest: f64 = 0.0;
    for pair in 0usize.. {
        let t_pair = Instant::now();
        for enabled in [pair % 2 == 0, pair % 2 == 1] {
            let dir = scratch.join(format!("pair-{pair}-{enabled}"));
            let mut tracer = Tracer::new(enabled);
            let mut counts = Counts::default();
            let t0 = Instant::now();
            let (merged, jobs) = tracer.span("run", |t| {
                sequence(t, w, &dir, seed, &mut counts, &mut errors)
            });
            let seconds = t0.elapsed().as_secs_f64();
            let _ = fs::remove_dir_all(&dir);
            if merged != reference.per_design {
                let side = if enabled { "traced" } else { "bare" };
                errors.push(format!(
                    "{side} merge differs from run_campaign's per_design"
                ));
            }
            check_sim_agreement(&jobs, &mut errors);
            let run = Sequence {
                seconds,
                tracer,
                counts,
            };
            if enabled {
                traced.push(run);
            } else {
                bare.push(run.seconds);
            }
        }
        longest = longest.max(t_pair.elapsed().as_secs_f64());
        let over_budget = start.elapsed().as_secs_f64() + longest > seconds;
        if !errors.is_empty() || (pair >= 1 && over_budget) {
            break;
        }
    }
    let pairs = bare.len();
    let traced_times: Vec<f64> = traced.iter().map(|r| r.seconds).collect();
    let (traced_s, untraced_s) = (median(&traced_times), median(&bare));
    // the per-layer figures come from the median traced sequence
    traced.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    let Sequence {
        tracer: traced,
        counts: c,
        ..
    } = traced.swap_remove((pairs - 1) / 2);

    let spans = scratch
        .parent()
        .unwrap_or(scratch)
        .join(format!("spans-{}-seed{seed}.tsv", w.name));
    if let Err(e) = traced.write_tsv(&spans) {
        notes.push(format!("could not write spans: {e}"));
    } else {
        notes.push(format!(
            "{} spans written to {}",
            traced.spans.len(),
            spans.display()
        ));
    }

    let t = &traced;
    let p50 = |name: &str| median(&t.durations(name));
    let ns_per_cycle = |name: &'static str| {
        let cycles = c.replay_cycles.get(name).copied().unwrap_or(0);
        if cycles == 0 {
            0.0
        } else {
            t.total_us(name) * 1e3 / cycles as f64
        }
    };
    let replay_total: f64 = REPLAY_SPANS.iter().map(|s| t.total_us(s)).sum();
    let ingests = t.durations("db.ingest");
    let (first, last) = tenths(&ingests);
    let stats = &reference.stats;
    let retries: u64 = stats.per_backend.values().map(|b| b.retries).sum();

    let mut m: Vec<Metric> = vec![
        metric("core.instrument.us", t.total_us("core.instrument"), "us"),
        metric(
            "core.instrument.cover_points",
            c.cover_points as f64,
            "count",
        ),
        metric("designs.workload.us", p50("designs.workload"), "us"),
        metric("sim.build.interp.us", p50("sim.build.interp"), "us"),
        metric("sim.build.compiled.us", p50("sim.build.compiled"), "us"),
        metric("sim.build.essent.us", p50("sim.build.essent"), "us"),
        metric("sim.opt.instrs_after", probe.instrs_after as f64, "count"),
        metric(
            "sim.replay.interp.ns_per_cycle",
            ns_per_cycle(REPLAY_SPANS[0]),
            "ns/cycle",
        ),
        metric(
            "sim.replay.compiled.ns_per_cycle",
            ns_per_cycle(REPLAY_SPANS[1]),
            "ns/cycle",
        ),
        metric(
            "sim.replay.essent.ns_per_cycle",
            ns_per_cycle(REPLAY_SPANS[2]),
            "ns/cycle",
        ),
        metric(
            "sim.replay.poke_share",
            if replay_total > 0.0 {
                t.total_us("sim.poke_only") / replay_total
            } else {
                0.0
            },
            "ratio",
        ),
        metric("sim.cover_counts.us", p50("sim.cover_counts"), "us"),
        metric(
            "sim.essent.partition_activity_permille",
            probe.activity_permille,
            "permille",
        ),
        metric("fpga.build.us", p50("fpga.build"), "us"),
        metric(
            "fpga.replay.ns_per_cycle",
            if c.fpga_cycles > 0 {
                t.total_us("fpga.replay") * 1e3 / c.fpga_cycles as f64
            } else {
                0.0
            },
            "ns/cycle",
        ),
        metric("fpga.scan_cycles", c.scan_cycles as f64, "count"),
        metric("formal.bmc.us", t.total_us("formal.bmc"), "us"),
        metric("formal.bmc.reached", c.bmc_reached as f64, "count"),
        metric("campaign.merge.us", t.total_us("campaign.merge"), "us"),
        metric("campaign.merge.maps", c.merged_maps as f64, "count"),
        metric("campaign.shard.save_us", p50("campaign.shard.save"), "us"),
        metric("campaign.shard.bytes", c.shard_bytes as f64, "bytes"),
        metric("campaign.retries", retries as f64, "count"),
        metric("campaign.degraded", reference.degraded() as f64, "count"),
        metric("db.ingest.first_p50_us", median(first), "us"),
        metric("db.ingest.last_p50_us", median(last), "us"),
        metric("db.manifest.bytes", c.manifest_bytes as f64, "bytes"),
        metric("db.open.us", p50("db.open"), "us"),
        metric("db.refresh.us", p50("db.refresh"), "us"),
    ];
    for (kind, span) in QUERY_KINDS.iter().zip(QUERY_SPANS) {
        m.push(metric(format!("db.query.{kind}.p50_us"), p50(span), "us"));
    }
    m.extend([
        metric(
            "db.query.segment_load.us",
            t.total_us("db.query.segment_load"),
            "us",
        ),
        metric("db.query.merge.us", t.total_us("db.query.merge"), "us"),
        metric("db.memo.hits", c.memo.0 as f64, "count"),
        metric("db.memo.misses", c.memo.1 as f64, "count"),
        metric("db.http.respond.p50_us", p50("db.http.respond"), "us"),
        metric("trace.campaign_s", campaign_s, "s"),
        metric("trace.traced_campaign_s", t.total_us("campaign") / 1e6, "s"),
        metric("trace.traced_s", traced_s, "s"),
        metric("trace.untraced_s", untraced_s, "s"),
        metric(
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
            "%",
        ),
        metric("trace.pairs", pairs as f64, "count"),
        metric(
            "trace.untraced_spread_pct",
            100.0 * (quantile(&bare, 1.0) - quantile(&bare, 0.0)) / untraced_s,
            "%",
        ),
    ]);
    let selves = t.self_times();
    for layer in LAYERS {
        let value = if layer == "total" {
            selves.values().sum::<f64>()
        } else {
            selves.get(layer).copied().unwrap_or(0.0)
        };
        m.push(metric(format!("self.{layer}.ms"), value / 1e3, "ms"));
    }

    // every job and every operation of every sequence
    let attempted = reference.outcomes.len() as u64 + 2 * pairs as u64 * (c.merged_maps + c.ops);
    let failed = failed_jobs(&reference) as u64 + errors.len() as u64;
    notes.push(format!(
        "run_campaign {campaign_s:.3} s with {} workers; single-threaded sequences in {pairs} pairs: traced {traced_times:.3?} s, bare {bare:.3?} s",
        crate::workloads::WORKERS
    ));
    Outcome {
        attempted,
        failed,
        errors,
        metrics: m,
        notes,
    }
}

/// Every simulation backend (interp, compiled, essent, FPGA) must produce
/// a bit-identical map for each (design, shard).
fn check_sim_agreement(jobs: &[(JobSpec, CoverageMap)], errors: &mut Vec<String>) {
    let mut first: BTreeMap<(&str, u64), &(JobSpec, CoverageMap)> = BTreeMap::new();
    for entry in jobs.iter().filter(|(j, _)| j.backend != Backend::Formal) {
        let (job, map) = entry;
        let reference = first
            .entry((job.design.as_str(), job.shard))
            .or_insert(entry);
        if reference.1 != *map {
            errors.push(format!("{job} disagrees with {}", reference.0));
        }
    }
}
