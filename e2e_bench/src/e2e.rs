//! The end-to-end run: repeat the workload (campaign, then query phase)
//! with tracing off until the time budget is spent, and report medians.
//! Every time is scaled to the reference host speed with the kernel
//! samples taken next to it (see `host`).

use crate::dbphase::{http_get, Mix, Model, Op, QUERY_KINDS};
use crate::host::{to_reference, Kernel, Speed, REFERENCE};
use crate::util::{median, metric, peak_rss_mb, quantile, Metric};
use crate::workloads::Workload;
use crate::Outcome;
use rtlcov_campaign::{run_campaign, CampaignResult};
use rtlcov_core::CoverageMap;
use rtlcov_db::http::Server;
use rtlcov_db::{CoverageDb, Selector};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Jobs of a finished campaign that did not produce full coverage.
pub fn failed_jobs(result: &CampaignResult) -> usize {
    result.failed() + result.panicked() + result.timed_out()
}

/// `CoverageDb::merged(design=X)` must equal the campaign's
/// `per_design[X]`.
pub fn check_db_matches(
    db: &CoverageDb,
    per_design: &BTreeMap<String, CoverageMap>,
    errors: &mut Vec<String>,
) {
    for (design, expect) in per_design {
        let sel = Selector {
            design: Some(design.clone()),
            ..Selector::default()
        };
        match db.merged(&sel) {
            Ok(got) if *got == *expect => {}
            Ok(_) => errors.push(format!("db merge of `{design}` differs from per_design")),
            Err(e) => errors.push(format!("db merge of `{design}`: {e}")),
        }
    }
}

/// Times the query-phase preparation is repeated in every iteration;
/// the iteration's setup time is the median of the repeats.
const SETUP_REPEATS: usize = 5;

/// Kernel samples taken right before and right after each campaign.
const CAMPAIGN_SAMPLES: usize = 3;

/// The query phase's handles: client db, server db, bound server.
fn prepare(db_dir: &Path) -> Result<(CoverageDb, CoverageDb, Server), String> {
    let client = CoverageDb::open(db_dir).map_err(|e| e.to_string())?;
    let server_db = CoverageDb::open(db_dir).map_err(|e| e.to_string())?;
    let server = Server::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok((client, server_db, server))
}

/// The kernel sampled between consecutive timed operations: each db
/// operation is scaled by the mean scan time of the samples on either side
/// of it.
struct Paced<'k> {
    kernel: &'k Kernel,
    before: Speed,
    /// Every sample of the iteration.
    samples: Vec<Speed>,
}

impl<'k> Paced<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        let before = kernel.sample();
        Paced {
            kernel,
            before,
            samples: vec![before],
        }
    }

    /// Take the next sample; returns the previous one.
    fn mark(&mut self) -> Speed {
        let after = self.kernel.sample();
        self.samples.push(after);
        std::mem::replace(&mut self.before, after)
    }

    /// Scale a db time `raw`, measured since the previous sample, and take
    /// the next.
    fn scale(&mut self, raw: f64) -> f64 {
        let before = self.mark();
        let scan_ms = (before.scan_ms + self.before.scan_ms) / 2.0;
        to_reference(raw, scan_ms, REFERENCE.scan_ms)
    }

    /// Median time of each part over the iteration.
    fn median(&self) -> Speed {
        let part = |f: fn(&Speed) -> f64| median(&self.samples.iter().map(f).collect::<Vec<_>>());
        Speed {
            scan_ms: part(|s| s.scan_ms),
            alloc_ms: part(|s| s.alloc_ms),
        }
    }
}

/// Scaled figures of the run, with the raw ones kept for the notes.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    campaign_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    /// Every query latency of the run, pooled.
    query_ms: Vec<f64>,
    /// The same by [`QUERY_KINDS`] index.
    kind_ms: [Vec<f64>; 5],
    ingest_ms: Vec<f64>,
    raw_campaign_s: Vec<f64>,
    raw_query_ms: Vec<f64>,
    /// Median kernel part times of each iteration.
    scan_ms: Vec<f64>,
    alloc_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Samples {
    fn fail(&mut self, error: String) {
        self.errors.push(error);
        self.attempted += 1;
        self.failed += 1;
    }
}

/// One iteration: setup, campaign, db setup, checks, query phase.
fn iteration(
    w: &Workload,
    seed: u64,
    iter: u64,
    work: &Path,
    cycles: u64,
    kernel: &Kernel,
    s: &mut Samples,
) {
    let mut paced = Paced::new(kernel);
    let t = Instant::now();
    let made = fs::create_dir_all(work);
    let dir_s = paced.scale(t.elapsed().as_secs_f64());
    if let Err(e) = made {
        return s.fail(format!("scratch dir: {e}"));
    }

    // The campaign runs two workers for seconds, so it is scaled by the
    // median alloc time of every kernel sample of the iteration, not by
    // its neighbours alone.
    let config = w.config(work);
    for _ in 1..CAMPAIGN_SAMPLES {
        paced.mark();
    }
    let t = Instant::now();
    let result = run_campaign(&config);
    let raw_campaign = t.elapsed().as_secs_f64();
    for _ in 0..CAMPAIGN_SAMPLES {
        paced.mark();
    }
    let result = match result {
        Ok(r) => r,
        Err(e) => return s.fail(e.to_string()),
    };
    s.attempted += result.outcomes.len() as u64;
    s.failed += failed_jobs(&result) as u64;

    // untimed preparation of the query phase; the last repeat's handles
    // serve the queries
    let db_dir = work.join("db");
    let mut repeats = Vec::with_capacity(SETUP_REPEATS);
    let prepared = loop {
        let t = Instant::now();
        let prepared = prepare(&db_dir);
        repeats.push(paced.scale(t.elapsed().as_secs_f64()));
        if prepared.is_err() || repeats.len() == SETUP_REPEATS {
            break prepared;
        }
    };
    s.setup_s.push(dir_s + median(&repeats));
    let (mut client, mut server_db, server) = match prepared {
        Ok(p) => p,
        Err(e) => return s.fail(format!("query-phase setup: {e}")),
    };
    check_db_matches(&client, &result.per_design, &mut s.errors);
    let mut model = match Model::from_db(&client) {
        Ok(m) => m,
        Err(e) => return s.fail(format!("model: {e}")),
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return s.fail(format!("server address: {e}")),
    };

    let mut mix = Mix::new(
        seed.wrapping_mul(0x100_0003).wrapping_add(iter),
        format!("q{seed}-{iter}"),
    );
    paced.mark();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(&mut server_db, Some(w.queries)));
        // exactly as many connections as the server serves, so its thread
        // always ends
        let mut sent = 0;
        while sent < w.queries {
            let op = mix.next_op(&model);
            s.attempted += 1;
            if let Op::Ingest(key, map) = op {
                let t = Instant::now();
                let ingested = client.ingest(&key, &map);
                let latency = paced.scale(t.elapsed().as_secs_f64() * 1e3);
                match ingested {
                    Ok(out) => {
                        s.ingest_ms.push(latency);
                        model.add(out.id, key, map);
                    }
                    Err(e) => {
                        s.failed += 1;
                        s.errors.push(format!("ingest: {e}"));
                    }
                }
                continue;
            }
            let (path, query) = op.target();
            let t = Instant::now();
            let answer = http_get(addr, path, &query);
            let raw = t.elapsed().as_secs_f64() * 1e3;
            let latency = paced.scale(raw);
            sent += 1;
            match answer {
                Ok((200, body)) => {
                    s.query_ms.push(latency);
                    s.raw_query_ms.push(raw);
                    if let Some(kind) = op.kind() {
                        s.kind_ms[kind].push(latency);
                    }
                    if mix.sample_check() {
                        if let Err(e) = op.check(&body, &model) {
                            s.errors.push(e);
                        }
                    }
                }
                Ok((status, body)) => {
                    s.failed += 1;
                    s.errors.push(format!("{path}?{query} -> {status}: {body}"));
                }
                Err(e) => {
                    s.failed += 1;
                    s.errors.push(format!("{path}?{query}: {e}"));
                }
            }
        }
        match serving.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => s.errors.push(format!("server: {e}")),
            Err(_) => s.errors.push("server thread panicked".into()),
        }
    });

    let speed = paced.median();
    let campaign = to_reference(raw_campaign, speed.alloc_ms, REFERENCE.alloc_ms);
    s.scan_ms.push(speed.scan_ms);
    s.alloc_ms.push(speed.alloc_ms);
    s.raw_campaign_s.push(raw_campaign);
    s.campaign_s.push(campaign);
    s.cycles_per_s.push(cycles as f64 / campaign);
}

pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let start = Instant::now();
    let cycles = w.sim_cycles();
    let mut s = Samples::default();
    let kernel = Kernel::new();
    let mut longest: f64 = 0.0;
    for iter in 0u64.. {
        let t = Instant::now();
        let work = scratch.join(format!("iter-{iter}"));
        iteration(w, seed, iter, &work, cycles, &kernel, &mut s);
        let _ = fs::remove_dir_all(&work);
        longest = longest.max(t.elapsed().as_secs_f64());
        if !s.errors.is_empty() || start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    let metrics: Vec<Metric> = vec![
        metric("setup_s", median(&s.setup_s), "s"),
        metric("campaign_s", median(&s.campaign_s), "s"),
        metric("sim_cycles_per_s", median(&s.cycles_per_s), "cycles/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("query_p50_ms", median(&s.query_ms), "ms"),
        metric("query_p90_ms", quantile(&s.query_ms, 0.9), "ms"),
    ];
    let per_kind: Vec<String> = QUERY_KINDS
        .iter()
        .zip(&s.kind_ms)
        .map(|(kind, ms)| format!("{kind} {:.2} ms (n={})", median(ms), ms.len()))
        .collect();
    let notes = vec![
        format!(
            "{} iterations; {} queries, {} ingests; failed_ratio {}/{}",
            s.campaign_s.len(),
            s.query_ms.len(),
            s.ingest_ms.len(),
            s.failed,
            s.attempted
        ),
        format!("simulated cycles per campaign: {cycles}"),
        format!(
            "kernel scan ms per iteration (reference {}): {:.4?}",
            REFERENCE.scan_ms, s.scan_ms
        ),
        format!(
            "kernel alloc ms per iteration (reference {}): {:.4?}",
            REFERENCE.alloc_ms, s.alloc_ms
        ),
        format!("campaign_s per iteration: {:.3?}", s.campaign_s),
        format!("raw campaign_s per iteration: {:.3?}", s.raw_campaign_s),
        format!("setup_s per iteration: {:.4?}", s.setup_s),
        format!(
            "raw query latency: p50 {:.2} ms, p90 {:.2} ms",
            median(&s.raw_query_ms),
            quantile(&s.raw_query_ms, 0.9)
        ),
        format!("query_p50_ms by kind: {}", per_kind.join(", ")),
        format!(
            "ingest latency (not a metric): p50 {:.2} ms (n={})",
            median(&s.ingest_ms),
            s.ingest_ms.len()
        ),
    ];
    Outcome {
        attempted: s.attempted,
        failed: s.failed,
        errors: s.errors,
        metrics,
        notes,
    }
}
