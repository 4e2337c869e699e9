//! The campaign scheduler: fan (design × shard × backend) jobs out over a
//! worker pool, stream per-shard coverage back to a coordinator, and
//! survive backend faults without aborting the campaign.
//!
//! Topology:
//!
//! ```text
//!   Dispatcher ──▶ worker 0 ─┐
//!   (poison-tolerant    ...  ├─ mpsc ─▶ coordinator: MergeTree per design
//!    Condvar queue) worker N ─┘          SaturationTracker per design
//!        ▲                               ShardStore (read-back verified)
//!        └────────────────────────────── retry / quarantine / degrade
//! ```
//!
//! Workers instrument nothing themselves: each design is instrumented
//! once up front and shared immutably, so a campaign pays the compiler
//! pipeline once per design, not once per job. The coordinator is the
//! only writer of merged state and shard files; workers only simulate.
//!
//! Fault tolerance, in layers:
//!
//! * **Panic isolation** — every attempt runs under one `catch_unwind`,
//!   from pickup to event; a panic anywhere in it yields
//!   [`JobOutcome::Panicked`] (after retries), never a campaign abort,
//!   and the worker thread goes on to its next attempt.
//! * **Deadlines** — [`CampaignConfig::job_fuel`] bounds each job (clock
//!   steps for simulators and FPGA, SAT conflicts for formal); a job that
//!   runs dry ends as [`JobOutcome::TimedOut`] with its partial coverage
//!   still merged (partial shards are *not* persisted, so a resume
//!   re-runs them).
//! * **Retry & degradation** — failed attempts retry on the same backend
//!   up to [`CampaignConfig::max_retries`] times with deterministic
//!   seeded backoff; once the budget is spent the (design, backend) pair
//!   is quarantined and the job reruns down the fallback chain
//!   ([`Backend::fallback`]: Fpga → Compiled → Interp), ending as
//!   [`JobOutcome::Degraded`]. Because all backends produce bit-identical
//!   maps for the same workload, degradation trades speed, not results.
//!
//! Determinism: `CoverageMap::merge` is a saturating sum, associative and
//! commutative, so with plateau cancellation disabled the merged map is
//! bit-identical for any worker count and any completion order — and,
//! because degraded backends reproduce the same per-job maps, for any
//! injected fault load that still lets every job complete somewhere.
//! Plateau cancellation (`plateau > 0`) deliberately trades that for
//! wall-clock: after `plateau` consecutive shards of a design with no
//! newly hit cover point, the design's remaining jobs are cancelled.

use crate::faults::{FaultKind, FaultPlan};
use crate::job::{Backend, JobSpec};
use crate::merge::{MergeTree, SaturationTracker};
use crate::shard::{ShardFormat, ShardStore};
use crate::supervisor::{retry_backoff, Attempt, Dispatcher, Quarantine};
use rtlcov_core::instrument::{CoverageCompiler, Instrumented, Metrics};
use rtlcov_core::CoverageMap;
use rtlcov_db::{CoverageDb, RunKey};
use rtlcov_designs::workloads::campaign_workload;
use rtlcov_formal::bmc::{self, BmcOptions};
use rtlcov_fpga::FpgaBackend;
use rtlcov_sim::elaborate::{elaborate, FlatCircuit};
use rtlcov_sim::Simulator;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Designs to cover (names from
    /// `rtlcov_designs::workloads::campaign_design_names`).
    pub designs: Vec<String>,
    /// Backends to schedule each shard on.
    pub backends: Vec<Backend>,
    /// Metrics to instrument.
    pub metrics: Metrics,
    /// Stimulus shards per design (formal runs shard 0 only).
    pub shards: u64,
    /// Per-shard stimulus scale factor (1 = smoke-test scale).
    pub scale: usize,
    /// Worker threads.
    pub workers: usize,
    /// Saturation threshold: cancel a design's remaining jobs after this
    /// many consecutive shards with no new cover points. 0 disables.
    pub plateau: usize,
    /// Persist shards here (and resume from them). `None` keeps the
    /// campaign in memory only.
    pub shard_dir: Option<PathBuf>,
    /// Also stream every completed (non-partial) shard into the coverage
    /// database at this directory, keyed `(design, s<shard>, backend,
    /// db_label)`. Resumed shards are re-ingested idempotently, so a
    /// resumed campaign converges to the same database state.
    pub db_dir: Option<PathBuf>,
    /// The `label` component of the database run key.
    pub db_label: String,
    /// On-disk shard format.
    pub format: ShardFormat,
    /// Bound for formal jobs.
    pub bmc_steps: usize,
    /// Retries per (job, backend) before the pair is quarantined and the
    /// job degrades down the fallback chain.
    pub max_retries: u32,
    /// Per-job deadline: clock steps for simulators and FPGA, cumulative
    /// SAT conflicts for formal. `None` leaves jobs unbounded.
    pub job_fuel: Option<u64>,
    /// Faults to inject (robustness testing). `None` injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
    /// Software-simulator pipeline knobs (optimizer, partitioned
    /// scheduling) applied to every `Backend::Sim` job.
    pub sim_options: rtlcov_sim::SimBuildOptions,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            designs: vec!["gcd".into(), "queue".into()],
            backends: Backend::ALL.to_vec(),
            metrics: Metrics::all(),
            shards: 2,
            scale: 1,
            workers: 4,
            plateau: 0,
            shard_dir: None,
            db_dir: None,
            db_label: "campaign".into(),
            format: ShardFormat::Binary,
            bmc_steps: 10,
            max_retries: 1,
            job_fuel: None,
            faults: None,
            sim_options: rtlcov_sim::SimBuildOptions::default(),
        }
    }
}

/// Why the campaign could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError(pub String);

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign error: {}", self.0)
    }
}

impl std::error::Error for CampaignError {}

/// How one scheduled job ended. `Completed`, `Resumed`, `Cancelled`, and
/// `Degraded` are healthy; `TimedOut`, `Failed`, and `Panicked` make the
/// campaign unhealthy ([`CampaignResult::healthy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran and merged on the requested backend.
    Completed,
    /// Loaded from a previously persisted shard instead of running.
    Resumed,
    /// Skipped because its design saturated first.
    Cancelled,
    /// Completed, but on a fallback backend after the requested
    /// (design, backend) pair was quarantined.
    Degraded {
        /// The backend originally requested.
        from: Backend,
        /// The backend that actually produced the map.
        to: Backend,
    },
    /// Ran out of fuel; its partial coverage was merged but not persisted.
    TimedOut,
    /// The backend failed on every retry and no fallback remained.
    Failed(String),
    /// The backend panicked on every retry and no fallback remained
    /// (message is the recovered panic payload).
    Panicked(String),
}

/// Per-backend fault-handling counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Failed attempts (errors, panics, persist failures).
    pub failures: u64,
    /// The subset of failures that were panics.
    pub panics: u64,
    /// Jobs that ran out of fuel on this backend.
    pub timeouts: u64,
    /// Attempts requeued for retry on this backend.
    pub retries: u64,
    /// Jobs this backend handed down the fallback chain.
    pub degraded_from: u64,
    /// Jobs this backend absorbed from a quarantined backend.
    pub degraded_to: u64,
}

impl BackendStats {
    /// Whether every counter is zero (nothing to report).
    pub fn is_quiet(&self) -> bool {
        *self == BackendStats::default()
    }
}

/// Campaign-wide fault-handling statistics.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Counters keyed by [`Backend::name`].
    pub per_backend: BTreeMap<String, BackendStats>,
    /// (design, backend) pairs quarantined during the run.
    pub quarantined: Vec<(String, Backend)>,
}

impl CampaignStats {
    fn backend_mut(&mut self, backend: Backend) -> &mut BackendStats {
        self.per_backend
            .entry(backend.name().to_string())
            .or_default()
    }
}

/// Everything a finished campaign knows.
#[derive(Debug)]
pub struct CampaignResult {
    /// Global merged map; keys are `{design}::{cover}` so identically
    /// named cover points in different designs stay distinct.
    pub merged: CoverageMap,
    /// Per-design merged maps with the designs' own cover names.
    pub per_design: BTreeMap<String, CoverageMap>,
    /// Instrumented circuits + pass metadata, for report rendering.
    pub instrumented: BTreeMap<String, Instrumented>,
    /// Outcome of every scheduled job, in job-id order.
    pub outcomes: Vec<(JobSpec, JobOutcome)>,
    /// Fault-handling counters (retries, panics, degradations).
    pub stats: CampaignStats,
}

impl CampaignResult {
    fn count(&self, pred: impl Fn(&JobOutcome) -> bool) -> usize {
        self.outcomes.iter().filter(|(_, o)| pred(o)).count()
    }

    /// Jobs that ran to completion in this invocation.
    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Completed))
    }

    /// Jobs satisfied by previously persisted shards.
    pub fn resumed(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Resumed))
    }

    /// Jobs cancelled by saturation.
    pub fn cancelled(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Cancelled))
    }

    /// Jobs completed on a fallback backend.
    pub fn degraded(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Degraded { .. }))
    }

    /// Jobs that ran out of fuel.
    pub fn timed_out(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::TimedOut))
    }

    /// Jobs that failed terminally.
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Failed(_)))
    }

    /// Jobs that panicked terminally.
    pub fn panicked(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Panicked(_)))
    }

    /// Whether every job ended in a coverage-producing outcome. Degraded
    /// and cancelled jobs are healthy; timed-out, failed, and panicked
    /// jobs are not.
    pub fn healthy(&self) -> bool {
        self.failed() + self.panicked() + self.timed_out() == 0
    }
}

/// Immutable per-design state shared by all workers.
struct DesignContext {
    name: String,
    instrumented: Instrumented,
    /// Elaborated once for formal jobs; `None` when formal isn't scheduled.
    flat: Option<FlatCircuit>,
}

/// How one attempt ended; workers send it to the coordinator paired with
/// the attempt it belongs to.
enum Event {
    /// The job produced a map; `partial` marks a fuel-exhausted run.
    Done {
        map: CoverageMap,
        partial: bool,
    },
    Cancelled,
    Failed(String),
    /// The recovered panic payload.
    Panicked(String),
}

/// Enumerate the full job list for a config, in scheduling order
/// (design-major, then shard, then backend — so saturation cancels the
/// tail of a design's shards).
pub fn job_list(config: &CampaignConfig) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for design in &config.designs {
        for shard in 0..config.shards.max(1) {
            for backend in &config.backends {
                if !backend.is_sharded() && shard != 0 {
                    continue;
                }
                jobs.push(JobSpec {
                    design: design.clone(),
                    shard,
                    backend: *backend,
                });
            }
        }
    }
    jobs
}

/// The fuel to hand a simulation job: the configured budget, or — when a
/// stall fault is injected without one — half the trace so the runaway is
/// guaranteed to starve mid-workload.
fn effective_fuel(job_fuel: Option<u64>, stall: bool, trace_cycles: usize) -> Option<u64> {
    match (job_fuel, stall) {
        (Some(fuel), _) => Some(fuel),
        (None, true) => Some((trace_cycles as u64 / 2).max(1)),
        (None, false) => None,
    }
}

/// Execute one attempt on `run_on` (the effective backend after any
/// degradation). Returns the coverage map and whether the job starved
/// mid-run (`true` = partial map, job timed out). A `stall` fault makes
/// the job run away — it keeps stepping until the fuel deadline ends it,
/// which is exactly what the deadline exists to contain.
fn run_job(
    job: &JobSpec,
    run_on: Backend,
    ctx: &DesignContext,
    config: &CampaignConfig,
    stall: bool,
) -> Result<(CoverageMap, bool), String> {
    let mut sim: Box<dyn Simulator> = match run_on {
        Backend::Sim(kind) => kind
            .build_with(&ctx.instrumented.circuit, &config.sim_options)
            .map_err(|e| e.to_string())?,
        Backend::Fpga => Box::new(
            FpgaBackend::with_default_width(&ctx.instrumented.circuit)
                .map_err(|e| e.to_string())?,
        ),
        Backend::Formal => {
            let flat = ctx
                .flat
                .as_ref()
                .ok_or("design was not elaborated for formal")?;
            let fuel = if stall { Some(1) } else { config.job_fuel };
            return bmc::cover_map_fueled(
                flat,
                BmcOptions {
                    max_steps: config.bmc_steps,
                    fuel,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string());
        }
    };
    let workload = campaign_workload(&ctx.name, job.shard, config.scale)
        .ok_or_else(|| format!("no workload for design `{}`", ctx.name))?;
    if let Some(fuel) = effective_fuel(config.job_fuel, stall, workload.trace.cycles()) {
        sim.set_fuel(fuel);
    }
    let mut map = workload.run(&mut *sim);
    if stall {
        while !sim.out_of_fuel() {
            sim.step();
        }
        map = sim.cover_counts();
    }
    Ok((map, sim.out_of_fuel()))
}

/// The database run key a campaign job commits under. The backend is the
/// *requested* one (matching the shard file's key), so a degraded rerun
/// and a resume of its shard hash to the same run and deduplicate.
fn db_run_key(job: &JobSpec, label: &str) -> RunKey {
    RunKey {
        design: job.design.clone(),
        workload: format!("s{}", job.shard),
        backend: job.backend.name().to_string(),
        label: label.to_string(),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Everything a worker thread needs.
#[derive(Clone, Copy)]
struct WorkerEnv<'a> {
    dispatcher: &'a Dispatcher,
    quarantine: &'a Quarantine,
    cancel: &'a HashMap<String, AtomicBool>,
    context_of: &'a HashMap<&'a str, &'a DesignContext>,
    config: &'a CampaignConfig,
}

/// Pull attempts until the dispatcher shuts down. Each attempt runs under
/// one unwind guard, so a panic anywhere in it becomes that attempt's
/// `Panicked` event and the thread moves on to the next one.
fn worker_loop(env: WorkerEnv<'_>, sender: &mpsc::Sender<(Attempt, Event)>) {
    while let Some(mut attempt) = env.dispatcher.next() {
        let event = catch_unwind(AssertUnwindSafe(|| run_attempt(env, &mut attempt)))
            .unwrap_or_else(|payload| Event::Panicked(panic_message(payload)));
        let _ = sender.send((attempt, event));
    }
}

/// One attempt, from pickup to event. Re-routing around a quarantined pair
/// rewrites `attempt` in place, so the event is reported against the
/// backend that actually ran.
fn run_attempt(env: WorkerEnv<'_>, attempt: &mut Attempt) -> Event {
    // route around pairs quarantined while the attempt sat queued
    match env.quarantine.resolve(&attempt.job.design, attempt.run_on) {
        Some(backend) if backend != attempt.run_on => {
            attempt.run_on = backend;
            attempt.attempt = 0;
        }
        Some(_) => {}
        None => return Event::Failed("every backend in the fallback chain is quarantined".into()),
    }
    if env
        .cancel
        .get(attempt.job.design.as_str())
        .is_some_and(|flag| flag.load(Ordering::SeqCst))
    {
        return Event::Cancelled;
    }
    std::thread::sleep(retry_backoff(&attempt.job, attempt.attempt));
    // fault matching uses the *effective* coordinates: a site pinned to a
    // backend stops firing once the job has degraded off that backend, so
    // a hard fault on Fpga does not chase the job down to Compiled
    let coords = JobSpec {
        backend: attempt.run_on,
        ..attempt.job.clone()
    };
    let fires = |kind| {
        env.config
            .faults
            .as_ref()
            .is_some_and(|plan| plan.fire(kind, &coords, attempt.attempt))
    };
    if fires(FaultKind::Error) {
        return Event::Failed("injected fault: backend error".into());
    }
    let stall = fires(FaultKind::Stall);
    if fires(FaultKind::Panic) {
        panic!("injected fault: backend panic");
    }
    let ctx = env.context_of[attempt.job.design.as_str()];
    match run_job(&attempt.job, attempt.run_on, ctx, env.config, stall) {
        Ok((map, partial)) => Event::Done { map, partial },
        Err(error) => Event::Failed(error),
    }
}

/// The single-threaded merge/retry/quarantine brain of the campaign.
struct Coordinator<'a> {
    config: &'a CampaignConfig,
    dispatcher: &'a Dispatcher,
    quarantine: &'a Quarantine,
    cancel: &'a HashMap<String, AtomicBool>,
    store: Option<&'a ShardStore>,
    db: Option<CoverageDb>,
    trees: BTreeMap<String, MergeTree>,
    trackers: BTreeMap<String, SaturationTracker>,
    outcomes: HashMap<JobSpec, JobOutcome>,
    stats: CampaignStats,
    terminal: usize,
}

impl Coordinator<'_> {
    fn merge(&mut self, design: &str, map: CoverageMap) {
        let Some(tracker) = self.trackers.get_mut(design) else {
            return;
        };
        tracker.observe(&map);
        if tracker.saturated() {
            if let Some(flag) = self.cancel.get(design) {
                flag.store(true, Ordering::SeqCst);
            }
        }
        if let Some(tree) = self.trees.get_mut(design) {
            tree.insert(map);
        }
    }

    fn conclude(&mut self, job: JobSpec, outcome: JobOutcome) {
        self.outcomes.insert(job, outcome);
        self.terminal += 1;
    }

    /// One attempt failed: retry on the same backend while the budget
    /// lasts, then quarantine the pair and degrade down the chain, and
    /// only when the chain is exhausted record a terminal outcome.
    fn fail(&mut self, attempt: Attempt, error: String, panicked: bool) {
        let stats = self.stats.backend_mut(attempt.run_on);
        stats.failures += 1;
        if panicked {
            stats.panics += 1;
        }
        if attempt.attempt < self.config.max_retries {
            stats.retries += 1;
            self.dispatcher.push(Attempt {
                attempt: attempt.attempt + 1,
                ..attempt
            });
            return;
        }
        self.quarantine.add(&attempt.job.design, attempt.run_on);
        if let Some(next) = self.quarantine.resolve(&attempt.job.design, attempt.run_on) {
            self.dispatcher.push(Attempt {
                job: attempt.job,
                run_on: next,
                attempt: 0,
            });
            return;
        }
        let outcome = if panicked {
            JobOutcome::Panicked(error)
        } else {
            JobOutcome::Failed(error)
        };
        self.conclude(attempt.job, outcome);
    }

    fn on_event(&mut self, attempt: Attempt, event: Event) {
        match event {
            Event::Done { map, partial } => {
                if partial {
                    // the deadline ended the job; its partial coverage is
                    // real and merges, but the shard is not persisted, so
                    // a resumed campaign re-runs the job in full
                    self.stats.backend_mut(attempt.run_on).timeouts += 1;
                    self.merge(&attempt.job.design, map);
                    self.conclude(attempt.job, JobOutcome::TimedOut);
                    return;
                }
                if let Some(store) = self.store {
                    if let Err(e) = store.save_verified(&attempt.job, &map) {
                        self.fail(attempt, format!("persist: {e}"), false);
                        return;
                    }
                }
                if let Some(db) = self.db.as_mut() {
                    let key = db_run_key(&attempt.job, &self.config.db_label);
                    if let Err(e) = db.ingest(&key, &map) {
                        self.fail(attempt, format!("db ingest: {e}"), false);
                        return;
                    }
                }
                self.merge(&attempt.job.design, map);
                let outcome = if attempt.run_on == attempt.job.backend {
                    JobOutcome::Completed
                } else {
                    self.stats.backend_mut(attempt.job.backend).degraded_from += 1;
                    self.stats.backend_mut(attempt.run_on).degraded_to += 1;
                    JobOutcome::Degraded {
                        from: attempt.job.backend,
                        to: attempt.run_on,
                    }
                };
                self.conclude(attempt.job, outcome);
            }
            Event::Cancelled => self.conclude(attempt.job, JobOutcome::Cancelled),
            Event::Failed(error) => self.fail(attempt, error, false),
            Event::Panicked(message) => self.fail(attempt, message, true),
        }
    }
}

/// Run a campaign to completion.
///
/// # Errors
///
/// Configuration errors (unknown design/empty axes) and instrumentation
/// failures abort the whole campaign. Individual job failures do not:
/// they are isolated, retried, degraded, and ultimately reported per job
/// in [`CampaignResult::outcomes`].
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignResult, CampaignError> {
    if config.designs.is_empty() {
        return Err(CampaignError("no designs selected".into()));
    }
    if config.backends.is_empty() {
        return Err(CampaignError("no backends selected".into()));
    }
    let workers = config.workers.max(1);
    let needs_formal = config.backends.contains(&Backend::Formal);

    // instrument each design once; workers share the result immutably
    let mut contexts: Vec<DesignContext> = Vec::new();
    for design in &config.designs {
        let workload = campaign_workload(design, 0, 1)
            .ok_or_else(|| CampaignError(format!("unknown design `{design}`")))?;
        let instrumented = CoverageCompiler::new(config.metrics)
            .run(workload.circuit)
            .map_err(|e| CampaignError(format!("instrumenting `{design}`: {e}")))?;
        let flat = if needs_formal {
            Some(
                elaborate(&instrumented.circuit)
                    .map_err(|e| CampaignError(format!("elaborating `{design}`: {e}")))?,
            )
        } else {
            None
        };
        contexts.push(DesignContext {
            name: design.clone(),
            instrumented,
            flat,
        });
    }
    let context_of: HashMap<&str, &DesignContext> =
        contexts.iter().map(|c| (c.name.as_str(), c)).collect();

    // resume: load usable shards (corrupt writes never survive
    // `save_verified`, so everything scanned here is trustworthy),
    // schedule everything else
    let store = config.shard_dir.as_ref().map(|d| {
        let mut store = ShardStore::new(d, config.format);
        if let Some(plan) = &config.faults {
            let plan = Arc::clone(plan);
            store = store.with_write_tamper(Arc::new(move |job: &JobSpec, bytes: &mut Vec<u8>| {
                if plan.fire(FaultKind::Corrupt, job, 0) {
                    crate::faults::corrupt_bytes(bytes);
                }
            }));
        }
        store
    });
    let mut resumed: Vec<(JobSpec, CoverageMap)> = Vec::new();
    if let Some(store) = &store {
        let (shards, _rejected) = store.scan();
        for shard in shards {
            resumed.push((shard.job, shard.map));
        }
    }
    let all_jobs = job_list(config);
    let pending: Vec<JobSpec> = all_jobs
        .iter()
        .filter(|j| !resumed.iter().any(|(r, _)| r == *j))
        .cloned()
        .collect();
    let scheduled = pending.len();

    // coordinator state
    let mut trees: BTreeMap<String, MergeTree> = BTreeMap::new();
    let mut trackers: BTreeMap<String, SaturationTracker> = BTreeMap::new();
    let cancel: HashMap<String, AtomicBool> = config
        .designs
        .iter()
        .map(|d| (d.clone(), AtomicBool::new(false)))
        .collect();
    for design in &config.designs {
        trees.insert(design.clone(), MergeTree::new());
        trackers.insert(design.clone(), SaturationTracker::new(config.plateau));
    }
    let mut outcomes: HashMap<JobSpec, JobOutcome> = HashMap::new();

    let mut db = match &config.db_dir {
        Some(dir) => Some(
            CoverageDb::open(dir).map_err(|e| CampaignError(format!("open coverage db: {e}")))?,
        ),
        None => None,
    };

    // previously persisted shards participate in the merge (and in the
    // saturation statistics) but are not re-run and not re-persisted;
    // database ingest is idempotent, so re-committing them is a no-op
    for (job, map) in resumed {
        if let (Some(tree), Some(tracker)) =
            (trees.get_mut(&job.design), trackers.get_mut(&job.design))
        {
            if let Some(db) = db.as_mut() {
                db.ingest(&db_run_key(&job, &config.db_label), &map)
                    .map_err(|e| CampaignError(format!("db ingest of resumed shard: {e}")))?;
            }
            tracker.observe(&map);
            tree.insert(map);
            outcomes.insert(job, JobOutcome::Resumed);
        }
    }

    let dispatcher = Dispatcher::new(pending.into_iter().map(Attempt::first));
    let quarantine = Quarantine::default();
    let (sender, receiver) = mpsc::channel::<(Attempt, Event)>();

    let mut coordinator = Coordinator {
        config,
        dispatcher: &dispatcher,
        quarantine: &quarantine,
        cancel: &cancel,
        store: store.as_ref(),
        db,
        trees,
        trackers,
        outcomes,
        stats: CampaignStats::default(),
        terminal: 0,
    };
    for backend in &config.backends {
        coordinator.stats.backend_mut(*backend); // stable report keys
    }
    let env = WorkerEnv {
        dispatcher: &dispatcher,
        quarantine: &quarantine,
        cancel: &cancel,
        context_of: &context_of,
        config,
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let sender = sender.clone();
            scope.spawn(move || worker_loop(env, &sender));
        }
        drop(sender);
        while coordinator.terminal < scheduled {
            match receiver.recv() {
                Ok((attempt, event)) => coordinator.on_event(attempt, event),
                Err(_) => {
                    // every sender is gone: account for whatever is left
                    for attempt in dispatcher.drain() {
                        coordinator
                            .conclude(attempt.job, JobOutcome::Failed("worker pool lost".into()));
                    }
                    break;
                }
            }
        }
        dispatcher.shutdown();
    });

    let mut per_design = BTreeMap::new();
    let mut merged = CoverageMap::new();
    for (design, tree) in &coordinator.trees {
        let map = tree.merged();
        for (name, count) in map.iter() {
            let global = format!("{design}::{name}");
            merged.declare(global.clone());
            merged.record(global, count);
        }
        per_design.insert(design.clone(), map);
    }
    let mut outcomes: Vec<(JobSpec, JobOutcome)> = coordinator.outcomes.into_iter().collect();
    outcomes.sort_by_key(|(job, _)| job.id());
    let mut stats = coordinator.stats;
    stats.quarantined = quarantine.pairs();
    let instrumented = contexts
        .into_iter()
        .map(|c| (c.name, c.instrumented))
        .collect();
    Ok(CampaignResult {
        merged,
        per_design,
        instrumented,
        outcomes,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcov_sim::SimKind;

    fn quick(designs: &[&str], backends: Vec<Backend>) -> CampaignConfig {
        CampaignConfig {
            designs: designs.iter().map(|s| s.to_string()).collect(),
            backends,
            metrics: Metrics::line_only(),
            shards: 2,
            workers: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn unknown_design_is_a_config_error() {
        let config = quick(&["nope"], vec![Backend::Sim(SimKind::Interp)]);
        assert!(run_campaign(&config).is_err());
    }

    #[test]
    fn formal_runs_once_per_design() {
        let config = quick(
            &["gcd"],
            vec![Backend::Sim(SimKind::Interp), Backend::Formal],
        );
        let jobs = job_list(&config);
        let formal = jobs.iter().filter(|j| j.backend == Backend::Formal).count();
        assert_eq!(formal, 1, "formal is stimulus-independent");
        assert_eq!(jobs.len(), 3); // 2 interp shards + 1 formal
    }

    #[test]
    fn small_campaign_completes_and_prefixes_global_keys() {
        let config = quick(&["gcd"], vec![Backend::Sim(SimKind::Interp)]);
        let result = run_campaign(&config).unwrap();
        assert_eq!(result.completed(), 2);
        assert_eq!(result.failed(), 0);
        assert!(result.healthy());
        let gcd = &result.per_design["gcd"];
        assert!(!gcd.is_empty(), "line instrumentation yields cover points");
        assert_eq!(result.merged.len(), gcd.len());
        for (name, _) in result.merged.iter() {
            assert!(name.starts_with("gcd::"), "{name}");
        }
    }

    #[test]
    fn sim_options_do_not_change_coverage() {
        let backends = vec![
            Backend::Sim(SimKind::Compiled),
            Backend::Sim(SimKind::Essent),
        ];
        let optimized = quick(&["gcd", "queue"], backends.clone());
        let baseline = CampaignConfig {
            sim_options: rtlcov_sim::SimBuildOptions {
                optimize: false,
                partition: false,
            },
            ..quick(&["gcd", "queue"], backends)
        };
        let a = run_campaign(&optimized).unwrap();
        let b = run_campaign(&baseline).unwrap();
        assert!(a.healthy() && b.healthy());
        assert_eq!(a.merged, b.merged, "optimizer must be invisible in maps");
    }

    #[test]
    fn persisted_campaign_resumes_without_rerunning() {
        let dir =
            std::env::temp_dir().join(format!("rtlcov-campaign-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CampaignConfig {
            shard_dir: Some(dir.clone()),
            ..quick(
                &["queue"],
                vec![Backend::Sim(SimKind::Interp), Backend::Sim(SimKind::Essent)],
            )
        };
        let first = run_campaign(&config).unwrap();
        assert_eq!(first.completed(), 4);
        assert_eq!(first.resumed(), 0);
        let second = run_campaign(&config).unwrap();
        assert_eq!(second.completed(), 0);
        assert_eq!(second.resumed(), 4);
        assert_eq!(first.merged, second.merged, "resume reproduces the merge");
        // corrupt one shard: exactly that job reruns
        let path = ShardStore::new(&dir, config.format).path_for(&JobSpec {
            design: "queue".into(),
            shard: 1,
            backend: Backend::Sim(SimKind::Essent),
        });
        std::fs::write(&path, b"RSHDgarbage").unwrap();
        let third = run_campaign(&config).unwrap();
        assert_eq!(third.completed(), 1);
        assert_eq!(third.resumed(), 3);
        assert_eq!(first.merged, third.merged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_streams_shards_into_the_db_idempotently() {
        use rtlcov_db::Selector;
        let dir = std::env::temp_dir().join(format!("rtlcov-campaign-db-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CampaignConfig {
            shard_dir: Some(dir.join("shards")),
            db_dir: Some(dir.join("db")),
            db_label: "unit".into(),
            ..quick(&["gcd"], vec![Backend::Sim(SimKind::Interp)])
        };
        let result = run_campaign(&config).unwrap();
        assert_eq!(result.completed(), 2);
        let db = CoverageDb::open(dir.join("db")).unwrap();
        assert_eq!(db.runs().len(), 2);
        assert!(db.runs().iter().all(|r| r.key.label == "unit"));
        let merged = db.merged(&Selector::parse("design=gcd").unwrap()).unwrap();
        assert_eq!(*merged, result.per_design["gcd"], "db == live merge");
        // resume: shards re-ingest idempotently, no new segments
        let again = run_campaign(&config).unwrap();
        assert_eq!(again.resumed(), 2);
        let db = CoverageDb::open(dir.join("db")).unwrap();
        assert_eq!(db.runs().len(), 2, "idempotent re-ingest");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saturation_cancels_redundant_shards() {
        // one worker => deterministic completion order; gcd's line
        // coverage saturates on the first shard, so with K = 2 the
        // remaining shards are cancelled
        let config = CampaignConfig {
            shards: 8,
            workers: 1,
            plateau: 2,
            ..quick(&["gcd"], vec![Backend::Sim(SimKind::Interp)])
        };
        let result = run_campaign(&config).unwrap();
        assert!(result.cancelled() >= 1, "outcomes: {:?}", result.outcomes);
        assert_eq!(result.completed() + result.cancelled(), 8);
    }

    #[test]
    fn job_fuel_times_jobs_out_with_partial_coverage() {
        let config = CampaignConfig {
            job_fuel: Some(3),
            ..quick(&["gcd"], vec![Backend::Sim(SimKind::Interp)])
        };
        let result = run_campaign(&config).unwrap();
        assert_eq!(result.timed_out(), 2, "outcomes: {:?}", result.outcomes);
        assert!(!result.healthy());
        assert_eq!(result.stats.per_backend["interp"].timeouts, 2);
        // partial coverage still merged (gcd covers something in 3 cycles
        // of reset+stimulus is not guaranteed, but the map's key set is)
        assert!(!result.merged.is_empty());
        // deterministic: the same fuel yields the same partial merge
        let again = run_campaign(&config).unwrap();
        assert_eq!(result.merged, again.merged);
    }
}
