//! Fault-tolerance integration tests: a campaign under injected faults
//! must finish (no abort, no hang), classify every job correctly, degrade
//! quarantined backends down the fallback chain, and — the core
//! guarantee — produce a merged map bit-identical to the fault-free map
//! restricted to the jobs that actually completed. Injected panics print
//! their payloads to stderr; that noise is expected.

use proptest::prelude::*;
use rtlcov::campaign::runner::{run_campaign, CampaignConfig, JobOutcome};
use rtlcov::campaign::{Backend, FaultKind, FaultPlan, FaultSite, JobSpec};
use rtlcov::core::instrument::Metrics;
use rtlcov::core::CoverageMap;
use rtlcov::designs::workloads::campaign_workload;
use rtlcov::sim::SimKind;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const INTERP: Backend = Backend::Sim(SimKind::Interp);
const ESSENT: Backend = Backend::Sim(SimKind::Essent);
const COMPILED: Backend = Backend::Sim(SimKind::Compiled);

fn unique_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("rtlcov-faults-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config(designs: &[&str], backends: &[Backend]) -> CampaignConfig {
    CampaignConfig {
        designs: designs.iter().map(|s| s.to_string()).collect(),
        backends: backends.to_vec(),
        metrics: Metrics::line_only(),
        shards: 2,
        workers: 4,
        ..CampaignConfig::default()
    }
}

/// Ground truth for one (design, shard): every backend produces this very
/// map (backend equivalence), so it is what any Completed/Degraded/
/// Resumed job must have contributed to the merge.
fn ground_truth_map(config: &CampaignConfig, design: &str, shard: u64) -> CoverageMap {
    let workload = campaign_workload(design, 0, 1).unwrap();
    let inst = rtlcov::core::instrument::CoverageCompiler::new(config.metrics)
        .run(workload.circuit)
        .unwrap();
    let mut sim = SimKind::Interp.build(&inst.circuit).unwrap();
    campaign_workload(design, shard, config.scale)
        .unwrap()
        .run(&mut *sim)
}

/// The merge a fault-free scheduler would produce from exactly the jobs
/// that ended in a coverage-contributing outcome.
fn expected_per_design(
    config: &CampaignConfig,
    outcomes: &[(JobSpec, JobOutcome)],
    design: &str,
) -> CoverageMap {
    let mut contributing: Vec<CoverageMap> = Vec::new();
    for (job, outcome) in outcomes {
        if job.design != design {
            continue;
        }
        if matches!(
            outcome,
            JobOutcome::Completed | JobOutcome::Resumed | JobOutcome::Degraded { .. }
        ) {
            contributing.push(ground_truth_map(config, design, job.shard));
        }
    }
    let refs: Vec<&CoverageMap> = contributing.iter().collect();
    CoverageMap::merge_many(&refs)
}

fn outcome_of<'a>(outcomes: &'a [(JobSpec, JobOutcome)], id: &str) -> &'a JobOutcome {
    &outcomes
        .iter()
        .find(|(job, _)| job.id() == id)
        .unwrap_or_else(|| panic!("no outcome for {id}"))
        .1
}

/// The issue's acceptance scenario in one campaign: an injected panic
/// (transient, survived by retry), a stall beyond the fuel deadline, a
/// corrupted shard write (caught by read-back verification, survived by
/// retry), and a hard error that quarantines a (design, backend) pair and
/// degrades its jobs down the fallback chain.
#[test]
fn acceptance_panic_stall_corruption_and_degradation() {
    let dir = unique_dir("acceptance");
    let plan = FaultPlan::parse(
        "panic@gcd:0:interp=1,stall@gcd:1:interp,corrupt@queue:0:interp=1,error@queue:*:fpga",
    )
    .unwrap();
    let config = CampaignConfig {
        shard_dir: Some(dir.clone()),
        faults: Some(Arc::new(plan)),
        ..base_config(&["gcd", "queue"], &[INTERP, Backend::Fpga])
    };
    let faulty = run_campaign(&config).expect("faults must never abort the campaign");
    let clean = run_campaign(&CampaignConfig {
        faults: None,
        shard_dir: None,
        ..config.clone()
    })
    .unwrap();

    // per-job classification
    assert_eq!(
        outcome_of(&faulty.outcomes, "gcd--s0--interp"),
        &JobOutcome::Completed,
        "budget-1 panic must be survived by a retry"
    );
    assert_eq!(
        outcome_of(&faulty.outcomes, "gcd--s1--interp"),
        &JobOutcome::TimedOut,
        "a stalled job must end at the fuel deadline, not hang"
    );
    assert_eq!(
        outcome_of(&faulty.outcomes, "queue--s0--interp"),
        &JobOutcome::Completed,
        "budget-1 corruption must be caught by read-back and survived by a retry"
    );
    for shard in 0..2 {
        assert_eq!(
            outcome_of(&faulty.outcomes, &format!("queue--s{shard}--fpga")),
            &JobOutcome::Degraded {
                from: Backend::Fpga,
                to: COMPILED,
            },
            "a hard-faulted backend must degrade down the fallback chain"
        );
    }
    assert_eq!(
        outcome_of(&faulty.outcomes, "gcd--s0--fpga"),
        &JobOutcome::Completed,
        "faults on queue/fpga must not leak onto gcd/fpga"
    );

    // bookkeeping
    assert!(!faulty.healthy(), "a timed-out job marks the run unhealthy");
    assert!(faulty
        .stats
        .quarantined
        .contains(&("queue".to_string(), Backend::Fpga)));
    assert_eq!(faulty.stats.per_backend["interp"].panics, 1);
    assert_eq!(faulty.stats.per_backend["interp"].timeouts, 1);
    assert!(faulty.stats.per_backend["interp"].failures >= 2); // panic + persist
                                                               // at least one fpga job fails twice before quarantining the pair; the
                                                               // other may be redirected at pop time without ever attempting fpga
    assert!(faulty.stats.per_backend["fpga"].failures >= 2);
    assert_eq!(faulty.stats.per_backend["fpga"].degraded_from, 2);
    assert_eq!(faulty.stats.per_backend["compiled"].degraded_to, 2);
    let health = rtlcov::campaign::report::health(&faulty);
    assert!(health.contains("UNHEALTHY"), "{health}");
    assert!(health.contains("1 timed out"), "{health}");
    let summary = rtlcov::campaign::report::summary(&faulty);
    assert!(summary.contains("quarantined: queue/fpga"), "{summary}");

    // queue had no timeouts: every job completed (some degraded), so its
    // merge must be bit-identical to the fault-free campaign's
    assert_eq!(
        faulty.per_design["queue"], clean.per_design["queue"],
        "degradation and retried corruption must not change the merge by a bit"
    );

    // gcd's timed-out job contributed a deterministic fuel-limited
    // partial map: reproduce it and check the merge is exactly
    // (completed jobs' ground truth) + (that partial)
    let workload = campaign_workload("gcd", 1, config.scale).unwrap();
    let inst = rtlcov::core::instrument::CoverageCompiler::new(config.metrics)
        .run(campaign_workload("gcd", 0, 1).unwrap().circuit)
        .unwrap();
    let mut sim = SimKind::Interp.build(&inst.circuit).unwrap();
    sim.set_fuel((workload.trace.cycles() as u64 / 2).max(1));
    workload.run(&mut *sim);
    while !sim.out_of_fuel() {
        sim.step();
    }
    let partial = sim.cover_counts();
    // gcd jobs: interp s0 (full), interp s1 (partial), fpga s0 and s1 (full)
    let full_s0 = ground_truth_map(&config, "gcd", 0);
    let full_s1 = ground_truth_map(&config, "gcd", 1);
    let expected_gcd = CoverageMap::merge_many(&[&full_s0, &partial, &full_s0, &full_s1]);
    assert_eq!(
        faulty.per_design["gcd"], expected_gcd,
        "timed-out partial coverage must merge deterministically"
    );

    // the timed-out job must not have persisted a shard: a resumed
    // campaign re-runs it (and, fault-free, completes it)
    let resumed = run_campaign(&CampaignConfig {
        faults: None,
        ..config.clone()
    })
    .unwrap();
    assert_eq!(
        outcome_of(&resumed.outcomes, "gcd--s1--interp"),
        &JobOutcome::Completed
    );
    // 7 persisted shards resume: the 5 completed jobs plus the 2 degraded
    // queue/fpga jobs (persisted under their original spec)
    assert_eq!(resumed.resumed(), 7, "all healthy shards resume");
    assert_eq!(resumed.merged, clean.merged);
    assert!(resumed.healthy());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash-resume: a campaign whose job panics mid-flight (terminally — the
/// panic chases the job down the whole chain) persists everything else;
/// resuming without faults re-runs exactly the lost job and reproduces
/// the uninterrupted merge bit-for-bit.
#[test]
fn crash_resume_reproduces_the_uninterrupted_merge() {
    let dir = unique_dir("resume");
    let config = CampaignConfig {
        shard_dir: Some(dir.clone()),
        // one worker makes the quarantine cascade deterministic: both
        // queue shard-0 jobs complete before shard 1 poisons the chain
        workers: 1,
        ..base_config(&["gcd", "queue"], &[INTERP, ESSENT])
    };
    let uninterrupted = run_campaign(&CampaignConfig {
        shard_dir: None,
        ..config.clone()
    })
    .unwrap();

    let crashed = run_campaign(&CampaignConfig {
        faults: Some(Arc::new(FaultPlan::parse("panic@queue:1:*").unwrap())),
        ..config.clone()
    })
    .unwrap();
    let panicked: Vec<&JobSpec> = crashed
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, JobOutcome::Panicked(_)))
        .map(|(job, _)| job)
        .collect();
    assert_eq!(crashed.panicked(), 2, "queue shard 1 dies on both backends");
    assert!(panicked.iter().all(|j| j.design == "queue" && j.shard == 1));
    assert!(!crashed.healthy());
    assert!(crashed.stats.per_backend["interp"].panics >= 1);

    let resumed = run_campaign(&config).unwrap();
    assert_eq!(resumed.resumed(), 6, "healthy shards were all persisted");
    assert_eq!(resumed.completed(), 2, "exactly the lost jobs re-run");
    assert!(resumed.healthy());
    assert_eq!(
        resumed.merged, uninterrupted.merged,
        "crash + resume must be invisible in the merged map"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Decode a generated index tuple into a fault site over the recoverable
/// kinds (the vendored proptest subset has no `prop_oneof`/`prop_map`,
/// so the choice axes are generated as small integers).
fn decode_site(((kind, design, shard), (backend, budget)): ((u8, u8, u8), (u8, u8))) -> FaultSite {
    FaultSite {
        kind: [FaultKind::Panic, FaultKind::Error, FaultKind::Corrupt][kind as usize],
        design: [Some("gcd"), Some("queue"), None][design as usize].map(str::to_string),
        shard: [Some(0u64), Some(1u64), None][shard as usize],
        backend: [Some(INTERP), Some(ESSENT), None][backend as usize],
        budget: [Some(1u32), Some(2u32), None][budget as usize],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))] // each case runs a full campaign

    /// The no-corruption-leak property: under ANY plan of injected
    /// panics, errors, and corrupt shard writes, the campaign terminates
    /// and each design's merged map is bit-identical to the fault-free
    /// merge of exactly the jobs that ended Completed/Degraded/Resumed —
    /// failed jobs contribute nothing, corrupted bytes never leak in.
    #[test]
    fn merged_map_is_exactly_the_completed_jobs(
        raw_sites in prop::collection::vec(((0u8..3, 0u8..3, 0u8..3), (0u8..3, 0u8..3)), 0..4)
    ) {
        let sites: Vec<FaultSite> = raw_sites.into_iter().map(decode_site).collect();
        let dir = unique_dir("prop");
        let config = CampaignConfig {
            shard_dir: Some(dir.clone()),
            workers: 2,
            faults: Some(Arc::new(FaultPlan::from_sites(sites))),
            ..base_config(&["gcd", "queue"], &[INTERP, ESSENT])
        };
        let result = run_campaign(&config).expect("faults must never abort the campaign");
        prop_assert_eq!(result.timed_out(), 0, "no stall faults injected");
        // every scheduled job has exactly one outcome
        let expected_jobs = rtlcov::campaign::job_list(&config).len();
        prop_assert_eq!(result.outcomes.len(), expected_jobs);
        let mut seen = HashMap::new();
        for (job, _) in &result.outcomes {
            *seen.entry(job.id()).or_insert(0u32) += 1;
        }
        prop_assert!(seen.values().all(|&n| n == 1), "duplicate outcomes: {seen:?}");
        for design in ["gcd", "queue"] {
            let expected = expected_per_design(&config, &result.outcomes, design);
            prop_assert_eq!(
                &result.per_design[design], &expected,
                "design {} diverged from its completed-jobs ground truth", design
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
