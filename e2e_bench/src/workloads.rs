//! The two workloads, each a fixed campaign plus a query phase over its
//! stored result.
//!
//! Campaign stimuli are fixed by shard index: `run_campaign` takes no
//! seed, so `--seed` drives only the query mix and the maps the client
//! ingests between queries.

use rtlcov_campaign::{job_list, Backend, CampaignConfig, JobSpec};
use rtlcov_designs::workloads::{campaign_design_names, campaign_workload};
use rtlcov_sim::SimKind;
use std::collections::HashMap;
use std::path::Path;

/// Worker threads for every campaign: the 2-core budget the benchmark is
/// sized for.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    config: CampaignConfig,
    /// Also persist shard files (every workload streams into a db).
    pub keep_shards: bool,
    /// HTTP queries per iteration of the query phase: about 3 s of
    /// queries, so that a 55-s run holds 5 to 10 campaigns and more than
    /// 200 queries (over 10 beyond p90).
    pub queries: usize,
}

/// Every `INGEST_EVERY`-th client operation is an ingest.
pub const INGEST_EVERY: usize = 10;

pub const NAMES: [&str; 2] = ["default-mix", "shards-to-db"];

fn designs(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

pub fn workload(name: &str) -> Option<Workload> {
    let replay = vec![
        Backend::Sim(SimKind::Compiled),
        Backend::Sim(SimKind::Essent),
    ];
    Some(match name {
        // All five backends, library defaults. tlram and riscv-mini are
        // left out: BMC rejects their 256- and 4096-word memories (limit
        // 64), so their formal jobs would fail on every run. neuroproc
        // goes first so its long formal solve (most of all formal time)
        // overlaps the simulation jobs instead of running alone at the end.
        "default-mix" => Workload {
            name: "default-mix",
            config: CampaignConfig {
                designs: designs(&["neuroproc", "gcd", "queue", "serv", "i2c"]),
                backends: Backend::ALL.to_vec(),
                shards: 8,
                scale: 12,
                workers: WORKERS,
                ..CampaignConfig::default()
            },
            keep_shards: false,
            // about 13 ms per query: each re-parses a 30 KB manifest
            queries: 200,
        },
        // Many scale-1 shards, persisted as shard files too: build,
        // workload generation, merge, shard persist and ingest dominate.
        "shards-to-db" => Workload {
            name: "shards-to-db",
            config: CampaignConfig {
                designs: designs(&campaign_design_names()),
                backends: replay,
                shards: 32,
                scale: 1,
                workers: WORKERS,
                ..CampaignConfig::default()
            },
            keep_shards: true,
            // about 120 ms per query: each re-parses an 82 KB manifest
            queries: 25,
        },
        _ => return None,
    })
}

impl Workload {
    /// The campaign configuration, streaming into a db under `work` (and
    /// persisting shards there when the workload keeps them).
    pub fn config(&self, work: &Path) -> CampaignConfig {
        let mut config = self.config.clone();
        config.db_dir = Some(work.join("db"));
        if self.keep_shards {
            config.shard_dir = Some(work.join("shards"));
        }
        config
    }

    pub fn jobs(&self) -> Vec<JobSpec> {
        job_list(&self.config)
    }

    /// Simulated target cycles of every simulation and FPGA job (the sum
    /// of their trace lengths), known from the job list alone.
    pub fn sim_cycles(&self) -> u64 {
        let mut per_shard: HashMap<(String, u64), u64> = HashMap::new();
        let mut total = 0;
        for job in self.jobs() {
            if job.backend == Backend::Formal {
                continue;
            }
            total += *per_shard
                .entry((job.design.clone(), job.shard))
                .or_insert_with(|| {
                    campaign_workload(&job.design, job.shard, self.config.scale)
                        .expect("workload designs exist")
                        .trace
                        .cycles() as u64
                });
        }
        total
    }
}
