//! # rtlcov-campaign
//!
//! A parallel, multi-backend coverage campaign runner on top of the
//! paper's simulator-independent coverage interface (§3/§5.3): because
//! every backend — interpreter, compiled, activity-driven, emulated FPGA,
//! formal BMC — reports the same [`rtlcov_core::CoverageMap`], a campaign
//! can fan (design × stimulus-shard × backend) jobs out over a worker
//! pool and fold the results into one merged map whose value is
//! bit-identical to a sequential run.
//!
//! * [`job`] — the (design, shard, backend) job axis and the backend
//!   degradation chain;
//! * [`runner`] — worker pool + coordinator with per-attempt panic
//!   isolation, per-job fuel deadlines, retry/quarantine/degrade policy,
//!   and saturation-aware scheduling (stop a design after `k` shards of
//!   no new coverage);
//! * [`supervisor`] — poison-tolerant work queue, quarantine set,
//!   deterministic retry backoff;
//! * [`faults`] — seeded, reproducible fault injection (panics, errors,
//!   stalls, corrupt shard writes);
//! * [`merge`] — running per-design merge and plateau detection;
//! * [`shard`] — versioned, resumable on-disk shard artifacts
//!   (JSON or compact binary) with read-back-verified writes;
//! * [`report`] — per-design metric reports over the merged coverage.

#![warn(missing_docs)]

pub mod faults;
pub mod job;
pub mod merge;
pub mod report;
pub mod runner;
pub mod shard;
pub mod supervisor;

pub use faults::{FaultKind, FaultPlan, FaultSite};
pub use job::{Backend, JobSpec};
pub use merge::{MergeTree, SaturationTracker};
pub use runner::{
    job_list, run_campaign, BackendStats, CampaignConfig, CampaignError, CampaignResult,
    CampaignStats, JobOutcome,
};
pub use shard::{Shard, ShardError, ShardFormat, ShardStore};
pub use supervisor::{Attempt, Dispatcher, Quarantine};
