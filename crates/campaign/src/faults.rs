//! Deterministic fault injection for campaign robustness testing.
//!
//! A [`FaultPlan`] names the faults a campaign run must survive:
//! explicit [`FaultSite`]s pin a fault kind to (design, shard, backend)
//! coordinates (any of which may be wildcards) with an optional firing
//! budget, and an optional seeded matcher draws faults pseudo-randomly —
//! but reproducibly — from a seed. No wall-clock randomness is involved
//! anywhere: the same plan against the same job list injects the same
//! faults, which is what lets the fault-tolerance tests compare a faulty
//! campaign bit-for-bit against a fault-free reference.
//!
//! The runner consults the plan at each injection point (job execution,
//! shard persistence); [`ShardStore`](crate::shard::ShardStore)
//! write tampering is wired through
//! [`with_write_tamper`](crate::shard::ShardStore::with_write_tamper).

use crate::job::{Backend, JobSpec};
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// The kinds of failure a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The backend panics mid-job (caught by the worker's unwind guard).
    Panic,
    /// The backend returns an error result.
    Error,
    /// The job runs away: it keeps consuming steps until its fuel budget
    /// ends it (ends as `TimedOut`, never as a hang).
    Stall,
    /// The shard artifact is corrupted on write (caught by read-back
    /// verification, surfacing as a persist failure).
    Corrupt,
}

impl FaultKind {
    /// Every kind, in a stable order (the position salts seeded draws,
    /// so reordering would change which jobs a `random@` plan hits).
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Panic,
        FaultKind::Error,
        FaultKind::Stall,
        FaultKind::Corrupt,
    ];

    /// Stable name (CLI identifier).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::Stall => "stall",
            FaultKind::Corrupt => "corrupt",
        }
    }

    /// Parse a [`FaultKind::name`] back into a kind.
    pub fn parse(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn index(&self) -> u64 {
        FaultKind::ALL.iter().position(|k| k == self).unwrap_or(0) as u64
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault pinned to job coordinates. `None` coordinates are wildcards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSite {
    /// What to inject.
    pub kind: FaultKind,
    /// Design name to match (`None` = any).
    pub design: Option<String>,
    /// Shard index to match (`None` = any).
    pub shard: Option<u64>,
    /// Backend to match (`None` = any).
    pub backend: Option<Backend>,
    /// How many times the site may fire (`None` = every match). A budget
    /// of 1 models a transient fault that a retry survives; `None` models
    /// a hard fault that forces quarantine and degradation.
    pub budget: Option<u32>,
}

impl FaultSite {
    fn matches(&self, kind: FaultKind, job: &JobSpec) -> bool {
        self.kind == kind
            && self.design.as_deref().is_none_or(|d| d == job.design)
            && self.shard.is_none_or(|s| s == job.shard)
            && self.backend.is_none_or(|b| b == job.backend)
    }

    /// Parse `kind@design:shard:backend[=budget]` (with `*` wildcards),
    /// e.g. `panic@gcd:0:interp=1` or `error@queue:*:fpga`.
    ///
    /// # Errors
    ///
    /// A description of the malformed field.
    pub fn parse(entry: &str) -> Result<FaultSite, String> {
        let (kind_name, rest) = entry
            .split_once('@')
            .ok_or_else(|| format!("fault site `{entry}` is missing `@`"))?;
        let kind = FaultKind::parse(kind_name)
            .ok_or_else(|| format!("unknown fault kind `{kind_name}`"))?;
        let (coords, budget) = match rest.split_once('=') {
            Some((coords, n)) => (
                coords,
                Some(
                    n.parse::<u32>()
                        .map_err(|_| format!("bad fault budget `{n}`"))?,
                ),
            ),
            None => (rest, None),
        };
        let parts: Vec<&str> = coords.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "fault site `{entry}` needs design:shard:backend coordinates"
            ));
        }
        let design = (parts[0] != "*").then(|| parts[0].to_string());
        let shard = if parts[1] == "*" {
            None
        } else {
            Some(
                parts[1]
                    .parse::<u64>()
                    .map_err(|_| format!("bad shard `{}`", parts[1]))?,
            )
        };
        let backend = if parts[2] == "*" {
            None
        } else {
            Some(
                Backend::parse(parts[2])
                    .ok_or_else(|| format!("unknown backend `{}`", parts[2]))?,
            )
        };
        Ok(FaultSite {
            kind,
            design,
            shard,
            backend,
            budget,
        })
    }

    /// Render the site back into the [`FaultSite::parse`] syntax.
    pub fn spec(&self) -> String {
        let mut s = format!(
            "{}@{}:{}:{}",
            self.kind,
            self.design.as_deref().unwrap_or("*"),
            self.shard.map_or_else(|| "*".into(), |s| s.to_string()),
            self.backend.map_or("*", |b| b.name()),
        );
        if let Some(b) = self.budget {
            s.push_str(&format!("={b}"));
        }
        s
    }
}

/// Seeded pseudo-random fault matcher: fires on `rate`% of (job, attempt,
/// kind) coordinates, decided purely by hashing — reproducible across
/// runs, worker counts, and completion orders.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SeededFaults {
    seed: u64,
    rate: u8,
    kinds: Vec<FaultKind>,
}

/// A reproducible set of faults to inject into a campaign.
#[derive(Debug, Default)]
pub struct FaultPlan {
    sites: Vec<(FaultSite, AtomicU32)>,
    seeded: Option<SeededFaults>,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        FaultPlan {
            sites: self
                .sites
                .iter()
                .map(|(s, fired)| (s.clone(), AtomicU32::new(fired.load(Ordering::SeqCst))))
                .collect(),
            seeded: self.seeded.clone(),
        }
    }
}

impl FaultPlan {
    /// A plan firing exactly the given sites.
    pub fn from_sites(sites: impl IntoIterator<Item = FaultSite>) -> Self {
        FaultPlan {
            sites: sites.into_iter().map(|s| (s, AtomicU32::new(0))).collect(),
            seeded: None,
        }
    }

    /// A plan drawing `kinds` faults on `rate_percent`% of (job, attempt)
    /// coordinates from `seed` — no wall-clock randomness, so two runs
    /// with the same seed inject the same faults.
    pub fn seeded(seed: u64, rate_percent: u8, kinds: Vec<FaultKind>) -> Self {
        FaultPlan {
            sites: Vec::new(),
            seeded: Some(SeededFaults {
                seed,
                rate: rate_percent.min(100),
                kinds,
            }),
        }
    }

    /// Add an explicit site to the plan.
    pub fn with_site(mut self, site: FaultSite) -> Self {
        self.sites.push((site, AtomicU32::new(0)));
        self
    }

    /// Parse a comma-separated plan: each entry is a [`FaultSite::parse`]
    /// spec or `random@SEED:RATE` (seeded panic+error faults at RATE%).
    ///
    /// # Errors
    ///
    /// A description of the malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.is_empty()) {
            if let Some(rest) = entry.strip_prefix("random@") {
                let (seed, rate) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("`{entry}` needs random@SEED:RATE"))?;
                let seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("bad fault seed `{seed}`"))?;
                let rate = rate
                    .parse::<u8>()
                    .map_err(|_| format!("bad fault rate `{rate}`"))?;
                plan.seeded = Some(SeededFaults {
                    seed,
                    rate: rate.min(100),
                    kinds: vec![FaultKind::Panic, FaultKind::Error],
                });
            } else {
                plan = plan.with_site(FaultSite::parse(entry)?);
            }
        }
        Ok(plan)
    }

    /// Whether any fault is configured at all.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty() && self.seeded.is_none()
    }

    /// Decide whether `kind` fires for this (job, attempt). Explicit
    /// sites fire first (respecting their budgets — the budget counter is
    /// shared across all matching jobs); otherwise the seeded matcher
    /// decides by hash. Budget bookkeeping is atomic, so concurrent
    /// workers never over-fire a site.
    pub fn fire(&self, kind: FaultKind, job: &JobSpec, attempt: u32) -> bool {
        for (site, fired) in &self.sites {
            if !site.matches(kind, job) {
                continue;
            }
            match site.budget {
                None => return true,
                Some(budget) => {
                    let claimed = fired
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                            (n < budget).then_some(n + 1)
                        })
                        .is_ok();
                    if claimed {
                        return true;
                    }
                }
            }
        }
        if let Some(s) = &self.seeded {
            if s.kinds.contains(&kind) {
                let salt = u64::from(attempt) | (kind.index() << 32);
                return mix(s.seed, &job.id(), salt) % 100 < u64::from(s.rate);
            }
        }
        false
    }
}

/// Deterministic shard corruption: drop the trailing half of the artifact
/// and flip the leading byte, so both the JSON and the binary envelope
/// decoders reject it (truncated body, broken magic/brace).
pub fn corrupt_bytes(bytes: &mut Vec<u8>) {
    let half = bytes.len() / 2;
    bytes.truncate(half);
    match bytes.first_mut() {
        Some(b) => *b ^= 0xff,
        None => bytes.extend_from_slice(b"corrupt"),
    }
}

/// FNV-1a over `s` folded with `seed` and `salt`, finished with the
/// splitmix64 avalanche — the one hash behind every "seeded, reproducible,
/// no wall clock" decision (fault draws, retry backoff jitter).
pub(crate) fn mix(seed: u64, s: &str, salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = (h ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcov_sim::SimKind;

    fn job(design: &str, shard: u64, backend: Backend) -> JobSpec {
        JobSpec {
            design: design.into(),
            shard,
            backend,
        }
    }

    #[test]
    fn site_specs_round_trip() {
        for spec in [
            "panic@gcd:0:interp=1",
            "error@queue:*:fpga",
            "stall@*:3:*",
            "corrupt@*:*:*=2",
        ] {
            let site = FaultSite::parse(spec).unwrap();
            assert_eq!(site.spec(), spec);
        }
        assert!(FaultSite::parse("panic@gcd:0").is_err());
        assert!(FaultSite::parse("meltdown@gcd:0:interp").is_err());
        assert!(FaultSite::parse("panic@gcd:x:interp").is_err());
    }

    #[test]
    fn budget_limits_firing_and_wildcards_match() {
        let plan = FaultPlan::parse("panic@gcd:*:interp=2").unwrap();
        let j0 = job("gcd", 0, Backend::Sim(SimKind::Interp));
        let j1 = job("gcd", 1, Backend::Sim(SimKind::Interp));
        let other = job("queue", 0, Backend::Sim(SimKind::Interp));
        assert!(plan.fire(FaultKind::Panic, &j0, 0));
        assert!(plan.fire(FaultKind::Panic, &j1, 0));
        assert!(!plan.fire(FaultKind::Panic, &j0, 1), "budget of 2 spent");
        assert!(!plan.fire(FaultKind::Error, &j0, 0), "wrong kind");
        assert!(!plan.fire(FaultKind::Panic, &other, 0), "wrong design");
    }

    #[test]
    fn unbudgeted_sites_always_fire() {
        let plan = FaultPlan::parse("error@queue:*:fpga").unwrap();
        let j = job("queue", 5, Backend::Fpga);
        for attempt in 0..10 {
            assert!(plan.fire(FaultKind::Error, &j, attempt));
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_rate_bounded() {
        let a = FaultPlan::seeded(42, 30, vec![FaultKind::Panic]);
        let b = FaultPlan::seeded(42, 30, vec![FaultKind::Panic]);
        let jobs: Vec<JobSpec> = (0..100)
            .map(|i| job("gcd", i, Backend::Sim(SimKind::Interp)))
            .collect();
        let fires_a: Vec<bool> = jobs
            .iter()
            .map(|j| a.fire(FaultKind::Panic, j, 0))
            .collect();
        let fires_b: Vec<bool> = jobs
            .iter()
            .map(|j| b.fire(FaultKind::Panic, j, 0))
            .collect();
        assert_eq!(fires_a, fires_b, "same seed, same faults");
        let hits = fires_a.iter().filter(|f| **f).count();
        assert!(hits > 5 && hits < 70, "rate ~30%, got {hits}/100");
        // different attempts re-roll, so retries are not doomed
        assert!(jobs
            .iter()
            .any(|j| a.fire(FaultKind::Panic, j, 0) != a.fire(FaultKind::Panic, j, 1)));
        // kinds outside the list never fire
        assert!(!a.fire(FaultKind::Stall, &jobs[0], 0));
    }

    #[test]
    fn plan_parse_rejects_garbage() {
        assert!(FaultPlan::parse("random@notanumber:10").is_err());
        assert!(FaultPlan::parse("panic@a:b").is_err());
        assert!(FaultPlan::parse("kill-worker@gcd:0:interp").is_err());
        assert!(FaultPlan::parse("poison-queue@*:*:*").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn corruption_defeats_both_codecs() {
        let mut json = br#"{"version":1,"design":"gcd"}"#.to_vec();
        corrupt_bytes(&mut json);
        assert!(String::from_utf8(json.clone())
            .map(|s| rtlcov_core::json::parse(&s).is_err())
            .unwrap_or(true));
        let mut bin = b"RSHD\x01\x00rest-of-envelope".to_vec();
        corrupt_bytes(&mut bin);
        assert!(!bin.starts_with(b"RSHD"));
        let mut empty = Vec::new();
        corrupt_bytes(&mut empty);
        assert!(!empty.is_empty(), "empty input still ends up invalid");
    }
}
