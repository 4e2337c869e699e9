//! Campaign-level report rendering: per-design, per-metric summaries over
//! the merged coverage, reusing the core report generators.

use crate::runner::CampaignResult;
use rtlcov_core::instrument::Metrics;
use rtlcov_core::report::{
    fsm::FsmReport, line::LineReport, ready_valid::ReadyValidReport, toggle::ToggleReport,
};

/// Render the merged per-design reports for every requested metric.
pub fn render(result: &CampaignResult, metrics: Metrics) -> String {
    let mut out = String::new();
    for (design, map) in &result.per_design {
        let Some(inst) = result.instrumented.get(design) else {
            continue;
        };
        out.push_str(&format!(
            "== {design}: {}/{} cover points hit ==\n",
            map.covered(),
            map.len()
        ));
        if metrics.line {
            out.push_str(&LineReport::build(&inst.circuit, &inst.artifacts.line, map).render());
            out.push('\n');
        }
        if metrics.toggle.is_some() {
            out.push_str(&ToggleReport::build(&inst.circuit, &inst.artifacts.toggle, map).render());
            out.push('\n');
        }
        if metrics.fsm {
            out.push_str(&FsmReport::build(&inst.circuit, &inst.artifacts.fsm, map).render());
            out.push('\n');
        }
        if metrics.ready_valid {
            out.push_str(
                &ReadyValidReport::build(&inst.circuit, &inst.artifacts.ready_valid, map).render(),
            );
            out.push('\n');
        }
    }
    out
}

/// One-line-per-job campaign summary (outcome + totals + fault stats).
pub fn summary(result: &CampaignResult) -> String {
    let mut out = String::new();
    for (job, outcome) in &result.outcomes {
        out.push_str(&format!("{:<40} {outcome:?}\n", job.id()));
    }
    out.push_str(&format!(
        "total: {} completed, {} resumed, {} cancelled, {} degraded, {} timed out, \
         {} failed, {} panicked; {} cover points ({} hit)\n",
        result.completed(),
        result.resumed(),
        result.cancelled(),
        result.degraded(),
        result.timed_out(),
        result.failed(),
        result.panicked(),
        result.merged.len(),
        result.merged.covered(),
    ));
    let noisy: Vec<_> = result
        .stats
        .per_backend
        .iter()
        .filter(|(_, s)| !s.is_quiet())
        .collect();
    if !noisy.is_empty() {
        out.push_str("backend faults:\n");
        for (backend, s) in noisy {
            out.push_str(&format!(
                "  {backend:<10} {} failures ({} panics), {} timeouts, {} retries, \
                 {} degraded away, {} absorbed\n",
                s.failures, s.panics, s.timeouts, s.retries, s.degraded_from, s.degraded_to,
            ));
        }
    }
    if !result.stats.quarantined.is_empty() {
        let pairs: Vec<String> = result
            .stats
            .quarantined
            .iter()
            .map(|(design, backend)| format!("{design}/{backend}"))
            .collect();
        out.push_str(&format!("quarantined: {}\n", pairs.join(", ")));
    }
    out
}

/// The one-line campaign health verdict, suitable for a final status line
/// and for deciding the process exit code.
pub fn health(result: &CampaignResult) -> String {
    format!(
        "campaign {}: {} completed, {} resumed, {} cancelled, {} degraded, \
         {} timed out, {} failed, {} panicked",
        if result.healthy() {
            "healthy"
        } else {
            "UNHEALTHY"
        },
        result.completed(),
        result.resumed(),
        result.cancelled(),
        result.degraded(),
        result.timed_out(),
        result.failed(),
        result.panicked(),
    )
}
