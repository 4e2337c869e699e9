//! Ablation studies for the design choices DESIGN.md §5 calls out:
//!
//! 1. toggle coverage **with vs without** the global alias analysis
//!    (§4.2: "necessary to make toggle coverage perform well");
//! 2. line coverage instrumented **before vs after** when-expansion
//!    (§4.1: the pass must run while branches still exist).
//!
//! The activity-driven backend's premise (an idle design executes a small
//! share of its program) is measured by `bench_sim`'s `essent_1` rows.

use rtlcov_bench::{instrumented_sim, run_workload, scale, Table};
use rtlcov_core::instrument::Metrics;
use rtlcov_core::passes::line::instrument_line_coverage;
use rtlcov_core::passes::toggle::ToggleOptions;
use rtlcov_designs::workloads::table2_workloads;
use rtlcov_firrtl::ir::Stmt;
use rtlcov_firrtl::passes;

fn main() {
    let scale = scale(4);

    println!("=== Ablation 1: toggle coverage alias analysis (§4.2) ===\n");
    let mut table = Table::new();
    table.row(vec![
        "design".into(),
        "covers (alias on)".into(),
        "covers (alias off)".into(),
        "skipped".into(),
        "runtime on".into(),
        "runtime off".into(),
    ]);
    for w in table2_workloads(scale) {
        let with = ToggleOptions::default();
        let without = ToggleOptions {
            use_alias_analysis: false,
            ..ToggleOptions::default()
        };
        let (mut sim_on, inst_on) = instrumented_sim(&w, Metrics::toggle_only(with));
        let (mut sim_off, inst_off) = instrumented_sim(&w, Metrics::toggle_only(without));
        let t_on = run_workload(&w, &mut sim_on);
        let t_off = run_workload(&w, &mut sim_off);
        table.row(vec![
            w.name.to_string(),
            inst_on.artifacts.toggle.cover_count().to_string(),
            inst_off.artifacts.toggle.cover_count().to_string(),
            inst_on.artifacts.toggle.alias_skipped.to_string(),
            format!("{:.3} s", t_on.as_secs_f64()),
            format!("{:.3} s", t_off.as_secs_f64()),
        ]);
    }
    println!("{}", table.render());

    println!("=== Ablation 2: line coverage before vs after when-expansion (§4.1) ===\n");
    // before (the correct placement)
    let mut pre = passes::lower_types::lower_types(
        passes::infer_widths::infer_widths(
            passes::check::check(rtlcov_designs::riscv_mini::riscv_mini()).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    let info = instrument_line_coverage(&mut pre);
    println!(
        "before expansion: {} branch covers inserted",
        info.cover_count()
    );
    // after: when-expansion removed every branch, so the pass finds nothing
    let mut post = passes::lower(rtlcov_designs::riscv_mini::riscv_mini()).unwrap();
    let info = instrument_line_coverage(&mut post);
    let mut whens = 0;
    for m in &post.modules {
        m.for_each_stmt(&mut |s| {
            if matches!(s, Stmt::When { .. }) {
                whens += 1;
            }
        });
    }
    println!(
        "after expansion:  {} branch covers inserted ({} `when`s remain) — \
         branch identity is gone, exactly the paper's Figure 3 argument\n",
        info.cover_count(),
        whens
    );
}
