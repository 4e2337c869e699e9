//! The paper's deterministic shape claims, asserted at small scale with
//! no timing. `EXPERIMENTS.md` narrates the same numbers; these tests
//! keep the narration honest.

use rtlcov::core::cover_values::lower_cover_values;
use rtlcov::core::instrument::{CoverageCompiler, Metrics};
use rtlcov::core::passes::line::instrument_line_coverage;
use rtlcov::core::passes::toggle::ToggleOptions;
use rtlcov::designs::riscv_mini::riscv_mini;
use rtlcov::designs::workloads::campaign_workload;
use rtlcov::firrtl::ir::{Circuit, Stmt};
use rtlcov::firrtl::parser::parse;
use rtlcov::firrtl::passes;
use rtlcov::fuzz::equivalence::config;
use rtlcov::sim::Simulator;

fn count_stmts(circuit: &Circuit, pred: impl Fn(&Stmt) -> bool) -> usize {
    let mut n = 0;
    for m in &circuit.modules {
        m.for_each_stmt(&mut |s| n += usize::from(pred(s)));
    }
    n
}

/// §4.2: the global alias analysis is "necessary to make toggle coverage
/// perform well" — without it riscv-mini gets 43 % more toggle covers.
#[test]
fn alias_analysis_shrinks_riscv_mini_toggle_covers() {
    let toggle_covers = |use_alias_analysis| {
        let options = ToggleOptions {
            use_alias_analysis,
            ..ToggleOptions::default()
        };
        CoverageCompiler::new(Metrics::toggle_only(options))
            .run(riscv_mini())
            .expect("riscv-mini instruments")
            .artifacts
            .toggle
            .cover_count()
    };
    assert_eq!((toggle_covers(true), toggle_covers(false)), (992, 1422));
}

/// §4.1 / Figure 3: line coverage must run while `when` branches still
/// exist; after when-expansion there is nothing left to instrument.
#[test]
fn line_pass_needs_branches_before_when_expansion() {
    let checked = passes::check::check(riscv_mini()).expect("riscv-mini checks");
    let mut before =
        passes::lower_types::lower_types(passes::infer_widths::infer_widths(checked).unwrap())
            .unwrap();
    assert_eq!(instrument_line_coverage(&mut before).cover_count(), 30);

    let mut after = passes::lower(riscv_mini()).expect("riscv-mini lowers");
    assert_eq!(count_stmts(&after, |s| matches!(s, Stmt::When { .. })), 0);
    assert_eq!(instrument_line_coverage(&mut after).cover_count(), 0);
}

/// Figure 12: covering every value of a w-bit signal with plain covers
/// takes 2^w statements; the native primitive takes one.
#[test]
fn plain_cover_lowering_is_exponential_in_width() {
    for width in [2u32, 4, 6, 8] {
        let mut circuit = parse(&format!(
            "
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    reg x : UInt<{width}>, clock with : (reset => (reset, UInt<{width}>(0)))
    x <= tail(add(x, UInt<{width}>(1)), 1)
    cover_values(clock, x, UInt<1>(1)) : vals
"
        ))
        .expect("template parses");
        let is_cover_values = |s: &Stmt| matches!(s, Stmt::CoverValues { .. });
        assert_eq!(count_stmts(&circuit, is_cover_values), 1);
        let lowered = lower_cover_values(&mut circuit).expect("within lowering bound");
        assert_eq!(lowered, 1 << width, "width {width}");
        assert_eq!(count_stmts(&circuit, is_cover_values), 0);
        assert_eq!(
            count_stmts(&circuit, |s| matches!(s, Stmt::Cover { .. })),
            1 << width
        );
    }
}

/// The ESSENT premise the activity-driven backend rests on: an idle
/// design executes a smaller share of its program than a stimulated one.
/// With one-instruction partitions the activity factor is exactly the
/// share of instructions whose inputs changed.
#[test]
fn idle_design_executes_a_smaller_share_of_its_program() {
    let essent_1 = config("essent_1");
    let instrumented = |circuit| {
        CoverageCompiler::new(Metrics::all())
            .run(circuit)
            .expect("design instruments")
            .circuit
    };

    // no program: riscv-mini spins in its fetch state
    let mut idle = essent_1.essent(&instrumented(riscv_mini())).unwrap();
    idle.reset(1);
    idle.step_n(2000);

    let neuroproc = campaign_workload("neuroproc", 0, 10).expect("campaign design");
    let mut busy = essent_1
        .essent(&instrumented(neuroproc.circuit.clone()))
        .unwrap();
    neuroproc.run(&mut busy);

    let (idle, busy) = (idle.activity_factor(), busy.activity_factor());
    assert!(
        idle < busy,
        "idle riscv-mini {idle:.3} vs stimulated NeuroProc {busy:.3}"
    );
}
