//! Instrumentation is transparent: the coverage passes add cover
//! statements and the logic that feeds them, and change nothing the
//! design computes. Each campaign design is built uninstrumented and with
//! every metric; both builds replay the design's seeded campaign workload
//! in lockstep, and every signal of the uninstrumented build, hierarchical
//! ones included, must read the same in both at every cycle.

use rtlcov::core::instrument::{CoverageCompiler, Metrics};
use rtlcov::designs::workloads::campaign_workload;
use rtlcov::fuzz::equivalence::{agree_on, config, Named};

const DESIGNS: [&str; 7] = [
    "gcd",
    "queue",
    "tlram",
    "serv",
    "neuroproc",
    "i2c",
    "riscv-mini",
];

#[test]
fn every_metric_leaves_the_design_unchanged() {
    // the unoptimized program: the most literal reading of each build
    let cfg = config("compiled_raw");
    for design in DESIGNS {
        let w = campaign_workload(design, 0, 1).expect("campaign design");
        let build = |metrics| {
            let inst = CoverageCompiler::new(metrics).run(w.circuit.clone());
            cfg.build(&inst.expect("design instruments").circuit)
                .unwrap()
        };
        let mut sims: Vec<Named> = vec![
            ("none", build(Metrics::none())),
            ("all", build(Metrics::all())),
        ];
        let signals = sims[0].1.signals();
        for (_, sim) in &mut sims {
            if let Some((imem, dmem, program)) = &w.program {
                program.load(sim.as_mut(), imem, dmem).unwrap();
            }
        }
        for (cycle, values) in w.trace.values.iter().enumerate() {
            for (_, sim) in &mut sims {
                for (input, value) in w.trace.inputs.iter().zip(values) {
                    sim.poke(input, *value);
                }
            }
            agree_on(&sims, &signals, &format!("{design} cycle {cycle}")).unwrap();
            for (_, sim) in &mut sims {
                sim.step();
            }
        }
        agree_on(&sims, &signals, &format!("{design} end")).unwrap();
    }
}
