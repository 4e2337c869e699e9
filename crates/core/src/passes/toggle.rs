//! Toggle coverage instrumentation (§4.2 of the paper).
//!
//! Runs on the structural RTL *after* optimization (constant propagation
//! and dead-code elimination), so signals the optimizer removed are not
//! instrumented. For every selected signal the pass adds:
//!
//! * a register recording the signal's previous-cycle value,
//! * an xor gate detecting per-bit changes,
//! * one cover statement per bit,
//! * and a shared register that disables all toggle covers during the
//!   first cycle (the previous value is not valid yet).
//!
//! The global alias analysis (`rtlcov_firrtl::passes::alias`) restricts
//! instrumentation to one signal per always-equal group — the optimization
//! the paper calls out as necessary for toggle coverage to perform well.

use rtlcov_firrtl::dsl::ExprExt;
use rtlcov_firrtl::ir::*;
use rtlcov_firrtl::passes::alias::{alias_analysis, AliasGroups};
use std::collections::BTreeMap;

/// Which signal classes to instrument (the paper lets the user choose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToggleOptions {
    /// Instrument module ports.
    pub ports: bool,
    /// Instrument registers.
    pub regs: bool,
    /// Instrument wires and named nodes.
    pub wires: bool,
    /// Use the global alias analysis to skip redundant signals
    /// (disable only for the ablation benchmark).
    pub use_alias_analysis: bool,
    /// Count rising and falling edges separately (two covers per bit) —
    /// the "simple extension" §4.2 sketches.
    pub split_edges: bool,
}

impl Default for ToggleOptions {
    fn default() -> Self {
        ToggleOptions {
            ports: true,
            regs: true,
            wires: true,
            use_alias_analysis: true,
            split_edges: false,
        }
    }
}

impl ToggleOptions {
    /// Instrument registers only.
    pub fn regs_only() -> Self {
        ToggleOptions {
            ports: false,
            regs: true,
            wires: false,
            ..ToggleOptions::default()
        }
    }

    /// Count rising and falling edges separately.
    pub fn with_split_edges(mut self) -> Self {
        self.split_edges = true;
        self
    }
}

/// Edge direction of a toggle cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ToggleEdge {
    /// Any change (the default single-cover-per-bit mode).
    #[default]
    Any,
    /// Zero-to-one transition.
    Rise,
    /// One-to-zero transition.
    Fall,
}

/// Metadata for one instrumented signal bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToggleTarget {
    /// Signal name within the module.
    pub signal: String,
    /// Bit index.
    pub bit: u32,
    /// Which edge this cover counts.
    pub edge: ToggleEdge,
}

/// Metadata emitted by the toggle pass, consumed by
/// [`crate::report::toggle`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ToggleCoverageInfo {
    /// module → cover name → target.
    pub modules: BTreeMap<String, BTreeMap<String, ToggleTarget>>,
    /// Signals skipped thanks to alias analysis (for the ablation report).
    pub alias_skipped: usize,
}

impl ToggleCoverageInfo {
    /// Total number of inserted cover points (one instantiation each).
    pub fn cover_count(&self) -> usize {
        self.modules.values().map(|m| m.len()).sum()
    }
}

/// Instrument toggle coverage over a fully lowered circuit.
///
/// # Errors
///
/// Propagates alias-analysis failures.
pub fn instrument_toggle_coverage(
    circuit: &mut Circuit,
    options: ToggleOptions,
) -> Result<ToggleCoverageInfo, rtlcov_firrtl::passes::PassError> {
    let alias: Option<AliasGroups> = if options.use_alias_analysis {
        Some(alias_analysis(circuit)?)
    } else {
        None
    };
    let mut info = ToggleCoverageInfo::default();
    if let Some(a) = &alias {
        info.alias_skipped = a.skipped_count();
    }

    // type environments need the whole circuit (instances reference other
    // modules), so compute them before mutating
    let reference = circuit.clone();
    let mut envs = std::collections::HashMap::new();
    for module in &reference.modules {
        if let Ok(env) = rtlcov_firrtl::typecheck::module_env(module, &reference) {
            envs.insert(module.name.clone(), env);
        }
    }

    // Phase 1: collect kind-filtered candidates per module.
    let mut per_module: BTreeMap<String, Vec<(String, u32, bool)>> = BTreeMap::new();
    for module in &reference.modules {
        if module.clock().is_none() {
            continue;
        }
        let mut candidates: Vec<(String, u32, bool)> = Vec::new();
        if options.ports {
            for p in &module.ports {
                if matches!(p.ty, Type::UInt(_) | Type::SInt(_)) {
                    if let Some(w) = p.ty.width() {
                        candidates.push((p.name.clone(), w, p.ty.is_signed()));
                    }
                }
            }
        }
        module.for_each_stmt(&mut |s| match s {
            Stmt::Reg { name, ty, .. } if options.regs => {
                if let Some(w) = ty.width() {
                    candidates.push((name.clone(), w, ty.is_signed()));
                }
            }
            Stmt::Wire { name, ty, .. } if options.wires => {
                if let Some(w) = ty.width() {
                    candidates.push((name.clone(), w, ty.is_signed()));
                }
            }
            // compiler-generated temporaries are not user signals;
            // width 0 is resolved via the type environment below
            Stmt::Node { name, .. } if options.wires && !name.starts_with('_') => {
                candidates.push((name.clone(), 0, false));
            }
            _ => {}
        });
        // resolve unknown node widths through the type environment
        let Some(env) = envs.get(&module.name) else {
            continue;
        };
        for cand in candidates.iter_mut() {
            if cand.1 == 0 {
                if let Some(Type::UInt(Some(w))) | Some(Type::SInt(Some(w))) = env.get(&cand.0) {
                    cand.1 = *w;
                    cand.2 = matches!(env.get(&cand.0), Some(Type::SInt(_)));
                }
            }
        }
        candidates.retain(|(_, w, _)| *w > 0);
        per_module.insert(module.name.clone(), candidates);
    }

    // Phase 2: alias-aware selection — at most one candidate per alias
    // group, preferring the group's true representative when it is among
    // the candidates (so the global reset lands in the top module).
    if let Some(a) = &alias {
        let mut group_taken: std::collections::HashSet<usize> = std::collections::HashSet::new();
        // representatives claim their group first
        for (module, candidates) in &per_module {
            for (name, _, _) in candidates {
                if let Some(g) = a.module_group(module, name) {
                    if a.is_representative(module, name) {
                        group_taken.insert(g);
                    }
                }
            }
        }
        let mut claimed: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for (module, candidates) in per_module.iter_mut() {
            candidates.retain(|(name, _, _)| match a.module_group(module, name) {
                None => true,
                Some(g) => {
                    if a.is_representative(module, name) {
                        claimed.insert(g)
                    } else if group_taken.contains(&g) {
                        false
                    } else {
                        // no representative among the candidates: the first
                        // candidate of the group wins
                        claimed.insert(g)
                    }
                }
            });
        }
    }

    // Phase 3: instrument the selected candidates.
    for module in circuit.modules.iter_mut() {
        let Some(clock) = module.clock() else {
            continue;
        };
        let Some(candidates) = per_module.get(&module.name) else {
            continue;
        };
        if candidates.is_empty() {
            continue;
        }

        let mut minfo: BTreeMap<String, ToggleTarget> = BTreeMap::new();
        let mut added: Vec<Stmt> = Vec::new();

        // first-cycle disable register: 0 in cycle 0, 1 afterwards
        let en_name = "_tgl_en".to_string();
        added.push(Stmt::Reg {
            name: en_name.clone(),
            ty: Type::bool(),
            clock: clock.clone(),
            reset: None,
            info: Info::none(),
        });
        added.push(Stmt::Connect {
            loc: Expr::r(&en_name),
            value: Expr::one(),
            info: Info::none(),
        });

        for (signal, width, signed) in candidates {
            let sig_expr = if *signed {
                Expr::r(signal).as_uint()
            } else {
                Expr::r(signal)
            };
            let prev = format!("_tgl_prev_{}", sanitize(signal));
            added.push(Stmt::Reg {
                name: prev.clone(),
                ty: Type::uint(*width),
                clock: clock.clone(),
                reset: None,
                info: Info::none(),
            });
            added.push(Stmt::Connect {
                loc: Expr::r(&prev),
                value: sig_expr.clone(),
                info: Info::none(),
            });
            let xor_name = format!("_tgl_x_{}", sanitize(signal));
            added.push(Stmt::Node {
                name: xor_name.clone(),
                value: sig_expr.clone().xor(&Expr::r(&prev)),
                info: Info::none(),
            });
            for bit in 0..*width {
                if options.split_edges {
                    // rise: was 0, now 1; fall: was 1, now 0
                    let rise = format!("tr_{}_{}", sanitize(signal), bit);
                    added.push(Stmt::Cover {
                        name: rise.clone(),
                        clock: clock.clone(),
                        pred: Expr::and(sig_expr.bit(bit), Expr::not(Expr::r(&prev).bit(bit))),
                        enable: Expr::r(&en_name),
                        info: Info::none(),
                    });
                    minfo.insert(
                        rise,
                        ToggleTarget {
                            signal: signal.clone(),
                            bit,
                            edge: ToggleEdge::Rise,
                        },
                    );
                    let fall = format!("tf_{}_{}", sanitize(signal), bit);
                    added.push(Stmt::Cover {
                        name: fall.clone(),
                        clock: clock.clone(),
                        pred: Expr::and(Expr::not(sig_expr.bit(bit)), Expr::r(&prev).bit(bit)),
                        enable: Expr::r(&en_name),
                        info: Info::none(),
                    });
                    minfo.insert(
                        fall,
                        ToggleTarget {
                            signal: signal.clone(),
                            bit,
                            edge: ToggleEdge::Fall,
                        },
                    );
                    continue;
                }
                let cover = format!("t_{}_{}", sanitize(signal), bit);
                added.push(Stmt::Cover {
                    name: cover.clone(),
                    clock: clock.clone(),
                    pred: Expr::r(&xor_name).bit(bit),
                    enable: Expr::r(&en_name),
                    info: Info::none(),
                });
                minfo.insert(
                    cover,
                    ToggleTarget {
                        signal: signal.clone(),
                        bit,
                        edge: ToggleEdge::Any,
                    },
                );
            }
        }

        module.body.extend(added);
        info.modules.insert(module.name.clone(), minfo);
    }
    Ok(info)
}

fn sanitize(name: &str) -> String {
    name.replace('.', "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlcov_firrtl::parser::parse;
    use rtlcov_firrtl::passes;

    fn lowered(src: &str) -> Circuit {
        passes::lower(parse(src).unwrap()).unwrap()
    }

    const COUNTER: &str = "
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output o : UInt<2>
    reg r : UInt<2>, clock with : (reset => (reset, UInt<2>(0)))
    when en :
      r <= tail(add(r, UInt<2>(1)), 1)
    o <= r
";

    #[test]
    fn adds_cover_per_bit() {
        let mut c = lowered(COUNTER);
        let info = instrument_toggle_coverage(&mut c, ToggleOptions::regs_only()).unwrap();
        // one 2-bit register => 2 covers
        assert_eq!(info.cover_count(), 2);
        let m = &info.modules["T"];
        assert_eq!(
            m["t_r_0"],
            ToggleTarget {
                signal: "r".into(),
                bit: 0,
                edge: ToggleEdge::Any
            }
        );
        assert_eq!(
            m["t_r_1"],
            ToggleTarget {
                signal: "r".into(),
                bit: 1,
                edge: ToggleEdge::Any
            }
        );
    }

    #[test]
    fn split_edges_doubles_covers() {
        let mut c = lowered(COUNTER);
        let info =
            instrument_toggle_coverage(&mut c, ToggleOptions::regs_only().with_split_edges())
                .unwrap();
        assert_eq!(info.cover_count(), 4);
        let m = &info.modules["T"];
        assert_eq!(m["tr_r_0"].edge, ToggleEdge::Rise);
        assert_eq!(m["tf_r_0"].edge, ToggleEdge::Fall);
        assert!(passes::check::check(c).is_ok());
        // the semantic (count) check lives in tests/full_pipeline.rs where
        // the simulator crates are available
    }

    #[test]
    fn instrumented_circuit_is_valid() {
        let mut c = lowered(COUNTER);
        instrument_toggle_coverage(&mut c, ToggleOptions::default()).unwrap();
        // re-checking the full pipeline must succeed
        assert!(passes::check::check(c).is_ok());
    }

    #[test]
    fn alias_analysis_reduces_covers() {
        let src = "
circuit T :
  module T :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    wire w : UInt<4>
    w <= a
    o <= w
";
        let mut with_alias = lowered(src);
        let with_info =
            instrument_toggle_coverage(&mut with_alias, ToggleOptions::default()).unwrap();
        let mut without_alias = lowered(src);
        let without_info = instrument_toggle_coverage(
            &mut without_alias,
            ToggleOptions {
                use_alias_analysis: false,
                ..ToggleOptions::default()
            },
        )
        .unwrap();
        assert!(with_info.cover_count() < without_info.cover_count());
        assert!(with_info.alias_skipped > 0);
    }

    #[test]
    fn first_cycle_is_not_counted() {
        use rtlcov_firrtl::eval::{eval, Value};
        use std::collections::HashMap;
        // Build + lower + manually check the `_tgl_en` structure: the
        // enable register starts at 0 so covers cannot fire in cycle 0.
        let mut c = lowered(COUNTER);
        instrument_toggle_coverage(&mut c, ToggleOptions::regs_only()).unwrap();
        let m = c.top_module();
        let mut found_en = false;
        m.for_each_stmt(&mut |s| {
            if let Stmt::Cover {
                enable: Expr::Ref(n),
                ..
            } = s
            {
                found_en |= n == "_tgl_en";
            }
        });
        assert!(found_en);
        // and _tgl_en is a register without reset driven by constant 1
        let mut ok = false;
        m.for_each_stmt(&mut |s| {
            if let Stmt::Connect { loc, value, .. } = s {
                if loc == &Expr::r("_tgl_en") {
                    ok = eval(value, &|_: &str| None::<Value>)
                        .map(|v| v.is_true())
                        .unwrap_or(false);
                }
            }
        });
        assert!(ok);
        let _ = HashMap::<String, Value>::new();
    }

    #[test]
    fn clockless_module_skipped() {
        let mut c = lowered(
            "
circuit T :
  module T :
    input a : UInt<4>
    output o : UInt<4>
    o <= a
",
        );
        let info = instrument_toggle_coverage(&mut c, ToggleOptions::default()).unwrap();
        assert_eq!(info.cover_count(), 0);
    }
}
