//! The activity-driven simulator backend (ESSENT analog, §3.5).
//!
//! Reuses the compiled [`crate::compile::Program`] and the compiled
//! backend's `ExecState` (slots and memories), but skips work whose
//! inputs did not change since the last evaluation — ESSENT's "exploit
//! low activity factors" insight. The program is grouped into
//! acyclic partitions ([`crate::partition`]) and a dirty-partition
//! worklist gates execution at partition granularity; with
//! `partition: false` every partition holds one instruction, which gives
//! per-slot dirty tracking on the same engine. Cover sampling is
//! *batched*: a cover's count is materialized lazily from
//! `(active, since-cycle)` pairs and only recomputed when a partition
//! that feeds it actually changed its watched slots — quiescent cycles
//! never touch the cover list at all.
//!
//! On quiescent designs the step cost is O(number of registers)
//! bookkeeping; on fully active designs it degrades to the compiled
//! backend plus a partition sweep.

use crate::compiled::{build_program, ExecState};
use crate::opt::OptStats;
use crate::partition::{partition, PartitionedProgram, DEFAULT_MAX_PARTITION};
use crate::{Fuel, SimBuildOptions, SimError, Simulator};
use rtlcov_core::CoverageMap;
use rtlcov_firrtl::ir::Circuit;
use std::cell::RefCell;
use std::collections::HashMap;

/// Construction knobs for [`EssentSim`]: the campaign-wide
/// [`SimBuildOptions`]. `partition: false` caps partitions at one
/// instruction instead of [`DEFAULT_MAX_PARTITION`].
pub type EssentOptions = SimBuildOptions;

/// Activity-driven simulator.
#[derive(Debug, Clone)]
pub struct EssentSim {
    /// Interior-mutable so `peek(&self)` can settle combinational logic.
    inner: RefCell<Partitioned>,
    fuel: Fuel,
    opt_stats: OptStats,
}

impl EssentSim {
    /// Build an activity-driven simulator from a lowered circuit with the
    /// default optimize+partition pipeline (honoring
    /// [`SimBuildOptions::from_env`]).
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures.
    pub fn new(circuit: &Circuit) -> Result<Self, SimError> {
        Self::new_with(circuit, &SimBuildOptions::from_env())
    }

    /// Build with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and compilation failures.
    pub fn new_with(circuit: &Circuit, opts: &EssentOptions) -> Result<Self, SimError> {
        let (prog, opt_stats) = build_program(circuit, &opts.opt_options())?;
        let max_part = if opts.partition {
            DEFAULT_MAX_PARTITION
        } else {
            1
        };
        Ok(EssentSim {
            inner: RefCell::new(Partitioned::new(partition(prog, max_part))),
            fuel: Fuel::unlimited(),
            opt_stats,
        })
    }

    /// What the optimizer did while building this simulator.
    pub fn opt_stats(&self) -> OptStats {
        self.opt_stats
    }

    /// Fraction of instruction evaluations actually executed (activity
    /// factor); 1.0 before the first step.
    pub fn activity_factor(&self) -> f64 {
        let e = self.inner.borrow();
        activity(e.executed_instrs, e.total_instr_opportunities)
    }

    /// Fraction of partition evaluations actually executed; 1.0 before the
    /// first step. Always `Some`.
    pub fn partition_activity(&self) -> Option<f64> {
        let e = self.inner.borrow();
        Some(activity(e.parts_executed, e.part_opportunities))
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.inner.borrow().pp.parts.len()
    }

    /// Number of cycles executed.
    pub fn cycles(&self) -> u64 {
        self.inner.borrow().cycles
    }
}

fn activity(executed: u64, opportunities: u64) -> f64 {
    if opportunities == 0 {
        1.0
    } else {
        executed as f64 / opportunities as f64
    }
}

// ---------------------------------------------------------------------------
// Partitioned engine (dirty-partition worklist + batched cover sampling)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Partitioned {
    pp: PartitionedProgram,
    st: ExecState,
    dirty: Dirty,
    /// Escape-value snapshot buffer (reused across partitions).
    scratch: Vec<u64>,
    // Batched cover state: count covers cycles `< since`; `active` is the
    // predicate state for cycles `since..now`. A cover is only recomputed
    // ("flushed") when a watched slot actually changed.
    cov_active: Vec<bool>,
    cov_since: Vec<u64>,
    cov_count: Vec<u64>,
    // Same scheme for cover_values: `cv_val` is the sampled value for
    // cycles `since..now` while `cv_en` gates it.
    cv_en: Vec<bool>,
    cv_val: Vec<u64>,
    cv_since: Vec<u64>,
    cv_counts: Vec<HashMap<u64, u64>>,
    cycles: u64,
    executed_instrs: u64,
    total_instr_opportunities: u64,
    parts_executed: u64,
    part_opportunities: u64,
}

/// What must be re-evaluated: dirty partitions and stale covers.
#[derive(Debug, Clone)]
struct Dirty {
    part: Vec<bool>,
    /// Fast path: nothing is dirty, skip the partition sweep entirely.
    any: bool,
    cov_stale: Vec<bool>,
    cov_stale_list: Vec<u32>,
    cv_stale: Vec<bool>,
    cv_stale_list: Vec<u32>,
}

impl Dirty {
    /// Mark everything observing `slot` after its value changed: consumer
    /// partitions other than `skip` become dirty, watching covers become
    /// stale.
    fn touch(&mut self, pp: &PartitionedProgram, slot: usize, skip: usize) {
        for &q in &pp.consumers[slot] {
            if q as usize != skip {
                self.part[q as usize] = true;
                self.any = true;
            }
        }
        for &ci in &pp.cover_watch[slot] {
            if !self.cov_stale[ci as usize] {
                self.cov_stale[ci as usize] = true;
                self.cov_stale_list.push(ci);
            }
        }
        for &ci in &pp.cv_watch[slot] {
            if !self.cv_stale[ci as usize] {
                self.cv_stale[ci as usize] = true;
                self.cv_stale_list.push(ci);
            }
        }
    }

    /// Dirty every partition that reads memory `m`.
    fn mem_changed(&mut self, pp: &PartitionedProgram, m: usize) {
        for &q in &pp.mem_readers[m] {
            self.part[q as usize] = true;
            self.any = true;
        }
    }
}

impl Partitioned {
    fn new(pp: PartitionedProgram) -> Self {
        let nparts = pp.parts.len();
        let ncov = pp.prog.covers.len();
        let ncv = pp.prog.cover_values.len();
        Partitioned {
            st: ExecState::new(&pp.prog),
            dirty: Dirty {
                part: vec![true; nparts],
                any: true,
                cov_stale: vec![true; ncov],
                cov_stale_list: (0..ncov as u32).collect(),
                cv_stale: vec![true; ncv],
                cv_stale_list: (0..ncv as u32).collect(),
            },
            scratch: Vec::new(),
            cov_active: vec![false; ncov],
            cov_since: vec![0; ncov],
            cov_count: vec![0; ncov],
            cv_en: vec![false; ncv],
            cv_val: vec![0; ncv],
            cv_since: vec![0; ncv],
            cv_counts: vec![HashMap::new(); ncv],
            cycles: 0,
            executed_instrs: 0,
            total_instr_opportunities: 0,
            parts_executed: 0,
            part_opportunities: 0,
            pp,
        }
    }

    /// Execute dirty partitions in ascending order (a valid topological
    /// order — see [`crate::partition`]), propagating dirtiness through
    /// changed escape slots only.
    fn settle(&mut self) {
        if !self.dirty.any {
            return;
        }
        for (p, part) in self.pp.parts.iter().enumerate() {
            if !self.dirty.part[p] {
                continue;
            }
            self.dirty.part[p] = false;
            let (start, end) = (part.start as usize, part.end as usize);
            self.scratch.clear();
            self.scratch
                .extend(part.escapes.iter().map(|&s| self.st.slots[s as usize]));
            self.st.exec(&self.pp.prog.instrs[start..end]);
            self.executed_instrs += (end - start) as u64;
            self.parts_executed += 1;
            for (&s, &before) in part.escapes.iter().zip(&self.scratch) {
                if self.st.slots[s as usize] != before {
                    // cross-partition deps always flow to later partitions,
                    // so marking here is seen by this same sweep
                    self.dirty.touch(&self.pp, s as usize, p);
                }
            }
        }
        self.dirty.any = false;
    }

    /// Flush stale covers: close the `[since, now)` interval under the old
    /// predicate state, then latch the new state. Clean covers cost
    /// nothing per cycle.
    fn sample_covers(&mut self) {
        let t = self.cycles;
        let slots = &self.st.slots;
        while let Some(ci) = self.dirty.cov_stale_list.pop() {
            let i = ci as usize;
            self.dirty.cov_stale[i] = false;
            if self.cov_active[i] {
                self.cov_count[i] = self.cov_count[i].saturating_add(t - self.cov_since[i]);
            }
            let cov = &self.pp.prog.covers[i];
            self.cov_active[i] = slots[cov.pred as usize] != 0 && slots[cov.enable as usize] != 0;
            self.cov_since[i] = t;
        }
        while let Some(ci) = self.dirty.cv_stale_list.pop() {
            let i = ci as usize;
            self.dirty.cv_stale[i] = false;
            if self.cv_en[i] {
                let delta = t - self.cv_since[i];
                if delta > 0 {
                    let entry = self.cv_counts[i].entry(self.cv_val[i]).or_insert(0);
                    *entry = entry.saturating_add(delta);
                }
            }
            let cv = &self.pp.prog.cover_values[i];
            self.cv_en[i] = slots[cv.enable as usize] != 0;
            self.cv_val[i] = slots[cv.signal as usize];
            self.cv_since[i] = t;
        }
    }

    fn commit(&mut self) {
        let (pp, dirty) = (&self.pp, &mut self.dirty);
        self.st.commit_mems(&pp.prog, |m| dirty.mem_changed(pp, m));
        self.st
            .commit_regs(&pp.prog, |slot| dirty.touch(pp, slot, usize::MAX));
    }

    fn step(&mut self) {
        self.settle();
        self.sample_covers();
        self.commit();
        self.cycles += 1;
        self.total_instr_opportunities += self.pp.prog.instrs.len() as u64;
        self.part_opportunities += self.pp.parts.len() as u64;
    }

    /// Materialize counts: flushed intervals plus the still-open one.
    fn cover_counts(&self) -> CoverageMap {
        let t = self.cycles;
        let open = |active: bool, since: u64| if active { t - since } else { 0 };
        let mut map = ExecState::cover_map(
            &self.pp.prog,
            |i| self.cov_count[i].saturating_add(open(self.cov_active[i], self.cov_since[i])),
            &self.cv_counts,
        );
        for (i, cv) in self.pp.prog.cover_values.iter().enumerate() {
            let n = open(self.cv_en[i], self.cv_since[i]);
            if n > 0 {
                // record() saturating-adds, so the open interval stacks on
                // top of whatever the flushed map already holds for cv_val
                map.record(format!("{}[{}]", cv.name, self.cv_val[i]), n);
            }
        }
        map
    }
}

impl Simulator for EssentSim {
    fn poke(&mut self, signal: &str, value: u64) {
        let e = self.inner.get_mut();
        if let Some(slot) = e.st.poke(&e.pp.prog, signal, value) {
            e.dirty.touch(&e.pp, slot, usize::MAX);
        }
    }

    fn peek(&self, signal: &str) -> u64 {
        let mut e = self.inner.borrow_mut();
        e.settle();
        e.st.peek(&e.pp.prog, signal)
    }

    fn step(&mut self) {
        if self.fuel.consume() {
            self.inner.get_mut().step();
        }
    }

    fn set_fuel(&mut self, fuel: u64) {
        self.fuel.set(fuel);
    }

    fn out_of_fuel(&self) -> bool {
        self.fuel.starved()
    }

    fn cover_counts(&self) -> CoverageMap {
        self.inner.borrow().cover_counts()
    }

    fn write_mem(&mut self, mem: &str, addr: u64, value: u64) -> Result<(), SimError> {
        let e = self.inner.get_mut();
        let m = e.st.write_mem(&e.pp.prog, mem, addr, value)?;
        e.dirty.mem_changed(&e.pp, m);
        Ok(())
    }

    fn read_mem(&self, mem: &str, addr: u64) -> Result<u64, SimError> {
        let e = self.inner.borrow();
        e.st.read_mem(&e.pp.prog, mem, addr)
    }

    fn signals(&self) -> Vec<String> {
        ExecState::signals(&self.inner.borrow().pp.prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledSim;
    use crate::opt::OptOptions;
    use rtlcov_firrtl::parser::parse;
    use rtlcov_firrtl::passes;

    fn lower(src: &str) -> Circuit {
        passes::lower(parse(src).unwrap()).unwrap()
    }

    fn sim(src: &str) -> EssentSim {
        EssentSim::new(&lower(src)).unwrap()
    }

    /// Drive the default engine, the per-cycle-scan reference (compiled,
    /// optimizer off) and one-instruction partitions with the same script;
    /// all three must agree on every signal and on the cover map, which is
    /// returned.
    fn agree(src: &str, script: impl Fn(&mut dyn Simulator)) -> CoverageMap {
        let c = lower(src);
        let one = EssentOptions {
            optimize: false,
            partition: false,
        };
        let mut sims: [Box<dyn Simulator>; 3] = [
            Box::new(EssentSim::new_with(&c, &EssentOptions::default()).unwrap()),
            Box::new(CompiledSim::new_with(&c, &OptOptions::none()).unwrap()),
            Box::new(EssentSim::new_with(&c, &one).unwrap()),
        ];
        for s in &mut sims {
            script(&mut **s);
        }
        let want = sims[1].cover_counts();
        for s in &sims {
            for sig in sims[1].signals() {
                assert_eq!(s.peek(&sig), sims[1].peek(&sig), "`{sig}`");
            }
            assert_eq!(s.cover_counts(), want);
        }
        want
    }

    const COUNTER: &str = "
circuit T :
  module T :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output o : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    o <= r
";

    #[test]
    fn matches_counter_semantics() {
        let mut s = sim(COUNTER);
        s.reset(1);
        s.poke("en", 1);
        s.step_n(5);
        s.poke("en", 0);
        s.step_n(10);
        assert_eq!(s.peek("o"), 5);
    }

    #[test]
    fn quiescent_logic_is_skipped() {
        let mut s = sim(COUNTER);
        s.reset(1);
        s.poke("en", 0);
        // after settling, nothing changes: activity drops
        s.step_n(100);
        assert!(
            s.activity_factor() < 0.5,
            "activity {}",
            s.activity_factor()
        );
    }

    #[test]
    fn covers_still_counted_when_quiescent() {
        let mut s = sim("
circuit T :
  module T :
    input clock : Clock
    input a : UInt<1>
    cover(clock, a, UInt<1>(1)) : hit
");
        s.poke("a", 1);
        s.step_n(10);
        assert_eq!(s.cover_counts().count("hit"), Some(10));
    }

    #[test]
    fn engines_agree_on_counter() {
        agree(COUNTER, |s| {
            s.reset(2);
            s.poke("en", 1);
            s.step_n(7);
            s.poke("en", 0);
            s.step_n(3);
        });
    }

    #[test]
    fn batched_covers_match_toggling_predicate() {
        const SRC: &str = "
circuit T :
  module T :
    input clock : Clock
    input a : UInt<1>
    input en : UInt<1>
    cover(clock, a, en) : hit
";
        let script = [
            (1u64, 1u64, 3usize),
            (0, 1, 2),
            (1, 0, 4),
            (1, 1, 1),
            (0, 0, 5),
            (1, 1, 2),
        ];
        let map = agree(SRC, |s| {
            for (a, en, n) in script {
                s.poke("a", a);
                s.poke("en", en);
                s.step_n(n);
            }
        });
        assert_eq!(map.count("hit"), Some(6));
    }

    #[test]
    fn partition_activity_is_observable() {
        let mut s = sim(COUNTER);
        s.reset(1);
        s.poke("en", 0);
        s.step_n(50);
        let pa = s.partition_activity().expect("always reported");
        assert!(pa < 0.5, "partition activity {pa}");
        assert!(s.partitions() >= 1);
    }

    #[test]
    fn cover_values_batching_matches_per_cycle_scan() {
        const SRC: &str = "
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
    cover_values(clock, r, en) : vals
";
        agree(SRC, |s| {
            s.reset(1);
            s.poke("en", 1);
            s.step_n(3);
            s.poke("en", 0);
            s.step_n(9);
            s.poke("en", 1);
            s.step_n(2);
        });
    }

    #[test]
    fn partition_sizes_agree_on_memory_and_backdoor_writes() {
        const SRC: &str = "
circuit T :
  module T :
    input clock : Clock
    input addr : UInt<4>
    input wdata : UInt<8>
    input wen : UInt<1>
    output o : UInt<8>
    mem m : UInt<8>[16], readers(r), writers(w)
    m.r.addr <= addr
    m.r.en <= UInt<1>(1)
    m.w.addr <= addr
    m.w.en <= wen
    m.w.data <= wdata
    m.w.mask <= UInt<1>(1)
    o <= m.r.data
    cover(clock, eq(m.r.data, UInt<8>(7)), UInt<1>(1)) : seven
";
        let map = agree(SRC, |s| {
            s.poke("addr", 3);
            s.poke("wdata", 42);
            s.poke("wen", 1);
            s.step_n(2);
            s.poke("wen", 0);
            assert_eq!(s.peek("o"), 42);
            // no input changes: only the backdoor write can re-dirty the
            // reader's partition
            s.write_mem("m", 3, 7).unwrap();
            assert_eq!(s.peek("o"), 7);
            s.step_n(4);
            assert_eq!(s.read_mem("m", 3).unwrap(), 7);
            assert!(s.write_mem("m", 16, 1).is_err());
        });
        assert_eq!(map.count("seven"), Some(4));
    }
}
