//! A from-scratch CDCL SAT solver (the engine behind the SymbiYosys-analog
//! backend).
//!
//! Features: two-watched-literal propagation, first-UIP conflict analysis
//! with clause learning, VSIDS-style activity ordering, and incremental
//! solving under assumptions (used by the BMC loop to query one cover
//! point at a time over a shared unrolling).

use std::fmt;

/// A propositional variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if this is a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

/// Result of a solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (read it with [`Solver::value`]).
    Sat,
    /// No satisfying assignment under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unassigned,
    True,
    False,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learned: bool,
}

/// The CDCL solver.
pub struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit] = clause indices watching `lit`.
    watches: Vec<Vec<u32>>,
    assigns: Vec<Assign>,
    /// decision level per variable.
    level: Vec<u32>,
    /// implying clause per variable (u32::MAX for decisions).
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    conflicts: u64,
    /// total conflict budget per solve call
    budget: u64,
}

const NO_REASON: u32 = u32::MAX;

impl fmt::Debug for Solver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("vars", &self.assigns.len())
            .field("clauses", &self.clauses.len())
            .field("learned", &self.num_learned())
            .field("conflicts", &self.conflicts)
            .finish()
    }
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            queue_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            conflicts: 0,
            budget: u64::MAX,
        }
    }

    /// Limit the number of conflicts per solve (returns `Unknown` past it).
    pub fn set_conflict_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Total conflicts encountered across all solve calls so far — the
    /// cost meter fuel-budgeted BMC runs account against.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(Assign::Unassigned);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (including learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of learned (conflict-derived) clauses.
    pub fn num_learned(&self) -> usize {
        self.clauses.iter().filter(|c| c.learned).count()
    }

    /// Add a clause (empty clause makes the instance trivially unsat).
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at the root");
        lits.sort_by_key(|l| l.0);
        lits.dedup();
        // tautology?
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return;
            }
        }
        // strip root-level falsified literals; satisfied clause is dropped
        let mut filtered = Vec::with_capacity(lits.len());
        for l in lits {
            match self.lit_value(l) {
                Assign::True => return,
                Assign::False => {}
                Assign::Unassigned => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                // conflict at root: encode as two contradictory units on a
                // fresh variable so solve() reports unsat
                let v = self.new_var();
                self.clauses.push(Clause {
                    lits: vec![Lit::pos(v)],
                    learned: false,
                });
                self.clauses.push(Clause {
                    lits: vec![Lit::neg(v)],
                    learned: false,
                });
                let last = self.clauses.len();
                self.attach(last as u32 - 2);
                self.attach(last as u32 - 1);
            }
            1 => {
                let _ = self.enqueue(filtered[0], NO_REASON);
            }
            _ => {
                self.clauses.push(Clause {
                    lits: filtered,
                    learned: false,
                });
                self.attach(self.clauses.len() as u32 - 1);
            }
        }
    }

    fn attach(&mut self, ci: u32) {
        let c = &self.clauses[ci as usize];
        if c.lits.len() >= 2 {
            let (w0, w1) = (c.lits[0], c.lits[1]);
            self.watches[w0.negate().index()].push(ci);
            self.watches[w1.negate().index()].push(ci);
        } else if c.lits.len() == 1 {
            // unit clauses watched via their only literal's negation
            let w0 = c.lits[0];
            self.watches[w0.negate().index()].push(ci);
        }
    }

    fn lit_value(&self, l: Lit) -> Assign {
        match self.assigns[l.var().0 as usize] {
            Assign::Unassigned => Assign::Unassigned,
            Assign::True => {
                if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
            Assign::False => {
                if l.is_neg() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.lit_value(l) {
            Assign::True => true,
            Assign::False => false,
            Assign::Unassigned => {
                let v = l.var().0 as usize;
                self.assigns[v] = if l.is_neg() {
                    Assign::False
                } else {
                    Assign::True
                };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagate; returns the conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.queue_head < self.trail.len() {
            let p = self.trail[self.queue_head];
            self.queue_head += 1;
            let mut i = 0;
            let mut watch_list = std::mem::take(&mut self.watches[p.index()]);
            while i < watch_list.len() {
                let ci = watch_list[i];
                // ensure lits[1] is the falsified watch (¬p is false)
                let false_lit = p.negate();
                {
                    let clause = &mut self.clauses[ci as usize];
                    if clause.lits.len() >= 2 && clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                }
                // satisfied through the other watch?
                let first = self.clauses[ci as usize].lits[0];
                if self.lit_value(first) == Assign::True {
                    i += 1;
                    continue;
                }
                // find a new literal to watch
                let mut moved = false;
                let len = self.clauses[ci as usize].lits.len();
                for k in 2..len {
                    let cand = self.clauses[ci as usize].lits[k];
                    if self.lit_value(cand) != Assign::False {
                        self.clauses[ci as usize].lits.swap(1, k);
                        self.watches[cand.negate().index()].push(ci);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // unit or conflict
                if !self.enqueue(first, ci) {
                    // conflict: put the remaining watches back
                    self.watches[p.index()].extend_from_slice(&watch_list);
                    return Some(ci);
                }
                i += 1;
            }
            self.watches[p.index()] = watch_list;
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis; returns (learned clause, backtrack lvl).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = confl;
        let mut trail_idx = self.trail.len();

        loop {
            let clause = &self.clauses[ci as usize];
            let start = if p.is_some() { 1 } else { 0 };
            let lits: Vec<Lit> = clause.lits[start.min(clause.lits.len())..].to_vec();
            for q in lits {
                let v = q.var();
                if !seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    seen[v.0 as usize] = true;
                    self.bump(v);
                    if self.level[v.0 as usize] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // next literal on the trail to resolve on
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found above").var();
            seen[pv.0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = p.expect("found above").negate();
                break;
            }
            ci = self.reason[pv.0 as usize];
            debug_assert_ne!(ci, NO_REASON);
            // put the resolved-on literal first for the skip logic above
            let clause = &mut self.clauses[ci as usize];
            if let Some(pos) = clause.lits.iter().position(|l| l.var() == pv) {
                clause.lits.swap(0, pos);
            }
        }

        // backtrack level = max level among learned[1..]
        let bt = learned[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // move a literal of level bt into position 1 for watching
        if learned.len() > 1 {
            let pos = learned[1..]
                .iter()
                .position(|l| self.level[l.var().0 as usize] == bt)
                .expect("max exists")
                + 1;
            learned.swap(1, pos);
        }
        (learned, bt)
    }

    fn backtrack(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level > 0");
            for l in self.trail.drain(lim..) {
                let v = l.var().0 as usize;
                self.assigns[v] = Assign::Unassigned;
                self.reason[v] = NO_REASON;
            }
        }
        self.queue_head = self.trail.len().min(self.queue_head);
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        // highest-activity unassigned variable
        let mut best: Option<(Var, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assigns[v] == Assign::Unassigned {
                let a = self.activity[v];
                if best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((Var(v as u32), a));
                }
            }
        }
        best.map(|(v, _)| Lit::neg(v)) // negative-first polarity
    }

    /// Solve under assumptions.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.backtrack(0);
        if self.propagate().is_some() {
            return SatResult::Unsat;
        }
        let solve_budget = self.conflicts.saturating_add(self.budget);

        loop {
            // (re)establish assumptions as pseudo-decisions
            while self.decision_level() < assumptions.len() as u32 {
                let a = assumptions[self.decision_level() as usize];
                match self.lit_value(a) {
                    Assign::True => {
                        // already implied: open an empty level to keep the
                        // level/assumption indexing aligned
                        self.trail_lim.push(self.trail.len());
                    }
                    Assign::False => return SatResult::Unsat,
                    Assign::Unassigned => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(a, NO_REASON);
                        debug_assert!(ok);
                    }
                }
                if let Some(confl) = self.propagate() {
                    // conflict among assumptions
                    if self.decision_level() <= assumptions.len() as u32 {
                        let _ = confl;
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                }
            }

            match self.propagate() {
                Some(confl) => {
                    self.conflicts += 1;
                    if self.conflicts >= solve_budget {
                        self.backtrack(0);
                        return SatResult::Unknown;
                    }
                    if self.decision_level() <= assumptions.len() as u32 {
                        self.backtrack(0);
                        return SatResult::Unsat;
                    }
                    let (learned, bt) = self.analyze(confl);
                    let bt = bt.max(assumptions.len() as u32);
                    self.backtrack(bt);
                    let unit = learned[0];
                    if learned.len() == 1 {
                        self.backtrack(assumptions.len() as u32);
                        if !self.enqueue(unit, NO_REASON) {
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                    } else {
                        self.clauses.push(Clause {
                            lits: learned,
                            learned: true,
                        });
                        let ci = self.clauses.len() as u32 - 1;
                        self.attach(ci);
                        if !self.enqueue(unit, ci) {
                            self.backtrack(0);
                            return SatResult::Unsat;
                        }
                    }
                    self.var_inc *= 1.05;
                }
                None => match self.pick_branch() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, NO_REASON);
                        debug_assert!(ok);
                    }
                },
            }
        }
    }

    /// Solve without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Value of a variable in the current model (after `Sat`).
    pub fn value(&self, v: Var) -> bool {
        self.assigns[v.0 as usize] == Assign::True
    }

    /// Value of a literal in the current model.
    pub fn lit_is_true(&self, l: Lit) -> bool {
        self.lit_value(l) == Assign::True
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(solver.new_var())).collect()
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![v[0], v[1]]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.lit_is_true(v[0]) || s.lit_is_true(v[1]));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(vec![v[0]]);
        s.add_clause(vec![!v[0]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn chain_implications() {
        // x0 & (x0->x1) & (x1->x2) & ... & (xn -> !x0) is unsat
        let mut s = Solver::new();
        let v = lits(&mut s, 12);
        s.add_clause(vec![v[0]]);
        for i in 0..11 {
            s.add_clause(vec![!v[i], v[i + 1]]);
        }
        s.add_clause(vec![!v[11], !v[0]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2() {
        // 3 pigeons, 2 holes: unsat; requires real conflict analysis
        let mut s = Solver::new();
        let mut p = [[Lit(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for pi in &p {
            s.add_clause(vec![pi[0], pi[1]]);
        }
        for j in 0..2 {
            for (a, pa) in p.iter().enumerate() {
                for pb in &p[a + 1..] {
                    s.add_clause(vec![!pa[j], !pb[j]]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_chain_sat_with_model() {
        // x ^ y = 1, y ^ z = 1, x ^ z = 0 — satisfiable
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            // a ^ b = 1: (a|b) & (!a|!b)
            s.add_clause(vec![a, b]);
            s.add_clause(vec![!a, !b]);
        };
        let xor0 = |s: &mut Solver, a: Lit, b: Lit| {
            // a ^ b = 0: (a|!b) & (!a|b)
            s.add_clause(vec![a, !b]);
            s.add_clause(vec![!a, b]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xor0(&mut s, v[0], v[2]);
        assert_eq!(s.solve(), SatResult::Sat);
        let (x, y, z) = (
            s.lit_is_true(v[0]),
            s.lit_is_true(v[1]),
            s.lit_is_true(v[2]),
        );
        assert!(x ^ y);
        assert!(y ^ z);
        assert!(!(x ^ z));
    }

    #[test]
    fn assumptions_flip_outcome() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![!v[0], v[1]]);
        s.add_clause(vec![!v[1], !v[0]]);
        // free: sat
        assert_eq!(s.solve(), SatResult::Sat);
        // assume x0: forces x1 and !x1... wait: x0->x1 and (x1 -> !x0)
        assert_eq!(s.solve_with_assumptions(&[v[0]]), SatResult::Unsat);
        // still sat without assumptions afterwards (incremental reuse)
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[!v[0]]), SatResult::Sat);
    }

    #[test]
    fn random_3sat_solvable_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..10 {
            let n = 30;
            let mut s = Solver::new();
            let v = lits(&mut s, n);
            // plant a solution, generate clauses consistent with it
            let planted: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            for _ in 0..120 {
                let mut clause = Vec::new();
                let mut satisfied = false;
                for _ in 0..3 {
                    let i = rng.gen_range(0..n);
                    let neg = rng.gen::<bool>();
                    let lit = if neg { !v[i] } else { v[i] };
                    satisfied |= planted[i] != neg;
                    clause.push(lit);
                }
                if !satisfied {
                    // flip one literal to keep the planted model valid
                    let i = rng.gen_range(0..n);
                    clause[0] = if planted[i] { v[i] } else { !v[i] };
                }
                s.add_clause(clause);
            }
            assert_eq!(s.solve(), SatResult::Sat, "round {round}");
        }
    }

    #[test]
    fn budget_gives_unknown_or_answer() {
        let mut s = Solver::new();
        // hard-ish pigeonhole 6 into 5
        let n_p = 6;
        let n_h = 5;
        let mut p = vec![vec![Lit(0); n_h]; n_p];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.clone());
        }
        for j in 0..n_h {
            for (a, pa) in p.iter().enumerate() {
                for pb in &p[a + 1..] {
                    s.add_clause(vec![!pa[j], !pb[j]]);
                }
            }
        }
        s.set_conflict_budget(10);
        let r = s.solve();
        assert!(matches!(r, SatResult::Unknown | SatResult::Unsat));
    }
}
