//! Topological partitioning of a compiled [`Program`] for activity-driven
//! execution (the ESSENT/GSIM-style scheduling layer, §3.5).
//!
//! Instructions are grouped into *partitions*: contiguous chunks of the
//! dataflow connected components, in topological order. Two structural
//! facts make partition-granular dirty tracking sound:
//!
//! 1. Instructions are unioned only through *producer* edges (an
//!    instruction joins the component of each operand's producer), so a
//!    cross-partition data dependency always flows from a partition with
//!    smaller instruction indices to one with larger indices.
//! 2. Partitions are laid out (and executed) in ascending first-index
//!    order, so a single forward sweep over the dirty-partition bitmap
//!    executes producers before consumers — no worklist iteration needed.
//!
//! Each partition records its *escape slots*: destinations read by later
//! partitions or watched by a cover. After executing a partition, only
//! escapes whose value changed propagate dirtiness: a per-slot change
//! check hoisted to partition granularity. A cap of one instruction per
//! partition turns it back into per-slot dirty tracking.

use crate::compile::{Instr, MicroOp, Program};

/// Default cap on instructions per partition. Small enough that quiescent
/// subtrees of a large cone are skipped, large enough that the per-cycle
/// dirty sweep is a fraction of instruction count.
pub const DEFAULT_MAX_PARTITION: usize = 32;

/// One acyclic partition: the instruction range `[start, end)` in the
/// reordered program plus its escape slots.
#[derive(Debug, Clone)]
pub struct PartInfo {
    /// First instruction index (in [`PartitionedProgram::prog`]).
    pub start: u32,
    /// One past the last instruction index.
    pub end: u32,
    /// Destination slots observed outside the partition (consumed by a
    /// later partition or watched by a cover / cover_values point).
    pub escapes: Vec<u32>,
}

/// A program reordered into acyclic partitions with the lookup tables the
/// activity-driven executor needs for change propagation.
#[derive(Debug, Clone)]
pub struct PartitionedProgram {
    /// The program with instructions laid out partition-contiguously
    /// (still a valid topological order).
    pub prog: Program,
    /// Partitions in execution order.
    pub parts: Vec<PartInfo>,
    /// `slot → sorted partition ids` reading that slot as an operand.
    /// Drives dirtiness from pokes, register commits, and escapes.
    pub consumers: Vec<Vec<u32>>,
    /// `memory id → partition ids` containing a `MemRead` of it.
    pub mem_readers: Vec<Vec<u32>>,
    /// `slot → cover indices` whose predicate or enable reads the slot.
    pub cover_watch: Vec<Vec<u32>>,
    /// `slot → cover_values indices` whose signal or enable reads the slot.
    pub cv_watch: Vec<Vec<u32>>,
}

struct Dsu(Vec<u32>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n as u32).collect())
    }
    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            self.0[x as usize] = self.0[self.0[x as usize] as usize];
            x = self.0[x as usize];
        }
        x
    }
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[rb as usize] = ra;
        }
    }
}

/// Partition a program into acyclic, topologically ordered chunks of at
/// most `max_part` instructions.
pub fn partition(prog: Program, max_part: usize) -> PartitionedProgram {
    let max_part = max_part.max(1);
    let n = prog.instrs.len();
    let nslots = prog.init_slots.len();

    // slot → producing instruction (programs are single-assignment per
    // settle; a defensive later-producer-wins matches execution order)
    let mut producer = vec![u32::MAX; nslots];
    for (i, instr) in prog.instrs.iter().enumerate() {
        producer[instr.dst as usize] = i as u32;
    }

    // connected components over producer edges
    let mut dsu = Dsu::new(n);
    for (i, instr) in prog.instrs.iter().enumerate() {
        for s in [instr.a, instr.b, instr.c] {
            let p = producer[s as usize];
            if p != u32::MAX {
                dsu.union(i as u32, p);
            }
        }
    }

    // component → member instructions (ascending index order)
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n as u32 {
        let r = dsu.find(i);
        members[r as usize].push(i);
    }

    // chunk each component, then order all chunks by first instruction
    let mut chunks: Vec<Vec<u32>> = Vec::new();
    for m in members {
        for chunk in m.chunks(max_part) {
            chunks.push(chunk.to_vec());
        }
    }
    chunks.sort_by_key(|c| c[0]);

    // reorder instructions partition-contiguously
    let mut instrs: Vec<Instr> = Vec::with_capacity(n);
    let mut parts: Vec<PartInfo> = Vec::with_capacity(chunks.len());
    let mut part_of_instr = vec![0u32; n]; // old index → partition id
    for (p, chunk) in chunks.iter().enumerate() {
        let start = instrs.len() as u32;
        for &old in chunk {
            part_of_instr[old as usize] = p as u32;
            instrs.push(prog.instrs[old as usize]);
        }
        parts.push(PartInfo {
            start,
            end: instrs.len() as u32,
            escapes: Vec::new(),
        });
    }

    // consumers / mem_readers from the reordered layout
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); nslots];
    let mut mem_readers: Vec<Vec<u32>> = vec![Vec::new(); prog.mems.len()];
    for (p, part) in parts.iter().enumerate() {
        let p = p as u32;
        for instr in &instrs[part.start as usize..part.end as usize] {
            for s in [instr.a, instr.b, instr.c] {
                if s != 0 && consumers[s as usize].last() != Some(&p) {
                    consumers[s as usize].push(p);
                }
            }
            if instr.op == MicroOp::MemRead && mem_readers[instr.imm as usize].last() != Some(&p) {
                mem_readers[instr.imm as usize].push(p);
            }
        }
    }

    // cover watch tables
    let mut cover_watch: Vec<Vec<u32>> = vec![Vec::new(); nslots];
    for (i, c) in prog.covers.iter().enumerate() {
        for s in [c.pred, c.enable] {
            if !cover_watch[s as usize].contains(&(i as u32)) {
                cover_watch[s as usize].push(i as u32);
            }
        }
    }
    let mut cv_watch: Vec<Vec<u32>> = vec![Vec::new(); nslots];
    for (i, cv) in prog.cover_values.iter().enumerate() {
        for s in [cv.signal, cv.enable] {
            if !cv_watch[s as usize].contains(&(i as u32)) {
                cv_watch[s as usize].push(i as u32);
            }
        }
    }

    // escapes: dsts consumed outside their partition or watched by covers
    for (p, part) in parts.iter_mut().enumerate() {
        let p = p as u32;
        for instr in &instrs[part.start as usize..part.end as usize] {
            let d = instr.dst;
            let escapes = consumers[d as usize].iter().any(|&q| q != p)
                || !cover_watch[d as usize].is_empty()
                || !cv_watch[d as usize].is_empty();
            if escapes && !part.escapes.contains(&d) {
                part.escapes.push(d);
            }
        }
    }

    // soundness: every data dependency flows forward in the new layout
    // (first writer precedes every reader)
    let mut first_writer = vec![u32::MAX; nslots];
    for (k, instr) in instrs.iter().enumerate().rev() {
        first_writer[instr.dst as usize] = k as u32;
    }
    for (k, instr) in instrs.iter().enumerate() {
        for s in [instr.a, instr.b, instr.c] {
            let pos = first_writer[s as usize];
            assert!(
                pos == u32::MAX || pos < k as u32,
                "partitioning broke topological order"
            );
        }
    }

    let prog = Program { instrs, ..prog };
    PartitionedProgram {
        prog,
        parts,
        consumers,
        mem_readers,
        cover_watch,
        cv_watch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::elaborate::elaborate;
    use rtlcov_firrtl::parser::parse;
    use rtlcov_firrtl::passes;

    fn prog_for(src: &str) -> Program {
        let low = passes::lower(parse(src).unwrap()).unwrap();
        compile(&elaborate(&low).unwrap()).unwrap()
    }

    const TWO_CONES: &str = "
circuit T :
  module T :
    input a : UInt<4>
    input b : UInt<4>
    input c : UInt<4>
    output o1 : UInt<5>
    output o2 : UInt<4>
    o1 <= add(a, b)
    o2 <= not(c)
";

    #[test]
    fn independent_cones_get_distinct_partitions() {
        let pp = partition(prog_for(TWO_CONES), 32);
        assert!(pp.parts.len() >= 2, "parts: {}", pp.parts.len());
        let total: usize = pp.parts.iter().map(|p| (p.end - p.start) as usize).sum();
        assert_eq!(total, pp.prog.instrs.len());
    }

    #[test]
    fn small_caps_split_big_cones() {
        let pp = partition(prog_for(TWO_CONES), 1);
        for p in &pp.parts {
            assert_eq!(p.end - p.start, 1);
        }
    }

    #[test]
    fn consumers_cover_input_slots() {
        let pp = partition(prog_for(TWO_CONES), 32);
        for (name, slot) in &pp.prog.inputs {
            if name == "a" || name == "b" || name == "c" {
                assert!(
                    !pp.consumers[*slot as usize].is_empty(),
                    "input {name} has no consuming partition"
                );
            }
        }
    }

    #[test]
    fn covers_are_watched() {
        let pp = partition(
            prog_for(
                "
circuit T :
  module T :
    input clock : Clock
    input a : UInt<1>
    cover(clock, a, UInt<1>(1)) : hit
",
            ),
            32,
        );
        let watched: usize = pp.cover_watch.iter().map(Vec::len).sum();
        assert!(watched >= 1);
    }

    #[test]
    fn mem_readers_registered() {
        let pp = partition(
            prog_for(
                "
circuit T :
  module T :
    input clock : Clock
    input addr : UInt<4>
    output o : UInt<8>
    mem m : UInt<8>[16], readers(r), writers(w)
    m.r.addr <= addr
    m.r.en <= UInt<1>(1)
    m.w.addr <= addr
    m.w.en <= UInt<1>(0)
    m.w.data <= UInt<8>(0)
    m.w.mask <= UInt<1>(1)
    o <= m.r.data
",
            ),
            32,
        );
        assert_eq!(pp.mem_readers.len(), 1);
        assert!(!pp.mem_readers[0].is_empty());
    }
}
