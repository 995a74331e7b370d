//! Exact detection of repeated simulations: how often a search simulates
//! a program it has already simulated on the same input and machine.

use metaopt_sim::{MachineConfig, MachineProgram};
use metaopt_suite::DataSet;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Everything a simulation's outcome depends on.
#[derive(Clone, Debug, PartialEq)]
pub struct SimKey {
    /// Benchmark name.
    pub bench: String,
    /// Input data set.
    pub data: DataSet,
    /// Simulated machine, budgets included.
    pub machine: MachineConfig,
    /// Memory image size the compiled program asked for.
    pub mem_size: usize,
    /// The full machine program.
    pub program: MachineProgram,
}

/// Set of simulations seen so far. A hash only picks the bucket; a
/// repeat is declared only when the whole key compares equal, so two
/// programs that differ are never merged.
#[derive(Default)]
pub struct SimSet {
    buckets: HashMap<u64, Vec<SimKey>>,
    seen: u64,
    repeats: u64,
}

impl SimSet {
    /// Record one simulation; returns whether an equal one was seen before.
    pub fn observe(&mut self, key: SimKey) -> bool {
        let mut h = DefaultHasher::new();
        format!("{key:?}").hash(&mut h);
        self.observe_in(h.finish(), key)
    }

    fn observe_in(&mut self, hash: u64, key: SimKey) -> bool {
        let bucket = self.buckets.entry(hash).or_default();
        self.seen += 1;
        if bucket.contains(&key) {
            self.repeats += 1;
            true
        } else {
            bucket.push(key);
            false
        }
    }

    /// Simulations observed.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Distinct simulations observed.
    pub fn distinct(&self) -> u64 {
        self.seen - self.repeats
    }

    /// Share of observed simulations equal to an earlier one (0 when none
    /// were observed).
    pub fn repeat_ratio(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.repeats as f64 / self.seen as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaopt_ir::{Inst, Opcode};
    use metaopt_sim::Bundle;

    fn program(imm: i64) -> MachineProgram {
        MachineProgram {
            blocks: vec![vec![Bundle {
                insts: vec![Inst::new(Opcode::Ret).imm(imm)],
            }]],
            entry: 0,
        }
    }

    fn key(bench: &str, data: DataSet, mem_size: usize, imm: i64) -> SimKey {
        SimKey {
            bench: bench.to_string(),
            data,
            machine: MachineConfig::table3(),
            mem_size,
            program: program(imm),
        }
    }

    #[test]
    fn equal_simulations_count_once() {
        let mut s = SimSet::default();
        assert!(!s.observe(key("a", DataSet::Train, 64, 7)));
        assert!(s.observe(key("a", DataSet::Train, 64, 7)));
        assert!(s.observe(key("a", DataSet::Train, 64, 7)));
        assert_eq!((s.seen(), s.distinct()), (3, 1));
        assert!((s.repeat_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn simulations_that_differ_are_never_merged() {
        let mut s = SimSet::default();
        let base = key("a", DataSet::Train, 64, 7);
        let mut other_machine = base.clone();
        other_machine.machine = MachineConfig::regalloc_stress();
        let mut other_budget = base.clone();
        other_budget.machine.max_insts += 1;
        let variants = [
            base.clone(),
            key("b", DataSet::Train, 64, 7),
            key("a", DataSet::Novel, 64, 7),
            key("a", DataSet::Train, 128, 7),
            key("a", DataSet::Train, 64, 8),
            other_machine,
            other_budget,
        ];
        for v in variants {
            assert!(!s.observe(v));
        }
        assert_eq!(s.distinct(), 7);
        assert_eq!(s.repeat_ratio(), 0.0);
    }

    #[test]
    fn a_hash_collision_is_resolved_by_full_comparison() {
        let mut s = SimSet::default();
        let a = key("a", DataSet::Train, 64, 7);
        let b = key("a", DataSet::Train, 64, 9);
        assert!(!s.observe_in(0, a.clone()));
        assert!(!s.observe_in(0, b.clone()));
        assert!(s.observe_in(0, a));
        assert!(s.observe_in(0, b));
        assert_eq!((s.seen(), s.distinct()), (4, 2));
    }
}
