//! The benchmark's workloads and the run spec each one generates from a
//! seed. The program under test receives only the generated spec.

use metaopt::{study, StudyConfig};
use metaopt_gp::GpParams;
use metaopt_suite::Benchmark;

/// Worker threads for every workload (the measuring host has 2 cores).
pub const THREADS: usize = 2;

/// Which search loop a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `metaopt train`: scalar GP with dynamic subset selection over the
    /// study's training set.
    Dss,
    /// `metaopt specialize --co-evolve`: NSGA-II over (plan, expression)
    /// genomes on one benchmark.
    CoEvolve,
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DSS training for the hyperblock study.
    DssHyperblock,
    /// DSS training for the register-allocation study.
    DssRegalloc,
    /// Co-evolution of plans and regalloc priorities on g721decode.
    CoevoRegalloc,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::DssHyperblock,
        Workload::DssRegalloc,
        Workload::CoevoRegalloc,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DssHyperblock => "dss-hyperblock",
            Workload::DssRegalloc => "dss-regalloc",
            Workload::CoevoRegalloc => "coevo-regalloc",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed a run uses when none is given.
    pub fn default_seed(self) -> u64 {
        1
    }

    /// Searches in one run. Each has its own GP seed, so a run's figures
    /// average over several searches rather than resting on one seed's
    /// trajectory; the counts make one pass take 20–35 s on 2 cores.
    pub fn searches(self) -> u64 {
        match self {
            Workload::DssHyperblock => 4,
            Workload::DssRegalloc => 5,
            Workload::CoevoRegalloc => 4,
        }
    }

    /// The run specs for workload seed `seed`: search `i` runs with GP
    /// seed `seed * searches + i`, so distinct workload seeds never share
    /// a search.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        let k = self.searches();
        (0..k)
            .map(|i| self.spec(seed.wrapping_mul(k).wrapping_add(i)))
            .collect()
    }

    /// The study, benchmarks, mode and GP shape this workload runs with
    /// GP seed `seed`.
    pub fn spec(self, seed: u64) -> Spec {
        let (study, benches, mode, population, generations) = match self {
            Workload::DssHyperblock => (
                study::hyperblock(),
                metaopt_suite::hyperblock_training_set(),
                Mode::Dss,
                40,
                10,
            ),
            Workload::DssRegalloc => (
                study::regalloc(),
                metaopt_suite::regalloc_training_set(),
                Mode::Dss,
                40,
                10,
            ),
            Workload::CoevoRegalloc => (
                study::regalloc(),
                vec![metaopt_suite::by_name("g721decode").expect("suite benchmark")],
                Mode::CoEvolve,
                64,
                60,
            ),
        };
        Spec {
            workload: self,
            study,
            benches,
            mode,
            params: GpParams {
                population,
                generations,
                seed,
                threads: THREADS,
                ..GpParams::quick()
            },
        }
    }
}

/// A generated run spec: everything the search needs.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The workload this spec belongs to.
    pub workload: Workload,
    /// The study configuration.
    pub study: StudyConfig,
    /// The benchmarks the search trains on.
    pub benches: Vec<Benchmark>,
    /// Which search loop runs.
    pub mode: Mode,
    /// GP shape, seed and thread count, as `metaopt` would pass them to
    /// the engine before its per-mode adjustments.
    pub params: GpParams,
}

impl Spec {
    /// One-line description of the spec for logs and provenance.
    pub fn describe(&self) -> String {
        let names: Vec<&str> = self.benches.iter().map(|b| b.name).collect();
        format!(
            "study={:?} mode={:?} benches=[{}] pop={} gens={} seed={} threads={}",
            self.study.kind,
            self.mode,
            names.join(","),
            self.params.population,
            self.params.generations,
            self.params.seed,
            self.params.threads
        )
    }
}
