//! The search loop, driven through the crates' public functions exactly
//! as `metaopt train` and `metaopt specialize --co-evolve` drive it, but
//! with the prepared benchmarks built once and reused.

use crate::timing::{Recorder, Timed};
use crate::workload::{Mode, Spec};
use metaopt::pipeline::{StudyMultiEvaluator, StudyPlanSpace};
use metaopt::{PrepareError, PreparedBench, StudyEvaluator};
use metaopt_compiler::PipelinePlan;
use metaopt_gp::{CoEvolution, Evaluator, Evolution, Expr, MultiEvaluator};
use metaopt_suite::DataSet;
use metaopt_trace::Tracer;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Prepare every benchmark of `spec`, in order.
///
/// # Errors
/// The first benchmark that fails to prepare.
pub fn prepare(spec: &Spec) -> Result<Vec<PreparedBench>, PrepareError> {
    spec.benches
        .iter()
        .map(|b| PreparedBench::try_new(&spec.study, b))
        .collect()
}

/// What a search found, and what it cost.
#[derive(Clone, Debug, PartialEq)]
pub struct Found {
    /// The winner's expression key.
    pub winner: String,
    /// The winner's pipeline plan (co-evolution only).
    pub plan: Option<String>,
    /// Speedup on the training data (mean over benchmarks for DSS).
    pub train_speedup: f64,
    /// Speedup on the novel data (mean over benchmarks for DSS).
    pub novel_speedup: f64,
    /// Per benchmark, the winner's reported `[train, novel]` cycles.
    pub cycles: Vec<[u64; 2]>,
    /// Evaluator calls (uncached evaluations).
    pub evaluations: u64,
    /// Evaluations that failed and were quarantined.
    pub failures: u64,
    /// Memo-cache hits.
    pub cache_hits: u64,
}

/// `spec.params` with the adjustments `metaopt::experiment` makes: the
/// study's genome sort, the DSS subset size, and the per-benchmark seed
/// mix of single-benchmark runs.
fn engine_params(spec: &Spec) -> metaopt_gp::GpParams {
    let mut params = spec.params.clone();
    params.kind = spec.study.genome_kind;
    match spec.mode {
        Mode::Dss => {
            if params.subset_size.is_none() && spec.benches.len() > 4 {
                params.subset_size = Some(spec.benches.len().div_ceil(2));
            }
        }
        Mode::CoEvolve => {
            let mut h = DefaultHasher::new();
            spec.benches[0].name.hash(&mut h);
            params.seed ^= h.finish();
        }
    }
    params
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        sum += x;
        n += 1;
    }
    sum / f64::from(n)
}

/// Speedup as `metaopt::experiment` computes it.
fn speedup(baseline: u64, cycles: u64) -> f64 {
    baseline as f64 / cycles as f64
}

/// Run the DSS search with `evaluator` and report the winner's speedups.
pub fn dss<E: Evaluator>(spec: &Spec, benches: &[PreparedBench], evaluator: &E) -> Found {
    let result = Evolution::new(engine_params(spec), &spec.study.features, evaluator)
        .with_seeds(vec![spec.study.baseline_seed.clone()])
        .with_config_tag(spec.study.plan.to_string())
        .run();
    let cycles: Vec<[u64; 2]> = benches
        .iter()
        .map(|pb| {
            [DataSet::Train, DataSet::Novel].map(|ds| {
                pb.try_cycles_with(&spec.study, &result.best, ds)
                    .unwrap_or(0)
            })
        })
        .collect();
    let mean_speedup = |k: usize, ds: DataSet| {
        mean(
            benches
                .iter()
                .zip(&cycles)
                .map(|(pb, c)| speedup(pb.baseline_cycles(ds), c[k])),
        )
    };
    Found {
        winner: result.best.key(),
        plan: None,
        train_speedup: mean_speedup(0, DataSet::Train),
        novel_speedup: mean_speedup(1, DataSet::Novel),
        cycles,
        evaluations: result.evaluations,
        failures: result.failures,
        cache_hits: result.cache_hits,
    }
}

/// Run co-evolution with `evaluator` and report the cycle-minimal
/// champion's speedups.
pub fn coevolve<E: MultiEvaluator>(spec: &Spec, benches: &[PreparedBench], evaluator: &E) -> Found {
    let plans = StudyPlanSpace::new(&spec.study);
    let result = CoEvolution::new(engine_params(spec), &spec.study.features, evaluator, &plans)
        .with_seeds(vec![spec.study.baseline_seed.clone()])
        .with_config_tag(spec.study.plan.to_string())
        .run();
    let pb = &benches[0];
    let champion = result.front.first();
    let (winner, plan, cycles) = match champion {
        Some(p) => {
            let plan: PipelinePlan = p.plan.parse().expect("front plans are canonical");
            let expr = metaopt_gp::parse::parse_expr(&p.expr, &spec.study.features)
                .expect("front expressions are re-parseable keys");
            let cycles = [DataSet::Train, DataSet::Novel].map(|ds| {
                pb.try_objectives_traced(&spec.study, &plan, &expr, ds, &Tracer::disabled())
                    .map_or(0, |o| o[0])
            });
            (expr.key(), Some(p.plan.clone()), cycles)
        }
        None => (String::new(), None, [0, 0]),
    };
    Found {
        winner,
        plan,
        train_speedup: speedup(pb.baseline_cycles(DataSet::Train), cycles[0]),
        novel_speedup: speedup(pb.baseline_cycles(DataSet::Novel), cycles[1]),
        cycles: vec![cycles],
        evaluations: result.evaluations,
        failures: result.failures,
        cache_hits: result.cache_hits,
    }
}

/// Run `spec`'s search over `benches` with the crates' own evaluators.
pub fn run(spec: &Spec, benches: &[PreparedBench]) -> Found {
    match spec.mode {
        Mode::Dss => dss(spec, benches, &StudyEvaluator::new(&spec.study, benches)),
        Mode::CoEvolve => coevolve(
            spec,
            benches,
            &StudyMultiEvaluator::new(&spec.study, benches),
        ),
    }
}

/// [`run`], recording every evaluator call into `recorder`.
pub fn run_timed(spec: &Spec, benches: &[PreparedBench], recorder: &Recorder) -> Found {
    match spec.mode {
        Mode::Dss => dss(
            spec,
            benches,
            &Timed {
                inner: StudyEvaluator::new(&spec.study, benches),
                recorder,
            },
        ),
        Mode::CoEvolve => coevolve(
            spec,
            benches,
            &Timed {
                inner: StudyMultiEvaluator::new(&spec.study, benches),
                recorder,
            },
        ),
    }
}

/// Parse a winner back into the expression the search evolved.
pub fn parse_winner(spec: &Spec, found: &Found) -> Option<Expr> {
    metaopt_gp::parse::parse_expr(&found.winner, &spec.study.features).ok()
}
