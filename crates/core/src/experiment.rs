//! Experiment drivers: specialization, general-purpose (DSS) training,
//! cross-validation — the paper's two modes of operation plus its
//! evaluation methodology — and the pipeline-ablation sweep that treats
//! phase ordering itself as a workload.
//!
//! Each driver comes in two flavours: a `*_controlled` form that takes a
//! [`RunControl`] (checkpointing, resume) and returns a `Result`, and the
//! original panicking convenience form for tests and examples. Reporting
//! after evolution uses the fallible evaluation path: a benchmark on which
//! the winner fails contributes `NaN` to its column and is excluded from
//! means, rather than aborting the whole experiment at the finish line.

use crate::pipeline::{
    PrepareError, PreparedBench, StudyEvaluator, StudyMultiEvaluator, StudyPlanSpace,
};
use crate::study::StudyConfig;
use metaopt_compiler::{CompileStats, PipelinePlan};
use metaopt_gp::checkpoint::{Checkpoint, CheckpointError};
use metaopt_gp::pareto::{hypervolume_proxy, ParetoPoint, NUM_OBJECTIVES};
use metaopt_gp::{CoEvolution, Evolution, Expr, GenLog, GpParams, QuarantineRecord};
use metaopt_suite::{Benchmark, DataSet};
use metaopt_trace::json::Value;
use metaopt_trace::Tracer;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Failure of an experiment driver: either benchmark preparation broke
/// (setup problem) or checkpoint I/O did (operational problem). Genome
/// evaluation failures never surface here — they are quarantined inside
/// the evolution loop.
#[derive(Debug)]
pub enum ExperimentError {
    /// A benchmark could not be prepared.
    Prepare(PrepareError),
    /// A checkpoint could not be saved, loaded, or validated.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Prepare(e) => write!(f, "{e}"),
            ExperimentError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Prepare(e) => Some(e),
            ExperimentError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<PrepareError> for ExperimentError {
    fn from(e: PrepareError) -> Self {
        ExperimentError::Prepare(e)
    }
}

impl From<CheckpointError> for ExperimentError {
    fn from(e: CheckpointError) -> Self {
        ExperimentError::Checkpoint(e)
    }
}

/// Run-lifecycle controls shared by the experiment drivers.
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    /// Write a checkpoint to this path after every completed generation.
    pub checkpoint: Option<PathBuf>,
    /// Resume from this checkpoint instead of starting fresh. The file's
    /// parameter fingerprint must match the current run (generation count
    /// and thread count may differ).
    pub resume: Option<PathBuf>,
    /// Structured-trace sink for the run (`run-trace.v1`): the GP engine,
    /// the pass manager, and the simulator all emit into it. Disabled by
    /// default, leaving results bit-identical to an untraced run.
    pub tracer: Tracer,
    /// Crash-safe persistent fitness cache. Scores are appended as they
    /// are computed and replayed on the next run with the same config
    /// fingerprint, so a warm rerun skips straight past every evaluation
    /// it has already paid for. Corrupt or foreign files degrade to
    /// in-memory caching; they never abort the run.
    pub eval_cache: Option<PathBuf>,
}

/// Result of specializing a priority function to one benchmark (paper
/// §5.4.1 / Figs. 4, 9, 13).
#[derive(Clone, Debug)]
pub struct SpecializationResult {
    /// Benchmark name.
    pub name: String,
    /// Speedup on the data the function was trained on (`NaN` if the
    /// winner's final evaluation failed).
    pub train_speedup: f64,
    /// Speedup on the novel data set (`NaN` on failure).
    pub novel_speedup: f64,
    /// The evolved priority function.
    pub best: Expr,
    /// Per-generation telemetry (drives the evolution figures).
    pub log: Vec<GenLog>,
    /// Uncached fitness evaluations performed.
    pub evaluations: u64,
    /// Evaluations that produced a score.
    pub successes: u64,
    /// Evaluations answered by the persistent fitness cache (0 unless
    /// [`RunControl::eval_cache`] is set and the store was warm).
    pub warm_hits: u64,
    /// Quarantine ledger: every distinct `(genome, case)` evaluation
    /// failure, with its classified error.
    pub quarantined: Vec<QuarantineRecord>,
}

fn speedup_or_nan(pb: &PreparedBench, study: &StudyConfig, expr: &Expr, ds: DataSet) -> f64 {
    pb.try_speedup(study, expr, ds).unwrap_or(f64::NAN)
}

/// Per-benchmark `(name, train-data speedup, novel-data speedup)` of
/// `expr`, in benchmark order. The benchmark × data-set evaluations are
/// independent and deterministic, so they are spread over `threads`
/// scoped workers that claim them in order; the result does not depend on
/// the thread count.
fn speedups_by_bench(
    prepared: &[PreparedBench],
    study: &StudyConfig,
    expr: &Expr,
    threads: usize,
) -> Vec<(String, f64, f64)> {
    const DATA_SETS: [DataSet; 2] = [DataSet::Train, DataSet::Novel];
    let items = prepared.len() * 2;
    let eval = |i: usize| speedup_or_nan(&prepared[i / 2], study, expr, DATA_SETS[i % 2]);
    let next = AtomicUsize::new(0);
    let mut speedups = vec![f64::NAN; items];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, items.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break done;
                        }
                        done.push((i, eval(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            let done = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, s) in done {
                speedups[i] = s;
            }
        }
    });
    prepared
        .iter()
        .zip(speedups.chunks(2))
        .map(|(pb, s)| (pb.name.clone(), s[0], s[1]))
        .collect()
}

/// Mean of the finite entries; `NaN` when none are.
fn mean_finite<I: Iterator<Item = f64>>(vals: I) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in vals.filter(|v| v.is_finite()) {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Evolve a priority function specialized to a single benchmark, with
/// checkpoint/resume control. Each benchmark's evolution is independent
/// (as in the paper's per-benchmark runs): the RNG seed is derived from
/// the configured seed and the benchmark name.
pub fn specialize_controlled(
    study: &StudyConfig,
    bench: &Benchmark,
    params: &GpParams,
    control: &RunControl,
) -> Result<SpecializationResult, ExperimentError> {
    let pb = PreparedBench::try_new(study, bench)?;
    let benches = [pb];
    let evaluator = StudyEvaluator::new(study, &benches).with_tracer(control.tracer.clone());
    let mut params = params.clone();
    params.kind = study.genome_kind;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(bench.name, &mut h);
    params.seed ^= std::hash::Hasher::finish(&h);
    let mut evo = Evolution::new(params, &study.features, &evaluator)
        .with_seeds(vec![study.baseline_seed.clone()])
        .with_config_tag(study.plan.to_string())
        .with_tracer(control.tracer.clone());
    if let Some(path) = &control.resume {
        evo = evo.resume_from(Checkpoint::load(path)?);
    }
    if let Some(path) = &control.checkpoint {
        evo = evo.with_checkpoint_file(path);
    }
    if let Some(path) = &control.eval_cache {
        evo = evo.with_eval_cache(path);
    }
    let result = evo.try_run()?;
    let train_speedup = speedup_or_nan(&benches[0], study, &result.best, DataSet::Train);
    let novel_speedup = speedup_or_nan(&benches[0], study, &result.best, DataSet::Novel);
    Ok(SpecializationResult {
        name: bench.name.to_string(),
        train_speedup,
        novel_speedup,
        best: result.best,
        log: result.log,
        evaluations: result.evaluations,
        successes: result.successes,
        warm_hits: result.warm_hits,
        quarantined: result.quarantined,
    })
}

/// Panicking convenience wrapper around [`specialize_controlled`] with no
/// checkpointing, for tests and examples.
///
/// # Panics
/// Panics if benchmark preparation fails.
pub fn specialize(
    study: &StudyConfig,
    bench: &Benchmark,
    params: &GpParams,
) -> SpecializationResult {
    specialize_controlled(study, bench, params, &RunControl::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Result of a general-purpose (multi-benchmark DSS) training run (paper
/// §5.4.2 / Figs. 6, 11, 15).
#[derive(Clone, Debug)]
pub struct GeneralResult {
    /// Per-benchmark `(name, train-data speedup, novel-data speedup)`;
    /// `NaN` marks a failed final evaluation.
    pub per_bench: Vec<(String, f64, f64)>,
    /// Mean speedup on the training data (over finite entries).
    pub mean_train: f64,
    /// Mean speedup on the novel data (over finite entries).
    pub mean_novel: f64,
    /// The evolved general-purpose priority function.
    pub best: Expr,
    /// Per-generation telemetry.
    pub log: Vec<GenLog>,
    /// Uncached fitness evaluations performed.
    pub evaluations: u64,
    /// Evaluations that produced a score.
    pub successes: u64,
    /// Evaluations answered by the persistent fitness cache (0 unless
    /// [`RunControl::eval_cache`] is set and the store was warm).
    pub warm_hits: u64,
    /// Quarantine ledger: every distinct `(genome, case)` evaluation
    /// failure, with its classified error.
    pub quarantined: Vec<QuarantineRecord>,
}

/// Evolve one general-purpose priority function over `benches` using
/// dynamic subset selection, with checkpoint/resume control.
pub fn train_general_controlled(
    study: &StudyConfig,
    benches: &[Benchmark],
    params: &GpParams,
    control: &RunControl,
) -> Result<GeneralResult, ExperimentError> {
    let prepared = benches
        .iter()
        .map(|b| PreparedBench::try_new(study, b))
        .collect::<Result<Vec<PreparedBench>, PrepareError>>()?;
    let evaluator = StudyEvaluator::new(study, &prepared).with_tracer(control.tracer.clone());
    let threads = params.threads;
    let mut params = params.clone();
    params.kind = study.genome_kind;
    if params.subset_size.is_none() && benches.len() > 4 {
        // The paper's DSS default: train on subsets, roughly half the suite.
        params.subset_size = Some(benches.len().div_ceil(2));
    }
    let mut evo = Evolution::new(params, &study.features, &evaluator)
        .with_seeds(vec![study.baseline_seed.clone()])
        .with_config_tag(study.plan.to_string())
        .with_tracer(control.tracer.clone());
    if let Some(path) = &control.resume {
        evo = evo.resume_from(Checkpoint::load(path)?);
    }
    if let Some(path) = &control.checkpoint {
        evo = evo.with_checkpoint_file(path);
    }
    if let Some(path) = &control.eval_cache {
        evo = evo.with_eval_cache(path);
    }
    let result = evo.try_run()?;
    let per_bench = speedups_by_bench(&prepared, study, &result.best, threads);
    Ok(GeneralResult {
        mean_train: mean_finite(per_bench.iter().map(|x| x.1)),
        mean_novel: mean_finite(per_bench.iter().map(|x| x.2)),
        per_bench,
        best: result.best,
        log: result.log,
        evaluations: result.evaluations,
        successes: result.successes,
        warm_hits: result.warm_hits,
        quarantined: result.quarantined,
    })
}

/// Panicking convenience wrapper around [`train_general_controlled`] with
/// no checkpointing, for tests and examples.
///
/// # Panics
/// Panics if benchmark preparation fails.
pub fn train_general(
    study: &StudyConfig,
    benches: &[Benchmark],
    params: &GpParams,
) -> GeneralResult {
    train_general_controlled(study, benches, params, &RunControl::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Cross-validation of a trained priority function on unrelated benchmarks
/// (paper §5.4.2 / Figs. 7, 12, 16).
#[derive(Clone, Debug)]
pub struct CrossValidation {
    /// Per-benchmark `(name, speedup on train data, speedup on novel data)`;
    /// `NaN` marks a failed evaluation.
    pub per_bench: Vec<(String, f64, f64)>,
    /// Mean speedup (train-data column, over finite entries).
    pub mean: f64,
}

/// Apply `expr` to benchmarks it was never trained on.
pub fn try_cross_validate(
    study: &StudyConfig,
    expr: &Expr,
    benches: &[Benchmark],
) -> Result<CrossValidation, ExperimentError> {
    let per_bench = benches
        .iter()
        .map(|b| {
            let pb = PreparedBench::try_new(study, b)?;
            Ok((
                b.name.to_string(),
                speedup_or_nan(&pb, study, expr, DataSet::Train),
                speedup_or_nan(&pb, study, expr, DataSet::Novel),
            ))
        })
        .collect::<Result<Vec<_>, PrepareError>>()?;
    let mean = mean_finite(per_bench.iter().map(|x| x.1));
    Ok(CrossValidation { per_bench, mean })
}

/// Panicking convenience wrapper around [`try_cross_validate`].
///
/// # Panics
/// Panics if benchmark preparation fails.
pub fn cross_validate(study: &StudyConfig, expr: &Expr, benches: &[Benchmark]) -> CrossValidation {
    try_cross_validate(study, expr, benches).unwrap_or_else(|e| panic!("{e}"))
}

/// One pipeline plan's measured cost in an ablation sweep.
#[derive(Clone, Debug)]
pub struct PlanRun {
    /// The plan that was compiled and timed.
    pub plan: PipelinePlan,
    /// Cycles on the training data, if the plan evaluated cleanly.
    pub cycles: Option<u64>,
    /// Compile statistics (counters and per-pass timing) on success.
    pub stats: Option<CompileStats>,
    /// The classified evaluation error, if the plan failed.
    pub error: Option<String>,
}

/// Result of sweeping pipeline plans over one prepared benchmark: the
/// phase-ordering experiment. Each plan compiles with the study's shipped
/// baseline priority functions, so differences are attributable to pass
/// selection and ordering alone.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Benchmark name.
    pub bench: String,
    /// One row per plan, in the order given.
    pub runs: Vec<PlanRun>,
}

impl AblationResult {
    /// Render the cycles-per-plan table: one row per plan, cycles, speedup
    /// relative to the first (reference) plan, and compile time.
    pub fn table(&self) -> String {
        let width = self
            .runs
            .iter()
            .map(|r| r.plan.to_string().len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = format!(
            "{:<width$} {:>12} {:>8} {:>11}\n",
            "plan", "cycles", "vs[0]", "compile"
        );
        let reference = self.runs.first().and_then(|r| r.cycles);
        for r in &self.runs {
            let plan = r.plan.to_string();
            match (r.cycles, &r.stats) {
                (Some(cycles), Some(stats)) => {
                    let rel = match reference {
                        Some(base) => format!("{:.3}x", base as f64 / cycles as f64),
                        None => "-".to_string(),
                    };
                    let compile_us: u64 = stats.per_pass.iter().map(|p| p.wall_nanos).sum();
                    out.push_str(&format!(
                        "{plan:<width$} {cycles:>12} {rel:>8} {:>9.1}us\n",
                        compile_us as f64 / 1000.0
                    ));
                }
                _ => {
                    let err = r.error.as_deref().unwrap_or("failed");
                    out.push_str(&format!("{plan:<width$} {err}\n"));
                }
            }
        }
        out
    }

    /// Machine-readable form of the sweep, following the `metaopt check
    /// --json` convention (a single object with summary counts and a
    /// `results` array): per plan, training-data cycles, static code size,
    /// measured compile wall nanos, and the speedup relative to the first
    /// (reference) plan; failed plans report `ok: false` with the error.
    pub fn json(&self, study: &str) -> String {
        let reference = self.runs.first().and_then(|r| r.cycles);
        let results: Vec<Value> = self
            .runs
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("plan".to_string(), Value::str(r.plan.to_string())),
                    ("ok".to_string(), Value::Bool(r.cycles.is_some())),
                ];
                match (r.cycles, &r.stats) {
                    (Some(cycles), Some(stats)) => {
                        let wall: u64 = stats.per_pass.iter().map(|p| p.wall_nanos).sum();
                        fields.push(("cycles".to_string(), Value::UInt(cycles)));
                        fields.push(("size".to_string(), Value::UInt(stats.counters.static_insts)));
                        fields.push(("compile_wall_ns".to_string(), Value::UInt(wall)));
                        if let Some(base) = reference {
                            fields.push((
                                "speedup_vs_reference".to_string(),
                                Value::Num(base as f64 / cycles as f64),
                            ));
                        }
                    }
                    _ => {
                        let err = r.error.as_deref().unwrap_or("failed");
                        fields.push(("error".to_string(), Value::str(err)));
                    }
                }
                Value::Obj(fields)
            })
            .collect();
        let failures = self.runs.iter().filter(|r| r.cycles.is_none()).count();
        Value::Obj(vec![
            ("study".to_string(), Value::str(study)),
            ("bench".to_string(), Value::str(self.bench.as_str())),
            ("plans".to_string(), Value::UInt(self.runs.len() as u64)),
            ("failures".to_string(), Value::UInt(failures as u64)),
            ("results".to_string(), Value::Arr(results)),
        ])
        .to_string()
    }
}

/// The default ablation set: the canonical baseline plan plus one-pass
/// knockouts and an unrolled variant.
pub fn default_ablation_plans() -> Vec<PipelinePlan> {
    let baseline = PipelinePlan::baseline();
    vec![
        baseline.clone(),
        baseline.clone().without("hyperblock"),
        baseline.clone().without("prefetch"),
        baseline.with_unroll(2),
        PipelinePlan::minimal(),
    ]
}

/// Sweep `plans` over `bench`: prepare once, then compile under every plan
/// with the study's baseline priority functions and measure training-data
/// cycles. Plans that fail to compile or simulate are reported per-row
/// rather than aborting the sweep.
pub fn try_ablate(
    study: &StudyConfig,
    bench: &Benchmark,
    plans: &[PipelinePlan],
) -> Result<AblationResult, ExperimentError> {
    try_ablate_traced(study, bench, plans, &Tracer::disabled())
}

/// [`try_ablate`], emitting `pass` and `sim` events for every plan's
/// compile-and-simulate into `tracer`.
pub fn try_ablate_traced(
    study: &StudyConfig,
    bench: &Benchmark,
    plans: &[PipelinePlan],
    tracer: &Tracer,
) -> Result<AblationResult, ExperimentError> {
    let pb = PreparedBench::try_new(study, bench)?;
    let runs = plans
        .iter()
        .map(
            |plan| match pb.try_plan_cycles_traced(study, plan, DataSet::Train, tracer) {
                Ok((cycles, stats)) => PlanRun {
                    plan: plan.clone(),
                    cycles: Some(cycles),
                    stats: Some(stats),
                    error: None,
                },
                Err(e) => PlanRun {
                    plan: plan.clone(),
                    cycles: None,
                    stats: None,
                    error: Some(e.to_string()),
                },
            },
        )
        .collect();
    Ok(AblationResult {
        bench: bench.name.to_string(),
        runs,
    })
}

/// Panicking convenience wrapper around [`try_ablate`].
///
/// # Panics
/// Panics if benchmark preparation fails.
pub fn ablate(study: &StudyConfig, bench: &Benchmark, plans: &[PipelinePlan]) -> AblationResult {
    try_ablate(study, bench, plans).unwrap_or_else(|e| panic!("{e}"))
}

/// Result of co-evolving `(pipeline plan, priority function)` genomes on
/// one benchmark: the final Pareto front over (cycles, code size, compile
/// cost) plus the conventional champion-and-speedup report for the
/// cycle-minimal front point.
#[derive(Clone, Debug)]
pub struct CoEvolutionResult {
    /// Benchmark name.
    pub name: String,
    /// The final non-dominated front, sorted by objective vector (so the
    /// first point is cycle-minimal). Empty only if every genome in the
    /// final population was quarantined.
    pub front: Vec<ParetoPoint>,
    /// Saturating hypervolume proxy of the front under the selection mask.
    pub hypervolume: u64,
    /// The cycle-minimal front point's plan, parsed.
    pub best_plan: Option<PipelinePlan>,
    /// The cycle-minimal front point's priority function, parsed.
    pub best: Option<Expr>,
    /// Champion speedup over the study baseline (its plan + heuristic) on
    /// the training data; `NaN` if the front is empty or the final
    /// evaluation failed.
    pub train_speedup: f64,
    /// Champion speedup on the novel data set (`NaN` on failure).
    pub novel_speedup: f64,
    /// Per-generation telemetry (best/mean are summed training cycles).
    pub log: Vec<GenLog>,
    /// Uncached objective-vector evaluations performed.
    pub evaluations: u64,
    /// Evaluations that produced an objective vector.
    pub successes: u64,
    /// Evaluations answered by the persistent fitness cache.
    pub warm_hits: u64,
    /// Quarantine ledger over `plan|expr` genome keys.
    pub quarantined: Vec<QuarantineRecord>,
}

impl CoEvolutionResult {
    /// Render the front as a table: one row per point, objectives first.
    pub fn front_table(&self) -> String {
        let width = self
            .front
            .iter()
            .map(|p| p.plan.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = format!(
            "{:>12} {:>10} {:>12}  {:<width$} expr\n",
            "cycles", "size", "compile", "plan"
        );
        for p in &self.front {
            out.push_str(&format!(
                "{:>12} {:>10} {:>12}  {:<width$} {}\n",
                p.objectives[0], p.objectives[1], p.objectives[2], p.plan, p.expr
            ));
        }
        out
    }
}

/// Co-evolve pipeline plans with priority functions on a single benchmark
/// (multi-objective NSGA-II; see [`metaopt_gp::CoEvolution`]), with
/// checkpoint/resume control. Seeding mirrors [`specialize_controlled`]:
/// the RNG seed is derived from the configured seed and the benchmark
/// name, and the study's baseline heuristic seeds the expression
/// population while the study plan and the minimal plan seed the plans.
pub fn co_evolve_controlled(
    study: &StudyConfig,
    bench: &Benchmark,
    params: &GpParams,
    objectives: [bool; NUM_OBJECTIVES],
    control: &RunControl,
) -> Result<CoEvolutionResult, ExperimentError> {
    let pb = PreparedBench::try_new(study, bench)?;
    let benches = [pb];
    let evaluator = StudyMultiEvaluator::new(study, &benches).with_tracer(control.tracer.clone());
    let plan_space = StudyPlanSpace::new(study);
    let mut params = params.clone();
    params.kind = study.genome_kind;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::hash::Hash::hash(bench.name, &mut h);
    params.seed ^= std::hash::Hasher::finish(&h);
    let mut evo = CoEvolution::new(params, &study.features, &evaluator, &plan_space)
        .with_seeds(vec![study.baseline_seed.clone()])
        .with_objectives(objectives)
        .with_config_tag(study.plan.to_string())
        .with_tracer(control.tracer.clone());
    if let Some(path) = &control.resume {
        evo = evo.resume_from(Checkpoint::load(path)?);
    }
    if let Some(path) = &control.checkpoint {
        evo = evo.with_checkpoint_file(path);
    }
    if let Some(path) = &control.eval_cache {
        evo = evo.with_eval_cache(path);
    }
    let result = evo.try_run()?;

    let hypervolume = {
        let vectors: Vec<[u64; NUM_OBJECTIVES]> =
            result.front.iter().map(|p| p.objectives).collect();
        hypervolume_proxy(&vectors, &objectives)
    };
    // The front is sorted by objective vector, so the first point is the
    // cycle-minimal champion; report it the way `specialize` reports its
    // winner, against the study's own baseline plan + heuristic.
    let champion = result.front.first().and_then(|p| {
        let plan: PipelinePlan = p.plan.parse().ok()?;
        let expr = metaopt_gp::parse::parse_expr(&p.expr, &study.features).ok()?;
        Some((plan, expr))
    });
    let (best_plan, best, train_speedup, novel_speedup) = match champion {
        Some((plan, expr)) => {
            let speedup = |ds: DataSet| {
                benches[0]
                    .try_objectives_traced(study, &plan, &expr, ds, &Tracer::disabled())
                    .map(|o| benches[0].baseline_cycles(ds) as f64 / o[0] as f64)
                    .unwrap_or(f64::NAN)
            };
            let (t, n) = (speedup(DataSet::Train), speedup(DataSet::Novel));
            (Some(plan), Some(expr), t, n)
        }
        None => (None, None, f64::NAN, f64::NAN),
    };
    Ok(CoEvolutionResult {
        name: bench.name.to_string(),
        front: result.front,
        hypervolume,
        best_plan,
        best,
        train_speedup,
        novel_speedup,
        log: result.log,
        evaluations: result.evaluations,
        successes: result.successes,
        warm_hits: result.warm_hits,
        quarantined: result.quarantined,
    })
}

/// Panicking convenience wrapper around [`co_evolve_controlled`] with all
/// objectives enabled and no checkpointing, for tests and examples.
///
/// # Panics
/// Panics if benchmark preparation fails.
pub fn co_evolve(study: &StudyConfig, bench: &Benchmark, params: &GpParams) -> CoEvolutionResult {
    co_evolve_controlled(
        study,
        bench,
        params,
        [true; NUM_OBJECTIVES],
        &RunControl::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study;

    fn tiny_params(seed: u64) -> GpParams {
        GpParams {
            population: 12,
            generations: 4,
            seed,
            threads: 2,
            ..GpParams::quick()
        }
    }

    #[test]
    fn winner_speedups_are_thread_count_independent() {
        let cfg = study::hyperblock();
        let prepared: Vec<PreparedBench> = ["unepic", "rawdaudio", "codrle4"]
            .iter()
            .map(|n| PreparedBench::new(&cfg, &metaopt_suite::by_name(n).unwrap()))
            .collect();
        let expr = metaopt_gp::parse::parse_expr("(mul exec_ratio 2.0)", &cfg.features).unwrap();
        let bits = |rows: Vec<(String, f64, f64)>| -> Vec<(String, u64, u64)> {
            rows.into_iter()
                .map(|(n, t, v)| (n, t.to_bits(), v.to_bits()))
                .collect()
        };
        let serial = bits(
            prepared
                .iter()
                .map(|pb| {
                    (
                        pb.name.clone(),
                        speedup_or_nan(pb, &cfg, &expr, DataSet::Train),
                        speedup_or_nan(pb, &cfg, &expr, DataSet::Novel),
                    )
                })
                .collect(),
        );
        for threads in [0, 1, 2, 4, 16] {
            let got = bits(speedups_by_bench(&prepared, &cfg, &expr, threads));
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn specialization_never_loses_to_baseline_on_train_data() {
        // With the baseline seeded and elitism on, the specialized result
        // can only match or beat the baseline on its training data.
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let r = specialize(&cfg, &bench, &tiny_params(11));
        assert!(
            r.train_speedup >= 0.999,
            "{}: train speedup {}",
            r.name,
            r.train_speedup
        );
        assert!(!r.log.is_empty());
        assert!(r.evaluations > 0);
        // Without fault injection the bundled kernels evaluate cleanly.
        assert_eq!(r.successes, r.evaluations);
        assert!(r.quarantined.is_empty());
    }

    #[test]
    fn general_training_reports_all_benchmarks() {
        let cfg = study::hyperblock();
        let benches: Vec<_> = ["unepic", "mpeg2dec"]
            .iter()
            .map(|n| metaopt_suite::by_name(n).unwrap())
            .collect();
        let r = train_general(&cfg, &benches, &tiny_params(7));
        assert_eq!(r.per_bench.len(), 2);
        assert!(r.mean_train >= 0.99, "mean train {}", r.mean_train);
    }

    #[test]
    fn cross_validation_runs_on_unseen_benchmarks() {
        let cfg = study::hyperblock();
        let seed = cfg.baseline_seed.clone();
        let benches = vec![metaopt_suite::by_name("djpeg").unwrap()];
        let cv = cross_validate(&cfg, &seed, &benches);
        assert_eq!(cv.per_bench.len(), 1);
        // The baseline seed cross-validates at exactly 1.0 by construction.
        assert!((cv.per_bench[0].1 - 1.0).abs() < 1e-9, "{cv:?}");
    }

    #[test]
    fn checkpointed_specialization_resumes_identically() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("metaopt-exp-ck-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();

        // Phase 1: short run that leaves a checkpoint behind.
        let short = GpParams {
            generations: 2,
            ..tiny_params(5)
        };
        let ck_control = RunControl {
            checkpoint: Some(path.clone()),
            ..RunControl::default()
        };
        specialize_controlled(&cfg, &bench, &short, &ck_control).unwrap();
        assert!(path.exists(), "checkpoint file must be written");

        // Phase 2: resume to the full horizon and compare with an
        // uninterrupted run at the same seed.
        let full = tiny_params(5);
        let resumed = specialize_controlled(
            &cfg,
            &bench,
            &full,
            &RunControl {
                resume: Some(path.clone()),
                ..RunControl::default()
            },
        )
        .unwrap();
        let straight = specialize(&cfg, &bench, &full);
        assert_eq!(resumed.best.key(), straight.best.key());
        assert_eq!(resumed.log, straight.log);
        assert!((resumed.train_speedup - straight.train_speedup).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ablation_sweeps_distinct_plans_and_renders_a_table() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("rawdaudio").unwrap();
        let plans = default_ablation_plans();
        assert!(plans.len() >= 4, "the default sweep covers >= 4 plans");
        let r = ablate(&cfg, &bench, &plans);
        assert_eq!(r.runs.len(), plans.len());
        for run in &r.runs {
            assert!(
                run.cycles.is_some(),
                "plan {} failed: {:?}",
                run.plan,
                run.error
            );
            let stats = run.stats.as_ref().unwrap();
            assert_eq!(stats.per_pass.len(), run.plan.steps().len());
        }
        // Knocking out hyperblock formation must change the schedule cost.
        let base = r.runs[0].cycles.unwrap();
        let no_hb = r.runs[1].cycles.unwrap();
        assert_ne!(base, no_hb, "hyperblock knockout must be observable");
        let table = r.table();
        for run in &r.runs {
            assert!(table.contains(&run.plan.to_string()), "table:\n{table}");
        }
    }

    #[test]
    fn resume_under_a_different_plan_is_rejected() {
        // A checkpoint's fitness values are only meaningful under the
        // pipeline plan that produced them, so the plan is part of the
        // config fingerprint.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("metaopt-exp-plan-ck-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        // Two generations: the engine snapshots at generation boundaries,
        // so a 1-generation run finishes before ever writing a checkpoint.
        let params = GpParams {
            generations: 2,
            ..tiny_params(9)
        };
        let ck = RunControl {
            checkpoint: Some(path.clone()),
            ..RunControl::default()
        };
        specialize_controlled(&cfg, &bench, &params, &ck).unwrap();

        let resume = RunControl {
            resume: Some(path.clone()),
            ..RunControl::default()
        };
        let err = specialize_controlled(&cfg.clone().with_unroll(2), &bench, &params, &resume)
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ExperimentError::Checkpoint(CheckpointError::Mismatch { .. })
            ),
            "{err}"
        );
        // Same plan still resumes fine.
        specialize_controlled(&cfg, &bench, &params, &resume).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_specialization_reproduces_the_cold_run() {
        // A second run over the same persistent fitness cache must land on
        // the same winner and telemetry, only faster: every score the cold
        // run paid for is answered from disk.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("metaopt-exp-store-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let params = tiny_params(13);
        let control = RunControl {
            eval_cache: Some(path.clone()),
            ..RunControl::default()
        };
        let cold = specialize_controlled(&cfg, &bench, &params, &control).unwrap();
        assert_eq!(cold.warm_hits, 0, "a fresh store cannot answer anything");
        let warm = specialize_controlled(&cfg, &bench, &params, &control).unwrap();
        assert!(warm.warm_hits > 0, "second run must hit the store");
        assert_eq!(warm.best.key(), cold.best.key());
        assert_eq!(warm.log, cold.log);
        assert_eq!(warm.evaluations, cold.evaluations);
        assert_eq!(warm.successes, cold.successes);
        assert!((warm.train_speedup - cold.train_speedup).abs() < 1e-12);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_from_missing_checkpoint_is_an_error() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let control = RunControl {
            resume: Some(std::path::PathBuf::from("/nonexistent/metaopt-ck.txt")),
            ..RunControl::default()
        };
        let err = specialize_controlled(&cfg, &bench, &tiny_params(3), &control).unwrap_err();
        assert!(matches!(err, ExperimentError::Checkpoint(_)), "{err}");
    }
}
