//! Benchmark preparation and the compile-and-simulate fitness pipeline.
//!
//! Two failure regimes live here, and they are handled differently:
//!
//! * **Preparation** ([`PreparedBench::try_new`]) runs before evolution on
//!   trusted, bundled benchmarks. A failure there is a setup bug, reported
//!   as a [`PrepareError`] carrying the benchmark name.
//! * **Evaluation** ([`PreparedBench::try_cycles_with`] and friends) runs
//!   on *evolved* priority functions, which are adversarial inputs to the
//!   compiler. Every failure — compile error, IR invariant violation,
//!   budget exhaustion, simulator fault, or a wrong answer from the
//!   compiled program — is returned as a classified
//!   [`metaopt_gp::EvalError`] so the GP engine can quarantine the genome
//!   instead of tearing down the run.

use crate::fault::{FaultInjector, FaultStage};
use crate::study::{ExprPriority, StudyConfig};
use metaopt_compiler::{compile, prepare, CompileErrorKind, CompileStats, Compiled, Passes};
use metaopt_gp::{EvalError, EvalErrorKind, EvalOutcome, Expr};
use metaopt_ir::budget;
use metaopt_ir::interp::{run, RunConfig};
use metaopt_ir::profile::FuncProfile;
use metaopt_ir::Program;
use metaopt_sim::exec::{apply_noise, record_sim, simulate_tier, SimError};
use metaopt_sim::machine::MachineConfig;
use metaopt_sim::MachineProgram;
use metaopt_suite::{Benchmark, DataSet, SuiteError};
use metaopt_trace::{json::Value, Tracer};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Mutex, PoisonError};

/// Failure while preparing a benchmark for evaluation (loading, inlining,
/// interpreting the reference run, or timing the baseline). These occur
/// before any evolved genome is involved, so they indicate a broken setup
/// rather than a bad genome.
#[derive(Clone, Debug)]
pub struct PrepareError {
    /// Benchmark that failed to prepare.
    pub bench: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot prepare benchmark {}: {}",
            self.bench, self.message
        )
    }
}

impl std::error::Error for PrepareError {}

impl From<SuiteError> for PrepareError {
    fn from(e: SuiteError) -> Self {
        let (bench, message) = match e {
            SuiteError::Compile { bench, message } => (bench, message),
            SuiteError::MissingDataseed { bench } => {
                (bench, "source lacks a dataseed global".to_string())
            }
        };
        PrepareError {
            bench: bench.to_string(),
            message,
        }
    }
}

/// A benchmark made ready for repeated fitness evaluation: inlined IR,
/// training profile, per-data-set memory images and interpreter ground
/// truth, plus the baseline compilation's cycle counts.
pub struct PreparedBench {
    /// Benchmark name.
    pub name: String,
    /// Inlined, cleaned program (single function).
    pub prepared: Program,
    /// Profile collected on the training data (what the compiler sees).
    pub profile: FuncProfile,
    /// Baseline cycles on the training data.
    pub baseline_train_cycles: u64,
    /// Baseline cycles on the novel data.
    pub baseline_novel_cycles: u64,
    /// Baseline compile statistics.
    pub baseline_stats: CompileStats,
    /// The study machine with the per-evaluation instruction budget
    /// ([`budget::EVAL_MAX_SIM_INSTS`]) so a pathological genome cannot
    /// stall a worker for the full default limit. Budgets only bound the
    /// abort point, never the cycle count of a run that finishes, so
    /// fitness is unaffected.
    eval_machine: MachineConfig,
    train_mem: Vec<u8>,
    novel_mem: Vec<u8>,
    train_ret: i64,
    novel_ret: i64,
}

/// Run the `train` and `novel` halves of a preparation step concurrently,
/// the novel half on a scoped thread, and return both results. A panic in
/// either half propagates.
fn train_and_novel<T: Send>(train: impl FnOnce() -> T, novel: impl FnOnce() -> T + Send) -> (T, T) {
    std::thread::scope(|s| {
        let novel = s.spawn(novel);
        let train = train();
        let novel = novel
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (train, novel)
    })
}

impl PreparedBench {
    /// Prepare `bench` for `study`: inline, profile on the train data,
    /// verify both data sets in the interpreter, and time the baseline.
    /// The two data sets are independent, so each step runs its train and
    /// novel halves concurrently; when both fail, the train error is the
    /// one reported.
    pub fn try_new(study: &StudyConfig, bench: &Benchmark) -> Result<Self, PrepareError> {
        let err = |message: String| PrepareError {
            bench: bench.name.to_string(),
            message,
        };
        let prog = bench.try_program()?;
        let prepared = prepare(&prog).map_err(|e| err(format!("inlining failed: {e}")))?;
        let train_mem = bench.try_memory(&prepared, DataSet::Train)?;
        let novel_mem = bench.try_memory(&prepared, DataSet::Novel)?;

        let reference = |mem: &Vec<u8>, profile: bool| {
            run(
                &prepared,
                &RunConfig {
                    memory: Some(mem.clone()),
                    profile,
                    max_steps: budget::KERNEL_VERIFY_MAX_STEPS,
                    ..Default::default()
                },
            )
        };
        let (train_out, novel_out) = train_and_novel(
            || reference(&train_mem, true),
            || reference(&novel_mem, false),
        );
        let train_out =
            train_out.map_err(|e| err(format!("reference run on train data failed: {e}")))?;
        let novel_out =
            novel_out.map_err(|e| err(format!("reference run on novel data failed: {e}")))?;
        let profile = train_out.profile.expect("profile requested").funcs[0].clone();

        let mut eval_machine = study.machine.clone();
        eval_machine.max_insts = budget::EVAL_MAX_SIM_INSTS;
        // The cooperative deadline: the simulator checks the cycle budget
        // every bundle, so even a low-IPC pathological schedule terminates
        // deterministically — the evaluation service's primary hang bound.
        eval_machine.max_cycles = budget::EVAL_MAX_SIM_CYCLES;
        let mut pb = PreparedBench {
            name: bench.name.to_string(),
            prepared,
            profile,
            baseline_train_cycles: 0,
            baseline_novel_cycles: 0,
            baseline_stats: CompileStats::default(),
            eval_machine,
            train_mem,
            novel_mem,
            train_ret: train_out.ret,
            novel_ret: novel_out.ret,
        };
        let passes = study.baseline_passes();
        let compiled = compile(&pb.prepared, &pb.profile, &study.machine, &passes)
            .map_err(|e| err(format!("baseline compilation failed: {e}")))?;
        pb.baseline_stats = compiled.stats.clone();
        let baseline = |ds| {
            pb.try_simulate(
                study,
                &study.machine,
                &compiled,
                ds,
                0,
                None,
                &Tracer::disabled(),
            )
            .map_err(|e| err(format!("baseline timing failed: {e}")))
        };
        let (train_cycles, novel_cycles) =
            train_and_novel(|| baseline(DataSet::Train), || baseline(DataSet::Novel));
        pb.baseline_train_cycles = train_cycles?;
        pb.baseline_novel_cycles = novel_cycles?;
        Ok(pb)
    }

    /// Panicking convenience wrapper around [`PreparedBench::try_new`] for
    /// tests, examples, and benches where a broken bundled benchmark should
    /// abort loudly.
    ///
    /// # Panics
    /// Panics if the bundled benchmark fails to compile, run, or verify.
    pub fn new(study: &StudyConfig, bench: &Benchmark) -> Self {
        Self::try_new(study, bench).unwrap_or_else(|e| panic!("{e}"))
    }

    fn mem_for(&self, compiled: &Compiled, ds: DataSet) -> Vec<u8> {
        let base = match ds {
            DataSet::Train => &self.train_mem,
            DataSet::Novel => &self.novel_mem,
        };
        let mut mem = base.clone();
        mem.resize(compiled.mem_size.max(mem.len()), 0);
        mem
    }

    fn expected_ret(&self, ds: DataSet) -> i64 {
        match ds {
            DataSet::Train => self.train_ret,
            DataSet::Novel => self.novel_ret,
        }
    }

    /// Simulate `compiled` on `ds` with the given machine, differentially
    /// verifying the program result against the interpreter's.
    ///
    /// With a `cache`, a program this benchmark has already simulated on
    /// `ds` is answered from it instead; `machine` must then be the
    /// evaluation machine, the one the cache's entries were simulated on.
    /// Noise and the answer check run after the lookup, on hits and misses
    /// alike.
    #[allow(clippy::too_many_arguments)]
    fn try_simulate(
        &self,
        study: &StudyConfig,
        machine: &MachineConfig,
        compiled: &Compiled,
        ds: DataSet,
        noise_seed: u64,
        cache: Option<&SimCache>,
        tracer: &Tracer,
    ) -> Result<u64, EvalError> {
        let span = tracer.begin();
        let simulate = || {
            let mem = self.mem_for(compiled, ds);
            simulate_tier(&compiled.code, machine, mem, study.sim_tier).map(|r| SimSummary {
                ret: r.ret,
                cycles: r.cycles,
                insts: r.insts,
            })
        };
        let (outcome, cached) = match cache {
            Some(c) => c.get_or_simulate(ds, compiled.mem_size, &compiled.code, simulate),
            None => (simulate(), false),
        };
        let sim = outcome.map_err(|e| match e {
            SimError::InstLimit(n) => EvalError::new(
                EvalErrorKind::Budget,
                format!(
                    "{}: simulation exceeded the {n}-instruction budget on {ds:?}",
                    self.name
                ),
            ),
            // The cooperative deadline is deterministic (a property of
            // the genome's schedule, not of the host), so it classifies
            // as a permanent budget fault — retrying would be futile.
            SimError::CycleLimit(n) => EvalError::new(
                EvalErrorKind::Budget,
                format!(
                    "{}: simulation exceeded the {n}-cycle cooperative deadline on {ds:?}",
                    self.name
                ),
            ),
            other => EvalError::new(
                EvalErrorKind::Sim,
                format!("{}: simulation fault on {ds:?}: {other}", self.name),
            ),
        })?;
        let cycles = if study.noise > 0.0 {
            apply_noise(sim.cycles, study.noise, noise_seed)
        } else {
            sim.cycles
        };
        record_sim(tracer, &span, cycles, sim.insts, study.sim_tier, cached);
        if sim.ret != self.expected_ret(ds) {
            return Err(EvalError::new(
                EvalErrorKind::WrongAnswer,
                format!(
                    "{}: compiled program returned {} but the interpreter returned {} on \
                     {ds:?} — a compiler bug exposed by a priority function",
                    self.name,
                    sim.ret,
                    self.expected_ret(ds)
                ),
            ));
        }
        Ok(cycles)
    }

    /// Compile this benchmark for an evaluation, classifying a failure in
    /// the evaluation taxonomy. `plan` names a non-study pipeline plan in
    /// the error message.
    fn compile_for_eval(
        &self,
        study: &StudyConfig,
        passes: &Passes,
        plan: Option<&metaopt_compiler::PipelinePlan>,
    ) -> Result<Compiled, EvalError> {
        compile(&self.prepared, &self.profile, &study.machine, passes).map_err(|e| {
            let kind = match e.kind {
                CompileErrorKind::InvariantViolation => EvalErrorKind::IrCheck,
                CompileErrorKind::Validation => EvalErrorKind::Validation,
                _ => EvalErrorKind::Compile,
            };
            let message = match plan {
                Some(plan) => format!("{}: plan {plan}: {e}", self.name),
                None => format!("{}: {e}", self.name),
            };
            EvalError::new(kind, message)
        })
    }

    /// Compile with `expr` in the study's priority slot and simulate on
    /// `ds`, optionally consulting a fault injector at each pipeline stage
    /// and a simulation cache. `attempt` is the engine's retry attempt
    /// index; only the (transient) timeout stage is attempt-sensitive.
    #[allow(clippy::too_many_arguments)]
    fn eval_cycles(
        &self,
        study: &StudyConfig,
        expr: &Expr,
        ds: DataSet,
        fault: Option<&FaultInjector>,
        attempt: u32,
        cache: Option<&SimCache>,
        tracer: &Tracer,
    ) -> Result<u64, EvalError> {
        let key = expr.key();
        if let Some(f) = fault {
            f.check(FaultStage::Compile, &key, &self.name)?;
        }
        let pri = ExprPriority(expr);
        let mut passes = study.passes_with(&pri);
        passes.tracer = tracer.clone();
        let compiled = self.compile_for_eval(study, &passes, None)?;
        if let Some(f) = fault {
            f.check(FaultStage::CheckIr, &key, &self.name)?;
            f.check(FaultStage::Validate, &key, &self.name)?;
            f.check_at(FaultStage::Timeout, &key, &self.name, attempt)?;
            f.check(FaultStage::Simulate, &key, &self.name)?;
        }
        // Timing noise (if the study has any) is seeded deterministically
        // from the expression and data set, so memoized fitness stays
        // consistent while different expressions still see different
        // measurement error — the situation GP must tolerate on a real
        // machine (paper §7.1).
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.name.hash(&mut h);
        (ds == DataSet::Novel).hash(&mut h);
        self.try_simulate(
            study,
            &self.eval_machine,
            &compiled,
            ds,
            h.finish(),
            cache,
            tracer,
        )
    }

    /// Compile with `expr` in the study's priority slot and simulate on
    /// `ds`; returns cycles. Differentially verifies the program result.
    pub fn try_cycles_with(
        &self,
        study: &StudyConfig,
        expr: &Expr,
        ds: DataSet,
    ) -> Result<u64, EvalError> {
        self.eval_cycles(study, expr, ds, None, 0, None, &Tracer::disabled())
    }

    /// [`PreparedBench::try_cycles_with`], emitting `pass` and `sim` events
    /// for this compile-and-simulate into `tracer`.
    pub fn try_cycles_traced(
        &self,
        study: &StudyConfig,
        expr: &Expr,
        ds: DataSet,
        tracer: &Tracer,
    ) -> Result<u64, EvalError> {
        self.eval_cycles(study, expr, ds, None, 0, None, tracer)
    }

    /// Panicking wrapper around [`PreparedBench::try_cycles_with`] for
    /// tests and examples.
    ///
    /// # Panics
    /// Panics if compilation, simulation, or differential verification
    /// fails for `expr`.
    pub fn cycles_with(&self, study: &StudyConfig, expr: &Expr, ds: DataSet) -> u64 {
        self.try_cycles_with(study, expr, ds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Speedup of `expr` over the baseline heuristic on `ds`.
    pub fn try_speedup(
        &self,
        study: &StudyConfig,
        expr: &Expr,
        ds: DataSet,
    ) -> Result<f64, EvalError> {
        let base = self.baseline_cycles(ds);
        Ok(base as f64 / self.try_cycles_with(study, expr, ds)? as f64)
    }

    /// Panicking wrapper around [`PreparedBench::try_speedup`] for tests
    /// and examples.
    ///
    /// # Panics
    /// Panics if the evaluation of `expr` fails.
    pub fn speedup(&self, study: &StudyConfig, expr: &Expr, ds: DataSet) -> f64 {
        self.try_speedup(study, expr, ds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Baseline cycles on `ds`.
    pub fn baseline_cycles(&self, ds: DataSet) -> u64 {
        match ds {
            DataSet::Train => self.baseline_train_cycles,
            DataSet::Novel => self.baseline_novel_cycles,
        }
    }

    /// Compile under `plan` with the shipped baseline priority functions
    /// and simulate on `ds`, differentially verifying the result. Returns
    /// cycles and the compile statistics (including per-pass timing).
    ///
    /// This is the phase-ordering workload: the benchmark is prepared once
    /// and then evaluated under arbitrary legal pipeline plans.
    pub fn try_plan_cycles(
        &self,
        study: &StudyConfig,
        plan: &metaopt_compiler::PipelinePlan,
        ds: DataSet,
    ) -> Result<(u64, CompileStats), EvalError> {
        self.try_plan_cycles_traced(study, plan, ds, &Tracer::disabled())
    }

    /// [`PreparedBench::try_plan_cycles`], emitting `pass` and `sim` events
    /// into `tracer`.
    pub fn try_plan_cycles_traced(
        &self,
        study: &StudyConfig,
        plan: &metaopt_compiler::PipelinePlan,
        ds: DataSet,
        tracer: &Tracer,
    ) -> Result<(u64, CompileStats), EvalError> {
        let passes = Passes {
            plan: plan.clone(),
            tracer: tracer.clone(),
            ..study.baseline_passes()
        };
        let compiled = self.compile_for_eval(study, &passes, Some(plan))?;
        let cycles =
            self.try_simulate(study, &self.eval_machine, &compiled, ds, 0, None, tracer)?;
        Ok((cycles, compiled.stats))
    }

    /// Panicking wrapper around [`PreparedBench::try_plan_cycles`] for
    /// tests, examples, and benches.
    ///
    /// # Panics
    /// Panics if compilation, simulation, or differential verification
    /// fails under `plan`.
    pub fn plan_cycles(
        &self,
        study: &StudyConfig,
        plan: &metaopt_compiler::PipelinePlan,
        ds: DataSet,
    ) -> (u64, CompileStats) {
        self.try_plan_cycles(study, plan, ds)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compile with `expr` in the study's priority slot **under an
    /// arbitrary legal pipeline plan** and simulate on `ds` — the joint
    /// workload of co-evolution. Returns the multi-objective vector
    /// (all minimized):
    ///
    /// * `cycles` — simulated cycles, differentially verified;
    /// * `size` — static instruction count of the compiled code;
    /// * `compile` — a deterministic compile-cost proxy,
    ///   `plan length × static instructions` (the pass-sweep work bound).
    ///   Measured wall time would make selection depend on host load and
    ///   thread count, breaking the engine's bit-identical determinism
    ///   contract; wall nanos stay observable via `pass` trace events and
    ///   `metaopt ablate --json` instead.
    pub fn try_objectives_traced(
        &self,
        study: &StudyConfig,
        plan: &metaopt_compiler::PipelinePlan,
        expr: &Expr,
        ds: DataSet,
        tracer: &Tracer,
    ) -> Result<[u64; 3], EvalError> {
        self.objectives(study, plan, expr, ds, None, tracer)
    }

    /// [`PreparedBench::try_objectives_traced`], consulting `cache` for
    /// the simulation.
    fn objectives(
        &self,
        study: &StudyConfig,
        plan: &metaopt_compiler::PipelinePlan,
        expr: &Expr,
        ds: DataSet,
        cache: Option<&SimCache>,
        tracer: &Tracer,
    ) -> Result<[u64; 3], EvalError> {
        let pri = ExprPriority(expr);
        let mut passes = study.passes_with(&pri);
        passes.plan = plan.clone();
        passes.tracer = tracer.clone();
        let compiled = self.compile_for_eval(study, &passes, Some(plan))?;
        // Noise is seeded from the full genome (plan and expression), so
        // memoized objective vectors stay consistent while distinct
        // genomes see distinct measurement error.
        let mut h = DefaultHasher::new();
        expr.key().hash(&mut h);
        plan.to_string().hash(&mut h);
        self.name.hash(&mut h);
        (ds == DataSet::Novel).hash(&mut h);
        let cycles = self.try_simulate(
            study,
            &self.eval_machine,
            &compiled,
            ds,
            h.finish(),
            cache,
            tracer,
        )?;
        let size = compiled.stats.counters.static_insts;
        let compile_cost = (plan.steps().len() as u64).saturating_mul(size);
        Ok([cycles, size, compile_cost])
    }
}

/// The part of a simulation that fitness depends on, before the answer
/// check and the per-genome noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SimSummary {
    ret: i64,
    cycles: u64,
    insts: u64,
}

type SimOutcome = Result<SimSummary, SimError>;

/// One benchmark's simulation cache for one search: the outcome of every
/// distinct (data set, `mem_size`, [`MachineProgram`]) simulated so far —
/// the pre-noise [`SimSummary`] or the deterministic [`SimError`].
///
/// The key is the program's injective byte encoding
/// ([`MachineProgram::encode`]) behind the data set and memory size, and
/// two keys match only when their bytes are equal; the hash only picks
/// the bucket. The machine, simulator tier and memory images are not in
/// the key: the owner fixes the benchmark and evaluation machine, the
/// memory image is a function of (data set, `mem_size`), and the tiers are
/// bit-identical by contract.
struct SimCache<S = RandomState> {
    entries: Mutex<HashMap<Box<[u8]>, SimOutcome, S>>,
}

impl SimCache {
    fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<S: BuildHasher> SimCache<S> {
    fn with_hasher(hasher: S) -> Self {
        SimCache {
            entries: Mutex::new(HashMap::with_hasher(hasher)),
        }
    }

    /// The cached outcome for this simulation, or `simulate()`'s, stored
    /// for next time. The flag is true on a hit. Two workers that miss on
    /// the same key both simulate and store equal outcomes.
    fn get_or_simulate(
        &self,
        ds: DataSet,
        mem_size: usize,
        code: &MachineProgram,
        simulate: impl FnOnce() -> SimOutcome,
    ) -> (SimOutcome, bool) {
        let mut key = Vec::with_capacity(9 + 8 * code.num_insts());
        key.push(match ds {
            DataSet::Train => 0,
            DataSet::Novel => 1,
        });
        key.extend_from_slice(&(mem_size as u64).to_le_bytes());
        code.encode(&mut key);
        let lock = || self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = lock().get(key.as_slice()) {
            return (hit.clone(), true);
        }
        let outcome = simulate();
        // An exact-size copy: shrinking `key` in place would leave its
        // unused tail as a hole next to every entry.
        lock().insert(Box::from(key.as_slice()), outcome.clone());
        (outcome, false)
    }
}

/// GP fitness evaluator over a set of prepared benchmarks: fitness of an
/// expression on case *i* is its speedup over the baseline on benchmark
/// *i*'s training data (paper §4: "total execution time" / Table 2:
/// "average speedup over the baseline").
///
/// Evaluation failures are returned as [`EvalOutcome::Failed`] with a
/// classified error; the GP engine quarantines the genome and assigns the
/// penalty fitness. With the `fault-inject` feature, an optional
/// [`FaultInjector`] can deterministically force such failures for
/// robustness testing.
///
/// The evaluator owns one simulation cache per benchmark, so a search
/// simulates each distinct machine program once; the caches are dropped
/// with the evaluator.
pub struct StudyEvaluator<'a> {
    study: &'a StudyConfig,
    benches: &'a [PreparedBench],
    caches: Vec<SimCache>,
    fault: Option<FaultInjector>,
    tracer: Tracer,
}

impl<'a> StudyEvaluator<'a> {
    /// Evaluator for `study` over the prepared training cases.
    pub fn new(study: &'a StudyConfig, benches: &'a [PreparedBench]) -> Self {
        StudyEvaluator {
            study,
            benches,
            caches: benches.iter().map(|_| SimCache::new()).collect(),
            fault: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Emit `pass`/`sim` events (stamped with the benchmark name) for every
    /// evaluation into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attach a deterministic fault injector (robustness testing only).
    #[cfg(feature = "fault-inject")]
    pub fn with_fault(mut self, injector: FaultInjector) -> Self {
        self.fault = Some(injector);
        self
    }
}

impl metaopt_gp::Evaluator for StudyEvaluator<'_> {
    fn num_cases(&self) -> usize {
        self.benches.len()
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        self.eval_case_attempt(expr, case, 0)
    }

    fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
        let pb = &self.benches[case];
        let tracer = self
            .tracer
            .scoped([("bench", Value::str(pb.name.as_str()))]);
        match pb.eval_cycles(
            self.study,
            expr,
            DataSet::Train,
            self.fault.as_ref(),
            attempt,
            Some(&self.caches[case]),
            &tracer,
        ) {
            Ok(cycles) => EvalOutcome::Score(pb.baseline_train_cycles as f64 / cycles as f64),
            Err(e) => EvalOutcome::Failed(e),
        }
    }
}

/// Multi-objective fitness evaluator over prepared benchmarks for
/// co-evolution: each `(plan, expr)` genome compiles under the genome's
/// own pipeline plan with the expression in the study's priority slot, and
/// scores as the integer objective vector of
/// [`PreparedBench::try_objectives_traced`] on the training data. Like
/// [`StudyEvaluator`], it owns one simulation cache per benchmark.
pub struct StudyMultiEvaluator<'a> {
    study: &'a StudyConfig,
    benches: &'a [PreparedBench],
    caches: Vec<SimCache>,
    tracer: Tracer,
}

impl<'a> StudyMultiEvaluator<'a> {
    /// Evaluator for `study` over the prepared training cases.
    pub fn new(study: &'a StudyConfig, benches: &'a [PreparedBench]) -> Self {
        StudyMultiEvaluator {
            study,
            benches,
            caches: benches.iter().map(|_| SimCache::new()).collect(),
            tracer: Tracer::disabled(),
        }
    }

    /// Emit `pass`/`sim` events (stamped with the benchmark name) for every
    /// evaluation into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

impl metaopt_gp::MultiEvaluator for StudyMultiEvaluator<'_> {
    fn num_cases(&self) -> usize {
        self.benches.len()
    }

    fn eval_objectives(
        &self,
        plan: &str,
        expr: &Expr,
        case: usize,
        _attempt: u32,
    ) -> Result<[u64; 3], EvalError> {
        let pb = &self.benches[case];
        let plan: metaopt_compiler::PipelinePlan = plan.parse().map_err(|e| {
            EvalError::new(
                EvalErrorKind::Compile,
                format!("{}: unparseable pipeline plan {plan:?}: {e}", pb.name),
            )
        })?;
        let tracer = self
            .tracer
            .scoped([("bench", Value::str(pb.name.as_str()))]);
        pb.objectives(
            self.study,
            &plan,
            expr,
            DataSet::Train,
            Some(&self.caches[case]),
            &tracer,
        )
    }
}

/// The plan half of the co-evolution search space: seeds, genetic
/// operators, and validity over canonical plan strings, delegating to the
/// compiler's structural grammar and `plan_ops` operators. Implemented
/// here (not in the GP crate) so the engine stays compiler-agnostic.
pub struct StudyPlanSpace {
    seeds: Vec<metaopt_compiler::PipelinePlan>,
}

impl StudyPlanSpace {
    /// Plan space seeded with the study's own plan and the minimal legal
    /// plan. The minimal plan has the strictly smallest compile-cost and
    /// size objectives of any legal pipeline, so fronts start with a
    /// genuine trade-off axis already populated.
    pub fn new(study: &StudyConfig) -> Self {
        let mut seeds = vec![
            metaopt_compiler::PipelinePlan::minimal(),
            study.plan.clone(),
        ];
        seeds.dedup_by_key(|p| p.to_string());
        StudyPlanSpace { seeds }
    }
}

impl metaopt_gp::PlanSpace for StudyPlanSpace {
    fn seed_plans(&self) -> Vec<String> {
        self.seeds.iter().map(|p| p.to_string()).collect()
    }

    fn mutate_plan(&self, rng: &mut rand::rngs::StdRng, plan: &str) -> String {
        let plan: metaopt_compiler::PipelinePlan =
            plan.parse().expect("plan genomes are canonical");
        metaopt_compiler::plan_ops::mutate_plan(rng, &plan).to_string()
    }

    fn crossover_plans(&self, rng: &mut rand::rngs::StdRng, a: &str, b: &str) -> String {
        let a: metaopt_compiler::PipelinePlan = a.parse().expect("plan genomes are canonical");
        let b: metaopt_compiler::PipelinePlan = b.parse().expect("plan genomes are canonical");
        metaopt_compiler::plan_ops::crossover_plans(rng, &a, &b).to_string()
    }

    fn is_valid(&self, plan: &str) -> bool {
        plan.parse::<metaopt_compiler::PipelinePlan>()
            .is_ok_and(|p| p.to_string() == plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study;

    #[test]
    fn preparation_reports_the_train_failure_first() {
        // Each source reads `a[dataseed]`, far outside memory, on the data
        // sets its guard lets through.
        let prepare_err = |guard: &str| {
            let source = format!(
                "global int dataseed;\nglobal int a[4];\n\
                 fn main() -> int {{ if ({guard}) {{ return a[dataseed]; }} return 0; }}\n"
            );
            let bench = Benchmark {
                name: "oob",
                suite: "test",
                description: "out-of-bounds read",
                category: metaopt_suite::Category::IntMedia,
                source: Box::leak(source.into_boxed_str()),
            };
            match PreparedBench::try_new(&study::hyperblock(), &bench) {
                Ok(_) => panic!("`{guard}` prepared"),
                Err(e) => e.message,
            }
        };
        let novel = DataSet::Novel.seed();
        for (guard, want) in [
            ("dataseed != 0".to_string(), "train"),
            (format!("dataseed != {novel}"), "train"),
            (format!("dataseed == {novel}"), "novel"),
        ] {
            let message = prepare_err(&guard);
            assert!(
                message.starts_with(&format!("reference run on {want} data failed")),
                "`{guard}`: {message}"
            );
        }
    }

    #[test]
    fn baseline_seed_reproduces_baseline_cycles() {
        // Compiling with the GP-expressed baseline seed must give exactly
        // the native baseline's cycle count (the seed is Eq. 1).
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        let cycles = pb.cycles_with(&cfg, &cfg.baseline_seed, DataSet::Train);
        assert_eq!(cycles, pb.baseline_train_cycles);
    }

    #[test]
    fn disabling_ifconversion_changes_cycles() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("rawdaudio").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        let never = metaopt_gp::parse::parse_expr("(rconst -1.0)", &cfg.features).unwrap();
        let c = pb.cycles_with(&cfg, &never, DataSet::Train);
        assert_ne!(c, pb.baseline_train_cycles);
    }

    #[test]
    fn prefetch_study_runs_with_noise() {
        let cfg = study::prefetch();
        let bench = metaopt_suite::by_name("102.swim").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        let always = metaopt_gp::parse::parse_expr("(bconst true)", &cfg.features).unwrap();
        let never = metaopt_gp::parse::parse_expr("(bconst false)", &cfg.features).unwrap();
        let ca = pb.cycles_with(&cfg, &always, DataSet::Train);
        let cn = pb.cycles_with(&cfg, &never, DataSet::Train);
        assert!(ca > 0 && cn > 0);
        // Identical inputs give identical (memoizable) results.
        assert_eq!(ca, pb.cycles_with(&cfg, &always, DataSet::Train));
    }

    #[test]
    fn regalloc_study_spills_on_stressed_machine() {
        let cfg = study::regalloc();
        let bench = metaopt_suite::by_name("g721encode").unwrap();
        let pb = PreparedBench::new(&cfg, &bench);
        assert!(pb.baseline_train_cycles > 0);
    }

    #[test]
    fn evaluator_scores_the_baseline_seed_at_one() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let benches = [PreparedBench::new(&cfg, &bench)];
        let ev = StudyEvaluator::new(&cfg, &benches);
        let out = metaopt_gp::Evaluator::eval_case(&ev, &cfg.baseline_seed, 0);
        match out {
            EvalOutcome::Score(s) => assert!((s - 1.0).abs() < 1e-12, "speedup {s}"),
            EvalOutcome::Failed(e) => panic!("baseline seed failed: {e}"),
        }
    }

    /// A program that sets every instruction field somewhere.
    fn keyed_program() -> MachineProgram {
        use metaopt_ir::{BlockId, Inst, Opcode, VReg, Width};
        use metaopt_sim::Bundle;
        let ld = Inst::new(Opcode::Ld(Width::B4))
            .dst(VReg(3))
            .args(&[VReg(1)])
            .imm(-8)
            .guarded(VReg(2));
        let fmov = Inst::new(Opcode::FMovI).dst(VReg(4)).fimm(1.5);
        let cbr = Inst::new(Opcode::CBr).args(&[VReg(2)]).target(BlockId(1));
        let ret = Inst::new(Opcode::Ret).args(&[VReg(3)]);
        MachineProgram {
            blocks: vec![
                vec![
                    Bundle {
                        insts: vec![ld, fmov],
                    },
                    Bundle { insts: vec![cbr] },
                ],
                vec![Bundle { insts: vec![ret] }],
            ],
            entry: 0,
        }
    }

    /// `keyed_program` and variants of it that each differ in one thing
    /// that can change a simulation, each with its (data set, mem_size).
    fn key_variants() -> Vec<(&'static str, DataSet, usize, MachineProgram)> {
        use metaopt_ir::{BlockId, Opcode, VReg, Width};
        let base = keyed_program();
        let edit = |name, f: &dyn Fn(&mut MachineProgram)| {
            let mut p = base.clone();
            f(&mut p);
            (name, DataSet::Train, 4096, p)
        };
        fn ld(p: &mut MachineProgram) -> &mut metaopt_ir::Inst {
            &mut p.blocks[0][0].insts[0]
        }
        let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
        vec![
            ("base", DataSet::Train, 4096, base.clone()),
            ("novel data", DataSet::Novel, 4096, base.clone()),
            ("mem_size", DataSet::Train, 4097, base.clone()),
            edit("ld width 1", &|p| ld(p).op = Opcode::Ld(Width::B1)),
            edit("ld width 8", &|p| ld(p).op = Opcode::Ld(Width::B8)),
            edit("st width 4", &|p| ld(p).op = Opcode::St(Width::B4)),
            edit("fld", &|p| ld(p).op = Opcode::FLd),
            edit("dst", &|p| ld(p).dst = Some(VReg(5))),
            edit("no dst", &|p| ld(p).dst = None),
            edit("arg", &|p| ld(p).args[0] = VReg(2)),
            edit("extra arg", &|p| ld(p).args.push(VReg(0))),
            edit("7 args", &|p| ld(p).args = vec![VReg(1); 7]),
            edit("8 args", &|p| ld(p).args = vec![VReg(1); 8]),
            edit("imm", &|p| ld(p).imm = 8),
            edit("imm zero", &|p| ld(p).imm = 0),
            edit("imm min", &|p| ld(p).imm = i64::MIN),
            edit("pred", &|p| ld(p).pred = Some(VReg(0))),
            edit("no pred", &|p| ld(p).pred = None),
            edit("target", &|p| {
                p.blocks[0][1].insts[0].target = Some(BlockId(0))
            }),
            edit("no target", &|p| p.blocks[0][1].insts[0].target = None),
            edit("fimm", &|p| p.blocks[0][0].insts[1].fimm = 2.5),
            edit("fimm +0", &|p| p.blocks[0][0].insts[1].fimm = 0.0),
            edit("fimm -0", &|p| p.blocks[0][0].insts[1].fimm = -0.0),
            edit("fimm nan 1", &|p| p.blocks[0][0].insts[1].fimm = nan(1)),
            edit("fimm nan 2", &|p| p.blocks[0][0].insts[1].fimm = nan(2)),
            edit("bundle boundary", &|p| {
                let fmov = p.blocks[0][0].insts.pop().unwrap();
                p.blocks[0][1].insts.insert(0, fmov);
            }),
            edit("block boundary", &|p| {
                let cbr = p.blocks[0].pop().unwrap();
                p.blocks[1].insert(0, cbr);
            }),
            edit("entry", &|p| p.entry = 1),
        ]
    }

    /// Every variant misses a cache holding all the others, then hits its
    /// own entry and no other.
    fn assert_variants_never_share<S: BuildHasher>(cache: &SimCache<S>) {
        let variants = key_variants();
        let outcome = |i: usize| {
            Ok(SimSummary {
                ret: i as i64,
                cycles: 1000 + i as u64,
                insts: 1,
            })
        };
        for (i, (name, ds, mem, prog)) in variants.iter().enumerate() {
            let (got, hit) = cache.get_or_simulate(*ds, *mem, prog, || outcome(i));
            assert!(!hit, "{name} shared an entry with an earlier variant");
            assert_eq!(got, outcome(i));
        }
        for (i, (name, ds, mem, prog)) in variants.iter().enumerate() {
            let (got, hit) = cache.get_or_simulate(*ds, *mem, prog, || panic!("{name} must hit"));
            assert!(hit);
            assert_eq!(got, outcome(i), "{name} answered from another entry");
        }
    }

    #[test]
    fn sim_cache_keys_distinguish_every_field() {
        let variants = key_variants();
        // The derived equality would merge these two and never match a
        // NaN program with itself; the byte key does neither.
        let fimm = |name| &variants.iter().find(|v| v.0 == name).unwrap().3;
        assert_eq!(fimm("fimm +0"), fimm("fimm -0"));
        assert_ne!(fimm("fimm nan 1"), fimm("fimm nan 1"));
        assert_variants_never_share(&SimCache::new());
    }

    #[test]
    fn sim_cache_resolves_forced_hash_collisions_by_full_comparison() {
        #[derive(Default)]
        struct Constant;
        impl Hasher for Constant {
            fn finish(&self) -> u64 {
                7
            }
            fn write(&mut self, _: &[u8]) {}
        }
        let cache = SimCache::with_hasher(std::hash::BuildHasherDefault::<Constant>::default());
        assert_variants_never_share(&cache);
    }

    #[test]
    fn sim_cache_stores_simulation_errors() {
        let cache = SimCache::new();
        let prog = keyed_program();
        let limit = || Err(SimError::InstLimit(50));
        assert_eq!(
            cache.get_or_simulate(DataSet::Train, 64, &prog, limit),
            (Err(SimError::InstLimit(50)), false)
        );
        assert_eq!(
            cache.get_or_simulate(DataSet::Train, 64, &prog, || unreachable!()),
            (Err(SimError::InstLimit(50)), true)
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_faults_surface_as_classified_failures() {
        let cfg = study::hyperblock();
        let bench = metaopt_suite::by_name("unepic").unwrap();
        let benches = [PreparedBench::new(&cfg, &bench)];
        // Only the per-evaluation pipeline stages surface through
        // `eval_case`; `CacheCorrupt` acts at the storage layer and is
        // exercised through the fitness store's corruption hook instead.
        for stage in FaultStage::EVAL {
            let ev = StudyEvaluator::new(&cfg, &benches)
                .with_fault(FaultInjector::new(0).with_rate(stage, 1.0));
            match metaopt_gp::Evaluator::eval_case(&ev, &cfg.baseline_seed, 0) {
                EvalOutcome::Failed(e) => {
                    assert_eq!(e.kind, stage.kind());
                    assert!(e.injected);
                }
                EvalOutcome::Score(s) => panic!("expected injected failure, got score {s}"),
            }
        }
    }
}
