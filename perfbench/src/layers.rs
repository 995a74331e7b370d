//! Calls into each layer's public functions, one at a time: the traced
//! set-up, the replay of recorded evaluations, and the independent
//! re-verification of a search's winner.

use crate::repeat::{SimKey, SimSet};
use crate::search::Found;
use crate::timing::{Call, Returned};
use crate::workload::Spec;
use metaopt::study::ExprPriority;
use metaopt::PreparedBench;
use metaopt_compiler::{compile, Compiled, PipelinePlan};
use metaopt_gp::Expr;
use metaopt_ir::budget;
use metaopt_ir::interp::{self, RunConfig};
use metaopt_sim::{BytecodeProgram, MachineConfig};
use metaopt_suite::{Benchmark, DataSet};
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes whose time the traced run reports, in report order.
pub const PASSES: [&str; 5] = ["regalloc", "schedule", "hyperblock", "unroll", "prefetch"];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A benchmark's inputs and the interpreter's answers on them.
pub struct Reference {
    /// Memory images, `[train, novel]`.
    pub mem: [Vec<u8>; 2],
    /// The interpreter's return values, `[train, novel]`.
    pub ret: [i64; 2],
}

/// Time spent in each set-up layer for one preparation of a workload's
/// benchmarks, summed over the benchmarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `metaopt_lang::compile`.
    pub lang_ms: f64,
    /// `metaopt_compiler::prepare` (inlining and clean-up).
    pub inline_ms: f64,
    /// `interp::run`: the profiling run on train data plus the verify run
    /// on novel data.
    pub profile_ms: f64,
    /// `PreparedBench::try_new`, which repeats the layers above and times
    /// the baseline.
    pub prepare_ms: f64,
}

/// Call each set-up layer for `bench` in turn and add its time to `times`.
///
/// # Errors
/// A description of the first layer that failed.
pub fn setup_layers(spec: &Spec, bench: &Benchmark, times: &mut SetupTimes) -> Result<(), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", bench.name);
    let t = Instant::now();
    let prog = metaopt_lang::compile(bench.source).map_err(|e| fail("lang::compile", &e))?;
    times.lang_ms += ms_since(t);
    let t = Instant::now();
    let prepared = metaopt_compiler::prepare(&prog).map_err(|e| fail("prepare", &e))?;
    times.inline_ms += ms_since(t);
    let train = bench
        .try_memory(&prepared, DataSet::Train)
        .map_err(|e| fail("memory", &e))?;
    let novel = bench
        .try_memory(&prepared, DataSet::Novel)
        .map_err(|e| fail("memory", &e))?;
    let t = Instant::now();
    interp_run(&prepared, train, true).map_err(|e| fail("interp::run train", &e))?;
    interp_run(&prepared, novel, false).map_err(|e| fail("interp::run novel", &e))?;
    times.profile_ms += ms_since(t);
    let t = Instant::now();
    PreparedBench::try_new(&spec.study, bench).map_err(|e| fail("try_new", &e))?;
    times.prepare_ms += ms_since(t);
    Ok(())
}

fn interp_run(
    prog: &metaopt_ir::Program,
    memory: Vec<u8>,
    profile: bool,
) -> Result<interp::Outcome, interp::InterpError> {
    interp::run(
        prog,
        &RunConfig {
            memory: Some(memory),
            profile,
            max_steps: budget::KERNEL_VERIFY_MAX_STEPS,
            ..Default::default()
        },
    )
}

impl Reference {
    /// `bench`'s inputs for the prepared program `pb`, answered by the
    /// reference interpreter.
    ///
    /// # Errors
    /// A description of the failure.
    pub fn new(bench: &Benchmark, pb: &PreparedBench) -> Result<Reference, String> {
        let fail = |e: &dyn std::fmt::Display| format!("{}: reference: {e}", bench.name);
        let train = bench
            .try_memory(&pb.prepared, DataSet::Train)
            .map_err(|e| fail(&e))?;
        let novel = bench
            .try_memory(&pb.prepared, DataSet::Novel)
            .map_err(|e| fail(&e))?;
        let ret = [
            interp_run(&pb.prepared, train.clone(), false)
                .map_err(|e| fail(&e))?
                .ret,
            interp_run(&pb.prepared, novel.clone(), false)
                .map_err(|e| fail(&e))?
                .ret,
        ];
        Ok(Reference {
            mem: [train, novel],
            ret,
        })
    }
}

/// The machine evaluations simulate on: the study machine with the
/// per-evaluation budgets `PreparedBench` applies.
pub fn eval_machine(spec: &Spec) -> MachineConfig {
    let mut m = spec.study.machine.clone();
    m.max_insts = budget::EVAL_MAX_SIM_INSTS;
    m.max_cycles = budget::EVAL_MAX_SIM_CYCLES;
    m
}

/// Compile `expr` (under `plan`, if given) for `pb` with the study's
/// passes.
fn compile_genome(
    spec: &Spec,
    pb: &PreparedBench,
    expr: &Expr,
    plan: Option<&str>,
) -> Result<Compiled, String> {
    let pri = ExprPriority(expr);
    let mut passes = spec.study.passes_with(&pri);
    if let Some(plan) = plan {
        passes.plan = plan.parse::<PipelinePlan>().map_err(|e| e.to_string())?;
    }
    compile(&pb.prepared, &pb.profile, &spec.study.machine, &passes).map_err(|e| e.to_string())
}

fn memory(reference: &Reference, k: usize, compiled: &Compiled) -> Vec<u8> {
    let mut mem = reference.mem[k].clone();
    mem.resize(compiled.mem_size.max(mem.len()), 0);
    mem
}

/// Per-call layer timings from replaying a search's evaluations.
#[derive(Default)]
pub struct Replay {
    /// `compiler::compile` wall time per call.
    pub compile_ms: Vec<f64>,
    /// `BytecodeProgram::compile` wall time per call.
    pub lower_ms: Vec<f64>,
    /// Memory image plus `BytecodeProgram::run` wall time per call.
    pub run_ms: Vec<f64>,
    /// Answer check wall time per call.
    pub check_ms: Vec<f64>,
    /// Total pass wall time by pass name, from `CompileStats`.
    pub pass_ms: BTreeMap<&'static str, f64>,
    /// Static instructions per compiled program.
    pub static_insts: Vec<f64>,
    /// Simulated cycles, summed.
    pub cycles: u64,
    /// The simulations seen, for exact repeat detection.
    pub sims: SimSet,
    /// Calls whose replay disagreed with what the evaluator returned.
    pub mismatches: Vec<String>,
}

impl Replay {
    /// Replay `calls` one at a time through the compiler, the bytecode
    /// lowering, the bytecode run and the answer check, checking each
    /// against what the evaluator returned during the search.
    pub fn run(
        spec: &Spec,
        benches: &[PreparedBench],
        refs: &[Reference],
        calls: &[Call],
    ) -> Replay {
        let machine = eval_machine(spec);
        let mut r = Replay::default();
        for call in calls {
            let (pb, reference) = (&benches[call.case], &refs[call.case]);
            let t = Instant::now();
            let compiled = compile_genome(spec, pb, &call.expr, call.plan.as_deref());
            r.compile_ms.push(ms_since(t));
            let compiled = match (compiled, &call.result) {
                (Ok(c), _) => c,
                (Err(_), Returned::Failed) => continue,
                (Err(e), _) => {
                    r.mismatches
                        .push(format!("{}: replayed compile failed: {e}", pb.name));
                    continue;
                }
            };
            for p in &compiled.stats.per_pass {
                *r.pass_ms.entry(p.name).or_default() += p.wall_nanos as f64 / 1e6;
            }
            let size = compiled.stats.counters.static_insts;
            r.static_insts.push(size as f64);

            let t = Instant::now();
            let program = BytecodeProgram::compile(&compiled.code, &machine);
            r.lower_ms.push(ms_since(t));
            let t = Instant::now();
            let sim = program.run(&machine, memory(reference, 0, &compiled));
            r.run_ms.push(ms_since(t));
            let t = Instant::now();
            let agrees = match (&sim, &call.result) {
                (Ok(s), Returned::Score(score)) => {
                    s.ret == reference.ret[0]
                        && (pb.baseline_train_cycles as f64 / s.cycles as f64).to_bits()
                            == score.to_bits()
                }
                (Ok(s), Returned::Objectives(o)) => {
                    s.ret == reference.ret[0] && o[0] == s.cycles && o[1] == size
                }
                (Ok(s), Returned::Failed) => s.ret != reference.ret[0],
                (Err(_), result) => *result == Returned::Failed,
            };
            r.check_ms.push(ms_since(t));
            if !agrees {
                r.mismatches.push(format!(
                    "{}: replay disagrees with the search's evaluation",
                    pb.name
                ));
            }
            if let Ok(s) = &sim {
                r.cycles += s.cycles;
            }
            r.sims.observe(SimKey {
                bench: pb.name.clone(),
                data: DataSet::Train,
                machine: machine.clone(),
                mem_size: compiled.mem_size,
                program: compiled.code,
            });
        }
        r
    }

    /// Replayed layer time for all calls, in milliseconds.
    pub fn attributed_ms(&self) -> f64 {
        [
            &self.compile_ms,
            &self.lower_ms,
            &self.run_ms,
            &self.check_ms,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum()
    }
}

/// Re-verify a search's winner through the public layer functions:
/// compile it, lower and run it on both data sets, and require the
/// interpreter's answer and the cycles and speedups the search reported.
///
/// # Errors
/// A description of every disagreement.
pub fn verify_winner(
    spec: &Spec,
    benches: &[PreparedBench],
    refs: &[Reference],
    found: &Found,
) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let Some(expr) = crate::search::parse_winner(spec, found) else {
        return Err(vec![format!("winner does not parse: {:?}", found.winner)]);
    };
    if found.cycles.len() != benches.len() {
        return Err(vec!["winner has no cycles for some benchmark".to_string()]);
    }
    let machine = eval_machine(spec);
    let mut speedups = [0.0f64; 2];
    for ((pb, reference), reported) in benches.iter().zip(refs).zip(&found.cycles) {
        let compiled = match compile_genome(spec, pb, &expr, found.plan.as_deref()) {
            Ok(c) => c,
            Err(e) => {
                problems.push(format!("{}: winner does not compile: {e}", pb.name));
                continue;
            }
        };
        let program = BytecodeProgram::compile(&compiled.code, &machine);
        for (k, ds) in [DataSet::Train, DataSet::Novel].into_iter().enumerate() {
            match program.run(&machine, memory(reference, k, &compiled)) {
                Ok(s) if s.ret != reference.ret[k] => problems.push(format!(
                    "{} {ds:?}: winner returned {}, interpreter {}",
                    pb.name, s.ret, reference.ret[k]
                )),
                Ok(s) if s.cycles != reported[k] => problems.push(format!(
                    "{} {ds:?}: winner ran {} cycles, search reported {}",
                    pb.name, s.cycles, reported[k]
                )),
                Ok(s) => speedups[k] += pb.baseline_cycles(ds) as f64 / s.cycles as f64,
                Err(e) => problems.push(format!("{} {ds:?}: winner failed: {e}", pb.name)),
            }
        }
    }
    let n = benches.len() as f64;
    let reported = [found.train_speedup, found.novel_speedup];
    for k in 0..2 {
        if (speedups[k] / n).to_bits() != reported[k].to_bits() {
            problems.push(format!(
                "speedup {k}: verified {} but search reported {}",
                speedups[k] / n,
                reported[k]
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}
