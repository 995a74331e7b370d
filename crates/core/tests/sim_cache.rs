//! The evaluators' simulation cache is invisible in results: for a fixed
//! genome list on every study — including the noisy prefetch study, whose
//! per-genome noise is applied after a cache hit — the cached evaluators
//! return bit-identically what the uncached `try_cycles_with` and
//! `try_objectives_traced` return, while the cache demonstrably answers.

use metaopt::pipeline::{StudyMultiEvaluator, StudyPlanSpace};
use metaopt::{study, PreparedBench, StudyConfig, StudyEvaluator};
use metaopt_gp::parse::parse_expr;
use metaopt_gp::{EvalOutcome, Evaluator, Expr, MultiEvaluator, PlanSpace};
use metaopt_suite::DataSet;
use metaopt_trace::metrics::MetricsRegistry;
use metaopt_trace::Tracer;

const HITS: &str = "metaopt_sim_cache_hits_total";

/// A study, the benchmarks to prepare for it, and a genome list (parsed
/// against the study's features; the baseline seed is always included).
fn cases() -> Vec<(StudyConfig, Vec<&'static str>, Vec<&'static str>)> {
    vec![
        (
            study::hyperblock(),
            vec!["unepic", "rawdaudio"],
            vec![
                "(mul exec_ratio 2.0)",
                "(mul exec_ratio 3.0)",
                "(rconst -1.0)",
                "(rconst 1.0)",
            ],
        ),
        (
            study::regalloc(),
            vec!["g721encode"],
            vec!["(mul w 2.0)", "(rconst 1.0)", "(rconst 2.0)"],
        ),
        (
            study::prefetch(),
            vec!["102.swim"],
            vec![
                "(bconst true)",
                // Same program as `(bconst true)`, different noise seed.
                "(not (bconst false))",
                "(bconst false)",
                "(gt trip_count 10.0)",
            ],
        ),
    ]
}

fn prepare(cfg: &StudyConfig, names: &[&str]) -> Vec<PreparedBench> {
    names
        .iter()
        .map(|n| PreparedBench::new(cfg, &metaopt_suite::by_name(n).unwrap()))
        .collect()
}

fn genomes(cfg: &StudyConfig, sources: &[&str]) -> Vec<Expr> {
    let mut out = vec![cfg.baseline_seed.clone()];
    out.extend(
        sources
            .iter()
            .map(|s| parse_expr(s, &cfg.features).unwrap()),
    );
    out
}

fn assert_same_outcome(cached: &EvalOutcome, direct: &EvalOutcome, what: &str) {
    match (cached, direct) {
        (EvalOutcome::Score(a), EvalOutcome::Score(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}")
        }
        _ => assert_eq!(cached, direct, "{what}"),
    }
}

#[test]
fn cached_scores_equal_uncached_evaluation_on_every_study() {
    for (cfg, names, sources) in cases() {
        let benches = prepare(&cfg, &names);
        let registry = MetricsRegistry::new();
        let ev = StudyEvaluator::new(&cfg, &benches)
            .with_tracer(Tracer::disabled().with_metrics(registry.clone()));
        let exprs = genomes(&cfg, &sources);
        // Twice over: the second pass is answered from the cache.
        for round in 0..2 {
            for expr in &exprs {
                for (case, pb) in benches.iter().enumerate() {
                    let direct = match pb.try_cycles_with(&cfg, expr, DataSet::Train) {
                        Ok(c) => EvalOutcome::Score(pb.baseline_train_cycles as f64 / c as f64),
                        Err(e) => EvalOutcome::Failed(e),
                    };
                    let what = format!("{:?} {} round {round} {expr}", cfg.kind, pb.name);
                    assert_same_outcome(&ev.eval_case(expr, case), &direct, &what);
                }
            }
        }
        let hits = registry.counter(HITS).get();
        let evals = (2 * exprs.len() * benches.len()) as u64;
        assert!(
            hits >= evals / 2,
            "{:?}: {hits} cache hits over {evals} evaluations",
            cfg.kind
        );
    }
}

#[test]
fn noisy_study_hits_across_genomes_and_keeps_per_genome_noise() {
    let cfg = study::prefetch();
    assert!(cfg.noise > 0.0);
    let benches = prepare(&cfg, &["102.swim"]);
    let registry = MetricsRegistry::new();
    let ev = StudyEvaluator::new(&cfg, &benches)
        .with_tracer(Tracer::disabled().with_metrics(registry.clone()));
    let always = parse_expr("(bconst true)", &cfg.features).unwrap();
    let also_always = parse_expr("(not (bconst false))", &cfg.features).unwrap();
    let a = ev.eval_case(&always, 0);
    assert_eq!(registry.counter(HITS).get(), 0);
    let b = ev.eval_case(&also_always, 0);
    // One program, so the second genome is a cache hit ...
    assert_eq!(registry.counter(HITS).get(), 1);
    // ... yet each genome keeps its own noise draw.
    assert_ne!(a, b);
    let direct = benches[0]
        .try_speedup(&cfg, &also_always, DataSet::Train)
        .unwrap();
    assert_same_outcome(&b, &EvalOutcome::Score(direct), "noisy hit");
}

#[test]
fn cached_objectives_equal_uncached_evaluation_on_every_study() {
    for (cfg, names, sources) in cases() {
        let benches = prepare(&cfg, &names);
        let registry = MetricsRegistry::new();
        let ev = StudyMultiEvaluator::new(&cfg, &benches)
            .with_tracer(Tracer::disabled().with_metrics(registry.clone()));
        let exprs = genomes(&cfg, &sources);
        let plans = StudyPlanSpace::new(&cfg).seed_plans();
        for round in 0..2 {
            for plan_str in &plans {
                let plan = plan_str.parse().unwrap();
                for expr in &exprs {
                    for (case, pb) in benches.iter().enumerate() {
                        let direct = pb.try_objectives_traced(
                            &cfg,
                            &plan,
                            expr,
                            DataSet::Train,
                            &Tracer::disabled(),
                        );
                        let cached = ev.eval_objectives(plan_str, expr, case, 0);
                        assert_eq!(
                            cached, direct,
                            "{:?} {} round {round} {plan_str} {expr}",
                            cfg.kind, pb.name
                        );
                    }
                }
            }
        }
        let hits = registry.counter(HITS).get();
        let evals = (2 * plans.len() * exprs.len() * benches.len()) as u64;
        assert!(
            hits >= evals / 2,
            "{:?}: {hits} cache hits over {evals} evaluations",
            cfg.kind
        );
    }
}
