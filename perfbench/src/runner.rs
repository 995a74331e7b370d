//! One benchmark run: set up, search repeatedly for the requested time,
//! check every result, and report the end-to-end metrics (untraced) or the
//! per-layer metrics (traced).

use crate::expected;
use crate::layers::{self, Reference, Replay, SetupTimes};
use crate::report::Outcome;
use crate::search::{self, Found};
use crate::stats::{median, percentile};
use crate::timing::{idle_gaps, Call, Recorder};
use crate::workload::{Spec, Workload, THREADS};
use metaopt::PreparedBench;
use std::time::{Duration, Instant};

/// Preparations of the workload's benchmarks before the first search, and
/// the least time they take; `setup_s` is the median of all preparations.
pub const SETUP_FIRST: (usize, f64) = (3, 1.5);

/// Preparations after each search, and the least time they take. Spreading
/// the samples over the whole run keeps a slow spell of the host from
/// deciding the median.
pub const SETUP_BETWEEN: (usize, f64) = (1, 0.5);

/// Traced set-ups whose per-layer times the traced run reports (medians).
pub const SETUP_LAYER_REPEATS: usize = 3;

/// Evaluations the traced searches must hold between them: p95 needs 200
/// samples (see [`crate::stats::supports`]).
pub const MIN_TRACED_EVALS: u64 = 200;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long to keep repeating the search.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checks every timed search must pass: same result as the run's
/// first search, the recorded result for this seed if there is one, and
/// (for the first search) an independent re-verification of the winner.
struct Gate<'a> {
    spec: &'a Spec,
    benches: &'a [PreparedBench],
    refs: &'a [Reference],
    first: Option<Found>,
}

impl Gate<'_> {
    fn check(&mut self, found: &Found, out: &mut Outcome) {
        out.attempted += found.evaluations;
        out.failed += found.failures;
        match &self.first {
            Some(first) if first != found => {
                out.fail("a repeated search found a different result");
            }
            Some(_) => {}
            None => {
                let (workload, seed) = (self.spec.workload, self.spec.params.seed);
                eprintln!("record\t{}", expected::row(workload, seed, found));
                match expected::lookup(workload, seed) {
                    Some(rec) if !expected::matches(&rec, found) => {
                        out.fail("result differs from the one recorded for this seed");
                    }
                    Some(_) => {}
                    None => eprintln!("note: no result recorded for this seed"),
                }
                if let Err(problems) =
                    layers::verify_winner(self.spec, self.benches, self.refs, found)
                {
                    for p in problems {
                        out.fail(p);
                    }
                }
                self.first = Some(found.clone());
            }
        }
        if found.failures > 0 {
            out.fail(format!("{} evaluations failed", found.failures));
        }
    }
}

/// Prepare the workload's benchmarks at least `repeats` times and until
/// `seconds` have passed, adding each preparation's time to `setup_s`.
/// Returns the last preparation.
fn prepare_timed(
    spec: &Spec,
    (repeats, seconds): (usize, f64),
    setup_s: &mut Vec<f64>,
) -> Result<Vec<PreparedBench>, String> {
    let start = Instant::now();
    for n in 1.. {
        let t = Instant::now();
        let benches = search::prepare(spec).map_err(|e| e.to_string())?;
        setup_s.push(secs(t));
        if n >= repeats && secs(start) >= seconds {
            return Ok(benches);
        }
    }
    unreachable!("the loop returns")
}

/// Run the benchmark.
///
/// # Errors
/// A set-up failure; failed correctness checks are reported in the
/// outcome instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs = args.workload.specs(args.seed);
    for spec in &specs {
        eprintln!("{}: {}", args.workload.name(), spec.describe());
    }
    let spec0 = &specs[0];
    if spec0.study.noise != 0.0 {
        return Err("the replay assumes noise-free timing".to_string());
    }
    let mut out = Outcome::default();
    let mut setup_layers = Vec::new();
    if args.trace {
        for _ in 0..SETUP_LAYER_REPEATS {
            let mut times = SetupTimes::default();
            for b in &spec0.benches {
                layers::setup_layers(spec0, b, &mut times)?;
            }
            setup_layers.push(times);
        }
    }
    let mut setup_s = Vec::new();
    let benches = prepare_timed(spec0, SETUP_FIRST, &mut setup_s)?;
    let refs = spec0
        .benches
        .iter()
        .zip(&benches)
        .map(|(b, pb)| Reference::new(b, pb))
        .collect::<Result<Vec<_>, _>>()?;
    let mut gates: Vec<Gate> = specs
        .iter()
        .map(|spec| Gate {
            spec,
            benches: &benches,
            refs: &refs,
            first: None,
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);

    if !args.trace {
        // Cycle through the searches until each has run once and the time
        // is up; each search's time is the median of its repeats.
        let mut times = vec![Vec::new(); specs.len()];
        for i in (0..specs.len()).cycle() {
            let t = Instant::now();
            let found = search::run(&specs[i], &benches);
            times[i].push(secs(t));
            eprintln!(
                "search {i}: seed {} evals {} {:.3} s",
                specs[i].params.seed,
                found.evaluations,
                secs(t)
            );
            gates[i].check(&found, &mut out);
            prepare_timed(spec0, SETUP_BETWEEN, &mut setup_s)?;
            if Instant::now() >= deadline && times.iter().all(|t| !t.is_empty()) {
                break;
            }
        }
        let found: Vec<Found> = gates
            .into_iter()
            .map(|g| g.first.expect("searched"))
            .collect();
        let search_s: f64 = times.iter().map(|t| median(t).expect("searched")).sum();
        let evals: u64 = found.iter().map(|f| f.evaluations).sum();
        let k = specs.len() as f64;
        out.push("setup_s", median(&setup_s).expect("setup ran"), "s");
        out.push("evals_per_s", evals as f64 / search_s, "1/s");
        out.push("peak_rss_mb", peak_rss_mb(), "MB");
        out.push(
            "train_speedup",
            found.iter().map(|f| f.train_speedup).sum::<f64>() / k,
            "x",
        );
        out.push(
            "novel_speedup",
            found.iter().map(|f| f.novel_speedup).sum::<f64>() / k,
            "x",
        );
        return Ok(out);
    }

    // Traced: time searches 0, 1, … untraced and traced in turn until the
    // traced ones hold enough evaluations for every reported percentile,
    // then repeat those searches until the time is up. The first traced run
    // of each is replayed.
    let mut plain_s: Vec<Vec<f64>> = Vec::new();
    let mut traced_s: Vec<Vec<f64>> = Vec::new();
    let mut first: Vec<TracedSearch> = Vec::new();
    for pass in 0.. {
        for i in 0..specs.len() {
            let evals: u64 = first.iter().map(|t| t.found.evaluations).sum();
            if i == plain_s.len() && (evals >= MIN_TRACED_EVALS || pass > 0) {
                break;
            }
            if i == plain_s.len() {
                plain_s.push(Vec::new());
                traced_s.push(Vec::new());
            }
            for traced in [(pass + i) % 2 == 1, (pass + i) % 2 == 0] {
                if !traced {
                    let t = Instant::now();
                    let found = search::run(&specs[i], &benches);
                    plain_s[i].push(secs(t));
                    gates[i].check(&found, &mut out);
                    continue;
                }
                let recorder = Recorder::new();
                let t = Instant::now();
                let found = search::run_timed(&specs[i], &benches, &recorder);
                let wall_ns = t.elapsed().as_nanos() as u64;
                traced_s[i].push(wall_ns as f64 / 1e9);
                gates[i].check(&found, &mut out);
                if first.len() == i {
                    // A worker that loses a memo race evaluates too but
                    // counts a hit, so there can be more calls than
                    // evaluations.
                    let calls = recorder.into_calls();
                    if (calls.len() as u64) < found.evaluations {
                        out.fail("the timing wrapper missed evaluator calls");
                    }
                    first.push(TracedSearch {
                        calls,
                        wall_ns,
                        found,
                    });
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let calls: Vec<Call> = first.iter().flat_map(|t| t.calls.iter().cloned()).collect();
    let replay = Replay::run(spec0, &benches, &refs, &calls);
    for m in &replay.mismatches {
        out.fail(m.clone());
    }
    push_layers(&mut out, &setup_layers, &first, &replay);
    let sum_medians = |v: &[Vec<f64>]| v.iter().map(|t| median(t).expect("timed")).sum::<f64>();
    let (plain, traced) = (sum_medians(&plain_s), sum_medians(&traced_s));
    out.push("gp.search_s", plain / plain_s.len() as f64, "s");
    out.push("trace.overhead_ratio", traced / plain - 1.0, "ratio");
    Ok(out)
}

/// The first traced run of one search.
struct TracedSearch {
    /// Its evaluator calls, timed from the search's start.
    calls: Vec<Call>,
    /// Its wall time.
    wall_ns: u64,
    /// What it found.
    found: Found,
}

fn push_quantiles(out: &mut Outcome, name: &str, samples: &[f64], unit: &'static str) {
    out.push(
        format!("{name}.p50"),
        median(samples).unwrap_or(f64::NAN),
        unit,
    );
    out.push(
        format!("{name}.p95"),
        percentile(samples, 95.0).unwrap_or(f64::NAN),
        unit,
    );
    out.push(format!("{name}.n"), samples.len() as f64, "count");
}

/// Push the per-layer metrics.
fn push_layers(out: &mut Outcome, setup: &[SetupTimes], traced: &[TracedSearch], replay: &Replay) {
    let setup_median = |f: fn(&SetupTimes) -> f64| {
        median(&setup.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    out.push("lang.compile_ms", setup_median(|t| t.lang_ms), "ms");
    out.push("ir.profile_ms", setup_median(|t| t.profile_ms), "ms");
    out.push("compiler.inline_ms", setup_median(|t| t.inline_ms), "ms");
    out.push("core.prepare_ms", setup_median(|t| t.prepare_ms), "ms");

    push_quantiles(out, "compiler.compile_ms", &replay.compile_ms, "ms");
    for pass in layers::PASSES {
        let ms = replay.pass_ms.get(pass).copied().unwrap_or(0.0);
        out.push(format!("compiler.pass.{pass}_ms"), ms, "ms");
    }
    let insts = &replay.static_insts;
    out.push(
        "compiler.static_insts.mean",
        insts.iter().sum::<f64>() / insts.len() as f64,
        "count",
    );

    push_quantiles(out, "sim.lower_ms", &replay.lower_ms, "ms");
    push_quantiles(out, "sim.run_ms", &replay.run_ms, "ms");
    out.push("sim.runs", replay.run_ms.len() as f64, "count");
    let run_s = replay.run_ms.iter().sum::<f64>() / 1e3;
    out.push("sim.cycles_per_s", replay.cycles as f64 / run_s, "cycles/s");
    out.push("sim.repeat_ratio", replay.sims.repeat_ratio(), "ratio");

    let calls = || traced.iter().flat_map(|t| t.calls.iter());
    let eval_ms: Vec<f64> = calls()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .collect();
    let eval_total_ms: f64 = eval_ms.iter().sum();
    let wall_ms: f64 = traced.iter().map(|t| t.wall_ns as f64 / 1e6).sum();
    let sum = |f: fn(&Found) -> u64| traced.iter().map(|t| f(&t.found)).sum::<u64>();
    let (evaluations, hits, failures) = (
        sum(|f| f.evaluations),
        sum(|f| f.cache_hits),
        sum(|f| f.failures),
    );
    out.push("core.evals", eval_ms.len() as f64, "count");
    out.push(
        "core.lost_race_evals",
        (eval_ms.len() as u64 - evaluations) as f64,
        "count",
    );
    push_quantiles(out, "core.eval_ms", &eval_ms, "ms");
    out.push(
        "core.busy_ratio",
        eval_total_ms / (THREADS as f64 * wall_ms),
        "ratio",
    );
    out.push(
        "core.unattributed_ratio",
        1.0 - replay.attributed_ms() / eval_total_ms,
        "ratio",
    );
    out.push(
        "core.failed_eval_ratio",
        failures as f64 / evaluations.max(1) as f64,
        "ratio",
    );
    out.push(
        "gp.memo_hit_ratio",
        hits as f64 / (hits + evaluations) as f64,
        "ratio",
    );
    // Gaps run from each search's start to its last evaluation; the
    // winner's final speedups come after that and are not GP work.
    let gaps: Vec<f64> = traced
        .iter()
        .flat_map(|t| {
            let last_end = t.calls.iter().map(|c| c.end_ns).max().unwrap_or(0);
            idle_gaps(&t.calls, 0, last_end)
        })
        .map(|g| g as f64 / 1e6)
        .collect();
    out.push("gp.gen_gap_ms.p50", median(&gaps).unwrap_or(f64::NAN), "ms");
    out.push("gp.gen_gap_ms.n", gaps.len() as f64, "count");
}
