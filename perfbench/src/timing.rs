//! Timing wrappers around the evaluators the search loop calls. They
//! record each call's interval and inputs so the traced run can account
//! for evaluator time and replay every evaluation layer by layer.

use metaopt_gp::{EvalError, EvalOutcome, Evaluator, Expr, MultiEvaluator};
use std::sync::Mutex;
use std::time::Instant;

/// What an evaluator call returned.
#[derive(Clone, Debug, PartialEq)]
pub enum Returned {
    /// A scalar fitness (speedup over the baseline).
    Score(f64),
    /// A co-evolution objective vector.
    Objectives([u64; 3]),
    /// A classified failure.
    Failed,
}

/// One evaluator call.
#[derive(Clone, Debug)]
pub struct Call {
    /// Training case (benchmark index).
    pub case: usize,
    /// The genome's expression.
    pub expr: Expr,
    /// The genome's plan (co-evolution only).
    pub plan: Option<String>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// What the call returned.
    pub result: Returned,
}

/// Collects [`Call`]s from every worker thread.
pub struct Recorder {
    origin: Instant,
    calls: Mutex<Vec<Call>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&self, call: Call) {
        self.calls
            .lock()
            .expect("a recording thread panicked")
            .push(call);
    }

    /// The recorded calls, sorted by start time.
    pub fn into_calls(self) -> Vec<Call> {
        let mut calls = self
            .calls
            .into_inner()
            .expect("a recording thread panicked");
        calls.sort_by_key(|c| (c.start_ns, c.end_ns));
        calls
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// A scalar [`Evaluator`] that times every call into the wrapped one.
pub struct Timed<'a, E> {
    /// The wrapped evaluator.
    pub inner: E,
    /// Where calls are recorded.
    pub recorder: &'a Recorder,
}

impl<E: Evaluator> Evaluator for Timed<'_, E> {
    fn num_cases(&self) -> usize {
        self.inner.num_cases()
    }

    fn eval_case(&self, expr: &Expr, case: usize) -> EvalOutcome {
        self.eval_case_attempt(expr, case, 0)
    }

    fn eval_case_attempt(&self, expr: &Expr, case: usize, attempt: u32) -> EvalOutcome {
        let start_ns = self.recorder.now_ns();
        let out = self.inner.eval_case_attempt(expr, case, attempt);
        let end_ns = self.recorder.now_ns();
        self.recorder.record(Call {
            case,
            expr: expr.clone(),
            plan: None,
            start_ns,
            end_ns,
            result: match &out {
                EvalOutcome::Score(s) => Returned::Score(*s),
                EvalOutcome::Failed(_) => Returned::Failed,
            },
        });
        out
    }
}

impl<E: MultiEvaluator> MultiEvaluator for Timed<'_, E> {
    fn num_cases(&self) -> usize {
        self.inner.num_cases()
    }

    fn eval_objectives(
        &self,
        plan: &str,
        expr: &Expr,
        case: usize,
        attempt: u32,
    ) -> Result<[u64; 3], EvalError> {
        let start_ns = self.recorder.now_ns();
        let out = self.inner.eval_objectives(plan, expr, case, attempt);
        let end_ns = self.recorder.now_ns();
        self.recorder.record(Call {
            case,
            expr: expr.clone(),
            plan: Some(plan.to_string()),
            start_ns,
            end_ns,
            result: match &out {
                Ok(o) => Returned::Objectives(*o),
                Err(_) => Returned::Failed,
            },
        });
        out
    }
}

/// The maximal intervals within `[from_ns, to_ns]` in which no call was in
/// flight, in nanoseconds, in time order. `calls` must be sorted by start.
pub fn idle_gaps(calls: &[Call], from_ns: u64, to_ns: u64) -> Vec<u64> {
    let mut gaps = Vec::new();
    let mut busy_until = from_ns;
    for c in calls {
        if c.start_ns > busy_until {
            gaps.push(c.start_ns - busy_until);
        }
        busy_until = busy_until.max(c.end_ns);
    }
    if to_ns > busy_until {
        gaps.push(to_ns - busy_until);
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(start_ns: u64, end_ns: u64) -> Call {
        Call {
            case: 0,
            expr: metaopt_gp::parse::parse_expr("(rconst 1.0)", &metaopt_gp::FeatureSet::new())
                .unwrap(),
            plan: None,
            start_ns,
            end_ns,
            result: Returned::Failed,
        }
    }

    #[test]
    fn gaps_are_the_intervals_with_nothing_in_flight() {
        // Two overlapping calls, a gap, one call, a tail.
        let calls = [call(10, 50), call(20, 60), call(80, 90)];
        assert_eq!(idle_gaps(&calls, 0, 100), vec![10, 20, 10]);
        // Back-to-back calls leave no gap.
        assert_eq!(
            idle_gaps(&[call(0, 5), call(5, 9)], 0, 9),
            Vec::<u64>::new()
        );
        assert_eq!(idle_gaps(&[], 3, 10), vec![7]);
    }
}
