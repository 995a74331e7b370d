//! The traced search's calls replay one at a time to exactly what the
//! evaluator returned.

use metaopt_perfbench::layers::{Reference, Replay};
use metaopt_perfbench::search;
use metaopt_perfbench::timing::Recorder;
use metaopt_perfbench::workload::Workload;

fn replay_agrees(workload: Workload, benches: &[&str]) {
    let mut spec = workload.spec(3);
    spec.benches = benches
        .iter()
        .map(|n| metaopt_suite::by_name(n).expect("suite benchmark"))
        .collect();
    spec.params.population = 12;
    spec.params.generations = 3;
    let prepared = search::prepare(&spec).expect("bundled benchmarks prepare");
    let refs: Vec<Reference> = spec
        .benches
        .iter()
        .zip(&prepared)
        .map(|(b, pb)| Reference::new(b, pb).expect("reference run"))
        .collect();
    let recorder = Recorder::new();
    let found = search::run_timed(&spec, &prepared, &recorder);
    assert_eq!(
        found,
        search::run(&spec, &prepared),
        "timing changes nothing"
    );
    let calls = recorder.into_calls();
    // A lost memo race evaluates without counting an evaluation.
    assert!(calls.len() as u64 >= found.evaluations);
    assert!(calls.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));

    let replay = Replay::run(&spec, &prepared, &refs, &calls);
    assert!(replay.mismatches.is_empty(), "{:?}", replay.mismatches);
    assert_eq!(replay.run_ms.len(), calls.len());
    assert_eq!(replay.sims.seen(), calls.len() as u64);
    assert!(replay.sims.distinct() >= 1);
    assert!(replay.attributed_ms() > 0.0 && replay.cycles > 0);
}

#[test]
fn dss_calls_replay_exactly() {
    replay_agrees(Workload::DssHyperblock, &["unepic", "rawdaudio"]);
}

#[test]
fn coevolution_calls_replay_exactly() {
    replay_agrees(Workload::CoevoRegalloc, &["rawcaudio"]);
}
