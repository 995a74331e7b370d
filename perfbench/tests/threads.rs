//! A tiny workload reports the same end-to-end values, times aside, at 1
//! and 2 worker threads.

use metaopt_perfbench::layers;
use metaopt_perfbench::layers::Reference;
use metaopt_perfbench::search::{self, Found};
use metaopt_perfbench::workload::{Spec, Workload};

fn tiny(workload: Workload, benches: &[&str], threads: usize) -> Spec {
    let mut spec = workload.spec(7);
    spec.benches = benches
        .iter()
        .map(|n| metaopt_suite::by_name(n).expect("suite benchmark"))
        .collect();
    spec.params.population = 12;
    spec.params.generations = 3;
    spec.params.threads = threads;
    spec
}

fn run(spec: &Spec) -> Found {
    let benches = search::prepare(spec).expect("bundled benchmarks prepare");
    let found = search::run(spec, &benches);
    let refs: Vec<Reference> = spec
        .benches
        .iter()
        .zip(&benches)
        .map(|(b, pb)| Reference::new(b, pb).expect("reference run"))
        .collect();
    layers::verify_winner(spec, &benches, &refs, &found).expect("winner re-verifies");
    found
}

#[test]
fn dss_is_identical_at_one_and_two_threads() {
    let one = run(&tiny(Workload::DssRegalloc, &["rawcaudio", "rawdaudio"], 1));
    let two = run(&tiny(Workload::DssRegalloc, &["rawcaudio", "rawdaudio"], 2));
    assert_eq!(one, two);
    assert!(one.evaluations > 0 && one.failures == 0);
}

#[test]
fn coevolution_is_identical_at_one_and_two_threads() {
    let one = run(&tiny(Workload::CoevoRegalloc, &["rawcaudio"], 1));
    let two = run(&tiny(Workload::CoevoRegalloc, &["rawcaudio"], 2));
    assert_eq!(one, two);
    assert!(one.plan.is_some() && one.evaluations > 0 && one.failures == 0);
}
