//! Criterion micro-benchmarks of the substrate: interpreter throughput
//! (plain and profiling), compilation pipeline latency, and cycle-simulator
//! throughput — the three costs that bound a GP fitness evaluation — plus
//! benchmark preparation, the set-up paid once per benchmark before a search.

use criterion::{criterion_group, criterion_main, Criterion};
use metaopt::{study, PreparedBench};
use metaopt_compiler::{compile, prepare, Passes};
use metaopt_ir::interp::{run, RunConfig};
use metaopt_sim::simulate;
use metaopt_suite::{by_name, DataSet};

fn bench_interp(c: &mut Criterion) {
    let b = by_name("rawcaudio").expect("registered");
    let prog = b.program();
    let mem = b.memory(&prog, DataSet::Train);
    c.bench_function("interp/rawcaudio", |bench| {
        bench.iter(|| {
            let cfg = RunConfig {
                memory: Some(mem.clone()),
                ..Default::default()
            };
            run(&prog, &cfg).expect("runs")
        })
    });
    c.bench_function("interp/rawcaudio-profiled", |bench| {
        bench.iter(|| {
            let cfg = RunConfig {
                memory: Some(mem.clone()),
                profile: true,
                ..Default::default()
            };
            run(&prog, &cfg).expect("runs")
        })
    });
}

fn bench_prepare(c: &mut Criterion) {
    let b = by_name("rawcaudio").expect("registered");
    let cfg = study::hyperblock();
    c.bench_function("prepare/rawcaudio", |bench| {
        bench.iter(|| PreparedBench::try_new(&cfg, &b).expect("prepares"))
    });
}

fn bench_compile(c: &mut Criterion) {
    let b = by_name("rawcaudio").expect("registered");
    let prog = b.program();
    let prepared = prepare(&prog).expect("inlines");
    let mem = b.memory(&prepared, DataSet::Train);
    let profile = run(
        &prepared,
        &RunConfig {
            memory: Some(mem.clone()),
            profile: true,
            ..Default::default()
        },
    )
    .expect("profiles")
    .profile
    .expect("requested");
    let machine = metaopt_sim::MachineConfig::table3();

    c.bench_function("compile/rawcaudio-baseline", |bench| {
        bench.iter(|| {
            compile(&prepared, &profile.funcs[0], &machine, &Passes::baseline()).expect("compiles")
        })
    });

    let compiled =
        compile(&prepared, &profile.funcs[0], &machine, &Passes::baseline()).expect("compiles");
    c.bench_function("simulate/rawcaudio", |bench| {
        bench.iter(|| {
            let mut m = mem.clone();
            m.resize(compiled.mem_size.max(m.len()), 0);
            simulate(&compiled.code, &machine, m).expect("simulates")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_interp, bench_compile, bench_prepare
}
criterion_main!(benches);
