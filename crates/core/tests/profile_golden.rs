//! Golden digest of the interpreter's profile: block counts, taken-edge
//! counts and 2-bit-predictor branch statistics, plus the return value
//! and step count, for every suite benchmark × {raw, inlined} × {train,
//! novel}. The compiler's decisions all read these counters, so any
//! change to how the interpreter collects them must leave every digest
//! as it is.
//!
//! Regenerate the golden after an intentional change to the profile's
//! meaning with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p metaopt --test profile_golden
//! ```

use metaopt_compiler::prepare;
use metaopt_ir::budget;
use metaopt_ir::interp::{run, Outcome, RunConfig};
use metaopt_suite::{all_benchmarks, DataSet};
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/profile_digest.golden"
);

/// 64-bit FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of an outcome's `ret`, `steps` and full profile, with the
/// profile's maps visited in sorted key order.
fn digest(out: &Outcome) -> u64 {
    let mut h = Fnv::new();
    h.word(out.ret as u64);
    h.word(out.steps);
    let prof = out.profile.as_ref().expect("profile requested");
    h.word(prof.dyn_insts);
    h.word(prof.funcs.len() as u64);
    for fp in &prof.funcs {
        h.word(fp.block_counts.len() as u64);
        for &c in &fp.block_counts {
            h.word(c);
        }
        let mut edges: Vec<_> = fp.edge_counts.iter().collect();
        edges.sort();
        h.word(edges.len() as u64);
        for (&(from, to), &c) in edges {
            h.word(u64::from(from.0));
            h.word(u64::from(to.0));
            h.word(c);
        }
        let mut branches: Vec<_> = fp.branches.iter().collect();
        branches.sort_by_key(|(k, _)| **k);
        h.word(branches.len() as u64);
        for (&(b, i), s) in branches {
            h.word(u64::from(b.0));
            h.word(i as u64);
            h.word(s.executed);
            h.word(s.taken);
            h.word(s.correct);
        }
    }
    h.0
}

/// One line per benchmark × program form × data set:
/// `name form dataset digest`.
fn digest_lines() -> String {
    let mut lines = String::new();
    for bench in all_benchmarks() {
        let raw = bench.program();
        let inlined = prepare(&raw).expect("inlines");
        for (form, prog) in [("raw", &raw), ("prepared", &inlined)] {
            for ds in [DataSet::Train, DataSet::Novel] {
                let out = run(
                    prog,
                    &RunConfig {
                        memory: Some(bench.memory(prog, ds)),
                        profile: true,
                        max_steps: budget::KERNEL_VERIFY_MAX_STEPS,
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{} {form} {ds:?}: {e}", bench.name));
                lines.push_str(&format!(
                    "{} {form} {ds:?} {:016x}\n",
                    bench.name,
                    digest(&out)
                ));
            }
        }
    }
    lines
}

#[test]
fn profiles_match_golden_digest() {
    let lines = digest_lines();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &lines).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            Path::new(GOLDEN).display()
        )
    });
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(got, want, "profile digest drifted from the golden");
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "the golden covers a different benchmark list"
    );
}
