//! Results recorded for known seeds. A run on a recorded seed must find
//! exactly the recorded winner and speedups.

use crate::search::Found;
use crate::workload::Workload;

/// The recorded table: one tab-separated row per (workload, GP seed) with
/// the plan (`-` for none), train and novel speedups, and the winner's key.
const TABLE: &str = include_str!("../expected.tsv");

/// One recorded result.
#[derive(Clone, Debug, PartialEq)]
pub struct Recorded {
    /// The winner's pipeline plan, if any.
    pub plan: Option<String>,
    /// Train-data speedup.
    pub train_speedup: f64,
    /// Novel-data speedup.
    pub novel_speedup: f64,
    /// The winner's expression key.
    pub winner: String,
}

/// The row recorded for `workload`'s search with GP seed `seed`, if any.
///
/// # Panics
/// If the table is malformed.
pub fn lookup(workload: Workload, seed: u64) -> Option<Recorded> {
    TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f[0] == workload.name() && f[1].parse::<u64>() == Ok(seed))
        .map(|f| {
            assert_eq!(f.len(), 6, "expected.tsv rows have six fields");
            Recorded {
                plan: (f[2] != "-").then(|| f[2].to_string()),
                train_speedup: f[3].parse().expect("expected.tsv speedup"),
                novel_speedup: f[4].parse().expect("expected.tsv speedup"),
                winner: f[5].to_string(),
            }
        })
}

/// The table row for a result (speedups in round-trip form).
pub fn row(workload: Workload, seed: u64, found: &Found) -> String {
    format!(
        "{}\t{}\t{}\t{:?}\t{:?}\t{}",
        workload.name(),
        seed,
        found.plan.as_deref().unwrap_or("-"),
        found.train_speedup,
        found.novel_speedup,
        found.winner
    )
}

/// Whether `found` matches `recorded` exactly.
pub fn matches(recorded: &Recorded, found: &Found) -> bool {
    recorded.plan == found.plan
        && recorded.winner == found.winner
        && recorded.train_speedup == found.train_speedup
        && recorded.novel_speedup == found.novel_speedup
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_search_of_the_default_seed_is_recorded() {
        for w in Workload::ALL {
            for spec in w.specs(w.default_seed()) {
                let r = lookup(w, spec.params.seed).expect("default seed recorded");
                assert!(r.train_speedup.is_finite() && r.novel_speedup.is_finite());
                assert_eq!(r.plan.is_some(), w == Workload::CoevoRegalloc);
            }
        }
    }
}
