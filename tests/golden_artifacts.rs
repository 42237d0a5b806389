//! Golden regression: the committed `results/` CSVs for fig06, fig07
//! and table1, and the E23 golden traces, are the contract. Regenerating their rows through the
//! shared `afs_bench::artifacts` module must reproduce the committed
//! files byte for byte — if a simulator change perturbs these numbers
//! it has to be intentional, visible in review as a CSV diff, not a
//! silent drift.
//!
//! The generators are called with `quick = false` so the test checks
//! the full-horizon artifacts regardless of whether `AFS_QUICK` is set
//! for the rest of the suite.

use std::fs;
use std::path::PathBuf;

use afs_bench::artifacts::{self, Artifact};

fn committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{name}.csv"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn assert_golden(artifact: &Artifact) {
    let want = committed(artifact.name);
    let got = artifact.csv_bytes();
    if got != want {
        // Point at the first diverging line rather than dumping both files.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "results/{}.csv line {} drifted from the committed golden file",
                artifact.name,
                i + 1
            );
        }
        panic!(
            "results/{}.csv changed length: regenerated {} lines, committed {}",
            artifact.name,
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn table1_csv_is_bit_for_bit_stable() {
    assert_golden(&artifacts::table1().artifact);
}

#[test]
fn fig06_csv_is_bit_for_bit_stable() {
    assert_golden(&artifacts::fig06(false).artifact);
}

#[test]
fn fig07_csv_is_bit_for_bit_stable() {
    assert_golden(&artifacts::fig07(false).artifact);
}

/// `got` must be the committed `results/<file>`, byte for byte.
fn assert_golden_trace(file: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    let want = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "results/{file} line {} drifted from the committed golden trace",
                i + 1
            );
        }
        panic!(
            "results/{file} changed length: regenerated {} lines, committed {}",
            got.lines().count(),
            want.lines().count()
        );
    }
}

/// Seeded-replay regression for the observability layer: regenerating
/// the E23 golden trace must reproduce the committed JSONL byte for
/// byte. This pins the event schema, the deterministic emission order
/// and the numeric formatting all at once — any change to what the
/// simulator traces (or when) shows up as a reviewable artifact diff.
#[test]
fn obs_golden_trace_is_bit_for_bit_stable() {
    let (report, got) = artifacts::obs_trace_golden();
    assert!(report.delivered > 0, "golden trace run delivered nothing");
    assert_golden_trace(artifacts::OBS_TRACE_GOLDEN_FILE, &got);
}

/// The same for a recorded native run on real threads: a small
/// three-worker IPS run that steals. Its stamps are virtual and its
/// queue depths are counted from the merged trace, so no host
/// interleaving can move a byte.
#[test]
fn native_golden_trace_is_bit_for_bit_stable() {
    let (report, got) = artifacts::native_obs_trace_golden();
    assert!(report.steals >= 1, "the native golden run must steal");
    assert!(
        got.lines().count() <= 2_000,
        "the native golden trace must stay small"
    );
    assert_golden_trace(artifacts::NATIVE_TRACE_GOLDEN_FILE, &got);
}
