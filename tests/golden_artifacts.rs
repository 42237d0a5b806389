//! Golden regression: the committed `results/` files of table1, fig06
//! and fig07, and the E23 golden traces, are the contract. Running an
//! experiment's registry entry must return every file it owns byte for
//! byte as committed, and pass every shape check — if a simulator change
//! perturbs these numbers it has to be intentional, visible in review as
//! a results diff, not a silent drift.
//!
//! The entries run with `quick = false` so the test checks the
//! full-horizon artifacts regardless of whether `AFS_QUICK` is set for
//! the rest of the suite.

use std::fs;
use std::path::PathBuf;

use afs_bench::experiments::{find, native_obs_trace_golden, obs_trace_golden};
use afs_bench::Checks;

/// `got` must be the committed `results/<file>`, byte for byte.
fn assert_golden(file: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    let want = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    if got != want {
        // Point at the first diverging line rather than dumping both files.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(
                g,
                w,
                "results/{file} line {} drifted from the committed golden file",
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

/// Run registry entry `id` at full horizon: every shape check passes
/// and every file it owns equals the committed one.
fn assert_entry_golden(id: &str) {
    let mut checks = Checks::new();
    let artifacts = find(id)
        .expect("registered id")
        .artifacts(false, &mut checks);
    assert!(
        checks.failed().is_empty(),
        "{id}: shape checks failed: {:?}",
        checks.failed()
    );
    for a in &artifacts {
        assert_golden(a.file, &a.body);
    }
}

#[test]
fn table1_csv_is_bit_for_bit_stable() {
    assert_entry_golden("table1");
}

#[test]
fn fig06_csv_is_bit_for_bit_stable() {
    assert_entry_golden("fig06");
}

#[test]
fn fig07_csv_is_bit_for_bit_stable() {
    assert_entry_golden("fig07");
}

/// Seeded-replay regression for the observability layer: regenerating
/// the E23 golden trace must reproduce the committed JSONL byte for
/// byte. This pins the event schema, the deterministic emission order
/// and the numeric formatting all at once — any change to what the
/// simulator traces (or when) shows up as a reviewable artifact diff.
#[test]
fn obs_golden_trace_is_bit_for_bit_stable() {
    let (report, got) = obs_trace_golden();
    assert!(report.delivered > 0, "golden trace run delivered nothing");
    assert_golden("ext23_trace_golden.jsonl", &got);
}

/// The same for a recorded native run on real threads: a small
/// three-worker IPS run that steals. Its stamps are virtual and its
/// queue depths are counted from the merged trace, so no host
/// interleaving can move a byte.
#[test]
fn native_golden_trace_is_bit_for_bit_stable() {
    let (report, got) = native_obs_trace_golden();
    assert!(report.steals >= 1, "the native golden run must steal");
    assert!(
        got.lines().count() <= 2_000,
        "the native golden trace must stay small"
    );
    assert_golden("ext23_native_trace_golden.jsonl", &got);
}
