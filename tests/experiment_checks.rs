//! The experiments that cross-check claims between backends — the
//! simulator against the native runtime, or one fault model against the
//! clean run — pass every shape check at smoke scale. Each claim is
//! stated once, as a `Checks::expect` in its experiment; this file only
//! runs the registry entry in process and names the checks that failed.
//! A smoke run returns its artifacts to the caller and writes nothing.
//!
//! `ext26_serve` is not here: its smoke run takes minutes in a debug
//! build and runs in CI's serving job.

use afs_bench::experiments::find;
use afs_bench::Checks;

/// Run registry entry `id` at smoke scale: every check passes, and it
/// returns exactly the files it owns.
fn smoke_checks_pass(id: &str) {
    let mut checks = Checks::new();
    find(id)
        .expect("registered id")
        .artifacts(true, &mut checks);
    assert!(
        checks.failed().is_empty(),
        "{id} --smoke: {} of {} checks failed: {:#?}",
        checks.failed().len(),
        checks.total(),
        checks.failed()
    );
    assert!(checks.total() > 0, "{id} checked nothing");
}

#[test]
fn ext21_faults_smoke_checks_pass() {
    smoke_checks_pass("ext21_faults");
}

#[test]
fn ext22_native_smoke_checks_pass() {
    smoke_checks_pass("ext22_native");
}

#[test]
fn ext23_obs_smoke_checks_pass() {
    smoke_checks_pass("ext23_obs");
}

#[test]
fn ext24_procfaults_smoke_checks_pass() {
    smoke_checks_pass("ext24_procfaults");
}

#[test]
fn ext25_streams_smoke_checks_pass() {
    smoke_checks_pass("ext25_streams");
}
