//! `afs-serve` at its command line: a value outside a flag's range is a
//! usage error (exit 2, one line naming the flag) before any thread
//! starts — never a panic from an assertion deep in the pipeline — and
//! a good run exits 0 with a balanced ledger.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_afs-serve"))
        .args(args)
        .output()
        .expect("afs-serve runs")
}

#[test]
fn out_of_range_values_are_usage_errors_not_panics() {
    let bad: [&[&str]; 11] = [
        &["--payload", "4500"],
        &["--load", "-1"],
        &["--load", "nan"],
        &["--pps", "0"],
        &["--batch-mean", "0"],
        &["--alpha", "nan"],
        &["--workers", "0"],
        &["--batch", "0"],
        &["--streams", "0"],
        &["--seconds", "inf"],
        &["--packets"],
    ];
    for args in bad {
        let out = serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }
}

#[test]
fn a_good_run_balances_its_ledger_and_exits_zero() {
    // The largest payload that fits one FDDI frame is accepted.
    let out = serve(&["--packets", "200", "--streams", "64", "--payload", "4404"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("offered 200 = admitted"), "{stderr}");
}
