//! `afs-serve` at its command line: a value outside a flag's range is a
//! usage error (exit 2, one line naming the flag) before any thread
//! starts — never a panic from an assertion deep in the pipeline — and
//! a good run exits 0 with a balanced ledger and its host gauges.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_afs-serve"))
        .args(args)
        .output()
        .expect("afs-serve runs")
}

#[test]
fn out_of_range_values_are_usage_errors_not_panics() {
    // The upper bounds are checked while parsing, so these start no
    // thread and size no table.
    let bad: [&[&str]; 17] = [
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
        &["--workers", "65"],
        &["--streams", "1048577"],
        &["--streams", "4294967295"],
        &["--queue-capacity", "16385"],
        &["--queue-capacity", "18446744073709551615"],
        &["--queue-capacity", "-1"],
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
    // The host gauges the binary measures around the run.
    let closing = stderr.lines().last().unwrap_or_default();
    let parts: Vec<&str> = closing.split("; ").collect();
    let wall = parts
        .iter()
        .find_map(|p| p.split_once(" pkts/s host wall ("));
    let (pps, secs) = wall.unwrap_or_else(|| panic!("no host rate: {closing}"));
    assert!(pps.parse::<f64>().is_ok_and(|v| v > 0.0), "{closing}");
    let secs = secs.strip_suffix(" s)").and_then(|s| s.parse::<f64>().ok());
    assert!(secs.is_some_and(|v| v >= 0.0), "{closing}");
    let rss = parts
        .iter()
        .find_map(|p| p.strip_prefix("rss ")?.strip_suffix(" KiB"));
    assert!(rss.is_some_and(|v| v.parse::<u64>().is_ok()), "{closing}");
}
