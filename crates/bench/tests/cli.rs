//! `afs-bench` at its command line: `list` names every experiment, a
//! usage error is exit 2 with one stderr line (never a panic), and a
//! run exits 0 and rewrites its artifact byte-identical.

use std::path::PathBuf;
use std::process::{Command, Output};

use afs_bench::experiments::REGISTRY;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_afs-bench"))
        .args(args)
        .env_remove("AFS_QUICK")
        .output()
        .expect("afs-bench runs")
}

#[test]
fn list_prints_every_id_once() {
    let out = bench(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(ids.len(), 31, "{stdout}");
    assert!(ids.iter().copied().eq(REGISTRY.iter().map(|e| e.id)));
}

#[test]
fn usage_errors_exit_two_with_one_line() {
    for args in [&["run", "fig99"][..], &[], &["run"], &["fig04"]] {
        let out = bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
    let stderr = bench(&["run", "fig04", "fig99"]).stderr;
    let stderr = String::from_utf8_lossy(&stderr);
    assert!(
        stderr.contains("`fig99`") && stderr.contains("fig04"),
        "{stderr}"
    );
}

#[test]
fn run_fig04_passes_and_rewrites_its_artifact_byte_identical() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/fig04.csv");
    let committed = std::fs::read(&path).expect("committed fig04.csv");
    let out = bench(&["run", "fig04"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("PASS 4/4"), "{stdout}");
    assert_eq!(
        std::fs::read(&path).expect("rewritten fig04.csv"),
        committed
    );
}
