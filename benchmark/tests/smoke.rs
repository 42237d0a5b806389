//! End-to-end smoke: drive the built binary in `--quick` mode (horizons
//! ÷ 10, nothing written) through both front ends and check the shape
//! and the correctness verdict of what it prints.
//!
//! Debug builds run the simulator and the protocol engine an order of
//! magnitude slower, so these tests only run under `cargo test
//! --release`.

use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

use afs_benchmark::json::Json;
use afs_benchmark::metrics::{END_TO_END, PER_LAYER};
use afs_benchmark::workloads::Workload;

const BIN: &str = env!("CARGO_BIN_EXE_afs-benchmark");

/// The benchmark assumes it has the machine: one invocation at a time,
/// even though the test harness runs tests on parallel threads.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run(args: &[&str]) -> (bool, String) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn afs-benchmark");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn result_line(stdout: &str) -> Json {
    let line = stdout.lines().last().expect("some output");
    let doc = Json::parse(line).expect("last line is JSON");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    doc
}

fn metric_names(doc: &Json) -> Vec<String> {
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{name} has no value"
        );
        assert!(
            m.get("unit").and_then(Json::as_str).is_some(),
            "{name} has no unit"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with `cargo test --release`")]
fn quick_suite_runs_every_workload_clean_and_fast() {
    let t = Instant::now();
    let (ok, stdout) = run(&["run", "--quick", "--seed", "7"]);
    let took = t.elapsed().as_secs_f64();
    assert!(ok, "suite exited non-zero:\n{stdout}");
    for w in Workload::ALL {
        for section in ["end to end", "per layer"] {
            let header = format!("## {} — {section}", w.name());
            assert!(stdout.contains(&header), "missing `{header}`");
        }
    }
    for name in END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(["virt_drop_frac", "failed_frac"])
    {
        assert!(stdout.contains(name), "{name} not printed");
    }
    assert!(stdout.contains("0 check failure(s)"), "{stdout}");
    assert!(
        !stdout.contains("results written"),
        "--quick must not write results"
    );
    // ≈20 s on a 2-core host; the bound leaves room for a noisy one
    // without letting a 10x slowdown through.
    assert!(took <= 40.0, "--quick took {took:.1} s");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with `cargo test --release`")]
fn contract_mode_prints_every_metric_of_its_trace_setting() {
    for w in [Workload::SimMru16, Workload::ServeIpsOverload4k] {
        let base = [
            "--quick",
            "--workload",
            w.name(),
            "--seed",
            "11",
            "--seconds",
            "1",
        ];
        let (ok, stdout) = run(&[&base[..], &["--trace", "0"]].concat());
        assert!(ok, "{stdout}");
        let names = metric_names(&result_line(&stdout));
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());

        let (ok, stdout) = run(&[&base[..], &["--trace", "1"]].concat());
        assert!(ok, "{stdout}");
        let names = metric_names(&result_line(&stdout));
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with `cargo test --release`")]
fn the_same_seed_gives_the_same_virtual_metrics_and_another_seed_does_not() {
    let virt = |seed: &str| {
        let (ok, stdout) = run(&[
            "--quick",
            "--workload",
            "sim_mru_16",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert!(ok, "{stdout}");
        let doc = result_line(&stdout);
        let m = doc.get("metrics").unwrap();
        ["virt_mean_delay_us", "virt_goodput_pps"].map(|k| {
            m.get(k)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
                .to_bits()
        })
    };
    assert_eq!(virt("21"), virt("21"));
    assert_ne!(virt("21"), virt("22"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--seed", "1"],
        &["--workload", "sim_mru_16", "--trace", "2"],
        &["--workload", "sim_mru_16", "--seconds", "-3"],
        &["--workload", "sim_mru_16", "--bogus", "1"],
        &["run", "--seed", "not-a-number"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
