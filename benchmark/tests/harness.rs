//! Unit tests of the harness itself: order statistics, span self-time
//! arithmetic, metric-name validation, the JSON round trip, the
//! correctness gate, and how the host-time metrics are read off slices.

use afs_benchmark::driver::{FullRun, Gate, Measured, Repeat, Slice};
use afs_benchmark::json::Json;
use afs_benchmark::metrics::{
    benchmark_json, valid_name, valid_unit, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use afs_benchmark::spans::{self_times_ns, Span, SpanRecorder};
use afs_benchmark::stats::{median, percentile, quartiles, sorted, Summary};
use afs_benchmark::workloads::{Outcome, Workload};

#[test]
fn median_takes_the_middle_or_the_mean_of_the_two_middles() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles_exclusive() {
    // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), Some([1.5, 3.0, 4.5]));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartiles(&[1.0, 2.0, 4.0]), Some([1.0, 2.0, 4.0]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn summary_reports_spread_as_a_share_of_the_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&ten).unwrap();
    assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
    assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // One sample: quartiles collapse onto it and the spread is zero.
    let one = Summary::of(&[3.0]).unwrap();
    assert_eq!((one.q1, one.q3, one.spread()), (3.0, 3.0, 0.0));
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn percentile_is_nearest_rank() {
    let v = sorted(&(1..=100).map(f64::from).collect::<Vec<_>>());
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 95.0), Some(95.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        block: 0,
    }
}

#[test]
fn self_time_is_duration_minus_what_children_cover() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 30, 60, Some(0)),
        span("a.inner", 12, 20, Some(1)),
    ];
    // root: 100 − (20 + 30); a: 20 − 8; b and a.inner are leaves.
    assert_eq!(self_times_ns(&spans), vec![50, 12, 30, 8]);
}

#[test]
fn overlapping_and_overhanging_children_are_not_counted_twice() {
    let spans = [
        span("root", 100, 200, None),
        span("x", 110, 150, Some(0)),
        span("y", 140, 170, Some(0)), // overlaps x by 10
        span("z", 190, 260, Some(0)), // hangs 60 past the root's end
        span("w", 0, 50, Some(0)),    // entirely before the root
    ];
    // Covered: [110,170) ∪ [190,200) = 60 + 10.
    assert_eq!(self_times_ns(&spans)[0], 30);
}

#[test]
fn a_disabled_recorder_reads_no_clock_and_keeps_no_spans() {
    let mut off = SpanRecorder::new(false);
    let id = off.begin("stage", None, 0);
    off.end(id);
    assert!(off.spans().is_empty());

    let mut on = SpanRecorder::new(true);
    let root = on.begin("block", None, 7);
    let child = on.begin("stage", Some(root), 7);
    on.end(child);
    on.end(root);
    let s = on.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[1].parent, s[1].block), (Some(0), 7));
    assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    let trace = on.chrome_trace();
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
}

#[test]
fn metric_and_workload_names_are_legal_and_unique() {
    for ok in [
        "a",
        "pkts_per_wall_s",
        "desim.event_ns_per_op",
        "9x",
        "a-b.c_d",
    ] {
        assert!(valid_name(ok), "{ok}");
    }
    let too_long = "x".repeat(65);
    for bad in [
        "",
        ".lead",
        "_lead",
        "-lead",
        "a b",
        "µs",
        "a/b",
        too_long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["ms", "s", "1/s", "count", "pkts/s", "KiB", "%", "ns"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "µs", "pkts per s", "seventeen_chars__"] {
        assert!(!valid_unit(bad), "{bad}");
    }

    let mut seen = std::collections::HashSet::new();
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in names {
        assert!(valid_name(name), "metric name {name}");
        assert!(valid_unit(unit), "unit {unit} of {name}");
        assert!(seen.insert(name), "metric {name} defined twice");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        assert!(seen.insert(w.name()), "{} collides with a metric", w.name());
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    assert_eq!(Workload::from_name("no_such_workload"), None);
}

#[test]
fn end_to_end_bounds_fit_the_contract() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!(setup.unit, "s");
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        // Set-up time gets the largest bound: it is the noisiest number.
        assert!(m.bound <= setup.bound, "{}", m.name);
    }
}

#[test]
fn json_round_trips_every_value_kind() {
    let doc = Json::obj([
        ("null", Json::Null),
        ("yes", Json::Bool(true)),
        ("no", Json::Bool(false)),
        ("int", Json::Num(4_480_589.0)),
        ("tiny", Json::Num(5e-324)),
        ("third", Json::Num(1.0 / 3.0)),
        ("neg", Json::Num(-0.19230769230769232)),
        (
            "text",
            Json::str("quote \" slash \\ newline \n tab \t µs \u{1}"),
        ),
        (
            "list",
            Json::Arr(vec![Json::Num(1.0), Json::str("two"), Json::Arr(vec![])]),
        ),
        ("empty", Json::obj::<&str>([])),
    ]);
    for text in [doc.render(), doc.render_pretty()] {
        assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
    }
    // Every digit of a measurement survives: the bits are unchanged.
    let x = 2_390_070.511_870_011_f64;
    let back = Json::parse(&Json::Num(x).render())
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(back.to_bits(), x.to_bits());
    // Non-finite numbers have no JSON form and become null.
    assert_eq!(Json::num(f64::NAN), Json::Null);
    assert_eq!(Json::num(f64::INFINITY), Json::Null);

    for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
    assert_eq!(doc.get("int").and_then(Json::as_u64), Some(4_480_589));
    assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
    assert_eq!(doc.get("missing"), None);
}

#[test]
fn the_spec_subcommand_renders_a_contract_shaped_document() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 5);
    for e in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let keys: Vec<&str> = e
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "unit", "better", "bound"]);
    }
    for p in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
        let keys: Vec<&str> = p
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["name", "unit", "better"]);
    }
    assert!(doc.render_pretty().len() < 64 * 1024);
    // The committed file, when the benchmark sits in its repository, is
    // exactly what the tables render — edit the tables, not the file.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    if let Ok(text) = std::fs::read_to_string(committed) {
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, doc, "BENCHMARK.json drifted from src/metrics.rs");
    }
}

fn outcome(offered: u64, delay_us: f64) -> Outcome {
    Outcome {
        offered,
        delivered: offered,
        mean_delay_us: delay_us,
        fields: vec![("mean_delay_us".into(), delay_us.to_bits())],
        ..Outcome::default()
    }
}

#[test]
fn a_run_that_differs_from_the_first_fails_all_its_packets() {
    let mut gate = Gate::default();
    gate.take("w", outcome(100, 5.0));
    gate.take("w", outcome(100, 5.0));
    assert_eq!((gate.attempted, gate.failed), (200, 0));
    assert!(gate.problems.is_empty());
    gate.take("w", outcome(100, 5.000001));
    assert_eq!((gate.attempted, gate.failed), (300, 100));
    assert!(gate.problems[0].contains("run 3 differs from run 1 in mean_delay_us"));
}

/// A child whose slices of 1 000 packets took `walls_s`, the calibration
/// kernel reading `calib` ns per iteration beside each.
fn child(setup_s: f64, full: bool, walls_s: &[f64], calib: f64, steal: f64) -> Repeat {
    Repeat {
        setup_s,
        full: full.then(|| FullRun {
            wall_s: 1.0,
            peak_rss_kb: 4096.0,
            outcome: outcome(10_000, 7.0),
        }),
        slice_outcome: outcome(1_000, 3.0),
        slices: walls_s
            .iter()
            .map(|&wall_s| Slice {
                wall_s,
                steal_share: steal,
                calib_ns_per_iter: calib,
            })
            .collect(),
        slices_attempted: 1_000 * walls_s.len() as u64,
        slices_failed: 0,
        slice_problems: Vec::new(),
    }
}

#[test]
fn host_times_are_read_at_their_fast_end_over_all_children() {
    let mut m = Measured::new(Workload::ServeFdirSteady);
    // 1 000, 500 and 250 pkts per wall second at the reference speed.
    m.take(child(0.030, true, &[1.0, 2.0, 4.0], 2.0, 0.0));
    // 2 000 pkts per wall second, but on a processor in its fast state
    // (1.5 ns per iteration): 1 500 per reference second.
    m.take(child(0.050, false, &[0.5, 0.5, 8.0], 1.5, 0.0));
    // Stolen time: set aside whatever it read.
    m.take(child(0.040, false, &[0.1, 0.1, 0.1], 2.0, 0.5));
    m.setup_only_s = vec![0.020, 0.060];
    assert_eq!(m.noisy_reruns(), 3);
    assert_eq!(m.slice_rates(), [93.75, 250.0, 500.0, 1000.0, 1500.0, 1500.0]);
    let reported = m.end_to_end();
    let value = |name: &str| reported.iter().find(|r| r.name == name).unwrap().value;
    assert_eq!(value("pkts_per_wall_s"), 1500.0);
    assert_eq!(value("setup_s"), 0.030);
    assert_eq!(value("virt_mean_delay_us"), 7.0);
    assert_eq!(value("peak_rss_kb"), 4096.0);
    assert_eq!(m.attempted(), 10_000 + 9_000);
    assert_eq!(m.failed(), 0);
    assert!(m.problems().is_empty());
}

#[test]
fn a_child_whose_slices_differ_from_the_first_childs_fails_them_all() {
    let mut m = Measured::new(Workload::SimMru16);
    m.take(child(0.03, true, &[1.0, 1.0, 1.0], 2.0, 0.0));
    let mut other = child(0.03, false, &[1.0, 1.0, 1.0], 2.0, 0.0);
    other.slice_outcome = outcome(1_000, 3.5);
    m.take(other);
    assert_eq!(m.failed(), 3_000);
    assert_eq!(m.problems().len(), 1);
}
