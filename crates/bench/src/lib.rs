#![warn(missing_docs)]

//! # afs-bench — the experiment harness
//!
//! One binary per table/figure of the paper (plus the extension
//! experiments), each of which:
//!
//! 1. runs the workloads that generate the artifact,
//! 2. prints the same rows/series the paper reports,
//! 3. writes a CSV under `results/`, and
//! 4. checks the *shape* expectations recorded in DESIGN.md §4 and
//!    prints PASS/FAIL lines (the process exits non-zero on FAIL so the
//!    harness can gate CI).
//!
//! Absolute numbers are not expected to match the paper (our substrate
//! is a simulator, not the authors' Challenge XL); the checked claims
//! are orderings, crossovers, and the calibrated anchors.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use afs_core::prelude::*;
use afs_core::sweep::SweepPoint;

pub mod artifacts;

/// Standard experiment scale: the paper's 8-processor Challenge XL.
pub const N_PROCS: usize = 8;
/// Default stream population for the delay figures.
pub const K_STREAMS: usize = 16;

/// Directory where CSV outputs land.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Print the experiment banner.
pub fn banner(id: &str, title: &str, paper_note: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("  paper: {paper_note}");
    println!("================================================================");
}

/// Tracks shape-check outcomes and renders the final verdict.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u32,
    total: u32,
}

impl Checks {
    /// New empty check set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one expectation.
    pub fn expect(&mut self, name: &str, ok: bool) {
        self.total += 1;
        if ok {
            println!("  [PASS] {name}");
        } else {
            self.failures += 1;
            println!("  [FAIL] {name}");
        }
    }

    /// Number of failures so far.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// Exit the process with a summary (non-zero on failure).
    pub fn finish(self) {
        println!(
            "shape checks: {}/{} passed",
            self.total - self.failures,
            self.total
        );
        if self.failures > 0 {
            std::process::exit(1);
        }
    }
}

/// Write rows to `results/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 2);
    let _ = writeln!(out, "{header}");
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    fs::write(&path, out).expect("write csv");
    println!("  wrote {}", path.display());
}

/// Write a pre-rendered JSON document to `results/<name>.json`.
///
/// The workspace carries no serde; experiment binaries render their own
/// rows (all keys and values are program-generated, so no escaping is
/// needed).
pub fn write_json(name: &str, body: &str) {
    let path = results_dir().join(format!("{name}.json"));
    fs::write(&path, body).expect("write json");
    println!("  wrote {}", path.display());
}

/// Render `(key, value)` pairs as one JSON object. Values are inserted
/// verbatim — pass `"42"`, `"true"`, or an already-quoted string.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    }
    out.push('}');
    out
}

/// The canonical simulation template used by the delay figures.
///
/// Under [`quick_mode`] the horizon shrinks ~4x for smoke runs (CI); the
/// shape checks are tuned for the full horizon and may be noisier then.
pub fn template(paradigm: Paradigm, k: usize) -> SystemConfig {
    template_with(paradigm, k, quick_mode())
}

/// Whether this run was asked for the shortened smoke horizon: `AFS_QUICK`
/// set in the environment, or a `--smoke` argument — the one switch,
/// meaning the same for every binary. No other argument is parsed, so
/// test harness processes (which reach this through [`template`]) can
/// call it whatever filters they were started with.
pub fn quick_mode() -> bool {
    std::env::var_os("AFS_QUICK").is_some() || std::env::args().any(|a| a == "--smoke")
}

/// [`template`] with the horizon chosen explicitly instead of from the
/// environment. The golden-artifact regression tests always pass
/// `quick = false` so they reproduce the committed CSVs regardless of
/// how the test run itself was invoked.
pub fn template_with(paradigm: Paradigm, k: usize, quick: bool) -> SystemConfig {
    let mut cfg = SystemConfig::new(paradigm, Population::homogeneous_poisson(k, 100.0));
    cfg.n_procs = N_PROCS;
    if quick {
        cfg.warmup = SimDuration::from_millis(150);
        cfg.horizon = SimDuration::from_millis(650);
    } else {
        cfg.warmup = SimDuration::from_millis(300);
        cfg.horizon = SimDuration::from_millis(2_300);
    }
    cfg
}

/// Canonical IPS paradigm for the figures: one stack per stream.
pub fn ips(policy: IpsPolicy, k: usize) -> Paradigm {
    Paradigm::Ips {
        policy,
        n_stacks: k,
    }
}

/// Format one sweep point's delay for a table cell.
pub fn cell(p: &SweepPoint) -> String {
    if p.report.stable {
        format!("{:>12.1}", p.report.mean_delay_us)
    } else {
        format!("{:>12}", "unstable")
    }
}

/// Print several series against a shared rate grid.
pub fn print_table(x_label: &str, rates: &[f64], series: &[Series]) {
    print!("{x_label:>12}");
    for s in series {
        print!(" {:>12}", s.label);
    }
    println!();
    for (i, r) in rates.iter().enumerate() {
        print!("{r:>12.0}");
        for s in series {
            match s.points.get(i) {
                Some(p) => print!(" {}", cell(p)),
                None => print!(" {:>12}", "-"),
            }
        }
        println!();
    }
}

/// CSV rows for a set of series on a shared grid.
pub fn series_rows(rates: &[f64], series: &[Series]) -> (String, Vec<String>) {
    let mut header = String::from("rate_per_stream");
    for s in series {
        let _ = write!(header, ",{}", s.label.replace(' ', "_"));
    }
    let rows = rates
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut row = format!("{r}");
            for s in series {
                match s.points.get(i) {
                    Some(p) if p.report.stable => {
                        let _ = write!(row, ",{:.2}", p.report.mean_delay_us);
                    }
                    _ => row.push_str(",inf"),
                }
            }
            row
        })
        .collect();
    (header, rows)
}

/// The rate grid used by the Locking/IPS delay figures (packets/second
/// per stream, K = 16 → aggregate up to 44 800 pps ≈ past the knee).
pub fn standard_rates() -> Vec<f64> {
    vec![
        100.0, 200.0, 400.0, 700.0, 1000.0, 1400.0, 1800.0, 2100.0, 2400.0, 2600.0, 2800.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }

    #[test]
    fn template_is_valid() {
        template(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            4,
        )
        .validate();
        template(ips(IpsPolicy::Wired, 4), 4).validate();
    }

    #[test]
    fn checks_count() {
        let mut c = Checks::new();
        c.expect("a", true);
        assert_eq!(c.failures(), 0);
        c.expect("b", false);
        assert_eq!(c.failures(), 1);
    }

    #[test]
    fn series_rows_formats_instability_as_inf() {
        let t = template(
            Paradigm::Locking {
                policy: LockPolicy::Mru,
            },
            2,
        );
        let mut quick = t.clone();
        quick.horizon = SimDuration::from_millis(400);
        quick.warmup = SimDuration::from_millis(80);
        let s = rate_sweep("mru", &quick, &[100.0, 30_000.0]);
        let (header, rows) = series_rows(&[100.0, 30_000.0], &[s]);
        assert!(header.starts_with("rate_per_stream"));
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].contains("inf"), "{}", rows[0]);
        assert!(rows[1].contains("inf"), "{}", rows[1]);
    }

    #[test]
    fn json_object_renders_flat_pairs() {
        let o = json_object(&[
            ("a", "1".into()),
            ("b", "true".into()),
            ("c", "\"x\"".into()),
        ]);
        assert_eq!(o, "{\"a\": 1, \"b\": true, \"c\": \"x\"}");
    }

    #[test]
    fn standard_rates_ascending() {
        let r = standard_rates();
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }
}
