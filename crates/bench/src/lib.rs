#![warn(missing_docs)]

//! # afs-bench — the experiment harness
//!
//! One binary, `afs-bench run <id>… | all [--smoke]` and `afs-bench
//! list`, over the static [`experiments::REGISTRY`]: one entry per
//! table/figure of the paper (plus the extension experiments), each of
//! which:
//!
//! 1. runs the workloads that generate the artifact,
//! 2. prints the same rows/series the paper reports,
//! 3. writes the `results/` files its registry entry owns, and
//! 4. checks the *shape* expectations recorded in DESIGN.md §4 and
//!    prints PASS/FAIL lines (the process exits 1 on a FAIL, 2 on a
//!    usage error, so the harness can gate CI).
//!
//! Absolute numbers are not expected to match the paper (our substrate
//! is a simulator, not the authors' Challenge XL); the checked claims
//! are orderings, crossovers, and the calibrated anchors.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use afs_core::prelude::*;

pub mod artifacts;
pub mod experiments;
pub mod source;

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

/// Tracks the shape-check outcomes of one experiment; the runner's
/// `main` turns them into the verdict table and the exit code.
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

    /// Number of expectations recorded so far.
    pub fn total(&self) -> u32 {
        self.total
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
/// The workspace carries no serde; experiments render their own
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

/// Whether this run was asked for the shortened smoke horizon: `AFS_QUICK`
/// set in the environment, or a `--smoke` argument — the one switch,
/// meaning the same for every experiment. The runner's `main` reads it
/// once and hands it to each experiment as `quick`.
pub fn quick_mode() -> bool {
    std::env::var_os("AFS_QUICK").is_some() || std::env::args().any(|a| a == "--smoke")
}

/// The canonical simulation template used by the delay figures. With
/// `quick` the horizon shrinks ~4x for smoke runs (CI); the shape checks
/// are tuned for the full horizon and may be noisier then. The
/// golden-artifact regression tests always pass `quick = false` so they
/// reproduce the committed CSVs regardless of how the test run itself
/// was invoked.
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

/// Canonical Locking paradigm for the figures: one shared stack.
pub fn locking(policy: LockPolicy) -> Paradigm {
    Paradigm::Locking { policy }
}

/// A run's mean delay (µs), or ∞ if the run was unstable — the paper's
/// curves shoot up at saturation. Formats as `inf` in tables and CSVs.
pub fn delay_or_inf(r: &RunReport) -> f64 {
    if r.stable {
        r.mean_delay_us
    } else {
        f64::INFINITY
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
                Some(p) => print!(" {:>12.1}", delay_or_inf(&p.report)),
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
                let delay = s
                    .points
                    .get(i)
                    .map_or(f64::INFINITY, |p| delay_or_inf(&p.report));
                let _ = write!(row, ",{delay:.2}");
            }
            row
        })
        .collect();
    (header, rows)
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
        template_with(locking(LockPolicy::Mru), 4, false).validate();
        template_with(ips(IpsPolicy::Wired, 4), 4, true).validate();
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
        let mut quick = template_with(locking(LockPolicy::Mru), 2, false);
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
}
