//! Row generation for the golden artifacts.
//!
//! The figure/table binaries and the golden regression tests must agree
//! on the exact bytes that land in `results/`. This module is the
//! single source of those rows: each function builds the sweeps (or
//! calibration) for one artifact and returns an [`Artifact`] whose
//! [`Artifact::csv_bytes`] are byte-for-byte what [`crate::write_csv`]
//! persists. `tests/golden_artifacts.rs` diffs that against the
//! committed CSVs, so any change to the simulator that perturbs these
//! numbers fails loudly instead of silently rewriting the results.

use std::fmt::Write as _;

use afs_core::prelude::*;
use afs_native::{run_native_recorded, zipf_workload, NativeConfig, NativeReport, Pinning};
use afs_sched::PolicySpec;
use afs_xkernel::{calibrate, Calibration, CostModel};

use crate::{series_rows, template_with, write_csv};

/// One rendered CSV artifact: the name under `results/` plus the exact
/// header and rows the binary writes.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// File stem under `results/` (the binary writes `<name>.csv`).
    pub name: &'static str,
    /// CSV header line (no trailing newline).
    pub header: String,
    /// CSV data rows (no trailing newlines).
    pub rows: Vec<String>,
}

impl Artifact {
    /// The exact file contents [`crate::write_csv`] produces.
    pub fn csv_bytes(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 32 + self.header.len() + 2);
        let _ = writeln!(out, "{}", self.header);
        for r in &self.rows {
            let _ = writeln!(out, "{r}");
        }
        out
    }

    /// Persist under `results/<name>.csv` via [`crate::write_csv`].
    pub fn write(&self) {
        write_csv(self.name, &self.header, &self.rows);
    }
}

/// A delay-vs-rate figure: the sweep grid, the swept series (for shape
/// checks and console tables), and the rendered artifact.
#[derive(Debug)]
pub struct FigureData {
    /// Per-stream arrival-rate grid (packets/second).
    pub rates: Vec<f64>,
    /// One swept series per policy, in the order the figure plots them.
    pub series: Vec<Series>,
    /// The rendered CSV.
    pub artifact: Artifact,
}

/// Figure 6 — Locking paradigm, K = 8 = N: baseline → pools → MRU →
/// Wired. Series order matches the plot legend.
pub fn fig06(quick: bool) -> FigureData {
    let k = 8;
    let rates: Vec<f64> = vec![
        200.0, 400.0, 800.0, 1400.0, 2000.0, 2800.0, 3600.0, 4200.0, 4800.0, 5200.0,
    ];
    let policies = [
        ("baseline", LockPolicy::Baseline),
        ("pools", LockPolicy::Pools),
        ("mru", LockPolicy::Mru),
        ("wired", LockPolicy::Wired),
    ];
    let mut series = Vec::new();
    for (label, p) in policies {
        let t = template_with(Paradigm::Locking { policy: p }, k, quick);
        series.push(rate_sweep(label, &t, &rates));
    }
    let (header, rows) = series_rows(&rates, &series);
    FigureData {
        rates,
        series,
        artifact: Artifact {
            name: "fig06",
            header,
            rows,
        },
    }
}

/// Figure 7 — Locking with K = 32 > N: the MRU/Wired crossover.
/// Series order: baseline, mru, wired.
pub fn fig07(quick: bool) -> FigureData {
    let k = 32;
    let rates: Vec<f64> = vec![
        50.0, 100.0, 200.0, 350.0, 500.0, 700.0, 900.0, 1100.0, 1250.0, 1350.0, 1450.0,
    ];
    let policies = [
        ("baseline", LockPolicy::Baseline),
        ("mru", LockPolicy::Mru),
        ("wired", LockPolicy::Wired),
    ];
    let mut series = Vec::new();
    for (label, p) in policies {
        let t = template_with(Paradigm::Locking { policy: p }, k, quick);
        series.push(rate_sweep(label, &t, &rates));
    }
    let (header, rows) = series_rows(&rates, &series);
    FigureData {
        rates,
        series,
        artifact: Artifact {
            name: "fig07",
            header,
            rows,
        },
    }
}

/// Table 1 — the calibration run plus its rendered key/value rows.
#[derive(Debug)]
pub struct Table1Data {
    /// The cost model the calibration ran against.
    pub cost: CostModel,
    /// Section-4 calibration results (bounds, footprints, overheads).
    pub cal: Calibration,
    /// The rendered CSV.
    pub artifact: Artifact,
}

/// Table 1 — platform parameters and measured per-packet time bounds.
/// Deterministic (no simulation horizon), so there is no quick mode.
pub fn table1() -> Table1Data {
    let cost = CostModel::default();
    let cal = calibrate(&cost);
    let rows = vec![
        format!("t_warm_us,{:.2}", cal.bounds.t_warm_us),
        format!("t_l2_us,{:.2}", cal.bounds.t_l2_us),
        format!("t_cold_us,{:.2}", cal.bounds.t_cold_us),
        "paper_t_cold_us,284.3".to_string(),
        format!("max_reduction,{:.4}", cal.max_reduction()),
        format!("instrs_per_packet,{}", cal.instrs_per_packet),
        format!("refs_per_packet,{}", cal.refs_per_packet),
        format!("lock_overhead_us,{:.2}", cal.lock_overhead_us),
    ];
    Table1Data {
        cost,
        cal,
        artifact: Artifact {
            name: "table1",
            header: "key,value".to_string(),
            rows,
        },
    }
}

/// The seeded-replay golden trace (E23): a small, fully deterministic
/// simulator run captured through the unified observability recorder and
/// rendered as JSONL. Committed under `results/ext23_trace_golden.jsonl`
/// and diffed byte-for-byte by `tests/golden_artifacts.rs` — identical
/// seed and configuration must reproduce the identical trace, which is
/// what pins the event schema, the emission order, and the numeric
/// formatting all at once.
pub fn obs_trace_golden() -> (RunReport, String) {
    let mut cfg = SystemConfig::new(
        Paradigm::Locking {
            policy: LockPolicy::Mru,
        },
        Population::homogeneous_poisson(4, 300.0),
    );
    cfg.n_procs = 2;
    cfg.warmup = SimDuration::from_millis(20);
    cfg.horizon = SimDuration::from_millis(120);
    let mut rec = MemRecorder::new();
    let (report, _probe) = run_observed(&cfg, &mut rec);
    (report, afs_obs::jsonl::render(&rec.events))
}

/// File name of the committed golden trace under `results/`.
pub const OBS_TRACE_GOLDEN_FILE: &str = "ext23_trace_golden.jsonl";

/// The native golden trace (E23): a recorded three-worker IPS run with
/// stealing over a small overloaded Zipf replay, rendered as JSONL.
/// Every stamp is virtual and every queue depth is counted from the
/// merged trace, so the bytes are a function of the configuration and
/// the seed alone — at any dequeue batch. Committed under
/// `results/ext23_native_trace_golden.jsonl` and diffed byte-for-byte by
/// `tests/golden_artifacts.rs`.
pub fn native_obs_trace_golden() -> (NativeReport, String) {
    const SEED: u64 = 0x6017_DE23;
    let mut cfg = NativeConfig::new(3, PolicySpec::Ips);
    cfg.pinning = Pinning::Off;
    cfg.seed = SEED;
    let workload = zipf_workload(16, 400, 30_000.0, 1.1, 4.0, None, 64, SEED);
    let (report, rec) = run_native_recorded(&cfg, workload);
    (report, afs_obs::jsonl::render(&rec.events))
}

/// File name of the committed native golden trace under `results/`.
pub const NATIVE_TRACE_GOLDEN_FILE: &str = "ext23_native_trace_golden.jsonl";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_bytes_match_write_csv_format() {
        let a = Artifact {
            name: "t",
            header: "a,b".into(),
            rows: vec!["1,2".into(), "3,4".into()],
        };
        assert_eq!(a.csv_bytes(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn obs_trace_golden_is_deterministic_and_nonempty() {
        let (ra, ta) = obs_trace_golden();
        let (rb, tb) = obs_trace_golden();
        assert_eq!(ra, rb, "replay must reproduce the report");
        assert_eq!(ta, tb, "replay must reproduce the trace bytes");
        assert!(ta.lines().count() > 100, "trace suspiciously small");
        assert!(ra.delivered > 0);
    }

    #[test]
    fn table1_rows_are_deterministic() {
        let a = table1().artifact;
        let b = table1().artifact;
        assert_eq!(a.csv_bytes(), b.csv_bytes());
        assert_eq!(a.header, "key,value");
        assert_eq!(a.rows.len(), 8);
    }
}
