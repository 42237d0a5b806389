//! Live serving-path snapshots.
//!
//! `afs-serve` (the sustained-ingest binary on the native backend)
//! periodically publishes one [`ServeSnapshot`] per interval: the
//! admission ledger so far (offered = admitted + dropped), worker
//! progress, the generator's position on the virtual clock, and two
//! host-side gauges (wall time, resident set). Rendering follows the
//! [`crate::jsonl`] rules — fixed key order, fixed float formats, no
//! serde — so a given snapshot always renders to identical bytes.
//!
//! The host gauges (`wall_s`, `rss_kb`) exist for operators watching a
//! live run; committed artifacts and differential tests must only use
//! the virtual-domain fields, exactly as with [`crate::event`] traces.

use std::fmt::Write as _;

/// One point-in-time view of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSnapshot {
    /// Host wall-clock seconds since the run started (gauge only —
    /// never part of a committed artifact).
    pub wall_s: f64,
    /// Packets the generator has offered so far.
    pub offered: u64,
    /// Packets admitted into a worker ring (offered − dropped).
    pub admitted: u64,
    /// Packets tail-dropped at admission (modeled queue full).
    pub dropped: u64,
    /// Packets workers have finished processing.
    pub processed: u64,
    /// Virtual arrival stamp of the newest offered packet, µs.
    pub arrival_us: f64,
    /// Slowest worker's published virtual clock, µs.
    pub min_worker_vclock_us: f64,
    /// Fastest worker's published virtual clock, µs.
    pub max_worker_vclock_us: f64,
    /// Resident set size in KiB (`0` where unavailable; gauge only).
    pub rss_kb: u64,
}

impl ServeSnapshot {
    /// Append this snapshot as one JSON line (with trailing newline):
    /// fixed key order, timestamps with nanosecond precision, wall
    /// seconds with milliseconds — identical snapshots render to
    /// identical bytes.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{{\"e\":\"serve\",\"wall_s\":{:.3},\"offered\":{},\"admitted\":{},\"dropped\":{},\"processed\":{},\"arrival_us\":{:.3},\"vclock_min\":{:.3},\"vclock_max\":{:.3},\"rss_kb\":{}}}",
            self.wall_s,
            self.offered,
            self.admitted,
            self.dropped,
            self.processed,
            self.arrival_us,
            self.min_worker_vclock_us,
            self.max_worker_vclock_us,
            self.rss_kb,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> ServeSnapshot {
        ServeSnapshot {
            wall_s: 1.25,
            offered: 1000,
            admitted: 990,
            dropped: 10,
            processed: 960,
            arrival_us: 123456.789_25,
            min_worker_vclock_us: 120000.0,
            max_worker_vclock_us: 123000.5,
            rss_kb: 20480,
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_fixed_format() {
        let mut a = String::new();
        snap().write_jsonl(&mut a);
        let mut b = String::new();
        snap().write_jsonl(&mut b);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\"e\":\"serve\",\"wall_s\":1.250,\"offered\":1000,\"admitted\":990,\"dropped\":10,\"processed\":960,\"arrival_us\":123456.789,\"vclock_min\":120000.000,\"vclock_max\":123000.500,\"rss_kb\":20480}\n"
        );
    }
}
