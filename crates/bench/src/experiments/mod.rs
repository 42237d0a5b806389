//! The experiment registry: every table, figure, extension and utility
//! the `afs-bench` binary can run, one module each, listed once in
//! [`REGISTRY`] — plus the measurement loops more than one experiment
//! shares.

use afs_cache::sim::hierarchy::MemoryHierarchy;
use afs_cache::sim::trace::Region;
use afs_core::prelude::*;
use afs_xkernel::CostModel;

use crate::{Artifact, Checks};

pub use ext23_obs::{native_obs_trace_golden, obs_trace_golden};

mod abl17_sensitivity;
mod abl18_procs;
mod ext12_send_side;
mod ext13_packet_train;
mod ext14_num_stacks;
mod ext15_copying;
mod ext16_hybrid;
mod ext19_tcp;
mod ext20_stream_capacity;
mod ext21_faults;
mod ext22_native;
mod ext23_obs;
mod ext24_procfaults;
mod ext25_streams;
mod ext26_serve;
mod fig01;
mod fig02;
mod fig03;
mod fig04;
mod fig05;
mod fig06;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod size_snapshot;
mod summary;
mod table1;
mod table2;
mod trace_summary;

/// One runnable experiment.
#[derive(Debug)]
pub struct Experiment {
    /// What `afs-bench run <id>` takes; also the module name.
    pub id: &'static str,
    /// What the experiment shows (banner line 1).
    pub title: &'static str,
    /// The paper statement it answers to (banner line 2).
    pub paper: &'static str,
    /// The files under `results/` this experiment owns, in the order
    /// `run` returns them.
    pub files: &'static [&'static str],
    /// Run it: `quick` selects the smoke horizon, shape expectations go
    /// to the `Checks`, and the files come back for the caller to write
    /// or to compare. An experiment writes nothing itself.
    pub run: fn(quick: bool, checks: &mut Checks) -> Vec<Artifact>,
}

impl Experiment {
    /// Run it and return its files, which must be the ones it owns.
    pub fn artifacts(&self, quick: bool, checks: &mut Checks) -> Vec<Artifact> {
        let artifacts = (self.run)(quick, checks);
        let files: Vec<&str> = artifacts.iter().map(|a| a.file).collect();
        assert_eq!(
            files, self.files,
            "{} must return the files it owns",
            self.id
        );
        artifacts
    }
}

/// The registry entry `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Every experiment, in the order `afs-bench run all` runs them.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Platform parameters & measured packet time bounds",
        paper: "t_cold = 284.3 us (measured); F(x) computed for the 100 MHz R4400, m = 5",
        files: &["table1.csv"],
        run: table1::experiment,
    },
    Experiment {
        id: "table2",
        title: "Components of affinity overhead",
        paper: "Section-4 method: controlled cache states isolate per-component penalties",
        files: &["table2.csv"],
        run: table2::experiment,
    },
    Experiment {
        id: "fig01",
        title: "System model (with calibrated parameters)",
        paper: "streams -> queues -> N processors; non-protocol work fills idle cycles",
        files: &[],
        run: fig01::experiment,
    },
    Experiment {
        id: "fig02",
        title: "Reload transient: packet execution time vs packet index after a flush",
        paper: "protocol receive time tends from t_cold (284.3 us) to t_warm",
        files: &["fig02.csv"],
        run: fig02::experiment,
    },
    Experiment {
        id: "fig03",
        title: "Packet execution time by cache state: measured vs analytic model",
        paper: "the simulation's analytic component is parameterized by measurement",
        files: &["fig03.csv"],
        run: fig03::experiment,
    },
    Experiment {
        id: "fig04",
        title: "SST footprint function u(R, L), MVS workload constants",
        paper: "u(R,L) = W L^a R^b d^(log L log R); constants fitted to the MVS trace",
        files: &["fig04.csv"],
        run: fig04::experiment,
    },
    Experiment {
        id: "fig05",
        title: "Displacement curves F1(x), F2(x) + trace-driven cross-validation",
        paper: "footprint flushed much more slowly from L2 than from L1",
        files: &["fig05_analytic.csv", "fig05_crossval.csv"],
        run: fig05::experiment,
    },
    Experiment {
        id: "fig06",
        title: "Locking: mean packet delay vs arrival rate (K = 8 = N)",
        paper: "affinity-based scheduling significantly reduces communication delay",
        files: &["fig06.csv"],
        run: fig06::experiment,
    },
    Experiment {
        id: "fig07",
        title: "Locking, K = 32 streams: MRU vs Wired crossover at high rate",
        paper: "MRU except under high arrival rate, when Wired-Streams performs better",
        files: &["fig07.csv"],
        run: fig07::experiment,
    },
    Experiment {
        id: "fig08",
        title: "IPS vs Locking: delay vs arrival rate; IPS wired/MRU crossover",
        paper: "IPS: much lower latency, higher capacity; wire stacks except at low rate",
        files: &["fig08.csv"],
        run: fig08::experiment,
    },
    Experiment {
        id: "fig09",
        title: "(a) burst robustness; (b) intra-stream scalability",
        paper: "IPS: less robust to intra-stream burstiness; limited intra-stream scalability",
        files: &["fig09a.csv", "fig09b.csv"],
        run: fig09::experiment,
    },
    Experiment {
        id: "fig10",
        title: "Locking: % delay reduction from affinity scheduling vs rate, V in {0,35,70,139} us",
        paper: "V = 0 upper bound ~40-50%; data touching dilutes the benefit",
        files: &["fig10.csv"],
        run: fig10::experiment,
    },
    Experiment {
        id: "fig11",
        title: "IPS: % delay reduction from affinity scheduling vs rate, V in {0,35,70,139} us",
        paper: "same dilution-by-data-touching effect under IPS",
        files: &["fig11.csv"],
        run: fig11::experiment,
    },
    Experiment {
        id: "ext12_send_side",
        title: "Send-side UDP/IP/FDDI under affinity scheduling",
        paper: "future-work item (i): evaluating affinity-based scheduling of send-side processing",
        files: &["ext12_send_side.csv"],
        run: ext12_send_side::experiment,
    },
    Experiment {
        id: "ext13_packet_train",
        title: "Packet-train burstiness / source locality",
        paper: "future-work item (ii), Packet-Train model of Jain & Routhier",
        files: &["ext13_packet_train.csv"],
        run: ext13_packet_train::experiment,
    },
    Experiment {
        id: "ext14_num_stacks",
        title: "IPS: impact of the number of independent stacks",
        paper: "future-work item (iii): exploring under IPS the impact of varying the number of stacks",
        files: &["ext14_num_stacks.csv"],
        run: ext14_num_stacks::experiment,
    },
    Experiment {
        id: "ext15_copying",
        title: "Copying uncached packet data: affinity benefit vs packet size",
        paper: "future-work item (iv); checksum/copy at 32 bytes/us, 4432 B -> 139 us",
        files: &["ext15_copying.csv"],
        run: ext15_copying::experiment,
    },
    Experiment {
        id: "ext16_hybrid",
        title: "Hybrid policy: pool the hot streams, wire the moderate tail",
        paper: "TR-94-075's hybrid: throughput + intra-stream scalability + burst robustness",
        files: &["ext16_hybrid.csv"],
        run: ext16_hybrid::experiment,
    },
    Experiment {
        id: "ext19_tcp",
        title: "TCP receive-side affinity scheduling",
        paper: "paper: results likely hold for TCP; TCP-specific share ~15% at 1-byte packets",
        files: &["ext19_tcp.csv"],
        run: ext19_tcp::experiment,
    },
    Experiment {
        id: "ext20_stream_capacity",
        title: "Concurrent streams supported at a mean-delay target",
        paper: "affinity scheduling enables the host to support a greater number of concurrent streams",
        files: &["ext20_stream_capacity.csv"],
        run: ext20_stream_capacity::experiment,
    },
    Experiment {
        id: "ext21_faults",
        title: "Fault injection & overload resilience",
        paper: "robustness extension: the affinity ranking under loss/corruption, and graceful degradation with bounded queues",
        files: &["ext21_faults.json"],
        run: ext21_faults::experiment,
    },
    Experiment {
        id: "ext22_native",
        title: "Native pinned-thread backend vs. simulator",
        paper: "cross-validation: the policy ordering and affinity win must reproduce on real threads",
        files: &["ext22_native.csv"],
        run: ext22_native::experiment,
    },
    Experiment {
        id: "ext23_obs",
        title: "Observability: fig06 policy curves derived from traces alone",
        paper: "the per-message event stream must carry the whole affinity story (Sec 6.1)",
        files: &[
            "ext23_obs.csv",
            "ext23_trace_golden.jsonl",
            "ext23_native_trace_golden.jsonl",
        ],
        run: ext23_obs::experiment,
    },
    Experiment {
        id: "ext24_procfaults",
        title: "Scheduling for affinity under processor faults",
        paper: "crash/stall/slowdown injection: conservation and the affinity win on both backends",
        files: &["ext24_procfaults.csv"],
        run: ext24_procfaults::experiment,
    },
    Experiment {
        id: "ext25_streams",
        title: "NIC front-ends over large stream populations",
        paper: "RSS / Flow-Director / transport-friendly steering of Zipf flows, both backends",
        files: &["ext25_streams.csv"],
        run: ext25_streams::experiment,
    },
    Experiment {
        id: "ext26_serve",
        title: "sustained-ingest serving: offered-load sweep over the batched native path",
        paper: "open-loop Zipf ingest, virtual-domain taildrop, batch-transparent dispatch",
        files: &["ext26_serve.csv"],
        run: ext26_serve::experiment,
    },
    Experiment {
        id: "abl17_sensitivity",
        title: "Affinity benefit vs cache-erosion speed (working-set scale W)",
        paper: "benefit is unimodal in erosion speed; locates the calibrated point",
        files: &["abl17_sensitivity.csv"],
        run: abl17_sensitivity::experiment,
    },
    Experiment {
        id: "abl18_procs",
        title: "Aggregate capacity vs processor count (K = 16 streams)",
        paper: "host scalability of the two paradigms",
        files: &["abl18_procs.csv"],
        run: abl18_procs::experiment,
    },
    Experiment {
        id: "summary",
        title: "Reproduction digest: calibration anchors + policy landscape",
        paper: "Salehi/Kurose/Towsley, HPDC-4 1995",
        files: &[],
        run: summary::experiment,
    },
    Experiment {
        id: "trace_summary",
        title: "Unified observability digest: simulator and native backends",
        paper: "profiling hooks for the Sec 5/6 scheduling machinery",
        files: &[],
        run: trace_summary::experiment,
    },
    Experiment {
        id: "size_snapshot",
        title: "Code lines per crate, non-test versus test",
        paper: "ROADMAP aim 2: line count per crate is a tracked metric",
        files: &["size.json"],
        run: size_snapshot::experiment,
    },
];

/// Section-4 bounds of one protocol path, `[t_warm, t_L2, t_cold]` µs:
/// for each controlled cache state (untouched / L1 flushed / everything
/// flushed before every packet) a fresh path from `mk_path` runs 30
/// warm-up packets and the mean of the next 20 is the bound. The path
/// closure processes packet `i` on the given hierarchy and returns its
/// time in µs; the DMA-cold purge of the packet buffer precedes each.
fn path_bounds<P>(mk_path: impl Fn() -> P) -> [f64; 3]
where
    P: FnMut(&mut MemoryHierarchy, u32) -> f64,
{
    let preps: [fn(&mut MemoryHierarchy); 3] = [|_| {}, |h| h.flush_l1(), |h| h.flush_all()];
    preps.map(|prep| {
        let mut packet = mk_path();
        let mut hier = CostModel::default().hierarchy();
        let (warmup, measure) = (30, 20);
        let mut total = 0.0;
        for i in 0..warmup + measure {
            hier.purge_region(Region::PacketData);
            prep(&mut hier);
            let us = packet(&mut hier, i);
            if i >= warmup {
                total += us;
            }
        }
        total / measure as f64
    })
}

/// Per-stream rate at which `k` streams would saturate the 8 processors
/// if every packet cost the warm/cold midpoint plus the uncached
/// overhead `v_us` (and the lock overhead under Locking) — a fair
/// estimate of the affinity-oblivious reference's knee, used to place
/// the rate grids of the reduction figures. The terms are added in this
/// order (midpoint, then `v_us`, then the lock overhead) because the
/// grids feed committed artifacts and must stay bit-identical.
fn midpoint_capacity(exec: &ExecParams, v_us: f64, locking: bool, k: usize) -> f64 {
    let mut svc_mid = 0.5 * (exec.model.bounds.t_warm_us + exec.model.bounds.t_cold_us) + v_us;
    if locking {
        svc_mid += exec.lock_overhead_us;
    }
    8.0e6 / svc_mid / k as f64
}

/// Percent reduction in mean delay of the better of two affinity
/// policies over an affinity-oblivious `reference`, swept over `rates`:
/// `(rate, reduction %, saturated)` wherever the reference and at least
/// one affinity policy are stable. `saturated` marks points where the
/// reference's mean delay exceeds 5× its mean service time — past that
/// the ratio diverges toward 100 % and reads the capacity extension, not
/// the delay benefit.
fn reduction_curve(
    reference: &SystemConfig,
    affinity: [&SystemConfig; 2],
    rates: &[f64],
) -> Vec<(f64, f64, bool)> {
    let base = rate_sweep("reference", reference, rates);
    let [a, b] = affinity.map(|cfg| rate_sweep("affinity", cfg, rates).delays_us());
    let mut out = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        let r = &base.points[i].report;
        let best = a[i].min(b[i]);
        if r.stable && best.is_finite() {
            let saturated = r.mean_delay_us > 5.0 * r.mean_service_us;
            out.push((rate, 100.0 * (1.0 - best / r.mean_delay_us), saturated));
        }
    }
    out
}
